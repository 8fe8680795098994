"""The loaders built on `records.read_records` against the loops they replaced.

On random files that mix valid lines, blank lines, bad JSON, non-objects,
wrong types, duplicates and, for TSV, non-consecutive sentence groups,
each loader must return the same records as its reference in
`tests/reference_loaders.py`, or raise a ValueError with the same text.
Three texts differ on purpose, and two checks were added since; each test
or reference says how:

- the benchmark TSV counts its errors as "row(s)", as the other TSV
  formats do, not "record(s)";
- a replay fixture lists every bad line like the other formats, where it
  used to stop at the first as "path:N: ...";
- a completions line that is not a JSON object reads "record must be a
  JSON object", as in the other JSON Lines formats;
- a completions line whose model_id is not a string is rejected, where it
  used to be recorded into the replay fixture as it was;
- a predictions file that repeats a sentence_id is rejected, where it used
  to load; `reference_load_predictions` has the same rule.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_loaders import (reference_load_benchmark, reference_load_counts,
                               reference_load_external_predictions, reference_load_predictions,
                               reference_read_completions, reference_replay_entries)

from elbench.backends import ReplayStore
from elbench.baseline import load_external_predictions
from elbench.benchmark import load_benchmark
from elbench import cli
from elbench.kb import KbRecord, MappingIndex, load_mapping, title_to_qid
from elbench.parsing import load_predictions
from elbench.prompting import build_prompt, default_template
from elbench import popularity
from elbench.popularity import load_counts
from elbench.records import encode_json, read_records

EXAMPLES = 300

BLANK = ["", "  ", "\t"]
# Lines of a JSON Lines file that no format takes.
JUNK = BLANK + ["{", "not json", "{'id': 1}", '{"a": 1,}', "[1",
                "[]", "[1, 2]", "1", '"text"', "null", "true"]


def objects(**fields):
    """JSON objects with fields drawn from the given pools."""
    return st.fixed_dictionaries({key: st.sampled_from(pool) for key, pool in fields.items()})


def wild_objects(**fields):
    """JSON objects with each of the fields present or not, drawn from pools."""
    return st.fixed_dictionaries({}, optional={key: st.sampled_from(pool)
                                               for key, pool in fields.items()})


def files(valid, wild, junk):
    """Half the files hold only valid lines and blank ones (so a load often
    succeeds, unless a duplicate or group split gets in the way); the rest
    mix in wild lines and junk."""
    return st.one_of(st.lists(st.one_of(valid, valid, st.sampled_from(BLANK)), max_size=10),
                     st.lists(st.one_of(valid, wild, wild, st.sampled_from(junk)), max_size=10)
                     ).map(lambda lines: "\n".join(lines) + "\n")


def jsonl(valid, wild):
    return files(valid.map(json.dumps), wild.map(json.dumps), JUNK)


def tsv(valid, wild):
    return files(valid.map("\t".join), wild.map("\t".join), BLANK)


IDS = ["s1", "s2", "s3", "s4", "s5", "s6"]
WILD_IDS = ["s1", "s2", "", 7, None]
BENCHMARK_JSONL = jsonl(
    objects(id=IDS, text=["Alpha beta."],
            mentions=[[], [{"surface": "Alpha", "qid": "Q1", "type": "PER"}],
                      [{"surface": "beta", "qid": "NIL", "start": 6, "end": 10}]]),
    wild_objects(id=WILD_IDS, text=["Alpha beta.", "  ", "", 3],
                 mentions=[{}, "none", None, [1], [{"surface": ""}], [{"qid": "Q1"}],
                           [{"surface": "Alpha", "qid": "q1"}],
                           [{"surface": "Alpha", "qid": "Q1\n"}],
                           [{"surface": "Alpha", "qid": "Q1", "type": 1}],
                           [{"surface": "Alpha", "qid": "Q1", "start": 0}],
                           [{"surface": "Alpha", "qid": "Q1", "start": True, "end": 5}],
                           [{"surface": "Alpha", "qid": "Q1", "start": 0, "end": 99}],
                           [{"surface": "Alpha", "qid": "Q1", "start": 6, "end": 10}]]))
# Few ids and texts, so groups split, texts clash and rows are malformed.
BENCHMARK_TSV = tsv(
    st.tuples(st.sampled_from(["a", "b", "c"]), st.just("Alpha beta."),
              st.sampled_from(["Alpha", "beta", ""]), st.sampled_from(["Q1", "NIL", ""]),
              st.sampled_from(["PER", ""])).filter(lambda row: all(row[2:]) or not any(row[2:])),
    st.one_of(st.tuples(st.sampled_from(["a", "b", ""]),
                        st.sampled_from(["Alpha beta.", "Other.", " "]),
                        st.sampled_from(["Alpha", "zzz", ""]), st.sampled_from(["Q1", "q1", ""]),
                        st.sampled_from(["PER", ""])),
              st.lists(st.sampled_from(["a", "Alpha beta.", "Q1"]), min_size=1, max_size=6)))
# Counts files come with LF or CRLF endings, with or without a final one.
COUNTS_TSV = st.tuples(
    tsv(st.tuples(st.sampled_from([f"Q{i}" for i in range(1, 30)] + [" Q1 "]),
                  st.sampled_from(["0", "1", "17", " 3 "])),
        st.one_of(st.tuples(st.sampled_from(["Q1", "q1", "", "Q"]),
                            st.sampled_from(["1", "-1", "x", "\u00b2", ""])),
                  st.lists(st.sampled_from(["Q1", "2", ""]), min_size=1, max_size=4))),
    st.sampled_from(["\n", "\r\n"]), st.booleans(),
).map(lambda drawn: (drawn[0] if drawn[2] else drawn[0][:-1]).replace("\n", drawn[1]))
PREDICTIONS = jsonl(
    st.one_of(objects(sentence_id=IDS, status=["clean", "repaired"],
                      links=[[], [{"surface": "Alpha", "title": "A"}],
                             [{"surface": "Alpha", "title": None, "qid": "Q1",
                               "resolution": "title"}]]),
              objects(sentence_id=IDS, status=["unparseable"], links=[[]],
                      error=["replay-miss"])),
    wild_objects(sentence_id=WILD_IDS, status=["clean", "unparseable", "odd", None],
                 links=[{}, "x", ["l"], [{"surface": ""}], [{"surface": "A", "title": 2}],
                        [{"surface": "A", "qid": "x"}], [{"surface": "A", "resolution": 0}],
                        [{"surface": "Alpha", "title": "A"}]],
                 error=["replay-miss", None, 3]))
EXTERNAL = jsonl(
    st.one_of(objects(sentence_id=IDS, surface=["Alpha"], page_id=[1, 2, 9]),
              objects(sentence_id=IDS, surface=["Beta"], title=["A", "B", "Nowhere"]),
              objects(sentence_id=IDS, surface=["Gamma"], page_id=[9], title=["Nowhere"],
                      qid=["Q7"])),
    wild_objects(sentence_id=WILD_IDS, surface=["Alpha", " ", 2],
                 page_id=[1, 0, -1, True, 2.0, "3", None], title=["A", "", " ", 5, None],
                 qid=["Q7", "q7", 7, None]))
COMPLETIONS = jsonl(
    st.one_of(objects(sentence_id=IDS[:3], raw_text=["[]", ""]),
              objects(sentence_id=IDS[:3], raw_text=["[]"], model_id=["m1", ""])),
    st.one_of(wild_objects(sentence_id=WILD_IDS + ["ghost"], raw_text=["[]", None, 1],
                           model_id=["m1", None]),
              objects(sentence_id=IDS[:3], raw_text=["[]"], model_id=[None, 5])))
FIXTURE = jsonl(
    objects(digest=["d1", "d2", "d3"], raw_text=["[]", "x"], prompt=["p"], model_id=["m", ""]),
    wild_objects(digest=["d1", 7, None], raw_text=["x", None, 2], prompt=["p"]))
KB = MappingIndex([KbRecord(1, "A", "Q1"), KbRecord(2, "B", None, redirect_to="A")])


def outcome(load, *args):
    """("ok", what a load returned), or ("error", the text of its ValueError)."""
    try:
        return ("ok", load(*args))
    except ValueError as exc:
        return ("error", str(exc))


def write(tmp_path_factory, name, text):
    path = tmp_path_factory.getbasetemp() / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@settings(max_examples=EXAMPLES, deadline=None)
@given(text=BENCHMARK_JSONL)
def test_benchmark_jsonl_equals_reference(tmp_path_factory, text):
    path = write(tmp_path_factory, "oracle_benchmark.jsonl", text)
    assert outcome(load_benchmark, path) == outcome(reference_load_benchmark, path)


@settings(max_examples=EXAMPLES, deadline=None)
@given(text=BENCHMARK_TSV)
def test_benchmark_tsv_equals_reference(tmp_path_factory, text):
    """The one difference: the error count's noun is "row(s)"."""
    path = write(tmp_path_factory, "oracle_benchmark.tsv", text)
    expected = outcome(reference_load_benchmark, path, "tsv")
    if expected[0] == "error":
        expected = ("error", expected[1].replace(" malformed record(s):", " malformed row(s):", 1))
    assert outcome(load_benchmark, path, "tsv") == expected


@settings(max_examples=EXAMPLES, deadline=None)
@given(text=COUNTS_TSV)
def test_counts_equal_reference(tmp_path_factory, text):
    path = write(tmp_path_factory, "oracle_counts.tsv", text)
    assert outcome(load_counts, path) == outcome(reference_load_counts, path)


@settings(max_examples=EXAMPLES, deadline=None)
@given(text=PREDICTIONS)
def test_predictions_equal_reference(tmp_path_factory, text):
    path = write(tmp_path_factory, "oracle_predictions.jsonl", text)
    assert outcome(load_predictions, path) == outcome(reference_load_predictions, path)


@settings(max_examples=EXAMPLES, deadline=None)
@given(text=EXTERNAL)
def test_external_rows_equal_reference(tmp_path_factory, text):
    path = write(tmp_path_factory, "oracle_external.jsonl", text)
    assert outcome(load_external_predictions, path, KB) == \
        outcome(reference_load_external_predictions, path, KB)


def non_object_lines(text):
    """The numbers of the lines that decode to JSON values other than objects."""
    numbers = []
    for lineno, line in enumerate(text.splitlines(), 1):
        try:
            value = json.loads(line)
        except ValueError:
            continue
        if not isinstance(value, dict):
            numbers.append(lineno)
    return numbers


def record(tmp_path_factory, completions):
    """What `elbench record` keeps of a completions log, by sentence ID, for a
    benchmark of the sentences IDS[:3]; a failed command raises its error."""
    base = tmp_path_factory.getbasetemp()
    bench, out = base / "oracle_record_bench.jsonl", base / "oracle_record_fixture.jsonl"
    texts = {sentence_id: f"Text of {sentence_id}." for sentence_id in IDS[:3]}
    bench.write_text("".join(json.dumps({"id": sentence_id, "text": text}) + "\n"
                             for sentence_id, text in texts.items()), encoding="utf-8")
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = cli.main(["record", "--benchmark", str(bench), "--completions", completions,
                         "--model", "default", "--out", str(out)])
    if code:
        raise ValueError(stderr.getvalue().removeprefix("error: ").removesuffix("\n"))
    template = default_template()
    sentence_of = {build_prompt(template, text): sentence_id for sentence_id, text in texts.items()}
    entries = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
    return {sentence_of[entry["prompt"]]: {"raw_text": entry["raw_text"],
                                           "model_id": entry["model_id"]} for entry in entries}


def non_string_model_id_lines(text):
    """The numbers of the object lines whose model_id is there but no string."""
    numbers = []
    for lineno, line in enumerate(text.splitlines(), 1):
        try:
            value = json.loads(line)
        except ValueError:
            continue
        if isinstance(value, dict) and not isinstance(value.get("model_id", ""), str):
            numbers.append(lineno)
    return numbers


@settings(max_examples=EXAMPLES, deadline=None)
@given(text=COMPLETIONS)
def test_record_completions_equal_reference(tmp_path_factory, text):
    """Two differences: a non-object line reads "record must be a JSON
    object", where the reference said its sentence_id was missing; and a line
    the reference took whole with a model_id that is not a string is listed
    as "model_id must be a string", where the reference recorded it as it
    was (the row still counts for the duplicate check)."""
    path = write(tmp_path_factory, "oracle_completions.jsonl", text)
    expected = outcome(reference_read_completions, path, set(IDS[:3]), "default")
    errors = {}
    if expected[0] == "error":
        message = expected[1]
        for lineno in non_object_lines(text):
            message = message.replace(f"\nline {lineno}: sentence_id must be a non-empty string",
                                      f"\nline {lineno}: record must be a JSON object")
        for error in message.split("\n")[1:]:
            errors[int(error.split(":")[0].removeprefix("line "))] = error
    for lineno in non_string_model_id_lines(text):
        errors.setdefault(lineno, f"line {lineno}: model_id must be a string")
    if errors:
        expected = ("error", f"{path}: {len(errors)} malformed record(s):\n"
                    + "\n".join(errors[lineno] for lineno in sorted(errors)))
    assert outcome(record, tmp_path_factory, path) == expected


@settings(max_examples=EXAMPLES, deadline=None)
@given(text=FIXTURE)
def test_replay_store_equals_reference(tmp_path_factory, text):
    """The one difference: the store lists every bad line where the reference
    stopped at the first; that first line is the first one listed."""
    path = write(tmp_path_factory, "oracle_fixture.jsonl", text)
    expected = outcome(reference_replay_entries, path)
    got = outcome(ReplayStore, path)
    assert got[0] == expected[0]
    if expected[0] == "error":
        first = re.match(re.escape(path) + r":(\d+): ", expected[1]).group(1)
        listed = re.match(re.escape(path) + r": \d+ malformed record\(s\):\nline (\d+): ", got[1])
        assert listed.group(1) == first
    else:
        store, entries = got[1], expected[1]
        assert len(store) == len(entries)
        assert {digest: store.get(digest) for digest in entries} == entries


class TestReadRecords:
    def test_jsonl_lists_every_bad_line(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text('{"k": 1}\n\n  \nnope\n[1]\n{"k": 2}\n{"k": "x"}\n', encoding="utf-8")

        def check(value, lineno, errors):
            if not isinstance(value["k"], int):
                errors.append(f"line {lineno}: k must be an integer")
                return None
            return value["k"]

        with pytest.raises(ValueError) as err:
            read_records(str(path), check)
        lines = str(err.value).splitlines()
        assert lines[0] == f"{path}: 3 malformed record(s):"
        assert lines[1].startswith("line 4: invalid JSON: Expecting value")
        assert lines[2:] == ["line 5: record must be a JSON object",
                             "line 7: k must be an integer"]
        path.write_text('{"k": 1}\n\n{"k": 2}\n', encoding="utf-8")
        assert read_records(str(path), check) == [1, 2]

    def test_tsv_cells_and_handle(self):
        seen = []

        def check(cells, lineno, errors):
            seen.append((lineno, cells))
            if len(cells) != 2:
                errors.append(f"line {lineno}: expected 2 cells")

        handle = io.StringIO("a\tb\n \n\t\nc\n")
        with pytest.raises(ValueError, match=r"^named\.tsv: 1 malformed row\(s\):\nline 4: "):
            read_records("named.tsv", check, tsv=True, handle=handle)
        assert seen == [(1, ["a", "b"]), (4, ["c"])]
        assert handle.closed

    @pytest.mark.parametrize("tsv", [False, True])
    def test_not_utf8_lists_every_undecodable_line(self, tmp_path, tsv):
        path = tmp_path / "in.txt"
        # A lone "\r" ends no line, here as in the text reader.
        path.write_bytes(b'{"k": 1}\r\n{"k": "\xff"}\n{"k": "\r"}\n\xe9\n')
        with pytest.raises(ValueError) as err:
            read_records(str(path), lambda value, lineno, errors: value, tsv=tsv)
        assert str(err.value).splitlines() == [f"{path}: line 2: not valid UTF-8",
                                               f"{path}: line 4: not valid UTF-8"]


class TestCountsBlocks:
    """A counts file longer than one block of the canonical reader."""

    ROWS = 120_000

    def text(self):
        text = "".join(f"Q{i}\t{i % 997}\n" for i in range(1, self.ROWS + 1))
        assert len(text) > popularity._BLOCK_BYTES
        return text

    def test_canonical(self, tmp_path, line_checked):
        path = tmp_path / "counts.tsv"
        path.write_text(self.text(), encoding="utf-8")
        counts = load_counts(str(path))
        assert line_checked == []
        assert counts == reference_load_counts(str(path))
        assert len(counts.counts) == self.ROWS

    def test_bad_rows_past_the_first_block(self, tmp_path, line_checked):
        lines = self.text().splitlines(keepends=True)
        bad, duplicate = 100_000, 110_000
        assert sum(map(len, lines[:bad - 1])) > popularity._BLOCK_BYTES
        lines[bad - 1] = f"Q{bad}\tx\n"
        lines[duplicate - 1] = "Q5\t1\n"
        path = tmp_path / "counts.tsv"
        path.write_text("".join(lines), encoding="utf-8")
        expected = [f"{path}: 2 malformed row(s):",
                    f"line {bad}: count must be a nonnegative integer, got 'x'",
                    f"line {duplicate}: duplicate qid Q5 (first seen on line 5)"]
        assert outcome(load_counts, str(path)) == ("error", "\n".join(expected))
        assert outcome(reference_load_counts, str(path)) == ("error", "\n".join(expected))
        assert line_checked == [str(path)]


class TestLineEndings:
    """Lines end at "\n" alone.  A lone "\r" stays inside its line, so every
    error names the line an editor shows, and a CRLF file loads as the same
    file with LF endings."""

    def load_error(self, load, path):
        with pytest.raises(ValueError) as err:
            load(str(path))
        return str(err.value).splitlines()[1:]

    def test_counts(self, tmp_path, line_checked):
        path = tmp_path / "counts.tsv"
        path.write_bytes(b"Q1\t5\nQ2\r\t7\nQ3\tx\nQ4\t1\r2\n")
        assert self.load_error(load_counts, path) == [
            "line 3: count must be a nonnegative integer, got 'x'",
            "line 4: count must be a nonnegative integer, got '1\\r2'"]
        path.write_bytes(b"Q1\t5\r\n\r\nQ2\t7\r\n")
        assert load_counts(str(path)).counts == {"Q1": 5, "Q2": 7}
        # Canonical, so read without the line checker: CRLF endings, and a
        # last row without a line end.
        line_checked.clear()
        for text in (b"Q1\t5\r\nQ2\t7\r\n", b"Q1\t5\nQ2\t7", b"Q1\t5\r\nQ2\t7"):
            path.write_bytes(text)
            assert load_counts(str(path)).counts == {"Q1": 5, "Q2": 7}
        assert line_checked == []
        # A row ending in "\r\r\n" is valid (one "\r" ends the line, the
        # other pads the cell) but not canonical.
        path.write_bytes(b"Q1\t5\r\r\nQ2\t7\n")
        assert load_counts(str(path)).counts == {"Q1": 5, "Q2": 7}
        assert line_checked == [str(path)]

    def test_benchmark_tsv(self, tmp_path):
        path = tmp_path / "benchmark.tsv"
        path.write_bytes(b"a\tAlpha\rbeta.\tAlpha\tQ1\tPER\nb\tOther.\n")
        assert self.load_error(lambda p: load_benchmark(p, "tsv"), path) == [
            "line 2: expected 5 tab-separated fields, got 2"]
        path.write_bytes(b"a\tAlpha\rbeta.\tAlpha\tQ1\tPER\n")
        (sentence,) = load_benchmark(str(path), "tsv").sentences
        assert sentence.text == "Alpha\rbeta."
        lf = b"a\tAlpha beta.\tAlpha\tQ1\tPER\na\tAlpha beta.\tbeta\tNIL\t\nb\tGamma.\t\t\t\n"
        path.write_bytes(lf)
        expected = load_benchmark(str(path), "tsv").sentences
        path.write_bytes(lf.replace(b"\n", b"\r\n"))
        assert load_benchmark(str(path), "tsv").sentences == expected

    @pytest.mark.parametrize("keyed", [False, True])
    def test_mapping(self, tmp_path, keyed):
        def load(path):
            if keyed:
                return load_mapping(str(path), titles=["A", "B", "Foo Bar"], qids=["Q1"])
            return load_mapping(str(path))

        path = tmp_path / "mapping.tsv"
        path.write_bytes(b"1\tFoo\rBar\tQ1\n2\tBaz\tnotaqid\n")
        assert self.load_error(load, path) == ["line 2: invalid qid 'notaqid'"]
        path.write_bytes(b"1\tA\tQ1\r\n2\tB\t\tA\r\n3\tFoo\rBar\tQ3\r\n")
        idx = load(path)
        assert [title_to_qid(idx, title) for title in ("A", "B", "Foo Bar")] == ["Q1", "Q1", "Q3"]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_shared_encoder_writes_what_json_dumps_wrote(value):
    """Every JSON Lines writer goes through encode_json; its text must be
    the json.dumps(..., ensure_ascii=False) the writers used before."""
    assert encode_json(value) == json.dumps(value, ensure_ascii=False)
