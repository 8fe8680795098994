"""The input cache for gold benchmarks, popularity counts and predictions,
against the reference loaders.

A benchmark, a counts file or a predictions file that passed every check is
stored once per file; later loads of the same bytes read it back.  Cold,
warm and unusable-cache loads must all give what the loaders of
`tests/reference_loaders.py` give, and every failure of the cache (a
damaged entry, a directory that cannot be made, an entry in a shape this
version does not write) must be a miss.  The cache's shared code
is also exercised through the KB index cache, in `tests/test_kb.py`.
"""

import hashlib
import marshal
import os
import sqlite3
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_loaders import (reference_load_benchmark, reference_load_counts,
                               reference_load_predictions)
from test_acceptance import assert_pinned, pinned_pipeline
from test_records import COUNTS_TSV, PREDICTIONS, outcome

from elbench import benchmark, cache, cli, kb, parsing, popularity, records
from elbench.benchmark import (FORMATS, Benchmark, BenchmarkSentence, GoldMention, load_benchmark,
                               save_benchmark)
from elbench.cache import cache_dir
from elbench.parsing import load_predictions
from elbench.popularity import load_counts

BENCHMARK = ('{"id": "s1", "text": "Alpha beta.", "mentions": [{"surface": "Alpha", "qid": "Q1",'
             ' "type": "PER", "start": 0, "end": 5}, {"surface": "beta", "qid": "NIL"}]}\n'
             '{"id": "s2", "text": "Gamma.", "mentions": []}\n')
COUNTS = "Q1\t5\nQ2\t7\n"


@pytest.fixture(autouse=True)
def own_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))


def entries():
    """Every file in the cache directory, temporary ones included."""
    return sorted(os.listdir(cache_dir())) if os.path.isdir(cache_dir()) else []


def never_parsed():
    """Within this, a load that reads the file's lines fails: it must come from the cache."""
    return mock.patch.object(benchmark, "read_records", side_effect=AssertionError("parsed"))


def assert_loads_as(path, fmt, expected):
    """A load of path equals expected, down to the type of every part."""
    got = load_benchmark(str(path), fmt)
    assert got == expected
    assert type(got.sentences) is tuple
    for sentence in got.sentences:
        assert type(sentence) is BenchmarkSentence and type(sentence.mentions) is tuple
        assert all(type(mention) is GoldMention for mention in sentence.mentions)


@st.composite
def benchmarks(draw, tsv):
    """Benchmarks of any text a format can hold; only JSON Lines keeps offsets."""
    cell = st.text(st.characters(blacklist_categories=("Cs",),
                                 blacklist_characters="\t\n\r" if tsv else ""),
                   min_size=1, max_size=12).filter(str.strip)
    sentences = []
    for i in range(draw(st.integers(0, 4))):
        text = draw(cell)
        mentions = []
        for _ in range(draw(st.integers(0, 3))):
            qid = draw(st.sampled_from(["NIL", "Q1", "Q42", "Q" + "9" * 30]))
            entity_type = draw(st.sampled_from(["", "PER", "WORK"]))
            start = draw(st.integers(0, len(text) - 1))
            end = draw(st.integers(start + 1, len(text)))
            if not tsv and text[start:end].strip() and draw(st.booleans()):
                mentions.append(GoldMention(text[start:end], qid, entity_type, start, end))
            else:
                mentions.append(GoldMention(draw(cell), qid, entity_type))
        sentences.append(BenchmarkSentence(f"s{i}", text, tuple(mentions)))
    return Benchmark(tuple(sentences))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cold_warm_and_unusable_loads_equal_reference(data):
    fmt = data.draw(st.sampled_from(FORMATS))
    bench = data.draw(benchmarks(tsv=fmt == "tsv"))
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"XDG_CACHE_HOME": os.path.join(tmp, "cache")}):
        path = os.path.join(tmp, f"bench.{fmt}")
        save_benchmark(bench, path, fmt)
        expected = reference_load_benchmark(path, fmt)
        assert_loads_as(path, fmt, expected)
        assert len(entries()) == 1
        with never_parsed():
            assert_loads_as(path, fmt, expected)
        blocker = os.path.join(tmp, "not-a-directory")
        with open(blocker, "wb"):
            pass
        with mock.patch.dict(os.environ, {"XDG_CACHE_HOME": blocker}):
            assert_loads_as(path, fmt, expected)
        assert os.path.getsize(blocker) == 0


def only_entry():
    (name,) = entries()
    return os.path.join(cache_dir(), name)


@pytest.mark.parametrize("damage", ["truncate", "cut-in-half", "flip-a-letter", "empty"])
def test_damaged_entry_is_a_miss(tmp_path, damage):
    path = tmp_path / "bench.jsonl"
    path.write_text(BENCHMARK, encoding="utf-8")
    expected = reference_load_benchmark(str(path))
    assert_loads_as(path, "jsonl", expected)
    entry = only_entry()
    with open(entry, "rb") as handle:
        blob = handle.read()
    # A changed letter still unmarshals, to a different text: only the
    # checksum tells it from the stored one.
    damaged = {"truncate": blob[:-1], "cut-in-half": blob[:len(blob) // 2],
               "flip-a-letter": blob.replace(b"Alpha beta.", b"Alphz beta."), "empty": b""}[damage]
    assert damaged != blob
    with open(entry, "wb") as handle:
        handle.write(damaged)
    assert cache.load(entry) is None
    assert_loads_as(path, "jsonl", expected)
    # The miss stored the entry afresh.
    assert cache.load(entry) is not None
    with never_parsed():
        assert_loads_as(path, "jsonl", expected)


@pytest.mark.parametrize("content", [
    b'{"id": "s1", "text": "Alpha."}\n{"id": "s1", "text": "Beta."}\nnot json\n',
    b'{"id": "s1", "text": "Alpha.", "mentions": [{"surface": "Alpha", "qid": "q1"}]}\n',
    b'{"id": "s1", "text": "Alpha.", "n": ' + b"9" * 5000 + b"}\n",
    b'{"id": "s1", "text": "Alpha \\ud83d."}\n',
    b'{"id": "s1", "text": "Alpha \xff."}\n',
], ids=["duplicate-and-bad-json", "bad-qid", "digit-limit", "lone-surrogate", "not-utf-8"])
def test_bad_benchmark_writes_no_entry_and_fails_the_same_twice(tmp_path, content):
    path = tmp_path / "bench.jsonl"
    path.write_bytes(content)
    errors = []
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            load_benchmark(str(path))
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    assert entries() == []


def test_format_is_part_of_the_key(tmp_path):
    """These bytes are a benchmark in both formats: JSON allows a tab between
    tokens and after the object, and the line has the five cells of a
    sentence without mentions."""
    path = tmp_path / "both"
    path.write_text('{"id":\t"a", "text": "Alpha."}\t\t\t\n', encoding="utf-8")
    loads = {}
    for fmt in FORMATS:
        loads[fmt] = reference_load_benchmark(str(path), fmt)
        assert_loads_as(path, fmt, loads[fmt])
        loads[fmt, "entry"] = only_entry()
    assert loads["jsonl"].sentences[0].sentence_id == "a"
    assert loads["tsv"].sentences[0].sentence_id == '{"id":'
    assert loads["jsonl", "entry"] != loads["tsv", "entry"]
    # Each format's load stored its own entry in place of the other's.
    assert_loads_as(path, "jsonl", loads["jsonl"])
    assert only_entry() == loads["jsonl", "entry"]


@pytest.mark.parametrize("module", [benchmark, records, kb, cache],
                         ids=["benchmark", "records", "kb", "cache"])
def test_loader_source_is_part_of_the_key(tmp_path, module):
    path = tmp_path / "bench.jsonl"
    path.write_text(BENCHMARK, encoding="utf-8")
    load_benchmark(str(path))
    entry = only_entry()
    edited = tmp_path / "edited.py"
    with open(module.__file__, "rb") as handle:
        edited.write_bytes(handle.read() + b"# edited\n")
    with mock.patch.object(module, "__file__", str(edited)):
        load_benchmark(str(path))
    assert only_entry() != entry


def test_rebuilt_entry_drops_the_older_entry_of_its_path(tmp_path):
    paths = [tmp_path / name for name in ("a.jsonl", "b.jsonl", "c.jsonl")]
    for path in paths:
        path.write_text(BENCHMARK, encoding="utf-8")
    paths[2].write_text(BENCHMARK.replace("Gamma", "Delta"), encoding="utf-8")
    # Files with equal bytes share one entry, stored under the first path.
    load_benchmark(str(paths[0]))
    first = only_entry()
    load_benchmark(str(paths[1]))
    assert only_entry() == first
    paths[0].write_text(BENCHMARK.replace("Gamma", "Epsilon"), encoding="utf-8")
    load_benchmark(str(paths[0]))
    (rebuilt,) = entries()
    assert rebuilt != os.path.basename(first)
    # An entry whose file is gone is dropped when another is stored.
    load_benchmark(str(paths[2]))
    (kept,) = set(entries()) - {rebuilt}
    paths[0].unlink()
    paths[1].write_text(BENCHMARK.replace("Gamma", "Zeta"), encoding="utf-8")
    load_benchmark(str(paths[1]))
    (added,) = set(entries()) - {rebuilt, kept}
    assert set(entries()) == {kept, added}


def test_digit_limit_is_part_of_the_key(tmp_path, monkeypatch):
    """Under no limit the line loads; under the default limit it fails, and
    an entry stored under the first must not hide that."""
    path = tmp_path / "bench.jsonl"
    path.write_bytes(b'{"id": "s1", "text": "Alpha.", "n": ' + b"9" * 5000 + b"}\n")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert_loads_as(path, "jsonl", reference_load_benchmark(str(path)))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(entries()) == 1
    with pytest.raises(ValueError) as cached:
        load_benchmark(str(path))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cold"))
    with pytest.raises(ValueError) as cold:
        load_benchmark(str(path))
    assert str(cached.value) == str(cold.value)
    assert "line 1: invalid JSON: Exceeds the limit" in str(cold.value)


def test_unreadable_source_is_a_miss(tmp_path):
    path = tmp_path / "bench.jsonl"
    path.write_text(BENCHMARK, encoding="utf-8")
    with mock.patch.object(records, "__file__", str(tmp_path / "gone.py")):
        assert_loads_as(path, "jsonl", reference_load_benchmark(str(path)))
    assert entries() == []


@settings(max_examples=150, deadline=None)
@given(text=COUNTS_TSV)
def test_counts_cold_warm_and_unusable_loads_equal_reference(text):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"XDG_CACHE_HOME": os.path.join(tmp, "cache")}):
        path = os.path.join(tmp, "counts.tsv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        expected = outcome(reference_load_counts, path)
        assert outcome(load_counts, path) == expected
        assert len(entries()) == (expected[0] == "ok")
        if expected[0] == "ok":  # a warm load reaches no line checker
            with mock.patch.object(popularity, "read_records",
                                   side_effect=AssertionError("line-checked")):
                assert load_counts(path) == expected[1]
        blocker = os.path.join(tmp, "not-a-directory")
        with open(blocker, "wb"):
            pass
        with mock.patch.dict(os.environ, {"XDG_CACHE_HOME": blocker}):
            assert outcome(load_counts, path) == expected
        assert os.path.getsize(blocker) == 0


@pytest.mark.parametrize("damage", ["truncate", "cut-in-half", "flip-a-letter", "empty"])
def test_damaged_counts_entry_is_a_miss(tmp_path, damage, line_checked):
    path = tmp_path / "counts.tsv"
    path.write_text(COUNTS, encoding="utf-8")
    expected = reference_load_counts(str(path))
    assert load_counts(str(path)) == expected
    entry = only_entry()
    with open(entry, "rb") as handle:
        blob = handle.read()
    damaged = {"truncate": blob[:-1], "cut-in-half": blob[:len(blob) // 2],
               "flip-a-letter": blob.replace(b"Q2", b"Q3"), "empty": b""}[damage]
    assert damaged != blob
    with open(entry, "wb") as handle:
        handle.write(damaged)
    assert cache.load(entry) is None
    assert load_counts(str(path)) == expected
    assert line_checked == [str(path)] * 2
    # The miss stored the entry afresh.
    assert cache.load(entry) is not None
    assert load_counts(str(path)) == expected
    assert line_checked == [str(path)] * 2


@pytest.mark.parametrize("content", [
    b"Q1\t5\nbanana\t3\nQ2\t-1\nQ1\t9\n",
    b"Q1\t" + b"9" * 5000 + b"\n",
    b"Q1\t5\nQ2\t\xff\n",
], ids=["bad-qid-count-and-duplicate", "digit-limit", "not-utf-8"])
def test_bad_counts_write_no_entry_and_fail_the_same_twice(tmp_path, content):
    path = tmp_path / "counts.tsv"
    path.write_bytes(content)
    errors = []
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            load_counts(str(path))
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    assert entries() == []


@pytest.mark.parametrize("module", [popularity, records, kb, cache],
                         ids=["popularity", "records", "kb", "cache"])
def test_counts_loader_source_is_part_of_the_key(tmp_path, module):
    path = tmp_path / "counts.tsv"
    path.write_text(COUNTS, encoding="utf-8")
    load_counts(str(path))
    entry = only_entry()
    edited = tmp_path / "edited.py"
    with open(module.__file__, "rb") as handle:
        edited.write_bytes(handle.read() + b"# edited\n")
    with mock.patch.object(module, "__file__", str(edited)):
        load_counts(str(path))
    assert only_entry() != entry


# A valid predictions file.
PREDICTIONS_JSONL = ('{"sentence_id": "s1", "links": [{"surface": "Alpha", "title": "A",'
                     ' "qid": "Q1", "resolution": "title"}, {"surface": "beta", "title": null}],'
                     ' "status": "repaired"}\n'
                     '{"sentence_id": "s2", "links": [], "status": "unparseable",'
                     ' "error": "replay-miss"}\n')


def never_line_checked():
    """Within this, a load that checks the file's lines fails: it must come from the cache."""
    return mock.patch.object(parsing, "read_records", side_effect=AssertionError("line-checked"))


@settings(max_examples=150, deadline=None)
@given(text=PREDICTIONS)
def test_predictions_cold_warm_and_unusable_loads_equal_reference(text):
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {"XDG_CACHE_HOME": os.path.join(tmp, "cache")}):
        path = os.path.join(tmp, "preds.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        expected = outcome(reference_load_predictions, path)
        assert outcome(load_predictions, path) == expected
        assert len(entries()) == (expected[0] == "ok")
        if expected[0] == "ok":
            with never_line_checked():
                assert load_predictions(path) == expected[1]
        blocker = os.path.join(tmp, "not-a-directory")
        with open(blocker, "wb"):
            pass
        with mock.patch.dict(os.environ, {"XDG_CACHE_HOME": blocker}):
            assert outcome(load_predictions, path) == expected
        assert os.path.getsize(blocker) == 0


@pytest.mark.parametrize("damage", ["truncate", "cut-in-half", "flip-a-letter", "empty"])
def test_damaged_predictions_entry_is_a_miss(tmp_path, damage):
    path = tmp_path / "preds.jsonl"
    path.write_text(PREDICTIONS_JSONL, encoding="utf-8")
    expected = reference_load_predictions(str(path))
    assert load_predictions(str(path)) == expected
    entry = only_entry()
    with open(entry, "rb") as handle:
        blob = handle.read()
    damaged = {"truncate": blob[:-1], "cut-in-half": blob[:len(blob) // 2],
               "flip-a-letter": blob.replace(b"Alpha", b"Alphz"), "empty": b""}[damage]
    assert damaged != blob
    with open(entry, "wb") as handle:
        handle.write(damaged)
    assert cache.load(entry) is None
    assert load_predictions(str(path)) == expected
    # The miss stored the entry afresh.
    assert cache.load(entry) is not None
    with never_line_checked():
        assert load_predictions(str(path)) == expected


@pytest.mark.parametrize("content", [
    b'{"sentence_id": "s1", "surface": "A", "page_id": 1, "status": "clean"}\n'
    b'{"sentence_id": "s1", "status": "clean"}\nnot json\n',
    b'{"sentence_id": "s1", "surface": "A", "qid": "q1", "status": "clean",'
    b' "links": [{"surface": "A", "qid": "q1"}]}\n',
    b'{"sentence_id": "s1", "surface": "A", "page_id": ' + b"9" * 5000 + b"}\n",
    b'{"sentence_id": "s1", "surface": "A \\ud83d", "title": "T", "status": "clean"}\n',
    b'{"sentence_id": "s1", "surface": "A \xff", "title": "T", "status": "clean"}\n',
], ids=["duplicate-and-bad-json", "bad-qid", "digit-limit", "lone-surrogate", "not-utf-8"])
def test_bad_predictions_write_no_entry_and_fail_the_same_twice(tmp_path, content):
    path = tmp_path / "preds.jsonl"
    path.write_bytes(content)
    errors = []
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            load_predictions(str(path))
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    assert entries() == []


@pytest.mark.parametrize("module", [parsing, records, kb, cache],
                         ids=lambda module: module.__name__.split(".")[-1])
def test_predictions_loader_source_is_part_of_the_key(tmp_path, module):
    path = tmp_path / "preds.jsonl"
    path.write_text(PREDICTIONS_JSONL, encoding="utf-8")
    load_predictions(str(path))
    entry = only_entry()
    edited = tmp_path / "edited.py"
    with open(module.__file__, "rb") as handle:
        edited.write_bytes(handle.read() + b"# edited\n")
    with mock.patch.object(module, "__file__", str(edited)):
        load_predictions(str(path))
    assert only_entry() != entry


def plant(name, value):
    """An entry named name, with a valid checksum, holding the marshalled value."""
    body = marshal.dumps(value)
    os.makedirs(cache_dir(), exist_ok=True)
    with open(os.path.join(cache_dir(), name), "wb") as handle:
        handle.write(hashlib.sha256(body).digest() + body)


FOREIGN = {"pair-of-tuples": (("a", "b"), []), "dict": {"source": "a"}, "int": 7,
           "list-pair": ["a", 1], "path-and-no-value": ("a",)}


@pytest.mark.parametrize("shape", FOREIGN)
@pytest.mark.parametrize("suffix, load, reference, text", [
    pytest.param(".benchmark", load_benchmark, reference_load_benchmark, BENCHMARK, id="benchmark"),
    pytest.param(".counts", load_counts, reference_load_counts, COUNTS, id="counts"),
    pytest.param(".predictions", load_predictions, reference_load_predictions, PREDICTIONS_JSONL,
                 id="predictions")])
def test_cold_load_drops_an_entry_of_another_shape(tmp_path, shape, suffix, load, reference,
                                                   text):
    """An entry that another version of elbench left with the same suffix,
    in a shape this version does not write, counts as built from a file
    that is gone: the cold load beside it neither fails nor changes."""
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    plant("foreign" + suffix, FOREIGN[shape])
    assert load(str(path)) == reference(str(path))
    (entry,) = entries()
    assert entry.endswith(suffix) and entry != "foreign" + suffix


@pytest.mark.parametrize("source", [None, 7, b"/gone"], ids=["null", "integer", "bytes"])
def test_cold_mapping_load_drops_an_sqlite_entry_without_a_source_path(tmp_path, source):
    mapping = tmp_path / "map.tsv"
    mapping.write_text("1\tAlpha\tQ1\n", encoding="utf-8")
    os.makedirs(cache_dir())
    con = sqlite3.connect(os.path.join(cache_dir(), "foreign.sqlite"))
    try:
        with con:
            con.execute("CREATE TABLE meta (k TEXT PRIMARY KEY, v)")
            con.execute("INSERT INTO meta VALUES ('source', ?)", (source,))
    finally:
        con.close()
    index = kb.load_mapping(str(mapping), titles={"Alpha"})
    assert kb.title_to_qid(index, "Alpha") == "Q1"
    (entry,) = entries()
    assert entry.endswith(".sqlite") and entry != "foreign.sqlite"


def test_every_marshal_entry_of_the_pinned_pipeline_is_a_path_and_a_value(
        tmp_path, monkeypatch, capsys, e2e_paths, e2e_fixture):
    """The layout of each marshal entry that the pinned pipeline writes: the
    absolute path of the input it was built from, and the value."""
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    monkeypatch.chdir(tmp_path)
    for argv in pinned_pipeline(e2e_paths, e2e_fixture)[1:]:
        assert cli.main(argv) == 0, argv
    capsys.readouterr()
    assert_pinned(tmp_path, e2e_fixture)
    sources = {}
    for name in entries():
        if not name.endswith(".sqlite"):
            with open(os.path.join(cache_dir(), name), "rb") as handle:
                stored = marshal.loads(handle.read()[hashlib.sha256().digest_size:])
            assert type(stored) is tuple and len(stored) == 2
            assert cache.load(os.path.join(cache_dir(), name)) == stored
            sources.setdefault(os.path.splitext(name)[1], set()).add(stored[0])
    assert sources == {
        ".benchmark": {os.path.abspath(e2e_paths["benchmark"])},
        ".counts": {os.path.abspath(e2e_paths["counts"])},
        ".predictions": {os.path.abspath("preds.jsonl"), os.path.abspath("resolved.jsonl")},
    }
