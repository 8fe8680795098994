import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from elbench.benchmark import (Benchmark, BenchmarkSentence, GoldMention, benchmark_stats,
                               load_benchmark, save_benchmark)

from conftest import make_benchmark, sent


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestJsonlLoading:
    def test_minimal_sentence(self, tmp_path):
        path = tmp_path / "b.jsonl"
        write_lines(path, [json.dumps({"id": "s1", "text": "Verdi wrote operas.",
                                       "mentions": [{"surface": "Verdi", "qid": "Q1", "type": "PERSON"}]})])
        bench = load_benchmark(str(path))
        assert len(bench.sentences) == 1
        mention = bench.sentences[0].mentions[0]
        assert mention.surface == "Verdi"
        assert mention.qid == "Q1"
        assert mention.char_start is None

    def test_offsets_checked_against_text(self, tmp_path):
        path = tmp_path / "b.jsonl"
        write_lines(path, [json.dumps({"id": "s1", "text": "Verdi wrote operas.",
                                       "mentions": [{"surface": "Verdi", "qid": "Q1",
                                                     "start": 0, "end": 5}]})])
        bench = load_benchmark(str(path))
        assert bench.sentences[0].mentions[0].char_end == 5

    def test_offset_slice_mismatch_rejected(self, tmp_path):
        path = tmp_path / "b.jsonl"
        write_lines(path, [json.dumps({"id": "s1", "text": "Verdi wrote operas.",
                                       "mentions": [{"surface": "Verdi", "qid": "Q1",
                                                     "start": 1, "end": 6}]})])
        with pytest.raises(ValueError, match="does not equal surface"):
            load_benchmark(str(path))

    def test_offset_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "b.jsonl"
        write_lines(path, [json.dumps({"id": "s1", "text": "Verdi",
                                       "mentions": [{"surface": "Verdi", "qid": "Q1",
                                                     "start": 0, "end": 99}]})])
        with pytest.raises(ValueError, match="out of range"):
            load_benchmark(str(path))

    def test_start_without_end_rejected(self, tmp_path):
        path = tmp_path / "b.jsonl"
        write_lines(path, [json.dumps({"id": "s1", "text": "Verdi",
                                       "mentions": [{"surface": "Verdi", "qid": "Q1", "start": 0}]})])
        with pytest.raises(ValueError, match="together"):
            load_benchmark(str(path))

    def test_nil_qid_allowed_and_bad_qid_rejected(self, tmp_path):
        good = tmp_path / "good.jsonl"
        write_lines(good, [json.dumps({"id": "s1", "text": "Mr. X spoke.",
                                       "mentions": [{"surface": "Mr. X", "qid": "NIL"}]})])
        assert load_benchmark(str(good)).sentences[0].mentions[0].is_nil

        bad = tmp_path / "bad.jsonl"
        write_lines(bad, [json.dumps({"id": "s1", "text": "Mr. X spoke.",
                                      "mentions": [{"surface": "Mr. X", "qid": "Q12X"}]})])
        with pytest.raises(ValueError, match="Q\\[0-9\\]\\+"):
            load_benchmark(str(bad))

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "b.jsonl"
        row = json.dumps({"id": "s1", "text": "One.", "mentions": []})
        write_lines(path, [row, row])
        with pytest.raises(ValueError, match="duplicate id"):
            load_benchmark(str(path))

    def test_all_errors_collected(self, tmp_path):
        path = tmp_path / "b.jsonl"
        write_lines(path, [
            "not json",
            json.dumps({"id": "", "text": "x", "mentions": []}),
            json.dumps({"id": "ok", "text": "Fine.", "mentions": []}),
        ])
        with pytest.raises(ValueError) as err:
            load_benchmark(str(path))
        message = str(err.value)
        assert "2 malformed record(s)" in message
        assert "line 1" in message and "line 2" in message

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "b.jsonl"
        path.write_text('\n{"id": "s1", "text": "One.", "mentions": []}\n\n', encoding="utf-8")
        assert len(load_benchmark(str(path)).sentences) == 1

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown benchmark format"):
            load_benchmark(str(tmp_path / "x"), format="csv")


class TestTsvLoading:
    def test_consecutive_rows_grouped(self, tmp_path):
        path = tmp_path / "b.tsv"
        write_lines(path, [
            "s1\tVerdi met Moore.\tVerdi\tQ1\tPERSON",
            "s1\tVerdi met Moore.\tMoore\tQ3\tPERSON",
            "s2\tNothing here.\t\t\t",
        ])
        bench = load_benchmark(str(path), format="tsv")
        assert [s.sentence_id for s in bench.sentences] == ["s1", "s2"]
        assert len(bench.sentences[0].mentions) == 2
        assert bench.sentences[1].mentions == ()

    def test_non_consecutive_rows_rejected(self, tmp_path):
        path = tmp_path / "b.tsv"
        write_lines(path, [
            "s1\tOne.\tOne\tQ1\tX",
            "s2\tTwo.\tTwo\tQ2\tX",
            "s1\tOne.\tOne\tQ1\tX",
        ])
        with pytest.raises(ValueError, match="not consecutive"):
            load_benchmark(str(path), format="tsv")

    def test_text_mismatch_within_group_rejected(self, tmp_path):
        path = tmp_path / "b.tsv"
        write_lines(path, [
            "s1\tOne.\tOne\tQ1\tX",
            "s1\tOne!\tOne\tQ1\tX",
        ])
        with pytest.raises(ValueError, match="text differs"):
            load_benchmark(str(path), format="tsv")

    def test_wrong_column_count_rejected(self, tmp_path):
        path = tmp_path / "b.tsv"
        write_lines(path, ["s1\tOne.\tOne\tQ1"])
        with pytest.raises(ValueError, match="expected 5"):
            load_benchmark(str(path), format="tsv")


class TestSaving:
    def test_jsonl_round_trip(self, tmp_path):
        bench = make_benchmark(
            sent("s1", "Verdi met Moore.", ("Verdi", "Q1", "PERSON", 0, 5),
                 ("Moore", "Q3", "PERSON", 10, 15)),
            sent("s2", "Nothing happened."),
        )
        path = tmp_path / "test.jsonl"
        save_benchmark(bench, str(path))
        reloaded = load_benchmark(str(path))
        assert reloaded == bench

    def test_tsv_round_trip_drops_offsets(self, tmp_path):
        bench = make_benchmark(
            sent("s1", "Verdi met Moore.", ("Verdi", "Q1", "PERSON", 0, 5)),
            sent("s2", "Nothing happened."),
        )
        path = tmp_path / "out.tsv"
        save_benchmark(bench, str(path), format="tsv")
        reloaded = load_benchmark(str(path), format="tsv")
        mention = reloaded.sentences[0].mentions[0]
        assert (mention.surface, mention.qid, mention.entity_type) == ("Verdi", "Q1", "PERSON")
        assert mention.char_start is None
        assert reloaded.sentences[1] == bench.sentences[1]

    def test_tsv_rejects_tabs_in_cells(self, tmp_path):
        bench = make_benchmark(sent("s1", "Has\ttab.", ("Has", "Q1", "")))
        with pytest.raises(ValueError, match="not representable"):
            save_benchmark(bench, str(tmp_path / "out.tsv"), format="tsv")

    def test_mentionless_sentence_survives_tsv(self, tmp_path):
        bench = make_benchmark(sent("only", "No entities at all."))
        path = tmp_path / "test.tsv"
        save_benchmark(bench, str(path), format="tsv")
        reloaded = load_benchmark(str(path), format="tsv")
        assert reloaded == bench


class TestStats:
    def test_counts_on_handmade_benchmark(self):
        bench = make_benchmark(
            sent("s1", "Verdi met Moore twice.", ("Verdi", "Q1", "PERSON"),
                 ("Moore", "Q3", "PERSON")),
            sent("s2", "Mr. X also met Verdi.", ("Mr. X", "NIL", "PERSON"),
                 ("Verdi", "Q1", "PERSON")),
        )
        stats = benchmark_stats(bench)
        assert stats.sentences == 2
        assert stats.tokens == 9
        assert stats.unique_qids == 2
        assert stats.types == 1
        assert stats.nil_mentions == 1
        assert stats.total_mentions == 4

    def test_counts_on_e2e_fixture(self, e2e_paths):
        stats = benchmark_stats(load_benchmark(e2e_paths["benchmark"]))
        assert stats.sentences == 20
        assert stats.total_mentions == 35
        assert stats.nil_mentions == 3
        assert stats.unique_qids == 28
        assert stats.types == 4


ids = st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126), min_size=1, max_size=8)
words = st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=10)
qids = st.one_of(st.just("NIL"), st.integers(min_value=1, max_value=10 ** 9).map(lambda n: f"Q{n}"))


@st.composite
def benchmarks(draw):
    count = draw(st.integers(min_value=0, max_value=4))
    sentences = []
    for i in range(count):
        n_mentions = draw(st.integers(min_value=0, max_value=3))
        mentions = tuple(
            GoldMention(surface=draw(words), qid=draw(qids), entity_type=draw(st.sampled_from(["", "PERSON", "WORK"])))
            for _ in range(n_mentions))
        sentences.append(BenchmarkSentence(sentence_id=f"s{i}", text=draw(words), mentions=mentions))
    return Benchmark(sentences=tuple(sentences))


@settings(max_examples=50, deadline=None)
@given(bench=benchmarks())
def test_jsonl_round_trip_property(tmp_path_factory, bench):
    path = tmp_path_factory.mktemp("rt") / "gen.jsonl"
    save_benchmark(bench, str(path))
    assert load_benchmark(str(path)) == bench
