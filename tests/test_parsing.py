import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_parsing import reference_drop_trailing_commas, reference_parse_predictions

from elbench import parsing
from elbench.parsing import (STATUS_CLEAN, STATUS_REPAIRED, STATUS_UNPARSEABLE, STATUSES,
                             PredictedLink, PredictionRecord, load_predictions, parse_predictions,
                             save_predictions)

CORPUS_PATH = os.path.join(os.path.dirname(__file__), "data", "parser_corpus.json")
with open(CORPUS_PATH, encoding="utf-8") as _handle:
    CORPUS = json.load(_handle)


def corpus_case(name):
    return next(case for case in CORPUS if case["name"] == name)


class TestCorpus:
    def test_corpus_is_large_enough(self):
        assert len(CORPUS) >= 25

    @pytest.mark.parametrize("case", CORPUS, ids=[case["name"] for case in CORPUS])
    def test_case(self, case):
        outcome = parse_predictions(case["raw"])
        assert outcome.status == case["status"]
        assert [[link.surface, link.title] for link in outcome.links] == case["links"]

    def test_listing_example_yields_exactly_two_links(self):
        case = corpus_case("listing-example")
        outcome = parse_predictions(case["raw"])
        assert outcome.status == STATUS_REPAIRED
        assert len(outcome.links) == 2
        assert outcome.links[0].surface == "Rameau"
        assert outcome.links[1].title == "Les Indes galantes"

    @pytest.mark.parametrize("case", [c for c in CORPUS if c["links"]],
                             ids=[c["name"] for c in CORPUS if c["links"]])
    def test_repair_never_fabricates_text(self, case):
        # every recovered surface and title occurs verbatim in the raw output
        for surface, title in case["links"]:
            assert surface in case["raw"]
            assert title in case["raw"]

    @pytest.mark.parametrize("case", [c for c in CORPUS if c["links"]],
                             ids=[c["name"] for c in CORPUS if c["links"]])
    def test_reserialization_parses_clean(self, case):
        outcome = parse_predictions(case["raw"])
        # The contract's shape: [{"Entities": {surface: title, ...}}].
        text = json.dumps([{"Entities": {link.surface: link.title for link in outcome.links}}],
                          ensure_ascii=False)
        again = parse_predictions(text)
        assert again.status == STATUS_CLEAN
        assert [(l.surface, l.title) for l in again.links] == \
               [(l.surface, l.title) for l in outcome.links]

    def test_diagnostics_name_the_rungs(self):
        outcome = parse_predictions('so: [{"Entities":{"A":"B",}}]')
        assert outcome.status == STATUS_REPAIRED
        assert "repair:stripped-prose" in outcome.diagnostics
        assert "repair:dropped-trailing-commas" in outcome.diagnostics

    def test_unparseable_diagnostics(self):
        assert parse_predictions("hello").diagnostics == ("unrecoverable-json",)
        assert "no-entities-map" in parse_predictions("[]").diagnostics

    def test_nesting_past_the_recursion_limit_is_unparseable(self):
        outcome = parse_predictions("[" * 100_000)
        assert outcome.status == STATUS_UNPARSEABLE
        assert outcome.diagnostics == ("unrecoverable-json",)

    def test_integer_past_the_digit_limit_is_unparseable(self):
        # json.loads raises a plain ValueError, not a JSONDecodeError, for it.
        outcome = parse_predictions('[{"Entities":{"a":' + "9" * 5000 + "}}]")
        assert outcome.status == STATUS_UNPARSEABLE
        assert outcome.diagnostics == ("unrecoverable-json",)

    def test_lone_surrogate_pair_skipped(self):
        # A surrogate pair escape cut off after its first half by the token limit.
        outcome = parse_predictions('[{"Entities":{"Bach":"J. S. Bach",'
                                    '"Mozart":"W. A. Mozart \\ud83d')
        assert [(link.surface, link.title) for link in outcome.links] == [("Bach", "J. S. Bach")]
        assert "skipped-unencodable-pair: 'Mozart'" in outcome.diagnostics


safe_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x24F,
                           exclude_characters='"\\{}[],'),
    min_size=1, max_size=12).filter(lambda s: s.strip() == s and s)


@settings(max_examples=300, deadline=None)
@given(raw=st.text(max_size=200))
def test_never_raises_and_status_is_valid(raw):
    outcome = parse_predictions(raw)
    assert outcome.status in STATUSES
    if outcome.status == STATUS_UNPARSEABLE:
        assert outcome.links == ()


@settings(max_examples=200, deadline=None)
@given(entities=st.dictionaries(safe_text, safe_text, min_size=0, max_size=5))
def test_wellformed_output_parses_clean(entities):
    raw = json.dumps([{"Entities": entities}], ensure_ascii=False)
    outcome = parse_predictions(raw)
    assert outcome.status == STATUS_CLEAN
    assert {link.surface: link.title for link in outcome.links} == entities


@settings(max_examples=300, deadline=None)
@given(entities=st.dictionaries(safe_text, safe_text, min_size=1, max_size=4),
       data=st.data())
def test_truncation_never_fabricates(entities, data):
    """Chopped-off output recovers only pairs (or value prefixes) that were sent."""
    raw = json.dumps([{"Entities": entities}], ensure_ascii=False)
    cut = data.draw(st.integers(min_value=1, max_value=len(raw)))
    outcome = parse_predictions(raw[:cut])
    for link in outcome.links:
        assert link.surface in entities
        assert entities[link.surface].startswith(link.title)


# Text for the oracles below, biased towards what the repair rungs look at:
# quotes, backslashes, commas, brackets, JSON whitespace and other whitespace
# before a closer, unterminated strings (some ending in a backslash), and
# {"Entities": ...} payloads, well formed, wrapped in prose, with a trailing
# comma or cut short.
JSON_SPACE = [" ", "\t", "\r", "\n"]
OTHER_SPACE = ["\x0b", "\x0c", "\u00a0", "\u2028"]
PIECES = ['"', "\\", ",", "]", "}", "[", "{", ":", "a", '"Entities"', "null", "1",
          ", ]", ",\n}", ",\x0b]"] + JSON_SPACE + OTHER_SPACE
PROSE = ["", "Here you go: ", "Entities found:\n", " Hope this helps.", "\n[1] note"]
pieces = st.lists(st.sampled_from(PIECES), max_size=24).map("".join)
unterminated = st.tuples(st.just('"'), st.text(alphabet=st.sampled_from('ab ,]}\\'), max_size=8),
                         st.sampled_from(["", "\\"])).map("".join)
words = st.text(alphabet=st.sampled_from('ab ,]}"\\'), max_size=6)


@st.composite
def payloads(draw):
    entities = draw(st.dictionaries(words, st.one_of(words, st.none()), max_size=3))
    value = draw(st.sampled_from([[{"Entities": entities}], {"Entities": entities}]))
    text = json.dumps(value, ensure_ascii=False, indent=draw(st.sampled_from([None, 1])))
    closers = [i for i, ch in enumerate(text) if ch in "]}"]
    if draw(st.booleans()):
        i = draw(st.sampled_from(closers))
        text = text[:i] + "," + draw(st.sampled_from(["", " ", "\n ", "\x0b"])) + text[i:]
    if draw(st.booleans()):
        text = draw(st.sampled_from(PROSE)) + text + draw(st.sampled_from(PROSE))
    if draw(st.booleans()):
        text = text[:draw(st.integers(min_value=0, max_value=len(text)))]
    return text


model_text = st.one_of(
    payloads(),
    pieces,
    st.lists(st.one_of(pieces, payloads(), unterminated), max_size=4).map("".join),
    st.tuples(pieces, unterminated).map("".join),
    st.text(max_size=60))


@settings(max_examples=1000, deadline=None)
@given(text=model_text)
def test_drop_trailing_commas_equals_reference(text):
    assert parsing._drop_trailing_commas(text) == reference_drop_trailing_commas(text)


@settings(max_examples=1000, deadline=None)
@given(raw=model_text)
def test_parse_predictions_equals_reference(raw):
    """Same links, status and diagnostics as the eager ladder."""
    assert parse_predictions(raw) == reference_parse_predictions(raw)


def _raising(name):
    def repair(text):
        raise AssertionError(f"rung {name} ran after a text parsed")
    return repair


@pytest.mark.parametrize("raw, rungs_needed", [
    ('[{"Entities":{"A":"B"}}]', 0),
    ('{"Entities": {"A": "B", "C": "D"}}', 0),
    ('Here you go: [{"Entities":{"A":"B"}}] Hope this helps.', 1),
    ('[{"Entities":{"A":"B",}}]', 2),
])
def test_rungs_run_only_while_the_text_fails_to_parse(monkeypatch, raw, rungs_needed):
    """Every rung past the first text that parses is replaced by one that
    raises; the outcome must not change."""
    expected = parse_predictions(raw)
    monkeypatch.setattr(parsing, "_REPAIRS", parsing._REPAIRS[:rungs_needed] + tuple(
        (name, _raising(name)) for name, _ in parsing._REPAIRS[rungs_needed:]))
    assert parse_predictions(raw) == expected


class TestPersistence:
    def records(self):
        return [
            PredictionRecord("s1", (PredictedLink("Verdi", "Giuseppe Verdi", qid="Q1",
                                                  resolution="title"),), STATUS_CLEAN),
            PredictionRecord("s2", (), STATUS_UNPARSEABLE, error="http-status"),
            PredictionRecord("s3", (PredictedLink("a", "B"),),
                             STATUS_REPAIRED),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        save_predictions(self.records(), str(path))
        loaded = load_predictions(str(path))
        assert loaded == self.records()

    def test_unparseable_with_links_rejected(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text(json.dumps({"sentence_id": "s1", "status": "unparseable",
                                    "links": [{"surface": "a", "title": "b"}]}) + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="cannot carry links"):
            load_predictions(str(path))

    def test_invalid_status_rejected(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text(json.dumps({"sentence_id": "s1", "status": "ok", "links": []}) + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="status must be one of"):
            load_predictions(str(path))

    def test_invalid_qid_rejected(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text(json.dumps({"sentence_id": "s1", "status": "clean",
                                    "links": [{"surface": "a", "title": "b", "qid": "ank"}]}) + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError, match="invalid qid"):
            load_predictions(str(path))

    def test_errors_collected_across_lines(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text("nope\n" + json.dumps({"sentence_id": "", "status": "clean",
                                               "links": []}) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_predictions(str(path))
        assert "2 malformed record(s)" in str(err.value)

    def test_null_title_survives_round_trip(self, tmp_path):
        records = [PredictionRecord("s1", (PredictedLink("x", None),), STATUS_CLEAN)]
        path = tmp_path / "preds.jsonl"
        save_predictions(records, str(path))
        assert load_predictions(str(path)) == records
