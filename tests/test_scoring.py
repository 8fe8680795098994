from decimal import Decimal
from fractions import Fraction

import pytest
from conftest import make_benchmark, sent
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_scoring import reference_count, reference_score
from test_popularity import report_outcome, stratify_instances

from elbench.kb import KbRecord, MappingIndex
from elbench.parsing import STATUS_CLEAN, PredictedLink, PredictionRecord
from elbench.scoring import (CSV_FIELDS, FLAG_PRECISION_UNDEFINED, FLAG_RECALL_UNDEFINED,
                             MODE_QID, MODE_TITLE, MODES, NIL_EXCLUDE_AND_IGNORE,
                             NIL_EXCLUDE_GOLD_ONLY, NIL_POLICIES, MatchConfig, SentenceItems,
                             count_slices, csv_fields, f1_from_counts, percent, report_to_dict,
                             score)

QID_CFG = MatchConfig(mode=MODE_QID)


def pred(sentence_id, *links):
    built = tuple(PredictedLink(surface=s, title=t, qid=q) for s, t, q in links)
    return PredictionRecord(sentence_id=sentence_id, links=built, status=STATUS_CLEAN)


class TestF1FromCounts:
    def test_reference_counts(self):
        precision, recall, f1 = f1_from_counts(728, 272, 865)
        assert precision == 728 / 1000
        assert recall == 728 / 1593
        assert f1 == pytest.approx(float(Fraction(2 * 728, 2 * 728 + 272 + 865)), rel=1e-12)
        assert f1 == pytest.approx(0.5615117624373313, rel=1e-12)

    def test_small_exact(self):
        precision, recall, f1 = f1_from_counts(2, 2, 1)
        assert precision == 0.5
        assert recall == 2 / 3
        assert f1 == pytest.approx(4 / 7, rel=1e-12)

    def test_degenerate_denominators(self):
        assert f1_from_counts(0, 0, 0) == (0.0, 0.0, 0.0)
        assert f1_from_counts(0, 3, 0) == (0.0, 0.0, 0.0)
        assert f1_from_counts(0, 0, 3) == (0.0, 0.0, 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            f1_from_counts(-1, 0, 0)

    @settings(max_examples=300, deadline=None)
    @given(tp=st.integers(0, 500), fp=st.integers(0, 500), fn=st.integers(0, 500))
    def test_matches_fraction_oracle(self, tp, fp, fn):
        precision, recall, f1 = f1_from_counts(tp, fp, fn)
        want_p = Fraction(tp, tp + fp) if tp + fp else Fraction(0)
        want_r = Fraction(tp, tp + fn) if tp + fn else Fraction(0)
        want_f = Fraction(2 * tp, 2 * tp + fp + fn) if tp else Fraction(0)
        assert precision == pytest.approx(float(want_p), abs=1e-12)
        assert recall == pytest.approx(float(want_r), abs=1e-12)
        if tp + fp and tp + fn:
            assert f1 == pytest.approx(float(want_f), abs=1e-12)


class TestPercent:
    @pytest.mark.parametrize("num,den,expected", [
        (1, 3, "33.3"),
        (2, 3, "66.7"),
        (1, 8, "12.5"),
        (1, 800, "0.1"),
        (0, 7, "0.0"),
        (7, 7, "100.0"),
        (0, 0, "0.0"),
    ])
    def test_values(self, num, den, expected):
        assert percent(num, den) == Decimal(expected)

    def test_rounds_half_up_not_half_even(self):
        # 0.25% and 72.25%: half-even would give 0.2 and 72.2
        assert percent(1, 400) == Decimal("0.3")
        assert percent(1445, 2000) == Decimal("72.3")

    def test_decimal_exactness(self):
        # 1/3 as a float-formatted percent would drift; Decimal stays exact
        assert str(percent(1, 3)) == "33.3"


class TestMatchConfig:
    def test_defaults(self):
        cfg = MatchConfig()
        assert cfg.mode == MODE_TITLE
        assert cfg.nil_policy == NIL_EXCLUDE_AND_IGNORE
        cfg.validate()

    def test_invalid(self):
        with pytest.raises(ValueError, match="mode must be one of"):
            MatchConfig(mode="surface").validate()
        with pytest.raises(ValueError, match="nil_policy must be one of"):
            MatchConfig(nil_policy="keep").validate()


class TestQidMode:
    def test_hand_computed_counts(self):
        bench = make_benchmark(
            sent("s1", "text", ("A", "Q1", ""), ("B", "Q2", "")),
            sent("s2", "text", ("C", "Q3", "")),
        )
        preds = [
            pred("s1", ("A", "TA", "Q1"), ("X", "TX", "Q9")),
            pred("s2", ("C", "TC", "Q3"), ("C again", "TC", "Q3")),
        ]
        report = score(bench, preds, QID_CFG, keep_per_sentence=True)
        assert (report.tp, report.fp, report.fn) == (2, 2, 1)
        assert report.precision == 0.5
        assert report.recall == pytest.approx(2 / 3)
        assert report.f1 == pytest.approx(4 / 7)
        assert report.flags == ()
        rows = {row.sentence_id: (row.tp, row.fp, row.fn) for row in report.per_sentence}
        assert rows == {"s1": (1, 1, 1), "s2": (1, 1, 0)}

    def test_duplicate_gold_needs_duplicate_preds(self):
        bench = make_benchmark(sent("s1", "t", ("A", "Q1", ""), ("A2", "Q1", "")))
        one = score(bench, [pred("s1", ("A", "T", "Q1"))], QID_CFG)
        assert (one.tp, one.fp, one.fn) == (1, 0, 1)
        two = score(bench, [pred("s1", ("A", "T", "Q1"), ("A2", "T", "Q1"))], QID_CFG)
        assert (two.tp, two.fp, two.fn) == (2, 0, 0)

    def test_identifierless_prediction_is_fp(self):
        bench = make_benchmark(sent("s1", "t", ("A", "Q1", "")))
        report = score(bench, [pred("s1", ("A", "Unresolved title", None))], QID_CFG)
        assert (report.tp, report.fp, report.fn) == (0, 1, 1)

    def test_no_predictions_at_all(self):
        bench = make_benchmark(sent("s1", "t", ("A", "Q1", "")))
        report = score(bench, [], QID_CFG)
        assert (report.tp, report.fp, report.fn) == (0, 0, 1)
        assert report.flags == (FLAG_PRECISION_UNDEFINED,)
        assert report.precision == 0.0

    def test_empty_gold_with_predictions(self):
        bench = make_benchmark(sent("s1", "no entities"))
        report = score(bench, [pred("s1", ("X", "T", "Q5"))], QID_CFG)
        assert (report.tp, report.fp, report.fn) == (0, 1, 0)
        assert report.flags == (FLAG_RECALL_UNDEFINED,)

    def test_both_flags_when_empty(self):
        bench = make_benchmark(sent("s1", "nothing"))
        report = score(bench, [], QID_CFG)
        assert set(report.flags) == {FLAG_PRECISION_UNDEFINED, FLAG_RECALL_UNDEFINED}
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)

    def test_unknown_sentence_rejected(self):
        bench = make_benchmark(sent("s1", "t"))
        with pytest.raises(ValueError, match="unknown sentence_id 'ghost'"):
            score(bench, [pred("ghost")], QID_CFG)

    def test_duplicate_record_rejected(self):
        bench = make_benchmark(sent("s1", "t"))
        with pytest.raises(ValueError, match="duplicate prediction record"):
            score(bench, [pred("s1"), pred("s1")], QID_CFG)


class TestTitleMode:
    @pytest.fixture
    def kb(self):
        return MappingIndex([
            KbRecord(1, "Jean-Philippe Rameau", "Q1"),
            KbRecord(2, "Les Indes galantes", "Q2"),
            KbRecord(3, "Rameau", None, redirect_to="Jean-Philippe Rameau"),
        ])

    def test_requires_kb(self):
        bench = make_benchmark(sent("s1", "t"))
        with pytest.raises(ValueError, match="requires a mapping index"):
            score(bench, [], MatchConfig(mode=MODE_TITLE))

    def test_normalized_exact_match(self, kb):
        bench = make_benchmark(sent("s1", "t", ("Rameau", "Q1", "")))
        report = score(bench, [pred("s1", ("Rameau", "jean-Philippe_Rameau", None))],
                       MatchConfig(mode=MODE_TITLE), kb=kb)
        assert (report.tp, report.fp, report.fn) == (1, 0, 0)

    def test_redirect_title_does_not_match(self, kb):
        # gold materializes to the canonical title; a prediction naming the
        # redirect is not followed at scoring time
        bench = make_benchmark(sent("s1", "t", ("Rameau", "Q1", "")))
        report = score(bench, [pred("s1", ("Rameau", "Rameau", None))],
                       MatchConfig(mode=MODE_TITLE), kb=kb)
        assert (report.tp, report.fp, report.fn) == (0, 1, 1)

    def test_blank_title_is_fp(self, kb):
        bench = make_benchmark(sent("s1", "t", ("Rameau", "Q1", "")))
        report = score(bench, [pred("s1", ("Rameau", "  ", None))],
                       MatchConfig(mode=MODE_TITLE), kb=kb)
        assert (report.tp, report.fp, report.fn) == (0, 1, 1)

    def test_unresolved_gold_dropped_and_tallied(self, kb):
        bench = make_benchmark(sent("s1", "t", ("A", "Q1", ""), ("B", "Q999", "")))
        report = score(bench, [pred("s1", ("A", "Jean-Philippe Rameau", None))],
                       MatchConfig(mode=MODE_TITLE), kb=kb)
        assert (report.tp, report.fp, report.fn) == (1, 0, 0)
        assert report.tallies["gold_title_unresolved"] == 1

    def test_unresolved_gold_never_matches_titleless_prediction(self, kb):
        bench = make_benchmark(sent("s1", "t", ("B", "Q999", "")))
        report = score(bench, [pred("s1", ("B", None, None))],
                       MatchConfig(mode=MODE_TITLE), kb=kb)
        assert (report.tp, report.fp, report.fn) == (0, 1, 0)
        assert report.tallies["gold_title_unresolved"] == 1

    def test_qid_on_prediction_ignored_in_title_mode(self, kb):
        bench = make_benchmark(sent("s1", "t", ("A", "Q1", "")))
        report = score(bench, [pred("s1", ("A", "Wrong Title", "Q1"))],
                       MatchConfig(mode=MODE_TITLE), kb=kb)
        assert (report.tp, report.fp, report.fn) == (0, 1, 1)


class TestNilPolicies:
    BENCH = make_benchmark(
        sent("s1", "t", ("Known", "Q1", ""), ("Mystery Man", "NIL", "")))

    def test_nil_gold_always_excluded(self):
        report = score(self.BENCH, [], QID_CFG)
        assert (report.tp, report.fp, report.fn) == (0, 0, 1)
        assert report.tallies["nil_gold_excluded"] == 1

    def test_matching_pred_discarded_under_default_policy(self):
        preds = [pred("s1", ("Known", "T", "Q1"), ("Mystery Man", "Somebody", "Q42"))]
        report = score(self.BENCH, preds, QID_CFG)
        assert (report.tp, report.fp, report.fn) == (1, 0, 0)
        assert report.tallies["predictions_discarded_nil"] == 1

    def test_matching_pred_counts_under_gold_only_policy(self):
        preds = [pred("s1", ("Known", "T", "Q1"), ("Mystery Man", "Somebody", "Q42"))]
        report = score(self.BENCH, preds,
                       MatchConfig(mode=MODE_QID, nil_policy=NIL_EXCLUDE_GOLD_ONLY))
        assert (report.tp, report.fp, report.fn) == (1, 1, 0)
        assert report.tallies["predictions_discarded_nil"] == 0

    def test_discard_is_per_sentence(self):
        bench = make_benchmark(
            sent("s1", "t", ("Mystery Man", "NIL", "")),
            sent("s2", "t", ("Other", "Q1", "")),
        )
        # same surface in a sentence without that NIL gold still counts
        preds = [pred("s2", ("Mystery Man", "Somebody", "Q42"))]
        report = score(bench, preds, QID_CFG)
        assert (report.tp, report.fp, report.fn) == (0, 1, 1)


class TestScoreProperties:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_prediction_order_irrelevant(self, data):
        qids = [f"Q{i}" for i in range(1, 6)]
        golds = data.draw(st.lists(st.sampled_from(qids), max_size=4))
        preds_qids = data.draw(st.lists(st.sampled_from(qids), max_size=4))
        bench = make_benchmark(
            sent("s1", "t", *((f"g{i}", q, "") for i, q in enumerate(golds))))
        links = [(f"p{i}", f"T{q}", q) for i, q in enumerate(preds_qids)]
        base = score(bench, [pred("s1", *links)], QID_CFG)
        flipped = score(bench, [pred("s1", *reversed(links))], QID_CFG)
        assert (base.tp, base.fp, base.fn) == (flipped.tp, flipped.fp, flipped.fn)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_counts_conserve_totals(self, data):
        qids = [f"Q{i}" for i in range(1, 5)]
        sentences = []
        preds = []
        for sid in ("s1", "s2", "s3"):
            golds = data.draw(st.lists(st.sampled_from(qids), max_size=3))
            pqids = data.draw(st.lists(st.sampled_from(qids), max_size=3))
            sentences.append(sent(sid, "t", *((f"g{i}", q, "") for i, q in enumerate(golds))))
            preds.append(pred(sid, *((f"p{i}", f"T{q}", q) for i, q in enumerate(pqids))))
        bench = make_benchmark(*sentences)
        report = score(bench, preds, QID_CFG)
        total_gold = sum(len(s.mentions) for s in sentences)
        total_pred = sum(len(p.links) for p in preds)
        assert report.tp + report.fn == total_gold
        assert report.tp + report.fp == total_pred
        assert report.tp >= 0 and report.fp >= 0 and report.fn >= 0


class TestAgainstReferenceLoop:
    @settings(max_examples=300, deadline=None)
    @given(stratify_instances(), st.booleans())
    def test_matches_reference_loop(self, case, keep_per_sentence):
        """score, one slice of the shared slice counter, equals the loop it
        used to run on its own, field for field and error for error: counts,
        flags, tallies and per-sentence rows, in every mode and NIL policy."""
        for mode in MODES:
            for nil_policy in NIL_POLICIES:
                args = (case["gold"], case["preds"], MatchConfig(mode, nil_policy), case["kb"])
                kwargs = dict(system_id="sys", slice_id="s", keep_per_sentence=keep_per_sentence)
                assert (report_outcome(score, *args, **kwargs)
                        == report_outcome(reference_score, *args, **kwargs))


@st.composite
def tagged_sentences(draw):
    """A number of slices and matched sentences with a tag for every item.

    count_slices reads a sentence through its identifiers, nil_gold and
    sentence_id, and its items only through the tags, so the gold, preds
    and discarded lists hold placeholders, position for position."""
    size = draw(st.integers(1, 4))
    sentences = []
    for i in range(draw(st.integers(0, 4))):
        gold_ids = draw(st.lists(st.sampled_from(["a", "b", "c", None]), max_size=4))
        pred_ids = draw(st.lists(st.sampled_from(["a", "b", "c", None]), max_size=5))
        discarded = list(range(draw(st.integers(0, 2))))
        items = SentenceItems(f"s{i}", draw(st.integers(0, 2)), list(gold_ids), gold_ids,
                              list(pred_ids), pred_ids, discarded)
        tags = tuple(draw(st.lists(st.integers(0, size), min_size=len(part), max_size=len(part)))
                     for part in (gold_ids, pred_ids, discarded))
        sentences.append((items, tags))
    return size, sentences


def kept_at(items, tags, k):
    """The sentence as slice k sees it: the items whose tag is at most k."""
    def keep(values, ks):
        return [value for value, tag in zip(values, ks) if tag <= k]

    gold_ks, pred_ks, discarded_ks = tags
    return items._replace(gold=keep(items.gold, gold_ks), gold_ids=keep(items.gold_ids, gold_ks),
                          preds=keep(items.preds, pred_ks), pred_ids=keep(items.pred_ids, pred_ks),
                          discarded=keep(items.discarded, discarded_ks))


class TestCountSlices:
    @settings(max_examples=500, deadline=None)
    @given(tagged_sentences(), st.booleans())
    def test_each_slice_counts_what_it_keeps(self, drawn, keep_per_sentence):
        """Every slice equals the former loop run on the items it keeps."""
        size, sentences = drawn
        tags = {items.sentence_id: item_tags for items, item_tags in sentences}
        reports = count_slices([items for items, _ in sentences],
                               lambda items: tags[items.sentence_id],
                               [f"k{k}" for k in range(size)], "sys", keep_per_sentence)
        assert reports == [reference_count([kept_at(items, item_tags, k)
                                            for items, item_tags in sentences],
                                           "sys", f"k{k}", keep_per_sentence)
                           for k in range(size)]

    def test_duplicate_identifier_pairs_tags_in_order(self):
        # gold tags 1, 0 and prediction tags 2, 0, 1 of one identifier pair
        # up as (0, 0) and (1, 1): one tp from slice 0, a second from slice 1
        items = SentenceItems("s1", 0, ["a", "a"], ["a", "a"], ["a"] * 3, ["a"] * 3, [])
        reports = count_slices([items], lambda _: ([1, 0], [2, 0, 1], []), ["k0", "k1", "k2"])
        assert [(r.tp, r.fp, r.fn) for r in reports] == [(1, 0, 0), (2, 0, 0), (2, 1, 0)]


class TestSerialization:
    def test_csv_fields(self):
        bench = make_benchmark(sent("s1", "t", ("A", "Q1", "")))
        report = score(bench, [pred("s1", ("A", "T", "Q1"))], QID_CFG,
                       system_id="llm", slice_id="all")
        row = csv_fields(report)
        assert row == ["llm", "all", "1", "0", "0", "1.000000", "1.000000", "1.000000"]
        assert len(row) == len(CSV_FIELDS)
        assert CSV_FIELDS == ("system", "slice", "tp", "fp", "fn",
                              "precision", "recall", "f1")

    def test_report_to_dict(self):
        bench = make_benchmark(sent("s1", "t", ("A", "Q1", ""), ("B", "Q2", "")))
        report = score(bench, [pred("s1", ("A", "T", "Q1"))], QID_CFG,
                       system_id="sys", keep_per_sentence=True)
        payload = report_to_dict(report)
        assert payload["system"] == "sys"
        assert payload["slice"] == "all"
        assert (payload["tp"], payload["fp"], payload["fn"]) == (1, 0, 1)
        assert payload["precision_pct"] == 100.0
        assert payload["recall_pct"] == 50.0
        assert payload["f1_pct"] == 66.7
        assert payload["flags"] == []
        assert payload["per_sentence"] == [{"sentence_id": "s1", "tp": 1, "fp": 0, "fn": 1}]

    def test_per_sentence_absent_by_default(self):
        bench = make_benchmark(sent("s1", "t"))
        report = score(bench, [], QID_CFG)
        assert report.per_sentence is None
        assert "per_sentence" not in report_to_dict(report)

    def test_pct_methods_use_decimal(self):
        bench = make_benchmark(sent("s1", "t", ("A", "Q1", ""), ("B", "Q2", ""),
                                    ("C", "Q3", "")))
        report = score(bench, [pred("s1", ("A", "T", "Q1"))], QID_CFG)
        assert report.recall_pct() == Decimal("33.3")
        assert report.f1_pct() == Decimal("50.0")
