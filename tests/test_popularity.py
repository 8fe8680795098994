import dataclasses
import math

import pytest
from conftest import make_benchmark, sent
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_stratify import _link_qid, reference_stratify

from elbench.kb import KbRecord, MappingIndex
from elbench.parsing import STATUS_CLEAN, PredictedLink, PredictionRecord
from elbench.popularity import (DEFAULT_THETAS, INF, STRATIFY_CSV_FIELDS, load_counts,
                                slice_label, stratify, stratify_csv_rows, theta_value)
from elbench.scoring import MODE_QID, MODE_TITLE, MODES, NIL_POLICIES, MatchConfig, score

QID_CFG = MatchConfig(mode=MODE_QID)


def pred(sentence_id, *links):
    built = tuple(PredictedLink(surface=s, title=t, qid=q) for s, t, q in links)
    return PredictionRecord(sentence_id=sentence_id, links=built, status=STATUS_CLEAN)


class TestCountsFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("Q1\t0\nQ2\t100\nQ10\t5\n", encoding="utf-8")
        assert load_counts(str(path)) == {"Q10": 5, "Q2": 100, "Q1": 0}

    def test_errors_collected(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("Q1\t5\n"
                        "banana\t3\n"
                        "Q2\t-1\n"
                        "Q3\t2\textra\n"
                        "Q1\t9\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_counts(str(path))
        message = str(err.value)
        assert "4 malformed row(s)" in message
        for fragment in ("line 2: invalid qid", "line 3: count must be",
                         "line 4: expected 2", "line 5: duplicate qid Q1 (first seen on line 1)"):
            assert fragment in message

    def test_non_ascii_digits_rejected(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("Q1\t\u00b2\nQ2\t\u0661\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_counts(str(path))
        message = str(err.value)
        assert "2 malformed row(s)" in message
        assert "line 1: count must be a nonnegative integer, got '\u00b2'" in message
        assert "line 2: count must be a nonnegative integer, got '\u0661'" in message

    @pytest.mark.parametrize("cell", ["9" * 5000, " " + "9" * 5000], ids=["canonical", "padded"])
    def test_count_past_the_digit_limit(self, tmp_path, cell):
        # int() takes at most 4300 digits by default, with a message naming no line.
        path = tmp_path / "counts.tsv"
        path.write_text(f"Q1\t{cell}\nQ2\t5\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_counts(str(path))
        assert str(err.value) == f"{path}: 1 malformed row(s):\nline 1: count has too many digits"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "counts.tsv"
        path.write_text("\nQ1\t5\n\n", encoding="utf-8")
        assert load_counts(str(path)) == {"Q1": 5}


class TestThetaLabels:
    def test_slice_label(self):
        assert slice_label(20) == "θ≤20"
        assert slice_label(INF) == "θ≤∞"

    def test_format_theta(self):
        """theta_value is the one rendering of θ for the CSV, the JSON and the manifest."""
        assert theta_value(20) == 20
        assert theta_value(10**400) == 10**400
        assert theta_value(INF) == "inf"

    def test_default_grid(self):
        assert DEFAULT_THETAS == (20, 40, 60, 80, 100, INF)


class TestStratify:
    BENCH = make_benchmark(
        sent("s1", "t", ("Rare", "Q1", ""), ("Mid", "Q2", "")),
        sent("s2", "t", ("Famous", "Q3", ""), ("Unknown Person", "NIL", "")),
    )
    POP = {"Q1": 5, "Q2": 40, "Q3": 900, "Q9": 10}
    PREDS = [
        pred("s1", ("Rare", "TR", "Q1"), ("Stray", "TS", "Q9")),
        pred("s2", ("Famous", "TF", "Q3"), ("Ghost", "No Entity", None)),
    ]

    def test_boundary_is_inclusive(self):
        slices = stratify(self.BENCH, self.PREDS, QID_CFG, None, self.POP, thetas=[40])
        (item,) = slices
        # Q2 (count 40) stays in at theta=40; Q3 (900) leaves; the
        # unresolvable "Ghost" prediction still costs precision
        assert (item.report.tp, item.report.fp, item.report.fn) == (1, 2, 1)

    def test_just_below_boundary(self):
        (item,) = stratify(self.BENCH, self.PREDS, QID_CFG, None, self.POP, thetas=[39])
        # Q2 (count 40) now leaves the gold side too; kept gold is Q1 only,
        # kept preds are Q1, Q9 (10) and the unresolvable Ghost
        assert (item.report.tp, item.report.fp, item.report.fn) == (1, 2, 0)

    def test_infinite_slice_equals_unstratified(self):
        (item,) = stratify(self.BENCH, self.PREDS, QID_CFG, None, self.POP,
                           thetas=[INF], system_id="sys")
        full = score(self.BENCH, self.PREDS, QID_CFG, system_id="sys",
                     slice_id=slice_label(INF))
        assert item.report == full

    def test_nil_gold_passes_every_filter(self):
        (item,) = stratify(self.BENCH, self.PREDS, QID_CFG, None, self.POP, thetas=[1])
        # all real golds filtered out, NIL still excluded by the scorer's
        # own policy, so only the retained unresolvable pred remains
        assert item.report.tallies["nil_gold_excluded"] == 1

    def test_slices_ascend_and_dedupe(self):
        slices = stratify(self.BENCH, self.PREDS, QID_CFG, None, self.POP,
                          thetas=[100, 20, INF, 20])
        assert [s.theta for s in slices] == [20.0, 100.0, INF]

    def test_theta_past_the_float_range(self):
        """A θ, or a count in the "all" sweep, too large for a float is held
        as the int it is and labelled with its digits."""
        huge = 10**400
        slices = stratify(self.BENCH, self.PREDS, QID_CFG, None, self.POP, thetas=[huge, 20])
        assert [s.theta for s in slices] == [20, huge]
        assert slices[1].report.slice_id == f"θ≤{huge}"
        (full,) = stratify(self.BENCH, self.PREDS, QID_CFG, None, self.POP, thetas=[INF])
        assert dataclasses.replace(slices[1].report, slice_id=full.report.slice_id) == full.report
        pop = {**self.POP, "Q3": huge}
        swept = stratify(self.BENCH, self.PREDS, QID_CFG, None, pop, thetas=["all"])
        assert [s.theta for s in swept] == [5, 10, 40, huge, INF]
        assert swept[3].report.slice_id == f"θ≤{huge}"

    def test_invalid_theta(self):
        with pytest.raises(ValueError, match="positive integer or inf"):
            stratify(self.BENCH, self.PREDS, QID_CFG, None, self.POP, thetas=[2.5])
        with pytest.raises(ValueError, match="positive integer or inf"):
            stratify(self.BENCH, self.PREDS, QID_CFG, None, self.POP, thetas=[0])
        for token in ("\u00b2", "\u0661", -INF, math.nan, True):
            with pytest.raises(ValueError, match=f"invalid theta '{token}': expected"):
                stratify(self.BENCH, self.PREDS, QID_CFG, None, self.POP, thetas=[token])
        for thetas in ([], [""], [" ", ""]):
            with pytest.raises(ValueError, match="^empty theta list$"):
                stratify(self.BENCH, self.PREDS, QID_CFG, None, self.POP, thetas=thetas)
        # A blank item is reported before any other bad item of the list.
        with pytest.raises(ValueError, match=r"^empty item 3 in theta list 'x,20,,inf'$"):
            stratify(self.BENCH, self.PREDS, QID_CFG, None, self.POP,
                     thetas=["x", "20", "", INF])
        # int() takes at most 4300 digits by default, with a message naming no θ.
        token = "9" * 5000
        with pytest.raises(ValueError, match=f"^invalid theta '{token}': too many digits$"):
            stratify(self.BENCH, self.PREDS, QID_CFG, None, self.POP, thetas=["20", token])
        # A number that str() refuses is named by no digits at all.
        for theta in (10**5000, -10**5000):
            with pytest.raises(ValueError, match="^invalid theta: too many digits$"):
                stratify(self.BENCH, self.PREDS, QID_CFG, None, self.POP, thetas=[20, theta])

    def test_count_past_the_digit_limit_in_the_all_sweep(self):
        """str() refuses an int past 4300 digits by default; the sweep names the
        entity whose count it cannot label."""
        pop = {**self.POP, "Q3": 10**5000, "Q1": 10**5000}
        with pytest.raises(ValueError, match="^popularity count of Q1 has too many digits$"):
            stratify(self.BENCH, self.PREDS, QID_CFG, None, pop, thetas=["all"])
        # A count used only for comparison needs no label.
        slices = stratify(self.BENCH, self.PREDS, QID_CFG, None, pop, thetas=[20])
        assert [s.theta for s in slices] == [20]

    def test_strict_missing_counts(self):
        pop = {"Q1": 5, "Q3": 900, "Q9": 10}
        with pytest.raises(ValueError, match=r"1 entity\(ies\) lack popularity counts: Q2"):
            stratify(self.BENCH, self.PREDS, QID_CFG, None, pop, thetas=[20])

    def test_strict_lists_missing_sorted(self):
        pop = {"Q3": 900, "Q9": 10}
        with pytest.raises(ValueError, match="Q1, Q2"):
            stratify(self.BENCH, self.PREDS, QID_CFG, None, pop, thetas=[20])

    def test_lenient_treats_missing_as_infinite(self):
        pop = {"Q1": 5, "Q3": 900, "Q9": 10}
        (low, full) = stratify(self.BENCH, self.PREDS, QID_CFG, None, pop,
                               thetas=[50, INF], strict=False)
        # Q2 gold is missing a count: excluded from the finite slice,
        # present in the infinite one, and tallied on both
        assert low.report.tallies["popularity_missing_gold"] == 1
        assert full.report.tallies["popularity_missing_gold"] == 1
        assert "popularity_missing_preds" not in low.report.tallies
        assert low.report.fn == 0
        assert full.report.fn == 1

    def test_lenient_missing_pred_excluded_from_finite_slices(self):
        pop = {"Q1": 5, "Q2": 40, "Q3": 900}
        (low, full) = stratify(self.BENCH, self.PREDS, QID_CFG, None, pop,
                               thetas=[50, INF], strict=False)
        # Q9 pred has no count: it leaves finite slices (unknown ≠ unresolvable)
        assert low.report.fp == 1   # only the Ghost link remains
        assert full.report.fp == 2
        assert low.report.tallies["popularity_missing_preds"] == 1

    def test_title_resolution_through_kb_with_redirects(self):
        kb = MappingIndex([
            KbRecord(1, "Famous Person", "Q3"),
            KbRecord(2, "Famous", None, redirect_to="Famous Person"),
        ])
        bench = make_benchmark(sent("s1", "t", ("Famous", "Q3", "")))
        preds = [pred("s1", ("Famous", "Famous", None))]
        pop = {"Q3": 900}
        (low,) = stratify(bench, preds, QID_CFG, kb, pop, thetas=[100])
        # the redirect-resolved pred is recognized as popular and filtered
        assert (low.report.tp, low.report.fp, low.report.fn) == (0, 0, 0)
        (full,) = stratify(bench, preds, QID_CFG, kb, pop, thetas=[INF])
        assert full.report.fp == 1  # qid mode: the link itself carries no qid

    def test_per_slice_ids(self):
        slices = stratify(self.BENCH, self.PREDS, QID_CFG, None, self.POP,
                          thetas=[20, INF], system_id="llm")
        assert [s.report.slice_id for s in slices] == ["θ≤20", "θ≤∞"]
        assert all(s.report.system_id == "llm" for s in slices)


ORACLE_QIDS = ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"]
# Q5 and Q6 have no title (title mode drops them as unresolved gold); R1 and
# R3 redirect, so they resolve to an entity but never match a title exactly.
ORACLE_KB = MappingIndex([
    KbRecord(1, "T1", "Q1"), KbRecord(2, "T2", "Q2"), KbRecord(3, "T3", "Q3"),
    KbRecord(4, "T4", "Q4"), KbRecord(5, "R1", None, redirect_to="T1"),
    KbRecord(6, "R3", None, redirect_to="T3"),
])
ORACLE_TITLES = [None, "", " ", "T1", "t2", "T3", "T4", "R1", "R3", "Nope"]
ORACLE_SURFACES = ["a", "b", "c"]
ORACLE_THETAS = [1, 2, 3, 5, 10, 20, 40, INF]


def outcome(fn, *args, **kwargs):
    """Every slice as plain data, or the ValueError message."""
    try:
        return [(item.theta, dataclasses.asdict(item.report)) for item in fn(*args, **kwargs)]
    except ValueError as exc:
        return f"ValueError: {exc}"


def report_outcome(fn, *args, **kwargs):
    """One report as plain data, or the ValueError message."""
    try:
        return dataclasses.asdict(fn(*args, **kwargs))
    except ValueError as exc:
        return f"ValueError: {exc}"


def every_count(bench, preds, kb, pop):
    """The thetas "all" stands for, computed from the filter-and-rescore side."""
    qids = {m.qid for s in bench.sentences for m in s.mentions if not m.is_nil}
    qids |= {_link_qid(link, kb) for record in preds for link in record.links}
    return sorted({pop[q] for q in qids if q in pop and pop[q] >= 1}) + [INF]


@st.composite
def oracle_link(draw, mentions):
    """A random link, or one echoing a gold mention of its sentence."""
    if mentions and draw(st.sampled_from([True, True, False])):
        surface, qid = draw(st.sampled_from(mentions))
        if qid == "NIL":
            return (surface, draw(st.sampled_from(ORACLE_TITLES)), None)
        return (surface, draw(st.sampled_from([f"T{qid[1:]}", f"t{qid[1:]}", "Nope", None])),
                draw(st.sampled_from([qid, qid, None] + ORACLE_QIDS)))
    return draw(st.tuples(st.sampled_from(ORACLE_SURFACES), st.sampled_from(ORACLE_TITLES),
                          st.sampled_from([None] + ORACLE_QIDS)))


@st.composite
def stratify_instances(draw):
    mention = st.tuples(st.sampled_from(ORACLE_SURFACES), st.sampled_from(ORACLE_QIDS + ["NIL"]))
    golds = draw(st.lists(st.lists(mention, max_size=4), min_size=1, max_size=3))
    records = [pred(f"s{i}", *draw(st.lists(oracle_link(mentions), max_size=4)))
               for i, mentions in enumerate(golds) if draw(st.sampled_from([True] * 4 + [False]))]
    extra = draw(st.sampled_from([None] * 8 + ["ghost", "s0"]))
    if extra is not None:
        records.insert(draw(st.integers(0, len(records))), pred(extra, ("a", "T1", None)))
    counts = {qid: draw(st.sampled_from([0, 1, 2, 3, 5, 10, 20, 40]))
              for qid in ORACLE_QIDS if draw(st.integers(0, 9))}
    cfg = MatchConfig(mode=draw(st.sampled_from(MODES)),
                      nil_policy=draw(st.sampled_from(NIL_POLICIES)))
    return {"gold": make_benchmark(*(sent(f"s{i}", "t", *((s, q, "") for s, q in mentions))
                                     for i, mentions in enumerate(golds))),
            "preds": records, "cfg": cfg,
            "kb": draw(st.sampled_from([ORACLE_KB, ORACLE_KB, ORACLE_KB, None])),
            "pop": counts,
            "thetas": draw(st.lists(st.sampled_from(ORACLE_THETAS), min_size=1, max_size=5)),
            "strict": draw(st.booleans()), "system_id": "sys"}


class TestStratifyAgainstFullScore:
    @settings(max_examples=300, deadline=None)
    @given(stratify_instances(),
           st.fixed_dictionaries({qid: st.sampled_from([0, 1, 2, 3, 5, 10, 20, 40])
                                  for qid in ORACLE_QIDS}))
    def test_infinite_slice_field_by_field(self, case, counts):
        """With a count for every entity, the θ=∞ slice is the unstratified score."""
        case = {**case, "pop": counts, "thetas": case["thetas"] + [INF]}
        expected = report_outcome(score, case["gold"], case["preds"], case["cfg"], case["kb"],
                                  system_id="sys", slice_id="θ≤∞")
        assert report_outcome(lambda: stratify(**case)[-1].report) == expected


class TestStratifyOracle:
    """The single pass agrees with filter-and-rescore on every slice and error."""

    @settings(max_examples=400, deadline=None)
    @given(stratify_instances(), st.booleans())
    def test_matches_filter_and_rescore(self, case, as_tokens):
        expected = outcome(reference_stratify, **case)
        if as_tokens:
            # the CLI hands over its comma-separated tokens unparsed
            case = {**case, "thetas": [str(theta_value(t)) for t in case["thetas"]]}
        assert outcome(stratify, **case) == expected

    @settings(max_examples=200, deadline=None)
    @given(stratify_instances())
    def test_all_is_every_distinct_count(self, case):
        expected = outcome(reference_stratify, **{**case, "thetas": every_count(
            case["gold"], case["preds"], case["kb"], case["pop"])})
        assert outcome(stratify, **{**case, "thetas": ["all"]}) == expected

    @pytest.mark.parametrize("links, expected", [
        ([("a", "T1", "Q4")], [(0, 0, 1), (0, 0, 1), (1, 0, 0)]),
        # two predictions of one title: the less popular one is matched first
        ([("a", "T1", "Q4"), ("b", "T1", None)], [(1, 0, 0), (1, 0, 0), (1, 1, 0)]),
    ])
    def test_attached_qid_and_title_in_different_slices(self, links, expected):
        # page-ID path: a link's title matches gold T1 (Q1, count 1) in title
        # mode, but its attached QID Q4 (count 40) sets its popularity
        case = dict(gold=make_benchmark(sent("s1", "t", ("a", "Q1", ""))),
                    preds=[pred("s1", *links)], cfg=MatchConfig(mode=MODE_TITLE),
                    kb=ORACLE_KB, pop={"Q1": 1, "Q4": 40},
                    thetas=[1, 20, 40])
        assert [(s.report.tp, s.report.fp, s.report.fn) for s in stratify(**case)] == expected
        assert outcome(stratify, **case) == outcome(reference_stratify, **case)

    @pytest.mark.parametrize("records, counts, message", [
        ([pred("ghost", ("a", None, "Q1"))], {"Q1": 1, "Q2": 2},
         "prediction for unknown sentence_id 'ghost'"),
        ([pred("s1", ("a", None, "Q1")), pred("s1")], {"Q1": 1, "Q2": 2},
         "duplicate prediction record for sentence_id 's1'"),
        ([pred("s1", ("a", None, "Q3"))], {"Q1": 1},
         r"2 entity\(ies\) lack popularity counts: Q2, Q3"),
        # missing counts are reported before unknown or duplicate records
        ([pred("ghost", ("a", None, "Q3")), pred("s1"), pred("s1")], {"Q1": 1, "Q2": 2},
         r"1 entity\(ies\) lack popularity counts: Q3"),
        ([pred("s1"), pred("ghost"), pred("s1")], {"Q1": 1, "Q2": 2},
         "prediction for unknown sentence_id 'ghost'"),
    ])
    def test_error_paths(self, records, counts, message):
        case = dict(gold=make_benchmark(sent("s1", "t", ("a", "Q1", ""), ("b", "Q2", ""))),
                    preds=records, cfg=QID_CFG, kb=None,
                    pop=counts, thetas=[1, INF])
        with pytest.raises(ValueError, match=message):
            stratify(**case)
        assert outcome(stratify, **case) == outcome(reference_stratify, **case)


class TestCsvRows:
    def test_rows(self):
        bench = make_benchmark(sent("s1", "t", ("A", "Q1", ""), ("B", "Q2", "")))
        pop = {"Q1": 10, "Q2": 500}
        preds = [pred("s1", ("A", "TA", "Q1"))]
        slices = stratify(bench, preds, QID_CFG, None, pop,
                          thetas=[20, INF], system_id="llm")
        rows = stratify_csv_rows(slices)
        assert STRATIFY_CSV_FIELDS == ("system", "theta", "precision", "recall", "f1")
        assert rows == [
            ["llm", "20", "100.0", "100.0", "100.0"],
            ["llm", "inf", "100.0", "50.0", "66.7"],
        ]
        assert not math.isinf(float(rows[0][1]))
