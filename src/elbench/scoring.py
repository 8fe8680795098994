"""Micro-averaged precision/recall/F1 with NIL exclusion.

Matching is identifier-level and one-to-one per sentence: a prediction is a
true positive when its identifier (normalized title in title mode, QID in
qid mode) equals a not-yet-matched gold identifier of the same sentence.
Duplicate predictions of one identifier cost false positives.  Surfaces are
diagnostics only, except for the NIL policy below.

`count_slices` is the one counter, for every slice of `popularity.stratify`
in one pass; `score` is its case of one slice that keeps every item.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence,
                    Tuple)

from .benchmark import Benchmark, BenchmarkSentence, GoldMention
from .kb import KbIndex, normalize_title
from .parsing import PredictedLink, PredictionRecord

MODE_TITLE = "title"
MODE_QID = "qid"
MODES = (MODE_TITLE, MODE_QID)

# Default: NIL gold mentions leave scoring entirely, and predictions whose
# surface equals a NIL gold surface of the sentence are discarded before
# matching (neither TP nor FP).  The alternative only removes the gold side.
NIL_EXCLUDE_AND_IGNORE = "exclude-gold-and-ignore-matching-preds"
NIL_EXCLUDE_GOLD_ONLY = "exclude-gold-only"
NIL_POLICIES = (NIL_EXCLUDE_AND_IGNORE, NIL_EXCLUDE_GOLD_ONLY)

FLAG_PRECISION_UNDEFINED = "precision-undefined"
FLAG_RECALL_UNDEFINED = "recall-undefined"


@dataclass(frozen=True)
class MatchConfig:
    mode: str = MODE_TITLE
    nil_policy: str = NIL_EXCLUDE_AND_IGNORE

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.nil_policy not in NIL_POLICIES:
            raise ValueError(f"nil_policy must be one of {NIL_POLICIES}, got {self.nil_policy!r}")


@dataclass(slots=True)
class SentenceScore:
    sentence_id: str
    tp: int
    fp: int
    fn: int


@dataclass
class ScoreReport:
    system_id: str
    slice_id: str
    tp: int
    fp: int
    fn: int
    tallies: Dict[str, int] = field(default_factory=dict)
    per_sentence: Optional[Tuple[SentenceScore, ...]] = None

    # The metrics and flags are read off the counts, never stored beside them.
    @property
    def precision(self) -> float:
        return f1_from_counts(self.tp, self.fp, self.fn)[0]

    @property
    def recall(self) -> float:
        return f1_from_counts(self.tp, self.fp, self.fn)[1]

    @property
    def f1(self) -> float:
        return f1_from_counts(self.tp, self.fp, self.fn)[2]

    @property
    def flags(self) -> Tuple[str, ...]:
        """The metrics whose denominator is zero, which are defined as 0."""
        return tuple(flag for flag, denominator in ((FLAG_PRECISION_UNDEFINED, self.tp + self.fp),
                                                    (FLAG_RECALL_UNDEFINED, self.tp + self.fn))
                     if not denominator)

    # Presentation values are computed from the integer counts with decimal
    # arithmetic, so they never inherit binary-float rounding error.
    def precision_pct(self) -> Decimal:
        return percent(self.tp, self.tp + self.fp)

    def recall_pct(self) -> Decimal:
        return percent(self.tp, self.tp + self.fn)

    def f1_pct(self) -> Decimal:
        return percent(2 * self.tp, 2 * self.tp + self.fp + self.fn)


def percent(numerator: int, denominator: int) -> Decimal:
    """numerator/denominator as a percentage, rounded half-up to one decimal."""
    if denominator == 0:
        return Decimal("0.0")
    return (Decimal(100 * numerator) / Decimal(denominator)).quantize(
        Decimal("0.1"), rounding=ROUND_HALF_UP)


def f1_from_counts(tp: int, fp: int, fn: int) -> Tuple[float, float, float]:
    """(precision, recall, f1); zero-denominator terms are defined as 0."""
    if tp < 0 or fp < 0 or fn < 0:
        raise ValueError("counts must be nonnegative")
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


class SentenceItems(NamedTuple):
    """One gold sentence after the matching rules, before any counting.

    gold holds the non-NIL mentions and preds the predictions the NIL policy
    keeps; gold_ids and pred_ids give their identifiers, position for
    position.  A gold identifier is None when title mode finds no title for
    the QID; a prediction's is None when it carries none, so it can only be a
    false positive.  discarded holds the predictions the NIL policy drops.
    """

    sentence_id: str
    nil_gold: int
    gold: List[GoldMention]
    gold_ids: List[Optional[str]]
    preds: List[PredictedLink]
    pred_ids: List[Optional[str]]
    discarded: List[PredictedLink]


def match_items(gold: Benchmark,
                preds: Sequence[PredictionRecord],
                cfg: MatchConfig,
                kb: Optional[KbIndex] = None) -> Iterator[SentenceItems]:
    """The matching rules of `score`, one SentenceItems per gold sentence.

    Title mode materializes each gold QID to its canonical title through the
    mapping and compares predicted titles after normalization, with no
    redirect following: the match is exact.  Qid mode compares QIDs.  The
    configuration and the prediction records are checked before this returns:
    a record for an unknown sentence or a second record for one sentence is a
    ValueError.
    """
    cfg.validate()
    if cfg.mode == MODE_TITLE and kb is None:
        raise ValueError("title mode requires a mapping index to materialize gold titles")
    known_ids = {s.sentence_id for s in gold.sentences}
    by_id: Dict[str, PredictionRecord] = {}
    for record in preds:
        if record.sentence_id not in known_ids:
            raise ValueError(f"prediction for unknown sentence_id {record.sentence_id!r}")
        if record.sentence_id in by_id:
            raise ValueError(f"duplicate prediction record for sentence_id {record.sentence_id!r}")
        by_id[record.sentence_id] = record
    # Each distinct raw title is normalized once per call, not once per link.
    title_ids: Dict[str, Optional[str]] = {}
    return (_sentence_items(sentence, by_id.get(sentence.sentence_id), cfg, kb, title_ids)
            for sentence in gold.sentences)


def _title_id(title: Optional[str], title_ids: Dict[str, Optional[str]]) -> Optional[str]:
    """A predicted title's identifier in title mode: None when it is blank."""
    if title is None:
        return None
    if title not in title_ids:
        title_ids[title] = normalize_title(title) if title.strip() else None
    return title_ids[title]


def _sentence_items(sentence: BenchmarkSentence, record: Optional[PredictionRecord],
                    cfg: MatchConfig, kb: Optional[KbIndex],
                    title_ids: Dict[str, Optional[str]]) -> SentenceItems:
    gold: List[GoldMention] = []
    nil_surfaces = set()
    for mention in sentence.mentions:
        if mention.is_nil:
            nil_surfaces.add(mention.surface)
        else:
            gold.append(mention)
    if cfg.mode == MODE_QID:
        gold_ids = [mention.qid for mention in gold]
    else:
        gold_ids = [kb.title_for_qid(mention.qid) for mention in gold]

    preds = list(record.links) if record is not None else []
    discarded: List[PredictedLink] = []
    if nil_surfaces and cfg.nil_policy == NIL_EXCLUDE_AND_IGNORE:
        discarded = [link for link in preds if link.surface in nil_surfaces]
        preds = [link for link in preds if link.surface not in nil_surfaces]
    if cfg.mode == MODE_QID:
        pred_ids = [link.qid for link in preds]
    else:
        pred_ids = [_title_id(link.title, title_ids) for link in preds]
    return SentenceItems(sentence.sentence_id, len(sentence.mentions) - len(gold), gold,
                         gold_ids, preds, pred_ids, discarded)


# A sentence's tags of its gold mentions, predictions and discarded predictions.
SliceTags = Tuple[List[int], List[int], List[int]]


def count_slices(sentences: Iterable[SentenceItems],
                 tags: Callable[[SentenceItems], SliceTags],
                 slice_ids: Sequence[str],
                 system_id: str = "system",
                 keep_per_sentence: bool = False) -> List[ScoreReport]:
    """One ScoreReport per slice id from one pass over `match_items`' sentences.

    tags(items) gives each gold mention and prediction of a sentence a tag.
    Slice k keeps the items whose tag is at most k, so a tag equal to the
    number of slices is kept by none.  Each count is gathered as the tags of
    its items, and its value at slice k is the number of those up to k.
    """
    tp_tags, gold_tags, pred_tags, unresolved_tags, discarded_tags = [], [], [], [], []
    nil_gold = 0
    rows: List[List[SentenceScore]] = [[] for _ in slice_ids]

    for items in sentences:
        gold_ks, pred_ks, discarded_ks = tags(items)
        nil_gold += items.nil_gold
        gold_tags += gold_ks
        pred_tags += pred_ks
        discarded_tags += discarded_ks
        first_tp = len(tp_tags)
        golds: Dict[Optional[str], List[int]] = {}
        for ident, k in zip(items.gold_ids, gold_ks):
            golds.setdefault(ident, []).append(k)
        unresolved_tags += golds.pop(None, ())
        matched: Dict[str, List[int]] = {}
        for ident, k in zip(items.pred_ids, pred_ks):
            if ident in golds:
                matched.setdefault(ident, []).append(k)
        # A gold mention matches one prediction of its identifier, counted
        # from the later of their two tags: per identifier the i-th lowest
        # gold tag pairs with the i-th lowest prediction tag.  One of each is
        # by far the commonest case.
        for ident, ks in matched.items():
            gold_of = golds[ident]
            if len(gold_of) == 1 == len(ks):
                tp_tags.append(max(gold_of[0], ks[0]))
            else:
                tp_tags += map(max, sorted(gold_of), sorted(ks))
        if keep_per_sentence:
            sent_tps = sorted(tp_tags[first_tp:])
            sent_golds = sorted(k for ks in golds.values() for k in ks)
            sent_preds = sorted(pred_ks)
            for k, slice_rows in enumerate(rows):
                tp = bisect_right(sent_tps, k)
                slice_rows.append(SentenceScore(items.sentence_id, tp,
                                                bisect_right(sent_preds, k) - tp,
                                                bisect_right(sent_golds, k) - tp))

    sorted_tags = [sorted(flat) for flat in (tp_tags, gold_tags, pred_tags, unresolved_tags,
                                             discarded_tags)]
    reports = []
    for k, slice_id in enumerate(slice_ids):
        tp, gold, preds, unresolved, discarded = (bisect_right(flat, k) for flat in sorted_tags)
        tallies = {"nil_gold_excluded": nil_gold,
                   "gold_title_unresolved": unresolved,
                   "predictions_discarded_nil": discarded}
        reports.append(ScoreReport(system_id, slice_id, tp, preds - tp, gold - unresolved - tp,
                                   tallies, tuple(rows[k]) if keep_per_sentence else None))
    return reports


def score(gold: Benchmark,
          preds: Sequence[PredictionRecord],
          cfg: MatchConfig,
          kb: Optional[KbIndex] = None,
          system_id: str = "system",
          slice_id: str = "all",
          keep_per_sentence: bool = False) -> ScoreReport:
    """Score predictions against a gold benchmark under `match_items`' rules.

    Gold mentions whose QID has no title in the mapping (title mode) are
    dropped from the denominator and tallied (KB-snapshot drift, not model
    error).  Predictions lacking an identifier (no title in title mode, no
    qid in qid mode) count as false positives.  This is `count_slices` with
    one slice that keeps every item.
    """
    (report,) = count_slices(match_items(gold, preds, cfg, kb), _untagged, [slice_id],
                             system_id, keep_per_sentence)
    return report


def _untagged(items: SentenceItems) -> SliceTags:
    return [0] * len(items.gold), [0] * len(items.preds), [0] * len(items.discarded)


CSV_FIELDS = ("system", "slice", "tp", "fp", "fn", "precision", "recall", "f1")


def csv_fields(report: ScoreReport) -> List[str]:
    """Row values matching CSV_FIELDS; metrics as 0-1 fractions, 6 decimals."""
    return [report.system_id, report.slice_id, str(report.tp), str(report.fp), str(report.fn),
            f"{report.precision:.6f}", f"{report.recall:.6f}", f"{report.f1:.6f}"]


def report_to_dict(report: ScoreReport) -> Dict[str, object]:
    out: Dict[str, object] = {
        "system": report.system_id,
        "slice": report.slice_id,
        "tp": report.tp,
        "fp": report.fp,
        "fn": report.fn,
        "precision": report.precision,
        "recall": report.recall,
        "f1": report.f1,
        "precision_pct": float(report.precision_pct()),
        "recall_pct": float(report.recall_pct()),
        "f1_pct": float(report.f1_pct()),
        "flags": list(report.flags),
        "tallies": dict(report.tallies),
    }
    if report.per_sentence is not None:
        out["per_sentence"] = [{"sentence_id": row.sentence_id, "tp": row.tp,
                                "fp": row.fp, "fn": row.fn} for row in report.per_sentence]
    return out
