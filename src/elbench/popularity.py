"""Entity popularity (Wikidata statement counts) and θ-stratified scoring.

Popularity is the number of main statements on an entity (qualifiers and
references are not counted).  The slice at threshold θ is the score of the
gold mentions and predictions whose entity has at most θ statements;
predictions that resolve to no entity stay in every slice, since their
popularity is unknowable and they must still cost precision, and NIL gold
mentions stay in every slice so the scorer's NIL policy stays in charge of
them.  `stratify` computes every slice from one pass over the matched items,
each tagged with the first slice that keeps it, so a sweep over every
distinct count costs little more than one `score`.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .benchmark import Benchmark
from .kb import KbIndex, is_qid, title_to_qid
from .parsing import PredictedLink, PredictionRecord
from .records import read_records
from .scoring import MatchConfig, ScoreReport, SentenceScore, build_report, match_items

INF = math.inf

# The published sweep starts at 20; the full grid is this tool's default.
DEFAULT_THETAS: Tuple[float, ...] = (20, 40, 60, 80, 100, INF)

# The θ token for every distinct popularity count of a run: its full curve.
ALL_THETAS = "all"


@dataclass(frozen=True)
class PopularityIndex:
    counts: Dict[str, int]


@dataclass(frozen=True)
class ThresholdSlice:
    theta: float
    report: ScoreReport


def triple_count(entity_document: Mapping) -> int:
    """Total main statements across all properties of one entity document."""
    claims = entity_document.get("claims", {})
    if not isinstance(claims, dict):
        raise ValueError("malformed entity document: claims is not a map")
    total = 0
    for prop, statements in claims.items():
        if not isinstance(statements, list):
            raise ValueError(f"malformed entity document: claims[{prop!r}] is not a list")
        total += len(statements)
    return total


def counts_from_entities(entities: Mapping[str, Mapping], qids: Iterable[str]) -> PopularityIndex:
    """Statement counts for qids from Wikidata entity documents already on disk.

    `entities` is the `entities` map of a saved `wbgetentities` response or
    of `Special:EntityData/<qid>.json`; every qid is checked before any
    document is read, and a qid without a document is an error.
    """
    requested = list(qids)
    for qid in requested:
        if not is_qid(qid):
            raise ValueError(f"invalid qid {qid!r}")
    counts: Dict[str, int] = {}
    for qid in requested:
        entity = entities.get(qid)
        if entity is None or "missing" in entity:
            raise ValueError(f"entity {qid} not found in the entity documents")
        counts[qid] = triple_count(entity)
    return PopularityIndex(counts=counts)


def load_counts(path: str) -> PopularityIndex:
    """Load a counts TSV: qid <TAB> count.  Fails whole, listing bad lines."""
    counts: Dict[str, int] = {}
    lines_seen: Dict[str, int] = {}

    def check(cells: List[str], lineno: int, errors: List[str]) -> None:
        if len(cells) != 2:
            errors.append(f"line {lineno}: expected 2 tab-separated fields, got {len(cells)}")
            return
        qid, raw_count = cells[0].strip(), cells[1].strip()
        if not is_qid(qid):
            errors.append(f"line {lineno}: invalid qid {qid!r}")
            return
        if not (raw_count.isascii() and raw_count.isdigit()):
            errors.append(f"line {lineno}: count must be a nonnegative integer, got {raw_count!r}")
            return
        if qid in lines_seen:
            errors.append(f"line {lineno}: duplicate qid {qid} (first seen on line {lines_seen[qid]})")
            return
        lines_seen[qid] = lineno
        counts[qid] = int(raw_count)

    read_records(path, check, tsv=True)
    return PopularityIndex(counts=counts)


def save_counts(index: PopularityIndex, path: str) -> None:
    """Write a counts TSV that `load_counts` reads back, in numeric qid order."""
    ordered = sorted(index.counts, key=lambda q: int(q[1:]))
    with open(path, "w", encoding="utf-8") as handle:
        for qid in ordered:
            handle.write(f"{qid}\t{index.counts[qid]}\n")


def format_theta(theta: float) -> str:
    return "∞" if math.isinf(theta) else str(int(theta))


def slice_label(theta: float) -> str:
    return f"θ≤{format_theta(theta)}"


def _thresholds(thetas: Sequence[Union[float, str]]) -> Tuple[List[float], bool]:
    """The validated thresholds asked for, and whether "all" was among them."""
    if not thetas:
        raise ValueError("empty theta list")
    values: List[float] = []
    every_count = False
    for theta in thetas:
        if isinstance(theta, str):
            token = theta.strip().lower()
            if token == ALL_THETAS:
                every_count = True
                continue
            if token in ("inf", "∞"):
                values.append(INF)
                continue
            if token.isascii() and token.isdigit() and int(token) >= 1:
                values.append(float(int(token)))
                continue
        elif math.isinf(theta) and theta > 0:
            values.append(INF)
            continue
        elif theta == int(theta) and theta >= 1:
            values.append(float(int(theta)))
            continue
        raise ValueError(f"invalid theta {str(theta)!r}: expected a positive integer or inf")
    return values, every_count


def stratify(gold: Benchmark,
             preds: Sequence[PredictionRecord],
             cfg: MatchConfig,
             kb: Optional[KbIndex],
             pop: PopularityIndex,
             thetas: Sequence[Union[float, str]] = DEFAULT_THETAS,
             strict: bool = True,
             system_id: str = "system",
             keep_per_sentence: bool = False) -> List[ThresholdSlice]:
    """One score report per threshold θ, ascending, from a single scoring pass.

    The slice at θ scores the gold mentions and predictions whose entity has
    at most θ statements.  A θ is a positive integer or inf, as a number or
    as the CLI's token ("20", "inf", "∞"); the token "all" stands for every
    distinct count of at least 1 among the run's entities, plus inf.

    A gold mention's entity is its gold QID.  A prediction's entity is its
    attached QID, else its title resolved through the mapping (redirects
    followed: this is resolution, not the scorer's exact-title match).  A
    prediction that resolves to no entity stays in every slice, since it must
    still cost precision, and so do NIL gold mentions, which the NIL policy
    handles.  Matching is `scoring.match_items`'.

    Each item is tagged once with the first slice that keeps it.  Counts are
    added at that tag and one prefix sum over the slices gives every report,
    so the cost hardly grows with the number of thresholds.

    strict mode requires a count for every gold QID and every resolvable
    predicted entity; lenient mode treats missing counts as +∞ (excluded
    from every finite slice) and tallies them on each slice report.
    """
    values, every_count = _thresholds(thetas)

    gold_qids = {m.qid for sentence in gold.sentences for m in sentence.mentions if not m.is_nil}
    pred_qids = set()
    title_qids: Dict[str, Optional[str]] = {}
    for record in preds:
        for link in record.links:
            if link.qid is not None:
                pred_qids.add(link.qid)
            elif kb is not None and link.title is not None and link.title not in title_qids:
                title_qids[link.title] = (title_to_qid(kb, link.title) if link.title.strip()
                                          else None)
    pred_qids.update(title_qids.values())
    pred_qids.discard(None)
    missing_gold = {qid for qid in gold_qids if qid not in pop.counts}
    missing_pred = {qid for qid in pred_qids if qid not in pop.counts}
    if strict and (missing_gold or missing_pred):
        sample = sorted(missing_gold | missing_pred)
        raise ValueError(f"{len(sample)} entity(ies) lack popularity counts: " + ", ".join(sample))

    counts = {qid: pop.counts.get(qid, INF) for qid in gold_qids | pred_qids}
    if every_count:
        values.extend(float(count) for count in set(counts.values()) if 1 <= count < INF)
        values.append(INF)
    ordered = sorted(set(values))
    size = len(ordered)
    # Slices tag..size-1 keep an entity's items.  An entity without a count
    # sits at +inf, so only an infinite slice keeps it (tag size: no slice
    # does); an item with no entity is tagged 0 and kept by every slice.
    tags: Dict[Optional[str], int] = {qid: bisect_left(ordered, count)
                                      for qid, count in counts.items()}
    tags[None] = 0

    tp = [0] * (size + 1)
    gold_kept = [0] * (size + 1)
    preds_kept = [0] * (size + 1)
    unresolved = [0] * (size + 1)
    discarded = [0] * (size + 1)
    nil_gold = 0
    rows: List[List[SentenceScore]] = [[] for _ in ordered]

    def link_tag(link: PredictedLink) -> int:
        return tags[link.qid if link.qid is not None else title_qids.get(link.title)]

    for items in match_items(gold, preds, cfg, kb):
        nil_gold += items.nil_gold
        gold_tags: Dict[str, List[int]] = {}
        for mention, ident in zip(items.gold, items.gold_ids):
            k = tags[mention.qid]
            if ident is None:
                unresolved[k] += 1
            else:
                gold_kept[k] += 1
                gold_tags.setdefault(ident, []).append(k)
        pred_ks = [link_tag(link) for link in items.preds]
        matched: Dict[str, List[int]] = {}
        for k, ident in zip(pred_ks, items.pred_ids):
            preds_kept[k] += 1
            if ident in gold_tags:
                matched.setdefault(ident, []).append(k)
        for link in items.discarded:
            discarded[link_tag(link)] += 1
        # Per identifier, the tp at slice k is the smaller of the gold and
        # the predictions kept there: the i-th least popular of each pair up
        # and count from the later of their two tags.  One of each is by far
        # the commonest case.
        tp_ks: List[int] = []
        for ident, ks in matched.items():
            golds = gold_tags[ident]
            if len(golds) == 1 == len(ks):
                tp_ks.append(max(golds[0], ks[0]))
            else:
                tp_ks.extend(map(max, sorted(golds), sorted(ks)))
        for k in tp_ks:
            tp[k] += 1
        if keep_per_sentence:
            rows_for_sentence = _sentence_rows(
                items.sentence_id, size, sorted(tp_ks),
                sorted(k for ks in gold_tags.values() for k in ks), sorted(pred_ks))
            for k, row in enumerate(rows_for_sentence):
                rows[k].append(row)

    tp, gold_kept, preds_kept, unresolved, discarded = (
        list(accumulate(diff)) for diff in (tp, gold_kept, preds_kept, unresolved, discarded))
    slices: List[ThresholdSlice] = []
    for k, theta in enumerate(ordered):
        tallies = {"nil_gold_excluded": nil_gold,
                   "gold_title_unresolved": unresolved[k],
                   "predictions_discarded_nil": discarded[k]}
        if missing_gold:
            tallies["popularity_missing_gold"] = len(missing_gold)
        if missing_pred:
            tallies["popularity_missing_preds"] = len(missing_pred)
        report = build_report(system_id, slice_label(theta), tp[k], preds_kept[k] - tp[k],
                              gold_kept[k] - tp[k], tallies,
                              rows[k] if keep_per_sentence else None)
        slices.append(ThresholdSlice(theta=theta, report=report))
    return slices


def _sentence_rows(sentence_id: str, size: int, tp_tags: List[int], gold_tags: List[int],
                   pred_tags: List[int]) -> List[SentenceScore]:
    """One sentence's counts at each slice index, from its sorted tags."""
    out = []
    for k in range(size):
        sent_tp = bisect_right(tp_tags, k)
        out.append(SentenceScore(sentence_id, sent_tp, bisect_right(pred_tags, k) - sent_tp,
                                 bisect_right(gold_tags, k) - sent_tp))
    return out


STRATIFY_CSV_FIELDS = ("system", "theta", "precision", "recall", "f1")


def stratify_csv_rows(slices: Sequence[ThresholdSlice]) -> List[List[str]]:
    """Plot-ready rows: percentages at one decimal, thresholds ascending."""
    rows = []
    for item in slices:
        report = item.report
        theta = "inf" if math.isinf(item.theta) else str(int(item.theta))
        rows.append([report.system_id, theta, str(report.precision_pct()),
                     str(report.recall_pct()), str(report.f1_pct())])
    return rows
