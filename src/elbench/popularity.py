"""Entity popularity (Wikidata statement counts) and θ-stratified scoring.

Popularity is the number of main statements on an entity (qualifiers and
references are not counted).  The slice at threshold θ is the score of the
gold mentions and predictions whose entity has at most θ statements;
predictions that resolve to no entity stay in every slice, since their
popularity is unknowable and they must still cost precision, and NIL gold
mentions stay in every slice so the scorer's NIL policy stays in charge of
them.  `stratify` tags each matched item with the first slice that keeps it
and leaves the counting to `scoring.count_slices`, the one counter, so a
sweep over every distinct count costs little more than one `score`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Mapping, Optional, Sequence, TextIO, Tuple, Union

from . import cache, records
from . import kb as _kb
from .benchmark import Benchmark
from .kb import KbIndex, is_qid, title_to_qid
from .parsing import PredictedLink, PredictionRecord
from .records import BadLine, read_records
from .scoring import (MatchConfig, ScoreReport, SentenceItems, SliceTags, count_slices,
                      match_items)

INF = math.inf

# The published sweep starts at 20; the full grid is this tool's default.
DEFAULT_THETAS: Tuple[float, ...] = (20, 40, 60, 80, 100, INF)


@dataclass(frozen=True)
class ThresholdSlice:
    theta: Union[int, float]
    report: ScoreReport


def load_counts(path: str) -> Dict[str, int]:
    """Load a counts TSV: qid <TAB> count.  Fails whole, listing bad lines.

    A file that passed every check is kept in the input cache (see `cache`),
    so later loads of the same bytes skip the checks.
    """
    return cache.compiled(path, (__file__, records.__file__, _kb.__file__), ".counts",
                          partial(_parse_counts, path))


def _parse_counts(path: str, handle: TextIO) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    lines_seen: Dict[str, int] = {}

    def check(cells: List[str], lineno: int) -> None:
        if len(cells) != 2:
            raise BadLine(f"expected 2 tab-separated fields, got {len(cells)}")
        qid, raw_count = cells[0].strip(), cells[1].strip()
        if not is_qid(qid):
            raise BadLine(f"invalid qid {qid!r}")
        if not (raw_count.isascii() and raw_count.isdigit()):
            raise BadLine(f"count must be a nonnegative integer, got {raw_count!r}")
        if qid in lines_seen:
            raise BadLine(f"duplicate qid {qid} (first seen on line {lines_seen[qid]})")
        try:
            counts[qid] = int(raw_count)
        except ValueError:  # past sys.get_int_max_str_digits(), 4300 by default
            raise BadLine("count has too many digits") from None
        lines_seen[qid] = lineno

    read_records(path, check, tsv=True, handle=handle)
    return counts


def theta_value(theta: Union[int, float]) -> Union[int, str]:
    """θ as the CSV rows, the JSON and the manifest give it: its integer, or "inf"."""
    return "inf" if theta == INF else theta


def slice_label(theta: Union[int, float]) -> str:
    return f"θ≤{'∞' if theta == INF else theta}"


def _thresholds(thetas: Sequence[Union[float, str]]) -> Tuple[List[Union[int, float]], bool]:
    """The validated thresholds asked for, and whether "all" was among them.
    A blank token is named by its place in the --thetas value it came from."""
    try:
        shown = [str(theta) for theta in thetas]
    except ValueError:  # an int past sys.get_int_max_str_digits(): no label could show it
        raise ValueError("invalid theta: too many digits") from None
    blank = [n for n, theta in enumerate(thetas, 1) if isinstance(theta, str) and not theta.strip()]
    if len(blank) == len(thetas):
        raise ValueError("empty theta list")
    if blank:
        raise ValueError(f"empty item {blank[0]} in theta list {','.join(shown)!r}")
    values: List[Union[int, float]] = []
    every_count = False
    for theta, text in zip(thetas, shown):
        if isinstance(theta, str):
            token = theta.strip().lower()
            if token == "all":  # every distinct count of the run: its full curve
                every_count = True
                continue
            if token in ("inf", "∞"):
                values.append(INF)
                continue
            if token.isascii() and token.isdigit():
                try:
                    value = int(token)
                except ValueError:  # past sys.get_int_max_str_digits(), 4300 by default
                    raise ValueError(f"invalid theta {theta!r}: too many digits") from None
                if value >= 1:
                    values.append(value)
                    continue
        elif isinstance(theta, bool):
            pass  # True is not the threshold 1
        elif theta == INF:
            values.append(INF)
            continue
        # A finite θ stays the int it is: no float holds every integer.
        elif theta >= 1 and theta == int(theta):
            values.append(int(theta))
            continue
        raise ValueError(f"invalid theta {text!r}: expected a positive integer or inf")
    return values, every_count


def stratify(gold: Benchmark,
             preds: Sequence[PredictionRecord],
             cfg: MatchConfig,
             kb: Optional[KbIndex],
             pop: Mapping[str, int],
             thetas: Sequence[Union[float, str]] = DEFAULT_THETAS,
             strict: bool = True,
             system_id: str = "system") -> List[ThresholdSlice]:
    """One score report per threshold θ, ascending, from a single scoring pass.

    The slice at θ scores the gold mentions and predictions whose entity has
    at most θ statements; pop maps a qid to its count.  A θ is a positive
    integer or inf, as a number or as the CLI's token ("20", "inf", "∞");
    the token "all" stands for every distinct count of at least 1 among the
    run's entities, plus inf.

    A gold mention's entity is its gold QID.  A prediction's entity is its
    attached QID, else its title resolved through the mapping (redirects
    followed: this is resolution, not the scorer's exact-title match).  A
    prediction that resolves to no entity stays in every slice, since it must
    still cost precision, and so do NIL gold mentions, which the NIL policy
    handles.  Matching is `scoring.match_items`'.

    Each item is tagged once with the first slice that keeps it, and
    `scoring.count_slices` counts every slice in the one pass, so the cost
    hardly grows with the number of thresholds.

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
    missing_gold = {qid for qid in gold_qids if qid not in pop}
    missing_pred = {qid for qid in pred_qids if qid not in pop}
    if strict and (missing_gold or missing_pred):
        sample = sorted(missing_gold | missing_pred)
        raise ValueError(f"{len(sample)} entity(ies) lack popularity counts: " + ", ".join(sample))

    counts = {qid: pop.get(qid, INF) for qid in gold_qids | pred_qids}
    if every_count:
        values.extend(count for count in set(counts.values()) if 1 <= count < INF)
        values.append(INF)
    ordered = sorted(set(values))
    labels = []
    for theta in ordered:
        try:
            labels.append(slice_label(theta))
        except ValueError:  # a count past sys.get_int_max_str_digits(): no label could show it
            qid = min(qid for qid, count in counts.items() if count == theta)
            raise ValueError(f"popularity count of {qid} has too many digits") from None
    # An entity's items are kept from its tag on.  An entity without a count
    # sits at +inf, so only an infinite slice keeps it (past the last slice:
    # none does); an item with no entity is tagged 0 and kept by every slice.
    tags: Dict[Optional[str], int] = {qid: bisect_left(ordered, count)
                                      for qid, count in counts.items()}
    tags[None] = 0

    def link_tags(links: List[PredictedLink]) -> List[int]:
        return [tags[link.qid if link.qid is not None else title_qids.get(link.title)]
                for link in links]

    def tag(items: SentenceItems) -> SliceTags:
        return ([tags[mention.qid] for mention in items.gold], link_tags(items.preds),
                link_tags(items.discarded))

    reports = count_slices(match_items(gold, preds, cfg, kb), tag, labels, system_id)
    missing = {"popularity_missing_gold": len(missing_gold),
               "popularity_missing_preds": len(missing_pred)}
    for report in reports:
        report.tallies.update((key, n) for key, n in missing.items() if n)
    return [ThresholdSlice(theta=theta, report=report) for theta, report in zip(ordered, reports)]


STRATIFY_CSV_FIELDS = ("system", "theta", "precision", "recall", "f1")


def stratify_csv_rows(slices: Sequence[ThresholdSlice]) -> List[List[str]]:
    """Plot-ready rows: percentages at one decimal, thresholds ascending."""
    return [[item.report.system_id, *map(str, (theta_value(item.theta), item.report.precision_pct(),
                                               item.report.recall_pct(), item.report.f1_pct()))]
            for item in slices]
