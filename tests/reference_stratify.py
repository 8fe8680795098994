"""The filter-and-rescore definition of θ-stratification, kept as a test oracle.

For each threshold θ this builds a benchmark holding only the gold mentions
whose entity has at most θ statements (NIL mentions always stay) and a
prediction list holding only the links whose resolved entity has at most θ
statements (links that resolve to no entity always stay), then rescores them
with `reference_scoring.reference_score`, not with `scoring.score`, which
runs the very counter `popularity.stratify` does.  `stratify` computes every
slice in one pass and must agree with this, field for field and error for
error.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from reference_scoring import reference_score

from elbench.benchmark import Benchmark, BenchmarkSentence
from elbench.kb import MappingIndex, title_to_qid
from elbench.parsing import PredictedLink, PredictionRecord
from elbench.popularity import DEFAULT_THETAS, INF, ThresholdSlice, slice_label
from elbench.scoring import MatchConfig


def _link_qid(link: PredictedLink, kb: Optional[MappingIndex]) -> Optional[str]:
    # Popularity of a predicted entity: attached qid first, else resolve the
    # title through the mapping (redirects followed; this is resolution, not
    # the scorer's exact-title match).
    if link.qid is not None:
        return link.qid
    if kb is not None and link.title is not None and link.title.strip():
        return title_to_qid(kb, link.title)
    return None


def reference_stratify(gold: Benchmark,
                       preds: Sequence[PredictionRecord],
                       cfg: MatchConfig,
                       kb: Optional[MappingIndex],
                       pop: Dict[str, int],
                       thetas: Sequence[float] = DEFAULT_THETAS,
                       strict: bool = True,
                       system_id: str = "system") -> List[ThresholdSlice]:
    """Score one θ-filtered instance per threshold, ascending.

    strict mode requires a count for every gold QID and every resolvable
    predicted entity; lenient mode treats missing counts as +∞ (excluded
    from every finite slice) and tallies them on each slice report.
    """
    if not thetas:
        raise ValueError("empty theta list")
    ordered: List[Union[int, float]] = []
    for theta in thetas:
        if math.isinf(theta):
            ordered.append(INF)
            continue
        if theta != int(theta) or theta < 1:
            raise ValueError(f"theta must be a positive integer or inf, got {theta!r}")
        ordered.append(int(theta))
    ordered = sorted(set(ordered))

    missing_gold = set()
    for sentence in gold.sentences:
        for mention in sentence.mentions:
            if not mention.is_nil and mention.qid not in pop:
                missing_gold.add(mention.qid)
    resolved: Dict[Tuple[str, int], Optional[str]] = {}
    missing_pred = set()
    for record in preds:
        for i, link in enumerate(record.links):
            qid = _link_qid(link, kb)
            resolved[(record.sentence_id, i)] = qid
            if qid is not None and qid not in pop:
                missing_pred.add(qid)
    if strict and (missing_gold or missing_pred):
        sample = sorted(missing_gold | missing_pred)
        raise ValueError(f"{len(sample)} entity(ies) lack popularity counts: " + ", ".join(sample))

    def count_of(qid: str) -> float:
        value = pop.get(qid)
        return INF if value is None else value

    slices: List[ThresholdSlice] = []
    for theta in ordered:
        filtered_sentences: List[BenchmarkSentence] = []
        for sentence in gold.sentences:
            kept = tuple(m for m in sentence.mentions
                         if m.is_nil or count_of(m.qid) <= theta)
            filtered_sentences.append(replace(sentence, mentions=kept))
        filtered_gold = Benchmark(sentences=tuple(filtered_sentences))
        filtered_preds: List[PredictionRecord] = []
        for record in preds:
            kept_links = tuple(
                link for i, link in enumerate(record.links)
                if resolved[(record.sentence_id, i)] is None
                or count_of(resolved[(record.sentence_id, i)]) <= theta)
            filtered_preds.append(replace(record, links=kept_links))
        report = reference_score(filtered_gold, filtered_preds, cfg, kb,
                                 system_id=system_id, slice_id=slice_label(theta))
        if missing_gold:
            report.tallies["popularity_missing_gold"] = len(missing_gold)
        if missing_pred:
            report.tallies["popularity_missing_preds"] = len(missing_pred)
        slices.append(ThresholdSlice(theta=theta, report=report))
    return slices
