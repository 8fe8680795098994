"""The per-identifier counting loop `scoring.score` used to run, kept as a test oracle.

`scoring.score` now counts through `scoring.count_slices`, the counter that
also computes every slice of `popularity.stratify`.  This loop counts one
slice on its own, with a dict of unmatched predictions per sentence, so the
tests that check the shared counter do not run it to build their
expectations.  Matching is `scoring.match_items`', as before.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from elbench.benchmark import Benchmark
from elbench.kb import KbIndex
from elbench.parsing import PredictionRecord
from elbench.scoring import MatchConfig, ScoreReport, SentenceItems, SentenceScore, match_items


def reference_score(gold: Benchmark,
                    preds: Sequence[PredictionRecord],
                    cfg: MatchConfig,
                    kb: Optional[KbIndex] = None,
                    system_id: str = "system",
                    slice_id: str = "all",
                    keep_per_sentence: bool = False) -> ScoreReport:
    """`scoring.score`, counted by its former loop."""
    return reference_count(match_items(gold, preds, cfg, kb), system_id, slice_id,
                           keep_per_sentence)


def reference_count(sentences: Iterable[SentenceItems], system_id: str = "system",
                    slice_id: str = "all", keep_per_sentence: bool = False) -> ScoreReport:
    """The report of `match_items`' sentences, every item counted."""
    tp = fp = fn = 0
    nil_gold_excluded = 0
    gold_title_unresolved = 0
    predictions_discarded_nil = 0
    rows: List[SentenceScore] = []

    for items in sentences:
        # each gold identifier takes one unmatched prediction of it, if any
        unmatched: Dict[Optional[str], int] = {}
        for ident in items.pred_ids:
            unmatched[ident] = unmatched.get(ident, 0) + 1
        unmatched.pop(None, None)
        sent_tp = 0
        for ident in items.gold_ids:
            if unmatched.get(ident):
                unmatched[ident] -= 1
                sent_tp += 1
        unresolved = items.gold_ids.count(None)
        sent_fp = len(items.pred_ids) - sent_tp
        sent_fn = len(items.gold_ids) - unresolved - sent_tp
        tp += sent_tp
        fp += sent_fp
        fn += sent_fn
        nil_gold_excluded += items.nil_gold
        gold_title_unresolved += unresolved
        predictions_discarded_nil += len(items.discarded)
        if keep_per_sentence:
            rows.append(SentenceScore(items.sentence_id, sent_tp, sent_fp, sent_fn))

    tallies = {"nil_gold_excluded": nil_gold_excluded,
               "gold_title_unresolved": gold_title_unresolved,
               "predictions_discarded_nil": predictions_discarded_nil}
    return ScoreReport(system_id, slice_id, tp, fp, fn, tallies,
                       tuple(rows) if keep_per_sentence else None)
