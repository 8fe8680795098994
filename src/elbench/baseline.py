"""Adapter for predictions from external EL systems.

External rows carry a Wikipedia page ID, a title, or a QID; each is
resolved to a QID through the mapping index with precedence
page_id > title > given qid.  Unresolvable rows stay in the output with no
QID so they cost precision exactly like a hallucinated title would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from .kb import KbIndex, is_qid, title_to_qid
from .parsing import STATUS_CLEAN, PredictedLink, PredictionRecord
from .records import BadLine, read_records

RESOLUTION_PAGE_ID = "page-id"
RESOLUTION_TITLE = "title"
RESOLUTION_GIVEN_QID = "given-qid"
RESOLUTION_NOT_FOUND = "not-found"


@dataclass(slots=True)
class ExternalPrediction:
    sentence_id: str
    surface: str
    page_id: Optional[int] = None
    title: Optional[str] = None
    qid: Optional[str] = None


def _resolve(row: ExternalPrediction, idx: KbIndex) -> Tuple[Optional[str], str]:
    if row.page_id is not None:
        qid = idx.qid_for_page(row.page_id)
        if qid is not None:
            return qid, RESOLUTION_PAGE_ID
    if row.title is not None:
        qid = title_to_qid(idx, row.title)
        if qid is not None:
            return qid, RESOLUTION_TITLE
    if row.qid is not None:
        return row.qid, RESOLUTION_GIVEN_QID
    return None, RESOLUTION_NOT_FOUND


def load_external_predictions(path: str, idx: Union[KbIndex, Callable[..., KbIndex]]
                              ) -> Tuple[List[PredictionRecord], Dict[str, int]]:
    """Load external rows and attach QIDs.

    idx is a mapping index, or a loader that `load_mapping`'s keyword
    arguments `titles` and `page_ids` turn into one: it is called with the
    titles and the page IDs of the rows once they are checked.
    Returns the grouped prediction records plus a tally keyed by resolution
    path.  Every input row yields exactly one output link (no silent drops);
    the per-link resolution field documents which path resolved it.
    """
    rows = read_records(path, _check_row)
    if callable(idx):
        idx = idx(titles={row.title for row in rows if row.title is not None},
                  page_ids={row.page_id for row in rows if row.page_id is not None})

    tally = {RESOLUTION_PAGE_ID: 0, RESOLUTION_TITLE: 0,
             RESOLUTION_GIVEN_QID: 0, RESOLUTION_NOT_FOUND: 0}
    grouped: Dict[str, List[PredictedLink]] = {}
    for row in rows:
        qid, resolution = _resolve(row, idx)
        tally[resolution] += 1
        link = PredictedLink(surface=row.surface, title=row.title, qid=qid, resolution=resolution)
        grouped.setdefault(row.sentence_id, []).append(link)
    records = [PredictionRecord(sentence_id=sentence_id, links=tuple(links), status=STATUS_CLEAN)
               for sentence_id, links in grouped.items()]
    return records, tally


def _check_row(raw: Dict[str, object], lineno: int) -> ExternalPrediction:
    sentence_id = raw.get("sentence_id")
    surface = raw.get("surface")
    page_id = raw.get("page_id")
    title = raw.get("title")
    qid = raw.get("qid")
    if not isinstance(sentence_id, str) or not sentence_id:
        raise BadLine("sentence_id must be a non-empty string")
    if not isinstance(surface, str) or not surface.strip():
        raise BadLine("surface must be a non-empty string")
    # type(), not isinstance(): JSON true/false are ints to isinstance.
    if page_id is not None and (type(page_id) is not int or page_id < 1):
        raise BadLine(f"page_id must be a positive integer, got {page_id!r}")
    if title is not None and (not isinstance(title, str) or not title.strip()):
        raise BadLine("title must be a non-empty string when present")
    if qid is not None and (not isinstance(qid, str) or not is_qid(qid)):
        raise BadLine(f"invalid qid {qid!r}")
    if page_id is None and title is None and qid is None:
        raise BadLine("at least one of page_id, title, qid must be present")
    return ExternalPrediction(sentence_id=sentence_id, surface=surface,
                              page_id=page_id, title=title, qid=qid)
