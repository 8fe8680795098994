"""Wikipedia title / page-ID to Wikidata QID resolution.

Resolution reads a KILT-style mapping dump (TSV) into an immutable index.
"""

from __future__ import annotations

import re
import unicodedata
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

QID_RE = re.compile(r"Q[0-9]+")

# Longest redirect chain the resolver will walk before giving up.
REDIRECT_DEPTH = 4


def is_qid(value: str) -> bool:
    return QID_RE.fullmatch(value) is not None


def normalize_title(raw: str) -> str:
    """Normalize a Wikipedia title for exact-match comparison.

    NFC, underscores to spaces, internal whitespace collapsed to single
    spaces, outer whitespace stripped, first character uppercased (the wiki
    first-letter rule).  Uppercasing the first character can itself produce
    a denormalized sequence (e.g. Greek dialytika-tonos capitals have no
    precomposed form), so NFC is applied once more at the end; without that
    final pass the function would not be idempotent.  NFC is the identity on
    ASCII text, so neither pass runs on it.
    """
    text = raw if raw.isascii() else unicodedata.normalize("NFC", raw)
    text = " ".join(text.replace("_", " ").split())
    if text:
        text = text[0].upper() + text[1:]
    return text if text.isascii() else unicodedata.normalize("NFC", text)


class KbRecord(NamedTuple):
    """One Wikipedia page: page ID, canonical title, optional redirect/QID.

    A record carries a qid, a redirect_to, or neither (a tombstone, which
    resolves to not-found).
    """

    page_id: int
    canonical_title: str
    qid: Optional[str] = None
    redirect_to: Optional[str] = None


class MappingIndex:
    """Title/page-ID lookup table; immutable once built."""

    def __init__(self, records: Iterable[KbRecord] = ()):
        self.by_title: Dict[str, KbRecord] = {}
        self.by_page_id: Dict[int, KbRecord] = {}
        self._title_by_qid: Dict[str, Tuple[str, bool]] = {}
        for rec in records:
            if rec.canonical_title in self.by_title:
                raise ValueError(f"duplicate title: {rec.canonical_title!r}")
            if rec.page_id in self.by_page_id:
                raise ValueError(f"duplicate page_id: {rec.page_id}")
            self._add(rec)

    def _add(self, rec: KbRecord) -> None:
        """Index a record whose title and page ID the caller has checked are new."""
        self.by_title[rec.canonical_title] = rec
        self.by_page_id[rec.page_id] = rec
        if rec.qid:
            # Prefer the non-redirect record when several share a QID.
            is_redirect = rec.redirect_to is not None
            seen = self._title_by_qid.get(rec.qid)
            if seen is None or (seen[1] and not is_redirect):
                self._title_by_qid[rec.qid] = (rec.canonical_title, is_redirect)

    def __len__(self) -> int:
        return len(self.by_title)

    def title_for_qid(self, qid: str) -> Optional[str]:
        entry = self._title_by_qid.get(qid)
        return entry[0] if entry else None


def load_mapping(path: str) -> MappingIndex:
    """Load a mapping TSV: page_id <TAB> title <TAB> qid [<TAB> redirect_to].

    qid and redirect_to may be empty.  The whole load fails on any malformed
    or duplicate row, listing every offending line.  Rows are checked and
    indexed in the one pass that reads them.
    """
    errors: List[str] = []
    idx = MappingIndex()
    title_lines: Dict[str, int] = {}
    pageid_lines: Dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) not in (3, 4):
                errors.append(f"line {lineno}: expected 3 or 4 tab-separated fields, got {len(parts)}")
                continue
            raw_page_id = parts[0].strip()
            raw_qid = parts[2].strip()
            raw_redirect = parts[3].strip() if len(parts) == 4 else ""
            page_id = int(raw_page_id) if raw_page_id.isascii() and raw_page_id.isdigit() else 0
            if page_id < 1:
                errors.append(f"line {lineno}: page_id must be a positive integer, got {raw_page_id!r}")
                continue
            title = normalize_title(parts[1])  # which strips the cell as well
            if not title:
                errors.append(f"line {lineno}: empty title")
                continue
            qid = raw_qid or None
            if qid is not None and not is_qid(qid):
                errors.append(f"line {lineno}: invalid qid {raw_qid!r}")
                continue
            redirect_to = (normalize_title(raw_redirect) or None) if raw_redirect else None
            if redirect_to == title:
                errors.append(f"line {lineno}: redirect_to equals the record's own title")
                continue
            if title in title_lines:
                errors.append(f"line {lineno}: duplicate title {title!r} (first seen on line {title_lines[title]})")
                continue
            if page_id in pageid_lines:
                errors.append(f"line {lineno}: duplicate page_id {page_id} (first seen on line {pageid_lines[page_id]})")
                continue
            title_lines[title] = lineno
            pageid_lines[page_id] = lineno
            idx._add(KbRecord(page_id, title, qid, redirect_to))
    if errors:
        raise ValueError(f"{path}: {len(errors)} malformed row(s):\n" + "\n".join(errors))
    return idx


def _resolve_record(idx: MappingIndex, rec: Optional[KbRecord], follow_redirects: bool) -> Optional[str]:
    seen = set()
    depth = 0
    while rec is not None:
        if rec.qid:
            return rec.qid
        if not follow_redirects or not rec.redirect_to:
            return None
        if rec.canonical_title in seen or depth >= REDIRECT_DEPTH:
            return None
        seen.add(rec.canonical_title)
        depth += 1
        rec = idx.by_title.get(rec.redirect_to)
    return None


def title_to_qid(idx: MappingIndex, title: str, follow_redirects: bool = True) -> Optional[str]:
    """Resolve a raw title to a QID, walking redirects up to REDIRECT_DEPTH.

    Returns None for unknown titles, tombstones, over-long chains and cycles.
    """
    return _resolve_record(idx, idx.by_title.get(normalize_title(title)), follow_redirects)


def qid_to_title(idx: MappingIndex, qid: str) -> Optional[str]:
    return idx.title_for_qid(qid)


def pageid_to_qid(idx: MappingIndex, page_id: int, follow_redirects: bool = True) -> Optional[str]:
    return _resolve_record(idx, idx.by_page_id.get(page_id), follow_redirects)
