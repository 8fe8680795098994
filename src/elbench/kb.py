"""Wikipedia title / page-ID to Wikidata QID resolution.

Resolution reads a KILT-style mapping dump (TSV) into an immutable index.
A command that knows which keys it will look up asks `load_mapping` for
just those; they are answered from the mapping's answers, compiled into a
SQLite file in the user cache (see `kbcache`) once, by the first such load.
"""

from __future__ import annotations

import io
import os
import re
import unicodedata
from typing import Collection, Dict, Iterable, List, NamedTuple, Optional, TextIO, Tuple, Union

from . import cache, records
from .records import BadLine, read_records

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

    def qid_for_title(self, title: str) -> Optional[str]:
        """The QID of a raw title, redirects followed."""
        return _resolve_record(self, self.by_title.get(normalize_title(title)))

    def qid_for_page(self, page_id: int) -> Optional[str]:
        return _resolve_record(self, self.by_page_id.get(page_id))

    def answers(self) -> Tuple[Dict[str, str], Dict[int, str], Dict[str, str]]:
        """Every answer that is not a miss: each canonical title's and each page
        ID's QID, redirects followed, and each QID's preferred title."""
        by_title: Dict[str, str] = {}
        by_page: Dict[int, str] = {}
        for rec in self.by_title.values():
            qid = _resolve_record(self, rec)
            if qid is not None:
                by_title[rec.canonical_title] = qid
                by_page[rec.page_id] = qid
        return by_title, by_page, {qid: entry[0] for qid, entry in self._title_by_qid.items()}


class KeyedIndex:
    """A full index's answers for the keys a command declared, and no others.

    Titles are the raw titles declared, each resolved after normalization
    with redirects followed, as `title_to_qid` does.  Looking up a
    key that was not declared raises KeyError rather than passing for a miss.
    """

    def __init__(self, rows: int, qid_by_title: Dict[str, Optional[str]],
                 qid_by_page: Dict[int, Optional[str]], title_by_qid: Dict[str, Optional[str]]):
        self.rows = rows
        self._qid_by_title = qid_by_title
        self._qid_by_page = qid_by_page
        self._title_by_qid = title_by_qid

    def __len__(self) -> int:
        """Rows of the whole mapping, not keys held."""
        return self.rows

    def qid_for_title(self, title: str) -> Optional[str]:
        return self._qid_by_title[title]

    def qid_for_page(self, page_id: int) -> Optional[str]:
        return self._qid_by_page[page_id]

    def title_for_qid(self, qid: str) -> Optional[str]:
        return self._title_by_qid[qid]


KbIndex = Union[MappingIndex, KeyedIndex]


def load_mapping(path: str, titles: Optional[Collection[str]] = None,
                 page_ids: Optional[Collection[int]] = None,
                 qids: Optional[Collection[str]] = None) -> KbIndex:
    """Load a mapping TSV: page_id <TAB> title <TAB> qid [<TAB> redirect_to].

    qid and redirect_to may be empty.  The whole load fails on any malformed
    or duplicate row, listing every offending line.

    With no keys this returns the full index.  Given keys (raw titles as
    they will be passed to `title_to_qid`, page IDs, QIDs; a kind left out
    counts as none), it returns a KeyedIndex that answers exactly those from
    the mapping's compiled answers: its cache entry's, else those of the file
    parsed as above, then written as a new entry, best-effort (without
    sqlite3, every keyed load compiles the answers of the whole mapping).
    """
    if titles is None and page_ids is None and qids is None:
        return _parse_mapping(path, open(path, "r", encoding="utf-8", newline="\n"))
    normalized = {title: normalize_title(title) for title in titles or ()}
    page_ids, qids = page_ids or (), qids or ()
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        from . import kbcache
    except ImportError:  # a Python built without sqlite3
        kbcache = None
    entry = (cache.entry_path(data, (__file__, records.__file__, kbcache.__file__), ".sqlite")
             if kbcache else None)
    found = kbcache.read(entry, set(normalized.values()), page_ids, qids) if entry else None
    if found is None:
        # Parse the very bytes the entry's name was hashed from.
        idx = _parse_mapping(path, io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n"))
        found = (len(idx), *idx.answers())
        if entry:
            kbcache.write(entry, os.path.abspath(path), *found)
    rows, by_title, by_page, by_qid = found
    return KeyedIndex(rows, {title: by_title.get(key) for title, key in normalized.items()},
                      {page_id: by_page.get(page_id) for page_id in page_ids},
                      {qid: by_qid.get(qid) for qid in qids})


def _parse_mapping(path: str, handle: TextIO) -> MappingIndex:
    """Check and index every row in the one pass that reads it; closes handle."""
    idx = MappingIndex()
    title_lines: Dict[str, int] = {}
    pageid_lines: Dict[int, int] = {}

    def check(parts: List[str], lineno: int) -> None:
        if len(parts) not in (3, 4):
            raise BadLine(f"expected 3 or 4 tab-separated fields, got {len(parts)}")
        raw_page_id = parts[0].strip()
        raw_qid = parts[2].strip()
        raw_redirect = parts[3].strip() if len(parts) == 4 else ""
        try:
            page_id = int(raw_page_id) if raw_page_id.isascii() and raw_page_id.isdigit() else 0
        except ValueError:  # past sys.get_int_max_str_digits(), 4300 by default
            raise BadLine("page_id has too many digits") from None
        if page_id < 1:
            raise BadLine(f"page_id must be a positive integer, got {raw_page_id!r}")
        title = normalize_title(parts[1])  # which strips the cell as well
        if not title:
            raise BadLine("empty title")
        qid = raw_qid or None
        if qid is not None and not is_qid(qid):
            raise BadLine(f"invalid qid {raw_qid!r}")
        redirect_to = (normalize_title(raw_redirect) or None) if raw_redirect else None
        if redirect_to == title:
            raise BadLine("redirect_to equals the record's own title")
        if title in title_lines:
            raise BadLine(f"duplicate title {title!r} (first seen on line {title_lines[title]})")
        if page_id in pageid_lines:
            raise BadLine(f"duplicate page_id {page_id} (first seen on line {pageid_lines[page_id]})")
        title_lines[title] = lineno
        pageid_lines[page_id] = lineno
        idx._add(KbRecord(page_id, title, qid, redirect_to))

    read_records(path, check, tsv=True, handle=handle)
    return idx


def _resolve_record(idx: MappingIndex, rec: Optional[KbRecord]) -> Optional[str]:
    seen = set()
    depth = 0
    while rec is not None:
        if rec.qid:
            return rec.qid
        if not rec.redirect_to:
            return None
        if rec.canonical_title in seen or depth >= REDIRECT_DEPTH:
            return None
        seen.add(rec.canonical_title)
        depth += 1
        rec = idx.by_title.get(rec.redirect_to)
    return None


def title_to_qid(idx: KbIndex, title: str) -> Optional[str]:
    """Resolve a raw title to a QID, walking redirects up to REDIRECT_DEPTH.

    Returns None for unknown titles, tombstones, over-long chains and cycles.
    """
    return idx.qid_for_title(title)

