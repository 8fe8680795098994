"""The KB index cache: a mapping's answers compiled once into a SQLite file.

An entry holds answers, not records: every redirect chain, tombstone and
preference among titles sharing a QID was settled when it was built from
the full index.  Where entries live, how they are named, published and
dropped is `cache`'s; this module reads and writes the SQLite file alone.
Every failure here is a miss: `kb.load_mapping` then answers from the
answers it compiles from the parsed file, as on a mapping's first load.
"""

from __future__ import annotations

import os
import sqlite3
from typing import Dict, Iterable, List, Optional, Tuple
from urllib.parse import quote

from . import cache

# Each table maps a key k to its answer v: meta holds the mapping's row
# count and source path; title maps a normalized title to its QID, page a
# page ID (as text, which holds any size) to its QID, and qid a QID to its
# preferred title.  A key with no answer has no row.
_SCHEMA = "".join(f"CREATE TABLE {table} (k TEXT PRIMARY KEY, v TEXT NOT NULL) WITHOUT ROWID;"
                  for table in ("meta", "title", "page", "qid"))

# Keys bound per query: SQLite's smallest default limit on parameters.
_KEYS_PER_QUERY = 999


def _connect_read_only(entry: str) -> sqlite3.Connection:
    return sqlite3.connect(f"file:{quote(entry)}?mode=ro&immutable=1", uri=True)


def _lookup(con: sqlite3.Connection, table: str, keys: List[str]) -> Dict[str, str]:
    """The answers in table for those of keys that have a row."""
    answers: Dict[str, str] = {}
    for start in range(0, len(keys), _KEYS_PER_QUERY):
        chunk = keys[start:start + _KEYS_PER_QUERY]
        answers.update(con.execute(
            f"SELECT k, v FROM {table} WHERE k IN ({','.join('?' * len(chunk))})", chunk))
    return answers


def read(entry: str, titles: Iterable[str], page_ids: Iterable[int], qids: Iterable[str]
         ) -> Optional[Tuple[int, Dict[str, str], Dict[int, str], Dict[str, str]]]:
    """The mapping's row count and the answers for the normalized titles, page
    IDs and QIDs that have one; None if the entry is missing or unreadable."""
    try:
        con = _connect_read_only(entry)
        try:
            # A truncated file is damaged even where the pages a query reads survive.
            size = (con.execute("PRAGMA page_count").fetchone()[0]
                    * con.execute("PRAGMA page_size").fetchone()[0])
            if size != os.path.getsize(entry):
                return None
            rows = int(con.execute("SELECT v FROM meta WHERE k = 'rows'").fetchone()[0])
            by_title = _lookup(con, "title", list(titles))
            by_page = _lookup(con, "page", [str(page_id) for page_id in page_ids])
            by_qid = _lookup(con, "qid", list(qids))
        finally:
            con.close()
    except (sqlite3.Error, OSError, TypeError, ValueError):
        return None
    return rows, by_title, {int(page_id): qid for page_id, qid in by_page.items()}, by_qid


def write(entry: str, source: str, rows: int, by_title: Dict[str, str],
          by_page: Dict[int, str], by_qid: Dict[str, str]) -> None:
    """Store a mapping's row count and `kb.MappingIndex.answers` as entry, the
    entry of the mapping file at source; best-effort, as `cache.publish`."""

    def fill(tmp: str) -> None:
        con = sqlite3.connect(tmp)
        try:
            con.executescript("PRAGMA journal_mode = OFF; PRAGMA synchronous = OFF;" + _SCHEMA)
            with con:
                con.executemany("INSERT INTO meta VALUES (?, ?)",
                                [("rows", str(rows)), ("source", source)])
                # Ascending keys build each table's B-tree by appending.
                con.executemany("INSERT INTO title VALUES (?, ?)", sorted(by_title.items()))
                con.executemany("INSERT INTO page VALUES (?, ?)",
                                sorted((str(page_id), qid) for page_id, qid in by_page.items()))
                con.executemany("INSERT INTO qid VALUES (?, ?)", sorted(by_qid.items()))
        finally:
            con.close()

    cache.publish(entry, source, fill, _source_of, sqlite3.Error)


def _source_of(entry: str) -> str:
    """The mapping file entry was built from; "" when it names none."""
    con = _connect_read_only(entry)
    try:
        row = con.execute("SELECT v FROM meta WHERE k = 'source'").fetchone()
    finally:
        con.close()
    return row[0] if row else ""
