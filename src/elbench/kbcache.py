"""The KB index cache: a mapping's answers compiled once into a SQLite file.

An entry holds answers, not records: every redirect chain, tombstone and
preference among titles sharing a QID was settled when it was built from
the full index.  Its name hashes the mapping's bytes together with the
source of this module and of `kb` and the Unicode version, so a change to
the loader, the normalization or the schema makes every older entry
unreachable.  Entries are written under a temporary name and moved into
place, and never changed after, so readers open them without locks.  Every
failure here is a miss: `kb.load_mapping` then answers from the answers it
compiles from the parsed file, as on a mapping's first load.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import unicodedata
from typing import Dict, Iterable, List, Optional, Tuple
from urllib.parse import quote

from . import kb

# Each table maps a key k to its answer v: meta holds the mapping's row
# count and source path; title maps a normalized title to its QID, page a
# page ID (as text, which holds any size) to its QID, and qid a QID to its
# preferred title.  A key with no answer has no row.
_SCHEMA = "".join(f"CREATE TABLE {table} (k TEXT PRIMARY KEY, v TEXT NOT NULL) WITHOUT ROWID;"
                  for table in ("meta", "title", "page", "qid"))

# Keys bound per query: SQLite's smallest default limit on parameters.
_KEYS_PER_QUERY = 999


def cache_dir() -> str:
    """$XDG_CACHE_HOME/elbench, else ~/.cache/elbench."""
    home = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(home, "elbench")


def entry_path(data: bytes) -> Optional[str]:
    """The entry for a mapping's bytes; None when the loader's source is unreadable.

    The Unicode version is part of the name because normalized titles depend
    on it, and one cache directory serves every Python of a user.
    """
    digest = hashlib.sha256(unicodedata.unidata_version.encode())
    try:
        for source in (kb.__file__, __file__):
            with open(source, "rb") as handle:
                digest.update(handle.read())
    except OSError:
        return None
    digest.update(data)
    return os.path.join(cache_dir(), digest.hexdigest() + ".sqlite")


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
    """Store a mapping's row count and `kb.MappingIndex.answers` as entry, then
    drop older entries of source and entries of mapping files that are gone.

    Best-effort: on any failure the cache is left without the entry.
    """
    import tempfile

    directory = os.path.dirname(entry)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        os.close(fd)
    except OSError:
        return
    try:
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
        os.replace(tmp, entry)
    except (sqlite3.Error, OSError):
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return
    _drop_older_entries(entry, source)


def _drop_older_entries(entry: str, source: str) -> None:
    """Remove every other entry built from the mapping file at source, and
    every entry whose mapping file is gone."""
    directory = os.path.dirname(entry)
    try:
        names = os.listdir(directory)
    except OSError:
        return
    for name in names:
        other = os.path.join(directory, name)
        if not name.endswith(".sqlite") or other == entry:
            continue
        try:
            con = _connect_read_only(other)
            try:
                row = con.execute("SELECT v FROM meta WHERE k = 'source'").fetchone()
            finally:
                con.close()
            if row is not None and (row[0] == source or not os.path.exists(row[0])):
                os.unlink(other)
        except (sqlite3.Error, OSError):
            continue
