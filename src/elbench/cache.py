"""The input cache: what a command compiles from an input file, kept in the
user cache for later commands on the same bytes.

An entry's name hashes the input's bytes together with the source of every
module whose code decides what is stored (this one included), the Unicode
and marshal versions and the interpreter's limit on integer digits, so a
change to any of them makes every older entry unreachable.  Entries are
written under a temporary name and moved into place, and never changed
after, so readers open them without locks.
Every failure here is a miss: the caller then loads the input itself, as
on its first load.  `kbcache` stores a mapping's answers in SQLite; any
other value is compiled, stored with `marshal` and read back by `compiled`.
"""

from __future__ import annotations

import hashlib
import io
import marshal
import os
import sys
import unicodedata
from typing import Any, Callable, Iterable, Optional, TextIO, Tuple

_DIGEST = hashlib.sha256().digest_size


def cache_dir() -> str:
    """$XDG_CACHE_HOME/elbench, else ~/.cache/elbench."""
    home = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(home, "elbench")


def entry_path(data: bytes, sources: Iterable[str], suffix: str, detail: str = ""
               ) -> Optional[str]:
    """The entry of an input's bytes as read, with detail (such as its format),
    by the code in the source files; None when one of them is unreadable."""
    # The digit limit decides whether a JSON line with a long integer loads;
    # a Python without one (before 3.10.7) has none, which 0 also means.
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    digest = hashlib.sha256(f"{suffix}\0{detail}\0{unicodedata.unidata_version}\0"
                            f"{marshal.version}\0{digits}\0".encode())
    try:
        for source in (*sources, __file__):
            with open(source, "rb") as handle:
                digest.update(handle.read())
    except OSError:
        return None
    digest.update(data)
    return os.path.join(cache_dir(), digest.hexdigest() + suffix)


def publish(entry: str, source: str, fill: Callable[[str], None],
            source_of: Callable[[str], str], *errors: type) -> None:
    """Make entry, built from the input file at source, with fill(tmp), which
    writes it under a temporary name, then drop every other entry with its
    suffix that source_of(entry) says was built from source, or from a file
    that is gone.  Best-effort: an OSError, or one of errors, leaves the
    cache without the entry, or the other entry in place.
    """
    import tempfile

    directory, suffix = os.path.dirname(entry), os.path.splitext(entry)[1]
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        os.close(fd)
    except OSError:
        return
    try:
        fill(tmp)
        os.replace(tmp, entry)
        names = os.listdir(directory)
    except (OSError, *errors):
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return
    for name in names:
        other = os.path.join(directory, name)
        if not name.endswith(suffix) or other == entry:
            continue
        try:
            built_from = source_of(other)
            if built_from == source or not os.path.exists(built_from):
                os.unlink(other)
        except (OSError, *errors):
            continue


# A marshal entry: the SHA-256 of the rest, then the marshalled pair of the
# input file's path and the value.
def load(entry: str) -> Optional[Tuple[str, Any]]:
    """The input file's path and the value stored as entry; None if the entry
    is missing or damaged."""
    try:
        with open(entry, "rb") as handle:
            blob = memoryview(handle.read())
        if hashlib.sha256(blob[_DIGEST:]).digest() != blob[:_DIGEST]:
            return None
        return marshal.loads(blob[_DIGEST:])
    except (OSError, EOFError, ValueError, TypeError):
        return None


def compiled(path: str, sources: Iterable[str], suffix: str, build: Callable[[TextIO], Any],
             detail: str = "") -> Any:
    """What build(handle) compiles from the input file at path, handle reading
    the file's text (UTF-8, lines ending at "\n" alone): the value stored
    for these bytes, sources and detail (see `entry_path`) on a hit, else
    build's, stored for later loads, best-effort (as `publish`).  build must
    raise on an input it rejects, so that no entry is stored for it, and
    return a value `marshal` takes."""
    with open(path, "rb") as handle:
        data = handle.read()
    entry = entry_path(data, sources, suffix, detail)
    stored = load(entry) if entry else None
    if stored is not None:
        return stored[1]
    # Build from the very bytes the entry's name was hashed from.
    value = build(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n"))
    if entry:
        source = os.path.abspath(path)
        body = marshal.dumps((source, value))

        def fill(tmp: str) -> None:
            with open(tmp, "wb") as handle:
                handle.write(hashlib.sha256(body).digest() + body)

        publish(entry, source, fill, _source_of)
    return value


def _source_of(entry: str) -> str:
    stored = load(entry)
    return stored[0] if stored else ""
