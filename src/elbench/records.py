"""The one reader of line-numbered input files, JSON Lines or TSV.

Every input format shares its rules: blank lines are skipped, every bad
line is listed with its number, and one bad line fails the whole file,
since a partial input would silently skew the results.
"""

from __future__ import annotations

import json
from typing import Any, Callable, List, Optional, TextIO, TypeVar

T = TypeVar("T")

# The one encoder of every JSON Lines writer: json.dumps builds a new
# encoder on each call that passes ensure_ascii=False.
encode_json = json.JSONEncoder(ensure_ascii=False).encode


def read_records(path: str, check: Callable[[Any, int, List[str]], Optional[T]],
                 tsv: bool = False, handle: Optional[TextIO] = None) -> List[T]:
    """The records check(value, lineno, errors) keeps from the non-blank lines.

    A JSON Lines value must be an object; a TSV value is the line's cells.
    check appends "line N: ..." to errors to reject a value, and returns the
    record to keep, or None.  Any error fails the whole file once it is
    read, with one ValueError listing them all.  Lines end at "\n" alone (a
    CRLF ending loses its "\r").  handle, opened so, is read (and closed) in
    place of opening path when given.  A file that is not UTF-8 fails with
    not_utf8(path).
    """
    kept: List[T] = []
    errors: List[str] = []
    try:
        with handle or open(path, "r", encoding="utf-8", newline="\n") as lines:
            for lineno, line in enumerate(lines, 1):
                if not line.strip():
                    continue
                if tsv:
                    value: Any = line.rstrip("\n").removesuffix("\r").split("\t")
                else:
                    # Nesting deeper than the decoder's recursion limit
                    # raises RecursionError.
                    try:
                        value = json.loads(line)
                    except (json.JSONDecodeError, RecursionError) as exc:
                        errors.append(f"line {lineno}: invalid JSON: {exc}")
                        continue
                    if not isinstance(value, dict):
                        errors.append(f"line {lineno}: record must be a JSON object")
                        continue
                record = check(value, lineno, errors)
                if record is not None:
                    kept.append(record)
    except UnicodeDecodeError:
        raise not_utf8(path) from None
    if errors:
        noun = "row(s)" if tsv else "record(s)"
        raise ValueError(f"{path}: {len(errors)} malformed {noun}:\n" + "\n".join(errors))
    return kept


def not_utf8(path: str) -> ValueError:
    """The error for a file that failed to decode: "<path>: line N: not
    valid UTF-8" for each line, reread in binary, that does not survive a
    round trip through UTF-8 (the decoder replaces what it cannot read)."""
    with open(path, "rb") as handle:
        bad = [f"{path}: line {lineno}: not valid UTF-8" for lineno, line in enumerate(handle, 1)
               if line.decode("utf-8", "replace").encode("utf-8") != line]
    return ValueError("\n".join(bad))
