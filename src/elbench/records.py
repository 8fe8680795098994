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
    place of opening path when given.
    """
    kept: List[T] = []
    errors: List[str] = []
    with handle or open(path, "r", encoding="utf-8", newline="\n") as lines:
        for lineno, line in enumerate(lines, 1):
            if not line.strip():
                continue
            if tsv:
                value: Any = line.rstrip("\n").removesuffix("\r").split("\t")
            else:
                try:
                    value = json.loads(line)
                except json.JSONDecodeError as exc:
                    errors.append(f"line {lineno}: invalid JSON: {exc}")
                    continue
                if not isinstance(value, dict):
                    errors.append(f"line {lineno}: record must be a JSON object")
                    continue
            record = check(value, lineno, errors)
            if record is not None:
                kept.append(record)
    if errors:
        noun = "row(s)" if tsv else "record(s)"
        raise ValueError(f"{path}: {len(errors)} malformed {noun}:\n" + "\n".join(errors))
    return kept
