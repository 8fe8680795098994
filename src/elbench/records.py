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


class BadLine(ValueError):
    """Rejects the line a check is given: read_records lists each of its
    arguments, a problem, as "line N: <problem>", in order."""


def read_records(path: str, check: Callable[[Any, int], Optional[T]], tsv: bool = False,
                 handle: Optional[TextIO] = None, lone_surrogates: bool = False) -> List[T]:
    """The records check(value, lineno) keeps from the non-blank lines.

    A JSON Lines value must be an object; a TSV value is the line's cells.
    check returns the record to keep, or None to keep nothing, and rejects
    the line by raising BadLine with its problems; this is the one place a
    problem is labelled with its line.  Any other exception from check
    propagates as it is.  Any bad line fails the whole file once it is read,
    with one ValueError listing every problem.  Lines end at "\n" alone (a
    CRLF ending loses its "\r").  handle, opened so, is read (and closed) in
    place of opening path when given.  A file that is not UTF-8 fails with
    not_utf8(path).  A JSON string holding a lone surrogate (a "\\ud83d"
    escape without its pair), which no UTF-8 file can hold, rejects its
    line unless lone_surrogates is set.
    """
    kept: List[T] = []
    errors: List[str] = []
    try:
        with handle or open(path, "r", encoding="utf-8", newline="\n") as lines:
            for lineno, line in enumerate(lines, 1):
                if not line.strip():
                    continue
                try:
                    if tsv:
                        value: Any = line.rstrip("\n").removesuffix("\r").split("\t")
                    else:
                        # Nesting deeper than the decoder's recursion limit
                        # raises RecursionError, and an integer past
                        # sys.get_int_max_str_digits() a plain ValueError.
                        try:
                            value = json.loads(line)
                        except (ValueError, RecursionError) as exc:
                            raise BadLine(f"invalid JSON: {exc}") from None
                        if not isinstance(value, dict):
                            raise BadLine("record must be a JSON object")
                        # Only a \u escape gives a surrogate; finding "\\" first is a fast memchr.
                        if not lone_surrogates and "\\" in line and "\\u" in line:
                            try:
                                encode_json(value).encode("utf-8")
                            except UnicodeEncodeError as exc:
                                raise BadLine(f"lone surrogate {exc.object[exc.start]!r}: "
                                              "not encodable as UTF-8") from None
                    record = check(value, lineno)
                except BadLine as bad:
                    errors.extend(f"line {lineno}: {problem}" for problem in bad.args)
                    continue
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
