"""Tolerant extraction of (mention, Wikipedia title) pairs from model output.

Models rarely emit the contracted JSON exactly; the repair ladder here is
fixed and ordered, and every recovered pair must already occur verbatim in
the raw text (repair never fabricates links).  Unrecoverable output yields
an empty outcome so the sentence's gold entities score as false negatives.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterator, List, Optional, TextIO, Tuple

from . import cache, kb, records
from .kb import is_qid
from .records import BadLine, encode_json, read_records

STATUS_CLEAN = "clean"
STATUS_REPAIRED = "repaired"
STATUS_UNPARSEABLE = "unparseable"

STATUSES = (STATUS_CLEAN, STATUS_REPAIRED, STATUS_UNPARSEABLE)


@dataclass(slots=True)
class PredictedLink:
    """One predicted link.  qid/resolution are attached by a resolve step."""

    surface: str
    title: Optional[str]
    qid: Optional[str] = None
    resolution: Optional[str] = None


@dataclass(slots=True)
class ParseOutcome:
    links: Tuple[PredictedLink, ...]
    status: str
    diagnostics: Tuple[str, ...] = ()


@dataclass(slots=True)
class PredictionRecord:
    """One sentence's predictions, the interchange record consumed by the scorer."""

    sentence_id: str
    links: Tuple[PredictedLink, ...]
    status: str
    error: Optional[str] = None


def _strip_prose(text: str) -> str:
    """Cut leading/trailing prose down to the outermost bracketed JSON value."""
    starts = [i for i in (text.find("["), text.find("{")) if i != -1]
    ends = [i for i in (text.rfind("]"), text.rfind("}")) if i != -1]
    if not starts or not ends:
        return text
    first, last = min(starts), max(ends)
    if last <= first:
        return text
    return text[first:last + 1]


# A JSON string, kept whole, or a comma with only JSON whitespace before a
# closer, dropped.  An unterminated string runs to the end of the text; a
# lone backslash ending it is left out of the match, and so kept as well.
_STRING_OR_TRAILING_COMMA = re.compile(r'("[^"\\]*(?:\\[\s\S][^"\\]*)*"?)|,(?=[ \t\r\n]*[\]}])')


def _drop_trailing_commas(text: str) -> str:
    """Remove commas that immediately precede a closing bracket (string-aware)."""
    return _STRING_OR_TRAILING_COMMA.sub(r"\1", text)


def _balance_brackets(text: str) -> str:
    """Close unbalanced brackets and drop stray closers (string-aware).

    A closer that matches an enclosing scope first closes any scopes opened
    inside it; this is what turns the common missing-final-brace shape
    [{"Entities":{...}] into [{"Entities":{...}}].
    """
    out: List[str] = []
    stack: List[str] = []
    in_str = False
    escaped = False
    for ch in text:
        if in_str:
            out.append(ch)
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_str = False
            continue
        if ch == '"':
            in_str = True
            out.append(ch)
            continue
        if ch in "[{":
            stack.append("]" if ch == "[" else "}")
            out.append(ch)
            continue
        if ch in "]}":
            if ch in stack:
                while stack and stack[-1] != ch:
                    out.append(stack.pop())
                stack.pop()
                out.append(ch)
            continue
        out.append(ch)
    if in_str:
        out.append('"')
    while stack:
        out.append(stack.pop())
    return "".join(out)


_REPAIRS = (
    ("stripped-prose", _strip_prose),
    ("dropped-trailing-commas", _drop_trailing_commas),
    ("balanced-brackets", _balance_brackets),
)


def _extract_links(value: object, diagnostics: List[str]) -> Optional[List[PredictedLink]]:
    """Collect pairs from every {"Entities": {...}} object, merged in order.

    Duplicate surfaces keep the last title at the first position (plain dict
    update semantics, matching how the JSON parser handles duplicate keys).
    Returns None when no Entities map exists at all.
    """
    items = value if isinstance(value, list) else [value]
    merged: Dict[str, str] = {}
    found_map = False
    for item in items:
        if not isinstance(item, dict):
            diagnostics.append("skipped-non-object-item")
            continue
        if "Entities" not in item:
            diagnostics.append("skipped-object-without-entities")
            continue
        entities = item["Entities"]
        if not isinstance(entities, dict):
            diagnostics.append("skipped-non-map-entities")
            continue
        found_map = True
        for key, val in entities.items():
            if not isinstance(key, str) or not isinstance(val, str):
                diagnostics.append(f"skipped-non-string-pair: {key!r}")
                continue
            if not key.strip() or not val.strip():
                diagnostics.append(f"skipped-empty-pair: {key!r}")
                continue
            # A lone surrogate, such as half of a \ud83d\ude00 escape cut off
            # by the token limit, cannot be written out as UTF-8.
            try:
                key.encode("utf-8"), val.encode("utf-8")
            except UnicodeEncodeError:
                diagnostics.append(f"skipped-unencodable-pair: {key!r}")
                continue
            merged[key] = val
    if not found_map:
        return None
    return [PredictedLink(surface=k, title=v) for k, v in merged.items()]


def _candidates(raw: str) -> Iterator[Tuple[str, Tuple[str, ...]]]:
    """raw, then each rung's text that differs from the one before, with the
    rungs applied so far.  A generator, so a rung runs only when the caller
    asks past the text before it."""
    yield raw, ()
    text = raw
    applied: List[str] = []
    for name, repair in _REPAIRS:
        new = repair(text)
        if new != text:
            applied.append(name)
            text = new
            yield text, tuple(applied)


def parse_predictions(raw: str) -> ParseOutcome:
    """Parse model output into links; never raises.

    Repair ladder, applied cumulatively, one rung at a time and only while
    the text fails to parse as JSON: strip surrounding prose, drop trailing
    commas, balance brackets.  A bare object is accepted in place of the
    one-element array.  If nothing parses, or the parsed value holds no
    "Entities" map, the outcome is unparseable with no links.
    """
    for candidate, rungs in _candidates(raw):
        # A JSONDecodeError is a ValueError, as is the error for an integer
        # past sys.get_int_max_str_digits().
        try:
            value = json.loads(candidate)
        except (ValueError, RecursionError):
            continue
        break
    else:
        return ParseOutcome(links=(), status=STATUS_UNPARSEABLE, diagnostics=("unrecoverable-json",))

    diagnostics = [f"repair:{name}" for name in rungs]
    repaired = bool(rungs)
    if isinstance(value, dict):
        diagnostics.append("repair:wrapped-bare-object")
        repaired = True
    links = _extract_links(value, diagnostics)
    if links is None:
        diagnostics.append("no-entities-map")
        return ParseOutcome(links=(), status=STATUS_UNPARSEABLE, diagnostics=tuple(diagnostics))
    status = STATUS_REPAIRED if repaired else STATUS_CLEAN
    return ParseOutcome(links=tuple(links), status=status, diagnostics=tuple(diagnostics))


def save_predictions(records: List[PredictionRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            links = []
            for link in record.links:
                fields: Dict[str, object] = {"surface": link.surface, "title": link.title}
                if link.qid is not None:
                    fields["qid"] = link.qid
                if link.resolution is not None:
                    fields["resolution"] = link.resolution
                links.append(fields)
            row: Dict[str, object] = {"sentence_id": record.sentence_id, "links": links,
                                      "status": record.status}
            if record.error is not None:
                row["error"] = record.error
            handle.write(encode_json(row) + "\n")


def load_predictions(path: str) -> List[PredictionRecord]:
    """Load interchange records; fails whole on malformed lines, listing them.
    A sentence_id appears at most once.  A file that passed every check is
    kept in the input cache (see `cache`), so later loads of the same bytes
    skip the decoding and the checks."""
    rows = cache.compiled(path, (__file__, records.__file__, kb.__file__), ".predictions",
                          partial(_parse_records, path))
    return [PredictionRecord(sentence_id, tuple(PredictedLink(*link) for link in links),
                             status, error)
            for sentence_id, links, status, error in rows]


# A record as the loader gives it and the input cache stores it (marshal
# takes no dataclass): its sentence_id, its links' PredictedLink fields,
# its status and its error.
_Row = Tuple[str, Tuple[tuple, ...], str, Optional[str]]


def _parse_records(path: str, handle: TextIO) -> List[_Row]:
    first_lines: Dict[str, int] = {}

    def check(row: Dict[str, object], lineno: int) -> _Row:
        record = _check_record(row)
        first = first_lines.setdefault(record[0], lineno)
        if first != lineno:
            raise BadLine(f"duplicate sentence_id {record[0]!r} (first seen on line {first})")
        return record

    return read_records(path, check, handle=handle)


def _check_record(row: Dict[str, object]) -> _Row:
    sentence_id = row.get("sentence_id")
    status = row.get("status")
    raw_links = row.get("links", [])
    error = row.get("error")
    if not isinstance(sentence_id, str) or not sentence_id:
        raise BadLine("sentence_id must be a non-empty string")
    if status not in STATUSES:
        raise BadLine(f"status must be one of {STATUSES}, got {status!r}")
    if not isinstance(raw_links, list):
        raise BadLine("links must be a list")
    if error is not None and not isinstance(error, str):
        raise BadLine("error must be a string")
    if status == STATUS_UNPARSEABLE and raw_links:
        raise BadLine("unparseable records cannot carry links")
    links: List[tuple] = []
    problems: List[str] = []
    for i, fields in enumerate(raw_links):
        if not isinstance(fields, dict):
            problems.append(f"link {i} must be a JSON object")
            continue
        surface = fields.get("surface")
        title = fields.get("title")
        qid = fields.get("qid")
        resolution = fields.get("resolution")
        if not isinstance(surface, str) or not surface.strip():
            problems.append(f"link {i}: surface must be a non-empty string")
        elif title is not None and not isinstance(title, str):
            problems.append(f"link {i}: title must be a string or null")
        elif qid is not None and (not isinstance(qid, str) or not is_qid(qid)):
            problems.append(f"link {i}: invalid qid {qid!r}")
        elif resolution is not None and not isinstance(resolution, str):
            problems.append(f"link {i}: resolution must be a string or null")
        else:
            links.append((surface, title, qid, resolution))
    if problems:
        raise BadLine(*problems)
    return sentence_id, tuple(links), status, error
