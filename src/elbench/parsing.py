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
from typing import Dict, Iterator, List, Optional, Tuple

from .kb import is_qid
from .records import encode_json, read_records

ORIGIN_CLEAN = "parsed-clean"
ORIGIN_REPAIRED = "parsed-repaired"

STATUS_CLEAN = "clean"
STATUS_REPAIRED = "repaired"
STATUS_UNPARSEABLE = "unparseable"

STATUSES = (STATUS_CLEAN, STATUS_REPAIRED, STATUS_UNPARSEABLE)


@dataclass(frozen=True)
class PredictedLink:
    """One predicted link.  qid/resolution are attached by a resolve step."""

    surface: str
    title: Optional[str]
    origin: str = ORIGIN_CLEAN
    qid: Optional[str] = None
    resolution: Optional[str] = None


@dataclass(frozen=True)
class ParseOutcome:
    links: Tuple[PredictedLink, ...]
    status: str
    diagnostics: Tuple[str, ...] = ()


@dataclass(frozen=True)
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


def _extract_links(value: object, origin: str, diagnostics: List[str]) -> Optional[List[PredictedLink]]:
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
            merged[key] = val
    if not found_map:
        return None
    return [PredictedLink(surface=k, title=v, origin=origin) for k, v in merged.items()]


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
        try:
            value = json.loads(candidate)
        except json.JSONDecodeError:
            continue
        break
    else:
        return ParseOutcome(links=(), status=STATUS_UNPARSEABLE, diagnostics=("unrecoverable-json",))

    diagnostics = [f"repair:{name}" for name in rungs]
    repaired = bool(rungs)
    if isinstance(value, dict):
        diagnostics.append("repair:wrapped-bare-object")
        repaired = True
    origin = ORIGIN_REPAIRED if repaired else ORIGIN_CLEAN
    links = _extract_links(value, origin, diagnostics)
    if links is None:
        diagnostics.append("no-entities-map")
        return ParseOutcome(links=(), status=STATUS_UNPARSEABLE, diagnostics=tuple(diagnostics))
    status = STATUS_REPAIRED if repaired else STATUS_CLEAN
    return ParseOutcome(links=tuple(links), status=status, diagnostics=tuple(diagnostics))


def canonical_serialization(links: Tuple[PredictedLink, ...]) -> str:
    """Contract-shaped rendering; parsing it back yields the same links, clean."""
    return json.dumps([{"Entities": {link.surface: link.title for link in links}}],
                      ensure_ascii=False, separators=(",", ":"))


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
    """Load interchange records; fails whole on malformed lines, listing them."""
    return read_records(path, _check_record)


def _check_record(row: Dict[str, object], lineno: int, errors: List[str]) -> Optional[PredictionRecord]:
    sentence_id = row.get("sentence_id")
    status = row.get("status")
    raw_links = row.get("links", [])
    error = row.get("error")
    if not isinstance(sentence_id, str) or not sentence_id:
        errors.append(f"line {lineno}: sentence_id must be a non-empty string")
        return None
    if status not in STATUSES:
        errors.append(f"line {lineno}: status must be one of {STATUSES}, got {status!r}")
        return None
    if not isinstance(raw_links, list):
        errors.append(f"line {lineno}: links must be a list")
        return None
    if error is not None and not isinstance(error, str):
        errors.append(f"line {lineno}: error must be a string")
        return None
    if status == STATUS_UNPARSEABLE and raw_links:
        errors.append(f"line {lineno}: unparseable records cannot carry links")
        return None
    origin = ORIGIN_REPAIRED if status == STATUS_REPAIRED else ORIGIN_CLEAN
    links: List[PredictedLink] = []
    ok = True
    for i, fields in enumerate(raw_links):
        if not isinstance(fields, dict):
            errors.append(f"line {lineno}: link {i} must be a JSON object")
            ok = False
            continue
        surface = fields.get("surface")
        title = fields.get("title")
        qid = fields.get("qid")
        resolution = fields.get("resolution")
        if not isinstance(surface, str) or not surface.strip():
            errors.append(f"line {lineno}: link {i}: surface must be a non-empty string")
            ok = False
            continue
        if title is not None and not isinstance(title, str):
            errors.append(f"line {lineno}: link {i}: title must be a string or null")
            ok = False
            continue
        if qid is not None and (not isinstance(qid, str) or not is_qid(qid)):
            errors.append(f"line {lineno}: link {i}: invalid qid {qid!r}")
            ok = False
            continue
        if resolution is not None and not isinstance(resolution, str):
            errors.append(f"line {lineno}: link {i}: resolution must be a string or null")
            ok = False
            continue
        links.append(PredictedLink(surface=surface, title=title, origin=origin,
                                   qid=qid, resolution=resolution))
    if not ok:
        return None
    return PredictionRecord(sentence_id=sentence_id, links=tuple(links), status=status, error=error)
