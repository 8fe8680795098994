"""The eager repair ladder that `elbench.parsing.parse_predictions` replaced.

`parse_predictions` used to run every repair rung on every output before it
tried `json.loads` on the raw text, and `_drop_trailing_commas` walked the
text one character at a time.  This module keeps both as they were, as test
oracles: `tests/test_parsing.py` requires the lazy ladder and the one-pattern
comma rung to give equal results on random text.  What did not change is
called, not copied: `_strip_prose`, `_balance_brackets` and `_extract_links`.
"""

from __future__ import annotations

import json
from typing import List, Optional, Tuple

from elbench.parsing import (STATUS_CLEAN, STATUS_REPAIRED, STATUS_UNPARSEABLE, ParseOutcome,
                             _balance_brackets, _extract_links, _strip_prose)


def reference_drop_trailing_commas(text: str) -> str:
    """Remove commas that immediately precede a closing bracket (string-aware)."""
    out: List[str] = []
    in_str = False
    escaped = False
    i = 0
    while i < len(text):
        ch = text[i]
        if in_str:
            out.append(ch)
            if escaped:
                escaped = False
            elif ch == "\\":
                escaped = True
            elif ch == '"':
                in_str = False
            i += 1
            continue
        if ch == '"':
            in_str = True
            out.append(ch)
            i += 1
            continue
        if ch == ",":
            j = i + 1
            while j < len(text) and text[j] in " \t\r\n":
                j += 1
            if j < len(text) and text[j] in "}]":
                i += 1
                continue
        out.append(ch)
        i += 1
    return "".join(out)


_REPAIRS = (
    ("stripped-prose", _strip_prose),
    ("dropped-trailing-commas", reference_drop_trailing_commas),
    ("balanced-brackets", _balance_brackets),
)


def reference_parse_predictions(raw: str) -> ParseOutcome:
    """Every rung applied first, then each distinct text tried in order."""
    attempts: List[Tuple[str, Tuple[str, ...]]] = [(raw, ())]
    text = raw
    applied: List[str] = []
    for name, repair in _REPAIRS:
        new = repair(text)
        if new != text:
            applied.append(name)
            attempts.append((new, tuple(applied)))
            text = new

    value: object = None
    rungs: Optional[Tuple[str, ...]] = None
    for candidate, candidate_rungs in attempts:
        try:
            value = json.loads(candidate)
        except json.JSONDecodeError:
            continue
        rungs = candidate_rungs
        break
    if rungs is None:
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
