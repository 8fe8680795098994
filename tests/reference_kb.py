"""The straightforward mapping loader: the test oracle for `kb.load_mapping`.

`load_mapping` builds its index in one pass and normalizes with an ASCII
fast path.  This module keeps the plain definitions it replaced: NFC on
either side of every normalization, a redirect cell normalized even when
empty, and every row checked twice, once with line numbers here and once
more by `MappingIndex`.  The tests require both to give the same titles,
records and errors.
"""

from __future__ import annotations

import unicodedata
from typing import Dict, List

from elbench.kb import KbRecord, MappingIndex, is_qid


def reference_normalize_title(raw: str) -> str:
    text = unicodedata.normalize("NFC", raw)
    text = text.replace("_", " ")
    text = " ".join(text.split())
    if text:
        text = text[0].upper() + text[1:]
    return unicodedata.normalize("NFC", text)


def reference_load_mapping(path: str) -> MappingIndex:
    errors: List[str] = []
    records: List[KbRecord] = []
    title_lines: Dict[str, int] = {}
    pageid_lines: Dict[int, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = [cell.strip() for cell in line.split("\t")]
            if len(parts) not in (3, 4):
                errors.append(f"line {lineno}: expected 3 or 4 tab-separated fields, got {len(parts)}")
                continue
            raw_page_id, raw_title, raw_qid = parts[0], parts[1], parts[2]
            raw_redirect = parts[3] if len(parts) == 4 else ""
            if not (raw_page_id.isascii() and raw_page_id.isdigit()) or int(raw_page_id) < 1:
                errors.append(f"line {lineno}: page_id must be a positive integer, got {raw_page_id!r}")
                continue
            page_id = int(raw_page_id)
            title = reference_normalize_title(raw_title)
            if not title:
                errors.append(f"line {lineno}: empty title")
                continue
            qid = raw_qid or None
            if qid is not None and not is_qid(qid):
                errors.append(f"line {lineno}: invalid qid {raw_qid!r}")
                continue
            redirect_to = reference_normalize_title(raw_redirect) or None
            if redirect_to == title:
                errors.append(f"line {lineno}: redirect_to equals the record's own title")
                continue
            if title in title_lines:
                errors.append(f"line {lineno}: duplicate title {title!r} (first seen on line {title_lines[title]})")
                continue
            if page_id in pageid_lines:
                errors.append(f"line {lineno}: duplicate page_id {page_id} (first seen on line {pageid_lines[page_id]})")
                continue
            title_lines[title] = lineno
            pageid_lines[page_id] = lineno
            records.append(KbRecord(page_id=page_id, canonical_title=title, qid=qid, redirect_to=redirect_to))
    if errors:
        raise ValueError(f"{path}: {len(errors)} malformed row(s):\n" + "\n".join(errors))
    return MappingIndex(records)
