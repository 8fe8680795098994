"""The per-format loaders that `elbench.records.read_records` replaced.

Each format used to read its file with its own loop: skip blank lines,
decode JSON or split cells, collect errors, raise.  This module keeps those
loops as they were, as test oracles: `tests/test_records.py` requires the
loaders built on the shared reader to return the same records, or raise
the same error text, on random files.  The mapping's loader is kept in
`tests/reference_kb.py`.  The checks of a mention, a predictions record
and an external row are copied too, as they were when each still appended
its own "line N: " errors, so no oracle runs the checks it tests; only the
external rows' resolution, which reads no file, is called.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple, Union

from elbench.baseline import (RESOLUTION_GIVEN_QID, RESOLUTION_NOT_FOUND, RESOLUTION_PAGE_ID,
                              RESOLUTION_TITLE, ExternalPrediction, _resolve)
from elbench.benchmark import NIL, Benchmark, BenchmarkSentence, GoldMention
from elbench.kb import KbIndex, is_qid
from elbench.parsing import (STATUS_CLEAN, STATUS_UNPARSEABLE, STATUSES, PredictedLink,
                             PredictionRecord)


def _check_mention(fields: Dict[str, object], text: str) -> Union[GoldMention, str]:
    """The mention the fields give, or what is wrong with them."""
    surface = fields.get("surface")
    qid = fields.get("qid")
    entity_type = fields.get("type", "")
    if not isinstance(surface, str) or not surface.strip():
        return "mention surface must be a non-empty string"
    if not isinstance(qid, str) or (qid != NIL and not is_qid(qid)):
        return f"qid must be {NIL!r} or match Q[0-9]+, got {qid!r}"
    if not isinstance(entity_type, str):
        return "type must be a string"
    start = fields.get("start")
    end = fields.get("end")
    if (start is None) != (end is None):
        return "start and end must be given together"
    if start is not None:
        if type(start) is not int or type(end) is not int:
            return "start/end must be integers"
        if not (0 <= start < end <= len(text)):
            return f"offsets [{start},{end}) out of range for sentence of length {len(text)}"
        if text[start:end] != surface:
            return f"text slice {text[start:end]!r} does not equal surface {surface!r}"
    return GoldMention(surface, qid, entity_type, start, end)


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
        links.append(PredictedLink(surface=surface, title=title, qid=qid, resolution=resolution))
    if not ok:
        return None
    return PredictionRecord(sentence_id=sentence_id, links=tuple(links), status=status, error=error)


def _check_row(raw: Dict[str, object], lineno: int, errors: List[str]) -> Optional[ExternalPrediction]:
    sentence_id = raw.get("sentence_id")
    surface = raw.get("surface")
    page_id = raw.get("page_id")
    title = raw.get("title")
    qid = raw.get("qid")
    if not isinstance(sentence_id, str) or not sentence_id:
        errors.append(f"line {lineno}: sentence_id must be a non-empty string")
        return None
    if not isinstance(surface, str) or not surface.strip():
        errors.append(f"line {lineno}: surface must be a non-empty string")
        return None
    if page_id is not None and (type(page_id) is not int or page_id < 1):
        errors.append(f"line {lineno}: page_id must be a positive integer, got {page_id!r}")
        return None
    if title is not None and (not isinstance(title, str) or not title.strip()):
        errors.append(f"line {lineno}: title must be a non-empty string when present")
        return None
    if qid is not None and (not isinstance(qid, str) or not is_qid(qid)):
        errors.append(f"line {lineno}: invalid qid {qid!r}")
        return None
    if page_id is None and title is None and qid is None:
        errors.append(f"line {lineno}: at least one of page_id, title, qid must be present")
        return None
    return ExternalPrediction(sentence_id=sentence_id, surface=surface,
                              page_id=page_id, title=title, qid=qid)


def _load_jsonl(path: str, errors: List[str]) -> List[BenchmarkSentence]:
    sentences: List[BenchmarkSentence] = []
    seen_ids: Dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {lineno}: invalid JSON: {exc}")
                continue
            if not isinstance(record, dict):
                errors.append(f"line {lineno}: record must be a JSON object")
                continue
            sentence_id = record.get("id")
            text = record.get("text")
            raw_mentions = record.get("mentions", [])
            if not isinstance(sentence_id, str) or not sentence_id:
                errors.append(f"line {lineno}: id must be a non-empty string")
                continue
            if sentence_id in seen_ids:
                errors.append(f"line {lineno}: duplicate id {sentence_id!r} (first seen on line {seen_ids[sentence_id]})")
                continue
            if not isinstance(text, str) or not text.strip():
                errors.append(f"line {lineno}: text must be non-empty")
                continue
            if not isinstance(raw_mentions, list):
                errors.append(f"line {lineno}: mentions must be a list")
                continue
            mentions: List[GoldMention] = []
            ok = True
            for i, fields in enumerate(raw_mentions):
                if not isinstance(fields, dict):
                    errors.append(f"line {lineno}: mention {i} must be a JSON object")
                    ok = False
                    continue
                mention = _check_mention(fields, text)
                if isinstance(mention, str):
                    errors.append(f"line {lineno}: mention {i}: {mention}")
                    ok = False
                else:
                    mentions.append(mention)
            if not ok:
                continue
            seen_ids[sentence_id] = lineno
            sentences.append(BenchmarkSentence(sentence_id=sentence_id, text=text, mentions=tuple(mentions)))
    return sentences


def _load_tsv(path: str, errors: List[str]) -> List[BenchmarkSentence]:
    sentences: List[BenchmarkSentence] = []
    finished: Dict[str, int] = {}
    current_id: Optional[str] = None
    current_text = ""
    current_mentions: List[GoldMention] = []

    def flush() -> None:
        if current_id is not None:
            sentences.append(BenchmarkSentence(sentence_id=current_id, text=current_text,
                                               mentions=tuple(current_mentions)))

    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 5:
                errors.append(f"line {lineno}: expected 5 tab-separated fields, got {len(parts)}")
                continue
            sentence_id, text, surface, qid, entity_type = parts
            if not sentence_id:
                errors.append(f"line {lineno}: empty sentence_id")
                continue
            if not text.strip():
                errors.append(f"line {lineno}: text must be non-empty")
                continue
            if sentence_id != current_id:
                if sentence_id in finished:
                    errors.append(f"line {lineno}: rows for sentence {sentence_id!r} are not consecutive "
                                  f"(first group ended before line {finished[sentence_id]})")
                    continue
                flush()
                if current_id is not None:
                    finished[current_id] = lineno
                current_id = sentence_id
                current_text = text
                current_mentions = []
            elif text != current_text:
                errors.append(f"line {lineno}: text differs from earlier rows of sentence {sentence_id!r}")
                continue
            if not surface and not qid and not entity_type:
                continue  # mention-less sentence marker
            mention = _check_mention({"surface": surface, "qid": qid, "type": entity_type}, text)
            if isinstance(mention, str):
                errors.append(f"line {lineno}: {mention}")
            else:
                current_mentions.append(mention)
    flush()
    return sentences


def reference_load_benchmark(path: str, format: str = "jsonl") -> Benchmark:
    errors: List[str] = []
    if format == "jsonl":
        sentences = _load_jsonl(path, errors)
    else:
        sentences = _load_tsv(path, errors)
    if errors:
        raise ValueError(f"{path}: {len(errors)} malformed record(s):\n" + "\n".join(errors))
    return Benchmark(sentences=tuple(sentences))


def reference_load_counts(path: str) -> Dict[str, int]:
    errors: List[str] = []
    counts: Dict[str, int] = {}
    lines_seen: Dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = [cell.strip() for cell in line.split("\t")]
            if len(parts) != 2:
                errors.append(f"line {lineno}: expected 2 tab-separated fields, got {len(parts)}")
                continue
            qid, raw_count = parts
            if not is_qid(qid):
                errors.append(f"line {lineno}: invalid qid {qid!r}")
                continue
            if not (raw_count.isascii() and raw_count.isdigit()):
                errors.append(f"line {lineno}: count must be a nonnegative integer, got {raw_count!r}")
                continue
            if qid in lines_seen:
                errors.append(f"line {lineno}: duplicate qid {qid} (first seen on line {lines_seen[qid]})")
                continue
            lines_seen[qid] = lineno
            counts[qid] = int(raw_count)
    if errors:
        raise ValueError(f"{path}: {len(errors)} malformed row(s):\n" + "\n".join(errors))
    return counts


def reference_load_predictions(path: str) -> List[PredictionRecord]:
    """The old loop, with the rule added since: a sentence_id that a valid
    record already took on an earlier line is an error."""
    errors: List[str] = []
    records: List[PredictionRecord] = []
    seen: Dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {lineno}: invalid JSON: {exc}")
                continue
            if not isinstance(row, dict):
                errors.append(f"line {lineno}: record must be a JSON object")
                continue
            record = _check_record(row, lineno, errors)
            if record is None:
                continue
            if record.sentence_id in seen:
                errors.append(f"line {lineno}: duplicate sentence_id {record.sentence_id!r} "
                              f"(first seen on line {seen[record.sentence_id]})")
                continue
            seen[record.sentence_id] = lineno
            records.append(record)
    if errors:
        raise ValueError(f"{path}: {len(errors)} malformed record(s):\n" + "\n".join(errors))
    return records


def reference_load_external_predictions(path: str, idx: KbIndex
                                        ) -> Tuple[List[PredictionRecord], Dict[str, int]]:
    errors: List[str] = []
    rows: List[ExternalPrediction] = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {lineno}: invalid JSON: {exc}")
                continue
            if not isinstance(raw, dict):
                errors.append(f"line {lineno}: record must be a JSON object")
                continue
            row = _check_row(raw, lineno, errors)
            if row is not None:
                rows.append(row)
    if errors:
        raise ValueError(f"{path}: {len(errors)} malformed record(s):\n" + "\n".join(errors))
    tally = {RESOLUTION_PAGE_ID: 0, RESOLUTION_TITLE: 0,
             RESOLUTION_GIVEN_QID: 0, RESOLUTION_NOT_FOUND: 0}
    grouped: Dict[str, List[PredictedLink]] = {}
    for row in rows:
        qid, resolution = _resolve(row, idx)
        tally[resolution] += 1
        link = PredictedLink(surface=row.surface, title=row.title, qid=qid, resolution=resolution)
        grouped.setdefault(row.sentence_id, []).append(link)
    records = [PredictionRecord(sentence_id=sentence_id, links=tuple(links), status=STATUS_CLEAN)
               for sentence_id, links in grouped.items()]
    return records, tally


def reference_read_completions(path: str, known: set,
                               default_model: str) -> Dict[str, Dict[str, str]]:
    """The completions loop of `elbench record`."""
    errors: List[str] = []
    rows: Dict[str, Dict[str, str]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {lineno}: invalid JSON: {exc}")
                continue
            sentence_id = entry.get("sentence_id") if isinstance(entry, dict) else None
            raw_text = entry.get("raw_text") if isinstance(entry, dict) else None
            if not isinstance(sentence_id, str) or not sentence_id:
                errors.append(f"line {lineno}: sentence_id must be a non-empty string")
                continue
            if not isinstance(raw_text, str):
                errors.append(f"line {lineno}: raw_text must be a string")
                continue
            if sentence_id not in known:
                errors.append(f"line {lineno}: unknown sentence_id {sentence_id!r}")
                continue
            if sentence_id in rows:
                errors.append(f"line {lineno}: duplicate sentence_id {sentence_id!r}")
                continue
            rows[sentence_id] = {"raw_text": raw_text,
                                 "model_id": entry.get("model_id", default_model)}
    if errors:
        raise ValueError(f"{path}: {len(errors)} malformed record(s):\n" + "\n".join(errors))
    return rows


def reference_replay_entries(path: str) -> Dict[str, Dict[str, str]]:
    """`backends.load_fixture`'s entries by digest; fails on the first bad line."""
    by_digest: Dict[str, Dict[str, str]] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
                digest = entry["digest"]
                raw_text = entry["raw_text"]
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed fixture entry: {exc}") from exc
            if not isinstance(digest, str) or not isinstance(raw_text, str):
                raise ValueError(f"{path}:{lineno}: digest and raw_text must be strings")
            by_digest[digest] = entry
    return by_digest
