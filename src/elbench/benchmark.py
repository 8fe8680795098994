"""Gold benchmark loading, validation, and statistics.

Record formats: JSONL (one sentence per line, with optional character
offsets) and a flat TSV export (one mention per row).  NIL mentions are
kept in the data model; excluding them is the scorer's job.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Tuple

from .kb import is_qid
from .records import encode_json, read_records

NIL = "NIL"

FORMATS = ("jsonl", "tsv")


class GoldMention(NamedTuple):
    """One annotated mention: surface span, QID (or NIL), free-text type.

    char_start/char_end are 0-based, end-exclusive offsets into the sentence;
    both absent when the source format carries only the surface string.
    """

    surface: str
    qid: str
    entity_type: str = ""
    char_start: Optional[int] = None
    char_end: Optional[int] = None

    @property
    def is_nil(self) -> bool:
        return self.qid == NIL


@dataclass(frozen=True)
class BenchmarkSentence:
    sentence_id: str
    text: str
    mentions: Tuple[GoldMention, ...] = ()


@dataclass(frozen=True)
class Benchmark:
    name: str
    sentences: Tuple[BenchmarkSentence, ...] = ()


@dataclass(frozen=True)
class StatsSummary:
    sentences: int
    tokens: int
    unique_qids: int
    types: int
    nil_mentions: int
    total_mentions: int


def _check_mention(fields: Dict[str, object], text: str, where: str, errors: List[str]) -> Optional[GoldMention]:
    surface = fields.get("surface")
    qid = fields.get("qid")
    entity_type = fields.get("type", "")
    if not isinstance(surface, str) or not surface.strip():
        errors.append(f"{where}: mention surface must be a non-empty string")
        return None
    if not isinstance(qid, str) or (qid != NIL and not is_qid(qid)):
        errors.append(f"{where}: qid must be {NIL!r} or match Q[0-9]+, got {qid!r}")
        return None
    if not isinstance(entity_type, str):
        errors.append(f"{where}: type must be a string")
        return None
    start = fields.get("start")
    end = fields.get("end")
    if (start is None) != (end is None):
        errors.append(f"{where}: start and end must be given together")
        return None
    if start is not None:
        # type(), not isinstance(): JSON true/false are ints to isinstance.
        if type(start) is not int or type(end) is not int:
            errors.append(f"{where}: start/end must be integers")
            return None
        if not (0 <= start < end <= len(text)):
            errors.append(f"{where}: offsets [{start},{end}) out of range for sentence of length {len(text)}")
            return None
        if text[start:end] != surface:
            errors.append(f"{where}: text slice {text[start:end]!r} does not equal surface {surface!r}")
            return None
    return GoldMention(surface, qid, entity_type, start, end)


def _load_jsonl(path: str) -> List[BenchmarkSentence]:
    seen_ids: Dict[str, int] = {}

    def check(record: Dict[str, object], lineno: int, errors: List[str]) -> Optional[BenchmarkSentence]:
        sentence_id = record.get("id")
        text = record.get("text")
        raw_mentions = record.get("mentions", [])
        if not isinstance(sentence_id, str) or not sentence_id:
            errors.append(f"line {lineno}: id must be a non-empty string")
            return None
        if sentence_id in seen_ids:
            errors.append(f"line {lineno}: duplicate id {sentence_id!r} (first seen on line {seen_ids[sentence_id]})")
            return None
        if not isinstance(text, str) or not text.strip():
            errors.append(f"line {lineno}: text must be non-empty")
            return None
        if not isinstance(raw_mentions, list):
            errors.append(f"line {lineno}: mentions must be a list")
            return None
        mentions: List[GoldMention] = []
        ok = True
        for i, fields in enumerate(raw_mentions):
            if not isinstance(fields, dict):
                errors.append(f"line {lineno}: mention {i} must be a JSON object")
                ok = False
                continue
            mention = _check_mention(fields, text, f"line {lineno}: mention {i}", errors)
            if mention is None:
                ok = False
            else:
                mentions.append(mention)
        if not ok:
            return None
        seen_ids[sentence_id] = lineno
        return BenchmarkSentence(sentence_id=sentence_id, text=text, mentions=tuple(mentions))

    return read_records(path, check)


def _load_tsv(path: str) -> List[BenchmarkSentence]:
    """TSV rows: sentence_id <TAB> text <TAB> surface <TAB> qid <TAB> type.

    Rows for one sentence must be consecutive; a row with surface, qid and
    type all empty declares a sentence without mentions.
    """
    sentences: List[BenchmarkSentence] = []
    finished: Dict[str, int] = {}
    current_id: Optional[str] = None
    current_text = ""
    current_mentions: List[GoldMention] = []

    def flush() -> None:
        if current_id is not None:
            sentences.append(BenchmarkSentence(sentence_id=current_id, text=current_text,
                                               mentions=tuple(current_mentions)))

    def check(parts: List[str], lineno: int, errors: List[str]) -> None:
        nonlocal current_id, current_text, current_mentions
        if len(parts) != 5:
            errors.append(f"line {lineno}: expected 5 tab-separated fields, got {len(parts)}")
            return
        sentence_id, text, surface, qid, entity_type = parts
        if not sentence_id:
            errors.append(f"line {lineno}: empty sentence_id")
            return
        if not text.strip():
            errors.append(f"line {lineno}: text must be non-empty")
            return
        if sentence_id != current_id:
            if sentence_id in finished:
                errors.append(f"line {lineno}: rows for sentence {sentence_id!r} are not consecutive "
                              f"(first group ended before line {finished[sentence_id]})")
                return
            flush()
            if current_id is not None:
                finished[current_id] = lineno
            current_id = sentence_id
            current_text = text
            current_mentions = []
        elif text != current_text:
            errors.append(f"line {lineno}: text differs from earlier rows of sentence {sentence_id!r}")
            return
        if not surface and not qid and not entity_type:
            return  # mention-less sentence marker
        mention = _check_mention({"surface": surface, "qid": qid, "type": entity_type},
                                 text, f"line {lineno}", errors)
        if mention is not None:
            current_mentions.append(mention)

    read_records(path, check, tsv=True)
    flush()
    return sentences


def load_benchmark(path: str, format: str = "jsonl", name: Optional[str] = None) -> Benchmark:
    """Load and validate a benchmark file.

    Any malformed record fails the whole load, listing every offending line;
    a partial benchmark would silently skew metrics.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown benchmark format {format!r}; expected one of {FORMATS}")
    sentences = _load_jsonl(path) if format == "jsonl" else _load_tsv(path)
    if name is None:
        name = os.path.splitext(os.path.basename(path))[0]
    return Benchmark(name=name, sentences=tuple(sentences))


def save_benchmark(benchmark: Benchmark, path: str, format: str = "jsonl") -> None:
    """Write a benchmark back out.  The TSV export is flat: offsets are dropped.

    A TSV export checks every cell before path is opened: a tab or a line
    break inside a cell fails it with no file written, so no truncated file
    replaces what was there.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown benchmark format {format!r}; expected one of {FORMATS}")
    rows = []
    if format == "tsv":
        for sentence in benchmark.sentences:
            # A sentence with no mention is one row with empty mention cells.
            for mention in sentence.mentions or (GoldMention("", ""),):
                row = (sentence.sentence_id, sentence.text, mention.surface, mention.qid,
                       mention.entity_type)
                if any(char in cell for cell in row for char in "\t\n\r"):
                    raise ValueError(f"sentence {sentence.sentence_id!r}: "
                                     "tabs/newlines are not representable in tsv")
                rows.append("\t".join(row) + "\n")
    with open(path, "w", encoding="utf-8") as handle:
        if format == "tsv":
            handle.writelines(rows)
            return
        for sentence in benchmark.sentences:
            mentions = []
            for m in sentence.mentions:
                fields: Dict[str, object] = {"surface": m.surface, "qid": m.qid, "type": m.entity_type}
                if m.char_start is not None:
                    fields["start"] = m.char_start
                    fields["end"] = m.char_end
                mentions.append(fields)
            record = {"id": sentence.sentence_id, "text": sentence.text, "mentions": mentions}
            handle.write(encode_json(record) + "\n")


def benchmark_stats(benchmark: Benchmark) -> StatsSummary:
    """Summary statistics: whitespace token count, distinct non-NIL QIDs/types."""
    qids = set()
    types = set()
    nil_mentions = 0
    total_mentions = 0
    tokens = 0
    for sentence in benchmark.sentences:
        tokens += len(sentence.text.split())
        for mention in sentence.mentions:
            total_mentions += 1
            if mention.is_nil:
                nil_mentions += 1
                continue
            qids.add(mention.qid)
            if mention.entity_type:
                types.add(mention.entity_type)
    return StatsSummary(sentences=len(benchmark.sentences), tokens=tokens,
                        unique_qids=len(qids), types=len(types),
                        nil_mentions=nil_mentions, total_mentions=total_mentions)
