"""Gold benchmark loading, validation, and statistics.

Record formats: JSONL (one sentence per line, with optional character
offsets) and a flat TSV export (one mention per row).  NIL mentions are
kept in the data model; excluding them is the scorer's job.  A benchmark
that passed every check is kept in the input cache (see `cache`), so later
loads of the same bytes skip the decoding and the checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, NamedTuple, Optional, TextIO, Tuple

from . import cache, kb, records
from .kb import is_qid
from .records import BadLine, encode_json, read_records

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


@dataclass(slots=True)
class BenchmarkSentence:
    sentence_id: str
    text: str
    mentions: Tuple[GoldMention, ...] = ()


@dataclass(frozen=True)
class Benchmark:
    sentences: Tuple[BenchmarkSentence, ...] = ()


@dataclass(frozen=True)
class StatsSummary:
    sentences: int
    tokens: int
    unique_qids: int
    types: int
    nil_mentions: int
    total_mentions: int


# A sentence as the loaders give it and the input cache stores it (marshal
# takes no NamedTuple): its id, its text and its mentions' GoldMention fields.
_Row = Tuple[str, str, Tuple[tuple, ...]]


def _check_mention(fields: Dict[str, object], text: str) -> tuple:
    """The GoldMention fields of the mention given; BadLine with what is
    wrong with them."""
    surface = fields.get("surface")
    qid = fields.get("qid")
    entity_type = fields.get("type", "")
    if not isinstance(surface, str) or not surface.strip():
        raise BadLine("mention surface must be a non-empty string")
    if not isinstance(qid, str) or (qid != NIL and not is_qid(qid)):
        raise BadLine(f"qid must be {NIL!r} or match Q[0-9]+, got {qid!r}")
    if not isinstance(entity_type, str):
        raise BadLine("type must be a string")
    start = fields.get("start")
    end = fields.get("end")
    if (start is None) != (end is None):
        raise BadLine("start and end must be given together")
    if start is not None:
        # type(), not isinstance(): JSON true/false are ints to isinstance.
        if type(start) is not int or type(end) is not int:
            raise BadLine("start/end must be integers")
        if not (0 <= start < end <= len(text)):
            raise BadLine(f"offsets [{start},{end}) out of range for sentence of length {len(text)}")
        if text[start:end] != surface:
            raise BadLine(f"text slice {text[start:end]!r} does not equal surface {surface!r}")
    return surface, qid, entity_type, start, end


def _load_jsonl(path: str, handle: TextIO) -> List[_Row]:
    seen_ids: Dict[str, int] = {}

    def check(record: Dict[str, object], lineno: int) -> _Row:
        sentence_id = record.get("id")
        text = record.get("text")
        raw_mentions = record.get("mentions", [])
        if not isinstance(sentence_id, str) or not sentence_id:
            raise BadLine("id must be a non-empty string")
        if sentence_id in seen_ids:
            raise BadLine(f"duplicate id {sentence_id!r} (first seen on line {seen_ids[sentence_id]})")
        if not isinstance(text, str) or not text.strip():
            raise BadLine("text must be non-empty")
        if not isinstance(raw_mentions, list):
            raise BadLine("mentions must be a list")
        mentions: List[tuple] = []
        problems: List[str] = []
        for i, fields in enumerate(raw_mentions):
            if not isinstance(fields, dict):
                problems.append(f"mention {i} must be a JSON object")
                continue
            try:
                mentions.append(_check_mention(fields, text))
            except BadLine as bad:
                problems.append(f"mention {i}: {bad}")
        if problems:
            raise BadLine(*problems)
        seen_ids[sentence_id] = lineno
        return sentence_id, text, tuple(mentions)

    return read_records(path, check, handle=handle)


def _load_tsv(path: str, handle: TextIO) -> List[_Row]:
    """TSV rows: sentence_id <TAB> text <TAB> surface <TAB> qid <TAB> type.

    Rows for one sentence must be consecutive; a row with surface, qid and
    type all empty declares a sentence without mentions.
    """
    sentences: List[_Row] = []
    finished: Dict[str, int] = {}
    current_id: Optional[str] = None
    current_text = ""
    current_mentions: List[tuple] = []

    def flush() -> None:
        if current_id is not None:
            sentences.append((current_id, current_text, tuple(current_mentions)))

    def check(parts: List[str], lineno: int) -> None:
        nonlocal current_id, current_text, current_mentions
        if len(parts) != 5:
            raise BadLine(f"expected 5 tab-separated fields, got {len(parts)}")
        sentence_id, text, surface, qid, entity_type = parts
        if not sentence_id:
            raise BadLine("empty sentence_id")
        if not text.strip():
            raise BadLine("text must be non-empty")
        if sentence_id != current_id:
            if sentence_id in finished:
                raise BadLine(f"rows for sentence {sentence_id!r} are not consecutive "
                              f"(first group ended before line {finished[sentence_id]})")
            flush()
            if current_id is not None:
                finished[current_id] = lineno
            current_id = sentence_id
            current_text = text
            current_mentions = []
        elif text != current_text:
            raise BadLine(f"text differs from earlier rows of sentence {sentence_id!r}")
        if surface or qid or entity_type:  # else a mention-less sentence marker
            current_mentions.append(
                _check_mention({"surface": surface, "qid": qid, "type": entity_type}, text))

    read_records(path, check, tsv=True, handle=handle)
    flush()
    return sentences


def load_benchmark(path: str, format: str = "jsonl") -> Benchmark:
    """Load and validate a benchmark file.

    Any malformed record fails the whole load, listing every offending line;
    a partial benchmark would silently skew metrics.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown benchmark format {format!r}; expected one of {FORMATS}")
    rows = cache.compiled(path, (__file__, records.__file__, kb.__file__), ".benchmark",
                          partial(_load_jsonl if format == "jsonl" else _load_tsv, path), format)
    mention = partial(tuple.__new__, GoldMention)
    return Benchmark(tuple(BenchmarkSentence(sentence_id, text, tuple(map(mention, mentions)))
                           for sentence_id, text, mentions in rows))


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
