"""Seeded synthetic inputs for the elbench benchmark, with the counts they plant.

Every file is a pure function of the workload name and the seed, so one seed
always gives byte-identical inputs.  The generator never calls elbench: the
scores it expects (title mode, qid mode and each θ slice), the QID each link
should resolve to and the parse status of each completion follow from its own
choices, which makes them an independent check on the program's outputs.

Files written into the output directory:

- mapping.tsv      page_id, title, qid or redirect target (70% entities,
                   30% redirects, some chained two deep)
- counts.tsv       Pareto-tailed statement counts for every entity
- benchmark.jsonl  sentences with character-offset mentions (a few NIL)
- completions.jsonl  one raw model output per sentence, for `elbench record`
- external.jsonl   an external system's rows: page IDs, titles, QIDs
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

# The CLI's default `stratify` grid; the benchmark runs stratify without
# --thetas, so a change of the default shows up as a failed check.
THETAS = (20, 40, 60, 80, 100, math.inf)
MODEL_ID = "synthetic-model"
RESOLUTION_TITLE = "title"
RESOLUTION_PAGE_ID = "page-id"
RESOLUTION_GIVEN_QID = "given-qid"
RESOLUTION_NOT_FOUND = "not-found"


@dataclass(frozen=True)
class Size:
    mapping_rows: int
    sentences: int
    mentions: int = 4
    link: str = "replay"  # how `link` gets completions: "replay" or "http"


# Each pipeline pass takes a few seconds on a 2-vCPU machine, so that one run
# holds enough passes for a steady median.  kb_large keeps a mapping 125 times
# its sentence count, so loading the KB dominates every KB command;
# corpus_large keeps one mapping row per sentence, so stratify dominates.
SIZES: Dict[str, Size] = {
    "kb_large": Size(mapping_rows=50_000, sentences=400),
    "corpus_large": Size(mapping_rows=4_000, sentences=4_000),
    "link_http": Size(mapping_rows=4_000, sentences=700, link="http"),
}

REDIRECT_SHARE = 0.30
UNDERSCORE_SHARE = 0.30          # mapping title cells written with underscores
PRED_UNDERSCORE_SHARE = 0.10     # predicted titles written with underscores
NIL_SHARE = 0.03
CHAINED_REDIRECT_SHARE = 0.20    # redirects that point at another redirect
PROSE_SHARE = 0.10               # outputs wrapped in prose (repair: strip prose)
TRAILING_COMMA_SHARE = 0.10      # outputs with a trailing comma (repair: drop it)
UNPARSEABLE_SHARE = 0.02
HTTP_503_SHARE = 0.05            # first attempts the stub answers with 503
PARETO_XM = 10
PARETO_ALPHA = 0.8
PARETO_CAP = 1_000_000

PRED_KINDS = (("exact", 0.55), ("redirect", 0.15), ("wrong", 0.15), ("hallucinated", 0.15))
EXTERNAL_KINDS = (("page", 0.35), ("redirect_page", 0.10), ("title", 0.25), ("qid", 0.15),
                  ("unknown_page_qid", 0.05), ("unknown_page", 0.10))

_SYLLABLES = ("ba", "be", "bi", "bo", "ca", "ce", "ci", "co", "da", "de", "di", "do",
              "fa", "fe", "fi", "ga", "gi", "go", "la", "le", "li", "lo", "ma", "me",
              "mi", "mo", "na", "ne", "ni", "no", "pa", "pe", "pi", "po", "ra", "re",
              "ri", "ro", "sa", "se", "si", "so", "ta", "te", "ti", "to", "va", "ve",
              "vi", "vo", "za", "zo", "rè", "là", "gnò", "sciù")
_KB_QUALIFIERS = ("opera", "composer", "theatre", "singer", "ballet", "city")
_FAKE_QUALIFIERS = ("libretto", "aria", "fresco")
_TYPES = ("PERSON", "WORK_OF_ART", "FACILITY", "ORG", "LOC")
_CONNECTORS = (" met ", " wrote for ", " performed at ", " and ", " praised ", " left ")
_PROSE_HEAD = "Here are the entities I found:\n"
_PROSE_TAIL = "\nLet me know if you need anything else."
_UNPARSEABLE_TEXT = "I could not identify any entities in this sentence."

FILES = ("mapping.tsv", "counts.tsv", "benchmark.jsonl", "completions.jsonl", "external.jsonl")


@dataclass
class Counts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def as_tuple(self) -> Tuple[int, int, int]:
        return (self.tp, self.fp, self.fn)


@dataclass
class Expected:
    """What a correct pipeline must output, derived from the generator's choices."""

    title: Counts = field(default_factory=Counts)
    qid: Counts = field(default_factory=Counts)
    slices: Dict[float, Counts] = field(default_factory=lambda: {t: Counts() for t in THETAS})
    statuses: Dict[str, int] = field(default_factory=lambda: {"clean": 0, "repaired": 0,
                                                               "unparseable": 0})
    # (sentence_id, surface) -> (title as written in the completion, QID it resolves to)
    links: Dict[Tuple[str, str], Tuple[str, Optional[str]]] = field(default_factory=dict)
    # (sentence_id, surface) -> (QID, resolution path) for the external rows
    external: Dict[Tuple[str, str], Tuple[Optional[str], str]] = field(default_factory=dict)
    resolve_tally: Dict[str, int] = field(default_factory=lambda: {RESOLUTION_TITLE: 0,
                                                                    RESOLUTION_NOT_FOUND: 0})
    external_tally: Dict[str, int] = field(default_factory=lambda: {
        RESOLUTION_PAGE_ID: 0, RESOLUTION_TITLE: 0, RESOLUTION_GIVEN_QID: 0,
        RESOLUTION_NOT_FOUND: 0})


@dataclass
class Workload:
    name: str
    seed: int
    size: Size
    directory: str
    expected: Expected
    sentences: List[Tuple[str, str]]     # (sentence_id, text), benchmark order
    completions: Dict[str, str]          # sentence_id -> raw model output
    fail_first: Tuple[str, ...]          # sentence ids whose first HTTP attempt gets 503
    shares: Dict[str, float]

    def path(self, name: str) -> str:
        return os.path.join(self.directory, name)


def _pick(rng: random.Random, weighted) -> str:
    roll = rng.random()
    for name, weight in weighted:
        roll -= weight
        if roll < 0:
            return name
    return weighted[-1][0]


def _word(rng: random.Random) -> str:
    return "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 3))).capitalize()


def _name(rng: random.Random, qualifiers) -> str:
    title = f"{_word(rng)} {_word(rng)}"
    if rng.random() < 0.25:
        title += f" ({rng.choice(qualifiers)})"
    return title


def _fresh(rng: random.Random, taken: set, qualifiers) -> str:
    while True:
        title = _name(rng, qualifiers)
        if title not in taken:
            taken.add(title)
            return title


def _pareto(rng: random.Random) -> int:
    return min(PARETO_CAP, int(PARETO_XM / (1.0 - rng.random()) ** (1.0 / PARETO_ALPHA)))


def generate(name: str, seed: int, directory: str, size: Optional[Size] = None) -> Workload:
    """Write the workload's input files into directory and return what they plant.

    size defaults to the workload's entry in SIZES; tests pass a tiny one.
    """
    size = size or SIZES[name]
    rng = random.Random(f"{name}:{seed}")
    os.makedirs(directory, exist_ok=True)
    expected = Expected()

    def create(name: str):
        return open(os.path.join(directory, name), "w", encoding="utf-8", newline="\n")

    # --- mapping -----------------------------------------------------------
    rows = size.mapping_rows
    n_entities = round(rows * (1 - REDIRECT_SHARE))
    n_redirects = rows - n_entities
    taken: set = set()
    titles = [_fresh(rng, taken, _KB_QUALIFIERS) for _ in range(rows)]
    page_ids = rng.sample(range(1, 2 * rows + 1), rows)
    qids: List[str] = []
    number = 100
    for _ in range(n_entities):
        number += 1 + rng.randrange(3)
        qids.append(f"Q{number}")
    redirect_entity: List[int] = []          # final entity of each redirect
    redirects_of: Dict[int, List[int]] = {}  # entity -> redirect row indexes
    direct: List[int] = []
    redirect_target: List[int] = []          # row index the redirect points at
    for j in range(n_redirects):
        row = n_entities + j
        if direct and rng.random() < CHAINED_REDIRECT_SHARE:
            via = rng.choice(direct)
            redirect_target.append(via)
            entity = redirect_entity[via - n_entities]
        else:
            entity = rng.randrange(n_entities)
            redirect_target.append(entity)
            direct.append(row)
        redirect_entity.append(entity)
        redirects_of.setdefault(entity, []).append(row)

    underscored = 0

    def written(title: str, share: float) -> str:
        nonlocal underscored
        if rng.random() < share:
            underscored += 1
            return title.replace(" ", "_")
        return title

    lines = []
    for row in range(rows):
        if row < n_entities:
            line = f"{page_ids[row]}\t{written(titles[row], UNDERSCORE_SHARE)}\t{qids[row]}\n"
        else:
            target = titles[redirect_target[row - n_entities]]
            line = (f"{page_ids[row]}\t{written(titles[row], UNDERSCORE_SHARE)}\t\t"
                    f"{written(target, UNDERSCORE_SHARE)}\n")
        lines.append((page_ids[row], line))
    lines.sort()
    mapping_underscored = underscored
    title_cells = rows + n_redirects
    with create("mapping.tsv") as out:
        out.writelines(line for _, line in lines)

    # --- popularity counts -------------------------------------------------
    counts = [_pareto(rng) for _ in range(n_entities)]
    with create("counts.tsv") as out:
        out.writelines(f"{qid}\t{count}\n" for qid, count in zip(qids, counts))

    # --- benchmark, completions, external rows -----------------------------
    with_redirects = sorted(redirects_of)
    sentences: List[Tuple[str, str]] = []
    completions: Dict[str, str] = {}
    kind_counts = {kind: 0 for kind, _ in PRED_KINDS}
    nil_mentions = 0
    unknown_page_base = 2 * rows + 1
    with create("benchmark.jsonl") as bench_out, create("completions.jsonl") as comp_out, \
            create("external.jsonl") as ext_out:
        for i in range(size.sentences):
            sid = f"s{i:06d}"
            roll = rng.random()
            if roll < UNPARSEABLE_SHARE:
                shape = "unparseable"
            elif roll < UNPARSEABLE_SHARE + PROSE_SHARE:
                shape = "prose"
            elif roll < UNPARSEABLE_SHARE + PROSE_SHARE + TRAILING_COMMA_SHARE:
                shape = "comma"
            else:
                shape = "clean"
            parsed = shape != "unparseable"
            expected.statuses["clean" if shape == "clean" else
                              "unparseable" if shape == "unparseable" else "repaired"] += 1

            used_entities: set = set()
            surfaces: set = set()
            mentions = []   # (surface, entity or None, kind)
            for _ in range(size.mentions):
                if rng.random() < NIL_SHARE:
                    surface = _fresh(rng, surfaces, _FAKE_QUALIFIERS)
                    mentions.append((surface, None, "nil"))
                    continue
                kind = _pick(rng, PRED_KINDS)
                while True:
                    entity = (rng.choice(with_redirects) if kind == "redirect"
                              else rng.randrange(n_entities))
                    if entity not in used_entities and titles[entity] not in surfaces:
                        break
                used_entities.add(entity)
                surfaces.add(titles[entity])
                mentions.append((titles[entity], entity, kind))

            text_parts: List[str] = []
            offset = 0
            gold = []
            predicted: Dict[str, str] = {}
            for k, (surface, entity, kind) in enumerate(mentions):
                if k:
                    connector = rng.choice(_CONNECTORS)
                    text_parts.append(connector)
                    offset += len(connector)
                text_parts.append(surface)
                gold.append({"surface": surface, "qid": qids[entity] if entity is not None else "NIL",
                             "type": rng.choice(_TYPES), "start": offset,
                             "end": offset + len(surface)})
                offset += len(surface)

                if entity is None:
                    nil_mentions += 1
                    title, resolved = _fresh(rng, taken, _FAKE_QUALIFIERS), None
                else:
                    kind_counts[kind] += 1
                    wrong = None
                    if kind == "exact":
                        title, resolved = titles[entity], qids[entity]
                    elif kind == "redirect":
                        title, resolved = titles[rng.choice(redirects_of[entity])], qids[entity]
                    elif kind == "wrong":
                        while True:
                            wrong = rng.randrange(n_entities)
                            if wrong not in used_entities:
                                break
                        title, resolved = titles[wrong], qids[wrong]
                    else:
                        title, resolved = _fresh(rng, taken, _FAKE_QUALIFIERS), None
                    _plant_scores(expected, kind, parsed, counts[entity],
                                  counts[wrong] if wrong is not None else None)
                    _plant_external(rng, expected, ext_out, sid, surface, entity, qids,
                                    page_ids, redirects_of, titles, unknown_page_base, rows, written)
                if parsed:
                    title = written(title, PRED_UNDERSCORE_SHARE)
                    predicted[surface] = title
                    expected.links[(sid, surface)] = (title, resolved)
                    expected.resolve_tally[RESOLUTION_TITLE if resolved else RESOLUTION_NOT_FOUND] += 1
            text = "".join(text_parts) + "."
            sentences.append((sid, text))
            bench_out.write(json.dumps({"id": sid, "text": text, "mentions": gold},
                                       ensure_ascii=False) + "\n")
            raw = _render(shape, predicted)
            completions[sid] = raw
            comp_out.write(json.dumps({"sentence_id": sid, "raw_text": raw, "model_id": MODEL_ID},
                                      ensure_ascii=False) + "\n")

    fail_first: Tuple[str, ...] = ()
    if size.link == "http":
        fail_first = tuple(sid for sid, _ in sentences if rng.random() < HTTP_503_SHARE)

    total_mentions = size.sentences * size.mentions
    shares = {
        "mapping_rows": rows,
        "sentences": size.sentences,
        "mentions": total_mentions,
        "redirect_rows": n_redirects / rows,
        "underscore_title_cells": mapping_underscored / title_cells,
        "repaired_outputs": expected.statuses["repaired"] / size.sentences,
        "unparseable_outputs": expected.statuses["unparseable"] / size.sentences,
        "nil_mentions": nil_mentions / total_mentions,
        "injected_503": len(fail_first) / size.sentences,
    }
    linked = total_mentions - nil_mentions
    for kind, count in kind_counts.items():
        shares[f"pred_{kind}"] = count / linked if linked else 0.0
    return Workload(name=name, seed=seed, size=size, directory=directory, expected=expected,
                    sentences=sentences, completions=completions, fail_first=fail_first,
                    shares=shares)


def _plant_scores(expected: Expected, kind: str, parsed: bool, gold_count: int,
                  wrong_count: Optional[int]) -> None:
    """Add one gold mention's outcome to every expected score.

    Entities are distinct within a sentence and a wrong entity is never one of
    the sentence's gold entities, so each mention scores on its own.  Title mode
    compares canonical titles without following redirects; qid mode compares the
    QIDs `resolve` attached, which do follow them.  A slice keeps gold of count
    <= θ and predictions of count <= θ or of no entity at all.
    """
    if not parsed:
        expected.title.fn += 1
        expected.qid.fn += 1
        for theta, slice_counts in expected.slices.items():
            slice_counts.fn += gold_count <= theta
        return
    if kind == "exact":
        expected.title.tp += 1
    else:
        expected.title.fp += 1
        expected.title.fn += 1
    if kind in ("exact", "redirect"):
        expected.qid.tp += 1
    else:
        expected.qid.fp += 1
        expected.qid.fn += 1
    for theta, slice_counts in expected.slices.items():
        gold_kept = gold_count <= theta
        if kind == "exact":
            slice_counts.tp += gold_kept
        elif kind == "redirect":
            slice_counts.fp += gold_kept
            slice_counts.fn += gold_kept
        elif kind == "wrong":
            slice_counts.fn += gold_kept
            slice_counts.fp += wrong_count <= theta
        else:
            slice_counts.fn += gold_kept
            slice_counts.fp += 1


def _plant_external(rng, expected, out, sid, surface, entity, qids, page_ids, redirects_of,
                    titles, unknown_page_base, rows, written) -> None:
    kind = _pick(rng, EXTERNAL_KINDS)
    row: Dict[str, object] = {"sentence_id": sid, "surface": surface}
    qid = qids[entity]
    if kind == "page":
        row["page_id"] = page_ids[entity]
        resolution = RESOLUTION_PAGE_ID
    elif kind == "redirect_page":
        via = rng.choice(redirects_of[entity]) if entity in redirects_of else entity
        row["page_id"] = page_ids[via]
        resolution = RESOLUTION_PAGE_ID
    elif kind == "title":
        row["title"] = written(titles[entity], UNDERSCORE_SHARE)
        resolution = RESOLUTION_TITLE
    elif kind == "qid":
        row["qid"] = qid
        resolution = RESOLUTION_GIVEN_QID
    elif kind == "unknown_page_qid":
        row["page_id"] = unknown_page_base + rng.randrange(rows)
        row["qid"] = qid
        resolution = RESOLUTION_GIVEN_QID
    else:
        row["page_id"] = unknown_page_base + rng.randrange(rows)
        qid, resolution = None, RESOLUTION_NOT_FOUND
    expected.external[(sid, surface)] = (qid, resolution)
    expected.external_tally[resolution] += 1
    out.write(json.dumps(row, ensure_ascii=False) + "\n")


def _render(shape: str, predicted: Dict[str, str]) -> str:
    if shape == "unparseable":
        return _UNPARSEABLE_TEXT
    body = json.dumps(predicted, ensure_ascii=False)
    if shape == "comma" and predicted:
        body = body[:-1] + ",}"
    text = '[{"Entities":' + body + "}]"
    if shape == "prose":
        text = _PROSE_HEAD + text + _PROSE_TAIL
    return text
