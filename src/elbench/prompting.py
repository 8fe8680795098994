"""One-shot prompt construction for LLM entity linking.

The default template is a versioned text asset rather than a hard-coded
string, so prompt variants can be loaded and tested the same way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources
from typing import Optional, Tuple

from .records import not_utf8

SENTENCE_SLOT = "{{sentence}}"
DEFAULT_TEMPLATE_VERSION = "el_one_shot_v1"

_SENTENCE_PREFIX = 'Sentence:"'
_OUTPUT_PREFIX = "Output:"


@dataclass(frozen=True)
class PromptTemplate:
    """Instruction block, worked shot examples, and the target block.

    shot_examples holds (sentence, output payload) pairs; the payload is
    everything after the shot's "Output:" marker, leading whitespace
    included, so a template round-trips byte-for-byte.  sentence_slot is
    the target block and must contain {{sentence}} exactly once.  text is
    the text the template was parsed from, which run manifests digest.
    """

    instruction: str
    shot_examples: Tuple[Tuple[str, str], ...]
    sentence_slot: str
    version: str = "custom"
    text: str = ""


def parse_template(text: str, version: str = "custom") -> PromptTemplate:
    """Parse template text: blocks separated by lines consisting of '#'.

    First block is the instruction, last is the target block, any blocks
    between are shots of the form:

        Sentence:"<example sentence>"
        Output:<example output>
    """
    blocks: list[list[str]] = [[]]
    for line in (text[:-1] if text.endswith("\n") else text).split("\n"):
        if line == "#":
            blocks.append([])
        else:
            blocks[-1].append(line)
    if len(blocks) < 2:
        raise ValueError("template must contain at least an instruction block and a target block")
    instruction = "\n".join(blocks[0])
    target = "\n".join(blocks[-1])
    if target.count(SENTENCE_SLOT) != 1:
        raise ValueError(f"target block must contain {SENTENCE_SLOT} exactly once")
    shots = []
    for i, block in enumerate(blocks[1:-1], 1):
        if len(block) != 2:
            raise ValueError(f"shot block {i}: expected exactly 2 lines, got {len(block)}")
        sentence_line, output_line = block
        if not (sentence_line.startswith(_SENTENCE_PREFIX) and sentence_line.endswith('"')
                and len(sentence_line) > len(_SENTENCE_PREFIX)):
            raise ValueError(f'shot block {i}: first line must look like Sentence:"..."')
        if not output_line.startswith(_OUTPUT_PREFIX):
            raise ValueError(f"shot block {i}: second line must start with {_OUTPUT_PREFIX!r}")
        shots.append((sentence_line[len(_SENTENCE_PREFIX):-1], output_line[len(_OUTPUT_PREFIX):]))
    return PromptTemplate(instruction=instruction, shot_examples=tuple(shots),
                          sentence_slot=target, version=version, text=text)


def load_template(path: Optional[str] = None) -> PromptTemplate:
    """The template in the file at path, versioned by its file name; the
    default template when there is no path."""
    if not path:
        return parse_template(default_template_text(), version=DEFAULT_TEMPLATE_VERSION)
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError:
            raise not_utf8(path) from None
    return parse_template(text, version=os.path.splitext(os.path.basename(path))[0])


def default_template_text() -> str:
    return resources.files("elbench").joinpath(
        "templates", f"{DEFAULT_TEMPLATE_VERSION}.txt").read_text(encoding="utf-8")


def default_template() -> PromptTemplate:
    return load_template()


def build_prompt(template: PromptTemplate, sentence: str) -> str:
    """Render the prompt for one sentence.

    Deterministic; the sentence is injected verbatim (quotes unescaped, the
    parser downstream must tolerate the model echoing them).  Injective in
    the sentence for a fixed template because the slot occurs exactly once.
    """
    blocks = [template.instruction]
    for shot_sentence, shot_output in template.shot_examples:
        blocks.append(f'{_SENTENCE_PREFIX}{shot_sentence}"\n{_OUTPUT_PREFIX}{shot_output}')
    blocks.append(template.sentence_slot.replace(SENTENCE_SLOT, sentence))
    return "\n#\n".join(blocks)
