"""One-shot prompt construction for LLM entity linking.

The default template is a versioned text asset rather than a hard-coded
string, so prompt variants can be loaded and tested the same way.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from .records import not_utf8

SENTENCE_SLOT = "{{sentence}}"
DEFAULT_TEMPLATE_VERSION = "el_one_shot_v1"

_SENTENCE_PREFIX = 'Sentence:"'
_OUTPUT_PREFIX = "Output:"


@dataclass(frozen=True)
class PromptTemplate:
    """A template split at the {{sentence}} slot of its target block.

    head and tail are the template text before and after that slot, the
    text's final newline left out: a prompt is the text with the sentence in
    the slot.  text, which run manifests digest, is what the template was
    parsed from; load_template reads with universal newlines, so a CRLF
    file prompts and digests as its LF copy.
    """

    head: str
    tail: str
    version: str = "custom"
    text: str = ""


def parse_template(text: str, version: str = "custom") -> PromptTemplate:
    """Parse template text: blocks separated by lines consisting of '#'.

    First block is the instruction, last is the target block, any blocks
    between are shots of the form:

        Sentence:"<example sentence>"
        Output:<example output>
    """
    body = text[:-1] if text.endswith("\n") else text
    blocks: list[list[str]] = [[]]
    for line in body.split("\n"):
        if line == "#":
            blocks.append([])
        else:
            blocks[-1].append(line)
    if len(blocks) < 2:
        raise ValueError("template must contain at least an instruction block and a target block")
    if "\n".join(blocks[-1]).count(SENTENCE_SLOT) != 1:
        raise ValueError(f"target block must contain {SENTENCE_SLOT} exactly once")
    for i, block in enumerate(blocks[1:-1], 1):
        if len(block) != 2:
            raise ValueError(f"shot block {i}: expected exactly 2 lines, got {len(block)}")
        sentence_line, output_line = block
        if not (sentence_line.startswith(_SENTENCE_PREFIX) and sentence_line.endswith('"')
                and len(sentence_line) > len(_SENTENCE_PREFIX)):
            raise ValueError(f'shot block {i}: first line must look like Sentence:"..."')
        if not output_line.startswith(_OUTPUT_PREFIX):
            raise ValueError(f"shot block {i}: second line must start with {_OUTPUT_PREFIX!r}")
    # The target block is the last, so its slot is the text's last one.
    head, _, tail = body.rpartition(SENTENCE_SLOT)
    return PromptTemplate(head=head, tail=tail, version=version, text=text)


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
    """The prompt for one sentence: the template with the sentence in its slot.

    Deterministic; the sentence is injected verbatim (quotes unescaped, the
    parser downstream must tolerate the model echoing them).  Injective in
    the sentence for a fixed template because the slot occurs exactly once.
    """
    return template.head + sentence + template.tail
