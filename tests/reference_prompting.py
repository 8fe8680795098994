"""The block renderer `elbench.prompting.build_prompt` replaced, kept as a test oracle.

`build_prompt` used to parse a template into its instruction, its shots as
(sentence, output) pairs and its target block, and to render every prompt
again from those parts.  It now splices the sentence into the template text
at the target block's slot.  Every recorded answer is keyed by the prompt's
sha256, so `tests/test_prompting.py` requires both to give the same bytes.
"""

from __future__ import annotations

from typing import List

from elbench.prompting import SENTENCE_SLOT

_SENTENCE_PREFIX = 'Sentence:"'
_OUTPUT_PREFIX = "Output:"


def reference_build_prompt(text: str, sentence: str) -> str:
    """The prompt for sentence from template text that `parse_template` accepts."""
    blocks: List[List[str]] = [[]]
    for line in (text[:-1] if text.endswith("\n") else text).split("\n"):
        if line == "#":
            blocks.append([])
        else:
            blocks[-1].append(line)
    shots = [(sentence_line[len(_SENTENCE_PREFIX):-1], output_line[len(_OUTPUT_PREFIX):])
             for sentence_line, output_line in blocks[1:-1]]
    rendered = ["\n".join(blocks[0])]
    for shot_sentence, shot_output in shots:
        rendered.append(f'{_SENTENCE_PREFIX}{shot_sentence}"\n{_OUTPUT_PREFIX}{shot_output}')
    rendered.append("\n".join(blocks[-1]).replace(SENTENCE_SLOT, sentence))
    return "\n#\n".join(rendered)
