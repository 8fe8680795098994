import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_prompting import reference_build_prompt

from elbench.prompting import (DEFAULT_TEMPLATE_VERSION, SENTENCE_SLOT, PromptTemplate,
                               build_prompt, default_template, default_template_text,
                               load_template, parse_template)

# The contracted prompt, frozen byte for byte.  The third instruction line and
# the worked output both carry an unbalanced brace on purpose: downstream
# parsing must cope with models imitating them.
REFERENCE_PROMPT_LINES = [
    "You are a powerful Entity Linking system.",
    "Given a sentence, identify the key entities and output their exact labels as found"
    " on the corresponding Wikipedia pages.",
    'Generate a structured JSON output, formatted as'
    ' [{"Entities":{"text entity span": "Wikipedia page title"}].',
    "Here there are some examples:",
    "#",
    'Sentence:"of Rameau was represented in 1735, it was a balletopera Les Indes galantes."',
    'Output:  [{"Entities":{"Rameau":"Jean-Philippe Rameau",'
    '"Les Indes galantes":"Les Indes galantes"}]',
    "#",
    'Sentence:"{{sentence}}"',
    "Output:",
]
REFERENCE_TEMPLATE_TEXT = "\n".join(REFERENCE_PROMPT_LINES) + "\n"


def expected_prompt(sentence):
    lines = REFERENCE_PROMPT_LINES[:-2] + [f'Sentence:"{sentence}"', "Output:"]
    return "\n".join(lines)


class TestDefaultTemplate:
    def test_packaged_text_is_byte_exact(self):
        assert default_template_text() == REFERENCE_TEMPLATE_TEXT

    def test_prompt_is_byte_exact(self):
        prompt = build_prompt(default_template(), "Horn gave his first concert.")
        assert prompt == expected_prompt("Horn gave his first concert.")

    def test_version(self):
        template = default_template()
        assert template.version == DEFAULT_TEMPLATE_VERSION
        assert template.head.endswith('\n#\nSentence:"')
        assert template.tail == '"\nOutput:'

    def test_shot_payload_keeps_leading_whitespace(self):
        prompt = build_prompt(default_template(), "x")
        assert '\nSentence:"of Rameau' in prompt
        assert '\nOutput:  [{"Entities"' in prompt

    def test_prompt_ends_with_output_cue(self):
        prompt = build_prompt(default_template(), "x")
        assert prompt.endswith('\nOutput:')
        assert not prompt.endswith(" ")


class TestParseTemplate:
    def test_round_trips_through_build(self):
        template = parse_template(REFERENCE_TEMPLATE_TEXT, version="v")
        assert build_prompt(template, SENTENCE_SLOT) == REFERENCE_TEMPLATE_TEXT[:-1]

    def test_no_separator_rejected(self):
        with pytest.raises(ValueError, match="instruction block and a target block"):
            parse_template('Just text with {{sentence}} and no separator')

    def test_missing_slot_rejected(self):
        with pytest.raises(ValueError, match="exactly once"):
            parse_template('Do the thing.\n#\nSentence:"no slot here"\nOutput:')

    def test_double_slot_rejected(self):
        with pytest.raises(ValueError, match="exactly once"):
            parse_template('Do it.\n#\nSentence:"{{sentence}} {{sentence}}"\nOutput:')

    def test_zero_shot_template_allowed(self):
        template = parse_template('Instructions.\n#\nSentence:"{{sentence}}"\nOutput:')
        assert build_prompt(template, "Hi.") == 'Instructions.\n#\nSentence:"Hi."\nOutput:'

    def test_two_shot_template(self):
        text = ('Do it.\n#\nSentence:"a"\nOutput: [1]\n#\nSentence:"b"\nOutput: [2]\n'
                '#\nSentence:"{{sentence}}"\nOutput:')
        template = parse_template(text)
        assert build_prompt(template, "c") == text.replace(SENTENCE_SLOT, "c")

    def test_slot_replaced_in_target_block_only(self):
        text = 'Put {{sentence}} here.\n#\nSentence:"{{sentence}}"\nOutput:\n'
        assert build_prompt(parse_template(text), "x") == \
            'Put {{sentence}} here.\n#\nSentence:"x"\nOutput:'

    def test_template_opening_with_separator_sent_as_written(self):
        # The block renderer prefixed a newline the file does not hold.
        text = '#\nSentence:"{{sentence}}"\nOutput:'
        assert build_prompt(parse_template(text), "x") == '#\nSentence:"x"\nOutput:'
        assert reference_build_prompt(text, "x") == '\n#\nSentence:"x"\nOutput:'

    def test_malformed_shot_rejected(self):
        with pytest.raises(ValueError, match="shot block 1"):
            parse_template('Do it.\n#\nnot a shot\nOutput:x\n#\nSentence:"{{sentence}}"\nOutput:')
        with pytest.raises(ValueError, match="expected exactly 2 lines"):
            parse_template('Do it.\n#\nSentence:"a"\n#\nSentence:"{{sentence}}"\nOutput:')

    def test_load_template_names_version_after_file(self, tmp_path):
        path = tmp_path / "my_variant.txt"
        path.write_text(REFERENCE_TEMPLATE_TEXT, encoding="utf-8")
        template = load_template(str(path))
        assert template.version == "my_variant"
        assert template.text == REFERENCE_TEMPLATE_TEXT

    def test_load_template_without_path_is_default(self):
        template = load_template()
        assert template == default_template()
        assert template.version == DEFAULT_TEMPLATE_VERSION
        assert template.text == default_template_text()


sentences = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=0x2FFF), min_size=1, max_size=60)


@settings(max_examples=200, deadline=None)
@given(sentence=sentences)
def test_sentence_embedded_verbatim(sentence):
    assume(SENTENCE_SLOT not in sentence)
    prompt = build_prompt(default_template(), sentence)
    assert f'Sentence:"{sentence}"\nOutput:' in prompt
    assert prompt == expected_prompt(sentence)


@settings(max_examples=200, deadline=None)
@given(first=sentences, second=sentences)
def test_prompt_injective_in_sentence(first, second):
    assume(first != second)
    template = default_template()
    assert build_prompt(template, first) != build_prompt(template, second)


def test_custom_template_object_direct():
    template = PromptTemplate(head='List entities.\n#\nSentence:"x"\nOutput: [{"a":1}]\n#\n'
                                   'Sentence:"', tail='"\nOutput:')
    prompt = build_prompt(template, "y")
    assert prompt == 'List entities.\n#\nSentence:"x"\nOutput: [{"a":1}]\n#\nSentence:"y"\nOutput:'


# Template lines: fragments that include the slot, quotes, braces, '#' and
# carriage returns.  A line that is exactly "#" separates blocks, so no
# generated line is one.
PLAIN = st.one_of(st.sampled_from(['"', "#", "{", "}", "\r", " "]),
                  st.text(st.characters(blacklist_characters="\n"), max_size=6))
PLAIN_LINES = st.lists(PLAIN, max_size=3).map("".join).filter(lambda line: line != "#")
LINES = st.lists(st.one_of(st.just(SENTENCE_SLOT), PLAIN), max_size=3).map("".join).filter(
    lambda line: line != "#")


@st.composite
def template_texts(draw):
    """Text that parse_template accepts: 0-3 instruction lines (slot or not),
    0-3 shots, and a target block with the slot once, anywhere in it."""
    lines = draw(st.lists(LINES, max_size=3))
    for _ in range(draw(st.integers(0, 3))):
        lines += ["#", f'Sentence:"{draw(LINES)}"', f"Output:{draw(LINES)}"]
    target = draw(st.lists(PLAIN_LINES, max_size=3))
    row = draw(st.integers(0, len(target)))
    target.insert(row, draw(PLAIN_LINES) + SENTENCE_SLOT + draw(PLAIN_LINES))
    assume("\n".join(target).count(SENTENCE_SLOT) == 1)
    return "\n".join(lines + ["#"] + target) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(text=template_texts(),
       sentence=st.lists(st.one_of(st.just(SENTENCE_SLOT), st.sampled_from(['"', "\n", "#\n"]),
                                   st.text(max_size=8)), max_size=4).map("".join))
def test_build_prompt_equals_block_renderer(text, sentence):
    expected = reference_build_prompt(text, sentence)
    if text.startswith("#\n"):
        # An empty instruction block: the block renderer prefixed a newline.
        expected = expected.removeprefix("\n")
    assert build_prompt(parse_template(text), sentence) == expected
