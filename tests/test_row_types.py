"""The contract of the types built once per input line or once per link.

They are slotted, unfrozen dataclasses: a frozen dataclass sets each field
through `object.__setattr__`, which made building rows cost more than
scoring them.  `dataclasses.replace`, positional construction and
field-wise `==` keep working, as `perfbench/test_perfbench.py` and
`resolve` rely on; a revert to frozen, dict-backed or tuple-based classes
fails here.
"""

import dataclasses

import pytest

from elbench.backends import Completion
from elbench.baseline import ExternalPrediction
from elbench.benchmark import BenchmarkSentence, GoldMention
from elbench.parsing import ParseOutcome, PredictedLink, PredictionRecord
from elbench.scoring import SentenceScore

LINK = PredictedLink("Rossini", "Gioachino Rossini")

# (type, positional arguments, a field to replace, its new value)
ROWS = [
    (PredictedLink, ("Rossini", "Gioachino Rossini", "parsed-repaired"), "qid", "Q90002"),
    (PredictionRecord, ("s1", (LINK,), "clean"), "links", ()),
    (ParseOutcome, ((LINK,), "repaired", ("repair:stripped-prose",)), "status", "clean"),
    (BenchmarkSentence, ("s1", "Rossini wrote.", (GoldMention("Rossini", "Q90002"),)),
     "text", "Rossini composed."),
    (ExternalPrediction, ("s1", "Rossini", 7), "title", "Gioachino Rossini"),
    (Completion, ("0" * 64, "[]"), "raw_text", '[{"Entities": {}}]'),
    (SentenceScore, ("s1", 1, 0, 2), "fp", 3),
]


@pytest.mark.parametrize("cls, args, name, value", ROWS, ids=[row[0].__name__ for row in ROWS])
def test_row_contract(cls, args, name, value):
    row = cls(*args)
    names = [field.name for field in dataclasses.fields(cls)]
    assert [getattr(row, n) for n in names[:len(args)]] == list(args)
    assert row == cls(*args)
    assert not hasattr(row, "__dict__")

    changed = dataclasses.replace(row, **{name: value})
    assert changed is not row and changed != row
    assert getattr(changed, name) == value
    assert all(getattr(changed, n) == getattr(row, n) for n in names if n != name)
    assert getattr(row, name) != value

    # Unfrozen: a field is set with a plain attribute store.
    setattr(changed, name, getattr(row, name))
    assert changed == row
