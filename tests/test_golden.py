"""Pinned sample stream: sample(type, seed) must keep its canonical code.

The pins live in perfbench/golden.json, shared with the benchmark; a
change that alters the stream on purpose replaces them there.
"""

import json
from pathlib import Path

import pytest

from planemaps.sampler import sample

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text()
)["codes"]


@pytest.mark.parametrize(
    "entry", GOLDEN, ids=[f"{tuple(e['type'])}-seed{e['seed']}" for e in GOLDEN]
)
def test_golden_code(entry):
    assert sample(tuple(entry["type"]), entry["seed"]).canonical_code() == entry["code"]


def test_all_pins_present():
    assert len(GOLDEN) == 20
