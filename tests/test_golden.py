"""Pinned sample stream: sample(type, seed) must keep its canonical code.

The pins live in perfbench/golden.json, shared with the benchmark; a
change that alters the stream on purpose replaces them there, and the
digest below.
"""

import hashlib
import json
from pathlib import Path

import pytest

from planemaps.counting import admissible_types
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


# sha256 over the canonical codes of sample(t, seed) for every admissible
# type with at most five edges, in admissible_types order, seeds 0-9, one
# code and a newline each; the 20 pins reach the final face-to-face
# transfer only five times, these 2710 samples on every quasibipartite type
STREAM_DIGEST = "013d4639cc603df01f67c3c9a8cf927ff78f4b747e3d65317fa276b06e745faf"


def test_small_stream_digest():
    h = hashlib.sha256()
    for t in admissible_types(5):
        for seed in range(10):
            h.update(sample(t, seed).canonical_code().encode() + b"\n")
    assert h.hexdigest() == STREAM_DIGEST
