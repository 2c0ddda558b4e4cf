"""``demo`` output is pinned byte for byte, apart from its timings.

The golden transcript in ``tests/golden/demo_size600_seed7.txt`` was
taken from ``repro.cli demo --size 600 --seed 7`` with every
``[<t> ms,`` timing replaced by ``[… ms,``.  A refactor that keeps the
engine's behaviour keeps this output: the top-k list, the missing
object's rank, each method's refined query and its page reads.

ROADMAP item 12 will change the BS line on purpose; that change
regenerates the golden with the same command and masking.
"""

import re
from pathlib import Path

from repro.cli import main

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "demo_size600_seed7.txt"

_TIMING = re.compile(r"\[\d+\.\d+ ms,")


def mask_timings(text: str) -> str:
    return _TIMING.sub("[… ms,", text)


def test_demo_matches_golden(capsys):
    assert main(["demo", "--size", "600", "--seed", "7"]) == 0
    out = mask_timings(capsys.readouterr().out)
    assert out == GOLDEN.read_text(encoding="utf-8")
