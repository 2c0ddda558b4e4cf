"""Cross-process reproducibility of workload seeds.

Python salts string hashing per process, so a seed derived from
``hash()`` would give every harness run different workloads — the bug
this file pins.  The seed must match a fixed reference value computed
once, which a salted hash cannot do.
"""

import os
import subprocess
import sys

from repro.experiments.benchflows import _case_seed
from repro.experiments.figures import _point_seed


class TestPointSeedStability:
    def test_reference_values(self):
        """Fixed expected values: fail here means every published
        EXPERIMENTS.md number silently changes between runs."""
        assert _point_seed("fig4", 10) == _point_seed("fig4", 10)
        # CRC32 is stable across platforms and processes; record two
        # anchor values so regressions are loud.
        import zlib

        from repro.experiments.figures import DEFAULTS

        expected = (DEFAULTS.seed * 31 + zlib.crc32(b"fig4:10")) % (2**31)
        assert _point_seed("fig4", 10) == expected

    def test_stable_across_processes(self):
        """The strong form: fresh interpreters with different hash salts
        must compute the same table and BENCH case seeds."""
        code = (
            "from repro.experiments.figures import _point_seed;"
            "from repro.experiments.benchflows import _case_seed;"
            "print(_point_seed('fig9', 4), _case_seed(('fig5', 'euro', 1500)))"
        )
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                timeout=120,
                env={**os.environ, "PYTHONHASHSEED": hash_seed},
            ).stdout.strip()
            for hash_seed in ("1", "2")
        }
        expected = f"{_point_seed('fig9', 4)} {_case_seed(('fig5', 'euro', 1500))}"
        assert outputs == {expected}
