"""The BENCH fixed point: emitted figures equal the checked-in baselines.

Every deterministic field of a figure unit (I/O counters, penalty,
initial rank), the unit names and the ``skipped`` unit prefixes must
match ``benchmarks/baselines`` exactly; timings are the gate's business
and are not asserted here.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro import cli
from repro.core.engine import WhyNotEngine
from repro.experiments import benchflows

from ..ambient_faults import comparable_io

BASELINES = Path(__file__).resolve().parents[2] / "benchmarks" / "baselines"
FIXED_FIELDS = ("io", "penalty", "initial_rank")


def _baseline(name):
    return json.loads((BASELINES / f"BENCH_{name}.json").read_text())


def _prefixes(skipped):
    """The unit names ``compare`` matches ``skipped`` entries by."""
    return sorted(entry.split(": ")[0] for entry in skipped)


@pytest.fixture(scope="module", params=["fig09", "fig11"])
def emitted(request):
    name = request.param
    return name, benchflows.emit_figure(name, rounds=1, write=False)


class TestFixedPoint:
    def test_payload_keys(self, emitted):
        name, payload = emitted
        assert sorted(payload) == sorted(_baseline(name))

    def test_unit_names(self, emitted):
        name, payload = emitted
        assert sorted(payload["units"]) == sorted(_baseline(name)["units"])

    def test_deterministic_fields(self, emitted):
        name, payload = emitted
        for unit, record in _baseline(name)["units"].items():
            for field in FIXED_FIELDS:
                got, want = payload["units"][unit].get(field), record.get(field)
                if field == "io" and want is not None:
                    got, want = comparable_io(got), comparable_io(want)
                assert got == want, (unit, field)

    def test_skipped_units(self, emitted):
        name, payload = emitted
        assert _prefixes(payload["skipped"]) == _prefixes(
            _baseline(name)["skipped"]
        )

    def test_pytest_suite_lists_the_same_units(self, emitted):
        """``benchmarks/bench_figures.py`` parametrises over
        :func:`sweep_units`: the emitted why-not units plus the skipped
        ones, nothing else."""
        name, payload = emitted
        units = benchflows.sweep_units()
        listed = sorted(unit for figure, unit, *_ in units if figure == name)
        expected = [unit for unit in payload["units"] if unit != "leaf_scoring"]
        assert listed == sorted(expected + _prefixes(payload["skipped"]))


class TestGate:
    def test_identical_payload_passes(self):
        baseline = _baseline("fig09")
        assert benchflows.compare(baseline, baseline) == []

    def test_one_page_of_io_fails(self):
        baseline = _baseline("fig09")
        candidate = json.loads(json.dumps(baseline))
        unit = "missing=2:kcr"
        candidate["units"][unit]["io"]["page_reads"] += 1
        failures = benchflows.compare(candidate, baseline)
        assert len(failures) == 1
        assert failures[0].startswith(f"{unit}: I/O counters diverge")


class TestPenaltyCrossCheck:
    @pytest.fixture
    def stubbed(self, monkeypatch):
        """Inflate the penalty of fig11's BS+Opt3 answers only."""
        original = WhyNotEngine.answer

        def answer(self, question, method="kcr", **options):
            result = original(self, question, method, **options)
            if options.get("filtering") and not options.get("ordering"):
                refined = dataclasses.replace(
                    result.refined, penalty=result.refined.penalty + 0.25
                )
                result = dataclasses.replace(result, refined=refined)
            return result

        monkeypatch.setattr(WhyNotEngine, "answer", answer)

    def test_emit_raises(self, stubbed):
        with pytest.raises(benchflows.PenaltyMismatchError, match="config"):
            benchflows.emit_figure("fig11", rounds=1, write=False)

    def test_cli_exits_non_zero(self, stubbed, tmp_path, capsys):
        argv = ["bench", "--emit", "--figures", "fig11", "--out", str(tmp_path)]
        assert cli.main(argv + ["--rounds", "1"]) == 1
        assert "exact methods disagree" in capsys.readouterr().out
        assert not (tmp_path / "BENCH_fig11.json").exists()
