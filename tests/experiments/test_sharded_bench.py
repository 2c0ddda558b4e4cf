"""CI smoke: the sharded bench unit is bit-identical to unsharded.

Runs at a deliberately small size (one round, no timing assertions) so
it is cheap enough for the bench job to execute under both
``REPRO_VECTORIZE=0`` and ``=1`` — the parity flag, not the latency,
is what this guards.
"""

from __future__ import annotations

import pytest

from repro.experiments import benchflows
from repro.experiments.figures import engine_for

SIZE = 1_500


@pytest.fixture(scope="module")
def case():
    return benchflows.bench_case(
        "sharded-smoke",
        kind="gn",
        size=SIZE,
        k0=10,
        n_keywords=3,
        alpha=0.5,
        lam=0.5,
    )


@pytest.fixture(scope="module")
def reference(case):
    _, engine = engine_for("gn", SIZE, benchflows.BENCH_SEED)
    return benchflows.whynot_unit(engine, case, "advanced", rounds=1)


class TestShardedBenchParity:
    @pytest.mark.parametrize("mode", ["simulate", "process"])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_parity_with_unsharded(self, case, reference, shards, mode):
        record = benchflows.sharded_whynot_unit(
            case,
            kind="gn",
            size=SIZE,
            shards=shards,
            mode=mode,
            rounds=1,
            reference=reference,
        )
        assert record["parity_with_unsharded"] is True
        assert record["penalty"] == reference["penalty"]
        assert record["initial_rank"] == reference["initial_rank"]
        assert record["shards"] == shards
        assert record["shard_mode"] == mode

    def test_reference_without_flag(self, case):
        record = benchflows.sharded_whynot_unit(
            case, kind="gn", size=SIZE, shards=2, rounds=1
        )
        assert "parity_with_unsharded" not in record
