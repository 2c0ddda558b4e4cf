"""Per-shard failure containment: faults in one shard degrade only
that shard, answers stay exact (served by the scan fallback), and
recovery clears the quarantine.

The schedule here is deliberately brutal (30% bit-rot, 20% lost
records) so the targeted shard *will* fail; the assertions are that
the blast radius stays inside it and that every degraded answer is
still bit-identical to the fault-free baseline.
"""

from __future__ import annotations

import pytest

from repro import WhyNotEngine
from repro.errors import InvariantViolationError, StorageError
from repro.storage.faults import FaultInjector, FaultSchedule

BRUTAL = FaultSchedule(bit_rot_rate=0.3, lost_record_rate=0.2)


@pytest.fixture()
def engines(euro_small, euro_reference):
    """The fault-free baseline is the raw-tree reference."""
    dataset, _ = euro_small
    baseline = euro_reference
    chaotic = WhyNotEngine(
        dataset,
        faults=FaultInjector(BRUTAL, seed=11),
        shards=4,
        fault_shards=(0,),
    )
    yield baseline, chaotic
    chaotic.close()


class TestFaultContainment:
    def test_faults_stay_in_targeted_shard(self, engines, euro_cases):
        baseline, chaotic = engines
        saw_degraded = False
        for case in euro_cases:
            for method in ("advanced", "kcr"):
                base = baseline.answer(case, method=method)
                answer = chaotic.answer(case, method=method)
                assert answer.refined == base.refined
                assert answer.initial_rank == base.initial_rank
                saw_degraded = saw_degraded or answer.degraded
        assert saw_degraded, "brutal schedule never tripped — dead test"
        quarantined = chaotic.quarantined
        assert quarantined, "no shard quarantined under 30% bit rot"
        for key in quarantined:
            assert key.startswith("shard-0:"), f"fault escaped to {key}"

    def test_degraded_answers_flag_events(self, engines, euro_cases):
        _, chaotic = engines
        answer = chaotic.answer(euro_cases[0], method="advanced")
        if answer.degraded:
            assert answer.fault_events
            for event in answer.fault_events:
                assert event.tree.startswith("shard-0:")

    def test_top_k_served_while_degraded(self, engines, euro_cases):
        baseline, chaotic = engines
        chaotic.answer(euro_cases[0], method="advanced")  # trip the faults
        for case in euro_cases:
            query = case.query
            outcome = chaotic.run_top_k(query)
            assert outcome.results == baseline.top_k(query)

    def test_recover_clears_quarantine(self, engines, euro_cases):
        baseline, chaotic = engines
        for case in euro_cases[:3]:
            chaotic.answer(case, method="advanced")
        if not chaotic.quarantined:
            pytest.skip("schedule did not trip on this workload slice")
        cleared = chaotic.recover()
        assert cleared
        assert not chaotic.quarantined
        # Post-recovery answers remain exact (the rebuilt shard may
        # re-fault under its fresh fork — containment, not absence,
        # is the contract).
        base = baseline.answer(euro_cases[0], method="kcr")
        answer = chaotic.answer(euro_cases[0], method="kcr")
        assert answer.refined == base.refined
        for key in chaotic.quarantined:
            assert key.startswith("shard-0:")

    def test_health_reports_quarantined_shards(self, engines, euro_cases):
        _, chaotic = engines
        chaotic.answer(euro_cases[0], method="advanced")
        health = chaotic.health()
        for key in health["quarantined"]:
            assert key.startswith("shard-0:")

    def test_untargeted_engine_can_fault_any_shard(self, euro_small):
        """Without ``fault_shards`` every shard forks the injector —
        the targeted run's containment is policy, not coincidence."""
        dataset, _ = euro_small
        chaotic = WhyNotEngine(
            dataset,
            faults=FaultInjector(BRUTAL, seed=11),
            shards=4,
        )
        index = chaotic.sharded_index
        forked = [s.tid for s in index.shards if s._tree_faults("setr") is not None]
        assert forked == [s.tid for s in index.shards]
        chaotic.close()


@pytest.fixture(params=["simulate", "process"])
def shard0_down(request, euro_small):
    """A fault-free 4-shard engine whose shard 0 trees are both down."""
    dataset, _ = euro_small
    engine = WhyNotEngine(dataset, shards=4, shard_mode=request.param)
    index = engine.sharded_index
    for kind in ("setr", "kcr"):
        index.mark_down(index.shards[0], kind, "test", StorageError("down"))
    yield engine
    engine.close()


class TestQuarantineGuard:
    """A down shard is served by its scan, never by its tree."""

    def test_down_shard_answers_are_exact(
        self, shard0_down, euro_reference, euro_cases
    ):
        for case in euro_cases:
            outcome = shard0_down.run_top_k(case.query)
            assert outcome.degraded
            assert outcome.results == euro_reference.top_k(case.query)
            for method in ("basic", "advanced", "kcr"):
                base = euro_reference.answer(case, method)
                answer = shard0_down.answer(case, method=method)
                assert answer.degraded
                assert answer.refined == base.refined
                assert answer.initial_rank == base.initial_rank

    def test_tree_ops_to_down_shard_are_refused(self, shard0_down, euro_cases):
        index = shard0_down.sharded_index
        model = shard0_down.model
        index.ensure_built("setr", model)
        down, healthy = index.shards[0], index.shards[1]
        case = euro_cases[0]
        query = case.query
        missing = tuple(shard0_down.dataset.get(oid) for oid in case.missing)
        tree_ops = [
            ("bound", "setr", query, query.doc),
            ("top_k", "setr", query, 3, query.doc),
            ("rank", "setr", query, missing, None, None),
            ("kcr_init", query, missing, (), model),
            ("kcr_step", ()),
        ]
        for message in tree_ops:
            with pytest.raises(InvariantViolationError):
                index.request(down, message)
            with pytest.raises(InvariantViolationError):
                index.request_many([(healthy, tree_ops[0]), (down, message)])
        # The refused batch submitted nothing: the healthy shard's next
        # reply answers the next request, not a stale bound.
        results, _ = index.request(healthy, ("top_k", "setr", query, 3, query.doc))
        assert isinstance(results, list) and len(results) == 3
        for message in (
            ("warm", ("setr",), model),
            ("reset",),
            ("rebuild", "setr", model),
        ):
            assert index.request(down, message)[0] is True


def test_injector_ledger_is_mode_invariant(euro_small, euro_cases):
    """Process workers ship their injection-ledger deltas home, so one
    seeded schedule reports the same ``health()["injector"]`` in both
    modes (the faults fire in the workers' injector copies)."""
    dataset, _ = euro_small
    ledgers = []
    for mode in ("simulate", "process"):
        engine = WhyNotEngine(
            dataset,
            faults=FaultInjector(BRUTAL, seed=11),
            shards=4,
            shard_mode=mode,
            fault_shards=(0,),
        )
        try:
            for case in euro_cases:
                engine.run_top_k(case.query)
                engine.answer(case, method="advanced")
            ledgers.append(engine.health()["injector"])
        finally:
            engine.close()
    assert ledgers[0] == ledgers[1]
    assert sum(ledgers[0].values()) > 0


@pytest.mark.parametrize("shards", [1, 4])
def test_kcr_shard_failing_mid_batch_stays_exact(
    monkeypatch, euro_small, euro_reference, euro_cases, shards
):
    """A walker that dies after a few rounds is swapped in at its exact
    contribution minus what it already reported, at any shard count."""
    from repro.core.kcr_algorithm import KcRWalker

    dataset, _ = euro_small
    expected = [euro_reference.answer(case, "kcr") for case in euro_cases]
    engine = WhyNotEngine(dataset, shards=shards)
    steps = {"n": 0}
    step = KcRWalker.step

    def dies_on_third_step(self, alive):
        steps["n"] += 1
        if steps["n"] == 3:
            raise StorageError("walker lost its node mid-batch")
        return step(self, alive)

    monkeypatch.setattr(KcRWalker, "step", dies_on_third_step)
    for case, base in zip(euro_cases, expected):
        answer = engine.answer(case, method="kcr")
        assert answer.refined == base.refined
        assert answer.initial_rank == base.initial_rank
        assert answer.degraded
    (unit,) = engine.quarantined
    assert unit.endswith(":kcr")
    engine.close()
