"""Sharded index: bit-identical parity with a raw tree.

The sharding contract (DESIGN.md §4e) is that partitioning is an
execution detail: every answer — top-k results, why-not refinements,
ranks, tie-breaks — must equal the algorithm's run straight on one raw
tree (``euro_reference``) at any shard count, and the
per-shard I/O ledger must be identical between simulate and process
modes.  These tests pin all of that, plus the raw-tree method guard,
persistence round-trip, and the manifest sanitizer kinds (writes are
pinned in ``test_sharded_writes.py``).
"""

from __future__ import annotations

import pytest

from repro import InvalidParameterError, KcRAlgorithm, WhyNotEngine, make_euro_like
from repro.analysis.sanitize import check_shard_manifest
from repro.experiments.workload import WorkloadGenerator
from repro.index.sharded import ShardedIndex, load_sharded, save_sharded
from repro.storage.faults import FaultInjector
from repro.storage.integrity import load_checked_json, save_checked_json

SHARD_COUNTS = (1, 2, 5)
DETERMINISTIC_IO = ("page_reads", "page_writes", "node_fetches", "buffer_hits")


@pytest.fixture(scope="module")
def sharded_engines(euro_small):
    dataset, _ = euro_small
    engines = {n: WhyNotEngine(dataset, shards=n) for n in SHARD_COUNTS}
    yield engines
    for engine in engines.values():
        engine.close()


@pytest.fixture(scope="module")
def process_engine(euro_small):
    dataset, _ = euro_small
    engine = WhyNotEngine(dataset, shards=3, shard_mode="process")
    yield engine
    engine.close()


class TestShardedParity:
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_top_k_parity(
        self, euro_reference, sharded_engines, euro_cases, n_shards
    ):
        engine = sharded_engines[n_shards]
        for case in euro_cases:
            for k in (1, 5, 20):
                query = case.query.with_k(k)
                assert engine.top_k(query) == euro_reference.top_k(query)

    @pytest.mark.parametrize("method", ["basic", "advanced", "kcr"])
    @pytest.mark.parametrize("n_shards", SHARD_COUNTS)
    def test_answer_parity(
        self, euro_reference, sharded_engines, euro_cases, method, n_shards
    ):
        engine = sharded_engines[n_shards]
        for case in euro_cases:
            base = euro_reference.answer(case, method)
            answer = engine.answer(case, method=method)
            assert answer.refined == base.refined
            assert answer.initial_rank == base.initial_rank
            assert not answer.degraded

    def test_process_mode_same_answers_and_ledger(
        self, euro_reference, process_engine, euro_small, euro_cases
    ):
        """Process workers must be invisible: same answers, same ledger."""
        dataset, _ = euro_small
        simulate = WhyNotEngine(dataset, shards=3)
        case = euro_cases[0]
        for method in ("advanced", "kcr"):
            base = euro_reference.answer(case, method)
            sim = simulate.answer(case, method=method)
            proc = process_engine.answer(case, method=method)
            assert sim.refined == base.refined
            assert proc.refined == base.refined
        ambient_faults = FaultInjector.from_env() is not None
        for kind in ("setr", "kcr"):
            sim_total = simulate.sharded_index.ledger_total(kind)
            proc_total = process_engine.sharded_index.ledger_total(kind)
            if ambient_faults:
                # The REPRO_FAULTS conftest hook seeds each pool's
                # injector by in-process creation order, which differs
                # across the worker fork boundary — retry/fault counters
                # are environment noise there.  The deterministic I/O
                # (the mode-invariance contract) must still match.
                for field in (
                    "page_reads",
                    "page_writes",
                    "node_fetches",
                    "buffer_hits",
                ):
                    assert getattr(sim_total, field) == getattr(
                        proc_total, field
                    ), field
            else:
                assert sim_total == proc_total
        simulate.close()

    def test_ledger_sums_over_shards(self, sharded_engines, euro_cases):
        """The global snapshot is exactly the sum of per-shard ledgers."""
        engine = sharded_engines[5]
        engine.answer(euro_cases[1], method="advanced")
        index = engine.sharded_index
        for kind in ("setr", "kcr"):
            by_hand = None
            for ledger in index.ledgers(kind).values():
                by_hand = ledger if by_hand is None else by_hand + ledger
            assert index.ledger_total(kind) == by_hand


class TestSingleShardKcR:
    """One shard is the single tree's one-walker case of the round
    driver: the engine's KcRBased matches :class:`KcRAlgorithm` run
    straight on the same raw tree — same answer, same counters, same
    deterministic I/O."""

    def _assert_kcr_parity(self, dataset, questions):
        raw = WhyNotEngine(dataset)
        one_shard = WhyNotEngine(dataset, shards=1)
        try:
            for question in questions:
                base = KcRAlgorithm(raw.kcr_tree).answer(question)
                answer = one_shard.answer(question, method="kcr")
                assert answer.refined == base.refined
                assert answer.initial_rank == base.initial_rank
                assert answer.counters == base.counters
                for field in DETERMINISTIC_IO:
                    assert getattr(answer.io, field) == getattr(
                        base.io, field
                    ), field
        finally:
            one_shard.close()

    def test_euro_cases(self, euro_small, euro_cases):
        dataset, _ = euro_small
        self._assert_kcr_parity(dataset, euro_cases)

    def test_children_enqueued_under_post_sweep_flags(self):
        """A question where enqueueing under the pre-sweep alive flags
        expands one node the single tree skips."""
        dataset, _ = make_euro_like(3000, seed=7)
        case = WorkloadGenerator(dataset, seed=437).generate(
            2, n_keywords=4, n_missing=3, lam=0.7, max_extra_keywords=3
        )[1]
        self._assert_kcr_parity(dataset, [case.question])


class TestShardedGuards:
    def test_unsupported_method_rejected(self, sharded_engines, euro_cases):
        with pytest.raises(InvalidParameterError):
            sharded_engines[2].answer(euro_cases[0], method="parallel-advanced")

    def test_zero_shards_rejected(self, euro_small):
        dataset, _ = euro_small
        with pytest.raises(InvalidParameterError):
            WhyNotEngine(dataset, shards=0)


class TestShardedPersistence:
    @pytest.fixture(scope="class")
    def saved(self, euro_small, euro_cases, tmp_path_factory):
        dataset, _ = euro_small
        engine = WhyNotEngine(dataset, shards=4)
        engine.answer(euro_cases[0], method="kcr")  # build + touch both trees
        directory = tmp_path_factory.mktemp("sharded")
        save_sharded(engine.sharded_index, directory)
        engine.close()
        return dataset, directory

    def test_round_trip_parity(self, saved, euro_reference, euro_cases):
        dataset, directory = saved
        index = load_sharded(directory, dataset)
        view_query = euro_cases[0].query
        searcher = index.searcher("setr")
        assert searcher.top_k(view_query) == euro_reference.top_k(view_query)

    def test_manifest_sanitizer_clean(self, saved):
        _, directory = saved
        report = check_shard_manifest(directory)
        assert not report.violations

    def test_manifest_orphan_detected(self, saved):
        _, directory = saved
        orphan = directory / "shard-99-setr.json"
        orphan.write_text("{}")
        try:
            kinds = {v.kind for v in check_shard_manifest(directory).violations}
            assert "shard-orphan-file" in kinds
        finally:
            orphan.unlink()

    def test_manifest_missing_file_detected(self, saved):
        _, directory = saved
        victim = sorted(directory.glob("shard-*-kcr.json"))[0]
        backup = victim.read_bytes()
        victim.unlink()
        try:
            kinds = {v.kind for v in check_shard_manifest(directory).violations}
            assert "shard-missing-file" in kinds
        finally:
            victim.write_bytes(backup)

    def _rewrite_manifest(self, directory, mutate):
        manifest = load_checked_json(
            directory / "manifest.json",
            kind="sharded index",
            supported_versions=(2,),
            checksum_required_from=2,
        )
        mutate(manifest)
        body = {
            k: v
            for k, v in manifest.items()
            if k not in ("format_version", "checksum")
        }
        save_checked_json(directory / "manifest.json", body, version=2)
        return manifest

    def test_manifest_ledger_mismatch_detected(self, saved):
        _, directory = saved

        def tamper(manifest):
            manifest["ledger_total"]["setr"]["page_reads"] += 1

        self._rewrite_manifest(directory, tamper)
        try:
            kinds = {v.kind for v in check_shard_manifest(directory).violations}
            assert "shard-ledger-mismatch" in kinds
        finally:
            def restore(manifest):
                manifest["ledger_total"]["setr"]["page_reads"] -= 1

            self._rewrite_manifest(directory, restore)

    def test_manifest_tile_overlap_detected(self, saved):
        _, directory = saved
        original = load_checked_json(
            directory / "manifest.json",
            kind="sharded index",
            supported_versions=(2,),
            checksum_required_from=2,
        )["shards"][0]["rect"]

        def tamper(manifest):
            # Stretching tile 0 over the whole space guarantees a
            # strict interior overlap with every other tile.
            manifest["shards"][0]["rect"] = list(manifest["bounds"])

        self._rewrite_manifest(directory, tamper)
        try:
            kinds = {v.kind for v in check_shard_manifest(directory).violations}
            assert "shard-tile-overlap" in kinds
        finally:
            def restore(manifest):
                manifest["shards"][0]["rect"] = original

            self._rewrite_manifest(directory, restore)


class TestShardedDeterminism:
    def test_fresh_builds_identical_ledgers(self, euro_small, euro_cases):
        dataset, _ = euro_small
        totals = []
        for _ in range(2):
            engine = WhyNotEngine(dataset, shards=3)
            engine.answer(euro_cases[2], method="advanced")
            totals.append(
                {
                    kind: engine.sharded_index.ledger_total(kind)
                    for kind in ("setr", "kcr")
                }
            )
            engine.close()
        if FaultInjector.from_env() is not None:
            # Ambient REPRO_FAULTS forks a differently-seeded injector
            # into each build, so retry/fault counters are noise; the
            # deterministic I/O must still be build-invariant.
            for kind in ("setr", "kcr"):
                for field in (
                    "page_reads",
                    "page_writes",
                    "node_fetches",
                    "buffer_hits",
                ):
                    assert getattr(totals[0][kind], field) == getattr(
                        totals[1][kind], field
                    ), (kind, field)
        else:
            assert totals[0] == totals[1]

    def test_single_shard_is_unsharded_plan(self, euro_small):
        """One shard degenerates to a single tile holding everything."""
        dataset, _ = euro_small
        index = ShardedIndex.build(dataset, 1)
        assert len(index.shards) == 1
        assert len(index.shards[0].dataset) == len(dataset)
