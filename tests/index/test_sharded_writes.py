"""Writes on the sharded index: the merchant loop at any shard count.

``insert``/``remove``/``update_keywords`` route to the owning STR tile
and mutate that tile's built trees.  A seeded, merchant-churn-shaped
sequence — a third writes, the rest top-k, AdvancedBS and KcRBased
reads — must give oracle-exact answers at one and four shards, in both
execution modes, and leave every shard tree structurally valid.  Tree
validity is checked in ``simulate`` mode, where the trees live in this
process; ``process`` workers own theirs.

A storage fault in the middle of a write quarantines only that tree:
later answers that read its kind are flagged ``degraded`` and stay
exact, and :meth:`WhyNotEngine.recover` brings the tree back.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest

from repro import (
    Dataset,
    Oracle,
    SpatialKeywordQuery,
    SpatialObject,
    WhyNotEngine,
    WhyNotQuestion,
    make_euro_like,
)
from repro.analysis.sanitize import check_tree
from repro.core.degraded import ScanFallback

SIZE = 500
N_OPS = 36
READS = ("topk", "advanced", "kcr")


def _world() -> Dataset:
    dataset, _ = make_euro_like(SIZE, seed=29)
    return dataset


def _copy(dataset: Dataset) -> Dataset:
    return Dataset(list(dataset.objects), diagonal=dataset.diagonal)


def _read(rng, shadow: Dataset, kind: str) -> Tuple:
    """A top-k query or a why-not question over the current state."""
    oracle = Oracle(shadow)
    while True:
        seed_obj = shadow.objects[int(rng.integers(0, len(shadow)))]
        doc = frozenset(sorted(seed_obj.doc)[:3])
        if len(doc) < 2:
            continue
        query = SpatialKeywordQuery(loc=seed_obj.loc, doc=doc, k=5)
        if kind == "topk":
            return ("topk", query)
        missing = oracle.object_at_rank(query, int(rng.integers(8, 16)))
        if len(shadow.get(missing).doc - query.doc) <= 3:
            return (kind, WhyNotQuestion(query, (missing,), lam=0.5))


def _write(rng, shadow: Dataset, next_oid: int) -> Tuple:
    """An update, insert or remove, applied to ``shadow`` as well."""
    kind = ("update", "insert", "remove")[int(rng.integers(0, 3))]
    if kind == "insert":
        anchor = shadow.objects[int(rng.integers(0, len(shadow)))]
        donor = shadow.objects[int(rng.integers(0, len(shadow)))]
        jitter = rng.normal(0.0, 0.01, size=2)
        obj = SpatialObject(
            oid=next_oid,
            loc=(anchor.loc[0] + float(jitter[0]), anchor.loc[1] + float(jitter[1])),
            doc=donor.doc,
        )
        shadow.add(obj)
        return ("insert", obj)
    victim = shadow.objects[int(rng.integers(0, len(shadow)))]
    shadow.remove(victim.oid)
    if kind == "remove":
        return ("remove", victim.oid)
    donor = shadow.objects[int(rng.integers(0, len(shadow)))]
    shadow.add(SpatialObject(oid=victim.oid, loc=victim.loc, doc=donor.doc))
    return ("update", victim.oid, donor.doc)


def churn_ops(seed: int = 5) -> List[Tuple]:
    """The seeded op list, drawn against a shadow dataset."""
    rng = np.random.default_rng(seed)
    shadow = _copy(_world())
    next_oid = max(obj.oid for obj in shadow.objects) + 1
    ops: List[Tuple] = []
    for i in range(N_OPS):
        if i % 3 == 2:
            ops.append(_write(rng, shadow, next_oid))
            next_oid += 1
        else:
            ops.append(_read(rng, shadow, READS[(i - i // 3) % 3]))
    return ops


def apply_write(engine: WhyNotEngine, op: Tuple) -> None:
    if op[0] == "insert":
        engine.insert(op[1])
    elif op[0] == "remove":
        engine.remove(op[1])
    else:
        engine.update_keywords(op[1], op[2])


def assert_exact(engine: WhyNotEngine, op: Tuple) -> bool:
    """Check one read against the oracle; return its degraded flag."""
    oracle = Oracle(engine.dataset)
    if op[0] == "topk":
        query = op[1]
        outcome = engine.run_top_k(query)
        scores = oracle.scores(query)
        rows = {obj.oid: i for i, obj in enumerate(engine.dataset.objects)}
        assert [oid for _, oid in outcome.results] == oracle.top_k_ids(query)
        assert [s for s, _ in outcome.results] == [
            float(scores[rows[oid]]) for _, oid in outcome.results
        ]
        return outcome.degraded
    question = op[1]
    answer = engine.answer(question, method=op[0])
    missing, query = question.missing, question.query
    assert answer.initial_rank == oracle.rank_of_set(missing, query)
    refined = answer.refined
    assert refined.rank == oracle.rank_of_set(
        missing, query, keywords=refined.keywords
    )
    exact = ScanFallback(engine.dataset).answer(question).refined
    assert refined.penalty == pytest.approx(exact.penalty, abs=1e-12)
    return answer.degraded


@pytest.fixture(scope="module")
def ops():
    return churn_ops()


@pytest.mark.parametrize("mode", ["simulate", "process"])
@pytest.mark.parametrize("shards", [1, 4])
def test_churn_matches_oracle(ops, shards, mode):
    engine = WhyNotEngine(_copy(_world()), shards=shards, shard_mode=mode)
    try:
        kinds = {op[0] for op in ops}
        assert {"topk", "advanced", "kcr", "update", "insert", "remove"} <= kinds
        for op in ops:
            if op[0] in ("topk", "advanced", "kcr"):
                assert not assert_exact(engine, op), op
            else:
                apply_write(engine, op)
        index = engine.sharded_index
        assert sum(len(shard.dataset) for shard in index.shards) == len(
            engine.dataset
        )
        for shard in index.shards:
            for obj in shard.dataset:
                assert index.plan.tile_of(obj.loc) == shard.tid
                assert shard.rect.contains_point(obj.loc)
            for _, tree in shard.trees():
                check_tree(tree).raise_if_violations()
        if mode == "simulate":
            assert all(shard.trees() for shard in index.shards)
    finally:
        engine.close()


@pytest.mark.parametrize("shards", [1, 4])
def test_fault_mid_write_quarantines_one_tree(shards):
    engine = WhyNotEngine(_copy(_world()), shards=shards)
    index = engine.sharded_index
    rng = np.random.default_rng(17)
    reads = [_read(rng, engine.dataset, kind) for kind in READS * 2]
    for op in reads[:3]:
        assert_exact(engine, op)  # builds both kinds everywhere
    donor = engine.dataset.objects[0]
    obj = SpatialObject(oid=10**6, loc=donor.loc, doc=donor.doc)
    shard = index.shards[index.plan.tile_of(obj.loc)]
    tree = shard.built_tree("setr")
    tree.reset_buffer()
    # Rot the root record: the insert's descent reads it after the
    # object's document record has already been written.
    tree.buffer.pager._records[tree.root_id].stored_checksum ^= 0xFFFFFFFF
    engine.insert(obj)
    unit = f"shard-{shard.tid}:setr"
    assert list(engine.quarantined) == [unit]
    assert engine.quarantined[unit][0].operation == f"insert:{obj.oid}"
    assert obj.oid in shard.dataset
    for op in reads:
        degraded = assert_exact(engine, op)
        assert degraded == (op[0] != "kcr"), op
    assert [event.tree for event in engine.recover()] == [unit]
    for op in reads:
        assert not assert_exact(engine, op), op
    for _, rebuilt in shard.trees():
        check_tree(rebuilt).raise_if_violations()


@pytest.mark.parametrize("mode", ["simulate", "process"])
def test_tile_empties_and_refills(mode):
    """Removing a tile's last object drops its trees; the next insert
    into the tile builds them afresh."""
    engine = WhyNotEngine(_copy(_world()), shards=4, shard_mode=mode)
    try:
        index = engine.sharded_index
        rng = np.random.default_rng(3)
        reads = [_read(rng, engine.dataset, "topk") for _ in range(3)]
        for op in reads:
            assert not assert_exact(engine, op)
        tile = min(index.shards, key=lambda shard: len(shard.dataset))
        evicted = list(tile.dataset.objects)
        for obj in evicted:
            engine.remove(obj.oid)
        assert tile.is_empty and not tile.trees()
        for op in reads:
            assert not assert_exact(engine, op)
        for obj in evicted:
            engine.insert(obj)
        for op in reads:
            assert not assert_exact(engine, op)
        for _, tree in tile.trees():
            check_tree(tree).raise_if_violations()
    finally:
        engine.close()
