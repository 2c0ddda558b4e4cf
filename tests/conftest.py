"""Shared fixtures.

Index construction over the shared synthetic dataset is the expensive
part of the suite, so the dataset, oracle, and both trees are
session-scoped.  Tests that mutate buffer state must go through
``engine.reset_buffers()`` (metrics) — the structures themselves are
immutable after build.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import (
    AdvancedAlgorithm,
    BasicAlgorithm,
    KcRAlgorithm,
    Oracle,
    SpatialKeywordQuery,
    TopKSearcher,
    WhyNotEngine,
    WhyNotQuestion,
    make_euro_like,
    make_micro_example,
)


@pytest.fixture(scope="session", autouse=True)
def _sanitize_built_trees():
    """Opt-in invariant sanitizing: ``REPRO_SANITIZE=1 pytest ...``.

    Every tree bulk-loaded anywhere in the suite is validated with
    :func:`repro.analysis.check_tree` immediately after construction;
    a violation fails the constructing test with the full report.
    Off by default — the walk is a full-tree scan per build.  (Tests
    that deliberately corrupt trees do so after construction, so this
    hook never sees the damage.)
    """
    if not os.environ.get("REPRO_SANITIZE"):
        yield
        return
    from repro.analysis import check_tree
    from repro.index.rtree import RTreeBase

    original_build = RTreeBase._build

    def checked_build(self):
        original_build(self)
        check_tree(self).raise_if_violations()

    RTreeBase._build = checked_build
    try:
        yield
    finally:
        RTreeBase._build = original_build


@pytest.fixture(scope="session", autouse=True)
def _inject_storage_faults():
    """Opt-in chaos mode: ``REPRO_FAULTS=1 pytest ...``.

    When ``REPRO_FAULTS`` selects a schedule (see
    :func:`repro.storage.FaultInjector.from_env`), every buffer pool
    created anywhere in the suite without an explicit injector gets a
    deterministic fork of one root injector, so the whole suite runs
    against faulty storage.  With the default ``transient`` preset the
    pool's bounded retries absorb every fault and the suite must pass
    unchanged; harsher presets exercise the degraded paths.  Pools
    built with ``faults=...`` (the fault tests themselves) keep their
    own injectors.
    """
    from repro.storage.faults import FaultInjector

    root = FaultInjector.from_env()
    if root is None:
        yield
        return
    from repro.storage.buffer_pool import BufferPool

    original_create = BufferPool.create.__func__

    def faulted_create(cls, **kwargs):
        if kwargs.get("faults") is None:
            kwargs["faults"] = root.fork_fresh()
        return original_create(cls, **kwargs)

    BufferPool.create = classmethod(faulted_create)
    try:
        yield
    finally:
        BufferPool.create = classmethod(original_create)


@pytest.fixture(scope="session")
def micro():
    """The paper's Fig 1 / Table I four-object example."""
    dataset, vocabulary = make_micro_example()
    return dataset, vocabulary


@pytest.fixture(scope="session")
def euro_small():
    """A small EURO-like dataset shared across the suite."""
    dataset, vocabulary = make_euro_like(1200, seed=42)
    return dataset, vocabulary


@pytest.fixture(scope="session")
def euro_engine(euro_small):
    dataset, _ = euro_small
    return WhyNotEngine(dataset)


class RawTreeReference:
    """Top-k, BS, AdvancedBS and KcRBased run straight on one raw tree.

    The engine reaches every tree through the shard fan-out (its
    default is one tile), so an engine-vs-engine comparison would share
    that code.  Shard-count parity is checked against this instead.
    """

    def __init__(self, engine: WhyNotEngine) -> None:
        self.engine = engine

    def top_k(self, query):
        return TopKSearcher(self.engine.setr_tree, self.engine.model).top_k(query)

    def answer(self, question, method):
        model = self.engine.model
        if method == "kcr":
            return KcRAlgorithm(self.engine.kcr_tree, model).answer(question)
        algorithm = BasicAlgorithm if method == "basic" else AdvancedAlgorithm
        return algorithm(self.engine.setr_tree, model).answer(question)


@pytest.fixture(scope="session")
def euro_reference(euro_engine):
    return RawTreeReference(euro_engine)


@pytest.fixture(scope="session")
def euro_oracle(euro_small):
    dataset, _ = euro_small
    return Oracle(dataset)


@pytest.fixture(scope="session")
def euro_cases(euro_small, euro_oracle):
    """A handful of valid why-not questions over the shared dataset."""
    dataset, _ = euro_small
    rng = np.random.default_rng(7)
    cases = []
    attempts = 0
    while len(cases) < 6 and attempts < 500:
        attempts += 1
        seed_obj = dataset.objects[int(rng.integers(0, len(dataset)))]
        doc = frozenset(list(seed_obj.doc)[:3])
        if len(doc) < 2:
            continue
        query = SpatialKeywordQuery(loc=seed_obj.loc, doc=doc, k=5, alpha=0.5)
        try:
            missing = euro_oracle.object_at_rank(query, 26)
        except ValueError:
            continue
        if len(dataset.get(missing).doc - query.doc) > 5:
            continue
        cases.append(WhyNotQuestion(query, (missing,), lam=0.5))
    assert len(cases) == 6, "fixture could not build its workload"
    return cases
