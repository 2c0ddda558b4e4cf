"""Same seed, same work; another seed, another op list.

Each workload runs at a small scale: one untraced pass and two traced
passes at one seed.  The op lists, the answers and every work count
(I/O snapshot deltas, search counters, wrapper call counts such as
candidate enumeration, bound calls, buffer fetches and shard round
trips) must repeat exactly, and tracing must not change the work.
Another seed reorders the timed ops (and draws other warm-up
questions) but times the same questions and writes.
"""

import pytest

from wnbench.ops import WRITE_KINDS
from wnbench.runner import run_pass
from wnbench.tracer import Recorder, traced
from wnbench.workloads import WORKLOADS, Scale

SMALL = Scale(n_objects=1200, blocks=1, warm_blocks=1)
SEED = 5


def small_scale(name):
    if name == "served-sharded":
        return Scale(n_objects=1200, blocks=2, warm_blocks=1)
    return SMALL


def traced_pass(name, seed):
    recorder = Recorder()
    with traced(recorder):
        return run_pass(name, seed, small_scale(name), recorder)


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def passes(request):
    name = request.param
    return name, run_pass(name, SEED, small_scale(name)), traced_pass(name, SEED), \
        traced_pass(name, SEED)


def test_passes_are_correct(passes):
    name, plain, first, second = passes
    assert plain.errors == [] and first.errors == [] and second.errors == []
    assert plain.timed, name


def test_same_seed_repeats_ops_and_work(passes):
    name, _, first, second = passes
    assert [r.op.fingerprint() for r in first.timed] == \
        [r.op.fingerprint() for r in second.timed]
    assert first.work() == second.work()
    assert first.layer_work() == second.layer_work()


def test_layer_counts_are_recorded(passes):
    name, _, first, _ = passes
    layers = set()
    for res in first.timed:
        layers |= set(res.trace.layers)
    assert {"core.engine", "storage.buffer.fetch", "index.search.topk"} <= layers
    if name == "served-sharded":
        assert "index.sharded.request" in layers
    else:
        assert "core.bounds" in layers
    if name == "merchant-churn":
        assert {"index.mutate.setr", "index.mutate.kcr"} <= layers


def test_tracing_changes_no_work(passes):
    name, plain, first, _ = passes
    assert plain.work() == first.work()
    assert all(res.trace is None for res in plain.timed)


def test_other_seed_changes_op_list():
    for name, cls in WORKLOADS.items():
        fingerprints = []
        for seed in (SEED, SEED + 1):
            workload = cls(seed, small_scale(name))
            try:
                workload.setup()
                warm, timed = workload.make_ops()
            finally:
                workload.close()
            fingerprints.append([op.fingerprint() for op in warm + timed])
        assert fingerprints[0] != fingerprints[1], name


def _inputs(name, seed):
    workload = WORKLOADS[name](seed, small_scale(name))
    try:
        workload.setup()
        _, timed = workload.make_ops()
    finally:
        workload.close()
    return timed


def test_other_seed_reorders_the_same_timed_inputs():
    for name in ("whynot-direct", "served-sharded"):
        first, second = (_inputs(name, seed) for seed in (SEED, SEED + 1))
        inputs = [sorted(repr(op.fingerprint()[4:6]) for op in ops)
                  for ops in (first, second)]
        assert inputs[0] == inputs[1], name
        assert [op.fingerprint() for op in first] != [op.fingerprint() for op in second]


def test_churn_writes_repeat_across_seeds():
    writes = [[op.fingerprint()[6] for op in _inputs("merchant-churn", seed)
               if op.kind in WRITE_KINDS] for seed in (SEED, SEED + 1)]
    assert writes[0] and writes[0] == writes[1]
