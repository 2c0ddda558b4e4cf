"""Generic forward worklist dataflow solver over :mod:`.cfg` graphs.

A client supplies the lattice (``initial`` / ``join`` / equality) and a
per-node ``transfer`` function; the solver iterates to a fixpoint.

Exception-edge policy: the *pre*-state of a node flows along its
exception edges (an exception may fire before the statement's effect
completes — the may-analysis assumption the lifetime checker needs:
``fh.write(...)`` raising mid-call still holds the file).  The
*post*-state flows along normal edges.  Besides the graph's own
exception edges, each node in ``raising`` has one to its recorded
exception target: the client chooses which statements may raise.

The checkers compose this intraprocedural solver with the
:mod:`repro.analysis.callgraph` summaries: each function is solved with
its callees' summaries as inputs, and :func:`solve_summaries` — the one
interprocedural worklist, shared by the flow effect signatures and the
taint summaries — re-solves callers until no summary changes.
"""

from __future__ import annotations

from typing import AbstractSet, Callable, Dict, Iterable, List, Mapping, Optional, TypeVar

from .cfg import CFG, CFGNode

__all__ = ["MAX_ROUNDS", "solve_forward", "solve_summaries"]

S = TypeVar("S")

# The interprocedural iteration bound: at most this many evaluations
# per function, on average, before a solve gives up.
MAX_ROUNDS = 12

# The intraprocedural widening: a node visited this often keeps its state.
MAX_PASSES = 64


def solve_summaries(
    keys: Iterable[str],
    evaluate: Callable[[str], bool],
    callers: Mapping[str, Iterable[str]],
) -> bool:
    """Re-evaluate function summaries to an interprocedural fixpoint.

    Every key starts dirty, in sorted order.  The last dirty key is
    popped and re-evaluated; ``evaluate(key)`` returns whether its
    summary changed, and if it did, every caller of ``key`` becomes
    dirty again.  ``callers`` is read after each evaluation, so an
    ``evaluate`` that discovers its callees may fill it in as it goes.

    Returns ``False`` when the solve stops at the :data:`MAX_ROUNDS`
    bound with keys still dirty (the summaries are then incomplete).
    """
    worklist = sorted(keys)
    dirty = set(worklist)
    budget = MAX_ROUNDS * len(worklist)
    while worklist:
        if budget == 0:
            return False
        budget -= 1
        key = worklist.pop()
        dirty.discard(key)
        if evaluate(key):
            for caller in sorted(callers.get(key, ())):
                if caller not in dirty:
                    dirty.add(caller)
                    worklist.append(caller)
    return True


def solve_forward(
    cfg: CFG,
    transfer: Callable[[CFGNode, S], S],
    join: Callable[[S, S], S],
    initial: Callable[[], S],
    entry_state: Optional[S] = None,
    raising: AbstractSet[int] = frozenset(),
) -> Dict[int, S]:
    """Worklist fixpoint: node -> state-at-entry.

    ``transfer(node, state)`` must be pure (no mutation of ``state``).
    ``join`` must be commutative/associative with ``initial()`` as its
    identity; termination requires the usual finite-height lattice (all
    production clients use finite set unions).  Each node in
    ``raising`` gains an exception edge to its ``exc_target``.
    """
    states: Dict[int, S] = {node.index: initial() for node in cfg.nodes}
    if entry_state is not None:
        states[cfg.entry] = entry_state
    worklist: List[int] = [cfg.entry]
    queued = {cfg.entry}
    # Reachability is tracked separately from state change: with an
    # empty entry state the first propagation is a no-op join, and
    # successors still must be visited once (their transfer runs
    # the checks) before the worklist can quiesce.
    reached = {cfg.entry}
    visits: Dict[int, int] = {}
    while worklist:
        index = worklist.pop(0)
        queued.discard(index)
        visits[index] = visits.get(index, 0) + 1
        if visits[index] > MAX_PASSES:
            continue  # widen by truncation: keep current state
        node = cfg.nodes[index]
        pre = states[index]
        post = transfer(node, pre)
        exc = cfg.exc_succ[index]
        if node.exc_target is not None and index in raising:
            exc = exc | {node.exc_target}
        edges = [(dst, post) for dst in sorted(cfg.succ[index])]
        edges.extend((dst, pre) for dst in sorted(exc))
        for dst, out in edges:
            merged = join(states[dst], out)
            first_touch = dst not in reached
            reached.add(dst)
            if merged != states[dst] or first_touch:
                states[dst] = merged
                if dst not in queued:
                    queued.add(dst)
                    worklist.append(dst)
    return states
