"""The three workloads: set-up, seeded op lists, execution and checks.

whynot-direct
    The paper's own evaluation: one in-process caller over an unsharded
    engine on euro-like (clustered) data, with the default 25% buffer
    policy so the SetR-tree does not fit its pool.  Every question of
    the Table III sweep is issued as its initial top-k, then
    ``advanced``, then ``kcr``.
served-sharded
    ``WhyNotServer`` over a 4-shard ``simulate`` engine on gn-like
    (near-uniform) data with the paper's absolute 4 MB pool, so each
    shard fits.  Two client sessions run refinement dialogues in a
    closed loop: top-k, ``advanced`` re-asked at three λ (the session
    dominator cache is reused), then ``kcr``.  The only workload where
    admission, sessions and shard fan-out work.
merchant-churn
    One caller over an unsharded euro-like engine with writes
    (``update_keywords``, ``insert``, ``remove``) at a third of the ops,
    interleaved with top-k, ``advanced`` and fewer ``kcr`` reads.  The
    only workload with index mutation and page writes.

Every run builds the same dataset (``DATASET_SEED``) and times the same
questions and writes, drawn from ``DATASET_SEED`` too: a run of a few
dozen questions per class samples the Table III sweep too thinly for
its medians to repeat from one draw to the next, so the timed inputs
are one fixed draw.  ``--seed`` draws the warm-up questions and the
order of the timed ops: which question comes when, which session asks
it, the order of a dialogue's λ and where the writes fall among the
reads.  Each run replays its op list to completion, so the work (and
every count) repeats exactly for one seed.  The list is a number of
sweep blocks fixed by the requested run length (``block_seconds``).
"""

from __future__ import annotations

import asyncio
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import WhyNotEngine
from repro.data import synthetic
from repro.experiments.workload import WorkloadGenerator
from repro.model.objects import Dataset, SpatialObject
from repro.model.oracle import Oracle
from repro.model.query import WhyNotQuestion
from repro.serve.server import WhyNotServer
from repro.storage.stats import IOSnapshot

from . import ops as oplib
from .ops import READ_KINDS, WHYNOT_KINDS, WRITE_KINDS, Op, draw_question
from .tracer import OpTrace, Recorder
from .verify import Checker

perf = time.perf_counter

DATASET_SEED = 2016


@dataclass
class OpResult:
    """What one op returned and what it cost."""

    op: Op
    latency_s: float
    status: str
    result: Any = None
    io: Optional[Dict[str, int]] = None
    trace: Optional[OpTrace] = None
    error: str = ""
    wait_s: Optional[float] = None  # served: call to engine entry (traced)

    def counters(self) -> Optional[Dict[str, int]]:
        counters = getattr(self.result, "counters", None)
        return None if counters is None else dict(vars(counters))

    def summary(self) -> Any:
        """The answer in a comparable form."""
        if self.result is None:
            return None
        if self.op.kind == "topk":
            return [[score, oid] for score, oid in self.result]
        if self.op.kind in WHYNOT_KINDS:
            refined = self.result.refined
            return {"keywords": sorted(refined.keywords), "k": refined.k,
                    "rank": refined.rank, "penalty": refined.penalty,
                    "initial_rank": self.result.initial_rank}
        return None


def io_dict(snapshot: IOSnapshot) -> Dict[str, int]:
    return {"fetches": snapshot.node_fetches, "page_reads": snapshot.page_reads,
            "page_writes": snapshot.page_writes, "hits": snapshot.buffer_hits}


def io_sub(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before[key] for key in after}


@dataclass
class Scale:
    """Sizes of one run; the defaults are the benchmark's."""

    n_objects: int = 8000
    blocks: int = 2
    warm_blocks: int = 1


#: A problem the checks found: the id of the op it makes wrong (None
#: when no single op is to blame) and a message.
Problem = Tuple[Optional[int], str]


def status_problem(res: OpResult) -> Optional[Problem]:
    if res.status == "ok":
        return None
    op = res.op
    return op.op_id, f"op {op.op_id} ({op.kind}): status {res.status} {res.error}"


def check_ops(checker: Checker, results: Sequence[OpResult]) -> List[Problem]:
    """Check reads against one dataset state; one entry per problem.

    ``advanced`` and ``kcr`` answers to one question that disagree on
    the penalty make every op of the comparison wrong."""
    errors: List[Problem] = []
    penalties: Dict[Tuple[int, float], List[Tuple[int, str, float]]] = {}
    for res in results:
        op = res.op
        failed = status_problem(res)
        if failed:
            errors.append(failed)
            continue
        problem = None
        if op.kind == "topk":
            problem = checker.top_k(op.query, res.result)
        elif op.kind in WHYNOT_KINDS:
            problem = checker.why_not(op.question, res.result)
            penalties.setdefault((op.group, op.question.lam), []).append(
                (op.op_id, op.kind, res.result.refined.penalty))
        if problem:
            errors.append((op.op_id, f"op {op.op_id} ({op.kind}): {problem}"))
    for key, group in sorted(penalties.items()):
        if len({penalty for _, _, penalty in group}) > 1:
            errors += [(op_id, f"question {key}: penalties differ: {group}")
                       for op_id, _, _ in group]
    return errors


class Workload:
    """One run pass of one workload: set-up, op list, replay, check."""

    name: str
    #: Seconds of measured work one sweep block is sized to take.
    block_seconds: float

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale
        self.engine: Optional[WhyNotEngine] = None
        self.dataset: Optional[Dataset] = None

    @classmethod
    def scale_for(cls, seconds: float) -> Scale:
        return Scale(blocks=max(1, int(round(seconds / cls.block_seconds))))

    def rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def generator(self, dataset: Dataset, stream: int, fixed: bool = False
                  ) -> WorkloadGenerator:
        """The program's question generator, seeded from ``--seed`` (or
        from ``DATASET_SEED`` when ``fixed``)."""
        seed = DATASET_SEED if fixed else self.seed
        state = np.random.SeedSequence([seed, stream]).generate_state(1)
        return WorkloadGenerator(dataset, seed=int(state[0]))

    def setup(self) -> None:
        """Build everything the workload serves, ready to answer."""
        raise NotImplementedError

    def teardown(self) -> None:
        self.engine = None
        self.dataset = None

    def close(self) -> None:
        self.teardown()

    def make_ops(self) -> Tuple[List[Op], List[Op]]:
        """The warm-up ops and the timed ops."""
        raise NotImplementedError

    def execute(self, ops: Sequence[Op],
                recorder: Optional[Recorder]) -> Tuple[List[OpResult], float]:
        """Replay ``ops``; returns their results and the wall time."""
        raise NotImplementedError

    def io_totals(self) -> Dict[str, int]:
        raise NotImplementedError

    def serve_counts(self) -> Dict[str, int]:
        return {}

    def verify(self, results: Sequence[OpResult]) -> List[Problem]:
        return check_ops(Checker(self.dataset), results)


# ----------------------------------------------------------------------
class WhyNotDirect(Workload):
    name = "whynot-direct"
    block_seconds = 10.0
    GRID = dict(k0s=(5, 10, 20), n_missings=(1, 2, 3), lams=(0.3, 0.5, 0.7),
                n_keywords=(3, 4, 5, 6))
    WARM_QUESTIONS = 9

    def setup(self) -> None:
        dataset, _ = synthetic.make_euro_like(self.scale.n_objects, seed=DATASET_SEED)
        engine = WhyNotEngine(dataset)
        engine.setr_tree
        engine.kcr_tree
        self.dataset, self.engine = dataset, engine
        self.initial = tuple(dataset.objects)

    def make_ops(self) -> Tuple[List[Op], List[Op]]:
        order = self.rng(2)
        warm = oplib.shuffled(order, oplib.sweep(**self.GRID, blocks=self.scale.warm_blocks))
        warm = oplib.draw_all(self.generator(self.dataset, 1), warm[:self.WARM_QUESTIONS])
        timed = oplib.draw_all(self.generator(self.dataset, 1, fixed=True),
                               oplib.sweep(**self.GRID, blocks=self.scale.blocks))
        lists, group = [], 0
        for questions in (warm, oplib.shuffled(order, timed)):
            ops: List[Op] = []
            for spec, question in questions:
                ops += [oplib.question_op(kind, group, spec.params(), question)
                        for kind in READ_KINDS]
                group += 1
            lists.append(oplib.renumber(ops))
        return lists[0], lists[1]

    def io_totals(self) -> Dict[str, int]:
        engine = self.engine
        return io_dict(engine.setr_tree.stats.snapshot() + engine.kcr_tree.stats.snapshot())

    def _call(self, op: Op) -> Any:
        engine = self.engine
        if op.kind == "topk":
            return engine.run_top_k(op.query)
        if op.kind in WHYNOT_KINDS:
            return engine.answer(op.question, op.kind)
        if op.kind == "update":
            return engine.update_keywords(op.obj.oid, op.obj.doc)
        if op.kind == "insert":
            return engine.insert(op.obj)
        return engine.remove(op.obj.oid)

    def execute(self, ops, recorder):
        results = []
        started = perf()
        for op in ops:
            trace = OpTrace() if recorder is not None else None
            before = self.io_totals()
            error = ""
            with recorder.bound(trace) if recorder is not None else nullcontext():
                begin = perf()
                try:
                    out = self._call(op)
                except Exception as exc:  # a failed op is a result, not a crash
                    out, error = None, f"{type(exc).__name__}: {exc}"
                latency = perf() - begin
            io = io_sub(self.io_totals(), before)
            if error:
                status = "failed"
            else:
                status = "degraded" if getattr(out, "degraded", False) else "ok"
            if op.kind == "topk" and out is not None:
                out = out.results
            results.append(OpResult(op, latency, status, out, io, trace, error))
        return results, perf() - started


# ----------------------------------------------------------------------
class MerchantChurn(WhyNotDirect):
    name = "merchant-churn"
    block_seconds = 1.3
    GRID = dict(k0s=(5, 10, 20), n_missings=(1, 2), lams=(0.3, 0.5, 0.7),
                n_keywords=(3, 4, 5))
    #: One block: six questions (three also asked with kcr) and seven
    #: writes, so writes are a third of the ops.
    QUESTIONS = 6
    KCR_QUESTIONS = 3
    WRITES = ("update", "update", "update", "insert", "insert", "remove", "remove")
    #: The stream of ``DATASET_SEED`` the writes come from.  In about a
    #: third of the streams one write condenses away an internal node and
    #: reinserts its whole subtree object by object (~6.7k objects, ~87k
    #: page writes); this one does so at its 80th write, inside the timed
    #: phase, so every run pays that cost once.
    WRITE_STREAM = 5

    def make_ops(self) -> Tuple[List[Op], List[Op]]:
        """Writes are applied to a shadow copy as they are generated;
        only POIs the workload inserted are ever removed.

        A block's questions are drawn against the data at the block's
        start, and its writes are made in a fixed order; ``--seed`` only
        places the writes among the reads.  The indexes then pass
        through the same states in every run, so a write whose cost
        depends on the tree's history (a condense that reinserts a whole
        subtree) costs the same in every run instead of landing in some
        seeds only.  A question that the block's earlier writes made
        invalid (a missing object removed, or now in the top-k) is
        re-drawn, seeded, against the data it will meet."""
        rng = self.rng(1)
        fixed = np.random.default_rng([DATASET_SEED, self.WRITE_STREAM])
        shadow = Dataset(self.initial, diagonal=self.dataset.diagonal, name="shadow")
        terms = np.array(sorted(shadow.doc_frequency), dtype=np.int64)
        probs = np.array([shadow.frequency(int(t)) for t in terms], dtype=np.float64)
        probs /= probs.sum()

        def doc() -> frozenset:
            size = int(fixed.integers(2, 9))
            return frozenset(int(t) for t in fixed.choice(terms, size=size, replace=False,
                                                            p=probs))

        originals = [o.oid for o in self.initial]
        next_oid = max(originals) + 1
        inserted: List[int] = []
        n_questions = self.QUESTIONS * (self.scale.warm_blocks + self.scale.blocks)
        cells = len(oplib.sweep(**self.GRID, blocks=1))
        specs = oplib.shuffled(fixed, oplib.sweep(**self.GRID,
                                                  blocks=math.ceil(n_questions / cells)))
        lists: List[List[Op]] = []
        group = version = 0
        for n_blocks in (self.scale.warm_blocks, self.scale.blocks):
            ops: List[Op] = []
            for _ in range(n_blocks):
                generator = WorkloadGenerator(shadow, seed=int(fixed.integers(2 ** 32)))
                questions = iter([(spec, draw_question(generator, spec),
                                   index < self.KCR_QUESTIONS)
                                  for index, spec in enumerate(specs[:self.QUESTIONS])])
                del specs[:self.QUESTIONS]
                kinds = iter(oplib.shuffled(fixed, self.WRITES))
                slots = ["q"] * self.QUESTIONS + ["w"] * len(self.WRITES)
                block_version = version
                for slot in oplib.shuffled(rng, slots):
                    if slot == "q":
                        spec, question, with_kcr = next(questions)
                        if version != block_version and not self._valid(shadow, question):
                            generator = WorkloadGenerator(shadow,
                                                          seed=int(rng.integers(2 ** 32)))
                            question = draw_question(generator, spec)
                        reads = READ_KINDS if with_kcr else ("topk", "advanced")
                        ops += [oplib.question_op(kind, group, spec.params(), question,
                                                  version=version) for kind in reads]
                        group += 1
                        continue
                    kind = next(kinds)
                    if kind == "remove" and not inserted:
                        kind = "insert"
                    if kind == "update":
                        oid = originals[int(fixed.integers(0, len(originals)))]
                        obj = SpatialObject(oid=oid, loc=shadow.get(oid).loc, doc=doc())
                        shadow.remove(oid)
                        shadow.add(obj)
                    elif kind == "insert":
                        anchor = self.initial[int(fixed.integers(0, len(self.initial)))]
                        jitter = fixed.normal(0.0, 0.01, size=2)
                        loc = (float(min(1.0, max(0.0, anchor.loc[0] + jitter[0]))),
                               float(min(1.0, max(0.0, anchor.loc[1] + jitter[1]))))
                        obj = SpatialObject(oid=next_oid, loc=loc, doc=doc())
                        next_oid += 1
                        inserted.append(obj.oid)
                        shadow.add(obj)
                    else:
                        obj = shadow.remove(
                            inserted.pop(int(fixed.integers(0, len(inserted)))))
                    ops.append(Op(0, kind, -1, params={"oid": obj.oid}, obj=obj,
                                  version=version))
                    version += 1
            lists.append(oplib.renumber(ops))
        return lists[0], lists[1]

    @staticmethod
    def _valid(dataset: Dataset, question: WhyNotQuestion) -> bool:
        if any(oid not in dataset for oid in question.missing):
            return False
        rank = Oracle(dataset).rank_of_set(question.missing, question.query)
        return rank > question.query.k

    def verify(self, results: Sequence[OpResult]) -> List[Problem]:
        """Replay the writes on a copy; check each read at its version."""
        shadow = Dataset(self.initial, diagonal=self.dataset.diagonal, name="replay")
        errors: List[Problem] = []
        reads: List[OpResult] = []
        for res in list(results) + [None]:
            if res is not None and res.op.kind not in WRITE_KINDS:
                reads.append(res)
                continue
            if reads:
                errors += check_ops(Checker(shadow), reads)
                reads = []
            if res is None:
                break
            op = res.op
            problem = status_problem(res)
            if problem:
                errors.append(problem)
            if op.kind != "insert":
                shadow.remove(op.obj.oid)
            if op.kind != "remove":
                shadow.add(op.obj)

        def content(dataset: Dataset) -> List[Tuple]:
            return sorted((o.oid, o.loc, tuple(sorted(o.doc))) for o in dataset)

        if content(self.engine.dataset) != content(shadow):
            errors.append((None, "engine dataset differs from the replayed writes"))
        return errors


# ----------------------------------------------------------------------
class ServedSharded(Workload):
    name = "served-sharded"
    block_seconds = 1.43
    GRID = dict(k0s=(5, 10, 20), n_missings=(1, 2), lams=(0.5,), n_keywords=(2, 3, 4))
    WARM_DIALOGUES = 4
    SESSIONS = ("client-a", "client-b")
    SHARDS = 4
    LAMS = (0.3, 0.5, 0.7)

    def __init__(self, seed: int, scale: Scale) -> None:
        super().__init__(seed, scale)
        self.server: Optional[WhyNotServer] = None
        self.loop = asyncio.new_event_loop()

    def setup(self) -> None:
        async def start() -> None:
            dataset, _ = synthetic.make_gn_like(self.scale.n_objects, seed=DATASET_SEED)
            engine = WhyNotEngine(dataset, shards=self.SHARDS, shard_mode="simulate",
                                  buffer_fraction=None)
            server = WhyNotServer(engine)
            await server.start()
            self.dataset, self.engine, self.server = dataset, engine, server

        self.loop.run_until_complete(start())

    def teardown(self) -> None:
        if self.server is not None:
            self.loop.run_until_complete(self.server.stop())
            self.engine.close()
            self.server = None
        super().teardown()

    def close(self) -> None:
        self.teardown()
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()

    def make_ops(self) -> Tuple[List[Op], List[Op]]:
        """Dialogues, dealt alternately to the two client sessions: a
        top-k, ``advanced`` at each λ in a seeded order, then ``kcr``
        (at the λ the dialogue's place in the fixed draw gives)."""
        order = self.rng(2)
        warm = oplib.shuffled(order, oplib.sweep(**self.GRID, blocks=self.scale.warm_blocks))
        warm = oplib.draw_all(self.generator(self.dataset, 1), warm[:self.WARM_DIALOGUES])
        timed = oplib.draw_all(self.generator(self.dataset, 1, fixed=True),
                               oplib.sweep(**self.GRID, blocks=self.scale.blocks))
        lists, group = [], 0
        for questions in (warm, timed):
            dialogues = [(spec, question, self.LAMS[index % len(self.LAMS)])
                         for index, (spec, question) in enumerate(questions)]
            ops: List[Op] = []
            for index, (spec, question, kcr_lam) in enumerate(
                    oplib.shuffled(order, dialogues)):
                session = self.SESSIONS[index % len(self.SESSIONS)]
                ops.append(oplib.question_op("topk", group, spec.params(), question, session))
                for lam in oplib.shuffled(order, self.LAMS):
                    ops.append(oplib.question_op("advanced", group, spec.params(), question,
                                                 session, lam=lam))
                ops.append(oplib.question_op("kcr", group, spec.params(), question, session,
                                             lam=kcr_lam))
                group += 1
            lists.append(oplib.renumber(ops))
        return lists[0], lists[1]

    def execute(self, ops, recorder):
        server = self.server
        results: Dict[int, OpResult] = {}

        async def client(session_ops: List[Op]) -> None:
            for op in session_ops:
                trace = None
                if recorder is not None:
                    trace = OpTrace()
                    recorder.bind_object(op.query if op.kind == "topk" else op.question,
                                         trace)
                begin = perf()
                if op.kind == "topk":
                    response = await server.top_k(op.session, op.query)
                else:
                    response = await server.why_not(op.session, op.question,
                                                    method=op.kind)
                latency = perf() - begin
                out, io = response.result, None
                if op.kind == "topk":
                    out = None if out is None else out.results
                elif out is not None:
                    io = io_dict(out.io)
                res = OpResult(op, latency, response.status, out, io, trace,
                               response.reason)
                if trace is not None and trace.engine_start is not None:
                    res.wait_s = trace.engine_start - begin
                results[op.op_id] = res

        async def main() -> float:
            started = perf()
            await asyncio.gather(*(client([op for op in ops if op.session == session])
                                   for session in self.SESSIONS))
            return perf() - started

        wall = self.loop.run_until_complete(main())
        return [results[op.op_id] for op in ops], wall

    def io_totals(self) -> Dict[str, int]:
        index = self.engine.sharded_index
        return io_dict(index.ledger_total("setr") + index.ledger_total("kcr"))

    def serve_counts(self) -> Dict[str, int]:
        admission = self.server.admission
        return {"offered": admission.offered, "shed": admission.shed,
                "cache_hits": self.server.sessions.snapshot()["cache_hits"]}


WORKLOADS = {cls.name: cls for cls in (WhyNotDirect, ServedSharded, MerchantChurn)}
