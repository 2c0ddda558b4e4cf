"""Seeded op lists: the inputs every workload replays.

Questions come from the program's own generator,
``repro.experiments.workload.WorkloadGenerator``, which follows the
paper's Section VII-A3: a query is issued from a jittered random
object's location with keywords taken from that object's document
(topped up by document-frequency-weighted terms), and the missing
objects sit just below the initial top-k (one object at the exact rank
``5·k0 + 1``; several objects drawn from ranks ``k0 + 1 .. 5·k0 + 1``).
On top of the generator's per-object cap, the missing objects may
together carry at most ``MAX_ADDED`` keywords outside ``q.doc``.  That
bounds the candidate space ``2^|q.doc ∪ M.doc|`` of every question, so
no single |M| = 3 question costs sixteen times its neighbours and one
run's tail does not hinge on how many such questions its seed drew.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.experiments.workload import WorkloadGenerator
from repro.model.objects import SpatialObject
from repro.model.query import SpatialKeywordQuery, WhyNotQuestion

READ_KINDS = ("topk", "advanced", "kcr")
WHYNOT_KINDS = ("advanced", "kcr")
WRITE_KINDS = ("update", "insert", "remove")

#: Most keywords outside ``q.doc`` the missing objects may carry together.
MAX_ADDED = 2
#: Questions drawn per spec before giving up.
MAX_ATTEMPTS = 5000


@dataclass
class Op:
    """One call the benchmark makes into the program.

    ``group`` ties the ops of one question (or dialogue) together;
    ``version`` counts the writes applied before the op, so the answer
    check can rebuild the dataset the op saw.  Every op owns its
    ``query``/``question`` object: the traced run maps calls back to ops
    by object identity.
    """

    op_id: int
    kind: str
    group: int
    session: str = "main"
    params: Dict[str, Any] = field(default_factory=dict)
    query: Optional[SpatialKeywordQuery] = None
    question: Optional[WhyNotQuestion] = None
    obj: Optional[SpatialObject] = None
    version: int = 0

    def fingerprint(self) -> Tuple:
        """Everything that defines the op's input, for equality checks."""
        query = self.query
        if self.question is not None:
            query = self.question.query
        query_part = None
        if query is not None:
            query_part = (query.loc, tuple(sorted(query.doc)), query.k, query.alpha)
        question_part = None
        if self.question is not None:
            question_part = (self.question.missing, self.question.lam)
        obj_part = None
        if self.obj is not None:
            obj_part = (self.obj.oid, self.obj.loc, tuple(sorted(self.obj.doc)))
        return (self.op_id, self.kind, self.group, self.session,
                query_part, question_part, obj_part, self.version)


@dataclass(frozen=True)
class QuestionSpec:
    """One cell of the Table III parameter sweep."""

    n_keywords: int
    k0: int
    n_missing: int
    lam: float

    def params(self) -> Dict[str, Any]:
        return {"n_keywords": self.n_keywords, "k0": self.k0,
                "n_missing": self.n_missing, "lam": self.lam}


def sweep(k0s: Sequence[int], n_missings: Sequence[int], lams: Sequence[float],
          n_keywords: Sequence[int], blocks: int) -> List[QuestionSpec]:
    """``blocks`` copies of the (k0, |M|, λ) grid, |q.doc| rotating.

    Each block holds every grid cell once, so every run covers the
    sweep in the same proportions and only the drawn questions vary
    with the seed.
    """
    cells = [(k0, m, lam) for k0 in k0s for m in n_missings for lam in lams]
    specs = []
    for block in range(blocks):
        for index, (k0, m, lam) in enumerate(cells):
            nk = n_keywords[(block + index) % len(n_keywords)]
            specs.append(QuestionSpec(nk, k0, m, lam))
    return specs


def draw_question(generator: WorkloadGenerator, spec: QuestionSpec) -> WhyNotQuestion:
    """One question of ``spec`` from the program's own generator,
    re-drawn until the missing objects together add at most
    ``MAX_ADDED`` keywords to ``q.doc`` (``|q.doc|`` is exactly
    ``spec.n_keywords``, so the candidate space tells)."""
    limit = 2 ** (spec.n_keywords + MAX_ADDED)
    for _ in range(MAX_ATTEMPTS):
        case, = generator.generate(1, k0=spec.k0, n_keywords=spec.n_keywords,
                                   n_missing=spec.n_missing, lam=spec.lam,
                                   max_extra_keywords=MAX_ADDED)
        if case.candidate_space <= limit:
            return case.question
    raise RuntimeError(f"no valid question for {spec} in {MAX_ATTEMPTS} draws")


def draw_all(generator: WorkloadGenerator,
             specs: Sequence[QuestionSpec]) -> List[Tuple[QuestionSpec, WhyNotQuestion]]:
    return [(spec, draw_question(generator, spec)) for spec in specs]


def fresh_question(question: WhyNotQuestion,
                   lam: Optional[float] = None) -> WhyNotQuestion:
    """An equal but distinct question (ops own their inputs), at ``lam``."""
    query = question.query
    return WhyNotQuestion(
        SpatialKeywordQuery(loc=query.loc, doc=query.doc, k=query.k, alpha=query.alpha),
        question.missing, lam=question.lam if lam is None else lam)


def question_op(kind: str, group: int, params: Dict[str, Any],
                question: WhyNotQuestion, session: str = "main",
                version: int = 0, lam: Optional[float] = None) -> Op:
    """A top-k or why-not op over its own copy of ``question``
    (re-asked at ``lam`` when given)."""
    copy = fresh_question(question, lam)
    op = Op(0, kind, group, session, dict(params, lam=copy.lam), version=version)
    if kind == "topk":
        op.query = copy.query
    else:
        op.question = copy
    return op


def shuffled(rng: np.random.Generator, items: Sequence[Any]) -> List[Any]:
    order = rng.permutation(len(items))
    return [items[int(i)] for i in order]


def renumber(ops: List[Op]) -> List[Op]:
    for index, op in enumerate(ops):
        op.op_id = index
    return ops
