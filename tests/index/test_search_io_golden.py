"""Rank search and top-k answers, and their I/O, pinned to a golden.

``tests/golden/search_io.json`` holds, for a seeded list of calls, each
call's answer and its ``IOSnapshot`` delta.  Every list runs on a warm
buffer pool, so the golden also pins the cache state one call leaves
for the next.  The calls cover:

* two worlds, a euro-like dataset on small pages (so a leaf's
  keyword sets span several pages) and a tie-heavy grid world whose
  object ids are shuffled against their positions;
* both trees (SetR and KcR) and all three similarity models;
* per (world, tree, model): 40 ``rank_of_missing`` calls with
  ``stop_limit`` cycling through ``None``, ``1`` and the exact
  dominator count, and 20 ``top_k`` calls with small ``k``.

In the grid world many objects tie at a top-k cut inside one leaf,
so leaf expansion must keep the leaf's best objects by
``(-score, oid)``; keeping them by score alone drops a smaller tied
id that the oracle ranks first.

The golden was taken from the code before leaf expansion learned to
skip unpoppable objects and to charge doc pages once per run.  A
change that moves search answers or I/O on purpose regenerates it::

    PYTHONPATH=src python tests/index/test_search_io_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

import numpy as np
import pytest

from repro import (
    Dataset,
    KcRTree,
    SetRTree,
    SpatialKeywordQuery,
    SpatialObject,
    TopKSearcher,
    make_euro_like,
)
from repro.model.similarity import get_model

try:
    from tests.ambient_faults import comparable_io
except ImportError:  # run as a script from the repo root
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from tests.ambient_faults import comparable_io

GOLDEN = Path(__file__).resolve().parent.parent / "golden" / "search_io.json"

MODELS = ("jaccard", "dice", "cosine")
TREES = {"setr": SetRTree, "kcr": KcRTree}
RANK_CALLS = 40
TOPK_CALLS = 20
STOP_LIMITS = (None, 1, "count")


def _euro_world() -> Dataset:
    dataset, _ = make_euro_like(1000, seed=29)
    return dataset


def _grid_world() -> Dataset:
    """600 objects on a 6x6 grid with docs over six terms: scores tie
    often, and shuffled ids make leaf entry order differ from id order."""
    rng = np.random.default_rng(29)
    objects = []
    for oid in rng.permutation(600).tolist():
        loc = (int(rng.integers(0, 6)) / 5.0, int(rng.integers(0, 6)) / 5.0)
        size = int(rng.integers(1, 4))
        doc = frozenset(rng.choice(np.arange(1, 7), size=size, replace=False).tolist())
        objects.append(SpatialObject(oid=oid, loc=loc, doc=doc))
    return Dataset(objects, diagonal=2.0**0.5)


WORLDS = {"euro": _euro_world, "grid": _grid_world}
TREE_KWARGS = {"capacity": 40, "page_size": 512, "buffer_bytes": 40 * 512}


def build_tree(world: str, tree: str):
    return TREES[tree](WORLDS[world](), **TREE_KWARGS)


def _query(rng: np.random.Generator, dataset: Dataset, k: int) -> SpatialKeywordQuery:
    obj = dataset.objects[int(rng.integers(0, len(dataset)))]
    other = dataset.objects[int(rng.integers(0, len(dataset)))]
    doc = frozenset(sorted(obj.doc)[:2] + sorted(other.doc)[:1])
    alpha = (0.3, 0.5, 0.7)[int(rng.integers(0, 3))]
    return SpatialKeywordQuery(loc=obj.loc, doc=doc, k=k, alpha=alpha)


def _calls(world: str, tree_name: str, model: str, tree) -> List[Dict[str, Any]]:
    """The seeded call list.  Missing objects and exact dominator counts
    come from ``score_object``, which reads no index page."""
    rng = np.random.default_rng(sum(map(ord, f"{world}/{tree_name}/{model}")))
    dataset = tree.dataset
    scorer = TopKSearcher(tree, get_model(model))
    calls: List[Dict[str, Any]] = []
    for index in range(RANK_CALLS):
        query = _query(rng, dataset, k=10)
        ranked = sorted(
            dataset, key=lambda o: (-scorer.score_object(o, query), o.oid)
        )
        picks = rng.choice(np.arange(5, 40), size=int(rng.integers(1, 3)), replace=False)
        missing = [ranked[int(p)].oid for p in sorted(picks.tolist())]
        keywords = None
        if rng.random() < 0.5:
            extra = sorted(dataset.get(missing[0]).doc)[:1]
            keywords = sorted(query.doc | frozenset(extra))
        stop = STOP_LIMITS[index % len(STOP_LIMITS)]
        if stop == "count":
            kw = query.doc if keywords is None else frozenset(keywords)
            threshold = min(
                scorer.score_object(dataset.get(m), query, kw) for m in missing
            )
            stop = max(1, sum(
                1 for o in dataset if scorer.score_object(o, query, kw) > threshold
            ))
        calls.append({
            "op": "rank",
            "loc": list(query.loc),
            "doc": sorted(query.doc),
            "alpha": query.alpha,
            "missing": missing,
            "keywords": keywords,
            "stop_limit": stop,
        })
    for _ in range(TOPK_CALLS):
        query = _query(rng, dataset, k=int(rng.integers(1, 16)))
        keywords = None
        if rng.random() < 0.3:
            keywords = sorted(query.doc)[:1]
        calls.append({
            "op": "topk",
            "loc": list(query.loc),
            "doc": sorted(query.doc),
            "alpha": query.alpha,
            "k": query.k,
            "keywords": keywords,
        })
    return calls


def run_calls(tree, model: str, calls, vectorize) -> List[Dict[str, Any]]:
    """Replay ``calls`` from a cold pool; each call's answer and I/O."""
    tree.reset_buffer()
    searcher = TopKSearcher(tree, get_model(model), vectorize=vectorize)
    dataset = tree.dataset
    out = []
    for call in calls:
        query = SpatialKeywordQuery(
            loc=tuple(call["loc"]),
            doc=frozenset(call["doc"]),
            k=call.get("k", 10),
            alpha=call["alpha"],
        )
        keywords = None if call["keywords"] is None else frozenset(call["keywords"])
        before = tree.stats.snapshot()
        if call["op"] == "rank":
            result = searcher.rank_of_missing(
                query,
                [dataset.get(m) for m in call["missing"]],
                keywords,
                stop_limit=call["stop_limit"],
            )
            answer: Any = {
                "rank": result.rank,
                "dominators": list(result.dominators),
                "aborted": result.aborted,
            }
        else:
            answer = [[score, oid] for score, oid in searcher.top_k(query, keywords=keywords)]
        io = tree.stats.snapshot() - before
        out.append({"answer": answer, "io": comparable_io(io)})
    return out


def generate() -> Dict[str, Any]:
    golden: Dict[str, Any] = {}
    for world in WORLDS:
        for tree_name in TREES:
            tree = build_tree(world, tree_name)
            for model in MODELS:
                calls = _calls(world, tree_name, model, tree)
                golden[f"{world}/{tree_name}/{model}"] = {
                    "calls": calls,
                    "expected": run_calls(tree, model, calls, vectorize=False),
                }
    return golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def trees():
    return {(w, t): build_tree(w, t) for w in WORLDS for t in TREES}


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("tree_name", sorted(TREES))
@pytest.mark.parametrize("world", sorted(WORLDS))
@pytest.mark.parametrize(
    "vectorize", [None, False, True], ids=["env", "scalar", "vectorized"]
)
def test_search_answers_and_io_match_golden(golden, trees, world, tree_name, model, vectorize):
    case = golden[f"{world}/{tree_name}/{model}"]
    got = run_calls(trees[(world, tree_name)], model, case["calls"], vectorize)
    expected = [
        {"answer": row["answer"], "io": comparable_io(row["io"])}
        for row in case["expected"]
    ]
    for index, (want, have) in enumerate(zip(expected, got)):
        assert have == want, f"call {index}: {case['calls'][index]}"
    assert len(got) == len(expected)


def test_golden_calls_are_the_seeded_list(golden, trees):
    """The pinned call lists are the ones this module generates."""
    for (world, tree_name), tree in trees.items():
        for model in MODELS:
            calls = _calls(world, tree_name, model, tree)
            assert json.loads(json.dumps(calls)) == golden[f"{world}/{tree_name}/{model}"]["calls"]


def test_golden_has_ties_at_a_top_k_cut(golden, trees):
    """The grid world really exercises the keep-limit tie-break: some
    pinned top-k answer ends inside a group of tied scores."""
    cut_ties = 0
    for (world, tree_name), tree in trees.items():
        if world != "grid":
            continue
        for model in MODELS:
            case = golden[f"{world}/{tree_name}/{model}"]
            searcher = TopKSearcher(tree, get_model(model))
            for call, row in zip(case["calls"], case["expected"]):
                if call["op"] != "topk" or len(row["answer"]) < call["k"]:
                    continue
                query = SpatialKeywordQuery(
                    loc=tuple(call["loc"]), doc=frozenset(call["doc"]),
                    k=call["k"], alpha=call["alpha"],
                )
                kw = None if call["keywords"] is None else frozenset(call["keywords"])
                last = row["answer"][-1][0]
                tied = sum(
                    1 for o in tree.dataset
                    if searcher.score_object(o, query, kw) == last
                )
                in_answer = sum(1 for score, _ in row["answer"] if score == last)
                cut_ties += tied > in_answer
    assert cut_ties >= 10


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_search_io_golden.py --write")
    GOLDEN.write_text(json.dumps(generate(), indent=None) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
