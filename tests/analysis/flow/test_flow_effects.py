"""Effect extraction + fixpoint propagation over fixture packages.

Each test writes a tiny ``repro``-rooted package to ``tmp_path`` and
asserts the inferred effect signature of specific functions.
"""

from __future__ import annotations

from repro.analysis import flow
from repro.analysis.callgraph import build_graph
from repro.analysis.flow import FlowAnalysis, FlowConfig


def analyze_tree(tree):
    graph = build_graph([str(tree)])
    analysis = FlowAnalysis(graph, FlowConfig()).run()
    assert not graph.errors
    return analysis


def sig(analysis, key):
    assert key in analysis.signatures, sorted(analysis.signatures)
    return analysis.signatures[key]


class TestLocalEffects:
    def test_mutates_param(self, make_tree):
        tree = make_tree(
            {
                "repro/index/node.py": """
                class Node:
                    pass


                def bump(node: Node) -> None:
                    node.children.append(1)

                def bump_list(items: list) -> None:
                    items.append(1)
                """
            }
        )
        analysis = analyze_tree(tree)
        # Only a parameter typed as a shared class is shared state.
        assert "shared-write" in sig(analysis, "repro.index.node.bump")
        assert sig(analysis, "repro.index.node.bump_list") == set()

    def test_mutates_self_and_init_exemption(self, make_tree):
        tree = make_tree(
            {
                "repro/index/state.py": """
                class Tracker:
                    def __init__(self) -> None:
                        self.items = []

                    def reset(self) -> None:
                        self.items = []
                """
            }
        )
        analysis = analyze_tree(tree)
        assert "shared-write" in sig(analysis, "repro.index.state.Tracker.reset")
        assert sig(analysis, "repro.index.state.Tracker.__init__") == set()

    def test_accounting_attr_exempt(self, make_tree):
        tree = make_tree(
            {
                "repro/index/acct.py": """
                class Engine:
                    def tick(self) -> None:
                        self.stats["ticks"] = 1

                    def corrupt(self) -> None:
                        self.state["x"] = 1
                """
            }
        )
        analysis = analyze_tree(tree)
        assert sig(analysis, "repro.index.acct.Engine.tick") == set()
        assert "shared-write" in sig(analysis, "repro.index.acct.Engine.corrupt")

    def test_mutates_global_is_shared_write(self, make_tree):
        tree = make_tree(
            {
                "repro/core/registry.py": """
                REGISTRY = {}

                def register(name: str) -> None:
                    REGISTRY[name] = True
                """
            }
        )
        analysis = analyze_tree(tree)
        assert "shared-write" in sig(analysis, "repro.core.registry.register")

    def test_mutates_closure(self, make_tree):
        tree = make_tree(
            {
                "repro/core/closures.py": """
                def outer() -> int:
                    count = 0

                    def inner() -> None:
                        nonlocal count
                        count += 1

                    inner()
                    return count
                """
            }
        )
        analysis = analyze_tree(tree)
        # A closed-over local is not shared state.
        assert sig(analysis, "repro.core.closures.outer.inner") == set()

    def test_shared_write_needs_shared_class(self, make_tree):
        tree = make_tree(
            {
                # repro.index.* is a shared module prefix; repro.core is not.
                "repro/index/node.py": """
                class Node:
                    def attach(self, child: object) -> None:
                        self.child = child
                """,
                "repro/core/scratch.py": """
                class Scratch:
                    def attach(self, child: object) -> None:
                        self.child = child
                """,
            }
        )
        analysis = analyze_tree(tree)
        assert "shared-write" in sig(analysis, "repro.index.node.Node.attach")
        assert "shared-write" not in sig(
            analysis, "repro.core.scratch.Scratch.attach"
        )


class TestIOAndRaises:
    def test_buffer_io_and_raw_io(self, make_tree):
        tree = make_tree(
            {
                "repro/storage/pager.py": """
                class Pager:
                    def read(self, record_id: int) -> bytes:
                        return b""
                """,
                "repro/storage/buffer_pool.py": """
                from .pager import Pager


                class BufferPool:
                    def fetch(self, record_id: int) -> bytes:
                        return self.pager.read(record_id)
                """,
                "repro/core/consumer.py": """
                from ..storage.buffer_pool import BufferPool
                from ..storage.pager import Pager


                def through_pool(pool: BufferPool) -> bytes:
                    return pool.fetch(0)

                def around_pool(pager: Pager) -> bytes:
                    return pager.read(0)
                """,
            }
        )
        analysis = analyze_tree(tree)
        # The pool's own pager access stays inside repro.storage.
        assert "raw-io" in sig(analysis, "repro.storage.buffer_pool.BufferPool.fetch")
        assert "raw-io" not in sig(analysis, "repro.core.consumer.through_pool")
        assert "raw-io" in sig(analysis, "repro.core.consumer.around_pool")

    def test_file_io(self, make_tree):
        tree = make_tree(
            {
                "repro/core/loader.py": """
                def slurp(path: str) -> str:
                    with open(path) as handle:
                        return handle.read()
                """
            }
        )
        analysis = analyze_tree(tree)
        assert "file-io" in sig(analysis, "repro.core.loader.slurp")

    def test_raises_storage_and_masking(self, make_tree):
        tree = make_tree(
            {
                "repro/core/faults.py": """
                class StorageError(Exception):
                    pass


                def load() -> bytes:
                    raise StorageError("bad page")

                def unguarded() -> bytes:
                    return load()

                def guarded() -> bytes:
                    try:
                        return load()
                    except StorageError:
                        return b""
                """
            }
        )
        analysis = analyze_tree(tree)
        assert "raises-storage" in sig(analysis, "repro.core.faults.load")
        assert "raises-storage" in sig(analysis, "repro.core.faults.unguarded")
        assert "raises-storage" not in sig(analysis, "repro.core.faults.guarded")


class TestGuardsAndMasks:
    def test_lock_guard_masks_shared_write(self, make_tree):
        tree = make_tree(
            {
                "repro/index/cache.py": """
                class Cache:
                    def put_guarded(self, key: str) -> None:
                        with self._lock:
                            self._docs[key] = True

                    def put_bare(self, key: str) -> None:
                        self._docs[key] = True
                """
            }
        )
        analysis = analyze_tree(tree)
        guarded = sig(analysis, "repro.index.cache.Cache.put_guarded")
        assert "shared-write" not in guarded
        bare = sig(analysis, "repro.index.cache.Cache.put_bare")
        assert "shared-write" in bare

    def test_lock_guard_masks_propagated_write(self, make_tree):
        tree = make_tree(
            {
                "repro/index/cache.py": """
                class Cache:
                    def _ingest(self, key: str) -> None:
                        self._docs[key] = True

                    def record(self, key: str) -> None:
                        with self._lock:
                            self._ingest(key)

                    def leak(self, key: str) -> None:
                        self._ingest(key)
                """
            }
        )
        analysis = analyze_tree(tree)
        assert "shared-write" not in sig(
            analysis, "repro.index.cache.Cache.record"
        )
        assert "shared-write" in sig(analysis, "repro.index.cache.Cache.leak")

    def test_constructor_escape(self, make_tree):
        tree = make_tree(
            {
                "repro/index/fresh.py": """
                class Shared:
                    def __init__(self) -> None:
                        self._reset()

                    def _reset(self) -> None:
                        self.items = []


                def build() -> Shared:
                    return Shared()
                """
            }
        )
        analysis = analyze_tree(tree)
        # __init__ picks up its callee's self-write through propagation...
        assert "shared-write" in sig(
            analysis, "repro.index.fresh.Shared.__init__"
        )
        # ...but instantiating a fresh object is not a shared write.
        assert "shared-write" not in sig(analysis, "repro.index.fresh.build")


class TestFixpoint:
    def test_direct_recursion_converges(self, make_tree):
        tree = make_tree(
            {
                "repro/core/rec.py": """
                STATE = []


                def drain(n: int) -> None:
                    if n:
                        STATE.pop()
                        drain(n - 1)
                """
            }
        )
        analysis = analyze_tree(tree)
        assert "shared-write" in sig(analysis, "repro.core.rec.drain")

    def test_mutual_recursion_converges(self, make_tree):
        tree = make_tree(
            {
                "repro/core/mutual.py": """
                STATE = {}


                def ping(n: int) -> None:
                    if n > 0:
                        pong(n - 1)

                def pong(n: int) -> None:
                    STATE[n] = True
                    ping(n - 1)
                """
            }
        )
        analysis = analyze_tree(tree)
        for name in ("ping", "pong"):
            assert "shared-write" in sig(analysis, f"repro.core.mutual.{name}")

    def test_chain_witness_points_at_origin(self, make_tree):
        tree = make_tree(
            {
                "repro/core/chainy.py": """
                STATE = {}


                def origin() -> None:
                    STATE["x"] = 1

                def middle() -> None:
                    origin()

                def top() -> None:
                    middle()
                """
            }
        )
        analysis = analyze_tree(tree)
        chain = analysis.chain("repro.core.chainy.top", "shared-write")
        assert [key for key, _line in chain] == [
            "repro.core.chainy.top",
            "repro.core.chainy.middle",
            "repro.core.chainy.origin",
        ]

    def test_witnesses_do_not_depend_on_worklist_order(self, make_tree, monkeypatch):
        # top_k reaches STATE through middle (its first call, two hops)
        # and through origin (one hop); a first-arrival witness follows
        # whichever callee the worklist happened to settle first.
        tree = make_tree(
            {
                "repro/index/search.py": """
                STATE = {}


                def origin() -> None:
                    STATE["a"] = 1

                def middle() -> None:
                    origin()

                class TopKSearcher:
                    def top_k(self) -> None:
                        middle()
                        origin()
                """
            }
        )
        graph = build_graph([str(tree)])

        def solve():
            analysis = FlowAnalysis(graph).run()
            chains = {k: analysis.chain(k, "shared-write") for k in analysis.signatures}
            return analysis.signatures, chains, analysis.check_contracts()

        def ascending(keys, evaluate, callers):  # the worklist pops descending
            while any([evaluate(key) for key in sorted(keys)]):
                pass
            return True

        forward = solve()
        monkeypatch.setattr(flow, "solve_summaries", ascending)
        assert solve() == forward
        top_k = "repro.index.search.TopKSearcher.top_k"
        assert forward[1][top_k] == [(top_k, 14), ("repro.index.search.origin", 6)]
        assert [f.rule for f in forward[2]] == ["worker-read-only"]
