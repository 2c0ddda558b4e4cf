"""Unit tests for the LRU buffer pool."""

import pytest

from repro import BufferPool, Pager, StorageError


def _pool(capacity_pages=4, page_size=4096):
    pager = Pager(page_size=page_size)
    pool = BufferPool(pager, capacity_bytes=capacity_pages * page_size)
    return pager, pool


class TestHitMiss:
    def test_first_fetch_misses_then_hits(self):
        pager, pool = _pool()
        rid = pager.allocate("x", 100)
        stats = pager.stats
        pool.fetch(rid)
        reads_after_miss = stats.page_reads
        pool.fetch(rid)
        assert stats.page_reads == reads_after_miss  # hit: no new reads
        assert stats.buffer_hits == 1

    def test_miss_charges_full_span(self):
        pager, pool = _pool(capacity_pages=8)
        rid = pager.allocate("x", 3 * 4096)
        before = pager.stats.page_reads
        pool.fetch(rid)
        assert pager.stats.page_reads - before == 3
        assert pool.used_pages == 3


class TestEviction:
    def test_lru_eviction_order(self):
        pager, pool = _pool(capacity_pages=2)
        a = pager.allocate("a", 100)
        b = pager.allocate("b", 100)
        c = pager.allocate("c", 100)
        pool.fetch(a)
        pool.fetch(b)
        pool.fetch(a)  # a most recent
        pool.fetch(c)  # evicts b
        assert a in pool
        assert c in pool
        assert b not in pool

    def test_oversized_record_not_cached(self):
        pager, pool = _pool(capacity_pages=2)
        big = pager.allocate("big", 3 * 4096)
        pool.fetch(big)
        assert big not in pool
        assert pool.used_pages == 0

    def test_page_accounted_capacity(self):
        pager, pool = _pool(capacity_pages=3)
        two_pager = pager.allocate("two", 2 * 4096)
        one_pager = pager.allocate("one", 100)
        another = pager.allocate("x", 100)
        pool.fetch(two_pager)
        pool.fetch(one_pager)  # 3/3 pages used
        pool.fetch(another)  # must evict the 2-page record (LRU)
        assert two_pager not in pool
        assert pool.used_pages == 2


class TestMaintenance:
    def test_invalidate(self):
        pager, pool = _pool()
        rid = pager.allocate("x", 100)
        pool.fetch(rid)
        pool.invalidate(rid)
        assert rid not in pool
        assert pool.used_pages == 0

    def test_clear(self):
        pager, pool = _pool()
        for i in range(3):
            pool.fetch(pager.allocate(i, 100))
        pool.clear()
        assert pool.used_pages == 0

    def test_negative_capacity_rejected(self):
        pager = Pager()
        with pytest.raises(StorageError):
            BufferPool(pager, capacity_bytes=-1)

    def test_zero_capacity_reads_through(self):
        pager = Pager()
        pool = BufferPool(pager, capacity_bytes=0)
        rid = pager.allocate("x", 100)
        assert pool.fetch(rid) == "x"
        assert pool.fetch(rid) == "x"
        assert pager.stats.page_reads == 2  # nothing cached


class TestFetchRun:
    """``fetch_run(rid, n)`` charges what ``n`` calls of ``fetch(rid)`` do."""

    @staticmethod
    def _ledger(pager, pool):
        return (
            pager.stats.snapshot(),
            pool.fetch_count,
            pool.hit_count,
            pool.miss_count,
            list(pool.cached_records()),
        )

    @pytest.mark.parametrize("capacity_pages", [0, 1, 4])
    @pytest.mark.parametrize("span_bytes", [100, 2 * 4096])
    def test_run_equals_repeated_fetches(self, capacity_pages, span_bytes):
        ledgers = []
        for run in (True, False):
            pager, pool = _pool(capacity_pages=capacity_pages)
            rids = [pager.allocate(i, span_bytes) for i in range(3)]
            for rid, count in zip(rids + rids[:1], (5, 1, 3, 4)):
                if run:
                    assert pool.fetch_run(rid, count) == pager.peek(rid)
                else:
                    for _ in range(count):
                        pool.fetch(rid)
            ledgers.append(self._ledger(pager, pool))
        assert ledgers[0] == ledgers[1]

    def test_consumed_cuts_the_run_short(self):
        pager, pool = _pool()
        rid = pager.allocate(("a", "b", "c"), 100)
        assert pool.fetch_run(rid, 3, consumed=lambda page: 2) == ("a", "b", "c")
        assert (pool.fetch_count, pool.hit_count, pool.miss_count) == (2, 1, 1)
