"""Result-cache tests: LRU semantics, counters, the atomic disk tier."""

import threading

import pytest

from repro.exceptions import ServiceError
from repro.service.cache import ResultCache
from repro.service.keys import RequestKey


def _key(i: int) -> RequestKey:
    return RequestKey(problem_hash=f"p{i}", algorithm="cg", params_hash=f"q{i}")


class TestMemoryTier:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        assert cache.get(_key(1)) is None
        cache.put(_key(1), {"cost": 1.0})
        assert cache.get(_key(1)) == {"cost": 1.0}
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_returns_copies(self):
        cache = ResultCache(capacity=4)
        cache.put(_key(1), {"cost": 1.0})
        cache.get(_key(1))["cost"] = 99.0
        assert cache.get(_key(1)) == {"cost": 1.0}

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put(_key(1), {"v": 1})
        cache.put(_key(2), {"v": 2})
        cache.get(_key(1))  # refresh 1 → 2 is now the LRU victim
        cache.put(_key(3), {"v": 3})
        assert cache.get(_key(2)) is None
        assert cache.get(_key(1)) == {"v": 1}
        assert cache.get(_key(3)) == {"v": 3}
        assert cache.stats().evictions == 1

    def test_overwrite_does_not_evict(self):
        cache = ResultCache(capacity=2)
        cache.put(_key(1), {"v": 1})
        cache.put(_key(1), {"v": 2})
        cache.put(_key(2), {"v": 3})
        assert len(cache) == 2
        assert cache.stats().evictions == 0
        assert cache.get(_key(1)) == {"v": 2}

    def test_clear(self):
        cache = ResultCache(capacity=2)
        cache.put(_key(1), {"v": 1})
        cache.clear()
        assert cache.get(_key(1)) is None

    def test_bad_capacity_rejected(self):
        with pytest.raises(ServiceError, match="capacity"):
            ResultCache(capacity=0)

    def test_thread_safety_smoke(self):
        cache = ResultCache(capacity=8)

        def worker(base: int) -> None:
            for i in range(200):
                cache.put(_key(base + i % 16), {"v": i})
                cache.get(_key(i % 16))

        threads = [threading.Thread(target=worker, args=(j,)) for j in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = cache.stats()
        assert stats.size <= 8
        assert stats.hits + stats.misses == 800


def _lookup(cache, key):
    """Both tiers, as a miss's executor job reads them: memory, then disk."""
    hit = cache.get(key)
    return hit if hit is not None else cache.load(key)


class TestDiskTier:
    def test_get_probes_memory_only(self, tmp_path):
        ResultCache(capacity=4, cache_dir=tmp_path).put(_key(1), {"v": 1})
        cache = ResultCache(capacity=4, cache_dir=tmp_path)
        assert cache.get(_key(1)) is None
        stats = cache.stats()
        assert stats.hits == stats.misses == stats.disk_hits == 0
        assert cache.load(_key(1)) == {"v": 1}
        assert cache.get(_key(1)) == {"v": 1}
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.disk_hits) == (2, 0, 1)

    def test_load_counts_a_miss_on_both_tiers(self, tmp_path):
        cache = ResultCache(capacity=4, cache_dir=tmp_path)
        assert cache.get(_key(1)) is None
        assert cache.load(_key(1)) is None
        assert cache.stats().misses == 1

    def test_persists_across_instances(self, tmp_path):
        first = ResultCache(capacity=4, cache_dir=tmp_path)
        first.put(_key(1), {"cost": 2.0})
        second = ResultCache(capacity=4, cache_dir=tmp_path)
        assert _lookup(second, _key(1)) == {"cost": 2.0}
        stats = second.stats()
        assert stats.disk_hits == 1
        assert stats.hits == 1

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        ResultCache(capacity=4, cache_dir=tmp_path).put(_key(1), {"v": 1})
        cache = ResultCache(capacity=4, cache_dir=tmp_path)
        _lookup(cache, _key(1))
        _lookup(cache, _key(1))
        stats = cache.stats()
        assert stats.hits == 2
        assert stats.disk_hits == 1  # second lookup served from memory

    def test_corrupt_file_is_plain_miss(self, tmp_path):
        cache = ResultCache(capacity=4, cache_dir=tmp_path)
        cache.put(_key(1), {"v": 1})
        path = tmp_path / f"{_key(1).digest()}.json"
        path.write_text("{torn write")
        cache.clear()
        assert _lookup(cache, _key(1)) is None

    def test_stats_counts_disk_entries(self, tmp_path):
        cache = ResultCache(capacity=4, cache_dir=tmp_path)
        cache.put(_key(1), {"v": 1})
        cache.put(_key(2), {"v": 2})
        assert cache.stats().disk_entries == 2

    def test_memory_only_reports_no_disk(self):
        assert ResultCache(capacity=4).stats().disk_entries is None


class TestQuarantine:
    def test_startup_scan_quarantines_corrupt_entries(self, tmp_path):
        (tmp_path / "aa11.json").write_text("{torn write")
        (tmp_path / "bb22.json").write_text("[1, 2, 3]")  # valid JSON, wrong shape
        (tmp_path / "cc33.json").write_text('{"v": 3}')
        cache = ResultCache(capacity=4, cache_dir=tmp_path)
        assert cache.stats().quarantined == 2
        names = sorted(p.name for p in (tmp_path / "quarantine").iterdir())
        assert names == ["aa11.json", "bb22.json"]
        # the healthy entry stayed in place
        assert (tmp_path / "cc33.json").exists()

    def test_lookup_quarantines_lazily(self, tmp_path):
        cache = ResultCache(capacity=4, cache_dir=tmp_path)
        cache.put(_key(1), {"v": 1})
        # a sibling process corrupts the entry after our startup scan ran
        path = tmp_path / f"{_key(1).digest()}.json"
        path.write_text("{torn write")
        cache.clear()
        assert _lookup(cache, _key(1)) is None
        assert cache.stats().quarantined == 1
        assert not path.exists()
        assert (tmp_path / "quarantine" / path.name).exists()

    def test_quarantine_excluded_from_disk_entries(self, tmp_path):
        (tmp_path / "bad.json").write_text("{torn write")
        cache = ResultCache(capacity=4, cache_dir=tmp_path)
        cache.put(_key(1), {"v": 1})
        assert cache.stats().disk_entries == 1

    def test_quarantined_entry_can_be_overwritten(self, tmp_path):
        cache = ResultCache(capacity=4, cache_dir=tmp_path)
        cache.put(_key(1), {"v": 1})
        path = tmp_path / f"{_key(1).digest()}.json"
        path.write_text("{torn write")
        cache.clear()
        assert _lookup(cache, _key(1)) is None
        cache.put(_key(1), {"v": 2})
        fresh = ResultCache(capacity=4, cache_dir=tmp_path)
        assert _lookup(fresh, _key(1)) == {"v": 2}
        assert fresh.stats().quarantined == 0


class TestFlush:
    def test_flush_rewrites_lost_entries(self, tmp_path):
        cache = ResultCache(capacity=4, cache_dir=tmp_path)
        cache.put(_key(1), {"v": 1})
        cache.put(_key(2), {"v": 2})
        (tmp_path / f"{_key(1).digest()}.json").unlink()
        assert cache.flush() == 1
        assert cache.stats().disk_entries == 2

    def test_flush_is_noop_when_disk_is_current(self, tmp_path):
        cache = ResultCache(capacity=4, cache_dir=tmp_path)
        cache.put(_key(1), {"v": 1})
        assert cache.flush() == 0

    def test_flush_without_disk_tier_returns_zero(self):
        cache = ResultCache(capacity=4)
        cache.put(_key(1), {"v": 1})
        assert cache.flush() == 0
