"""Property-based tests on the core data structures (hypothesis)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.sizing import sizeof, sizeof_records
from repro.core.cache import LRUCache
from repro.core.statistics import FMSketch
from repro.indices.btree import BTree
from repro.indices.rstar import RStarTree
from repro.mapreduce.api import HashPartitioner, stable_hash
from repro.mapreduce.shuffle import group_by_key, partition_records

keys = st.one_of(st.integers(), st.text(max_size=12))


class TestSizeofProperties:
    @given(st.recursive(
        st.one_of(st.integers(), st.text(max_size=8), st.booleans(), st.none()),
        lambda children: st.lists(children, max_size=4).map(tuple),
        max_leaves=12,
    ))
    def test_always_nonnegative_int(self, value):
        size = sizeof(value)
        assert isinstance(size, int)
        assert size >= 0

    @given(st.lists(st.integers(), max_size=20))
    def test_superset_never_smaller(self, items):
        assert sizeof(tuple(items) + (1,)) > sizeof(tuple(items))


class TestStableHashProperties:
    @given(keys)
    def test_deterministic(self, key):
        assert stable_hash(key) == stable_hash(key)

    @given(keys)
    def test_nonnegative(self, key):
        assert stable_hash(key) >= 0

    @given(st.lists(keys, min_size=1), st.integers(min_value=1, max_value=64))
    def test_partitioner_in_range(self, ks, n):
        p = HashPartitioner()
        for k in ks:
            assert 0 <= p.partition(k, n) < n


class TestLRUCacheProperties:
    @given(
        st.lists(st.tuples(st.integers(0, 30), st.integers()), max_size=200),
        st.integers(min_value=1, max_value=16),
    )
    def test_size_never_exceeds_capacity(self, ops, capacity):
        cache = LRUCache(capacity)
        for key, value in ops:
            cache.put(key, value)
            assert len(cache) <= capacity

    @given(st.lists(st.integers(0, 20), min_size=1, max_size=200))
    def test_hit_returns_last_put_value(self, ks):
        cache = LRUCache(64)
        latest = {}
        for i, k in enumerate(ks):
            cache.put(k, i)
            latest[k] = i
        for k, want in latest.items():
            hit, got = cache.get(k)
            assert hit and got == want

    @given(st.lists(st.integers(0, 1000), max_size=300))
    def test_probe_accounting_consistent(self, ks):
        cache = LRUCache(8)
        for k in ks:
            hit, _ = cache.get(k)
            if not hit:
                cache.put(k, k)
        assert cache.hits + cache.misses == cache.probes == len(ks)


class TestFMSketchProperties:
    @given(st.lists(st.integers(), max_size=500))
    @settings(max_examples=30)
    def test_merge_commutative(self, ks):
        half = len(ks) // 2
        a, b = FMSketch(), FMSketch()
        for k in ks[:half]:
            a.add(k)
        for k in ks[half:]:
            b.add(k)
        ab = a.copy()
        ab.merge(b)
        ba = b.copy()
        ba.merge(a)
        assert ab.bitmaps == ba.bitmaps

    @given(st.lists(st.integers(), max_size=300))
    @settings(max_examples=30)
    def test_insertion_order_irrelevant(self, ks):
        a, b = FMSketch(), FMSketch()
        for k in ks:
            a.add(k)
        for k in reversed(ks):
            b.add(k)
        assert a.bitmaps == b.bitmaps

    @given(st.sets(st.integers(), min_size=50, max_size=2000))
    @settings(max_examples=20)
    def test_estimate_within_factor_three(self, distinct):
        fm = FMSketch()
        for k in distinct:
            fm.add(k)
        est = fm.estimate()
        assert len(distinct) / 3 <= est <= len(distinct) * 3

    @given(st.lists(st.integers(), max_size=200))
    @settings(max_examples=30)
    def test_estimate_monotone_under_merge(self, ks):
        a = FMSketch()
        for k in ks:
            a.add(k)
        merged = a.copy()
        extra = FMSketch()
        for k in range(50):
            extra.add(f"x{k}")
        merged.merge(extra)
        assert merged.estimate() >= a.estimate() - 1e-9


class TestBTreeProperties:
    @given(st.lists(st.integers(-1000, 1000), max_size=300))
    @settings(max_examples=30)
    def test_search_matches_dict(self, ks):
        tree = BTree(t=3)
        model = {}
        for i, k in enumerate(ks):
            tree.insert(k, i)
            model.setdefault(k, []).append(i)
        for k in set(ks) | {9999}:
            assert tree.search(k) == model.get(k, [])

    @given(st.lists(st.integers(-1000, 1000), max_size=300))
    @settings(max_examples=30)
    def test_invariants_hold(self, ks):
        tree = BTree(t=2)
        for k in ks:
            tree.insert(k, k)
        tree.check_invariants()

    @given(
        st.lists(st.integers(0, 500), max_size=200),
        st.integers(0, 500),
        st.integers(0, 500),
    )
    @settings(max_examples=30)
    def test_range_scan_matches_filter(self, ks, lo, hi):
        lo, hi = min(lo, hi), max(lo, hi)
        tree = BTree(t=3)
        for k in ks:
            tree.insert(k, k)
        got = sorted(k for k, _v in tree.range_scan(lo, hi))
        want = sorted(k for k in ks if lo <= k <= hi)
        assert got == want


class TestRStarProperties:
    coords = st.floats(
        min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
    )

    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=120))
    @settings(max_examples=25, deadline=None)
    def test_knn_matches_brute_force(self, points):
        tree = RStarTree(max_entries=6)
        for i, p in enumerate(points):
            tree.insert(p, i)
        tree.check_invariants()
        q = (0.0, 0.0)
        k = min(5, len(points))
        got = [pid for _d, pid in tree.knn(q, k)]
        want_dists = sorted(math.dist(p, q) for p in points)[:k]
        got_dists = sorted(math.dist(points[pid], q) for pid in got)
        for a, b in zip(got_dists, want_dists):
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)

    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=150))
    @settings(max_examples=25, deadline=None)
    def test_size_matches_insertions(self, points):
        tree = RStarTree(max_entries=4)
        for i, p in enumerate(points):
            tree.insert(p, i)
        assert len(tree) == len(points)


class TestShuffleProperties:
    records = st.lists(
        st.tuples(st.integers(0, 50), st.integers()), max_size=300
    )

    @given(records, st.integers(min_value=1, max_value=16))
    def test_partitioning_is_a_partition(self, recs, n):
        buckets, totals = partition_records(recs, HashPartitioner(), n)
        flat = [r for b in buckets for r in b]
        assert sorted(flat) == sorted(recs)
        assert totals == [sizeof_records(b) for b in buckets]

    @given(records)
    def test_grouping_preserves_multiset(self, recs):
        groups = group_by_key(recs)
        flat = [(k, v) for k, vs in groups for v in vs]
        assert sorted(flat) == sorted(recs)

    @given(records)
    def test_groups_have_unique_keys(self, recs):
        groups = group_by_key(recs)
        ks = [k for k, _ in groups]
        assert len(ks) == len(set(ks))
