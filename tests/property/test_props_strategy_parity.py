"""Property-based tests (hypothesis): batched and unbatched lookup
strategies agree on every cache-related observable.

For any key stream, running ``LookupFn`` with ``batch_size > 1`` must
record exactly the counters, statistics samples, and reuse-store state
that the unbatched path records -- across the whole cache hierarchy:
the adjacent-duplicate memo, the node-local LRU, and the cross-job
ReuseStore tier. The same holds for ``GroupLookupReducer`` over a
sequence of reduce groups (one distinct key per group, as the shuffle
delivers them). (The equivalence holds under the store's "always"
admission policy; cost-aware admission may legitimately diverge because
batching amortises the per-key refetch cost it gates on.)
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.accessor import IndexAccessor
from repro.core.operator import IndexOperator
from repro.core.reuse import ReuseStore
from repro.core.statistics import OperatorStatsAccumulator
from repro.core.strategy import GroupLookupReducer, LookupFn, make_carrier
from repro.indices.base import MappingIndex
from repro.mapreduce.api import OutputCollector, TaskContext
from repro.simcluster.cluster import Cluster
from repro.simcluster.timemodel import TimeModel

KEY_DOMAIN = [f"k{i:02d}" for i in range(20)]

# Repeats matter (they exercise memo, LRU, and reuse hits); ghosts miss
# the index entirely (empty results must still be admitted and reused).
key_lists = st.lists(
    st.one_of(
        st.sampled_from(KEY_DOMAIN),
        st.sampled_from(["ghost0", "ghost1"]),
    ),
    max_size=48,
)

batch_sizes = st.sampled_from([2, 3, 4, 7])


def make_ctx(task_id="prop-parity"):
    cluster = Cluster(num_nodes=2)
    return TaskContext(cluster.nodes[0], TimeModel(), task_id=task_id)


def run_stream(keys, batch_size, use_cache=False, dedup=False, store=None,
               warm_keys=()):
    """Drive one LookupFn over ``keys``; returns (ctx, stats sample,
    sorted output records, store)."""
    index = MappingIndex(
        "parity", {k: [f"{k}-v"] for k in KEY_DOMAIN}, service_time=1e-3
    )
    op = IndexOperator("op").add_index(IndexAccessor(index))
    if store is None:
        store = ReuseStore()  # default policy: admission="always"
    if warm_keys:
        warm = LookupFn(op, "op", 0, reuse=store)
        wctx = make_ctx("prop-warmer")
        warm.start(wctx)
        wcol = OutputCollector()
        for key in warm_keys:
            warm.process(key, make_carrier("v", ((key,),), (None,)), wcol, wctx)
        warm.finish(wcol, wctx)
    acc = OperatorStatsAccumulator("op", 1, 2, 1024)
    fn = LookupFn(
        op, "op", 0, stats=acc, use_cache=use_cache, dedup_adjacent=dedup,
        batch_size=batch_size, reuse=store,
    )
    ctx = make_ctx()
    fn.start(ctx)
    col = OutputCollector()
    for key in keys:
        fn.process(key, make_carrier("v", ((key,),), (None,)), col, ctx)
    fn.finish(col, ctx)
    return ctx, acc.sample_for("prop-parity"), sorted(col.records), store


def assert_parity(keys, batch_size, **kwargs):
    ctx_u, sample_u, out_u, store_u = run_stream(keys, 1, **kwargs)
    ctx_b, sample_b, out_b, store_b = run_stream(keys, batch_size, **kwargs)

    assert out_b == out_u

    # The whole cache.* counter group -- probes, hits, misses -- and the
    # reuse.* group must agree between the two execution shapes.
    assert ctx_b.counters.group("cache") == ctx_u.counters.group("cache")
    assert ctx_b.counters.group("reuse") == ctx_u.counters.group("reuse")

    # IndexStats samples: per-index cache and reuse tallies.
    assert sample_b.cache_probes == sample_u.cache_probes
    assert sample_b.cache_misses == sample_u.cache_misses
    assert sample_b.reuse_probes == sample_u.reuse_probes
    assert sample_b.reuse_hits == sample_u.reuse_hits

    # The ReuseStore tier itself ends up in the same state: identical
    # lifetime counts and identical occupancy.
    assert store_b.counts.to_dict() == store_u.counts.to_dict()
    assert len(store_b) == len(store_u)


class TestBatchedUnbatchedParity:
    @given(keys=key_lists, batch_size=batch_sizes)
    @settings(max_examples=40, deadline=None)
    def test_reuse_tier_cold_store(self, keys, batch_size):
        assert_parity(keys, batch_size)

    @given(keys=key_lists, batch_size=batch_sizes)
    @settings(max_examples=40, deadline=None)
    def test_reuse_tier_warm_store(self, keys, batch_size):
        # Pre-populate the store through a prior "job" so hits, misses,
        # and admissions all occur in the measured stream.
        assert_parity(keys, batch_size, warm_keys=KEY_DOMAIN[::2])

    @given(keys=key_lists, batch_size=batch_sizes)
    @settings(max_examples=40, deadline=None)
    def test_lru_plus_reuse(self, keys, batch_size):
        assert_parity(keys, batch_size, use_cache=True)

    @given(keys=key_lists, batch_size=batch_sizes)
    @settings(max_examples=40, deadline=None)
    def test_memo_plus_reuse(self, keys, batch_size):
        assert_parity(keys, batch_size, dedup=True)

    @given(keys=key_lists, batch_size=batch_sizes)
    @settings(max_examples=40, deadline=None)
    def test_full_hierarchy(self, keys, batch_size):
        # memo -> LRU -> ReuseStore -> index, all tiers active at once,
        # against a store warmed by a previous stream.
        assert_parity(
            keys, batch_size, use_cache=True, dedup=True,
            warm_keys=KEY_DOMAIN[1::2],
        )


# Reduce keys arrive distinct (the shuffle groups duplicates); ``None``
# is the keyless group, ghosts miss the index.
reduce_key_lists = st.lists(
    st.one_of(
        st.sampled_from(KEY_DOMAIN),
        st.sampled_from(["ghost0", "ghost1"]),
        st.none(),
    ),
    max_size=24,
    unique=True,
)


def group_carriers(ik):
    """Two carriers per reduce group, keyed by distinct map keys."""
    ikl = ((ik,),) if ik is not None else ((),)
    return [
        (f"{ik}-{n}", make_carrier(f"v{n}", ikl, (None,))) for n in range(2)
    ]


def run_groups(iks, batch_size, warm_keys=()):
    """Drive one GroupLookupReducer over the reduce groups ``iks``;
    returns (ctx, stats sample, sorted output records, store)."""
    index = MappingIndex(
        "parity", {k: [f"{k}-v"] for k in KEY_DOMAIN}, service_time=1e-3
    )
    op = IndexOperator("op").add_index(IndexAccessor(index))
    store = ReuseStore()
    if warm_keys:
        warm = GroupLookupReducer(op, "op", 0, reuse=store)
        wctx = make_ctx("prop-warmer")
        warm.start(wctx)
        wcol = OutputCollector()
        for ik in warm_keys:
            warm.reduce(ik, group_carriers(ik), wcol, wctx)
        warm.finish(wcol, wctx)
    acc = OperatorStatsAccumulator("op", 1, 2, 1024)
    red = GroupLookupReducer(
        op, "op", 0, stats=acc, batch_size=batch_size, reuse=store
    )
    ctx = make_ctx()
    red.start(ctx)
    col = OutputCollector()
    for ik in iks:
        red.reduce(ik, group_carriers(ik), col, ctx)
    red.finish(col, ctx)
    return ctx, acc.sample_for("prop-parity"), sorted(col.records, key=repr), store


def assert_reducer_parity(iks, batch_size, **kwargs):
    ctx_u, sample_u, out_u, store_u = run_groups(iks, 1, **kwargs)
    ctx_b, sample_b, out_b, store_b = run_groups(iks, batch_size, **kwargs)

    assert out_b == out_u
    assert ctx_b.counters.group("reuse") == ctx_u.counters.group("reuse")
    assert ctx_b.counters.get("lookup", "fetches") == ctx_u.counters.get(
        "lookup", "fetches"
    )

    assert sample_b.lookups == sample_u.lookups
    assert sample_b.tj_samples == sample_u.tj_samples
    assert sample_b.siv_bytes == sample_u.siv_bytes
    assert sample_b.reuse_probes == sample_u.reuse_probes
    assert sample_b.reuse_hits == sample_u.reuse_hits

    assert store_b.counts.to_dict() == store_u.counts.to_dict()
    assert len(store_b) == len(store_u)


class TestReducerBatchedUnbatchedParity:
    @given(iks=reduce_key_lists, batch_size=batch_sizes)
    @settings(max_examples=40, deadline=None)
    def test_cold_store(self, iks, batch_size):
        assert_reducer_parity(iks, batch_size)

    @given(iks=reduce_key_lists, batch_size=batch_sizes)
    @settings(max_examples=40, deadline=None)
    def test_warm_store(self, iks, batch_size):
        assert_reducer_parity(iks, batch_size, warm_keys=KEY_DOMAIN[::2])
