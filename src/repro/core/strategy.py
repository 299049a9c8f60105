"""Strategy execution: the chained functions and reducers that a plan
compiles into.

Wire format. Between an operator's ``preProcess`` and ``postProcess``
the record value is a *carrier* tuple::

    (k1, ("EFc", v1, ikl, ivl))

where ``ikl`` is a tuple of per-index key tuples and ``ivl`` a tuple of
per-index result tuples (``None`` until the index has been looked up).
This mirrors the paper's intermediate form
``(k1, v1, {{ik_1}, {iv_1}, ..., {ik_m}, {iv_m})``.

Lookup charging. A lookup from a node hosting the key's index partition
costs ``T_j``; from anywhere else it additionally pays the network
transfer ``(Sik + Siv)/BW``. Cache-strategy lookups pay a ``T_cache``
probe first and the full cost only on a miss. Both lookup stages
charge through one base, :class:`_IndexStage`.

Cache hierarchy. Within a task the dedup memo is probed first, then the
node-local LRU (cache strategy only), then -- when a
:class:`repro.core.reuse.ReuseStore` is attached -- the cross-job reuse
tier, and only then the index itself. Reuse probes charge zero
simulated time, so a cold store leaves every charge identical to a run
without one.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple

from repro.common.sizing import sizeof, sizeof_pair
from repro.core.accessor import IndexAccessor
from repro.core.cache import LRUCache, ShadowCache
from repro.core.operator import IndexInput, IndexOperator, IndexOutput
from repro.core.statistics import OperatorStatsAccumulator
from repro.mapreduce.api import (
    ChainedFunction,
    OutputCollector,
    Partitioner,
    Reducer,
    TaskContext,
)
from repro.obs.trace import DEPTH_DETAIL, DEPTH_OP

_CARRIER_TAG = "EFc"


def make_carrier(v1: Any, ikl: tuple, ivl: tuple) -> tuple:
    return (_CARRIER_TAG, v1, ikl, ivl)


def is_carrier(value: Any) -> bool:
    return isinstance(value, tuple) and len(value) == 4 and value[0] == _CARRIER_TAG


def open_carrier(value: Any) -> Tuple[Any, tuple, tuple]:
    if not is_carrier(value):
        raise TypeError(f"expected an EFind carrier record, got {value!r}")
    return value[1], value[2], value[3]


class PreProcessFn(ChainedFunction):
    """Runs ``IndexOperator.pre_process`` and wraps records in carriers.

    Also the collection point for the preProcess counters of Section 4.2
    (N1, S1, Nik_j, Sik_j, Spre) and the FM sketches over lookup keys.
    """

    def __init__(
        self,
        operator: IndexOperator,
        operator_id: str,
        stats: Optional[OperatorStatsAccumulator] = None,
    ):
        self.operator = operator
        self.operator_id = operator_id
        self.stats = stats

    def process(self, key, value, collector, ctx):
        m = self.operator.num_indices
        index_input = IndexInput(m)
        out_key, out_value = self.operator.pre_process(key, value, index_input)
        ikl = index_input.as_tuple()
        carrier = make_carrier(out_value, ikl, (None,) * m)
        spre = collector.collect(out_key, carrier)

        if self.stats is not None:
            sample = self.stats.sample_for(ctx.task_id)
            sample.n1 += 1
            sample.s1_bytes += sizeof_pair(key, value)
            sample.spre_bytes += spre
            for j in range(m):
                keys = ikl[j]
                if not keys:
                    continue
                sample.nik[j] = sample.nik.get(j, 0) + len(keys)
                sample.sik_bytes[j] = sample.sik_bytes.get(j, 0.0) + sum(
                    sizeof(ik) for ik in keys
                )
                for ik in keys:
                    self.stats.add_key_to_sketch(j, ik)

    @property
    def name(self) -> str:
        return f"pre[{self.operator_id}]"


class _IndexStage:
    """Everything a lookup stage (:class:`LookupFn`,
    :class:`GroupLookupReducer`) does to fetch a key: the locality test,
    the per-lookup charge of Table 1, the single fetch, the multiget,
    the partial-index scan, and the cross-job reuse tier.

    Host classes set ``self.accessor``, ``self.operator_id``,
    ``self.index_id``, ``self.stats``, ``self.build`` (a
    :class:`repro.indices.build.BuildSession` or None) and
    ``self.reuse`` (a :class:`repro.core.reuse.ReuseStore` or None).

    Charging. Every lookup -- single, scan, or one key of a loop
    fallback -- goes through :meth:`_charge_lookup`: ``T_j`` when local,
    ``(Sik + Siv)/BW + T_j`` plus latency when remote. A native multiget
    is priced by the same two time-model terms with the amortised
    ``C_req + B*C_key`` in place of ``T_j`` and the group's summed bytes.

    Partial indexes. A key the partial index does not cover yet cannot
    take the indexed path at all: it is served by a *scan-assisted
    lookup* -- the store scans the unindexed partition remainder,
    costing ``scan_multiplier * T_j`` -- and bypasses the LRU cache, the
    ReuseStore, and the adjacent-dedup memo (none of which exist on a
    scan path). Coverage checks themselves charge zero simulated time.
    With no session attached the build gate is a no-op.

    Reuse. Probes charge **zero** simulated time: with a cold or
    invalidated store the enabled path charges exactly what the
    disabled path does, so reuse can only elide fetches, never add cost.
    """

    build = None
    reuse = None
    assume_local = False
    #: Wrap each single fetch in its own ``lookup`` op span (the
    #: reducer's; LookupFn opens its span around the whole cache
    #: hierarchy instead).
    _FETCH_OP_SPAN = False

    def _is_local(self, ik: Any, ctx: TaskContext) -> bool:
        local = self.assume_local or (
            ctx.node.hostname in self.accessor.hosts_for_key(ik)
        )
        if local and self.assume_local:
            # Index locality scheduled this task onto a replica host,
            # but that replica may since have died: hosts_for_key only
            # lists live hosts, so re-check and fall back to a remote
            # lookup against a surviving replica.
            plan = getattr(self.accessor.index, "fault_plan", None)
            if plan is not None and plan.dead_hosts:
                hosts = self.accessor.hosts_for_key(ik)
                if hosts and ctx.node.hostname not in hosts:
                    local = False
                    ctx.counters.increment("fault", "locality_fallbacks")
        return local

    def _charge_lookup(self, ik, values, tj: float, local: bool, ctx) -> None:
        tm = ctx.time_model
        if local:
            ctx.charge(tm.local_lookup_time(tj))
        else:
            ctx.charge(tm.remote_lookup_time(sizeof(ik), sizeof(tuple(values)), tj))

    def _record_lookups(self, ctx, n: int, tj: float, siv_bytes: float) -> None:
        sample = self.stats.sample_for(ctx.task_id)
        j = self.index_id
        sample.lookups[j] = sample.lookups.get(j, 0) + n
        sample.tj_total[j] = sample.tj_total.get(j, 0.0) + tj * n
        sample.tj_samples[j] = sample.tj_samples.get(j, 0) + n
        sample.siv_bytes[j] = sample.siv_bytes.get(j, 0.0) + siv_bytes

    def _fetch(self, ik: Any, ctx: TaskContext) -> List[Any]:
        t0 = ctx.charged_time
        values = self.accessor.lookup(ik, ctx)
        tj = self.accessor.service_time()
        local = self._is_local(ik, ctx)
        self._charge_lookup(ik, values, tj, local, ctx)
        ctx.counters.increment("lookup", "fetches")
        ctx.counters.increment("lookup", "fetch_seconds", ctx.charged_time - t0)
        if ctx.trace is not None:
            if self._FETCH_OP_SPAN:
                ctx.trace.charged_span(
                    "lookup",
                    "op",
                    t0,
                    ctx.charged_time,
                    DEPTH_OP,
                    op=self.operator_id,
                    index=self.index_id,
                    local=local,
                )
            ctx.trace.charged_span(
                "index.fetch",
                "op",
                t0,
                ctx.charged_time,
                DEPTH_DETAIL,
                index=self.index_id,
                local=local,
            )
        if self.stats is not None:
            self._record_lookups(ctx, 1, tj, sizeof(tuple(values)))
        return values

    def _fetch_batch(self, keys: List[Any], nrecords: int, ctx) -> dict:
        """Resolve the distinct ``keys`` with one multiget and admit the
        results to the reuse tier; returns ``{key: values tuple}``.

        Charging: local and remote keys are split exactly as in
        :meth:`_fetch` (the re-partitioning and index-locality legs
        batch within their local partition, so locality is never
        broken). An index with a native multiget is charged the
        amortised ``C_req + B*C_key`` per group and a single network
        latency; the loop fallback pays the same per-key cost as
        unbatched lookups.
        """
        tm = ctx.time_model
        t0 = ctx.charged_time
        value_lists = self.accessor.lookup_batch(keys, ctx)
        results = {ik: tuple(vs) for ik, vs in zip(keys, value_lists)}
        tj = self.accessor.service_time()
        native = self.accessor.supports_batch

        local_keys: List[Any] = []
        remote_keys: List[Any] = []
        for ik in keys:
            (local_keys if self._is_local(ik, ctx) else remote_keys).append(ik)

        ctx.counters.increment("batch", "batches_issued")
        ctx.counters.increment("batch", "keys_batched", len(keys))

        if native:
            if local_keys:
                ctx.charge(
                    tm.local_lookup_time(
                        self.accessor.batch_service_time(len(local_keys))
                    )
                )
            if remote_keys:
                ctx.charge(
                    tm.remote_lookup_time(
                        sum(sizeof(ik) for ik in remote_keys),
                        sum(sizeof(results[ik]) for ik in remote_keys),
                        self.accessor.batch_service_time(len(remote_keys)),
                    )
                )
        else:
            # No native multiget: the fallback is a loop, charged
            # exactly like the equivalent sequence of single lookups.
            for ik in local_keys:
                self._charge_lookup(ik, results[ik], tj, True, ctx)
            for ik in remote_keys:
                self._charge_lookup(ik, results[ik], tj, False, ctx)

        ctx.counters.increment("lookup", "fetches", len(keys))
        ctx.counters.increment("lookup", "fetch_seconds", ctx.charged_time - t0)
        if ctx.trace is not None:
            ctx.trace.charged_span(
                "lookup.batch",
                "op",
                t0,
                ctx.charged_time,
                DEPTH_OP,
                op=self.operator_id,
                index=self.index_id,
                keys=len(keys),
                records=nrecords,
                native=native,
            )

        if self.stats is not None:
            self._record_lookups(
                ctx, len(keys), tj, sum(sizeof(results[ik]) for ik in keys)
            )
            if native:
                sample = self.stats.sample_for(ctx.task_id)
                j = self.index_id
                groups = (1 if local_keys else 0) + (1 if remote_keys else 0)
                sample.batches[j] = sample.batches.get(j, 0) + groups
                sample.batch_keys[j] = sample.batch_keys.get(j, 0) + len(keys)
                sample.c_req_total[j] = (
                    sample.c_req_total.get(j, 0.0)
                    + groups * self.accessor.batch_request_overhead()
                )
                sample.c_key_total[j] = (
                    sample.c_key_total.get(j, 0.0)
                    + len(keys) * self.accessor.batch_key_time()
                )

        if self.reuse is not None:
            admit_cost = self._reuse_admit_cost(len(keys))
            for ik in keys:
                self._reuse_admit(ik, ctx, results[ik], admit_cost)
        return results

    # ------------------------------------------------------------------
    # Partial-index build gate
    # ------------------------------------------------------------------
    def _build_uncovered(self, ik, ctx) -> bool:
        """True when ``ik`` must scan; also records the per-task
        coverage observation either way."""
        if self.build is None:
            return False
        covered = self.build.covered(self.accessor.name, ik)
        if covered:
            ctx.counters.increment("build", "indexed_lookups")
            if self.stats is not None:
                sample = self.stats.sample_for(ctx.task_id)
                j = self.index_id
                sample.build_covered[j] = sample.build_covered.get(j, 0) + 1
        return not covered

    def _scan_fetch(self, ik, ctx) -> List[Any]:
        """Serve an uncovered key by scan: same values, same fault
        semantics, ``scan_multiplier * T_j`` service time. Locality is
        the key's host list, without index locality's assumption."""
        t0 = ctx.charged_time
        values = self.accessor.lookup(ik, ctx)
        tj_scan = (
            self.accessor.service_time()
            * self.build.scan_multiplier(self.accessor.name)
        )
        local = ctx.node.hostname in self.accessor.hosts_for_key(ik)
        self._charge_lookup(ik, values, tj_scan, local, ctx)
        ctx.counters.increment("build", "unindexed_lookups")
        ctx.counters.increment("build", "scan_seconds", ctx.charged_time - t0)
        if ctx.trace is not None:
            ctx.trace.charged_span(
                "build.scan_lookup",
                "op",
                t0,
                ctx.charged_time,
                DEPTH_DETAIL,
                index=self.index_id,
                local=local,
            )
        if self.stats is not None:
            sample = self.stats.sample_for(ctx.task_id)
            j = self.index_id
            sample.build_scanned[j] = sample.build_scanned.get(j, 0) + 1
            sample.build_scan_tj_total[j] = (
                sample.build_scan_tj_total.get(j, 0.0) + tj_scan
            )
        return values

    # ------------------------------------------------------------------
    # Cross-job reuse tier
    # ------------------------------------------------------------------
    def _reuse_probe(self, ik, ctx):
        """Probe the cross-job store; the values tuple on a hit, else
        None (misses and stale drops both fetch)."""
        if self.reuse is None:
            return None
        hit, values, stale = self.reuse.probe(ctx.node.hostname, self.accessor, ik)
        ctx.counters.increment("reuse", "probes")
        if stale:
            ctx.counters.increment("reuse", "stale_drops")
        ctx.counters.increment("reuse", "hits" if hit else "misses")
        self._record_reuse_stats(ctx, hit)
        if ctx.trace is not None:
            ctx.trace.charged_instant(
                "reuse.probe",
                "cache",
                ctx.charged_time,
                DEPTH_DETAIL,
                hit=hit,
                index=self.index_id,
            )
        return values if hit else None

    def _reuse_pending_hit(self, ctx):
        """Batched-path parity shim: a key already pending in this batch
        would, on the unbatched path, have been fetched and admitted by
        now -- its reuse probe would hit. Record that deferred hit so
        batched and unbatched ``reuse.*`` counters agree."""
        if self.reuse is None:
            return
        self.reuse.note_deferred_hit()
        ctx.counters.increment("reuse", "probes")
        ctx.counters.increment("reuse", "hits")
        self._record_reuse_stats(ctx, True)
        if ctx.trace is not None:
            ctx.trace.charged_instant(
                "reuse.probe",
                "cache",
                ctx.charged_time,
                DEPTH_DETAIL,
                hit=True,
                index=self.index_id,
                pending=True,
            )

    def _reuse_admit(self, ik, ctx, values, cost):
        if self.reuse is None:
            return
        admitted, evicted = self.reuse.admit(
            ctx.node.hostname, self.accessor, ik, tuple(values), cost
        )
        ctx.counters.increment("reuse", "admitted" if admitted else "rejected")
        if evicted:
            ctx.counters.increment("reuse", "evicted", evicted)

    def _reuse_admit_cost(self, batched_keys: int = 0) -> float:
        """Refetch-cost estimate the cost-aware admission gates on:
        ``T_j`` for single lookups, the amortised ``C_req/B + C_key``
        for a key fetched by a multiget of B keys."""
        if batched_keys and self.accessor.supports_batch:
            return (
                self.accessor.batch_request_overhead() / batched_keys
                + self.accessor.batch_key_time()
            )
        return self.accessor.service_time()

    def _reuse_or_fetch(self, ik, ctx) -> List[Any]:
        """The unbatched fetch path with the reuse tier in front."""
        values = self._reuse_probe(ik, ctx)
        if values is not None:
            return list(values)
        values = self._fetch(ik, ctx)
        self._reuse_admit(ik, ctx, values, self._reuse_admit_cost())
        return values

    def _record_reuse_stats(self, ctx, hit: bool) -> None:
        if self.stats is None:
            return
        sample = self.stats.sample_for(ctx.task_id)
        j = self.index_id
        sample.reuse_probes[j] = sample.reuse_probes.get(j, 0) + 1
        if hit:
            sample.reuse_hits[j] = sample.reuse_hits.get(j, 0) + 1


class LookupFn(_IndexStage, ChainedFunction):
    """Performs one index's lookups inline (baseline / cache / the
    post-shuffle leg of re-partitioning and index locality).

    Modes:

    * ``use_cache=False``: the baseline strategy -- every key pays a
      lookup; a *shadow* cache estimates the miss ratio R for the
      optimizer without saving any work.
    * ``use_cache=True``: the lookup cache strategy -- one node-local
      LRU (shared by the node's tasks, as in the paper's per-machine
      cache).
    * ``dedup_adjacent=True``: after a re-partitioning shuffle, records
      with equal keys arrive adjacently; a one-entry memo removes the
      duplicates the shuffle created.
    * ``assume_local=True``: index-locality -- the task runs on a node
      hosting the key's partition, so lookups cost ``T_j`` only.
    * ``batch_size > 1``: accumulate records whose keys miss the cache
      (hits are still served and emitted immediately) and resolve the
      pending keys with one :meth:`IndexAccessor.lookup_batch` per
      ``batch_size`` records, amortising the per-request lookup cost.
      ``batch_size=1`` (the default) takes the exact unbatched path.
    """

    def __init__(
        self,
        operator: IndexOperator,
        operator_id: str,
        index_id: int,
        stats: Optional[OperatorStatsAccumulator] = None,
        use_cache: bool = False,
        cache_capacity: int = 1024,
        dedup_adjacent: bool = False,
        assume_local: bool = False,
        record_sidx: bool = False,
        batch_size: int = 1,
        reuse=None,
        build=None,
    ):
        self.operator = operator
        self.operator_id = operator_id
        self.index_id = index_id
        self.accessor: IndexAccessor = operator.accessors[index_id]
        self.stats = stats
        self.use_cache = use_cache
        self.cache_capacity = cache_capacity
        self.dedup_adjacent = dedup_adjacent
        self.assume_local = assume_local
        self.record_sidx = record_sidx
        self.batch_size = batch_size
        self.reuse = reuse
        self.build = build
        self._node_caches: dict = {}
        self._node_shadows: dict = {}
        self._memo_key: Any = _NO_MEMO
        self._memo_values: Tuple[Any, ...] = ()
        self._pending_records: list = []
        self._pending_keys: list = []
        self._pending_key_set: set = set()
        self._batch_prev_ik: Any = _NO_MEMO

    def start(self, ctx):
        self._memo_key = _NO_MEMO
        self._memo_values = ()
        self._pending_records = []
        self._pending_keys = []
        self._pending_key_set = set()
        self._batch_prev_ik = _NO_MEMO

    def process(self, key, value, collector, ctx):
        if self.batch_size == 1:
            v1, ikl, ivl = open_carrier(value)
            keys = ikl[self.index_id]
            results = tuple(tuple(self._lookup(ik, ctx)) for ik in keys)
            self._emit(key, v1, ikl, ivl, results, collector, ctx)
            return

        v1, ikl, ivl = open_carrier(value)
        keys = ikl[self.index_id]
        slots = []
        needs_fetch = False
        for ik in keys:
            resolved = self._probe_without_fetch(ik, ctx)
            if resolved is None:
                slots.append(("fetch", ik))
                needs_fetch = True
                if ik not in self._pending_key_set:
                    self._pending_key_set.add(ik)
                    self._pending_keys.append(ik)
            else:
                slots.append(("hit", resolved))
        if not needs_fetch:
            # Every key was served from the cache / dedup memo (or the
            # record has none): emit right away, no batching delay.
            results = tuple(s[1] for s in slots)
            self._emit(key, v1, ikl, ivl, results, collector, ctx)
            return
        self._pending_records.append((key, v1, ikl, ivl, slots))
        if len(self._pending_records) >= self.batch_size:
            self._flush(collector, ctx)

    def finish(self, collector, ctx):
        if self.batch_size > 1 and self._pending_records:
            ctx.counters.increment("batch", "flushes_on_finish")
            self._flush(collector, ctx)

    def _emit(self, key, v1, ikl, ivl, results, collector, ctx):
        new_ivl = tuple(
            results if j == self.index_id else ivl[j] for j in range(len(ivl))
        )
        sidx = collector.collect(key, make_carrier(v1, ikl, new_ivl))
        if self.stats is not None and self.record_sidx:
            self.stats.sample_for(ctx.task_id).sidx_bytes += sidx

    # ------------------------------------------------------------------
    def _lookup(self, ik: Any, ctx: TaskContext) -> List[Any]:
        if ctx.trace is None:
            return self._lookup_impl(ik, ctx)
        t0 = ctx.charged_time
        values = self._lookup_impl(ik, ctx)
        ctx.trace.charged_span(
            "lookup",
            "op",
            t0,
            ctx.charged_time,
            DEPTH_OP,
            op=self.operator_id,
            index=self.index_id,
        )
        return values

    def _lookup_impl(self, ik: Any, ctx: TaskContext) -> List[Any]:
        if self._build_uncovered(ik, ctx):
            # Scans stay invisible to the memo and caches: the key has
            # no indexed entry for them to hold.
            return self._scan_fetch(ik, ctx)
        tm = ctx.time_model
        if self.dedup_adjacent:
            if ik == self._memo_key:
                return list(self._memo_values)

        if self.use_cache:
            cache = self._node_caches.setdefault(
                ctx.node.hostname, LRUCache(self.cache_capacity)
            )
            ctx.charge(tm.cache_probe_time)
            hit, cached = cache.get(ik)
            self._record_cache_stats(ctx, hit)
            if ctx.trace is not None:
                ctx.trace.charged_span(
                    "cache.probe",
                    "cache",
                    ctx.charged_time - tm.cache_probe_time,
                    ctx.charged_time,
                    DEPTH_DETAIL,
                    hit=hit,
                )
            if hit:
                if self.dedup_adjacent:
                    self._memo_key = ik
                    self._memo_values = tuple(cached)
                return list(cached)
            # Insert only after a *successful* fetch (or a validated
            # reuse hit): a terminal lookup failure must not poison the
            # shared node-local LRU (and a retried task would otherwise
            # see the bogus entry).
            values = self._reuse_or_fetch(ik, ctx)
            cache.put(ik, tuple(values))
        else:
            if not self.dedup_adjacent:
                # Baseline: a keys-only shadow cache estimates R
                # (Section 4.2) without saving any lookups. The
                # post-shuffle dedup leg skips this: its grouped key
                # stream is not representative of the original one.
                shadow = self._node_shadows.setdefault(
                    ctx.node.hostname, ShadowCache(self.cache_capacity)
                )
                would_hit = shadow.probe(ik)
                if shadow.warmed:
                    self._record_cache_stats(ctx, would_hit)
            values = self._reuse_or_fetch(ik, ctx)

        if self.dedup_adjacent:
            self._memo_key = ik
            self._memo_values = tuple(values)
        return values

    def _record_cache_stats(self, ctx, hit: bool) -> None:
        if self.stats is None:
            return
        sample = self.stats.sample_for(ctx.task_id)
        j = self.index_id
        sample.cache_probes[j] = sample.cache_probes.get(j, 0) + 1
        if not hit:
            sample.cache_misses[j] = sample.cache_misses.get(j, 0) + 1

    # ------------------------------------------------------------------
    # Batched path (batch_size > 1)
    # ------------------------------------------------------------------
    def _probe_without_fetch(self, ik: Any, ctx: TaskContext):
        """The cache/shadow/memo/reuse half of :meth:`_lookup`: returns
        the resolved value tuple on a hit, None when the key must be
        fetched. Probe charges and cache statistics are identical to
        the unbatched path; only the fetch itself is deferred.

        A key already pending in the current batch records the hit the
        unbatched path would see (the LRU / reuse store would hold it by
        now) but still resolves from the flush results -- without this,
        a duplicate inside one unflushed batch counted as a miss and
        batched/unbatched cache counters diverged."""
        if self._build_uncovered(ik, ctx):
            # Uncovered keys never batch: the scan resolves immediately
            # and, as on the unbatched path, leaves the memo and
            # ``_batch_prev_ik`` untouched.
            return tuple(self._scan_fetch(ik, ctx))
        tm = ctx.time_model
        prev = self._batch_prev_ik
        self._batch_prev_ik = ik
        if self.dedup_adjacent and ik == prev:
            # On the unbatched path the memo always holds the previous
            # arrival, so only an *adjacent* duplicate may consult it.
            # (Here the memo can lag behind ``prev`` while prev's fetch
            # is still pending -- gating on ``prev`` keeps a stale memo
            # key from faking adjacency.)
            if ik == self._memo_key:
                return self._memo_values
            if ik in self._pending_key_set:
                # Adjacent duplicate of a pending key: the memo would
                # serve it without probing anything, so record nothing
                # and charge nothing; the flush results resolve its slot.
                return None
        if self.use_cache:
            cache = self._node_caches.setdefault(
                ctx.node.hostname, LRUCache(self.cache_capacity)
            )
            ctx.charge(tm.cache_probe_time)
            if ik in self._pending_key_set:
                self._record_cache_stats(ctx, True)
                if ctx.trace is not None:
                    ctx.trace.charged_span(
                        "cache.probe",
                        "cache",
                        ctx.charged_time - tm.cache_probe_time,
                        ctx.charged_time,
                        DEPTH_DETAIL,
                        hit=True,
                        pending=True,
                    )
                return None
            hit, cached = cache.get(ik)
            self._record_cache_stats(ctx, hit)
            if ctx.trace is not None:
                ctx.trace.charged_span(
                    "cache.probe",
                    "cache",
                    ctx.charged_time - tm.cache_probe_time,
                    ctx.charged_time,
                    DEPTH_DETAIL,
                    hit=hit,
                )
            if hit:
                if self.dedup_adjacent:
                    self._memo_key = ik
                    self._memo_values = tuple(cached)
                return tuple(cached)
            values = self._reuse_probe(ik, ctx)
            if values is not None:
                cache.put(ik, tuple(values))
                if self.dedup_adjacent:
                    self._memo_key = ik
                    self._memo_values = tuple(values)
                return tuple(values)
            return None
        if not self.dedup_adjacent:
            shadow = self._node_shadows.setdefault(
                ctx.node.hostname, ShadowCache(self.cache_capacity)
            )
            would_hit = shadow.probe(ik)
            if shadow.warmed:
                self._record_cache_stats(ctx, would_hit)
        if ik in self._pending_key_set:
            self._reuse_pending_hit(ctx)
            return None
        values = self._reuse_probe(ik, ctx)
        if values is not None:
            if self.dedup_adjacent:
                self._memo_key = ik
                self._memo_values = tuple(values)
            return tuple(values)
        return None

    def _flush(self, collector, ctx: TaskContext) -> None:
        """Resolve all pending keys with one multiget and emit the
        pending records, in arrival order."""
        if not self._pending_records:
            return
        keys = self._pending_keys
        records = self._pending_records
        self._pending_records = []
        self._pending_keys = []
        self._pending_key_set = set()

        results = self._fetch_batch(keys, len(records), ctx)
        if self.use_cache:
            cache = self._node_caches.setdefault(
                ctx.node.hostname, LRUCache(self.cache_capacity)
            )
            for ik in keys:
                cache.put(ik, results[ik])
        if self.dedup_adjacent and self._batch_prev_ik in results:
            # The memo mirrors the unbatched path: it holds the *last
            # arrival's* key. When that arrival resolved at probe time
            # the memo is already current; only a pending last arrival
            # needs its flush result installed here.
            self._memo_key = self._batch_prev_ik
            self._memo_values = results[self._batch_prev_ik]

        for out_key, v1, ikl, ivl, slots in records:
            rec_results = tuple(
                s[1] if s[0] == "hit" else results[s[1]] for s in slots
            )
            self._emit(out_key, v1, ikl, ivl, rec_results, collector, ctx)

    @property
    def name(self) -> str:
        mode = "cache" if self.use_cache else "base"
        if self.assume_local:
            mode = "idxloc"
        elif self.dedup_adjacent:
            mode = "repart"
        return f"idx[{self.operator_id}.{self.index_id}:{mode}]"


_NO_MEMO = object()


class PostProcessFn(ChainedFunction):
    """Runs ``IndexOperator.post_process`` and unwraps carriers."""

    def __init__(
        self,
        operator: IndexOperator,
        operator_id: str,
        stats: Optional[OperatorStatsAccumulator] = None,
    ):
        self.operator = operator
        self.operator_id = operator_id
        self.stats = stats

    def process(self, key, value, collector, ctx):
        v1, ikl, ivl = open_carrier(value)
        index_output = IndexOutput(ikl, ivl)
        before_bytes = collector.bytes
        self.operator.post_process(key, v1, index_output, collector)
        if self.stats is not None:
            sample = self.stats.sample_for(ctx.task_id)
            sample.spost_bytes += collector.bytes - before_bytes

    @property
    def name(self) -> str:
        return f"post[{self.operator_id}]"


class KeyByIkFn(ChainedFunction):
    """Re-keys carriers by one index's lookup key: the map side of a
    re-partitioning shuffle job (Section 3.3).

    Requires at most one key per record for the shuffled index (the
    optimizer only selects re-partitioning when Nik <= 1). Records with
    no key for the index shuffle under ``None`` and skip the lookup.
    """

    def __init__(self, operator: IndexOperator, operator_id: str, index_id: int):
        self.operator = operator
        self.operator_id = operator_id
        self.index_id = index_id

    def process(self, key, value, collector, ctx):
        _, ikl, _ = open_carrier(value)
        keys = ikl[self.index_id]
        if len(keys) > 1:
            raise ValueError(
                f"re-partitioning requires <= 1 key per record for index "
                f"{self.index_id} of {self.operator_id}; got {len(keys)}"
            )
        ik = keys[0] if keys else None
        collector.collect(ik, (key, value))

    @property
    def name(self) -> str:
        return f"keyby[{self.operator_id}.{self.index_id}]"


class GroupLookupReducer(_IndexStage, Reducer):
    """Reduce side of a shuffle job with the boundary *after* the
    lookup: one lookup per distinct key, results fanned back out to
    every carrier of the group.

    With ``batch_size > 1``, consecutive reduce groups accumulate and
    their (distinct, co-partitioned) keys are resolved with one
    multiget per ``batch_size`` groups; ``batch_size=1`` is the exact
    unbatched path.
    """

    _FETCH_OP_SPAN = True

    def __init__(
        self,
        operator: IndexOperator,
        operator_id: str,
        index_id: int,
        stats: Optional[OperatorStatsAccumulator] = None,
        batch_size: int = 1,
        reuse=None,
        build=None,
    ):
        self.operator = operator
        self.operator_id = operator_id
        self.index_id = index_id
        self.accessor = operator.accessors[index_id]
        self.stats = stats
        self.batch_size = batch_size
        self.reuse = reuse
        self.build = build
        self._pending_groups: list = []

    def start(self, ctx):
        self._pending_groups = []

    def reduce(self, ik, carriers, collector, ctx):
        if ik is None:
            # Keyless records need no lookup: emit straight through.
            self._emit_group(ik, carriers, (), collector)
            return
        if self._build_uncovered(ik, ctx):
            # One scan per distinct key (the shuffle already grouped the
            # duplicates); uncovered groups never batch.
            values = self._scan_fetch(ik, ctx)
        else:
            values = self._reuse_probe(ik, ctx)
            # A reuse hit emits the group immediately, exactly as a
            # cache hit would on the map side. With a cold store it
            # never fires, so batching order is unchanged.
            if values is None:
                if self.batch_size > 1:
                    self._pending_groups.append((ik, list(carriers)))
                    if len(self._pending_groups) >= self.batch_size:
                        self._flush(collector, ctx)
                    return
                values = self._fetch(ik, ctx)
                self._reuse_admit(ik, ctx, values, self._reuse_admit_cost())
        self._emit_group(ik, carriers, (tuple(values),), collector)

    def finish(self, collector, ctx):
        if self.batch_size > 1 and self._pending_groups:
            ctx.counters.increment("batch", "flushes_on_finish")
            self._flush(collector, ctx)

    def _emit_group(self, ik, carriers, results, collector):
        for original_key, value in carriers:
            v1, ikl, ivl = open_carrier(value)
            per_record = results if ikl[self.index_id] else ()
            new_ivl = tuple(
                per_record if j == self.index_id else ivl[j]
                for j in range(len(ivl))
            )
            collector.collect(original_key, make_carrier(v1, ikl, new_ivl))

    def _flush(self, collector, ctx) -> None:
        if not self._pending_groups:
            return
        groups = self._pending_groups
        self._pending_groups = []
        # The shuffle hands each reduce call a distinct key, so the
        # pending keys need no dedupe.
        results = self._fetch_batch([ik for ik, _ in groups], len(groups), ctx)
        for ik, carriers in groups:
            self._emit_group(ik, carriers, (results[ik],), collector)

    @property
    def name(self) -> str:
        return f"grouplookup[{self.operator_id}.{self.index_id}]"


class CarrierMaterializeReducer(Reducer):
    """Reduce side of a shuffle job with the boundary *before* the
    lookup: just materialise the grouped carriers (duplicate keys end up
    adjacent, so the next stage's ``LookupFn(dedup_adjacent=True)``
    removes the redundancy)."""

    def reduce(self, ik, carriers, collector, ctx):
        for original_key, value in carriers:
            collector.collect(original_key, value)

    @property
    def name(self) -> str:
        return "materialize"


class SchemePartitioner(Partitioner):
    """Partitions shuffle keys with the *index's own* partition scheme,
    co-partitioning lookup keys with index partitions (Section 3.4)."""

    def __init__(self, scheme):
        self.scheme = scheme

    def partition(self, key, num_partitions):
        if key is None:
            return 0
        p = self.scheme.partition_of(key)
        return p % num_partitions


class RecordMeter(ChainedFunction):
    """Pass-through stage that reports record/byte flow to a callback;
    used to measure the original Map's output size (``Smap``)."""

    def __init__(self, on_batch, label: str = "meter"):
        self._on_batch = on_batch
        self._label = label
        self._count = 0
        self._bytes = 0.0

    def start(self, ctx):
        self._count = 0
        self._bytes = 0.0

    def process(self, key, value, collector, ctx):
        self._count += 1
        self._bytes += collector.collect(key, value)

    def finish(self, collector, ctx):
        self._on_batch(self._count, self._bytes)

    @property
    def name(self) -> str:
        return self._label
