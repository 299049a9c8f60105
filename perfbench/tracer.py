"""Host-time spans recorded from outside the program.

The benchmark wraps the public functions of each layer -- at the names
their callers bound, since modules import functions such as
``sizeof_pair`` by name -- and records a span around every call. No
program code changes: :meth:`Tracer.install` swaps the wrappers in and
:meth:`Tracer.uninstall` puts the originals back.

Two kinds of span keep memory bounded while preserving exact self
times:

* a *full* span (jobs, ``JobRunner.run``, optimizer calls, DFS writes,
  the benchmark's own set-up phases) gets an id and is kept with its
  name, start, end, parent span and job id;
* a *call* span (per-record layers: sizing, strategy functions, cache
  and reuse probes, index lookups, shuffle, scheduler, DFS reads) is
  aggregated per (parent full span, name) into a count, a total and a
  self time.

Every span's self time is its duration minus the part covered by the
spans it encloses, so within one job the self times of all spans sum to
the job span's duration. Spans are kept in memory and written out as
JSON lines by :meth:`Tracer.write`.
"""

from __future__ import annotations

import contextlib
import json
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: span name -> layer (the package the wrapped function lives in).
LAYERS = {
    "bench.cycle": "bench",
    "bench.setup": "bench",
    "bench.between_jobs": "bench",
    "workloads.gen": "workloads",
    "indices.load": "indices",
    "runner": "core.runner",
    "optimizer": "core.optimizer",
    "strategy": "core.strategy",
    "cache": "core.cache",
    "reuse": "core.reuse",
    "mapreduce": "mapreduce.runtime",
    "shuffle": "mapreduce.shuffle",
    "scheduler": "mapreduce.scheduler",
    "sizing": "common.sizing",
    "indices.lookup": "indices",
    "indices.write": "indices",
    "dfs.write": "dfs",
    "dfs.read": "dfs",
}


class NullTracer:
    """Tracing off: the benchmark's own spans cost nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()


class Tracer:
    """In-memory span recorder (single-threaded: the benchmark runs one
    client in one process)."""

    def __init__(self) -> None:
        #: full spans: [id, parent, job, name, start, end, self_s, attrs]
        self.spans: List[list] = []
        #: (parent full span id, name) -> [count, total_s, self_s]
        self.calls: Dict[Tuple[int, str], List[float]] = {}
        #: per-name side counts taken at the boundary (hits, keys, bytes)
        self.notes: Dict[str, float] = {}
        #: index name -> keys looked up by earlier jobs of the cycle
        self.seen_keys: Dict[str, set] = {}
        self.job_keys: Dict[str, set] = {}
        #: per open span (plus a root frame): [seconds its children cover]
        self._child: List[list] = [[0.0]]
        self._full: List[list] = [[0, 0]]  # open full spans: [id, job]
        self._next_id = 1
        self._lookup_depth = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _enter_full(self, name: str, attrs: Optional[dict]):
        span_id = self._next_id
        self._next_id += 1
        parent_id, job = self._full[-1]
        if name == "runner":
            job = span_id
        row = [span_id, parent_id, job, name, 0.0, 0.0, 0.0, attrs or {}]
        self._full.append([span_id, job])
        self._child.append([0.0])
        row[4] = perf_counter()
        return row

    def _exit_full(self, row: list) -> None:
        row[5] = end = perf_counter()
        covered = self._child.pop()[0]
        self._full.pop()
        duration = end - row[4]
        row[6] = duration - covered
        self._child[-1][0] += duration
        self.spans.append(row)

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """A full span opened by the benchmark itself."""
        row = self._enter_full(name, attrs)
        try:
            yield row
        finally:
            self._exit_full(row)

    def note(self, key: str, amount: float = 1.0) -> None:
        self.notes[key] = self.notes.get(key, 0.0) + amount

    def wrap_full(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            row = tracer._enter_full(name, None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit_full(row)

        return traced

    def wrap_call(
        self, name: str, fn: Callable, observe: Optional[Callable] = None
    ) -> Callable:
        """Aggregated span around ``fn``; ``observe(args, result)``
        (optional) records side counts from the call's boundary."""
        child = self._child
        full = self._full
        calls = self.calls

        def traced(*args, **kwargs):
            frame = [0.0]
            child.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                child.pop()
                child[-1][0] += duration
                key = (full[-1][0], name)
                agg = calls.get(key)
                if agg is None:
                    calls[key] = [1, duration, duration - frame[0]]
                else:
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += duration - frame[0]
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # Installing the wrappers
    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer boundary the report measures."""
        from repro.core import adaptive, runner, strategy
        from repro.core.cache import LRUCache
        from repro.core.reuse import ReuseStore
        from repro.dfs.filesystem import DistributedFileSystem
        from repro.dfs import filesystem
        from repro.indices.base import IndexService
        from repro.mapreduce import api, runtime, shuffle
        from repro.mapreduce.scheduler import SlotScheduler

        full, call = self.wrap_full, self.wrap_call
        p = self.patch
        # core.runner: the job root span
        p(runner.EFindRunner, "run", full("runner", runner.EFindRunner.run))
        # mapreduce
        p(runtime.JobRunner, "run", full("mapreduce", runtime.JobRunner.run))
        for fn in ("partition_records", "group_by_key"):
            p(runtime, fn, call("shuffle", getattr(runtime, fn)))
        p(
            runtime,
            "bucket_bytes",
            call("shuffle", runtime.bucket_bytes, self._note_result("shuffle.bytes")),
        )
        p(
            SlotScheduler,
            "acquire",
            call("scheduler", SlotScheduler.acquire, self._count("scheduler.acquire_calls")),
        )
        p(SlotScheduler, "acquire_backup", call("scheduler", SlotScheduler.acquire_backup))
        # common.sizing, at every name a caller bound
        for module, names in (
            (api, ("sizeof_pair",)),
            (shuffle, ("sizeof_pair",)),
            (filesystem, ("sizeof_pair",)),
            (strategy, ("sizeof_pair", "sizeof")),
            (runner, ("sizeof_pair",)),
            (runtime, ("sizeof_records",)),
        ):
            for fn in names:
                p(module, fn, call("sizing", getattr(module, fn)))
        # core: strategy functions, cache, reuse, optimizer
        for cls, meths in (
            (strategy.PreProcessFn, ("process",)),
            (strategy.LookupFn, ("process", "finish")),
            (strategy.GroupLookupReducer, ("reduce", "finish")),
        ):
            for meth in meths:
                p(cls, meth, call("strategy", cls.__dict__[meth]))
        p(LRUCache, "get", call("cache", LRUCache.get, self._note_cache_hit))
        for meth in ("probe", "admit"):
            p(ReuseStore, meth, call("reuse", getattr(ReuseStore, meth)))
        for module, fn in (
            (runner, "optimize_operator"),
            (runner, "compile_plan"),
            (runner, "evaluate_replan"),
            (adaptive, "optimize_operator"),
        ):
            p(module, fn, self._counted_full("optimizer", getattr(module, fn)))
        # indices: every class that defines its own entry points
        for cls in _subclasses(IndexService):
            for meth in ("lookup", "lookup_batch"):
                if meth in cls.__dict__:
                    p(cls, meth, self._lookup_entry(meth, cls.__dict__[meth]))
            for meth in ("put", "put_unique", "delete"):
                if meth in cls.__dict__:
                    p(cls, meth, call("indices.write", cls.__dict__[meth]))
        # dfs
        p(
            DistributedFileSystem,
            "write",
            self._dfs_write(DistributedFileSystem.write),
        )
        for meth in ("read", "splits", "splits_for"):
            p(DistributedFileSystem, meth, call("dfs.read", getattr(DistributedFileSystem, meth)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Boundary observers
    # ------------------------------------------------------------------
    def _count(self, key: str) -> Callable:
        def observe(args, result):
            self.note(key)

        return observe

    def _note_result(self, key: str) -> Callable:
        def observe(args, result):
            self.note(key, result)

        return observe

    def _note_cache_hit(self, args, result) -> None:
        if result[0]:
            self.note("cache.hits")

    def _lookup_entry(self, meth: str, fn: Callable) -> Callable:
        """Span an index entry point and, at the outermost call only (a
        batch may loop over single lookups), count its keys and the keys
        an earlier job of the cycle already looked up on that index."""
        traced = self.wrap_call("indices.lookup", fn)

        def entry(index, keys, *args, **kwargs):
            outer = self._lookup_depth == 0
            self._lookup_depth += 1
            try:
                result = traced(index, keys, *args, **kwargs)
            finally:
                self._lookup_depth -= 1
            if outer:
                if meth == "lookup":
                    keys = (keys,)
                seen = self.seen_keys.get(index.name, ())
                mine = self.job_keys.setdefault(index.name, set())
                for key in keys:
                    if key in seen:
                        self.note("indices.keys_seen_before")
                    mine.add(key)
                self.note("indices.lookup_calls")
                self.note("indices.keys", len(keys))
            return result

        return entry

    def end_job_keys(self) -> None:
        """Fold the finished job's lookup keys into the cycle's set."""
        for index, keys in self.job_keys.items():
            self.seen_keys.setdefault(index, set()).update(keys)
        self.job_keys = {}

    def _counted_full(self, name: str, fn: Callable) -> Callable:
        traced = self.wrap_full(name, fn)

        def counted(*args, **kwargs):
            self.note(f"{name}.calls")
            return traced(*args, **kwargs)

        return counted

    def _dfs_write(self, fn: Callable) -> Callable:
        traced = self.wrap_full("dfs.write", fn)

        def counted(*args, **kwargs):
            meta = traced(*args, **kwargs)
            self.note("dfs.bytes_written", meta.size_bytes)
            return meta

        return counted

    # ------------------------------------------------------------------
    # Reading the spans back
    # ------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for span_id, parent, job, name, start, end, self_s, attrs in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "kind": "span",
                            "id": span_id,
                            "parent": parent,
                            "job": job,
                            "name": name,
                            "layer": LAYERS[name],
                            "start": start,
                            "end": end,
                            "self_s": self_s,
                            **attrs,
                        }
                    )
                    + "\n"
                )
            for (parent, name), (count, total, self_s) in self.calls.items():
                fh.write(
                    json.dumps(
                        {
                            "kind": "calls",
                            "parent": parent,
                            "name": name,
                            "layer": LAYERS[name],
                            "count": count,
                            "total_s": total,
                            "self_s": self_s,
                        }
                    )
                    + "\n"
                )


def _subclasses(cls) -> list:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out
