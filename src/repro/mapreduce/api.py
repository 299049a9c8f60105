"""User-facing MapReduce interfaces.

Everything that runs inside a task -- Mappers, Reducers, and EFind's
pre/lookup/post stages -- is a :class:`ChainedFunction`. A task executes
a *chain* of them: the records a function emits become the next
function's input, which is exactly Hadoop's ChainMapper/ChainReducer
feature the paper builds the baseline strategy on (Section 3.1).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.common.sizing import sizeof_pair
from repro.mapreduce.counters import Counters
from repro.simcluster.node import Node
from repro.simcluster.timemodel import TimeModel

Record = Tuple[Any, Any]


class OutputCollector:
    """Collects ``(key, value)`` emissions from one chain stage.

    Each pair is sized once, here: ``sizes`` holds every record's wire
    size (parallel to ``records``) and ``bytes`` their total, so the
    stage statistics and the task's spill, shuffle and output-store
    charges reuse these sizes instead of walking the records again.
    """

    def __init__(self) -> None:
        self.records: List[Record] = []
        self.sizes: List[int] = []
        self.bytes: int = 0

    def collect(self, key: Any, value: Any) -> int:
        """Emit one pair; returns its wire size."""
        size = sizeof_pair(key, value)
        self.records.append((key, value))
        self.sizes.append(size)
        self.bytes += size
        return size


class TaskContext:
    """Per-task environment handed to every chain stage.

    Besides counters, it exposes :meth:`charge` -- the hook through which
    index lookups, cache probes, and other out-of-band operations add
    simulated time to the enclosing task.
    """

    def __init__(
        self,
        node: Node,
        time_model: TimeModel,
        task_id: str = "task",
        attempt: int = 0,
    ) -> None:
        self.node = node
        self.time_model = time_model
        self.task_id = task_id
        self.attempt = attempt
        self.counters = Counters()
        self.charged_time: float = 0.0
        self.state: dict = {}
        # Per-task trace buffer (repro.obs.trace.TaskTraceBuffer), set by
        # the runtime only when tracing is on; chain stages must guard
        # with `if ctx.trace is not None` so the default path stays free.
        self.trace = None

    def charge(self, seconds: float) -> None:
        """Add ``seconds`` of simulated time to this task."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self.charged_time += seconds


class ChainedFunction:
    """One stage of a task chain.

    Subclasses override :meth:`process`; ``start``/``finish`` bracket the
    stream (``finish`` may emit, e.g. for buffering stages).
    """

    def start(self, ctx: TaskContext) -> None:
        """Called once before the first record."""

    def process(
        self, key: Any, value: Any, collector: OutputCollector, ctx: TaskContext
    ) -> None:
        raise NotImplementedError

    def finish(self, collector: OutputCollector, ctx: TaskContext) -> None:
        """Called once after the last record."""

    @property
    def name(self) -> str:
        return type(self).__name__


class Mapper(ChainedFunction):
    """A classic Mapper; override :meth:`map`."""

    def map(
        self, key: Any, value: Any, collector: OutputCollector, ctx: TaskContext
    ) -> None:
        raise NotImplementedError

    def process(
        self, key: Any, value: Any, collector: OutputCollector, ctx: TaskContext
    ) -> None:
        self.map(key, value, collector, ctx)


class Reducer:
    """A classic Reducer; override :meth:`reduce`.

    Reducers are not ChainedFunctions because their input is grouped
    ``(key, [values])``; the runtime adapts them into the reduce-side
    chain.
    """

    def start(self, ctx: TaskContext) -> None:
        """Called once before the first group."""

    def reduce(
        self,
        key: Any,
        values: List[Any],
        collector: OutputCollector,
        ctx: TaskContext,
    ) -> None:
        raise NotImplementedError

    def finish(self, collector: OutputCollector, ctx: TaskContext) -> None:
        """Called once after the last group."""

    @property
    def name(self) -> str:
        return type(self).__name__


class IdentityMapper(Mapper):
    """Pass records through unchanged."""

    def map(self, key, value, collector, ctx):
        collector.collect(key, value)


class IdentityReducer(Reducer):
    """Emit every value of every group unchanged."""

    def reduce(self, key, values, collector, ctx):
        for value in values:
            collector.collect(key, value)


class FnMapper(Mapper):
    """Adapt a plain function ``fn(key, value) -> iterable[(k, v)]``."""

    def __init__(self, fn: Callable[[Any, Any], Iterable[Record]], label: str = ""):
        self._fn = fn
        self._label = label or getattr(fn, "__name__", "fn")

    def map(self, key, value, collector, ctx):
        for out_key, out_value in self._fn(key, value):
            collector.collect(out_key, out_value)

    @property
    def name(self) -> str:
        return f"FnMapper({self._label})"


class FnReducer(Reducer):
    """Adapt a plain function ``fn(key, values) -> iterable[(k, v)]``."""

    def __init__(
        self, fn: Callable[[Any, List[Any]], Iterable[Record]], label: str = ""
    ):
        self._fn = fn
        self._label = label or getattr(fn, "__name__", "fn")

    def reduce(self, key, values, collector, ctx):
        for out_key, out_value in self._fn(key, values):
            collector.collect(out_key, out_value)

    @property
    def name(self) -> str:
        return f"FnReducer({self._label})"


class Partitioner:
    """Routes map-output keys to reduce partitions."""

    def partition(self, key: Any, num_partitions: int) -> int:
        raise NotImplementedError


class HashPartitioner(Partitioner):
    """Hadoop's default: stable hash of the key modulo partitions.

    Uses a deterministic string hash rather than Python's salted
    ``hash()`` so runs are reproducible across processes.
    """

    def partition(self, key: Any, num_partitions: int) -> int:
        return stable_hash(key) % num_partitions


class FnPartitioner(Partitioner):
    """Adapt a plain function ``fn(key, n) -> int``."""

    def __init__(self, fn: Callable[[Any, int], int]):
        self._fn = fn

    def partition(self, key: Any, num_partitions: int) -> int:
        return self._fn(key, num_partitions)


def stable_hash(value: Any) -> int:
    """A process-stable, type-aware non-negative hash."""
    if isinstance(value, str):
        h = 2166136261
        for ch in value:
            h = ((h ^ ord(ch)) * 16777619) & 0xFFFFFFFF
        return h
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value & 0x7FFFFFFF
    if isinstance(value, float):
        return stable_hash(repr(value))
    if isinstance(value, tuple):
        h = 1
        for item in value:
            h = (h * 31 + stable_hash(item)) & 0x7FFFFFFF
        return h
    if value is None:
        return 0
    return stable_hash(repr(value))
