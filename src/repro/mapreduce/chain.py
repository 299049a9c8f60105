"""Chain execution: push a record stream through a list of
:class:`ChainedFunction` stages.

The output of stage *i* is the input of stage *i+1* -- Hadoop's
ChainMapper semantics, which the EFind baseline strategy uses to splice
``preProcess -> lookup -> postProcess`` around the user's Map/Reduce
(Figure 6 of the paper).
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence, Tuple

from repro.mapreduce.api import ChainedFunction, OutputCollector, TaskContext

Record = Tuple[Any, Any]


def run_chain(
    stages: Sequence[ChainedFunction],
    records: Iterable[Record],
    ctx: TaskContext,
) -> OutputCollector:
    """Run ``records`` through every stage in order and return the last
    stage's collector: the final emissions with their wire sizes and
    byte total. With no stages the records pass through, sized once.

    Stages are executed stream-at-a-time (stage *i* fully consumes the
    stream before stage *i+1* starts), which matches the per-task
    buffering of chained Hadoop functions and lets ``finish`` implement
    buffered operators.
    """
    if not stages:
        collector = OutputCollector()
        for key, value in records:
            collector.collect(key, value)
        return collector
    current = records
    for stage in stages:
        collector = OutputCollector()
        stage.start(ctx)
        for key, value in current:
            stage.process(key, value, collector, ctx)
        stage.finish(collector, ctx)
        current = collector.records
    return collector


def chain_name(stages: Sequence[ChainedFunction]) -> str:
    """Human-readable label for logging/debugging."""
    return " -> ".join(stage.name for stage in stages) or "<empty>"
