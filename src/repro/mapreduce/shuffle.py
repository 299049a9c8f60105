"""Shuffle: partition, transfer, and group map outputs for reducers."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.sizing import sizeof_pair
from repro.mapreduce.api import Partitioner

Record = Tuple[Any, Any]


def partition_records(
    records: Sequence[Record],
    partitioner: Partitioner,
    num_partitions: int,
    sizes: Optional[Sequence[int]] = None,
) -> Tuple[List[List[Record]], List[int]]:
    """Split one map task's output into per-reducer buckets.

    Returns the buckets and each bucket's byte total. ``sizes`` holds
    each record's wire size in record order (an
    :class:`~repro.mapreduce.api.OutputCollector`'s ``sizes``); without
    it every record is sized here, once.
    """
    if sizes is None:
        sizes = [sizeof_pair(k, v) for k, v in records]
    buckets: List[List[Record]] = [[] for _ in range(num_partitions)]
    totals = [0] * num_partitions
    partition = partitioner.partition
    for (key, value), size in zip(records, sizes):
        p = partition(key, num_partitions)
        buckets[p].append((key, value))
        totals[p] += size
    return buckets, totals


def group_by_key(records: Sequence[Record]) -> List[Tuple[Any, List[Any]]]:
    """Group a reducer's input by key.

    Groups are sorted when keys are mutually comparable (Hadoop's sort
    phase); with un-comparable mixed keys we fall back to first-seen
    order, which preserves the grouping contract the reducer relies on.
    """
    grouped: Dict[Any, List[Any]] = {}
    for key, value in records:
        grouped.setdefault(key, []).append(value)
    items = list(grouped.items())
    try:
        # Sort a copy: a comparison that raises part-way through an
        # in-place sort would leave ``items`` partly sorted.
        return sorted(items, key=lambda kv: kv[0])
    except TypeError:
        return items


def bucket_bytes(totals: Iterable[int]) -> int:
    """A reduce task's input bytes: the byte totals of the buckets it
    fetches, each summed once when its records were partitioned."""
    return sum(totals)
