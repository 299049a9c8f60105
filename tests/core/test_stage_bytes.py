"""The per-task byte statistics of the EFind stages (S1, Spre, Sidx,
Spost of Section 4.2) equal a direct sizing of the records and carriers
each stage actually read or emitted, batched or not."""

import pytest

from repro.common.sizing import sizeof_records
from repro.core.accessor import IndexAccessor
from repro.core.operator import IndexOperator
from repro.core.statistics import OperatorStatsAccumulator
from repro.core.strategy import LookupFn, PostProcessFn, PreProcessFn, RecordMeter
from repro.indices.base import MappingIndex
from repro.mapreduce.api import OutputCollector, TaskContext
from repro.simcluster.cluster import Cluster
from repro.simcluster.timemodel import TimeModel


class MixedOperator(IndexOperator):
    """Looks up the record key's user; emits one record per result plus
    a tagged fallback when the key is unknown."""

    def pre_process(self, key, value, index_input):
        user, payload = value
        index_input.put(0, user)
        return key, payload

    def post_process(self, key, value, index_output, collector):
        results = index_output.get(0).get_all()
        if not results:
            collector.collect(("missing", key), [value, None])
        for result in results:
            collector.collect(result, (key, value, 2.5))


def _index():
    data = {
        f"u{i}": [("city", f"c{i % 4}", "é" * (i % 3)), i * 1.5][: 1 + i % 2]
        for i in range(12)
    }
    return MappingIndex("users", data, service_time=1e-3)


def _records():
    # Repeated users (cache hits and adjacent duplicates), users absent
    # from the index, non-ASCII strings, floats, nested tuples and None.
    return [
        (i, (f"u{(i * 5) % 15}", ("päyload", i, None, (i / 3.0, True))))
        for i in range(40)
    ]


def _run_stage(stage, records, ctx):
    collector = OutputCollector()
    stage.start(ctx)
    for key, value in records:
        stage.process(key, value, collector, ctx)
    stage.finish(collector, ctx)
    return collector.records


@pytest.fixture
def ctx():
    cluster = Cluster(num_nodes=2)
    return TaskContext(cluster.nodes[0], TimeModel(), task_id="t0")


@pytest.mark.parametrize("use_cache", [False, True])
@pytest.mark.parametrize("batch_size", [1, 7])
def test_stage_bytes_match_direct_sizing(ctx, batch_size, use_cache):
    op = MixedOperator("mixed").add_index(IndexAccessor(_index()))
    acc = OperatorStatsAccumulator("op0", 1, 2)
    records = _records()

    pre_out = _run_stage(PreProcessFn(op, "op0", acc), records, ctx)
    lookup = LookupFn(
        op,
        "op0",
        0,
        stats=acc,
        use_cache=use_cache,
        record_sidx=True,
        batch_size=batch_size,
    )
    lookup_out = _run_stage(lookup, pre_out, ctx)
    post_out = _run_stage(PostProcessFn(op, "op0", acc), lookup_out, ctx)

    assert len(lookup_out) == len(records)
    sample = acc.sample_for("t0")
    assert sample.n1 == len(records)
    assert sample.s1_bytes == sizeof_records(records)
    assert sample.spre_bytes == sizeof_records(pre_out)
    assert sample.sidx_bytes == sizeof_records(lookup_out)
    assert sample.spost_bytes == sizeof_records(post_out)
    assert sample.spost_bytes > 0


def test_sidx_not_recorded_when_off(ctx):
    op = MixedOperator("mixed").add_index(IndexAccessor(_index()))
    acc = OperatorStatsAccumulator("op0", 1, 2)
    pre_out = _run_stage(PreProcessFn(op, "op0", acc), _records(), ctx)
    _run_stage(LookupFn(op, "op0", 0, stats=acc, batch_size=7), pre_out, ctx)
    assert acc.sample_for("t0").sidx_bytes == 0


def test_record_meter_bytes_match_direct_sizing(ctx):
    seen = []
    meter = RecordMeter(lambda count, nbytes: seen.append((count, nbytes)))
    records = _records()
    out = _run_stage(meter, records, ctx)
    assert out == records
    assert seen == [(len(records), sizeof_records(records))]
