"""Unit tests for chained-function execution."""

import pytest

from repro.common.sizing import sizeof_pair, sizeof_records
from repro.mapreduce.api import ChainedFunction, TaskContext
from repro.mapreduce.chain import chain_name, run_chain
from repro.simcluster.cluster import Cluster
from repro.simcluster.timemodel import TimeModel


@pytest.fixture
def ctx():
    cluster = Cluster(num_nodes=1)
    return TaskContext(cluster.nodes[0], TimeModel())


class Doubler(ChainedFunction):
    def process(self, key, value, collector, ctx):
        collector.collect(key, value * 2)


class Exploder(ChainedFunction):
    """Emits each value twice: tests fan-out between stages."""

    def process(self, key, value, collector, ctx):
        collector.collect(key, value)
        collector.collect(key, value)


class Dropper(ChainedFunction):
    def process(self, key, value, collector, ctx):
        if value % 2 == 0:
            collector.collect(key, value)


class Buffered(ChainedFunction):
    """Emits only at finish: tests the start/finish lifecycle."""

    def start(self, ctx):
        self.buffer = []

    def process(self, key, value, collector, ctx):
        self.buffer.append((key, value))

    def finish(self, collector, ctx):
        collector.collect("count", len(self.buffer))


class TestRunChain:
    def test_empty_chain_passthrough(self, ctx):
        records = [("a", 1), ("b", 2)]
        assert run_chain([], records, ctx).records == records

    def test_single_stage(self, ctx):
        out = run_chain([Doubler()], [("a", 1)], ctx).records
        assert out == [("a", 2)]

    def test_stage_output_feeds_next(self, ctx):
        out = run_chain([Doubler(), Doubler()], [("a", 1)], ctx).records
        assert out == [("a", 4)]

    def test_fanout_then_transform(self, ctx):
        out = run_chain([Exploder(), Doubler()], [("a", 3)], ctx).records
        assert out == [("a", 6), ("a", 6)]

    def test_filter_stage(self, ctx):
        out = run_chain([Dropper()], [("a", 1), ("b", 2), ("c", 4)], ctx).records
        assert out == [("b", 2), ("c", 4)]

    def test_finish_can_emit(self, ctx):
        out = run_chain([Buffered()], [("a", 1), ("b", 2)], ctx).records
        assert out == [("count", 2)]

    def test_order_preserved(self, ctx):
        records = [(i, i) for i in range(50)]
        assert run_chain([Doubler()], records, ctx).records == [
            (i, 2 * i) for i in range(50)
        ]


class TestChainSizes:
    def test_last_stage_sizes_each_record(self, ctx):
        out = run_chain([Exploder(), Doubler()], [("a", 3), ("bc", "x")], ctx)
        assert out.sizes == [sizeof_pair(k, v) for k, v in out.records]
        assert out.bytes == sizeof_records(out.records)

    def test_empty_chain_sizes_the_input(self, ctx):
        records = [("a", 1), ("é", (2.0, None))]
        out = run_chain([], records, ctx)
        assert out.sizes == [sizeof_pair(k, v) for k, v in records]
        assert out.bytes == sizeof_records(records)


class TestChainName:
    def test_empty(self):
        assert chain_name([]) == "<empty>"

    def test_joins_names(self):
        assert chain_name([Doubler(), Dropper()]) == "Doubler -> Dropper"
