"""Integration tests for the job runner."""

import pytest

from repro.common.errors import DataFlowError
from repro.common.sizing import sizeof_records
from repro.mapreduce.api import FnMapper, FnReducer, IdentityMapper
from repro.mapreduce.jobconf import JobConf
from repro.mapreduce.runtime import JobRunner
from repro.mapreduce.speculation import SpeculationConfig
from repro.simcluster.faults import FaultPlan, TaskCrash


def wordcount_conf(**overrides):
    def tokenize(k, v):
        for w in v.split():
            yield (w, 1)

    def total(k, vs):
        yield (k, sum(vs))

    conf = JobConf(
        name="wc",
        input_paths=["/in"],
        output_path="/out",
        map_chain=[FnMapper(tokenize)],
        reducer=FnReducer(total),
        num_reduce_tasks=3,
    )
    for key, value in overrides.items():
        setattr(conf, key, value)
    return conf


@pytest.fixture
def loaded(cluster, dfs):
    filler = "pad" * 20
    records = [
        (i, f"alpha beta {'gamma' if i % 2 else 'delta'} {filler}{i}")
        for i in range(2000)
    ]
    dfs.write("/in", records)
    return JobRunner(cluster, dfs)


class TestMapReduceJob:
    def test_wordcount_counts(self, loaded, dfs):
        res = loaded.run(wordcount_conf())
        counts = dict(res.output)
        assert counts["alpha"] == 2000
        assert counts["gamma"] == 1000
        assert counts["delta"] == 1000

    def test_output_materialized(self, loaded, dfs):
        loaded.run(wordcount_conf())
        assert dict(dfs.read("/out"))["alpha"] == 2000

    def test_no_materialize(self, loaded, dfs):
        res = loaded.run(wordcount_conf(materialize_output=False))
        assert res.output and not dfs.exists("/out")

    def test_sim_time_positive_and_ordered(self, loaded):
        res = loaded.run(wordcount_conf())
        assert res.sim_time > 0
        assert res.end_time > res.map_phase_end > 0

    def test_start_time_offsets_everything(self, loaded):
        a = loaded.run(wordcount_conf())
        b = loaded.run(wordcount_conf(), start_time=100.0)
        assert b.end_time == pytest.approx(100.0 + a.end_time)

    def test_counters_aggregated(self, loaded):
        res = loaded.run(wordcount_conf())
        assert res.counters.get("task", "map_input_records") == 2000
        assert res.counters.get("task", "map_output_records") == 8000

    def test_task_runs_recorded(self, loaded):
        res = loaded.run(wordcount_conf())
        assert len(res.map_runs) >= 2
        assert len(res.reduce_runs) == 3
        for run in res.map_runs:
            assert run.duration > 0
            assert run.end >= run.start

    def test_reduce_partitions_distinct(self, loaded):
        res = loaded.run(wordcount_conf())
        assert sorted(r.partition for r in res.reduce_runs) == [0, 1, 2]


class TestMapOnlyJob:
    def test_map_only_output(self, loaded):
        conf = wordcount_conf(reducer=None, num_reduce_tasks=0)
        res = loaded.run(conf)
        assert len(res.output) == 8000
        assert not res.reduce_runs

    def test_map_only_no_buckets(self, loaded):
        conf = wordcount_conf(reducer=None, num_reduce_tasks=0)
        res = loaded.run(conf)
        assert all(not r.buckets for r in res.map_runs)


class TestValidation:
    def test_missing_input_rejected(self, loaded):
        with pytest.raises(DataFlowError):
            loaded.run(wordcount_conf(input_paths=[]))

    def test_reducer_without_tasks_rejected(self, loaded):
        with pytest.raises(DataFlowError):
            loaded.run(wordcount_conf(num_reduce_tasks=0))

    def test_unknown_input_path(self, loaded):
        with pytest.raises(DataFlowError):
            loaded.run(wordcount_conf(input_paths=["/missing"]))


class TestAbortHooks:
    def test_map_abort_surfaces_remaining(self, loaded):
        res = loaded.run(
            wordcount_conf(), abort_check_map=lambda runs, total: True
        )
        assert res.aborted_phase == "map"
        assert res.remaining_splits

    def test_map_abort_false_runs_to_completion(self, loaded):
        res = loaded.run(
            wordcount_conf(), abort_check_map=lambda runs, total: False
        )
        assert not res.aborted

    def test_reduce_abort_keeps_completed_output(self, loaded):
        calls = []

        def check(runs, total):
            calls.append((len(runs), total))
            return True

        res = loaded.run(
            wordcount_conf(num_reduce_tasks=12), abort_check_reduce=check
        )
        assert res.aborted_phase == "reduce"
        assert res.remaining_partitions
        assert calls and calls[0][1] == 12

    def test_abort_check_sees_first_wave_counts(self, loaded, cluster):
        seen = {}

        def check(runs, total):
            seen["runs"], seen["total"] = len(runs), total
            return False

        loaded.run(wordcount_conf(), abort_check_map=check)
        assert seen["runs"] == min(cluster.total_map_slots, seen["total"])


class TestReduceInputFor:
    def test_mismatched_bucket_count_is_clear_error(self, loaded):
        # Regression: a resumed job mixing map runs from plans with
        # different reduce-task counts used to die with a bare
        # IndexError deep in the shuffle.
        res = loaded.run(wordcount_conf(num_reduce_tasks=3))
        with pytest.raises(DataFlowError, match="shuffle buckets"):
            loaded.reduce_input_for(res.map_runs, 3)

    def test_valid_partition_still_served(self, loaded):
        res = loaded.run(wordcount_conf(num_reduce_tasks=3))
        records = loaded.reduce_input_for(res.map_runs, 2)
        assert records
        assert all(isinstance(r, tuple) for r in records)


class TestPerPartitionOutput:
    def test_part_files_written(self, loaded, dfs):
        conf = wordcount_conf(output_per_partition=True)
        res = loaded.run(conf)
        for p in range(3):
            path = JobRunner.partition_path("/out", p)
            assert dfs.exists(path)
        combined = []
        for p in range(3):
            combined.extend(dfs.read(JobRunner.partition_path("/out", p)))
        assert sorted(combined) == sorted(res.output)


class TestSideReduceInputs:
    def test_side_records_join_reduce(self, loaded):
        conf = wordcount_conf(side_reduce_inputs=[("alpha", 1)] * 50)
        res = loaded.run(conf)
        assert dict(res.output)["alpha"] == 2050

    def test_side_inputs_require_reducer(self, loaded):
        conf = wordcount_conf(
            reducer=None, num_reduce_tasks=0, side_reduce_inputs=[("a", 1)]
        )
        with pytest.raises(DataFlowError):
            loaded.run(conf)


class TestHostConstraint:
    def test_constraint_pins_map_tasks(self, cluster, dfs):
        dfs.write("/in", [(i, "x" * 50) for i in range(400)])
        conf = JobConf(
            name="pin",
            input_paths=["/in"],
            output_path="/out",
            map_chain=[IdentityMapper()],
            map_host_constraint=lambda idx: ["node00"],
        )
        res = JobRunner(cluster, dfs).run(conf)
        assert {r.node_host for r in res.map_runs} == {"node00"}

    def test_unconstrained_spreads(self, cluster, dfs):
        dfs.write("/in", [(i, "x" * 50) for i in range(2000)])
        conf = JobConf(
            name="spread",
            input_paths=["/in"],
            output_path="/out",
            map_chain=[IdentityMapper()],
        )
        res = JobRunner(cluster, dfs).run(conf)
        assert len({r.node_host for r in res.map_runs}) > 1


def assert_byte_counters(runner, conf, res):
    """Every per-task byte counter equals a direct sizing of the records
    that task actually read or wrote."""
    n = conf.num_reduce_tasks
    assert res.map_runs
    for run in res.map_runs:
        out_bytes = sizeof_records(run.output)
        assert run.counters.get("task", "map_output_bytes") == out_bytes
        assert run.output_bytes == out_bytes
    for run in res.reduce_runs:
        records = runner.reduce_input_for(res.map_runs, run.partition)
        records += [
            r
            for r in conf.side_reduce_inputs
            if conf.partitioner.partition(r[0], n) == run.partition
        ]
        in_bytes = sizeof_records(records)
        assert run.counters.get("task", "reduce_input_bytes") == in_bytes
        assert run.input_bytes == in_bytes
        out_bytes = sizeof_records(run.output)
        assert run.counters.get("task", "reduce_output_bytes") == out_bytes
        assert run.output_bytes == out_bytes
    assert res.counters.get("task", "map_output_bytes") == sum(
        sizeof_records(run.output) for run in res.map_runs
    )


def _stringify(k, v):
    yield (k, ("total", str(v) * 3, [v, 1.5]))


class TestByteCounters:
    def test_plain_job(self, loaded):
        conf = wordcount_conf()
        res = loaded.run(conf)
        assert_byte_counters(loaded, conf, res)

    def test_combiner(self, loaded):
        conf = wordcount_conf(combiner=FnReducer(lambda k, vs: [(k, sum(vs))]))
        res = loaded.run(conf)
        assert res.counters.get("task", "combine_output_records") > 0
        assert_byte_counters(loaded, conf, res)
        # The reducers read the combined buckets, not the raw map output.
        assert res.counters.get("task", "reduce_input_bytes") < res.counters.get(
            "task", "map_output_bytes"
        )

    def test_reduce_post_chain(self, loaded):
        conf = wordcount_conf(reduce_post_chain=[FnMapper(_stringify)])
        res = loaded.run(conf)
        assert all(isinstance(v, tuple) for _, v in res.output)
        assert_byte_counters(loaded, conf, res)

    def test_side_reduce_inputs(self, loaded):
        side = [("alpha", 1)] * 30 + [("side-only", 7), (("t", 2), 4)]
        conf = wordcount_conf(side_reduce_inputs=side)
        res = loaded.run(conf)
        assert dict(res.output)["side-only"] == 7
        assert_byte_counters(loaded, conf, res)

    def test_map_only(self, loaded):
        conf = wordcount_conf(reducer=None, num_reduce_tasks=0)
        res = loaded.run(conf)
        assert not res.reduce_runs
        assert_byte_counters(loaded, conf, res)

    def test_crash_retried_tasks(self, cluster, dfs, loaded):
        plan = FaultPlan(
            task_crashes=[
                TaskCrash("wc-m0000", after_records=5),
                TaskCrash("wc-r0001", after_records=5, attempts=2),
            ]
        )
        runner = JobRunner(cluster, dfs, fault_plan=plan)
        conf = wordcount_conf()
        res = runner.run(conf)
        retried = {
            r.task_id
            for r in res.map_runs + res.reduce_runs
            if r.counters.get("fault", "tasks_retried")
        }
        assert retried == {"wc-m0000", "wc-r0001"}
        assert_byte_counters(runner, conf, res)

    def test_speculative_backup(self, cluster, dfs, loaded):
        runner = JobRunner(
            cluster,
            dfs,
            fault_plan=FaultPlan(seed=3, straggler_factors={"node01": 4.0}),
            speculation=SpeculationConfig(),
        )
        conf = wordcount_conf()
        res = runner.run(conf)
        assert res.counters.get("spec", "backups_won") > 0
        assert_byte_counters(runner, conf, res)
