"""Integration tests for EFindRunner modes and plumbing."""

import pytest

from repro.common.errors import PlanningError
from repro.core.costmodel import Strategy
from repro.core.optimizer import forced_plan


class TestModes:
    def test_unknown_mode_rejected(self, efind_env):
        with pytest.raises(PlanningError):
            efind_env.runner().run(efind_env.make_job("m1"), mode="magic")

    def test_forced_requires_strategy(self, efind_env):
        with pytest.raises(PlanningError):
            efind_env.runner().run(efind_env.make_job("m2"), mode="forced")

    def test_forced_accepts_string_strategy(self, efind_env):
        res = efind_env.runner().run(
            efind_env.make_job("m3"), mode="forced", forced_strategy="cache"
        )
        assert res.plan.operators["head0"].strategies[0] is Strategy.CACHE

    def test_plan_mode_executes_given_plan(self, efind_env):
        job = efind_env.make_job("m4")
        plan = forced_plan(job.operator_specs(), Strategy.CACHE)
        res = efind_env.runner().run(job, mode="plan", plan=plan)
        assert res.plan is plan

    def test_plan_mode_requires_plan(self, efind_env):
        with pytest.raises(PlanningError):
            efind_env.runner().run(efind_env.make_job("m5"), mode="plan")

    def test_static_without_stats_falls_back_to_baseline(self, efind_env):
        res = efind_env.runner().run(efind_env.make_job("m6"), mode="static")
        assert res.plan.operators["head0"].strategies[0] is Strategy.BASELINE

    def test_static_with_stats_optimizes(self, efind_env):
        runner = efind_env.runner()
        runner.run(
            efind_env.make_job("m7-profile"),
            mode="forced",
            forced_strategy=Strategy.BASELINE,
        )
        res = runner.run(efind_env.make_job("m7"), mode="static")
        assert res.plan.operators["head0"].strategies[0] is not Strategy.BASELINE


class TestBatchSize:
    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_below_one_rejected(self, efind_env, batch_size):
        with pytest.raises(ValueError, match=str(batch_size)):
            efind_env.runner(batch_size=batch_size)


class TestCatalog:
    def test_update_catalog_records_stats(self, efind_env):
        runner = efind_env.runner()
        res = runner.run(
            efind_env.make_job("cat1"),
            mode="forced",
            forced_strategy=Strategy.BASELINE,
        )
        assert len(runner.catalog) == 1
        assert res.stats["head0"].n1 > 0

    def test_update_catalog_can_be_disabled(self, efind_env):
        runner = efind_env.runner()
        runner.run(
            efind_env.make_job("cat2"),
            mode="forced",
            forced_strategy=Strategy.BASELINE,
            update_catalog=False,
        )
        assert len(runner.catalog) == 0

    def test_catalog_shared_across_jobs_by_signature(self, efind_env):
        runner = efind_env.runner()
        runner.run(
            efind_env.make_job("cat3a"),
            mode="forced",
            forced_strategy=Strategy.BASELINE,
        )
        # A different job using the same operator type + index benefits.
        res = runner.run(efind_env.make_job("cat3b"), mode="static")
        assert res.plan.operators["head0"].strategies[0] is not Strategy.BASELINE


class TestResults:
    def test_output_written_to_dfs(self, efind_env):
        res = efind_env.runner().run(
            efind_env.make_job("r1"), mode="forced", forced_strategy=Strategy.CACHE
        )
        assert sorted(efind_env.dfs.read("/out/r1"), key=repr) == sorted(
            res.output, key=repr
        )

    def test_stage_times_chain(self, efind_env):
        res = efind_env.runner().run(
            efind_env.make_job("r2"),
            mode="forced",
            forced_strategy=Strategy.REPART,
            extra_job_targets=["head0"],
        )
        stages = res.stage_results
        assert len(stages) == 2
        assert stages[1].start_time == pytest.approx(stages[0].end_time)
        assert res.end_time == stages[-1].end_time

    def test_counters_merged_across_stages(self, efind_env):
        res = efind_env.runner().run(
            efind_env.make_job("r3"),
            mode="forced",
            forced_strategy=Strategy.REPART,
            extra_job_targets=["head0"],
        )
        assert res.counters.get("task", "map_input_records") > 0

    def test_start_time_offset(self, efind_env):
        a = efind_env.runner().run(
            efind_env.make_job("r4"), mode="forced", forced_strategy=Strategy.CACHE
        )
        b = efind_env.runner().run(
            efind_env.make_job("r5"),
            mode="forced",
            forced_strategy=Strategy.CACHE,
            start_time=50.0,
        )
        assert b.sim_time == pytest.approx(a.sim_time, rel=0.05)
        assert b.end_time > 50.0

    def test_intermediate_outputs_use_private_paths(self, efind_env):
        res = efind_env.runner().run(
            efind_env.make_job("r6"),
            mode="forced",
            forced_strategy=Strategy.REPART,
            extra_job_targets=["head0"],
        )
        first = res.stage_results[0]
        assert first.output_path.startswith("/_efind/")
        assert res.stage_results[-1].output_path == "/out/r6"


class TestDynamicResume:
    def test_map_resume_preserves_output(self, efind_env):
        base = efind_env.runner().run(
            efind_env.make_job("d1-base"),
            mode="forced",
            forced_strategy=Strategy.BASELINE,
        )
        dyn = efind_env.runner(plan_change_overhead=0.5).run(
            efind_env.make_job("d1"), mode="dynamic"
        )
        assert dyn.replanned
        assert sorted(dyn.output) == sorted(base.output)

    def test_resume_reuses_completed_map_work(self, efind_env):
        dyn = efind_env.runner(plan_change_overhead=0.5).run(
            efind_env.make_job("d2"), mode="dynamic"
        )
        assert dyn.replanned
        aborted = dyn.stage_results[0]
        assert aborted.aborted_phase == "map"
        processed_after = sum(
            r.input_records
            for s in dyn.stage_results[1:2]
            for r in s.map_runs
        )
        # The resumed stages only read the remaining records.
        already_done = sum(r.input_records for r in aborted.map_runs)
        assert already_done + processed_after == efind_env.num_records

    def test_final_output_written_once(self, efind_env):
        dyn = efind_env.runner(plan_change_overhead=0.5).run(
            efind_env.make_job("d3"), mode="dynamic"
        )
        assert sorted(efind_env.dfs.read("/out/d3"), key=repr) == sorted(
            dyn.output, key=repr
        )
