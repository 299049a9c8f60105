"""Cost-model drift detection.

Acceptance: on an undisturbed run, re-pricing Equations 1-4 from each
audit record's own recorded inputs reproduces the recorded costs within
float tolerance (the audit log and the cost model agree); the term join
finds the sampled T_j close to the measured index.fetch durations; and
executed-equivalence flags a chosen plan measurably slower than the
cheapest forced variant.
"""

import pytest

from repro.obs import Observability
from repro.obs.analysis import load_artifacts
from repro.obs.analysis.drift import (
    ExecutedEquivalence,
    executed_equivalence,
    job_drift,
    recompute_record,
    render,
    split_row_mode,
)
from repro.obs.analysis.loader import TraceArtifacts


@pytest.fixture()
def dyn_artifact(efind_env, tmp_path):
    obs = Observability()
    efind_env.runner(obs=obs).run(efind_env.make_job("drift-dyn"), mode="dynamic")
    obs.export(str(tmp_path), "drift-dyn")
    (artifact,) = load_artifacts(str(tmp_path))
    return artifact


class TestRecompute:
    def test_audit_records_carry_pricing_inputs(self, dyn_artifact):
        rows = [r for r in dyn_artifact.audit_rows if r.get("operators")]
        assert rows, "dynamic run produced no priced evaluations"
        for row in rows:
            assert row["env"], "CostEnv constants missing from audit record"
            for detail in row["operators"]:
                assert "sizes" in detail
                for sample in detail["samples"].values():
                    assert "c_req" in sample and "c_key" in sample

    def test_undisturbed_run_reprices_exactly(self, dyn_artifact):
        (drift,) = job_drift(dyn_artifact)
        assert drift.job == "drift-dyn"
        assert drift.recomputed, "nothing recomputed"
        # identical inputs through identical equations: float-tolerance
        # agreement, not just "close"
        assert drift.recompute_max_abs_error == pytest.approx(0.0, abs=1e-9)
        strategies = {r.strategy for r in drift.recomputed}
        assert strategies == {"base", "cache", "repart", "idxloc", "partial"}

    def test_partial_build_reprices_exactly(self, efind_env, tmp_path):
        """Under a half-built index every recorded cost prices the
        build coverage in; re-pricing must read it back from the
        sample rather than assume a full build."""
        from repro.indices.build import BuildSession

        session = BuildSession({efind_env.kv.name: efind_env.kv})
        session.manager.advance(efind_env.kv.name, 0.5)
        obs = Observability()
        efind_env.runner(build=session, obs=obs).run(
            efind_env.make_job("drift-partial"), mode="dynamic"
        )
        obs.export(str(tmp_path), "drift-partial")
        (artifact,) = load_artifacts(str(tmp_path))
        coverages = [
            sample["build_coverage"]
            for row in artifact.audit_rows
            for detail in row.get("operators") or []
            for sample in detail["samples"].values()
        ]
        assert coverages and all(0.0 < c < 1.0 for c in coverages)
        (drift,) = job_drift(artifact)
        assert drift.recomputed, "nothing recomputed"
        assert drift.recompute_max_abs_error <= 1e-9

    def test_tampered_record_shows_error(self, dyn_artifact):
        row = next(r for r in dyn_artifact.audit_rows if r.get("operators"))
        import copy

        tampered = copy.deepcopy(row)
        detail = tampered["operators"][0]
        for sample in detail["samples"].values():
            sample["tj"] = sample["tj"] * 2.0 + 1.0
        recomputed, _skipped = recompute_record(tampered)
        assert max(r.abs_error for r in recomputed) > 0.1

    def test_record_without_env_is_skipped_with_reason(self, dyn_artifact):
        row = next(r for r in dyn_artifact.audit_rows if r.get("operators"))
        import copy

        legacy = copy.deepcopy(row)
        legacy["env"] = {}
        recomputed, skipped = recompute_record(legacy)
        assert recomputed == []
        assert any("no CostEnv" in s for s in skipped)


class TestTermJoin:
    def test_sampled_tj_matches_measured_fetches(self, dyn_artifact):
        (drift,) = job_drift(dyn_artifact)
        tj_terms = [
            t for t in drift.terms if t.term == "tj" and t.measured is not None
        ]
        assert tj_terms, "no measurable T_j terms"
        for t in tj_terms:
            # the sample came from these very lookups; generous bound
            # only guards against unit mixups (ms vs s, per-batch vs
            # per-key)
            assert t.rel_error < 0.5

    def test_sample_evolution_tracks_first_and_last(self, dyn_artifact):
        (drift,) = job_drift(dyn_artifact)
        if len([r for r in dyn_artifact.audit_rows if r.get("operators")]) >= 2:
            assert drift.evolution
        for first, last in drift.evolution.values():
            assert isinstance(first, float) and isinstance(last, float)

    def test_render_is_printable(self, dyn_artifact):
        lines = render(job_drift(dyn_artifact))
        assert any("recomputed" in line for line in lines)


def _stub(base: str, duration: float) -> TraceArtifacts:
    return TraceArtifacts(
        base=base,
        trace_path=f"/x/{base}.trace.json",
        payload={},
        spans=[
            {
                "name": f"efind:{base}", "cat": "job", "track": "driver",
                "start": 0.0, "dur": duration, "depth": 0,
                "args": {"job": base, "depth": 0},
            }
        ],
    )


class TestExecutedEquivalence:
    def test_split_row_mode(self):
        assert split_row_mode("Q3-dynamic") == ("Q3", "dynamic")
        assert split_row_mode("+1ms-base") == ("+1ms", "base")
        assert split_row_mode("B=8-idxloc") == ("B=8", "idxloc")
        assert split_row_mode("unrelated") is None
        assert split_row_mode("-base") is None

    def test_flags_chosen_plan_slower_than_forced(self):
        artifacts = [
            _stub("Q-base", 10.0),
            _stub("Q-cache", 4.0),
            _stub("Q-dynamic", 5.0),
            _stub("Q-optimized", 4.01),
        ]
        results = {e.chosen_mode: e for e in executed_equivalence(artifacts)}
        assert results["dynamic"].flagged
        assert results["dynamic"].cheapest_mode == "cache"
        assert results["dynamic"].excess == pytest.approx(0.25)
        # within the 2% margin: not flagged
        assert not results["optimized"].flagged

    def test_rows_without_forced_variants_are_skipped(self):
        assert executed_equivalence([_stub("Q-dynamic", 5.0)]) == []

    def test_optimized_trace_prefers_named_job_over_profile(self):
        artifact = _stub("Q-optimized", 4.0)
        artifact.spans.append(
            {
                "name": "efind:Q-profile", "cat": "job", "track": "driver",
                "start": 0.0, "dur": 9.0, "depth": 0,
                "args": {"job": "Q-profile", "depth": 0},
            }
        )
        artifacts = [artifact, _stub("Q-base", 8.0)]
        (e,) = [
            x for x in executed_equivalence(artifacts)
            if x.chosen_mode == "optimized"
        ]
        # measured 4.0 (the optimized job), not 9.0 (the profiling job)
        assert e.times["optimized"] == pytest.approx(4.0)
        assert not e.flagged

    def test_to_dict_shape(self):
        e = ExecutedEquivalence(
            row="Q", times={"base": 2.0, "dynamic": 1.0},
            chosen_mode="dynamic", cheapest_mode="base",
            flagged=False, excess=-0.5,
        )
        d = e.to_dict()
        assert d["row"] == "Q" and d["excess"] == -0.5
