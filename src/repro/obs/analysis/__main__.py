"""Trace analytics CLI: ``python -m repro.obs.analysis <cmd>``.

Subcommands::

    report TRACE [--json]             the one summary of a trace
    diff OLD NEW [--json] [--top K]   two-run hierarchical diff
    regress OLD NEW [--tolerance-config FILE | --rel-tol X --abs-tol Y]
                 [--trace-old DIR --trace-new DIR]

``report`` prints, per exported run: a header (span count, max depth,
capped detail), each job's critical path, the per-wave straggler and
skew profile, cost-model drift, the slowest lookup spans, the re-plan
timeline from the audit log and, for ``--live`` runs, the SLO alerts;
then the executed-equivalence check across the directory. ``--json``
carries the analyses as documents instead.

``TRACE`` is one ``*.trace.json`` export or a directory of them (as
written by ``python -m repro.bench --trace DIR``). Artifact problems --
missing directory, truncated export, wrong format -- exit 2 with a
one-line reason instead of a traceback. ``regress`` exits 1 when the
new baseline regresses past tolerance; ``diff`` exits 1 when the two
runs differ at all (0 only on an identical pair), so it doubles as a
byte-semantics equality check in CI.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.obs.analysis import critical_path as cp
from repro.obs.analysis import diff as df
from repro.obs.analysis import drift as dr
from repro.obs.analysis import regress as rg
from repro.obs.analysis import stragglers as st
from repro.obs.analysis.loader import (
    TraceArtifactError,
    TraceArtifacts,
    load_artifacts,
)


def _analyze(artifact: TraceArtifacts) -> dict:
    """Everything the full report knows about one artifact, as JSON."""
    return {
        "base": artifact.base,
        "trace": artifact.trace_path,
        "dropped_detail": artifact.dropped_detail,
        "critical_paths": [
            p.to_dict()
            for p in cp.critical_paths(
                artifact.spans, alerts=artifact.alert_rows
            )
        ],
        "stragglers": [
            p.to_dict()
            for p in st.phase_profiles(
                artifact.spans, alerts=artifact.alert_rows
            )
        ],
        "drift": [d.to_dict() for d in dr.job_drift(artifact)],
        "alerts": list(artifact.alert_rows),
    }


def cmd_report(args) -> int:
    artifacts = load_artifacts(args.trace)
    if args.json:
        doc = {
            "artifacts": [_analyze(a) for a in artifacts],
            "executed_equivalence": [
                e.to_dict() for e in dr.executed_equivalence(artifacts)
            ],
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    for artifact in artifacts:
        alerts = artifact.alert_rows
        lines = [f"=== {artifact.base} ===", artifact.header()]
        for path in cp.critical_paths(artifact.spans, alerts=alerts):
            lines += cp.render(path)
        lines += st.render(st.phase_profiles(artifact.spans, alerts=alerts))
        lines.append("cost-model drift:")
        lines += [f"  {line}" for line in dr.render(dr.job_drift(artifact))]
        lines += ["--- slowest lookups ---", *dr.slowest_lookups(artifact.spans)]
        lines += ["--- re-plan timeline ---", *dr.replan_timeline(artifact.audit_rows)]
        if alerts:
            from repro.obs.live.engine import summary_lines

            lines += ["--- SLO alerts ---", *summary_lines(alerts)]
        print("\n".join(lines))
    equivalence = dr.executed_equivalence(artifacts)
    if equivalence:
        for line in dr.render([], equivalence):
            print(line)
    return 0


def cmd_diff(args) -> int:
    result = df.diff_paths(args.old, args.new)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        for line in df.render(result, top=args.top):
            print(line)
    return 0 if result.identical else 1


def cmd_regress(args) -> int:
    if args.tolerance_config:
        tolerances = rg.Tolerances.load(args.tolerance_config)
        if args.rel_tol is not None or args.abs_tol is not None:
            print(
                "--tolerance-config and --rel-tol/--abs-tol are exclusive",
                file=sys.stderr,
            )
            return 2
    else:
        tolerances = rg.Tolerances(
            rel_tol=args.rel_tol if args.rel_tol is not None else rg.DEFAULT_REL_TOL,
            abs_tol=args.abs_tol if args.abs_tol is not None else rg.DEFAULT_ABS_TOL,
        )
    if bool(args.trace_old) != bool(args.trace_new):
        print(
            "--trace-old and --trace-new must be given together",
            file=sys.stderr,
        )
        return 2
    report = rg.compare_files(args.old, args.new, tolerances)
    trace_diff = None
    if args.trace_old and (args.json or not report.ok):
        # A failing gate gets a root-cause section: the hierarchical
        # trace diff of the two baseline runs' artifacts.
        trace_diff = df.diff_paths(args.trace_old, args.trace_new)
    if args.json:
        doc = report.to_dict()
        if trace_diff is not None:
            doc["trace_diff"] = trace_diff.to_dict()
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in rg.render(report, verbose=args.verbose):
            print(line)
        if trace_diff is not None:
            print()
            print("root cause (trace diff old -> new):")
            for line in df.render(trace_diff, top=args.top):
                print(f"  {line}")
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.analysis",
        description="Offline analytics over exported observability artifacts.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser(
        "report",
        help="one summary per trace: critical path, stragglers, drift, "
        "slowest lookups, re-plan timeline, SLO alerts",
    )
    p.add_argument("trace", help="a *.trace.json file or a directory of them")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "diff",
        help="hierarchical two-run trace diff (exit 1 when runs differ)",
    )
    p.add_argument("old", help="old *.trace.json export or directory")
    p.add_argument("new", help="new *.trace.json export or directory")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="K",
        help="show the top K contributors (default: enough to cover "
        ">=90%% of the attributed delta)",
    )
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser(
        "regress", help="compare two BENCH baseline files (exit 1 on regression)"
    )
    p.add_argument("old", help="committed baseline BENCH_*.json")
    p.add_argument("new", help="freshly generated BENCH_*.json")
    p.add_argument(
        "--tolerance-config",
        metavar="FILE",
        default=None,
        help="JSON file with rel_tol/abs_tol and per_experiment overrides",
    )
    p.add_argument("--rel-tol", type=float, default=None)
    p.add_argument("--abs-tol", type=float, default=None)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--verbose", action="store_true", help="also list every in-tolerance delta"
    )
    p.add_argument(
        "--trace-old",
        metavar="DIR",
        default=None,
        help="trace artifacts of the OLD baseline run; with --trace-new, "
        "a failing gate appends a root-cause trace-diff section",
    )
    p.add_argument(
        "--trace-new",
        metavar="DIR",
        default=None,
        help="trace artifacts of the NEW baseline run (see --trace-old)",
    )
    p.add_argument(
        "--top",
        type=int,
        default=None,
        metavar="K",
        help="contributor cap for the root-cause section",
    )
    p.set_defaults(func=cmd_regress)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TraceArtifactError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
