"""The repository's benchmark: host-time and simulated-time metrics of
the EFind engine over three closed-loop workloads.

Run from the repository root::

    python3 perfbench/run.py --workload tpch-strategies --seed 1 --seconds 25 --trace 0

One client in one process submits the next job only after the previous
one completed (a closed loop). The workload's fixed job sequence (a
*cycle*, see ``workloads.py``) repeats from a fresh set-up until
``--seconds`` of cycles have run. Every job's output is compared with a
reference computed directly from the generated data, and every cycle
must repeat the first one's per-job simulated times and counters
exactly (the determinism check).

Host times (set-up seconds, job seconds and the throughput derived from
them) are wall seconds scaled by a calibration kernel timed just before
and after each measured interval, so a drift in the machine's speed
between runs does not read as a change of the program; see
``KERNEL_REF_S``.

``--workload all`` runs every workload in turn, each in its own
process. ``--trace 0`` reports the end-to-end metrics. ``--trace 1``
alternates untraced and traced cycles: the traced ones wrap each layer's public
functions from outside (``tracer.py``) and give the per-layer metrics,
each printed with the end-to-end metric it should move; the traced
cycles must match the untraced ones in simulated time and counters (the
observer-effect check), and every job's layer self times must sum to
its traced wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result
(host record, input properties, per-job rows) and, when traced, the
spans are written under ``perfbench/out/``. The exit code is 0 only
when every job's output matched and every check held.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

#: The seed the benchmark runs by default, and one held out for
#: confirming later claims on inputs not used while a change was made.
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: Set-ups timed per run before the measured cycles (plus one per cycle),
#: so setup_s is a median even when few cycles fit.
SETUP_REPEATS = 10

#: Per-layer metric -> (unit, the end-to-end metric and workload it
#: should move). Values are per cycle.
PER_LAYER = {
    "sizing.calls": ("count", "records_per_s, job_wall_p50_s on tpch-strategies, then knn-spatial; sim_total_s must not move"),
    "sizing.s": ("s", "records_per_s, job_wall_p50_s on tpch-strategies, then knn-spatial"),
    "sizing.share": ("ratio", "records_per_s, job_wall_p50_s on tpch-strategies, then knn-spatial"),
    "mapreduce.self_s": ("s", "records_per_s on every workload"),
    "mapreduce.map_records": ("count", "records_per_s on every workload"),
    "shuffle.s": ("s", "records_per_s, sim_total_s on tpch-strategies"),
    "shuffle.bytes": ("B", "records_per_s, sim_total_s on tpch-strategies"),
    "scheduler.acquire_calls": ("count", "job_wall_p50_s on job-stream"),
    "scheduler.s": ("s", "job_wall_p50_s on job-stream"),
    "spec.backups_launched": ("count", "sim_total_s on job-stream; zero elsewhere"),
    "spec.win_ratio": ("ratio", "sim_total_s on job-stream; zero elsewhere"),
    "spec.wasted_sim_s": ("s", "sim_total_s on job-stream; zero elsewhere"),
    "mapreduce.tasks_retried": ("count", "sim_total_s, job_error_rate on job-stream"),
    "strategy.self_s": ("s", "records_per_s on tpch-strategies"),
    "cache.gets": ("count", "sim_total_s on tpch-strategies; no change on knn-spatial"),
    "cache.hit_ratio": ("ratio", "sim_total_s on tpch-strategies; ~0 on knn-spatial"),
    "reuse.probes": ("count", "sim_total_s on job-stream; absent elsewhere"),
    "reuse.hit_ratio": ("ratio", "sim_total_s on job-stream; absent elsewhere"),
    "reuse.stale_drops": ("count", "sim_total_s on job-stream; absent elsewhere"),
    "optimizer.calls": ("count", "sim_total_s on tpch-strategies (Dynamic, Optimized)"),
    "optimizer.s": ("s", "sim_total_s on tpch-strategies (Dynamic, Optimized)"),
    "adaptive.replans": ("count", "sim_total_s on tpch-strategies (Dynamic, Optimized)"),
    "indices.lookups": ("count", "records_per_s on knn-spatial; little on tpch-strategies"),
    "indices.lookup_s": ("s", "records_per_s on knn-spatial; little on tpch-strategies"),
    "indices.lookup_us_per_key": ("us/key", "records_per_s on knn-spatial; little on tpch-strategies"),
    "indices.writes": ("count", "job_wall_p50_s, sim_total_s on job-stream"),
    "indices.write_s": ("s", "job_wall_p50_s, sim_total_s on job-stream"),
    "indices.retry_ratio": ("ratio", "job_error_rate, sim_total_s on job-stream"),
    "indices.failed_lookups": ("count", "job_error_rate, sim_total_s on job-stream"),
    "build.indexed_ratio": ("ratio", "sim_total_s on job-stream"),
    "build.records_indexed": ("count", "sim_total_s on job-stream"),
    "route.rebalanced": ("count", "sim_total_s on job-stream"),
    "indices.load_s": ("s", "setup_s"),
    "dfs.write_s": ("s", "setup_s; records_per_s through job output writes"),
    "dfs.bytes_written": ("B", "setup_s; records_per_s through job output writes"),
    "dfs.read_s": ("s", "setup_s; records_per_s"),
    "workloads.gen_s": ("s", "setup_s"),
    "trace_overhead_s": ("s", "reported, not gated"),
}

#: Host speed drifts by up to 1.5x over seconds on a shared machine,
#: so every host time is taken with a calibration kernel timed just
#: before and after it and scaled to the speed at which the kernel takes
#: this long. The result file keeps the raw wall times next to them.
KERNEL_REF_S = 0.0055


def _kernel() -> int:
    """Fixed interpreter work (tuple keys, dict probes, list appends),
    the same operations the engine's per-record paths spend time on."""
    table: dict = {}
    acc = 0
    for i in range(20000):
        key = (i % 251, i & 7)
        bucket = table.get(key)
        if bucket is None:
            table[key] = [i]
        else:
            bucket.append(i)
        acc += len(key) + (i * 31 % 17)
    return acc


def kernel_time() -> float:
    started = time.perf_counter()
    _kernel()
    return time.perf_counter() - started


def scaled(wall: float, before: float, after: float) -> float:
    """``wall`` seconds at the reference speed, given the kernel times
    taken just before and just after it."""
    return wall * KERNEL_REF_S * 2.0 / (before + after)


END_TO_END_UNITS = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "job_wall_p50_s": "s",
    "job_wall_tail_s": "s",
    "sim_total_s": "s",
    "peak_rss_mb": "MB",
}


def _import_program():
    """Put the checkout's ``src`` first on the path and import the
    program from there; fail (exit 2) when it is not present."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: the program source is missing ({src}/repro)\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        sys.stderr.write(f"error: imported repro from {repro.__file__}, not {src}\n")
        sys.exit(2)


class JobRow:
    """One ``EFindRunner.run`` call: its timings, simulated time,
    counters and output check."""

    __slots__ = (
        "cycle", "name", "wall", "raw_wall", "sim", "counters",
        "map_records", "replanned", "ok", "error",
    )

    def __init__(self, cycle, name):
        self.cycle = cycle
        self.name = name
        self.wall = 0.0
        self.raw_wall = 0.0
        self.sim = None
        self.counters = None
        self.map_records = 0.0
        self.replanned = False
        self.ok = False
        self.error = None

    def signature(self):
        return (self.name, self.sim, self.counters)

    def to_dict(self):
        return {
            "cycle": self.cycle,
            "name": self.name,
            "wall_s": self.wall,
            "raw_wall_s": self.raw_wall,
            "sim_time": self.sim,
            "map_input_records": self.map_records,
            "replanned": self.replanned,
            "ok": self.ok,
            "error": self.error,
        }


class Bench:
    def __init__(self, workload, tracer=None):
        from tracer import NullTracer

        self.workload = workload
        self.null = NullTracer()
        self.tracer = tracer
        self.references = None
        self.properties = None
        self.rows: List[JobRow] = []
        self.setup_times: List[float] = []
        self.cycle_walls: Dict[bool, List[float]] = {False: [], True: []}
        self.first_signature = None
        self.problems: List[str] = []
        self.traced_cycle_ids = set()

    def timed_setup(self, tracer):
        gc.collect()
        before = kernel_time()
        started = time.perf_counter()
        with tracer.span("bench.setup"):
            state = self.workload.setup(tracer)
        wall = time.perf_counter() - started
        self.setup_times.append(scaled(wall, before, kernel_time()))
        return state

    def cycle(self, index: int, traced: bool) -> None:
        """One cycle: a fresh set-up, then every job of the sequence."""
        tracer = self.tracer if traced else self.null
        if traced:
            self.traced_cycle_ids.add(index)
            # "Looked up by an earlier job" is counted within one cycle.
            tracer.seen_keys.clear()
            tracer.job_keys.clear()
            tracer.install()
        started = time.perf_counter()
        rows = []
        try:
            with tracer.span("bench.cycle"):
                state = self.timed_setup(tracer)
                if self.references is None:
                    self.references = self.workload.references(state)
                    self.properties = self.workload.properties(state)
                for job in self.workload.jobs(state):
                    self._run_job(index, job, rows, tracer if traced else None)
                    if job.after is not None:
                        with tracer.span("bench.between_jobs"):
                            job.after()
        finally:
            if traced:
                tracer.uninstall()
        self.cycle_walls[traced].append(time.perf_counter() - started)
        self.rows.extend(rows)
        signature = [row.signature() for row in rows]
        if self.first_signature is None:
            self.first_signature = (traced, signature)
        elif signature != self.first_signature[1]:
            kind = "traced vs untraced" if traced != self.first_signature[0] else "repeat"
            self.problems.append(
                f"cycle {index} ({kind}) differs from cycle 0 in per-job "
                f"simulated time or counters"
            )

    def _run_job(self, index, job, rows, tracer) -> None:
        reference = self.references[job.reference]

        def execute(runner, conf, **kwargs):
            row = JobRow(index, conf.name)
            rows.append(row)
            # Every job starts from a collected heap, so a collection
            # the previous job left pending is not charged to this one.
            gc.collect()
            before = kernel_time()
            started = time.perf_counter()
            try:
                result = runner.run(conf, **kwargs)
            except Exception:
                row.error = traceback.format_exc(limit=4)
                raise
            row.raw_wall = time.perf_counter() - started
            row.wall = scaled(row.raw_wall, before, kernel_time())
            row.sim = result.sim_time
            row.counters = result.counters.to_dict()
            row.map_records = result.counters.get("task", "map_input_records")
            row.replanned = result.replanned
            from workloads import outputs_match

            row.ok = outputs_match(result.output, reference)
            if tracer is not None:
                tracer.end_job_keys()
            return result

        try:
            job.run(execute)
        except Exception:
            self.problems.append(f"job step {job.name} (cycle {index}) raised")
            sys.stderr.write(f"job step {job.name} raised:\n{traceback.format_exc(limit=6)}")


def tail_percentile(values: List[float]):
    """The highest percentile with at least ten values beyond it: the
    eleventh-largest value, which is the nearest-rank percentile
    ``100 * (n - 10) / n``. Returns (percentile, value), or the maximum
    as percentile 100 when there are fewer than eleven values."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(bench: Bench):
    """The end-to-end metrics over the measured (untraced, post-warm-up)
    jobs, with the tail's percentile and the number of jobs."""
    rows = [
        r
        for r in bench.rows
        if r.sim is not None and r.cycle != 0 and r.cycle not in bench.traced_cycle_ids
    ]
    walls = [r.wall for r in rows]
    cycle0 = [r for r in rows if r.cycle == rows[0].cycle] if rows else []
    tail_p, tail = tail_percentile(walls)
    return {
        "setup_s": statistics.median(bench.setup_times),
        "records_per_s": sum(r.map_records for r in rows) / sum(walls),
        "job_wall_p50_s": statistics.median(walls),
        "job_wall_tail_s": tail,
        "sim_total_s": math.fsum(r.sim for r in cycle0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, tail_p, len(walls)


def per_layer(bench: Bench):
    """Per-cycle per-layer metrics from the traced cycles, plus the
    within-job self time of every span name and the share of lookups
    whose key an earlier job of the cycle already looked up."""
    tracer = bench.tracer
    traced_cycles = len(bench.cycle_walls[True])
    notes = tracer.notes
    # name -> [count, total, self], over everything and within jobs only
    span_job = {row[0]: row[2] for row in tracer.spans}
    every: Dict[str, List[float]] = {}
    in_jobs: Dict[str, List[float]] = {}
    for span_id, parent, job, name, start, end, self_s, _a in tracer.spans:
        for table, keep in ((every, True), (in_jobs, job != 0)):
            if keep:
                agg = table.setdefault(name, [0, 0.0, 0.0])
                agg[0] += 1
                agg[1] += end - start
                agg[2] += self_s
    for (parent, name), (count, total, self_s) in tracer.calls.items():
        for table, keep in ((every, True), (in_jobs, span_job.get(parent, 0) != 0)):
            if keep:
                agg = table.setdefault(name, [0, 0.0, 0.0])
                agg[0] += count
                agg[1] += total
                agg[2] += self_s
    load_ids = {row[0] for row in tracer.spans if row[3] == "indices.load"}
    writes = [0, 0.0]
    for (parent, name), (count, total, _s) in tracer.calls.items():
        if name == "indices.write" and parent not in load_ids:
            writes[0] += count
            writes[1] += total

    def self_s(name, table=every):
        return table.get(name, [0, 0.0, 0.0])[2]

    def calls(name, table=every):
        return table.get(name, [0, 0.0, 0.0])[0]

    def total_s(name):
        return every.get(name, [0, 0.0, 0.0])[1]

    traced_rows = [r for r in bench.rows if r.cycle in bench.traced_cycle_ids and r.sim is not None]
    counters: Dict[str, float] = {}
    for row in traced_rows:
        for group, values in row.counters.items():
            for key, value in values.items():
                counters[f"{group}.{key}"] = counters.get(f"{group}.{key}", 0.0) + value
    keys = notes.get("indices.keys", 0.0)
    launched = counters.get("spec.backups_launched", 0.0)
    probes = counters.get("reuse.probes", 0.0)
    indexed = counters.get("build.indexed_lookups", 0.0)
    unindexed = counters.get("build.unindexed_lookups", 0.0)
    gets = calls("cache")

    def ratio(a, b):
        return a / b if b else 0.0

    total = {
        "sizing.calls": calls("sizing"),
        "sizing.s": self_s("sizing"),
        "mapreduce.self_s": self_s("mapreduce"),
        "mapreduce.map_records": counters.get("task.map_input_records", 0.0),
        "shuffle.s": self_s("shuffle"),
        "shuffle.bytes": notes.get("shuffle.bytes", 0.0),
        "scheduler.acquire_calls": notes.get("scheduler.acquire_calls", 0.0),
        "scheduler.s": self_s("scheduler"),
        "spec.backups_launched": launched,
        "spec.wasted_sim_s": counters.get("spec.wasted_seconds", 0.0),
        "mapreduce.tasks_retried": counters.get("fault.tasks_retried", 0.0),
        "strategy.self_s": self_s("strategy"),
        "cache.gets": gets,
        "reuse.probes": probes,
        "reuse.stale_drops": counters.get("reuse.stale_drops", 0.0),
        "optimizer.calls": notes.get("optimizer.calls", 0.0),
        "optimizer.s": self_s("optimizer"),
        "adaptive.replans": float(sum(1 for r in traced_rows if r.replanned)),
        "indices.lookups": notes.get("indices.lookup_calls", 0.0),
        "indices.lookup_s": self_s("indices.lookup"),
        "indices.writes": writes[0],
        "indices.write_s": writes[1],
        "indices.failed_lookups": counters.get("fault.lookups_failed", 0.0),
        "build.records_indexed": counters.get("build.records_indexed", 0.0),
        "route.rebalanced": counters.get("route.rebalanced", 0.0),
        "indices.load_s": total_s("indices.load"),
        "dfs.write_s": total_s("dfs.write"),
        "dfs.bytes_written": notes.get("dfs.bytes_written", 0.0),
        "dfs.read_s": total_s("dfs.read"),
        "workloads.gen_s": total_s("workloads.gen"),
    }
    out = {k: v / traced_cycles for k, v in total.items()}
    out.update(
        {
            "sizing.share": ratio(self_s("sizing", in_jobs), total_s("runner")),
            "spec.win_ratio": ratio(counters.get("spec.backups_won", 0.0), launched),
            "cache.hit_ratio": ratio(notes.get("cache.hits", 0.0), gets),
            "reuse.hit_ratio": ratio(counters.get("reuse.hits", 0.0), probes),
            "indices.lookup_us_per_key": ratio(self_s("indices.lookup"), keys) * 1e6,
            "indices.retry_ratio": ratio(counters.get("fault.lookups_retried", 0.0), keys),
            "build.indexed_ratio": ratio(indexed, indexed + unindexed),
            "trace_overhead_s": statistics.median(bench.cycle_walls[True])
            - statistics.median(bench.cycle_walls[False]),
        }
    )
    extras = {
        "layer_self_s": {
            name: agg[2] / traced_cycles for name, agg in sorted(in_jobs.items())
        },
        "reused_key_share": ratio(notes.get("indices.keys_seen_before", 0.0), keys),
        "lookup_keys": keys / traced_cycles,
    }
    return {name: out[name] for name in PER_LAYER}, extras


def self_time_check(tracer) -> float:
    """Largest gap, over the traced jobs, between the job span's
    duration and the sum of the self times of every span inside it."""
    by_job: Dict[int, float] = {}
    span_job = {}
    durations = {}
    for span_id, parent, job, name, start, end, self_s, _a in tracer.spans:
        span_job[span_id] = job
        if job:
            by_job[job] = by_job.get(job, 0.0) + self_s
        if name == "runner":
            durations[span_id] = end - start
    for (parent, _name), (_c, _t, self_s) in tracer.calls.items():
        job = span_job.get(parent, 0)
        if job:
            by_job[job] = by_job.get(job, 0.0) + self_s
    return max(abs(by_job[j] - d) for j, d in durations.items())


def host_record() -> dict:
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {
        "load": "closed loop, 1 client, 1 process",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def determinism_digest(rows: List[JobRow]) -> str:
    """SHA-256 of one cycle's per-job simulated times (exact float
    reprs) and counters; two runs of one seed must print the same."""
    cycle = [[r.name, repr(r.sim), r.counters] for r in rows if r.cycle == 0]
    return hashlib.sha256(json.dumps(cycle, sort_keys=True).encode()).hexdigest()


def run_all(args, names) -> int:
    """Every workload in turn, each in its own process (peak RSS is a
    per-process high-water mark). The last line combines their results,
    with metric names prefixed by the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        combined["correct"] = combined["correct"] and result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from tracer import NullTracer, Tracer
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"error: unknown workload {args.workload!r} ({', '.join(WORKLOADS)}, all)\n")
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    bench = Bench(workload, Tracer() if args.trace else None)

    # Cycle 0 warms up (first-call costs, allocator growth): it is
    # checked like every cycle and is the determinism reference, but is
    # left out of the timings.
    bench.cycle(0, traced=False)
    bench.setup_times.clear()
    bench.cycle_walls[False].clear()
    for _ in range(SETUP_REPEATS):
        bench.timed_setup(NullTracer())
    started = time.perf_counter()
    index = 1
    # At least two measured cycles; traced runs alternate untraced and
    # traced cycles and end on a traced one.
    while (
        index < 3
        or time.perf_counter() - started < args.seconds
        or (args.trace and index % 2 == 0)
    ):
        traced = bool(args.trace) and index % 2 == 0
        bench.cycle(index, traced)
        index += 1

    rows = bench.rows
    attempted = len(rows)
    failed = sum(1 for r in rows if not r.ok)
    error_rate = failed / attempted if attempted else 1.0
    metrics, tail_p, measured = end_to_end(bench)
    props = dict(bench.properties or {})
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "host": host_record(),
        "cycles": index,
        "jobs_per_cycle": attempted // max(1, index),
        "input_properties": props,
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
        "job_error_rate": error_rate,
        "job_wall_tail_percentile": tail_p,
        "measured_jobs": measured,
        "determinism_digest": determinism_digest(rows),
        "problems": bench.problems,
    }
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    host = report["host"]
    print(
        f"host: {host['load']}; nproc {host['nproc']}; python {host['python']}; "
        f"commit {host['commit'] or 'n/a'}; src sha256 {host['src_sha256'][:12]}"
    )
    print(f"cycles {index}, jobs {attempted} ({report['jobs_per_cycle']} per cycle)")
    map_records = sum(r.map_records for r in rows if r.cycle == 0)
    report["map_input_records_per_cycle"] = map_records
    print(
        f"input: {props.get('input_records')} records in the input files; "
        f"{map_records:.0f} map input records per cycle"
    )
    for index_name, (distinct, cap) in props.get("distinct_keys", {}).items():
        print(f"  {index_name}: {distinct} distinct lookup keys vs cache capacity {cap} ({distinct / cap:.2f}x)")

    names = {
        "records_per_s": f"map input records per host second of job execution ({map_records:.0f} per cycle)",
        "job_wall_tail_s": f"p{tail_p:.1f} of {measured} measured jobs (ten beyond it)",
        "job_wall_p50_s": f"median of {measured} measured jobs",
        "setup_s": f"median of {len(bench.setup_times)} set-ups",
        "sim_total_s": "simulated seconds per cycle",
    }
    for name, value in metrics.items():
        print(f"  {name:18s} {value:14.6f} {END_TO_END_UNITS[name]:5s} {names.get(name, '')}")
    print(f"  {'job_error_rate':18s} {error_rate:14.6f} ratio {failed} of {attempted} jobs")
    print(f"determinism digest (one cycle's per-job sim_time and counters): {report['determinism_digest'][:16]}")

    out_metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    base = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        layer, extras = per_layer(bench)
        gap = self_time_check(bench.tracer)
        report["per_layer"] = {
            k: {"value": v, "unit": PER_LAYER[k][0], "moves": PER_LAYER[k][1]} for k, v in layer.items()
        }
        report["layer_self_s"] = extras["layer_self_s"]
        report["self_time_gap_s"] = gap
        report["input_properties"]["reused_key_share"] = extras["reused_key_share"]
        print(f"  share of lookups whose key an earlier job of the cycle looked up: {extras['reused_key_share']:.4f} of {extras['lookup_keys']:.0f} keys")
        print("per-layer metrics (per traced cycle):")
        for name, value in layer.items():
            unit, moves = PER_LAYER[name]
            print(f"  {name:26s} {value:16.6f} {unit:7s} -> {moves}")
        print("layer self time within jobs (s per cycle):")
        for name, value in extras["layer_self_s"].items():
            print(f"  {name:26s} {value:12.6f}")
        print(f"self-time check: largest |sum of self times - job wall| = {gap:.3g} s")
        if gap > 1e-6:
            bench.problems.append(f"layer self times do not sum to the job wall time (gap {gap:g} s)")
        bench.tracer.write(str(base) + ".spans.jsonl")
        out_metrics = {k: {"value": v, "unit": PER_LAYER[k][0]} for k, v in layer.items()}

    report["jobs"] = [r.to_dict() for r in rows]
    correct = failed == 0 and not bench.problems
    report["correct"] = correct
    with open(str(base) + ".json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    for problem in bench.problems:
        sys.stderr.write(f"check failed: {problem}\n")
    for row in rows:
        if not row.ok:
            sys.stderr.write(f"job {row.name} (cycle {row.cycle}) failed: {row.error or 'output differs from the reference'}\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
