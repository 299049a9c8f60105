"""Per-job critical-path extraction with exact time accounting.

A simulated EFind job ends when its last stage's last phase's slowest
slot finishes, so the chain that *bounds* completion time is concrete:

    job -> stages (sequential) -> phases (map, reduce) ->
    the task slot whose last task ends the phase -> that slot's tasks

The extractor walks that chain and tiles the job's whole ``[start,
end]`` interval with contiguous :class:`PathSegment`\\ s -- startup
gaps, tasks (including crashed attempts occupying the slot), and slot
idle time -- so the segments always sum to exactly the job's simulated
duration (the 100%-accounting invariant the tests pin).

Each task segment carries a per-op time attribution (compute vs index
lookup vs shuffle vs io), taken from the exact ``op_totals`` aggregates
on the task span (never capped), with the uninstrumented remainder
reported as ``compute``. Each phase also reports *what-if slack*: the
time saved if every wave's slowest task had run at that wave's median
duration -- the headroom straggler mitigation could recover.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional

from repro.obs.trace import (
    DEPTH_JOB,
    DEPTH_PHASE,
    DEPTH_STAGE,
    DEPTH_TASK,
)

_EPS = 1e-9

#: Top-level op-span names -> attribution bucket. Nested detail names
#: (cache.probe, index.fetch, ...) are excluded: they overlap their
#: parent lookup span and would double-count.
ATTRIBUTION_BUCKETS = {
    "dfs.read": "io",
    "dfs.store": "io",
    "map.spill": "io",
    "shuffle.fetch": "shuffle",
    "shuffle.merge": "shuffle",
    "lookup": "lookup",
    "lookup.batch": "lookup",
}


@dataclass
class PathSegment:
    """One contiguous piece of a job's critical path."""

    kind: str  # "startup" | "task" | "task.crash" | "slot.idle" | ...
    name: str
    start: float
    end: float
    stage: str = ""
    phase: str = ""  # "map" | "reduce" | ""
    wave: Optional[int] = None
    track: str = ""
    #: bucket -> seconds, summing to the segment duration (tasks only).
    attribution: Dict[str, float] = field(default_factory=dict)
    #: ``rule(severity)`` labels of live SLO alerts whose firing window
    #: overlapped this segment (empty without an alert timeline).
    alerts: List[str] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "stage": self.stage,
            "phase": self.phase,
            "wave": self.wave,
            "track": self.track,
            "attribution": dict(sorted(self.attribution.items())),
            "alerts": list(self.alerts),
        }


@dataclass
class PhaseSummary:
    """Aggregates for one phase on the critical path."""

    stage: str
    kind: str  # "map" | "reduce"
    start: float
    end: float
    tasks_on_path: int
    tasks_total: int
    waves: int
    attribution: Dict[str, float]
    #: per wave: slowest-minus-median task duration; summed headroom.
    whatif_wave_slack: Dict[int, float]
    #: the slot whose tasks end the phase ("" when it ran none), and the
    #: seconds those tasks occupied it; the rest of the phase is slack
    #: (slot idle gaps and the phase tail).
    track: str = ""
    chain: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def whatif_total_slack(self) -> float:
        return sum(self.whatif_wave_slack.values())

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "tasks_on_path": self.tasks_on_path,
            "tasks_total": self.tasks_total,
            "waves": self.waves,
            "attribution": dict(sorted(self.attribution.items())),
            "whatif_wave_slack": {
                str(w): s for w, s in sorted(self.whatif_wave_slack.items())
            },
            "whatif_total_slack": self.whatif_total_slack,
            "track": self.track,
            "chain": self.chain,
        }


@dataclass
class JobCriticalPath:
    """The full critical path of one depth-0 EFind job span."""

    job: str
    start: float
    end: float
    segments: List[PathSegment]
    phases: List[PhaseSummary]

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def accounted(self) -> float:
        return sum(s.duration for s in self.segments)

    def attribution(self) -> Dict[str, float]:
        """Whole-job seconds per bucket (non-task segments count under
        their segment kind)."""
        out: Dict[str, float] = {}
        for seg in self.segments:
            if seg.attribution:
                for bucket, seconds in seg.attribution.items():
                    out[bucket] = out.get(bucket, 0.0) + seconds
            else:
                out[seg.kind] = out.get(seg.kind, 0.0) + seg.duration
        return out

    def to_dict(self) -> dict:
        return {
            "job": self.job,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "accounted": self.accounted,
            "attribution": dict(sorted(self.attribution().items())),
            "segments": [s.to_dict() for s in self.segments],
            "phases": [p.to_dict() for p in self.phases],
        }


# ----------------------------------------------------------------------
def _stage_job_of(span: dict) -> str:
    return str(span["args"].get("job", span["name"]))


def _stages_of_job(spans: List[dict], job: str) -> List[dict]:
    """Stage spans belong to EFind job ``J`` when their JobConf name is
    ``J`` itself or ``J/<stage label>`` (the compiler's naming)."""
    out = []
    for s in spans:
        if s["depth"] != DEPTH_STAGE:
            continue
        stage_job = _stage_job_of(s)
        if stage_job == job or stage_job.startswith(job + "/"):
            out.append(s)
    return sorted(out, key=lambda s: (s["start"], _stage_job_of(s)))


def _task_matcher(stage_job: str):
    """Task ids of one stage: ``<stage conf name>-m0007`` / ``-r0003``.
    Exact-shape matching, so sibling stages whose labels share a prefix
    never collide."""
    return re.compile(re.escape(stage_job) + r"-[mr]\d+$").match


def _task_attribution(task: dict) -> Dict[str, float]:
    """Bucketed seconds for one task span, exact via ``op_totals``;
    the uninstrumented remainder (startup, chain CPU, sort) is
    ``compute``."""
    out: Dict[str, float] = {}
    attributed = 0.0
    for name, entry in task["args"].get("op_totals", {}).items():
        bucket = ATTRIBUTION_BUCKETS.get(name)
        if bucket is None:
            continue  # nested detail (cache.probe, index.fetch, retries)
        seconds = float(entry[1])
        out[bucket] = out.get(bucket, 0.0) + seconds
        attributed += seconds
    out["compute"] = max(0.0, task["dur"] - attributed)
    return out


def _walk_phase(
    phase: dict,
    stage_job: str,
    tasks: List[dict],
    segments: List[PathSegment],
) -> PhaseSummary:
    """Append the phase's critical chain to ``segments`` (tiling
    ``[phase.start, phase.end]`` exactly) and summarize it."""
    kind = phase["args"].get("kind", phase["name"])
    match = _task_matcher(stage_job)
    cursor = phase["start"]
    phase_end = phase["start"] + phase["dur"]
    # Task ids repeat across a replanned job's stage attempts, so the
    # phase's time window must constrain the match too (see
    # job_critical_path on why containment is safe here).
    mine = [
        t
        for t in tasks
        if match(str(t["args"].get("task", "")))
        and t["args"].get("kind") == kind
        and t["start"] >= phase["start"] - _EPS
        and t["start"] + t["dur"] <= phase_end + _EPS
    ]
    attribution: Dict[str, float] = {}
    on_path = 0
    track = ""
    chain = 0.0
    if mine:
        # The phase ends when its last slot finishes; that slot's tasks
        # (and crashed attempts) are the binding chain.
        last = max(mine, key=lambda t: (t["start"] + t["dur"], t["track"]))
        track = last["track"]
        for t in sorted(
            (t for t in mine if t["track"] == track), key=lambda t: t["start"]
        ):
            if t["start"] > cursor + _EPS:
                seg = PathSegment(
                    "slot.idle", "slot idle", cursor, t["start"],
                    stage=stage_job, phase=kind, track=track,
                )
                segments.append(seg)
                attribution["slot.idle"] = (
                    attribution.get("slot.idle", 0.0) + seg.duration
                )
            # Crashed attempts and speculatively-killed copies really
            # occupied their slot until the crash/kill, so they tile as
            # their own segment kinds rather than as normal tasks.
            seg_kind = (
                t["name"] if t["name"] in ("task.crash", "task.killed") else "task"
            )
            seg = PathSegment(
                seg_kind,
                str(t["args"].get("task", t["name"])),
                t["start"],
                t["start"] + t["dur"],
                stage=stage_job,
                phase=kind,
                wave=t["args"].get("wave"),
                track=t["track"],
                attribution=(
                    _task_attribution(t)
                    if seg_kind == "task"
                    else {seg_kind: t["dur"]}
                ),
            )
            segments.append(seg)
            on_path += 1
            chain += seg.duration
            for bucket, seconds in seg.attribution.items():
                attribution[bucket] = attribution.get(bucket, 0.0) + seconds
            cursor = seg.end
    if phase_end > cursor + _EPS:
        seg = PathSegment(
            "phase.tail", f"{kind} tail", cursor, phase_end,
            stage=stage_job, phase=kind,
        )
        segments.append(seg)
        attribution["phase.tail"] = (
            attribution.get("phase.tail", 0.0) + seg.duration
        )

    by_wave: Dict[int, List[float]] = {}
    for t in mine:
        # Only completed attempts enter the wave-slack stats: a crashed
        # attempt or a killed speculative copy would double-count its
        # logical task (whose winning attempt is already here).
        if t["name"] != "task":
            continue
        by_wave.setdefault(int(t["args"].get("wave", 0)), []).append(t["dur"])
    slack = {
        wave: max(durs) - median(durs) for wave, durs in sorted(by_wave.items())
    }
    return PhaseSummary(
        stage=stage_job,
        kind=kind,
        start=phase["start"],
        end=phase_end,
        tasks_on_path=on_path,
        tasks_total=len(mine),
        waves=len(by_wave),
        attribution=attribution,
        whatif_wave_slack=slack,
        track=track,
        chain=chain,
    )


def alert_labels_between(
    alerts: Optional[List[dict]], start: float, end: float
) -> List[str]:
    """``rule(severity)`` labels of the live SLO alerts whose firing
    window overlaps ``[start, end]`` -- the alert-annotated analysis
    join (no labels without an alert timeline)."""
    if not alerts:
        return []
    from repro.obs.live.engine import alert_labels, overlapping_alerts

    return alert_labels(overlapping_alerts(alerts, start, end))


def job_critical_path(
    spans: List[dict], job_span: dict, alerts: Optional[List[dict]] = None
) -> JobCriticalPath:
    """The critical path of one depth-0 job span, optionally annotated
    with a live run's SLO alert timeline."""
    job = str(job_span["args"].get("job", job_span["name"]))
    t0 = job_span["start"]
    t1 = job_span["start"] + job_span["dur"]
    segments: List[PathSegment] = []
    phases_out: List[PhaseSummary] = []
    all_tasks = [s for s in spans if s["depth"] == DEPTH_TASK]
    cursor = t0
    for stage in _stages_of_job(spans, job):
        stage_job = _stage_job_of(stage)
        stage_end = stage["start"] + stage["dur"]
        if stage["start"] > cursor + _EPS:
            segments.append(
                PathSegment("driver.gap", "between stages", cursor,
                            stage["start"], stage=stage_job)
            )
            cursor = stage["start"]
        # A replanned job re-runs a stage under the same conf name, so
        # name match alone is ambiguous; attempts of one job are
        # sequential, so containment in *this* stage span disambiguates.
        phases = sorted(
            (
                s
                for s in spans
                if s["depth"] == DEPTH_PHASE
                and _stage_job_of(s) == stage_job
                and s["start"] >= stage["start"] - _EPS
                and s["start"] + s["dur"] <= stage_end + _EPS
            ),
            key=lambda s: s["start"],
        )
        if not phases:
            segments.append(
                PathSegment("stage", stage_job, cursor, stage_end,
                            stage=stage_job)
            )
            cursor = stage_end
            continue
        for phase in phases:
            if phase["start"] > cursor + _EPS:
                segments.append(
                    PathSegment(
                        "startup", "job startup / phase gap", cursor,
                        phase["start"], stage=stage_job,
                        phase=phase["args"].get("kind", ""),
                    )
                )
                cursor = phase["start"]
            phases_out.append(
                _walk_phase(phase, stage_job, all_tasks, segments)
            )
            cursor = phase["start"] + phase["dur"]
        if stage_end > cursor + _EPS:
            segments.append(
                PathSegment("stage.tail", "stage tail", cursor, stage_end,
                            stage=stage_job)
            )
            cursor = stage_end
    if t1 > cursor + _EPS:
        segments.append(PathSegment("driver.tail", "job tail", cursor, t1))
    for seg in segments:
        seg.alerts = alert_labels_between(alerts, seg.start, seg.end)
    return JobCriticalPath(
        job=job, start=t0, end=t1, segments=segments, phases=phases_out
    )


def critical_paths(
    spans: List[dict], alerts: Optional[List[dict]] = None
) -> List[JobCriticalPath]:
    """One :class:`JobCriticalPath` per depth-0 job span, in start
    order (ties broken by job name for determinism)."""
    jobs = sorted(
        (s for s in spans if s["depth"] == DEPTH_JOB),
        key=lambda s: (s["start"], str(s["args"].get("job", s["name"]))),
    )
    return [job_critical_path(spans, j, alerts=alerts) for j in jobs]


# ----------------------------------------------------------------------
def render(path: JobCriticalPath, max_segments: int = 40) -> List[str]:
    """Human-readable report lines for one job's critical path."""
    attribution = path.attribution()
    total = path.duration or 1.0
    attr = ", ".join(
        f"{bucket} {seconds:.3f}s ({seconds / total:.0%})"
        for bucket, seconds in sorted(
            attribution.items(), key=lambda kv: -kv[1]
        )
    )
    lines = [
        f"job {path.job}: {path.duration:.3f}s simulated, "
        f"{path.accounted:.3f}s accounted "
        f"({path.accounted / total:.1%}) across {len(path.segments)} "
        f"segment(s)",
        f"  attribution: {attr}",
    ]
    if path.phases:
        lines.append("  per-phase critical path:")
    for phase in path.phases:
        on_track = f" on {phase.track}" if phase.track else ""
        lines += [
            f"  {phase.stage} {phase.kind}: {phase.duration:.3f}s, "
            f"{phase.tasks_on_path}/{phase.tasks_total} task(s) on path, "
            f"{phase.waves} wave(s), what-if slack "
            f"{phase.whatif_total_slack:.3f}s",
            f"    critical chain {phase.chain:.3f}s{on_track}, "
            f"slack {phase.duration - phase.chain:.3f}s",
        ]
    shown = path.segments[:max_segments]
    for seg in shown:
        detail = ""
        if seg.attribution:
            top = max(seg.attribution.items(), key=lambda kv: kv[1])
            detail = f" (top: {top[0]} {top[1]:.3f}s)"
        wave = f" wave {seg.wave}" if seg.wave is not None else ""
        alerts = f" [ALERT {', '.join(seg.alerts)}]" if seg.alerts else ""
        lines.append(
            f"    {seg.start:8.3f}s +{seg.duration:.3f}s {seg.kind} "
            f"{seg.name}{wave}{detail}{alerts}"
        )
    if len(path.segments) > len(shown):
        lines.append(f"    ... {len(path.segments) - len(shown)} more segment(s)")
    return lines
