"""Straggler and skew profiling over exported traces.

Three questions per phase:

* **how spread are the waves?** -- per-wave task-duration distributions
  (mean / median / p95 / max, coefficient of variation);
* **how skewed is the partitioning?** -- Gini coefficient and CV over
  per-task input bytes (``dfs.read`` for map, ``shuffle.fetch`` for
  reduce), the offline analogue of the counters the optimizer samples;
* **which tasks straggled, and why?** -- tasks slower than
  ``threshold x`` their wave's median, with the cause attributed from
  the task's exact op aggregates relative to its wave peers: fault
  retries, a cache-miss burst (excess index fetches), lookup-time
  excess, shuffle/input skew, or residual compute (e.g. a slow host).

A primary killed by a winning backup shows up as a ``task.killed``
span, not a slow ``task`` span -- the straggle never materialised. When
its *projected* duration would have crossed the threshold, the profile
reports it with cause ``mitigated-by-speculation``, so a speculation-on
trace still explains where the tail went.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import median
from typing import Dict, List, Optional, Tuple

from repro.obs.analysis.critical_path import alert_labels_between
from repro.obs.trace import DEPTH_OP, DEPTH_TASK

#: A task is flagged when its duration exceeds threshold x wave median.
DEFAULT_STRAGGLER_THRESHOLD = 1.5

_INPUT_OPS = {"map": "dfs.read", "reduce": "shuffle.fetch"}


def gini(values: List[float]) -> float:
    """Gini coefficient in [0, 1): 0 = perfectly even, ->1 = one value
    holds everything. Empty/zero-sum inputs answer 0."""
    n = len(values)
    total = sum(values)
    if n == 0 or total <= 0:
        return 0.0
    ordered = sorted(values)
    weighted = sum((i + 1) * v for i, v in enumerate(ordered))
    return (2.0 * weighted) / (n * total) - (n + 1.0) / n


def coefficient_of_variation(values: List[float]) -> float:
    n = len(values)
    if n < 2:
        return 0.0
    mean = sum(values) / n
    if mean == 0:
        return 0.0
    var = sum((v - mean) ** 2 for v in values) / n
    return var**0.5 / mean


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, exact on boundaries --
    same rule as the metrics histograms)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), math.ceil(q * len(ordered) - 1e-9)))
    return ordered[rank - 1]


@dataclass
class WaveProfile:
    wave: int
    tasks: int
    mean: float
    median: float
    p95: float
    max: float
    cv: float
    #: (task id, slot track) of the wave's slowest completed task --
    #: the one whose ``max`` duration bounds the wave.
    slowest: Tuple[str, str]

    def to_dict(self) -> dict:
        return {
            "wave": self.wave, "tasks": self.tasks, "mean": self.mean,
            "median": self.median, "p95": self.p95, "max": self.max,
            "cv": self.cv,
            "slowest": {"task": self.slowest[0], "track": self.slowest[1]},
        }


@dataclass
class Straggler:
    task: str
    track: str
    wave: int
    duration: float
    wave_median: float
    slowdown: float  # duration / wave median
    cause: str
    #: bucket -> (task seconds, wave-median seconds) behind the cause.
    evidence: Dict[str, Tuple[float, float]] = field(default_factory=dict)
    #: ``rule(severity)`` labels of live SLO alerts whose firing window
    #: overlapped this task (empty without an alert timeline).
    alerts: List[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "task": self.task, "track": self.track, "wave": self.wave,
            "duration": self.duration, "wave_median": self.wave_median,
            "slowdown": self.slowdown, "cause": self.cause,
            "evidence": {
                k: {"task": a, "wave_median": b}
                for k, (a, b) in sorted(self.evidence.items())
            },
            "alerts": list(self.alerts),
        }


@dataclass
class PhaseProfile:
    stage: str
    kind: str  # "map" | "reduce"
    tasks: int
    waves: List[WaveProfile]
    input_gini: float
    input_cv: float
    input_bytes: Dict[str, float]  # task id -> input bytes
    stragglers: List[Straggler]

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            "kind": self.kind,
            "tasks": self.tasks,
            "waves": [w.to_dict() for w in self.waves],
            "input_gini": self.input_gini,
            "input_cv": self.input_cv,
            "stragglers": [s.to_dict() for s in self.stragglers],
        }


# ----------------------------------------------------------------------
def _op_seconds(task: dict) -> Dict[str, float]:
    return {
        name: float(entry[1])
        for name, entry in task["args"].get("op_totals", {}).items()
    }


def _op_counts(task: dict) -> Dict[str, float]:
    return {
        name: float(entry[0])
        for name, entry in task["args"].get("op_totals", {}).items()
    }


def _attribute_cause(
    task: dict,
    peers: List[dict],
    input_bytes: Dict[str, float],
) -> Tuple[str, Dict[str, Tuple[float, float]]]:
    """Name the dominant reason one task ran long, by comparing its
    exact op aggregates against the median of its wave peers."""
    mine_s = _op_seconds(task)
    mine_c = _op_counts(task)
    peer_s = [_op_seconds(p) for p in peers]
    peer_c = [_op_counts(p) for p in peers]

    def med_s(name: str) -> float:
        return median([p.get(name, 0.0) for p in peer_s]) if peer_s else 0.0

    def med_c(name: str) -> float:
        return median([p.get(name, 0.0) for p in peer_c]) if peer_c else 0.0

    evidence: Dict[str, Tuple[float, float]] = {}
    # Hard signals first: fault retries dominate any timing comparison.
    retries = mine_c.get("lookup.retry", 0.0)
    if retries > 0:
        evidence["lookup.retry.count"] = (retries, med_c("lookup.retry"))
        return "fault-retries", evidence

    lookup_mine = mine_s.get("lookup", 0.0) + mine_s.get("lookup.batch", 0.0)
    lookup_med = med_s("lookup") + med_s("lookup.batch")
    shuffle_mine = mine_s.get("shuffle.fetch", 0.0) + mine_s.get(
        "shuffle.merge", 0.0
    )
    shuffle_med = med_s("shuffle.fetch") + med_s("shuffle.merge")
    read_mine = mine_s.get("dfs.read", 0.0)
    read_med = med_s("dfs.read")
    attributed_mine = lookup_mine + shuffle_mine + read_mine + mine_s.get(
        "map.spill", 0.0
    ) + mine_s.get("dfs.store", 0.0)
    compute_mine = max(0.0, task["dur"] - attributed_mine)
    peer_computes = []
    for p, ps in zip(peers, peer_s):
        attributed = sum(
            ps.get(n, 0.0)
            for n in ("lookup", "lookup.batch", "shuffle.fetch",
                      "shuffle.merge", "dfs.read", "map.spill", "dfs.store")
        )
        peer_computes.append(max(0.0, p["dur"] - attributed))
    compute_med = median(peer_computes) if peer_computes else 0.0

    excesses = {
        "lookup": lookup_mine - lookup_med,
        "shuffle": shuffle_mine - shuffle_med,
        "input-read": read_mine - read_med,
        "compute": compute_mine - compute_med,
    }
    cause = max(sorted(excesses), key=lambda k: excesses[k])
    if excesses[cause] <= 0:
        cause = "compute"

    if cause == "lookup":
        evidence["lookup.seconds"] = (lookup_mine, lookup_med)
        fetches = mine_c.get("index.fetch", 0.0)
        fetch_med = med_c("index.fetch")
        evidence["index.fetch.count"] = (fetches, fetch_med)
        # Many more cache misses than peers -> the lookup excess is a
        # cache-miss burst, not a slow index. Only meaningful when the
        # task actually probed a cache: a baseline-strategy task has
        # zero probes, so its excess fetches are plain lookup volume,
        # not misses.
        probes = mine_c.get("cache.probe", 0.0)
        if probes > 0 and fetch_med > 0 and fetches > 1.5 * fetch_med:
            evidence["cache.probe.count"] = (probes, med_c("cache.probe"))
            return "cache-miss-burst", evidence
        return "slow-lookups", evidence
    if cause == "shuffle":
        evidence["shuffle.seconds"] = (shuffle_mine, shuffle_med)
        task_id = str(task["args"].get("task", ""))
        mine_bytes = input_bytes.get(task_id, 0.0)
        peer_bytes = [
            input_bytes.get(str(p["args"].get("task", "")), 0.0) for p in peers
        ]
        evidence["input.bytes"] = (
            mine_bytes, median(peer_bytes) if peer_bytes else 0.0
        )
        return "partition-skew", evidence
    if cause == "input-read":
        evidence["dfs.read.seconds"] = (read_mine, read_med)
        return "input-skew", evidence
    evidence["compute.seconds"] = (compute_mine, compute_med)
    return "slow-compute", evidence


def phase_profiles(
    spans: List[dict],
    straggler_threshold: float = DEFAULT_STRAGGLER_THRESHOLD,
    alerts: Optional[List[dict]] = None,
) -> List[PhaseProfile]:
    """Profile every (stage, phase kind) with task attempts in the
    trace, in deterministic (stage, kind) order; each flagged straggler
    is annotated with the live SLO alerts that overlapped it when an
    alert timeline is given."""
    tasks = [
        s for s in spans if s["depth"] == DEPTH_TASK and s["name"] == "task"
    ]
    killed_primaries = [
        s
        for s in spans
        if s["depth"] == DEPTH_TASK
        and s["name"] == "task.killed"
        and s["args"].get("role") == "primary"
    ]
    input_bytes: Dict[str, float] = {}
    for s in spans:
        if s["depth"] == DEPTH_OP and s["name"] in ("dfs.read", "shuffle.fetch"):
            task_id = str(s["args"].get("task", ""))
            if task_id:
                input_bytes[task_id] = input_bytes.get(task_id, 0.0) + float(
                    s["args"].get("bytes", 0.0)
                )

    groups: Dict[Tuple[str, str], List[dict]] = {}
    for t in tasks:
        task_id = str(t["args"].get("task", ""))
        # task ids look like "<stage conf name>-m0007"
        stage = task_id.rsplit("-", 1)[0] if "-" in task_id else "?"
        kind = str(t["args"].get("kind", "?"))
        groups.setdefault((stage, kind), []).append(t)
    killed_groups: Dict[Tuple[str, str], List[dict]] = {}
    for t in killed_primaries:
        task_id = str(t["args"].get("task", ""))
        stage = task_id.rsplit("-", 1)[0] if "-" in task_id else "?"
        kind = str(t["args"].get("kind", "?"))
        killed_groups.setdefault((stage, kind), []).append(t)

    out: List[PhaseProfile] = []
    for (stage, kind), members in sorted(groups.items()):
        by_wave: Dict[int, List[dict]] = {}
        for t in members:
            by_wave.setdefault(int(t["args"].get("wave", 0)), []).append(t)
        waves = []
        stragglers: List[Straggler] = []
        wave_medians: Dict[int, float] = {}
        for wave, batch in sorted(by_wave.items()):
            durs = [t["dur"] for t in batch]
            wave_median = median(durs)
            slowest = max(batch, key=lambda t: t["dur"])
            waves.append(
                WaveProfile(
                    wave=wave,
                    tasks=len(batch),
                    mean=sum(durs) / len(durs),
                    median=wave_median,
                    p95=_percentile(durs, 0.95),
                    max=slowest["dur"],
                    cv=coefficient_of_variation(durs),
                    slowest=(
                        str(slowest["args"].get("task", "?")),
                        slowest["track"],
                    ),
                )
            )
            if len(batch) < 2:
                continue
            wave_medians[wave] = wave_median
            if wave_median <= 0:
                continue
            for t in sorted(
                batch, key=lambda t: str(t["args"].get("task", ""))
            ):
                if t["dur"] <= straggler_threshold * wave_median:
                    continue
                peers = [p for p in batch if p is not t]
                cause, evidence = _attribute_cause(t, peers, input_bytes)
                stragglers.append(
                    Straggler(
                        task=str(t["args"].get("task", "?")),
                        track=t["track"],
                        wave=wave,
                        duration=t["dur"],
                        wave_median=wave_median,
                        slowdown=t["dur"] / wave_median,
                        cause=cause,
                        evidence=evidence,
                        alerts=alert_labels_between(
                            alerts, t["start"], t["start"] + t["dur"]
                        ),
                    )
                )
        # Killed primaries never ran to completion; judge their
        # *projected* duration against the wave of completed peers
        # (which includes the winning backup's attempt).
        for t in sorted(
            killed_groups.get((stage, kind), ()),
            key=lambda t: str(t["args"].get("task", "")),
        ):
            wave = int(t["args"].get("wave", 0))
            wave_median = wave_medians.get(wave, 0.0)
            projected = float(t["args"].get("projected_dur", 0.0))
            if wave_median <= 0 or projected <= straggler_threshold * wave_median:
                continue
            stragglers.append(
                Straggler(
                    task=str(t["args"].get("task", "?")),
                    track=t["track"],
                    wave=wave,
                    duration=projected,
                    wave_median=wave_median,
                    slowdown=projected / wave_median,
                    cause="mitigated-by-speculation",
                    evidence={"projected.seconds": (projected, wave_median)},
                    alerts=alert_labels_between(
                        alerts, t["start"], t["start"] + t["dur"]
                    ),
                )
            )
        stragglers.sort(key=lambda s: (-s.slowdown, s.task))
        phase_inputs = [
            input_bytes[str(t["args"].get("task", ""))]
            for t in members
            if str(t["args"].get("task", "")) in input_bytes
        ]
        out.append(
            PhaseProfile(
                stage=stage,
                kind=kind,
                tasks=len(members),
                waves=waves,
                input_gini=gini(phase_inputs),
                input_cv=coefficient_of_variation(phase_inputs),
                input_bytes={
                    str(t["args"].get("task", "")): input_bytes.get(
                        str(t["args"].get("task", "")), 0.0
                    )
                    for t in members
                },
                stragglers=stragglers,
            )
        )
    return out


# ----------------------------------------------------------------------
def render(profiles: List[PhaseProfile], top_k: int = 5) -> List[str]:
    if not profiles:
        return ["no task spans in trace"]
    lines: List[str] = []
    for p in profiles:
        lines.append(
            f"{p.stage} {p.kind}: {p.tasks} task(s), "
            f"input skew gini={p.input_gini:.3f} cv={p.input_cv:.3f}"
        )
        for w in p.waves:
            lines.append(
                f"  wave {w.wave}: n={w.tasks} mean={w.mean:.3f}s "
                f"median={w.median:.3f}s p95={w.p95:.3f}s max={w.max:.3f}s "
                f"cv={w.cv:.3f}, slowest {w.slowest[0]} on {w.slowest[1]}"
            )
        if p.stragglers:
            for s in p.stragglers[:top_k]:
                alerts = f" [ALERT {', '.join(s.alerts)}]" if s.alerts else ""
                lines.append(
                    f"  straggler {s.task} on {s.track}: {s.duration:.3f}s "
                    f"({s.slowdown:.2f}x wave median) -- {s.cause}{alerts}"
                )
            if len(p.stragglers) > top_k:
                lines.append(
                    f"  ... {len(p.stragglers) - top_k} more straggler(s)"
                )
        else:
            lines.append("  no stragglers flagged")
    return lines
