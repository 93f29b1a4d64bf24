"""Shared pieces of the benchmark: result accounting, percentiles, layer metrics."""

from __future__ import annotations

import gc
import os
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: The benchmark is sized for a 2-core box: no workload uses more worker
#: processes, threads or connections than this.
NPROC = max(1, min(2, len(os.sched_getaffinity(0))))

#: End-to-end metrics every workload reports (BENCHMARK.json ``end_to_end``).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "check_p50_ms": "ms",
    "check_tail_ms": "ms",
    "jobs_per_s": "1/s",
}

KERNELS = ("conv2d", "downsample", "fir", "matvec", "prefix_sum", "sad", "wavelet_lift")

#: Per-layer metrics every traced run reports (BENCHMARK.json ``per_layer``).
#: A layer the workload never calls reads 0.
PER_LAYER = {
    "presburger.ms": "ms",
    "presburger.calls": "count",
    "presburger.share": "ratio",
    "opcache.hit_ratio": "ratio",
    "opcache.misses": "count",
    "opcache.evictions": "count",
    "intern.hit_ratio": "ratio",
    "analysis.defuse_ms": "ms",
    "lang.parse_ms": "ms",
    "lang.interp_ms": "ms",
    "addg.extract_ms": "ms",
    "addg.nodes": "count",
    "checker.self_ms": "ms",
    "checker.table_hits": "count",
    "checker.compare_calls": "count",
    "verifier.self_ms": "ms",
    "service.fingerprint_ms": "ms",
    "service.cache_get_ms": "ms",
    "service.cache_put_ms": "ms",
    "service.cache_hit_ratio": "ratio",
    "service.dedup_followers": "count",
    "service.job_p50_ms": "ms",
    "service.worker_busy_ratio": "ratio",
    "service.warm_jobs_per_s": "1/s",
    "server.hit_p50_ms": "ms",
    "server.miss_p50_ms": "ms",
    "server.dup_p50_ms": "ms",
    "server.rejected": "count",
    "server.dedup_hits": "count",
    "server.verdict_cache_hit_ratio": "ratio",
    "server.compiled_hit_ratio": "ratio",
    "server.opcache_evictions": "count",
    "server.check_mean_ms": "ms",
    "server.response_bytes": "bytes",
    "loadgen.late_p99_ms": "ms",
    "loadgen.backlog": "count",
    "loadgen.light_p50_ms": "ms",
    "loadgen.light_tail_ms": "ms",
    "loadgen.heavy_p50_ms": "ms",
    "loadgen.heavy_tail_ms": "ms",
    "loadgen.max_rate_per_s": "1/s",
    "solvers.ms": "ms",
    "solvers.queries": "count",
    "solvers.disagreements": "count",
    "scenarios.build_ms": "ms",
    "diagnostics.report_ms": "ms",
    "diagnostics.confirmed_ratio": "ratio",
    **{f"kernel.{name}.p50_ms": "ms" for name in KERNELS},
    "kernel.suite_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.coverage_min": "ratio",
}


#: One calibration spin takes this long at the reference speed (about the
#: fast phases of the 2-core box the benchmark was sized on).
REFERENCE_SPIN_MS = 7.0


def _spin(iterations: int) -> int:
    table = {}
    total = 0
    for index in range(iterations):
        total += (index * 7) % 13
        table[index & 1023] = total
    return total


def spin_ms() -> float:
    """Median time of three calibration spins, garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(3):
            started = time.perf_counter()
            _spin(60_000)
            samples.append((time.perf_counter() - started) * 1e3)
        return statistics.median(samples)
    finally:
        if enabled:
            gc.enable()


class Speed:
    """How fast the machine runs right now, relative to the reference speed.

    The cores the benchmark gets are shared: over tens of seconds their
    speed drifts by a quarter or more, which swamps the differences the
    benchmark exists to catch.  A fixed pure-Python spin is timed before the
    first pass and after every pass; a pass's *factor* is the reference spin
    time over the mean spin time around it.  End-to-end times are multiplied
    by their pass's factor (rates divided), so they read as milliseconds at
    the reference speed.  Raw figures are printed next to them on stderr.
    """

    def __init__(self) -> None:
        self.last = spin_ms()

    def next(self) -> float:
        """The factor of the pass that just ended."""
        now = spin_ms()
        factor = 2.0 * REFERENCE_SPIN_MS / (self.last + now)
        self.last = now
        return factor


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it.

    Returns ``(value, percentile, samples)``; with 10 samples or fewer the
    maximum stands in (percentile 100).
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0, 0.0, 0
    index = max(0, len(ordered) - 11)
    if len(ordered) <= 10:
        index = len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


@dataclass
class Outcome:
    """What one measured run of a workload produced."""

    attempted: int = 0
    failed: int = 0
    wrong: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    #: Count-type figures that repeat exactly on one seed (traced runs).
    exact_counts: Dict[str, object] = field(default_factory=dict)
    #: End-to-end times before scaling to the reference speed.
    raw: Dict[str, float] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        """Count a failed operation (error, timeout, rejection)."""
        self.failed += 1
        if len(self.notes) < 50:
            self.notes.append(f"failed: {message}")

    def mismatch(self, message: str) -> None:
        """A verdict or gate that contradicts the known answer: fails the run."""
        self.failed += 1
        self.wrong.append(message)

    def set_tail(self, name: str, samples_ms: Sequence[float]) -> None:
        value, percentile, count = tail(samples_ms)
        self.metrics[name] = value
        self.notes.append(f"{name}: p{percentile:.1f} of {count} samples")


class LayerTotals:
    """Layer self/outer times (ns) and outermost calls summed over many calls."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = {}
        self.outer_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}

    def add(self, delta: Dict[str, Dict[str, int]]) -> None:
        for kind in ("self_ns", "outer_ns", "calls"):
            bucket = getattr(self, kind)
            for layer, value in delta.get(kind, {}).items():
                bucket[layer] = bucket.get(layer, 0) + value

    def outer_ms(self, layer: str) -> float:
        return self.outer_ns.get(layer, 0) / 1e6

    def self_ms(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e6

    def total_self_ms(self) -> float:
        return sum(self.self_ns.values()) / 1e6


def layer_metrics(totals: LayerTotals, verdicts: int, passes: int) -> Dict[str, float]:
    """Layer times per verdict and call counts per pass, for in-process layers."""
    per = 1.0 / max(1, verdicts)
    per_pass = 1.0 / max(1, passes)
    total = totals.total_self_ms()
    return {
        "presburger.ms": totals.outer_ms("presburger") * per,
        "presburger.calls": totals.calls.get("presburger", 0) * per_pass,
        "presburger.share": totals.outer_ms("presburger") / total if total else 0.0,
        "analysis.defuse_ms": totals.outer_ms("analysis") * per,
        "lang.parse_ms": totals.outer_ms("lang.parse") * per,
        "lang.interp_ms": totals.outer_ms("lang.interp") * per,
        "addg.extract_ms": totals.outer_ms("addg") * per,
        "checker.self_ms": totals.self_ms("checker") * per,
        "verifier.self_ms": totals.self_ms("verifier") * per,
        "service.fingerprint_ms": totals.outer_ms("service.fingerprint") * per,
        "service.cache_get_ms": totals.outer_ms("service.cache_get") * per,
        "service.cache_put_ms": totals.outer_ms("service.cache_put") * per,
        "solvers.ms": totals.outer_ms("solvers") * per,
        "solvers.queries": totals.calls.get("solvers", 0) * per_pass,
        "scenarios.build_ms": totals.outer_ms("scenarios") * per,
        "diagnostics.report_ms": totals.outer_ms("diagnostics") * per,
    }


#: The opcache and intern-pool counters, in the order pool workers ship them.
OPCACHE_KEYS = ("opcache.hits", "opcache.misses", "opcache.evictions", "intern.hits", "intern.misses")


def opcache_metrics(counts: Dict[str, float]) -> Dict[str, float]:
    """The per-layer opcache figures from counters keyed by :data:`OPCACHE_KEYS`."""
    lookups = counts["opcache.hits"] + counts["opcache.misses"]
    interns = counts["intern.hits"] + counts["intern.misses"]
    return {
        "opcache.hit_ratio": ratio(counts["opcache.hits"], lookups),
        "opcache.misses": counts["opcache.misses"],
        "opcache.evictions": counts["opcache.evictions"],
        "intern.hit_ratio": ratio(counts["intern.hits"], interns),
    }


def overhead(traced: Sequence[float], untraced: Sequence[float]) -> float:
    if not traced or not untraced:
        return 0.0
    return median(traced) / median(untraced) - 1.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
