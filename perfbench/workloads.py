"""The in-process workloads: cold kernel checks, batch corpus, crosscheck fuzz.

Each workload is set up once (imports and input generation, timed as
``setup_s``), then repeats one *pass* over its seeded inputs until the run's
time is spent and reports medians over the passes.  A traced run alternates
untraced and traced passes: the untraced ones give the tracing overhead, the
traced ones the outside-in layer split (see :mod:`layers`).  End-to-end
times come from untraced passes only, scaled to the reference speed
(:class:`common.Speed`).
"""

from __future__ import annotations

import dataclasses
import os
import random
import shutil
import tempfile
import time
from typing import Callable, Dict, List, Tuple

import layers
from common import (
    KERNELS,
    NPROC,
    OPCACHE_KEYS,
    LayerTotals,
    Outcome,
    Speed,
    children_peak_rss_mb,
    layer_metrics,
    median,
    opcache_metrics,
    overhead,
    ratio,
    self_peak_rss_mb,
    tail,
)

_perf = time.perf_counter


@dataclasses.dataclass
class Pass:
    """The raw timings of one pass and the speed factor measured around it."""

    traced: bool
    wall: float = 0.0  # seconds
    times_ms: List[float] = dataclasses.field(default_factory=list)  # per check or job
    verdicts: int = 0
    factor: float = 1.0
    chunk: int = 0  # which of the workload's corpora the pass ran

    @property
    def scaled_wall(self) -> float:
        return self.wall * self.factor


def _timed_passes(
    seconds: float, trace: bool, run_pass: Callable[[bool], Pass], cycle: int = 1, min_passes: int = 3
) -> List[Pass]:
    """Call ``run_pass(traced)`` until *seconds* are spent (alternating when tracing).

    An untraced run stops only after a whole number of *cycle* passes, so every
    run covers its inputs in the same proportions.  Each pass gets the speed
    factor measured around it.
    """
    speed = Speed()
    passes: List[Pass] = []
    deadline = _perf() + seconds
    cycle = 1 if trace else cycle
    while (
        len(passes) < min_passes * (2 if trace else 1)
        or _perf() < deadline
        or len(passes) % cycle
    ):
        record = run_pass(trace and len(passes) % 2 == 1)
        record.factor = speed.next()
        passes.append(record)
    return passes


def _latency_metrics(out: Outcome, passes: List[Pass], tail_cycle: int = 0) -> List[Pass]:
    """``check_p50_ms`` and ``check_tail_ms`` from the untraced passes.

    With *tail_cycle*, the tail is taken over each cycle of that many passes
    and the median over cycles is reported, so that the percentile does not
    move with how many cycles a run fits in.
    """
    plain = [p for p in passes if not p.traced]
    scaled = [ms * p.factor for p in plain for ms in p.times_ms]
    raw = [ms for p in plain for ms in p.times_ms]
    out.metrics["check_p50_ms"] = median(scaled)
    out.raw["check_p50_ms"] = median(raw)
    if tail_cycle:
        cycles = [plain[start:start + tail_cycle] for start in range(0, len(plain), tail_cycle)]
        for name, scale in (("check_tail_ms", True), ("raw", False)):
            tails = [tail([ms * (p.factor if scale else 1.0) for p in group for ms in p.times_ms]) for group in cycles]
            if scale:
                out.metrics[name] = median([value for value, _pct, _n in tails])
                out.notes.append(
                    f"check_tail_ms: p{tails[0][1]:.1f} of {tails[0][2]} samples per cycle, median of {len(cycles)} cycles"
                )
            else:
                out.raw["check_tail_ms"] = median([value for value, _pct, _n in tails])
    else:
        out.set_tail("check_tail_ms", scaled)
        out.raw["check_tail_ms"] = tail(raw)[0]
    out.notes.append(f"speed factors {min(p.factor for p in passes):.3f}..{max(p.factor for p in passes):.3f}")
    return plain


class _Traced:
    """Installs a fresh set of layer wrappers for one traced pass."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.clock = layers.LayerClock()

    def __enter__(self) -> "_Traced":
        if self.enabled:
            layers.install(self.clock)
        return self

    def __exit__(self, *exc_info) -> None:
        self.clock.uninstall()


def _checker_counts(all_stats) -> Dict[str, int]:
    """Checker counts summed over the :class:`CheckStats` of many checks."""
    summed = {"checker.table_hits": 0, "checker.compare_calls": 0, "addg.nodes": 0}
    for stats in all_stats:
        summed["checker.table_hits"] += stats.table_hits
        summed["checker.compare_calls"] += stats.compare_calls
        summed["addg.nodes"] += stats.original_addg_size + stats.transformed_addg_size
    return summed


def _opcache_counts(stats) -> Dict[str, int]:
    values = (stats.hits, stats.misses, stats.evictions, stats.intern_hits, stats.intern_misses)
    return dict(zip(OPCACHE_KEYS, values))


class _Repeats:
    """The determinism gate: a repeated unit of work must repeat its counts."""

    def __init__(self, out: Outcome):
        self.out = out
        self.first: Dict[str, Dict[str, int]] = {}

    def check(self, unit: str, counts: Dict[str, int]) -> None:
        if self.first.setdefault(unit, counts) != counts:
            self.out.mismatch(f"{unit}: counts differ between passes: {self.first[unit]} vs {counts}")


# --------------------------------------------------------------------------- #
class ColdCheck:
    """The paper's kernel experiment: each registry pair, checked cold."""

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        from repro.lang import program_to_text
        from repro.presburger import opcache
        from repro.verifier import Verifier
        from repro.workloads import KERNEL_REGISTRY, kernel_pair

        self.opcache = opcache
        self.Verifier = Verifier
        # Source text, so each check also pays the parse, as `check` does.
        self.pairs = {}
        for name in sorted(KERNEL_REGISTRY):
            pair = kernel_pair(name)
            self.pairs[name] = (program_to_text(pair.original), program_to_text(pair.transformed))
        self.rng = random.Random(self.seed)

    def close(self) -> None:
        pass

    def check(self, name: str) -> Tuple[float, object]:
        original, transformed = self.pairs[name]
        self.opcache.reset()
        verifier = self.Verifier()
        started = _perf()
        result = verifier.check(original, transformed)
        return _perf() - started, result

    def run(self, seconds: float, trace: bool) -> Outcome:
        out = Outcome()
        repeats = _Repeats(out)
        per_kernel: Dict[str, List[float]] = {name: [] for name in self.pairs}
        totals = LayerTotals()
        coverage: List[float] = []
        splits: Dict[str, Dict[str, float]] = {}

        def run_pass(traced: bool) -> Pass:
            record = Pass(traced)
            order = self.rng.sample(sorted(self.pairs), len(self.pairs))
            started = _perf()
            with _Traced(traced) as tracing:
                for name in order:
                    before = tracing.clock.totals()
                    elapsed, result = self.check(name)
                    out.attempted += 1
                    record.verdicts += 1
                    if not result.equivalent:
                        out.mismatch(f"kernel {name}: not proven equivalent")
                    repeats.check(name, {**_checker_counts([result.stats]), **_opcache_counts(self.opcache.stats())})
                    if not traced:
                        record.times_ms.append(elapsed * 1e3)
                        per_kernel[name].append(elapsed * 1e3)
                        continue
                    delta = layers.delta(tracing.clock, before)
                    totals.add(delta)
                    repeats.check(f"{name} presburger.calls", {"calls": delta["calls"].get("presburger", 0)})
                    coverage.append(sum(delta["self_ns"].values()) / 1e9 / elapsed)
                    splits[name] = {layer: ns / 1e6 for layer, ns in sorted(delta["self_ns"].items())}
            record.wall = _perf() - started
            return record

        passes = _timed_passes(seconds, trace, run_pass)
        plain = _latency_metrics(out, passes)
        out.metrics["peak_rss_mb"] = self_peak_rss_mb()
        out.metrics["jobs_per_s"] = len(self.pairs) / median([p.scaled_wall for p in plain])
        out.raw["jobs_per_s"] = len(self.pairs) / median([p.wall for p in plain])
        out.metrics["kernel.suite_s"] = median([p.wall for p in plain])
        for name, samples in per_kernel.items():
            out.metrics[f"kernel.{name}.p50_ms"] = median(samples)
        if trace:
            traced = [p for p in passes if p.traced]
            out.metrics.update(layer_metrics(totals, sum(p.verdicts for p in traced), len(traced)))
            summed: Dict[str, int] = {}
            for name in self.pairs:
                for key, value in repeats.first[name].items():
                    summed[key] = summed.get(key, 0) + value
            out.metrics.update(opcache_metrics(summed))
            for key in ("checker.table_hits", "checker.compare_calls", "addg.nodes"):
                out.metrics[key] = summed[key]
            out.metrics["trace.overhead_ratio"] = overhead(
                [p.wall for p in traced], [p.wall for p in plain]
            )
            out.metrics["trace.coverage_min"] = min(coverage)
            if min(coverage) < 0.95 or max(coverage) > 1.05:
                out.mismatch(
                    f"layer self times cover {min(coverage):.3f}..{max(coverage):.3f} of check wall time"
                )
            out.exact_counts = {"per_pass": summed, "per_kernel": {name: repeats.first[name] for name in self.pairs}}
            out.notes.extend(self._phase_table(splits))
        return out

    def _phase_table(self, splits: Dict[str, Dict[str, float]]) -> List[str]:
        """One more pass with the program's own telemetry on: its phase split
        next to the outside-in self times of the last traced pass."""
        from repro import telemetry

        lines = ["kernel: outside-in self ms (benchmark) | CheckStats.phase_seconds ms (program)"]
        telemetry.TRACER.enabled = True
        try:
            for name in sorted(self.pairs):
                _elapsed, result = self.check(name)
                program = {
                    phase: round(seconds * 1e3, 1)
                    for phase, seconds in sorted(result.stats.phase_seconds.items())
                }
                ours = {layer: round(ms, 1) for layer, ms in splits.get(name, {}).items()}
                lines.append(f"{name}: {ours} | {program}")
                telemetry.TRACER.clear()
        finally:
            telemetry.TRACER.enabled = False
        return lines


# --------------------------------------------------------------------------- #
class BatchCorpus:
    """``BatchExecutor`` over seeded corpora: a cold write pass, then a read pass.

    The run cycles through :data:`CHUNKS` corpora, one per pass, so the passes
    stay short enough for their speed factors to track the machine while the
    run still covers a few hundred programs.
    """

    CHUNKS = 3
    #: The corpora are the same for every seed, so every run prices the same
    #: programs; the seed picks the duplicated jobs and the order of the corpora.
    CORPUS_SEED = 7000
    GENERATED = 30
    BUGGY = 6
    DUPLICATES = 4

    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root

    def setup(self) -> None:
        from repro.presburger import opcache
        from repro.service import BatchExecutor, CorpusSpec, ResultCache, build_corpus
        from repro.workloads import SMALL_KERNEL_PARAMS

        self.opcache = opcache
        self.BatchExecutor = BatchExecutor
        self.ResultCache = ResultCache
        rng = random.Random(self.seed)
        self.corpora = []
        for chunk in range(self.CHUNKS):
            jobs = build_corpus(
                CorpusSpec(
                    kernels=("all",),
                    kernel_params=SMALL_KERNEL_PARAMS,
                    generated=self.GENERATED,
                    buggy=self.BUGGY,
                    seed=self.CORPUS_SEED + chunk * 100,
                    size=16,
                )
            )
            duplicates = [
                dataclasses.replace(job, name=f"{job.name}#dup{index}")
                for index, job in enumerate(rng.sample(jobs, self.DUPLICATES))
            ]
            # Corpus order (kernels first): where a seeded shuffle put the
            # heavy kernels would decide how well the two workers balance.
            self.corpora.append(jobs + duplicates)
        self.order = rng.sample(range(self.CHUNKS), self.CHUNKS)
        os.makedirs(self.root, exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="batch-", dir=self.root)

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    def _gate_write(self, out: Outcome, results) -> None:
        leaders = {}
        for outcome in results:
            out.attempted += 1
            if outcome.status != "ok":
                out.fail(f"{outcome.name}: {outcome.status} {outcome.error or ''}"[:300])
            elif outcome.equivalent != outcome.expected_equivalent:
                out.mismatch(f"{outcome.name}: verdict {outcome.equivalent}, expected {outcome.expected_equivalent}")
            if not outcome.metadata.get("deduplicated"):
                leaders[outcome.fingerprint] = outcome.equivalent
        for outcome in results:
            if outcome.metadata.get("deduplicated") and leaders.get(outcome.fingerprint) != outcome.equivalent:
                out.mismatch(f"{outcome.name}: dedup follower verdict differs from its leader")

    def _gate_read(self, out: Outcome, written, read) -> None:
        for before, after in zip(written, read):
            out.attempted += 1
            if not after.cache_hit:
                out.fail(f"{after.name}: read pass missed the verdict cache")
            elif after.equivalent != before.equivalent:
                out.mismatch(f"{after.name}: cached verdict differs from the written one")

    def run(self, seconds: float, trace: bool) -> Outcome:
        out = Outcome()
        repeats = _Repeats(out)
        kernel_ms: Dict[str, List[float]] = {name: [] for name in KERNELS}
        write_s: Dict[int, List[float]] = {chunk: [] for chunk in range(self.CHUNKS)}
        read_s: Dict[int, List[float]] = {chunk: [] for chunk in range(self.CHUNKS)}
        busy: List[float] = []
        read_hits = read_lookups = executed_traced = 0
        followers: Dict[int, int] = {}
        totals = LayerTotals()
        cache_counts = [0, 0, 0, 0, 0]
        started_passes = [0]

        def run_pass(traced: bool) -> Pass:
            nonlocal read_hits, read_lookups, executed_traced, cache_counts
            record = Pass(traced)
            # A traced run repeats one corpus, so its counts must repeat exactly.
            chunk = 0 if trace else self.order[started_passes[0] % self.CHUNKS]
            started_passes[0] += 1
            jobs = self.corpora[chunk]
            directory = tempfile.mkdtemp(prefix="pass-", dir=self.scratch)
            # Pool workers fork from this process: without the reset they
            # would inherit a warm opcache and the write pass would not be cold.
            self.opcache.reset()
            with _Traced(traced) as tracing:
                before = tracing.clock.totals()
                started = _perf()
                written = self.BatchExecutor(cache=self.ResultCache(directory), workers=NPROC).run(jobs)
                record.wall = _perf() - started
                # A new ResultCache object: its in-memory LRU is empty, so the
                # read pass really reads the verdicts back from disk.
                read_cache = self.ResultCache(directory)
                started = _perf()
                read = self.BatchExecutor(cache=read_cache, workers=NPROC).run(jobs)
                read_elapsed = _perf() - started
                delta = layers.delta(tracing.clock, before)
            shutil.rmtree(directory, ignore_errors=True)
            self._gate_write(out, written)
            self._gate_read(out, written, read)
            record.verdicts = len(written)
            executed = [
                o for o in written if o.status == "ok" and not o.cache_hit and not o.metadata.get("deduplicated")
            ]
            followers[chunk] = sum(1 for o in written if o.metadata.get("deduplicated"))
            # Per-job checker counts do not depend on which worker ran the
            # job or how warm its opcache was, so every pass repeats them.
            repeats.check(f"chunk {chunk}", _checker_counts(o.result.stats for o in executed))
            if traced:
                child_deltas, cache = layers.take_child_totals(written)
                totals.add(delta)
                for child in child_deltas:
                    totals.add(child)
                cache_counts = [a + b for a, b in zip(cache_counts, cache)]
                executed_traced += len(executed)
                return record
            record.chunk = chunk
            read_s[chunk].append(read_elapsed)
            read_hits += read_cache.stats.hits
            read_lookups += read_cache.stats.hits + read_cache.stats.misses
            busy.append(sum(o.elapsed_seconds for o in executed) / (NPROC * record.wall))
            for o in executed:
                # The job's time to verdict in its worker.
                record.times_ms.append(o.elapsed_seconds * 1e3)
                kernel = o.metadata.get("kernel")
                if kernel in kernel_ms:
                    kernel_ms[kernel].append(o.elapsed_seconds * 1e3)
            return record

        passes = _timed_passes(seconds, trace, run_pass, cycle=self.CHUNKS)
        plain = _latency_metrics(out, passes)
        raw_s: Dict[int, List[float]] = {chunk: [] for chunk in range(self.CHUNKS)}
        for record in plain:
            write_s[record.chunk].append(record.scaled_wall)
            raw_s[record.chunk].append(record.wall)
        # Jobs over seconds summed over the corpora, each corpus at its median pass.
        covered = [chunk for chunk in range(self.CHUNKS) if write_s[chunk]]
        jobs = sum(len(self.corpora[chunk]) for chunk in covered)
        out.metrics.update(
            {
                # The pool workers do the checking; they are this process's
                # only children until the set-up repeats run after the measurement.
                "peak_rss_mb": children_peak_rss_mb(),
                "jobs_per_s": jobs / sum(median(write_s[chunk]) for chunk in covered),
                "service.job_p50_ms": median([ms for p in plain for ms in p.times_ms]),
                "service.warm_jobs_per_s": jobs / sum(median(read_s[chunk]) for chunk in covered),
                "service.worker_busy_ratio": median(busy),
                "service.cache_hit_ratio": ratio(read_hits, read_lookups),
                "service.dedup_followers": followers.get(0, 0),
            }
        )
        out.raw["jobs_per_s"] = jobs / sum(median(raw_s[chunk]) for chunk in covered)
        for name, samples in kernel_ms.items():
            out.metrics[f"kernel.{name}.p50_ms"] = median(samples)
        if trace:
            traced = [p for p in passes if p.traced]
            out.metrics.update(layer_metrics(totals, executed_traced, len(traced)))
            out.metrics.update(opcache_metrics({key: value / len(traced) for key, value in zip(OPCACHE_KEYS, cache_counts)}))
            out.metrics.update(repeats.first["chunk 0"])
            out.metrics["trace.overhead_ratio"] = overhead(
                [p.wall for p in traced], [p.wall for p in plain]
            )
            out.exact_counts = {"per_pass": repeats.first["chunk 0"]}
        return out


# --------------------------------------------------------------------------- #
class FuzzCrosscheck:
    """The ``fuzz`` path under the crosscheck backend, serial and in-process."""

    PAIRS = 24
    #: The scenario specs are the same for every seed, so every run prices the
    #: same scenarios; the seed orders them.
    SPEC_SEED = 5000
    SPECS = 6

    def __init__(self, seed: int):
        self.seed = seed
        self.order = random.Random(seed).sample(range(self.SPECS), self.SPECS)

    def setup(self) -> None:
        import repro.diagnostics
        import repro.scenarios
        from repro.presburger import opcache
        from repro.service import BatchExecutor
        from repro.verifier import CheckOptions, Verifier

        # Module references, not bound functions: a traced pass wraps the
        # module attributes after set-up.
        self.diagnostics = repro.diagnostics
        self.scenarios = repro.scenarios
        self.opcache = opcache
        self.BatchExecutor = BatchExecutor
        self.Verifier = Verifier
        # The in-process SMT interpreter: the run does not depend on which
        # external solvers happen to be installed.
        self.options = CheckOptions(backend="crosscheck", smt_solver="builtin")

    def close(self) -> None:
        pass

    def _spec(self, index: int):
        """The scenario corpus of pass *index*."""
        seed = self.SPEC_SEED + index
        # Generated base programs only: under crosscheck one conv2d scenario
        # costs as much as a dozen generated ones, so a random draw of kernel
        # bases would set the run-to-run spread.  cold-check and batch-corpus
        # price the kernels.
        return self.scenarios.ScenarioSpec(
            seed=seed, pairs=self.PAIRS, size=14, max_depth=3, oracle_seed=seed, kernel_fraction=0.0
        )

    def _pass(self, index: int):
        self.opcache.reset()
        pairs = self.scenarios.build_scenarios(self._spec(index))
        jobs = self.scenarios.scenario_jobs(pairs, options=self.options)
        results = self.BatchExecutor(cache=None, workers=1).run(jobs)
        by_name = {job.name: job for job in jobs}
        session = self.Verifier()
        reports = {}
        for outcome in results:
            shared = reports.get(outcome.fingerprint)
            if shared is not None:
                outcome.metadata["failure_report"] = shared
                continue
            report = self.diagnostics.attach_failure_report(
                outcome, by_name[outcome.name], trials=3, base_seed=index, verifier=session
            )
            if report is not None:
                reports[outcome.fingerprint] = outcome.metadata["failure_report"]
        return results

    def _gate(self, out: Outcome, results) -> Tuple[int, int, int]:
        diagnosed = confirmed = disagreements = 0
        for outcome in results:
            out.attempted += 1
            oracle = (outcome.metadata.get("oracle") or {}).get("label")
            if outcome.metadata.get("backend_disagreement") is not None:
                disagreements += 1
                out.mismatch(f"{outcome.name}: decision backends disagree")
                continue
            if outcome.status != "ok":
                out.fail(f"{outcome.name}: {outcome.status} {outcome.error or ''}"[:300])
                continue
            if outcome.equivalent and oracle == "NOT_EQUIVALENT":
                out.mismatch(f"{outcome.name}: soundness error (oracle holds a witness)")
            elif outcome.equivalent != outcome.expected_equivalent:
                out.mismatch(f"{outcome.name}: verdict {outcome.equivalent}, expected {outcome.expected_equivalent}")
            report = outcome.metadata.get("failure_report")
            if report is not None:
                diagnosed += 1
                if report.get("confirmed"):
                    confirmed += 1
                else:
                    out.fail(f"{outcome.name}: witness not confirmed by replay")
        return diagnosed, confirmed, disagreements

    def run(self, seconds: float, trace: bool) -> Outcome:
        out = Outcome()
        repeats = _Repeats(out)
        totals = LayerTotals()
        diagnosed = confirmed = disagreements = 0
        started_passes = [0]

        def run_pass(traced: bool) -> Pass:
            nonlocal diagnosed, confirmed, disagreements
            record = Pass(traced)
            # A traced run repeats one corpus, so the counts of its passes
            # must repeat exactly and traced and untraced passes compare.
            index = 0 if trace else self.order[started_passes[0] % self.SPECS]
            started_passes[0] += 1
            with _Traced(traced) as tracing:
                before = tracing.clock.totals()
                started = _perf()
                results = self._pass(index)
                record.wall = _perf() - started
                delta = layers.delta(tracing.clock, before)
            record.verdicts = len(results)
            d, c, x = self._gate(out, results)
            diagnosed, confirmed, disagreements = diagnosed + d, confirmed + c, disagreements + x
            if not traced:
                record.times_ms = [o.elapsed_seconds * 1e3 for o in results if o.status == "ok"]
            if trace:
                repeats.check(
                    "fuzz pass",
                    {
                        "jobs": len(results),
                        **_opcache_counts(self.opcache.stats()),
                        **_checker_counts(o.result.stats for o in results if o.result is not None),
                    },
                )
            if traced:
                totals.add(delta)
                repeats.check(
                    "fuzz traced pass",
                    {
                        "presburger.calls": delta["calls"].get("presburger", 0),
                        "solvers.queries": delta["calls"].get("solvers", 0),
                    },
                )
            return record

        passes = _timed_passes(seconds, trace, run_pass, cycle=self.SPECS)
        plain = _latency_metrics(out, passes, tail_cycle=0 if trace else self.SPECS)
        out.metrics["peak_rss_mb"] = self_peak_rss_mb()
        out.metrics["jobs_per_s"] = sum(p.verdicts for p in plain) / sum(p.scaled_wall for p in plain)
        out.raw["jobs_per_s"] = sum(p.verdicts for p in plain) / sum(p.wall for p in plain)
        if trace:
            traced = [p for p in passes if p.traced]
            per_pass = repeats.first["fuzz pass"]
            out.metrics.update(layer_metrics(totals, sum(p.verdicts for p in traced), len(traced)))
            out.metrics.update(opcache_metrics(per_pass))
            for key in ("checker.table_hits", "checker.compare_calls", "addg.nodes"):
                out.metrics[key] = per_pass[key]
            out.metrics["solvers.disagreements"] = disagreements
            out.metrics["diagnostics.confirmed_ratio"] = ratio(confirmed, diagnosed)
            out.metrics["trace.overhead_ratio"] = overhead(
                [p.wall for p in traced], [p.wall for p in plain]
            )
            out.exact_counts = {"per_pass": {**per_pass, **repeats.first["fuzz traced pass"]}}
        return out
