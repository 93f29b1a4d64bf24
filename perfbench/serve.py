"""The ``serve-mixed`` workload: an open-loop client of ``repro-eqcheck serve``.

The daemon runs as a subprocess (``serve --port 0 --workers 2``).  The
benchmark talks to it over two connections with the newline-delimited JSON
protocol and sends a seeded mix of requests:

* about 70% repeats of pairs answered during set-up (verdict-cache hits);
* about 25% first-seen pairs: transformed variants of a few random originals
  and, one in five, buggy pairs (verdict-cache misses that run a check);
* about 5% a first-seen pair sent twice at once on both connections, so the
  second request joins the first in flight (dedup).

The mix is a stated assumption; there are no production traces.  Phases:

1. **light** and **heavy**: open loop at a fixed rate.  Every request is
   timed from the moment it was due, so a stall also delays the requests
   queued behind it; how late the generator itself sent is reported too.
2. **saturation**: closed loop, a fixed window of requests in flight on each
   connection, in a few short bursts; the median burst's verdicts per second
   is the daemon's capacity on the mix.
3. **ladder**: open-loop rungs of rising rate.  The highest rung whose p99
   stays under :data:`P99_LIMIT_MS`, with no rejection and no backlog
   growing between the rung's first and second half, is ``max_rate_per_s``.
   Rungs above capacity are expected to fail, so they count for neither
   ``attempted`` nor ``failed``; a wrong verdict still fails the run.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from common import NPROC, OPCACHE_KEYS, Outcome, Speed, median, opcache_metrics, ratio, tail

LIGHT_RATE = 15.0
HEAVY_RATE = 40.0
LADDER = (50.0, 65.0, 80.0, 100.0)
P99_LIMIT_MS = 250.0
WINDOW = 4  # closed-loop requests in flight per connection (server limit: 16)
SATURATION_BURSTS = 4
DRAIN_SECONDS = 20.0
ORIGINALS = 8
MISS_POOL = 360
PROGRAM_SEED = 7_000_000

_perf = time.perf_counter


@dataclass
class Request:
    """One request: its frame without the id, and the known answer."""

    body: str  # JSON members after the id, encoded once at set-up
    expected: bool
    kind: str  # "hit", "miss" or "dup"


class Record:
    __slots__ = ("request", "due", "sent", "done", "size", "response", "future")

    def __init__(self, request: Request, due: float):
        self.request = request
        self.due = due
        self.sent = 0.0
        self.done: Optional[float] = None
        self.size = 0
        self.response: Optional[dict] = None
        self.future: Optional[asyncio.Future] = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def result(self) -> dict:
        return (self.response or {}).get("result") or {}

    @property
    def cache_hit(self) -> bool:
        return bool(self.result.get("cache_hit"))

    @property
    def deduplicated(self) -> bool:
        return bool((self.result.get("metadata") or {}).get("deduplicated"))

    def error_code(self) -> Optional[str]:
        if self.response is None:
            return "no_response"
        if not self.response.get("ok"):
            return str((self.response.get("error") or {}).get("code"))
        if self.result.get("status") != "ok":
            return str(self.result.get("status"))
        return None


class Connection:
    """One pipelined protocol connection; responses are matched by id."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer
        self.pending: Dict[int, Record] = {}
        self.next_id = 0
        self.closed = False
        self.task = asyncio.get_running_loop().create_task(self._read_loop())

    def send(self, record: Record) -> None:
        self.next_id += 1
        request_id = self.next_id
        record.future = asyncio.get_running_loop().create_future()
        if self.closed:
            # The daemon is gone: the request fails without an answer.
            record.future.set_result(None)
            return
        self.pending[request_id] = record
        frame = f'{{"id": {request_id}, {record.request.body}\n'
        record.sent = _perf()
        self.writer.write(frame.encode("utf-8"))

    async def _read_loop(self) -> None:
        while True:
            line = await self.reader.readline()
            if not line:
                break
            done = _perf()
            response = json.loads(line)
            record = self.pending.pop(response.get("id"), None)
            if record is None:
                continue
            record.done = done
            record.size = len(line)
            record.response = response
            record.future.set_result(None)
        self.closed = True
        for record in self.pending.values():
            if not record.future.done():
                record.future.set_result(None)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass
        await self.task


class ServeMixed:
    def __init__(self, seed: int, root: str):
        self.seed = seed
        self.root = root
        self.process: Optional[subprocess.Popen] = None

    # ------------------------------------------------------------------ #
    def setup(self) -> None:
        os.makedirs(self.root, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix="serve-", dir=self.root)
        self.stderr = open(os.path.join(self.workdir, "daemon.err"), "wb")
        source_root = os.path.join(os.path.dirname(self.root), "src")
        env = dict(os.environ, PYTHONPATH=source_root)
        # The daemon imports while the request pool is generated below.
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1", "--port", "0",
             "--workers", str(NPROC)],
            cwd=self.workdir,
            env=env,
            stdout=subprocess.PIPE,
            stderr=self.stderr,
        )
        self._generate_pools()
        line = self.process.stdout.readline().decode("utf-8", "replace").strip()
        if not line.startswith("listening on "):
            raise RuntimeError(f"daemon did not start: {line!r}")
        host, port = line[len("listening on "):].rsplit(":", 1)
        self.address = (host, int(port))
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._warm_up())

    def _generate_pools(self) -> None:
        from repro.lang import program_to_text
        from repro.service import VerificationJob
        from repro.workloads import SMALL_KERNEL_PARAMS, RandomProgramGenerator, kernel_pair

        # The programs are the same for every seed, so every run prices the
        # same work; the seed draws the mix: which slots repeat an answered
        # pair, which send a first-seen one, which send it twice.
        rng = random.Random(self.seed)
        base = PROGRAM_SEED

        seen = set()

        def request(name, original, transformed, expected, kind) -> Optional[Request]:
            sources = (program_to_text(original), program_to_text(transformed))
            if sources in seen:
                return None
            seen.add(sources)
            job = VerificationJob(name, *sources, expected_equivalent=expected)
            return Request(f'"method": "check", "params": {{"job": {json.dumps(job.to_dict())}}}}}', expected, kind)

        answered = [
            request(f"kernel/{name}", pair.original, pair.transformed, True, "hit")
            for name, pair in (
                (name, kernel_pair(name, **params)) for name, params in sorted(SMALL_KERNEL_PARAMS.items())
            )
        ]
        for index in range(24):
            pair = RandomProgramGenerator(seed=base + index, stages=3, size=16).generate_pair(
                transform_steps=2, inject_error=index >= 20
            )
            answered.append(
                request(f"answered/{index}", pair.original, pair.transformed, pair.expected_equivalent, "hit")
            )
        misses: List[Optional[Request]] = []
        variants_each = MISS_POOL * 4 // 5 // ORIGINALS + 1
        for index in range(ORIGINALS):
            generator = RandomProgramGenerator(seed=base + 100 + index, stages=3, size=16)
            for number, pair in enumerate(generator.generate_variants(variants_each, transform_steps=2)):
                misses.append(
                    request(f"variant/{index}/{number}", pair.original, pair.transformed, True, "miss")
                )
        for index in range(MISS_POOL // 5):
            pair = RandomProgramGenerator(seed=base + 1000 + index, stages=3, size=16).generate_pair(
                transform_steps=2, inject_error=True
            )
            misses.append(request(f"buggy/{index}", pair.original, pair.transformed, False, "miss"))
        # A generated variant may repeat an earlier program; it would not be
        # first-seen.  The stream of first-seen pairs is the same for every
        # seed (buggy ones interleaved), so every run checks the same programs.
        self.misses = [r for r in misses if r is not None]
        random.Random(PROGRAM_SEED).shuffle(self.misses)
        self.rng = rng
        self.answered = [r for r in answered if r is not None]

    async def _connect(self) -> List[Connection]:
        connections = []
        for _ in range(NPROC):
            reader, writer = await asyncio.open_connection(*self.address, limit=8 * 1024 * 1024)
            connections.append(Connection(reader, writer))
        return connections

    async def _warm_up(self) -> None:
        self.connections = await self._connect()
        records = []
        for index, req in enumerate(self.answered):
            record = Record(req, _perf())
            self.connections[index % len(self.connections)].send(record)
            records.append(record)
        await asyncio.wait_for(asyncio.gather(*(r.future for r in records)), DRAIN_SECONDS * 3)
        for record in records:
            if record.error_code() is not None or record.result.get("equivalent") != record.request.expected:
                raise RuntimeError(f"warm-up check failed: {record.response!r}"[:400])

    def close(self) -> None:
        if self.process is None:
            return
        try:
            if getattr(self, "loop", None) is not None and not self.loop.is_closed():
                self.loop.run_until_complete(self._shutdown())
        except (OSError, RuntimeError, asyncio.TimeoutError):
            pass
        finally:
            if self.process.poll() is None:
                self.process.terminate()
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
            self.process.stdout.close()
            self.stderr.close()
            if getattr(self, "loop", None) is not None:
                self.loop.close()
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.process = None

    async def _shutdown(self) -> None:
        connections = getattr(self, "connections", [])
        if connections:
            await self._rpc(connections[0], "shutdown")
        for connection in connections:
            await asyncio.wait_for(connection.close(), 10)

    # ------------------------------------------------------------------ #
    async def _rpc(self, connection: Connection, method: str) -> dict:
        record = Record(Request(f'"method": "{method}"}}', True, method), _perf())
        connection.send(record)
        await asyncio.wait_for(record.future, DRAIN_SECONDS)
        if record.response is None or not record.response.get("ok"):
            raise RuntimeError(f"{method} RPC failed: {record.response!r}")
        return record.response["result"]

    def _draw(self) -> List[Request]:
        """The requests of one arrival slot of the mix."""
        roll = self.rng.random()
        if roll < 0.70 or not self.misses:
            return [self.rng.choice(self.answered)]
        miss = self.misses.pop()
        if roll < 0.95:
            return [miss]
        return [miss, Request(miss.body, miss.expected, "dup")]

    async def _open_loop(self, rate: float, seconds: float) -> Tuple[List[Record], int]:
        """Send at *rate* for *seconds*; returns the records and the backlog
        (requests unanswered when the last one was sent)."""
        records: List[Record] = []
        slots = max(1, int(rate * seconds))
        start = _perf() + 0.02
        for slot in range(slots):
            due = start + slot / rate
            delay = due - _perf()
            if delay > 0:
                await asyncio.sleep(delay)
            for offset, req in enumerate(self._draw()):
                record = Record(req, due)
                self.connections[(slot + offset) % len(self.connections)].send(record)
                records.append(record)
        backlog = sum(1 for r in records if r.done is None)
        await self._drain(records)
        return records, backlog

    async def _closed_loop(self, seconds: float) -> Tuple[List[Record], float]:
        records: List[Record] = []
        deadline = _perf() + seconds

        async def client(connection: Connection) -> None:
            while _perf() < deadline and not connection.closed:
                batch = [Record(req, _perf()) for req in self._draw()]
                for record in batch:
                    connection.send(record)
                    records.append(record)
                await asyncio.gather(*(r.future for r in batch))

        started = _perf()
        await asyncio.gather(*(client(c) for c in self.connections for _ in range(WINDOW)))
        elapsed = _perf() - started
        return records, elapsed

    async def _drain(self, records: List[Record]) -> None:
        try:
            await asyncio.wait_for(asyncio.gather(*(r.future for r in records)), DRAIN_SECONDS)
        except asyncio.TimeoutError:
            pass

    # ------------------------------------------------------------------ #
    def run(self, seconds: float, trace: bool) -> Outcome:
        return self.loop.run_until_complete(self._run(seconds))

    def _gate(self, out: Outcome, records: List[Record], counted: bool) -> None:
        for record in records:
            if counted:
                out.attempted += 1
            code = record.error_code()
            if code is not None:
                if counted:
                    out.fail(f"{record.request.kind} request: {code}")
                continue
            if record.result.get("equivalent") != record.request.expected:
                out.mismatch(
                    f"{record.result.get('name')}: verdict {record.result.get('equivalent')}, "
                    f"expected {record.request.expected}"
                )

    async def _run(self, seconds: float) -> Outcome:
        out = Outcome()
        control = self.connections[0]
        before = await self._rpc(control, "stats")
        # Spins run between phases, while no request is in flight.
        speed = Speed()
        light, _ = await self._open_loop(LIGHT_RATE, 0.45 * seconds)
        light_factor = speed.next()
        heavy, backlog = await self._open_loop(HEAVY_RATE, 0.1 * seconds)
        speed.next()
        # Saturation in short bursts, each scaled by the spins around it;
        # the median burst rate resists a burst caught in a slow phase.
        saturation: List[Record] = []
        rates: List[float] = []
        raw_rates: List[float] = []
        for _ in range(SATURATION_BURSTS):
            burst, burst_s = await self._closed_loop(0.2 * seconds / SATURATION_BURSTS)
            saturation.extend(burst)
            raw_rates.append(sum(1 for r in burst if r.done is not None) / burst_s)
            rates.append(raw_rates[-1] / speed.next())
        for records in (light, heavy, saturation):
            self._gate(out, records, counted=True)
        if self.process.poll() is not None:
            # Every request the daemon did not answer counts as failed; the
            # ladder and the stats deltas need a live daemon.
            out.notes.append(f"daemon exited with code {self.process.returncode} during the run")
            after = before
        else:
            after = await self._rpc(control, "stats")

        max_rate = 0.0
        for rate in LADDER if self.process.poll() is None else ():
            rung, _ = await self._open_loop(rate, 0.04 * seconds)
            self._gate(out, rung, counted=False)
            if not self._rung_passes(rung):
                out.notes.append(f"ladder: {rate:g}/s failed")
                break
            max_rate = rate
        out.notes.append(f"miss pool left: {len(self.misses)}")

        heavy_ok = [r.latency_ms for r in heavy if r.error_code() is None]
        fixed = [r for r in light + heavy if r.error_code() is None]
        # Time to verdict of the requests that ran a check (no verdict-cache
        # hit, no dedup) at the light rate, where they seldom queue behind
        # one another: at the heavy rate the tail is set by chance arrivals.
        checked = [
            r.latency_ms * light_factor
            for r in light
            if r.error_code() is None and not r.cache_hit and not r.deduplicated
        ]
        out.metrics["peak_rss_mb"] = self._daemon_peak_rss_mb()
        out.metrics["check_p50_ms"] = median(checked)
        out.set_tail("check_tail_ms", checked)
        out.metrics["jobs_per_s"] = median(rates)
        out.raw = {
            "check_p50_ms": median(checked) / light_factor,
            "check_tail_ms": tail(checked)[0] / light_factor,
            "jobs_per_s": median(raw_rates),
        }
        out.metrics["loadgen.heavy_p50_ms"] = median(heavy_ok)
        out.set_tail("loadgen.heavy_tail_ms", heavy_ok)
        out.metrics["loadgen.max_rate_per_s"] = max_rate
        out.metrics["loadgen.backlog"] = backlog
        lateness = sorted((r.sent - r.due) * 1e3 for r in light + heavy)
        out.metrics["loadgen.late_p99_ms"] = lateness[min(len(lateness) - 1, int(0.99 * len(lateness)))]
        out.metrics["server.hit_p50_ms"] = median([r.latency_ms for r in fixed if r.cache_hit])
        out.metrics["server.dup_p50_ms"] = median([r.latency_ms for r in fixed if r.deduplicated])
        out.metrics["server.miss_p50_ms"] = median(
            [r.latency_ms for r in fixed if not r.cache_hit and not r.deduplicated]
        )
        light_ok = [r.latency_ms for r in light if r.error_code() is None]
        out.metrics["loadgen.light_p50_ms"] = median(light_ok)
        out.set_tail("loadgen.light_tail_ms", light_ok)
        out.metrics["server.response_bytes"] = median([r.size for r in fixed])
        out.metrics.update(_stats_delta(before, after))
        return out

    @staticmethod
    def _rung_passes(records: List[Record]) -> bool:
        if any(r.error_code() is not None for r in records):
            return False
        latencies = [r.latency_ms for r in records]
        p99 = sorted(latencies)[min(len(latencies) - 1, int(0.99 * len(latencies)))]
        half = len(latencies) // 2
        first, second = median(latencies[:half]), median(latencies[half:])
        growing = second > max(2.0 * first, first + 50.0)
        return p99 <= P99_LIMIT_MS and not growing

    def _daemon_peak_rss_mb(self) -> float:
        """The daemon's peak resident set (0 once it has exited)."""
        with open(f"/proc/{self.process.pid}/status", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0


def _stats_delta(before: dict, after: dict) -> Dict[str, float]:
    def diff(*path: str) -> float:
        a, b = after, before
        for key in path:
            a, b = (a or {}).get(key), (b or {}).get(key)
        return (a or 0) - (b or 0)

    hits, executed = diff("cache_hits"), diff("checks_executed")
    compile_hits, compile_misses = diff("compile_hits"), diff("compile_misses")
    checks = diff("latency", "check_seconds", "count")
    daemon_opcache = {
        key: diff("opcache", field)
        for key, field in zip(OPCACHE_KEYS, ("hits", "misses", "evictions", "intern_hits", "intern_misses"))
    }
    return {
        **opcache_metrics(daemon_opcache),
        "server.rejected": diff("rejected"),
        "server.dedup_hits": diff("dedup_hits"),
        "server.verdict_cache_hit_ratio": ratio(hits, hits + executed),
        "server.compiled_hit_ratio": ratio(compile_hits, compile_hits + compile_misses),
        "server.opcache_evictions": diff("opcache", "evictions"),
        "server.check_mean_ms": ratio(diff("latency", "check_seconds", "sum") * 1e3, checks),
    }
