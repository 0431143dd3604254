"""Statistics, span tracing and metric aggregation for the end-to-end
benchmark.

The benchmark records its own spans around every call it makes into a
layer of the pipeline (name, start, end, parent, pass id).  In a traced
pass the program's :class:`~repro.telemetry.spans.TelemetryCollector`
spans (``resolve``/``parse``/``convert``/``import``, ``analysis.*``,
the daemon's ``refresh_file``) are folded in as children of whichever
span contains them in time.  A span's *self time* is its duration
minus the part of it that its children cover.  Spans stay in memory
and are written out once, when the run ends.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import heapq
import json
import random
import re
import resource
import sqlite3
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Iterable, Iterator

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

#: Per-layer metrics taken from the self time of named spans.
SELF_TIME_METRICS = {
    "transformer.parse_s": ("parse",),
    "transformer.convert_s": ("convert",),
    "transformer.import_s": ("import",),
    "transformer.resolve_s": ("resolve",),
    "analysis.load_s": ("analysis.load_metric", "analysis.load_spans"),
    "analysis.window_s": ("analysis.window",),
}


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values: Iterable[float]) -> float:
    """The highest percentile with at least ten samples beyond it.

    With ten samples or fewer no such percentile exists and the
    maximum is returned; callers report the sample count beside it.
    """
    ordered = sorted(values)
    if not ordered:
        return 0.0
    if len(ordered) > TAIL_BEYOND:
        return float(ordered[-TAIL_BEYOND - 1])
    return float(ordered[-1])


_REFERENCE_LINE = re.compile(
    r'(\S+) - - \[([^\]]+)\] "(\S+) (\S+) (\S+)" (\d+) (\d+) (\d+)'
)


def _reference_lines() -> list[str]:
    rng = random.Random(0)
    return [
        f"10.0.{rng.randrange(256)}.{rng.randrange(256)} - - "
        f"[12/Mar/2017:10:{rng.randrange(60):02d}:{rng.randrange(60):02d}] "
        f'"GET /rubbos/{rng.randrange(1000)} HTTP/1.1" 200 '
        f"{rng.randrange(9999)} {rng.randrange(10**6)}"
        for _ in range(6000)
    ]


def cpu_clock() -> float:
    """Seconds on the benchmark's CPU clock: the CPU time of this
    process, which runs every workload in one thread.

    The benchmark's vCPUs share a host with other tenants.  While the
    hypervisor runs theirs (steal time, up to half of all time in some
    minutes), wall time goes on and this clock stops.
    """
    return time.process_time()


class CpuTimeline:
    """Readings of the wall clock and :func:`cpu_clock` side by side,
    to place a past wall-clock instant on the CPU clock."""

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []

    def mark(self) -> tuple[float, float]:
        """Read both clocks now; returns ``(wall, cpu)``."""
        self.wall.append(time.perf_counter())
        self.cpu.append(cpu_clock())
        return self.wall[-1], self.cpu[-1]

    def cpu_at(self, wall: float) -> float:
        """The CPU clock at ``wall``, linear between the marks around it."""
        i = bisect.bisect_left(self.wall, wall)
        if i == 0:
            return self.cpu[0]
        if i == len(self.wall):
            return self.cpu[-1]
        w0, w1 = self.wall[i - 1], self.wall[i]
        c0, c1 = self.cpu[i - 1], self.cpu[i]
        return c0 + (c1 - c0) * (wall - w0) / (w1 - w0)


class HostSpeed:
    """Times a fixed reference task on the CPU clock, to scale the
    run's timings to a nominal host speed.

    Other tenants slow the benchmark's cores even when they do not
    steal them: while they are busy the same pass uses up to twice the
    CPU time, in phases of seconds to minutes, so the median of a
    whole run moves from run to run by more than the benchmark's
    bounds.  The reference task does work of the pipeline's kinds --
    interpreted arithmetic, regex parsing of log lines into dicts,
    SQLite inserts and an index, an event heap of small objects -- on
    fixed inputs that depend on neither the program nor the seed.  It
    runs before every set-up and pass, and in the live workload in the
    idle time between slices; never inside a timed region.
    :meth:`scale` is ``NOMINAL_S / median(reference times)``: timings
    multiplied by it read as they would where the reference takes
    :data:`NOMINAL_S`.
    """

    #: Reference task time, in CPU seconds, on an uncontended core of
    #: the 2-vCPU Xeon container the benchmark was written on.
    NOMINAL_S = 0.06

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._lines = _reference_lines()

    def _task(self) -> None:
        total = 0
        for i in range(100_000):
            total += i * i % 7
        by_host: dict[str, list[int]] = {}
        for line in self._lines:
            fields = _REFERENCE_LINE.match(line).groups()
            by_host.setdefault(fields[0], []).append(int(fields[7]))
        db = sqlite3.connect(":memory:")
        db.execute("CREATE TABLE t (a INTEGER, b TEXT, c REAL, d TEXT)")
        db.executemany(
            "INSERT INTO t VALUES (?, ?, ?, ?)",
            ((i, str(i), i * 0.5, "x" * 20) for i in range(10_000)),
        )
        db.execute("CREATE INDEX t_b ON t (b)")
        db.close()
        rng = random.Random(0)
        heap = [(rng.random(), i, [i]) for i in range(2000)]
        heapq.heapify(heap)
        for seq in range(2000, 12_000):
            due, _, payload = heapq.heappop(heap)
            heapq.heappush(heap, (due + rng.random(), seq, [seq, payload[0]]))

    def sample(self) -> None:
        """Run the reference task once and record its CPU time."""
        start = cpu_clock()
        self._task()
        self.samples.append(cpu_clock() - start)

    def scale(self) -> float:
        return self.NOMINAL_S / median(self.samples)


#: The run's host-speed reference; every workload samples the same one.
HOST = HostSpeed()


@dataclasses.dataclass(slots=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    #: Index of the enclosing span in :attr:`Tracer.spans`, -1 for roots.
    parent: int
    pass_id: int
    #: ``bench`` for spans this benchmark records, ``program`` for
    #: spans adopted from the program's own telemetry.
    origin: str = "bench"


class Tracer:
    """Span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(
            Span(name, time.perf_counter_ns(), 0, parent, self.pass_id)
        )
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end_ns = time.perf_counter_ns()

    def adopt(self, program_spans) -> None:
        """Fold the program's telemetry spans into the current pass.

        Each becomes a child of the innermost span containing it.
        Spans without a start time (the transformer's synthetic
        ``run`` total) duplicate a benchmark span and are skipped.
        """
        if not self.enabled:
            return
        for data in program_spans:
            if data.start_ns <= 0:
                continue
            self.spans.append(
                Span(
                    data.stage,
                    data.start_ns,
                    data.start_ns + data.duration_ns,
                    -1,
                    self.pass_id,
                    origin="program",
                )
            )
        self._link_program_spans()

    def _link_program_spans(self) -> None:
        indices = [
            i for i, s in enumerate(self.spans) if s.pass_id == self.pass_id
        ]
        indices.sort(
            key=lambda i: (self.spans[i].start_ns, -self.spans[i].end_ns, i)
        )
        stack: list[int] = []
        for i in indices:
            span = self.spans[i]
            while stack and self.spans[stack[-1]].end_ns < span.end_ns:
                stack.pop()
            if span.origin == "program":
                span.parent = stack[-1] if stack else -1
            stack.append(i)

    def self_seconds(self, pass_id: int) -> dict[str, float]:
        """Summed self time per span name over one pass."""
        children: dict[int, list[Span]] = defaultdict(list)
        members = [
            (i, s) for i, s in enumerate(self.spans) if s.pass_id == pass_id
        ]
        for _, span in members:
            if span.parent >= 0:
                children[span.parent].append(span)
        totals: dict[str, float] = defaultdict(float)
        for i, span in members:
            covered = 0
            reach = span.start_ns
            for child in sorted(children[i], key=lambda c: c.start_ns):
                lo, hi = max(child.start_ns, reach), min(child.end_ns, span.end_ns)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            totals[span.name] += (span.end_ns - span.start_ns - covered) / 1e9
        return dict(totals)

    def self_time_metrics(self, program_spans) -> dict[str, float]:
        """Adopt ``program_spans`` into the current pass and return its
        :data:`SELF_TIME_METRICS` (those whose spans occurred)."""
        self.adopt(program_spans)
        seconds = self.self_seconds(self.pass_id)
        return {
            metric: sum(seconds.get(name, 0.0) for name in names)
            for metric, names in SELF_TIME_METRICS.items()
            if any(name in seconds for name in names)
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps([dataclasses.asdict(s) for s in self.spans]) + "\n"
        )


def pooled(samples: list[dict], key: str) -> list[float]:
    """Every value of the list-valued ``key`` across ``samples``."""
    return [value for sample in samples for value in sample.get(key, ())]


#: End-to-end timings: taken on the CPU clock, reported at the nominal
#: host speed.
TIMINGS = ("setup_s", "pipeline_s", "freshness_ms_p50", "freshness_ms_tail")


def end_to_end(
    samples: list[dict], setup_s: list[float], host_scale: float
) -> dict[str, float]:
    """The end-to-end metrics of one run from its pass samples, with
    the :data:`TIMINGS` multiplied by ``host_scale``."""
    fresh = pooled(samples, "freshness_ms")
    metrics = {
        "setup_s": median(setup_s),
        "pipeline_s": median(s["pipeline_s"] for s in samples),
        "freshness_ms_p50": median(fresh),
        "freshness_ms_tail": tail(fresh),
    }
    print(
        "CPU clock, unscaled: "
        + " ".join(f"{name} {metrics[name]:.6g}" for name in TIMINGS)
        + f"; host scale {host_scale:.4f}; "
        + "wall pipeline_s "
        + f"{median(s['pipeline_wall_s'] for s in samples):.6g}",
        file=sys.stderr,
    )
    for name in TIMINGS:
        metrics[name] *= host_scale
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    for key in ("diagnosis_recall", "diagnosis_precision", "diagnosis_attribution"):
        metrics[key] = median(s[key] for s in samples)
    return metrics


def per_layer(
    samples: list[dict], setups: list[dict], names: list[str]
) -> dict[str, float]:
    """The per-layer metrics ``names`` of one traced run: medians over
    traced passes, falling back to the set-ups for layers that run only
    there.  Prints the layer shares of ``pipeline_s`` to stderr."""
    traced = [s for s in samples if s.get("traced")]
    untraced = [s for s in samples if "pipeline_s" in s and not s.get("traced")]
    metrics: dict[str, float] = {}
    for name in names:
        values = [s[name] for s in traced if name in s] or [
            s[name] for s in setups if name in s
        ]
        if values:
            metrics[name] = median(values)
    # Cycle times are timed around each call in every pass, traced or
    # not, so they pool over all passes.
    for layer in ("ingest", "diagnose"):
        cycles = pooled(samples, f"serve.{layer}_cycle_ms")
        metrics[f"serve.{layer}_cycle_ms_p50"] = median(cycles)
        metrics[f"serve.{layer}_cycle_ms_tail"] = tail(cycles)
    metrics["serve.cycle_samples"] = len(pooled(samples, "serve.ingest_cycle_ms"))
    metrics["host.reference_ms"] = median(HOST.samples) * 1e3
    metrics["freshness.samples"] = len(pooled(samples, "freshness_ms"))
    with_pipeline = [s for s in traced if "pipeline_s" in s]
    if with_pipeline and untraced:
        # Overhead on the CPU clock, which steal time does not move.
        metrics["telemetry.overhead_frac"] = median(
            s["pipeline_s"] for s in with_pipeline
        ) / median(s["pipeline_s"] for s in untraced) - 1.0
        # Layer timings are wall time, so their shares are of the
        # pass's wall time.
        wall_s = median(s["pipeline_wall_s"] for s in with_pipeline)
        for layer in ("sim.wall_s", "transformer.wall_s", "analysis.diagnose_s"):
            if any(layer in s for s in with_pipeline):
                print(
                    f"share {layer} / wall pipeline_s = {metrics[layer] / wall_s:.3f}"
                    f" (base: median wall pipeline_s {wall_s:.4f} s over "
                    f"{len(with_pipeline)} traced passes)",
                    file=sys.stderr,
                )
    return metrics
