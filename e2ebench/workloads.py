"""The two workloads of the end-to-end pipeline benchmark.

Every workload is single process: ``jobs=1`` transforms, serial
diagnosis, an in-process serve daemon and no HTTP server.  The
benchmark calls only the pipeline's public entry points —
``SCENARIOS[name].build(seed, log_dir)``, ``FaultSchedule.from_faults``,
:class:`MScopeDataTransformer`, :class:`Diagnoser`, ``score_reports``
and the cycles of :class:`MScopeServeDaemon` — so the simulator kernel
and the scenario builders can change underneath it.  The program sees
only the generated logs, never the seed.

A pass returns ``(sample, problems)``: ``sample`` maps metric names to
numbers (lists are pooled across passes), ``problems`` lists every
output check the pass failed.
"""

from __future__ import annotations

import functools
import hashlib
import math
import shutil
import time
from pathlib import Path

from repro.analysis.diagnosis import Diagnoser
from repro.serve.daemon import MScopeServeDaemon, ServeConfig
from repro.telemetry.spans import TelemetryCollector
from repro.transformer.pipeline import MScopeDataTransformer
from repro.validation.runner import SCENARIOS
from repro.validation.schedule import FaultSchedule
from repro.validation.scoring import ValidationScore, score_reports
from repro.warehouse.db import MScopeDB

from e2ebench.measure import HOST, CpuTimeline, Tracer, cpu_clock, median

#: Tables only a traced transform writes (span timings): left out of
#: the content digest, which must not depend on tracing.
TELEMETRY_TABLES = frozenset({"pipeline_metrics", "pipeline_workers"})

#: Seconds between replay slices in the live workload.  At 1x the
#: simulated rate, the seed code keeps up at 0.5 s (lateness stays
#: ~0); at 0.25 s lateness grows over the last slices and at 0.1 s it
#: grows to seconds (see e2ebench/README.md).
SLICE_INTERVAL_S = 0.5

#: Idle time before the next slice is due that the live replay needs to
#: sample the host's speed in the gap: a few reference tasks' time, so
#: the sample ends before the slice is due.
IDLE_SAMPLE_S = 0.25


def content_of(db: MScopeDB) -> tuple[str, int, int]:
    """``(sha256, tables, rows)`` of the warehouse's canonical content."""
    digest = hashlib.sha256()
    tables = rows = 0
    skip = False
    for line in db.iterdump_content():
        if line.startswith("TABLE "):
            skip = line.split(" ", 2)[1] in TELEMETRY_TABLES
            tables += not skip
        elif not skip:
            rows += 1
        if not skip:
            digest.update(line.encode())
            digest.update(b"\n")
    return digest.hexdigest(), tables, rows


def remove_warehouse(path: Path) -> None:
    for suffix in ("", "-wal", "-shm"):
        Path(f"{path}{suffix}").unlink(missing_ok=True)


def log_stats(logs: Path) -> tuple[int, int]:
    """``(files, bytes)`` of a log tree."""
    sizes = [p.stat().st_size for p in logs.rglob("*.log")]
    return len(sizes), sum(sizes)


def simulate(tracer: Tracer, scenario: str, seed: int, logs: Path):
    """Build ``scenario`` into a fresh ``logs`` tree; returns the run,
    its fault schedule and the ``sim``/``logfmt`` sample."""
    shutil.rmtree(logs, ignore_errors=True)
    start = time.perf_counter()
    with tracer.span("sim.build"):
        sim = SCENARIOS[scenario].build(seed, logs)
    wall = time.perf_counter() - start
    schedule = FaultSchedule.from_faults(sim.system, sim.faults)
    # The engine's sequence counter: one per scheduled event.
    events = getattr(sim.system.engine, "_sequence", 0)
    files, size = log_stats(logs)
    sample = {
        "sim.wall_s": wall,
        "sim.events": events,
        "sim.events_per_s": events / wall,
        "sim.requests": len(sim.result.traces),
        "logfmt.log_bytes": size,
        "logfmt.log_files": files,
    }
    return sim, schedule, sample


class Checker:
    """Output checks: one warehouse content and one report list per
    workload, and the scenario's registered accuracy floors."""

    def __init__(self, scenario: str) -> None:
        self.floors = SCENARIOS[scenario].floors
        self.digest: str | None = None
        self.reports: list[str] | None = None

    def content(self, digest: str) -> list[str]:
        if self.digest is None:
            self.digest = digest
        if digest != self.digest:
            return ["warehouse content differs from the reference"]
        return []

    def diagnosis(self, reports: list[str], what: str = "reports") -> list[str]:
        if self.reports is None:
            self.reports = reports
        if reports != self.reports:
            return [f"diagnosis {what} differ from the reference"]
        return []

    def score(self, score: ValidationScore) -> list[str]:
        actual = score_sample(score)
        return [
            f"{metric} {actual['diagnosis_' + metric]:.3f} below floor {floor:.3f}"
            for metric, floor in sorted(self.floors.items())
            if actual["diagnosis_" + metric] < floor
        ]


def score_sample(score: ValidationScore) -> dict[str, float]:
    return {
        "diagnosis_recall": score.recall,
        "diagnosis_precision": score.precision,
        "diagnosis_attribution": score.attribution_accuracy,
    }


def batch_pass(
    tracer: Tracer,
    checker: Checker,
    logs: Path,
    db_path: Path,
    epoch_us: int,
    schedule: FaultSchedule,
    telemetry: TelemetryCollector | None,
) -> tuple[dict, list[str]]:
    """Transform ``logs`` into a fresh file-backed warehouse, diagnose
    and score.  Freshness runs from the start of the transform, when the
    complete logs are on disk, to the return of the diagnosis.
    ``pipeline_s`` and freshness are on the CPU clock, the layer
    timings wall time."""
    remove_warehouse(db_path)
    db = MScopeDB(db_path)
    try:
        t0, c0 = time.perf_counter(), cpu_clock()
        with tracer.span("transformer.transform_directory"):
            outcomes = MScopeDataTransformer(
                db, jobs=1, telemetry=telemetry
            ).transform_directory(logs)
        t1 = time.perf_counter()
        with tracer.span("analysis.diagnose"):
            reports = Diagnoser(
                db, epoch_us=epoch_us, telemetry=telemetry
            ).diagnose()
        t2, c2 = time.perf_counter(), cpu_clock()
        with tracer.span("validation.score"):
            score = score_reports(schedule, reports)
        t3, c3 = time.perf_counter(), cpu_clock()
        with tracer.span("warehouse.check"):
            digest, tables, rows = content_of(db)
        t4 = time.perf_counter()
    finally:
        db.close()
    _, log_bytes = log_stats(logs)
    loaded = sum(outcome.rows_loaded for outcome in outcomes)
    sample = {
        "transformer.wall_s": t1 - t0,
        "transformer.rows_per_s": loaded / (t1 - t0),
        "transformer.log_bytes_per_s": log_bytes / (t1 - t0),
        "analysis.diagnose_s": t2 - t1,
        "analysis.reports": len(reports),
        "validation.score_s": t3 - t2,
        "validation.labels": len(schedule),
        "warehouse.check_s": t4 - t3,
        "warehouse.rows": rows,
        "warehouse.tables": tables,
        "warehouse.db_bytes": db_path.stat().st_size,
        "pipeline_s": c3 - c0,
        "pipeline_wall_s": t3 - t0,
        "freshness_ms": [(c2 - c0) * 1e3],
        **score_sample(score),
    }
    problems = (
        checker.content(digest)
        + checker.diagnosis([report.to_text() for report in reports])
        + checker.score(score)
    )
    return sample, problems


def serve_catch_up(
    tracer: Tracer,
    checker: Checker,
    logs: Path,
    db_path: Path,
    epoch_us: int,
    batch_transform_s: float,
    telemetry: TelemetryCollector | None,
) -> tuple[dict, list[str]]:
    """One serve ingest cycle and one diagnose cycle over a complete
    log tree: the serve layer's cost where nothing arrives live."""
    remove_warehouse(db_path)
    due = time.perf_counter()
    daemon = MScopeServeDaemon(
        ServeConfig(logs=logs, db=db_path, epoch_us=epoch_us)
    )
    try:
        t0 = time.perf_counter()
        with tracer.span("serve.ingest_cycle"):
            outcome = daemon.ingest_cycle()
        t1 = time.perf_counter()
        with tracer.span("serve.diagnose_cycle"):
            daemon.diagnose_cycle()
        t2 = time.perf_counter()
        digest, _, _ = content_of(daemon.db)
        served = [r["text"] for v in daemon.verdicts() for r in v.reports]
    finally:
        daemon.db.close()
    if telemetry is not None:
        telemetry.ingest(daemon.telemetry.spans)
    sample = {
        "serve.ingest_cycle_ms": [(t1 - t0) * 1e3],
        "serve.diagnose_cycle_ms": [(t2 - t1) * 1e3],
        "serve.cycles": daemon.state.cycles,
        "serve.rows_per_cycle": daemon.state.rows / daemon.state.cycles,
        "serve.queue_depth_max": outcome.taken + outcome.deferred,
        "serve.degrades": daemon.state.degrades,
        "serve.replay_late_ms_max": (t0 - due) * 1e3,
        "serve.ingest_over_batch": (t1 - t0) / batch_transform_s,
    }
    problems = checker.content(digest) + checker.diagnosis(served, "verdicts")
    if outcome.skipped_files or daemon.state.degrades:
        problems.append("serve catch-up skipped files or degraded")
    return sample, problems


class BatchWorkload:
    """Logs simulated once per set-up; per pass: transform them into a
    fresh warehouse, diagnose, score."""

    def __init__(
        self, workdir: Path, seed: int, tracer: Tracer, scenario: str
    ) -> None:
        self.workdir, self.seed, self.tracer = workdir, seed, tracer
        self.scenario = scenario
        self.logs = workdir / "logs"
        self.checker = Checker(scenario)
        self.batch_transform_s: list[float] = []

    def setup(self, telemetry: TelemetryCollector | None) -> dict:
        sim, self.schedule, sample = simulate(
            self.tracer, self.scenario, self.seed, self.logs
        )
        self.epoch_us = sim.epoch_us
        return sample

    def run_pass(self, telemetry: TelemetryCollector | None):
        sample, problems = batch_pass(
            self.tracer, self.checker, self.logs, self.workdir / "mscope.db",
            self.epoch_us, self.schedule, telemetry,
        )
        self.batch_transform_s.append(sample["transformer.wall_s"])
        return sample, problems

    def serve_leg(self, telemetry: TelemetryCollector | None):
        return serve_catch_up(
            self.tracer, self.checker, self.logs, self.workdir / "serve.db",
            self.epoch_us, median(self.batch_transform_s), telemetry,
        )


class LiveDbLogFlush:
    """``db_log_flush`` logs are simulated in set-up and replayed open
    loop into an in-process serve daemon, one ingest cycle and one
    diagnose cycle after each slice."""

    scenario = "db_log_flush"

    def __init__(self, workdir: Path, seed: int, tracer: Tracer) -> None:
        self.workdir, self.seed, self.tracer = workdir, seed, tracer
        self.logs = workdir / "logs"
        self.db_path = workdir / "live.db"
        self.checker = Checker(self.scenario)
        self.batch_transform_s: list[float] = []

    def setup(self, telemetry: TelemetryCollector | None) -> dict:
        sim, self.schedule, sample = simulate(
            self.tracer, self.scenario, self.seed, self.logs
        )
        self.epoch_us = sim.epoch_us
        # The reference: one batch transform and diagnosis of the
        # complete tree, at the path the replay rebuilds, so recorded
        # source paths match.  Later set-ups are checked against the
        # first.
        batch, problems = batch_pass(
            self.tracer, self.checker, self.logs, self.workdir / "batch.db",
            sim.epoch_us, self.schedule, telemetry,
        )
        if problems:
            raise RuntimeError("reference batch run failed: " + "; ".join(problems))
        self.batch_transform_s.append(batch["transformer.wall_s"])
        self.files = {
            path.relative_to(self.logs): path.read_bytes()
            for path in sorted(self.logs.rglob("*.log"))
        }
        # Slices at the simulated system's own rate (1x real time).
        self.slices = max(1, math.ceil(sim.duration / 1e6 / SLICE_INTERVAL_S))
        self.cuts = {
            name: self._line_cuts(data) for name, data in self.files.items()
        }
        sample.update(
            (key, batch[key]) for key in (
                "transformer.wall_s", "transformer.rows_per_s",
                "transformer.log_bytes_per_s",
            )
        )
        return sample

    def _line_cuts(self, data: bytes) -> list[int]:
        """Line-aligned byte offsets splitting ``data`` into even slices."""
        cuts = [0]
        for k in range(1, self.slices):
            end = data.find(b"\n", max(cuts[-1], len(data) * k // self.slices))
            cuts.append(len(data) if end < 0 else end + 1)
        cuts.append(len(data))
        return cuts

    def _append(self, k: int) -> None:
        for name, data in self.files.items():
            path = self.logs / name
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "ab") as handle:
                handle.write(data[self.cuts[name][k]:self.cuts[name][k + 1]])

    def run_pass(self, telemetry: TelemetryCollector | None):
        tracer = self.tracer
        shutil.rmtree(self.logs, ignore_errors=True)
        remove_warehouse(self.db_path)
        daemon = MScopeServeDaemon(
            ServeConfig(logs=self.logs, db=self.db_path, epoch_us=self.epoch_us)
        )
        ingest_ms: list[float] = []
        diagnose_ms: list[float] = []
        fresh_ms: list[float] = []
        late_ms: list[float] = []
        pending: list[float] = []
        depth = 0
        # Slices are due on the wall clock; freshness is the CPU clock
        # from a slice's due time to the verdict that covers it.
        clock = CpuTimeline()
        busy_s = 0.0
        try:
            start, _ = clock.mark()
            for k in range(self.slices):
                due = start + k * SLICE_INTERVAL_S
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                clock.mark()
                with tracer.span("replay.append"):
                    self._append(k)
                pending.append(due)
                t0, c0 = clock.mark()
                late_ms.append((t0 - due) * 1e3)
                with tracer.span("serve.ingest_cycle"):
                    outcome = daemon.ingest_cycle()
                t1, _ = clock.mark()
                with tracer.span("serve.diagnose_cycle"):
                    daemon.diagnose_cycle()
                t2, c2 = clock.mark()
                ingest_ms.append((t1 - t0) * 1e3)
                diagnose_ms.append((t2 - t1) * 1e3)
                busy_s += c2 - c0
                depth = max(depth, outcome.taken + outcome.deferred)
                # A slice is covered once a cycle has taken every file
                # it touched: nothing skipped, nothing left queued.
                if outcome.skipped_files == 0 and daemon.queue.depth == 0:
                    fresh_ms.extend(
                        (c2 - clock.cpu_at(d)) * 1e3 for d in pending
                    )
                    pending.clear()
                # Sample the host's speed while the pipeline runs, in
                # the time the generator would sleep anyway.
                next_due = start + (k + 1) * SLICE_INTERVAL_S
                if (k + 1 < self.slices
                        and next_due - time.perf_counter() > IDLE_SAMPLE_S):
                    HOST.sample()
                    clock.mark()
            t3, c3 = clock.mark()
            with tracer.span("serve.drain"):
                daemon.drain()
            t4, c4 = clock.mark()
            busy_s += c4 - c3
            fresh_ms.extend((c4 - clock.cpu_at(d)) * 1e3 for d in pending)
            with tracer.span("warehouse.check"):
                digest, tables, rows = content_of(daemon.db)
            t5 = time.perf_counter()
            served = [r["text"] for v in daemon.verdicts() for r in v.reports]
            with tracer.span("analysis.diagnose"):
                reports = Diagnoser(
                    daemon.db, epoch_us=self.epoch_us, telemetry=telemetry
                ).diagnose()
            t6 = time.perf_counter()
            with tracer.span("validation.score"):
                score = score_reports(self.schedule, reports)
            t7 = time.perf_counter()
        finally:
            daemon.db.close()
        if telemetry is not None:
            telemetry.ingest(daemon.telemetry.spans)
        state = daemon.state
        sample = {
            # The pipeline's busy time for one replay: every cycle plus
            # the drain that closes it.
            "pipeline_s": busy_s,
            "pipeline_wall_s": (sum(ingest_ms) + sum(diagnose_ms)) / 1e3 + t4 - t3,
            "freshness_ms": fresh_ms,
            "serve.ingest_cycle_ms": ingest_ms,
            "serve.diagnose_cycle_ms": diagnose_ms,
            "serve.cycles": state.cycles,
            "serve.rows_per_cycle": state.rows / state.cycles,
            "serve.queue_depth_max": depth,
            "serve.degrades": state.degrades,
            "serve.replay_late_ms_max": max(late_ms),
            "serve.ingest_over_batch": (
                sum(ingest_ms) / 1e3 / median(self.batch_transform_s)
            ),
            "warehouse.check_s": t5 - t4,
            "warehouse.rows": rows,
            "warehouse.tables": tables,
            "warehouse.db_bytes": self.db_path.stat().st_size,
            "analysis.diagnose_s": t6 - t5,
            "analysis.reports": len(reports),
            "validation.score_s": t7 - t6,
            "validation.labels": len(self.schedule),
            **score_sample(score),
        }
        problems = (
            self.checker.content(digest)
            + self.checker.diagnosis(served, "verdicts")
            + self.checker.diagnosis([r.to_text() for r in reports])
            + self.checker.score(score)
        )
        if state.degrades:
            problems.append(f"live ingest degraded {state.degrades} time(s)")
        return sample, problems

    serve_leg = None


WORKLOADS = {
    "ingest_cache_stampede": functools.partial(
        BatchWorkload, scenario="cache_stampede"
    ),
    "live_db_log_flush": LiveDbLogFlush,
}
