"""The ``mscope serve`` daemon: continuous ingest + incremental diagnosis.

The cycle logic is synchronous and injectable-clock testable; the
asyncio layer (:meth:`MScopeServeDaemon.run`) only schedules cycles,
handles signals, and hosts the HTTP API.  Each cycle:

1. **Scan** — walk the log tree with the shared
   :meth:`~repro.transformer.live.LiveTransformer.declared_files`
   order and offer ``(host, file)`` work items for every file whose
   size changed since its last successful refresh.  The queue is
   bounded and deduplicating; a refused offer is a *deferral*, not a
   loss — the file keeps its unread tail.
2. **Backpressure** — crossing the queue's high-water mark downshifts
   to :data:`~repro.serve.state.IngestMode.SAMPLED`: only the head of
   the queue is imported per cycle until the depth falls back under
   the low-water mark.  Both transitions are published on the event
   stream and visible in ``/stats``.
3. **Ingest** — per-host :class:`LiveTransformer` instances
   delta-import each taken file (monolithic or sharded warehouse —
   both open ``threadsafe`` for the executor threads).
4. **Diagnose** — on its own interval, re-run the
   :class:`~repro.analysis.diagnosis.Diagnoser` over fixed
   simulation-time windows covering newly landed data and cache the
   per-window verdicts; the trailing window stays provisional and is
   re-diagnosed until data moves past it.

Shutdown (SIGTERM/SIGINT) drains: sampling is lifted, ingest cycles
repeat until a full scan imports nothing new, a final diagnosis runs,
and the warehouse closes import-consistent — iterdump-identical to a
batch transform of the same final tree (the serve-smoke CI job holds
this).  Pipeline telemetry is kept in memory for ``/stats`` and is
deliberately *not* persisted into the warehouse, so the batch
equivalence holds against ``mscope transform --no-stats``.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import signal
import threading
import time
from pathlib import Path
from typing import Any, Callable

from repro.analysis.causal import CausalPath, reconstruct_paths_bulk
from repro.analysis.diagnosis import Diagnoser
from repro.common.errors import AnalysisError, DeclarationError, ParseError
from repro.sampling.policy import parse_policy
from repro.common.timebase import Micros, seconds
from repro.common.windows import format_window
from repro.serve import events as ev
from repro.serve.events import EventBroker
from repro.serve.render import report_to_dict
from repro.serve.state import BackpressureQueue, IngestMode, ServeState
from repro.telemetry.aggregate import RunTelemetry
from repro.telemetry.spans import TelemetryCollector
from repro.transformer.errorpolicy import ErrorPolicy
from repro.transformer.live import LiveTransformer
from repro.warehouse.db import MScopeDB, copy_run_meta
from repro.warehouse.sharded import ShardedMScopeDB, open_warehouse

__all__ = [
    "CycleOutcome",
    "MScopeServeDaemon",
    "ServeConfig",
    "WindowVerdict",
]

@dataclasses.dataclass(slots=True)
class ServeConfig:
    """Everything ``mscope serve`` can be told on the command line."""

    #: Log tree root (host directories underneath, as for transform).
    logs: Path
    #: Warehouse path (file or shard root); ``None`` = in-memory.
    db: Path | None = None
    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (see ``bound_port``).
    port: int = 0
    #: Seconds between ingest cycles.
    refresh_interval_s: float = 0.5
    #: Seconds between diagnosis cycles.
    diagnose_interval_s: float = 2.0
    #: Bounded ingest queue capacity (work items = growing files).
    queue_capacity: int = 64
    #: Fraction of the queue imported per cycle while degraded.
    sample_fraction: float = 0.25
    #: Simulation-time width of one diagnosis window (seconds).
    diagnosis_window_s: float = 10.0
    #: VLRT count a window may carry before a floor-breach event.
    vlrt_floor: int = 0
    #: Front tier event table defining response times.
    front_table: str = "apache_events_web1"
    #: Damaged-line policy mode (fail-fast/skip; quarantine is batch-only).
    on_error: str = "fail-fast"
    #: Build a sharded warehouse with this time window (seconds).
    shard_window_s: float | None = None
    #: Epoch override; defaults to run_meta.json then 0.
    epoch_us: int | None = None
    #: Upper bound on drain rounds at shutdown.
    drain_rounds: int = 20
    #: In-memory telemetry span cap (rolling window for ``/stats``).
    telemetry_span_cap: int = 20_000
    #: Log-volume-reduction policy spec (e.g. ``tail:0.05:50``);
    #: ``None`` ingests everything.
    sampling: str | None = None


@dataclasses.dataclass(frozen=True, slots=True)
class CycleOutcome:
    """What one ingest cycle did."""

    new_rows: int
    refreshed_files: int
    skipped_files: int
    taken: int
    deferred: int
    dropped: int
    mode: IngestMode


@dataclasses.dataclass(slots=True)
class WindowVerdict:
    """The cached diagnosis of one fixed time window."""

    key: str
    start_us: Micros
    stop_us: Micros
    reports: list[dict[str, Any]]
    #: Times this window has been (re-)diagnosed.
    passes: int = 1
    #: True once data moved past the window (verdict will not change).
    final: bool = False
    #: Human-readable reason when the window could not be diagnosed.
    error: str | None = None

    @property
    def anomalies(self) -> int:
        return len(self.reports)

    def to_dict(self) -> dict[str, Any]:
        return {
            "window": self.key,
            "start_s": self.start_us / 1e6,
            "stop_s": self.stop_us / 1e6,
            "anomalies": self.anomalies,
            "passes": self.passes,
            "final": self.final,
            "error": self.error,
            "reports": self.reports,
        }


class MScopeServeDaemon:
    """The always-on milliScope service."""

    def __init__(
        self,
        config: ServeConfig,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self.clock = clock
        self.state = ServeState()
        self.queue: BackpressureQueue[tuple[str, Path, int]] = BackpressureQueue(
            config.queue_capacity,
            high_water=config.queue_capacity,
            low_water=max(0, config.queue_capacity // 4),
        )
        self.broker = EventBroker()
        self.telemetry = TelemetryCollector()
        self.db = self._open_db()
        self.epoch_us = self._resolve_meta()
        self._policy = ErrorPolicy(mode=config.on_error)
        # One shared policy instance across every per-host transformer:
        # tail sampling's deferral buffer must see a request's records
        # from *all* tiers to commit them coherently at flush.
        self._sampling = parse_policy(config.sampling)
        self._transformers: dict[str, LiveTransformer] = {}
        self._scanner = self._make_transformer()
        #: file -> byte size at its last successful refresh.
        self._seen_bytes: dict[Path, int] = {}
        self._verdicts: dict[str, WindowVerdict] = {}
        self._breached: set[str] = set()
        self._next_window_index = 0
        self._started = clock()
        self._db_lock = threading.Lock()
        self._shutdown = asyncio.Event()
        #: Port actually bound by the HTTP server (after startup).
        self.bound_port: int | None = None

    # -- construction helpers ------------------------------------------

    def _open_db(self) -> MScopeDB:
        # ShardedMScopeDB is not an MScopeDB subclass — it duck-types
        # the full warehouse API (execute/tables/iterdump_content/...),
        # so the daemon treats both layouts through the MScopeDB shape.
        config = self.config
        if config.db is None:
            return MScopeDB(threadsafe=True)
        if config.shard_window_s is not None:
            return ShardedMScopeDB(  # type: ignore[return-value]
                config.db,
                window_us=seconds(config.shard_window_s),
                threadsafe=True,
            )
        return open_warehouse(config.db, threadsafe=True)  # type: ignore[return-value]

    def _resolve_meta(self) -> int:
        """Carry run metadata into the warehouse, exactly as the batch
        transform does, and resolve the epoch offset."""
        meta = copy_run_meta(self.db, self.config.logs)
        if self.config.epoch_us is not None:
            return self.config.epoch_us
        if "epoch_us" in meta:
            return int(meta["epoch_us"])
        recorded = self.db.get_experiment_meta("epoch_us")
        return int(recorded) if recorded is not None else 0

    def _make_transformer(self) -> LiveTransformer:
        return LiveTransformer(
            self.db,
            policy=self._policy,
            max_retries=0,
            telemetry=self.telemetry,
            on_ingest_error=self._on_ingest_error,
            sampling=self._sampling,
        )

    def _transformer(self, host: str) -> LiveTransformer:
        transformer = self._transformers.get(host)
        if transformer is None:
            transformer = self._transformers[host] = self._make_transformer()
        return transformer

    def _on_ingest_error(self, source_path: str, reason: str) -> None:
        self.state.ingest_errors += 1
        self.broker.publish(
            ev.INGEST_ERROR, {"file": source_path, "reason": reason}
        )

    # -- the ingest cycle ----------------------------------------------

    def _scan(self) -> tuple[int, int]:
        """Offer every grown declared file; returns (offered, dropped)."""
        try:
            pairs = self._scanner.declared_files(self.config.logs)
        except DeclarationError:
            # The log tree may not exist yet; serve an empty system.
            return 0, 0
        offered = dropped = 0
        for host, path in pairs:
            try:
                size = path.stat().st_size
            except OSError:
                continue  # rotated away between glob and stat
            if self._seen_bytes.get(path) == size:
                continue
            offered += 1
            if not self.queue.offer((host, path, size)):
                dropped += 1
        return offered, dropped

    def ingest_cycle(self) -> CycleOutcome:
        """One scan → backpressure check → bounded drain pass."""
        started = self.clock()
        _, dropped = self._scan()
        if not self.state.sampled() and self.queue.above_high_water:
            self.state.mode = IngestMode.SAMPLED
            self.state.degrades += 1
            self.broker.publish(
                ev.DEGRADE,
                {
                    "reason": "ingest queue reached its high-water mark",
                    "queue_depth": self.queue.depth,
                    "capacity": self.queue.capacity,
                },
            )
        if self.state.sampled() and not self.state.draining:
            head = max(
                1, int(self.queue.capacity * self.config.sample_fraction)
            )
            batch = self.queue.take(head)
        else:
            batch = self.queue.take()
        deferred = self.queue.depth
        new_rows = refreshed = skipped = 0
        for host, path, size in batch:
            transformer = self._transformer(host)
            try:
                rows = transformer.refresh_file(path, host)
            except ParseError as exc:
                # Usually a mid-write file; the next scan re-offers it
                # (its recorded size is left stale on purpose).
                skipped += 1
                self.broker.publish(
                    ev.INGEST_ERROR, {"file": str(path), "reason": str(exc)}
                )
                continue
            self._seen_bytes[path] = size
            if rows:
                refreshed += 1
                new_rows += rows
        if self.state.sampled() and self.queue.below_low_water:
            self.state.mode = IngestMode.LIVE
            self.state.recoveries += 1
            self.broker.publish(
                ev.RECOVER,
                {
                    "reason": (
                        "drain" if self.state.draining
                        else "ingest queue drained below its low-water mark"
                    ),
                    "queue_depth": self.queue.depth,
                },
            )
        self.state.cycles += 1
        self.state.rows += new_rows
        self._refresh_sampling_gauges()
        self.state.refreshed_files += refreshed
        self.state.skipped_files += skipped
        self.state.deferred += deferred
        self.state.last_cycle_s = max(0.0, self.clock() - started)
        self._trim_telemetry()
        outcome = CycleOutcome(
            new_rows=new_rows,
            refreshed_files=refreshed,
            skipped_files=skipped,
            taken=len(batch),
            deferred=deferred,
            dropped=dropped,
            mode=self.state.mode,
        )
        self.broker.publish(
            ev.HEARTBEAT,
            {
                "cycle": self.state.cycles,
                "new_rows": new_rows,
                "refreshed_files": refreshed,
                "skipped_files": skipped,
                "queue_depth": self.queue.depth,
                "deferred": deferred,
                "mode": self.state.mode.value,
                "lag_s": round(self.state.last_cycle_s, 6),
                "total_rows": self.state.rows,
            },
        )
        return outcome

    def _refresh_sampling_gauges(self) -> None:
        """Mirror the shared policy's cumulative totals into state."""
        if self._sampling is None:
            return
        seen, kept = self._scanner.sampling_totals()
        self.state.sampled_rows = seen
        self.state.kept_rows = kept

    def _trim_telemetry(self) -> None:
        """Bound the in-memory span list (a rolling ``/stats`` view)."""
        cap = self.config.telemetry_span_cap
        spans = self.telemetry.spans
        if len(spans) > cap:
            del spans[: len(spans) - cap]

    # -- the diagnosis cycle -------------------------------------------

    def _data_extent_us(self) -> Micros | None:
        """Latest front-tier departure in simulation time, or None."""
        front = self.config.front_table
        if front not in self.db.tables():
            return None
        rows = self.db.query(
            f"SELECT MAX(upstream_departure_us) FROM {front}"
        )
        if not rows or rows[0][0] is None:
            return None
        return int(rows[0][0]) - self.epoch_us

    def diagnose_cycle(self) -> list[WindowVerdict]:
        """(Re-)diagnose every window touched by newly landed data."""
        extent = self._data_extent_us()
        updated: list[WindowVerdict] = []
        if extent is not None:
            window_us = seconds(self.config.diagnosis_window_s)
            last = max(self._next_window_index, int(extent // window_us))
            for index in range(self._next_window_index, last + 1):
                verdict = self._diagnose_window(index, window_us)
                verdict.final = index < last
                self._verdicts[verdict.key] = verdict
                updated.append(verdict)
                self._check_floor(verdict)
            # The trailing window is provisional: re-diagnose it until
            # data moves past it.
            self._next_window_index = last
        self.state.diagnose_cycles += 1
        self.state.cached_windows = len(self._verdicts)
        return updated

    def _diagnose_window(
        self, index: int, window_us: Micros
    ) -> WindowVerdict:
        start, stop = index * window_us, (index + 1) * window_us
        key = format_window(start, stop)
        previous = self._verdicts.get(key)
        passes = previous.passes + 1 if previous is not None else 1
        try:
            reports = Diagnoser(
                self.db,
                front_table=self.config.front_table,
                epoch_us=self.epoch_us,
                window_us=(start, stop),
            ).diagnose()
        except AnalysisError as exc:
            return WindowVerdict(
                key=key, start_us=start, stop_us=stop, reports=[],
                passes=passes, error=str(exc),
            )
        return WindowVerdict(
            key=key,
            start_us=start,
            stop_us=stop,
            reports=[report_to_dict(report) for report in reports],
            passes=passes,
        )

    def _check_floor(self, verdict: WindowVerdict) -> None:
        worst = max(
            (r["window"]["vlrt_count"] for r in verdict.reports), default=0
        )
        if worst <= self.config.vlrt_floor or verdict.key in self._breached:
            return
        self._breached.add(verdict.key)
        self.state.floor_breaches += 1
        self.broker.publish(
            ev.FLOOR_BREACH,
            {
                "window": verdict.key,
                "vlrt_count": worst,
                "floor": self.config.vlrt_floor,
                "anomalies": verdict.anomalies,
                "primary_cause": (
                    verdict.reports[0]["causes"][0]["label"]
                    if verdict.reports and verdict.reports[0]["causes"]
                    else None
                ),
            },
        )

    # -- HTTP-facing accessors -----------------------------------------

    def verdicts(
        self, window: tuple[Micros | None, Micros | None] | None = None
    ) -> list[WindowVerdict]:
        """Cached verdicts, oldest first, optionally window-filtered."""
        verdicts = sorted(self._verdicts.values(), key=lambda v: v.start_us)
        if window is None:
            return verdicts
        start, stop = window
        return [
            v for v in verdicts
            if (stop is None or v.start_us < stop)
            and (start is None or v.stop_us > start)
        ]

    def verdict(self, key: str) -> WindowVerdict | None:
        return self._verdicts.get(key)

    def causal_paths(self, request_ids: list[str]) -> list[dict[str, Any]]:
        """Bulk causal-path reconstruction for the ``/paths`` endpoint."""
        from repro.analysis.causal import discover_tier_tables

        with self._db_lock:
            # A live warehouse may not have every tier loaded yet;
            # reconstruct over the tables that exist (Diagnoser does
            # the same), covering every replica the run deployed.
            tables = discover_tier_tables(self.db)
            if not tables:
                return []
            paths = list(
                reconstruct_paths_bulk(self.db, request_ids, tables)
            )
        return [self._path_to_dict(path) for path in paths]

    @staticmethod
    def _path_to_dict(path: CausalPath) -> dict[str, Any]:
        return {
            "request_id": path.request_id,
            "hops": [
                {
                    "tier": hop.tier,
                    "host": hop.host,
                    "upstream_arrival_us": hop.upstream_arrival_us,
                    "upstream_departure_us": hop.upstream_departure_us,
                    "downstream_sending_us": hop.downstream_sending_us,
                    "downstream_receiving_us": hop.downstream_receiving_us,
                    "local_ms": hop.local_time_ms(),
                }
                for hop in path.hops
            ],
        }

    def telemetry_snapshot(self) -> RunTelemetry:
        # The ingest thread appends/trims the span list; aggregate
        # under the same lock the cycles hold (callers use to_thread).
        with self._db_lock:
            return self.telemetry.run_telemetry()

    def health(self) -> dict[str, Any]:
        return dict(
            self.state.to_dict(),
            status="draining" if self.state.draining else "ok",
            uptime_s=round(max(0.0, self.clock() - self._started), 3),
            queue_depth=self.queue.depth,
            queue_capacity=self.queue.capacity,
            queue_dropped=self.queue.dropped,
            warehouse=self.db.path,
            epoch_us=self.epoch_us,
        )

    # -- lifecycle ------------------------------------------------------

    def request_shutdown(self) -> None:
        """Begin the SIGTERM drain (idempotent, thread-safe-ish: only
        ever called from the event loop via signal handlers or tests)."""
        self._shutdown.set()

    def _locked(self, cycle: Callable[[], Any]) -> Any:
        with self._db_lock:
            return cycle()

    def drain(self) -> None:
        """Catch the warehouse up completely, then close it.

        Sampling is lifted and ingest cycles repeat until a full scan
        consumes nothing new — *takes* no files, not merely imports no
        rows: under a tail-sampling policy a consumed file can defer
        every row and still mean progress — (bounded by
        ``drain_rounds`` in case a log writer never stops mid-record),
        then a final diagnosis pass runs.  After this the warehouse content equals a batch
        transform of the same final tree.
        """
        self.state.draining = True
        for _ in range(max(1, self.config.drain_rounds)):
            outcome = self.ingest_cycle()
            if (
                outcome.taken == 0
                and outcome.new_rows == 0
                and outcome.skipped_files == 0
                and self.queue.depth == 0
            ):
                break
        # A stateful sampling policy (tail deferral) may still withhold
        # records; commit them before the final diagnosis so deferred
        # VLRT evidence lands in the closing warehouse.
        flushed = self._scanner.flush_sampling()
        if flushed:
            self.state.rows += flushed
        self._refresh_sampling_gauges()
        self.diagnose_cycle()
        self.broker.publish(
            ev.SHUTDOWN,
            {
                "rows": self.state.rows,
                "cycles": self.state.cycles,
                "cached_windows": self.state.cached_windows,
            },
        )

    async def run(self, ready: asyncio.Event | None = None) -> None:
        """Serve until SIGTERM/SIGINT (or :meth:`request_shutdown`)."""
        from repro.serve.http import HttpServer

        loop = asyncio.get_running_loop()
        self.broker.attach_loop(loop)
        http = HttpServer(self)
        server = await http.start()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, self.request_shutdown)
        if ready is not None:
            ready.set()
        last_diagnose = float("-inf")
        try:
            while not self._shutdown.is_set():
                await asyncio.to_thread(self._locked, self.ingest_cycle)
                if (
                    self.clock() - last_diagnose
                    >= self.config.diagnose_interval_s
                ):
                    await asyncio.to_thread(self._locked, self.diagnose_cycle)
                    last_diagnose = self.clock()
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(
                        self._shutdown.wait(),
                        timeout=self.config.refresh_interval_s,
                    )
        finally:
            await asyncio.to_thread(self._locked, self.drain)
            server.close()
            await server.wait_closed()
            await http.wait_idle()
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, RuntimeError):
                    loop.remove_signal_handler(signum)
            self.db.close()
