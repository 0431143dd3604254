"""Calibrated experiment scenarios.

Builders for the paper's experimental setups:

* :func:`scenario_a` — database log flush saturates the DB disk
  (Section V-A; Figures 2, 4, 6, 7);
* :func:`scenario_b` — dirty-page recycling saturates web/app CPUs at
  two different moments (Section V-B; Figure 8);
* :func:`baseline_run` — a healthy system at a given workload, with
  monitors on or off (Section VI; Figures 9, 10, 11).

Each builder returns a :class:`ScenarioRun` carrying the system, its
ground truth, the attached monitors, and (when a log directory was
given) the native logs ready for mScopeDataTransformer.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.baselines.sysviz import SysVizTracer
from repro.common.timebase import Micros, ms, seconds
from repro.monitors.event.suite import EventMonitorSuite
from repro.monitors.resource.suite import ResourceMonitorSuite
from repro.ntier.faults import (
    DBLogFlushFault,
    DirtyPageFlushFault,
    Fault,
    GarbageCollectionFault,
)
from repro.ntier.faults_catalog import (
    CacheStampedeFault,
    ConnectionPoolExhaustionFault,
    LockConvoyFault,
    MemoryLeakFault,
    NetworkJitterFault,
    RetryStormFault,
)
from repro.ntier.faults_extra import DvfsSlowdownFault, VmConsolidationFault
from repro.ntier.system import NTierSystem, SystemConfig, SystemResult, TierConfig
from repro.rubbos.interactions import FANOUT_MIX, READ_WRITE_MIX
from repro.rubbos.workload import WorkloadSpec
from repro.transformer.pipeline import MScopeDataTransformer
from repro.warehouse.db import MScopeDB

__all__ = [
    "ScenarioRun",
    "scenario_tier_configs",
    "scenario_a",
    "scenario_b",
    "scenario_gc",
    "scenario_dvfs",
    "scenario_vm",
    "scenario_retry_storm",
    "scenario_pool_exhaustion",
    "scenario_lock_convoy",
    "scenario_cache_stampede",
    "scenario_net_jitter",
    "scenario_memory_leak",
    "baseline_run",
    "load_warehouse",
    "record_run_metadata",
]

MB = 1024 * 1024


@dataclasses.dataclass(slots=True)
class ScenarioRun:
    """One executed scenario and everything observed during it."""

    system: NTierSystem
    result: SystemResult
    faults: list[Fault]
    events: EventMonitorSuite | None
    resources: ResourceMonitorSuite | None
    sysviz: SysVizTracer | None
    log_dir: Path | None
    duration: Micros

    @property
    def epoch_us(self) -> int:
        """Epoch offset for rebasing warehouse timestamps."""
        return self.system.wall_clock.epoch_micros(0)


def scenario_tier_configs() -> dict[str, TierConfig]:
    """Deliberately small worker pools, as in the paper's testbed.

    Transient bottlenecks amplify into cross-tier pushback only when
    thread pools can fill during the bottleneck's lifetime.
    """
    return {
        "apache": TierConfig(workers=60),
        "tomcat": TierConfig(workers=24),
        "cjdbc": TierConfig(workers=24),
        "mysql": TierConfig(workers=16),
    }


def _build(
    users: int,
    think_ms: float,
    seed: int,
    log_dir: Path | None,
    tiers: dict[str, TierConfig] | None,
    faults: list[Fault],
    monitor_interval: Micros,
    with_event_monitors: bool,
    with_resource_monitors: bool,
    with_sysviz: bool,
    mix_name: str = READ_WRITE_MIX,
    dispatch: str = "round-robin",
) -> tuple[NTierSystem, EventMonitorSuite | None, ResourceMonitorSuite | None, SysVizTracer | None]:
    workload = WorkloadSpec(
        users=users, think_time_us=ms(think_ms), ramp_up_us=ms(300),
        mix_name=mix_name,
    )
    config = SystemConfig(
        workload=workload, seed=seed, log_dir=log_dir,
        dispatch=dispatch,
    )
    if tiers is not None:
        config.tiers = tiers
    system = NTierSystem(config, faults=faults)
    events = None
    if with_event_monitors:
        events = EventMonitorSuite()
        events.attach(system)
    resources = None
    if with_resource_monitors:
        resources = ResourceMonitorSuite(system, interval_us=monitor_interval)
        resources.start()
    sysviz = None
    if with_sysviz:
        sysviz = SysVizTracer()
        sysviz.attach(system)
    return system, events, resources, sysviz


def scenario_a(
    seed: int = 3,
    users: int = 300,
    think_ms: float = 700.0,
    duration: Micros = seconds(5),
    flush_at: Micros = seconds(2),
    flush_bytes: int = 30 * MB,
    log_dir: Path | None = None,
    monitor_interval: Micros = ms(50),
    with_sysviz: bool = False,
) -> ScenarioRun:
    """Database-I/O very short bottleneck (Figures 2, 4, 6, 7)."""
    fault = DBLogFlushFault(
        start_at=flush_at,
        period=seconds(10),
        flush_bytes=flush_bytes,
        bursts=1,
    )
    system, events, resources, sysviz = _build(
        users,
        think_ms,
        seed,
        log_dir,
        scenario_tier_configs(),
        [fault],
        monitor_interval,
        with_event_monitors=True,
        with_resource_monitors=True,
        with_sysviz=with_sysviz,
    )
    result = system.run(duration)
    return ScenarioRun(
        system=system,
        result=result,
        faults=[fault],
        events=events,
        resources=resources,
        sysviz=sysviz,
        log_dir=log_dir,
        duration=duration,
    )


def scenario_b(
    seed: int = 3,
    users: int = 300,
    think_ms: float = 700.0,
    duration: Micros = seconds(5),
    log_dir: Path | None = None,
    monitor_interval: Micros = ms(50),
    with_sysviz: bool = False,
) -> ScenarioRun:
    """Dirty-page recycling bottleneck, two staggered peaks (Figure 8).

    The Apache node's dirty level starts near its threshold, so its
    flusher fires first (first RT peak: Apache queue only); the Tomcat
    node crosses its higher threshold about a second later (second
    peak: Apache *and* Tomcat queues — cross-tier amplification).
    """
    apache_fault = DirtyPageFlushFault(
        tier="apache",
        threshold_bytes=40 * MB,
        low_watermark_bytes=12 * MB,
        dirty_rate_bytes_per_sec=8 * MB,
        initial_dirty_bytes=30 * MB,
    )
    tomcat_fault = DirtyPageFlushFault(
        tier="tomcat",
        threshold_bytes=44 * MB,
        low_watermark_bytes=12 * MB,
        dirty_rate_bytes_per_sec=8 * MB,
        initial_dirty_bytes=20 * MB,
    )
    system, events, resources, sysviz = _build(
        users,
        think_ms,
        seed,
        log_dir,
        scenario_tier_configs(),
        [apache_fault, tomcat_fault],
        monitor_interval,
        with_event_monitors=True,
        with_resource_monitors=True,
        with_sysviz=with_sysviz,
    )
    result = system.run(duration)
    return ScenarioRun(
        system=system,
        result=result,
        faults=[apache_fault, tomcat_fault],
        events=events,
        resources=resources,
        sysviz=sysviz,
        log_dir=log_dir,
        duration=duration,
    )


def _single_fault_scenario(
    fault: Fault,
    seed: int,
    users: int,
    think_ms: float,
    duration: Micros,
    log_dir: Path | None,
    monitor_interval: Micros,
    with_sysviz: bool,
    tiers: dict[str, TierConfig] | None = None,
    mix_name: str = READ_WRITE_MIX,
    dispatch: str = "round-robin",
) -> ScenarioRun:
    """Run one injected fault on the calibrated small-pool testbed."""
    system, events, resources, sysviz = _build(
        users,
        think_ms,
        seed,
        log_dir,
        tiers if tiers is not None else scenario_tier_configs(),
        [fault],
        monitor_interval,
        with_event_monitors=True,
        with_resource_monitors=True,
        with_sysviz=with_sysviz,
        mix_name=mix_name,
        dispatch=dispatch,
    )
    result = system.run(duration)
    return ScenarioRun(
        system=system,
        result=result,
        faults=[fault],
        events=events,
        resources=resources,
        sysviz=sysviz,
        log_dir=log_dir,
        duration=duration,
    )


def scenario_gc(
    seed: int = 3,
    users: int = 300,
    think_ms: float = 700.0,
    duration: Micros = seconds(5),
    pause_at: Micros = seconds(2),
    pause: Micros = ms(400),
    log_dir: Path | None = None,
    monitor_interval: Micros = ms(50),
    with_sysviz: bool = False,
) -> ScenarioRun:
    """Stop-the-world JVM collection on the Tomcat tier (Section II)."""
    fault = GarbageCollectionFault(
        tier="tomcat",
        start_at=pause_at,
        period=seconds(10),
        pause=pause,
        collections=1,
    )
    return _single_fault_scenario(
        fault, seed, users, think_ms, duration, log_dir,
        monitor_interval, with_sysviz,
    )


def scenario_dvfs(
    seed: int = 3,
    users: int = 300,
    think_ms: float = 700.0,
    duration: Micros = seconds(5),
    slow_at: Micros = seconds(2),
    slow_duration: Micros = ms(600),
    speed_factor: float = 0.05,
    log_dir: Path | None = None,
    monitor_interval: Micros = ms(50),
    with_sysviz: bool = False,
) -> ScenarioRun:
    """CPU frequency-scaling slowdown on the Tomcat tier (Section II)."""
    fault = DvfsSlowdownFault(
        tier="tomcat",
        start_at=slow_at,
        period=seconds(10),
        slow_duration=slow_duration,
        speed_factor=speed_factor,
        episodes=1,
    )
    return _single_fault_scenario(
        fault, seed, users, think_ms, duration, log_dir,
        monitor_interval, with_sysviz,
    )


def scenario_vm(
    seed: int = 3,
    users: int = 300,
    think_ms: float = 700.0,
    duration: Micros = seconds(5),
    burst_at: Micros = seconds(2),
    burst: Micros = ms(400),
    log_dir: Path | None = None,
    monitor_interval: Micros = ms(50),
    with_sysviz: bool = False,
) -> ScenarioRun:
    """Co-located-VM CPU steal on the Tomcat tier (Section II)."""
    fault = VmConsolidationFault(
        tier="tomcat",
        start_at=burst_at,
        period=seconds(10),
        burst=burst,
        episodes=1,
    )
    return _single_fault_scenario(
        fault, seed, users, think_ms, duration, log_dir,
        monitor_interval, with_sysviz,
    )


def scenario_retry_storm(
    seed: int = 3,
    users: int = 300,
    think_ms: float = 700.0,
    duration: Micros = seconds(5),
    storm_at: Micros = seconds(2),
    storm_duration: Micros = ms(400),
    log_dir: Path | None = None,
    monitor_interval: Micros = ms(50),
    with_sysviz: bool = False,
) -> ScenarioRun:
    """Timeout-retry amplification saturates the app tier's CPU."""
    fault = RetryStormFault(
        tier="tomcat",
        start_at=storm_at,
        period=seconds(10),
        storm_duration=storm_duration,
        episodes=1,
    )
    return _single_fault_scenario(
        fault, seed, users, think_ms, duration, log_dir,
        monitor_interval, with_sysviz,
    )


def scenario_pool_exhaustion(
    seed: int = 3,
    users: int = 300,
    think_ms: float = 700.0,
    duration: Micros = seconds(5),
    exhaust_at: Micros = seconds(2),
    hold_duration: Micros = ms(450),
    log_dir: Path | None = None,
    monitor_interval: Micros = ms(50),
    with_sysviz: bool = False,
) -> ScenarioRun:
    """Connection-pool exhaustion on ONE of two MySQL replicas.

    The replicated-tier scenario: C-JDBC balances over two database
    backends and the fault hits only the second (``mysql#2`` → node
    ``db2``), so a correct diagnosis must blame the *replica address*,
    not merely "the database tier".
    """
    tiers = scenario_tier_configs()
    tiers["mysql"] = TierConfig(workers=16, replicas=2)
    fault = ConnectionPoolExhaustionFault(
        tier="mysql#2",
        start_at=exhaust_at,
        period=seconds(10),
        hold_duration=hold_duration,
        episodes=1,
    )
    return _single_fault_scenario(
        fault, seed, users, think_ms, duration, log_dir,
        monitor_interval, with_sysviz, tiers=tiers,
    )


def scenario_lock_convoy(
    seed: int = 3,
    users: int = 300,
    think_ms: float = 700.0,
    duration: Micros = seconds(5),
    convoy_at: Micros = seconds(2),
    convoy_duration: Micros = ms(400),
    log_dir: Path | None = None,
    monitor_interval: Micros = ms(50),
    with_sysviz: bool = False,
) -> ScenarioRun:
    """A hot-lock convoy serializes the database tier."""
    fault = LockConvoyFault(
        tier="mysql",
        start_at=convoy_at,
        period=seconds(10),
        convoy_duration=convoy_duration,
        episodes=1,
    )
    return _single_fault_scenario(
        fault, seed, users, think_ms, duration, log_dir,
        monitor_interval, with_sysviz,
    )


def scenario_cache_stampede(
    seed: int = 3,
    users: int = 300,
    think_ms: float = 700.0,
    duration: Micros = seconds(5),
    stampede_at: Micros = seconds(2),
    stampede_duration: Micros = ms(450),
    log_dir: Path | None = None,
    monitor_interval: Micros = ms(50),
    with_sysviz: bool = False,
) -> ScenarioRun:
    """A buffer-pool flush stampedes every read to the database disk.

    Runs the fan-out interaction mix over three C-JDBC replicas, so
    the catalogue also exercises fan-out/fan-in call graphs under a
    disk-level fault downstream of the join.
    """
    tiers = scenario_tier_configs()
    tiers["cjdbc"] = TierConfig(workers=24, replicas=3)
    fault = CacheStampedeFault(
        tier="mysql",
        start_at=stampede_at,
        period=seconds(10),
        stampede_duration=stampede_duration,
        episodes=1,
    )
    return _single_fault_scenario(
        fault, seed, users, think_ms, duration, log_dir,
        monitor_interval, with_sysviz, tiers=tiers,
        mix_name=FANOUT_MIX,
    )


def scenario_net_jitter(
    seed: int = 3,
    users: int = 300,
    think_ms: float = 700.0,
    duration: Micros = seconds(5),
    jitter_at: Micros = seconds(2),
    jitter_duration: Micros = ms(350),
    log_dir: Path | None = None,
    monitor_interval: Micros = ms(50),
    with_sysviz: bool = False,
) -> ScenarioRun:
    """A noisy neighbour jitters the database node's network and CPU."""
    fault = NetworkJitterFault(
        tier="mysql",
        start_at=jitter_at,
        period=seconds(10),
        jitter_duration=jitter_duration,
        episodes=1,
    )
    return _single_fault_scenario(
        fault, seed, users, think_ms, duration, log_dir,
        monitor_interval, with_sysviz,
    )


def scenario_memory_leak(
    seed: int = 3,
    users: int = 300,
    think_ms: float = 700.0,
    duration: Micros = seconds(5),
    log_dir: Path | None = None,
    monitor_interval: Micros = ms(50),
    with_sysviz: bool = False,
) -> ScenarioRun:
    """A slow leak on the middleware node ends in reclaim thrash."""
    fault = MemoryLeakFault(tier="cjdbc")
    return _single_fault_scenario(
        fault, seed, users, think_ms, duration, log_dir,
        monitor_interval, with_sysviz,
    )


def baseline_run(
    workload_users: int,
    seed: int = 7,
    think_ms: float = 7_000.0,
    duration: Micros = seconds(8),
    monitors_enabled: bool = True,
    resource_monitors: bool = False,
    log_dir: Path | None = None,
    with_sysviz: bool = False,
    monitor_interval: Micros = ms(50),
) -> ScenarioRun:
    """A healthy full-size run for accuracy/overhead evaluation.

    ``workload_users`` follows the paper's convention: the workload
    *is* the number of concurrent users (RUBBoS think time 7 s).
    """
    system, events, resources, sysviz = _build(
        workload_users,
        think_ms,
        seed,
        log_dir,
        None,  # default (production-size) tier configs
        [],
        monitor_interval,
        with_event_monitors=monitors_enabled,
        with_resource_monitors=resource_monitors,
        with_sysviz=with_sysviz,
    )
    result = system.run(duration)
    return ScenarioRun(
        system=system,
        result=result,
        faults=[],
        events=events,
        resources=resources,
        sysviz=sysviz,
        log_dir=log_dir,
        duration=duration,
    )


def load_warehouse(
    run: ScenarioRun,
    db: MScopeDB | None = None,
    workdir: Path | None = None,
    jobs: int | None = None,
) -> MScopeDB:
    """Run mScopeDataTransformer over a scenario's native logs.

    Also records the experiment and host metadata in the static
    tables.  Requires the scenario to have been run with ``log_dir``.
    ``jobs`` sets the parse/convert worker-process count (``None``
    uses every core; the warehouse contents are identical either way).
    """
    if run.log_dir is None:
        raise ValueError("scenario was run without a log directory")
    if db is None:
        db = MScopeDB()
    transformer = MScopeDataTransformer(db, workdir=workdir, jobs=jobs)
    transformer.transform_directory(run.log_dir)
    record_run_metadata(run, db)
    return db


def record_run_metadata(run: ScenarioRun, db: MScopeDB) -> None:
    """Record the run's experiment and host metadata in ``db``.

    Shared by :func:`load_warehouse` and the validation harness's
    :class:`~repro.validation.runner.ScenarioRunner`, whose modes build
    their warehouses through different transformer paths.
    """
    db.set_experiment_meta("seed", str(run.system.config.seed))
    db.set_experiment_meta("workload_users", str(run.system.config.workload.users))
    db.set_experiment_meta("duration_us", str(run.duration))
    db.set_experiment_meta("epoch_us", str(run.epoch_us))
    for tier, server in run.system.servers.items():
        node = server.node
        db.register_host(
            node.name, tier, node.spec.cores, node.spec.disk_bandwidth_bytes_per_sec
        )
