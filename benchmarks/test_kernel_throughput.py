"""Simulator throughput benchmarks.

Not paper results — these measure the substrate itself: raw event
throughput of the simulator engine and end-to-end simulated requests
per wall-second of the full four-tier system.  They guard against
performance regressions that would make the figure sweeps
impractically slow.  Whole-pipeline numbers (simulate, transform,
diagnose, live refresh) come from ``python3 e2ebench/run.py``.

The full-system check pins the *exact* trace count at its seed: the
simulation is deterministic, so any drift is a behavior change (an
RNG stream reordered, a tie broken differently), never noise.  A
floor like ``completed > 300`` would keep passing through exactly the
bugs determinism is supposed to catch.

Measured numbers land in the shared bench-record artifact
(``MSCOPE_BENCH_JSON``, schema ``mscope-bench-record/v1``).
"""

import time

from record import record

from repro.common.timebase import ms, seconds
from repro.ntier import NTierSystem, SystemConfig
from repro.rubbos import WorkloadSpec
from repro.sim import Engine

#: Exact end-to-end trace count at seed 3, 150 users, 2 s — pinned
#: from a reference run.
PINNED_TRACES = 390

_PING_ROUNDS = 50_000
_PING_EVENTS = 2 * _PING_ROUNDS


def _pingpong_engine():
    engine = Engine()

    def ticker():
        for _ in range(_PING_ROUNDS):
            yield engine.timeout(10)

    engine.process(ticker())
    return engine


def _best_rate(run, events, repeats=3):
    """Best observed events/sec over ``repeats`` fresh runs."""
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        elapsed = time.perf_counter() - start
        best = max(best, events / elapsed)
    return best


def _scalar_rate(repeats=3):
    return _best_rate(
        lambda: _pingpong_engine().run(), _PING_EVENTS, repeats
    )


def test_kernel_event_throughput(benchmark):
    """Engine: a ping-pong of timeouts (two events per round)."""

    def run_kernel():
        engine = _pingpong_engine()
        engine.run()
        return engine.now

    final = benchmark(run_kernel)
    assert final == _PING_ROUNDS * 10
    record("scalar_pingpong", events_per_sec=round(_scalar_rate()))


def test_run_loop_not_slower_than_step_loop():
    """The inlined ``run()`` pop loop must hold its lead over step().

    ``Engine.run`` bypasses ``step()``'s method call and double head
    indexing per event; this is the micro-optimization the __slots__ /
    hoisted-allocation work bought.  Equal-within-noise is acceptable,
    slower is a regression.
    """

    def step_loop():
        engine = _pingpong_engine()
        while engine._agenda:
            engine.step()

    # Interleave the measurements: frequency scaling and cache warm-up
    # drift over a bench run, and alternating keeps that drift from
    # landing entirely on one side of the ratio.
    run_rate = step_rate = 0.0
    for _ in range(6):
        run_rate = max(run_rate, _scalar_rate(repeats=1))
        step_rate = max(step_rate, _best_rate(step_loop, _PING_EVENTS, 1))
    ratio = run_rate / step_rate
    record(
        "run_vs_step",
        run_events_per_sec=round(run_rate),
        step_events_per_sec=round(step_rate),
        ratio=round(ratio, 3),
    )
    assert ratio >= 0.9, (
        f"run() fast path regressed below step() rate: {ratio:.2f}x"
    )


def _full_system():
    config = SystemConfig(
        workload=WorkloadSpec(
            users=150, think_time_us=ms(700), ramp_up_us=ms(200)
        ),
        seed=3,
    )
    return NTierSystem(config).run(seconds(2))


def test_full_system_simulation_rate(benchmark):
    """Whole testbed: simulated requests per benchmark round."""
    completed = benchmark.pedantic(
        lambda: len(_full_system().traces), rounds=3, iterations=1
    )
    assert completed == PINNED_TRACES
    record("full_system_scalar", traces=completed, seed=3, users=150)
