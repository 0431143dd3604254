"""End-to-end benchmark of the milliScope pipeline.

Run from the repository root::

    python3 e2ebench/run.py --workload ingest_cache_stampede --seed 7 \
        --seconds 35 --trace 0

Set-up runs three times and its median is reported as ``setup_s``;
then passes repeat until ``--seconds`` have elapsed.  With
``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric of BENCHMARK.json; with ``--trace 1`` passes
alternate untraced and traced and the object holds every per-layer
metric.  End-to-end timings are taken on the process's CPU clock and
scaled to a nominal host speed, measured by a fixed reference task
between passes (see ``e2ebench.measure.HostSpeed``).  A human-readable
summary goes to standard error, and the traced run's spans to
``.bench_work/spans-<workload>-seed<seed>.json``.
Every pass checks the program's outputs; a pass failing any check
counts as failed.  See e2ebench/README.md for the workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3

def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    from repro.telemetry.spans import TelemetryCollector

    from e2ebench.measure import HOST, Tracer, cpu_clock, end_to_end, per_layer
    from e2ebench.workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    if workload_name not in WORKLOADS:
        print(f"unknown workload {workload_name!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / workload_name
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer(trace)
    workload = WORKLOADS[workload_name](workdir, seed, tracer)

    setups: list[dict] = []
    setup_s: list[float] = []
    for repeat in range(SETUP_REPEATS):
        tracer.pass_id = -1 - repeat
        telemetry = TelemetryCollector() if trace else None
        HOST.sample()
        start = cpu_clock()
        sample = workload.setup(telemetry)
        setup_s.append(cpu_clock() - start)
        if trace:
            sample.update(tracer.self_time_metrics(telemetry.spans))
        setups.append(sample)

    samples: list[dict] = []
    attempted = failed = 0

    def attempt(leg, traced: bool) -> None:
        """Run one checked operation and count it."""
        nonlocal attempted, failed
        attempted += 1
        tracer.pass_id = attempted
        tracer.enabled = traced
        telemetry = TelemetryCollector() if traced else None
        HOST.sample()
        # Start every pass from a collected heap, so one pass's garbage
        # is not another's collection time.
        gc.collect()
        try:
            with tracer.span("pass"):
                sample, problems = leg(telemetry)
        except Exception:
            failed += 1
            traceback.print_exc()
            return
        if problems:
            failed += 1
            print(f"pass {attempted} failed: {'; '.join(problems)}",
                  file=sys.stderr)
        if traced:
            sample.update(tracer.self_time_metrics(telemetry.spans))
        sample["traced"] = traced
        samples.append(sample)
        if "pipeline_s" in sample:
            print(
                f"pass {attempted}{' traced' if traced else ''}: "
                f"pipeline_s {sample['pipeline_s']:.4f} freshness_ms "
                + " ".join(f"{v:.1f}" for v in sample["freshness_ms"]),
                file=sys.stderr,
            )

    start = time.perf_counter()
    while True:
        # Under --trace 1 passes alternate: untraced ones are the base
        # of telemetry.overhead_frac.
        attempt(workload.run_pass, trace and attempted % 2 == 1)
        if time.perf_counter() - start >= seconds and (
            not trace or attempted >= 2
        ):
            break
    if trace and workload.serve_leg is not None:
        attempt(workload.serve_leg, True)
    if not any("pipeline_s" in s for s in samples):
        print("no pass completed", file=sys.stderr)
        return 1

    if trace:
        metrics = per_layer(samples, setups, [m["name"] for m in declared])
        tracer.write(ROOT / ".bench_work" / f"spans-{workload_name}-seed{seed}.json")
    else:
        metrics = end_to_end(
            [s for s in samples if "pipeline_s" in s], setup_s, HOST.scale()
        )
    units = {m["name"]: m["unit"] for m in declared}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1
    for name in sorted(units):
        print(f"{name:32s} {metrics[name]:14.6g} {units[name]}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": units[name]}
            for name in units
        },
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    # Keep SQLite's and Python's temporary files inside the checkout;
    # SQLite reads these once, when the module first loads.
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    os.environ["SQLITE_TMPDIR"] = os.environ["TMPDIR"] = str(ROOT / ".bench_work")
    sys.path[:0] = [str(SRC), str(ROOT)]
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
