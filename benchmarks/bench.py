"""inarlab benchmark: one workload per run, end to end or traced.

    python3 benchmarks/bench.py --workload campaign --seed 20170825 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``: ``campaign``, ``exact-scan`` and
``simulate-csv``.  With ``--trace 0`` the run reports the end-to-end
metrics: ``setup_s`` (median wall time of fresh processes that import
inarlab and build the inputs), ``wall_s`` and ``cpu_s`` (medians per
iteration), ``wall_s_tail`` and ``peak_rss_mb``.  With ``--trace 1`` it
runs a warm-up iteration, then traced and untraced iterations in turn, and
reports the per-layer metrics of ``layers.py`` plus the tracing overhead
and span coverage.

Iterations repeat until another would end past ``--seconds`` (at least two,
so repeats can be compared byte for byte).  Every output is checked; the
summary lines give the environment, sample counts and ``error_rate`` =
failed / attempted.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The run exits non-zero without a result when the checkout holds no inarlab
sources.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

PROCESS_START = time.perf_counter()
HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 20170825
SETUP_REPEATS = 3
MIN_ITERATIONS = 2
# Start no iteration expected to end later than this after process start;
# a run must exit within 180 s.
DEADLINE_S = 150.0
END_TO_END = {"setup_s": "s", "wall_s": "s", "wall_s_tail": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
BLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def blas_threads() -> dict[str, int]:
    """Thread count in effect for every OpenBLAS library loaded in this process."""
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in BLAS_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[os.path.basename(path)] = getter()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    model = ""
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "blas_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least ten samples above it,
    as (value, percentile); the maximum when there are fewer than eleven."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_times(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=60,
            check=False,
        )
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr.decode(errors="replace"))
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        times.append(elapsed)
    return times


class Tally:
    """Operations attempted and failed over a run, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: dict = {}

    def add(self, verdict) -> None:
        self.attempted += verdict.attempted
        self.failed += verdict.failed
        self.problems += verdict.problems
        self.notes.update(verdict.notes)


def one_iteration(workload, inputs, baseline, patch=None):
    """Time one iteration (under ``patch`` when given), then check its output."""
    with patch if patch is not None else contextlib.nullcontext():
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            output = workload.iterate(inputs)
        except Exception:  # a raising iteration is a failed operation
            traceback.print_exc()
            output = None
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu0
    return wall, cpu, workload.check(inputs, output, baseline)


def past_deadline(last_wall: float) -> bool:
    """Whether another iteration as long as the last would end past the deadline."""
    return time.perf_counter() - PROCESS_START + last_wall > DEADLINE_S


def should_stop(walls: list[float], measure_start: float, seconds: float) -> bool:
    """Stop at the deadline, or once ``MIN_ITERATIONS`` are in and another
    iteration as long as the last would end past the measuring window."""
    if past_deadline(walls[-1]):
        return True
    elapsed = time.perf_counter() - measure_start
    return len(walls) >= MIN_ITERATIONS and elapsed + walls[-1] > seconds


def end_to_end(workload, seed: int, seconds: float) -> tuple[Tally, dict, list[str]]:
    setup = setup_times(workload.name, seed)
    inputs = workload.inputs(seed)
    tally = Tally()
    walls: list[float] = []
    cpus: list[float] = []
    baseline = None
    start = time.perf_counter()
    while True:
        wall, cpu, verdict = one_iteration(workload, inputs, baseline)
        walls.append(wall)
        cpus.append(cpu)
        tally.add(verdict)
        if baseline is None:
            baseline = verdict.digest
        if should_stop(walls, start, seconds):
            break
    tail_value, tail_pct = tail(walls)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "wall_s_tail": tail_value,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    n = len(walls)
    lines = [
        f"setup_s      {values['setup_s']:10.4f} s   median of {len(setup)} fresh processes",
        f"wall_s       {values['wall_s']:10.4f} s   median of {n} iterations: "
        + " ".join(f"{w:.4f}" for w in walls),
        f"wall_s_tail  {tail_value:10.4f} s   p{tail_pct:.0f} of {n} iterations",
        f"cpu_s        {values['cpu_s']:10.4f} s   median of {n} iterations",
        f"peak_rss_mb  {values['peak_rss_mb']:10.1f} MB  this process",
    ]
    return tally, metrics, lines


def traced(workload, seed: int, seconds: float) -> tuple[Tally, dict, list[str]]:
    import layers
    import workloads
    from tracing import Patch, Tracer

    inputs = workload.inputs(seed)
    tally = Tally()
    # The first iteration warms the process and fixes the bytes that every
    # later one, traced or not, must reproduce.  Traced and untraced
    # iterations then alternate, so their difference is the tracing overhead.
    warm_wall, _, verdict = one_iteration(workload, inputs, None)
    tally.add(verdict)
    baseline = verdict.digest
    tracers: list[Tracer] = []
    walls: list[float] = []
    untraced_walls: list[float] = []
    start = time.perf_counter()
    while True:
        tracer = Tracer()
        patch = Patch(tracer, layers.TARGETS, layers.patched_modules([workloads]))
        wall, _, verdict = one_iteration(workload, inputs, baseline, patch)
        tracers.append(tracer)
        walls.append(wall)
        tally.add(verdict)
        if should_stop(walls, start, seconds):
            break
        wall, _, verdict = one_iteration(workload, inputs, baseline)
        untraced_walls.append(wall)
        tally.add(verdict)
        if past_deadline(wall):
            break
    untraced_wall = statistics.median(untraced_walls or [warm_wall])
    for other in tracers[1:]:
        tally.attempted += 1
        if layers.repeatable_counts(other) != layers.repeatable_counts(tracers[0]):
            tally.failed += 1
            tally.problems.append("work counters differ between traced iterations")
    workloads.OUT_DIR.mkdir(exist_ok=True)
    spans_path = workloads.OUT_DIR / f"spans-{workload.name}-{seed}.json"
    spans_path.write_text(json.dumps(tracers[0].to_json()), encoding="utf-8")
    values = layers.layer_metrics(tracers, walls, untraced_wall)
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    metrics = {name: (value, units[name]) for name, value in values.items()}
    lines = [
        f"traced walls {' '.join(f'{w:.4f}' for w in walls)} s; untraced walls "
        f"{' '.join(f'{w:.4f}' for w in untraced_walls)} s; spans written to {spans_path}"
    ] + [f"{name:58s} {value:16.6g} {units[name]}" for name, value in values.items()]
    return tally, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    try:
        import workloads
    except ImportError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    run = traced if args.trace else end_to_end
    tally, metrics, lines = run(workload, args.seed, args.seconds)
    error_rate = tally.failed / tally.attempted
    print("environment " + json.dumps(environment(), sort_keys=True))
    notes = "".join(f", {k} {v}" for k, v in sorted(tally.notes.items()))
    print(
        f"{workload.name} seed {args.seed} trace {args.trace}: attempted {tally.attempted}, "
        f"failed {tally.failed}, error_rate {error_rate:.6g} (failed/attempted){notes}"
    )
    for line in lines:
        print(line)
    for problem in tally.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
