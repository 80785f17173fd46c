#!/usr/bin/env python3
"""logmult benchmark: one workload, one closed-loop client, one process.

Usage (from the repository root):

    python3 perfbench/run.py --workload growth --seed 20240801 --seconds 25 --trace 0

The library is imported from ``src/`` of the checkout; nothing is installed.
Set-up (importing ``logmult`` and filling the per-grid caches the units use)
is repeated ``SETUPS`` times and its median reported as ``setup_s``.  Units
then run back to back while the next one is predicted, from the median so
far, to end within ``--seconds``; at least one runs.  Every unit's output is
checked; a failed check makes the run exit 1.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every unit
twice, untraced and then traced, and reports the per-layer metrics of the
traced units (per unit) plus ``trace.overhead_frac``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it repeat every metric with its
unit and sample count, and the machine facts.  Full results and the recorded
spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# a plain single-threaded baseline: pin BLAS/OpenMP pools before numpy loads
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Sequence, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUPS = 5
TAIL_BEYOND = 10


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("growth", "separation", "desk"))
    parser.add_argument("--seed", type=int, default=20240801)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library(layers: Sequence[str]) -> Dict[str, object]:
    """Import ``logmult`` afresh (dropping any earlier import) and return its modules."""
    for name in [m for m in sys.modules if m == "logmult" or m.startswith("logmult.")]:
        del sys.modules[name]
    lib = {layer: importlib.import_module(f"logmult.{layer}") for layer in layers}
    origin = Path(lib["field"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"logmult was imported from {origin}, not from {SRC}")
    return lib


def last_level_cache_bytes() -> int:
    """Size of the highest cache level of CPU 0 as sysfs reports it (0 if unknown)."""
    best = (0, 0)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(size[-1:], 1)
        best = max(best, (level, int(size.rstrip("KMG")) * scale))
    return best[1]


def machine_facts(array_bytes: int) -> Dict[str, object]:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    llc = last_level_cache_bytes()
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "llc_bytes": llc,
        "largest_array_bytes": array_bytes,
        "array_over_llc": array_bytes / llc if llc else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def timed_unit(workload, state, u: int) -> Tuple[float, List[str]]:
    """Wall seconds of unit ``u`` and its failed checks."""
    start = time.perf_counter()
    try:
        failures = workload.unit(state, u)
    except Exception as exc:  # a unit that raises is a failed unit; keep measuring
        traceback.print_exc(file=sys.stderr)
        failures = [f"unit {u} raised {type(exc).__name__}: {exc}"]
    return time.perf_counter() - start, failures


def tail(times: Sequence[float]) -> Optional[Tuple[int, float]]:
    """Highest percentile with at least ``TAIL_BEYOND`` units beyond it, above the median."""
    n = len(times)
    pct = math.floor(100.0 * (n - TAIL_BEYOND) / n) if n else 0
    if pct <= 50:
        return None
    return pct, sorted(times)[math.ceil(pct / 100.0 * n) - 1]


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "logmult" / "__init__.py").is_file():
        print(f"error: no logmult sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    from tracing import LAYER_METRICS, LAYERS, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"scratch-{os.getpid()}"

    setup_times: List[float] = []
    state = None
    for _ in range(SETUPS):
        if state is not None:
            workload.teardown(state)
            state = lib = None
            gc.collect()  # drop the previous import's caches before the next set-up
        start = time.perf_counter()
        lib = import_library(LAYERS)
        state = workload.setup(lib, args.seed, scratch)
        setup_times.append(time.perf_counter() - start)

    plain: List[float] = []
    traced: List[float] = []
    failed_units: List[Tuple[int, List[str]]] = []
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    u = 0
    try:
        while True:
            dt, failures = timed_unit(workload, state, u)
            plain.append(dt)
            if failures:
                failed_units.append((u, failures))
            if tracer is not None:
                tracer.install(lib, numpy)
                try:
                    dt, failures = timed_unit(workload, state, u)
                finally:
                    tracer.restore()
                traced.append(dt)
                if failures:
                    failed_units.append((u, failures))
            u += 1
            per_unit = statistics.median(plain) + (statistics.median(traced) if traced else 0.0)
            if time.perf_counter() - start + per_unit > args.seconds:
                break
    finally:
        workload.teardown(state)
        if scratch.exists():
            scratch.rmdir()

    attempted = len(plain) + len(traced)
    failed = len(failed_units)
    for unit_index, failures in failed_units:
        for failure in failures:
            print(f"check failed in unit {unit_index}: {failure}", file=sys.stderr)

    if tracer is None:
        metrics = {
            "unit_s.p50": (statistics.median(plain), "s", f"{len(plain)} units"),
            "setup_s": (statistics.median(setup_times), "s", f"{len(setup_times)} set-ups"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MiB",
                "1 process",
            ),
        }
    else:
        overhead = statistics.median(traced) / statistics.median(plain) - 1.0
        values = tracer.layer_metrics(len(traced), overhead)
        samples = f"mean of {len(traced)} traced units"
        metrics = {name: (values[name], unit, samples) for name, unit in LAYER_METRICS}
        metrics["trace.overhead_frac"] = (overhead, "frac", f"{len(traced)} traced vs {len(plain)} untraced units")

    facts = machine_facts(workload.array_bytes)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    llc = facts["llc_bytes"]
    print(
        f"machine: nproc={facts['nproc']} cpu={facts['cpu_model']!r} "
        f"llc={llc / 2**20:.1f} MiB largest_array={workload.array_bytes / 2**20:.2f} MiB "
        f"python={facts['python']} numpy={facts['numpy']} threads=1"
    )
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} units={len(plain)} closed loop, 1 client")
    for name, (value, unit, samples) in metrics.items():
        print(f"{name} = {value!r} {unit} ({samples})")
    print(f"check_fail_frac = {failed}/{attempted} = {failed / attempted!r}")
    if tracer is None:
        found = tail(plain)
        if found is None:
            print(f"unit_s.tail = n/a ({len(plain)} units; needs more than {2 * TAIL_BEYOND})")
        else:
            print(f"unit_s.tail = {found[1]!r} s (p{found[0]}, {len(plain)} units)")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "machine": facts,
        "setup_s": setup_times,
        "unit_s": plain,
        "traced_unit_s": traced,
        "failures": failed_units,
        "metrics": {name: {"value": v, "unit": unit, "samples": s} for name, (v, unit, s) in metrics.items()},
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.dump(str(OUT / f"spans-{tag}.json"))

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
