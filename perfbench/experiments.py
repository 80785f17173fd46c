#!/usr/bin/env python3
"""Full criterion-10 and criterion-15 experiments, traced, and the reference values.

The timed workloads run one ladder rung (growth) or one lambda (separation)
per unit; this script runs the whole experiments once, prints the fitted
exponents and slopes with the traced FFT and estimator counts of each half,
and checks them against ``reference.json``.  ``--record`` writes
``reference.json`` instead; it was run once at commit 1c81a7a.

    python3 perfbench/experiments.py                       # check, about 4 minutes
    python3 perfbench/experiments.py --only growth --bank-seed 12345
    python3 perfbench/experiments.py --record
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

import run  # pins the thread pools before numpy loads

sys.path.insert(0, str(run.SRC))

import numpy  # noqa: E402

from tracing import LAYERS, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    LADDER,
    MAXIMAL,
    REFERENCE_PATH,
    SQUARE,
    Desk,
    REL_TOL,
)


def traced(lib, fn):
    """Run ``fn()`` under a fresh tracer; return its result, seconds and layer counts."""
    tracer = Tracer()
    tracer.install(lib, numpy)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        tracer.restore()
    return result, time.perf_counter() - start, tracer.layer_metrics(1, 0.0)


def growth(lib, seed: int) -> dict:
    field, sl = lib["field"], lib["shifted_lab"]
    grid = field.GridSpec(1, 2**20, 2.0**16)
    bank = sl.GrowthBankSpec(seed=seed, n_random=2, random_band=(0.5, 1.0), adversarial="bump")
    out = {"seed": seed}
    for kind, key in ((MAXIMAL, "maximal"), (SQUARE, "square")):
        experiment = sl.GrowthExperiment(
            kind=kind, p=2.0, shifts=LADDER, grid=grid, scale_range=(-1, 14), bank=bank
        )
        report, seconds, m = traced(lib, lambda: sl.run_growth(experiment))
        ratios = [row["ratio"] for row in report.rows]
        out[key] = ratios
        if kind == MAXIMAL:
            out["maximal_fit"] = report.summary["fitted_exponent"]
        print(
            f"growth {kind}: {seconds:.1f}s fit {report.summary['fitted_exponent']!r} "
            f"max/base {max(ratios) / ratios[0]!r} field.fft.calls {m['field.fft.calls']:.0f} "
            f"estimator_calls {m['shifted_lab.proxy.estimator_calls']:.0f} "
            f"pieces zero/plateau/partial {m['lp_ops.pieces.zero']:.0f}/"
            f"{m['lp_ops.pieces.plateau']:.0f}/{m['lp_ops.pieces.partial']:.0f}"
        )
    bump = [sl.modulated_bump(grid, bank.bump_center, bank.bump_radius)]
    pair = sl.make_lp_pair((-1, 14))
    out["bump_maximal"] = [
        sl.operator_norm_proxy(MAXIMAL, 2.0, numpy.array([y]), bump, pair) for y in LADDER
    ]
    fit_ok = 0.35 <= out["maximal_fit"] <= 0.65
    bounded = max(out["square"]) <= 3.0 * out["square"][0]
    print(f"criterion 10 at bank seed {seed}: {'PASS' if fit_ok and bounded else 'FAIL'}")
    return out


def separation(lib) -> dict:
    cx, exponents = lib["counterexample"], lib["exponents"]
    quarter = Fraction(1, 4)
    sharp = float(exponents.sharp_lambda(exponents.PTuple((quarter, quarter))))
    out = {}
    for half, lam in (("sharp", None), ("lowered", sharp - 0.25)):
        cfgs = [cx.separation_config(n_packets=n, lam=lam) for n in (1, 2, 3)]
        fit, seconds, m = traced(lib, lambda: cx.ratio_growth_fit(cfgs))
        out[half] = {"slope": fit.slope, "ratios": [row["ratio"] for row in fit.rows]}
        print(
            f"separation {half}: {seconds:.1f}s slope {fit.slope!r} "
            f"field.fft.calls {m['field.fft.calls']:.0f} lp_ops.fft.calls {m['lp_ops.fft.calls']:.0f} "
            f"runs_per_fit {m['counterexample.runs_per_fit']:.0f}"
        )
    ok = abs(out["sharp"]["slope"]) <= 0.3 and -0.05 <= out["lowered"]["slope"] <= 0.55
    print(f"criterion 15: {'PASS' if ok else 'FAIL'}")
    return out


def desk(lib, scratch) -> dict:
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        values = Desk.observe(lib, DEFAULT_SEED, scratch)
    finally:
        for path in scratch.iterdir():
            path.unlink()
        scratch.rmdir()
    print(f"desk: peetre {values['peetre']} d_lambda {values['d_lambda']}")
    return {
        "seed": DEFAULT_SEED,
        "peetre": values["peetre"],
        "d_lambda": values["d_lambda"],
        "transpose_d0": values["transpose_d0"],
    }


def compare(got, want, path: str = "") -> list:
    """Paths at which two nested records differ by more than ``REL_TOL`` relative."""
    if isinstance(want, dict):
        return [p for k in want if k in got for p in compare(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list):
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in compare(g, w, f"{path}[{i}]")]
    if isinstance(want, float):
        return [] if abs(got - want) <= REL_TOL * abs(want) else [f"{path}: {got!r} vs {want!r}"]
    return [] if got == want else [f"{path}: {got!r} vs {want!r}"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", choices=("growth", "separation", "desk"))
    parser.add_argument("--bank-seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    lib = run.import_library(LAYERS)
    results = {}
    if args.only in (None, "growth"):
        results["growth"] = growth(lib, args.bank_seed)
    if args.only in (None, "separation"):
        results["separation"] = separation(lib)
    if args.only in (None, "desk"):
        results["desk"] = desk(lib, run.OUT / "experiments-scratch")
    if args.record:
        if args.only is not None or args.bank_seed != DEFAULT_SEED:
            print("error: --record needs every experiment at the default seed", file=sys.stderr)
            return 2
        REFERENCE_PATH.write_text(json.dumps(results, indent=1) + "\n")
        print(f"wrote {REFERENCE_PATH}")
        return 0
    reference = json.loads(REFERENCE_PATH.read_text())
    if "growth" in results and results["growth"]["seed"] != reference["growth"]["seed"]:
        # a different bank changes only the random members; the bump ratios stay put
        results["growth"] = {"bump_maximal": results["growth"]["bump_maximal"]}
    mismatches = compare(results, reference)
    for line in mismatches:
        print(f"mismatch {line}")
    print("reference: " + ("MATCH" if not mismatches else f"{len(mismatches)} MISMATCHES"))
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
