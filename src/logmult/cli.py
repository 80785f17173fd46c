"""Reproducible experiment runner: one subcommand per verifiable claim.

Configuration comes from an INI-style file (key/value under sections) plus a
command-line flag per leaf key (``--section.key value``); every run writes a
structured text report embedding its manifest, and tabular sweeps also land in
CSV.  A single 64-bit seed drives all randomness through a counter-based
generator, so reruns with an identical manifest are byte-identical.

Exit codes: 0 = all checks pass, 1 = a check failed, 2 = config/validation error.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import counterexample as cx
from .calibration import make_lp_pair
from .exponents import (
    INF_TOKENS,
    InterpolationDiagnosis,
    PTuple,
    counterexample_slots,
    interpolation_plan,
    lambda_prime,
    lambda_st,
    lambda_st_dprime,
    lambda_st_prime,
    select_split,
    sharp_lambda,
)
from .field import GridSpec, SampledField, Shells
from .lp_ops import DyadicCubeSet, fefferman_stein_ratio, peetre_cube_ratio
from .reporting import ExperimentReport, RunManifest, render_report, write_csv
from .shifted_lab import (
    GrowthBankSpec,
    GrowthExperiment,
    change_of_variables_check,
    random_band_limited,
    run_growth,
)

PASS, FAIL, CONFIG_ERROR = 0, 1, 2


# ---------------------------------------------------------------------------
# configuration plumbing
# ---------------------------------------------------------------------------

DEFAULTS: Dict[str, Dict[str, Dict[str, str]]] = {
    "partition": {
        "grid": {"dimension": "1", "samples": "4096", "period": "64"},
        "partition": {"scale_min": "-3", "scale_max": "4", "tolerance": "1e-12"},
    },
    "growth": {
        "grid": {"dimension": "1", "samples": "1048576", "period": "65536"},
        "growth": {
            "kind": "shifted-maximal",
            "p": "2",
            "ladder": "16 64 256 1024 4096 16384",
            "scale_min": "-1",
            "scale_max": "14",
            "seed": "20240801",
            "n_random": "2",
            "random_band": "0.5 1.0",
            "adversarial": "bump",
            "criterion": "fit",
            "tolerance": "0.3",
            "bound_factor": "3.0",
        },
    },
    "changevars": {
        "grid": {"dimension": "1", "samples": "4096", "period": "16"},
        "changevars": {
            "configs": "100",
            "m_values": "2 3 4",
            "scale_min": "0",
            "scale_max": "2",
            "band_max": "3.0",
            "seed": "20240801",
            "shift_scale": "4.0",
            "tolerance_l2": "1e-10",
            "tolerance_l3": "1e-9",
        },
    },
    "peetre": {
        "grid": {"dimension": "1", "samples": "256", "period": "16"},
        "peetre": {
            "sigmas": "2 4",
            "cube_scale": "1",
            "band_factor": "0.5",
            "bank_size": "4",
            "bank_scale_min": "0",
            "seed": "20240801",
            "p": "2",
            "q": "2",
            "stability": "0.10",
        },
    },
    "counterexample": {
        "counterexample": {
            "mode": "identity",
            "n": "3",
            "packets": "2 4 6",
            "samples": "262144",
            "period": "256",
            "offset": "2",
            "spacing": "4",
            "identity_tolerance": "1e-8",
            "orthogonality_tolerance": "1e-14",
            "lam": "sharp",
        },
    },
}


def load_config_file(path: Optional[str]) -> Dict[str, Dict[str, str]]:
    if path is None:
        return {}
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ValueError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ValueError(f"cannot read config file {path}")
    return {section: dict(parser.items(section)) for section in parser.sections()}


def resolve_config(
    command: str, file_config: Dict[str, Dict[str, str]], overrides: Sequence[Tuple[str, str, str]]
) -> Dict[str, Dict[str, str]]:
    config = {section: dict(keys) for section, keys in DEFAULTS[command].items()}
    for section, keys in file_config.items():
        if section not in config:
            config[section] = {}
        for key, value in keys.items():
            config[section][key] = value
    for section, key, value in overrides:
        config.setdefault(section, {})[key] = value
    return config


def _numbers(section: Dict[str, str], key: str, kind: type) -> list:
    text = section[key]
    values = [kind(tok) for tok in text.replace(",", " ").split()]
    if not values:
        raise ValueError(f"{key} needs at least one number, got {text!r}")
    return values


def _floats(section: Dict[str, str], key: str) -> List[float]:
    return _numbers(section, key, float)


def _counts(section: Dict[str, str], key: str) -> List[int]:
    """A list of counts, each at least 1."""
    values = _numbers(section, key, int)
    if min(values) < 1:
        raise ValueError(f"{key} entries must be at least 1, got {section[key]!r}")
    return values


def _p_value(text: str) -> float:
    return math.inf if text.strip().lower() in INF_TOKENS else float(text)


def _tolerance(section: Dict[str, str], key: str) -> float:
    value = float(section[key])
    if not 0.0 <= value < math.inf:  # NaN fails too
        raise ValueError(f"{key} must be finite and nonnegative, got {section[key]!r}")
    return value


def _grid_from(config: Dict[str, Dict[str, str]]) -> GridSpec:
    g = config["grid"]
    return GridSpec(int(g["dimension"]), int(g["samples"]), float(g["period"]))


def _emit(
    report: ExperimentReport,
    outdir: Path,
    csv_rows: Optional[Sequence[dict]] = None,
) -> List[str]:
    outdir.mkdir(parents=True, exist_ok=True)
    paths = []
    report_path = outdir / f"{report.name}.report.txt"
    if csv_rows:
        csv_path = outdir / f"{report.name}.csv"
        write_csv(csv_path, csv_rows)
        paths.append(str(csv_path))
    if report.manifest is not None:
        # names only: the manifest must not depend on where the run landed
        report.manifest.output_paths = tuple(
            Path(p).name for p in paths + [str(report_path)]
        )
    report_path.write_text(render_report(report))
    paths.append(str(report_path))
    return paths


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_partition(config: Dict[str, Dict[str, str]]) -> ExperimentReport:
    """Dyadic partition-of-unity defect and profile support certificates."""
    grid = _grid_from(config)
    section = config["partition"]
    scale_min, scale_max = int(section["scale_min"]), int(section["scale_max"])
    tolerance = _tolerance(section, "tolerance")
    pair = make_lp_pair((scale_min, scale_max))
    radii = grid.frequency_radii().ravel()
    lo, hi = pair.covered_band
    covered = (radii >= lo) & (radii <= hi)
    defect = float(np.max(np.abs(pair.partition_sum(radii[covered]) - 1.0))) if covered.any() else float("nan")

    sweep = np.linspace(0.0, 4.0, 4001)
    psi_vals = pair.psi_hat(sweep)
    support_ok = bool(
        np.all(psi_vals[(sweep < 0.5) | (sweep > 2.0)] == 0.0)
        and np.all((psi_vals >= 0.0) & (psi_vals <= 1.0))
    )
    # octave overlap: count active dilates per radius in the covered band
    probe = np.linspace(lo, hi, 4001)
    counts = np.zeros_like(probe)
    for scale in pair.scales:
        counts += (pair.psi_hat(probe * 2.0**-scale) > 0).astype(float)
    overlap_ok = bool(np.max(counts) <= 2)

    uncovered = []
    if grid.nyquist > hi * 2.0:
        uncovered.append(f"octaves above 2**{scale_max} up to Nyquist {grid.nyquist} are uncovered")
    if lo > 1.0 / grid.period:
        uncovered.append(f"octaves below 2**{scale_min} down to {1.0 / grid.period} are uncovered")

    passed = defect < tolerance and support_ok and overlap_ok
    return ExperimentReport(
        name="partition",
        params={
            "scale_min": scale_min,
            "scale_max": scale_max,
            "tolerance": tolerance,
            "profiles": pair.to_record(),
        },
        rows=[
            {"check": "partition_defect", "value": defect, "pass": defect < tolerance},
            {"check": "psi_support_and_range", "value": support_ok, "pass": support_ok},
            {"check": "octave_overlap_at_most_two", "value": overlap_ok, "pass": overlap_ok},
        ],
        summary={"max_partition_defect": defect},
        passed=passed,
        notes=tuple(uncovered),
    )


def cmd_growth(config: Dict[str, Dict[str, str]]) -> ExperimentReport:
    """Shifted-operator norm growth along a shift ladder, fitted and judged."""
    grid = _grid_from(config)
    section = config["growth"]
    p = _p_value(section["p"])
    band = _floats(section, "random_band")
    if len(band) != 2:
        raise ValueError(f"random_band needs exactly two values (inner, outer), got {band}")
    criterion = section["criterion"]
    if criterion not in ("fit", "bounded", "equality"):
        raise ValueError(f"unknown growth criterion {criterion!r}; expected fit, bounded or equality")
    bound_factor = _tolerance(section, "bound_factor")
    experiment = GrowthExperiment(
        kind=section["kind"],
        p=p,
        shifts=tuple(_floats(section, "ladder")),
        grid=grid,
        scale_range=(int(section["scale_min"]), int(section["scale_max"])),
        bank=GrowthBankSpec(
            seed=int(section["seed"]),
            n_random=int(section["n_random"]),
            random_band=tuple(band),
            adversarial=section["adversarial"],
        ),
        tolerance=_tolerance(section, "tolerance"),
        allow_wrapped_positions=criterion == "equality",
    )
    report = run_growth(experiment)
    ratios = [row["ratio"] for row in report.rows]
    if criterion == "bounded":
        bound = bound_factor * ratios[0]
        report.summary["max_ratio"] = max(ratios)
        report.summary["bound"] = bound
        report.passed = max(ratios) <= bound
    elif criterion == "equality":
        worst = max(abs(r - 1.0) for r in ratios)
        report.summary["max_equality_defect"] = worst
        report.passed = worst <= experiment.tolerance
    if criterion != "fit":
        report.notes = ()  # the fit's vacuous-verdict note speaks of a verdict not taken
    report.params["criterion"] = criterion
    return report


def cmd_changevars(config: Dict[str, Dict[str, str]]) -> ExperimentReport:
    """Randomized shift-removal identity checks in L2(l2) and L3(l3)."""
    grid = _grid_from(config)
    section = config["changevars"]
    n_configs = int(section["configs"])
    if n_configs < 1:
        raise ValueError(f"configs must be at least 1, got {n_configs}")
    m_values = _counts(section, "m_values")
    scale_min, scale_max = int(section["scale_min"]), int(section["scale_max"])
    # every range, band and shift is rejected before any input is synthesised
    if scale_min < 0:
        raise ValueError(f"scale_min must be nonnegative (dilations on a fixed period), got {scale_min}")
    if scale_max < scale_min:
        raise ValueError(f"empty scale range {(scale_min, scale_max)}: scale_min exceeds scale_max")
    scale_range = (scale_min, scale_max)
    band_max = float(section["band_max"])
    if not math.isfinite(band_max):
        raise ValueError(f"band_max {section['band_max']!r} is not finite")
    if not band_max * grid.period >= 1.0:
        raise ValueError(f"band_max {section['band_max']!r} times the period {grid.period} is not at least 1: "
                         "every input would be constant, with no nonzero integer frequency")
    # the product of max(m_values) dilates at scale_max is certified to band_max * 2**scale_max * m
    if band_max * max(m_values) >= math.ldexp(grid.nyquist, -scale_max):
        raise ValueError(f"band_max {section['band_max']!r} times 2**scale_max (scale_max {scale_max}) times the "
                         f"largest of m_values ({max(m_values)}) is not below the Nyquist frequency {grid.nyquist}: "
                         "the product of the dilates would alias")
    seed = int(section["seed"])
    shift_scale = float(section["shift_scale"])
    if not math.isfinite(shift_scale):
        raise ValueError(f"shift_scale {section['shift_scale']!r} is not finite")
    tol2, tol3 = _tolerance(section, "tolerance_l2"), _tolerance(section, "tolerance_l3")
    gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    rows = []
    worst = {2.0: 0.0, 3.0: 0.0}
    for idx in range(n_configs):
        m = m_values[idx % len(m_values)]
        gs = []
        for slot in range(m):
            base = random_band_limited(grid, (0.0, band_max), seed, 1000 + idx * 8 + slot)
            offset = SampledField(
                grid,
                np.full(grid.shape, 1.5 * max(1e-12, float(np.max(np.abs(base.values))))),
                Shells.radial(0.0, 0.0, grid.dimension),
            )
            gs.append(base + offset)
        ys = gen.uniform(-shift_scale, shift_scale, size=(m, grid.dimension))
        k0 = int(gen.integers(0, m))
        p = 2.0 if idx % 2 == 0 else 3.0
        result = change_of_variables_check(gs, ys, k0, scale_range, p=p)
        worst[p] = max(worst[p], result.discrepancy)
        rows.append({"config": idx, "m": m, "p": p, "k0": k0, "discrepancy": result.discrepancy})
    passed = worst[2.0] < tol2 and worst[3.0] < tol3
    return ExperimentReport(
        name="changevars",
        params={
            "configs": n_configs,
            "m_values": m_values,
            "scale_range": scale_range,
            "seed": seed,
        },
        rows=rows,
        summary={
            "max_discrepancy_l2": worst[2.0],
            "max_discrepancy_l3": worst[3.0],
            "tolerance_l2": tol2,
            "tolerance_l3": tol3,
        },
        passed=passed,
    )


def cmd_peetre(config: Dict[str, Dict[str, str]]) -> ExperimentReport:
    """Cube-constancy and vector maximal ratios, swept over sigma and two resolutions."""
    grid = _grid_from(config)
    section = config["peetre"]
    sigmas = _floats(section, "sigmas")
    k = int(section["cube_scale"])
    band_factor = float(section["band_factor"])
    bank_size = int(section["bank_size"])
    k_min = int(section["bank_scale_min"])
    if bank_size < 1:
        raise ValueError(f"bank_size must be at least 1, got {section['bank_size']!r}")
    if not math.isfinite(band_factor):
        raise ValueError(f"band_factor {section['band_factor']!r} is not finite")
    scales = list(range(k_min, k_min + bank_size))
    if not any(band_factor * 2.0**kk * grid.period >= 1.0 for kk in scales):
        raise ValueError(f"band_factor {section['band_factor']!r} times 2**kk times the period {grid.period} is not at least 1 "
                         f"at every bank scale kk from bank_scale_min {k_min} to {scales[-1]}: "
                         "every bank field would be constant, with no nonzero integer frequency")
    seed = int(section["seed"])
    p, q = _p_value(section["p"]), _p_value(section["q"])
    stability = _tolerance(section, "stability")
    fine = GridSpec(grid.dimension, grid.samples_per_axis * 2, grid.period)
    rows = []
    passed = True
    for sigma in sigmas:
        per_grid = {}
        for g in (grid, fine):
            field = random_band_limited(g, (0.0, band_factor * 2.0**k), seed, 0)
            cube = peetre_cube_ratio(field, sigma, k, DyadicCubeSet(g, k))
            bank = [
                random_band_limited(g, (0.0, band_factor * 2.0**kk), seed, 10 + i)
                for i, kk in enumerate(scales)
            ]
            fs = fefferman_stein_ratio(bank, scales, sigma, p, q, band_factor=band_factor)
            per_grid[g.samples_per_axis] = (cube.ratio, fs)
            rows.append(
                {
                    "sigma": sigma,
                    "samples": g.samples_per_axis,
                    "cube_ratio": cube.ratio,
                    "fs_ratio": fs,
                }
            )
        (c1, f1), (c2, f2) = per_grid[grid.samples_per_axis], per_grid[fine.samples_per_axis]
        finite = all(map(math.isfinite, (c1, c2, f1, f2)))
        ge_one = f1 >= 1.0 and f2 >= 1.0
        gate = finite and ge_one
        if sigma == 2.0 * grid.dimension:
            # only the reference sigma carries the stability requirement;
            # other rows are diagnostic
            gate = gate and abs(c2 - c1) <= stability * c1 and abs(f2 - f1) <= stability * f1
        passed = passed and gate
    return ExperimentReport(
        name="peetre",
        params={
            "sigmas": sigmas,
            "cube_scale": k,
            "band_factor": band_factor,
            "p": p,
            "q": q,
            "seed": seed,
        },
        rows=rows,
        summary={"stability_tolerance": stability},
        passed=passed,
    )


def cmd_lambda(p_tokens: Sequence[str]) -> ExperimentReport:
    """Exact-rational exponent report for a p-tuple."""
    pt = PTuple.from_ps(p_tokens)
    lam = sharp_lambda(pt)
    lam_p = lambda_prime(pt)
    point = pt.full_point
    n1 = pt.n + 1
    rows = []
    for s in range(1, n1 + 1):
        for t in range(s + 1, n1 + 1):
            taus = [u for u in range(1, n1 + 1) if u not in (s, t)]
            tau = max(taus, key=lambda u: (point[u - 1], -u))
            plan = select_split(pt, s, t)
            rows.append(
                {
                    "s": s,
                    "t": t,
                    "lambda_st": lambda_st(pt, s, t),
                    "lambda_st_prime": lambda_st_prime(pt, s, t, tau),
                    "tau": tau,
                    "lambda_st_dprime": lambda_st_dprime(pt, s, t),
                    "split": plan.kind,
                    "j0": list(plan.j0),
                    "alpha": plan.alpha if plan.alpha is not None else "",
                    "gamma": plan.gamma if plan.gamma is not None else "",
                }
            )
    s_star, t_star, note = counterexample_slots(pt)
    return ExperimentReport(
        name="lambda",
        params={"reciprocals": [str(r) for r in point]},
        rows=rows,
        summary={
            "sharp_lambda": lam,
            "lambda_prime": lam_p,
            "counterexample_pair": (s_star, t_star),
        },
        passed=True,
        notes=(note,) if note else (),
    )


def cmd_plan(p_tokens: Sequence[str]) -> ExperimentReport:
    """Interpolation schedule (or stall diagnosis) for a reciprocal target."""
    pt = PTuple.from_ps(p_tokens)
    outcome = interpolation_plan(pt)
    if isinstance(outcome, InterpolationDiagnosis):
        return ExperimentReport(
            name="plan",
            params={"target": [str(c) for c in outcome.target]},
            summary={"diagnosis": outcome.reason},
            passed=False,
        )
    rows = [
        {
            "step": i + 1,
            "theta": step.theta,
            "endpoint": [str(c) for c in step.point1],
            "result": [str(c) for c in step.result_point],
            "exponent": step.result_exponent,
        }
        for i, step in enumerate(outcome.steps)
    ]
    folded_point, folded_exponent = outcome.fold()
    return ExperimentReport(
        name="plan",
        params={"target": [str(c) for c in outcome.target]},
        rows=rows,
        summary={
            "final_exponent": outcome.final_exponent,
            "target_sharp_exponent": outcome.target_sharp_exponent,
            "achieves_sharp": outcome.achieves_sharp,
            "fold_reproduces_target": folded_point == outcome.target
            and folded_exponent == outcome.final_exponent,
        },
        passed=True,
        notes=outcome.notes,
    )


def cmd_counterexample(config: Dict[str, Dict[str, str]]) -> ExperimentReport:
    """Validation, exact cancellation, collapse identity, and the ratio sweep."""
    section = config["counterexample"]
    mode = section["mode"]
    packets = _counts(section, "packets")
    lam_text = section["lam"].strip().lower()
    lam = None if lam_text == "sharp" else float(lam_text)
    if lam is not None and not 0 <= lam < math.inf:  # NaN fails too
        raise ValueError(f"lam must be 'sharp' or finite and nonnegative, got {section['lam']!r}")

    def make(n_packets: int) -> cx.CxConfig:
        if mode == "identity":
            return cx.identity_config(
                n=int(section["n"]),
                n_packets=n_packets,
                samples=int(section["samples"]),
                period=float(section["period"]),
                offset=int(section["offset"]),
            )
        if mode == "separation":
            return cx.separation_config(
                n_packets=n_packets,
                samples=int(section["samples"]),
                period=float(section["period"]),
                spacing=int(section["spacing"]),
                lam=lam,
            )
        if mode == "reference":
            return cx.reference_config(n=int(section["n"]), n_packets=n_packets)
        raise ValueError(f"unknown mode {mode!r}")

    if mode == "reference":
        validation = cx.validate_config(make(max(packets)))
        rows = [
            {"constraint": c.name, "ok": c.ok, "detail": c.detail} for c in validation.constraints
        ]
        return ExperimentReport(
            name="counterexample",
            params={"mode": mode, "packets": packets},
            rows=rows,
            summary={"frequency_constraints_pass": validation.frequency_ok},
            passed=validation.frequency_ok,
        )

    id_tol = _tolerance(section, "identity_tolerance")
    orth_tol = _tolerance(section, "orthogonality_tolerance")
    rows = []
    passed = True
    cfgs = [make(n) for n in packets]
    reports = []
    for cfg in cfgs:
        rep = cx.run_counterexample(cfg)  # raises ValueError on a violated frequency constraint
        reports.append(rep)
        ok = rep.identity_error < id_tol and rep.orthogonality < orth_tol
        passed = passed and ok
        rows.extend(rep.rows())
    summary: Dict[str, object] = {
        "max_identity_error": max(r.identity_error for r in reports),
        "max_orthogonality_violation": max(r.orthogonality for r in reports),
        "identity_tolerance": id_tol,
        "orthogonality_tolerance": orth_tol,
    }
    notes: Tuple[str, ...] = ()
    if not all(r.validation.separation_ok for r in reports):
        notes = ("bump positions overlap: norm growth tracking is diagnostic only",)
    if len(packets) >= 3:
        fit = cx._fit_reports(cfgs, reports)
        summary["ratio_slope"] = fit.slope
        summary["predicted_slope"] = fit.predicted_slope
        summary["fit_residual"] = fit.residual
    return ExperimentReport(
        name="counterexample",
        params={
            "mode": mode,
            "n": int(section["n"]),
            "packets": packets,
            "lam": section["lam"],
        },
        rows=rows,
        summary=summary,
        passed=passed,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logmult",
        description="Numerical experiments for dyadic-annulus multilinear multiplier bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("partition", "growth", "changevars", "peetre", "counterexample"):
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--outdir", default="reports", help="output directory")
        for section, keys in DEFAULTS[name].items():
            for key, default in keys.items():
                p.add_argument(
                    f"--{section}.{key}",
                    dest=f"{section}.{key}",
                    default=None,
                    metavar="V",
                    help=f"override [{section}] {key} (default {default})",
                )
    for name in ("lambda", "plan"):
        p = sub.add_parser(name)
        p.add_argument("p_values", nargs="+", help="exponents, e.g. 4 4 4 or inf")
        p.add_argument("--outdir", default="reports", help="output directory")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return CONFIG_ERROR if exc.code not in (0, None) else 0
    outdir = Path(args.outdir)
    start = time.perf_counter()
    try:
        if args.command in ("lambda", "plan"):
            report = (cmd_lambda if args.command == "lambda" else cmd_plan)(args.p_values)
            config: Dict[str, Dict[str, str]] = {
                args.command: {"p_values": " ".join(args.p_values)}
            }
            seed = 0
            grid_params: Dict[str, object] = {}
        else:
            overrides = []
            for section, keys in DEFAULTS[args.command].items():
                for key in keys:
                    value = getattr(args, f"{section}.{key}")
                    if value is not None:
                        overrides.append((section, key, value))
            config = resolve_config(args.command, load_config_file(args.config), overrides)
            handler = {
                "partition": cmd_partition,
                "growth": cmd_growth,
                "changevars": cmd_changevars,
                "peetre": cmd_peetre,
                "counterexample": cmd_counterexample,
            }[args.command]
            report = handler(config)
            seed = int(config.get(args.command, {}).get("seed", 0))
            grid_params = dict(config.get("grid", {}))
    except (ValueError, KeyError, OSError, OverflowError) as exc:  # overflow: a value out of range
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    elapsed = time.perf_counter() - start
    report.manifest = RunManifest(
        command=args.command,
        config=config,
        seed=seed,
        grid_params=grid_params,
        elapsed_seconds=elapsed,
    )
    _emit(report, outdir, csv_rows=report.rows or None)
    sys.stdout.write(render_report(report))
    print(f"[elapsed {elapsed:.2f}s]", file=sys.stderr)
    if report.passed is False:
        return FAIL
    return PASS


if __name__ == "__main__":
    sys.exit(main())
