"""Acceptance gate: one test per criterion, at the declared tolerances.

Each test prints a single pass/fail line (run with ``pytest -s`` or ``-v`` to
see them).  Runtime budgets are asserted where a criterion declares one.
"""

import filecmp
import math
import time
from fractions import Fraction as F

import numpy as np

from logmult.calibration import make_lp_pair
from logmult.cli import main as cli_main
from logmult.counterexample import (
    identity_config,
    orthogonality_check,
    ratio_growth_fit,
    run_counterexample,
    separation_config,
)
from logmult.exponents import (
    HALF,
    PTuple,
    brute_lambda,
    interpolation_plan,
    lambda_prime,
    lambda_st_dprime,
    lambda_st_prime,
    select_split,
    sharp_lambda,
)
from logmult.field import GridSpec, SampledField, Shells, lp_norm, phase_shift
from logmult.lp_ops import (
    DyadicCubeSet,
    ShiftedDyadicOp,
    dyadic_piece,
    fefferman_stein_ratio,
    peetre_cube_ratio,
    square_function,
)
from logmult.multiplier import SpectralFactor, TensorKernel, d_lambda, transpose_kernel
from logmult.calibration import make_counterexample_profiles
from logmult.shifted_lab import (
    GrowthBankSpec,
    GrowthExperiment,
    change_of_variables_check,
    random_band_limited,
    run_growth,
)


def _line(number: int, passed: bool, detail: str) -> None:
    print(f"criterion {number:02d}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def _random_ptuple(rng, n, denominator=64):
    while True:
        nums = rng.integers(0, denominator + 1, size=n)
        if nums.sum() <= denominator:
            return PTuple(tuple(F(int(v), denominator) for v in nums))


def test_criterion_01_partition_of_unity():
    start = time.perf_counter()
    grid = GridSpec(1, 4096, 64.0)
    pair = make_lp_pair((-3, 4))
    lo, hi = pair.covered_band
    radii = grid.frequency_radii().ravel()
    covered = radii[(radii >= lo) & (radii <= hi)]
    dense = np.geomspace(lo, hi, 20001)
    defect = max(
        float(np.max(np.abs(pair.partition_sum(covered) - 1.0))),
        float(np.max(np.abs(pair.partition_sum(dense) - 1.0))),
    )
    elapsed = time.perf_counter() - start
    _line(1, defect < 1e-12 and elapsed < 1.0, f"max defect {defect:.3e}, {elapsed:.2f}s")


def test_criterion_02_change_of_variables():
    start = time.perf_counter()
    grid = GridSpec(1, 4096, 16.0)
    gen = np.random.Generator(np.random.Philox(key=np.uint64(11)))
    worst = {2.0: 0.0, 3.0: 0.0}
    for idx in range(100):
        m = (2, 3, 4)[idx % 3]
        gs = []
        for slot in range(m):
            base = random_band_limited(grid, (0.0, 3.0), 11, idx * 8 + slot)
            pedestal = SampledField(
                grid,
                np.full(grid.shape, 1.5 * float(np.max(np.abs(base.values)))),
                shells=Shells.radial(0.0, 0.0, grid.dimension),
            )
            gs.append(base + pedestal)
        ys = gen.uniform(-4.0, 4.0, size=(m, 1))
        k0 = int(gen.integers(0, m))
        for p in (2.0, 3.0):
            res = change_of_variables_check(gs, ys, k0, (0, 2), p=p)
            worst[p] = max(worst[p], res.discrepancy)
    elapsed = time.perf_counter() - start
    ok = worst[2.0] < 1e-10 and worst[3.0] < 1e-9 and elapsed < 30.0
    _line(2, ok, f"L2(l2) {worst[2.0]:.3e}, L3(l3) {worst[3.0]:.3e}, {elapsed:.1f}s")


def test_criterion_03_shift_identity():
    grid = GridSpec(1, 4096, 16.0)
    pair = make_lp_pair((-2, 3))
    gen = np.random.Generator(np.random.Philox(key=np.uint64(13)))
    worst = 0.0
    for case in range(50):
        f = random_band_limited(grid, (0.5, 4.0), 13, case)
        profile = pair.phi_hat if case % 2 == 0 else pair.psi_hat
        scale = int(gen.integers(-2, 4))
        y = float(gen.uniform(-8.0, 8.0))
        shifted = dyadic_piece(f, ShiftedDyadicOp(profile, scale, (y,)))
        moved = phase_shift(
            dyadic_piece(f, ShiftedDyadicOp(profile, scale, (0.0,))), [y * 2.0**-scale]
        )
        worst = max(worst, float(np.max(np.abs(shifted.values - moved.values))))
    _line(3, worst < 1e-11, f"max abs error {worst:.3e} over 50 cases")


def test_criterion_04_counterexample_cancellation():
    cfg = identity_config(n=3, n_packets=4, samples=2**16, period=2.0**8)
    violation = orthogonality_check(cfg)
    # off-scale products must be hard zeros, not small values
    grid = cfg.grid
    eta_hat, beta_hat = cfg.profiles
    radii = grid.frequency_radii()
    axis = np.asarray(grid.frequency_mesh()[0], dtype=float)
    off_scale = 0.0
    for ell in cfg.scale_range:
        dilated = beta_hat(radii * 2.0**-ell)
        for z in cfg.zetas:
            if ell == z:
                continue
            ball = eta_hat(np.abs(axis - 2.0**z))
            off_scale = max(off_scale, float(np.max(np.abs(dilated * ball))))
    ok = violation < 1e-14 and off_scale == 0.0
    _line(4, ok, f"max violation {violation:.3e}, off-scale max {off_scale}")


def test_criterion_05_counterexample_identity():
    start = time.perf_counter()
    worst = 0.0
    for packets in (2, 4, 6):
        rep = run_counterexample(identity_config(n=3, n_packets=packets))
        worst = max(worst, rep.identity_error)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 60.0
    _line(5, ok, f"max relative L2 error {worst:.3e} (N in 2,4,6; M=2**18), {elapsed:.1f}s")


def test_criterion_06_exponent_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(17)
    ok = True
    for n in (2, 3, 4, 5):
        for _ in range(1000):
            pt = _random_ptuple(rng, n)
            ok = ok and sharp_lambda(pt) == brute_lambda(pt)
        equal = PTuple((F(1, n + 1),) * n)
        ok = ok and sharp_lambda(equal) == F(n - 1, n + 1)
        vertex = PTuple((F(1),) + (F(0),) * (n - 1))
        ok = ok and sharp_lambda(vertex) == F(1)
    elapsed = time.perf_counter() - start
    _line(6, ok and elapsed < 5.0, f"4000 tuples, exact equality, {elapsed:.1f}s")


def test_criterion_07_split_plan_identities():
    rng = np.random.default_rng(19)
    checked = 0
    ok = True
    while checked < 500:
        n = int(rng.integers(2, 6))
        pt = _random_ptuple(rng, n)
        point = pt.full_point
        s = int(rng.integers(1, n + 1))
        t = int(rng.integers(s + 1, n + 2))
        plan = select_split(pt, s, t)
        if plan.kind not in ("standard", "alpha-exceeds-half"):
            continue
        ok = ok and plan.group_sum(pt) + plan.q0_reciprocal == HALF
        r_alpha = point[plan.alpha - 1]
        ok = ok and plan.gamma * r_alpha == plan.q0_reciprocal
        ok = ok and plan.q0_reciprocal + plan.q1_reciprocal == r_alpha
        checked += 1
    _line(7, ok, "500 admissible plans: group sum + 1/q0 = 1/2 and gamma*q0 = p_alpha exactly")


def test_criterion_08_lambda_hierarchy():
    rng = np.random.default_rng(23)
    ok = True
    for _ in range(400):
        n = int(rng.integers(2, 6))
        pt = _random_ptuple(rng, n)
        point = pt.full_point
        lam_p = lambda_prime(pt)
        for s in range(1, pt.n + 2):
            for t in range(s + 1, pt.n + 2):
                taus = [u for u in range(1, pt.n + 2) if u not in (s, t)]
                tau = max(taus, key=lambda u: (point[u - 1], -u))
                ok = ok and lambda_st_prime(pt, s, t, tau) <= lam_p
        for u in range(1, pt.n + 2):
            if point[u - 1] < HALF:
                continue
            for t in range(1, pt.n + 2):
                if t != u:
                    ok = ok and lambda_st_dprime(pt, u, t) <= point[u - 1]
    _line(8, ok, "lambda' dominates pairwise variants; dominant-slot bound holds")


def test_criterion_09_hardy_square_ratio():
    grid = GridSpec(1, 4096, 16.0)
    pair = make_lp_pair((-2, 3))
    lo, hi = pair.covered_band
    ratios = []
    for seed in range(50):
        f = random_band_limited(grid, (2 * lo, hi / 2), 29, seed)
        ratios.append(lp_norm(square_function(f, pair), 2) / lp_norm(f, 2))
    ok = all(0.70 <= r <= 1.01 for r in ratios)
    _line(9, ok, f"ratios in [{min(ratios):.4f}, {max(ratios):.4f}] over 50 fields")


LADDER = (16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0)


def test_criterion_10_growth_fits():
    start = time.perf_counter()
    grid = GridSpec(1, 2**20, 2.0**16)
    bank = GrowthBankSpec(seed=20240801, n_random=2, random_band=(0.5, 1.0), adversarial="bump")
    maximal = run_growth(
        GrowthExperiment(
            kind="shifted-maximal", p=2.0, shifts=LADDER, grid=grid,
            scale_range=(-1, 14), bank=bank,
        )
    )
    fitted = maximal.summary["fitted_exponent"]
    square = run_growth(
        GrowthExperiment(
            kind="shifted-square", p=2.0, shifts=LADDER, grid=grid,
            scale_range=(-1, 14), bank=bank,
        )
    )
    sq_ratios = [row["ratio"] for row in square.rows]
    bounded = max(sq_ratios) <= 3.0 * sq_ratios[0]
    elapsed = time.perf_counter() - start
    ok = 0.35 <= fitted <= 0.65 and bounded and elapsed < 300.0
    _line(
        10,
        ok,
        f"maximal fit {fitted:.3f} (band [0.35, 0.65]); square max/base "
        f"{max(sq_ratios) / sq_ratios[0]:.6f} <= 3; {elapsed:.0f}s",
    )


def test_criterion_11_linf_equality():
    grid = GridSpec(1, 2**16, 2.0**6)
    experiment = GrowthExperiment(
        kind="shifted-maximal", p=math.inf, shifts=LADDER, grid=grid,
        scale_range=(-1, 8),
        bank=GrowthBankSpec(seed=20240801, n_random=2, random_band=(1.0, 8.0)),
        criterion="equality",
    )
    report = run_growth(experiment)
    worst = max(abs(row["ratio"] - 1.0) for row in report.rows)
    _line(11, worst <= 1e-10, f"max |ratio - 1| = {worst:.3e} across the ladder")


def test_criterion_12_peetre_stability():
    sigma = 2.0  # 2d at d = 1
    cube_vals, fs_vals = [], []
    for m in (256, 512):
        grid = GridSpec(1, m, 16.0)
        f = random_band_limited(grid, (0.0, 1.0), 20240801, 0)
        cube_vals.append(peetre_cube_ratio(f, sigma, 1, DyadicCubeSet(grid, 1)).ratio)
        scales = [0, 1, 2, 3]
        bank = [
            random_band_limited(grid, (0.0, 0.5 * 2.0**k), 20240801, 10 + i)
            for i, k in enumerate(scales)
        ]
        fs_vals.append(fefferman_stein_ratio(bank, scales, sigma, 2, 2, band_factor=0.5))
    finite = all(map(math.isfinite, cube_vals + fs_vals))
    cube_stable = abs(cube_vals[1] - cube_vals[0]) <= 0.10 * cube_vals[0]
    fs_stable = abs(fs_vals[1] - fs_vals[0]) <= 0.10 * fs_vals[0]
    ge_one = all(v >= 1.0 for v in fs_vals)
    ok = finite and cube_stable and fs_stable and ge_one
    _line(
        12,
        ok,
        f"cube {cube_vals[0]:.3f}->{cube_vals[1]:.3f}, FS {fs_vals[0]:.4f}->{fs_vals[1]:.4f}",
    )


def test_criterion_13_d_lambda():
    grid = GridSpec(1, 1024, 64.0)
    _, beta_hat = make_counterexample_profiles(0.4, (0.9, 1.1), (0.55, 1.25))
    kernel = TensorKernel.rank_one([SpectralFactor(beta_hat), SpectralFactor(beta_hat)])
    beta = SpectralFactor(beta_hat).field_on(grid)
    oracle = lp_norm(beta, 1) ** 2
    d0 = d_lambda(kernel, 0.0, grid).value
    l1_ok = abs(d0 - oracle) < 1e-8 * oracle
    vals = [d_lambda(kernel, lam, grid).value for lam in (0.0, 0.25, 0.5, 0.75, 1.0)]
    monotone = all(b >= a for a, b in zip(vals, vals[1:]))
    t_d0 = d_lambda(transpose_kernel(kernel, 1), 0.0, grid).value
    transpose_ok = abs(t_d0 - d0) < 1e-6 * d0
    ok = l1_ok and monotone and transpose_ok
    _line(
        13,
        ok,
        f"|D0 - L1| rel {abs(d0 - oracle) / oracle:.2e}; monotone {monotone}; "
        f"transpose rel {abs(t_d0 - d0) / d0:.2e}",
    )


def test_criterion_14_interpolation_plan():
    plan = interpolation_plan([F(1, 3), F(1, 3), F(1, 3), F(0)])
    thetas = [step.theta for step in plan.steps]
    point, exponent = plan.fold()
    ok = (
        thetas == [F(1, 2), F(1, 3)]
        and plan.final_exponent == 1
        and point == plan.target
        and exponent == F(1)
    )
    _line(14, ok, f"thetas {thetas}, final exponent {plan.final_exponent}, fold exact")


def test_criterion_15_counterexample_ratio_fit():
    start = time.perf_counter()
    sharp = float(sharp_lambda(PTuple((F(1, 4), F(1, 4)))))
    fit_sharp = ratio_growth_fit([separation_config(n_packets=N) for N in (1, 2, 3)])
    fit_low = ratio_growth_fit(
        [separation_config(n_packets=N, lam=sharp - 0.25) for N in (1, 2, 3)]
    )
    elapsed = time.perf_counter() - start
    ok = (
        abs(fit_sharp.slope) <= 0.3
        and -0.05 <= fit_low.slope <= 0.55
        and elapsed < 600.0
    )
    _line(
        15,
        ok,
        f"sharp slope {fit_sharp.slope:.3f} (|.| <= 0.3); "
        f"lowered slope {fit_low.slope:.3f} in [-0.05, 0.55] around {fit_low.predicted:.2f}; "
        f"{elapsed:.0f}s at M=2**22",
    )


def test_criterion_16_determinism(tmp_path):
    runs = {
        "partition": ["partition"],
        "changevars": ["changevars", "--changevars.configs", "6"],
        "counterexample": [
            "counterexample",
            "--counterexample.packets", "2",
            "--counterexample.samples", "32768",
            "--counterexample.period", "128",
        ],
    }
    identical = True
    for name, args in runs.items():
        a, b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        assert cli_main(args + ["--outdir", str(a)]) == 0
        assert cli_main(args + ["--outdir", str(b)]) == 0
        for made in sorted(p.name for p in a.iterdir()):
            identical = identical and filecmp.cmp(a / made, b / made, shallow=False)
    _line(16, identical, "byte-identical reports and CSVs across reruns")
