"""The three benchmark workloads: growth, separation and desk.

Each workload has ``setup(lib, seed, scratch)``, which builds the per-grid
caches its units use, ``unit(state, u)``, which runs unit ``u`` and returns a
list of failed checks (empty when every check passed), and ``teardown(state)``.
``lib`` maps a layer name (``field``, ``lp_ops``, ...) to the imported module.

Unit inputs depend only on the workload seed and the unit index, and the
outputs are checked against the criterion bounds; at the default seed they
are also checked against ``reference.json``, recorded at commit 1c81a7a.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

import numpy as np

DEFAULT_SEED = 20240801
REL_TOL = 1e-9
LADDER = (16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0)
MAXIMAL, SQUARE = "shifted-maximal", "shifted-square"
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _close(label: str, got: float, want: float, failures: List[str]) -> None:
    if not abs(got - want) <= REL_TOL * abs(want):
        failures.append(f"{label}: {got!r} differs from the recorded {want!r}")


def _warm_grid(grid) -> None:
    grid.frequency_radii()
    grid.frequency_mesh()
    grid.axis_coordinates()
    zeros = np.zeros(grid.shape, dtype=np.complex128)
    np.fft.ifftn(np.fft.fftn(zeros))


# ---------------------------------------------------------------------------
# growth: one rung of the criterion-10 ladder, both operator kinds
# ---------------------------------------------------------------------------

@dataclass
class GrowthState:
    lib: Dict[str, object]
    seed: int
    experiments: Dict[str, object]
    reference: dict


class Growth:
    """Criterion-10 experiment, one ladder rung per unit.

    Unit ``u`` measures rung ``u mod 6`` exactly as ``run_growth`` does:
    bank synthesis, then ``operator_norm_proxy`` at p = 2, once per kind.
    """

    name = "growth"
    array_bytes = 16 * 2**20

    def setup(self, lib, seed: int, scratch: Path) -> GrowthState:
        field, sl = lib["field"], lib["shifted_lab"]
        grid = field.GridSpec(1, 2**20, 2.0**16)
        bank = sl.GrowthBankSpec(seed=seed, n_random=2, random_band=(0.5, 1.0), adversarial="bump")
        experiments = {
            kind: sl.GrowthExperiment(
                kind=kind, p=2.0, shifts=LADDER, grid=grid, scale_range=(-1, 14), bank=bank
            )
            for kind in (MAXIMAL, SQUARE)
        }
        _warm_grid(grid)
        return GrowthState(lib, seed, experiments, load_reference()["growth"])

    def unit(self, state: GrowthState, u: int) -> List[str]:
        sl = state.lib["shifted_lab"]
        rung = u % len(LADDER)
        y = np.array([LADDER[rung]])
        ratios = {}
        for kind, experiment in state.experiments.items():
            bank = experiment.make_bank()
            ratios[kind] = sl.operator_norm_proxy(kind, experiment.p, y, bank, experiment.make_pair())
        failures: List[str] = []
        ref = state.reference
        maximal, square = ratios[MAXIMAL], ratios[SQUARE]
        # the bump is seed-independent and in every bank, so it bounds the proxy below
        floor = ref["bump_maximal"][rung]
        if not (math.isfinite(maximal) and maximal >= floor * (1.0 - REL_TOL)):
            failures.append(f"maximal ratio {maximal!r} below the bump's ratio {floor!r} at y={y[0]}")
        # at p = 2 the square ratio is 1 at every rung (Plancherel), so max/base <= 3 holds
        if not (square <= 3.0 and abs(square - 1.0) <= REL_TOL):
            failures.append(f"square ratio {square!r} at y={y[0]} is not 1 (criterion-10 bound 3)")
        if state.seed == ref["seed"]:
            _close(f"maximal ratio at y={y[0]}", maximal, ref["maximal"][rung], failures)
            _close(f"square ratio at y={y[0]}", square, ref["square"][rung], failures)
        return failures

    def teardown(self, state: GrowthState) -> None:
        pass


# ---------------------------------------------------------------------------
# separation: the criterion-15 ratio fit at one lambda
# ---------------------------------------------------------------------------

@dataclass
class SeparationState:
    lib: Dict[str, object]
    seed: int
    sharp: float
    reference: dict


class Separation:
    """Criterion-15 experiment, one lambda per unit.

    Unit ``u`` runs ``ratio_growth_fit`` over ``separation_config(N)`` for
    N = 1, 2, 3 at lambda = sharp when ``seed + u`` is even and at
    sharp - 0.25 otherwise.  The construction itself is deterministic.
    """

    name = "separation"
    array_bytes = 16 * 2**22

    def setup(self, lib, seed: int, scratch: Path) -> SeparationState:
        field, exponents = lib["field"], lib["exponents"]
        _warm_grid(field.GridSpec(1, 2**22, 320.0))
        quarter = Fraction(1, 4)
        sharp = float(exponents.sharp_lambda(exponents.PTuple((quarter, quarter))))
        return SeparationState(lib, seed, sharp, load_reference()["separation"])

    def unit(self, state: SeparationState, u: int) -> List[str]:
        cx = state.lib["counterexample"]
        half = "sharp" if (state.seed + u) % 2 == 0 else "lowered"
        lam = None if half == "sharp" else state.sharp - 0.25
        fit = cx.ratio_growth_fit([cx.separation_config(n_packets=n, lam=lam) for n in (1, 2, 3)])
        failures: List[str] = []
        if half == "sharp" and not abs(fit.slope) <= 0.3:
            failures.append(f"sharp slope {fit.slope!r} outside |slope| <= 0.3")
        if half == "lowered" and not -0.05 <= fit.slope <= 0.55:
            failures.append(f"lowered slope {fit.slope!r} outside [-0.05, 0.55]")
        for row in fit.rows:
            if not row["identity_error"] < 1e-8:
                failures.append(f"collapse identity error {row['identity_error']!r} at N={row['N']}")
        ref = state.reference[half]
        _close(f"{half} slope", fit.slope, ref["slope"], failures)
        for row, want in zip(fit.rows, ref["ratios"]):
            _close(f"{half} ratio at N={row['N']}", row["ratio"], want, failures)
        return failures

    def teardown(self, state: SeparationState) -> None:
        pass


# ---------------------------------------------------------------------------
# desk: small-grid calls, CLI subcommands and the paths without FFTs
# ---------------------------------------------------------------------------

@dataclass
class DeskState:
    lib: Dict[str, object]
    seed: int
    outdir: Path
    reference: dict


def desk_cli_runs(seed: int) -> List[List[str]]:
    # peetre keeps its default seed: its 10 % stability check between 256 and
    # 512 points fails at some seeds (7 and 17 of 1..20), see NOTES.md
    return [
        ["partition"],
        ["changevars", "--changevars.seed", str(seed)],
        ["peetre"],
        ["lambda", "4", "4", "4"],
        ["plan", "3", "3", "3"],
    ]


DESK_GRIDS = ((4096, 64.0), (4096, 16.0), (16384, 16.0), (256, 16.0), (512, 16.0), (1024, 64.0))


class Desk:
    """One pass over the small-grid calls; unit ``u`` draws from seed + u."""

    name = "desk"
    array_bytes = 16 * 16384

    def setup(self, lib, seed: int, scratch: Path) -> DeskState:
        field = lib["field"]
        for m, period in DESK_GRIDS:
            grid = field.GridSpec(1, m, period)
            _warm_grid(grid)
            grid.torus_distances()
        outdir = scratch / "desk-reports"
        outdir.mkdir(parents=True, exist_ok=True)
        return DeskState(lib, seed, outdir, load_reference()["desk"])

    def unit(self, state: DeskState, u: int) -> List[str]:
        values = self.observe(state.lib, state.seed + u, state.outdir)
        failures: List[str] = []
        for args, rc in values["cli"]:
            if rc != 0:
                failures.append(f"logmult {' '.join(args)} exited {rc}")
        if not values["shift_identity"] < 1e-11:
            failures.append(f"shift identity error {values['shift_identity']!r} >= 1e-11")
        d0, oracle = values["d_lambda"][0], values["l1_oracle"]
        if not abs(d0 - oracle) < 1e-8 * oracle:
            failures.append(f"D0 {d0!r} not within 1e-8 of the L1 oracle {oracle!r}")
        if not all(b >= a for a, b in zip(values["d_lambda"], values["d_lambda"][1:])):
            failures.append(f"D_lambda not monotone in lambda: {values['d_lambda']}")
        if not abs(values["transpose_d0"] - d0) < 1e-6 * d0:
            failures.append(f"transposed D0 {values['transpose_d0']!r} differs from D0 {d0!r}")
        if not all(map(math.isfinite, values["peetre"])):
            failures.append(f"Peetre cube ratios not finite: {values['peetre']}")
        ref = state.reference
        if state.seed + u == ref["seed"]:
            for key in ("peetre", "d_lambda"):
                for i, (got, want) in enumerate(zip(values[key], ref[key])):
                    _close(f"{key}[{i}]", got, want, failures)
            _close("transpose_d0", values["transpose_d0"], ref["transpose_d0"], failures)
        return failures

    @staticmethod
    def observe(lib, seed: int, outdir: Path) -> dict:
        """Run one desk pass with inputs drawn from ``seed``; return what it measured."""
        field, lp_ops, sl = lib["field"], lib["lp_ops"], lib["shifted_lab"]
        calibration, multiplier, cli = lib["calibration"], lib["multiplier"], lib["cli"]
        cli_rcs = []
        for args in desk_cli_runs(seed):
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                cli_rcs.append((args, cli.main(args + ["--outdir", str(outdir)])))

        # criterion 3: 50 shift-identity cases at 4096 points
        grid = field.GridSpec(1, 4096, 16.0)
        pair = calibration.make_lp_pair((-2, 3))
        gen = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        worst = 0.0
        for case in range(50):
            f = sl.random_band_limited(grid, (0.5, 4.0), seed, case)
            profile = pair.phi_hat if case % 2 == 0 else pair.psi_hat
            scale = int(gen.integers(-2, 4))
            y = float(gen.uniform(-8.0, 8.0))
            shifted = lp_ops.dyadic_piece(f, lp_ops.ShiftedDyadicOp(profile, scale, (y,)))
            unshifted = lp_ops.dyadic_piece(f, lp_ops.ShiftedDyadicOp(profile, scale, (0.0,)))
            moved = field.phase_shift(unshifted, [y * 2.0**-scale])
            worst = max(worst, float(np.max(np.abs(shifted.values - moved.values))))

        # Peetre cube ratio of a localized bump, the scan's quadratic case
        position = float(gen.uniform(0.0, 16.0))
        peetre = []
        for m in (4096, 16384):
            g = field.GridSpec(1, m, 16.0)
            bump = sl.modulated_bump(g, position=[position])
            peetre.append(lp_ops.peetre_cube_ratio(bump, 2.0, 1, lp_ops.DyadicCubeSet(g, 1)).ratio)

        # criterion 13: D_lambda on the exact path at 1024 points, plus the transpose
        g = field.GridSpec(1, 1024, 64.0)
        _, beta_hat = calibration.make_counterexample_profiles(0.4, (0.9, 1.1), (0.55, 1.25))
        factor = multiplier.SpectralFactor(beta_hat)
        kernel = multiplier.TensorKernel.rank_one([factor, factor])
        oracle = field.lp_norm(factor.field_on(g), 1) ** 2
        d_values = [multiplier.d_lambda(kernel, lam, g).value for lam in (0.0, 0.25, 0.5, 0.75, 1.0)]
        transpose_d0 = multiplier.d_lambda(multiplier.transpose_kernel(kernel, 1), 0.0, g).value
        return {
            "cli": cli_rcs,
            "shift_identity": worst,
            "peetre": peetre,
            "l1_oracle": oracle,
            "d_lambda": d_values,
            "transpose_d0": transpose_d0,
        }

    def teardown(self, state: DeskState) -> None:
        shutil.rmtree(state.outdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (Growth(), Separation(), Desk())}
