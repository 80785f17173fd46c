import contextlib
import filecmp
import io
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import logmult
import logmult.cli as cli
import logmult.counterexample as cx
import logmult.field as field
from logmult.cli import (
    CONFIG_ERROR,
    DEFAULTS,
    FAIL,
    PASS,
    cmd_lambda,
    cmd_plan,
    main,
    resolve_config,
)
from logmult.exponents import lambda_st
from logmult.field import GridSpec, SampledField, Shells, transform
from logmult.shifted_lab import random_band_limited


def run(args):
    return main(args)


def test_partition_command_passes(tmp_path):
    assert run(["partition", "--outdir", str(tmp_path)]) == PASS
    report = (tmp_path / "partition.report.txt").read_text()
    assert "result = PASS" in report
    assert "manifest" in report


def test_partition_truncated_range_warns(tmp_path):
    code = run(
        [
            "partition",
            "--partition.scale_min",
            "-1",
            "--partition.scale_max",
            "2",
            "--outdir",
            str(tmp_path),
        ]
    )
    assert code == PASS
    report = (tmp_path / "partition.report.txt").read_text()
    assert "uncovered" in report


def test_malformed_config_file(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("not an ini file [[[")
    code = run(["partition", "--config", str(bad), "--outdir", str(tmp_path)])
    assert code == CONFIG_ERROR


def test_missing_config_file(tmp_path):
    code = run(["partition", "--config", str(tmp_path / "nope.ini"), "--outdir", str(tmp_path)])
    assert code == CONFIG_ERROR


def test_config_file_and_override_precedence(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[partition]\nscale_max = 5\n")
    config = resolve_config(
        "partition",
        {"partition": {"scale_max": "5"}},
        [("partition", "scale_min", "-2")],
    )
    assert config["partition"]["scale_max"] == "5"
    assert config["partition"]["scale_min"] == "-2"
    assert config["grid"]["samples"] == "4096"


def test_changevars_command(tmp_path):
    code = run(
        ["changevars", "--changevars.configs", "8", "--outdir", str(tmp_path)]
    )
    assert code == PASS
    csv = (tmp_path / "changevars.csv").read_text()
    assert csv.splitlines()[0].startswith("config,m,p")


def test_module_entry_point_runs_the_cli(tmp_path):
    """``python -m logmult <command>`` is the ``logmult`` script: same runner, same exit code."""
    env = {**os.environ, "PYTHONPATH": str(Path(logmult.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "logmult", "lambda", "4", "4", "4", "--outdir", str(tmp_path)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == PASS, done.stderr
    assert "sharp_lambda = 1/2" in (tmp_path / "lambda.report.txt").read_text()


def test_lambda_command_table():
    report = cmd_lambda(["4", "4", "4"])
    assert report.summary["sharp_lambda"] == Fraction(1, 2)
    pairs = {(row["s"], row["t"]) for row in report.rows}
    assert len(pairs) == 6  # all (s, t) with 1 <= s < t <= 4


def test_lambda_command_equal_point():
    # all five full-point coordinates equal 1/5
    report = cmd_lambda(["5", "5", "5", "5"])
    assert report.summary["sharp_lambda"] == Fraction(3, 5)


def test_lambda_rejects_p_below_one():
    with pytest.raises(ValueError):
        cmd_lambda(["1/2", "4"])


def test_plan_command_two_step():
    report = cmd_plan(["3", "3", "3"])
    assert [str(r["theta"]) for r in report.rows] == ["1/2", "1/3"]
    assert report.summary["fold_reproduces_target"] is True


def test_plan_interior_diagnosis():
    # full point (1/8, 1/8, 1/8, 1/8, 1/2): every coordinate positive
    report = cmd_plan(["8", "8", "8", "8"])
    assert report.passed is False
    assert "diagnosis" in report.summary


def test_counterexample_reference_symbolic(tmp_path):
    code = run(
        [
            "counterexample",
            "--counterexample.mode",
            "reference",
            "--counterexample.packets",
            "3",
            "--outdir",
            str(tmp_path),
        ]
    )
    assert code == PASS
    report = (tmp_path / "counterexample.report.txt").read_text()
    assert "frequency_constraints_pass = true" in report


def test_counterexample_identity_small(tmp_path):
    code = run(
        [
            "counterexample",
            "--counterexample.packets",
            "2",
            "--counterexample.samples",
            "32768",
            "--counterexample.period",
            "128",
            "--outdir",
            str(tmp_path),
        ]
    )
    assert code == PASS
    assert (tmp_path / "counterexample.csv").exists()


def test_counterexample_invalid_config_exit_code(tmp_path):
    code = run(
        [
            "counterexample",
            "--counterexample.offset",
            "0",
            "--counterexample.packets",
            "2",
            "--counterexample.samples",
            "32768",
            "--outdir",
            str(tmp_path),
        ]
    )
    assert code == CONFIG_ERROR


@pytest.mark.parametrize("mode", ["identity", "separation", "reference"])
def test_counterexample_n_past_four_slots_names_the_key(tmp_path, mode):
    # n slots of reciprocal 1/4 sum past 1 from n = 5: refused before any mode builds a config
    argv = ["counterexample", "--counterexample.mode", mode, "--counterexample.n", "5"]
    code, err = _run_captured(argv + ["--outdir", str(tmp_path / "out")])
    assert code == CONFIG_ERROR and "counterexample.n" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_default_counterexample_derives_each_config_once(tmp_path, cx_derivations):
    assert run(["counterexample", "--outdir", str(tmp_path)]) == PASS
    assert cx_derivations == {"validate_config": 3, "make_counterexample_profiles": 3, "sharp_lambda": 3}


def test_changevars_transforms_each_input_once(tmp_path, fft_calls):
    assert run(["changevars", "--outdir", str(tmp_path)]) == PASS
    calls = [n for name, n in fft_calls if name == "fftn"]
    # 100 configs of m = 2, 3, 4 inputs in turn (34 * 2 + 33 * 3 + 33 * 4 = 299),
    # each built on its spectrum, which every translate reads: no forward transform
    assert len(calls) == 0


def test_changevars_translates_each_input_once_per_side(tmp_path, fft_calls):
    assert run(["changevars", "--outdir", str(tmp_path)]) == PASS
    calls = {name: sum(called == name for called, _ in fft_calls) for name in ("fftn", "ifftn")}
    # 299 synthesis inverses, plus one per input and side off the grid: every
    # input of both sides but slot k0 on the right, whose zero shift is a roll
    # (2 * 299 - 100 = 498); every scale reads these translates by sampling.
    # The 100 rolls read their inputs' samples, deferred until then: one
    # inverse each
    assert calls == {"fftn": 0, "ifftn": 299 + 498 + 100}


@pytest.mark.parametrize("grid", [GridSpec(1, 4096, 16.0), GridSpec(2, 128, 16.0)])
def test_changevars_inputs_are_the_sample_built_sums(grid):
    # the input built on its spectrum is the samples' sum base + constant, transformed
    for stream in (1000, 1001, 1013):
        g = cli._changevars_input(grid, 3.0, 20240801, stream)
        base = random_band_limited(grid, (0.0, 3.0), 20240801, stream)
        level = 1.5 * max(1e-12, float(np.max(np.abs(base.values))))
        offset = SampledField(grid, np.full(grid.shape, level), Shells.radial(0.0, 0.0, grid.dimension))
        want = transform(base + offset).coefficients
        assert g.kept is not None
        assert np.max(np.abs(g.kept.coefficients - want)) <= 1e-12 * np.max(np.abs(want))


def test_changevars_lays_out_each_certificate_once(tmp_path, monkeypatch):
    # the boxes of a (grid, certificate) are computed once and read from the layout cache after
    certified_bins, boxes = field._certified_bins, field.bin_boxes
    certificates, calls = set(), []

    def recorded(grid, shells):
        certificates.add((grid, shells))
        return certified_bins(grid, shells)

    def counted(grid, windows):
        calls.append(grid)
        return boxes(grid, windows)

    monkeypatch.setattr(field, "_certified_bins", recorded)
    monkeypatch.setattr(field, "bin_boxes", counted)
    certified_bins.cache_clear()
    assert run(["changevars", "--outdir", str(tmp_path)]) == PASS
    assert 0 < len(calls) <= len({key for key in certificates if key[1] is not None})


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run(["changevars", "--changevars.configs", "6", "--outdir", str(out)]) == PASS
        assert (
            run(
                [
                    "partition",
                    "--outdir",
                    str(out),
                ]
            )
            == PASS
        )
    for name in ("changevars.report.txt", "changevars.csv", "partition.report.txt", "partition.csv"):
        assert filecmp.cmp(a / name, b / name, shallow=False), name


SMALL_GROWTH = [
    "growth",
    "--grid.samples", "65536",
    "--grid.period", "4096",
    "--growth.ladder", "16 64 256 1024",
    "--growth.scale_max", "10",
    "--growth.tolerance", "0.4",
    "--growth.n_random", "1",
]


def test_growth_command_small(tmp_path):
    assert run(SMALL_GROWTH + ["--outdir", str(tmp_path)]) == PASS
    report = (tmp_path / "growth-shifted-maximal.report.txt").read_text()
    assert "predicted_exponent = 0.5" in report
    assert "fitted_exponent" in report


BOUNDED = ["--growth.kind", "shifted-square", "--growth.criterion", "bounded"]
EQUALITY = [
    "--grid.period", "64",
    "--growth.scale_max", "4",
    "--growth.kind", "shifted-square",
    "--growth.p", "inf",
    "--growth.criterion", "equality",
    "--growth.random_band", "1 8",
]
# two shifts: too few for a fit, enough for either criterion
SHORT_LADDER = ["--growth.ladder", "16 64"]


@pytest.mark.parametrize(
    "args, summary_key",
    [
        (BOUNDED, "bound"),
        (EQUALITY, "max_equality_defect"),
        # p = 4 predicts 1/4, within the tolerance 0.4: the fit's verdict would be vacuous
        (["--growth.kind", "shifted-square", "--growth.p", "4", "--growth.criterion", "bounded"], "bound"),
        (BOUNDED + SHORT_LADDER, "bound"),
        (EQUALITY + SHORT_LADDER, "max_equality_defect"),
    ],
)
def test_growth_bounded_and_equality_criteria(tmp_path, capsys, args, summary_key):
    assert run(SMALL_GROWTH + args + ["--outdir", str(tmp_path)]) == PASS
    report = (tmp_path / "growth-shifted-square.report.txt").read_text()
    assert f"    {summary_key} = " in report
    # the verdict is the criterion's: no fit runs, so neither its exponent nor its vacuous-verdict note is shown
    assert "fitted_exponent" not in report
    assert "vacuous" not in report and "vacuous" not in capsys.readouterr().out


def test_failed_check_exits_one(tmp_path):
    # no partition defect is below a tolerance of 0
    assert run(["partition", "--partition.tolerance", "0", "--outdir", str(tmp_path)]) == FAIL
    assert "result = FAIL" in (tmp_path / "partition.report.txt").read_text()


def test_lambda_and_plan_through_main(tmp_path):
    assert run(["lambda", "4", "4", "inf", "--outdir", str(tmp_path)]) == PASS
    assert "result = PASS" in (tmp_path / "lambda.report.txt").read_text()
    # an interior target stalls: the diagnosis is a failed plan
    assert run(["plan", "8", "8", "8", "8", "--outdir", str(tmp_path)]) == FAIL
    assert "diagnosis" in (tmp_path / "plan.report.txt").read_text()


def test_counterexample_separation_mode(tmp_path):
    args = ["counterexample", "--counterexample.mode", "separation", "--counterexample.packets", "1 2"]
    assert run(args + ["--outdir", str(tmp_path)]) == PASS
    assert "mode = separation" in (tmp_path / "counterexample.report.txt").read_text()


def test_peetre_command(tmp_path):
    assert run(["peetre", "--outdir", str(tmp_path)]) == PASS
    csv = (tmp_path / "peetre.csv").read_text()
    assert csv.splitlines()[0].startswith("sigma,samples,cube_ratio,fs_ratio")


@pytest.mark.parametrize("bank_size", ["0", "-1"])
def test_peetre_empty_bank_is_config_error(tmp_path, bank_size):
    code = run(["peetre", "--peetre.bank_size", bank_size, "--outdir", str(tmp_path)])
    assert code == CONFIG_ERROR


def test_counterexample_vanishing_closed_form_is_config_error(tmp_path, capsys):
    # period 0.5 puts no grid frequency inside the annular profile's support
    code = run(
        [
            "counterexample",
            "--counterexample.period",
            "0.5",
            "--counterexample.samples",
            "1024",
            "--counterexample.packets",
            "2",
            "--outdir",
            str(tmp_path),
        ]
    )
    assert code == CONFIG_ERROR
    err = capsys.readouterr().err
    assert "closed form vanishes" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [
        ["changevars", "--changevars.m_values", ","],
        ["growth", "--growth.random_band", "1"],
        ["peetre", "--peetre.sigmas", ","],
        ["changevars", "--changevars.scale_min", "3", "--changevars.scale_max", "1"],
        # values out of range: a negative seed, a non-finite shift scale or period
        ["changevars", "--changevars.seed", "-1"],
        ["peetre", "--peetre.seed", "-1"],
        ["changevars", "--changevars.shift_scale", "nan"],
        ["changevars", "--changevars.shift_scale", "inf"],
        ["changevars", "--changevars.scale_min", "-1"],
        ["growth", "--grid.period", "1e400"],
        # NaN exponents
        ["growth", "--growth.p", "nan"],
        ["counterexample", "--counterexample.lam", "nan"],
        # unknown names, a malformed bound factor and counts out of range
        ["growth", "--growth.criterion", "bogus"],
        ["growth", "--growth.adversarial", "bogus"],
        ["growth", "--growth.bound_factor", "nan"],
        ["growth", "--growth.bound_factor", "-1"],
        ["growth", "--growth.n_random", "-1"],
        ["changevars", "--changevars.configs", "-1"],
        ["changevars", "--changevars.configs", "0"],
        # list entries below 1
        ["changevars", "--changevars.m_values", "0"],
        ["changevars", "--changevars.m_values", "-1"],
        ["counterexample", "--counterexample.packets", "0"],
        ["counterexample", "--counterexample.packets", "-2"],
        # vacuous bands: every synthesised input is constant, and NaN bands
        ["changevars", "--changevars.band_max", "0"],
        ["changevars", "--changevars.band_max", "nan"],
        ["peetre", "--peetre.bank_scale_min", "-50"],
        ["peetre", "--peetre.band_factor", "nan"],
        # infinite bands, rejected before a Nyquist check that names no key
        ["changevars", "--changevars.band_max", "inf"],
        ["peetre", "--peetre.band_factor", "inf"],
        # a product of dilates at or past Nyquist: by its band or by its top scale
        ["changevars", "--changevars.band_max", "10"],
        ["changevars", "--changevars.scale_max", "6"],
    ],
)
def test_degenerate_lists_and_ranges_are_config_errors(tmp_path, capsys, args):
    assert run(args + ["--outdir", str(tmp_path)]) == CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / f"{args[0]}.report.txt").exists()
    key = args[1].split(".")[-1]
    named = (
        "m_values", "random_band", "sigmas", "packets", "band_max", "bank_scale_min", "band_factor",
        "scale_min", "scale_max", "shift_scale",
    )
    if key in named:  # an unreadable list, a vacuous or NaN band and a changevars range name their key
        assert key in err


def test_a_cube_scale_that_does_not_tile_names_the_side_once_signed(tmp_path, capsys):
    assert run(["peetre", "--peetre.cube_scale", "-10", "--outdir", str(tmp_path)]) == CONFIG_ERROR
    err = capsys.readouterr().err
    assert "cube side 2**10 does not tile" in err and "--" not in err


@pytest.mark.parametrize("value", ["nan", "-1"])
@pytest.mark.parametrize(
    "command, key",
    [
        ("partition", "partition.tolerance"),
        ("growth", "growth.tolerance"),
        ("changevars", "changevars.tolerance_l2"),
        ("changevars", "changevars.tolerance_l3"),
        ("peetre", "peetre.stability"),
        ("counterexample", "counterexample.identity_tolerance"),
        ("counterexample", "counterexample.orthogonality_tolerance"),
    ],
)
def test_malformed_tolerances_are_config_errors(tmp_path, capsys, command, key, value):
    assert run([command, f"--{key}", value, "--outdir", str(tmp_path)]) == CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key.split(".")[1] in err
    assert not list(tmp_path.iterdir())


def test_changevars_empty_scale_range_synthesises_nothing(tmp_path, capsys, monkeypatch):
    import logmult.cli as cli

    calls = []
    original = cli.random_band_limited

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "random_band_limited", counting)
    args = ["changevars", "--changevars.scale_min", "3", "--changevars.scale_max", "1"]
    assert run(args + ["--outdir", str(tmp_path)]) == CONFIG_ERROR
    assert capsys.readouterr().err.startswith("error: empty scale range")
    assert calls == []


@pytest.mark.parametrize(
    "args",
    [
        ["--changevars.scale_min", "-1"],
        ["--changevars.shift_scale", "inf"],
        ["--changevars.band_max", "10"],
        ["--changevars.scale_max", "6"],
    ],
)
def test_changevars_out_of_range_values_synthesise_nothing(tmp_path, monkeypatch, args):
    import logmult.cli as cli

    calls = []
    monkeypatch.setattr(cli, "random_band_limited", lambda *a, **k: calls.append(a))
    assert run(["changevars"] + args + ["--outdir", str(tmp_path)]) == CONFIG_ERROR
    assert calls == []


def test_counterexample_fits_from_the_runs_it_reports(tmp_path, monkeypatch):
    import logmult.counterexample as cx

    runs = []
    original = cx.run_counterexample

    def counting(cfg, *args, **kwargs):
        runs.append(cfg.n_packets)
        return original(cfg, *args, **kwargs)

    monkeypatch.setattr(cx, "run_counterexample", counting)
    code = run(
        [
            "counterexample",
            "--counterexample.packets", "1 2 3",
            "--counterexample.samples", "16384",
            "--counterexample.period", "128",
            "--outdir", str(tmp_path),
        ]
    )
    assert code == PASS
    assert runs == [1, 2, 3]
    report = (tmp_path / "counterexample.report.txt").read_text()
    assert "ratio_slope" in report and "predicted_slope" in report


# ---------------------------------------------------------------------------
# fuzz: every leaf key malformed or default, exit code always 0, 1 or 2
# ---------------------------------------------------------------------------

# none of these parses to a grid, bank or sweep larger than the default: the
# integer keys reject "1e400", and a float period of 1e400 is not finite
MALFORMED = ("", "abc", "nan", "-1", "0", "1e400")

# valid values drawn in place of the defaults that size a run, so that no
# example runs a default-size experiment (growth at 2^20 points takes ~10 s)
SMALL = {
    "growth": {
        "grid": {"samples": "16384", "period": "4096"},
        "growth": {"ladder": "16 64 256 1024", "scale_max": "10", "n_random": "1"},
    },
    "changevars": {"changevars": {"configs": "6"}},
    "counterexample": {"counterexample": {"packets": "1 2", "samples": "16384", "period": "128"}},
}


@st.composite
def cli_argvs(draw):
    """A subcommand with each leaf key drawn from the malformed strings and one valid value.

    The valid value is the default, or a small one where the default sizes the
    run; it comes last, so the simplest example is all-malformed.
    """
    command = draw(st.sampled_from(sorted(DEFAULTS) + ["lambda", "plan"]))
    if command in ("lambda", "plan"):
        return [command] + draw(st.lists(st.sampled_from(MALFORMED + ("3", "4")), min_size=1, max_size=4))
    argv = [command]
    for section, keys in DEFAULTS[command].items():
        small = SMALL.get(command, {}).get(section, {})
        for key, default in keys.items():
            argv += [f"--{section}.{key}", draw(st.sampled_from(MALFORMED + (small.get(key, default),)))]
    return argv


@settings(max_examples=80, deadline=None)
@given(cli_argvs())
def test_cli_exit_code_contract_holds_for_malformed_values(argv):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as outdir:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv + ["--outdir", outdir])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# ---------------------------------------------------------------------------
# the key tables: every key parsed, constrained and named before any command runs
# ---------------------------------------------------------------------------

# text each parser class refuses; a key with a new parser needs an entry here
MALFORMED_TEXT = {
    int: ("", "abc", "4.5", "1e400", "0x10"),
    float: ("", "abc", "1.2.3", "1,5"),
    str: ("", "bogus"),  # every text key names one of a few choices
    cli._p: ("", "abc", "1/2"),
    cli._lam: ("", "abc", "sharpest"),
    cli._ints: ("", ",", "2 x", "2.5"),
    cli._floats: ("", ",", "1 x"),
}

# text past the range of a scale key, where 2.0**scale would overflow or a dilated support reach inf;
# kept small, since a larger out-of-range scale could run for long if the range check regressed
SCALE_KEYS = {
    "partition.scale_min", "partition.scale_max", "growth.scale_min", "growth.scale_max", "changevars.scale_min",
    "changevars.scale_max", "peetre.cube_scale", "peetre.bank_scale_min", "counterexample.offset",
    "counterexample.spacing",
}
OUT_OF_SCALE_TEXT = ("1e20", "2000")

TABLE_KEYS = [(command, name) for command, table in cli.TABLES.items() for name in table]


def _run_captured(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("command, name", TABLE_KEYS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_every_table_key_names_itself_when_malformed(command, name, data):
    texts = MALFORMED_TEXT[cli.TABLES[command][name].parse] + (OUT_OF_SCALE_TEXT if name in SCALE_KEYS else ())
    text = data.draw(st.sampled_from(texts))
    section, key = name.split(".")
    with tempfile.TemporaryDirectory() as tmp:
        ini, outdir = Path(tmp) / "run.ini", Path(tmp) / "out"
        ini.write_text(f"[{section}]\n{key} = {text}\n")
        for source in ([f"--{name}", text], ["--config", str(ini)]):
            code, err = _run_captured([command, *source, "--outdir", str(outdir)])
            assert code == CONFIG_ERROR, (source, err)
            assert name in err and "Traceback" not in err
            assert not outdir.exists()


@pytest.mark.parametrize(
    "command, name, text",
    [
        ("counterexample", "counterexample.packets", "2 1000000000"),
        ("counterexample", "counterexample.n", "1000000000"),
        ("changevars", "changevars.m_values", "1000000000"),
        ("peetre", "peetre.bank_size", "1000000000"),
        ("growth", "growth.n_random", "1000000000"),
    ],
)
def test_counts_that_size_an_allocation_are_bounded(command, name, text):
    # parsed only: a run with such a count would exhaust memory if its bound regressed
    section, key = name.split(".")
    overrides = [(section, key, text)] + [("counterexample", "mode", "reference")] * (command == "counterexample")
    with pytest.raises(ValueError, match=name):
        cli._parse_config(command, resolve_config(command, {}, overrides))


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["partition", "--grid.samples", str(2**40)], "grid.samples ** grid.dimension"),
        (["growth", "--grid.dimension", "2"], "grid.samples ** grid.dimension"),  # 2**20 samples per axis
        (["peetre", "--grid.samples", str(2**39)], "(2 * grid.samples) ** grid.dimension"),
        (["counterexample", "--counterexample.samples", str(2**40)], "counterexample.samples"),
    ],
)
def test_a_grid_over_the_size_cap_names_its_keys(tmp_path, argv, keys):
    # each grid holds 2**40 points: refused before any array or output directory exists
    code, err = _run_captured(argv + ["--outdir", str(tmp_path / "out")])
    assert code == CONFIG_ERROR and keys in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("ladder", ["16 64 256 nan", "16 inf"])
def test_a_non_finite_rung_names_the_ladder_before_any_synthesis(tmp_path, monkeypatch, ladder):
    from logmult.shifted_lab import GrowthExperiment

    banks = []
    original = GrowthExperiment.make_bank
    monkeypatch.setattr(GrowthExperiment, "make_bank", lambda self: banks.append(1) or original(self))
    code, err = _run_captured(["growth", "--growth.ladder", ladder, "--outdir", str(tmp_path)])
    assert code == CONFIG_ERROR and "growth.ladder" in err
    assert banks == []


@pytest.mark.parametrize("mode, packets", [("identity", "6 4 2"), ("separation", "1 2 2")])
def test_a_packet_list_the_fit_refuses_is_refused_before_any_run(tmp_path, monkeypatch, mode, packets):
    runs = []
    original = cx.run_counterexample
    monkeypatch.setattr(cx, "run_counterexample", lambda cfg, *a, **k: runs.append(cfg.n_packets) or original(cfg, *a, **k))
    argv = ["counterexample", "--counterexample.mode", mode, "--counterexample.packets", packets]
    code, err = _run_captured(argv + ["--outdir", str(tmp_path)])
    assert code == CONFIG_ERROR and "counterexample.packets" in err
    assert runs == []


@pytest.mark.parametrize("mode, packets", [("identity", "4 2"), ("separation", "2"), ("reference", "6 4 2")])
def test_packet_lists_that_are_not_fitted_keep_their_order(mode, packets):
    overrides = [("counterexample", "mode", mode), ("counterexample", "packets", packets)]
    values = cli._parse_config("counterexample", resolve_config("counterexample", {}, overrides))
    assert values["counterexample"]["packets"] == [int(n) for n in packets.split()]


@pytest.mark.parametrize(
    "command, overrides, admitted",
    [
        ("growth", [("grid", "samples", str(2**27))], True),
        ("growth", [("grid", "samples", str(2**28))], False),
        ("partition", [("grid", "dimension", "2"), ("grid", "samples", str(2**13))], True),
        ("partition", [("grid", "dimension", "2"), ("grid", "samples", str(2**14))], False),
        ("peetre", [("grid", "samples", str(2**26))], True),  # its twice-refined grid holds 2**27 points
        ("peetre", [("grid", "samples", str(2**27))], False),
        ("counterexample", [("counterexample", "samples", str(2**27))], True),
        ("counterexample", [("counterexample", "samples", str(2**28))], False),
    ],
)
def test_the_grid_size_cap_admits_2_to_the_27_points(command, overrides, admitted):
    # parsed only, so no grid is allocated; every default runs in the tests above
    config = resolve_config(command, {}, overrides)
    if admitted:
        cli._parse_config(command, config)
    else:
        with pytest.raises(ValueError, match="points per grid"):
            cli._parse_config(command, config)


def test_reference_packets_just_past_the_cap_name_the_key(tmp_path):
    argv = ["counterexample", "--counterexample.mode", "reference", "--counterexample.packets", "103"]
    code, err = _run_captured(argv + ["--outdir", str(tmp_path)])
    assert code == CONFIG_ERROR and "counterexample.packets" in err


@pytest.mark.parametrize(
    "ini, named",
    [
        ("[partition]\nscale_mx = 2\n", "partition.scale_mx"),  # a typo'd key
        ("[bogus]\nscale_max = 2\n", "[bogus]"),  # a section no partition key lives in
        ("[bogus]\n", "[bogus]"),
        ("[DEFAULT]\nseed = 5\n[partition]\nscale_max = 2\n", "[DEFAULT]"),  # no key is copied into [partition]
    ],
)
def test_unknown_file_keys_and_sections_are_config_errors(tmp_path, ini, named):
    (tmp_path / "run.ini").write_text(ini)
    code, err = _run_captured(["partition", "--config", str(tmp_path / "run.ini"), "--outdir", str(tmp_path / "out")])
    assert code == CONFIG_ERROR and named in err
    assert not (tmp_path / "out").exists()


def test_config_values_are_literal(tmp_path):
    (tmp_path / "run.ini").write_text("[partition]\nscale_max = %(nope)s\n")
    code, err = _run_captured(["partition", "--config", str(tmp_path / "run.ini"), "--outdir", str(tmp_path)])
    assert code == CONFIG_ERROR
    assert "partition.scale_max" in err and "'%(nope)s'" in err and "Traceback" not in err


def test_identity_mode_applies_lam(tmp_path):
    args = [
        "counterexample",
        "--counterexample.packets", "1 2 3",
        "--counterexample.samples", "16384",
        "--counterexample.period", "128",
        "--counterexample.lam", "0.3",
    ]
    assert run(args + ["--outdir", str(tmp_path)]) == PASS
    cfg = cx.identity_config()
    predicted = float(lambda_st(cfg.ptuple, 1, 2)) - 0.3
    assert f"    predicted_slope = {predicted!r}\n" in (tmp_path / "counterexample.report.txt").read_text()


def test_a_default_counterexample_run_builds_each_config_once(tmp_path, monkeypatch):
    made = []
    post_init = cx.CxConfig.__post_init__

    def counting(self):
        made.append(self.n_packets)
        post_init(self)

    monkeypatch.setattr(cx.CxConfig, "__post_init__", counting)
    assert run(["counterexample", "--outdir", str(tmp_path)]) == PASS
    assert made == [2, 4, 6]


@pytest.mark.parametrize(
    "args, note",
    [
        (["--counterexample.n", "4"], "witness lambda_st = 1/2 and not the sharp exponent 3/4: "
         "counterexample_slots names the pair (1, 5)"),
        (["--counterexample.n", "3"], None),
        (["--counterexample.mode", "separation"], None),
    ],
    ids=["identity-n4", "identity-n3", "separation"],
)
def test_a_note_says_when_the_trains_miss_the_sharp_pair(tmp_path, args, note):
    args = ["counterexample", "--counterexample.packets", "2", *args, "--outdir", str(tmp_path)]
    assert run(args) == PASS
    lines = [line for line in (tmp_path / "counterexample.report.txt").read_text().splitlines() if "slots (1, 2)" in line]
    assert lines == ([] if note is None else [f"  note: the trains in slots (1, 2) {note}"])


def test_separation_report_shows_the_bilinear_n(tmp_path):
    args = ["counterexample", "--counterexample.mode", "separation", "--counterexample.packets", "1 2"]
    assert run(args + ["--outdir", str(tmp_path)]) == PASS
    assert "\n    n = 2\n" in (tmp_path / "counterexample.report.txt").read_text()


def test_an_outdir_that_cannot_be_made_is_a_config_error(tmp_path):
    (tmp_path / "taken").write_text("")
    code, err = _run_captured(["lambda", "4", "4", "4", "--outdir", str(tmp_path / "taken")])
    assert code == CONFIG_ERROR and err.startswith("error: ") and "Traceback" not in err
