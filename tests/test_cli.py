import contextlib
import filecmp
import io
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from logmult.cli import (
    CONFIG_ERROR,
    DEFAULTS,
    PASS,
    cmd_lambda,
    cmd_plan,
    main,
    resolve_config,
)


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


def test_growth_command_small(tmp_path):
    code = run(
        [
            "growth",
            "--grid.samples", "65536",
            "--grid.period", "4096",
            "--growth.ladder", "16 64 256 1024",
            "--growth.scale_max", "10",
            "--growth.tolerance", "0.4",
            "--growth.n_random", "1",
            "--outdir", str(tmp_path),
        ]
    )
    assert code == PASS
    report = (tmp_path / "growth-shifted-maximal.report.txt").read_text()
    assert "predicted_exponent = 0.5" in report
    assert "fitted_exponent" in report


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
        ["growth", "--grid.period", "1e400"],
        # NaN exponents
        ["growth", "--growth.p", "nan"],
        ["counterexample", "--counterexample.lam", "nan"],
    ],
)
def test_degenerate_lists_and_ranges_are_config_errors(tmp_path, capsys, args):
    assert run(args + ["--outdir", str(tmp_path)]) == CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / f"{args[0]}.report.txt").exists()


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
