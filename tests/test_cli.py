"""End-to-end command-line behavior, exit codes, and output formats."""

import argparse
import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cycosc import cli
from cycosc.cli import SUITES, build_parser, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def call(argv):
    """main(argv) in-process: exit code, stdout and stderr, with every warning
    written to stderr as the interpreter would print it outside the tests."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                rc = main(list(argv))
            except SystemExit as exc:
                rc = exc.code
    shown = "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught
    )
    return rc, out.getvalue(), shown + err.getvalue()


def csv_rows(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    return lines[0], lines[1:]


class TestSpectrum:
    def test_csv_shape_and_first_level(self, capsys):
        rc, out, _ = run(
            capsys, "spectrum", "--lambda", "3", "--alpha", "1.0,-0.5", "--nmax", "8"
        )
        assert rc == 0
        header, rows = csv_rows(out)
        assert header == "n,k,mu,energy"
        assert len(rows) == 9
        assert rows[0] == "0,0,0,1.0"
        assert rows[3] == "3,1,0,4.0"
        assert out.strip().splitlines()[-1].startswith("# pattern=")

    def test_harmonic_ladder(self, capsys):
        rc, out, _ = run(
            capsys, "spectrum", "--lambda", "2", "--alpha", "0", "--nmax", "3"
        )
        assert rc == 0
        _, rows = csv_rows(out)
        assert [r.split(",")[-1] for r in rows] == ["0.5", "1.5", "2.5", "3.5"]

    def test_invalid_parameters_exit_code(self, capsys):
        rc, _, err = run(capsys, "spectrum", "--lambda", "3", "--alpha", "-2,0")
        assert rc == 2
        assert "invalid parameters" in err
        assert "mu = 1" in err

    def test_csv_and_json_carry_identical_values(self, capsys):
        args = ("spectrum", "--lambda", "3", "--alpha", "0.7,-0.2", "--nmax", "12")
        rc, out_csv, _ = run(capsys, *args)
        assert rc == 0
        _, rows = csv_rows(out_csv)
        csv_energies = [float(r.split(",")[3]) for r in rows]
        rc, out_json, _ = run(capsys, *args, "--format", "json")
        assert rc == 0
        obj = json.loads(out_json)
        json_energies = [lvl["energy"] for lvl in obj["levels"]]
        assert csv_energies == json_energies
        assert set(obj["classification"]) == {
            "pattern",
            "threshold_energy",
            "stabilized",
            "uniform_spacing",
        }

    def test_params_file_source(self, capsys, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"lambda": 3, "alpha": [1.0, -0.5, -0.5]}))
        rc, out, _ = run(capsys, "spectrum", "--params", str(path), "--nmax", "9")
        assert rc == 0
        _, rows = csv_rows(out)
        assert rows[0].endswith(",1.0")

    def test_params_sources_are_exclusive(self, capsys, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"lambda": 2, "alpha": [0.5, -0.5]}))
        rc, _, err = run(
            capsys, "spectrum", "--params", str(path), "--lambda", "2", "--alpha", "0.5"
        )
        assert rc == 2
        assert "mutually exclusive" in err

    def test_params_required_somewhere(self, capsys):
        rc, _, err = run(capsys, "spectrum")
        assert rc == 2
        assert "--params" in err

    def test_missing_params_file_is_io_error(self, capsys, tmp_path):
        rc, _, err = run(capsys, "spectrum", "--params", str(tmp_path / "nope.json"))
        assert rc == 3
        assert "i/o error" in err

    def test_malformed_params_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc, _, err = run(capsys, "spectrum", "--params", str(path))
        assert rc == 2
        assert "malformed params file" in err

    def test_output_flag_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "spec.csv"
        rc, out, _ = run(
            capsys,
            "spectrum", "--lambda", "2", "--alpha", "0.5",
            "--nmax", "3", "--output", str(out_path),
        )
        assert rc == 0
        assert out == ""
        header, rows = csv_rows(out_path.read_text())
        assert header == "n,k,mu,energy"
        assert len(rows) == 4

    def test_unwritable_output_is_io_error(self, capsys, tmp_path):
        rc, _, err = run(
            capsys,
            "spectrum", "--lambda", "2", "--alpha", "0.5",
            "--output", str(tmp_path / "no" / "dir" / "x.csv"),
        )
        assert rc == 3
        assert "i/o error" in err


# Per suite, the package functions its runner builds and checks with.
SUITE_CALLS = {
    "algebra": ("build_rep", "check_relations"),
    "klein": ("build_rep", "klein_reduction_check"),
    "partners": ("build_hierarchy", "partner_check"),
    "sqm2": ("build_hierarchy", "sqm2_check"),
    "pssqm": ("pssqm_build", "pssqm_check"),
    "pssqm-cubic": ("pssqm_build", "pssqm_cubic_check"),
    "pseudo1": ("pseudo_family1_build", "pseudo_check"),
    "pseudo2": ("pseudo_family2_build", "pseudo_check"),
    "ossqm": ("ossqm_build", "ossqm_check"),
}


class TestVerify:
    def test_algebra_suite_passes(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "--suite", "algebra", "--lambda", "3",
            "--alpha", "1.0,-0.5", "--dim", "40",
        )
        assert rc == 0
        assert "suite algebra: OK" in out

    def test_klein_suite_passes(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "--suite", "klein", "--lambda", "2",
            "--alpha", "0.5", "--dim", "40",
        )
        assert rc == 0

    def test_partner_and_block_suites(self, capsys):
        for suite in ("partners", "sqm2"):
            rc, out, _ = run(
                capsys, "verify", "--suite", suite, "--lambda", "3",
                "--alpha", "0.5,0.1", "--dim", "40", "--tol", "1e-12",
            )
            assert rc == 0, (suite, out)

    def test_cubic_fails_off_locus(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "--suite", "pssqm-cubic", "--lambda", "3",
            "--alpha", "0,0", "--dim", "40",
        )
        assert rc == 1
        assert "FAIL" in out

    def test_cubic_passes_on_locus(self, capsys):
        rc, _, _ = run(
            capsys, "verify", "--suite", "pssqm-cubic", "--lambda", "3",
            "--alpha", "0.5,0.5", "--dim", "40",
        )
        assert rc == 0

    def test_pseudo1_defaults_pass(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "--suite", "pseudo1", "--lambda", "3",
            "--alpha", "1.0,-0.5", "--dim", "40",
        )
        assert rc == 0
        assert "suite pseudo1: OK" in out

    def test_ossqm_constraint_violation_exits_2(self, capsys):
        rc, _, err = run(
            capsys, "verify", "--suite", "ossqm", "--lambda", "3",
            "--alpha", "0,0", "--mu", "1",
        )
        assert rc == 2
        assert "alpha_2" in err

    def test_ossqm_passes_with_constraint(self, capsys):
        rc, _, _ = run(
            capsys, "verify", "--suite", "ossqm", "--lambda", "3",
            "--alpha", "0.5,0.5", "--mu", "1", "--xi", "1.0", "--dim", "40",
        )
        assert rc == 0

    def test_json_report_shape(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "--suite", "algebra", "--lambda", "2",
            "--alpha", "0.5", "--dim", "30", "--format", "json",
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["suite"] == "algebra"
        assert obj["ok"] is True
        assert all({"name", "residual", "pass"} <= set(r) for r in obj["relations"])

    @pytest.mark.parametrize("suite", list(SUITES))
    def test_suite_calls_its_builder_and_check_through_the_module(self, capsys, monkeypatch, suite):
        # Tracing wraps these names on cycosc.cli, so each suite must look them up there.
        build, check = SUITE_CALLS[suite]
        calls = []
        for name in (build, check):
            original = getattr(cli, name)

            def record(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, record)
        lam, alpha = {"klein": ("2", "0.5"), "ossqm": ("3", "0.5,-1")}.get(suite, ("3", "0.5,0.1"))
        rc, _, err = run(
            capsys, "verify", "--suite", suite, "--lambda", lam, "--alpha", alpha, "--dim", "24"
        )
        assert rc in (0, 1), err
        assert calls == [build, check]


class TestSweep:
    def test_grid_rows_and_flagged_invalid(self, capsys):
        rc, out, _ = run(
            capsys, "sweep", "--lambda", "2", "--grid", "a0=-1.5:-0.5:1", "--nmax", "30"
        )
        assert rc == 0
        header, rows = csv_rows(out)
        assert header == "alpha_0,valid,pattern,threshold_energy"
        assert rows[0] == "-1.5,false,,"
        assert rows[1].startswith("-0.5,true,nondegenerate,")

    def test_known_classification_row(self, capsys):
        rc, out, _ = run(
            capsys, "sweep", "--lambda", "3", "--grid", "a0=0:1:1,a1=3:4:1"
        )
        assert rc == 0
        _, rows = csv_rows(out)
        assert len(rows) == 4
        assert "0.0,4.0,true,2-fold,3.5" in rows

    def test_documented_grid_size(self, capsys):
        rc, out, _ = run(
            capsys,
            "sweep", "--lambda", "3",
            "--grid", "a0=-0.9:3:0.1,a1=-0.9:3:0.1", "--nmax", "12",
        )
        assert rc == 0
        _, rows = csv_rows(out)
        assert len(rows) == 1600

    @pytest.mark.parametrize(
        "grid",
        [
            "bogus",
            "a0=0:1:0.5",
            "a0=0:1:1,a0=0:1:1,a1=0:1:1",
            "a0=0:1:0,a1=0:1:1",
            "a0=1:0:0.5,a1=0:1:1",
            "a0=0:1:1,a1=0:1:1,a7=0:1:1",
        ],
    )
    def test_malformed_grid_exits_2(self, capsys, grid):
        rc, _, err = run(capsys, "sweep", "--lambda", "3", "--grid", grid)
        assert rc == 2
        assert "error:" in err


class TestHierarchy:
    def test_csv_rows_cover_wraparound_sector(self, capsys):
        rc, out, _ = run(
            capsys, "hierarchy", "--lambda", "2", "--alpha", "0.5",
            "--nmax", "3", "--dim", "30",
        )
        assert rc == 0
        header, rows = csv_rows(out)
        assert header == "sector,n,energy"
        assert len(rows) == 12
        assert rows[0] == "0,0,0.0"
        assert rows[4] == "1,0,1.5"
        assert rows[8] == "2,0,2.0"

    def test_nmax_must_fit_truncation(self, capsys):
        rc, _, err = run(
            capsys, "hierarchy", "--lambda", "2", "--alpha", "0.5",
            "--nmax", "60", "--dim", "30",
        )
        assert rc == 2
        assert "--nmax" in err

    def test_window_violation_exits_2(self, capsys):
        rc, _, err = run(capsys, "hierarchy", "--lambda", "3", "--alpha", "2.0,0")
        assert rc == 2
        assert "alpha_0" in err


class TestVariant:
    def test_pssqm_solution_document(self, capsys):
        rc, out, _ = run(
            capsys, "variant", "--kind", "pssqm", "--lambda", "3",
            "--alpha", "1.0,-0.5", "--mu", "1", "--dim", "40",
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["kind"] == "pssqm"
        assert obj["mu"] == 1
        assert len(obj["spectrum"]) == 21
        assert obj["ground_state"]["multiplicity"] == 2
        assert all(r["pass"] for r in obj["relations"])

    def test_failing_relation_exits_1_with_document(self, capsys):
        rc, out, _ = run(
            capsys, "variant", "--kind", "pssqm-cubic", "--lambda", "3",
            "--alpha", "0,0", "--dim", "40",
        )
        assert rc == 1
        obj = json.loads(out)
        assert any(not r["pass"] for r in obj["relations"])

    def test_ossqm_missing_family_exits_2(self, capsys):
        rc, _, err = run(
            capsys, "variant", "--kind", "ossqm", "--lambda", "3",
            "--alpha", "0,-1", "--mu", "2",
        )
        assert rc == 2
        assert "mu = 2" in err

    def test_pseudo2_defaults_to_equal_spacing(self, capsys):
        rc, out, _ = run(
            capsys, "variant", "--kind", "pseudo2", "--lambda", "3",
            "--alpha", "0,0", "--dim", "40", "--nmax", "5",
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["r_values"] == {"r_0": 3.0}
        assert obj["spectrum"] == [2.0, 2.0, 2.0, 5.0, 5.0, 5.0]


class TestDump:
    def test_matrix_payload(self, capsys):
        rc, out, _ = run(
            capsys, "dump", "--lambda", "2", "--alpha", "0.5", "--dim", "4"
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["lambda"] == 2
        assert obj["dim"] == 4
        a01 = obj["matrices"]["a"][0][1]
        assert a01[0] == pytest.approx(math.sqrt(1.5))
        assert a01[1] == 0.0


class TestArgHandling:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("spectrum", "--lambda", "3", "--alpha", "0.5,0.1", "--nmax", "-1"), "--nmax"),
            (("sweep", "--lambda", "2", "--grid", "a0=0:1:0.5", "--nmax", "-1"), "--nmax"),
            (("hierarchy", "--lambda", "2", "--alpha", "0.5", "--nmax", "-3"), "--nmax"),
            (
                ("variant", "--kind", "pssqm", "--lambda", "3", "--alpha", "0.5,0.1",
                 "--nmax", "-1"),
                "--nmax",
            ),
            (
                ("verify", "--suite", "algebra", "--lambda", "3", "--alpha", "0.5,0.1",
                 "--tol", "nan"),
                "--tol",
            ),
            (
                ("verify", "--suite", "algebra", "--lambda", "3", "--alpha", "0.5,0.1",
                 "--tol", "-1"),
                "--tol",
            ),
            (("spectrum", "--lambda", "3", "--alpha", "0.5,0.1", "--tol", "nan"), "--tol"),
            (("sweep", "--lambda", "2", "--grid", "a0=0:1:0.5", "--tol", "nan"), "--tol"),
            (("sweep", "--lambda", "2", "--grid", "a0=0:1:1e-13"), "--grid"),
            (("sweep", "--lambda", "3", "--grid", "a0=0:1:1e-3,a1=0:1:1e-3"), "--grid"),
            (("variant", "--kind", "pseudo2", "--lambda", "3", "--alpha", "0,0", "--r", "nan"), "--r"),
            (("variant", "--kind", "pseudo2", "--lambda", "3", "--alpha", "0,0", "--c", "inf"), "--c"),
            (
                ("verify", "--suite", "pseudo1", "--lambda", "3", "--alpha", "0,0",
                 "--eta", "-inf"),
                "--eta",
            ),
            (
                ("verify", "--suite", "ossqm", "--lambda", "3", "--alpha", "0.5,0.5",
                 "--mu", "1", "--xi", "nan"),
                "--xi",
            ),
            (("variant", "--kind", "ossqm", "--lambda", "3", "--alpha", "0,-1", "--phi", "inf"), "--phi"),
            # Finite, but pseudo_check's terms would leave float64 range.
            (("variant", "--kind", "pseudo2", "--lambda", "3", "--alpha", "0,0", "--c", "1e308"), "--c"),
            (("variant", "--kind", "pseudo2", "--lambda", "3", "--alpha", "0,0", "--c", "1e150"), "--c"),
            (("verify", "--suite", "pseudo1", "--lambda", "3", "--alpha", "0,0", "--c", "1e308"), "--c"),
            # Flags the subcommand does not read.
            (("spectrum", "--lambda", "3", "--alpha", "0,0", "--dim", "8"), "unrecognized arguments: --dim"),
            (
                ("verify", "--suite", "algebra", "--lambda", "3", "--alpha", "0,0", "--nmax", "5"),
                "unrecognized arguments: --nmax",
            ),
            (
                ("variant", "--kind", "pssqm", "--lambda", "3", "--alpha", "0,0", "--format", "csv"),
                "unrecognized arguments: --format",
            ),
            (("dump", "--lambda", "2", "--alpha", "0.5", "--tol", "1e-3"), "unrecognized arguments: --tol"),
            (("dump", "--lambda", "2", "--alpha", "0.5", "--nmax", "3"), "unrecognized arguments: --nmax"),
            (("dump", "--lambda", "2", "--alpha", "0.5", "--format", "json"), "unrecognized arguments: --format"),
            (("hierarchy", "--lambda", "2", "--alpha", "0.5", "--tol", "1e-3"), "unrecognized arguments: --tol"),
            # More levels than the truncation holds, as hierarchy rejects them.
            (
                ("variant", "--kind", "pssqm", "--lambda", "3", "--alpha", "0,0", "--dim", "8", "--nmax", "50"),
                "--nmax",
            ),
            # Finite entries whose sum, the derived last alpha, leaves float64 range.
            (("spectrum", "--lambda", "3", "--alpha", "1e308,1e308"), "float64 range"),
            # Valid alpha whose derived constants leave float64 range.
            (("variant", "--kind", "pssqm", "--lambda", "2", "--alpha", "1e308", "--mu", "1"), "non-finite shift"),
            (("verify", "--suite", "pseudo2", "--lambda", "3", "--alpha", "1e308,-1e308", "--mu", "2"), "r_mu"),
            # So small that family 1's 2 c^2 underflows to 0.
            (("verify", "--suite", "pseudo1", "--lambda", "3", "--alpha", "0,0", "--c", "1e-200"), "--c"),
            # Valid alpha whose parasupercharge check terms would leave float64 range.
            (("variant", "--kind", "pssqm", "--lambda", "3", "--alpha", "1e308,0"), "--alpha"),
            (("variant", "--kind", "pssqm-cubic", "--lambda", "3", "--alpha", "1e308,0"), "--alpha"),
        ],
    )
    def test_bad_value_exits_2_naming_flag(self, argv, flag):
        rc, _, err = call(argv)
        assert rc == 2
        assert flag in err
        assert "Traceback" not in err
        assert "Warning" not in err
        # One line, after argparse's usage text where argparse reports the error.
        if not err.startswith("usage:"):
            assert len(err.splitlines()) == 1, err


    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_leading_minus_alpha_token(self, capsys):
        # A separate `-2,0` token would normally be eaten as a flag.
        rc, _, err = run(capsys, "spectrum", "--lambda", "3", "--alpha", "-2,0")
        assert rc == 2
        assert "no Fock representation" in err

    def test_leading_minus_value_token(self, capsys):
        # argparse alone takes `-2e-1` and `-inf` for flags, not values.
        rc, out, _ = run(
            capsys, "verify", "--suite", "pseudo2", "--lambda", "3", "--alpha", "0,0",
            "--c", "-2e-1", "--dim", "30",
        )
        assert rc == 0
        assert "suite pseudo2: OK" in out
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "pseudo1", "--lambda", "3", "--alpha", "0,0",
                  "--eta", "-inf"])
        assert exc.value.code == 2
        assert "argument --eta: must be finite" in capsys.readouterr().err


# Numeric flag values as typed: mostly ordinary, sometimes negative, zero,
# huge or non-finite.
SPECIAL_TEXT = st.sampled_from(["nan", "inf", "-inf", "0", "-0.0", "-1", "1e308", "-1e308", "1e-320"])
ORDINARY_TEXT = st.floats(min_value=-0.9, max_value=2.0).map(repr)


# Any finite --c, up to 1e308 in magnitude.
SCALE_TEXT = st.floats(min_value=-1e308, max_value=1e308).map(repr)


def number_text(draw):
    return draw(SPECIAL_TEXT if draw(st.integers(0, 4)) == 0 else ORDINARY_TEXT)


def reject_constant(name):
    raise ValueError(f"{name} is not valid JSON")


SUBCOMMANDS = next(
    action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)
).choices


def flags_of(command):
    """Option string -> argparse action for each flag of the subcommand, except help."""
    return {
        opt: action
        for action in SUBCOMMANDS[command]._actions
        for opt in action.option_strings
        if opt not in ("-h", "--help")
    }


# Optional flag -> (k, value text): a subcommand that has the flag gets it in
# one example of k.
OPTIONAL_FLAGS = {
    "--dim": (1, lambda draw: str(draw(st.sampled_from([60, 24, 64, 7, 0, -4])))),
    "--format": (1, lambda draw: draw(st.sampled_from(["csv", "json"]))),
    "--mu": (1, lambda draw: str(draw(st.integers(min_value=-1, max_value=4)))),
    "--c": (3, lambda draw: draw(SCALE_TEXT) if draw(st.booleans()) else number_text(draw)),
    "--eta": (3, number_text),
    "--phi": (3, number_text),
    "--xi": (3, number_text),
    "--r": (3, number_text),
    "--nmax": (1, lambda draw: str(draw(st.sampled_from([20, 5, 70, 0, 20, -1])))),
    "--tol": (2, lambda draw: draw(st.sampled_from(["1e-10", "1e-12", "0.5", "1e-9", "0", "nan"]))),
}


@st.composite
def cli_argv(draw):
    """An argv over every subcommand, suite and kind with fuzzed numeric flags.

    Each subcommand gets the flags build_parser gives it; in about one example
    of ten it also gets one optional flag it lacks.  Orders and alpha lengths
    are mostly valid, so that calls reach the builders and checks; --dim stays
    <= 64 and sweep grids at most 4 points per axis, so each call is quick.
    """
    command = draw(st.sampled_from(list(SUBCOMMANDS)))
    flags = flags_of(command)
    lam = draw(st.sampled_from([3, 2, 4, 5, 3, 1, 0, -1]))
    argv = [command, "--lambda", str(lam)]
    if "--grid" in flags:
        bounds = st.sampled_from(["-0.5", "0", "0.5", "1", "1e400", "nan"])
        steps = st.sampled_from(["0.5", "1", "0", "-1", "inf", "1e400"])
        axes = range(lam - 1) if draw(st.integers(0, 3)) else range(draw(st.integers(0, 3)))
        argv += ["--grid", ",".join(
            f"a{k}={draw(bounds)}:{draw(bounds)}:{draw(steps)}" for k in axes
        ) or "a0=0:1:1"]
    if "--alpha" in flags:
        count = max(lam - 1, 0) if draw(st.integers(0, 3)) else draw(st.integers(0, 5))
        argv += ["--alpha", ",".join(number_text(draw) for _ in range(count)) or "0"]
    for flag in ("--suite", "--kind"):
        if flag in flags:
            argv += [flag, draw(st.sampled_from(list(flags[flag].choices)))]
    for flag, (k, value) in OPTIONAL_FLAGS.items():
        if flag in flags and draw(st.integers(0, k - 1)) == 0:
            argv += [flag, value(draw)]
    if draw(st.integers(0, 9)) == 0:
        lacking = draw(st.sampled_from([flag for flag in OPTIONAL_FLAGS if flag not in flags]))
        argv += [lacking, OPTIONAL_FLAGS[lacking][1](draw)]
    return argv


class TestFuzz:
    @settings(
        max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(cli_argv())
    # Wrote Infinity residuals before huge c was rejected.
    @example(["variant", "--kind", "pseudo2", "--lambda", "3", "--alpha", "0,0", "--c", "1e150"])
    # Divided by an underflowed 2 c^2.
    @example(["verify", "--suite", "pseudo1", "--lambda", "3", "--alpha", "0,0", "--c", "1e-200"])
    # Wrote an Infinity residual.
    @example(["variant", "--kind", "pssqm", "--lambda", "3", "--alpha", "1e308,0"])
    def test_exit_code_documented_and_no_traceback(self, argv):
        rc, out, err = call(argv)
        assert rc in (0, 1, 2, 3), (argv, rc, err)
        assert "Traceback" not in err
        assert "RuntimeWarning" not in err, (argv, err)
        # No NaN or Infinity in JSON output.
        if rc in (0, 1) and (argv[0] in ("variant", "dump") or "json" in argv):
            json.loads(out, parse_constant=reject_constant)
