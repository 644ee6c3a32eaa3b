"""End-to-end command-line behavior, exit codes, and output formats."""

import contextlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cycosc.cli import SUITES, VARIANT_KINDS, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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
        ],
    )
    def test_bad_value_exits_2_naming_flag(self, capsys, argv, flag):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        err = capsys.readouterr().err
        assert rc == 2
        assert flag in err
        assert "Traceback" not in err


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


@st.composite
def cli_argv(draw):
    """An argv over every subcommand, suite and kind with fuzzed numeric flags.

    Orders and alpha lengths are mostly valid, so that calls reach the
    builders and checks; --dim stays <= 64 and sweep grids at most 4 points
    per axis, so each call is quick.
    """
    command = draw(st.sampled_from(["spectrum", "verify", "sweep", "hierarchy", "variant", "dump"]))
    lam = draw(st.sampled_from([3, 2, 4, 5, 3, 1, 0, -1]))
    argv = [command, "--lambda", str(lam)]
    if command == "sweep":
        bounds = st.sampled_from(["-0.5", "0", "0.5", "1", "1e400", "nan"])
        steps = st.sampled_from(["0.5", "1", "0", "-1", "inf", "1e400"])
        axes = range(lam - 1) if draw(st.integers(0, 3)) else range(draw(st.integers(0, 3)))
        argv += ["--grid", ",".join(
            f"a{k}={draw(bounds)}:{draw(bounds)}:{draw(steps)}" for k in axes
        ) or "a0=0:1:1"]
    else:
        count = max(lam - 1, 0) if draw(st.integers(0, 3)) else draw(st.integers(0, 5))
        argv += ["--alpha", ",".join(number_text(draw) for _ in range(count)) or "0"]
        argv += ["--dim", str(draw(st.sampled_from([60, 24, 64, 7, 0, -4])))]
        argv += ["--format", draw(st.sampled_from(["csv", "json"]))]
    if command == "verify":
        argv += ["--suite", draw(st.sampled_from(SUITES))]
    if command == "variant":
        argv += ["--kind", draw(st.sampled_from(VARIANT_KINDS))]
    if command in ("verify", "variant"):
        argv += ["--mu", str(draw(st.integers(min_value=-1, max_value=4)))]
        for flag in ("--c", "--eta", "--phi", "--xi", "--r"):
            if draw(st.integers(0, 2)) == 0:
                scale = flag == "--c" and draw(st.booleans())
                argv += [flag, draw(SCALE_TEXT) if scale else number_text(draw)]
    argv += ["--nmax", str(draw(st.sampled_from([20, 5, 70, 0, 20, -1])))]
    if draw(st.booleans()):
        argv += ["--tol", draw(st.sampled_from(["1e-10", "1e-12", "0.5", "1e-9", "0", "nan"]))]
    return argv


class TestFuzz:
    @settings(
        max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(cli_argv())
    # Wrote Infinity residuals before huge c was rejected.
    @example(["variant", "--kind", "pseudo2", "--lambda", "3", "--alpha", "0,0", "--c", "1e150"])
    def test_exit_code_documented_and_no_traceback(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
        assert rc in (0, 1, 2, 3), (argv, rc, err.getvalue())
        assert "Traceback" not in err.getvalue()
        # No NaN or Infinity in JSON output.
        if rc in (0, 1) and (argv[0] in ("variant", "dump") or "json" in argv):
            json.loads(out.getvalue(), parse_constant=reject_constant)
