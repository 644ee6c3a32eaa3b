"""End-to-end command-line behavior, exit codes, and output formats."""

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import cycosc
from cycosc import DomainError, cli, fock
from cycosc.cli import MAX_ENTRIES, SUITES, build_parser, main


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

    def test_unresolved_period_advises_a_resolving_nmax(self):
        # gamma spreads over 10 here, so 3 lam = 9 levels resolve no period.
        argv = ["spectrum", "--lambda", "3", "--alpha", "20,-0.9"]
        rc, out, err = call([*argv, "--nmax", "9"])
        assert (rc, out) == (2, "")
        assert err == "error: n_max = 9 leaves no fully resolved period; use n_max >= 14\n"
        rc, out, _ = call([*argv, "--nmax", "14"])
        assert rc == 0
        assert out.splitlines()[-1].startswith("# pattern=2-fold,")

    def test_empty_ladder_advises_a_resolving_nmax(self):
        rc, out, err = call(["spectrum", "--lambda", "3", "--alpha", "20,-0.9", "--nmax", "1"])
        assert (rc, out) == (2, "")
        assert err == "error: n_max = 1 leaves a ladder empty; use n_max >= 14\n"

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

    def test_malformed_params_file(self, tmp_path):
        path = tmp_path / "bad.json"
        for content, message in [
            (b"{not json", "malformed params file"),
            (b'\xff\xfe{"lambda": 3}', "malformed params file"),
            (b"[" * 100000 + b"]" * 100000, "malformed params file"),
            (b'{"lambda": Infinity, "alpha": [0.5, 0.1]}', "lambda must be an integer"),
            (b'{"lambda": 3.9, "alpha": [0.5, 0.1]}', "lambda must be an integer"),
            (b'{"lambda": 3, "alpha": "05"}', "alpha must be a list of numbers"),
            (b'{"lambda": 3, "alpha": {"0.5": 1, "0.1": 2}}', "alpha must be a list of numbers"),
            (b'{"lambda": 3, "alpha": [Infinity, -Infinity, 0]}', "must be finite"),
            (b'{"lambda": 3, "alpha": [1e308, 1e308, -1e308]}', "float64 range"),
        ]:
            path.write_bytes(content)
            rc, out, err = call(["spectrum", "--params", str(path)])
            assert (rc, out) == (2, ""), content[:50]
            assert len(err.splitlines()) == 1, err
            assert message in err

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
        # Tracing wraps these names on their defining modules, so each suite must
        # look them up there when it runs.
        build, check = SUITE_CALLS[suite]
        calls = []
        for name in (build, check):
            original = getattr(cycosc, name)

            def record(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(importlib.import_module(original.__module__), name, record)
        lam, alpha = {"klein": ("2", "0.5"), "ossqm": ("3", "0.5,-1")}.get(suite, ("3", "0.5,0.1"))
        rc, _, err = run(
            capsys, "verify", "--suite", suite, "--lambda", lam, "--alpha", alpha, "--dim", "24"
        )
        assert rc in (0, 1), err
        assert calls == [build, check]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "algebra", "--lambda", "3", "--alpha", "0.1,0.2", "--dim", "24"],
            ["dump", "--lambda", "3", "--alpha", "0.1,0.2", "--dim", "24"],
        ],
    )
    def test_out_of_memory_is_bad_input(self, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(fock, "build_rep", refuse)
        rc, out, err = call(argv)
        assert rc == 2
        assert out == ""
        assert err.count("\n") == 1 and "--dim" in err
        assert "Traceback" not in err


# One window-valid order and alpha per suite: the hierarchy suites need the
# window, ossqm needs alpha_1 = -1, and klein order 2.
SMALLEST_DIM_SUITES = [
    ("algebra", 2, "0.5"), ("algebra", 3, "0.5,0.25"), ("algebra", 4, "0.3,-0.2,0.4"),
    ("algebra", 5, "0.3,-0.2,0.4,0.1"), ("klein", 2, "0.5"),
    ("partners", 2, "0.5"), ("partners", 3, "0.5,0.25"), ("partners", 4, "0.3,-0.2,0.4"),
    ("partners", 5, "0.3,-0.2,0.4,0.1"),
    ("sqm2", 2, "0.5"), ("sqm2", 3, "0.5,0.25"), ("sqm2", 4, "0.3,-0.2,0.4"),
    ("sqm2", 5, "0.3,-0.2,0.4,0.1"),
    ("pssqm", 3, "0.5,0.25"), ("pssqm", 4, "0.3,-0.2,0.4"), ("pssqm", 5, "0.3,-0.2,0.4,0.1"),
    ("pssqm-cubic", 3, "0.5,0.25"), ("pseudo1", 3, "0.5,0.25"), ("pseudo2", 3, "0.5,0.25"),
    ("ossqm", 3, "0.5,-1"),
]


class TestSmallestDims:
    @pytest.mark.parametrize("extra", [0, 1])
    @pytest.mark.parametrize("suite, lam, alpha", SMALLEST_DIM_SUITES)
    def test_every_suite_reports(self, suite, lam, alpha, extra):
        # dim = 2 lam is the smallest build_rep and build_hierarchy accept.
        argv = ["verify", "--suite", suite, "--lambda", str(lam), "--alpha", alpha, "--dim", str(2 * lam + extra)]
        rc, out, err = call(argv)
        assert rc in (0, 1), (argv, rc, err)
        assert out.splitlines()[-1].startswith(f"suite {suite}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            "verify --suite pssqm --lambda 3 --alpha 0.25,0 --dim 6",
            "verify --suite pssqm-cubic --lambda 3 --alpha 0.25,0 --dim 6",
            "verify --suite pssqm --lambda 5 --alpha 0.3,-0.2,0.1,0.25 --dim 11",
        ],
    )
    def test_nonzero_entries_pass_where_the_kept_block_holds_none(self, argv):
        # The kept block holds no nonzero entry of Q^p (or Q) here; the whole
        # matrix does, and truncation leaves every row of it exact.
        rc, out, err = call(argv.split())
        assert rc == 0, (out, err)


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

    def test_unresolved_points_flagged_not_fatal(self, tmp_path):
        argv = ["sweep", "--lambda", "3", "--grid", "a0=0:60:30,a1=-0.9:-0.9:1", "--nmax", "9"]
        rc, out, err = call(argv)
        assert (rc, err) == (0, "")
        header, rows = csv_rows(out)
        assert header == "alpha_0,alpha_1,valid,pattern,threshold_energy"
        assert rows[0].startswith("0.0,-0.9,true,nondegenerate,")
        assert rows[1:] == ["30.0,-0.9,true,,", "60.0,-0.9,true,,"]
        output = tmp_path / "out.csv"
        assert call([*argv, "--output", str(output)])[0] == 0
        assert output.read_text() == out

    def test_levels_float64_cannot_resolve_flagged_not_fatal(self):
        rc, out, err = call(["sweep", "--lambda", "2", "--grid", "a0=1e300:1e300:1"])
        assert (rc, err) == (0, "")
        assert csv_rows(out)[1] == ["1e+300,true,,"]

    def test_known_classification_row(self, capsys):
        rc, out, _ = run(
            capsys, "sweep", "--lambda", "3", "--grid", "a0=0:1:1,a1=3:4:1"
        )
        assert rc == 0
        _, rows = csv_rows(out)
        assert len(rows) == 4
        assert "0.0,4.0,true,2-fold,3.5" in rows

    def test_spectrum_and_sweep_share_the_cluster_tolerance(self, capsys):
        # 4.000000001 is 1e-9 from a 2-fold merge at 3.5: inside the default
        # tolerance of both commands.
        _, out, _ = run(capsys, "spectrum", "--lambda", "3", "--alpha", "0,4.000000001")
        assert out.splitlines()[-1].startswith("# pattern=2-fold,threshold_energy=3.5,")
        _, out, _ = run(
            capsys, "sweep", "--lambda", "3", "--grid", "a0=0:0:1,a1=4.000000001:4.000000001:1"
        )
        assert csv_rows(out)[1] == ["0.0,4.000000001,true,2-fold,3.5"]

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
            "a0=1e:2:1,a1=0:1:1",
            "a0=1e999:2e999:1,a1=0:1:1",
        ],
    )
    def test_malformed_grid_exits_2(self, capsys, grid):
        rc, _, err = run(capsys, "sweep", "--lambda", "3", "--grid", grid)
        assert rc == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--lambda", "1", "--grid", "a0=0:1:1"], "order must be >= 2, got 1"),
            (["--lambda", "2", "--grid", "a0=0:1:1", "--nmax", "0"], "leaves a ladder empty"),
        ],
    )
    def test_bad_arguments_write_nothing(self, tmp_path, argv, message):
        for output in ([], ["--output", str(tmp_path / "out.csv")]):
            rc, out, err = call(["sweep", *argv, *output])
            assert (rc, out) == (2, "")
            assert err.startswith("error: ") and len(err.splitlines()) == 1, err
            assert message in err
        assert not (tmp_path / "out.csv").exists()


# Run in a fresh interpreter where every numpy import fails: spectra and sweeps
# must not need it.  Prints each command's exit code and stdout, and new_params.
NO_NUMPY_SCRIPT = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import cycosc
from cycosc import cli
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append((cli.main(argv), out.getvalue()))
params = cycosc.new_params(3, [0.5, 0.25])
assert params == cycosc.AlgebraParams(lam=3, alpha=(0.5, 0.25, -0.75))
print(json.dumps({"runs": runs, "params": repr(params)}))
"""

# The kappa chart's round trip in such an interpreter; prints the parameters it returns.
KAPPA_NO_NUMPY_SCRIPT = """
import sys
sys.modules["numpy"] = None
import cycosc
params = cycosc.new_params(4, [0.3, -0.2, 0.4])
print(repr(cycosc.alpha_from_kappa(cycosc.kappa_from_alpha(params))))
"""


class TestWithoutNumpy:
    ARGVS = [
        ["spectrum", "--lambda", "3", "--alpha", "0.5,0.25", "--nmax", "12"],
        ["spectrum", "--lambda", "4", "--alpha", "0.3,-0.2,0.4", "--format", "json"],
        ["sweep", "--lambda", "3", "--grid", "a0=-0.5:1:0.25,a1=-0.5:1:0.5", "--nmax", "30"],
    ]

    def test_spectrum_and_sweep_run_without_numpy(self):
        src = os.path.dirname(os.path.dirname(cycosc.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", NO_NUMPY_SCRIPT, json.dumps(self.ARGVS)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        got = json.loads(proc.stdout)
        for argv, (rc, out) in zip(self.ARGVS, got["runs"]):
            expected_rc, expected_out, _ = call(argv)
            assert rc == expected_rc == 0, argv
            assert out == expected_out, argv
        assert got["params"] == repr(cycosc.new_params(3, [0.5, 0.25]))

    def test_kappa_round_trip_runs_without_numpy(self):
        src = os.path.dirname(os.path.dirname(cycosc.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", KAPPA_NO_NUMPY_SCRIPT],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        params = cycosc.new_params(4, [0.3, -0.2, 0.4])
        back = cycosc.alpha_from_kappa(cycosc.kappa_from_alpha(params))
        assert proc.stdout == repr(back) + "\n"
        assert max(abs(x - y) for x, y in zip(back.alpha, params.alpha)) <= 1e-12


class TestOperatorCommandsNeedNumpy:
    @pytest.mark.parametrize(
        "extra, message",
        [
            ([], "error: verify needs numpy, which is not installed\n"),
            # The budget is checked before dispatch, so no numpy is needed to refuse.
            (["--dim", "100000000"], f"error: argument --dim: 100000000 levels, more than {MAX_ENTRIES}\n"),
        ],
    )
    def test_verify_without_numpy_exits_2_in_one_line(self, extra, message):
        # -S leaves site-packages, where numpy is installed, off the path.
        probe = subprocess.run([sys.executable, "-S", "-c", "import numpy"], capture_output=True)
        if probe.returncode == 0:
            pytest.skip("numpy imports without site-packages")
        src = os.path.dirname(os.path.dirname(cycosc.__file__))
        proc = subprocess.run(
            [sys.executable, "-S", "-m", "cycosc.cli", "verify", "--suite", "algebra",
             "--lambda", "3", "--alpha", "0.5,0.25", *extra],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == message


# Sixty-three zeros: the head of a lam = 64 alpha.
ZEROS_63 = ",".join(["0"] * 63)

# Sizes just over MAX_ENTRIES (1 << 20), and the flag each is refused on.
OVER_BUDGET = [
    ("verify --suite algebra --lambda 2 --alpha 0.5 --dim 100000000", "--dim"),
    ("verify --suite ossqm --lambda 3 --alpha 0.5,-1 --dim 1048577", "--dim"),
    ("spectrum --lambda 3 --alpha 0.5,0.2 --nmax 100000000", "--nmax"),
    ("sweep --lambda 3 --grid a0=0:1:1,a1=0:1:1 --nmax 1048577", "--nmax"),
    ("hierarchy --lambda 2 --alpha 0.5 --nmax 1048577", "--nmax"),
    ("variant --kind pssqm --lambda 3 --alpha 0.5,0.25 --nmax 1048577", "--nmax"),
    # lam^2 dim = 25 x 41944 = 1048600 entries of the stacked P_mu P_nu band.
    ("verify --suite algebra --lambda 5 --alpha 0.3,-0.2,0.4,0.1 --dim 41944", "--dim"),
    # lam^2 dim = 4096 x 257 = 1052672 entries, for every verify, variant and
    # hierarchy command (the hierarchy and the parasupercharge form lam dim).
    (f"verify --suite partners --lambda 64 --alpha {ZEROS_63} --dim 257", "--dim"),
    (f"verify --suite pssqm --lambda 64 --alpha {ZEROS_63} --dim 257", "--dim"),
    (f"variant --kind pssqm --lambda 64 --alpha {ZEROS_63} --dim 257", "--dim"),
    (f"hierarchy --lambda 64 --alpha {ZEROS_63} --dim 257", "--dim"),
    # 9 x 116509 = 1048581 entries.
    ("verify --suite ossqm --lambda 3 --alpha 0.5,-1 --dim 116509", "--dim"),
    # (lam + 4) dim^2 = 6 x 419^2 = 1053366 dense entries.
    ("dump --lambda 2 --alpha 0.5 --dim 419", "--dim"),
]


class TestMemoryBudget:
    @pytest.fixture(autouse=True)
    def refuse_to_build(self, monkeypatch):
        # A size that passed the budget would fail here, before allocating.
        def refuse(*args, **kwargs):
            raise AssertionError("built past the budget")

        for module, name in [
            (fock, "build_rep"),
            (cycosc.shape_invariance, "build_hierarchy"),
            (cycosc.variants, "pssqm_build"),
            (cycosc.variants, "ossqm_build"),
            (cli, "analytic_spectrum"),
            (cli, "sweep"),
        ]:
            monkeypatch.setattr(module, name, refuse)

    @pytest.mark.parametrize("argv, flag", OVER_BUDGET)
    def test_over_budget_exits_2_in_one_line(self, argv, flag):
        rc, out, err = call(argv.split())
        assert (rc, out) == (2, "")
        assert err.startswith(f"error: argument {flag}: ") and err.count("\n") == 1, err

    def test_params_file_lambda_counts(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"lambda": 5, "alpha": [0.3, -0.2, 0.4, 0.1, -0.6]}))
        for command in (["verify", "--suite", "algebra", "--dim", "41944"], ["dump", "--dim", "419"]):
            rc, out, err = call([*command, "--params", str(path)])
            assert (rc, out) == (2, ""), err
            assert "more than 1048576" in err and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, suite, lam, dim",
        [
            ("verify", "ossqm", 3, MAX_ENTRIES // 9),
            ("verify", "algebra", 2, MAX_ENTRIES // 4),
            ("verify", "algebra", 5, MAX_ENTRIES // 25),
            ("verify", "partners", 64, MAX_ENTRIES // 4096),
            ("verify", "pssqm", 5, MAX_ENTRIES // 25),
            ("dump", None, 4, 362),
        ],
    )
    def test_budget_edge(self, command, suite, lam, dim):
        args = argparse.Namespace(command=command, suite=suite, lam=lam, dim=dim, nmax=MAX_ENTRIES)
        cli._require_sizes(args)
        args.dim = dim + 1
        with pytest.raises(DomainError, match="more than"):
            cli._require_sizes(args)


def run_aliased(*argv):
    """A child interpreter with tools/float64_longdouble first on PYTHONPATH, whose
    sitecustomize aliases np.longdouble and np.clongdouble to float64 and complex128,
    as where they are no wider."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(cycosc.__file__))
    path = os.pathsep.join([os.path.join(root, "tools", "float64_longdouble"), src])
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )


# Every suite but the parasupersymmetric ones, whose charge alone is built in np.longdouble.
# The pseudosupersymmetric suites evaluate one entry in it, whose residual alone may move.
EXTENDED_ENTRY = "Q Qdag Q = 4 c^2 Q H"
FLOAT64_SUITES = [
    "algebra --lambda 5 --alpha 0.3,-0.2,0.4,0.1",
    "klein --lambda 2 --alpha 0.7",
    "partners --lambda 5 --alpha 0.3,-0.2,0.4,0.1",
    "sqm2 --lambda 5 --alpha 0.3,-0.2,0.4,0.1 --mu 3",
    "pseudo1 --lambda 3 --alpha 0.5,0.1 --c 0.7 --eta 0.4 --phi 1.1",
    "pseudo2 --lambda 3 --alpha 0.5,0.1 --mu 1 --c -0.6",
    "ossqm --lambda 3 --alpha 0.5,-1 --xi 0.8 --phi 2.0",
]


class TestFloat64Longdouble:
    def test_the_alias_takes_effect(self):
        proc = run_aliased("-c", "import numpy as np; print(np.finfo(np.longdouble).nmant)")
        assert (proc.returncode, proc.stdout) == (0, "52\n"), proc.stderr

    @pytest.mark.parametrize("suite", FLOAT64_SUITES)
    def test_verify_prints_the_native_bytes(self, capsys, suite):
        argv = ["verify", "--format", "json", "--dim", "480", "--suite", *suite.split()]
        proc = run_aliased("-m", "cycosc.cli", *argv)
        rc, out, _ = run(capsys, *argv)
        assert proc.returncode == rc == 0, out
        if not suite.startswith("pseudo"):
            assert proc.stdout == out
        aliased, native = json.loads(proc.stdout), json.loads(out)
        for doc in (aliased, native):
            for r in doc["relations"]:
                if r["name"] == EXTENDED_ENTRY:
                    r["residual"] = None
        assert aliased == native

    def test_pssqm_range_error_is_one_line(self):
        # 2 F(n) overflows float64 here, so the range check must come before Q is formed.
        proc = run_aliased(
            "-W", "error::RuntimeWarning", "-m", "cycosc.cli",
            "variant", "--kind", "pssqm", "--lambda", "3", "--alpha", "1e308,0",
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert "--alpha" in proc.stderr


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
            # Alpha and r_mu whose Hamiltonian levels leave float64 range.
            (
                ("variant", "--kind", "pseudo2", "--lambda", "3", "--alpha", "1e308,-1e308", "--mu", "2",
                 "--r", "0", "--c", "1e-200"),
                "non-finite shift or level",
            ),
            # An --alpha entry that is not a number.
            (("spectrum", "--lambda", "3", "--alpha", "1,x"), "--alpha"),
            # Levels float64 spaces by more than --tol, where clusters would be rounding.
            (("spectrum", "--lambda", "2", "--alpha", "1e16"), "apart in float64, more than tol = 1e-09"),
            (("spectrum", "--lambda", "2", "--alpha", "1e300"), "apart in float64"),
            (("spectrum", "--lambda", "3", "--alpha", "1e300,-1e300"), "apart in float64"),
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
    "--dim": (1, lambda draw: str(draw(st.sampled_from([60, 24, 64, 7, 0, -4, 4])))),
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
    # Reduced an empty array: at dim 2 lam, partners keeps no level spacing.
    @example(["verify", "--suite", "partners", "--lambda", "2", "--alpha", "0.5", "--dim", "4"])
    def test_exit_code_documented_and_no_traceback(self, argv):
        rc, out, err = call(argv)
        assert rc in (0, 1, 2, 3), (argv, rc, err)
        assert "Traceback" not in err
        assert "RuntimeWarning" not in err, (argv, err)
        # No NaN or Infinity in JSON output.
        if rc in (0, 1) and (argv[0] in ("variant", "dump") or "json" in argv):
            json.loads(out, parse_constant=reject_constant)
