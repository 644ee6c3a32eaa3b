"""The benchmark's workloads: inputs made from a seed, ops, and output checks.

Each workload is a closed loop in one process: the next op starts when the
previous one returns.  A pass is a fixed list of ops, so every pass has the
same mix.  Ops call the package only through its public functions, looked up
on the module at call time, so a traced run can wrap them.  Import this module
only after common.import_package().

- verify-dense: every relation suite at dim 240 and 480, lam = 2..5.  The
  dense O(dim^3) matmul path; sweeps and spectra never reach it.
- sweep-grid: spectrum.sweep at its defaults over lam = 2, 3, 4 grids, drawn
  as a stream.  Per-point Python clustering; builds no matrices.

The CLI script (CliDefault: every subcommand, verify suite and variant kind
through cli.main at the default dim 60) is not a timed workload: its figures
spread too far between runs on a shared 2-core machine.  Traced runs still
run one pass of it, so its layers are measured, and cold starts rerun its
first invocation.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import re
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

import reference as ref
from cycosc import algebra, cli, fock, shape_invariance, spectrum, variants

# The CLI's documented default check tolerance.
CLI_TOL = 1e-10


@dataclass
class Op:
    """One timed call into the package and the untimed check of its output.

    check returns (mismatches, floor_failures): wrong answers, and relations
    reported FAIL at the float64 rounding floor.
    """

    label: str
    dim: int | None
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], list[str]]]


def window_head(rng, lam: int, denom: int | None = None, margin: float = 0.05):
    """alpha_0..alpha_{lam-2} inside the shape-invariance window.

    -1 < alpha_0 < lam - 1 and -1 < alpha_mu < lam - mu - 1 - beta_mu, each
    with a margin, sampled entry by entry.  With denom, entries are multiples
    of 1/denom, so they print and parse exactly.
    """
    while True:
        head, total = [], 0.0
        for mu in range(lam - 1):
            lo, hi = -1.0 + margin, lam - mu - 1.0 - total - margin
            if hi <= lo:
                break
            value = float(rng.uniform(lo, hi))
            if denom is not None:
                value = round(value * denom) / denom
                if not lo <= value <= hi:
                    break
            head.append(value)
            total += value
        else:
            return head


def report_entries(report):
    return [(e.name, e.residual, e.passed, e.nonzero) for e in report.entries]


class VerifyDense:
    """Every relation suite on seeded valid parameters, dims 240 and 480."""

    name = "verify-dense"
    dims = (240, 480)
    tail_q = 0.9

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.suites = []
        for lam in (2, 3, 4, 5):
            head = window_head(rng, lam)
            params = algebra.new_params(lam, head)
            alpha = ref.full_alpha(head)
            mu = int(rng.integers(lam))
            self._add(f"algebra/lam{lam}", lambda d, p=params: fock.check_relations(fock.build_rep(p, d)))
            if lam == 2:
                self._add("klein/lam2", lambda d, p=params: fock.klein_reduction_check(fock.build_rep(p, d)))
            self._add(
                f"partners/lam{lam}",
                lambda d, p=params: shape_invariance.partner_check(shape_invariance.build_hierarchy(p, d)),
            )
            self._add(
                f"sqm2/lam{lam}",
                lambda d, p=params, mu=mu: shape_invariance.sqm2_check(shape_invariance.build_hierarchy(p, d), mu),
            )
            if lam >= 3:
                self._add(
                    f"pssqm/lam{lam}",
                    lambda d, p=params, mu=mu, order=lam - 1: variants.pssqm_check(variants.pssqm_build(p, mu, d), order),
                )
            if lam == 3:
                self._add(
                    "pssqm-cubic/lam3",
                    lambda d, p=params, mu=mu: variants.pssqm_cubic_check(variants.pssqm_build(p, mu, d)),
                    cubic=lambda d, a=alpha, mu=mu: ref.cubic_residual(a, mu, d),
                )
                self._add_pseudo(rng, params)
                self._add_ossqm(rng)

    def _add(self, label, run, cubic=None):
        self.suites.append((label, run, cubic))

    def _add_pseudo(self, rng, params):
        mu = int(rng.integers(3))
        c = float(rng.uniform(0.5, 2.0))
        eta = float(rng.uniform(0.1, 1.9)) * c
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        self._add(
            "pseudo1/lam3",
            lambda d: variants.pseudo_check(variants.pseudo_family1_build(params, mu, c, eta, phi, d), c),
        )
        self._add(
            "pseudo2/lam3",
            lambda d: variants.pseudo_check(
                variants.pseudo_family2_build(params, mu, c, variants.equal_spacing_r(params, mu), d), c
            ),
        )

    def _add_ossqm(self, rng):
        # Orthosupersymmetry needs alpha_{mu+1} = -1 exactly.
        mu = int(rng.integers(2))
        a0 = float(rng.uniform(-0.8, 1.5))
        params = algebra.new_params(3, [a0, -1.0] if mu == 0 else [a0, 1.0 - a0])
        xi = float(rng.uniform(0.1, math.sqrt(2.0)))
        phi = float(rng.uniform(0.0, 2.0 * math.pi))
        self._add("ossqm/lam3", lambda d: variants.ossqm_check(variants.ossqm_build(params, mu, xi, phi, d)))

    def pass_ops(self) -> Iterator[Op]:
        for dim in self.dims:
            for label, run, cubic in self.suites:
                yield Op(
                    f"{label}/dim{dim}",
                    dim,
                    lambda run=run, dim=dim: run(dim),
                    lambda report, cubic=cubic, dim=dim: ref.relation_problems(
                        report_entries(report), report.tol, cubic(dim) if cubic else None
                    ),
                )

    def warm_up(self) -> None:
        for _label, run, _cubic in self.suites:
            run(60)


class SweepGrid:
    """spectrum.sweep at its defaults over lam = 2, 3 and 4 grids.

    Every axis is -1 + (k - m) * step, k = 0..n-1.  The grids reach past the
    Fock boundary (F(mu) <= 0 exactly where the index sum is at most mu * m),
    and at lam = 3 and 4 they cross degenerate loci, so invalid, nondegenerate
    and degenerate points all occur (lam = 2 spectra are never degenerate).
    The seed picks the step; the count of invalid points depends only on
    (n, m), so every seed has the same mix of cheap invalid points and full
    classifications.
    """

    name = "sweep-grid"
    tail_q = 0.95
    # lam, points per axis n, invalid offset m, candidate steps.  Valid lam = 3
    # points, the slowest kind, are 73% of a pass, so the median and p95 fall
    # inside one kind of point rather than on the edge between two.
    GRIDS = (
        (2, 200, 20, (1 / 16, 1 / 32, 3 / 64)),
        (3, 60, 4, (3 / 32, 1 / 8, 3 / 16)),
        (4, 9, 2, (1 / 8, 3 / 16, 1 / 4)),
    )

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 2])
        self.grids = []
        for lam, n, m, steps in self.GRIDS:
            step = steps[int(rng.integers(len(steps)))]
            axis = [-1.0 + (k - m) * step for k in range(n)]
            self.grids.append((lam, [axis] * (lam - 1)))

    def pass_ops(self) -> Iterator[Op]:
        for lam, axes in self.grids:
            stream = spectrum.sweep(lam, axes)
            points = list(itertools.product(*axes))
            for i, point in enumerate(points):
                last = i == len(points) - 1
                yield Op(
                    f"sweep/lam{lam}",
                    None,
                    lambda stream=stream: next(stream),
                    lambda rec, point=point, stream=stream, last=last: self._check(rec, point, stream, last),
                )

    @staticmethod
    def _check(rec, point, stream, last):
        mismatches = []
        valid, pattern, threshold = ref.sweep_expectation(point)
        got = tuple(float(a) for a in rec.params.alpha[: len(point)])
        if got != tuple(point):
            mismatches.append(f"record for {got}, expected {point}")
        elif rec.valid != valid:
            mismatches.append(f"{point}: valid {rec.valid}, expected {valid}")
        elif valid and (
            rec.report.pattern != pattern
            or not ref.same_threshold(rec.report.threshold_energy, threshold)
        ):
            mismatches.append(
                f"{point}: {rec.report.pattern} at {rec.report.threshold_energy},"
                f" expected {pattern} at {threshold}"
            )
        if last and next(stream, None) is not None:
            mismatches.append("sweep yielded more records than grid points")
        return mismatches, []

    def warm_up(self) -> None:
        for lam, axes in self.grids:
            for _ in zip(range(20), spectrum.sweep(lam, axes)):
                pass


def invoke(argv: list[str]):
    """cli.main in-process with stdout and stderr captured in memory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _alpha_arg(head) -> str:
    return ",".join(repr(float(a)) for a in head)


def _close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol


_TEXT_RELATION = re.compile(r"^(?P<name>.*?)\s+residual (?P<res>\S+)\s+(?P<status>pass|FAIL)$")


def _relations_from_json(items):
    # The JSON carries no nonzero flag; those entries are the "... != 0" ones.
    return [(r["name"], float(r["residual"]), bool(r["pass"]), "!=" in r["name"]) for r in items]


def _relations_from_text(text: str):
    rows = []
    for line in text.splitlines():
        m = _TEXT_RELATION.match(line)
        if m:
            name = m["name"]
            rows.append((name, float(m["res"]), m["status"] == "pass", "!=" in name))
    return rows


class CliDefault:
    """A fixed script through cli.main at the default dim 60."""

    name = "cli-default"
    sweep_axis = (-1.25, 2.0, 0.25)

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        heads = {lam: window_head(rng, lam, denom=16) for lam in (2, 3, 4, 5)}
        a0 = round(float(rng.uniform(-0.8, 1.5)) * 16) / 16
        ortho = [a0, -1.0]
        mu3 = int(rng.integers(3))

        def args(lam, head=None):
            return ["--lambda", str(lam), "--alpha", _alpha_arg(head or heads[lam])]

        lo, hi, step = self.sweep_axis
        grid = ",".join(f"a{k}={lo}:{hi}:{step}" for k in range(2))
        s = self.script = []  # (label, argv, check)
        s.append(("spectrum/csv", ["spectrum", *args(3)], self._spectrum(heads[3], "csv")))
        s.append(("spectrum/json", ["spectrum", *args(4), "--format", "json"], self._spectrum(heads[4], "json")))
        s.append(("verify/algebra", ["verify", "--suite", "algebra", *args(4)], self._verify("text")))
        for suite, lam, extra, cubic in (
            ("klein", 2, [], None),
            ("partners", 3, [], None),
            ("sqm2", 3, ["--mu", str(mu3)], None),
            ("pssqm", 5, [], None),
            ("pssqm-cubic", 3, [], heads[3]),
            ("pseudo1", 3, [], None),
            ("pseudo2", 3, [], None),
        ):
            argv = ["verify", "--suite", suite, *args(lam), *extra, "--format", "json"]
            s.append((f"verify/{suite}", argv, self._verify("json", cubic)))
        s.append(
            ("verify/ossqm", ["verify", "--suite", "ossqm", *args(3, ortho), "--format", "json"], self._verify("json"))
        )
        s.append(("sweep/lam3", ["sweep", "--lambda", "3", "--grid", grid], self._sweep(lo, hi, step)))
        s.append(("hierarchy/csv", ["hierarchy", *args(3)], self._hierarchy(heads[3], "csv")))
        s.append(("hierarchy/json", ["hierarchy", *args(4), "--format", "json"], self._hierarchy(heads[4], "json")))
        for kind, lam, head, cubic in (
            ("pssqm", 4, None, None),
            ("pssqm-cubic", 3, None, heads[3]),
            ("pseudo1", 3, None, None),
            ("pseudo2", 3, None, None),
            ("ossqm", 3, ortho, None),
        ):
            argv = ["variant", "--kind", kind, *args(lam, head)]
            s.append((f"variant/{kind}", argv, self._variant(lam, cubic)))
        s.append(("dump/lam3", ["dump", *args(3)], self._dump(heads[3])))

    @property
    def cold_start_argv(self) -> list[str]:
        return self.script[0][1]

    @property
    def check_cold_start(self):
        """The output check of the first script entry, which cold starts rerun."""
        return self.script[0][2]

    def pass_ops(self) -> Iterator[Op]:
        for label, argv, check in self.script:
            yield Op(label, 60, lambda argv=argv: invoke(argv), check)

    def warm_up(self) -> None:
        for _label, argv, _check in self.script:
            invoke(argv)

    # Checkers take (rc, stdout, stderr) and return (mismatches, floor failures).

    @staticmethod
    def _spectrum(head, fmt):
        alpha = ref.full_alpha(head)
        pattern, threshold = ref.degeneracy(alpha)

        def check(result):
            rc, out, _err = result
            if rc != 0:
                return [f"exit {rc}"], []
            if fmt == "json":
                obj = json.loads(out)
                levels = [(l["n"], l["k"], l["mu"], l["energy"]) for l in obj["levels"]]
                cls = obj["classification"]
                got_pattern, got_threshold = cls["pattern"], cls["threshold_energy"]
            else:
                lines = out.splitlines()
                levels = [tuple(float(x) for x in line.split(",")) for line in lines[1:-1]]
                fields = dict(kv.split("=", 1) for kv in lines[-1].lstrip("# ").split(","))
                got_pattern = fields["pattern"]
                got_threshold = float(fields["threshold_energy"]) if fields["threshold_energy"] else None
            lam = len(alpha)
            bad = [
                n for n, k, mu, e in levels
                if (k, mu) != divmod(int(n), lam) or not _close(e, ref.energy(alpha, int(n)))
            ]
            problems = [f"{len(bad)} levels off E_n = n + gamma + 1/2"] if bad or not levels else []
            if got_pattern != pattern or not ref.same_threshold(got_threshold, threshold):
                problems.append(f"pattern {got_pattern} at {got_threshold}, expected {pattern} at {threshold}")
            return problems, []

        return check

    @staticmethod
    def _verify(fmt, cubic_head=None):
        def check(result):
            rc, out, _err = result
            if fmt == "json":
                obj = json.loads(out)
                entries, tol = _relations_from_json(obj["relations"]), float(obj["tol"])
            else:
                entries, tol = _relations_from_text(out), CLI_TOL
            return _relations_check(rc, entries, tol, cubic_head)

        return check

    @staticmethod
    def _variant(lam, cubic_head=None):
        def check(result):
            rc, out, _err = result
            obj = json.loads(out)
            mismatches, floors = _relations_check(rc, _relations_from_json(obj["relations"]), CLI_TOL, cubic_head)
            levels = obj["spectrum"]
            # Every variant Hamiltonian is n + (a constant) + (a period-lam weight).
            if any(not _close(levels[n + lam] - levels[n], lam) for n in range(len(levels) - lam)):
                mismatches.append("spectrum is not a union of unit-spaced ladders")
            ground = obj["ground_state"]
            lowest = min(levels)
            if not _close(ground["energy"], lowest, 1e-12) or ground["multiplicity"] != sum(
                _close(e, lowest) for e in levels
            ):
                mismatches.append(f"ground state {ground} disagrees with spectrum minimum {lowest}")
            return mismatches, floors

        return check

    @staticmethod
    def _sweep(lo, hi, step):
        count = int(math.floor((hi - lo) / step + 1e-6)) + 1
        expected_rows = count * count

        def check(result):
            rc, out, _err = result
            rows = out.splitlines()[1:]
            problems = [] if rc == 0 and len(rows) == expected_rows else [f"exit {rc}, {len(rows)} rows"]
            wrong = 0
            for row in rows:
                a0, a1, valid, pattern, threshold = row.split(",")
                want_valid, want_pattern, want_threshold = ref.sweep_expectation([float(a0), float(a1)])
                got_threshold = float(threshold) if threshold else None
                if (valid == "true") != want_valid or (
                    want_valid
                    and (pattern != want_pattern or not ref.same_threshold(got_threshold, want_threshold))
                ):
                    wrong += 1
            if wrong:
                problems.append(f"{wrong} sweep rows disagree with the congruence classes")
            return problems, []

        return check

    @staticmethod
    def _hierarchy(head, fmt):
        alpha = ref.full_alpha(head)

        def check(result):
            rc, out, _err = result
            if rc != 0:
                return [f"exit {rc}"], []
            if fmt == "json":
                rows = [
                    (s["sector"], n, e) for s in json.loads(out)["sectors"] for n, e in enumerate(s["energies"])
                ]
            else:
                rows = [tuple(float(x) for x in line.split(",")) for line in out.splitlines()[1:]]
            # H^(mu) = F(N + mu): sector mu, level n has energy F(n + mu).
            bad = sum(not _close(e, ref.structure(alpha, int(n + mu))) for mu, n, e in rows)
            if bad or len(rows) != (len(alpha) + 1) * 21:
                return [f"{bad} of {len(rows)} partner energies off F(n + mu)"], []
            return [], []

        return check

    @staticmethod
    def _dump(head):
        alpha = ref.full_alpha(head)

        def check(result):
            rc, out, _err = result
            if rc != 0:
                return [f"exit {rc}"], []
            obj = json.loads(out)
            a, adag = obj["matrices"]["a"], obj["matrices"]["adag"]
            dim = obj["dim"]
            # a has sqrt(F(n)) at (n-1, n); adag is its transpose.
            bad = sum(
                not _close(a[n - 1][n][0], math.sqrt(ref.structure(alpha, n)), 1e-12)
                or a[n - 1][n][1] != 0.0
                or adag[n][n - 1] != a[n - 1][n]
                for n in range(1, dim)
            )
            if bad or dim != 60:
                return [f"dim {dim}, {bad} superdiagonal entries off sqrt(F(n))"], []
            return [], []

        return check


def _relations_check(rc, entries, tol, cubic_head):
    cubic_ref = ref.cubic_residual(ref.full_alpha(cubic_head), 0, 60) if cubic_head else None
    mismatches, floors = ref.relation_problems(entries, tol, cubic_ref)
    if not entries:
        mismatches.append("no relations reported")
    if rc != (0 if all(passed for _n, _r, passed, _z in entries) else 1):
        mismatches.append(f"exit {rc} disagrees with the reported verdicts")
    return mismatches, floors


WORKLOADS = {w.name: w for w in (VerifyDense, SweepGrid)}
