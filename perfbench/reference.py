"""Closed-form references the benchmark checks the package's outputs against.

Everything here is derived from the paper's formulas, not from the package:
the prefix sums beta, the offsets gamma, the structure function F(n), the
spectrum E_n = n + gamma_{n mod lam} + 1/2, and the degeneracy pattern read off
congruence classes of the ladder starts.  Outputs are compared by value, so a
change that adds output fields or reformats numbers still passes.
"""

from __future__ import annotations

import math

import numpy as np

# Residual above which an identity that holds exactly in the paper counts as a
# wrong answer rather than a rounding floor.  Float64 floors at dim <= 480 stay
# below 1e-7 (order-4 multilinear relation: ~3e-8); a wrong algebra is O(1).
COARSE = 1e-6

# The package's default clustering tolerance for degeneracy classification.
CLUSTER_TOL = 1e-9


def full_alpha(head) -> list[float]:
    """alpha_0..alpha_{lam-1} from the free head, with the zero-sum last entry."""
    head = [float(a) for a in head]
    return head + [-math.fsum(head)]


def beta(alpha) -> list[float]:
    """Prefix sums beta_mu = sum(alpha_nu for nu < mu)."""
    out = [0.0]
    for a in alpha[:-1]:
        out.append(out[-1] + a)
    return out


def gamma(alpha) -> list[float]:
    b = beta(alpha)
    return [b[mu] + alpha[mu] / 2.0 for mu in range(len(alpha))]


def structure(alpha, n: int) -> float:
    """F(n) = n + beta_{n mod lam}."""
    return n + beta(alpha)[n % len(alpha)]


def fock_valid(alpha) -> bool:
    """Fock existence: F(mu) > 0 for mu = 1..lam-1."""
    b = beta(alpha)
    return all(mu + b[mu] > 0.0 for mu in range(1, len(alpha)))


def energy(alpha, n: int) -> float:
    """E_n = n + gamma_{n mod lam} + 1/2."""
    return n + gamma(alpha)[n % len(alpha)] + 0.5


def degeneracy(alpha) -> tuple[str, float | None]:
    """Pattern and threshold energy from congruence classes of the ladder starts.

    Ladder mu starts at e_mu = mu + gamma_mu + 1/2 and steps by lam.  Ladders
    mu and nu meet from max(e_mu, e_nu) upward exactly when (e_mu - e_nu)/lam
    is an integer.  The pattern is the size of the largest class; the
    threshold is the smallest class maximum among the largest classes.
    """
    lam = len(alpha)
    g = gamma(alpha)
    starts = [mu + g[mu] + 0.5 for mu in range(lam)]
    classes: list[list[float]] = []
    for e in starts:
        for cls in classes:
            d = (e - cls[0]) / lam
            if abs(d - round(d)) * lam <= CLUSTER_TOL:
                cls.append(e)
                break
        else:
            classes.append([e])
    m = max(len(c) for c in classes)
    if m == 1:
        return "nondegenerate", None
    return f"{m}-fold", min(max(c) for c in classes if len(c) == m)


def sweep_expectation(head) -> tuple[bool, str | None, float | None]:
    """(valid, pattern, threshold) of one sweep grid point."""
    alpha = full_alpha(head)
    if not fock_valid(alpha):
        return False, None, None
    pattern, threshold = degeneracy(alpha)
    return True, pattern, threshold


def same_threshold(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return abs(float(got) - want) <= CLUSTER_TOL


def cubic_residual(alpha, mu: int, dim: int, headroom: int = 4) -> float:
    """Residual of [Q, [Qdag, Q]] = 2 Q H for the order-2 parasupercharge.

    Q = sqrt(2) adag (P_{mu+1} + P_{mu+2}) at lam = 3 moves |n> to |n+1> with
    weight q_n, so [Qdag, Q] is diagonal with d_n = q_n^2 - q_{n-1}^2 and the
    residual is q_n (d_n - d_{n+1} - 2 h_n) on the (n+1, n) entries inside
    the headroom block.  H is n + s + w_{n mod 3} with the paper's order-2
    shift s = gamma_{mu+2} - 1/2 (the r constant vanishes at p = 2).
    """
    lam, p = 3, 2
    g = gamma(alpha)
    n = np.arange(dim)
    fnext = np.array([structure(alpha, k + 1) for k in range(dim)])
    mask = (n % lam != mu).astype(float)
    q = np.sqrt(2.0 * mask * fnext)
    q[dim - 1] = 0.0
    q2 = q * q
    d = q2 - np.concatenate(([0.0], q2[:-1]))
    weights = np.zeros(lam)
    for nu in range(1, p + 1):
        weights[(mu + nu) % lam] = p + 1 - nu
    h = n + (g[(mu + 2) % lam] - 0.5) + weights[n % lam]
    last = dim - headroom - 2
    resid = q[: last + 1] * (d[: last + 1] - d[1 : last + 2] - 2.0 * h[: last + 1])
    return float(np.abs(resid).max())


def relation_problems(entries, tol: float, cubic_ref: float | None = None):
    """Compare one relation report with what the paper says it must show.

    entries are (name, residual, passed, nonzero) tuples.  Returns
    (mismatches, floor_failures): mismatches are wrong answers; floor failures
    name identities that hold exactly but were reported FAIL with a residual
    below COARSE, the float64 rounding floor at this commit.  cubic_ref, when
    given, is the closed-form residual of the one relation in the report that
    holds only on a parameter locus; its expected verdict is cubic_ref <= tol.
    """
    mismatches, floors = [], []
    for name, resid, passed, nonzero in entries:
        if not math.isfinite(resid):
            mismatches.append(f"{name}: residual {resid}")
        elif nonzero:
            if not passed:
                mismatches.append(f"{name}: reported zero, residual {resid:.3e}")
        elif cubic_ref is not None:
            if abs(resid - cubic_ref) > COARSE * max(1.0, cubic_ref):
                mismatches.append(
                    f"{name}: residual {resid:.6e}, closed form {cubic_ref:.6e}"
                )
            elif passed != (cubic_ref <= tol):
                floors.append(name)
        elif resid > COARSE:
            mismatches.append(f"{name}: residual {resid:.3e} above {COARSE:g}")
        elif not passed:
            floors.append(name)
    return mismatches, floors
