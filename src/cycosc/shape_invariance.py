"""Cyclic shape-invariant partner hierarchy and 2x2 block supercharges.

The hierarchy realizes H^(mu) = F(N + mu) through the mu-shifted algebras:
A_mu and Adag_mu are the ladder operators of the algebra with parameters
rotated by mu, the level spacings are omega_mu = 1 + alpha_mu, and the ground
energies are the prefix sums E0^(mu) = sum(omega_nu for nu < mu).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraParams,
    DomainError,
    InvalidParamsError,
    derived_constants,
    require_fock,
)
from .fock import (
    BandOp,
    Ladder,
    RelationReport,
    kept_levels,
    ladders_from_table,
    relation_report,
    require_dim,
)


@dataclass(frozen=True)
class Hierarchy:
    """Partner chain of period p = params.lam over one truncated Fock tower."""

    params: AlgebraParams
    dim: int
    ladders: tuple[Ladder, ...]
    e0: tuple[float, ...]
    omega: tuple[float, ...]
    hmats: tuple[BandOp, ...]


def window_violations(params: AlgebraParams) -> tuple[str, ...]:
    """Inequalities the starting parameters must satisfy for the hierarchy.

    -1 < alpha_0 < lam - 1, and for mu = 1..lam-2:
    -1 < alpha_mu < lam - mu - 1 - sum(alpha_nu for nu < mu).
    Together with the zero-sum constraint these make every spacing positive.
    """
    lam, alpha = params.lam, params.alpha
    beta = derived_constants(params).beta
    violations = []
    if not -1.0 < alpha[0] < lam - 1.0:
        violations.append(f"-1 < alpha_0 < {lam - 1} fails: alpha_0 = {alpha[0]}")
    for mu in range(1, lam - 1):
        upper = lam - mu - 1.0 - beta[mu]
        if not -1.0 < alpha[mu] < upper:
            violations.append(
                f"-1 < alpha_{mu} < {upper} fails: alpha_{mu} = {alpha[mu]}"
            )
    return tuple(violations)


def build_hierarchy(params: AlgebraParams, dim: int) -> Hierarchy:
    """Build the ladders of the p = lam shifted algebras and the partner Hamiltonians.

    F of every shifted algebra comes from one float64 table: row mu is
    n + beta^(mu)_{n mod p}, with beta^(mu) the prefix sums of alpha rotated
    by mu, taken left to right as derived_constants takes them.  The ladders
    and Hamiltonians are read-only rows of a second float64 table: rows
    0..p-1 hold the square roots of F of each shifted algebra, and row p holds
    F itself, from which H^(mu) = F(N + mu) reads dim levels from level mu.
    Each shifted algebra's Fock condition F(k) > 0, k = 1..p-1, is read off
    that table, in shift order, before any square root.
    """
    require_fock(params)
    bad = window_violations(params)
    if bad:
        raise DomainError("; ".join(bad))
    p = params.lam
    require_dim(p, dim)
    alpha = params.alpha
    const = derived_constants(params)
    betas = [const.beta]
    for mu in range(1, p):
        betas.append((0.0, *itertools.accumulate((alpha[mu:] + alpha[:mu])[:-1])))
    # F of algebra mu at level n = m p + k is n + beta^(mu)_k, for n < dim + p.
    periods = -(-dim // p) + 1
    fvals = np.repeat(np.array(betas)[:, None, :], periods, axis=1).reshape(p, -1)
    fvals += np.arange(periods * p, dtype=float)
    for row in ~(fvals[1:, 1:p] > 0.0):
        if row.any():
            raise InvalidParamsError(tuple((np.flatnonzero(row) + 1).tolist()))
    table = np.empty((p + 1, dim + p))
    table[:p] = np.sqrt(fvals[:, : dim + p])
    table[p] = fvals[0, : dim + p]
    table.setflags(write=False)
    return Hierarchy(
        params=params,
        dim=dim,
        ladders=ladders_from_table(table[:p], dim),
        e0=(0.0, *itertools.accumulate(const.omega)),
        omega=const.omega,
        hmats=tuple(BandOp.wrap(dim, {0: table[p, mu : mu + dim]}) for mu in range(p + 1)),
    )


def partner_check(h: Hierarchy, tol: float = 1e-12) -> RelationReport:
    """Verify both factorizations of every H^(mu) and the cyclic spacings."""
    dim = h.dim
    p = h.params.lam
    H = h.hmats
    # Adag_0 A_0 enters twice (sectors 0 and p), so every product is formed once.
    adag_a = [ld.adag @ ld.a for ld in h.ladders]
    a_adag = [ld.a @ ld.adag for ld in h.ladders]
    ground = [BandOp.diag(np.full(dim, e)) for e in h.e0]
    relations = [("H^(0) = Adag_0 A_0", H[0] - adag_a[0])]
    for mu in range(1, p + 1):
        prev = mu - 1
        relations.append(
            (
                f"H^({mu}) = A_{prev} Adag_{prev} + E0^({prev})",
                H[mu] - a_adag[prev] - ground[prev],
            )
        )
        relations.append(
            (
                f"H^({mu}) = Adag_{mu} A_{mu} + E0^({mu})",
                H[mu] - adag_a[mu % p] - ground[mu],
            )
        )

    # Spacing claim: consecutive diagonal entries of H^(mu) differ by omega cyclically,
    # over the (p + 1, kept levels) table of energies in one pass; 0.0 when the
    # kept block holds one level and so no spacing.
    top = kept_levels(dim, 2)
    energies = np.array([hm.real_diagonal()[:top] for hm in H])
    sectors, levels = np.ogrid[: p + 1, : top - 1]
    target = np.array(h.omega)[(levels + sectors) % p]
    worst = float(np.abs(np.diff(energies) - target).max(initial=0.0))
    relations.append(("H^(mu) spacings realize omega cyclically", worst))
    return relation_report(relations, dim, 2, tol)


def sqm2_check(h: Hierarchy, mu: int, tol: float = 1e-12) -> RelationReport:
    """Verify Q^2 = 0, [H, Q] = 0, {Q, Qdag} = H for sector mu, block by block.

    Q = [[0, 0], [A_mu, 0]] acts on H = diag(H^(mu), H^(mu+1)) - E0^(mu).  Both
    partners are shifted by the same ground energy, which is what makes
    {Q, Qdag} = H an identity rather than a definition.  Each relation is
    checked on its dim x dim blocks, on the levels kept at degree 2.
    """
    if not 0 <= mu < h.params.lam:
        raise DomainError(f"sector must satisfy 0 <= mu < {h.params.lam}, got {mu}")
    A, Adag = h.ladders[mu].a, h.ladders[mu].adag
    H0, H1 = (BandOp.diag(h.hmats[nu].real_diagonal() - h.e0[mu]) for nu in (mu, mu + 1))
    relations = [
        # Q's one nonzero block maps sector mu into mu + 1 and no block of Q
        # leaves mu + 1, so Q^2 has no block to form.
        ("Q^2 = 0", 0.0),
        # [H, Q] is nonzero only in Q's block.
        ("[H, Q] = 0", H1 @ A - A @ H0),
        # {Q, Qdag} = diag(Adag A, A Adag).
        ("{Q, Qdag} = H", BandOp.stack([Adag @ A - H0, A @ Adag - H1])),
    ]
    return relation_report(relations, h.dim, 2, tol)
