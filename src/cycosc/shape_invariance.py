"""Cyclic shape-invariant partner hierarchy and 2x2 block supercharges.

The hierarchy realizes H^(mu) = F(N + mu) through the mu-shifted algebras:
A_mu and Adag_mu are the ladder operators of the algebra with parameters
rotated by mu, the level spacings are omega_mu = 1 + alpha_mu, and the ground
energies are the prefix sums E0^(mu) = sum(omega_nu for nu < mu).  The family
is held as three stacked operators (fock.BandOp's sector axis): A and Adag
with sector mu = 0..p-1, and the Hamiltonians with sector mu = 0..p, so each
factorization is one product over every sector.
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
    structure_table,
)
from .fock import (
    BandOp,
    RelationReport,
    kept_levels,
    relation_report,
    require_dim,
)


@dataclass(frozen=True)
class Hierarchy:
    """Partner chain of period p = params.lam over one truncated Fock tower.

    a and adag hold A_mu and Adag_mu as sectors mu = 0..p-1 of one operator
    each, and hmats holds H^(0)..H^(p) as sectors 0..p of one diagonal
    operator; take(mu) gives one of them.
    """

    params: AlgebraParams
    a: BandOp
    adag: BandOp
    e0: tuple[float, ...]
    omega: tuple[float, ...]
    hmats: BandOp


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

    F of every shifted algebra comes from algebra.structure_table, as one
    float64 table whose row mu is F of alpha rotated by mu.  The square roots
    of its entries for n = 1..dim-1 are one read-only (p, dim - 1) band that
    A (offset +1) and Adag (offset -1) share, and the p + 1 windows of dim
    levels of row 0 from level mu are the read-only (p + 1, dim) band of
    H^(mu) = F(N + mu).
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
    # F of algebra mu (alpha rotated by mu) at levels n < dim + p.
    fvals = structure_table(np.array([alpha[mu:] + alpha[:mu] for mu in range(p)]), dim + p)
    for row in ~(fvals[1:, 1:p] > 0.0):
        if row.any():
            raise InvalidParamsError(tuple((np.flatnonzero(row) + 1).tolist()))
    roots = np.sqrt(fvals[:, 1:dim])
    # H^(mu) is the window of dim levels of F from level mu.
    windows = fvals[0][np.add.outer(np.arange(p + 1), np.arange(dim))]
    for v in (roots, windows):
        v.setflags(write=False)
    return Hierarchy(
        params=params,
        a=BandOp.wrap(dim, {1: roots}),
        adag=BandOp.wrap(dim, {-1: roots}),
        e0=(0.0, *itertools.accumulate(const.omega)),
        omega=const.omega,
        hmats=BandOp.wrap(dim, {0: windows}),
    )


def partner_check(h: Hierarchy, tol: float = 1e-12) -> RelationReport:
    """Verify both factorizations of every H^(mu) and the cyclic spacings.

    H^(mu) = Adag_mu A_mu + E0^(mu) for mu = 0..p (A_p = A_0, E0^(0) = 0) and
    H^(mu) = A_{mu-1} Adag_{mu-1} + E0^(mu-1) for mu = 1..p are one product
    each over every sector, with E0 subtracted as a column, and each entry is
    its sector's maximum on the levels kept at degree 2.
    """
    dim = h.hmats.dim
    p = h.params.lam
    H = h.hmats
    top = kept_levels(dim, 2)
    sectors = np.arange(p + 1)
    ground = np.array(h.e0)[:, None] * BandOp.wrap(dim, {0: np.ones(dim)})
    # Adag_0 A_0 enters twice (sectors 0 and p), so each product is formed once.
    down = (H - (h.adag @ h.a).take(sectors % p) - ground).sector_max(top).tolist()
    up = (H.take(sectors[1:]) - h.a @ h.adag - ground.take(sectors[:-1])).sector_max(top).tolist()
    relations = [("H^(0) = Adag_0 A_0", down[0])]
    for mu in range(1, p + 1):
        relations.append((f"H^({mu}) = A_{mu - 1} Adag_{mu - 1} + E0^({mu - 1})", up[mu - 1]))
        relations.append((f"H^({mu}) = Adag_{mu} A_{mu} + E0^({mu})", down[mu]))

    # Spacing claim: consecutive diagonal entries of H^(mu) differ by omega cyclically,
    # over the (p + 1, kept levels) table of energies in one pass; 0.0 when the
    # kept block holds one level and so no spacing.
    energies = H.real_diagonal()[:, :top]
    target = np.array(h.omega)[(np.arange(top - 1) + sectors[:, None]) % p]
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
    A, Adag = h.a.take(mu), h.adag.take(mu)
    # Both partners less E0^(mu), as fresh vectors.
    shifted = h.hmats.take(slice(mu, mu + 2)).real_diagonal() - h.e0[mu]
    H0, H1 = (BandOp.wrap(h.hmats.dim, {0: d}) for d in shifted)
    relations = [
        # Q's one nonzero block maps sector mu into mu + 1 and no block of Q
        # leaves mu + 1, so Q^2 has no block to form.
        ("Q^2 = 0", 0.0),
        # [H, Q] is nonzero only in Q's block.
        ("[H, Q] = 0", H1 @ A - A @ H0),
        # {Q, Qdag} = diag(Adag A, A Adag).
        ("{Q, Qdag} = H", BandOp.stack([Adag @ A - H0, A @ Adag - H1])),
    ]
    return relation_report(relations, h.hmats.dim, 2, tol)
