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
    cyc,
    cyclic_shift,
    derived_constants,
    require_fock,
    structure_values,
)
from .fock import (
    DEGREE2_HEADROOM,
    BandOp,
    RelationReport,
    TruncatedRep,
    build_rep,
    relation_report,
)


@dataclass(frozen=True)
class Hierarchy:
    """Partner chain of period p = lam over one truncated Fock tower."""

    params: AlgebraParams
    dim: int
    period: int
    reps: tuple[TruncatedRep, ...]
    e0: tuple[float, ...]
    omega: tuple[float, ...]
    hmats: tuple[BandOp, ...]


@dataclass(frozen=True)
class BlockPair:
    """Supercharges and Hamiltonian of one sector, as 2 dim x 2 dim weighted shifts."""

    mu: int
    H: BandOp
    Qdag: BandOp
    Q: BandOp


def window_violations(params: AlgebraParams) -> tuple[str, ...]:
    """Inequalities the starting parameters must satisfy for the hierarchy.

    -1 < alpha_0 < lam - 1, and for mu = 1..lam-2:
    -1 < alpha_mu < lam - mu - 1 - sum(alpha_nu for nu < mu).
    Together with the zero-sum constraint these make every spacing positive.
    """
    lam = params.lam
    alpha = params.alpha
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
    """Build the p = lam shifted representations and partner Hamiltonians."""
    require_fock(params)
    bad = window_violations(params)
    if bad:
        raise DomainError("; ".join(bad))
    p = params.lam
    reps = tuple(build_rep(cyclic_shift(params, mu), dim) for mu in range(p))
    omega = derived_constants(params).omega
    fvals = structure_values(params, dim - 1 + p)
    hmats = tuple(BandOp.diag(fvals[mu : mu + dim]) for mu in range(p + 1))
    return Hierarchy(
        params=params,
        dim=dim,
        period=p,
        reps=reps,
        e0=(0.0, *itertools.accumulate(omega)),
        omega=omega,
        hmats=hmats,
    )


def partner_check(h: Hierarchy, tol: float = 1e-12) -> RelationReport:
    """Verify both factorizations of every H^(mu) and the cyclic spacings."""
    hr = DEGREE2_HEADROOM
    dim = h.dim
    p = h.period
    eye = BandOp.diag(np.ones(dim))
    H, r = h.hmats, h.reps
    relations = [("H^(0) = Adag_0 A_0", H[0] - r[0].adag @ r[0].a)]
    for mu in range(1, p + 1):
        prev, cur = mu - 1, cyc(mu, p)
        relations.append(
            (
                f"H^({mu}) = A_{prev} Adag_{prev} + E0^({prev})",
                H[mu] - r[prev].a @ r[prev].adag - h.e0[prev] * eye,
            )
        )
        relations.append(
            (
                f"H^({mu}) = Adag_{mu} A_{mu} + E0^({mu})",
                H[mu] - r[cur].adag @ r[cur].a - h.e0[mu] * eye,
            )
        )

    # Spacing claim: consecutive diagonal entries of H^(mu) differ by omega cyclically.
    worst = 0.0
    for mu in range(p + 1):
        gaps = np.diff(H[mu].real_diagonal()[: dim - hr])
        target = np.array(h.omega)[(np.arange(dim - hr - 1) + mu) % p]
        worst = max(worst, float(np.abs(gaps - target).max()))
    relations.append(("H^(mu) spacings realize omega cyclically", worst))
    return relation_report(relations, [(0, dim - hr)], hr, tol)


def block_pair(h: Hierarchy, mu: int) -> BlockPair:
    """Sector-mu supercharges: Qdag carries Adag_mu, H stacks the two partners.

    Both diagonal blocks are shifted by the same ground energy E0^(mu), which
    is what makes {Q, Qdag} = H an identity rather than a definition.
    """
    if not 0 <= mu < h.period:
        raise DomainError(f"sector must satisfy 0 <= mu < {h.period}, got {mu}")
    dim = h.dim
    rep = h.reps[mu]
    zeros = np.zeros(dim)
    # Adag_mu fills the upper right quadrant (offsets + dim), A_mu the lower left.
    qdag = {k + dim: np.concatenate([v, zeros]) for k, v in rep.adag.bands.items()}
    q = {k - dim: np.concatenate([zeros, v]) for k, v in rep.a.bands.items()}
    diag = np.concatenate([h.hmats[nu].real_diagonal() - h.e0[mu] for nu in (mu, mu + 1)])
    return BlockPair(mu=mu, H=BandOp.diag(diag), Qdag=BandOp(2 * dim, qdag), Q=BandOp(2 * dim, q))


def sqm2_check(h: Hierarchy, mu: int, tol: float = 1e-12) -> RelationReport:
    """Verify Q^2 = 0, [H, Q] = 0, {Q, Qdag} = H for sector mu.

    The comparison keeps the headroom block of each dim x dim quadrant.
    """
    pair = block_pair(h, mu)
    hr = DEGREE2_HEADROOM
    H, Q, Qdag = pair.H, pair.Q, pair.Qdag
    relations = [
        ("Q^2 = 0", Q @ Q),
        ("[H, Q] = 0", H @ Q - Q @ H),
        ("{Q, Qdag} = H", Q @ Qdag + Qdag @ Q - H),
    ]
    return relation_report(relations, [(0, h.dim - hr), (h.dim, 2 * h.dim - hr)], hr, tol)
