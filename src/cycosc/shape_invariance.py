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
    cyclic_shift,
    derived_constants,
    require_fock,
    structure_values,
)
from .fock import (
    DEGREE2_HEADROOM,
    BandOp,
    Ladder,
    RelationReport,
    build_ladder,
    relation_report,
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
    """Build the ladders of the p = lam shifted algebras and the partner Hamiltonians."""
    require_fock(params)
    bad = window_violations(params)
    if bad:
        raise DomainError("; ".join(bad))
    p = params.lam
    ladders = tuple(build_ladder(cyclic_shift(params, mu), dim) for mu in range(p))
    omega = derived_constants(params).omega
    fvals = structure_values(params, dim - 1 + p)
    hmats = tuple(BandOp.diag(fvals[mu : mu + dim]) for mu in range(p + 1))
    return Hierarchy(
        params=params,
        dim=dim,
        ladders=ladders,
        e0=(0.0, *itertools.accumulate(omega)),
        omega=omega,
        hmats=hmats,
    )


def partner_check(h: Hierarchy, tol: float = 1e-12) -> RelationReport:
    """Verify both factorizations of every H^(mu) and the cyclic spacings."""
    hr = DEGREE2_HEADROOM
    dim = h.dim
    p = h.params.lam
    eye = BandOp.diag(np.ones(dim))
    H = h.hmats
    # Adag_0 A_0 enters twice (sectors 0 and p), so every product is formed once.
    adag_a = [ld.adag @ ld.a for ld in h.ladders]
    a_adag = [ld.a @ ld.adag for ld in h.ladders]
    ground = [e * eye for e in h.e0]
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

    # Spacing claim: consecutive diagonal entries of H^(mu) differ by omega cyclically.
    worst = 0.0
    omega, levels = np.array(h.omega), np.arange(dim - hr - 1)
    for mu in range(p + 1):
        gaps = np.diff(H[mu].real_diagonal()[: dim - hr])
        target = omega[(levels + mu) % p]
        worst = max(worst, float(np.abs(gaps - target).max()))
    relations.append(("H^(mu) spacings realize omega cyclically", worst))
    return relation_report(relations, [(0, dim - hr)], hr, tol)


def block_pair(h: Hierarchy, mu: int) -> BlockPair:
    """Sector-mu supercharges: Qdag carries Adag_mu, H stacks the two partners.

    Both diagonal blocks are shifted by the same ground energy E0^(mu), which
    is what makes {Q, Qdag} = H an identity rather than a definition.
    """
    if not 0 <= mu < h.params.lam:
        raise DomainError(f"sector must satisfy 0 <= mu < {h.params.lam}, got {mu}")
    dim = h.dim
    ladder = h.ladders[mu]
    zeros = np.zeros(dim)
    # Adag_mu fills the upper right quadrant (offsets + dim), A_mu the lower left.
    qdag = {k + dim: np.concatenate([v, zeros]) for k, v in ladder.adag.bands.items()}
    q = {k - dim: np.concatenate([zeros, v]) for k, v in ladder.a.bands.items()}
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
