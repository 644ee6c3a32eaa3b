"""Charge/Hamiltonian pairs for the supersymmetry variants and their checks.

Each builder realizes one representative solution family over a truncated
representation: order-p parasupersymmetry (lam = p + 1), the two
pseudosupersymmetry families (lam = 3), and order-2 orthosupersymmetry
(lam = 3).  Every Hamiltonian is diagonal in the number basis.

Numerical care: square roots of differences are evaluated in factored form,
such as (sqrt(2) - xi) * (sqrt(2) + xi), so the special points eta = sqrt(2)|c|
and xi = sqrt(2) produce exact zeros instead of rounding dust.  The diagonal
shift shared by the order-2 parasupersymmetric and family-1 pseudosupersymmetric
Hamiltonians goes through one helper so the two coincide bitwise.

Every charge and Hamiltonian is a fock.BandOp whose coefficient vectors are
computed in float64 and held exactly in np.longdouble, or np.clongdouble
where a phase enters (xi and the orthosupercharge phases).  The
parasupercharge is computed from alpha in np.longdouble: its order-p relation
cancels p + 1 terms of ~2 F(n)^{p/2} (1e6 at p = 4, dim = 60), so one float64
rounding per entry would leave ~2e-10 however it is evaluated.  Where
np.longdouble is float64 (not x86-64), that floor returns at order 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraParams,
    DomainError,
    cyc,
    derived_constants,
    structure_values,
)
from .fock import BandOp, RelationReport, relation_report, require_rep

KIND_PSSQM = "pssqm"
KIND_PSEUDO1 = "pseudo-family1"
KIND_PSEUDO2 = "pseudo-family2"
KIND_OSSQM = "ossqm"


@dataclass(frozen=True)
class VariantSolution:
    """A charge/Hamiltonian pair (plus a second charge for orthosupersymmetry).

    Q's bands hold float64 or complex128 values, except the parasupercharge's,
    computed in np.longdouble to check its order-p relations below the float64
    floor.  H is diagonal with float64 entries.
    """

    kind: str
    mu: int
    free_params: dict
    r_values: dict
    Q: BandOp
    H: BandOp
    params: AlgebraParams
    dim: int
    Q2: BandOp | None = None


@dataclass(frozen=True)
class GroundState:
    """Lowest diagonal entry of H, its multiplicity, and the broken flag."""

    energy: float
    multiplicity: int
    broken: bool


def _h_diagonal(lam: int, dim: int, shift: float, grade_weights: np.ndarray) -> BandOp:
    """Diagonal n + shift + w_{n mod lam} in float64, shared by all builders."""
    n = np.arange(dim, dtype=float)
    return BandOp.diag(n + shift + np.asarray(grade_weights, dtype=float)[np.arange(dim) % lam])


def _masked_ladders(params: AlgebraParams, dim: int, lower: int, upper: int):
    """Float64 bands of a P_lower (offset +1, zero on the last row) and adag P_upper (offset -1)."""
    require_rep(params, dim)
    roots = np.sqrt(structure_values(params, dim - 1))
    n = np.arange(dim)
    lowering = np.where((n + 1) % params.lam == lower, np.append(roots[1:], 0.0), 0.0)
    raising = np.where((n - 1) % params.lam == upper, roots, 0.0)
    return lowering, raising


def _require_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def _require_check_range(c: float, *ladders: np.ndarray):
    """Reject a c for which Q Qdag Q or 4 c^2 Q H (< 8 q^3, q = 2|c| max sqrt F) leave float64."""
    q = 2.0 * abs(c) * max(float(v.max()) for v in ladders)
    if not 8.0 * q * q * q < np.finfo(float).max:
        raise DomainError(f"c = {c!r} takes pseudo_check's terms beyond float64 range", name="c")


def _order2_shift(gamma_m2: float, r_m2: float, p: int) -> float:
    """Common constant (2 gamma + r - 2p + 3) / 2 of the variant Hamiltonians.

    Evaluated identically for every caller so that Hamiltonians the algebra
    says coincide come out bitwise equal.
    """
    shift = 0.5 * (2.0 * gamma_m2 + r_m2 - (2.0 * p - 3.0))
    if not math.isfinite(shift):
        raise DomainError(f"the parameters give the Hamiltonian a non-finite shift, {shift}")
    return shift


def _check_lam(params: AlgebraParams, lam: int, what: str):
    if params.lam != lam:
        raise DomainError(f"{what} requires order {lam}, got {params.lam}")


def pssqm_r_constant(params: AlgebraParams, mu: int) -> float:
    """The r constant of the order-p parasupersymmetric solution family.

    r_{mu+2} = [(p-2) alpha_{mu+2} + 2 sum_{nu=3..p} (p-nu+1) alpha_{mu+nu}
    + p(p-2)] / p with p = lam - 1.  Identically zero at p = 2.
    """
    lam = params.lam
    p = lam - 1
    alpha = params.alpha
    m2 = cyc(mu + 2, lam)
    tail = 0
    for nu in range(3, p + 1):
        tail += (p - nu + 1) * alpha[cyc(mu + nu, lam)]
    return ((p - 2) * alpha[m2] + 2.0 * tail + p * (p - 2)) / p


def pssqm_build(params: AlgebraParams, mu: int, dim: int = 60) -> VariantSolution:
    """Order-p parasupercharge Q = sqrt(2) sum_{nu=1..p} adag P_{mu+nu} and its H.

    Q has sqrt(2 F(n + 1)) at (n + 1, n) for every level n not in the mu
    class, computed from alpha in np.longdouble, on the band at offset -1.
    """
    lam = params.lam
    p = lam - 1
    if not 0 <= mu <= p:
        raise DomainError(f"family index must satisfy 0 <= mu <= {p}, got {mu}")
    require_rep(params, dim)
    gamma = derived_constants(params).gamma
    m2 = cyc(mu + 2, lam)

    # F(n) = n + beta_{n mod lam}, with beta the prefix sums of alpha, all in
    # extended precision; band -1 holds Q[n, n - 1].
    beta = np.concatenate(([0], np.cumsum(np.array(params.alpha, dtype=np.longdouble))[:-1]))
    n = np.arange(dim)
    fvals = n + beta[n % lam]
    Q = BandOp(dim, {-1: np.where((n - 1) % lam != mu, np.sqrt(2 * fvals), 0)})

    r = pssqm_r_constant(params, mu)
    weights = np.zeros(lam)
    for nu in range(1, p + 1):
        weights[cyc(mu + nu, lam)] = p + 1 - nu
    H = _h_diagonal(lam, dim, _order2_shift(gamma[m2], r, p), weights)
    # The check terms stay below 4p t^(p + 1); a root, as a power would raise on overflow.
    t = max(float(np.abs(Q.bands[-1]).max()), math.sqrt(float(np.abs(H.real_diagonal()).max())))
    if not t < (np.finfo(float).max / (4.0 * p)) ** (1.0 / (p + 1)):
        raise DomainError(f"alpha takes the order-{p + 1} check terms beyond float64 range", name="alpha")
    return VariantSolution(
        kind=KIND_PSSQM,
        mu=mu,
        free_params={},
        r_values={f"r_{m2}": r},
        Q=Q,
        H=H,
        params=params,
        dim=dim,
    )


def pssqm_check(sol: VariantSolution, p: int, tol: float = 1e-10) -> RelationReport:
    """Verify nilpotency at order p + 1 and the order-p multilinear relation.

    Every entry is evaluated in np.longdouble from the bands of sol.Q and
    sol.H, whatever their band structure, on rows and columns n < dim - p - 2.
    With the extended-precision charge of pssqm_build the order-4 relation
    stays below 1e-10 where np.longdouble is wider than float64; where it is
    float64 its floor is 1e-10 to 2e-10.
    """
    if sol.kind != KIND_PSSQM:
        raise DomainError(f"expected a {KIND_PSSQM} solution, got {sol.kind}")
    if p != sol.params.lam - 1:
        raise DomainError(f"solution has order {sol.params.lam - 1}, got p = {p}")
    h = p + 2
    Q, H = sol.Q, sol.H
    powers = [BandOp.diag(np.ones(sol.dim))]
    for _ in range(p + 1):
        powers.append(powers[-1] @ Q)
    multilinear = sum(powers[p - j] @ Q.dag @ powers[j] for j in range(p + 1))
    relations = [
        (f"Q^{p + 1} = 0", powers[p + 1]),
        (f"Q^{p} != 0", powers[p], True),
        ("[H, Q] = 0", H @ Q - Q @ H),
        (
            "sum_j Q^{p-j} Qdag Q^j = 2p Q^{p-1} H",
            multilinear - 2.0 * p * (powers[p - 1] @ H),
        ),
    ]
    return relation_report(relations, [(0, sol.dim - h)], h, tol)


def pssqm_cubic_check(sol: VariantSolution, tol: float = 1e-10) -> RelationReport:
    """Residual of the alternative cubic relation [Q, [Qdag, Q]] = 2QH at p = 2.

    Whether it passes depends on the algebra parameters: the locus where both
    this and the multilinear relation hold is empirical data, not an assertion.
    A vanishing charge satisfies the relation trivially, so the report also
    carries a nonzero-charge entry flagging that degenerate case.  Evaluated
    band by band in np.longdouble, as in pssqm_check.
    """
    if sol.kind != KIND_PSSQM:
        raise DomainError(f"expected a {KIND_PSSQM} solution, got {sol.kind}")
    if sol.params.lam != 3:
        raise DomainError(f"cubic relation applies at order 3, got {sol.params.lam}")
    h = 4
    Q, H = sol.Q, sol.H
    inner = Q.dag @ Q - Q @ Q.dag
    relations = [
        ("[Q, [Qdag, Q]] = 2 Q H", Q @ inner - inner @ Q - 2.0 * (Q @ H)),
        ("Q != 0", Q, True),
    ]
    return relation_report(relations, [(0, sol.dim - h)], h, tol)


def pseudo_family1_build(
    params: AlgebraParams,
    mu: int,
    c: float,
    eta: float,
    phi: float,
    dim: int = 60,
) -> VariantSolution:
    """Two-parameter pseudosupercharge (eta adag + e^{i phi} sqrt(4c^2 - eta^2) a) P_{mu+2}.

    At eta = sqrt(2)|c|, phi = 0 the r constant vanishes and the Hamiltonian
    coincides bitwise with the order-2 parasupersymmetric one.
    """
    _check_lam(params, 3, "family-1 pseudosupersymmetry")
    if not 0 <= mu < 3:
        raise DomainError(f"family index must satisfy 0 <= mu < 3, got {mu}")
    _require_finite(c=c, eta=eta, phi=phi)
    if c == 0.0:
        raise DomainError("c must be nonzero")
    if 2.0 * c * c == 0.0:
        raise DomainError(f"c = {c!r} is so small that 2 c^2 underflows to 0", name="c")
    if not 0.0 < eta < 2.0 * abs(c):
        raise DomainError(f"eta must lie in (0, 2|c|) = (0, {2.0 * abs(c)}), got {eta}")
    if not 0.0 <= phi < 2.0 * math.pi:
        raise DomainError(f"phi must lie in [0, 2 pi), got {phi}")
    alpha = params.alpha
    gamma = derived_constants(params).gamma
    m1, m2 = cyc(mu + 1, 3), cyc(mu + 2, 3)
    lower, upper = _masked_ladders(params, dim, m2, m2)
    _require_check_range(c, lower, upper)

    # Factored forms: exact zeros at eta = sqrt(2)|c| and at the 2|c| boundary.
    xi = complex(math.cos(phi), math.sin(phi)) * math.sqrt(
        (2.0 * abs(c) - eta) * (2.0 * abs(c) + eta)
    )
    root2c = math.sqrt(2.0) * abs(c)
    r = (1.0 + alpha[m2]) * ((eta - root2c) * (eta + root2c)) / (2.0 * c * c)

    Q = BandOp(dim, {-1: eta * upper, 1: xi * lower})
    weights = np.zeros(3)
    weights[m1] = 2.0
    weights[m2] = 1.0
    H = _h_diagonal(3, dim, _order2_shift(gamma[m2], r, 2), weights)
    return VariantSolution(
        kind=KIND_PSEUDO1,
        mu=mu,
        free_params={"c": c, "eta": eta, "phi": phi},
        r_values={f"r_{m2}": r},
        Q=Q,
        H=H,
        params=params,
        dim=dim,
    )


def pseudo_family2_build(
    params: AlgebraParams,
    mu: int,
    c: float,
    r_mu: float,
    dim: int = 60,
) -> VariantSolution:
    """One-parameter pseudosupercharge 2|c| a P_{mu+2} with spectrum knob r_mu."""
    _check_lam(params, 3, "family-2 pseudosupersymmetry")
    if not 0 <= mu < 3:
        raise DomainError(f"family index must satisfy 0 <= mu < 3, got {mu}")
    _require_finite(c=c, r_mu=r_mu)
    if c == 0.0:
        raise DomainError("c must be nonzero")
    alpha = params.alpha
    gamma = derived_constants(params).gamma
    m1, m2 = cyc(mu + 1, 3), cyc(mu + 2, 3)

    lower = _masked_ladders(params, dim, m2, m2)[0]
    _require_check_range(c, lower)
    Q = BandOp(dim, {1: 2.0 * abs(c) * lower})
    weights = np.zeros(3)
    weights[mu] = 0.5 * (1.0 - alpha[m1] + alpha[m2] + r_mu)
    weights[m1] = 1.0
    shift = 0.5 * (2.0 * gamma[m2] - alpha[m2])
    H = _h_diagonal(3, dim, shift, weights)
    return VariantSolution(
        kind=KIND_PSEUDO2,
        mu=mu,
        free_params={"c": c, "r_mu": r_mu},
        r_values={f"r_{mu}": r_mu},
        Q=Q,
        H=H,
        params=params,
        dim=dim,
    )


def equal_spacing_r(params: AlgebraParams, mu: int) -> float:
    """The r_mu value giving an equally spaced family-2 spectrum.

    (alpha_{mu+1} - alpha_{mu+2} + 3) mod 6, as the representative in [0, 6).
    """
    _check_lam(params, 3, "family-2 pseudosupersymmetry")
    alpha = params.alpha
    m1, m2 = cyc(mu + 1, 3), cyc(mu + 2, 3)
    return (alpha[m1] - alpha[m2] + 3.0) % 6.0


def pseudo_check(sol: VariantSolution, c: float, tol: float = 1e-10) -> RelationReport:
    """Verify Q^2 = 0, [H, Q] = 0, and Q Qdag Q = 4 c^2 Q H."""
    if sol.kind not in (KIND_PSEUDO1, KIND_PSEUDO2):
        raise DomainError(f"expected a pseudosupersymmetric solution, got {sol.kind}")
    h = 4
    Q, H = sol.Q, sol.H
    relations = [
        ("Q^2 = 0", Q @ Q),
        ("[H, Q] = 0", H @ Q - Q @ H),
        ("Q Qdag Q = 4 c^2 Q H", Q @ Q.dag @ Q - 4.0 * c * c * (Q @ H)),
    ]
    return relation_report(relations, [(0, sol.dim - h)], h, tol)


def ossqm_build(
    params: AlgebraParams,
    mu: int,
    xi: float,
    phi: float,
    dim: int = 60,
) -> VariantSolution:
    """Order-2 orthosupercharges over an algebra with alpha_{mu+1} = -1.

    Only mu = 0 and mu = 1 exist: mu = 2 would force alpha_0 = -1, which kills
    the Fock representation (F(1) = 0).
    """
    _check_lam(params, 3, "order-2 orthosupersymmetry")
    if mu == 2:
        raise DomainError(
            "no mu = 2 family: it needs alpha_0 = -1, incompatible with F(1) > 0"
        )
    if mu not in (0, 1):
        raise DomainError(f"family index must be 0 or 1, got {mu}")
    _require_finite(xi=xi, phi=phi)
    root2 = math.sqrt(2.0)
    if not 0.0 < xi <= root2:
        raise DomainError(f"xi must lie in (0, sqrt(2)], got {xi}")
    if not 0.0 <= phi < 2.0 * math.pi:
        raise DomainError(f"phi must lie in [0, 2 pi), got {phi}")
    alpha = params.alpha
    m1, m2 = cyc(mu + 1, 3), cyc(mu + 2, 3)
    if abs(alpha[m1] + 1.0) > 1e-12:
        raise DomainError(
            f"alpha_{m1} must equal -1 for the mu = {mu} family, got {alpha[m1]}"
        )
    lower, upper = _masked_ladders(params, dim, m2, mu)
    gamma = derived_constants(params).gamma

    # Factored so xi = sqrt(2) yields an exact zero partner coefficient.
    w = math.sqrt((root2 - xi) * (root2 + xi))
    phase = complex(math.cos(phi), math.sin(phi))
    Q1 = BandOp(dim, {-1: (phase * w) * upper, 1: xi * lower})
    Q2 = BandOp(dim, {-1: xi * upper, 1: (-np.conj(phase) * w) * lower})

    weights = np.zeros(3)
    weights[mu] = 2.0
    weights[m1] = 1.0
    H = _h_diagonal(3, dim, _order2_shift(gamma[m1], 0.0, 2), weights)
    return VariantSolution(
        kind=KIND_OSSQM,
        mu=mu,
        free_params={"xi": xi, "phi": phi},
        r_values={},
        Q=Q1,
        H=H,
        params=params,
        dim=dim,
        Q2=Q2,
    )


def ossqm_check(sol: VariantSolution, tol: float = 1e-10) -> RelationReport:
    """Verify all nine orthosupersymmetry relation instances.

    Q_r Q_s = 0 for the four (r, s) pairs, [H, Q_r] = 0 for both charges, and
    Q_r Q_s^dag + delta_{rs} sum_t Q_t^dag Q_t = 2 delta_{rs} H for the three
    independent (r, s) cases, plus the expanded rs = 11 corollary.
    """
    if sol.kind != KIND_OSSQM:
        raise DomainError(f"expected an {KIND_OSSQM} solution, got {sol.kind}")
    h = 3
    q = (sol.Q, sol.Q2)
    H = sol.H
    qdagq = q[0].dag @ q[0] + q[1].dag @ q[1]
    relations = [
        (f"Q{r + 1} Q{s + 1} = 0", q[r] @ q[s]) for r in (0, 1) for s in (0, 1)
    ]
    relations += [(f"[H, Q{r + 1}] = 0", H @ q[r] - q[r] @ H) for r in (0, 1)]
    for r, s in ((0, 0), (0, 1), (1, 1)):
        lhs = q[r] @ q[s].dag
        if r == s:
            relations.append(
                (f"Q{r + 1} Qdag{s + 1} + sum_t Qdag_t Q_t = 2 H", lhs + qdagq - 2.0 * H)
            )
        else:
            relations.append((f"Q{r + 1} Qdag{s + 1} = 0", lhs))
    relations.append(
        (
            "corollary: Q1 Qdag1 + Qdag1 Q1 + Qdag2 Q2 = 2 H",
            q[0] @ q[0].dag + q[0].dag @ q[0] + q[1].dag @ q[1] - 2.0 * H,
        )
    )
    return relation_report(relations, [(0, sol.dim - h)], h, tol)


def ground_state_analysis(sol: VariantSolution, tol: float = 1e-9) -> GroundState:
    """Lowest level of H, its cluster multiplicity, and broken flag (energy > tol)."""
    diag = sol.H.real_diagonal()
    lowest = float(diag.min())
    multiplicity = int(np.sum(np.abs(diag - lowest) <= tol))
    return GroundState(
        energy=lowest, multiplicity=multiplicity, broken=lowest > tol
    )


def variant_to_dict(
    sol: VariantSolution, report: RelationReport, n_levels: int | None = None
) -> dict:
    """JSON-ready summary: parameters, spectrum, ground state, relation residuals."""
    diag = sol.H.real_diagonal()
    if n_levels is not None:
        diag = diag[:n_levels]
    ground = ground_state_analysis(sol)
    return {
        "kind": sol.kind,
        "mu": sol.mu,
        "free_params": {k: float(v) for k, v in sol.free_params.items()},
        "r_values": {k: float(v) for k, v in sol.r_values.items()},
        "spectrum": [float(e) for e in diag],
        "ground_state": {
            "energy": ground.energy,
            "multiplicity": ground.multiplicity,
            "broken": ground.broken,
        },
        "relations": report.relation_dicts(),
    }
