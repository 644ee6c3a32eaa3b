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

Every charge is a sum of coefficient x adag P_nu and coefficient x a P_nu
terms, and every Hamiltonian is n + shift + w_{n mod lam}.  So each builder
states its charge as data, a table {offset: {class: coeff}} with offset -1
for adag P_k and +1 for a P_k, as the paper writes it:

    pssqm    {-1: {mu + nu: 1 for nu = 1..p}}, over sqrt(2 F)
    pseudo1  {-1: {mu + 2: eta}, 1: {mu + 2: xi}}
    pseudo2  {1: {mu + 2: 2|c|}}
    ossqm    {-1: {mu: e^{i phi} w}, 1: {mu + 2: xi}} and
             {-1: {mu: xi}, 1: {mu + 2: -e^{-i phi} w}}, w = sqrt(2 - xi^2)

and computes only those coefficients, its H shift and weights and its range
checks.  One helper (_charges) forms every table's bands from the sqrt(F)
roots, taken once, and reads the largest root a term reads for the range
checks; one private builder (_solution) wraps them and the H diagonal as
fock.BandOps: one type per operator, read-only, not copied.  The bands are
float64, or complex128 where a phase enters (xi and the orthosupercharge
phases), and every relation is evaluated in the type of its operands.  F is
algebra.structure_table of alpha, in the precision alpha is passed in.  The
one exception to float64 is the parasupercharge, whose F pssqm_build takes
from alpha as np.longdouble: its order-p relation cancels
p + 1 terms of ~2 F(n)^{p/2} (1e6 at p = 4, dim = 60), so one float64
rounding per entry would leave ~2e-10 however it is evaluated.  Where
np.longdouble is float64 (not x86-64), that floor returns at order 4.  Each
[H, Q] = 0 takes the difference of two H levels before it multiplies Q's
entry (fock.commutator).  Q Qdag Q = 4 c^2 Q H is evaluated
in np.longdouble from the float64 charge (pseudo_check), as it sits at its
float64 floor at dim 480.  The lam = 3 families (both pseudosupercharges and
equal_spacing_r) check their order, mu, finite free parameters and c != 0
and take alpha, gamma and the classes mu + 1, mu + 2 in one prelude; family
1 and the orthosupercharges check phi and take e^{i phi} in one (_phase).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraParams,
    DomainError,
    derived_constants,
    structure_table,
)
from .fock import BandOp, RelationReport, commutator, kept_levels, relation_report, require_rep, shape_tables

KIND_PSSQM = "pssqm"
KIND_PSEUDO1 = "pseudo-family1"
KIND_PSEUDO2 = "pseudo-family2"
KIND_OSSQM = "ossqm"


@dataclass(frozen=True)
class VariantSolution:
    """A charge/Hamiltonian pair (plus a second charge for orthosupersymmetry).

    Every builder states Q (and Q2) as a {offset: {class: coeff}} table, which
    _charges forms into fresh bands of one type; _solution makes them and H's
    diagonal read-only and wraps them, not copied.
    Q's bands hold float64 or complex128 values, except the parasupercharge's,
    computed in np.longdouble to check its order-p relations below the float64
    floor.  H is diagonal with float64 entries, and so the relations of every
    other charge are evaluated in float64 or complex128, except pseudo_check's
    Q Qdag Q = 4 c^2 Q H, which promotes the charge to np.longdouble.
    """

    kind: str
    mu: int
    free_params: dict
    r_values: dict
    Q: BandOp
    H: BandOp
    params: AlgebraParams
    Q2: BandOp | None = None


@dataclass(frozen=True)
class GroundState:
    """Lowest diagonal entry of H, its multiplicity, and the broken flag."""

    energy: float
    multiplicity: int
    broken: bool


def _h_diagonal(lam: int, dim: int, shift: float, weights: dict[int, float]) -> np.ndarray:
    """Diagonal n + shift + w_{n mod lam} as a fresh float64 vector, shared by all builders.

    weights maps a residue class to its w; classes it omits get 0.  Raises
    DomainError if an entry is not finite (an overflowing shift or weight).
    """
    t = shape_tables(lam, dim)
    w = np.array([weights.get(k, 0.0) for k in range(lam)], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        diag = t.levels + shift + w[t.classes]
    if not np.isfinite(diag).all():
        raise DomainError(f"the parameters give the Hamiltonian a non-finite shift or level, shift {shift}")
    return diag


def _charges(params: AlgebraParams, dim: int, *tables, dtype=np.float64, scale=1):
    """The fresh bands of each charge table {offset: {class: coeff}}, and the largest root a term reads.

    Offset +1 is coeff x a P_k and offset -1 is coeff x adag P_k: entry n - 1
    of the band is coeff sqrt(scale F(n)), n = 1..dim-1, where level n (for a)
    or level n - 1 (for adag) lies in class k, and 0 where no term's class
    does.  Each term writes only its class's stride of lam entries, so a root
    no term reads never enters a band, and a table's bands share the
    np.result_type of the roots and its coefficients.  F is
    algebra.structure_table of alpha in dtype, and the roots are taken once.
    F grows by lam per period inside a class, so the largest root a term reads
    is the last of its stride.  A root or entry past its type's range gives
    inf or NaN, silently: the callers' range checks read the largest root.
    """
    require_rep(params, dim)
    lam = params.lam
    f = structure_table(np.array(params.alpha, dtype), dim)
    out, peak = [], 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        roots = np.sqrt(scale * f[1:])
        for table in tables:
            band_type = np.result_type(roots, *(c for terms in table.values() for c in terms.values()))
            bands = {offset: np.zeros(dim - 1, band_type) for offset in table}
            for offset, terms in table.items():
                for k, c in terms.items():
                    # Entry j of band +1 reads level j + 1, of band -1 level j.
                    j = (k - (offset > 0)) % lam
                    stride = roots[j::lam]
                    bands[offset][j::lam] = c * stride
                    peak = max(peak, stride[-1])
            out.append(bands)
    return out, float(peak)


def _solution(kind: str, params: AlgebraParams, mu: int, free_params: dict, r_values: dict, h: np.ndarray, *charges):
    """The VariantSolution with Hamiltonian diag(h) and charges Q (and Q2) as _charges forms them.

    Every vector is fresh and each operator's share one type, so they are made
    read-only and wrapped without a copy.
    """
    for v in (h, *(v for bands in charges for v in bands.values())):
        v.setflags(write=False)
    H, Q, *Q2 = (BandOp.wrap(len(h), bands) for bands in ({0: h}, *charges))
    return VariantSolution(kind, mu, free_params, r_values, Q, H, params, *Q2)


def _require_finite(**values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")


def _require_check_range(c: float, peak: float):
    """Reject a c for which Q Qdag Q or 4 c^2 Q H (< 8 q^3, q = 2|c| peak) leave float64.

    peak is the largest sqrt F the charge reads, as _charges gives it.
    """
    q = 2.0 * abs(c) * peak
    if not 8.0 * q * q * q < np.finfo(float).max:
        raise DomainError(f"c = {c!r} takes pseudo_check's terms beyond float64 range", name="c")


def _phase(phi: float) -> complex:
    """e^{i phi}, for a phi in [0, 2 pi)."""
    if not 0.0 <= phi < 2.0 * math.pi:
        raise DomainError(f"phi must lie in [0, 2 pi), got {phi}")
    return complex(math.cos(phi), math.sin(phi))


def _exact_rows(Q: BandOp, degree: int) -> int:
    """Rows on which truncation leaves every power of Q exact.

    All Q.dim rows when Q is triangular (its offsets share a sign): a product of
    such factors passes only through levels between its row and its column.
    Otherwise the levels kept at degree.
    """
    if min(Q.bands, default=0) >= 0 or max(Q.bands, default=0) <= 0:
        return Q.dim
    return kept_levels(Q.dim, degree)


def _order2_shift(gamma_m2: float, r_m2: float, p: int) -> float:
    """Common constant (2 gamma + r - 2p + 3) / 2 of the variant Hamiltonians.

    Evaluated identically for every caller so that Hamiltonians the algebra
    says coincide come out bitwise equal.
    """
    return 0.5 * (2.0 * gamma_m2 + r_m2 - (2.0 * p - 3.0))


def _check_lam(params: AlgebraParams, lam: int, what: str):
    if params.lam != lam:
        raise DomainError(f"{what} requires order {lam}, got {params.lam}")


def _lam3_family(params: AlgebraParams, mu: int, what: str, **values):
    """alpha, gamma and the classes mu + 1, mu + 2 of a lam = 3 family.

    Raises DomainError, naming the family as what, unless the order is 3 and
    0 <= mu < 3, then unless the free parameters in values are finite and c,
    if among them, is nonzero.
    """
    _check_lam(params, 3, what)
    if not 0 <= mu < 3:
        raise DomainError(f"family index must satisfy 0 <= mu < 3, got {mu}")
    _require_finite(**values)
    if values.get("c") == 0.0:
        raise DomainError("c must be nonzero")
    return params.alpha, derived_constants(params).gamma, (mu + 1) % 3, (mu + 2) % 3


def pssqm_r_constant(params: AlgebraParams, mu: int) -> float:
    """The r constant of the order-p parasupersymmetric solution family.

    r_{mu+2} = [(p-2) alpha_{mu+2} + 2 sum_{nu=3..p} (p-nu+1) alpha_{mu+nu}
    + p(p-2)] / p with p = lam - 1, for mu = 0..p.  Identically zero at p = 2.
    """
    lam = params.lam
    p = lam - 1
    if not 0 <= mu <= p:
        raise DomainError(f"family index must satisfy 0 <= mu <= {p}, got {mu}")
    alpha = params.alpha
    m2 = (mu + 2) % lam
    tail = 0
    for nu in range(3, p + 1):
        tail += (p - nu + 1) * alpha[(mu + nu) % lam]
    return ((p - 2) * alpha[m2] + 2.0 * tail + p * (p - 2)) / p


def pssqm_build(params: AlgebraParams, mu: int, dim: int = 60) -> VariantSolution:
    """Order-p parasupercharge Q = sqrt(2) sum_{nu=1..p} adag P_{mu+nu} and its H.

    Q has sqrt(2 F(n + 1)) at (n + 1, n) for every level n not in the mu
    class, on the band at offset -1, in np.longdouble: F is
    algebra.structure_table of alpha passed in that type.
    """
    # Rejects a mu outside 0..p before any other check.
    r = pssqm_r_constant(params, mu)
    lam = params.lam
    p = lam - 1
    classes = [(mu + nu) % lam for nu in range(1, p + 1)]
    (q,), qmax = _charges(params, dim, {-1: dict.fromkeys(classes, 1)}, dtype=np.longdouble, scale=2)
    m2 = (mu + 2) % lam
    weights = {k: p + 1 - nu for nu, k in enumerate(classes, 1)}
    h = _h_diagonal(lam, dim, _order2_shift(derived_constants(params).gamma[m2], r, p), weights)
    # The check terms stay below 4p t^(p + 1), t^2 = max(|Q|^2, |H|) and |Q|^2 = 2 F;
    # an entry that left float64 (possible where np.longdouble is float64) reads inf.
    if not max(qmax * qmax, float(np.abs(h).max())) < (np.finfo(float).max / (4.0 * p)) ** (2.0 / (p + 1)):
        raise DomainError(f"alpha takes the order-{p + 1} check terms beyond float64 range", name="alpha")
    return _solution(KIND_PSSQM, params, mu, {}, {f"r_{m2}": r}, h, q)


def pssqm_check(sol: VariantSolution, p: int, tol: float = 1e-10) -> RelationReport:
    """Verify nilpotency at order p + 1 and the order-p multilinear relation.

    Every entry is evaluated from the bands of sol.Q and sol.H, whatever their
    band structure, on the levels kept at degree p + 1, in the charge's type
    (np.longdouble for pssqm_build's); [H, Q] is taken difference-first
    (fock.commutator).  Q^p != 0 is read on every row when Q is triangular,
    as pssqm_build's is: truncation leaves every row of its powers exact.
    With the extended-precision charge of pssqm_build the order-4 relation
    stays below 1e-10 where np.longdouble is wider than float64; where it is
    float64 its floor is 1e-10 to 2e-10.
    """
    if sol.kind != KIND_PSSQM:
        raise DomainError(f"expected a {KIND_PSSQM} solution, got {sol.kind}")
    if p != sol.params.lam - 1:
        raise DomainError(f"solution has order {sol.params.lam - 1}, got p = {p}")
    Q, H = sol.Q, sol.H
    # powers[k] = Q^k for k >= 1.  Q^0 = I is never formed: a factor I only
    # multiplies by 1, so leaving it out changes no residual.
    powers = [None, Q]
    for _ in range(p):
        powers.append(powers[-1] @ Q)
    qdag = Q.dag
    inner = [powers[p - j] @ qdag @ powers[j] for j in range(1, p)]
    multilinear = sum([powers[p] @ qdag, *inner, qdag @ powers[p]])
    relations = [
        (f"Q^{p + 1} = 0", powers[p + 1]),
        # Read on every row of a triangular Q, as the kept block may hold no
        # nonzero entry of Q^p at the smallest dims.
        (f"Q^{p} != 0", powers[p].block_max(_exact_rows(Q, p + 1)), True),
        ("[H, Q] = 0", commutator(H, Q)),
        (
            "sum_j Q^{p-j} Qdag Q^j = 2p Q^{p-1} H",
            multilinear - 2.0 * p * (powers[p - 1] @ H if p > 1 else H),
        ),
    ]
    return relation_report(relations, Q.dim, p + 1, tol)


def pssqm_cubic_check(sol: VariantSolution, tol: float = 1e-10) -> RelationReport:
    """Residual of the alternative cubic relation [Q, [Qdag, Q]] = 2QH at p = 2.

    It holds exactly on the locus alpha_{mu+2} = -1 and nowhere else: the
    bracket leaves 3 sqrt(2) (1 + alpha_{mu+2}) sqrt(F(n)) on band -1 at every
    row n whose column n - 1 lies outside the mu class, so the residual is
    3 sqrt(2) |1 + alpha_{mu+2}| times the largest such root over the kept
    rows n = 1..dim-5.  For mu = 1 the locus is alpha_0 = -1, outside the Fock
    domain (F(1) = 0).  A vanishing charge satisfies the relation trivially,
    so the report also carries a nonzero-charge entry flagging that degenerate
    case, read on every row when Q is triangular, as in pssqm_check.
    Evaluated band by band in the charge's type, as in pssqm_check.
    """
    if sol.kind != KIND_PSSQM:
        raise DomainError(f"expected a {KIND_PSSQM} solution, got {sol.kind}")
    if sol.params.lam != 3:
        raise DomainError(f"cubic relation applies at order 3, got {sol.params.lam}")
    Q, H = sol.Q, sol.H
    qdag = Q.dag
    inner = qdag @ Q - Q @ qdag
    relations = [
        ("[Q, [Qdag, Q]] = 2 Q H", Q @ inner - inner @ Q - 2.0 * (Q @ H)),
        ("Q != 0", Q.block_max(_exact_rows(Q, 3)), True),
    ]
    return relation_report(relations, Q.dim, 3, tol)


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
    alpha, gamma, m1, m2 = _lam3_family(params, mu, "family-1 pseudosupersymmetry", c=c, eta=eta, phi=phi)
    if 2.0 * c * c == 0.0:
        raise DomainError(f"c = {c!r} is so small that 2 c^2 underflows to 0", name="c")
    if not 0.0 < eta < 2.0 * abs(c):
        raise DomainError(f"eta must lie in (0, 2|c|) = (0, {2.0 * abs(c)}), got {eta}")
    # Factored forms: exact zeros at eta = sqrt(2)|c| and at the 2|c| boundary.
    xi = _phase(phi) * math.sqrt((2.0 * abs(c) - eta) * (2.0 * abs(c) + eta))
    (q,), peak = _charges(params, dim, {-1: {m2: eta}, 1: {m2: xi}})
    _require_check_range(c, peak)
    root2c = math.sqrt(2.0) * abs(c)
    r = (1.0 + alpha[m2]) * ((eta - root2c) * (eta + root2c)) / (2.0 * c * c)
    h = _h_diagonal(3, dim, _order2_shift(gamma[m2], r, 2), {m1: 2.0, m2: 1.0})
    return _solution(KIND_PSEUDO1, params, mu, {"c": c, "eta": eta, "phi": phi}, {f"r_{m2}": r}, h, q)


def pseudo_family2_build(
    params: AlgebraParams,
    mu: int,
    c: float,
    r_mu: float,
    dim: int = 60,
) -> VariantSolution:
    """One-parameter pseudosupercharge 2|c| a P_{mu+2} with spectrum knob r_mu."""
    alpha, gamma, m1, m2 = _lam3_family(params, mu, "family-2 pseudosupersymmetry", c=c, r_mu=r_mu)
    (q,), peak = _charges(params, dim, {1: {m2: 2.0 * abs(c)}})
    _require_check_range(c, peak)
    weights = {mu: 0.5 * (1.0 - alpha[m1] + alpha[m2] + r_mu), m1: 1.0}
    h = _h_diagonal(3, dim, 0.5 * (2.0 * gamma[m2] - alpha[m2]), weights)
    return _solution(KIND_PSEUDO2, params, mu, {"c": c, "r_mu": r_mu}, {f"r_{mu}": r_mu}, h, q)


def equal_spacing_r(params: AlgebraParams, mu: int) -> float:
    """The r_mu value giving an equally spaced family-2 spectrum.

    (alpha_{mu+1} - alpha_{mu+2} + 3) mod 6, as the representative in [0, 6),
    for mu = 0..2.
    """
    alpha, _, m1, m2 = _lam3_family(params, mu, "family-2 pseudosupersymmetry")
    return (alpha[m1] - alpha[m2] + 3.0) % 6.0


def pseudo_check(sol: VariantSolution, c: float, tol: float = 1e-10) -> RelationReport:
    """Verify Q^2 = 0, [H, Q] = 0, and Q Qdag Q = 4 c^2 Q H.

    Q^2 and [H, Q] are evaluated in the charge's type, float64 or complex128,
    [H, Q] difference-first (fock.commutator).  The last entry is evaluated in
    np.longdouble: at dim 480 it sits at the floor that the float64 charge
    entries set (q^2 within a few ulp of 4 c^2 F, times |q|), 1e-10 to 2e-10
    against the default 1e-10, and float64 arithmetic would add rounding of
    that size and move parameters near the gate across it.
    """
    if sol.kind not in (KIND_PSEUDO1, KIND_PSEUDO2):
        raise DomainError(f"expected a pseudosupersymmetric solution, got {sol.kind}")
    Q, H = sol.Q, sol.H
    # Promoted to extended precision: a multiple by 1 is exact.
    qx, hx = Q * np.longdouble(1), H * np.longdouble(1)
    relations = [
        ("Q^2 = 0", Q @ Q),
        ("[H, Q] = 0", commutator(H, Q)),
        ("Q Qdag Q = 4 c^2 Q H", qx @ qx.dag @ qx - 4.0 * c * c * (qx @ hx)),
    ]
    return relation_report(relations, Q.dim, 3, tol)


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
    phase = _phase(phi)
    alpha = params.alpha
    m1, m2 = (mu + 1) % 3, (mu + 2) % 3
    if abs(alpha[m1] + 1.0) > 1e-12:
        raise DomainError(
            f"alpha_{m1} must equal -1 for the mu = {mu} family, got {alpha[m1]}"
        )
    # Factored so xi = sqrt(2) yields an exact zero partner coefficient.
    w = math.sqrt((root2 - xi) * (root2 + xi))
    table1 = {-1: {mu: phase * w}, 1: {m2: xi}}
    table2 = {-1: {mu: xi}, 1: {m2: -np.conj(phase) * w}}
    (q1, q2), _ = _charges(params, dim, table1, table2)
    h = _h_diagonal(3, dim, _order2_shift(derived_constants(params).gamma[m1], 0.0, 2), {mu: 2.0, m1: 1.0})
    return _solution(KIND_OSSQM, params, mu, {"xi": xi, "phi": phi}, {}, h, q1, q2)


def ossqm_check(sol: VariantSolution, tol: float = 1e-10) -> RelationReport:
    """Verify all nine orthosupersymmetry relation instances.

    Q_r Q_s = 0 for the four (r, s) pairs, [H, Q_r] = 0 for both charges, and
    Q_r Q_s^dag + delta_{rs} sum_t Q_t^dag Q_t = 2 delta_{rs} H for the three
    independent (r, s) cases, plus the expanded rs = 11 corollary.
    """
    if sol.kind != KIND_OSSQM:
        raise DomainError(f"expected an {KIND_OSSQM} solution, got {sol.kind}")
    q = (sol.Q, sol.Q2)
    qdag = (sol.Q.dag, sol.Q2.dag)
    H, two_h = sol.H, 2.0 * sol.H
    # Each product is formed once: Qdag_t Q_t enters three sums, Q1 Qdag1 two.
    qdag_q = [qdag[t] @ q[t] for t in (0, 1)]
    qdagq = qdag_q[0] + qdag_q[1]
    q1_qdag1 = q[0] @ qdag[0]
    relations = [
        (f"Q{r + 1} Q{s + 1} = 0", q[r] @ q[s]) for r in (0, 1) for s in (0, 1)
    ]
    relations += [(f"[H, Q{r + 1}] = 0", commutator(H, q[r])) for r in (0, 1)]
    relations += [
        ("Q1 Qdag1 + sum_t Qdag_t Q_t = 2 H", q1_qdag1 + qdagq - two_h),
        ("Q1 Qdag2 = 0", q[0] @ qdag[1]),
        ("Q2 Qdag2 + sum_t Qdag_t Q_t = 2 H", q[1] @ qdag[1] + qdagq - two_h),
        (
            "corollary: Q1 Qdag1 + Qdag1 Q1 + Qdag2 Q2 = 2 H",
            q1_qdag1 + qdag_q[0] + qdag_q[1] - two_h,
        ),
    ]
    return relation_report(relations, sol.Q.dim, 2, tol)


def ground_state_analysis(sol: VariantSolution) -> GroundState:
    """Lowest level of H, its cluster multiplicity, and broken flag (energy > tol).

    Levels within tol = 1e-9 of the lowest count towards its multiplicity.
    """
    tol = 1e-9
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
    return {
        "kind": sol.kind,
        "mu": sol.mu,
        "free_params": {k: float(v) for k, v in sol.free_params.items()},
        "r_values": {k: float(v) for k, v in sol.r_values.items()},
        "spectrum": diag.tolist(),
        "ground_state": vars(ground_state_analysis(sol)),
        "relations": report.relation_dicts(),
    }
