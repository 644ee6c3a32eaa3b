"""Truncated Fock-space representation, band-wise relation evaluation, and checks.

The representation acts on the number basis |0>..|D-1> with ladder matrix
elements sqrt(F(n)).  Every operator the package builds is a BandOp, a sum of
weighted shifts in np.longdouble (np.clongdouble where a phase enters), and
every relation check evaluates its identity band by band on those bands.
Truncation corrupts only the top of the tower, so every identity is verified
on a headroom-restricted block of rows and columns.  Dense arrays are made
only for the JSON dump (BandOp.dense).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraParams,
    DomainError,
    cyc,
    require_fock,
    structure_values,
)

# Headroom covering every relation of degree <= 2 in the ladder operators.
DEGREE2_HEADROOM = 3


@dataclass(frozen=True)
class RelationEntry:
    """One verified identity: its name, residual, and pass flag.

    For ordinary entries passed means residual <= tol.  Entries with
    nonzero=True assert a matrix is NOT negligible, so passed means
    residual > tol there.
    """

    name: str
    residual: float
    passed: bool
    nonzero: bool = False


@dataclass(frozen=True)
class RelationReport:
    """Residuals of a batch of operator identities on the headroom block."""

    entries: tuple[RelationEntry, ...]
    headroom: int
    tol: float

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> tuple[RelationEntry, ...]:
        return tuple(e for e in self.entries if not e.passed)

    def residual(self, name: str) -> float:
        for e in self.entries:
            if e.name == name:
                return e.residual
        raise KeyError(name)

    @property
    def max_residual(self) -> float:
        """Largest residual among ordinary (non-nonzero) entries."""
        vals = [e.residual for e in self.entries if not e.nonzero]
        return max(vals) if vals else 0.0

    def relation_dicts(self) -> list[dict]:
        """JSON-ready entries {"name", "residual", "pass"}, in order."""
        return [{"name": e.name, "residual": e.residual, "pass": e.passed} for e in self.entries]


@dataclass(frozen=True)
class TruncatedRep:
    """a, adag, N, T and P_mu at truncation dimension dim, as weighted shifts."""

    params: AlgebraParams
    dim: int
    a: BandOp
    adag: BandOp
    nmat: BandOp
    proj: tuple[BandOp, ...]
    tmat: BandOp


def _span(n: int, k: int) -> tuple[int, int]:
    """Rows i with 0 <= i < n and 0 <= i + k < n, as a half-open range."""
    return max(0, -k), min(n, n - k)


def _peak(values) -> float:
    """The largest of values (0.0 if none), NaN if any is NaN, which max() alone may skip."""
    return float(max(values, key=lambda x: (x != x, x), default=0.0))


def _shift(v: np.ndarray, s: int) -> np.ndarray:
    """w[i] = v[i + s], zero where i + s leaves the vector."""
    w = np.zeros_like(v)
    lo, hi = _span(v.size, s)
    if lo < hi:
        w[lo:hi] = v[lo + s : hi + s]
    return w


@dataclass(eq=False)
class BandOp:
    """A square operator as a sum of weighted shifts, in extended precision.

    bands maps an offset k to the vector v with v[i] = m[i, i + k], zero where
    i + k leaves the matrix.  Every operator of the algebra has at most two
    bands, so a product or a block maximum costs O(dim) per pair of bands
    instead of a dense O(dim^3) matmul (which has no BLAS path in extended
    precision), and the float64 rounding of the inputs dominates what is left.
    Vectors are read-only np.longdouble, or np.clongdouble for an operator with
    a complex one (T, phased charges); real arithmetic is complex's real part.
    """

    dim: int
    bands: dict[int, np.ndarray]
    # Lets numpy scalars and arrays defer to the reflected operators below.
    __array_ufunc__ = None

    def __post_init__(self):
        dtype = np.result_type(np.longdouble, *map(np.asarray, self.bands.values()))
        self.bands = {k: np.asarray(v, dtype=dtype) for k, v in self.bands.items()}
        for v in self.bands.values():
            v.setflags(write=False)

    @classmethod
    def _wrap(cls, dim: int, bands: dict[int, np.ndarray]) -> BandOp:
        """An arithmetic result, whose fresh vectors need no conversion."""
        op = cls.__new__(cls)
        op.dim, op.bands = dim, bands
        return op

    @classmethod
    def of(cls, m: np.ndarray) -> BandOp:
        """The nonzero diagonals of any square array, promoted exactly (for injected matrices)."""
        rows, cols = np.nonzero(m)
        offsets = np.unique(cols - rows).tolist()
        return cls(len(m), {k: np.pad(np.diagonal(m, k), (max(0, -k), max(0, k))) for k in offsets})

    @classmethod
    def diag(cls, v: np.ndarray) -> BandOp:
        """The diagonal operator with entries v."""
        return cls(len(v), {0: v})

    def dense(self) -> np.ndarray:
        """The dim x dim np.clongdouble matrix."""
        m = np.zeros((self.dim, self.dim), dtype=np.clongdouble)
        for k, v in self.bands.items():
            rows = np.arange(*_span(self.dim, k))
            m[rows, rows + k] = v[rows]
        return m

    def real_diagonal(self) -> np.ndarray:
        """Real parts of the main diagonal in float64, exact for float64 entries."""
        return self.bands.get(0, np.zeros(self.dim)).real.astype(float)

    @property
    def dag(self) -> BandOp:
        """Conjugate transpose: band k moves to band -k."""
        return BandOp._wrap(self.dim, {-k: np.conj(_shift(v, -k)) for k, v in self.bands.items()})

    def __matmul__(self, other: BandOp) -> BandOp:
        # (x y)[i, i + kx + ky] = x[i, i + kx] y[i + kx, i + kx + ky]
        dtype = np.result_type(np.longdouble, *self.bands.values(), *other.bands.values())
        out = {}
        for kx, vx in self.bands.items():
            lo, hi = _span(self.dim, kx)
            for ky, vy in other.bands.items():
                if abs(kx + ky) < self.dim:
                    w = out.setdefault(kx + ky, np.zeros(self.dim, dtype))
                    w[lo:hi] += vx[lo:hi] * vy[lo + kx : hi + kx]
        return BandOp._wrap(self.dim, out)

    def __add__(self, other: BandOp) -> BandOp:
        out = dict(self.bands)
        for k, v in other.bands.items():
            out[k] = out[k] + v if k in out else v
        return BandOp._wrap(self.dim, out)

    def __radd__(self, other):
        # sum() starts from 0.
        return self if other == 0 else NotImplemented

    def __sub__(self, other: BandOp) -> BandOp:
        return self + -1 * other

    def __mul__(self, c) -> BandOp:
        return BandOp._wrap(self.dim, {k: c * v for k, v in self.bands.items()})

    __rmul__ = __mul__

    def block_max(self, rows) -> float:
        """Max absolute entry (i, j) with i and j in the half-open ranges rows.

        NaN when any of those entries is NaN, so a non-finite residual fails.
        """
        spans = [(k, max(a, c - k), min(b, d - k))
                 for k in self.bands for a, b in rows for c, d in rows]
        return _peak(np.abs(self.bands[k][lo:hi]).max() for k, lo, hi in spans if lo < hi)


def relation_report(relations, rows, headroom: int, tol: float) -> RelationReport:
    """Report over (name, residual[, nonzero]) tuples, in the order given.

    A residual is a BandOp or a list of them (the largest counts), measured
    on the block whose rows and columns lie in the half-open ranges rows, or
    a float measured by the caller.  nonzero=True asserts the operator is not
    negligible, so that entry passes when its residual exceeds tol.
    """
    entries = []
    for name, resid, *nonzero in relations:
        if isinstance(resid, BandOp):
            resid = [resid]
        if not isinstance(resid, float):
            resid = _peak(op.block_max(rows) for op in resid)
        flag = bool(nonzero) and nonzero[0]
        entries.append(RelationEntry(name, resid, resid > tol if flag else resid <= tol, flag))
    return RelationReport(entries=tuple(entries), headroom=headroom, tol=tol)


def require_rep(params: AlgebraParams, dim: int) -> None:
    """Raise unless the algebra has a Fock representation and dim >= 2 lam."""
    require_fock(params)
    if dim < 2 * params.lam:
        raise DomainError(f"dimension must be >= {2 * params.lam}, got {dim}")


def build_rep(params: AlgebraParams, dim: int) -> TruncatedRep:
    """Build the truncated representation of a valid algebra.

    a has sqrt(F(n)) at (n-1, n), adag is its conjugate transpose, N is
    diagonal, P_mu projects onto levels n = mu mod lam, and T = exp(2i pi N / lam)
    is built from the phases at n mod lam, so it is exactly lam-periodic.
    """
    require_rep(params, dim)
    lam = params.lam
    # sqrt(F(n)) is adag's band -1 as it stands (F(0) = 0) and a's band +1 moved up one level.
    roots = np.sqrt(structure_values(params, dim - 1))
    levels = np.arange(dim)
    classes = levels % lam
    return TruncatedRep(
        params=params,
        dim=dim,
        a=BandOp(dim, {1: _shift(roots, 1)}),
        adag=BandOp(dim, {-1: roots}),
        nmat=BandOp.diag(levels),
        proj=tuple(BandOp.diag(classes == mu) for mu in range(lam)),
        tmat=BandOp.diag(np.exp(2j * np.pi * np.arange(lam) / lam)[classes]),
    )


def check_relations(rep: TruncatedRep, tol: float = 1e-12) -> RelationReport:
    """Verify the defining relations and structure-function identities.

    All relations are degree <= 2 in the generators, checked band by band on
    rows and columns n < dim - 3.
    """
    lam = rep.params.lam
    dim = rep.dim
    alpha = rep.params.alpha
    a, adag, nmat, tmat, proj = rep.a, rep.adag, rep.nmat, rep.tmat, rep.proj
    eye = BandOp.diag(np.ones(dim))
    fvals = structure_values(rep.params, dim)
    tpow = eye
    for _ in range(lam):
        tpow = tpow @ tmat
    w = np.exp(-2j * np.pi / lam)
    relations = [
        ("[N, adag] = adag", nmat @ adag - adag @ nmat - adag),
        ("[N, P_mu] = 0", [nmat @ p - p @ nmat for p in proj]),
        ("sum_mu P_mu = I", sum(proj) - eye),
        (
            "[a, adag] = I + sum alpha_mu P_mu",
            a @ adag - adag @ a - (eye + sum(alpha[mu] * proj[mu] for mu in range(lam))),
        ),
        (
            "adag P_mu = P_{mu+1} adag",
            [adag @ proj[mu] - proj[cyc(mu + 1, lam)] @ adag for mu in range(lam)],
        ),
        (
            "P_mu P_nu = delta_{mu,nu} P_mu",
            [
                pm @ pn - pm if mu == nu else pm @ pn
                for mu, pm in enumerate(proj)
                for nu, pn in enumerate(proj)
            ],
        ),
        ("adag a = F(N)", adag @ a - BandOp.diag(fvals[:dim])),
        ("a adag = F(N+1)", a @ adag - BandOp.diag(fvals[1:])),
        ("T^lam = I", tpow - eye),
        ("adag T = exp(-2i pi/lam) T adag", adag @ tmat - w * (tmat @ adag)),
        ("a T = exp(2i pi/lam) T a", a @ tmat - np.conj(w) * (tmat @ a)),
    ]
    h = DEGREE2_HEADROOM
    return relation_report(relations, [(0, dim - h)], h, tol)


def klein_reduction_check(rep: TruncatedRep, tol: float = 1e-12) -> RelationReport:
    """Verify the order-2 reduction: T = (-1)^N and [a, adag] = I + kappa (-1)^N.

    T = (-1)^N is checked on the whole matrix, the commutator on rows and
    columns n < dim - 3.
    """
    if rep.params.lam != 2:
        raise DomainError(f"reduction requires order 2, got {rep.params.lam}")
    dim = rep.dim
    kappa = rep.params.alpha[0]
    a, adag = rep.a, rep.adag
    klein = BandOp.diag((-1.0) ** np.arange(dim))
    eye = BandOp.diag(np.ones(dim))
    relations = [
        ("T = (-1)^N", (rep.tmat - klein).block_max([(0, dim)])),
        ("[a, adag] = I + kappa (-1)^N", a @ adag - adag @ a - (eye + kappa * klein)),
    ]
    h = DEGREE2_HEADROOM
    return relation_report(relations, [(0, dim - h)], h, tol)


def _matrix_to_pairs(m: np.ndarray) -> list:
    """Row-major nested list of [re, im] pairs."""
    mc = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in mc]


def rep_to_dict(rep: TruncatedRep) -> dict:
    """JSON-ready dump of all generator matrices for cross-checking."""
    a = rep.a.dense()
    matrices = {
        "a": _matrix_to_pairs(a),
        # As the conjugate transpose of a, whose zero imaginary parts print as -0.0.
        "adag": _matrix_to_pairs(a.conj().T),
        "n": _matrix_to_pairs(rep.nmat.dense()),
        "t": _matrix_to_pairs(rep.tmat.dense()),
    }
    for mu, p in enumerate(rep.proj):
        matrices[f"p{mu}"] = _matrix_to_pairs(p.dense())
    return {
        "lambda": rep.params.lam,
        "alpha": list(rep.params.alpha),
        "dim": rep.dim,
        "matrices": matrices,
    }
