"""Truncated Fock-space representation, band-wise relation evaluation, and checks.

The representation acts on the number basis |0>..|D-1> with ladder matrix
elements sqrt(F(n)).  Every operator the package builds is a BandOp, a sum of
weighted shifts, each stored as its diagonal in the narrowest type that holds
it exactly: np.int64 for the integer operators (N, P_mu, I, (-1)^N),
np.longdouble for real ones, np.clongdouble where a phase enters.  Every
relation check evaluates its identity band by band on those diagonals.
Truncation corrupts only the top of the tower, so every identity is verified
on the rows and columns that kept_levels leaves for its degree.  Dense arrays
are made only for the JSON dump (BandOp.dense).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    AlgebraParams,
    DomainError,
    derived_constants,
    require_fock,
    structure_values,
)


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
class Ladder:
    """The ladder operators a and adag of one algebra, as weighted shifts."""

    a: BandOp
    adag: BandOp


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


def _peak(values) -> float:
    """The largest of values (0.0 if none), NaN if any is NaN, which max() alone may skip."""
    return float(max(values, key=lambda x: (x != x, x), default=0.0))


def _band_dtype(kinds) -> type:
    """The narrowest exact type for bands of these dtype kinds: integers stay np.int64."""
    if "c" in kinds:
        return np.clongdouble
    return np.longdouble if "f" in kinds else np.int64


@dataclass(eq=False)
class BandOp:
    """A square operator as a sum of weighted shifts, each exact in its band type.

    bands maps an offset k to the diagonal v = np.diagonal(m, k): dim - |k|
    entries, entry j at row j + max(0, -k); a band of any other shape is a
    ValueError.  Every operator of the algebra has at most two bands, so a
    product or a block maximum costs O(dim) per pair of bands instead of a
    dense O(dim^3) matmul (which has no BLAS path in extended precision), and
    the float64 rounding of the inputs dominates what is left.
    Vectors are read-only np.int64 for an integer operator, else np.longdouble,
    or np.clongdouble for an operator with a complex band (T, phased charges);
    real arithmetic is complex's real part.  A product or sum takes the wider
    type of its operands, and a float or complex scalar times an integer band
    is formed in np.longdouble or np.clongdouble, so the exact integer bands
    give every value the extended-precision ones gave.
    """

    dim: int
    bands: dict[int, np.ndarray]
    # Lets numpy scalars and arrays defer to the reflected operators below.
    __array_ufunc__ = None

    def __post_init__(self):
        bands = {k: np.asarray(v) for k, v in self.bands.items()}
        dtype = _band_dtype({v.dtype.kind for v in bands.values()})
        for k, v in bands.items():
            if v.shape != (self.dim - abs(k),):
                raise ValueError(f"band {k} needs shape ({self.dim - abs(k)},) at dim {self.dim}, got {v.shape}")
            if v.dtype != dtype:
                v = bands[k] = v.astype(dtype)
            v.setflags(write=False)
        self.bands = bands

    @classmethod
    def wrap(cls, dim: int, bands: dict[int, np.ndarray]) -> BandOp:
        """An operator over vectors already in their final type: fresh arithmetic
        results, or rows of a read-only table."""
        op = cls.__new__(cls)
        op.dim, op.bands = dim, bands
        return op

    @classmethod
    def of(cls, m: np.ndarray) -> BandOp:
        """The nonzero diagonals of any square array, copied and promoted exactly (for injected matrices)."""
        rows, cols = np.nonzero(m)
        offsets = np.unique(cols - rows).tolist()
        return cls(len(m), {k: np.diagonal(m, k).copy() for k in offsets})

    @classmethod
    def diag(cls, v: np.ndarray) -> BandOp:
        """The diagonal operator with entries v."""
        return cls(len(v), {0: v})

    def dense(self) -> np.ndarray:
        """The dim x dim np.clongdouble matrix."""
        m = np.zeros((self.dim, self.dim), dtype=np.clongdouble)
        for k, v in self.bands.items():
            rows = np.arange(len(v)) + max(0, -k)
            m[rows, rows + k] = v
        return m

    def real_diagonal(self) -> np.ndarray:
        """Real parts of the main diagonal in float64, exact for float64 entries."""
        return self.bands.get(0, np.zeros(self.dim)).real.astype(float)

    @property
    def dag(self) -> BandOp:
        """Conjugate transpose: band k moves to band -k."""
        return BandOp.wrap(self.dim, {-k: np.conj(v) for k, v in self.bands.items()})

    def __matmul__(self, other: BandOp) -> BandOp:
        # (x y)[i, i + kx + ky] = x[i, i + kx] y[i + kx, i + kx + ky], and band
        # k holds row i at entry i - max(0, -k).
        dim = self.dim
        out = {}
        for kx, vx in self.bands.items():
            for ky, vy in other.bands.items():
                k = kx + ky
                # Rows lo..hi-1, where all three entries exist: none when |k| >= dim.
                lo, hi = max(0, -kx, -k), dim - max(0, kx, k)
                if lo >= hi:
                    continue
                sx, sy, s = max(0, -kx), max(0, -ky) - kx, max(0, -k)
                term = vx[lo - sx : hi - sx] * vy[lo - sy : hi - sy]
                # A band's first term is stored as it is where it fills the band,
                # else put into zeros; a later term adds in place, after promoting
                # the band if the term's type is wider.
                w = out.get(k)
                if w is None:
                    if hi - lo == dim - abs(k):
                        out[k] = term
                    else:
                        w = out[k] = np.zeros(dim - abs(k), term.dtype)
                        w[lo - s : hi - s] = term
                    continue
                if w.dtype != term.dtype and not np.can_cast(term.dtype, w.dtype):
                    w = out[k] = w.astype(term.dtype)
                w[lo - s : hi - s] += term
        # As in construction, one wider band (a complex one) widens them all.
        if len(out) > 1:
            kinds = {w.dtype.kind for w in out.values()}
            if len(kinds) > 1:
                dtype = _band_dtype(kinds)
                out = {k: w.astype(dtype, copy=False) for k, w in out.items()}
        return BandOp.wrap(dim, out)

    def __add__(self, other: BandOp) -> BandOp:
        out = dict(self.bands)
        for k, v in other.bands.items():
            out[k] = out[k] + v if k in out else v
        return BandOp.wrap(self.dim, out)

    def __radd__(self, other):
        # sum() starts from 0.
        return self if other == 0 else NotImplemented

    def __sub__(self, other: BandOp) -> BandOp:
        out = dict(self.bands)
        for k, v in other.bands.items():
            out[k] = out[k] - v if k in out else -v
        return BandOp.wrap(self.dim, out)

    def __mul__(self, c) -> BandOp:
        if isinstance(c, (float, complex)):
            # Named, so that an integer band is scaled in extended precision
            # (numpy before 2.0 would form a float scalar times it in float64).
            kind = "c" if isinstance(c, complex) else "f"
            return BandOp.wrap(
                self.dim,
                {k: np.multiply(c, v, dtype=_band_dtype({kind, v.dtype.kind})) for k, v in self.bands.items()},
            )
        return BandOp.wrap(self.dim, {k: c * v for k, v in self.bands.items()})

    __rmul__ = __mul__

    def block_max(self, top: int) -> float:
        """Max absolute entry (i, j) with i, j < top.

        NaN when any of those entries is NaN, so a non-finite residual fails.
        Rounding to float64 is monotone and symmetric, so the float64 maximum
        of the rounded moduli is the rounded maximum; a complex modulus is
        taken before rounding, a real one after.
        """
        peak = 0.0
        for k, v in self.bands.items():
            if top > abs(k):
                x = v[: top - abs(k)]
                x = np.abs(x).astype(float) if x.dtype.kind == "c" else np.abs(x.astype(float))
                m = float(np.maximum.reduce(x))
                if m != m:
                    return m
                if m > peak:
                    peak = m
        return peak


def kept_levels(dim: int, degree: int) -> int:
    """Number of levels, n < dim - degree - 1, that truncation leaves intact in relations of this degree."""
    return dim - degree - 1


def relation_report(relations, dim: int, degree: int, tol: float) -> RelationReport:
    """Report over (name, residual[, nonzero]) tuples, in the order given.

    A residual is a dim x dim BandOp or a list of them (the largest counts),
    measured on the kept levels of its degree, or a float measured by the
    caller.  nonzero=True asserts the operator is not negligible, so that
    entry passes when its residual exceeds tol.  The headroom reported is the
    number of levels dropped.
    """
    top = kept_levels(dim, degree)
    entries = []
    for name, resid, *nonzero in relations:
        if isinstance(resid, BandOp):
            resid = [resid]
        if not isinstance(resid, float):
            resid = _peak(op.block_max(top) for op in resid)
        flag = bool(nonzero) and nonzero[0]
        entries.append(RelationEntry(name, resid, resid > tol if flag else resid <= tol, flag))
    return RelationReport(entries=tuple(entries), headroom=dim - top, tol=tol)


def require_rep(params: AlgebraParams, dim: int) -> None:
    """Raise unless the algebra has a Fock representation and dim >= 2 lam."""
    require_fock(params)
    require_dim(params.lam, dim)


def require_dim(lam: int, dim: int) -> None:
    """Raise unless dim >= 2 lam."""
    if dim < 2 * lam:
        raise DomainError(f"dimension must be >= {2 * lam}, got {dim}")


def ladders_from_table(roots: np.ndarray, dim: int) -> tuple[Ladder, ...]:
    """The ladders read from the rows of a read-only np.longdouble table, one per algebra.

    A row holds sqrt(F(0)), sqrt(F(1)), ...; its entries for n = 1..dim-1 are
    the one diagonal that a's band +1 and adag's band -1 share.  So a has
    sqrt(F(n)) at (n-1, n) and adag is its conjugate transpose.
    """
    return tuple(Ladder(a=BandOp.wrap(dim, {1: d}), adag=BandOp.wrap(dim, {-1: d})) for d in roots[:, 1:dim])


def build_ladder(params: AlgebraParams, dim: int) -> Ladder:
    """The ladder operators of a valid algebra (see ladders_from_table)."""
    require_rep(params, dim)
    roots = np.sqrt(structure_values(params, dim - 1)).astype(np.longdouble)[None]
    roots.setflags(write=False)
    return ladders_from_table(roots, dim)[0]


def build_rep(params: AlgebraParams, dim: int) -> TruncatedRep:
    """Build the truncated representation of a valid algebra.

    a and adag are build_ladder's, N is diagonal, P_mu projects onto levels
    n = mu mod lam, and T = exp(2i pi N / lam) is built from the phases at
    n mod lam, so it is exactly lam-periodic.  N and the P_mu are np.int64.
    """
    ladder = build_ladder(params, dim)
    lam = params.lam
    levels = np.arange(dim)
    classes = levels % lam
    return TruncatedRep(
        params=params,
        dim=dim,
        a=ladder.a,
        adag=ladder.adag,
        nmat=BandOp.diag(levels),
        proj=tuple(map(BandOp.diag, np.eye(lam, dtype=np.int64)[:, classes])),
        tmat=BandOp.diag(np.exp(2j * np.pi * np.arange(lam) / lam)[classes]),
    )


def h0(rep: TruncatedRep) -> BandOp:
    """Oscillator Hamiltonian (1/2){a, adag} as a diagonal BandOp of float64 energies.

    Raises DomainError unless, on the levels kept at degree 2, it is exactly
    diagonal and its diagonal matches N + 1/2 + sum gamma_mu P_mu within 1e-12.
    """
    m = 0.5 * (rep.a @ rep.adag + rep.adag @ rep.a)
    top = kept_levels(rep.dim, 2)
    diag = m.bands.get(0, np.zeros(rep.dim))
    if (m - BandOp.diag(diag)).block_max(top) != 0.0:
        raise DomainError("h0 must be diagonal away from the truncation edge")
    gamma = derived_constants(rep.params).gamma
    levels = np.arange(rep.dim)
    energies = diag.real.astype(float)
    formula = levels + 0.5 + np.array(gamma)[levels % rep.params.lam]
    if np.abs(energies[:top] - formula[:top]).max() > 1e-12:
        raise DomainError("h0 diagonal must match N + 1/2 + sum gamma_mu P_mu")
    return BandOp.diag(energies)


def check_relations(rep: TruncatedRep, tol: float = 1e-12) -> RelationReport:
    """Verify the defining relations and structure-function identities.

    All relations are degree <= 2 in the generators, checked band by band on
    the levels kept at degree 2.
    """
    lam = rep.params.lam
    dim = rep.dim
    alpha = rep.params.alpha
    a, adag, nmat, tmat, proj = rep.a, rep.adag, rep.nmat, rep.tmat, rep.proj
    eye = BandOp.diag(np.ones(dim, np.int64))
    fvals = structure_values(rep.params, dim)
    tpow = tmat
    for _ in range(lam - 1):
        tpow = tpow @ tmat
    w = np.exp(-2j * np.pi / lam)
    a_adag, adag_a = a @ adag, adag @ a
    relations = [
        ("[N, adag] = adag", nmat @ adag - adag @ nmat - adag),
        ("[N, P_mu] = 0", [nmat @ p - p @ nmat for p in proj]),
        ("sum_mu P_mu = I", sum(proj) - eye),
        (
            "[a, adag] = I + sum alpha_mu P_mu",
            a_adag - adag_a - (eye + sum(alpha[mu] * proj[mu] for mu in range(lam))),
        ),
        (
            "adag P_mu = P_{mu+1} adag",
            [adag @ proj[mu] - proj[(mu + 1) % lam] @ adag for mu in range(lam)],
        ),
        (
            "P_mu P_nu = delta_{mu,nu} P_mu",
            [
                pm @ pn - pm if mu == nu else pm @ pn
                for mu, pm in enumerate(proj)
                for nu, pn in enumerate(proj)
            ],
        ),
        ("adag a = F(N)", adag_a - BandOp.diag(fvals[:dim])),
        ("a adag = F(N+1)", a_adag - BandOp.diag(fvals[1:])),
        ("T^lam = I", tpow - eye),
        ("adag T = exp(-2i pi/lam) T adag", adag @ tmat - w * (tmat @ adag)),
        ("a T = exp(2i pi/lam) T a", a @ tmat - np.conj(w) * (tmat @ a)),
    ]
    return relation_report(relations, dim, 2, tol)


def klein_reduction_check(rep: TruncatedRep, tol: float = 1e-12) -> RelationReport:
    """Verify the order-2 reduction: T = (-1)^N and [a, adag] = I + kappa (-1)^N.

    T = (-1)^N is checked on the whole matrix, the commutator on the levels
    kept at degree 2.
    """
    if rep.params.lam != 2:
        raise DomainError(f"reduction requires order 2, got {rep.params.lam}")
    dim = rep.dim
    kappa = rep.params.alpha[0]
    a, adag = rep.a, rep.adag
    klein = BandOp.diag((-1) ** np.arange(dim))
    eye = BandOp.diag(np.ones(dim, np.int64))
    relations = [
        ("T = (-1)^N", (rep.tmat - klein).block_max(dim)),
        ("[a, adag] = I + kappa (-1)^N", a @ adag - adag @ a - (eye + kappa * klein)),
    ]
    return relation_report(relations, dim, 2, tol)


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
