"""Truncated Fock-space representation, band-wise relation evaluation, and checks.

The representation acts on the number basis |0>..|D-1> with ladder matrix
elements sqrt(F(n)).  Every operator the package builds is a BandOp, a sum of
weighted shifts, each stored as its diagonal in the type of the vectors it
was built from: np.int64 for the integer operators (N, P_mu, I, (-1)^N),
float64 for real ones, complex128 where a phase enters.  Every relation check
evaluates its identity band by band on those diagonals; a commutator with a
diagonal operator takes the difference of its two diagonal entries before
multiplying (commutator), so [N, adag] = adag holds exactly.
build_rep derives F(0..dim) once and keeps it on the representation, beside
the ladder roots taken from it, and holds the lam projectors P_mu as the
sectors of one stacked operator, so that check_relations evaluates each
projector family as one product and each sum over mu as one contraction
(BandOp.contract).
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
class TruncatedRep:
    """a, adag, N, T and P_mu at truncation dimension a.dim, as weighted shifts.

    fvals is F(0..dim), read-only float64, the values whose square roots
    sqrt(F(1..dim-1)) are the ladders' band.  proj holds the lam projectors as
    the sectors of one read-only int64 operator: P_mu is proj.take(mu).
    """

    params: AlgebraParams
    a: BandOp
    adag: BandOp
    fvals: np.ndarray
    nmat: BandOp
    proj: BandOp
    tmat: BandOp


@dataclass(eq=False)
class BandOp:
    """A square operator as a sum of weighted shifts, each stored as its diagonal.

    bands maps an offset k to the diagonal v = np.diagonal(m, k): dim - |k|
    entries, entry j at row j + max(0, -k).  Every operator of the algebra has
    at most two bands, so a product or a block maximum costs O(dim) per pair
    of bands instead of a dense O(dim^3) matmul.  A band may also carry a
    leading sector axis, shape (S, dim - |k|), as BandOp.stack builds it: S
    operators evaluated as one, whose products, sums and block maxima cover
    all sectors at once (sector_max gives one maximum per sector; contract
    sums them with weights), with a band of shape (dim - |k|,) shared by
    every sector.  A band of any other shape, or two sector counts, is a
    ValueError.
    An operator's vectors are read-only and share one type, the np.result_type
    of the vectors it was built from: np.int64 for the integer operators (N,
    P_mu, I), float64 for real ones, complex128 where a phase enters, and
    np.longdouble only for the parasupercharge, which is built in it.  A product
    has one type too, numpy's promotion of its operands' types; sums and
    scalar multiples promote band by band, so a sum may hold real and complex
    bands side by side.
    """

    dim: int
    bands: dict[int, np.ndarray]
    # Lets numpy scalars and arrays defer to the reflected operators below.
    __array_ufunc__ = None

    def __post_init__(self):
        bands = {k: np.asarray(v) for k, v in self.bands.items()}
        dtype = np.result_type(*bands.values()) if bands else None
        sectors = {v.shape[:-1] for v in bands.values()} - {()}
        for k, v in bands.items():
            n = self.dim - abs(k)
            if v.ndim > 2 or v.shape[-1:] != (n,) or len(sectors) > 1:
                raise ValueError(f"band {k} needs shape ({n},) or (S, {n}), one S for all bands, got {v.shape}")
            # A writable band is the caller's array: copied, so that freezing it
            # leaves the caller's array as it was.
            if v.dtype != dtype or v.flags.writeable:
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
        """The nonzero diagonals of any square array, copied (for injected matrices)."""
        rows, cols = np.nonzero(m)
        offsets = np.unique(cols - rows).tolist()
        return cls(len(m), {k: np.diagonal(m, k).copy() for k in offsets})

    @classmethod
    def diag(cls, v: np.ndarray) -> BandOp:
        """The diagonal operator with entries v."""
        return cls(len(v), {0: v})

    @classmethod
    def stack(cls, ops) -> BandOp:
        """The operators as the sectors of one, in order, over the union of their offsets.

        Band k is (len(ops), dim - |k|), with zeros where an operator has no
        band k, in the np.result_type of all the operators' vectors; the bands
        are in the order of their offsets.
        """
        dim, stacked = ops[0].dim, {}
        dtype = np.result_type(*[v for op in ops for v in op.bands.values()] or [np.int64])
        for k in sorted({k for op in ops for k in op.bands}):
            zero = np.zeros(dim - abs(k), dtype)
            stacked[k] = np.stack([op.bands.get(k, zero) for op in ops]).astype(dtype, copy=False)
        return cls.wrap(dim, stacked)

    def take(self, sectors) -> BandOp:
        """The operator of the given sectors: an index array (in that order) or a slice over
        the sector axis, or one index, which gives that sector as an unstacked operator."""
        return BandOp.wrap(self.dim, {k: v[sectors] for k, v in self.bands.items()})

    def contract(self, weights: np.ndarray) -> BandOp:
        """The unstacked operator sum_s weights[s] x sector s, band by band, in the
        np.result_type of weights and the bands; a shared band counts once per sector."""
        bands = {k: weights @ v if v.ndim > 1 else weights.sum() * v for k, v in self.bands.items()}
        return BandOp.wrap(self.dim, bands)

    def dense(self) -> np.ndarray:
        """The dim x dim matrix, complex128 unless a band is wider."""
        m = np.zeros((self.dim, self.dim), np.result_type(np.complex128, *self.bands.values()))
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
        # k holds row i at entry i - max(0, -k), in every sector.
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
                term = vx[..., lo - sx : hi - sx] * vy[..., lo - sy : hi - sy]
                # A partial term is padded into zeros of its band's length; terms
                # add in order, and numpy's broadcasting and promotion widen the
                # band to the sectors and type of its terms.
                if hi - lo < dim - abs(k):
                    term, part = np.zeros(term.shape[:-1] + (dim - abs(k),), term.dtype), term
                    term[..., lo - s : hi - s] = part
                out[k] = out[k] + term if k in out else term
        # One type per operator, as in construction: a complex band widens them all.
        if len({w.dtype for w in out.values()}) > 1:
            dtype = np.result_type(*out.values())
            out = {k: w.astype(dtype) for k, w in out.items()}
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
        return BandOp.wrap(self.dim, {k: c * v for k, v in self.bands.items()})

    __rmul__ = __mul__

    def sector_max(self, top: int):
        """Max absolute entry (i, j) with i, j < top of each sector.

        An array of S maxima for a stacked operator, one scalar for an unstacked
        one, 0.0 when no band reaches the block.  NaN in a sector when any of
        its entries there is NaN, so a non-finite residual fails.  Rounding to
        float64 is monotone and symmetric, so the float64 maximum of the rounded
        moduli is the rounded maximum of the moduli.
        """
        peak = None
        for k, v in self.bands.items():
            if top > abs(k):
                m = np.maximum.reduce(np.abs(v[..., : top - abs(k)]), axis=-1)
                peak = m if peak is None else np.maximum(peak, m)
        return 0.0 if peak is None else peak

    def block_max(self, top: int) -> float:
        """Max absolute entry (i, j) with i, j < top over every sector: the largest sector_max, NaN if any is."""
        peak = self.sector_max(top)
        return float(np.maximum.reduce(peak) if isinstance(peak, np.ndarray) else peak)


def commutator(x: BandOp, y: BandOp) -> BandOp:
    """[x, y] = x y - y x, with the diagonal band d of x taken difference-first.

    [diag(d), y] has band k equal to (d_i - d_{i+k}) y_k at row i: the
    difference of d at the two ends of each entry is formed before it
    multiplies y, so an integer or exactly cancelling difference adds no
    rounding.  The other bands of x enter as x_off y - y x_off.
    """
    dim = x.dim
    d = x.bands.get(0)
    out = BandOp.wrap(dim, {})
    if d is not None:
        for k, v in y.bands.items():
            # Band k holds rows max(0, -k).. against columns max(0, k)..
            out.bands[k] = (d[..., max(0, -k) : dim - max(0, k)] - d[..., max(0, k) : dim - max(0, -k)]) * v
    off = {k: v for k, v in x.bands.items() if k != 0}
    if off:
        off = BandOp.wrap(dim, off)
        out = out + (off @ y - y @ off)
    return out


def kept_levels(dim: int, degree: int) -> int:
    """Number of levels, n < dim - degree - 1, that truncation leaves intact in relations of this degree."""
    return dim - degree - 1


def relation_report(relations, dim: int, degree: int, tol: float) -> RelationReport:
    """Report over (name, residual[, nonzero]) tuples, in the order given.

    A residual is a dim x dim BandOp, measured on the kept levels of its
    degree in every sector (the largest counts), or a float measured by the
    caller.  nonzero=True asserts the operator is not negligible, so that
    entry passes when its residual exceeds tol.  The headroom reported is the
    number of levels dropped.
    """
    top = kept_levels(dim, degree)
    entries = []
    for name, resid, *nonzero in relations:
        if isinstance(resid, BandOp):
            resid = resid.block_max(top)
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


def build_rep(params: AlgebraParams, dim: int) -> TruncatedRep:
    """Build the truncated representation of a valid algebra.

    F(0..dim) is derived once and kept as fvals.  a has sqrt(F(n)) at (n-1, n)
    and adag is its conjugate transpose: a's band +1 and adag's band -1 are one
    read-only float64 diagonal, sqrt(F(1..dim-1)).  N is diagonal, P_mu projects
    onto levels n = mu mod lam, all lam of them one (lam, dim) band, and
    T = exp(2i pi N / lam) is built from the phases at n mod lam, so it is
    exactly lam-periodic.  N and the P_mu are np.int64.
    """
    require_rep(params, dim)
    fvals = structure_values(params, dim)
    roots = np.sqrt(fvals[1:dim])
    levels = np.arange(dim)
    classes = levels % params.lam
    sectors = np.arange(params.lam)
    proj = (classes == sectors[:, None]).astype(np.int64)
    tphase = np.exp(2j * np.pi * sectors / params.lam)[classes]
    for v in (fvals, roots, levels, proj, tphase):
        v.setflags(write=False)
    return TruncatedRep(
        params=params,
        a=BandOp.wrap(dim, {1: roots}),
        adag=BandOp.wrap(dim, {-1: roots}),
        fvals=fvals,
        nmat=BandOp.wrap(dim, {0: levels}),
        proj=BandOp.wrap(dim, {0: proj}),
        tmat=BandOp.wrap(dim, {0: tphase}),
    )


def h0(rep: TruncatedRep) -> BandOp:
    """Oscillator Hamiltonian (1/2){a, adag} as a diagonal BandOp of float64 energies.

    Raises DomainError unless, on the levels kept at degree 2, it is exactly
    diagonal and its diagonal matches N + 1/2 + sum gamma_mu P_mu within 1e-12.
    """
    m = 0.5 * (rep.a @ rep.adag + rep.adag @ rep.a)
    top = kept_levels(m.dim, 2)
    diag = m.bands.get(0, np.zeros(m.dim))
    if (m - BandOp.diag(diag)).block_max(top) != 0.0:
        raise DomainError("h0 must be diagonal away from the truncation edge")
    energies = diag.real.astype(float)
    formula = rep.nmat.bands[0] + 0.5 + rep.proj.contract(np.array(derived_constants(rep.params).gamma)).bands[0]
    if np.abs(energies[:top] - formula[:top]).max() > 1e-12:
        raise DomainError("h0 diagonal must match N + 1/2 + sum gamma_mu P_mu")
    return BandOp.diag(energies)


def check_relations(rep: TruncatedRep, tol: float = 1e-12) -> RelationReport:
    """Verify the defining relations and structure-function identities.

    All relations are degree <= 2 in the generators, checked band by band on
    the levels kept at degree 2.  Each projector family over mu, or over
    (mu, nu) in sector mu lam + nu, is one product of the stacked projectors,
    and sum_mu P_mu and sum_mu alpha_mu P_mu are one contraction each.
    """
    lam, dim, alpha = rep.params.lam, rep.a.dim, np.array(rep.params.alpha)
    a, adag, nmat, tmat, proj, fvals = rep.a, rep.adag, rep.nmat, rep.tmat, rep.proj, rep.fvals
    mu, nu = np.divmod(np.arange(lam * lam), lam)
    # Fresh vectors: wrapped, not copied as BandOp.diag would.
    eye = BandOp.wrap(dim, {0: np.ones(dim, np.int64)})
    tpow = tmat
    for _ in range(lam - 1):
        tpow = tpow @ tmat
    w = np.exp(-2j * np.pi / lam)
    a_adag, adag_a = a @ adag, adag @ a
    # delta_{mu,nu} P_mu: each band of P_mu written into sectors mu (lam + 1) of zeros.
    delta = BandOp.wrap(dim, {k: np.zeros((lam * lam, v.shape[-1]), v.dtype) for k, v in proj.bands.items()})
    for k, v in proj.bands.items():
        delta.bands[k][:: lam + 1] = v
    relations = [
        ("[N, adag] = adag", commutator(nmat, adag) - adag),
        ("[N, P_mu] = 0", commutator(nmat, proj)),
        ("sum_mu P_mu = I", proj.contract(np.ones(lam, np.int64)) - eye),
        ("[a, adag] = I + sum alpha_mu P_mu", a_adag - adag_a - (eye + proj.contract(alpha))),
        ("adag P_mu = P_{mu+1} adag", adag @ proj - proj.take(np.arange(1, lam + 1) % lam) @ adag),
        ("P_mu P_nu = delta_{mu,nu} P_mu", proj.take(mu) @ proj.take(nu) - delta),
        ("adag a = F(N)", adag_a - BandOp.wrap(dim, {0: fvals[:dim]})),
        ("a adag = F(N+1)", a_adag - BandOp.wrap(dim, {0: fvals[1:]})),
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
    dim = rep.a.dim
    kappa = rep.params.alpha[0]
    # Fresh vectors: wrapped, not copied as BandOp.diag would.
    klein = BandOp.wrap(dim, {0: (-1) ** np.arange(dim)})
    eye = BandOp.wrap(dim, {0: np.ones(dim, np.int64)})
    relations = [
        ("T = (-1)^N", (rep.tmat - klein).block_max(dim)),
        ("[a, adag] = I + kappa (-1)^N", rep.a @ rep.adag - rep.adag @ rep.a - (eye + kappa * klein)),
    ]
    return relation_report(relations, dim, 2, tol)


def _matrix_to_pairs(m: np.ndarray) -> list:
    """Row-major nested list of [re, im] pairs of a complex128 matrix."""
    return np.stack([m.real, m.imag], -1).tolist()


def rep_to_dict(rep: TruncatedRep) -> dict:
    """JSON-ready dump of all generator matrices for cross-checking."""
    a = rep.a.dense()
    matrices = {
        "a": _matrix_to_pairs(a),
        # As the conjugate transpose of a, whose zero imaginary parts print as -0.0.
        "adag": _matrix_to_pairs(a.conj().T),
        "n": _matrix_to_pairs(rep.nmat.dense()),
        "t": _matrix_to_pairs(rep.tmat.dense()),
        **{f"p{mu}": _matrix_to_pairs(rep.proj.take(mu).dense()) for mu in range(rep.params.lam)},
    }
    return {
        "lambda": rep.params.lam,
        "alpha": list(rep.params.alpha),
        "dim": rep.a.dim,
        "matrices": matrices,
    }
