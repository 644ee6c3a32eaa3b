"""Oscillator Hamiltonian spectra: analytic form, degeneracy structure, sweeps.

The spectrum E_n = n + gamma_{n mod lam} + 1/2 is a union of lam arithmetic
ladders with common spacing lam.  Degeneracy patterns are detected numerically
by clustering, period by period, rather than from analytic boundary formulas.
Everything here runs on Python floats, so spectra and sweeps load no numpy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .algebra import (
    AlgebraParams,
    DomainError,
    derived_constants,
    new_params,
    require_fock,
    require_order,
    validate_fock,
)

NONDEGENERATE = "nondegenerate"
# Energies at most this far apart are one level, in spectrum and sweep alike.
_CLUSTER_TOL = 1e-9


@dataclass(frozen=True)
class SpectrumLine:
    """One labeled level: n = k * lam + mu with energy n + gamma_mu + 1/2."""

    n: int
    k: int
    mu: int
    energy: float


@dataclass(frozen=True)
class Cluster:
    """Levels sharing one energy within the clustering tolerance."""

    energy: float
    levels: tuple[int, ...]


@dataclass(frozen=True)
class DegeneracyReport:
    """Stabilized degeneracy pattern of a spectrum.

    pattern is "nondegenerate" or "m-fold" for the largest multiplicity m
    recurring per period; threshold_energy is the lowest energy where that
    multiplicity first occurs.  stabilized records whether the last two fully
    resolved periods agree.  uniform_spacing is the common gap between distinct
    levels when one exists, else None.  The clusters these are read from are
    not kept.
    """

    pattern: str
    threshold_energy: float | None
    stabilized: bool
    uniform_spacing: float | None


@dataclass(frozen=True)
class SweepRecord:
    """One grid point of a parameter sweep.

    report is None at a point outside the Fock domain (valid is False) and at
    a valid point whose first n_max + 1 levels resolve no full period, or whose
    levels float64 cannot tell apart at the clustering tolerance.
    """

    params: AlgebraParams
    valid: bool
    report: DegeneracyReport | None


def analytic_spectrum(params: AlgebraParams, n_max: int) -> list[SpectrumLine]:
    """Labeled energies E_{k lam + mu} = k lam + mu + gamma_mu + 1/2 for n = 0..n_max."""
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    require_fock(params)
    gamma = derived_constants(params).gamma
    lam = params.lam
    lines = []
    for n in range(n_max + 1):
        mu = n % lam
        lines.append(
            SpectrumLine(n=n, k=n // lam, mu=mu, energy=n + gamma[mu] + 0.5)
        )
    return lines


def _require_ladders(lam: int, n_max: int) -> None:
    """Raise unless levels 0..n_max reach every one of the lam ladders.

    For a sweep, whose grid has no single gamma spread to bound n_max by.
    """
    if n_max < lam - 1:
        raise DomainError(f"n_max = {n_max} leaves a ladder empty; use n_max >= {3 * lam}")


def _unresolved(params: AlgebraParams, n_max: int, what: str) -> DomainError:
    """The error for an n_max that resolves no period, advising one that does.

    Period 0 lies at or below lam - 1 + max gamma + 1/2 and every ladder
    reaches n_max - (lam - 1) + min gamma + 1/2, so n_max >= 2 lam - 2 +
    max gamma - min gamma resolves it, and fills every ladder too.
    """
    gamma = derived_constants(params).gamma
    need = math.ceil(2 * params.lam - 2 + max(gamma) - min(gamma))
    return DomainError(f"n_max = {n_max} {what}; use n_max >= {need}")


def _cluster_energies(energies: list[float], tol: float) -> tuple[Cluster, ...]:
    """Group levels into clusters separated by gaps larger than tol."""
    # sorted is stable, so equal energies keep index order.
    order = sorted(range(len(energies)), key=energies.__getitem__)
    clusters = []
    current = [order[0]]
    for idx in order[1:]:
        if energies[idx] - energies[current[-1]] <= tol:
            current.append(idx)
        else:
            clusters.append(current)
            current = [idx]
    clusters.append(current)
    return tuple(
        Cluster(energy=energies[c[0]], levels=tuple(sorted(c))) for c in clusters
    )


def classify_degeneracy(
    params: AlgebraParams, n_max: int, tol: float = _CLUSTER_TOL
) -> DegeneracyReport:
    """Cluster the first n_max + 1 energies and report the periodic pattern.

    Clusters reaching past the shortest ladder's top level may be truncated,
    so the pattern is read off the last period whose clusters are complete,
    and stabilization requires the period before it to agree.  Raises
    DomainError when float64 spaces the largest |level| by more than tol, as
    clusters there would be rounding, not degeneracy.
    """
    return _classify(params, analytic_spectrum(params, n_max), tol)


def _classify(params: AlgebraParams, lines: list[SpectrumLine], tol: float) -> DegeneracyReport:
    """classify_degeneracy of the levels analytic_spectrum built for params."""
    energies = [line.energy for line in lines]
    lam = params.lam
    n_max = len(energies) - 1
    top = max(map(abs, energies))
    if math.ulp(top) > tol:
        raise DomainError(f"levels near {top:.3g} lie {math.ulp(top):.3g} apart in float64, more than tol = {tol:g}")
    if n_max < lam - 1:
        raise _unresolved(params, n_max, "leaves a ladder empty")
    clusters = _cluster_energies(energies, tol)

    # A cluster is complete when every ladder still reaches its energy.
    complete_limit = min(max(energies[mu::lam]) for mu in range(lam))
    complete = [c for c in clusters if c.energy <= complete_limit + tol]

    # mult[n]: the multiplicity of level n's complete cluster, 0 if none holds n.
    mult = [0] * len(energies)
    for c in complete:
        for n in c.levels:
            mult[n] = len(c.levels)
    periods = (mult[k : k + lam] for k in range(0, len(mult) - lam + 1, lam))
    signatures = [sig for sig in periods if all(sig)]
    if not signatures:
        raise _unresolved(params, n_max, "leaves no fully resolved period")
    stabilized = len(signatures) >= 2 and signatures[-2] == signatures[-1]

    m = max(signatures[-1])
    if m == 1:
        pattern = NONDEGENERATE
        threshold = None
    else:
        pattern = f"{m}-fold"
        threshold = min(c.energy for c in complete if len(c.levels) == m)

    distinct = [c.energy for c in complete]
    gaps = [b - a for a, b in zip(distinct, distinct[1:])]
    spacing = None
    if gaps and all(abs(g - gaps[0]) <= tol for g in gaps):
        spacing = gaps[0]

    return DegeneracyReport(
        pattern=pattern,
        threshold_energy=threshold,
        stabilized=stabilized,
        uniform_spacing=spacing,
    )


def _sweep_point(
    lam: int, point: tuple[float, ...], n_max: int, tol: float
) -> SweepRecord:
    params = new_params(lam, list(point))
    if not validate_fock(params).ok:
        return SweepRecord(params=params, valid=False, report=None)
    try:
        report = classify_degeneracy(params, n_max, tol)
    except DomainError:
        # The point is Fock-valid and sweep checked n_max, so no period resolved
        # or float64 cannot resolve the levels.
        report = None
    return SweepRecord(params=params, valid=True, report=report)


def sweep(
    lam: int,
    axes: Sequence[Iterable[float]],
    n_max: int = 60,
    tol: float = _CLUSTER_TOL,
) -> Iterator[SweepRecord]:
    """Classify every point of a rectangular grid over (alpha_0..alpha_{lam-2}).

    Yields one record per grid point in row-major order; invalid points, and
    valid ones that n_max leaves unresolved or whose levels are too large for
    float64 to resolve at tol, are flagged rather than skipped: a valid point
    without a report is written `true,,` by the CLI.
    The order, the axes and n_max are checked when sweep is called, every
    point's head too (each value finite, its sum within float64 range);
    results then stream one at a time.
    """
    require_order(lam)
    values = [[float(v) for v in axis] for axis in axes]
    if len(values) != lam - 1:
        raise DomainError(f"grid needs {lam - 1} axes for order {lam}, got {len(values)}")
    if not all(values):
        raise DomainError("grid axes must be nonempty")
    bad = [v for axis in values for v in axis if not math.isfinite(v)]
    if bad:
        raise DomainError(f"grid values must be finite, got {bad[0]}")
    # Rounded addition is monotone in each operand, so every point's left-to-right
    # sum lies between the two corners' sums: new_params accepts every head if it
    # accepts both corners.
    for corner in (min, max):
        new_params(lam, [corner(axis) for axis in values])
    _require_ladders(lam, n_max)
    return (_sweep_point(lam, point, n_max, tol) for point in itertools.product(*values))
