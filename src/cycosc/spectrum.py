"""Oscillator Hamiltonian spectra: analytic form, degeneracy structure, sweeps.

The spectrum E_n = n + gamma_{n mod lam} + 1/2 is a union of lam arithmetic
ladders with common spacing lam.  Degeneracy patterns are detected numerically
by clustering, period by period, rather than from analytic boundary formulas.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .algebra import (
    AlgebraParams,
    DomainError,
    derived_constants,
    new_params,
    require_fock,
    validate_fock,
)
from .fock import DEGREE2_HEADROOM, BandOp, TruncatedRep

NONDEGENERATE = "nondegenerate"


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

    @property
    def multiplicity(self) -> int:
        return len(self.levels)


@dataclass(frozen=True)
class DegeneracyReport:
    """Stabilized degeneracy pattern of a spectrum.

    pattern is "nondegenerate" or "m-fold" for the largest multiplicity m
    recurring per period; threshold_energy is the lowest energy where that
    multiplicity first occurs.  stabilized records whether the last two fully
    resolved periods agree.  uniform_spacing is the common gap between distinct
    levels when one exists, else None.
    """

    pattern: str
    threshold_energy: float | None
    clusters: tuple[Cluster, ...]
    stabilized: bool
    uniform_spacing: float | None


@dataclass(frozen=True)
class SweepRecord:
    """One grid point of a parameter sweep."""

    params: AlgebraParams
    valid: bool
    report: DegeneracyReport | None


def h0(rep: TruncatedRep) -> BandOp:
    """Oscillator Hamiltonian (1/2){a, adag} as a diagonal BandOp of float64 energies.

    Raises DomainError unless, on the headroom block, it is exactly diagonal
    and its diagonal matches N + 1/2 + sum gamma_mu P_mu within 1e-12.
    """
    m = 0.5 * (rep.a @ rep.adag + rep.adag @ rep.a)
    top = rep.dim - DEGREE2_HEADROOM
    diag = m.bands.get(0, np.zeros(rep.dim))
    if (m - BandOp.diag(diag)).block_max([(0, top)]) != 0.0:
        raise DomainError("h0 must be diagonal away from the truncation edge")
    gamma = derived_constants(rep.params).gamma
    levels = np.arange(rep.dim)
    energies = diag.real.astype(float)
    formula = levels + 0.5 + np.array(gamma)[levels % rep.params.lam]
    if np.abs(energies[:top] - formula[:top]).max() > 1e-12:
        raise DomainError("h0 diagonal must match N + 1/2 + sum gamma_mu P_mu")
    return BandOp.diag(energies)


def analytic_spectrum(params: AlgebraParams, n_max: int) -> list[SpectrumLine]:
    """Labeled energies E_{k lam + mu} = k lam + mu + gamma_mu + 1/2 for n = 0..n_max."""
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


def _cluster_energies(
    energies: np.ndarray, tol: float
) -> tuple[Cluster, ...]:
    """Group levels into clusters separated by gaps larger than tol."""
    order = np.argsort(energies, kind="stable")
    clusters = []
    current = [int(order[0])]
    for idx in order[1:]:
        if energies[idx] - energies[current[-1]] <= tol:
            current.append(int(idx))
        else:
            clusters.append(current)
            current = [int(idx)]
    clusters.append(current)
    return tuple(
        Cluster(energy=float(energies[c[0]]), levels=tuple(sorted(c)))
        for c in clusters
    )


def classify_degeneracy(
    params: AlgebraParams, n_max: int, tol: float = 1e-9
) -> DegeneracyReport:
    """Cluster the first n_max + 1 energies and report the periodic pattern.

    Clusters reaching past the shortest ladder's top level may be truncated,
    so the pattern is read off the last period whose clusters are complete,
    and stabilization requires the period before it to agree.
    """
    require_fock(params)
    lam = params.lam
    if n_max < lam - 1:
        raise DomainError(f"n_max = {n_max} leaves a ladder empty; use n_max >= {3 * lam}")
    energies = np.array([line.energy for line in analytic_spectrum(params, n_max)])
    clusters = _cluster_energies(energies, tol)

    # A cluster is complete when every ladder still reaches its energy.
    ladder_tops = [
        energies[np.arange(len(energies)) % lam == mu].max() for mu in range(lam)
    ]
    complete_limit = min(ladder_tops)
    complete = [c for c in clusters if c.energy <= complete_limit + tol]

    cluster_of = {}
    for c in complete:
        for n in c.levels:
            cluster_of[n] = c

    signatures = []
    n_periods = (n_max + 1) // lam
    for k in range(n_periods):
        period = range(k * lam, (k + 1) * lam)
        if all(n in cluster_of for n in period):
            signatures.append(
                (k, tuple(cluster_of[n].multiplicity for n in period))
            )
    if not signatures:
        raise DomainError(
            f"n_max = {n_max} leaves no fully resolved period; use n_max >= {3 * lam}"
        )
    last_k, last_sig = signatures[-1]
    stabilized = len(signatures) >= 2 and signatures[-2][1] == last_sig

    m = max(last_sig)
    if m == 1:
        pattern = NONDEGENERATE
        threshold = None
    else:
        pattern = f"{m}-fold"
        threshold = min(c.energy for c in complete if c.multiplicity == m)

    distinct = np.array([c.energy for c in complete])
    spacing = None
    if distinct.size >= 2:
        gaps = np.diff(distinct)
        if np.all(np.abs(gaps - gaps[0]) <= tol):
            spacing = float(gaps[0])

    return DegeneracyReport(
        pattern=pattern,
        threshold_energy=threshold,
        clusters=clusters,
        stabilized=stabilized,
        uniform_spacing=spacing,
    )


def _sweep_point(
    lam: int, point: tuple[float, ...], n_max: int, tol: float
) -> SweepRecord:
    params = new_params(lam, list(point))
    if not validate_fock(params).ok:
        return SweepRecord(params=params, valid=False, report=None)
    report = classify_degeneracy(params, n_max, tol)
    return SweepRecord(params=params, valid=True, report=report)


def sweep(
    lam: int,
    axes: Sequence[Iterable[float]],
    n_max: int = 60,
    tol: float = 1e-9,
) -> Iterator[SweepRecord]:
    """Classify every point of a rectangular grid over (alpha_0..alpha_{lam-2}).

    Yields one record per grid point in row-major order; invalid points are
    flagged rather than skipped.  Results stream one at a time.
    """
    arrs = [np.asarray(list(axis), dtype=float) for axis in axes]
    if len(arrs) != lam - 1:
        raise DomainError(f"grid needs {lam - 1} axes for order {lam}, got {len(arrs)}")
    if any(arr.size == 0 for arr in arrs):
        raise DomainError("grid axes must be nonempty")
    for point in itertools.product(*(arr.tolist() for arr in arrs)):
        yield _sweep_point(lam, point, n_max, tol)
