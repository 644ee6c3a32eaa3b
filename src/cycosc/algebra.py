"""Parameter handling and closed-form constants for C_lambda-extended oscillator algebras.

An algebra of order lam is specified by lam real parameters alpha_0..alpha_{lam-1}
summing to zero.  Everything else used downstream (beta, gamma, omega, the
structure function F, the kappa coordinates) is a closed-form function of alpha
and lives here.  All of it runs on Python values; numpy is imported only by
structure_table and structure_values, which tabulate F.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    import numpy as np

REAL_TOL = 1e-12


class DomainError(ValueError):
    """Input outside the domain an operation is defined on; name, if set, names the parameter."""

    def __init__(self, message: str = "", name: str | None = None):
        super().__init__(message)
        self.name = name


class SymmetryError(DomainError):
    """Kappa vector violates the conjugation symmetry kappa_mu* = kappa_{lam-mu}."""


class InvalidParamsError(DomainError):
    """Parameters fail the Fock-space existence condition.

    Carries the residue classes mu at which F(mu) <= 0.
    """

    def __init__(self, violations: tuple[int, ...]):
        self.violations = violations
        super().__init__(
            "no Fock representation: F(mu) <= 0 at mu = "
            + ", ".join(str(v) for v in violations)
        )


@dataclass(frozen=True)
class AlgebraParams:
    """Order lam and the full parameter vector alpha, with sum(alpha) = 0.

    Use new_params to construct: the last entry is always derived from the
    first lam - 1, so the zero-sum constraint holds by construction.
    """

    lam: int
    alpha: tuple[float, ...]

    def __post_init__(self):
        require_order(self.lam)
        object.__setattr__(self, "alpha", _finite_floats(self.alpha, "alpha", self.lam))


@dataclass(frozen=True)
class KappaParams:
    """Complex coordinates kappa_1..kappa_{lam-1} on the same parameter space.

    Subject to kappa_mu* = kappa_{lam-mu}; purely an alternate chart on alpha.
    """

    kappa: tuple[complex, ...]

    def __post_init__(self):
        try:
            kappa = () if isinstance(self.kappa, str) else tuple(map(complex, self.kappa))
        except (TypeError, ValueError):
            kappa = ()
        except OverflowError:
            raise DomainError("kappa entries must be finite") from None
        if not kappa:
            raise DomainError("kappa must be a nonempty vector")
        if not all(map(cmath.isfinite, kappa)):
            raise DomainError("kappa entries must be finite")
        object.__setattr__(self, "kappa", kappa)

    @property
    def lam(self) -> int:
        return len(self.kappa) + 1


@dataclass(frozen=True)
class DerivedConstants:
    """Prefix sums beta, Hamiltonian offsets gamma, and level spacings omega.

    beta_0 = 0, beta_mu = sum(alpha_nu for nu < mu), gamma_mu = beta_mu + alpha_mu / 2,
    omega_mu = 1 + alpha_mu.
    """

    beta: tuple[float, ...]
    gamma: tuple[float, ...]
    omega: tuple[float, ...]


@dataclass(frozen=True)
class FockValidation:
    """Outcome of the existence check F(mu) > 0 for mu = 1..lam-1."""

    ok: bool
    violations: tuple[int, ...]


def require_order(lam: int) -> None:
    """Raise DomainError unless lam >= 2."""
    if lam < 2:
        raise DomainError(f"order must be >= 2, got {lam}")


def _finite_floats(values, what: str, size: int) -> tuple[float, ...]:
    """values as a tuple of floats; DomainError unless it holds size finite numbers."""
    try:
        floats = tuple(map(float, values))
    except (TypeError, ValueError):
        raise DomainError(f"{what} must be a vector of {size} numbers") from None
    except OverflowError:
        raise DomainError(f"{what} entries must be finite") from None
    if len(floats) != size:
        raise DomainError(f"{what} must have length {size}, got ({len(floats)},)")
    if not all(map(math.isfinite, floats)):
        raise DomainError(f"{what} entries must be finite")
    return floats


def _require_zero_sum(alpha: tuple[float, ...]) -> None:
    """Raise DomainError unless the exact sum of alpha (math.fsum) is within REAL_TOL of 0."""
    try:
        total = math.fsum(alpha)
    except OverflowError:
        raise DomainError("the sum of alpha leaves float64 range") from None
    if abs(total) > REAL_TOL:
        raise DomainError("alpha must sum to zero")


def new_params(lam: int, alpha_head: Iterable[float]) -> AlgebraParams:
    """Build AlgebraParams from the first lam - 1 entries of alpha.

    The last entry is set to minus the prefix sum of the head, so the zero-sum
    constraint is exact in floating point.  The Fock condition is not enforced
    here; see validate_fock.
    """
    require_order(lam)
    head = _finite_floats(alpha_head, "alpha_head", lam - 1)
    # Left to right, as derived_constants takes beta: the derived entry cancels
    # beta_{lam-1} exactly, so F(lam) = lam holds bitwise downstream.
    total = functools.reduce(operator.add, head)
    if not math.isfinite(total):
        raise DomainError("the sum of alpha_head leaves float64 range")
    return AlgebraParams(lam=lam, alpha=head + (-total,))


def derived_constants(params: AlgebraParams) -> DerivedConstants:
    """Compute beta, gamma, omega from alpha by prefix sums, left to right as np.cumsum."""
    alpha = params.alpha
    beta = (0.0, *itertools.accumulate(alpha[:-1]))
    gamma = tuple(b + a / 2.0 for b, a in zip(beta, alpha))
    omega = tuple(1.0 + a for a in alpha)
    return DerivedConstants(beta=beta, gamma=gamma, omega=omega)


def validate_fock(params: AlgebraParams) -> FockValidation:
    """Check the Fock-space existence condition F(mu) > 0, mu = 1..lam-1.

    Returns the violations instead of raising, so invalid parameter regions can
    still be swept and mapped.
    """
    beta = derived_constants(params).beta
    violations = tuple(
        mu for mu in range(1, params.lam) if not mu + beta[mu] > 0.0
    )
    return FockValidation(ok=not violations, violations=violations)


def require_fock(params: AlgebraParams) -> None:
    """Raise InvalidParamsError, naming the violations, unless validate_fock holds."""
    check = validate_fock(params)
    if not check.ok:
        raise InvalidParamsError(check.violations)


def structure_function(params: AlgebraParams, n: int) -> float:
    """Evaluate F(n) = n + beta_{n mod lam}; F(0) = 0 always."""
    if n < 0:
        raise DomainError(f"level index must be >= 0, got {n}")
    beta = derived_constants(params).beta
    return n + beta[n % params.lam]


def structure_table(alpha: np.ndarray, size: int) -> np.ndarray:
    """F(0..size-1) of the algebra of each row of alpha (a vector or rows), in alpha's type.

    F(n) = n + beta_{n mod lam}, with beta the prefix sums of the row taken
    left to right by np.cumsum, as derived_constants takes them; so the
    precision of F is the precision of the alpha passed in.
    """
    import numpy as np

    lam = alpha.shape[-1]
    beta = np.zeros_like(alpha)
    np.cumsum(alpha[..., :-1], axis=-1, out=beta[..., 1:])
    # Beta repeated over the periods that cover size levels, then n added.
    periods = -(-size // lam)
    f = np.repeat(beta[..., None, :], periods, axis=-2).reshape(alpha.shape[:-1] + (-1,))[..., :size]
    f += np.arange(size, dtype=alpha.dtype)
    return f


def structure_values(params: AlgebraParams, n_max: int) -> np.ndarray:
    """Vector of F(0), F(1), ..., F(n_max), in float64."""
    if n_max < 0:
        raise DomainError(f"level index must be >= 0, got {n_max}")
    import numpy as np

    return structure_table(np.array(params.alpha), n_max + 1)


def cyclic_shift(params: AlgebraParams, mu: int) -> AlgebraParams:
    """Rotate the parameter vector: alpha'_nu = alpha_{nu + mu mod lam}.

    A pure permutation: entries are moved verbatim, so composing lam shifts
    restores the original bitwise and the zero sum is preserved as a value.
    """
    if not 0 <= mu < params.lam:
        raise DomainError(f"shift must satisfy 0 <= mu < {params.lam}, got {mu}")
    return AlgebraParams(lam=params.lam, alpha=params.alpha[mu:] + params.alpha[:mu])


def kappa_from_alpha(params: AlgebraParams) -> KappaParams:
    """Inverse Fourier transform of alpha restricted to nu = 1..lam-1.

    kappa_nu = (1/lam) sum_mu exp(-2i pi mu nu / lam) alpha_mu.  The zero-sum
    constraint on alpha plays the role of the absent nu = 0 coefficient.
    """
    lam, alpha = params.lam, params.alpha
    _require_zero_sum(alpha)
    return KappaParams(kappa=tuple(
        sum(cmath.exp(-2j * cmath.pi * mu * nu / lam) * a for mu, a in enumerate(alpha)) / lam
        for nu in range(1, lam)
    ))


def alpha_from_kappa(kappa_params: KappaParams) -> AlgebraParams:
    """Finite Fourier sum alpha_mu = sum_nu exp(2i pi mu nu / lam) kappa_nu.

    The order lam = len(kappa) + 1 comes from kappa_params.  Requires the
    conjugation symmetry kappa_nu* = kappa_{lam-nu}, which makes the result
    real; imaginary parts below 1e-12 are dropped.
    """
    kappa, lam = kappa_params.kappa, kappa_params.lam
    for nu in range(1, lam):
        if abs(kappa[nu - 1].conjugate() - kappa[lam - nu - 1]) > REAL_TOL:
            raise SymmetryError(f"kappa_{nu}* != kappa_{lam - nu}: conjugation symmetry violated")
    alpha = [
        sum(cmath.exp(2j * cmath.pi * mu * nu / lam) * k for nu, k in enumerate(kappa, 1))
        for mu in range(lam)
    ]
    if max(abs(a.imag) for a in alpha) > REAL_TOL:
        raise SymmetryError("transform produced non-real alpha")
    # Rebuild through new_params to restore the exact zero-sum invariant.
    return new_params(lam, [a.real for a in alpha[: lam - 1]])


def params_to_dict(params: AlgebraParams) -> dict:
    """Canonical JSON form: {"lambda": int, "alpha": [reals]}."""
    return {"lambda": params.lam, "alpha": list(params.alpha)}


def params_from_dict(obj: dict) -> AlgebraParams:
    """Load the canonical JSON form, accepting either full alpha or its head.

    lambda must be an integer and alpha a list of numbers, as JSON gives them
    (a JSON boolean is neither).
    """
    try:
        lam, alpha = obj["lambda"], obj["alpha"]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed params object: {exc}") from None
    if type(lam) is not int:
        raise DomainError(f"malformed params object: lambda must be an integer, got {type(lam).__name__}")
    if type(alpha) is not list or not all(type(a) in (int, float) for a in alpha):
        raise DomainError("malformed params object: alpha must be a list of numbers")
    alpha = _finite_floats(alpha, "alpha", len(alpha))
    if len(alpha) == lam:
        _require_zero_sum(alpha)
        return new_params(lam, alpha[: lam - 1])
    if len(alpha) == lam - 1:
        return new_params(lam, alpha)
    raise DomainError(
        f"alpha must have length {lam} or {lam - 1}, got {len(alpha)}"
    )
