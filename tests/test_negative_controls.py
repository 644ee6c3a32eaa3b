"""Faults that every difference-first or extended-precision entry must catch.

[N, adag] = adag, [N, P_mu] = 0 and every [H, Q] = 0 (fock.commutator) form
the difference of their like terms before multiplying by the factor they
share, so where the terms cancel they leave no rounding at all, and
Q Qdag Q = 4 c^2 Q H is evaluated in np.longdouble.  That must not make them
unable to fail: each fault below, applied once to the built operators, gives
its entry a residual >= 1e-3, and the unfaulted build passes.
"""

import dataclasses

import numpy as np
import pytest

from cycosc import (
    BandOp,
    build_rep,
    check_relations,
    new_params,
    ossqm_build,
    ossqm_check,
    pseudo_check,
    pseudo_family1_build,
    pseudo_family2_build,
    pssqm_build,
    pssqm_check,
)

DIM = 60
FAULT = 1e-3
C = 0.7


def params_of(lam):
    return new_params(lam, [0.3, -0.2, 0.4, 0.1][: lam - 1])


def fails(report, name):
    e = next(e for e in report.entries if e.name == name)
    return not e.passed and e.residual >= FAULT


def largest_entry(op):
    """(offset, entry) of op's largest entry in the lower half of the levels, well inside the kept block."""
    return max(
        ((k, int(np.argmax(np.abs(v[: DIM // 2])))) for k, v in op.bands.items()),
        key=lambda kj: abs(op.bands[kj[0]][kj[1]]),
    )


def moved_level(sol, charge="Q"):
    """sol with the H level at the row of the charge's largest entry moved by FAULT."""
    k, j = largest_entry(getattr(sol, charge))
    energies = sol.H.real_diagonal()
    energies[j + max(0, -k)] += FAULT
    return dataclasses.replace(sol, H=BandOp.diag(energies))


def scaled_entry(op, k, j, factor):
    v = np.array(op.bands[k])
    v[j] *= factor
    return BandOp(op.dim, {**op.bands, k: v})


ALGEBRA_FAULTS = {
    "N scaled by 2": ("[N, adag] = adag", lambda rep: dataclasses.replace(rep, nmat=2 * rep.nmat)),
    "adag on the wrong offset": (
        "[N, adag] = adag",
        lambda rep: dataclasses.replace(rep, adag=BandOp(DIM, {1: rep.adag.bands[-1]})),
    ),
    "P_0 mixed with adag": (
        "[N, P_mu] = 0",
        lambda rep: dataclasses.replace(rep, proj=(rep.proj[0] + rep.adag, *rep.proj[1:])),
    ),
}


@pytest.mark.parametrize("lam", [2, 3, 4, 5])
@pytest.mark.parametrize("fault", list(ALGEBRA_FAULTS))
def test_algebra_fault(lam, fault):
    name, apply = ALGEBRA_FAULTS[fault]
    rep = build_rep(params_of(lam), DIM)
    assert check_relations(rep).ok
    assert fails(check_relations(apply(rep)), name)


def pseudo1():
    return pseudo_family1_build(new_params(3, [0.5, 0.1]), 1, C, 0.4, 1.1, DIM)


def pseudo2():
    return pseudo_family2_build(new_params(3, [0.5, 0.1]), 1, C, 1.5, DIM)


def ossqm():
    return ossqm_build(new_params(3, [0.5, -1.0]), 0, 0.8, 2.0, DIM)


# (suite, build, check, charge attribute, entry name)
COMMUTATORS = [
    *[
        (f"pssqm{lam}", lambda lam=lam: pssqm_build(params_of(lam), 1, DIM),
         lambda sol: pssqm_check(sol, sol.params.lam - 1), "Q", "[H, Q] = 0")
        for lam in (3, 4, 5)
    ],
    ("pseudo1", pseudo1, lambda sol: pseudo_check(sol, C), "Q", "[H, Q] = 0"),
    ("pseudo2", pseudo2, lambda sol: pseudo_check(sol, C), "Q", "[H, Q] = 0"),
    ("ossqm-Q1", ossqm, ossqm_check, "Q", "[H, Q1] = 0"),
    ("ossqm-Q2", ossqm, ossqm_check, "Q2", "[H, Q2] = 0"),
]


@pytest.mark.parametrize("suite, build, check, charge, name", COMMUTATORS, ids=[c[0] for c in COMMUTATORS])
def test_moved_h_level_fails_the_commutator(suite, build, check, charge, name):
    sol = build()
    assert check(sol).ok
    assert fails(check(moved_level(sol, charge)), name)


@pytest.mark.parametrize("build", [pseudo1, pseudo2], ids=["pseudo1", "pseudo2"])
def test_perturbed_c_fails_the_pseudo_relation(build):
    sol = build()
    assert pseudo_check(sol, C).ok
    assert fails(pseudo_check(sol, C * (1.0 + FAULT)), "Q Qdag Q = 4 c^2 Q H")


@pytest.mark.parametrize("build", [pseudo1, pseudo2], ids=["pseudo1", "pseudo2"])
def test_scaled_ladder_entry_fails_the_pseudo_relation(build):
    # The largest ladder entry of the charge scaled.
    sol = build()
    k, j = largest_entry(sol.Q)
    faulted = dataclasses.replace(sol, Q=scaled_entry(sol.Q, k, j, 1.5))
    assert fails(pseudo_check(faulted, C), "Q Qdag Q = 4 c^2 Q H")
