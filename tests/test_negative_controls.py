"""Faults that every relation entry must catch: each entry of every suite at lam 2-5.

[N, adag] = adag, [N, P_mu] = 0 and every [H, Q] = 0 (fock.commutator) form
the difference of their like terms before multiplying by the factor they
share, so where the terms cancel they leave no rounding at all, and
Q Qdag Q = 4 c^2 Q H is evaluated in np.longdouble.  That must not make them
unable to fail: each fault below, applied once to the built operators, gives
its entry a residual >= 1e-3, and the unfaulted build passes.

Every other entry of check_relations, klein, pssqm, pssqm-cubic, pseudo1,
pseudo2 and ossqm is failed the same way by one paper-level fault: alpha
perturbed in one operator's build (so that its F is not the algebra's), a T
phase moved off the lam-th roots of unity, a projector on the wrong class,
a masked charge level filled, one charge entry scaled, or Q2's phase
flipped.  A nonzero entry (Q^p != 0, Q != 0) fails by reading zero: its
fault drops the charge's projectors until no p consecutive steps are left.

partner_check and sqm2_check read every sector of the hierarchy's stacked
operators at once, so a fault in one sector must fail exactly the entries
that read that sector, and no other.  sqm2's Q^2 = 0 is structural (0.0
for every input), so no fault fails it.
"""

import dataclasses

import numpy as np
import pytest

from cycosc import (
    BandOp,
    build_hierarchy,
    build_rep,
    check_relations,
    klein_reduction_check,
    new_params,
    ossqm_build,
    ossqm_check,
    pseudo_check,
    pseudo_family1_build,
    pseudo_family2_build,
    partner_check,
    pssqm_build,
    pssqm_check,
    pssqm_cubic_check,
    sqm2_check,
)

DIM = 60
FAULT = 1e-3
C = 0.7
# A level in the lower half of the levels, well inside every kept block.
LEVEL = DIM // 2


def params_of(lam):
    return new_params(lam, [0.3, -0.2, 0.4, 0.1][: lam - 1])


def perturbed(params):
    """params with alpha_0 moved by 10 FAULT, and so alpha_{lam-1} by minus that."""
    head = list(params.alpha[:-1])
    head[0] += 10 * FAULT
    return new_params(params.lam, head)


def fails(report, name):
    # A nonzero entry fails by reading (near) zero, any other by a residual >= FAULT.
    e = next(e for e in report.entries if e.name == name)
    return not e.passed and (e.nonzero or e.residual >= FAULT)


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


def ladders_of_perturbed_alpha(rep):
    other = build_rep(perturbed(rep.params), DIM)
    return dataclasses.replace(rep, a=other.a, adag=other.adag)


def with_p0(rep, p0):
    """rep with sector 0 of its stacked projectors replaced by the operator p0."""
    return dataclasses.replace(
        rep, proj=BandOp.stack([p0, *(rep.proj.take(mu) for mu in range(1, rep.params.lam))])
    )


def t_phase_off_the_roots(rep):
    # The phase of class 0 turned by 10 FAULT radians.
    t = np.array(rep.tmat.bands[0])
    t[:: rep.params.lam] *= np.exp(10j * FAULT)
    return dataclasses.replace(rep, tmat=BandOp.diag(t))


# Fault -> (the entries it must fail, the fault).
ALGEBRA_FAULTS = {
    "N scaled by 2": (["[N, adag] = adag"], lambda rep: dataclasses.replace(rep, nmat=2 * rep.nmat)),
    "adag on the wrong offset": (
        ["[N, adag] = adag"],
        lambda rep: dataclasses.replace(rep, adag=BandOp(DIM, {1: rep.adag.bands[-1]})),
    ),
    "P_0 mixed with adag": (
        ["[N, P_mu] = 0"],
        lambda rep: with_p0(rep, rep.proj.take(0) + rep.adag),
    ),
    "ladders of perturbed alpha": (
        ["[a, adag] = I + sum alpha_mu P_mu", "adag a = F(N)", "a adag = F(N+1)"],
        ladders_of_perturbed_alpha,
    ),
    "T phase off the roots": (
        ["T^lam = I", "adag T = exp(-2i pi/lam) T adag", "a T = exp(2i pi/lam) T a"],
        t_phase_off_the_roots,
    ),
    "P_0 on class 1": (
        ["sum_mu P_mu = I", "adag P_mu = P_{mu+1} adag", "P_mu P_nu = delta_{mu,nu} P_mu"],
        lambda rep: with_p0(rep, rep.proj.take(1)),
    ),
}
KLEIN_FAULTS = {
    "ladders of perturbed alpha": ("[a, adag] = I + kappa (-1)^N", ladders_of_perturbed_alpha),
    "T phase off the roots": ("T = (-1)^N", t_phase_off_the_roots),
}


@pytest.mark.parametrize("lam", [2, 3, 4, 5])
@pytest.mark.parametrize("fault", list(ALGEBRA_FAULTS))
def test_algebra_fault(lam, fault):
    names, apply = ALGEBRA_FAULTS[fault]
    rep = build_rep(params_of(lam), DIM)
    assert check_relations(rep).ok
    report = check_relations(apply(rep))
    assert all(fails(report, name) for name in names), report.failures()


@pytest.mark.parametrize("fault", list(KLEIN_FAULTS))
def test_klein_fault(fault):
    name, apply = KLEIN_FAULTS[fault]
    rep = build_rep(params_of(2), DIM)
    assert klein_reduction_check(rep).ok
    assert fails(klein_reduction_check(apply(rep)), name)


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
        for lam in (2, 3, 4, 5)
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


def filled_level(charge, k):
    """The fault that fills the first masked entry of the charge's band k from LEVEL on.

    The entry gets the ladder root of its level times the coefficient the
    band's unmasked entries carry, as if the charge's projector let it through.
    """
    def fault(sol):
        roots = build_rep(sol.params, DIM).a.bands[1]
        op = getattr(sol, charge)
        v = np.array(op.bands[k])
        i = np.flatnonzero(v)[0]
        j = LEVEL + np.flatnonzero(v[LEVEL:] == 0)[0]
        v[j] = v[i] / roots[i] * roots[j]
        return dataclasses.replace(sol, **{charge: BandOp(DIM, {**op.bands, k: v})})
    return fault


def dropped_projectors(*classes):
    """The fault that drops the parasupercharge's projectors onto classes mu + nu, nu in classes."""
    def fault(sol):
        lam = sol.params.lam
        v = np.array(sol.Q.bands[-1])
        v[np.isin(np.arange(DIM - 1) % lam, [(sol.mu + nu) % lam for nu in classes])] = 0
        return dataclasses.replace(sol, Q=BandOp(DIM, {-1: v}))
    return fault


def charge_of_perturbed_alpha(sol):
    return dataclasses.replace(sol, Q=pssqm_build(perturbed(sol.params), sol.mu, DIM).Q)


def scaled_q1_entry(sol):
    k, j = largest_entry(sol.Q)
    return dataclasses.replace(sol, Q=scaled_entry(sol.Q, k, j, 1.5))


def flipped_q2_phase(sol):
    # Q2's a P_{mu+2} band is -conj(e^{i phi}) w: its sign flipped.
    return dataclasses.replace(sol, Q2=BandOp(DIM, {-1: sol.Q2.bands[-1], 1: -sol.Q2.bands[1]}))


def pssqm_of(lam):
    return lambda: pssqm_build(params_of(lam), 1, DIM)


def pssqm_report(sol):
    return pssqm_check(sol, sol.params.lam - 1)


def pseudo_report(sol):
    return pseudo_check(sol, C)


def cubic():
    # On the locus alpha_2 = -1, mu = 0, where the cubic relation holds.
    return pssqm_build(new_params(3, [0.5, 0.5]), 0, DIM)


# (case, build, check, fault, the entries it must fail)
VARIANT_FAULTS = [
    *[
        case
        for lam in (2, 3, 4, 5)
        for case in [
            (f"pssqm{lam}-charge of perturbed alpha", pssqm_of(lam), pssqm_report, charge_of_perturbed_alpha,
             ["sum_j Q^{p-j} Qdag Q^j = 2p Q^{p-1} H"]),
            (f"pssqm{lam}-masked level filled", pssqm_of(lam), pssqm_report, filled_level("Q", -1),
             [f"Q^{lam} = 0"]),
            # No p consecutive steps are left (at lam 2 the charge vanishes).
            (f"pssqm{lam}-P_mu+1 dropped", pssqm_of(lam), pssqm_report, dropped_projectors(1),
             [f"Q^{lam - 1} != 0"]),
        ]
    ],
    ("cubic-charge of perturbed alpha", cubic, pssqm_cubic_check, charge_of_perturbed_alpha,
     ["[Q, [Qdag, Q]] = 2 Q H"]),
    ("cubic-every projector dropped", cubic, pssqm_cubic_check, dropped_projectors(1, 2), ["Q != 0"]),
    ("pseudo1-masked level filled", pseudo1, pseudo_report, filled_level("Q", 1), ["Q^2 = 0"]),
    ("pseudo2-masked level filled", pseudo2, pseudo_report, filled_level("Q", 1), ["Q^2 = 0"]),
    ("ossqm-Q1 masked level filled", ossqm, ossqm_check, filled_level("Q", -1),
     ["Q1 Q1 = 0", "Q1 Q2 = 0", "Q2 Q1 = 0"]),
    ("ossqm-Q2 masked level filled", ossqm, ossqm_check, filled_level("Q2", 1), ["Q2 Q2 = 0"]),
    ("ossqm-Q2 phase flipped", ossqm, ossqm_check, flipped_q2_phase, ["Q1 Qdag2 = 0"]),
    ("ossqm-Q1 entry scaled", ossqm, ossqm_check, scaled_q1_entry, [
        "Q1 Qdag1 + sum_t Qdag_t Q_t = 2 H",
        "Q2 Qdag2 + sum_t Qdag_t Q_t = 2 H",
        "corollary: Q1 Qdag1 + Qdag1 Q1 + Qdag2 Q2 = 2 H",
    ]),
]


@pytest.mark.parametrize("case, build, check, fault, names", VARIANT_FAULTS, ids=[c[0] for c in VARIANT_FAULTS])
def test_variant_fault(case, build, check, fault, names):
    sol = build()
    assert check(sol).ok
    report = check(fault(sol))
    assert all(fails(report, name) for name in names), report.failures()


# The hierarchy's faults: E0^(mu) shifted, one entry of the ladder pair A_mu,
# Adag_mu scaled, one level of H^(mu) moved; each at LEVEL.
SPACING = "H^(mu) spacings realize omega cyclically"
ANTICOMMUTATOR, COMMUTATOR = "{Q, Qdag} = H", "[H, Q] = 0"


def down(m):
    return "H^(0) = Adag_0 A_0" if m == 0 else f"H^({m}) = Adag_{m} A_{m} + E0^({m})"


def up(m):
    return f"H^({m}) = A_{m - 1} Adag_{m - 1} + E0^({m - 1})"


def shifted_e0(h, mu):
    e0 = list(h.e0)
    e0[mu] += FAULT
    return dataclasses.replace(h, e0=tuple(e0))


def scaled_ladder_entry(h, mu):
    # A_mu and Adag_mu share their band, so both see the scaled entry.
    a = np.array(h.a.bands[1])
    a[mu, LEVEL] *= 1.5
    return dataclasses.replace(h, a=BandOp(DIM, {1: a}), adag=BandOp(DIM, {-1: a}))


def moved_h_level(h, mu):
    # A copy: the sectors of h.hmats are overlapping windows of one row.
    energies = np.array(h.hmats.bands[0])
    energies[mu, LEVEL] += FAULT
    return dataclasses.replace(h, hmats=BandOp(DIM, {0: energies}))


def expected_failures(fault, p, mu):
    """(partner entry names, {sqm2 sector: entry names}) that the fault must fail."""
    if fault == "E0 shifted":
        partner = {down(mu), *([up(mu + 1)] if mu < p else [])}
        return partner, ({mu: {ANTICOMMUTATOR}} if mu < p else {})
    if fault == "ladder entry scaled":
        # A_p is A_0: H^(p) factorizes through sector 0 again.
        partner = {down(mu), up(mu + 1), *([down(p)] if mu == 0 else [])}
        return partner, {mu: {ANTICOMMUTATOR}}
    # H^(mu) is the upper block of sqm2 sector mu and the lower block of sector mu - 1.
    partner = {down(mu), SPACING, *([up(mu)] if mu > 0 else [])}
    return partner, {nu: {COMMUTATOR, ANTICOMMUTATOR} for nu in (mu - 1, mu) if 0 <= nu < p}


HIERARCHY_FAULTS = {
    "E0 shifted": (shifted_e0, lambda lam: range(lam + 1)),
    "ladder entry scaled": (scaled_ladder_entry, lambda lam: range(lam)),
    "H level moved": (moved_h_level, lambda lam: range(lam + 1)),
}
HIERARCHY_CASES = [
    (fault, lam, mu) for fault, (_, sectors) in HIERARCHY_FAULTS.items() for lam in (2, 3, 4, 5) for mu in sectors(lam)
]


def failed(report):
    """Names of the failing entries, each required to fail by the fault.

    A level moved by 1e-3 is rounded to float64 (~1e-15 at these levels), so
    a residual may read 1e-3 less that rounding: 1e-12 is the margin allowed.
    """
    assert all(e.residual >= FAULT - 1e-12 for e in report.failures()), report.failures()
    return {e.name for e in report.failures()}


@pytest.mark.parametrize("fault, lam, mu", HIERARCHY_CASES, ids=[f"{f}-lam{lam}-mu{mu}" for f, lam, mu in HIERARCHY_CASES])
def test_hierarchy_fault_fails_exactly_its_entries(fault, lam, mu):
    h = build_hierarchy(params_of(lam), DIM)
    assert partner_check(h).ok
    assert all(sqm2_check(h, nu).ok for nu in range(lam))
    apply, _ = HIERARCHY_FAULTS[fault]
    partner, sqm2 = expected_failures(fault, lam, mu)
    bad = apply(h, mu)
    assert failed(partner_check(bad)) == partner
    for nu in range(lam):
        assert failed(sqm2_check(bad, nu)) == sqm2.get(nu, set()), nu
