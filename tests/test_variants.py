"""Parasupersymmetric, pseudosupersymmetric, and orthosupersymmetric charges."""

import dataclasses
import math

import numpy as np
import pytest

from cycosc import (
    BandOp,
    DomainError,
    build_rep,
    equal_spacing_r,
    ground_state_analysis,
    new_params,
    ossqm_build,
    ossqm_check,
    pseudo_check,
    pseudo_family1_build,
    pseudo_family2_build,
    pssqm_build,
    pssqm_check,
    pssqm_cubic_check,
    pssqm_r_constant,
    variant_to_dict,
)
from conftest import fock_valid_params


def sorted_level_spacings(sol, n_levels, cluster_tol=1e-9):
    levels = np.sort(sol.H.real_diagonal()[:n_levels])
    clusters = [levels[0]]
    for e in levels[1:]:
        if e - clusters[-1] > cluster_tol:
            clusters.append(e)
    return np.diff(np.asarray(clusters))


class TestPssqmBuild:
    def test_r_constant_vanishes_identically_at_order_two(self):
        # ((p-2) alpha + p(p-2))/p has an explicit p-2 factor.
        for head in ([0.0, 0.0], [1.0, -0.5], [2.0, -0.9]):
            params = new_params(3, head)
            for mu in range(3):
                assert pssqm_r_constant(params, mu) == 0.0

    @pytest.mark.parametrize("mu", [-1, 4, 5])
    def test_r_constant_rejects_an_out_of_range_family_index(self, mu):
        # mu = 4 at lam 4 used to wrap round to the mu = 0 value, 0.8999999999999999.
        with pytest.raises(DomainError, match=f"0 <= mu <= 3, got {mu}"):
            pssqm_r_constant(new_params(4, [0.1, 0.2, -0.3]), mu)

    def test_r_constant_order_three_free_oscillator(self):
        params = new_params(4, [0.0, 0.0, 0.0])
        assert pssqm_r_constant(params, 0) == 1.0
        sol = pssqm_build(params, 0, dim=24)
        assert sol.r_values == {"r_2": 1.0}

    def test_order_three_spectrum_clusters(self):
        sol = pssqm_build(new_params(4, [0.0, 0.0, 0.0]), 0, dim=24)
        diag = sol.H.real_diagonal()
        assert diag[0] == -1.0
        assert diag[1:5].tolist() == [3.0, 3.0, 3.0, 3.0]
        assert diag[5:9].tolist() == [7.0, 7.0, 7.0, 7.0]

    def test_ground_multiplicity_counts_family_index(self):
        params = new_params(3, [1.0, -0.5])
        for mu, expected in ((0, 1), (1, 2)):
            sol = pssqm_build(params, mu, dim=30)
            gs = ground_state_analysis(sol)
            assert gs.multiplicity == expected

    def test_two_fold_ground_sector_is_broken(self):
        sol = pssqm_build(new_params(3, [1.0, -0.5]), 1, dim=30)
        gs = ground_state_analysis(sol)
        assert gs.energy == pytest.approx(1.0)
        assert gs.broken

    def test_ground_sign_follows_gamma(self):
        # mu = 0 at order 2 puts the singlet at gamma_2 - 1/2: either sign occurs.
        cases = [
            ([1.0, -0.5], -0.25),
            ([3.0, -1.0], 0.5),
            ([1.5, -0.5], 0.0),
        ]
        for head, energy in cases:
            sol = pssqm_build(new_params(3, head), 0, dim=24)
            assert sol.H.real_diagonal().min() == energy

    @pytest.mark.parametrize("lam", [3, 4, 5])
    def test_charge_is_masked_raising_operator(self, lam):
        # The extended-precision charge is still sqrt(2) adag sum_nu P_{mu+nu}:
        # rounded to complex128 it matches the float64 representation up to
        # that product's own roundings (F, its square root, the sqrt(2)
        # factor), and its masked entries and Q^{p+1} are exact zeros.
        rng = np.random.default_rng(60 + lam)
        p = lam - 1
        for _ in range(3):
            params = fock_valid_params(rng, lam)
            rep = build_rep(params, 42)
            adag = rep.adag.dense().astype(complex)
            for mu in range(p + 1):
                sol = pssqm_build(params, mu, dim=42)
                assert list(sol.Q.bands) == [-1]
                q = sol.Q.dense()
                mask = sum(rep.proj.take((mu + nu) % lam).dense() for nu in range(1, p + 1))
                expected = math.sqrt(2.0) * (adag @ mask.astype(complex))
                np.testing.assert_allclose(
                    q.astype(complex), expected,
                    rtol=4 * np.finfo(float).eps, atol=0.0,
                )
                assert not q[expected == 0].any()
                assert not np.linalg.matrix_power(q, p + 1).any()

    def test_family_index_range(self):
        params = new_params(3, [0.0, 0.0])
        with pytest.raises(DomainError):
            pssqm_build(params, 3)
        with pytest.raises(DomainError):
            pssqm_build(params, -1)


class TestPssqmCheck:
    @pytest.mark.parametrize("lam", [3, 4, 5])
    def test_all_relations_hold(self, lam):
        rng = np.random.default_rng(40 + lam)
        p = lam - 1
        for _ in range(3):
            params = fock_valid_params(rng, lam)
            for mu in range(p + 1):
                sol = pssqm_build(params, mu, dim=42)
                report = pssqm_check(sol, p, tol=1e-10)
                assert report.ok, [(e.name, e.residual) for e in report.failures()]

    def test_nilpotency_is_exact(self):
        sol = pssqm_build(new_params(3, [1.0, -0.5]), 0, dim=30)
        cube = np.linalg.matrix_power(sol.Q.dense(), 3)
        assert np.abs(cube).max() == 0.0

    def test_charge_power_below_nilpotency_is_nonzero(self):
        sol = pssqm_build(new_params(4, [0.5, 0.0, -0.2]), 1, dim=30)
        report = pssqm_check(sol, 3, tol=1e-9)
        assert report.residual("Q^3 != 0") > 1.0

    @pytest.mark.parametrize("lam, dim", [(3, 6), (3, 40), (5, 11), (5, 40)])
    def test_nonzero_entries_read_every_row_of_a_triangular_charge(self, lam, dim):
        # Q has one band at offset -1, so Q^p is exact on every row: the
        # entries are the largest moduli of the whole matrices.
        sol = pssqm_build(new_params(lam, [0.3, -0.2, 0.1, 0.25][: lam - 1]), 0, dim=dim)
        q = sol.Q.dense()
        p = lam - 1
        report = pssqm_check(sol, p)
        assert report.residual(f"Q^{p} != 0") == float(np.abs(np.linalg.matrix_power(q, p)).max())
        assert report.ok
        if lam == 3:
            cubic = pssqm_cubic_check(sol)
            assert cubic.residual("Q != 0") == float(np.abs(q).max())

    @pytest.mark.parametrize("lam, dim", [(3, 6), (3, 40), (5, 11), (5, 40)])
    def test_vanishing_power_fails_the_nonzero_entry(self, lam, dim):
        # The built charge with its band also zeroed on every p-th level: no p
        # consecutive steps are left, so Q^p vanishes on every row.
        p = lam - 1
        sol = pssqm_build(new_params(lam, [0.3, -0.2, 0.1, 0.25][: lam - 1]), 0, dim=dim)
        band = np.array(sol.Q.bands[-1])
        band[::p] = 0.0
        report = pssqm_check(dataclasses.replace(sol, Q=BandOp(dim, {-1: band})), p)
        assert f"Q^{p} != 0" in [e.name for e in report.failures()]
        assert report.residual(f"Q^{p} != 0") == 0.0
        if lam == 3:
            zero = dataclasses.replace(sol, Q=BandOp(dim, {-1: np.zeros(dim - 1)}))
            cubic = pssqm_cubic_check(zero)
            assert "Q != 0" in [e.name for e in cubic.failures()]

    def test_unmasked_ladder_fails_multilinear(self):
        params = new_params(3, [1.0, -0.5])
        sol = pssqm_build(params, 0, dim=30)
        rep = build_rep(params, 30)
        bad = dataclasses.replace(sol, Q=math.sqrt(2.0) * rep.adag)
        report = pssqm_check(bad, 2, tol=1e-9)
        assert not report.ok
        failed = [e.name for e in report.failures()]
        assert "sum_j Q^{p-j} Qdag Q^j = 2p Q^{p-1} H" in failed

    def test_injected_dense_charge_matches_dense_products(self):
        # The checks work diagonal by diagonal, so a charge with every
        # diagonal filled must give the residuals of the dense products.
        dim, p = 12, 2
        sol = pssqm_build(new_params(3, [1.0, -0.5]), 0, dim=dim)
        rng = np.random.default_rng(7)
        q = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        qd, h = q.conj().T, sol.H.dense().astype(complex)
        pw = [np.linalg.matrix_power(q, j) for j in range(p + 2)]
        inner = qd @ q - q @ qd
        dense = {
            "Q^3 = 0": pw[3],
            "Q^2 != 0": pw[2],
            "[H, Q] = 0": h @ q - q @ h,
            "sum_j Q^{p-j} Qdag Q^j = 2p Q^{p-1} H": sum(
                pw[p - j] @ qd @ pw[j] for j in range(p + 1)
            ) - 2.0 * p * (pw[p - 1] @ h),
            "[Q, [Qdag, Q]] = 2 Q H": q @ inner - inner @ q - 2.0 * (q @ h),
            "Q != 0": q,
        }
        injected = dataclasses.replace(sol, Q=BandOp.of(q))
        reports = (pssqm_check(injected, p), pssqm_cubic_check(injected))
        for report in reports:
            b = slice(0, dim - report.headroom)
            for e in report.entries:
                assert e.residual == pytest.approx(
                    np.abs(dense[e.name][b, b]).max(), rel=1e-12
                ), e.name

    def test_order_mismatch_rejected(self):
        sol = pssqm_build(new_params(3, [0.5, 0.0]), 0, dim=24)
        with pytest.raises(DomainError):
            pssqm_check(sol, 3)

    def test_kind_mismatch_rejected(self):
        sol = pseudo_family2_build(new_params(3, [0.0, 0.0]), 0, 1.0, 0.0, dim=24)
        with pytest.raises(DomainError):
            pssqm_check(sol, 2)


class TestCubicVariant:
    # Where the cubic form of the order-2 relation holds is an empirical
    # locus in parameter space, not an identity: alpha_{mu+2} = -1 works
    # for mu = 0 and mu = 2, and no parameter choice was found for mu = 1.

    def test_holds_on_locus_mu0(self):
        for head in ([0.5, 0.5], [0.37, 0.63]):
            sol = pssqm_build(new_params(3, head), 0, dim=30)
            report = pssqm_cubic_check(sol, tol=1e-10)
            assert report.ok, [(e.name, e.residual) for e in report.failures()]

    def test_holds_on_locus_mu2(self):
        sol = pssqm_build(new_params(3, [0.5, -1.0]), 2, dim=30)
        assert pssqm_cubic_check(sol, tol=1e-10).ok

    def test_fails_off_locus(self):
        sol = pssqm_build(new_params(3, [0.0, 0.0]), 0, dim=30)
        report = pssqm_cubic_check(sol, tol=1e-10)
        assert not report.ok
        assert report.residual("[Q, [Qdag, Q]] = 2 Q H") > 0.1

    def test_fails_for_middle_family_on_candidate_locus(self):
        sol = pssqm_build(new_params(3, [0.5, 0.5]), 1, dim=30)
        assert not pssqm_cubic_check(sol, tol=1e-10).ok

    def test_requires_order_two(self):
        sol = pssqm_build(new_params(4, [0.0, 0.0, 0.0]), 0, dim=24)
        with pytest.raises(DomainError):
            pssqm_cubic_check(sol)


class TestPseudoFamily1:
    def test_r_constant_oracles(self):
        free = pseudo_family1_build(
            new_params(3, [0.0, 0.0]), 0, c=1.0, eta=1.0, phi=math.pi / 2, dim=24
        )
        assert free.r_values["r_2"] == pytest.approx(-0.5)
        shifted = pseudo_family1_build(
            new_params(3, [1.0, -0.5]), 0, c=1.0, eta=1.0, phi=0.0, dim=24
        )
        assert shifted.r_values["r_2"] == pytest.approx(-0.25)

    def test_special_eta_kills_r_exactly(self):
        c = 0.83
        sol = pseudo_family1_build(
            new_params(3, [1.0, -0.5]), 0, c=c, eta=math.sqrt(2.0) * abs(c), phi=0.0
        )
        assert sol.r_values["r_2"] == 0.0

    def test_hamiltonian_coincides_bitwise_with_order_two_para(self):
        params = new_params(3, [1.0, -0.5])
        for mu in range(3):
            para = pssqm_build(params, mu, dim=36)
            c = 1.7
            pseudo = pseudo_family1_build(
                params, mu, c=c, eta=math.sqrt(2.0) * abs(c), phi=0.0, dim=36
            )
            assert np.array_equal(para.H.dense(), pseudo.H.dense())
            assert np.abs(para.Q.dense() - pseudo.Q.dense()).max() > 0.1

    def test_relations_hold(self):
        rng = np.random.default_rng(53)
        for _ in range(5):
            params = fock_valid_params(rng, 3)
            c = float(rng.uniform(0.3, 2.0))
            eta = float(rng.uniform(0.1, 1.9)) * abs(c)
            phi = float(rng.uniform(0.0, 2.0 * math.pi - 1e-9))
            sol = pseudo_family1_build(params, 1, c, eta, phi, dim=42)
            report = pseudo_check(sol, c, tol=1e-10)
            assert report.ok, [(e.name, e.residual) for e in report.failures()]

    def test_parameter_domain(self):
        params = new_params(3, [0.0, 0.0])
        with pytest.raises(DomainError):
            pseudo_family1_build(params, 0, c=0.0, eta=0.5, phi=0.0)
        with pytest.raises(DomainError):
            pseudo_family1_build(params, 0, c=1.0, eta=0.0, phi=0.0)
        with pytest.raises(DomainError):
            pseudo_family1_build(params, 0, c=1.0, eta=2.0, phi=0.0)
        with pytest.raises(DomainError):
            pseudo_family1_build(params, 0, c=1.0, eta=1.0, phi=2.0 * math.pi)
        with pytest.raises(DomainError):
            pseudo_family1_build(params, 3, c=1.0, eta=1.0, phi=0.0)
        with pytest.raises(DomainError):
            pseudo_family1_build(new_params(2, [0.5]), 0, c=1.0, eta=1.0, phi=0.0)


class TestPseudoFamily2:
    def test_spectrum_oracles(self):
        params = new_params(3, [0.0, 0.0])
        expected = {
            3.0: [2.0, 2.0, 2.0, 5.0, 5.0, 5.0],
            0.0: [0.5, 2.0, 2.0, 3.5, 5.0, 5.0],
            10.0: [5.5, 2.0, 2.0, 8.5, 5.0, 5.0],
        }
        for r_mu, head in expected.items():
            sol = pseudo_family2_build(params, 0, 1.0, r_mu, dim=24)
            assert sol.H.real_diagonal()[:6].tolist() == head

    def test_ground_state_reading(self):
        params = new_params(3, [0.0, 0.0])
        gs = ground_state_analysis(pseudo_family2_build(params, 0, 1.0, 0.0, dim=24))
        assert (gs.energy, gs.multiplicity, gs.broken) == (0.5, 1, True)
        gs = ground_state_analysis(pseudo_family2_build(params, 0, 1.0, 10.0, dim=24))
        assert (gs.energy, gs.multiplicity, gs.broken) == (2.0, 2, True)

    def test_equal_spacing_representative(self):
        params = new_params(3, [0.0, 0.0])
        assert equal_spacing_r(params, 0) == 3.0

    @pytest.mark.parametrize("mu", [-1, 3, 4])
    def test_equal_spacing_rejects_an_out_of_range_family_index(self, mu):
        # mu = 3 used to wrap round to the mu = 0 value, 3.5.
        with pytest.raises(DomainError, match=f"0 <= mu < 3, got {mu}"):
            equal_spacing_r(new_params(3, [0.1, 0.2]), mu)

    def test_equal_spacing_holds_only_at_representative(self):
        rng = np.random.default_rng(57)
        for _ in range(5):
            params = fock_valid_params(rng, 3)
            mu = int(rng.integers(0, 3))
            r_star = equal_spacing_r(params, mu)
            sol = pseudo_family2_build(params, mu, 1.0, r_star, dim=30)
            assert np.ptp(sorted_level_spacings(sol, 24)) <= 1e-9
            for off in (-0.5, 0.5):
                sol = pseudo_family2_build(params, mu, 1.0, r_star + off, dim=30)
                assert np.ptp(sorted_level_spacings(sol, 24)) > 0.1

    def test_relations_hold(self):
        rng = np.random.default_rng(59)
        for _ in range(5):
            params = fock_valid_params(rng, 3)
            c = float(rng.uniform(0.3, 2.0))
            sol = pseudo_family2_build(params, 2, c, float(rng.normal()), dim=42)
            report = pseudo_check(sol, c, tol=1e-10)
            assert report.ok, [(e.name, e.residual) for e in report.failures()]

    def test_charge_is_pure_lowering(self):
        params = new_params(3, [1.0, -0.5])
        sol = pseudo_family2_build(params, 0, 0.5, 1.0, dim=24)
        rep = build_rep(params, 24)
        expected = 1.0 * (rep.a.dense().astype(complex) @ rep.proj.take(2).dense().astype(complex))
        assert np.array_equal(sol.Q.dense(), expected)


class TestPseudoCheck:
    def test_corrupted_charge_fails_cubic_product(self):
        params = new_params(3, [1.0, -0.5])
        sol = pseudo_family1_build(params, 0, c=1.0, eta=1.0, phi=0.0, dim=30)
        rep = build_rep(params, 30)
        # eta pushed outside (0, 2|c|), partner coefficient left as-is: the
        # grading survives, the product relation cannot.
        bad_q = (2.5 * rep.adag + math.sqrt(3.0) * rep.a) @ rep.proj.take(2)
        bad = dataclasses.replace(sol, Q=bad_q)
        report = pseudo_check(bad, 1.0, tol=1e-10)
        assert report.residual("Q^2 = 0") <= 1e-10
        assert report.residual("Q Qdag Q = 4 c^2 Q H") > 0.1
        assert not report.ok

    def test_non_finite_hamiltonian_fails(self):
        # inf - inf leaves NaN residuals, which must fail rather than vanish.
        # The builders reject a non-finite r_mu, so the infinite levels are
        # injected.
        sol = pseudo_family2_build(new_params(3, [0.0, 0.0]), 0, 1.0, 0.0, dim=24)
        levels = sol.H.real_diagonal()
        levels[::3] = math.inf
        sol = dataclasses.replace(sol, H=BandOp.diag(levels))
        with np.errstate(invalid="ignore"):
            report = pseudo_check(sol, 1.0)
        assert np.isnan(report.residual("[H, Q] = 0"))
        assert not report.ok

    def test_kind_mismatch_rejected(self):
        sol = pssqm_build(new_params(3, [0.0, 0.0]), 0, dim=24)
        with pytest.raises(DomainError):
            pseudo_check(sol, 1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(bad):
    # A non-finite c, eta, r_mu, xi or phi would leave NaN in Q, H or r.
    params = new_params(3, [0.0, 0.0])
    ortho = new_params(3, [0.0, -1.0])
    builds = [
        ("c", lambda: pseudo_family1_build(params, 0, c=bad, eta=1.0, phi=0.0)),
        ("eta", lambda: pseudo_family1_build(params, 0, c=1.0, eta=bad, phi=0.0)),
        ("phi", lambda: pseudo_family1_build(params, 0, c=1.0, eta=1.0, phi=bad)),
        ("c", lambda: pseudo_family2_build(params, 0, bad, 1.0)),
        ("r_mu", lambda: pseudo_family2_build(params, 0, 1.0, bad)),
        ("xi", lambda: ossqm_build(ortho, 0, xi=bad, phi=0.0)),
        ("phi", lambda: ossqm_build(ortho, 0, xi=1.0, phi=bad)),
    ]
    for name, build in builds:
        with pytest.raises(DomainError, match=f"{name} must be finite"):
            build()


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: pseudo_family2_build(new_params(3, [0.0, 0.0]), 3, 1.0, 0.0), "family index"),
        (lambda: pseudo_family2_build(new_params(3, [0.0, 0.0]), 0, 0.0, 0.0), "c must be nonzero"),
        (lambda: ossqm_build(new_params(3, [0.0, -1.0]), 3, xi=1.0, phi=0.0), "family index"),
        (lambda: ossqm_build(new_params(3, [0.0, -1.0]), 0, xi=1.0, phi=2.0 * math.pi), "phi must lie"),
        (
            lambda: pssqm_cubic_check(pseudo_family2_build(new_params(3, [0.0, 0.0]), 0, 1.0, 0.0, dim=24)),
            "expected a pssqm solution",
        ),
    ],
    ids=["pseudo2-mu-3", "pseudo2-c-0", "ossqm-mu-3", "ossqm-phi-2pi", "cubic-on-pseudo"],
)
def test_out_of_domain_arguments_rejected(build, match):
    with pytest.raises(DomainError, match=match):
        build()


class TestOssqmBuild:
    def test_unbroken_family(self):
        sol = ossqm_build(new_params(3, [0.5, 0.5]), 1, xi=1.0, phi=0.0, dim=24)
        diag = sol.H.real_diagonal()
        assert diag[0] == 0.0
        assert diag[1:4].tolist() == [3.0, 3.0, 3.0]
        assert diag[4:7].tolist() == [6.0, 6.0, 6.0]
        gs = ground_state_analysis(sol)
        assert (gs.energy, gs.multiplicity, gs.broken) == (0.0, 1, False)

    def test_broken_family(self):
        sol = ossqm_build(new_params(3, [0.0, -1.0]), 0, xi=math.sqrt(2.0), phi=0.0, dim=24)
        diag = sol.H.real_diagonal()
        assert diag[:6].tolist() == [1.0, 1.0, 1.0, 4.0, 4.0, 4.0]
        gs = ground_state_analysis(sol)
        assert (gs.energy, gs.multiplicity, gs.broken) == (1.0, 3, True)

    def test_maximal_xi_drops_raising_part_exactly(self):
        params = new_params(3, [0.0, -1.0])
        root2 = math.sqrt(2.0)
        sol = ossqm_build(params, 0, xi=root2, phi=0.3, dim=24)
        rep = build_rep(params, 24)
        a, adag = rep.a.dense().astype(complex), rep.adag.dense().astype(complex)
        proj = [rep.proj.take(mu).dense().astype(complex) for mu in range(3)]
        assert np.array_equal(sol.Q.dense(), root2 * (a @ proj[2]))
        assert np.array_equal(sol.Q2.dense(), root2 * (adag @ proj[0]))

    def test_no_third_family(self):
        with pytest.raises(DomainError, match="mu = 2"):
            ossqm_build(new_params(3, [0.5, 0.5]), 2, xi=1.0, phi=0.0)

    def test_constraint_on_alpha(self):
        with pytest.raises(DomainError, match="alpha_1"):
            ossqm_build(new_params(3, [0.0, 0.0]), 0, xi=1.0, phi=0.0)
        with pytest.raises(DomainError, match="alpha_2"):
            ossqm_build(new_params(3, [0.0, 0.0]), 1, xi=1.0, phi=0.0)

    def test_xi_domain(self):
        params = new_params(3, [0.0, -1.0])
        with pytest.raises(DomainError):
            ossqm_build(params, 0, xi=0.0, phi=0.0)
        with pytest.raises(DomainError):
            ossqm_build(params, 0, xi=1.5, phi=0.0)


class TestOssqmCheck:
    def test_all_nine_relations_and_corollary(self):
        rng = np.random.default_rng(61)
        for mu in (0, 1):
            for _ in range(3):
                a0 = float(rng.uniform(-0.5, 1.5))
                head = [a0, -1.0] if mu == 0 else [a0, 1.0 - a0]
                params = new_params(3, head)
                xi = float(rng.uniform(0.2, math.sqrt(2.0)))
                phi = float(rng.uniform(0.0, 2.0 * math.pi - 1e-9))
                sol = ossqm_build(params, mu, xi, phi, dim=42)
                report = ossqm_check(sol, tol=1e-10)
                assert len(report.entries) == 10
                assert report.ok, [(e.name, e.residual) for e in report.failures()]

    def test_unrenormalized_charge_fails_mixed_bilinear(self):
        params = new_params(3, [0.0, -1.0])
        sol = ossqm_build(params, 0, xi=1.0, phi=0.0, dim=30)
        rep = build_rep(params, 30)
        # Lowering coefficient scaled without compensating the raising one.
        bad_q1 = 1.2 * (rep.a @ rep.proj.take(2)) + 1.0 * (rep.adag @ rep.proj.take(0))
        bad = dataclasses.replace(sol, Q=bad_q1)
        report = ossqm_check(bad, tol=1e-10)
        assert not report.ok
        failed = [e.name for e in report.failures()]
        assert "Q1 Qdag2 = 0" in failed
        assert "Q1 Q2 = 0" not in failed

    def test_kind_mismatch_rejected(self):
        sol = pssqm_build(new_params(3, [0.0, 0.0]), 0, dim=24)
        with pytest.raises(DomainError):
            ossqm_check(sol)


class TestVariantDict:
    def test_round_trip_fields(self):
        sol = pssqm_build(new_params(3, [1.0, -0.5]), 1, dim=24)
        report = pssqm_check(sol, 2, tol=1e-10)
        doc = variant_to_dict(sol, report, n_levels=9)
        assert doc["kind"] == "pssqm"
        assert doc["mu"] == 1
        assert len(doc["spectrum"]) == 9
        assert doc["ground_state"] == {
            "energy": 1.0,
            "multiplicity": 2,
            "broken": True,
        }
        names = [r["name"] for r in doc["relations"]]
        assert "[H, Q] = 0" in names
        assert all(r["pass"] for r in doc["relations"])

    def test_full_spectrum_by_default(self):
        sol = pseudo_family2_build(new_params(3, [0.0, 0.0]), 0, 1.0, 3.0, dim=24)
        doc = variant_to_dict(sol, pseudo_check(sol, 1.0))
        assert len(doc["spectrum"]) == 24
