"""Partner hierarchy, parameter window, and 2x2 block supercharges."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycosc import (
    BandOp,
    DomainError,
    InvalidParamsError,
    build_hierarchy,
    build_rep,
    cyclic_shift,
    new_params,
    partner_check,
    sqm2_check,
    structure_values,
    validate_fock,
    window_violations,
)
from conftest import window_valid_params


class TestWindow:
    def test_inside_window_is_clean(self):
        assert window_violations(new_params(3, [0.5, 0.1])) == ()

    def test_alpha0_upper_bound_is_strict(self):
        # alpha_0 = lam - 1 sits on the boundary; it also empties the nested
        # alpha_1 window, so the first reported violation names alpha_0.
        violations = window_violations(new_params(3, [2.0, 0.0]))
        assert violations
        assert "alpha_0" in violations[0]

    def test_alpha0_lower_bound(self):
        violations = window_violations(new_params(3, [-1.0, 0.5]))
        assert any("alpha_0" in v for v in violations)

    def test_nested_bound_depends_on_prefix(self):
        # alpha_1 < lam - 2 - alpha_0: at alpha_0 = 0.5 the bound is 0.5.
        assert window_violations(new_params(3, [0.5, 0.4])) == ()
        violations = window_violations(new_params(3, [0.5, 0.6]))
        assert any("alpha_1" in v for v in violations)

    def test_window_implies_fock_valid_for_all_shifts(self):
        from cycosc import cyclic_shift, validate_fock

        rng = np.random.default_rng(17)
        for lam in (2, 3, 4):
            for _ in range(10):
                params = window_valid_params(rng, lam)
                for mu in range(lam):
                    assert validate_fock(cyclic_shift(params, mu)).ok


class TestBuildHierarchy:
    def test_spacings_and_ground_energies_lam2(self):
        h = build_hierarchy(new_params(2, [0.5]), 16)
        assert h.omega == (1.5, 0.5)
        assert h.e0 == (0.0, 1.5, 2.0)
        assert h.params.lam == 2
        assert h.a.bands[1].shape == h.adag.bands[-1].shape == (2, 15)
        assert h.hmats.bands[0].shape == (3, 16)

    def test_hamiltonians_are_shifted_structure_functions(self):
        params = new_params(3, [0.5, 0.1])
        h = build_hierarchy(params, 12)
        fvals = structure_values(params, 12 + 2)
        for mu in range(4):
            assert np.array_equal(h.hmats.take(mu).real_diagonal(), fvals[mu : mu + 12])

    def test_shifted_reps_carry_rotated_parameters(self):
        # Ladder mu is that of the representation with alpha rotated by mu.
        params = new_params(3, [0.5, 0.1])
        h = build_hierarchy(params, 12)
        assert cyclic_shift(params, 1).alpha == (0.1, -0.6, 0.5)
        for mu in range(3):
            rep = build_rep(cyclic_shift(params, mu), 12)
            assert np.array_equal(h.a.take(mu).dense(), rep.a.dense())
            assert np.array_equal(h.adag.take(mu).dense(), rep.adag.dense())

    def test_window_violation_rejected_with_inequality(self):
        with pytest.raises(DomainError, match="alpha_0"):
            build_hierarchy(new_params(3, [2.0, 0.0]), 12)

    def test_invalid_fock_rejected_first(self):
        with pytest.raises(InvalidParamsError):
            build_hierarchy(new_params(3, [-2.0, 0.0]), 12)


def first_hierarchy_error(params, dim):
    """(type, message) of the first precondition build_hierarchy finds broken, or None.

    In order: the Fock condition, the window, dim >= 2 lam, and the Fock
    condition of every shifted algebra.
    """
    check = validate_fock(params)
    if not check.ok:
        return InvalidParamsError, str(InvalidParamsError(check.violations))
    if window_violations(params):
        return DomainError, "; ".join(window_violations(params))
    if dim < 2 * params.lam:
        return DomainError, f"dimension must be >= {2 * params.lam}, got {dim}"
    for mu in range(1, params.lam):
        check = validate_fock(cyclic_shift(params, mu))
        if not check.ok:
            return InvalidParamsError, str(InvalidParamsError(check.violations))
    return None


class TestHierarchyTable:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=30), st.data())
    def test_errors_come_in_order_with_their_messages(self, lam, dim, data):
        head = data.draw(st.lists(st.floats(min_value=-1.5, max_value=lam), min_size=lam - 1, max_size=lam - 1))
        params = new_params(lam, head)
        expected = first_hierarchy_error(params, dim)
        if expected is None:
            build_hierarchy(params, dim)
            return
        with pytest.raises(DomainError) as exc:
            build_hierarchy(params, dim)
        assert (type(exc.value), str(exc.value)) == expected

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**32 - 1), st.data())
    def test_rows_equal_the_single_builds(self, lam, seed, data):
        params = window_valid_params(np.random.default_rng(seed), lam)
        dim = data.draw(st.integers(min_value=2 * lam, max_value=120))
        h = build_hierarchy(params, dim)
        # A and Adag share one band: lam sectors, read-only.
        assert h.a.bands[1] is h.adag.bands[-1]
        assert h.a.bands[1].shape == (lam, dim - 1)
        for mu in range(lam):
            single = build_rep(cyclic_shift(params, mu), dim)
            for got, want in ((h.a.take(mu), single.a), (h.adag.take(mu), single.adag)):
                assert got.bands.keys() == want.bands.keys()
                for k, v in got.bands.items():
                    assert v.dtype == want.bands[k].dtype == np.float64
                    assert np.array_equal(v, want.bands[k])
                    assert not v.flags.writeable
        fvals = structure_values(params, dim - 1 + lam)
        assert list(h.hmats.bands) == [0]
        assert h.hmats.bands[0].shape == (lam + 1, dim)
        assert h.hmats.bands[0].dtype == np.float64
        assert not h.hmats.bands[0].flags.writeable
        for mu in range(lam + 1):
            assert np.array_equal(h.hmats.bands[0][mu], fvals[mu : mu + dim])


class TestPartnerCheck:
    def test_passes_for_window_valid_samples(self):
        rng = np.random.default_rng(23)
        for lam in (2, 3, 4):
            for _ in range(5):
                h = build_hierarchy(window_valid_params(rng, lam), 40)
                report = partner_check(h, 1e-12)
                assert report.ok, [(e.name, e.residual) for e in report.failures()]

    def test_spacings_equal_omega(self):
        params = new_params(3, [0.5, 0.1])
        h = build_hierarchy(params, 30)
        report = partner_check(h, 1e-12)
        assert report.residual("H^(mu) spacings realize omega cyclically") <= 1e-12

    def test_wraparound_sector_uses_first_algebra(self):
        # H^(p) factorizes through A_0 again: the chain is cyclic with period p.
        h = build_hierarchy(new_params(2, [0.5]), 24)
        report = partner_check(h, 1e-12)
        assert report.residual("H^(2) = Adag_2 A_2 + E0^(2)") <= 1e-12

    def test_ground_energy_fault_is_detected(self):
        h = build_hierarchy(new_params(3, [0.5, 0.1]), 24)
        bad = dataclasses.replace(h, e0=tuple(e + 0.1 for e in h.e0))
        report = partner_check(bad, 1e-12)
        assert not report.ok
        assert report.max_residual == pytest.approx(0.1, abs=1e-9)


class TestSqm2:
    def test_charge_is_exactly_nilpotent(self):
        # Q = [[0, 0], [A_mu, 0]] squares to the zero matrix, which the check reports as 0.0.
        h = build_hierarchy(new_params(3, [0.5, 0.1]), 16)
        zero = np.zeros((16, 16))
        Q = np.block([[zero, zero], [h.a.take(0).dense(), zero]])
        assert np.abs(Q @ Q).max() == 0.0
        assert sqm2_check(h, 0).residual("Q^2 = 0") == 0.0

    def test_both_blocks_share_one_ground_shift(self):
        # Only E0^(mu) enters sector mu, and it shifts both diagonal blocks.
        h = build_hierarchy(new_params(3, [0.5, 0.1]), 12)
        report = sqm2_check(h, 1)
        others = dataclasses.replace(h, e0=(h.e0[0] + 0.5, h.e0[1], h.e0[2] - 0.5, h.e0[3] + 2.0))
        assert sqm2_check(others, 1) == report
        shifted = dataclasses.replace(h, e0=(h.e0[0], h.e0[1] + 0.125, *h.e0[2:]))
        bad = sqm2_check(shifted, 1)
        assert bad.residual("[H, Q] = 0") == report.residual("[H, Q] = 0")
        assert bad.residual("{Q, Qdag} = H") == pytest.approx(0.125, abs=1e-12)

    def test_sector_out_of_range(self):
        h = build_hierarchy(new_params(2, [0.5]), 12)
        for mu in (2, -1):
            with pytest.raises(DomainError, match="0 <= mu < 2"):
                sqm2_check(h, mu)

    def test_all_sectors_pass(self):
        rng = np.random.default_rng(29)
        for lam in (2, 3, 4):
            h = build_hierarchy(window_valid_params(rng, lam), 36)
            for mu in range(lam):
                report = sqm2_check(h, mu, 1e-12)
                assert report.ok, [(e.name, e.residual) for e in report.failures()]

    @pytest.mark.parametrize("fault", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("level", [0, 7, 16])
    def test_non_finite_ladder_fails(self, fault, level):
        # A fault in a kept row of A_mu (row 16 is the last kept at dim 20),
        # mirrored into Adag_mu or not, fails the sector.
        h = build_hierarchy(new_params(3, [0.5, 0.1]), 20)
        for mu in range(3):
            a = np.array(h.a.bands[1])
            a[mu, level] = fault
            # Adag_mu's band -1 is the same diagonal as A_mu's band 1.
            for adag in (h.adag, BandOp(20, {-1: a})):
                faulted = dataclasses.replace(h, a=BandOp(20, {1: a}), adag=adag)
                # inf - inf and 0 * inf leave NaN residuals, which must fail rather than vanish.
                with np.errstate(invalid="ignore"):
                    report = sqm2_check(faulted, mu, 1e-12)
                assert not report.ok

    def test_anticommutator_fault_detected(self):
        h = build_hierarchy(new_params(2, [0.5]), 20)
        bad = dataclasses.replace(h, e0=(h.e0[0] + 0.25, *h.e0[1:]))
        report = sqm2_check(bad, 0, 1e-12)
        assert not report.ok
        assert report.residual("{Q, Qdag} = H") == pytest.approx(0.25, abs=1e-9)
