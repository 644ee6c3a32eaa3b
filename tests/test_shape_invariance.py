"""Partner hierarchy, parameter window, and 2x2 block supercharges."""

import dataclasses

import numpy as np
import pytest

from cycosc import (
    DomainError,
    InvalidParamsError,
    block_pair,
    build_hierarchy,
    new_params,
    partner_check,
    sqm2_check,
    structure_values,
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
        assert h.period == 2
        assert len(h.reps) == 2
        assert len(h.hmats) == 3

    def test_hamiltonians_are_shifted_structure_functions(self):
        params = new_params(3, [0.5, 0.1])
        h = build_hierarchy(params, 12)
        fvals = structure_values(params, 12 + 2)
        for mu in range(4):
            assert np.array_equal(h.hmats[mu].real_diagonal(), fvals[mu : mu + 12])

    def test_shifted_reps_carry_rotated_parameters(self):
        params = new_params(3, [0.5, 0.1])
        h = build_hierarchy(params, 12)
        assert h.reps[1].params.alpha == (0.1, -0.6, 0.5)

    def test_window_violation_rejected_with_inequality(self):
        with pytest.raises(DomainError, match="alpha_0"):
            build_hierarchy(new_params(3, [2.0, 0.0]), 12)

    def test_invalid_fock_rejected_first(self):
        with pytest.raises(InvalidParamsError):
            build_hierarchy(new_params(3, [-2.0, 0.0]), 12)


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


class TestBlockPair:
    def test_block_layout(self):
        h = build_hierarchy(new_params(2, [0.5]), 12)
        pair = block_pair(h, 0)
        H, Q, Qdag = pair.H.dense(), pair.Q.dense(), pair.Qdag.dense()
        assert H.shape == (24, 24)
        assert np.array_equal(Qdag[:12, 12:], h.reps[0].adag.dense())
        assert np.abs(Qdag[12:, :]).max() == 0.0
        assert np.array_equal(Q, Qdag.conj().T)

    def test_both_blocks_share_one_ground_shift(self):
        h = build_hierarchy(new_params(3, [0.5, 0.1]), 12)
        pair = block_pair(h, 1)
        top = np.diag(pair.H.dense())[:12].real
        bottom = np.diag(pair.H.dense())[12:].real
        assert np.array_equal(top, h.hmats[1].real_diagonal() - h.e0[1])
        assert np.array_equal(bottom, h.hmats[2].real_diagonal() - h.e0[1])

    def test_sector_out_of_range(self):
        h = build_hierarchy(new_params(2, [0.5]), 12)
        with pytest.raises(DomainError):
            block_pair(h, 2)


class TestSqm2:
    def test_charge_is_exactly_nilpotent(self):
        h = build_hierarchy(new_params(3, [0.5, 0.1]), 16)
        pair = block_pair(h, 0)
        Q = pair.Q.dense()
        assert np.abs(Q @ Q).max() == 0.0

    def test_all_sectors_pass(self):
        rng = np.random.default_rng(29)
        for lam in (2, 3, 4):
            h = build_hierarchy(window_valid_params(rng, lam), 36)
            for mu in range(lam):
                report = sqm2_check(h, mu, 1e-12)
                assert report.ok, [(e.name, e.residual) for e in report.failures()]

    def test_anticommutator_fault_detected(self):
        h = build_hierarchy(new_params(2, [0.5]), 20)
        bad = dataclasses.replace(h, e0=(h.e0[0] + 0.25, *h.e0[1:]))
        report = sqm2_check(bad, 0, 1e-12)
        assert not report.ok
        assert report.residual("{Q, Qdag} = H") == pytest.approx(0.25, abs=1e-9)
