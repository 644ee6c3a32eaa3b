"""Oscillator spectrum, degeneracy classification, and parameter sweeps."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycosc import (
    BandOp,
    DomainError,
    InvalidParamsError,
    analytic_spectrum,
    build_rep,
    classify_degeneracy,
    derived_constants,
    h0,
    new_params,
    sweep,
)
from conftest import fock_valid_params


class TestH0:
    def test_shifted_oscillator_diagonal(self):
        rep = build_rep(new_params(2, [0.5]), 20)
        diag = h0(rep).real_diagonal()
        expected = np.arange(20) + 0.75
        assert np.abs(diag[:17] - expected[:17]).max() <= 1e-12

    def test_deformed_diagonal_start(self):
        rep = build_rep(new_params(3, [1.0, -0.5]), 20)
        diag = h0(rep).real_diagonal()
        assert np.abs(diag[:4] - np.array([1.0, 2.25, 2.75, 4.0])).max() <= 1e-12

    def test_plain_oscillator(self):
        rep = build_rep(new_params(4, [0.0, 0.0, 0.0]), 16)
        diag = h0(rep).real_diagonal()
        assert np.abs(diag[:13] - (np.arange(13) + 0.5)).max() <= 1e-12

    def test_matches_analytic_spectrum_on_headroom(self):
        rng = np.random.default_rng(3)
        for lam in (2, 3, 5):
            params = fock_valid_params(rng, lam)
            rep = build_rep(params, 40)
            diag = h0(rep).real_diagonal()
            energies = [line.energy for line in analytic_spectrum(params, 36)]
            assert np.abs(diag[:37] - energies).max() <= 1e-12

    @pytest.mark.parametrize("fault", ["off-diagonal", "off-formula"])
    def test_bad_rep_raises_domain_error(self, fault):
        # Validation must not be an assert, which python -O strips.
        rep = build_rep(new_params(3, [1.0, -0.5]), 20)
        a = rep.a.dense()
        if fault == "off-diagonal":
            a[2, 5] = 0.3
        else:
            a[4, 5] *= 1.001
        bad = dataclasses.replace(rep, a=BandOp.of(a), adag=BandOp.of(a.conj().T))
        with pytest.raises(DomainError):
            h0(bad)


class TestAnalyticSpectrum:
    def test_deformed_example(self):
        lines = analytic_spectrum(new_params(3, [1.0, -0.5]), 3)
        assert [line.energy for line in lines] == [1.0, 2.25, 2.75, 4.0]

    def test_level_labels(self):
        lines = analytic_spectrum(new_params(3, [0.2, 0.3]), 8)
        for line in lines:
            assert line.n == line.k * 3 + line.mu

    def test_plain_oscillator(self):
        lines = analytic_spectrum(new_params(2, [0.0]), 5)
        assert [line.energy for line in lines] == [0.5, 1.5, 2.5, 3.5, 4.5, 5.5]

    def test_invalid_params_rejected(self):
        with pytest.raises(InvalidParamsError):
            analytic_spectrum(new_params(3, [-2.0, 0.0]), 5)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0))
    def test_ladders_are_harmonic_within_each_residue(self, lam, seed):
        rng = np.random.default_rng(seed)
        params = fock_valid_params(rng, lam)
        energies = np.array(
            [line.energy for line in analytic_spectrum(params, 5 * lam - 1)]
        )
        for mu in range(lam):
            ladder = energies[mu::lam]
            assert np.abs(np.diff(ladder) - lam).max() <= 1e-12


class TestClassifyDegeneracy:
    def test_twofold_above_threshold(self):
        report = classify_degeneracy(new_params(3, [0.0, 4.0]), 40, 1e-9)
        assert report.pattern == "2-fold"
        assert report.threshold_energy == pytest.approx(3.5, abs=1e-12)
        assert report.stabilized

    def test_plain_oscillator_nondegenerate(self):
        report = classify_degeneracy(new_params(3, [0.0, 0.0]), 40, 1e-9)
        assert report.pattern == "nondegenerate"
        assert report.threshold_energy is None
        assert report.uniform_spacing == pytest.approx(1.0, abs=1e-12)

    def test_lam2_shifted_oscillator(self):
        report = classify_degeneracy(new_params(2, [0.5]), 30, 1e-9)
        assert report.pattern == "nondegenerate"
        assert report.uniform_spacing == pytest.approx(1.0, abs=1e-12)

    def test_multiplicity_bounded_by_lam(self):
        rng = np.random.default_rng(5)
        # Random points, and one where all three ladders meet (test_threefold_merge).
        samples = [fock_valid_params(rng, lam) for lam in (2, 3, 4)] + [new_params(3, [2.0, 2.0])]
        for params in samples:
            report = classify_degeneracy(params, 12 * params.lam, 1e-9)
            m = 1 if report.pattern == "nondegenerate" else int(report.pattern.removesuffix("-fold"))
            assert 1 <= m <= params.lam

    def test_levels_float64_cannot_resolve_rejected(self):
        # Levels near 5e15 lie 1 apart in float64, so ladders 2 apart would merge.
        with pytest.raises(DomainError, match="apart in float64"):
            classify_degeneracy(new_params(2, [1e16]), 60)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=3))
    @example([1e16])
    @example([1e300])
    @example([1e300, -1e300])
    def test_reported_multiplicity_never_exceeds_lam(self, head):
        # No energy is shared by more than one level per ladder, at any scale.
        lam = len(head) + 1
        try:
            report = classify_degeneracy(new_params(lam, head), 60)
        except DomainError:
            return
        m = 1 if report.pattern == "nondegenerate" else int(report.pattern.removesuffix("-fold"))
        assert m <= lam

    def test_threefold_merge(self):
        # gamma = (1, 3, 2) aligns the ladders across periods: levels 4.5,
        # 7.5, ... are shared by all three, above a lone ground state at 1.5.
        params = new_params(3, [2.0, 2.0])
        report = classify_degeneracy(params, 40, 1e-9)
        assert report.pattern == "3-fold"
        assert report.threshold_energy == pytest.approx(4.5, abs=1e-12)
        assert report.uniform_spacing == pytest.approx(3.0, abs=1e-12)

    def test_pattern_survives_valid_cyclic_relabeling(self):
        from cycosc import cyclic_shift, validate_fock

        # Only the one-step shift of this set keeps the Fock space alive;
        # relabeling moves the threshold but not the multiplicity pattern.
        params = new_params(3, [0.0, 4.0])
        base = classify_degeneracy(params, 50, 1e-9)
        shifted_params = cyclic_shift(params, 1)
        assert validate_fock(shifted_params).ok
        assert not validate_fock(cyclic_shift(params, 2)).ok
        shifted = classify_degeneracy(shifted_params, 50, 1e-9)
        assert shifted.pattern == base.pattern
        assert shifted.threshold_energy == pytest.approx(2.5, abs=1e-12)

    def test_too_few_levels_rejected(self):
        with pytest.raises(DomainError):
            classify_degeneracy(new_params(3, [0.0, 4.0]), 2, 1e-9)

    @pytest.mark.parametrize("n_max", [0, 1])
    def test_empty_ladder_rejected(self, n_max):
        with pytest.raises(DomainError):
            classify_degeneracy(new_params(3, [0.0, 4.0]), n_max, 1e-9)

    @pytest.mark.parametrize("build", [analytic_spectrum, classify_degeneracy])
    @pytest.mark.parametrize("n_max", [-1, -5])
    def test_negative_nmax_rejected_by_name(self, build, n_max):
        with pytest.raises(DomainError, match=f"n_max must be >= 0, got {n_max}$"):
            build(new_params(3, [0.0, 4.0]), n_max)

    def test_invalid_params_rejected(self):
        with pytest.raises(InvalidParamsError):
            classify_degeneracy(new_params(3, [-2.0, 0.0]), 30, 1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=2**32 - 1))
    def test_advised_nmax_resolves_a_period(self, lam, seed):
        # Widely spread gamma offsets need far more than 3 lam levels.
        params = fock_valid_params(np.random.default_rng(seed), lam, hi=30.0)
        gamma = derived_constants(params).gamma
        need = math.ceil(2 * lam - 2 + max(gamma) - min(gamma))
        classify_degeneracy(params, need)
        # Below lam - 1 a ladder is empty, which raises its own message.
        for n_max in range(need):
            try:
                classify_degeneracy(params, n_max)
            except DomainError as exc:
                assert n_max >= lam - 1 or "leaves a ladder empty" in str(exc)
                assert str(exc).endswith(f"use n_max >= {need}")
            else:
                assert n_max >= lam - 1


class TestSweep:
    def test_row_major_order_and_flags(self):
        records = list(sweep(3, [[0.0, 2.0], [-4.0, 0.0, 4.0]], n_max=40))
        assert len(records) == 6
        heads = [tuple(rec.params.alpha[:2]) for rec in records]
        assert heads == [
            (0.0, -4.0),
            (0.0, 0.0),
            (0.0, 4.0),
            (2.0, -4.0),
            (2.0, 0.0),
            (2.0, 4.0),
        ]
        flagged = {head: rec.valid for head, rec in zip(heads, records)}
        assert flagged[(0.0, -4.0)] is False
        assert flagged[(0.0, 4.0)] is True

    def test_records_compare_and_hash_by_value(self):
        axes = [[-1.5, 0.0, 0.5], [0.0, 0.25]]
        first, second = list(sweep(3, axes)), list(sweep(3, axes))
        assert first == second
        assert not first[0].valid and first[-1].valid
        assert len(set(first)) == len(first)
        assert {rec: i for i, rec in enumerate(first)}[second[3]] == 3

    def test_invalid_points_flagged_not_skipped(self):
        records = list(sweep(2, [[-1.5, 0.0]], n_max=20))
        assert [rec.valid for rec in records] == [False, True]
        assert records[0].report is None
        assert records[1].report is not None

    def test_unresolved_points_flagged_not_fatal(self):
        records = list(sweep(3, [[0.0, 30.0, 60.0], [-0.9]], n_max=9))
        assert [rec.valid for rec in records] == [True, True, True]
        assert records[0].report.pattern == "nondegenerate"
        assert records[1].report is None and records[2].report is None

    def test_levels_float64_cannot_resolve_flagged_not_fatal(self):
        records = list(sweep(2, [[1e16, 0.5]]))
        assert [rec.valid for rec in records] == [True, True]
        assert records[0].report is None and records[1].report is not None

    def test_single_point_grid(self):
        records = list(sweep(3, [[0.0], [4.0]], n_max=40))
        assert len(records) == 1
        assert records[0].report.pattern == "2-fold"

    def test_wrong_axis_count_rejected(self):
        with pytest.raises(DomainError):
            list(sweep(3, [[0.0]], n_max=20))

    def test_empty_axis_rejected(self):
        with pytest.raises(DomainError):
            list(sweep(2, [[]], n_max=20))

    @pytest.mark.parametrize(
        "lam, axes, n_max, match",
        [
            (1, [], 20, "order must be >= 2"),
            (3, [[0.0], [1.0]], 1, "leaves a ladder empty"),
            (2, [[-1.5]], 0, "leaves a ladder empty"),
            # A grid point's head, not its first: the nan, and the 1e308 + 1e308 corner.
            (3, [[0.0, math.nan, 1.0], [0.5]], 20, "must be finite, got nan"),
            (3, [[0.0, 1e308], [1e308]], 20, "leaves float64 range"),
        ],
    )
    def test_arguments_checked_before_the_first_record(self, lam, axes, n_max, match):
        # Raised by the call itself, so a caller can check them before writing.
        with pytest.raises(DomainError, match=match):
            sweep(lam, axes, n_max=n_max)

    @settings(max_examples=200, deadline=None)
    @given(lam=st.integers(2, 5), data=st.data())
    def test_a_grid_accepted_at_call_time_streams_to_the_end(self, lam, data):
        edge = st.sampled_from([0.0, -0.0, 5e-324, 0.5, -1.0, 3.0, 1e16, -1e300, 8e307, -8e307, 1e308, 1.7e308])
        axes = data.draw(st.lists(st.lists(edge, min_size=1, max_size=3), min_size=lam - 1, max_size=lam - 1))
        try:
            records = sweep(lam, axes, n_max=3 * lam)
        except DomainError:
            return
        assert len(list(records)) == math.prod(map(len, axes))

    def test_corners_whose_sums_cancel_stream(self):
        records = list(sweep(3, [[1e308], [-1e308]]))
        assert [(rec.params.alpha, rec.valid, rec.report) for rec in records] == [
            ((1e308, -1e308, -0.0), True, None)
        ]
