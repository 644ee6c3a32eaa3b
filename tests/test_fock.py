"""Truncated representation matrices and the relation checker."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycosc import (
    BandOp,
    DomainError,
    InvalidParamsError,
    RelationEntry,
    RelationReport,
    algebra,
    build_rep,
    check_relations,
    fock,
    klein_reduction_check,
    new_params,
    rep_to_dict,
    structure_values,
)
from conftest import fock_valid_params


class TestBuildRep:
    def test_plain_oscillator_entries(self):
        rep = build_rep(new_params(2, [0.0]), 4)
        expected = [math.sqrt(1.0), math.sqrt(2.0), math.sqrt(3.0)]
        assert [rep.a.dense()[n - 1, n].real for n in range(1, 4)] == expected

    def test_deformed_entries_lam3(self):
        rep = build_rep(new_params(3, [1.0, -0.5]), 6)
        expected = [math.sqrt(v) for v in (2.0, 2.5, 3.0, 5.0, 5.5)]
        assert [rep.a.dense()[n - 1, n].real for n in range(1, 6)] == expected

    def test_adag_is_conjugate_transpose(self):
        rep = build_rep(new_params(3, [0.4, -0.2]), 12)
        assert np.array_equal(rep.adag.dense(), rep.a.dense().conj().T)

    def test_ladder_entries_are_off_diagonal_only(self):
        rep = build_rep(new_params(2, [0.3]), 8)
        mask = np.zeros((8, 8), dtype=bool)
        mask[np.arange(7), np.arange(1, 8)] = True
        assert np.all(rep.a.dense()[~mask] == 0.0)

    def test_vacuum_column(self):
        rep = build_rep(new_params(3, [0.5, 0.1]), 9)
        e0 = np.zeros(9)
        e0[0] = 1.0
        assert np.all(rep.a.dense() @ e0 == 0.0)
        assert np.all(rep.nmat.dense() @ e0 == 0.0)
        assert np.array_equal(rep.proj.take(0).dense() @ e0, e0 + 0j)
        assert np.all(rep.proj.take(1).dense() @ e0 == 0.0)

    def test_number_operator_diagonal(self):
        rep = build_rep(new_params(2, [0.0]), 5)
        assert rep.nmat.real_diagonal().tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_projectors_partition_basis(self):
        rep = build_rep(new_params(3, [0.2, 0.1]), 9)
        total = sum(rep.proj.take(mu).dense() for mu in range(3))
        assert np.array_equal(total, np.eye(9, dtype=complex))
        for mu in range(3):
            diag = np.diag(rep.proj.take(mu).dense()).real
            assert all(diag[n] == (1.0 if n % 3 == mu else 0.0) for n in range(9))

    def test_t_matrix_phases(self):
        rep = build_rep(new_params(4, [0.3, 0.2, -0.1]), 8)
        diag = np.diag(rep.tmat.dense())
        expected = np.exp(2j * np.pi * (np.arange(8) % 4) / 4)
        assert np.abs(diag - expected).max() == 0.0

    def test_adag_a_diagonal_equals_structure_values(self):
        params = new_params(3, [1.0, -0.5])
        rep = build_rep(params, 10)
        diag = np.diag(rep.adag.dense() @ rep.a.dense()).real
        expected = structure_values(params, 9)
        assert np.abs(diag - expected).max() <= 1e-13

    def test_invalid_params_rejected_with_violations(self):
        with pytest.raises(InvalidParamsError) as err:
            build_rep(new_params(3, [-2.0, 0.0]), 6)
        assert 1 in err.value.violations

    def test_dim_too_small_rejected(self):
        with pytest.raises(DomainError):
            build_rep(new_params(3, [0.1, 0.1]), 5)

    def test_matrices_are_read_only(self):
        rep = build_rep(new_params(2, [0.1]), 6)
        with pytest.raises(ValueError):
            rep.a.bands[1][0] = 9.0

    def test_projectors_are_one_stacked_operator(self):
        for lam in (2, 3, 5):
            rep = build_rep(new_params(lam, [0.3, -0.2, 0.4, 0.1][: lam - 1]), 13)
            (offset, band), = rep.proj.bands.items()
            assert offset == 0 and band.shape == (lam, 13)
            assert band.dtype == np.int64 and not band.flags.writeable
            for mu in range(lam):
                expected = (np.arange(13) % lam == mu).astype(np.int64)
                assert np.array_equal(rep.proj.take(mu).bands[0], expected)

    def test_structure_function_is_derived_once_per_build(self, monkeypatch):
        # check_relations and klein_reduction_check read F from the representation.
        reps = [build_rep(new_params(lam, [0.3, -0.2, 0.4, 0.1][: lam - 1]), 30) for lam in (2, 3, 5)]
        expected = [check_relations(rep) for rep in reps] + [klein_reduction_check(reps[0])]
        assert np.array_equal(reps[1].fvals, structure_values(reps[1].params, 30))
        assert not reps[1].fvals.flags.writeable

        def refuse(*args, **kwargs):
            raise AssertionError("F derived again")

        for module in (algebra, fock):
            for name in ("structure_values", "structure_table"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        assert [check_relations(rep) for rep in reps] + [klein_reduction_check(reps[0])] == expected

    def test_ladders_share_one_diagonal(self):
        rep = build_rep(new_params(3, [0.4, -0.2]), 9)
        assert rep.a.bands[1] is rep.adag.bands[-1]
        assert np.array_equal(rep.a.bands[1], np.sqrt(structure_values(rep.params, 8)[1:]))


class TestHeadroom:
    def test_block_max_ignores_truncation_edge(self):
        keep = 7
        m = np.zeros((10, 10))
        m[9, 8] = 5.0
        assert BandOp.of(m).block_max(keep) == 0.0
        m[2, 3] = 0.25
        assert BandOp.of(m).block_max(keep) == 0.25


class TestBandLayout:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=24),
        st.sampled_from([np.int64, float, complex]),
    )
    def test_bands_are_the_diagonals(self, seed, dim, dtype):
        rng = np.random.default_rng(seed)
        m = np.zeros((dim, dim), dtype)
        for k in rng.choice(np.arange(1 - dim, dim), size=min(3, 2 * dim - 1), replace=False):
            size = dim - abs(int(k))
            v = rng.integers(1, 9, size) * rng.choice([-1, 1], size)
            if dtype is not np.int64:
                v = v * rng.normal(size=size)
            if dtype is complex:
                v = v * np.exp(1j * rng.normal(size=size))
            m += np.diag(v, int(k)).astype(dtype)
        op = BandOp.of(m)
        assert op.bands
        for k, v in op.bands.items():
            assert np.array_equal(v, np.diagonal(m, k))
            assert not np.shares_memory(v, m)
        assert np.array_equal(op.dense(), m)
        assert np.array_equal(op.dag.dense(), m.conj().T)

    @pytest.mark.parametrize("k, shape", [(0, (5,)), (1, (6,)), (-2, (3,)), (7, (0,)), (0, (6, 1))])
    def test_wrong_length_band_rejected(self, k, shape):
        # (1, (6,)) is a band zero-padded to dim entries.
        with pytest.raises(ValueError, match=rf"^band {k} needs shape"):
            BandOp(6, {k: np.ones(shape)})


class TestCheckRelations:
    def test_all_pass_lam2(self):
        report = check_relations(build_rep(new_params(2, [0.5]), 40), 1e-12)
        assert report.ok
        assert report.headroom == 3

    def test_all_pass_lam4(self):
        params = new_params(4, [0.3, 0.2, -0.1])
        report = check_relations(build_rep(params, 40), 1e-12)
        assert report.ok

    def test_relation_names_cover_defining_set(self):
        report = check_relations(build_rep(new_params(3, [0.5, 0.1]), 30), 1e-12)
        names = {e.name for e in report.entries}
        assert "[a, adag] = I + sum alpha_mu P_mu" in names
        assert "adag a = F(N)" in names
        assert "a adag = F(N+1)" in names
        assert "T^lam = I" in names

    def test_corrupted_entry_detected(self):
        rep = build_rep(new_params(2, [0.5]), 20)
        a = rep.a.dense()
        a[3, 4] += 1e-6
        bad = dataclasses.replace(rep, a=BandOp.of(a), adag=BandOp.of(a.conj().T))
        report = check_relations(bad, 1e-12)
        assert not report.ok
        assert any(
            "[a, adag]" in e.name or "F(N)" in e.name for e in report.failures()
        )

    def test_t_is_unitary(self):
        rep = build_rep(new_params(5, [0.1, 0.2, -0.3, 0.05]), 25)
        t = rep.tmat.dense()
        residual = np.abs(t.conj().T @ t - np.eye(25)).max()
        assert residual <= 1e-12

    def test_grading_creation_raises_grade(self):
        rep = build_rep(new_params(3, [0.5, 0.1]), 12)
        adag, proj = rep.adag.dense(), [rep.proj.take(mu).dense() for mu in range(3)]
        for mu in range(3):
            lhs = proj[(mu + 1) % 3] @ adag @ proj[mu]
            rhs = adag @ proj[mu]
            assert np.abs(lhs - rhs).max() == 0.0

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0))
    def test_random_valid_params_pass(self, lam, seed):
        rng = np.random.default_rng(seed)
        params = fock_valid_params(rng, lam)
        report = check_relations(build_rep(params, 2 * lam + 20), 1e-12)
        assert report.ok, report.failures()


class TestKleinReduction:
    def test_shifted_oscillator_passes(self):
        report = klein_reduction_check(build_rep(new_params(2, [0.5]), 30), 1e-12)
        assert report.ok

    def test_plain_oscillator_passes(self):
        report = klein_reduction_check(build_rep(new_params(2, [0.0]), 30), 1e-12)
        assert report.ok

    def test_lam3_rejected(self):
        rep = build_rep(new_params(3, [0.1, 0.1]), 12)
        with pytest.raises(DomainError):
            klein_reduction_check(rep, 1e-12)


class TestRelationReport:
    def _entry(self, name, residual, passed, nonzero=False):
        return RelationEntry(name=name, residual=residual, passed=passed, nonzero=nonzero)

    def test_ok_requires_all_pass(self):
        report = RelationReport(
            entries=(self._entry("x", 0.0, True), self._entry("y", 1.0, False)),
            headroom=3,
            tol=1e-12,
        )
        assert not report.ok
        assert [e.name for e in report.failures()] == ["y"]

    def test_max_residual_skips_nonzero_assertions(self):
        # A nonzero entry records how large a matrix is, not an error size, so
        # it must not contaminate the worst-residual summary.
        report = RelationReport(
            entries=(
                self._entry("small", 1e-14, True),
                self._entry("Q != 0", 42.0, True, nonzero=True),
            ),
            headroom=4,
            tol=1e-12,
        )
        assert report.max_residual == 1e-14

    def test_residual_lookup_by_name(self):
        report = RelationReport(
            entries=(self._entry("x", 0.125, True),), headroom=3, tol=1.0
        )
        assert report.residual("x") == 0.125
        with pytest.raises(KeyError):
            report.residual("missing")


class TestDump:
    def test_shapes_and_canonical_entry(self):
        params = new_params(3, [1.0, -0.5])
        obj = rep_to_dict(build_rep(params, 6))
        assert obj["lambda"] == 3
        assert obj["alpha"] == [1.0, -0.5, -0.5]
        assert obj["dim"] == 6
        a = obj["matrices"]["a"]
        assert len(a) == 6 and len(a[0]) == 6
        assert a[0][1] == [math.sqrt(2.0), 0.0]
        assert a[1][0] == [0.0, 0.0]

    def test_t_entry_is_complex_pair(self):
        obj = rep_to_dict(build_rep(new_params(3, [0.0, 0.0]), 6))
        t11 = obj["matrices"]["t"][1][1]
        expected = np.exp(2j * np.pi / 3)
        assert abs(t11[0] - expected.real) <= 1e-15
        assert abs(t11[1] - expected.imag) <= 1e-15
