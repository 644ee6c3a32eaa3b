"""Parameter handling, derived constants, and the kappa coordinate chart."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cycosc import (
    AlgebraParams,
    DomainError,
    InvalidParamsError,
    KappaParams,
    SymmetryError,
    alpha_from_kappa,
    cyclic_shift,
    derived_constants,
    kappa_from_alpha,
    new_params,
    params_from_dict,
    params_to_dict,
    structure_function,
    structure_table,
    structure_values,
    validate_fock,
)
from conftest import fock_valid_params

# Keeps generated heads away from overflow while covering invalid regions too.
heads = st.lists(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=1, max_size=7
)


class TestNewParams:
    def test_sum_zero_completion_lam2(self):
        params = new_params(2, [0.5])
        assert params.alpha == (0.5, -0.5)

    def test_sum_zero_completion_lam3(self):
        params = new_params(3, [1.0, -0.5])
        assert params.alpha == (1.0, -0.5, -0.5)

    def test_construction_succeeds_for_invalid_fock_region(self):
        params = new_params(3, [-2.0, 0.0])
        assert params.alpha == (-2.0, 0.0, 2.0)
        assert not validate_fock(params).ok

    def test_rejects_lam_below_2(self):
        with pytest.raises(DomainError):
            new_params(1, [])

    def test_rejects_wrong_head_length(self):
        with pytest.raises(DomainError):
            new_params(3, [0.1])

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            new_params(2, [float("nan")])

    def test_alpha_is_read_only(self):
        params = new_params(2, [0.5])
        with pytest.raises(TypeError):
            params.alpha[0] = 1.0

    @given(heads)
    def test_last_entry_cancels_running_sum_bitwise(self, head):
        params = new_params(len(head) + 1, head)
        beta = derived_constants(params).beta
        # The derived entry is built from the same prefix sum as beta, so the
        # wrap-around value beta_{lam-1} + alpha_{lam-1} vanishes exactly.
        assert beta[-1] + params.alpha[-1] == 0.0

    @given(st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=8))
    @example([-0.0, -0.0])
    def test_last_entry_is_minus_cumsum_bitwise(self, head):
        # The derived entry is a left-to-right Python sum; np.cumsum takes the
        # same sum, which beta repeats, so they agree bit for bit, zero signs too.
        last = new_params(len(head) + 1, head).alpha[-1]
        assert np.float64(last).tobytes() == (-np.cumsum(head)[-1]).tobytes()


class TestDerivedConstants:
    def test_prefix_sums_lam3(self):
        params = new_params(3, [1.0, -0.5])
        d = derived_constants(params)
        assert d.beta == (0.0, 1.0, 0.5)
        assert d.gamma == (0.5, 0.75, 0.25)
        assert d.omega == (2.0, 0.5, 0.5)

    def test_beta_starts_at_zero(self):
        params = new_params(4, [0.3, 0.2, -0.1])
        assert derived_constants(params).beta[0] == 0.0

    @given(heads)
    def test_independent_prefix_sum_cross_check(self, head):
        params = new_params(len(head) + 1, head)
        d = derived_constants(params)
        lam = params.lam
        beta = [math.fsum(params.alpha[:mu]) for mu in range(lam)]
        assert np.allclose(d.beta, beta, atol=1e-12)
        alpha = np.array(params.alpha)
        assert np.array_equal(d.gamma, np.array(d.beta) + alpha / 2.0)
        assert np.array_equal(d.omega, 1.0 + alpha)

    @given(st.lists(st.floats(min_value=-1e300, max_value=1e300), min_size=1, max_size=8))
    @example([-0.0, -0.0, -0.0])
    @example([-0.0, 0.0])
    @example([1e16, 1.0, -1e16, 3e-300, -0.5])
    @example([5e-324, -5e-324, 1e300])
    def test_bitwise_equal_to_numpy_cumsum_and_elementwise(self, head):
        # Python floats taken left to right give numpy's bits, zero signs too.
        params = new_params(len(head) + 1, head)
        d = derived_constants(params)
        alpha = np.array(params.alpha)
        beta = np.concatenate(([0.0], np.cumsum(alpha)[:-1]))
        assert np.array(d.beta).tobytes() == beta.tobytes()
        assert np.array(d.gamma).tobytes() == (beta + alpha / 2.0).tobytes()
        assert np.array(d.omega).tobytes() == (1.0 + alpha).tobytes()

    def test_lam2_gammas_coincide_at_half_alpha0(self):
        for kappa in (0.5, -0.3, 1.7, 0.0):
            d = derived_constants(new_params(2, [kappa]))
            assert d.gamma[0] == kappa / 2
            assert d.gamma[1] == kappa / 2


class TestValidateFock:
    def test_valid_example(self):
        assert validate_fock(new_params(3, [1.0, -0.5])).ok

    def test_violation_index_reported(self):
        check = validate_fock(new_params(3, [-2.0, 0.0]))
        assert not check.ok
        assert 1 in check.violations

    def test_plain_oscillator_ok(self):
        assert validate_fock(new_params(2, [0.0])).ok

    def test_boundary_is_excluded(self):
        # F(1) = 0 exactly must be rejected: the condition is strict.
        assert not validate_fock(new_params(2, [-1.0])).ok


class TestStructureFunction:
    def test_values_lam3(self):
        params = new_params(3, [1.0, -0.5])
        assert structure_function(params, 1) == 2.0
        assert structure_function(params, 2) == 2.5
        assert structure_function(params, 3) == 3.0
        assert structure_function(params, 4) == 5.0

    def test_f0_is_zero(self):
        assert structure_function(new_params(5, [0.4, -0.2, 0.9, 0.0]), 0) == 0.0

    def test_values_lam2(self):
        params = new_params(2, [0.5])
        assert structure_function(params, 1) == 1.5
        assert structure_function(params, 2) == 2.0

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            structure_function(new_params(2, [0.0]), -1)

    def test_vector_form_matches_scalar(self):
        params = new_params(4, [0.3, 0.2, -0.1])
        values = structure_values(params, 9)
        assert values.tolist() == [structure_function(params, n) for n in range(10)]

    @given(heads)
    def test_difference_equation(self, head):
        params = new_params(len(head) + 1, head)
        values = structure_values(params, 3 * params.lam)
        steps = np.diff(values)
        expected = 1.0 + np.array(params.alpha)[np.arange(3 * params.lam) % params.lam]
        assert np.abs(steps - expected).max() <= 1e-12


def head_of(data, lam):
    """A head of lam - 1 entries, each drawn as heads draws them."""
    entry = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
    return data.draw(st.lists(entry, min_size=lam - 1, max_size=lam - 1))


class TestStructureTable:
    """structure_table, the one F of every builder: one row per algebra, in alpha's type."""

    @settings(max_examples=60)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=40), st.data())
    def test_rows_are_the_shifted_algebras(self, lam, size, data):
        params = new_params(lam, head_of(data, lam))
        shifts = [cyclic_shift(params, mu) for mu in range(lam)]
        table = structure_table(np.array([s.alpha for s in shifts]), size)
        assert table.shape == (lam, size) and table.dtype == np.float64
        for row, shifted in zip(table, shifts):
            assert row.tobytes() == structure_values(shifted, size - 1).tobytes()
            assert row.tolist() == [structure_function(shifted, n) for n in range(size)]

    @settings(max_examples=60)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=40), st.data())
    def test_longdouble_alpha_gives_longdouble_f(self, lam, size, data):
        # The reference of test_band_construction.py::test_parasupercharge.
        alpha = np.array(new_params(lam, head_of(data, lam)).alpha, dtype=np.longdouble)
        beta = np.concatenate(([0], np.cumsum(alpha)[:-1]))
        n = np.arange(size)
        f = structure_table(alpha, size)
        assert f.dtype == np.longdouble
        # Compared by value: tobytes would also compare the padding of np.longdouble.
        assert np.array_equal(f, n + beta[n % lam])


class TestCyclicShift:
    def test_shift_zero_is_identity(self):
        params = new_params(3, [1.0, -0.5])
        assert np.array_equal(cyclic_shift(params, 0).alpha, params.alpha)

    def test_rotation_lam3(self):
        shifted = cyclic_shift(new_params(3, [1.0, -0.5]), 1)
        assert shifted.alpha == (-0.5, -0.5, 1.0)

    def test_composition_order_lam_is_identity_bitwise(self):
        rng = np.random.default_rng(7)
        for lam in (2, 3, 5):
            params = new_params(lam, rng.uniform(-0.7, 1.3, size=lam - 1))
            out = params
            for _ in range(lam):
                out = cyclic_shift(out, 1)
            assert np.array_equal(out.alpha, params.alpha)
            assert out == params and hash(out) == hash(params)

    def test_sum_preserved(self):
        params = new_params(4, [0.3, 0.2, -0.1])
        shifted = cyclic_shift(params, 2)
        assert abs(math.fsum(shifted.alpha)) <= 1e-12

    def test_out_of_range_rejected(self):
        params = new_params(3, [1.0, -0.5])
        with pytest.raises(DomainError):
            cyclic_shift(params, 3)
        with pytest.raises(DomainError):
            cyclic_shift(params, -1)


class TestKappaChart:
    def test_lam2_forward(self):
        params = alpha_from_kappa(KappaParams(kappa=np.array([0.5 + 0j])))
        assert params.alpha == (0.5, -0.5)

    def test_lam2_kappa_equals_alpha0(self):
        kp = kappa_from_alpha(new_params(2, [0.7]))
        assert abs(kp.kappa[0] - 0.7) <= 1e-12

    def test_zero_map(self):
        params = alpha_from_kappa(KappaParams(kappa=np.zeros(3, dtype=complex)))
        assert np.abs(params.alpha).max() == 0.0

    def test_forward_matches_fourier_sum_oracle(self):
        # Independent oracle: evaluate the defining Fourier sum with cmath.
        lam = 4
        kappa = np.array([0.3 + 0.2j, -0.1 + 0j, 0.3 - 0.2j])
        params = alpha_from_kappa(KappaParams(kappa=kappa))
        for mu in range(lam):
            expected = sum(
                cmath.exp(2j * cmath.pi * mu * nu / lam) * kappa[nu - 1]
                for nu in range(1, lam)
            )
            assert abs(expected.imag) <= 1e-12
            assert abs(params.alpha[mu] - expected.real) <= 1e-12

    def test_broken_conjugation_symmetry_rejected(self):
        kappa = np.array([0.3 + 0.2j, 0.0 + 0j, 0.4 - 0.2j])
        with pytest.raises(SymmetryError):
            alpha_from_kappa(KappaParams(kappa=kappa))

    def test_inverse_requires_zero_sum(self):
        bad = AlgebraParams(lam=2, alpha=np.array([0.5, 0.5]))
        with pytest.raises(DomainError):
            kappa_from_alpha(bad)

    @settings(max_examples=60)
    @given(st.integers(min_value=2, max_value=8), st.data())
    def test_round_trip_identity(self, lam, data):
        head = data.draw(
            st.lists(
                st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
                min_size=lam - 1,
                max_size=lam - 1,
            )
        )
        params = new_params(lam, head)
        kp = kappa_from_alpha(params)
        back = alpha_from_kappa(kp)
        assert np.abs(np.subtract(back.alpha, params.alpha)).max() <= 1e-12

    def test_kappa_conjugation_symmetry_of_forward_map(self):
        rng = np.random.default_rng(11)
        params = fock_valid_params(rng, 5)
        kp = kappa_from_alpha(params)
        lam = params.lam
        for nu in range(1, lam):
            assert abs(kp.kappa[nu - 1].conjugate() - kp.kappa[lam - nu - 1]) <= 1e-12


class TestValueSemantics:
    @pytest.mark.parametrize(
        "make",
        [
            lambda a1: new_params(3, [0.1, a1]),
            lambda a1: derived_constants(new_params(3, [0.1, a1])),
            lambda a1: kappa_from_alpha(new_params(3, [0.1, a1])),
        ],
        ids=["AlgebraParams", "DerivedConstants", "KappaParams"],
    )
    def test_equal_values_compare_and_hash_equal(self, make):
        a, b, other = make(0.2), make(0.2), make(0.3)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert a != other
        assert {a: "a", other: "other"}[b] == "a"


class TestSerialization:
    def test_round_trip(self):
        params = new_params(3, [1.0, -0.5])
        obj = params_to_dict(params)
        assert obj == {"lambda": 3, "alpha": [1.0, -0.5, -0.5]}
        back = params_from_dict(json.loads(json.dumps(obj)))
        assert back.lam == 3
        assert np.array_equal(back.alpha, params.alpha)

    def test_head_only_dict_accepted(self):
        back = params_from_dict({"lambda": 3, "alpha": [1.0, -0.5]})
        assert back.alpha == (1.0, -0.5, -0.5)

    def test_nonzero_sum_rejected(self):
        with pytest.raises(DomainError):
            params_from_dict({"lambda": 2, "alpha": [0.5, 0.0]})

    def test_missing_keys_rejected(self):
        with pytest.raises(DomainError):
            params_from_dict({"alpha": [0.5, -0.5]})


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: AlgebraParams(lam=1, alpha=(0.0,)), "order must be >= 2"),
        (lambda: KappaParams(kappa=[[0.5 + 0j]]), "nonempty vector"),
        (lambda: KappaParams(kappa=[complex(math.nan, 0.0)]), "must be finite"),
        (lambda: KappaParams(kappa=[10**400]), "kappa entries must be finite"),
        (lambda: params_from_dict({"lambda": 3, "alpha": [1.0]}), "length 3 or 2"),
        (lambda: params_from_dict({"lambda": math.inf, "alpha": [0.5, 0.1]}), "lambda must be an integer"),
        (lambda: params_from_dict({"lambda": 3.9, "alpha": [0.5, 0.1]}), "lambda must be an integer"),
        (lambda: params_from_dict({"lambda": True, "alpha": [0.5]}), "lambda must be an integer"),
        (lambda: params_from_dict({"lambda": 3, "alpha": "05"}), "alpha must be a list of numbers"),
        (lambda: params_from_dict({"lambda": 3, "alpha": {"0.5": 1, "0.1": 2}}), "alpha must be a list of numbers"),
        (lambda: params_from_dict({"lambda": 3, "alpha": [True, 0.1]}), "alpha must be a list of numbers"),
        (lambda: params_from_dict({"lambda": 3, "alpha": [math.inf, -math.inf, 0.0]}), "must be finite"),
        (lambda: params_from_dict({"lambda": 3, "alpha": [10**400, 0.1]}), "must be finite"),
        (lambda: params_from_dict({"lambda": 3, "alpha": [1e308, 1e308, -1e308]}), "float64 range"),
    ],
    ids=[
        "AlgebraParams-order-1", "KappaParams-2d", "KappaParams-nan", "KappaParams-huge-int",
        "params_from_dict-length",
        "lambda-inf", "lambda-float", "lambda-bool", "alpha-str", "alpha-dict", "alpha-bool",
        "alpha-inf", "alpha-huge-int", "alpha-sum-overflow",
    ],
)
def test_malformed_input_rejected(make, match):
    with pytest.raises(DomainError, match=match):
        make()


class TestInvalidParamsError:
    def test_carries_violations(self):
        check = validate_fock(new_params(3, [-2.0, 0.0]))
        err = InvalidParamsError(check.violations)
        assert err.violations == check.violations
        assert "F(mu)" in str(err)
