"""Each algebra derives its constants once; (lam, dim) tables are shared read-only.

AlgebraParams computes its DerivedConstants and FockValidation when it is
made, and derived_constants, validate_fock and require_fock read them, so a
repeated call on the same algebra derives nothing.  The arrays that depend on
(lam, dim) alone come from fock.shape_tables, one bounded cache, and every
representation and variant at that (lam, dim) shares them.  These
tests pin the values (bitwise equal to a fresh derivation), the value
semantics the cached objects must not touch, the sharing, and the bound.
"""

import dataclasses
import functools
import inspect
import itertools
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cycosc import (
    AlgebraParams,
    BandOp,
    DerivedConstants,
    FockValidation,
    InvalidParamsError,
    build_hierarchy,
    build_rep,
    check_relations,
    cyclic_shift,
    derived_constants,
    new_params,
    params_to_dict,
    validate_fock,
)
from cycosc import fock
from cycosc.algebra import require_fock


def fresh_constants(alpha):
    """beta, gamma, omega and the Fock verdict of alpha, derived from scratch."""
    beta = (0.0, *itertools.accumulate(alpha[:-1]))
    gamma = tuple(b + a / 2.0 for b, a in zip(beta, alpha))
    omega = tuple(1.0 + a for a in alpha)
    violations = tuple(mu for mu in range(1, len(alpha)) if not mu + beta[mu] > 0.0)
    return DerivedConstants(beta, gamma, omega), FockValidation(not violations, violations)


def bits(values):
    return struct.pack(f"{len(values)}d", *values)


@st.composite
def params_lam_2_to_5(draw):
    lam = draw(st.integers(2, 5))
    head = draw(st.lists(st.floats(-5.0, 5.0, allow_nan=False), min_size=lam - 1, max_size=lam - 1))
    return new_params(lam, head)


class TestDerivedOnce:
    @given(params_lam_2_to_5())
    def test_values_equal_a_fresh_derivation_bitwise(self, params):
        const, check = fresh_constants(params.alpha)
        got = derived_constants(params)
        for field in ("beta", "gamma", "omega"):
            assert bits(getattr(got, field)) == bits(getattr(const, field)), field
        assert validate_fock(params) == check

    @given(params_lam_2_to_5())
    def test_every_call_returns_the_one_object(self, params):
        assert derived_constants(params) is derived_constants(params)
        assert validate_fock(params) is validate_fock(params)

    def test_require_fock_reads_the_verdict(self):
        params = new_params(3, [-2.0, 0.0])
        with pytest.raises(InvalidParamsError) as err:
            require_fock(params)
        assert err.value.violations == validate_fock(params).violations == (1, 2)


class TestValueSemantics:
    def test_fields_are_lam_and_alpha(self):
        assert [f.name for f in dataclasses.fields(AlgebraParams)] == ["lam", "alpha"]

    def test_eq_hash_repr_and_dict_see_lam_and_alpha_alone(self):
        params = new_params(3, [0.5, 0.25])
        assert params == AlgebraParams(lam=3, alpha=(0.5, 0.25, -0.75))
        assert hash(params) == hash((3, (0.5, 0.25, -0.75)))
        assert repr(params) == "AlgebraParams(lam=3, alpha=(0.5, 0.25, -0.75))"
        assert params_to_dict(params) == {"lambda": 3, "alpha": [0.5, 0.25, -0.75]}
        assert dataclasses.asdict(params) == {"lam": 3, "alpha": (0.5, 0.25, -0.75)}

    def test_new_objects_derive_their_own(self):
        params = new_params(3, [0.5, 0.25])
        for other in (dataclasses.replace(params, alpha=(-2.0, 1.0, 1.0)), cyclic_shift(params, 1)):
            const, check = fresh_constants(other.alpha)
            assert derived_constants(other) is not derived_constants(params)
            assert derived_constants(other) == const and validate_fock(other) == check
        assert not validate_fock(dataclasses.replace(params, alpha=(-2.0, 1.0, 1.0))).ok


def table_arrays(t: fock.ShapeTables):
    """Every table of t, by name, made now if it was not yet."""
    names = [n for n, v in vars(fock.ShapeTables).items() if isinstance(v, functools.cached_property)]
    for name in names:
        yield name, getattr(t, name)


class TestSharedTables:
    @pytest.mark.parametrize("lam, dim", [(2, 9), (3, 12), (5, 17)])
    def test_every_table_is_read_only(self, lam, dim):
        tables = list(table_arrays(fock.shape_tables(lam, dim)))
        assert [name for name, _ in tables] == ["levels", "classes", "proj", "tphase"]
        for name, v in tables:
            with pytest.raises(ValueError):
                v.flat[0] = 1

    @pytest.mark.parametrize("lam, dim", [(2, 9), (3, 12), (5, 17)])
    def test_tables_hold_their_definitions(self, lam, dim):
        t = fock.shape_tables(lam, dim)
        n = np.arange(dim)
        assert np.array_equal(t.levels, n) and np.array_equal(t.classes, n % lam)
        assert np.array_equal(t.proj, [(n % lam == mu).astype(np.int64) for mu in range(lam)])
        assert np.array_equal(t.tphase, np.exp(2j * np.pi * (n % lam) / lam))

    def test_representations_share_n_p_and_t_not_ladders_or_f(self):
        x, y = (build_rep(new_params(3, head), 24) for head in ([0.5, 0.25], [-0.3, 0.9]))
        for op in ("nmat", "proj", "tmat"):
            assert getattr(x, op).bands[0] is getattr(y, op).bands[0], op
        for a, b in ((x.a.bands[1], y.a.bands[1]), (x.adag.bands[-1], y.adag.bands[-1]), (x.fvals, y.fvals)):
            assert not np.shares_memory(a, b)

    def test_hierarchies_share_no_energies(self):
        x, y = (build_hierarchy(new_params(3, head), 24) for head in ([0.5, 0.25], [-0.3, 0.9]))
        assert not np.shares_memory(x.hmats.bands[0], y.hmats.bands[0])
        assert not np.shares_memory(x.a.bands[1], y.a.bands[1])

    def test_copied_projectors_give_the_same_report(self):
        # check_relations reads the projectors it is given, not the shared table.
        rep = build_rep(new_params(4, [0.3, -0.2, 0.4]), 20)
        copy = dataclasses.replace(rep, proj=BandOp(20, {0: rep.proj.bands[0].copy()}))
        assert copy.proj.bands[0] is not rep.proj.bands[0]
        assert check_relations(copy) == check_relations(rep)

    def test_a_constant_bounds_the_cache(self):
        assert list(inspect.signature(fock.shape_tables).parameters) == ["lam", "dim"]
        assert fock.shape_tables.cache_info().maxsize == fock.SHAPE_TABLES_KEPT
        for dim in range(40, 40 + 2 * fock.SHAPE_TABLES_KEPT):
            fock.shape_tables(3, dim)
        assert fock.shape_tables.cache_info().currsize == fock.SHAPE_TABLES_KEPT
