"""A leading sector axis on the bands: S operators evaluated as one.

BandOp.stack puts operators side by side over the union of their offsets,
with zeros where one lacks a band.  Every product, sum, scalar multiple and
block maximum of a stacked operator must give, sector by sector, the values
(==) of the same arithmetic on the single operators, and take must select
sectors in the order given.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycosc import BandOp
from cycosc.fock import commutator

EXAMPLES = settings(max_examples=40, deadline=None)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
DIMS = st.integers(min_value=6, max_value=60)


def random_op(rng, dim, complex_=False):
    """Up to three bands at offsets |k| < 3, in the order of their offsets."""
    offsets = sorted(rng.choice(np.arange(-2, 3), size=int(rng.integers(1, 4)), replace=False).tolist())
    bands = {}
    for k in offsets:
        v = rng.normal(size=dim - abs(k))
        bands[k] = v + 1j * rng.normal(size=v.shape) if complex_ else v
    return BandOp(dim, bands)


def sector(op, s):
    """Sector s of a stacked operator, as a single one; a band without sectors is every sector's."""
    return BandOp.wrap(op.dim, {k: v[s] if v.ndim > 1 else v for k, v in op.bands.items()})


def assert_same_values(stacked, single):
    # A band the single operator lacks is zero in the stacked one.
    for k, v in stacked.bands.items():
        assert np.array_equal(v, single.bands.get(k, np.zeros_like(v)))
    assert set(single.bands) <= set(stacked.bands)


@EXAMPLES
@given(SEEDS, DIMS, st.integers(min_value=1, max_value=5))
def test_stacked_arithmetic_is_per_sector(seed, dim, count):
    rng = np.random.default_rng(seed)
    xs = [random_op(rng, dim, complex_=bool(rng.integers(2))) for _ in range(count)]
    ys = [random_op(rng, dim) for _ in range(count)]
    z = random_op(rng, dim)
    x, y = BandOp.stack(xs), BandOp.stack(ys)
    assert len({v.dtype for v in x.bands.values()}) == 1
    top = dim - int(rng.integers(0, 4))
    for s in range(count):
        assert_same_values(sector(x, s), xs[s])
        assert_same_values(sector(x @ y - 0.5 * x, s), xs[s] @ ys[s] - 0.5 * xs[s])
        assert_same_values(sector(x @ z + z @ x.dag, s), xs[s] @ z + z @ xs[s].dag)
        assert_same_values(sector(commutator(x, z), s), commutator(xs[s], z))
        assert_same_values(sector(commutator(z, y), s), commutator(z, ys[s]))
        assert_same_values(sector(commutator(x, y), s), commutator(xs[s], ys[s]))
    assert (x @ y).block_max(top) == max((xs[s] @ ys[s]).block_max(top) for s in range(count))


def test_take_selects_sectors_in_order():
    ops = [BandOp.diag(np.full(5, float(s))) for s in range(3)]
    taken = BandOp.stack(ops).take(np.array([2, 0, 2]))
    assert taken.bands[0][:, 0].tolist() == [2.0, 0.0, 2.0]


def test_take_keeps_a_shared_band():
    x = BandOp(6, {0: np.arange(18.0).reshape(3, 6), 1: np.ones(5)})
    one = x.take(1)
    assert one.bands[1].shape == (5,)
    assert np.array_equal(one.dense(), sector(x, 1).dense())
    two = x.take(np.array([0, 2]))
    assert two.bands[0].shape == (2, 6) and two.bands[1].shape == (5,)
    assert np.array_equal(two.take(1).dense(), sector(x, 2).dense())


def test_stack_keeps_integer_bands_and_widens_to_one_type():
    count = BandOp.diag(np.arange(6))
    assert BandOp.stack([count, count]).bands[0].dtype == np.int64
    mixed = BandOp.stack([count, BandOp(6, {1: np.full(5, 1j)})])
    assert {v.dtype for v in mixed.bands.values()} == {np.dtype(np.complex128)}
    assert list(mixed.bands) == [0, 1]
    assert np.array_equal(mixed.bands[1][0], np.zeros(5))


@pytest.mark.parametrize("s", [0, 2])
def test_nan_in_any_sector_fails_the_block(s):
    ops = [BandOp.diag(np.ones(6)) for _ in range(3)]
    v = np.ones(6)
    v[1] = np.nan
    ops[s] = BandOp.diag(v)
    assert math.isnan(BandOp.stack(ops).block_max(4))
    assert BandOp.stack(ops).block_max(1) == 1.0


def test_product_widens_a_band_to_the_sectors_of_a_later_term():
    # z + x holds an unstacked band (1) beside a stacked one (0), so band 0 of
    # the product starts from an unstacked term and then gains sectors.
    rng = np.random.default_rng(5)
    dim = 8
    xs = [BandOp.diag(rng.normal(size=dim)) for _ in range(3)]
    z = BandOp(dim, {1: rng.normal(size=dim - 1)})
    w = BandOp(dim, {0: rng.normal(size=dim) + 1j, -1: rng.normal(size=dim - 1)})
    product = (z + BandOp.stack(xs)) @ w
    assert product.bands[0].shape == (3, dim)
    for s in range(3):
        assert_same_values(sector(product, s), (z + xs[s]) @ w)


def test_construction_accepts_a_stacked_operator():
    rng = np.random.default_rng(3)
    stacked = BandOp.stack([random_op(rng, 7) for _ in range(3)]) + random_op(rng, 7)
    for op in (BandOp(7, stacked.bands), dataclasses.replace(stacked)):
        for k, v in stacked.bands.items():
            assert np.array_equal(op.bands[k], v)


@pytest.mark.parametrize("shapes", [{0: (2, 6), 1: (3, 5)}, {0: (1, 2, 6)}, {1: (2, 6)}])
def test_construction_rejects_mismatched_sectors_and_shapes(shapes):
    with pytest.raises(ValueError, match=r"^band -?\d+ needs shape"):
        BandOp(6, {k: np.ones(shape) for k, shape in shapes.items()})


@EXAMPLES
@given(SEEDS, DIMS, st.integers(min_value=1, max_value=5))
def test_sector_max_is_each_sectors_block_max(seed, dim, count):
    rng = np.random.default_rng(seed)
    xs = [random_op(rng, dim, complex_=bool(rng.integers(2))) for _ in range(count)]
    # A shared, unstacked band beside the stacked ones counts in every sector.
    x = BandOp.stack(xs) + random_op(rng, dim)
    top = dim - int(rng.integers(0, 4))
    peaks = x.sector_max(top)
    assert peaks.shape == (count,)
    assert peaks.tolist() == [sector(x, s).block_max(top) for s in range(count)]
    assert x.block_max(top) == max(peaks.tolist())


@pytest.mark.parametrize("s", [0, 2])
def test_nan_in_one_sector_is_only_that_sectors_max(s):
    # Band 1's NaN sits at row 1, inside the block of 4 levels.
    v = np.ones(5)
    v[1] = np.nan
    ops = [BandOp(6, {0: np.full(6, 2.0), 1: v if t == s else np.ones(5)}) for t in range(3)]
    peaks = BandOp.stack(ops).sector_max(4)
    assert [math.isnan(m) for m in peaks] == [t == s for t in range(3)]
    assert [m for t, m in enumerate(peaks) if t != s] == [2.0, 2.0]
    assert math.isnan(BandOp.stack(ops).block_max(4))
