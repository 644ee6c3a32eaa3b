"""Real bands stay float64, and that changes no residual bit.

BandOp stores a real vector in float64 and a complex one in complex128: an
operator's bands take the np.result_type of the vectors it is built from.
For finite values, real arithmetic is the real part of the complex
arithmetic and |x + 0i| = |x|, so every product, sum, adjoint and block
maximum must come out the same (==) as when every band is forced to
complex128.  Block maxima over the kept levels are also checked against the
dense matrix's top-left block.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycosc import BandOp

EXAMPLES = settings(max_examples=60, deadline=None)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
LAMS = st.integers(min_value=2, max_value=5)
DIMS = st.integers(min_value=12, max_value=120)


def random_bands(rng, lam, dim):
    """Up to three diagonals at offsets |k| < lam, each real or carrying T-like phases."""
    bands = {}
    for k in rng.choice(np.arange(1 - lam, lam), size=int(rng.integers(1, 4)), replace=False):
        size = dim - abs(int(k))
        v = rng.normal(size=size) * rng.choice([1e-3, 1.0, 1e3])
        if rng.integers(2):
            v = v * np.exp(2j * np.pi * (np.arange(size) % lam) / lam)
        bands[int(k)] = v
    return bands


def natural_and_forced(bands, dim):
    """The BandOp as stored, and the same values with every band complex."""
    return BandOp(dim, bands), BandOp(dim, {k: v.astype(complex) for k, v in bands.items()})


def band_order_product(x, y):
    """x @ y as a dense complex matrix: each pair of bands multiplied entry by
    entry, and the terms summed in the order of x's bands, then y's."""
    dim = x.dim
    out = np.zeros((dim, dim), complex)
    for kx, vx in x.bands.items():
        for ky, vy in y.bands.items():
            # Rows i where (i, i + kx) and (i + kx, i + kx + ky) both exist.
            i = np.arange(max(0, -kx, -kx - ky), dim - max(0, kx, kx + ky))
            out[i, i + kx + ky] += vx[i - max(0, -kx)] * vy[i + kx - max(0, -ky)]
    return out


def block_top_max(m, top):
    return float(np.abs(m[:top, :top]).max(initial=0.0))


@EXAMPLES
@given(SEEDS, LAMS, DIMS, st.integers(min_value=0, max_value=4))
def test_real_bands_give_the_complex_results(seed, lam, dim, headroom):
    rng = np.random.default_rng(seed)
    x, xc = natural_and_forced(random_bands(rng, lam, dim), dim)
    y, yc = natural_and_forced(random_bands(rng, lam, dim), dim)
    z, zc = natural_and_forced(random_bands(rng, lam, dim), dim)
    for v in (*x.bands.values(), *y.bands.values()):
        assert v.dtype in (np.float64, np.complex128)
    r, rc = x @ y - z, xc @ yc - zc
    assert np.array_equal(r.dense(), rc.dense())
    assert np.array_equal(x.dag.dense(), xc.dag.dense())
    assert np.array_equal((x.dag @ y).dense(), (xc.dag @ yc).dense())
    top = dim - headroom
    assert r.block_max(top) == rc.block_max(top)
    assert r.block_max(top) == block_top_max(rc.dense(), top)


@EXAMPLES
@given(SEEDS, LAMS, DIMS)
def test_real_times_real_stays_float64(seed, lam, dim):
    rng = np.random.default_rng(seed)
    real = BandOp(dim, {k: v.real for k, v in random_bands(rng, lam, dim).items()})
    phased = BandOp.diag(np.exp(2j * np.pi * (np.arange(dim) % lam) / lam))
    assert all(v.dtype == np.float64 for v in (real @ real.dag - real).bands.values())
    assert all(v.dtype == np.complex128 for v in (real @ phased).bands.values())
    # One complex band makes the whole operator complex, so no product inside it mixes types.
    mixed = BandOp(dim, {0: np.ones(dim), 1: np.full(dim - 1, 1j)})
    assert all(v.dtype == np.complex128 for v in mixed.bands.values())
    # Integer bands stay exact, and a float or complex multiple of them is float64 or complex128.
    count = BandOp.diag(np.arange(dim))
    assert count.bands[0].dtype == np.int64
    assert (0.1 * count).bands[0].dtype == np.float64
    assert (count * 1j).bands[0].dtype == np.complex128


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble, np.complex128])
def test_construction_leaves_the_callers_array_writable(dtype):
    a = np.ones(5, dtype)
    op = BandOp(6, {1: a})
    assert a.flags.writeable
    assert not op.bands[1].flags.writeable
    a[0] = 2
    assert op.bands[1][0] == 1


@EXAMPLES
@given(SEEDS, LAMS, DIMS)
def test_nan_propagates_exactly_when_inside_the_block(seed, lam, dim):
    rng = np.random.default_rng(seed)
    bands = random_bands(rng, lam, dim)
    top = dim - 3
    # The last band, so that a plain max() over the band peaks would drop its
    # NaN, and the first, so that no later finite peak may replace it.
    for k in {list(bands)[0], list(bands)[-1]}:
        # The band's first entry (i, i + k), and its last, whose column or row is at the edge.
        for i in (max(0, -k), dim - 1 - max(k, 0)):
            v = np.array(bands[k])
            v[i - max(0, -k)] = np.nan
            op, forced = natural_and_forced({**bands, k: v}, dim)
            expected = max(i, i + k) < top
            assert math.isnan(op.block_max(top)) == expected
            assert math.isnan((op @ BandOp.diag(np.ones(dim))).block_max(top)) == expected
            assert math.isnan(forced.block_max(top)) == expected


@EXAMPLES
@given(SEEDS, LAMS, DIMS)
def test_difference_is_sum_with_negated_operand(seed, lam, dim):
    # x - y has the values of x + (-1) * y, band for band and entry for entry.
    rng = np.random.default_rng(seed)
    x = BandOp(dim, random_bands(rng, lam, dim))
    y = BandOp(dim, random_bands(rng, lam, dim))
    diff, reference = x - y, x + (-1) * y
    assert diff.bands.keys() == reference.bands.keys()
    for k, v in diff.bands.items():
        assert v.dtype == reference.bands[k].dtype
        assert np.array_equal(v, reference.bands[k])
    assert np.array_equal(diff.dense(), x.dense() - y.dense())


@EXAMPLES
@given(SEEDS, LAMS, DIMS)
def test_product_of_mixed_real_and_complex_bands(seed, lam, dim):
    # A real operator plus a phased one at another offset holds float64 and
    # complex128 bands side by side; its products sum their terms in band order
    # and, like every product, hold one type.
    rng = np.random.default_rng(seed)
    k_real, k_phased = (int(k) for k in rng.choice(np.arange(1 - lam, lam), size=2, replace=False))
    phases = np.exp(2j * np.pi * (np.arange(dim - abs(k_phased)) % lam) / lam)
    mixed = BandOp(dim, {k_real: rng.normal(size=dim - abs(k_real))}) + BandOp(
        dim, {k_phased: rng.normal(size=dim - abs(k_phased)) * phases}
    )
    assert {v.dtype for v in mixed.bands.values()} == {np.dtype(np.float64), np.dtype(np.complex128)}
    y = BandOp(dim, random_bands(rng, lam, dim))
    for left, right in ((mixed, y), (y, mixed), (mixed, mixed)):
        product = left @ right
        assert all(v.dtype == np.complex128 for v in product.bands.values())
        assert np.array_equal(product.dense(), band_order_product(left, right))


def test_operator_without_bands():
    zero = BandOp.of(np.zeros((6, 6)))
    product = zero @ zero
    assert product.bands == {}
    assert (product - zero).block_max(6) == 0.0
