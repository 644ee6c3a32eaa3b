"""Every built operator equals, entry for entry, its dense numpy construction.

The builders store weighted shifts (BandOp) whose coefficient vectors come
from the same float expressions as the dense matrices they replace, in
float64 (complex128 where a phase enters; np.longdouble for the
parasupercharge, which is built in it).  Each test
recomputes the dense matrix with numpy (np.diag, matmuls with the projectors)
and requires == on every entry of .dense().
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cycosc import (
    build_hierarchy,
    build_rep,
    cyclic_shift,
    new_params,
    ossqm_build,
    pseudo_family1_build,
    pseudo_family2_build,
    pssqm_build,
    structure_values,
)
from conftest import fock_valid_params, window_valid_params

EXAMPLES = settings(max_examples=20, deadline=None)
LAMS = st.integers(min_value=2, max_value=5)
DIMS = st.integers(min_value=10, max_value=120)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


def dense_rep(params, dim):
    """The dense matrices a, adag, N, P_mu, T as build_rep once made them."""
    lam = params.lam
    fvals = structure_values(params, dim - 1)
    a = np.diag(np.sqrt(fvals[1:]), k=1).astype(complex)
    levels = np.arange(dim)
    return {
        "a": a,
        "adag": a.conj().T.copy(),
        "nmat": np.diag(np.arange(dim, dtype=float)),
        "proj": [np.diag((levels % lam == mu).astype(complex)) for mu in range(lam)],
        # Phases at n mod lam, so that T is exactly lam-periodic.
        "tmat": np.diag(np.exp(2j * np.pi * (levels % lam) / lam)),
    }


def assert_rep_equal(rep, ref):
    for name in ("a", "adag", "nmat", "tmat"):
        assert np.array_equal(getattr(rep, name).dense(), ref[name]), name
    assert rep.proj.bands[0].shape[0] == len(ref["proj"])
    for mu, expected in enumerate(ref["proj"]):
        assert np.array_equal(rep.proj.take(mu).dense(), expected)


@EXAMPLES
@given(LAMS, DIMS, SEEDS)
def test_representation(lam, dim, seed):
    params = fock_valid_params(np.random.default_rng(seed), lam)
    assert_rep_equal(build_rep(params, dim), dense_rep(params, dim))


@EXAMPLES
@given(LAMS, DIMS, SEEDS)
def test_hierarchy(lam, dim, seed):
    params = window_valid_params(np.random.default_rng(seed), lam)
    h = build_hierarchy(params, dim)
    fvals = structure_values(params, dim - 1 + lam)
    hmats = [np.diag(fvals[mu : mu + dim]) for mu in range(lam + 1)]
    for mu in range(lam + 1):
        assert np.array_equal(h.hmats.take(mu).dense(), hmats[mu])
    # The hierarchy keeps only the ladders of each shifted algebra, sector mu for algebra mu.
    reps = [dense_rep(cyclic_shift(params, mu), dim) for mu in range(lam)]
    assert h.a.bands[1].shape[0] == h.adag.bands[-1].shape[0] == lam
    for mu, ref in enumerate(reps):
        assert np.array_equal(h.a.take(mu).dense(), ref["a"])
        assert np.array_equal(h.adag.take(mu).dense(), ref["adag"])


@EXAMPLES
@given(LAMS, DIMS, SEEDS)
def test_parasupercharge(lam, dim, seed):
    # Q[n + 1, n] = sqrt(2 F(n + 1)) off the mu class, from alpha in np.longdouble.
    params = fock_valid_params(np.random.default_rng(seed), lam)
    beta = np.concatenate(([0], np.cumsum(np.array(params.alpha, dtype=np.longdouble))[:-1]))
    n = np.arange(dim - 1)
    fnext = (n + 1) + beta[(n + 1) % lam]
    for mu in range(lam):
        Q = np.zeros((dim, dim), dtype=np.clongdouble)
        Q[n + 1, n] = np.where(n % lam != mu, np.sqrt(2 * fnext), 0)
        assert np.array_equal(pssqm_build(params, mu, dim).Q.dense(), Q)


@EXAMPLES
@given(DIMS, SEEDS, st.booleans())
def test_pseudosupercharges(dim, seed, special):
    rng = np.random.default_rng(seed)
    params = fock_valid_params(rng, 3)
    mu = int(rng.integers(3))
    c = float(rng.uniform(0.3, 2.0)) * float(rng.choice([-1.0, 1.0]))
    eta = math.sqrt(2.0) * abs(c) if special else float(rng.uniform(0.05, 1.95)) * abs(c)
    phi = 0.0 if special else float(rng.uniform(0.0, 2.0 * math.pi - 1e-9))
    r_mu = float(rng.normal(0.0, 3.0))
    ref = dense_rep(params, dim)
    P = ref["proj"][(mu + 2) % 3]
    xi = complex(math.cos(phi), math.sin(phi)) * math.sqrt(
        (2.0 * abs(c) - eta) * (2.0 * abs(c) + eta)
    )
    sol = pseudo_family1_build(params, mu, c, eta, phi, dim)
    assert np.array_equal(sol.Q.dense(), (eta * ref["adag"] + xi * ref["a"]) @ P)
    sol = pseudo_family2_build(params, mu, c, r_mu, dim)
    assert np.array_equal(sol.Q.dense(), 2.0 * abs(c) * (ref["a"] @ P))


@EXAMPLES
@given(DIMS, SEEDS, st.integers(min_value=0, max_value=1), st.booleans())
def test_orthosupercharge_pair(dim, seed, mu, maximal):
    rng = np.random.default_rng(seed)
    a0 = float(rng.uniform(-0.8, 1.5))
    params = new_params(3, [a0, -1.0] if mu == 0 else [a0, 1.0 - a0])
    root2 = math.sqrt(2.0)
    xi = root2 if maximal else float(rng.uniform(0.05, root2))
    phi = float(rng.uniform(0.0, 2.0 * math.pi - 1e-9))
    ref = dense_rep(params, dim)
    lower = ref["a"] @ ref["proj"][(mu + 2) % 3]
    raising = ref["adag"] @ ref["proj"][mu]
    w = math.sqrt((root2 - xi) * (root2 + xi))
    phase = complex(math.cos(phi), math.sin(phi))
    sol = ossqm_build(params, mu, xi, phi, dim)
    assert np.array_equal(sol.Q.dense(), xi * lower + (phase * w) * raising)
    assert np.array_equal(sol.Q2.dense(), (-np.conj(phase) * w) * lower + xi * raising)


def test_band_vectors_are_read_only_float64_unless_phased():
    # Real operators keep real bands; only T carries a phase; N and P_mu are exact integers.
    rep = build_rep(new_params(3, [0.5, 0.1]), 12)
    proj = [rep.proj.take(mu) for mu in range(3)]
    integer = (rep.nmat, rep.proj, *proj)
    for op in (rep.a, rep.adag, rep.nmat, rep.tmat, rep.proj, *proj):
        for v in op.bands.values():
            if op is rep.tmat:
                assert v.dtype == np.complex128
            else:
                assert v.dtype == (np.int64 if any(op is x for x in integer) else np.float64)
            assert not v.flags.writeable
    # A float or complex multiple of an integer band is float64 or complex128,
    # with the values the float64 band gives.
    for c in (0.1, -1.0 / 3.0, 1e300, 2.5 + 0.7j):
        for op in integer:
            scaled = (c * op).bands[0]
            assert scaled.dtype == (np.complex128 if isinstance(c, complex) else np.float64)
            assert np.array_equal(scaled, c * op.bands[0].astype(np.float64))
            assert np.array_equal((op * c).bands[0], scaled)
    # Each variant operator's bands share one type and are read-only: the
    # parasupercharge in np.longdouble, a phased charge in complex128 (also at
    # phi = 0), family 2's charge and every Hamiltonian in float64.
    params = new_params(3, [0.5, -1.0])
    variants = [
        (pssqm_build(params, 0, 12), [np.longdouble]),
        (pseudo_family1_build(params, 1, 0.7, 0.5, 0.0, 12), [np.complex128]),
        (pseudo_family2_build(params, 2, 0.7, 1.5, 12), [np.float64]),
        (ossqm_build(params, 0, 1.0, 2.0, 12), [np.complex128, np.complex128]),
        (ossqm_build(params, 0, math.sqrt(2.0), 0.0, 12), [np.complex128, np.complex128]),
    ]
    for sol, charge_types in variants:
        ops = [sol.Q] + ([sol.Q2] if sol.Q2 is not None else [])
        assert len(ops) == len(charge_types), sol.kind
        for op, dtype in zip([*ops, sol.H], [*charge_types, np.float64]):
            assert op.bands, sol.kind
            for v in op.bands.values():
                assert v.dtype == dtype, sol.kind
                assert not v.flags.writeable, sol.kind


def test_hamiltonian_energies_read_back_exactly():
    params = new_params(3, [1.0, -0.5])
    energies = build_hierarchy(params, 16).hmats.take(1).real_diagonal()
    assert energies.dtype == np.float64
    assert np.array_equal(energies, structure_values(params, 16)[1:17])
