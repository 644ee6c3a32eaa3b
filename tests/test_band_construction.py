"""Every built operator equals, entry for entry, its dense numpy construction.

The builders store weighted shifts (BandOp) whose coefficient vectors come
from the same float expressions as the dense matrices they replace, promoted
exactly to np.longdouble (np.clongdouble where a phase enters).  Each test
recomputes the dense matrix with numpy (np.diag, matmuls with the projectors,
np.block) and requires == on every entry of .dense().
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cycosc import (
    block_pair,
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
    assert len(rep.proj) == len(ref["proj"])
    for p, expected in zip(rep.proj, ref["proj"]):
        assert np.array_equal(p.dense(), expected)


@EXAMPLES
@given(LAMS, DIMS, SEEDS)
def test_representation(lam, dim, seed):
    params = fock_valid_params(np.random.default_rng(seed), lam)
    assert_rep_equal(build_rep(params, dim), dense_rep(params, dim))


@EXAMPLES
@given(LAMS, DIMS, SEEDS)
def test_hierarchy_and_block_pairs(lam, dim, seed):
    params = window_valid_params(np.random.default_rng(seed), lam)
    h = build_hierarchy(params, dim)
    fvals = structure_values(params, dim - 1 + lam)
    hmats = [np.diag(fvals[mu : mu + dim]) for mu in range(lam + 1)]
    for mu in range(lam + 1):
        assert np.array_equal(h.hmats[mu].dense(), hmats[mu])
    reps = [dense_rep(cyclic_shift(params, mu), dim) for mu in range(lam)]
    for rep, ref in zip(h.reps, reps):
        assert_rep_equal(rep, ref)
    zero = np.zeros((dim, dim), dtype=complex)
    eye = np.eye(dim)
    for mu in range(lam):
        top = hmats[mu] - h.e0[mu] * eye
        bottom = hmats[mu + 1] - h.e0[mu] * eye
        pair = block_pair(h, mu)
        H = np.block([[top.astype(complex), zero], [zero, bottom.astype(complex)]])
        assert np.array_equal(pair.H.dense(), H)
        assert np.array_equal(pair.Qdag.dense(), np.block([[zero, reps[mu]["adag"]], [zero, zero]]))
        assert np.array_equal(pair.Q.dense(), np.block([[zero, zero], [reps[mu]["a"], zero]]))


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


def test_band_vectors_are_read_only_longdouble_unless_phased():
    # Real operators keep real bands; only T carries a phase.
    rep = build_rep(new_params(3, [0.5, 0.1]), 12)
    for op in (rep.a, rep.adag, rep.nmat, rep.tmat, *rep.proj):
        for v in op.bands.values():
            assert v.dtype == (np.clongdouble if op is rep.tmat else np.longdouble)
            assert not v.flags.writeable


def test_hamiltonian_energies_read_back_exactly():
    params = new_params(3, [1.0, -0.5])
    energies = build_hierarchy(params, 16).hmats[1].real_diagonal()
    assert energies.dtype == np.float64
    assert np.array_equal(energies, structure_values(params, 16)[1:17])
