"""Band-wise relation checks against a dense complex128 reference.

Every check evaluates its identities band by band, so operators with every
diagonal filled must give the residuals of the dense masked products.  Full
random complex matrices are wrapped with BandOp.of and injected into the
representation, hierarchy or solution (the projectors as the sectors of one
stacked operator, and a random F on the representation), and each entry is
compared with the dense evaluation.  sqm2_check reads only the real diagonal of each partner
Hamiltonian, so its dense 2 dim x 2 dim reference is built from those
diagonals and the injected ladder.
"""

import dataclasses

import numpy as np
import pytest

from cycosc import (
    BandOp,
    build_hierarchy,
    build_rep,
    check_relations,
    klein_reduction_check,
    new_params,
    ossqm_build,
    ossqm_check,
    partner_check,
    pseudo_check,
    pseudo_family2_build,
    sqm2_check,
)

DIM = 16


def random_matrix(rng, dim=DIM):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def block_max(m, headroom):
    b = slice(0, m.shape[0] - headroom)
    return float(np.abs(m[b, b]).max())


def assert_matches_dense(report, dense, measure=None):
    """Each entry equals the largest dense residual of its name."""
    measure = measure or (lambda m: block_max(m, report.headroom))
    assert [e.name for e in report.entries] == list(dense)
    for e in report.entries:
        ref = dense[e.name]
        if not isinstance(ref, float):
            ref = max(measure(m) for m in ref)
        assert e.residual == pytest.approx(ref, rel=1e-12), e.name


@pytest.mark.parametrize("lam", [2, 3, 4])
def test_check_relations(lam):
    rng = np.random.default_rng(lam)
    params = new_params(lam, [0.3] * (lam - 2) + [0.1])
    a, ad, n, t = (random_matrix(rng) for _ in range(4))
    P = [random_matrix(rng) for _ in range(lam)]
    # F(0..DIM) is read from the representation, not derived again: a random F
    # large enough that its diagonal sets the residuals that read it.
    f = 100.0 * rng.normal(size=DIM + 1)
    rep = dataclasses.replace(
        build_rep(params, DIM),
        a=BandOp.of(a),
        adag=BandOp.of(ad),
        fvals=f,
        nmat=BandOp.of(n),
        tmat=BandOp.of(t),
        proj=BandOp.stack([BandOp.of(p) for p in P]),
    )
    eye = np.eye(DIM)
    w = np.exp(-2j * np.pi / lam)
    dense = {
        "[N, adag] = adag": [n @ ad - ad @ n - ad],
        "[N, P_mu] = 0": [n @ p - p @ n for p in P],
        "sum_mu P_mu = I": [sum(P) - eye],
        "[a, adag] = I + sum alpha_mu P_mu": [
            a @ ad - ad @ a - eye - sum(params.alpha[mu] * P[mu] for mu in range(lam))
        ],
        "adag P_mu = P_{mu+1} adag": [
            ad @ P[mu] - P[(mu + 1) % lam] @ ad for mu in range(lam)
        ],
        "P_mu P_nu = delta_{mu,nu} P_mu": [
            P[mu] @ P[nu] - (P[mu] if mu == nu else 0.0)
            for mu in range(lam)
            for nu in range(lam)
        ],
        "adag a = F(N)": [ad @ a - np.diag(f[:DIM])],
        "a adag = F(N+1)": [a @ ad - np.diag(f[1:])],
        "T^lam = I": [np.linalg.matrix_power(t, lam) - eye],
        "adag T = exp(-2i pi/lam) T adag": [ad @ t - w * (t @ ad)],
        "a T = exp(2i pi/lam) T a": [a @ t - np.conj(w) * (t @ a)],
    }
    assert_matches_dense(check_relations(rep), dense)


def test_klein_reduction_check():
    rng = np.random.default_rng(11)
    params = new_params(2, [0.5])
    a, ad, t = (random_matrix(rng) for _ in range(3))
    rep = dataclasses.replace(
        build_rep(params, DIM), a=BandOp.of(a), adag=BandOp.of(ad), tmat=BandOp.of(t)
    )
    klein = np.diag((-1.0) ** np.arange(DIM))
    dense = {
        # The grading identity is checked on the whole matrix.
        "T = (-1)^N": float(np.abs(t - klein).max()),
        "[a, adag] = I + kappa (-1)^N": [a @ ad - ad @ a - np.eye(DIM) - 0.5 * klein],
    }
    assert_matches_dense(klein_reduction_check(rep), dense)


def random_hierarchy(rng, lam):
    """A hierarchy with random full matrices injected, and those matrices."""
    h = build_hierarchy(new_params(lam, [0.4] * (lam - 1)), DIM)
    ladders = [(random_matrix(rng), random_matrix(rng)) for _ in range(lam)]
    hmats = [random_matrix(rng) for _ in range(lam + 1)]
    h = dataclasses.replace(
        h,
        a=BandOp.stack([BandOp.of(a) for a, _ in ladders]),
        adag=BandOp.stack([BandOp.of(ad) for _, ad in ladders]),
        hmats=BandOp.stack([BandOp.of(m) for m in hmats]),
    )
    return h, ladders, hmats


@pytest.mark.parametrize("lam", [2, 3])
def test_partner_check(lam):
    rng = np.random.default_rng(20 + lam)
    h, ladders, hmats = random_hierarchy(rng, lam)
    hr = 3
    eye = np.eye(DIM)
    a = [m for m, _ in ladders]
    ad = [m for _, m in ladders]
    dense = {"H^(0) = Adag_0 A_0": [hmats[0] - ad[0] @ a[0]]}
    for mu in range(1, lam + 1):
        dense[f"H^({mu}) = A_{mu - 1} Adag_{mu - 1} + E0^({mu - 1})"] = [
            hmats[mu] - a[mu - 1] @ ad[mu - 1] - h.e0[mu - 1] * eye
        ]
        dense[f"H^({mu}) = Adag_{mu} A_{mu} + E0^({mu})"] = [
            hmats[mu] - ad[mu % lam] @ a[mu % lam] - h.e0[mu] * eye
        ]
    # Energies are the real parts of the diagonal.
    dense["H^(mu) spacings realize omega cyclically"] = max(
        float(
            np.abs(
                np.diff(np.diag(hmats[mu]).real[: DIM - hr])
                - np.array(h.omega)[(np.arange(DIM - hr - 1) + mu) % lam]
            ).max()
        )
        for mu in range(lam + 1)
    )
    assert_matches_dense(partner_check(h), dense)


@pytest.mark.parametrize("mu", [0, 1])
def test_sqm2_check(mu):
    rng = np.random.default_rng(30 + mu)
    h, ladders, hmats = random_hierarchy(rng, 2)
    a, ad = ladders[mu]
    top, bottom = (np.diag(np.diag(hmats[nu]).real - h.e0[mu]) for nu in (mu, mu + 1))
    zero = np.zeros((DIM, DIM))
    H = np.block([[top, zero], [zero, bottom]])
    Q = np.block([[zero, zero], [a, zero]])
    Qd = np.block([[zero, ad], [zero, zero]])
    keep = np.r_[0 : DIM - 3, DIM : 2 * DIM - 3]
    dense = {
        "Q^2 = 0": [Q @ Q],
        "[H, Q] = 0": [H @ Q - Q @ H],
        "{Q, Qdag} = H": [Q @ Qd + Qd @ Q - H],
    }
    assert_matches_dense(
        sqm2_check(h, mu),
        dense,
        measure=lambda m: float(np.abs(m[np.ix_(keep, keep)]).max()),
    )


def test_pseudo_check():
    rng = np.random.default_rng(41)
    c = 0.7
    sol = pseudo_family2_build(new_params(3, [0.5, 0.1]), 1, c, 0.4, dim=DIM)
    Q, H = random_matrix(rng), random_matrix(rng)
    sol = dataclasses.replace(sol, Q=BandOp.of(Q), H=BandOp.of(H))
    Qd = Q.conj().T
    dense = {
        "Q^2 = 0": [Q @ Q],
        "[H, Q] = 0": [H @ Q - Q @ H],
        "Q Qdag Q = 4 c^2 Q H": [Q @ Qd @ Q - 4.0 * c * c * (Q @ H)],
    }
    assert_matches_dense(pseudo_check(sol, c), dense)


def test_ossqm_check():
    rng = np.random.default_rng(43)
    sol = ossqm_build(new_params(3, [0.5, -1.0]), 0, 1.0, 0.3, dim=DIM)
    q = (random_matrix(rng), random_matrix(rng))
    H = random_matrix(rng)
    sol = dataclasses.replace(sol, Q=BandOp.of(q[0]), Q2=BandOp.of(q[1]), H=BandOp.of(H))
    qd = [m.conj().T for m in q]
    qdagq = qd[0] @ q[0] + qd[1] @ q[1]
    dense = {}
    for r in (0, 1):
        for s in (0, 1):
            dense[f"Q{r + 1} Q{s + 1} = 0"] = [q[r] @ q[s]]
    for r in (0, 1):
        dense[f"[H, Q{r + 1}] = 0"] = [H @ q[r] - q[r] @ H]
    dense["Q1 Qdag1 + sum_t Qdag_t Q_t = 2 H"] = [q[0] @ qd[0] + qdagq - 2.0 * H]
    dense["Q1 Qdag2 = 0"] = [q[0] @ qd[1]]
    dense["Q2 Qdag2 + sum_t Qdag_t Q_t = 2 H"] = [q[1] @ qd[1] + qdagq - 2.0 * H]
    dense["corollary: Q1 Qdag1 + Qdag1 Q1 + Qdag2 Q2 = 2 H"] = [
        q[0] @ qd[0] + qd[0] @ q[0] + qd[1] @ q[1] - 2.0 * H
    ]
    assert_matches_dense(ossqm_check(sol), dense)
