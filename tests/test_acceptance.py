"""Acceptance checks: one test per criterion, one printed verdict line each.

Every criterion samples its own fixed-seed parameter sets and checks the
stated tolerance. The verdict line is printed unbuffered so it shows up in
normal pytest runs, then asserted, so a red criterion stays red.
"""

import math
import time

import numpy as np

from cycosc import (
    DomainError,
    analytic_spectrum,
    build_hierarchy,
    build_rep,
    check_relations,
    classify_degeneracy,
    equal_spacing_r,
    ground_state_analysis,
    h0,
    klein_reduction_check,
    new_params,
    ossqm_build,
    ossqm_check,
    partner_check,
    pseudo_check,
    pseudo_family1_build,
    pseudo_family2_build,
    pssqm_build,
    pssqm_check,
    sqm2_check,
)
from conftest import fock_valid_params, window_valid_params

DIM = 60


def conclude(capsys, num, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"criterion {num}: {verdict} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def cluster_sizes(levels, tol=1e-9):
    sizes = [1]
    for gap in np.diff(np.sort(levels)):
        if gap > tol:
            sizes.append(1)
        else:
            sizes[-1] += 1
    return sizes


def cluster_reps(levels, tol=1e-9):
    ordered = np.sort(levels)
    reps = [ordered[0]]
    for e in ordered[1:]:
        if e - reps[-1] > tol:
            reps.append(e)
    return reps


def sample_algebra_sets(seed, count):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        lam = (2, 3, 4, 5)[i % 4]
        out.append(fock_valid_params(rng, lam))
    return out


def test_criterion_01(capsys):
    # 200 random valid parameter sets, lambda in {2,3,4,5}, dim 60: every
    # defining relation within 1e-12, under 30 seconds.
    start = time.monotonic()
    worst = 0.0
    failures = 0
    for params in sample_algebra_sets(101, 200):
        report = check_relations(build_rep(params, DIM), 1e-12)
        worst = max(worst, report.max_residual)
        failures += not report.ok
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 30.0
    conclude(
        capsys, 1, ok,
        f"200 sets, max residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02(capsys):
    # The closed-form spectrum matches diag((1/2){a, adag}) within 1e-12 on
    # the same sampling.
    worst = 0.0
    for params in sample_algebra_sets(101, 200):
        rep = build_rep(params, DIM)
        diag = h0(rep).real_diagonal()[: DIM - 3]
        energies = np.array(
            [l.energy for l in analytic_spectrum(params, DIM - 4)]
        )
        worst = max(worst, float(np.abs(diag - energies).max()))
    conclude(capsys, 2, worst <= 1e-12, f"200 sets, max deviation {worst:.2e}")


def test_criterion_03(capsys):
    # Order 2 reduces to the Calogero-Vasiliev form: [a, adag] = I + kappa K
    # with K = (-1)^N, spectrum n + 1/2 + kappa/2, for 20 kappa values.
    rng = np.random.default_rng(103)
    worst_rel = 0.0
    worst_en = 0.0
    for kappa in rng.uniform(-0.9, 3.0, 20):
        params = new_params(2, [float(kappa)])
        rep = build_rep(params, DIM)
        report = klein_reduction_check(rep, 1e-12)
        worst_rel = max(worst_rel, report.max_residual)
        diag = h0(rep).real_diagonal()[: DIM - 3]
        expected = np.arange(DIM - 3) + 0.5 + kappa / 2.0
        worst_en = max(worst_en, float(np.abs(diag - expected).max()))
    ok = worst_rel <= 1e-12 and worst_en <= 1e-12
    conclude(
        capsys, 3, ok,
        f"20 kappa values, relation {worst_rel:.2e}, spectrum {worst_en:.2e}",
    )


def test_criterion_04(capsys):
    # 50 window-valid sets across lambda in {2,3,4}: both factorizations of
    # every partner Hamiltonian and the 2x2 block relations within 1e-12,
    # with level spacings following the omega cycle.
    rng = np.random.default_rng(104)
    worst = 0.0
    failures = 0
    for i in range(50):
        lam = (2, 3, 4)[i % 3]
        params = window_valid_params(rng, lam)
        h = build_hierarchy(params, DIM)
        report = partner_check(h, 1e-12)
        worst = max(worst, report.max_residual)
        failures += not report.ok
        for mu in range(lam):
            block = sqm2_check(h, mu, 1e-12)
            worst = max(worst, block.max_residual)
            failures += not block.ok
    conclude(
        capsys, 4, failures == 0,
        f"50 sets, partner and block residuals <= {worst:.2e}",
    )


def test_criterion_05(capsys):
    # Parasupersymmetry of order p in {2,3,4}, 50 sets each, every family
    # index: relations within 1e-10, excited levels (p+1)-fold above level
    # p-1, ground degeneracy mu+1, broken phase for mu in {p-1, p}.
    problems = []
    worst = {2: 0.0, 3: 0.0, 4: 0.0}
    for p in (2, 3, 4):
        lam = p + 1
        rng = np.random.default_rng(1050 + p)
        for _ in range(50):
            params = fock_valid_params(rng, lam)
            for mu in range(p + 1):
                sol = pssqm_build(params, mu, DIM)
                report = pssqm_check(sol, p, 1e-10)
                worst[p] = max(worst[p], report.max_residual)
                if not report.ok:
                    problems.append(f"order {p} relations")
                diag = sol.H.real_diagonal()
                sizes = cluster_sizes(diag[: mu + 1 + 3 * (p + 1)])
                if sizes[0] != mu + 1 or sizes[1:] != [p + 1] * 3:
                    problems.append(f"order {p} mu {mu} clustering {sizes}")
                gs = ground_state_analysis(sol)
                if mu >= p - 1 and not gs.energy > 0.0:
                    problems.append(f"order {p} mu {mu} ground {gs.energy}")
    detail = ", ".join(f"order {p} max {worst[p]:.2e}" for p in (2, 3, 4))
    unique = sorted(set(problems))
    conclude(
        capsys, 5, not problems,
        f"{detail}; tol 1e-10" + (f"; failing: {unique}" if unique else ""),
    )


def test_criterion_06(capsys):
    # At eta = sqrt(2)|c|, phi = 0 the family-1 pseudosupersymmetric
    # Hamiltonian is bitwise identical to the order-2 parasupersymmetric one
    # while the charges differ substantially.
    rng = np.random.default_rng(106)
    mismatches = 0
    min_gap = math.inf
    for _ in range(50):
        params = fock_valid_params(rng, 3)
        mu = int(rng.integers(0, 3))
        c = float(rng.uniform(0.3, 2.0))
        para = pssqm_build(params, mu, DIM)
        pseudo = pseudo_family1_build(
            params, mu, c, math.sqrt(2.0) * abs(c), 0.0, DIM
        )
        if not np.array_equal(para.H.dense(), pseudo.H.dense()):
            mismatches += 1
        min_gap = min(min_gap, float(np.abs(para.Q.dense() - pseudo.Q.dense()).max()))
    ok = mismatches == 0 and min_gap > 0.1
    conclude(
        capsys, 6, ok,
        f"50 sets, {mismatches} diagonal mismatches, charge gap >= {min_gap:.2f}",
    )


def test_criterion_07(capsys):
    # Both pseudosupersymmetric families satisfy their relations within
    # 1e-10 for sampled (c, eta, phi, r); the family-2 spectrum is equally
    # spaced exactly at the representative r and not at r +- 0.5.
    rng = np.random.default_rng(107)
    worst = 0.0
    failures = 0
    spacing_faults = 0
    for _ in range(50):
        params = fock_valid_params(rng, 3)
        mu = int(rng.integers(0, 3))
        c = float(rng.uniform(0.3, 2.0))
        eta = float(rng.uniform(0.05, 1.95)) * abs(c)
        phi = float(rng.uniform(0.0, 2.0 * math.pi - 1e-12))
        r = float(rng.normal(0.0, 3.0))
        for sol in (
            pseudo_family1_build(params, mu, c, eta, phi, DIM),
            pseudo_family2_build(params, mu, c, r, DIM),
        ):
            report = pseudo_check(sol, c, 1e-10)
            worst = max(worst, report.max_residual)
            failures += not report.ok
        r_star = equal_spacing_r(params, mu)
        star = pseudo_family2_build(params, mu, c, r_star, DIM)
        gaps = np.diff(cluster_reps(star.H.real_diagonal()[:48]))
        if np.ptp(gaps) > 1e-9:
            spacing_faults += 1
        for off in (-0.5, 0.5):
            bent = pseudo_family2_build(params, mu, c, r_star + off, DIM)
            gaps = np.diff(cluster_reps(bent.H.real_diagonal()[:48]))
            if np.ptp(gaps) <= 0.1:
                spacing_faults += 1
    ok = failures == 0 and spacing_faults == 0
    conclude(
        capsys, 7, ok,
        f"50 sets, max residual {worst:.2e}, {spacing_faults} spacing faults",
    )


def test_criterion_08(capsys):
    # Orthosupersymmetry of order 2: 30 sets per family index with
    # alpha_{mu+1} = -1, all relation instances within 1e-10; mu = 1 has a
    # nondegenerate zero-energy ground state, mu = 0 a threefold positive
    # one, and mu = 2 raises.
    rng = np.random.default_rng(108)
    worst = 0.0
    problems = []
    for mu in (0, 1):
        for _ in range(30):
            a0 = float(rng.uniform(-0.7, 1.4))
            head = [a0, -1.0] if mu == 0 else [a0, 1.0 - a0]
            params = new_params(3, head)
            xi = float(rng.uniform(0.2, math.sqrt(2.0)))
            phi = float(rng.uniform(0.0, 2.0 * math.pi - 1e-12))
            sol = ossqm_build(params, mu, xi, phi, DIM)
            report = ossqm_check(sol, 1e-10)
            worst = max(worst, report.max_residual)
            if not report.ok:
                problems.append(f"mu {mu} relations")
            gs = ground_state_analysis(sol)
            if mu == 1 and not (
                abs(gs.energy) <= 1e-9 and gs.multiplicity == 1 and not gs.broken
            ):
                problems.append(f"mu 1 ground {gs}")
            if mu == 0 and not (
                gs.energy > 0.0 and gs.multiplicity == 3 and gs.broken
            ):
                problems.append(f"mu 0 ground {gs}")
    try:
        ossqm_build(new_params(3, [0.5, -1.0]), 2, 1.0, 0.0, DIM)
        problems.append("mu 2 accepted")
    except DomainError:
        pass
    unique = sorted(set(problems))
    conclude(
        capsys, 8, not problems,
        f"60 sets, max residual {worst:.2e}"
        + (f"; failing: {unique}" if unique else ""),
    )


def test_criterion_09(capsys):
    # Degeneracy classifier: a twofold pattern above a finite threshold, the
    # free-oscillator nondegenerate case, and uniform unit spacing at order 2.
    problems = []
    report = classify_degeneracy(new_params(3, [0.0, 4.0]), 40)
    if report.pattern != "2-fold" or report.threshold_energy != 3.5:
        problems.append(f"deformed case: {report.pattern}, {report.threshold_energy}")
    report = classify_degeneracy(new_params(3, [0.0, 0.0]), 40)
    if report.pattern != "nondegenerate":
        problems.append(f"free case: {report.pattern}")
    rng = np.random.default_rng(109)
    for kappa in rng.uniform(-0.9, 3.0, 5):
        report = classify_degeneracy(new_params(2, [float(kappa)]), 40)
        if report.pattern != "nondegenerate":
            problems.append(f"order-2 pattern: {report.pattern}")
        if report.uniform_spacing is None or abs(report.uniform_spacing - 1.0) > 1e-12:
            problems.append(f"order-2 spacing: {report.uniform_spacing}")
    conclude(
        capsys, 9, not problems,
        "three classifier behaviors" + (f"; failing: {sorted(set(problems))}" if problems else ""),
    )


def test_criterion_10(capsys):
    # Residuals are dominated by rounding, not truncation: doubling the
    # dimension grows every suite's max residual by less than 10x.
    rng = np.random.default_rng(110)
    alg = [fock_valid_params(rng, 3) for _ in range(5)]
    kle = [new_params(2, [float(k)]) for k in rng.uniform(-0.9, 3.0, 5)]
    win = [window_valid_params(rng, 3) for _ in range(5)]
    pss = {p: [fock_valid_params(rng, p + 1) for _ in range(5)] for p in (2, 3, 4)}
    pse = [fock_valid_params(rng, 3) for _ in range(5)]
    oss = [new_params(3, [float(rng.uniform(-0.7, 1.4)), -1.0]) for _ in range(4)]

    def suite_max(dim):
        out = {}
        out["algebra"] = max(
            check_relations(build_rep(p, dim)).max_residual for p in alg
        )
        out["klein"] = max(
            klein_reduction_check(build_rep(p, dim)).max_residual for p in kle
        )
        out["partners"] = max(
            partner_check(build_hierarchy(p, dim)).max_residual for p in win
        )
        out["sqm2"] = max(
            sqm2_check(build_hierarchy(p, dim), mu).max_residual
            for p in win
            for mu in range(3)
        )
        for p, sets in pss.items():
            out[f"pssqm{p}"] = max(
                pssqm_check(pssqm_build(s, mu, dim), p).max_residual
                for s in sets
                for mu in range(p + 1)
            )
        out["pseudo1"] = max(
            pseudo_check(
                pseudo_family1_build(s, 1, 1.3, 1.1, 0.7, dim), 1.3
            ).max_residual
            for s in pse
        )
        out["pseudo2"] = max(
            pseudo_check(
                pseudo_family2_build(s, 2, 0.8, 1.9, dim), 0.8
            ).max_residual
            for s in pse
        )
        out["ossqm"] = max(
            ossqm_check(ossqm_build(s, 0, 1.0, 0.4, dim)).max_residual
            for s in oss
        )
        return out

    at60 = suite_max(60)
    at120 = suite_max(120)
    floor = 1e-16
    ratios = {k: (at120[k] + floor) / (at60[k] + floor) for k in at60}
    worst_suite = max(ratios, key=ratios.get)
    ok = all(r < 10.0 for r in ratios.values())
    conclude(
        capsys, 10, ok,
        f"worst growth {ratios[worst_suite]:.1f}x in {worst_suite} suite",
    )
