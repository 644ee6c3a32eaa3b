"""Bitwise residual corpus: one sha256 per suite and dim over seeded reports.

Every relation suite runs on parameters drawn with conftest's samplers for
seeds 0-11, at dims 60, 240 and 480.  Each entry becomes one tab-separated
line: suite, lam, dim, seed, mu, name, float.hex of the residual, headroom,
passed and nonzero.  A section (one suite at one dim) is pinned by the sha256
of its lines, so a change meant to move no residual bit must keep every
digest, and a change that moves some must re-record exactly the sections it
moved.

Run as a script, this file prints every line, so two commits are compared
with diff, and then the digest of each section:

    PYTHONPATH=src python tests/test_report_corpus.py
"""

import hashlib
import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from conftest import fock_valid_params, window_valid_params  # noqa: E402

from cycosc import (  # noqa: E402
    build_hierarchy,
    build_rep,
    check_relations,
    equal_spacing_r,
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
    pssqm_cubic_check,
    sqm2_check,
)

SEEDS = range(12)
DIMS = (60, 240, 480)
SUITES = ("algebra", "klein", "partners", "sqm2", "pssqm", "pssqm-cubic", "pseudo1", "pseudo2", "ossqm")
EXTENDED_64 = np.finfo(np.longdouble).nmant == 63

# (suite, dim) -> sha256 of the section's lines.
DIGESTS = {
    ("algebra", 60): "9172f8db8b5e0e71b5b5dc622eba742141a58500ea4dad1960abda77968e92d4",
    ("algebra", 240): "ca541859cd5a2a0c439ac689cc0dc450b97dda8a1dae580296d895d01c31ed63",
    ("algebra", 480): "d9965ee44601aa5a62ab99b0282c0291de82955acc18136def9179642f9fbecd",
    ("klein", 60): "4c1a720e5f0c6f07aefe1b2ad254fb77c3e35db016397bc6cf0c107e49ab767f",
    ("klein", 240): "8a83e2a9541f738a9a3d2f416cee07780fa44fb3a804fe64d59e400333977c97",
    ("klein", 480): "1ed6ebd3f01804748d59ca9919c0672a18bf7cd0b8ceb5d7157b7a4dcce48df6",
    ("partners", 60): "a37d422a65a04e2d0e7e3a5d5ec1a7a793f84b794a77944bd80ea477542d32e3",
    ("partners", 240): "873640a1f2f02ef5ccbaee7e0cd77edee3009e2e5ad788220ee284f424c305ed",
    ("partners", 480): "78e3af0ff761a7c3e3758801a2a82969065d5476a4aafe7ffad354df7cde79da",
    ("sqm2", 60): "49419861a97745a15423300f536c8949f37ff4f0b9b05e631145cd7de8264fab",
    ("sqm2", 240): "17a435bb7d56c7c774aea1762a35257e34c1e420a38ab4ffb730ebf0842cbc94",
    ("sqm2", 480): "def7a6f1ece19adf03f646bd1076abcd14b334adc8e93b12ef6a85b83da69714",
    ("pssqm", 60): "0d2b067bed9f39abb1438b3c00cdcaa544215e69b1479a6207f7d1978c6f56a2",
    ("pssqm", 240): "5293919d8a0c095214ac9bca8e4d56dbdc05a0ef6a16e7b3526f515ed5040670",
    ("pssqm", 480): "2c2ea00ad86b57e8302e4097a3a10566862cba512ceb15f5dda4c927c04e2d54",
    ("pssqm-cubic", 60): "0ed1fb3e498a6de7cd97c1e3a92d40e0369f0590450abc476732b410d461d6ee",
    ("pssqm-cubic", 240): "553a13586505043f7f1a584424c6735870a9b8d5dbfebb23572cd4c845140c2b",
    ("pssqm-cubic", 480): "ac4c2520753e414f5f188d861181574838f9e9b22fbbe8766fc38b272689e775",
    ("pseudo1", 60): "537ef2ccf310646d79622893e87739760ec9005d1afcaaaee5814292b5a730f6",
    ("pseudo1", 240): "24c722abbb5c3f5abfd4b02d094b073d97b0500e301d99f6990d734aee5391df",
    ("pseudo1", 480): "a2baf6bccca75d1e7e93d0bd14f24e80937e0c2984ffdc9b067ecc6b06fee0b4",
    ("pseudo2", 60): "4aa90a705f45fa95e003992e379c3a286d4e4d86243f7d4bf3c03fa70c551900",
    ("pseudo2", 240): "0082e6d34cf94149cc4d015486d7cfc13190a50eff54ffcfc2ed1d067baebc5e",
    ("pseudo2", 480): "6ad5c53d9764e83e68ce933a81fd8e8ddf4db27cc62b53cc095563d7a6489890",
    ("ossqm", 60): "491a432b3ca2a1e09769243d49a11ad82105c7833462a7c0b9f6a8cdada12808",
    ("ossqm", 240): "1e1b01244100ac0f460dc8dbe3d0886ee3ffae62b5276a3997ca16119e24f68c",
    ("ossqm", 480): "8eb69d9d8723376c5204d4bbf4ff5633475354de5f0e6d941288cb0bbf56e0e5",
}


def seed_cases(seed):
    """(suite, lam, mu, check at dim) for one seed, every suite's inputs drawn up front."""
    rng = np.random.default_rng(seed)
    cases = []
    for lam in (2, 3, 4, 5):
        params = fock_valid_params(rng, lam)
        window = window_valid_params(rng, lam)
        mu = int(rng.integers(lam))
        cases.append(("algebra", lam, "-", lambda d, p=params: check_relations(build_rep(p, d))))
        if lam == 2:
            cases.append(("klein", lam, "-", lambda d, p=params: klein_reduction_check(build_rep(p, d))))
        cases.append(("partners", lam, "-", lambda d, p=window: partner_check(build_hierarchy(p, d))))
        cases.append(("sqm2", lam, mu, lambda d, p=window, mu=mu: sqm2_check(build_hierarchy(p, d), mu)))
        if lam >= 3:
            cases.append(
                ("pssqm", lam, mu, lambda d, p=params, mu=mu, lam=lam: pssqm_check(pssqm_build(p, mu, d), lam - 1))
            )
        if lam == 3:
            cases.append(("pssqm-cubic", lam, mu, lambda d, p=params, mu=mu: pssqm_cubic_check(pssqm_build(p, mu, d))))
            pmu = int(rng.integers(3))
            c = float(rng.uniform(0.5, 2.0))
            eta = float(rng.uniform(0.1, 1.9)) * c
            phi = float(rng.uniform(0.0, 2.0 * math.pi))
            cases.append(
                ("pseudo1", 3, pmu, lambda d, p=params: pseudo_check(pseudo_family1_build(p, pmu, c, eta, phi, d), c))
            )
            r = equal_spacing_r(params, pmu)
            cases.append(("pseudo2", 3, pmu, lambda d, p=params: pseudo_check(pseudo_family2_build(p, pmu, c, r, d), c)))
            # Orthosupersymmetry needs alpha_{mu+1} = -1 exactly.
            omu = int(rng.integers(2))
            a0 = float(rng.uniform(-0.8, 1.5))
            oparams = new_params(3, [a0, -1.0] if omu == 0 else [a0, 1.0 - a0])
            xi = float(rng.uniform(0.1, math.sqrt(2.0)))
            ophi = float(rng.uniform(0.0, 2.0 * math.pi))
            cases.append(("ossqm", 3, omu, lambda d: ossqm_check(ossqm_build(oparams, omu, xi, ophi, d))))
    return cases


def corpus_lines():
    """(suite, dim) -> the section's lines, every seed in order."""
    sections = {(suite, dim): [] for suite in SUITES for dim in DIMS}
    for seed in SEEDS:
        for suite, lam, mu, check in seed_cases(seed):
            for dim in DIMS:
                report = check(dim)
                for e in report.entries:
                    sections[suite, dim].append(
                        "\t".join(
                            map(str, (suite, lam, dim, seed, mu, e.name, float(e.residual).hex(),
                                      report.headroom, e.passed, e.nonzero))
                        )
                    )
    return sections


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.fixture(scope="module")
def corpus():
    return corpus_lines()


@pytest.mark.skipif(not EXTENDED_64, reason="residual digests recorded with a 64-bit np.longdouble mantissa")
@pytest.mark.parametrize("suite, dim", list(DIGESTS), ids=[f"{s}-dim{d}" for s, d in DIGESTS])
def test_section_digest(corpus, suite, dim):
    assert digest(corpus[suite, dim]) == DIGESTS[suite, dim]


def test_every_section_is_pinned():
    assert set(DIGESTS) == {(suite, dim) for suite in SUITES for dim in DIMS}


if __name__ == "__main__":
    sections = corpus_lines()
    for lines in sections.values():
        print("\n".join(lines))
    for (suite, dim), lines in sections.items():
        print(f'    ("{suite}", {dim}): "{digest(lines)}",')
