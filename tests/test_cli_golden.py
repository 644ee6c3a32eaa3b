"""Golden CLI output: the sha256 of stdout and the exit code of fixed commands.

A change meant to leave the CLI's bytes alone (a refactor or a speed-up) must
keep every digest.  Commands whose output carries relation residuals are
checked only where np.longdouble has a 64-bit mantissa (x86-64), where they
were recorded: the parasupersymmetric residuals and the pseudosupersymmetric
Q Qdag Q = 4 c^2 Q H entry are evaluated in it.

Run as a script, this file prints (argv, exit code, sha256) for every pinned
command, so digests are recorded by running it at the commit whose output
they pin:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from cycosc.cli import main

# (argv, exit code, sha256 of stdout)
PLAIN = [
    (
        "spectrum --lambda 3 --alpha 0.5,0.1 --nmax 12",
        0, "26ee6ba019d51eff8b1e58ff1aee07459f2fd236337eea0cd018128be1e0952d",
    ),
    (
        "spectrum --lambda 3 --alpha 0.5,0.1 --nmax 12 --format json",
        0, "3b8149c0db3bcdb8414ff7cf2c5d69d0104bc6350449870819e21f73867ab41c",
    ),
    (
        # 2-fold from 2.5 on, with no uniform spacing.
        "spectrum --lambda 3 --alpha 2,-2 --nmax 12",
        0, "4ebe56965f18212bf0e20009ddab76124611e40a4fe4ca92d9e9fa7454dfe0f7",
    ),
    (
        "spectrum --lambda 3 --alpha 2,-2 --nmax 12 --format json",
        0, "2ab841236bbc8a150f47e8616ffad070d5ed1d86e647e1be44148517bd1bc960",
    ),
    (
        "sweep --lambda 3 --grid a0=-0.5:1:0.5,a1=-0.5:1:0.75 --nmax 30",
        0, "02dae2e5c3a94b822c9b7fea214b50af38a5e3b3090aa657677df23c35244be2",
    ),
    (
        # Invalid, nondegenerate, 2-fold and unresolved (true,,) rows.
        "sweep --lambda 3 --grid a0=-30:60:30,a1=-0.9:4:4.9 --nmax 12",
        0, "4c8a6960edd219af3d296ee47449404fb030ded08a55d217bbc53fc618ed3ee2",
    ),
    (
        "hierarchy --lambda 4 --alpha 0.3,-0.2,0.4 --dim 40 --nmax 9",
        0, "c162081d438f701298661c440695c594dad947a4185ef752457af595c20e5614",
    ),
    (
        "hierarchy --lambda 4 --alpha 0.3,-0.2,0.4 --dim 40 --nmax 9 --format json",
        0, "b4ec560f6993c7fbd7283341472e12cddc2ccb91308b5b415e96ec5b9a3296da",
    ),
    (
        "dump --lambda 3 --alpha 0.5,0.1 --dim 7",
        0, "c51056d20439dff4f6a3fd722f83fd9684e1b060e897b5f4799fbfb16643f120",
    ),
    (
        "dump --lambda 3 --alpha 0.5,0.25 --dim 6",
        0, "5a7a4431c29c2aedb45cc8067bc98f6ebff574a3720eedece0ea05282f6077d8",
    ),
]

WITH_RESIDUALS = [
    (
        # The text report, with six FAIL lines at a tolerance below every nonzero residual.
        "verify --suite algebra --lambda 4 --alpha 0.3,-0.2,0.4 --tol 1e-30",
        1, "b9473753e605320d6bfd6e94ab6054478ab7355372b2260f7a204fdfc85335d7",
    ),
    (
        "verify --suite algebra --lambda 4 --alpha 0.3,-0.2,0.4 --format json",
        0, "a4f4d5af62db3aa2b4303ee118deb1aa516d82463794e76c6065519db8a7d37e",
    ),
    (
        "verify --suite klein --lambda 2 --alpha 0.7 --format json",
        0, "a3e0e7f6b76aa8fc86cfe2d843011c78fa7a55b008c837e2184f34f24de89f14",
    ),
    (
        "verify --suite partners --lambda 4 --alpha 0.3,-0.2,0.4 --format json",
        0, "7be11957c5c20c23d92921dc5c248602bea08169db7189cef88567bd648237e8",
    ),
    (
        "verify --suite sqm2 --lambda 3 --alpha 0.5,0.1 --mu 2 --format json",
        0, "a7e31d0b4e3198c0f419f4e052fd614c6b65e6cdbc9a518af39f1d6bdcff40df",
    ),
    (
        "verify --suite pssqm --lambda 5 --alpha 0.3,-0.2,0.4,0.1 --mu 1 --format json",
        0, "a14e2c061cd02464bbb1df1ceb0d38d4f02c8226d1a2e464747e492ac5d70dde",
    ),
    (
        "verify --suite pssqm-cubic --lambda 3 --alpha 0.5,0.1 --format json",
        1, "6b481345024c1d512506eb39bacfeb40eff15bc6c4b4e77576f88fec1e5b3c51",
    ),
    (
        "verify --suite pseudo1 --lambda 3 --alpha 0.5,0.1 --c 0.7 --eta 0.4 --phi 1.1 --format json",
        0, "60ee14cb71133b5291014fed1fc7fddab38001488bda33ddec47efdcd347e2a1",
    ),
    (
        "verify --suite pseudo2 --lambda 3 --alpha 0.5,0.1 --mu 1 --c -0.6 --format json",
        0, "1f40e7f15379e459229bb6e1abf8d70615eee07497906c59028b5812fc4ca1fe",
    ),
    (
        "verify --suite ossqm --lambda 3 --alpha 0.5,-1 --xi 0.8 --phi 2.0 --format json",
        0, "790223c8d06f7d7d2a34e82686e2b364dde80ef6993c79f5b246ae079aa322c1",
    ),
    (
        "variant --kind pssqm --lambda 4 --alpha 0.3,-0.2,0.4 --mu 2 --dim 40",
        0, "b0bb7366d193e9a20fcb39922dc70f1fb3d7fcbbc3a12339b1b7b3335e2dfa7f",
    ),
    (
        "variant --kind pssqm-cubic --lambda 3 --alpha 0.5,0.1 --mu 1 --dim 40",
        1, "8eef62a857f8bf2efa1f0e7395e0be4a29b6b368c37a937a3c17cc006eaaf0fc",
    ),
    (
        "variant --kind pseudo1 --lambda 3 --alpha 0.5,0.1 --mu 2 --c 1.3 --dim 40",
        0, "28f77461db0533d50c1cfd972946e32db0083c7a162214f37f33848ea3cbb052",
    ),
    (
        "variant --kind pseudo2 --lambda 3 --alpha 0.5,0.1 --r 1.5 --dim 40",
        0, "a4dd3fcb2a189dd4160214764f7c1368c8ce48e9942e2928c3ba656a219da591",
    ),
    (
        "variant --kind ossqm --lambda 3 --alpha 0.4,0.6 --mu 1 --xi 1.2 --phi 0.5 --dim 40",
        0, "2daed219302753a5f14c83d805a01c0042726fb2812ae64b9fea739b994f0d25",
    ),
]

# The kernel at the dimensions the benchmark runs, where every band is long.
AT_DIM_480 = [
    (
        "verify --format json --suite algebra --lambda 5 --alpha 0.3,-0.2,0.4,0.1 --dim 480",
        0, "ad600a5cfc6f7f8467dce97e7d33f82b0541e57fcf04fc21f83c19023b010301",
    ),
    (
        "verify --format json --suite partners --lambda 5 --alpha 0.3,-0.2,0.4,0.1 --dim 480",
        0, "1d532085e79a9ccf87d7c75d64fd6067fdcb43b0745b4c41a0281f2547e0b556",
    ),
    (
        "verify --format json --suite sqm2 --lambda 5 --alpha 0.3,-0.2,0.4,0.1 --mu 3 --dim 480",
        0, "75d6d97d234ea6a09b685593c54b5efef9e62e045ca628e767db347bfaf98547",
    ),
    (
        "verify --format json --suite klein --lambda 2 --alpha 0.7 --dim 480",
        0, "5c9942d9e4e01eab765d5991b804209682e454dd94389959551bb23736f3420d",
    ),
    (
        # Exit 1: the order-4 multilinear entry is above its gate at this dim.
        "verify --format json --suite pssqm --lambda 5 --alpha 0.3,-0.2,0.4,0.1 --mu 1 --dim 480",
        1, "d5727ef0230feb4b358506ab2a603389d967a0ae4f0d0d335cf1e18bbdd4cf5a",
    ),
    (
        "verify --format json --suite pssqm-cubic --lambda 3 --alpha 0.5,0.1 --dim 480",
        1, "92ee5465dff0aee84519b2a996ea128c870a1bcb4e02e04b53c1abc2d614f226",
    ),
    (
        "verify --format json --suite pseudo1 --lambda 3 --alpha 0.5,0.1 --c 0.7 --eta 0.4 --phi 1.1 --dim 480",
        0, "0c2a64934b564861502c9f7582029bfab2a102ae2e79be9214568bdb97a83440",
    ),
    (
        "verify --format json --suite pseudo2 --lambda 3 --alpha 0.5,0.1 --mu 1 --c -0.6 --dim 480",
        0, "6053526f506aef4ed6eeff92c05335905c2b7aadade7f42952b3bb1a39d7dabf",
    ),
    (
        "verify --format json --suite ossqm --lambda 3 --alpha 0.5,-1 --xi 0.8 --phi 2.0 --dim 480",
        0, "110f3e7d4b7a3f5c4764c2e1d19b961357204bb74a450f7cbbebe1ee733a0f01",
    ),
]

# Every sector of the 2x2 block supercharge, at a dim where the bands are long.
SQM2_SECTORS = [
    (
        "verify --format json --suite sqm2 --lambda 4 --alpha 0.3,-0.2,0.4 --mu 0 --dim 240",
        0, "ec2a48fe461438529c35bd52019f3cf4ab58933e2ae1164082b10b68ddfc737b",
    ),
    (
        "verify --format json --suite sqm2 --lambda 4 --alpha 0.3,-0.2,0.4 --mu 1 --dim 240",
        0, "75d6d97d234ea6a09b685593c54b5efef9e62e045ca628e767db347bfaf98547",
    ),
    (
        "verify --format json --suite sqm2 --lambda 4 --alpha 0.3,-0.2,0.4 --mu 2 --dim 240",
        0, "75d6d97d234ea6a09b685593c54b5efef9e62e045ca628e767db347bfaf98547",
    ),
    (
        "verify --format json --suite sqm2 --lambda 4 --alpha 0.3,-0.2,0.4 --mu 3 --dim 240",
        0, "ec2a48fe461438529c35bd52019f3cf4ab58933e2ae1164082b10b68ddfc737b",
    ),
    (
        "verify --format json --suite sqm2 --lambda 2 --alpha 0.7 --mu 0",
        0, "a7e31d0b4e3198c0f419f4e052fd614c6b65e6cdbc9a518af39f1d6bdcff40df",
    ),
    (
        "verify --format json --suite sqm2 --lambda 2 --alpha 0.7 --mu 1",
        0, "a7e31d0b4e3198c0f419f4e052fd614c6b65e6cdbc9a518af39f1d6bdcff40df",
    ),
]

# The smallest dims, where a band's edges are most of the band.
SMALLEST_DIMS = [
    (
        "verify --format json --suite algebra --lambda 5 --alpha 0.3,-0.2,0.1,0.25 --dim 10",
        0, "8324f73b8fe1f47da472fa7703acc0b843ebc07444de5ca9e2e8e6ea838ec550",
    ),
    (
        "verify --format json --suite klein --lambda 2 --alpha 0.5 --dim 4",
        0, "3acbe2adbe10c4d1c14ecca9e97c8190922a414f590069913d8a48b6b37a3c9e",
    ),
    (
        "verify --format json --suite sqm2 --lambda 2 --alpha 0.5 --mu 1 --dim 4",
        0, "9443affb5c091518c76cf9b7765d1d2e704877286fee65e8d31d152ddc0d3ae8",
    ),
    (
        "verify --format json --suite partners --lambda 3 --alpha 0.5,0.25 --dim 6",
        0, "058ef7486ebe6d1dda7ac77d1caa7429044529649c2deb2e2c90aa4c124ba04c",
    ),
    (
        # Recorded once the spacing claim read 0.0 over a block with one level.
        "verify --format json --suite partners --lambda 2 --alpha 0.5 --dim 4",
        0, "bf623ec00401043722ff60d306f70a42fd0df93bb5dec5668d001e35f9852f57",
    ),
    (
        # Exit 0: Q^4 != 0 is read on every row, as truncation leaves Q^4 exact there.
        "verify --format json --suite pssqm --lambda 5 --alpha 0.3,-0.2,0.1,0.25 --dim 11",
        0, "de82e5b352325f75c605694736c16fca37db7be9bc96c0d597d8f96edc025c41",
    ),
    (
        "verify --format json --suite pseudo1 --lambda 3 --alpha 0.25,0 --dim 6 --phi 1.0",
        0, "d646f431017a0ec958eb49d42b589e056b3f490d4e8d58c201b14e4a56a16581",
    ),
    (
        "verify --format json --suite ossqm --lambda 3 --alpha 0.5,-1 --dim 7",
        0, "283cf4d496bb4742bfeccb63eb13d04e893edb3b136d783ca2f34b6a811b02a7",
    ),
    (
        "variant --kind pseudo2 --lambda 3 --alpha 0.25,0 --dim 7 --nmax 6",
        0, "e37a0838c730ee163cd418bebb157a42cb1b1757217a3d555417b864df64aecf",
    ),
]

RESIDUAL = WITH_RESIDUALS + AT_DIM_480 + SQM2_SECTORS + SMALLEST_DIMS
EXTENDED_64 = np.finfo(np.longdouble).nmant == 63


def _run(command):
    """The exit code and the sha256 of stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = main(command.split())
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest()


def _check(command, rc, digest):
    assert _run(command) == (rc, digest)


@pytest.mark.parametrize("command, rc, digest", PLAIN, ids=[c for c, _, _ in PLAIN])
def test_plain_output_bytes(command, rc, digest):
    _check(command, rc, digest)


@pytest.mark.parametrize("command, rc, digest", PLAIN, ids=[c for c, _, _ in PLAIN])
def test_output_file_gets_the_stdout_bytes(command, rc, digest, tmp_path):
    path = tmp_path / "out"
    assert _run(f"{command} --output {path}") == (rc, hashlib.sha256(b"").hexdigest())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.skipif(not EXTENDED_64, reason="residual digests recorded with a 64-bit np.longdouble mantissa")
@pytest.mark.parametrize("command, rc, digest", RESIDUAL, ids=[c for c, _, _ in RESIDUAL])
def test_residual_output_bytes(command, rc, digest):
    _check(command, rc, digest)


if __name__ == "__main__":
    for command, _, _ in PLAIN + RESIDUAL:
        print((command, *_run(command)))
