"""Golden CLI output: the sha256 of stdout and the exit code of fixed commands.

A change meant to leave the CLI's bytes alone (a refactor or a speed-up) must
keep every digest.  Commands whose output carries relation residuals depend on
the width of np.longdouble, so their digests are checked only where it has a
64-bit mantissa (x86-64), where they were recorded.

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
        "sweep --lambda 3 --grid a0=-0.5:1:0.5,a1=-0.5:1:0.75 --nmax 30",
        0, "02dae2e5c3a94b822c9b7fea214b50af38a5e3b3090aa657677df23c35244be2",
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
        "verify --suite algebra --lambda 4 --alpha 0.3,-0.2,0.4 --format json",
        0, "7e8af86a2132d47ee02c8f087e719f570c6a5eabd819a36c95caea3b16075903",
    ),
    (
        "verify --suite klein --lambda 2 --alpha 0.7 --format json",
        0, "78d0a1e4bcb759cd61be60bf4be666d6d4b268e70cd9ba7f5eab4abd743b49bd",
    ),
    (
        "verify --suite partners --lambda 4 --alpha 0.3,-0.2,0.4 --format json",
        0, "b17d6126e9674b26cee2debaeec86800d85c823d564fb228c80a8a359ade3c52",
    ),
    (
        "verify --suite sqm2 --lambda 3 --alpha 0.5,0.1 --mu 2 --format json",
        0, "a8377d95e4eb7898071a12a1bd71894f0be524fb633f2a262b52ee118b8cec32",
    ),
    (
        "verify --suite pssqm --lambda 5 --alpha 0.3,-0.2,0.4,0.1 --mu 1 --format json",
        0, "75d95c8ced954dd11a2bda004baedbb1f133152410a49046b335b495d3b0f50d",
    ),
    (
        "verify --suite pssqm-cubic --lambda 3 --alpha 0.5,0.1 --format json",
        1, "220e72d8ab72bc46c689d66e81aa8e02f5b1e7cb8843da790223a2f76c1bebee",
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
        0, "211fd56f9f6e7381a1a6c4e2ffaae8662b71ff29d2f3cda8ca95ae97d2c48fdd",
    ),
    (
        "variant --kind pssqm --lambda 4 --alpha 0.3,-0.2,0.4 --mu 2 --dim 40",
        0, "f91787d99b0e2e2521e332fa438e17554de2e7503204ea0d18f2a9e5a33fa890",
    ),
    (
        "variant --kind pssqm-cubic --lambda 3 --alpha 0.5,0.1 --mu 1 --dim 40",
        1, "402b5ec2555f6c787adfb910432569be65bfe39b90f7b5a80d3a3ae7ecd2a87c",
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
        0, "e3620fc0bce7b07b9e1d098e6ca63a5892a9c2a48e9ad7b1b29414217eb5eed8",
    ),
]

# The kernel at the dimensions the benchmark runs, where every band is long.
AT_DIM_480 = [
    (
        "verify --format json --suite algebra --lambda 5 --alpha 0.3,-0.2,0.4,0.1 --dim 480",
        0, "d1acbd517d06860f1d94abf9c7ec07850edebde9c713ab9336b2dc9f4150cb20",
    ),
    (
        "verify --format json --suite partners --lambda 5 --alpha 0.3,-0.2,0.4,0.1 --dim 480",
        0, "551c0997d313d90a46248da38c374f11bdc6ed2a1f495405d07ea9a510505784",
    ),
    (
        "verify --format json --suite sqm2 --lambda 5 --alpha 0.3,-0.2,0.4,0.1 --mu 3 --dim 480",
        0, "9c1f52f8897f5eca625f120b5035b3d13c26f565fcdf4780aa81729232e89bcb",
    ),
    (
        "verify --format json --suite klein --lambda 2 --alpha 0.7 --dim 480",
        0, "9d3234cf55c8d2f4691ed2b4e90fd4c4351314941ce1f84dc8a208f2324a40e6",
    ),
    (
        # Exit 1: the order-4 multilinear entry is above its gate at this dim.
        "verify --format json --suite pssqm --lambda 5 --alpha 0.3,-0.2,0.4,0.1 --mu 1 --dim 480",
        1, "67f99c23ff3ea19599ba0df30297aa845efd1c001766e71249a40ae8012bd5ef",
    ),
    (
        "verify --format json --suite pssqm-cubic --lambda 3 --alpha 0.5,0.1 --dim 480",
        1, "3a829556d4f6ad0ea29eac9dc9044b829366b3fb9d99e64e38e98992e4c6bc03",
    ),
    (
        "verify --format json --suite pseudo1 --lambda 3 --alpha 0.5,0.1 --c 0.7 --eta 0.4 --phi 1.1 --dim 480",
        0, "ffe027505dc0549f52a8fc4595c70229747e64dfff73836c2b3e6a7299c0a3ab",
    ),
    (
        "verify --format json --suite pseudo2 --lambda 3 --alpha 0.5,0.1 --mu 1 --c -0.6 --dim 480",
        0, "6053526f506aef4ed6eeff92c05335905c2b7aadade7f42952b3bb1a39d7dabf",
    ),
    (
        "verify --format json --suite ossqm --lambda 3 --alpha 0.5,-1 --xi 0.8 --phi 2.0 --dim 480",
        0, "4be78deb9fad36bb5d0e3dc424bd7b49fa9721e7ec60cb8884d7303260a7c01d",
    ),
]

# Every sector of the 2x2 block supercharge, at a dim where the bands are long.
SQM2_SECTORS = [
    (
        "verify --format json --suite sqm2 --lambda 4 --alpha 0.3,-0.2,0.4 --mu 0 --dim 240",
        0, "18f8f83ba9e8cab5ca1f0982c5f28d0b8c137470d1e530ac49ceb935ae770067",
    ),
    (
        "verify --format json --suite sqm2 --lambda 4 --alpha 0.3,-0.2,0.4 --mu 1 --dim 240",
        0, "6b493da3199c6dd41c7d0d16317bbf8b471da9672636f452513ee0f21012e3bd",
    ),
    (
        "verify --format json --suite sqm2 --lambda 4 --alpha 0.3,-0.2,0.4 --mu 2 --dim 240",
        0, "93e1e989438bb783d390c9304de99e24b1e0dc92f5d482df07a43cb2c425b0ee",
    ),
    (
        "verify --format json --suite sqm2 --lambda 4 --alpha 0.3,-0.2,0.4 --mu 3 --dim 240",
        0, "7c833fc48d3804f1527022cde478f70a62a6908c7db2921adc1047ad77ccbe42",
    ),
    (
        "verify --format json --suite sqm2 --lambda 2 --alpha 0.7 --mu 0",
        0, "c05ebdf889bc21468454c6a94fae8f399920433b1d614d067137f4081de1a32b",
    ),
    (
        "verify --format json --suite sqm2 --lambda 2 --alpha 0.7 --mu 1",
        0, "c05ebdf889bc21468454c6a94fae8f399920433b1d614d067137f4081de1a32b",
    ),
]

# The smallest dims, where a band's edges are most of the band.
SMALLEST_DIMS = [
    (
        "verify --format json --suite algebra --lambda 5 --alpha 0.3,-0.2,0.1,0.25 --dim 10",
        0, "40e998b555a742ab4288da2b0907ee93da77eb7380386a3ae5bc19d6df776680",
    ),
    (
        "verify --format json --suite klein --lambda 2 --alpha 0.5 --dim 4",
        0, "507eef863df1fa81a6c565b3195bf47339541f6967ebed484cc06d8c46e92e8f",
    ),
    (
        "verify --format json --suite sqm2 --lambda 2 --alpha 0.5 --mu 1 --dim 4",
        0, "46b3b109183f96cc43578a4138265b5a954ef8968269308423b95127e4cfefd4",
    ),
    (
        "verify --format json --suite partners --lambda 3 --alpha 0.5,0.25 --dim 6",
        0, "0591f195934ae36e514966e7e9080de174a19af8247a24052cb5a9f898d9f79c",
    ),
    (
        # Recorded once the spacing claim read 0.0 over a block with one level.
        "verify --format json --suite partners --lambda 2 --alpha 0.5 --dim 4",
        0, "92953054530a7ba4e9aa2f59dca8fb2fa3f10c4f00a98206636076c064e6e26a",
    ),
    (
        # Exit 1: Q^4 != 0 fails, as the kept block is too small to hold a nonzero entry.
        "verify --format json --suite pssqm --lambda 5 --alpha 0.3,-0.2,0.1,0.25 --dim 11",
        1, "d76dce69688e764ae70de197890cbabf4590ca593d58703812926cd0fb0c0d5f",
    ),
    (
        "verify --format json --suite pseudo1 --lambda 3 --alpha 0.25,0 --dim 6 --phi 1.0",
        0, "d646f431017a0ec958eb49d42b589e056b3f490d4e8d58c201b14e4a56a16581",
    ),
    (
        "verify --format json --suite ossqm --lambda 3 --alpha 0.5,-1 --dim 7",
        0, "4dcaad5297b849e8c4eb99aabe946a899306674cb9dc07041f9b1f17780e54ac",
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


@pytest.mark.skipif(not EXTENDED_64, reason="residual digests recorded with a 64-bit np.longdouble mantissa")
@pytest.mark.parametrize("command, rc, digest", RESIDUAL, ids=[c for c, _, _ in RESIDUAL])
def test_residual_output_bytes(command, rc, digest):
    _check(command, rc, digest)


if __name__ == "__main__":
    for command, _, _ in PLAIN + RESIDUAL:
        print((command, *_run(command)))
