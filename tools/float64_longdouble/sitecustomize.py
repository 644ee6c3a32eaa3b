"""Alias np.longdouble and np.clongdouble to float64 and complex128 at startup.

With this directory first on PYTHONPATH, every interpreter started from it
runs as on a platform whose extended types are no wider than float64
(aarch64 macOS, Windows), so the test suite shows what fails there:

    PYTHONPATH=tools/float64_longdouble:src python -m pytest -q -rf

Tests that pin x86-64 residual bits skip themselves under the alias.
"""

import numpy as np

np.longdouble, np.clongdouble = np.float64, np.complex128
