"""Shared start-up for the benchmark and its child processes.

Importing this module pins the BLAS thread count before numpy is loaded and
locates the checkout.  It imports nothing heavy, so a child process can time
the package import from a clean interpreter.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# One process with at most two BLAS threads: on a 2-core machine the dense
# dim-480 path is about 1.5x faster with 2 threads than with 1.
BLAS_THREADS = min(2, os.cpu_count() or 1)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


class MissingPackage(RuntimeError):
    """The checkout holds no importable cycosc sources under src/."""


def child_env() -> dict:
    """Environment for fresh interpreters that import the package from src/."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def import_package():
    """Import cycosc from this checkout's src/, never from anywhere else."""
    if not (SRC / "cycosc" / "__init__.py").is_file():
        raise MissingPackage(f"no package sources at {SRC / 'cycosc'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import cycosc

    if not Path(cycosc.__file__).resolve().is_relative_to(SRC.resolve()):
        raise MissingPackage(f"cycosc was imported from {cycosc.__file__}, not {SRC}")
    return cycosc
