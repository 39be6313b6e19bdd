import ctypes
import gc
from pathlib import Path

import numpy as np
import pytest


def openblas_core() -> str:
    """The OpenBLAS kernel numpy's bundled library picked at run time (it
    follows the CPU, or OPENBLAS_CORETYPE), or "unknown" where numpy bundles
    no scipy-openblas that names it."""
    for path in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return "unknown"


def pytest_report_header(config):
    # the pinned digests hold for one dot-product rounding, which the kernel sets
    return f"numpy {np.__version__}, OpenBLAS core {openblas_core()}"


@pytest.fixture(autouse=True)
def collector_stays_on():
    """Fail a test that ends with automatic garbage collection disabled, and
    turn it back on, so that no paused collector leaks into later tests."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left automatic garbage collection disabled")
