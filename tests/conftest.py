import gc

import pytest


@pytest.fixture(autouse=True)
def collector_stays_on():
    """Fail a test that ends with automatic garbage collection disabled, and
    turn it back on, so that no paused collector leaks into later tests."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left automatic garbage collection disabled")
