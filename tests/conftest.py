"""Guards that hold for every test."""

import gc

import pytest


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail a test that leaves CPython's cyclic garbage collector disabled,
    as a pause that leaked out of the code under test would, and enable it
    again for the next test."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")
