"""Test-wide guards."""

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def numpy_settings_restored():
    """Fail any test that leaves numpy's ufunc buffer size or floating-point error handling changed."""
    before = np.getbufsize(), np.geterr()
    yield
    after = np.getbufsize(), np.geterr()
    assert after == before, f"numpy settings changed by the test: {before} -> {after}"
