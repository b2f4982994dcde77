"""Test-wide guards."""

import warnings

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def numpy_settings_restored():
    """Fail any test that leaves numpy's ufunc buffer size or floating-point error handling changed."""
    before = np.getbufsize(), np.geterr()
    yield
    after = np.getbufsize(), np.geterr()
    assert after == before, f"numpy settings changed by the test: {before} -> {after}"


@pytest.fixture(autouse=True)
def no_runtime_warning():
    """Fail any test that warns a RuntimeWarning in this process which no ``filterwarnings`` mark of it ignores.

    Other warnings pass on to pytest's summary.  An error filter
    (``-W error::RuntimeWarning``) would also reach the pool workers that a
    test forks, and fail them inside a sweep; this guard stays in the test's
    own process.
    """
    with warnings.catch_warnings(record=True) as log:
        yield
    runtime = []
    for w in log:
        if issubclass(w.category, RuntimeWarning):
            runtime.append(f"{w.filename}:{w.lineno}: {w.message}")
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
    assert not runtime, "RuntimeWarning not declared by a filterwarnings mark:\n" + "\n".join(runtime)
