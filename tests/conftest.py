"""Shared test configuration: deterministic hypothesis profile, a
fixture that sets how many CPUs the fit workers see, and one that starts
BFGS fits from the identity."""
import contextlib
import os

import pytest
from hypothesis import HealthCheck, settings

from ratioloss import dre

settings.register_profile(
    "deterministic",
    derandomize=True,
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


@pytest.fixture
def usable_cpus(monkeypatch):
    """usable_cpus(n): 1 runs every fit job in the caller, more fork that
    many workers, on any machine."""
    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return set_cpus


@pytest.fixture
def identity_start():
    """identity_start(): a context in which every BFGS fit of dre starts
    from the identity, as at alpha 0, whatever its alpha.  It wraps the
    dre.bfgs of its entry, so a spy installed before still sees each
    run."""
    @contextlib.contextmanager
    def start():
        inner = dre.bfgs
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dre, "bfgs", lambda obj, x0, **kwargs: inner(
                obj, x0, **{**kwargs, "curvature": None}))
            yield
    return start
