"""Shared test configuration: deterministic hypothesis profile, and a
fixture that sets how many CPUs the fit workers see."""
import os

import pytest
from hypothesis import HealthCheck, settings

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
