import pytest
from hypothesis import settings

from spde_lab import experiments

# One hypothesis profile for every property test: the same examples on every
# run (derandomize, no example database), a handful of them, no deadline.
# A test that needs more examples raises max_examples on its own.
settings.register_profile("spde-lab", derandomize=True, database=None, deadline=None,
                          max_examples=6)
settings.load_profile("spde-lab")


@pytest.fixture
def eight_gb_machine(monkeypatch):
    """Pin physical memory at 8 GiB, so the memory guard's verdict does not
    depend on the host, and fail any driver that gets as far as drawing
    increments."""
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**21}
    monkeypatch.setattr(experiments.os, "sysconf", lambda name: pages[name])

    def no_increments(*args):
        raise RuntimeError("the memory guard let an oversized run start")

    monkeypatch.setattr(experiments, "sample_increment_batch", no_increments)


@pytest.fixture
def four_cpu_machine(monkeypatch):
    """Pin the CPUs this process may use at 4, so the worker cap (and the
    memory guard's blocks in flight) does not depend on the host."""
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: set(range(4)),
                        raising=False)
