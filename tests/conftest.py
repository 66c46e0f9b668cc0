import pytest

from spde_lab import experiments


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
