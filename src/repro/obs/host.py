"""Host-capability probe for the benchmarks' concurrency floors."""

from __future__ import annotations

import os

__all__ = ["cpu_budget"]


def cpu_budget() -> int:
    """CPUs actually available to this process.

    ``sched_getaffinity`` respects cgroup/taskset limits (what CI
    containers actually grant); ``os.cpu_count`` is the fallback where
    affinity is unsupported.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1
