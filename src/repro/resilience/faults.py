"""Deterministic, process-wide fault injection for the chaos suite.

A :class:`FaultPlan` is a seeded script of failures.  Production code
never imports failure *behaviour* from here — it only marks the
boundaries where real systems fail with named **sites**::

    from ..resilience import faults
    ...
    faults.hit("wire.read")     # may raise / sleep / kill, per the plan

With no plan installed (the default, and the only state production ever
runs in) ``hit()`` is a single list-index check and a ``None``
comparison — the same kill-switch shape as the metrics registry, so the
sites cost nothing on the hot path and change no behaviour, no wire
bytes, no results.

Tests install a plan with :func:`installed`::

    plan = FaultPlan(seed=7).add("wire.read", "error", count=2)
    with faults.installed(plan):
        ...  # the first two wire reads raise InjectedFault

Rules are matched deterministically: hits at a site are numbered from 1,
``after`` skips the first N hits, ``count`` bounds how many inject, and
``probability`` draws from a per-site RNG seeded with ``(seed, site)``
— so a given plan injects at exactly the same hits on every run, every
host.  Actions:

``error``   raise ``rule.error`` (default :class:`InjectedFault`)
``drop``    raise :class:`InjectedFault` marked as a torn connection
``delay``   sleep ``delay_s`` then continue normally
``kill``    ``os._exit(17)`` — the process dies mid-operation (server
            kill scenarios; never at ``pool.worker``, whose shards run
            on threads of the process itself)

Sites must be one of :data:`KNOWN_SITES`; a typo in a test fails fast
instead of silently never firing.
"""

from __future__ import annotations

import contextlib
import os
import random
import threading
import time

from ..obs.registry import get_registry

__all__ = [
    "InjectedFault",
    "FaultPlan",
    "FaultRule",
    "KNOWN_SITES",
    "install",
    "clear",
    "active",
    "hit",
    "installed",
]

_M_INJECTED = get_registry().counter("faults.injected")

#: The named injection sites production code consults.  Adding a site
#: means adding a ``faults.hit(...)`` call at a real boundary AND
#: documenting it in docs/RESILIENCE.md.
KNOWN_SITES = frozenset(
    {
        "wire.read",      # ServiceClient: before reading a response line
        "wire.write",     # ServiceClient: before writing a request line
        "scheduler.tick", # MicroBatchScheduler: before evaluating a batch
        "pool.worker",    # WorkerPool: per shard, on the worker thread
        "store.append",   # ResultStore: inside the guarded byte write
    }
)

_ACTIONS = frozenset({"error", "drop", "delay", "kill"})


class InjectedFault(ConnectionError):
    """The error raised by ``error``/``drop`` fault rules.

    Subclasses :class:`ConnectionError` so default retry classification
    treats injected faults like the transient wire failures they model.
    """


class FaultRule:
    """One scripted failure at one site (see :meth:`FaultPlan.add`)."""

    __slots__ = ("site", "action", "probability", "count", "after",
                 "delay_s", "error", "fired")

    def __init__(
        self,
        site: str,
        action: str,
        probability: float = 1.0,
        count: int | None = None,
        after: int = 0,
        delay_s: float = 0.05,
        error: BaseException | None = None,
    ) -> None:
        if site not in KNOWN_SITES:
            raise ValueError(
                f"unknown fault site {site!r}; known sites: "
                f"{sorted(KNOWN_SITES)}"
            )
        if action not in _ACTIONS:
            raise ValueError(
                f"unknown fault action {action!r}; known actions: "
                f"{sorted(_ACTIONS)}"
            )
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        if count is not None and count < 1:
            raise ValueError("count must be >= 1 (or None for unbounded)")
        if after < 0:
            raise ValueError("after must be >= 0")
        self.site = site
        self.action = action
        self.probability = probability
        self.count = count
        self.after = after
        self.delay_s = delay_s
        self.error = error
        self.fired = 0  # injections so far (bounded by count)


class FaultPlan:
    """A seeded, deterministic script of failures for named sites.

    Thread-safe: hit numbering and rule bookkeeping are guarded by one
    lock, so concurrent client threads see a single consistent schedule.
    ``hits`` / ``injected`` expose per-site accounting for assertions.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._rules: list[FaultRule] = []
        self._lock = threading.Lock()
        self._rng: dict[str, random.Random] = {}
        self.hits: dict[str, int] = {}
        self.injected: dict[str, int] = {}

    def add(self, site: str, action: str, **kwargs) -> "FaultPlan":
        """Append a rule (chainable).  See :class:`FaultRule`."""
        self._rules.append(FaultRule(site, action, **kwargs))
        return self

    def _site_rng(self, site: str) -> random.Random:
        if site not in self._rng:
            # Seeded per (plan seed, site): probability draws are a pure
            # function of the hit sequence, independent of other sites.
            self._rng[site] = random.Random(f"{self.seed}:{site}")
        return self._rng[site]

    def hit(self, site: str) -> None:
        """Consume one hit at ``site`` and execute the first matching rule
        (outside the plan lock, so a ``delay`` never stalls other sites)."""
        if site not in KNOWN_SITES:
            raise ValueError(f"unknown fault site {site!r}")
        with self._lock:
            n = self.hits.get(site, 0) + 1
            self.hits[site] = n
            rule = next(
                (
                    r
                    for r in self._rules
                    if r.site == site
                    and n > r.after
                    and (r.count is None or r.fired < r.count)
                    and (
                        r.probability >= 1.0
                        or self._site_rng(site).random() < r.probability
                    )
                ),
                None,
            )
            if rule is None:
                return
            rule.fired += 1
            self.injected[site] = self.injected.get(site, 0) + 1
        _M_INJECTED.inc()
        if rule.action == "delay":
            time.sleep(rule.delay_s)
            return
        if rule.action == "kill":
            os._exit(17)
        if rule.action == "error" and rule.error is not None:
            raise rule.error
        raise InjectedFault(f"injected {rule.action} at {site} (hit {n})")


# --- process-wide kill switch -------------------------------------------
# One-element list, same shape as the registry's kill switch: the hot
# path reads a single slot; ``None`` (the default) means every site is a
# no-op beyond that read.
_PLAN: list[FaultPlan | None] = [None]


def install(plan: FaultPlan) -> None:
    """Install ``plan`` process-wide (tests only; replaces any previous)."""
    _PLAN[0] = plan


def clear() -> None:
    """Remove any installed plan; sites return to zero-cost no-ops."""
    _PLAN[0] = None


def active() -> FaultPlan | None:
    """The installed plan, or ``None``."""
    return _PLAN[0]


def hit(site: str) -> None:
    """Consult the installed plan at ``site`` (no-op when none)."""
    plan = _PLAN[0]
    if plan is None:
        return
    plan.hit(site)


@contextlib.contextmanager
def installed(plan: FaultPlan):
    """``with faults.installed(plan): ...`` — install, yield, always clear."""
    install(plan)
    try:
        yield plan
    finally:
        clear()
