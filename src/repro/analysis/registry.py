"""The checker's knowledge base: allowlists, lock names, taxonomies.

Rules in :mod:`repro.analysis.rules` are generic AST machinery; this
module is where the *repo-specific* facts live — which modules may read
the wall clock, which attributes are metric handles, which
exception types the retry taxonomy classifies, which functions are the
blessed wire-float encoders.  Changing an invariant means changing a
table here (plus its entry in ``docs/ANALYSIS.md``), never editing rule
code.

Paths throughout are repo-relative with forward slashes
(``src/repro/obs/tracing.py``); matching is by suffix so the checker
works from any working directory.
"""

from __future__ import annotations

__all__ = [
    "RULE_IDS",
    "WALLCLOCK_ALLOWED_PREFIXES",
    "WALLCLOCK_CALLS",
    "GLOBAL_RANDOM_FNS",
    "NP_SEEDED_CONSTRUCTORS",
    "LOCK_FACTORIES",
    "BLOCKING_DOTTED",
    "BLOCKING_DOTTED_PREFIXES",
    "BLOCKING_ATTRS",
    "LOCK_ORDER",
    "METRIC_FACTORY_ATTRS",
    "CLIENT_PATH_MODULES",
    "CLASSIFIED_ERRORS",
    "WIRE_MODULES",
    "module_matches",
]

#: Every shipped rule id (the suppression parser validates against this;
#: ``yoso lint --rule`` selects from it).
RULE_IDS = (
    "determinism-rng",
    "determinism-wallclock",
    "metric-handles",
    "lock-discipline",
    "error-taxonomy",
    "wire-float",
    "suppression",
    "parse-error",
)


def module_matches(display_path: str, prefixes: tuple[str, ...]) -> bool:
    """Whether a repo-relative path falls under any registered prefix.

    ``display_path`` uses forward slashes; a prefix ending in ``/``
    matches a directory subtree, otherwise the exact file (by suffix, so
    absolute paths and ``./``-relative invocations behave identically).
    """
    path = display_path.replace("\\", "/")
    for prefix in prefixes:
        if prefix.endswith("/"):
            if path.startswith(prefix) or f"/{prefix}" in f"/{path}":
                return True
        elif path == prefix or path.endswith("/" + prefix):
            return True
    return False


# ---------------------------------------------------------------------------
# determinism-wallclock
# ---------------------------------------------------------------------------

#: Modules allowed to read the wall clock: observability (span
#: timestamps are *about* real time), the benchmarks (they time real
#: work), and the resilience layer (backoff sleeps and monotonic
#: budgets are timing, not results).  Everything else must not let real
#: time near a computed value — the repo's bit-parity claims depend on
#: it.
WALLCLOCK_ALLOWED_PREFIXES: tuple[str, ...] = (
    "src/repro/obs/",
    "src/repro/resilience/",
    "benchmarks/",
)

#: Canonical dotted names whose *call* reads the wall clock (aliases are
#: resolved first: ``from time import time`` / ``import datetime as dt``
#: both normalise onto these).  ``time.perf_counter`` / ``time.monotonic``
#: are deliberately absent — durations are timing telemetry, not results.
WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "uuid.uuid1",  # embeds host clock + MAC — never reproducible
    }
)


# ---------------------------------------------------------------------------
# determinism-rng
# ---------------------------------------------------------------------------

#: Functions on the *global* ``random`` module state.  The global RNG is
#: process-wide mutable state seeded from the OS: any use breaks replay
#: and cross-process bit-parity.  ``random.Random(seed)`` with an
#: explicit seed is the sanctioned stdlib form.
GLOBAL_RANDOM_FNS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "seed",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "vonmisesvariate",
        "paretovariate",
        "weibullvariate",
        "betavariate",
        "gammavariate",
        "triangular",
        "getrandbits",
        "randbytes",
    }
)

#: ``numpy.random`` attributes that are seeded constructors/types rather
#: than draws from the legacy global state; everything else under
#: ``numpy.random.*`` is flagged.
NP_SEEDED_CONSTRUCTORS = frozenset(
    {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)


# ---------------------------------------------------------------------------
# lock-discipline
# ---------------------------------------------------------------------------

#: Constructors whose result is a mutual-exclusion lock when assigned to
#: ``self.<attr>`` — the attributes the rule then tracks through
#: ``with self.<attr>:`` blocks.  (``threading.Event`` is a flag, not a
#: lock, and ``Condition.wait`` releasing its own lock is the one
#: blocking-while-holding pattern that is *correct*, so conditions are
#: tracked as locks but their ``wait`` is not a blocking call.)
LOCK_FACTORIES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
    }
)

#: Calls that can block for unbounded or scheduling-dependent time.
#: Inside a ``with self.<lock>:`` body they serialise every other holder
#: behind a sleep/join/syscall — the shape behind the PR 5 lifecycle
#: deadlocks.  Exact canonical dotted names:
BLOCKING_DOTTED = frozenset(
    {
        "time.sleep",
        "os.fsync",
        "os.wait",
        "os.waitpid",
        "socket.create_connection",
        "select.select",
    }
)

#: Canonical dotted *prefixes* treated as blocking (anything in the
#: module).
BLOCKING_DOTTED_PREFIXES: tuple[str, ...] = ("subprocess.",)

#: Attribute calls treated as blocking regardless of receiver:
#: ``x.result()`` (future harvest), ``x.recv()`` / ``x.accept()``
#: (socket reads), ``x.sleep_before_retry()`` (a backoff sleep),
#: ``x.retry.run(...)`` (drives backoff sleeps — special-cased in the
#: rule), and zero-argument ``x.join()`` (thread/process join; string
#: ``sep.join(parts)`` always has an argument).
BLOCKING_ATTRS = frozenset({"result", "recv", "recv_into", "accept", "sleep_before_retry"})

#: Canonical acquisition order for known lock pairs, per class: the
#: first-named lock must be taken outside the second, so a path nesting
#: them the other way (a lock-inversion deadlock waiting for traffic) is
#: a finding.  No class in the tree nests two locks today.
LOCK_ORDER: tuple[tuple[str, str, str], ...] = ()


# ---------------------------------------------------------------------------
# metric-handles
# ---------------------------------------------------------------------------

#: Registry factory methods: ``<anything>.counter(...)`` / ``.gauge`` /
#: ``.histogram`` assigned to ``self.<attr>`` is an instance-level
#: metric handle — forbidden everywhere (metric objects hold locks and
#: do not pickle).
METRIC_FACTORY_ATTRS = frozenset({"counter", "gauge", "histogram"})


# ---------------------------------------------------------------------------
# error-taxonomy
# ---------------------------------------------------------------------------

#: Modules whose raises surface on the client side of the service
#: boundary (directly, or via the retry driver).  Every exception type
#: raised here must be classified below so ``RetryPolicy`` never meets
#: an unclassified error.
CLIENT_PATH_MODULES: tuple[str, ...] = (
    "src/repro/service/client.py",
    "src/repro/service/protocol.py",
    "src/repro/resilience/policy.py",
    "src/repro/resilience/faults.py",
)

#: The taxonomy: exception type name -> "retryable" | "terminal".
#: Mirrors ``RetryPolicy.DEFAULT_RETRYABLE`` / ``DEFAULT_TERMINAL`` and
#: the client's ``DEFAULT_RETRY`` tables (tests/test_analysis.py
#: cross-checks this mapping against the live policy objects, so the
#: two can never drift apart silently).
CLASSIFIED_ERRORS: dict[str, str] = {
    # transient transport failures — retry may help
    "ConnectionError": "retryable",
    "ConnectionResetError": "retryable",
    "BrokenPipeError": "retryable",
    "TimeoutError": "retryable",
    "OSError": "retryable",
    "InterruptedError": "retryable",
    "ProtocolError": "retryable",  # client tears the socket down first
    "InjectedFault": "retryable",  # models a torn connection
    # the backend spoke, or the budget is gone — retry cannot help
    "ServiceError": "terminal",
    "DeadlineExceeded": "terminal",
    "ValueError": "terminal",  # caller bug: bad endpoint/arguments
}


# ---------------------------------------------------------------------------
# wire-float
# ---------------------------------------------------------------------------

#: Modules that serialise floats for the wire or the durable log, and
#: the ONLY functions inside them allowed to call ``json.dump(s)``.
#: Both blessed encoders emit compact separators and rely on ``json``'s
#: ``repr`` float form (shortest round-tripping), which is what makes
#: retries byte-identical and store hits ``==`` the original
#: computation.  A new ``json.dumps`` elsewhere in these files — or a
#: precision-truncating format — is a parity bug by construction.
WIRE_MODULES: dict[str, frozenset] = {
    "src/repro/service/protocol.py": frozenset({"encode_message"}),
    "src/repro/store/result_store.py": frozenset({"_encode_record"}),
}
