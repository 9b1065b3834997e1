"""Candidate evaluation: the fast surrogate path and the accurate path.

Step 1 of YOSO builds the :class:`FastEvaluator` — HyperNet-inherited
weights for accuracy (one test run instead of full training) plus the two
Gaussian-process predictors for latency and energy (instead of simulation).
Step 3 rescoring uses the :class:`AccurateEvaluator` — stand-alone training
— on the top-N candidates only, next to one batched simulator call.

:class:`FastEvaluator` caches nothing: its scalar ``evaluate`` is the
specification.  :class:`BatchEvaluator` wraps it with the batched scoring
path the searches use: B candidates per call, one batched GP prediction
per metric instead of B scalar ones, per-genotype reuse of the accuracy
measurement and feature prefix, a shared encoding-keyed LRU cache, and
optional sharding of cold genotypes across threads.  A short cache lock
guards the LRUs and counters, never the compute, so its atomic warm read
(:meth:`BatchEvaluator.read_warm`) is served even while a cold batch
runs.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..nas.encoding import (
    DNN_TOKENS,
    SEQUENCE_LENGTH,
    CoDesignPoint,
    decode_config,
    encode_genotype,
)
from ..nas.genotype import Genotype
from ..nas.hypernet import HyperNet
from ..nas.network import CellNetwork
from ..nas.train import train_network
from ..nn.data import SyntheticCifar
from ..obs.registry import get_registry
from ..obs.tracing import current_context, get_tracer
from ..predict.dataset import PerfDataset
from ..predict.features import config_features, feature_vector, genotype_features
from ..predict.gp import GaussianProcessRegressor

__all__ = [
    "Evaluation",
    "FastEvaluator",
    "BatchEvaluator",
    "AccurateEvaluator",
]

# Module-level registry handles (the metric-handles lint rule keeps them
# off instances).
_REGISTRY = get_registry()
_M_EVAL_CALLS = _REGISTRY.counter("evaluator.calls")
_M_EVAL_LOOKUPS = _REGISTRY.counter("evaluator.lookups")
_M_EVAL_HITS = _REGISTRY.counter("evaluator.hits")
_M_EVAL_MISSES = _REGISTRY.counter("evaluator.misses")
_M_EVAL_STORE_HITS = _REGISTRY.counter("evaluator.store_hits")
_M_EVAL_CALL_S = _REGISTRY.histogram("evaluator.call_s")
_M_TRAIN_RUNS = _REGISTRY.counter("training.runs")
_M_TRAIN_RUN_S = _REGISTRY.histogram("training.run_s")


def _rate(hits: int, misses: int) -> float:
    """``hits`` over all lookups (0 before any lookup)."""
    total = hits + misses
    return hits / total if total else 0.0


@dataclass(frozen=True)
class Evaluation:
    """Measured (or predicted) metrics of one co-design point."""

    accuracy: float
    latency_ms: float
    energy_mj: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy {self.accuracy} out of [0, 1]")


class FastEvaluator:
    """HyperNet accuracy + GP latency/energy (Step 1 artefacts, used in Step 2)."""

    def __init__(
        self,
        hypernet: HyperNet,
        val_images: np.ndarray,
        val_labels: np.ndarray,
        latency_gp: GaussianProcessRegressor,
        energy_gp: GaussianProcessRegressor,
        num_cells: int = 6,
        stem_channels: int = 16,
        image_size: int = 32,
        num_classes: int = 10,
        eval_batch: int = 64,
    ) -> None:
        self.hypernet = hypernet
        self.val_images = val_images
        self.val_labels = val_labels
        self.latency_gp = latency_gp
        self.energy_gp = energy_gp
        self.num_cells = num_cells
        self.stem_channels = stem_channels
        self.image_size = image_size
        self.num_classes = num_classes
        self.eval_batch = eval_batch

    # ------------------------------------------------------------------
    @classmethod
    def from_samples(
        cls,
        hypernet: HyperNet,
        dataset: SyntheticCifar,
        samples: PerfDataset,
        seed: int = 0,
        **kwargs,
    ) -> "FastEvaluator":
        """Fit the two GPs on collected simulator samples and assemble."""
        latency_gp = GaussianProcessRegressor(seed=seed)
        latency_gp.fit(samples.x, samples.latency_ms)
        energy_gp = GaussianProcessRegressor(seed=seed + 1)
        energy_gp.fit(samples.x, samples.energy_mj)
        return cls(
            hypernet,
            dataset.val.images,
            dataset.val.labels,
            latency_gp,
            energy_gp,
            **kwargs,
        )

    def genotype_inputs(
        self, genotypes: Sequence[Genotype]
    ) -> list[tuple[float, np.ndarray]]:
        """``(accuracy, feature prefix)`` of each genotype, in input order.

        The batched half of :meth:`evaluate`: every accuracy comes from ONE
        :meth:`~repro.nas.hypernet.HyperNet.evaluate_many` call (grouped
        cell forwards over the stacked population, each value ``==`` the
        scalar :meth:`~repro.nas.hypernet.HyperNet.evaluate`), every prefix
        from :func:`~repro.predict.features.genotype_features`.  Pure:
        nothing is cached, so threads may run it on disjoint shards.
        """
        accuracies = self.hypernet.evaluate_many(
            list(genotypes),
            self.val_images,
            self.val_labels,
            batch_size=self.eval_batch,
        )
        return [
            (
                accuracy,
                genotype_features(
                    genotype,
                    num_cells=self.num_cells,
                    stem_channels=self.stem_channels,
                    image_size=self.image_size,
                    num_classes=self.num_classes,
                ),
            )
            for genotype, accuracy in zip(genotypes, accuracies)
        ]

    def evaluate(self, point: CoDesignPoint) -> Evaluation:
        """Predict accuracy/latency/energy of one candidate: the scalar
        specification every batched path is ``==`` to (uncached)."""
        accuracy = self.hypernet.evaluate(
            point.genotype,
            self.val_images,
            self.val_labels,
            batch_size=self.eval_batch,
        )
        features = feature_vector(
            point,
            num_cells=self.num_cells,
            stem_channels=self.stem_channels,
            image_size=self.image_size,
            num_classes=self.num_classes,
        )[None, :]
        latency = float(self.latency_gp.predict(features)[0])
        energy = float(self.energy_gp.predict(features)[0])
        return Evaluation(
            accuracy=accuracy,
            latency_ms=max(latency, 1e-6),
            energy_mj=max(energy, 1e-6),
        )


class BatchEvaluator:
    """Batched candidate scoring over two LRU caches.

    Wraps a :class:`FastEvaluator` and scores B candidates per call:

    * results are cached under the candidate's 44-token action-sequence
      encoding in an LRU of ``cache_size`` entries;
    * each genotype's accuracy and feature prefix are cached together in a
      second LRU, so a converged architecture re-paired with new hardware
      tokens only pays for the cheap hardware feature suffix;
    * every genotype missing from that LRU in a call is resolved by ONE
      :meth:`FastEvaluator.genotype_inputs` call — a cold population of N
      fresh architectures costs one grouped HyperNet forward, not N scalar
      test runs.  With ``workers > 1`` and at least two cold genotypes,
      they are sharded across the threads of an
      :class:`~repro.parallel.pool.EvaluatorPool` (started on first use,
      shut down by :meth:`close`); ``workers <= 1`` never starts one;
    * latency and energy come from ONE batched GP prediction per metric
      over the merged feature matrix, in the calling thread.

    One short cache lock guards both LRUs and the ``hits``/``misses`` and
    store counters; no HyperNet forward, store read or GP prediction of a
    cold batch runs under it.  :meth:`evaluate_many` classifies its keys
    under the lock, computes the misses without it and inserts them under
    it again; :meth:`read_warm` serves a request wholly from the caches
    in one critical section.  Any thread may read while a batch computes;
    results are a function of the point alone, so no interleaving changes
    a value.

    Optionally a durable :class:`repro.store.ResultStore` sits *behind*
    the LRU as a tier-2 cache (:meth:`attach_store`): misses consult the
    store before computing, and fresh results are appended to it.  Store
    hits return the repr-round-tripped floats bit-exactly (``==`` the
    values originally computed), and cold values computed alongside store
    hits are ``==`` the same points scored alone.  With no store
    attached, behaviour — including the
    ``hits``/``misses`` counters, which remain LRU-tier-only — is
    byte-identical to a store-less evaluator.
    """

    def __init__(
        self, fast: FastEvaluator, workers: int = 1, cache_size: int = 16384
    ) -> None:
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self.fast = fast
        self.workers = workers
        self.cache_size = cache_size
        #: Guards the two LRUs and every counter below (never compute).
        self._lock = threading.Lock()
        self._lru: OrderedDict[tuple[int, ...], Evaluation] = OrderedDict()
        self._geno_lru: OrderedDict[tuple, tuple[float, np.ndarray]] = OrderedDict()
        self._pool = None
        self.hits = 0
        self.misses = 0
        self._store = None
        self._store_namespace: str | None = None
        #: Tier-2 counters: LRU misses that the durable store served
        #: (``store_hits``) vs. had to be computed (``store_misses``).
        #: Off-grid 3-tuple keys are not store-eligible and count toward
        #: neither.
        self.store_hits = 0
        self.store_misses = 0

    # ------------------------------------------------------------------
    @property
    def pool(self):
        """The :class:`~repro.parallel.pool.EvaluatorPool`, or ``None``
        before the first sharded call."""
        return self._pool

    def close(self) -> None:
        """Shut the pool's threads down (idempotent; the evaluator stays
        usable and a later sharded call starts them again)."""
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "BatchEvaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    @property
    def store(self):
        """The attached :class:`repro.store.ResultStore`, or ``None``."""
        return self._store

    @property
    def store_namespace(self) -> str | None:
        """The namespace this evaluator reads/writes in the store."""
        return self._store_namespace

    def attach_store(self, store, namespace: str | None = None) -> None:
        """Attach a durable tier-2 result store behind the LRU.

        ``namespace`` defaults to ``"eval:" + fast_evaluator_fingerprint``
        — a content hash of the HyperNet weights, GP fits, validation
        subset and evaluation knobs — so persisted results are only ever
        served back to a bit-identical producing context.
        """
        if namespace is None:
            from ..store import fast_evaluator_fingerprint

            namespace = "eval:" + fast_evaluator_fingerprint(self.fast)
        self._store = store
        self._store_namespace = namespace

    # ------------------------------------------------------------------
    @staticmethod
    def key_of(point: CoDesignPoint) -> tuple:
        """Canonical cache key: the point's :attr:`~CoDesignPoint.tokens`
        when it is on the search grids, otherwise the frozen (cells,
        config) objects (a valid AcceleratorConfig need not lie on the
        Table 1 choice lists)."""
        try:
            return point.tokens
        except ValueError:
            return (point.genotype.normal, point.genotype.reduce, point.config)

    @staticmethod
    def key_of_tokens(tokens: object) -> tuple[int, ...] | None:
        """The cache key of a point given only as its token list (a
        service request's wire tokens), or ``None`` unless ``tokens`` is a
        list of exactly :data:`SEQUENCE_LENGTH` ints.

        The exact-``int`` check runs before any tuple is built or hashed,
        because ``True`` hashes and compares like ``1``.  Token ranges are
        not checked: a key with an out-of-range token is in no cache, so
        :meth:`read_warm` misses it."""
        if (
            not isinstance(tokens, list)
            or len(tokens) != SEQUENCE_LENGTH
            or not set(map(type, tokens)) <= {int}
        ):
            return None
        return tuple(tokens)

    @staticmethod
    def _geno_key_of(key: tuple) -> tuple:
        """The genotype-only part of a cache key (either key flavour)."""
        return key[:DNN_TOKENS] if len(key) != 3 else key[:2]

    @staticmethod
    def _config_of(key: tuple):
        """The accelerator configuration of a cache key (either flavour);
        ``ValueError`` for a token suffix off the Table 1 lists."""
        return key[2] if len(key) == 3 else decode_config(key[DNN_TOKENS:])

    def evaluate(self, point: CoDesignPoint) -> Evaluation:
        """Scalar convenience entry point (drop-in for FastEvaluator)."""
        return self.evaluate_many([point])[0]

    def evaluate_many(self, points: Sequence[CoDesignPoint]) -> list[Evaluation]:
        """Score a batch of co-design points (cached, order-preserving).

        Accepts any number of points, including duplicates and mixed
        on-grid/off-grid configurations; returns one :class:`Evaluation`
        per input point, in input order.  Duplicates of one candidate
        within a batch are materialised once and share the same result
        object.  The evaluations themselves are ``==`` per-point
        :meth:`FastEvaluator.evaluate` calls, whatever the batch: the
        HyperNet logits and the GP prediction of a row never depend on
        the rows scored with it.
        """
        keys = [self.key_of(point) for point in points]
        results = self._materialise(keys, dict(zip(keys, points)))
        return [results[key] for key in keys]

    def read_warm(
        self,
        keys: Sequence[tuple],
        trace: tuple[str, str | None] | None = None,
        before=None,
    ) -> list[Evaluation] | None:
        """Every key's result from the caches, or ``None``: one critical
        section of the cache lock.

        Serves result-LRU hits, and genotype-LRU hits with their GP rows
        (a cached architecture paired with a new configuration).  When
        any key needs the HyperNet, or the durable store is attached and
        the result LRU misses it, or a key's hardware tokens do not
        decode, it returns ``None`` and changes nothing; the caller then
        takes the :meth:`evaluate_many` path, which reports any error.
        ``before``, if given, is called in the critical section once every
        key is known to be served and before anything changes; when it
        raises, the read changes nothing and the error propagates.

        On success the effects are exactly those :meth:`evaluate_many`
        has on the same keys, through the same :meth:`_lookup` and
        :meth:`_touch`: LRU recency and inserts, ``hits``/``misses``, the
        registry counters and, when ``trace`` (a ``(trace_id,
        parent_span_id)`` pair) or the thread's span is traced, one
        ``evaluator.evaluate_many`` span.  Safe on any thread,
        concurrently with :meth:`evaluate_many`.
        """
        t0 = time.perf_counter()
        store = self._store
        with self._lock:
            found, missing, inputs, cold = self._lookup(
                keys, genotypes=store is None
            )
            if cold or (missing and store is not None):
                return None  # the store is consulted before the genotype LRU
            try:
                scored = self._score(missing, inputs)
            except ValueError:  # hardware tokens off the Table 1 lists
                return None
            if before is not None:
                before()
            self._touch(keys, found, missing, inputs)
            for key, result in zip(missing, scored):
                found[key] = result
                self._lru_put(self._lru, key, result, self.cache_size)
        results = [found[key] for key in keys]
        seconds = time.perf_counter() - t0
        self._count(len(keys), len(missing), 0, seconds)
        tracer = get_tracer()
        if tracer.enabled:
            ctx = trace if trace is not None else current_context()
            if ctx is not None:
                tracer.record_ago(
                    "evaluator.evaluate_many",
                    ctx[0],
                    ctx[1],
                    seconds,
                    points=len(keys),
                    hits=len(keys) - len(missing),
                    misses=len(missing),
                )
        return results

    # ------------------------------------------------------------------
    def _lookup(
        self,
        keys: Sequence[tuple],
        results: bool = True,
        genotypes: bool = True,
    ) -> tuple[dict, list, dict, dict]:
        """What the caches hold of ``keys``: ``(found, missing, inputs,
        cold)``.  The caller holds the cache lock; nothing changes.

        ``found`` maps the result-LRU hits to their evaluations (none
        unless ``results``) and ``missing`` lists every other key once,
        in first-seen order.  With ``genotypes``, ``inputs`` maps the
        genotype keys of ``missing`` that the genotype LRU holds to their
        ``(accuracy, feature prefix)``, and ``cold`` maps every other
        genotype key to its first missing key; the values are snapshots,
        so a later eviction cannot take them from this batch."""
        lru, geno_lru = self._lru, self._geno_lru
        found: dict[tuple, Evaluation] = {}
        missing: dict[tuple, None] = {}
        inputs: dict[tuple, tuple[float, np.ndarray]] = {}
        cold: dict[tuple, tuple] = {}
        for key in keys:
            if key in found or key in missing:
                continue
            value = lru.get(key) if results else None
            if value is not None:
                found[key] = value
                continue
            missing[key] = None
            if genotypes:
                geno_key = self._geno_key_of(key)
                if geno_key in inputs or geno_key in cold:
                    continue
                value = geno_lru.get(geno_key)
                if value is not None:
                    inputs[geno_key] = value
                else:
                    cold[geno_key] = key
        return found, list(missing), inputs, cold

    def _touch(
        self,
        keys: Sequence[tuple],
        found: dict,
        missing: Sequence[tuple],
        inputs: dict,
    ) -> None:
        """Apply a :meth:`_lookup` of ``keys`` under the cache lock: the
        recency of its hits, and ``hits``/``misses``.  An intra-batch
        duplicate of a miss is materialised once, so it counts as a hit."""
        lru, geno_lru = self._lru, self._geno_lru
        for key in keys:
            if key in found:
                lru.move_to_end(key)
        for geno_key in inputs:
            geno_lru.move_to_end(geno_key)
        self.hits += len(keys) - len(missing)
        self.misses += len(missing)

    @staticmethod
    def _lru_put(lru: OrderedDict, key, value, cap: int) -> None:
        lru[key] = value
        lru.move_to_end(key)
        while len(lru) > cap:
            lru.popitem(last=False)

    @staticmethod
    def _count(lookups: int, misses: int, store_hits: int, seconds: float) -> None:
        """Registry counters of one evaluator call (zero increments are
        skipped: a warm read pays only for what it changes)."""
        _M_EVAL_CALL_S.observe(seconds)
        _M_EVAL_CALLS.inc()
        _M_EVAL_LOOKUPS.inc(lookups)
        _M_EVAL_HITS.inc(lookups - misses)
        if misses:
            _M_EVAL_MISSES.inc(misses)
        if store_hits:
            _M_EVAL_STORE_HITS.inc(store_hits)

    def _score(
        self, keys: Sequence[tuple], inputs: dict
    ) -> list[Evaluation]:
        """Evaluations of ``keys`` from their genotype inputs: full feature
        rows, then one batched GP prediction per metric.  ``ValueError``
        when a key's hardware tokens do not decode."""
        if not keys:
            return []
        geno_keys = [self._geno_key_of(key) for key in keys]
        rows = np.stack(
            [
                np.concatenate(
                    [inputs[geno_key][1], config_features(self._config_of(key))]
                )
                for key, geno_key in zip(keys, geno_keys)
            ]
        )
        fast = self.fast
        latencies = fast.latency_gp.predict_batch(rows)
        energies = fast.energy_gp.predict_batch(rows)
        return [
            Evaluation(
                accuracy=inputs[geno_key][0],
                latency_ms=max(float(latency), 1e-6),
                energy_mj=max(float(energy), 1e-6),
            )
            for geno_key, latency, energy in zip(geno_keys, latencies, energies)
        ]

    def _materialise(
        self,
        keys: Sequence[tuple],
        by_key: dict[tuple, CoDesignPoint],
    ) -> dict[tuple, Evaluation]:
        """Instrumented shell around :meth:`_resolve`: one span plus
        registry counters per batched call, from this call's own counts
        (other threads may read the caches meanwhile)."""
        t0 = time.perf_counter()
        with get_tracer().span(
            "evaluator.evaluate_many", points=len(keys)
        ) as span:
            results, misses, store_hits = self._resolve(keys, by_key)
            span.set(hits=len(keys) - misses, misses=misses)
        self._count(len(keys), misses, store_hits, time.perf_counter() - t0)
        return results

    def _resolve(
        self,
        keys: Sequence[tuple],
        by_key: dict[tuple, CoDesignPoint],
    ) -> tuple[dict[tuple, Evaluation], int, int]:
        """Resolve every key, batching all miss computations.

        Returns a key -> Evaluation mapping covering the whole request, with
        the call's LRU misses and store hits; the LRU is a cache on top of
        it, so results survive even when the batch holds more unique
        candidates than ``cache_size``.  The cache lock is held to look the
        keys up and to insert results, never while computing.  With a
        store attached it is consulted after the result LRU and before
        the genotype LRU.
        """
        store = self._store
        with self._lock:
            results, missing, inputs, cold = self._lookup(
                keys, genotypes=store is None
            )
            self._touch(keys, results, missing, inputs)
        misses, store_hits = len(missing), 0
        if not missing:
            return results, misses, store_hits
        if store is not None:
            missing, store_hits = self._store_lookup(missing, results)
            if not missing:
                return results, misses, store_hits
            with self._lock:
                _, _, inputs, cold = self._lookup(missing, results=False)
                self._touch((), {}, (), inputs)  # the genotype hits' recency
        if cold:
            # Every genotype neither LRU holds: one grouped HyperNet
            # forward (or one sharded pool dispatch) for the batch.
            fresh = self._cold_inputs([by_key[key].genotype for key in cold.values()])
            with self._lock:
                for geno_key, value in zip(cold, fresh):
                    inputs[geno_key] = value
                    self._lru_put(self._geno_lru, geno_key, value, self.cache_size)
        # The GP prediction always runs in the calling thread over the full
        # merged feature matrix, so sharded accuracy/feature computation
        # cannot perturb the latency/energy numbers.
        scored = self._score(missing, inputs)
        with self._lock:
            for key, result in zip(missing, scored):
                results[key] = result
                self._lru_put(self._lru, key, result, self.cache_size)
        if store is not None:
            for key, result in zip(missing, scored):
                if len(key) == SEQUENCE_LENGTH:
                    store.append(
                        self._store_namespace,
                        key,
                        (result.accuracy, result.latency_ms, result.energy_mj),
                    )
        return results, misses, store_hits

    def _store_lookup(
        self, missing: list[tuple], results: dict[tuple, Evaluation]
    ) -> tuple[list[tuple], int]:
        """Tier 2: the durable store, for the result-LRU misses.

        Only canonical 44-token keys are store-eligible (off-grid 3-tuple
        keys are process-local objects).  A hit is the repr-round-tripped
        original floats, so it is bit-exact (``==``) with the cold
        computation; it goes into ``results`` and the LRU.  Returns the
        keys still missing and the number of store hits."""
        store = self._store
        still_missing: list[tuple] = []
        store_hits = 0
        with get_tracer().span("store.lookup", keys=len(missing)) as span:
            stored = [
                store.get(self._store_namespace, key)
                if len(key) == SEQUENCE_LENGTH
                else None
                for key in missing
            ]
            with self._lock:
                for key, values in zip(missing, stored):
                    if values is not None and len(values) == 3:
                        store_hits += 1
                        result = Evaluation(
                            accuracy=values[0],
                            latency_ms=values[1],
                            energy_mj=values[2],
                        )
                        results[key] = result
                        self._lru_put(self._lru, key, result, self.cache_size)
                    else:
                        if len(key) == SEQUENCE_LENGTH:
                            self.store_misses += 1
                        still_missing.append(key)
                self.store_hits += store_hits
            span.set(hits=store_hits)
        return still_missing, store_hits

    def _cold_inputs(
        self, genotypes: list[Genotype]
    ) -> list[tuple[float, np.ndarray]]:
        """:meth:`FastEvaluator.genotype_inputs` of the cold genotypes, in
        order: inline, or sharded across the pool when ``workers > 1`` and
        there are at least two."""
        if self.workers <= 1 or len(genotypes) < 2:
            return self.fast.genotype_inputs(genotypes)
        # Imported lazily: repro.parallel imports this module.
        from ..parallel import EvaluatorPool, merge_shards, shard_sequence

        if self._pool is None:
            self._pool = EvaluatorPool(self.fast, self.workers)
        return merge_shards(
            self._pool.run_shards(shard_sequence(genotypes, self.workers))
        )

    # ------------------------------------------------------------------
    def cache_counters(self) -> dict:
        """``hits``, ``misses``, ``store_hits`` and ``store_misses`` read
        in one critical section of the cache lock, with ``hit_rate`` and
        ``store_hit_rate`` derived from them: a batch counting on another
        thread never pairs a new count with an old one."""
        with self._lock:
            hits, misses = self.hits, self.misses
            store_hits, store_misses = self.store_hits, self.store_misses
        return dict(
            hits=hits, misses=misses, hit_rate=_rate(hits, misses),
            store_hits=store_hits, store_misses=store_misses,
            store_hit_rate=_rate(store_hits, store_misses),
        )

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the LRU (0 before any lookup)."""
        return self.cache_counters()["hit_rate"]

    @property
    def store_hit_rate(self) -> float:
        """Fraction of store-eligible LRU misses the durable store served."""
        return self.cache_counters()["store_hit_rate"]


class AccurateEvaluator:
    """Stand-alone training accuracy (Step 3 rescoring).

    Latency and energy of the rescored candidates come from one batched
    :meth:`~repro.accel.simulator.SystolicArraySimulator.simulate_genotypes`
    call next to :meth:`train_accuracies`.
    """

    def __init__(
        self,
        dataset: SyntheticCifar,
        num_cells: int = 6,
        stem_channels: int = 16,
        num_classes: int = 10,
        train_epochs: int = 70,
        batch_size: int = 64,
        seed: int = 0,
    ) -> None:
        self.dataset = dataset
        self.num_cells = num_cells
        self.stem_channels = stem_channels
        self.num_classes = num_classes
        self.train_epochs = train_epochs
        self.batch_size = batch_size
        self.seed = seed
        self._store = None
        self._store_namespace: str | None = None
        #: Durable-store counters over stand-alone trainings: persisted
        #: accuracies reused vs. trainings actually run with a store
        #: attached.  Guarded by ``_count_lock``: threads share this
        #: evaluator when Step-3 training runs sharded.
        self.store_hits = 0
        self.store_misses = 0
        self._count_lock = threading.Lock()

    # ------------------------------------------------------------------
    @property
    def store(self):
        """The attached :class:`repro.store.ResultStore`, or ``None``."""
        return self._store

    @property
    def store_namespace(self) -> str | None:
        """The namespace this evaluator reads/writes in the store."""
        return self._store_namespace

    def attach_store(self, store, namespace: str | None = None) -> None:
        """Attach a durable store of stand-alone training accuracies.

        Records are keyed by the 40 genotype tokens plus the training
        seed; ``namespace`` defaults to ``"train:" +
        accurate_evaluator_fingerprint`` (dataset arrays + recipe knobs,
        seed excluded — it is part of each key), so persisted accuracies
        are only reused under a bit-identical dataset and recipe.
        """
        if namespace is None:
            from ..store import accurate_evaluator_fingerprint

            namespace = "train:" + accurate_evaluator_fingerprint(self)
        self._store = store
        self._store_namespace = namespace

    def train_accuracy(self, point: CoDesignPoint, seed: int | None = None) -> float:
        """Stand-alone training accuracy of one candidate.

        ``seed`` overrides the evaluator seed for one candidate; each call
        is deterministic and independent of every other call, which is
        what lets :meth:`train_accuracies` shard candidates across threads
        with bit-identical results.

        With a durable store attached, a persisted accuracy for this
        (genotype, seed) is returned bit-exactly instead of retraining,
        and a fresh training result is appended for the next process.
        """
        seed = self.seed if seed is None else seed
        store = self._store
        store_key = None
        if store is not None:
            try:
                store_key = (*encode_genotype(point.genotype), seed)
            except ValueError:
                store_key = None  # off-grid genotype: not store-eligible
            if store_key is not None:
                values = store.get(self._store_namespace, store_key)
                with self._count_lock:
                    if values is not None:
                        self.store_hits += 1
                    else:
                        self.store_misses += 1
                if values is not None:
                    return values[0]
        t0 = time.perf_counter()
        with get_tracer().span("training.run", seed=seed):
            rng = np.random.default_rng(seed)
            network = CellNetwork(
                point.genotype,
                num_cells=self.num_cells,
                stem_channels=self.stem_channels,
                num_classes=self.num_classes,
                rng=rng,
            )
            result = train_network(
                network,
                self.dataset,
                epochs=self.train_epochs,
                batch_size=self.batch_size,
                seed=seed,
            )
        _M_TRAIN_RUNS.inc()
        _M_TRAIN_RUN_S.observe(time.perf_counter() - t0)
        if store is not None and store_key is not None:
            store.append(self._store_namespace, store_key, (result.val_accuracy,))
        return result.val_accuracy

    def train_accuracies(
        self,
        points: Sequence[CoDesignPoint],
        workers: int = 1,
        seeds: Sequence[int] | None = None,
    ) -> list[float]:
        """Stand-alone training accuracy of many candidates, optionally
        sharded across threads.

        ``workers <= 1`` trains serially; anything larger runs the
        independent per-candidate :meth:`train_accuracy` calls on
        ``workers`` threads over this evaluator
        (:func:`repro.parallel.training.train_accuracies`).  Every
        candidate keeps its own deterministic seed (``seeds[i]`` or the
        evaluator seed), so sharded results equal the serial results
        exactly at any worker count.
        """
        # Imported lazily: repro.parallel imports this module, so a
        # module-level import here would be circular via the package init.
        from ..parallel.training import train_accuracies

        return train_accuracies(self, points, workers=workers, seeds=seeds)
