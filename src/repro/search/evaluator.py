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
optional sharding of cold genotypes across threads.
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
    encode_genotype,
)
from ..nas.genotype import Genotype
from ..nas.hypernet import HyperNet
from ..nas.network import CellNetwork
from ..nas.train import train_network
from ..nn.data import SyntheticCifar
from ..obs.registry import get_registry
from ..obs.tracing import get_tracer
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
    def _key_of(point: CoDesignPoint) -> tuple:
        """Canonical cache key: the point's :attr:`~CoDesignPoint.tokens`
        when it is on the search grids, otherwise the frozen (cells,
        config) objects (a valid AcceleratorConfig need not lie on the
        Table 1 choice lists)."""
        try:
            return point.tokens
        except ValueError:
            return (point.genotype.normal, point.genotype.reduce, point.config)

    @staticmethod
    def _geno_key_of(key: tuple) -> tuple:
        """The genotype-only part of a cache key (either key flavour)."""
        return key[:DNN_TOKENS] if len(key) != 3 else key[:2]

    def evaluate(self, point: CoDesignPoint) -> Evaluation:
        """Scalar convenience entry point (drop-in for FastEvaluator)."""
        return self.evaluate_many([point])[0]

    def all_warm(self, points: Sequence[CoDesignPoint]) -> bool:
        """Whether :meth:`evaluate_many` would run no HyperNet for ``points``.

        A point is warm when its key is in the result LRU or its genotype
        is in the genotype LRU.  Read-only: LRU recency, ``hits``/
        ``misses`` and the registry counters are untouched.  Never raises:
        a point that cannot be keyed counts as cold (its error reaches the
        caller from :meth:`evaluate_many`), as does a point that only the
        durable store holds.
        """
        for point in points:
            try:
                key = self._key_of(point)
                warm = key in self._lru or self._geno_key_of(key) in self._geno_lru
            except Exception:  # unkeyable; evaluate_many reports why
                return False
            if not warm:
                return False
        return True

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
        keys = [self._key_of(point) for point in points]
        results = self._materialise(keys, dict(zip(keys, points)))
        return [results[key] for key in keys]

    # ------------------------------------------------------------------
    @staticmethod
    def _lru_put(lru: OrderedDict, key, value, cap: int) -> None:
        lru[key] = value
        lru.move_to_end(key)
        while len(lru) > cap:
            lru.popitem(last=False)

    def _materialise(
        self,
        keys: Sequence[tuple],
        by_key: dict[tuple, CoDesignPoint],
    ) -> dict[tuple, Evaluation]:
        """Instrumented shell around :meth:`_resolve`: one span plus
        registry counters per batched call, mirrored as deltas of the
        instance counters so both accountings always agree."""
        hits0, misses0 = self.hits, self.misses
        store_hits0 = self.store_hits
        t0 = time.perf_counter()
        with get_tracer().span(
            "evaluator.evaluate_many", points=len(keys)
        ) as span:
            results = self._resolve(keys, by_key)
            span.set(
                hits=self.hits - hits0,
                misses=self.misses - misses0,
            )
        _M_EVAL_CALL_S.observe(time.perf_counter() - t0)
        _M_EVAL_CALLS.inc()
        _M_EVAL_LOOKUPS.inc(len(keys))
        _M_EVAL_HITS.inc(self.hits - hits0)
        _M_EVAL_MISSES.inc(self.misses - misses0)
        _M_EVAL_STORE_HITS.inc(self.store_hits - store_hits0)
        return results

    def _resolve(
        self,
        keys: Sequence[tuple],
        by_key: dict[tuple, CoDesignPoint],
    ) -> dict[tuple, Evaluation]:
        """Resolve every key, batching all miss computations.

        Returns a key -> Evaluation mapping covering the whole request; the
        LRU is a cache on top of it, so results survive even when the batch
        holds more unique candidates than ``cache_size``.
        """
        results: dict[tuple, Evaluation] = {}
        missing: list[tuple] = []
        for key in keys:
            if key in self._lru:
                self.hits += 1
                self._lru.move_to_end(key)
                results[key] = self._lru[key]
            elif key in results:
                # Intra-batch duplicate of a miss: one materialisation
                # serves it, which is a hit for accounting purposes.
                self.hits += 1
            else:
                self.misses += 1
                results[key] = None  # type: ignore[assignment]  # placeholder
                missing.append(key)
        if not missing:
            return results
        store = self._store
        if store is not None:
            # Tier 2: the durable store.  Only canonical 44-token keys are
            # store-eligible (off-grid 3-tuple keys are process-local
            # objects).  A hit is the repr-round-tripped original floats,
            # so it is bit-exact (``==``) with the cold computation.
            still_missing: list[tuple] = []
            with get_tracer().span("store.lookup", keys=len(missing)) as span:
                for key in missing:
                    values = (
                        store.get(self._store_namespace, key)
                        if len(key) == SEQUENCE_LENGTH
                        else None
                    )
                    if values is not None and len(values) == 3:
                        self.store_hits += 1
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
                span.set(hits=len(missing) - len(still_missing))
            missing = still_missing
            if not missing:
                return results
        fast = self.fast
        points = [by_key[key] for key in missing]
        geno_keys = [self._geno_key_of(key) for key in missing]
        accuracies, features = self._miss_inputs(points, geno_keys)
        # The GP prediction always runs in the calling thread over the full
        # merged feature matrix, so sharded accuracy/feature computation
        # cannot perturb the latency/energy numbers.
        latencies = fast.latency_gp.predict_batch(features)
        energies = fast.energy_gp.predict_batch(features)
        for key, accuracy, latency, energy in zip(
            missing, accuracies, latencies, energies
        ):
            result = Evaluation(
                accuracy=accuracy,
                latency_ms=max(float(latency), 1e-6),
                energy_mj=max(float(energy), 1e-6),
            )
            results[key] = result
            self._lru_put(self._lru, key, result, self.cache_size)
            if store is not None and len(key) == SEQUENCE_LENGTH:
                store.append(
                    self._store_namespace,
                    key,
                    (result.accuracy, result.latency_ms, result.energy_mj),
                )
        return results

    def _miss_inputs(
        self, points: Sequence[CoDesignPoint], geno_keys: Sequence[tuple]
    ) -> tuple[list[float], np.ndarray]:
        """Accuracies and stacked feature rows for the missing points.

        Genotype-LRU hits are snapshotted up front into a local map, which
        pins this batch's values even when inserting the fresh ones evicts
        them from a too-small LRU mid-batch.  The unique genotypes the LRU
        misses are resolved together by :meth:`_cold_inputs`.
        """
        inputs: dict[tuple, tuple[float, np.ndarray]] = {}
        cold: dict[tuple, Genotype] = {}
        for geno_key, point in zip(geno_keys, points):
            if geno_key in inputs or geno_key in cold:
                continue
            if geno_key in self._geno_lru:
                inputs[geno_key] = self._geno_lru[geno_key]
                self._geno_lru.move_to_end(geno_key)
            else:
                cold[geno_key] = point.genotype
        if cold:
            fresh = self._cold_inputs(list(cold.values()))
            for geno_key, value in zip(cold, fresh):
                inputs[geno_key] = value
                self._lru_put(self._geno_lru, geno_key, value, self.cache_size)
        accuracies = [inputs[geno_key][0] for geno_key in geno_keys]
        rows = [
            np.concatenate([inputs[geno_key][1], config_features(point.config)])
            for geno_key, point in zip(geno_keys, points)
        ]
        return accuracies, np.stack(rows)

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
    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the LRU (0 before any lookup)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def store_hit_rate(self) -> float:
        """Fraction of store-eligible LRU misses the durable store served."""
        total = self.store_hits + self.store_misses
        return self.store_hits / total if total else 0.0


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
