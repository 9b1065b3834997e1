"""Benchmark: the fast training path (compact-cache kernels + shards).

Two measurements, recorded to ``BENCH_training.json`` at the repo root:

* **Kernel speedup** — demo-scale ``train_network`` (6 cells, 16x16
  images, batch 64) through the standard kernels vs the ``train_fast``
  compact-cache kernels, interleaved best-of-``REPS`` per mode over
  ``GENOTYPES`` deterministic random genotypes.  The >= 1.5x floor is
  asserted on the mean speedup (single-process work: CPU count does not
  gate it).
* **Training-shard scaling** — the same top-N stand-alone trainings
  through ``AccurateEvaluator.train_accuracies`` at workers 1/2/3, the
  threads all running ``train_accuracy`` on one evaluator (smoke-scale
  candidates).  Parity is always asserted (bit-identical accuracies at
  every worker count); like the evaluation benchmark, speedup is
  informational on hosts with fewer cores than workers and the record
  carries an explicit ``degraded_host`` flag.

`docs/PERFORMANCE.md` ("Training path") documents the cache memory model
and when ``train_fast`` is legal.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.accel.config import random_config
from repro.nas.encoding import CoDesignPoint
from repro.nas.network import CellNetwork
from repro.nas.space import DnnSpace
from repro.nas.train import train_network
from repro.nn.data import SyntheticCifar
from repro.obs import cpu_budget, host_info
from repro.search.evaluator import AccurateEvaluator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD_PATH = os.path.join(ROOT, "BENCH_training.json")

GENOTYPES = 3
REPS = 2
EPOCHS = 2
SHARD_WORKERS = (1, 2, 3)
SHARD_CANDIDATES = 4


def test_bench_training_fast_kernels_and_shards(demo_context):
    record: dict = {
        "benchmark": "training_path",
        "cpu_count": cpu_budget(),
        # Top-level mirror of the shard-level flag: the shared bench
        # schema (repro.analysis.benchschema) requires every report to
        # say up front whether the host could honour its parallelism.
        "degraded_host": host_info(max(SHARD_WORKERS))["degraded_host"],
    }

    # -- kernel speedup (demo scale, single process) --------------------
    dataset = demo_context.dataset
    scale = demo_context.scale
    space = DnnSpace()
    geno_rng = np.random.default_rng(3)
    genotypes = [space.sample(geno_rng, name=f"bench{i}") for i in range(GENOTYPES)]

    def run(genotype, fast: bool) -> tuple[float, float]:
        network = CellNetwork(
            genotype,
            num_cells=scale.hypernet_cells,
            stem_channels=scale.hypernet_channels,
            num_classes=dataset.num_classes,
            rng=np.random.default_rng(0),
            train_fast=fast,
        )
        t0 = time.perf_counter()
        result = train_network(
            network, dataset, epochs=EPOCHS, batch_size=64, seed=0
        )
        return time.perf_counter() - t0, result.val_accuracy

    kernel_runs = []
    speedups = []
    for i, genotype in enumerate(genotypes):
        best = {False: float("inf"), True: float("inf")}
        acc = {}
        for _ in range(REPS):
            for fast in (False, True):  # interleaved: load drift hits both
                seconds, val_acc = run(genotype, fast)
                best[fast] = min(best[fast], seconds)
                acc[fast] = val_acc
        speedup = best[False] / best[True]
        speedups.append(speedup)
        kernel_runs.append(
            {
                "genotype": f"bench{i}",
                "standard_s": round(best[False], 3),
                "train_fast_s": round(best[True], 3),
                "speedup": round(speedup, 3),
                "val_accuracy_standard": round(acc[False], 4),
                "val_accuracy_train_fast": round(acc[True], 4),
            }
        )
        print(
            f"\ntrain_network bench{i}: std {best[False]:.2f} s, "
            f"fast {best[True]:.2f} s -> {speedup:.2f}x"
        )
    mean_speedup = float(np.mean(speedups))
    record["kernel"] = {
        "scale": "demo",
        "epochs": EPOCHS,
        "batch_size": 64,
        "genotypes": GENOTYPES,
        "reps_per_mode": REPS,
        "runs": kernel_runs,
        "mean_speedup": round(mean_speedup, 3),
        "notes": (
            "best-of-REPS per mode, modes interleaved so machine-load "
            "drift hits both; val accuracies differ only by float32 "
            "round-off amplified through training (gradients match at "
            "rel 1e-6, pinned by tests/test_nn_fast_kernels.py)."
        ),
    }

    # -- training-shard scaling (smoke-scale candidates) ----------------
    tiny = SyntheticCifar(
        image_size=8, train_size=96, val_size=48, test_size=48, seed=0
    )
    accurate = AccurateEvaluator(
        tiny, num_cells=3, stem_channels=4, train_epochs=2, seed=0
    )
    rng = np.random.default_rng(77)
    points = [
        CoDesignPoint(genotype=space.sample(rng), config=random_config(rng))
        for _ in range(SHARD_CANDIDATES)
    ]
    shard_runs = []
    reference = None
    for workers in SHARD_WORKERS:
        # Thread start-up is inside train_s: there is no replica to ship.
        t0 = time.perf_counter()
        accuracies = accurate.train_accuracies(points, workers=workers)
        train_s = time.perf_counter() - t0
        if reference is None:
            reference = accuracies
        assert accuracies == reference, f"workers={workers} diverged (bit parity)"
        shard_runs.append(
            {
                "workers": workers,
                "train_s": round(train_s, 3),
                "bit_identical": True,
            }
        )
        print(f"train shards: workers={workers} train {train_s:.2f} s")
    serial_s = shard_runs[0]["train_s"]
    for entry in shard_runs:
        entry["speedup_vs_serial"] = round(serial_s / entry["train_s"], 3)
    record["shards"] = {
        "candidates": SHARD_CANDIDATES,
        "train_epochs": 2,
        "degraded_host": host_info(max(SHARD_WORKERS))["degraded_host"],
        "runs": shard_runs,
        "notes": (
            "stand-alone trainings are CPU-bound numpy on threads sharing "
            "one evaluator, so only kernels that release the GIL overlap.  "
            "degraded_host: true means some worker counts exceed the "
            "cores; those runs cannot scale past the core count, and only "
            "bit parity is asserted."
        ),
    }

    with open(RECORD_PATH, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"wrote {RECORD_PATH}")

    assert mean_speedup >= 1.5, (
        f"compact-cache kernels: expected >= 1.5x mean train_network "
        f"speedup at demo scale, measured {mean_speedup:.2f}x"
    )
