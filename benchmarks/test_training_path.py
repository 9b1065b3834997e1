"""Benchmark: training-shard scaling, recorded to ``BENCH_training.json``.

The same top-N stand-alone trainings run through
``AccurateEvaluator.train_accuracies`` at workers 1/2/3, the threads all
running ``train_accuracy`` on one evaluator (smoke-scale candidates).
Parity is always asserted (bit-identical accuracies at every worker
count); like the evaluation benchmark, speedup is informational on hosts
with fewer cores than workers and the record carries an explicit
``degraded_host`` flag.

`docs/PERFORMANCE.md` ("Training path") documents the training kernels
and their cache memory model.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.accel.config import random_config
from repro.nas.encoding import CoDesignPoint
from repro.nas.space import DnnSpace
from repro.nn.data import SyntheticCifar
from repro.obs import cpu_budget, host_info
from repro.search.evaluator import AccurateEvaluator

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD_PATH = os.path.join(ROOT, "BENCH_training.json")

SHARD_WORKERS = (1, 2, 3)
SHARD_CANDIDATES = 4


def test_bench_training_shards():
    record: dict = {
        "benchmark": "training_path",
        "cpu_count": cpu_budget(),
        # Top-level mirror of the shard-level flag: the shared bench
        # schema (repro.analysis.benchschema) requires every report to
        # say up front whether the host could honour its parallelism.
        "degraded_host": host_info(max(SHARD_WORKERS))["degraded_host"],
    }
    tiny = SyntheticCifar(
        image_size=8, train_size=96, val_size=48, test_size=48, seed=0
    )
    accurate = AccurateEvaluator(
        tiny, num_cells=3, stem_channels=4, train_epochs=2, seed=0
    )
    rng = np.random.default_rng(77)
    space = DnnSpace()
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
