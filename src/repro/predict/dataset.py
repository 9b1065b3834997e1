"""Simulator sample collection for training the performance predictors.

Sec. III-E: *"We collect 3600 samples from the simulation ... every model is
built with 3000 training samples and tested on 600 testing samples."*
:func:`collect_samples` draws uniform co-design points and runs the batched
analytical simulator as ground truth.  The ~2000x prediction-speedup claim
is measured by :func:`repro.experiments.fig4.run_fig4`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..accel.config import random_config
from ..accel.simulator import SystolicArraySimulator
from ..accel.workload import network_workloads
from ..nas.encoding import CoDesignPoint
from ..nas.space import DnnSpace
from .features import feature_vector

__all__ = ["PerfDataset", "collect_samples"]


@dataclass
class PerfDataset:
    """Features plus latency/energy ground truth for n co-design points."""

    x: np.ndarray  # (n, FEATURE_DIM)
    latency_ms: np.ndarray  # (n,)
    energy_mj: np.ndarray  # (n,)
    points: list[CoDesignPoint]

    def __len__(self) -> int:
        return len(self.latency_ms)

    def split(self, n_train: int) -> tuple["PerfDataset", "PerfDataset"]:
        """Deterministic head/tail split (samples are already i.i.d.)."""
        if not 0 < n_train < len(self):
            raise ValueError(f"n_train must be in (0, {len(self)})")
        head = PerfDataset(
            self.x[:n_train],
            self.latency_ms[:n_train],
            self.energy_mj[:n_train],
            self.points[:n_train],
        )
        tail = PerfDataset(
            self.x[n_train:],
            self.latency_ms[n_train:],
            self.energy_mj[n_train:],
            self.points[n_train:],
        )
        return head, tail


def collect_samples(
    n: int,
    seed: int = 0,
    simulator: SystolicArraySimulator | None = None,
    num_cells: int = 6,
    stem_channels: int = 16,
    image_size: int = 32,
    num_classes: int = 10,
    store=None,
) -> PerfDataset:
    """Sample ``n`` co-design points and simulate each one.

    With a durable :class:`repro.store.ResultStore`, persisted
    ``(latency, energy)`` ground truth is reused bit-exactly and only the
    missing points are simulated (fresh values are appended) — this is
    how the GP predictors warm-start across processes: a fresh search
    rebuilds the same sample set without re-paying the simulation.
    Records live in the ``"sim:" + samples_fingerprint`` namespace,
    scoped to the simulator's energy model and the network expansion
    dims.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    sim = simulator or SystolicArraySimulator()
    space = DnnSpace()
    points = [
        CoDesignPoint(
            genotype=space.sample(rng, name=f"sample{i}"), config=random_config(rng)
        )
        for i in range(n)
    ]
    # One layer expansion per point, shared between the batched simulation
    # and the workload-statistics features.
    workload_lists = [
        network_workloads(
            point.genotype,
            num_cells=num_cells,
            stem_channels=stem_channels,
            image_size=image_size,
            num_classes=num_classes,
        )
        for point in points
    ]
    latency = np.empty(n, dtype=float)
    energy = np.empty(n, dtype=float)
    keys: list[tuple | None] = [None] * n
    miss_idx = list(range(n))
    if store is not None:
        from ..store import samples_fingerprint

        namespace = "sim:" + samples_fingerprint(
            sim, num_cells, stem_channels, image_size, num_classes
        )
        miss_idx = []
        for i, point in enumerate(points):
            try:
                keys[i] = point.tokens
            except ValueError:
                keys[i] = None  # off-grid: not store-eligible
            values = (
                store.get(namespace, keys[i])
                if keys[i] is not None
                else None
            )
            if values is not None and len(values) == 2:
                latency[i], energy[i] = values
            else:
                miss_idx.append(i)
    if miss_idx:
        batch = sim.simulate_many(
            [workload_lists[i] for i in miss_idx],
            [points[i].config for i in miss_idx],
        )
        for pos, i in enumerate(miss_idx):
            latency[i] = float(batch.latency_ms[pos])
            energy[i] = float(batch.energy_mj[pos])
            if store is not None and keys[i] is not None:
                store.append(namespace, keys[i], (latency[i], energy[i]))
    xs = [
        feature_vector(
            point,
            num_cells=num_cells,
            stem_channels=stem_channels,
            image_size=image_size,
            num_classes=num_classes,
            layers=layers,
        )
        for point, layers in zip(points, workload_lists)
    ]
    return PerfDataset(
        x=np.stack(xs),
        latency_ms=latency,
        energy_mj=energy,
        points=points,
    )
