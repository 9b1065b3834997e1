"""Shared fixtures for the YOSO reproduction test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel.config import AcceleratorConfig
from repro.nas.genotype import CellGenotype, Genotype, NodeSpec
from repro.nas.space import DnnSpace
from repro.nn.data import SyntheticCifar


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def simple_cell() -> CellGenotype:
    """A hand-written valid cell used across tests."""
    return CellGenotype(
        nodes=(
            NodeSpec(0, 1, "conv3x3", "dwconv3x3"),
            NodeSpec(1, 2, "maxpool3x3", "conv3x3"),
            NodeSpec(0, 3, "avgpool3x3", "dwconv5x5"),
            NodeSpec(2, 4, "conv5x5", "maxpool3x3"),
            NodeSpec(1, 5, "dwconv3x3", "avgpool3x3"),
        )
    )


@pytest.fixture
def genotype(simple_cell: CellGenotype) -> Genotype:
    return Genotype(normal=simple_cell, reduce=simple_cell, name="fixture")


@pytest.fixture
def aliased_genotype() -> Genotype:
    """Nodes 2 and 4 take the same (input, op) edge in both slots, so one
    HyperNet edge module serves both; node 3 is a plain node between them."""
    cell = CellGenotype(
        nodes=(
            NodeSpec(1, 1, "conv3x3", "conv3x3"),
            NodeSpec(0, 2, "dwconv3x3", "maxpool3x3"),
            NodeSpec(2, 2, "avgpool3x3", "avgpool3x3"),
            NodeSpec(3, 4, "dwconv5x5", "conv5x5"),
            NodeSpec(5, 5, "dwconv3x3", "dwconv3x3"),
        )
    )
    return Genotype(normal=cell, reduce=cell, name="aliased")


@pytest.fixture
def random_genotype(rng: np.random.Generator) -> Genotype:
    return DnnSpace().sample(rng, name="random-fixture")


@pytest.fixture
def hw_config() -> AcceleratorConfig:
    return AcceleratorConfig(
        pe_rows=16, pe_cols=16, gbuf_kb=256, rbuf_bytes=256, dataflow="OS"
    )


@pytest.fixture(scope="session")
def tiny_dataset() -> SyntheticCifar:
    """A session-wide small dataset (8x8 images) for training tests."""
    return SyntheticCifar(
        image_size=8, train_size=96, val_size=48, test_size=48, seed=0
    )


@pytest.fixture(scope="session")
def smoke_context():
    """The shared smoke-scale experiment context (mirrors benchmarks/).

    ``get_context`` caches per (scale, seed) process-wide, so every test —
    including the CLI commands invoked with ``--scale smoke`` — shares one
    trained HyperNet and one set of GP predictors.
    """
    from repro.experiments import get_context

    return get_context("smoke", seed=0)


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-3) -> np.ndarray:
    """Central-difference gradient of scalar f w.r.t. array x (float64)."""
    grad = np.zeros_like(x, dtype=np.float64)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + eps
        fp = f()
        x[idx] = old - eps
        fm = f()
        x[idx] = old
        grad[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return grad
