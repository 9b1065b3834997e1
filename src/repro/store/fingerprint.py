"""Content fingerprints that scope store namespaces to their producers.

A durable store outlives the process that filled it, so every record's
namespace must pin down *what produced the values* — results computed by
one trained HyperNet (or one GP fit, or one training recipe) are not
valid for another.  The helpers here hash the value-determining state of
each producer into a short hex digest; the stack prefixes it with the
record kind (``eval:`` / ``train:`` / ``sim:``) to form the namespace.

The digests are content hashes (SHA-256 over array bytes, dtypes, shapes
and the scalar knobs), so two processes that build bit-identical
artefacts — e.g. two ``get_context("demo", seed=0)`` calls on different
days — land in the same namespace and share results, while any drift in
weights, samples or recipe silently partitions the store instead of
serving stale values.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..accel.simulator import SystolicArraySimulator
    from ..search.evaluator import AccurateEvaluator, FastEvaluator

__all__ = [
    "KERNEL_REVISION",
    "digest",
    "fast_evaluator_fingerprint",
    "accurate_evaluator_fingerprint",
    "samples_fingerprint",
]

#: Revision of the numpy kernels that produce stored values.  All three
#: digests fold it in, so a store filled by older kernels (whose results
#: differ in the last float bits) is never served to newer ones.  Bump it
#: whenever a kernel change can move a stored accuracy, trained result
#: or simulator sample.  Revision 2: per-tap depthwise convolution and
#: segment-exact batch norm.  Revision 3: row-by-row GP posterior mean
#: and the analytic-gradient GP hyperparameter fit.  Revision 4: the
#: batched simulator sums each point's layers left to right, so its
#: totals are ``==`` the scalar simulator's.
KERNEL_REVISION = 4

#: Digest length (hex chars).  64 bits of content hash: collisions are
#: astronomically unlikely at any realistic store population.
DIGEST_CHARS = 16


def _feed(hasher, value) -> None:
    """Deterministically fold one value into the hash."""
    if isinstance(value, np.ndarray):
        hasher.update(str(value.dtype).encode())
        hasher.update(str(value.shape).encode())
        hasher.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (bytes, bytearray)):
        hasher.update(bytes(value))
    elif isinstance(value, float):
        # repr round-trips exactly; hashing the repr keeps the digest
        # stable across numpy scalar vs python float inputs.
        hasher.update(repr(value).encode())
    elif isinstance(value, (list, tuple)):
        hasher.update(b"(")
        for item in value:
            _feed(hasher, item)
            hasher.update(b",")
        hasher.update(b")")
    elif value is None:
        hasher.update(b"None")
    else:
        hasher.update(repr(value).encode())


def digest(*parts) -> str:
    """SHA-256 content digest of the given parts, truncated to hex."""
    hasher = hashlib.sha256()
    for part in parts:
        _feed(hasher, part)
        hasher.update(b";")
    return hasher.hexdigest()[:DIGEST_CHARS]


def _gp_state(gp) -> list:
    """The value-determining state of a fitted GP predictor."""
    scaler = gp._x_scaler
    return [
        float(gp.length_scale),
        float(gp.signal_var),
        float(gp.noise_var),
        gp._x_train,
        gp._alpha,
        float(gp._y_mean),
        float(gp._y_scale),
        scaler.mean,
        scaler.std,
    ]


def fast_evaluator_fingerprint(fast: "FastEvaluator") -> str:
    """Fingerprint of everything a fast evaluation depends on.

    HyperNet weights, both GP fits, the validation subset and the
    evaluation knobs: a cached ``(accuracy, latency, energy)`` triple is
    valid exactly when all of these match.
    """
    weights = [p.data for p in fast.hypernet.parameters()]
    return digest(
        "fast-evaluator",
        KERNEL_REVISION,
        weights,
        _gp_state(fast.latency_gp),
        _gp_state(fast.energy_gp),
        fast.val_images,
        fast.val_labels,
        fast.num_cells,
        fast.stem_channels,
        fast.image_size,
        fast.num_classes,
        fast.eval_batch,
    )


def accurate_evaluator_fingerprint(accurate: "AccurateEvaluator") -> str:
    """Fingerprint of everything a stand-alone training depends on.

    The dataset arrays plus the recipe knobs — but NOT the seed, which is
    part of each record's key (one genotype trains under many seeds).
    """
    dataset = accurate.dataset
    return digest(
        "accurate-evaluator",
        KERNEL_REVISION,
        dataset.train.images,
        dataset.train.labels,
        dataset.val.images,
        dataset.val.labels,
        accurate.num_cells,
        accurate.stem_channels,
        accurate.num_classes,
        accurate.train_epochs,
        accurate.batch_size,
    )


def samples_fingerprint(
    simulator: "SystolicArraySimulator",
    num_cells: int,
    stem_channels: int,
    image_size: int,
    num_classes: int,
) -> str:
    """Fingerprint of the simulator ground-truth configuration.

    A persisted (latency, energy) sample is valid for any process whose
    analytical simulator and network-expansion dims match.
    """
    return digest(
        "simulator-samples",
        KERNEL_REVISION,
        repr(simulator.energy_model),
        num_cells,
        stem_channels,
        image_size,
        num_classes,
    )
