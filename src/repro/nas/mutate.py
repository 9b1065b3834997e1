"""Genotype mutation operator and token distance.

Used by the regularised-evolution baseline (the search strategy behind
AmoebaNet-A, the paper's ref. [9]), which only mutates.  Both functions
work on the 44-token sequence encoding so they cover the *joint* DNN +
hardware space, mutating architecture tokens and accelerator tokens alike.
"""

from __future__ import annotations

import numpy as np

from .encoding import SEQUENCE_LENGTH, token_vocab_sizes

__all__ = ["mutate_sequence", "hamming_distance"]

_VOCAB = token_vocab_sizes()


def mutate_sequence(
    tokens: list[int],
    rng: np.random.Generator,
    n_mutations: int = 1,
) -> list[int]:
    """Return a copy of ``tokens`` with ``n_mutations`` positions re-drawn.

    Each mutated position gets a uniformly random *different* value from its
    vocabulary (positions with vocabulary size 1 are skipped).
    """
    if len(tokens) != SEQUENCE_LENGTH:
        raise ValueError(f"expected {SEQUENCE_LENGTH} tokens, got {len(tokens)}")
    if n_mutations < 1:
        raise ValueError("n_mutations must be >= 1")
    out = list(tokens)
    mutable = [i for i, v in enumerate(_VOCAB) if v > 1]
    for _ in range(n_mutations):
        pos = int(rng.choice(mutable))
        vocab = _VOCAB[pos]
        new = int(rng.integers(0, vocab - 1))
        if new >= out[pos]:
            new += 1  # skip the current value -> guaranteed change
        out[pos] = new
    return out


def hamming_distance(a: list[int], b: list[int]) -> int:
    """Number of differing token positions."""
    if len(a) != len(b):
        raise ValueError("sequences must have equal length")
    return sum(1 for x, y in zip(a, b) if x != y)
