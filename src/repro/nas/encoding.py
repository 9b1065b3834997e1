"""Action-sequence encoding of a co-design point (Sec. III-C).

A candidate solution is the concatenation of the DNN hyper-parameters and
the accelerator configuration:

    lambda = (d_1 .. d_S, c_1 .. c_L)   with S = 40, L = 4

The 40 DNN tokens are, for each cell type (normal then reduction) and each
of the 5 computed nodes, the quadruple ``(input1, input2, op1, op2)``.
The 4 hardware tokens index the PE-array, g_buf, r_buf and dataflow choice
lists of :mod:`repro.accel.config`.  Every position has its own vocabulary
size (input choices grow with the node index), which the RL controller's
per-step softmax heads consume directly.

The tokens are a point's identity all the way through the stack: the
evaluator caches key on them and the service sends them over the wire.
:attr:`CoDesignPoint.tokens` computes them once per point, and
:func:`decode` presets it to the sequence it decoded, so a decoded point
is never encoded again.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from ..accel.config import (
    DATAFLOW_CHOICES,
    GBUF_KB_CHOICES,
    PE_CHOICES,
    RBUF_B_CHOICES,
    AcceleratorConfig,
)
from .genotype import NUM_COMPUTED, CellGenotype, Genotype, NodeSpec
from .ops import NUM_OPS, OP_NAMES, op_index

__all__ = [
    "SEQUENCE_LENGTH",
    "DNN_TOKENS",
    "HW_TOKENS",
    "token_vocab_sizes",
    "encode",
    "encode_genotype",
    "decode",
    "random_sequence",
    "CoDesignPoint",
]

#: S = 40 DNN tokens (2 cells x 5 nodes x 4 choices), L = 4 hardware tokens.
DNN_TOKENS: int = 2 * NUM_COMPUTED * 4
HW_TOKENS: int = 4
SEQUENCE_LENGTH: int = DNN_TOKENS + HW_TOKENS


@dataclass(frozen=True)
class CoDesignPoint:
    """A decoded (DNN architecture, accelerator configuration) pair."""

    genotype: Genotype
    config: AcceleratorConfig

    @cached_property
    def tokens(self) -> tuple[int, ...]:
        """The 44-token action sequence, computed at most once per point.

        Not a dataclass field, so ``==`` and ``hash`` ignore it.  Raises
        ``ValueError`` (on every access, as nothing is cached) when the
        configuration lies off the Table 1 choice lists.
        """
        return (*encode_genotype(self.genotype), *_config_tokens(self.config))

    def describe(self) -> str:
        return f"{self.genotype.name} @ {self.config.describe()}"


def token_vocab_sizes() -> tuple[int, ...]:
    """Vocabulary size of every one of the 44 sequence positions."""
    sizes: list[int] = []
    for _cell in range(2):
        for node_idx in range(2, 2 + NUM_COMPUTED):
            sizes.extend([node_idx, node_idx, NUM_OPS, NUM_OPS])
    sizes.extend(
        [len(PE_CHOICES), len(GBUF_KB_CHOICES), len(RBUF_B_CHOICES), len(DATAFLOW_CHOICES)]
    )
    return tuple(sizes)


_VOCAB = token_vocab_sizes()


#: Bound of each :func:`decode` memo (distinct cell halves, hardware
#: suffixes).  The memoised objects are frozen and ``==`` fresh ones.
_MEMO_SIZE = 1024


def encode(point: CoDesignPoint) -> list[int]:
    """Encode a co-design point as the 44-token action sequence."""
    return list(point.tokens)


def encode_genotype(genotype: Genotype) -> list[int]:
    """Encode a genotype alone as its 40 DNN tokens (no hardware suffix).

    The canonical architecture key for hardware-independent results —
    e.g. the durable store's stand-alone training accuracies, which are
    keyed by these tokens plus the training seed.  Raises ``ValueError``
    for genotypes off the op/input grids, mirroring :func:`encode`.
    """
    tokens: list[int] = []
    for cell in (genotype.normal, genotype.reduce):
        for node in cell.nodes:
            tokens.extend(
                [node.input1, node.input2, op_index(node.op1), op_index(node.op2)]
            )
    if len(tokens) != DNN_TOKENS:
        raise ValueError(
            f"genotype must encode to {DNN_TOKENS} tokens, got {len(tokens)}"
        )
    _check_range(tokens)
    return tokens


def _config_tokens(cfg: AcceleratorConfig) -> tuple[int, int, int, int]:
    """The 4 hardware tokens; ``ValueError`` for an off-grid config."""
    return (
        PE_CHOICES.index((cfg.pe_rows, cfg.pe_cols)),
        GBUF_KB_CHOICES.index(cfg.gbuf_kb),
        RBUF_B_CHOICES.index(cfg.rbuf_bytes),
        DATAFLOW_CHOICES.index(cfg.dataflow),
    )


def decode(tokens: Sequence[int], name: str = "decoded") -> CoDesignPoint:
    """Decode a 44-token action sequence back into a co-design point.

    The point's :attr:`~CoDesignPoint.tokens` is the validated sequence as
    a tuple of plain ints.  Each distinct cell half and hardware suffix is
    built once and then shared through a bounded memo.
    """
    try:
        seq = tuple(map(operator.index, tokens))
    except TypeError as exc:
        raise ValueError(f"tokens must be integers: {exc}") from None
    if len(seq) != SEQUENCE_LENGTH:
        raise ValueError(f"sequence must have {SEQUENCE_LENGTH} tokens, got {len(seq)}")
    half = DNN_TOKENS // 2
    genotype = Genotype(
        normal=_decode_cell(seq[:half], 0),
        reduce=_decode_cell(seq[half:DNN_TOKENS], half),
        name=name,
    )
    point = CoDesignPoint(genotype=genotype, config=_decode_config(seq[DNN_TOKENS:]))
    point.__dict__["tokens"] = seq  # preset the cached property
    return point


@lru_cache(maxsize=_MEMO_SIZE)
def _decode_cell(half: tuple[int, ...], offset: int) -> CellGenotype:
    """The cell of one 20-token half starting at sequence ``offset``."""
    _check_range(half, offset)
    return CellGenotype(
        nodes=tuple(
            NodeSpec(half[i], half[i + 1], OP_NAMES[half[i + 2]], OP_NAMES[half[i + 3]])
            for i in range(0, len(half), 4)
        )
    )


@lru_cache(maxsize=_MEMO_SIZE)
def _decode_config(suffix: tuple[int, ...]) -> AcceleratorConfig:
    """The accelerator configuration of the 4 hardware tokens."""
    _check_range(suffix, DNN_TOKENS)
    pe_idx, gbuf_idx, rbuf_idx, flow_idx = suffix
    rows, cols = PE_CHOICES[pe_idx]
    return AcceleratorConfig(
        pe_rows=rows,
        pe_cols=cols,
        gbuf_kb=GBUF_KB_CHOICES[gbuf_idx],
        rbuf_bytes=RBUF_B_CHOICES[rbuf_idx],
        dataflow=DATAFLOW_CHOICES[flow_idx],
    )


def random_sequence(rng: np.random.Generator) -> list[int]:
    """Uniformly sample a valid token sequence."""
    return [int(rng.integers(0, v)) for v in _VOCAB]


def _check_range(tokens: Sequence[int], offset: int = 0) -> None:
    """Range-check ``tokens`` as sequence positions ``offset, offset+1, ...``."""
    for i, tok in enumerate(tokens, offset):
        vocab = _VOCAB[i]
        if not 0 <= tok < vocab:
            raise ValueError(f"token {tok} at position {i} out of range [0, {vocab})")
