"""Tests for the 44-token action-sequence encoding."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel.config import (
    DATAFLOW_CHOICES,
    GBUF_KB_CHOICES,
    PE_CHOICES,
    RBUF_B_CHOICES,
    AcceleratorConfig,
)
from repro.nas import encoding
from repro.nas.encoding import (
    DNN_TOKENS,
    HW_TOKENS,
    SEQUENCE_LENGTH,
    CoDesignPoint,
    decode,
    encode,
    random_sequence,
    token_vocab_sizes,
)
from repro.nas.genotype import NUM_COMPUTED, CellGenotype, Genotype, NodeSpec
from repro.nas.ops import NUM_OPS, OP_NAMES
from repro.search.evaluator import BatchEvaluator


def rebuilt(point: CoDesignPoint) -> CoDesignPoint:
    """``point`` over the same objects but with no cached tokens, so that
    encoding it reads the objects ``decode`` built, not its preset key."""
    return CoDesignPoint(point.genotype, point.config)


def token_sequences():
    vocab = token_vocab_sizes()
    return st.tuples(*[st.integers(0, v - 1) for v in vocab]).map(list)


class TestVocab:
    def test_sequence_length_matches_paper(self):
        # S = 40 DNN hyper-parameters, L = 4 accelerator parameters.
        assert DNN_TOKENS == 40
        assert HW_TOKENS == 4
        assert SEQUENCE_LENGTH == 44

    def test_vocab_length(self):
        assert len(token_vocab_sizes()) == SEQUENCE_LENGTH

    def test_input_vocab_grows_with_node_index(self):
        vocab = token_vocab_sizes()
        # First cell: nodes 2..6 -> quads (i, i, 6, 6).
        for offset, node_idx in enumerate(range(2, 2 + NUM_COMPUTED)):
            quad = vocab[offset * 4 : offset * 4 + 4]
            assert quad == (node_idx, node_idx, NUM_OPS, NUM_OPS)

    def test_hw_vocab_sizes(self):
        vocab = token_vocab_sizes()
        assert vocab[-4:] == (
            len(PE_CHOICES),
            len(GBUF_KB_CHOICES),
            len(RBUF_B_CHOICES),
            len(DATAFLOW_CHOICES),
        )


class TestRoundtrip:
    def test_simple_roundtrip(self, rng):
        seq = random_sequence(rng)
        assert encode(rebuilt(decode(seq))) == seq

    @given(token_sequences())
    @settings(deadline=None, max_examples=100)
    def test_roundtrip_property(self, seq):
        point = decode(seq)
        assert encode(rebuilt(point)) == seq

    @given(token_sequences())
    @settings(deadline=None, max_examples=50)
    def test_decoded_points_valid(self, seq):
        point = decode(seq)
        assert point.genotype.normal.loose_ends()
        assert (point.config.pe_rows, point.config.pe_cols) in PE_CHOICES
        assert point.config.gbuf_kb in GBUF_KB_CHOICES
        assert point.config.rbuf_bytes in RBUF_B_CHOICES
        assert point.config.dataflow in DATAFLOW_CHOICES

    def test_encode_of_fixture(self, genotype, hw_config):
        point = CoDesignPoint(genotype=genotype, config=hw_config)
        seq = encode(point)
        restored = decode(seq)
        assert restored.genotype.normal == genotype.normal
        assert restored.config == hw_config


class TestValidation:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            decode([0] * (SEQUENCE_LENGTH - 1))

    def test_out_of_range_token_rejected(self, rng):
        seq = random_sequence(rng)
        seq[0] = 99
        with pytest.raises(ValueError):
            decode(seq)

    def test_negative_token_rejected(self, rng):
        seq = random_sequence(rng)
        seq[3] = -1
        with pytest.raises(ValueError):
            decode(seq)

    def test_random_sequences_always_valid(self):
        rng = np.random.default_rng(9)
        vocab = token_vocab_sizes()
        for _ in range(50):
            seq = random_sequence(rng)
            assert len(seq) == SEQUENCE_LENGTH
            assert all(0 <= t < v for t, v in zip(seq, vocab))

    def test_describe(self, genotype, hw_config):
        point = CoDesignPoint(genotype=genotype, config=hw_config)
        text = point.describe()
        assert "fixture" in text
        assert "16*16" in text


def fresh_point(seq: list[int], name: str = "decoded") -> CoDesignPoint:
    """The point of ``seq`` built from new objects, bypassing ``decode``."""
    cells = []
    for cell in range(2):
        nodes = []
        for node in range(NUM_COMPUTED):
            i = cell * (DNN_TOKENS // 2) + node * 4
            nodes.append(
                NodeSpec(seq[i], seq[i + 1], OP_NAMES[seq[i + 2]], OP_NAMES[seq[i + 3]])
            )
        cells.append(CellGenotype(nodes=tuple(nodes)))
    rows, cols = PE_CHOICES[seq[DNN_TOKENS]]
    config = AcceleratorConfig(
        pe_rows=rows,
        pe_cols=cols,
        gbuf_kb=GBUF_KB_CHOICES[seq[DNN_TOKENS + 1]],
        rbuf_bytes=RBUF_B_CHOICES[seq[DNN_TOKENS + 2]],
        dataflow=DATAFLOW_CHOICES[seq[DNN_TOKENS + 3]],
    )
    return CoDesignPoint(Genotype(cells[0], cells[1], name=name), config)


class TestTokensKey:
    """``CoDesignPoint.tokens`` is the point's key: decoded once, never
    re-encoded, and blind to how the point's objects were built."""

    @given(token_sequences())
    @settings(deadline=None, max_examples=100)
    def test_decode_presets_the_validated_tokens(self, seq):
        point = decode(seq)
        assert encode(rebuilt(point)) == seq
        assert point.tokens == tuple(seq)
        assert all(type(tok) is int for tok in point.tokens)

    @given(token_sequences())
    @settings(deadline=None, max_examples=100)
    def test_decoded_point_equals_a_freshly_built_one(self, seq):
        decoded, fresh = decode(seq), fresh_point(seq)
        assert decoded == fresh
        assert hash(decoded) == hash(fresh)
        assert "tokens" not in vars(fresh)
        assert fresh.tokens == decoded.tokens

    @given(token_sequences())
    @settings(deadline=None, max_examples=25)
    def test_batch_evaluator_keys_both_as_one_entry(self, smoke_context, seq):
        evaluator = BatchEvaluator(smoke_context.fast_evaluator)
        decoded, fresh = decode(seq), fresh_point(seq)
        first = evaluator.evaluate(decoded)
        assert evaluator.evaluate(fresh) is first
        assert list(evaluator._lru) == [tuple(seq)]
        assert (evaluator.hits, evaluator.misses) == (1, 1)

    @given(token_sequences())
    @settings(deadline=None, max_examples=25)
    def test_off_grid_config_keys_by_objects_and_caches_no_tokens(self, seq):
        genotype = decode(seq).genotype
        off_grid = AcceleratorConfig(
            pe_rows=3, pe_cols=5, gbuf_kb=100, rbuf_bytes=100, dataflow="WS"
        )
        point = CoDesignPoint(genotype, off_grid)
        key = BatchEvaluator.key_of(point)
        assert key == (genotype.normal, genotype.reduce, off_grid)
        for _ in range(2):
            with pytest.raises(ValueError):
                point.tokens
            assert "tokens" not in vars(point)

    def test_bool_and_numpy_tokens_decode_to_plain_ints(self, rng):
        seq = random_sequence(rng)
        seq[0] = bool(seq[0])  # node 2's first input is always 0 or 1
        mixed = [np.int64(tok) for tok in seq[1:]]
        point = decode([seq[0], *mixed])
        assert all(type(tok) is int for tok in point.tokens)
        assert point.tokens == tuple(int(tok) for tok in seq)

    def test_non_integer_tokens_rejected(self, rng):
        seq = random_sequence(rng)
        seq[5] = 1.0
        with pytest.raises(ValueError, match="integers"):
            decode(seq)

    def test_decode_memo_is_bounded_and_shares_frozen_objects(self, rng):
        seq = random_sequence(rng)
        a, b = decode(seq, name="a"), decode(seq, name="b")
        assert a != b  # the genotype name is part of the point
        assert a.genotype.normal is b.genotype.normal
        assert a.config is b.config
        for memo in (encoding._decode_cell, encoding._decode_config):
            assert memo.cache_info().maxsize == encoding._MEMO_SIZE
