"""Neural-architecture-search substrate: the cell search space, sequence
encoding, concrete networks, and the one-shot HyperNet of YOSO."""

from .encoding import (
    DNN_TOKENS,
    HW_TOKENS,
    SEQUENCE_LENGTH,
    CoDesignPoint,
    decode,
    encode,
    random_sequence,
    token_vocab_sizes,
)
from .genotype import NUM_COMPUTED, NUM_NODES, CellGenotype, Genotype, NodeSpec
from .hypernet import EpochStats, HyperNet, HyperNetTrainer, MixedCell
from .mutate import hamming_distance, mutate_sequence
from .network import Cell, CellNetwork
from .ops import NUM_OPS, OP_NAMES, OPS, OpSpec, build_op, op_index
from .space import DnnSpace, paper_space_size
from .train import TrainResult, evaluate_accuracy, train_network

__all__ = [
    "CoDesignPoint",
    "encode",
    "decode",
    "random_sequence",
    "token_vocab_sizes",
    "SEQUENCE_LENGTH",
    "DNN_TOKENS",
    "HW_TOKENS",
    "Genotype",
    "CellGenotype",
    "NodeSpec",
    "NUM_NODES",
    "NUM_COMPUTED",
    "HyperNet",
    "HyperNetTrainer",
    "MixedCell",
    "EpochStats",
    "Cell",
    "CellNetwork",
    "OPS",
    "OpSpec",
    "OP_NAMES",
    "NUM_OPS",
    "build_op",
    "op_index",
    "DnnSpace",
    "paper_space_size",
    "TrainResult",
    "train_network",
    "evaluate_accuracy",
    "mutate_sequence",
    "hamming_distance",
]
