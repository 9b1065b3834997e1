"""Numpy deep-learning substrate used to train and evaluate YOSO networks.

The paper implements its HyperNet and candidate networks in TensorFlow on a
GPU; this package provides the equivalent primitives (convolutions,
batch-norm, pooling, SGD/Adam, cosine LR schedule, data pipeline) in pure
numpy so the whole system runs offline on CPU.
"""

from . import functional
from .data import BatchIterator, SyntheticCifar, random_crop_flip
from .layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    DepthwiseConv2d,
    FactorizedReduce,
    GlobalAvgPool,
    Identity,
    Linear,
    MaxPool2d,
    PoolBN,
    ReLU,
    ReLUConvBN,
    SeparableConv2d,
    Sequential,
)
from .module import Module, Parameter
from .optim import SGD, Adam, CosineSchedule, clip_grad_norm

__all__ = [
    "functional",
    "SyntheticCifar",
    "BatchIterator",
    "random_crop_flip",
    "Module",
    "Parameter",
    "SGD",
    "Adam",
    "CosineSchedule",
    "clip_grad_norm",
    "Conv2d",
    "DepthwiseConv2d",
    "SeparableConv2d",
    "BatchNorm2d",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool",
    "Linear",
    "Identity",
    "ReLUConvBN",
    "PoolBN",
    "FactorizedReduce",
    "Sequential",
]
