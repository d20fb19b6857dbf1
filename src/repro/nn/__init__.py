"""``repro.nn`` — a from-scratch numpy deep-learning substrate.

Implements the subset of a PyTorch-like API needed by the paper's system:
reverse-mode autograd tensors, convolutional / pooling / normalisation
layers, SGD and Adam optimizers with gradient clipping, and state
serialization with wire-size accounting.
"""

from . import functional
from . import tape
from .arena import ArenaEntry, ArenaStateView, ParameterArena
from .init import kaiming_normal, kaiming_uniform, xavier_uniform
from .modules import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool,
    Identity,
    Linear,
    LoadResult,
    MaxPool2d,
    Module,
    ModuleList,
    Parameter,
    ReLU,
    Sequential,
    Zero,
    set_forward_hook,
)
from .optim import SGD, Adam, CosineAnnealingLR, StepLR, clip_grad_norm
from .serialize import (
    WIRE_DTYPES,
    payload_size_bytes,
    clone_state,
    model_size_megabytes,
    pack_state,
    state_num_parameters,
    state_size_bytes,
    unpack_state,
)
from .tensor import Tensor, as_tensor, concatenate, is_grad_enabled, no_grad, stack

__all__ = [
    "functional",
    "tape",
    "Tensor",
    "as_tensor",
    "concatenate",
    "stack",
    "no_grad",
    "is_grad_enabled",
    "Parameter",
    "Module",
    "LoadResult",
    "ParameterArena",
    "ArenaStateView",
    "ArenaEntry",
    "set_forward_hook",
    "Sequential",
    "ModuleList",
    "Identity",
    "Zero",
    "ReLU",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool",
    "Flatten",
    "Dropout",
    "SGD",
    "Adam",
    "CosineAnnealingLR",
    "StepLR",
    "clip_grad_norm",
    "kaiming_normal",
    "kaiming_uniform",
    "xavier_uniform",
    "pack_state",
    "unpack_state",
    "clone_state",
    "state_num_parameters",
    "state_size_bytes",
    "payload_size_bytes",
    "WIRE_DTYPES",
    "model_size_megabytes",
]
