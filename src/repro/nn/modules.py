"""Layer / module system for the :mod:`repro.nn` substrate.

A :class:`Module` owns :class:`Parameter` leaves and child modules and
provides PyTorch-style traversal (``parameters``, ``named_parameters``,
``state_dict``), train/eval mode, and gradient zeroing.  Composite layers
(``Conv2d``, ``BatchNorm2d``, ``Linear``, pooling, containers) are built on
top of :mod:`repro.nn.functional`.
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from collections import OrderedDict
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from . import functional as F
from . import init
from .tensor import Tensor, as_tensor

__all__ = [
    "Parameter",
    "Module",
    "LoadResult",
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
]


class Parameter(Tensor):
    """A trainable tensor: a leaf with ``requires_grad=True``."""

    def __init__(self, data: np.ndarray):
        super().__init__(np.asarray(data, dtype=np.float64), requires_grad=True)


#: Optional process-global forward profiling hook (see
#: :func:`set_forward_hook`).  ``None`` keeps ``Module.__call__`` on the
#: historical zero-overhead path — one global read per call.
_FORWARD_HOOK: Optional[Callable] = None


def set_forward_hook(hook: Optional[Callable]) -> Optional[Callable]:
    """Install (or clear, with ``None``) the per-op forward hook.

    While installed, every ``Module.__call__`` invokes
    ``hook(module, args, duration_s)`` after ``forward`` returns, where
    ``duration_s`` is the *inclusive* wall time of the call (nested
    module calls fire their own hook).  Returns the previously installed
    hook so profilers can nest and restore.  The hook is observation
    only: it must not mutate tensors, and nothing on this path touches
    an RNG — seeded results are bit-identical with a hook installed.
    """
    global _FORWARD_HOOK
    previous = _FORWARD_HOOK
    _FORWARD_HOOK = hook
    return previous


@dataclasses.dataclass(frozen=True)
class LoadResult:
    """Outcome of :meth:`Module.apply_state` / ``load_state_dict``.

    ``missing`` / ``unexpected`` are key names; ``mismatched`` holds
    ``(name, own_shape, given_shape)`` for keys whose arrays could not
    be applied because the shapes disagree (skipped, never silently
    dropped).
    """

    missing: List[str]
    unexpected: List[str]
    mismatched: List[Tuple[str, Tuple[int, ...], Tuple[int, ...]]]

    @property
    def ok(self) -> bool:
        return not (self.missing or self.unexpected or self.mismatched)


class Module:
    """Base class for all neural-network layers and models."""

    def __init__(self) -> None:
        self._parameters: "OrderedDict[str, Parameter]" = OrderedDict()
        self._buffers: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._modules: "OrderedDict[str, Module]" = OrderedDict()
        self.training = True
        # Set on the *root* module by ParameterArena.attach(); when
        # present, state_dict() serves read-only arena views.
        self._arena = None

    # ------------------------------------------------------------------
    # Attribute registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", OrderedDict())[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", OrderedDict())[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state (e.g. batch-norm running stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def _set_buffer(self, name: str, value: np.ndarray) -> None:
        """Update a registered buffer, keeping the attribute in sync."""
        if name not in self._buffers:
            raise KeyError(f"no buffer named {name!r}")
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, child in self._modules.items():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name in self._buffers:
            yield prefix + name, self._buffers[name]
        for name, child in self._modules.items():
            yield from child.named_buffers(prefix + name + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def children(self) -> Iterator["Module"]:
        return iter(self._modules.values())

    # ------------------------------------------------------------------
    # Mode and gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def state_dict(self) -> Mapping[str, np.ndarray]:
        """Snapshot all parameters and buffers.

        Without an arena: a plain dict of copied arrays (historical
        behaviour).  With a :class:`repro.nn.ParameterArena` attached:
        a read-only :class:`repro.nn.ArenaStateView` over the live
        buffer — same keys, same iteration order, zero copies.  Use
        :meth:`apply_state` to write state back.
        """
        arena = getattr(self, "_arena", None)
        if arena is not None:
            return arena.state_view()
        state: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state[name] = np.array(buf, copy=True)
        return state

    def apply_state(
        self, state: Mapping[str, np.ndarray], strict: bool = False
    ) -> "LoadResult":
        """Write ``state`` into this module's parameters and buffers.

        The sanctioned write API: every array is written *in place*
        (``arr[...] = value``), so arena views, optimizer references,
        and buffer attributes all stay bound.  With ``strict=False``
        missing/unexpected/shape-mismatched keys are skipped and
        reported in the returned :class:`LoadResult`; with
        ``strict=True`` a shape mismatch raises ``ValueError`` and
        missing/unexpected keys raise ``KeyError``.
        """
        params = dict(self.named_parameters())
        own_buffers = self._named_buffer_owners()
        missing: List[str] = []
        mismatched: List[Tuple[str, Tuple[int, ...], Tuple[int, ...]]] = []

        def _write(name: str, target: np.ndarray) -> None:
            value = np.asarray(state[name])
            if target.shape != value.shape:
                if strict:
                    raise ValueError(
                        f"shape mismatch for {name}: "
                        f"{target.shape} vs {value.shape}"
                    )
                mismatched.append((name, target.shape, value.shape))
                return
            target[...] = value

        for name, param in params.items():
            if name in state:
                _write(name, param.data)
            else:
                missing.append(name)
        for name, (module, local) in own_buffers.items():
            if name in state:
                _write(name, module._buffers[local])
            else:
                missing.append(name)
        known = set(params) | set(own_buffers)
        unexpected = [k for k in state if k not in known]
        if strict and (missing or unexpected):
            raise KeyError(f"missing keys {missing}, unexpected keys {unexpected}")
        return LoadResult(missing, unexpected, mismatched)

    def load_state_dict(
        self, state: Mapping[str, np.ndarray], strict: bool = True
    ) -> "LoadResult":
        """Legacy alias for :meth:`apply_state`.

        Deprecated on arena-attached modules — the arena made in-place
        application the only defined write path, and new code should
        say so by calling :meth:`apply_state` directly.
        """
        if getattr(self, "_arena", None) is not None:
            warnings.warn(
                "load_state_dict() on an arena-attached module is "
                "deprecated; call apply_state() instead",
                DeprecationWarning,
                stacklevel=2,
            )
        return self.apply_state(state, strict=strict)

    def _named_buffer_owners(
        self, prefix: str = ""
    ) -> Dict[str, Tuple["Module", str]]:
        owners: Dict[str, Tuple[Module, str]] = {}
        for name in self._buffers:
            owners[prefix + name] = (self, name)
        for name, child in self._modules.items():
            owners.update(child._named_buffer_owners(prefix + name + "."))
        return owners

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(p.size for p in self.parameters())

    def size_bytes(self) -> int:
        """Serialized size of parameters in bytes (float32 on the wire)."""
        return 4 * self.num_parameters()

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        hook = _FORWARD_HOOK
        if hook is None:
            return self.forward(*args, **kwargs)
        start = time.perf_counter()
        out = self.forward(*args, **kwargs)
        hook(self, args, time.perf_counter() - start)
        return out


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            self._modules[str(i)] = layer

    def forward(self, x) -> Tensor:
        x = as_tensor(x)
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self) -> Iterator[Module]:
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]


class ModuleList(Module):
    """List container registering its elements as child modules."""

    def __init__(self, modules: Optional[Sequence[Module]] = None):
        super().__init__()
        self._items: List[Module] = []
        for module in modules or []:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self._modules[str(len(self._items))] = module
        self._items.append(module)
        return self

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]


class Identity(Module):
    """Pass-through layer (the DARTS ``skip_connect`` on stride-1 edges)."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Zero(Module):
    """The DARTS ``none`` operation: outputs zeros, optionally strided."""

    def __init__(self, stride: int = 1):
        super().__init__()
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        if self.stride == 1:
            return x * 0.0
        return x[:, :, :: self.stride, :: self.stride] * 0.0


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Linear(Module):
    """Affine layer ``y = x W^T + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x) -> Tensor:
        return F.linear(as_tensor(x), self.weight, self.bias)


class Conv2d(Module):
    """2-D convolution layer; parameters mirror ``torch.nn.Conv2d``."""

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: F.IntPair,
        stride: F.IntPair = 1,
        padding: F.IntPair = 0,
        dilation: F.IntPair = 1,
        groups: int = 1,
        bias: bool = False,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        kh, kw = F._pair(kernel_size)
        if in_channels % groups:
            raise ValueError(f"in_channels {in_channels} not divisible by groups {groups}")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = (kh, kw)
        self.stride = stride
        self.padding = padding
        self.dilation = dilation
        self.groups = groups
        self.weight = Parameter(
            init.kaiming_uniform((out_channels, in_channels // groups, kh, kw), rng)
        )
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x) -> Tensor:
        return F.conv2d(
            as_tensor(x),
            self.weight,
            self.bias,
            stride=self.stride,
            padding=self.padding,
            dilation=self.dilation,
            groups=self.groups,
        )


class BatchNorm2d(Module):
    """Batch normalisation over the channel axis of NCHW input.

    Training mode normalises with batch statistics and updates running
    estimates; eval mode uses the running estimates.  ``affine=False``
    matches the DARTS search-phase convention (no learnable scale/shift
    while architectures are still changing).
    """

    def __init__(
        self,
        num_features: int,
        eps: float = 1e-5,
        momentum: float = 0.1,
        affine: bool = True,
    ):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.affine = affine
        if affine:
            self.weight = Parameter(np.ones(num_features))
            self.bias = Parameter(np.zeros(num_features))
        else:
            self.weight = None
            self.bias = None
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects NCHW input, got shape {x.shape}")
        if self.training:
            xhat = _batch_norm_train(x, self)
        else:
            mu = self.running_mean.reshape(1, -1, 1, 1)
            sigma = np.sqrt(self.running_var.reshape(1, -1, 1, 1) + self.eps)
            xhat = (x - Tensor(mu)) / Tensor(sigma)
        if self.affine:
            gamma = self.weight.reshape(1, self.num_features, 1, 1)
            beta = self.bias.reshape(1, self.num_features, 1, 1)
            return xhat * gamma + beta
        return xhat


def _batch_norm_train(x: Tensor, bn: BatchNorm2d) -> Tensor:
    """``(x - mean) / sqrt(var + eps)`` over batch statistics as one graph
    node, updating ``bn``'s running statistics from the same arrays.

    It is the eleven-op chain it replaced — sum, ×1/N, neg, add, square,
    sum, ×1/N, +eps, sqrt, div — with the same numpy expressions in the
    same order, and its backward runs that chain's walk: the same
    products, ``diff``'s three gradient terms summed in the chain's
    order, and ``x``'s gradient as the centring path's plus the mean
    path's, added in the chain's order.  So it is bit-identical to it,
    not the closed-form backward.

    With ``m`` members stacked in ``x`` (its ``MemberGroup``) each
    member's slice of the batch takes its own statistics, and the
    running-statistic updates go to the group's ``buffer_rows``.
    """
    members = x.members
    if bn.affine and members > 1:
        # The affine parameters' gradients would sum over all members.
        raise ValueError("affine batch norm cannot stack members")
    n, c, h, w = x.shape
    rows = n // members
    dtype = x.data.dtype
    five = (members, rows, c, h, w)
    stat = (members, 1, c, 1, 1)
    scale = np.asarray(1.0 / float(rows * h * w), dtype=dtype)
    eps = np.asarray(bn.eps, dtype=dtype)
    # Axes a gradient into a (1, C, 1, 1) statistic is summed over — the
    # stretched ones, as ``_unbroadcast`` picks them — offset past the
    # member axis.
    stretched = tuple(a + 1 for a, size in ((0, rows), (2, h), (3, w)) if size != 1)
    mu, sigma2, std, small = (np.empty(stat, dtype) for _ in range(4))
    # Saved for backward: the centred input and the std.  The output is
    # forward's alone.
    diff = np.empty(five, dtype)
    out = np.empty(five, dtype)
    xn = x._node
    # One reduction over the (members, rows, ...) view sums each member's
    # block in the order numpy sums that block alone.
    x5 = np.ascontiguousarray(x.data).reshape(five)
    x5.sum(axis=(1, 3, 4), keepdims=True, out=small)
    np.multiply(small, scale, out=mu)
    np.negative(mu, out=small)
    np.add(x5, small, out=diff)
    # The squares go where the output will: nothing reads it before.
    np.multiply(diff, diff, out=out)
    out.sum(axis=(1, 3, 4), keepdims=True, out=small)
    np.multiply(small, scale, out=sigma2)
    momentum = bn.momentum
    for name, stats in (("running_mean", mu), ("running_var", sigma2)):
        buffer = bn._buffers[name]
        value = (1 - momentum) * buffer + momentum * stats.reshape(members, c)
        if members == 1:
            buffer[...] = value[0]
        else:
            x._node.group.buffer_rows[id(buffer)] = value
    np.add(sigma2, eps, out=std)
    np.sqrt(std, out=std)
    np.divide(diff, std, out=out)

    def reduce(a: np.ndarray) -> np.ndarray:
        return a.sum(axis=stretched, keepdims=True) if stretched else a.copy()

    def backward(grad: np.ndarray) -> None:
        g_diff, scratch = np.empty(five, dtype), np.empty(five, dtype)
        g = grad.reshape(five)
        # div: d/d diff, then d/d std.
        np.divide(g, std, out=g_diff)
        np.multiply(g, diff, out=scratch)
        np.negative(scratch, out=scratch)
        np.multiply(std, std, out=small)
        np.divide(scratch, small, out=scratch)
        g_stat = reduce(scratch)
        # sqrt, +eps, ×1/N: d/d (sum of squares), broadcast over the batch.
        np.multiply(g_stat, 0.5, out=g_stat)
        np.divide(g_stat, std, out=g_stat)
        np.multiply(g_stat, scale, out=g_stat)
        # square: diff's gradient gains the same product twice.
        np.multiply(diff, g_stat, out=scratch)
        np.add(g_diff, scratch, out=g_diff)
        np.add(g_diff, scratch, out=g_diff)
        # add, neg, ×1/N, sum: x takes diff's gradient, then the mean's
        # (reduced from diff's) broadcast over the batch.
        g_mean = reduce(g_diff)
        np.negative(g_mean, out=g_mean)
        np.multiply(g_mean, scale, out=g_mean)
        if xn._grad is None:
            # x's two accumulations in one pass: the same sums, one array.
            np.add(g_diff, g_mean, out=scratch)
            xn._accumulate(scratch.reshape(xn.shape))
        else:
            xn._accumulate(g_diff.reshape(xn.shape))
            np.copyto(scratch, g_mean)
            xn._accumulate(scratch.reshape(xn.shape))

    return Tensor._make(out.reshape(x.shape), (xn,), backward)


class MaxPool2d(Module):
    def __init__(self, kernel_size: F.IntPair, stride: Optional[F.IntPair] = None, padding: F.IntPair = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride, self.padding)


class AvgPool2d(Module):
    def __init__(
        self,
        kernel_size: F.IntPair,
        stride: Optional[F.IntPair] = None,
        padding: F.IntPair = 0,
        count_include_pad: bool = False,
    ):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.count_include_pad = count_include_pad

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(
            x, self.kernel_size, self.stride, self.padding, self.count_include_pad
        )


class GlobalAvgPool(Module):
    """Global average pooling followed by flatten: NCHW -> NC."""

    def forward(self, x: Tensor) -> Tensor:
        return x.mean(axis=(2, 3))


class Flatten(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.flatten(x)


class Dropout(Module):
    def __init__(self, p: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.p = p
        self.rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, self.rng)
