"""The supernet: all candidate operations on all edges of all cells.

The complete model is a stem convolution, a stack of normal/reduction
cells, global average pooling, and a linear classifier.  Cells at one- and
two-thirds depth are reduction cells (channels double, resolution halves),
following DARTS.

Architecture parameters are shared across cells of the same type, so a
sampled architecture is described by two integer vectors: the operation
index per edge for normal cells and for reduction cells.  Sub-models are
extracted as :class:`Supernet` instances whose edges carry only the
sampled operation; their parameter names are a strict subset of the
supernet's, which makes pruning and gradient scatter pure dictionary
operations.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.nn as nn
from repro.nn import Tensor

from .cell import Cell, CellTopology
from .operations import NUM_OPERATIONS

__all__ = ["SupernetConfig", "Supernet", "ArchitectureMask"]


@dataclasses.dataclass(frozen=True)
class SupernetConfig:
    """Structural hyperparameters of the supernet.

    The defaults are the scaled-down sizes used throughout the test and
    benchmark harness (the paper uses 8-20 cells of 4 steps at 32x32).
    """

    num_classes: int = 10
    input_channels: int = 3
    init_channels: int = 8
    num_cells: int = 3
    steps: int = 2
    stem_multiplier: int = 3
    affine: bool = False
    #: dtype every local step computes in (:mod:`repro.federated.compiled`
    #: reads it): float64, the reference, or float32.  A :class:`Supernet`
    #: itself, such as the server's master copy, is always float64.
    compute_dtype: str = "float64"

    def __post_init__(self) -> None:
        if self.num_cells < 1:
            raise ValueError(f"num_cells must be >= 1, got {self.num_cells}")
        if self.init_channels < 1:
            raise ValueError(f"init_channels must be >= 1, got {self.init_channels}")
        if self.compute_dtype not in ("float64", "float32"):
            raise ValueError(f"compute_dtype must be float64 or float32, got {self.compute_dtype!r}")

    @property
    def topology(self) -> CellTopology:
        return CellTopology(self.steps)

    @property
    def num_edges(self) -> int:
        return self.topology.num_edges

    @property
    def reduction_indices(self) -> Tuple[int, ...]:
        """Cell indices that are reduction cells (1/3 and 2/3 depth)."""
        candidates = {self.num_cells // 3, 2 * self.num_cells // 3}
        return tuple(sorted(i for i in candidates if 0 < i < self.num_cells))


@dataclasses.dataclass(frozen=True)
class ArchitectureMask:
    """A sampled architecture: one operation index per edge per cell type.

    This is the binary mask ``g`` of Eq. (5) in integer form —
    ``normal[e] = i`` encodes the one-hot row with a 1 at position ``i``.
    """

    normal: Tuple[int, ...]
    reduce: Tuple[int, ...]

    def __post_init__(self) -> None:
        for name, ops in (("normal", self.normal), ("reduce", self.reduce)):
            for idx in ops:
                if not 0 <= idx < NUM_OPERATIONS:
                    raise ValueError(f"{name} op index {idx} out of range")

    @staticmethod
    def from_arrays(normal: np.ndarray, reduce: np.ndarray) -> "ArchitectureMask":
        return ArchitectureMask(
            tuple(int(i) for i in normal), tuple(int(i) for i in reduce)
        )

    def as_onehot(self) -> np.ndarray:
        """One-hot encoding of shape (2, E, N) matching alpha's layout."""
        num_edges = len(self.normal)
        onehot = np.zeros((2, num_edges, NUM_OPERATIONS))
        onehot[0, np.arange(num_edges), list(self.normal)] = 1.0
        onehot[1, np.arange(num_edges), list(self.reduce)] = 1.0
        return onehot


class Supernet(nn.Module):
    """The full search-space network (or a pruned sub-model of it).

    When ``mask`` is None every edge carries all candidate operations and
    the forward pass requires an explicit :class:`ArchitectureMask` (or
    mixed weights).  When ``mask`` is given, each edge carries exactly the
    sampled operation and ``forward(x)`` needs no architecture argument —
    this is the sub-model that gets shipped to participants.
    """

    def __init__(
        self,
        config: SupernetConfig,
        rng: Optional[np.random.Generator] = None,
        mask: Optional[ArchitectureMask] = None,
    ):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.config = config
        self.mask = mask
        topology = config.topology

        c_cur = config.stem_multiplier * config.init_channels
        self.stem = nn.Sequential(
            nn.Conv2d(config.input_channels, c_cur, 3, padding=1, rng=rng),
            nn.BatchNorm2d(c_cur, affine=config.affine),
        )

        reduction_at = set(config.reduction_indices)
        c_prev_prev, c_prev, channels = c_cur, c_cur, config.init_channels
        self.cells = nn.ModuleList()
        reduction_prev = False
        self._cell_is_reduction: List[bool] = []
        for i in range(config.num_cells):
            reduction = i in reduction_at
            if reduction:
                channels *= 2
            if mask is None:
                edge_ops = None
            else:
                chosen = mask.reduce if reduction else mask.normal
                edge_ops = [[op] for op in chosen]
            cell = Cell(
                topology,
                c_prev_prev,
                c_prev,
                channels,
                reduction,
                reduction_prev,
                affine=config.affine,
                rng=rng,
                edge_op_indices=edge_ops,
            )
            self.cells.append(cell)
            self._cell_is_reduction.append(reduction)
            reduction_prev = reduction
            c_prev_prev, c_prev = c_prev, topology.steps * channels

        self.global_pool = nn.GlobalAvgPool()
        self.classifier = nn.Linear(c_prev, config.num_classes, rng=rng)

    # ------------------------------------------------------------------
    # Forward passes
    # ------------------------------------------------------------------
    def forward(
        self, x, mask: Optional[ArchitectureMask] = None
    ) -> Tensor:
        """Sampled (single-op-per-edge) execution.

        Sub-models use their built-in mask; the full supernet requires an
        explicit one.
        """
        mask = mask or self.mask
        if mask is None:
            raise ValueError("a full supernet needs an ArchitectureMask to run")
        x = nn.as_tensor(x)
        s0 = s1 = self.stem(x)
        for cell, is_reduction in zip(self.cells, self._cell_is_reduction):
            choices = mask.reduce if is_reduction else mask.normal
            s0, s1 = s1, cell(s0, s1, np.asarray(choices))
        return self.classifier(self.global_pool(s1))

    def forward_mixed(self, x, weights_normal: Tensor, weights_reduce: Tensor) -> Tensor:
        """Softmax-mixed execution over all ops (DARTS / FedNAS baselines).

        ``weights_*`` have shape ``(num_edges, NUM_OPERATIONS)``.
        """
        if self.mask is not None:
            raise ValueError("mixed execution requires the full supernet")
        x = nn.as_tensor(x)
        s0 = s1 = self.stem(x)
        for cell, is_reduction in zip(self.cells, self._cell_is_reduction):
            weights = weights_reduce if is_reduction else weights_normal
            s0, s1 = s1, cell.forward_mixed(s0, s1, weights)
        return self.classifier(self.global_pool(s1))

    # ------------------------------------------------------------------
    # Sub-model extraction (prune(θ, g), Alg. 1 line 8)
    # ------------------------------------------------------------------
    def extract_submodel(
        self, mask: ArchitectureMask, rng: Optional[np.random.Generator] = None
    ) -> "Supernet":
        """Build the pruned sub-model for ``mask`` with weights copied in.

        The returned model's parameter names are a subset of this
        supernet's names, so its state can be scattered back verbatim.
        """
        if self.mask is not None:
            raise ValueError("cannot extract a sub-model from a sub-model")
        self._check_mask(mask)
        sub = Supernet(self.config, rng=rng or np.random.default_rng(0), mask=mask)
        own_state = self.state_dict()
        sub_state = {name: own_state[name] for name in sub.state_dict()}
        sub.load_state_dict(sub_state)
        return sub

    def submodel_state(self, mask: ArchitectureMask) -> Dict[str, np.ndarray]:
        """The state-dict subset a sub-model for ``mask`` would carry.

        This is what actually travels over the (simulated) network; its
        size drives the adaptive-transmission scheduler.

        .. warning::
            The returned arrays are *live views* of the supernet's
            parameters and buffers, not copies — this is the round hot
            path, called once per participant per round.  Consumers must
            copy before mutating (``load_state_dict`` and the wire codecs
            already do), and must not hold the dict across a server
            optimizer step if they need the pre-step values.
        """
        names = self.submodel_parameter_names(mask)
        # Buffers are *replaced* (not mutated) by BN aggregation and
        # load_state_dict, so the name → array map is rebuilt per call.
        # The module-tree *walk* is cached, though: the tree is fixed
        # after construction and Parameter objects are stable, so only
        # ``.data`` / ``_buffers[...]`` reads happen per call.
        rows = self.__dict__.get("_live_rows")
        if rows is None:
            rows = self.__dict__["_live_rows"] = (
                list(self.named_parameters()),
                list(self._named_buffer_owners().items()),
            )
        params, buffer_owners = rows
        live: Dict[str, np.ndarray] = {
            name: param.data for name, param in params
        }
        for name, (module, local) in buffer_owners:
            live[name] = module._buffers[local]
        return {name: live[name] for name in names}

    def submodel_parameter_names(self, mask: ArchitectureMask) -> List[str]:
        """Names of supernet state entries present in ``mask``'s sub-model."""
        self._check_mask(mask)
        kept: List[str] = []
        for name, edge_ref in self._state_edge_refs():
            if edge_ref is None:
                kept.append(name)
                continue
            cell_idx, edge_idx, op_idx = edge_ref
            chosen = (
                mask.reduce if self._cell_is_reduction[cell_idx] else mask.normal
            )
            if chosen[edge_idx] == op_idx:
                kept.append(name)
        return kept

    def _state_edge_refs(self) -> List[Tuple[str, Optional[Tuple[int, int, int]]]]:
        """Cached ``(state name, parsed edge reference)`` pairs.

        The name set and order (parameters then buffers, exactly
        ``state_dict()`` order) are fixed at construction, so parsing
        ``cells.<c>.edges.<e>.<op>`` once per name is enough.
        """
        cached = getattr(self, "_state_edge_refs_cache", None)
        if cached is None:
            names = [name for name, _ in self.named_parameters()]
            names += [name for name, _ in self.named_buffers()]
            cached = [(name, self._parse_edge_reference(name)) for name in names]
            self._state_edge_refs_cache = cached
        return cached

    def scatter_gradients(
        self, gradients: Dict[str, np.ndarray]
    ) -> Dict[str, np.ndarray]:
        """Expand a sub-model gradient dict to full supernet coverage.

        Operations never sampled receive zero gradient (Sec. IV-B: "we
        define the gradient of such an operation as zero").
        """
        full: Dict[str, np.ndarray] = {}
        for name, param in self.named_parameters():
            if name in gradients:
                full[name] = gradients[name]
            else:
                full[name] = np.zeros_like(param.data)
        return full

    def _check_mask(self, mask: ArchitectureMask) -> None:
        expected = self.config.num_edges
        if len(mask.normal) != expected or len(mask.reduce) != expected:
            raise ValueError(
                f"mask has {len(mask.normal)}/{len(mask.reduce)} edges, expected {expected}"
            )

    def _parse_edge_reference(
        self, name: str
    ) -> Optional[Tuple[int, int, int]]:
        """Decode ``cells.<c>.edges.<e>.<op>...`` names; None otherwise."""
        parts = name.split(".")
        if len(parts) >= 5 and parts[0] == "cells" and parts[2] == "edges":
            return int(parts[1]), int(parts[3]), int(parts[4])
        return None
