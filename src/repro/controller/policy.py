"""The RL controller: an architecture-parameter matrix as policy.

Following ProxylessNAS (and Sec. IV-A of the paper), the controller is not
a recurrent network but a learnable matrix ``α`` of shape
``(2, num_edges, NUM_OPERATIONS)`` — one row of operation logits per edge,
for normal and reduction cells.  Per edge,

* Eq. (4) turns logits into softmax probabilities,
* Eq. (5) *binarizes*: samples a one-hot operation choice,
* Eq. (12) gives the analytic policy gradient
  ``∇_α log p(g) = onehot(g) − p``,

which the server evaluates without any backward pass — the key decoupling
that lets participants compute only rewards while the server owns all
architecture updates.

Note on the paper's Eq. (11): the displayed Kronecker delta is typeset
inverted (``0 if i = j``); Eq. (12)'s expanded form
``(−p_1, …, 1 − p_i, …, −p_N)`` is the correct gradient and is what we
implement.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.search_space import NUM_OPERATIONS, ArchitectureMask

__all__ = ["ArchitecturePolicy", "softmax_rows"]


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax over the last axis (Eq. 4)."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class ArchitecturePolicy:
    """Categorical policy over architectures, parameterised by ``α``.

    Parameters
    ----------
    num_edges:
        Edges per cell type (normal / reduction share the count).
    num_ops:
        Candidate operations per edge.
    init_std:
        Standard deviation of the initial logits; near-zero gives a
        near-uniform initial sampling distribution, as in DARTS.
    rng:
        Generator driving both initialisation and sampling.
    """

    def __init__(
        self,
        num_edges: int,
        num_ops: int = NUM_OPERATIONS,
        init_std: float = 1e-3,
        rng: Optional[np.random.Generator] = None,
    ):
        if num_edges < 1:
            raise ValueError(f"num_edges must be >= 1, got {num_edges}")
        if num_ops < 2:
            raise ValueError(f"num_ops must be >= 2, got {num_ops}")
        self.num_edges = num_edges
        self.num_ops = num_ops
        self.rng = rng or np.random.default_rng()
        self.alpha = init_std * self.rng.standard_normal((2, num_edges, num_ops))

    # ------------------------------------------------------------------
    # Distribution queries
    # ------------------------------------------------------------------
    def probabilities(self) -> np.ndarray:
        """Per-edge operation probabilities, shape ``(2, E, N)`` (Eq. 4)."""
        return softmax_rows(self.alpha)

    def sample_mask(self) -> ArchitectureMask:
        """Binarize: draw a one-hot operation per edge (Eq. 5)."""
        probs = self.probabilities()
        normal = [
            self.rng.choice(self.num_ops, p=probs[0, e]) for e in range(self.num_edges)
        ]
        reduce = [
            self.rng.choice(self.num_ops, p=probs[1, e]) for e in range(self.num_edges)
        ]
        return ArchitectureMask(tuple(int(i) for i in normal), tuple(int(i) for i in reduce))

    def log_prob(self, mask: ArchitectureMask) -> float:
        """Log-probability of sampling ``mask`` under the current ``α``."""
        self._check_mask(mask)
        probs = self.probabilities()
        edges = np.arange(self.num_edges)
        return float(
            np.log(probs[0, edges, list(mask.normal)]).sum()
            + np.log(probs[1, edges, list(mask.reduce)]).sum()
        )

    def grad_log_prob(self, mask: ArchitectureMask) -> np.ndarray:
        """Analytic ``∇_α log p(g)`` of shape ``(2, E, N)`` (Eq. 12).

        For each edge the gradient is ``onehot(chosen) − p``; independent
        edges sum in log-space, so rows stack without interaction.
        """
        self._check_mask(mask)
        onehot = np.zeros((2, self.num_edges, self.num_ops))
        edges = np.arange(self.num_edges)
        onehot[0, edges, list(mask.normal)] = 1.0
        onehot[1, edges, list(mask.reduce)] = 1.0
        return onehot - self.probabilities()

    def entropy(self) -> float:
        """Mean per-edge policy entropy — a convergence diagnostic that
        decays toward 0 as the controller commits to an architecture."""
        probs = self.probabilities()
        per_edge = -(probs * np.log(probs + 1e-12)).sum(axis=-1)
        return float(per_edge.mean())

    def mode_mask(self) -> ArchitectureMask:
        """The most likely architecture (used to derive the genotype)."""
        return ArchitectureMask.from_arrays(
            self.alpha[0].argmax(axis=1), self.alpha[1].argmax(axis=1)
        )

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def snapshot(self) -> np.ndarray:
        """Copy of the current ``α`` (stored in the staleness memory 𝔸)."""
        return self.alpha.copy()

    def load(self, alpha: np.ndarray) -> None:
        alpha = np.asarray(alpha)
        if alpha.shape != self.alpha.shape:
            raise ValueError(
                f"alpha shape {alpha.shape} does not match {self.alpha.shape}"
            )
        self.alpha = alpha.copy()

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {"alpha": self.snapshot()}

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        self.load(state["alpha"])

    def _check_mask(self, mask: ArchitectureMask) -> None:
        if len(mask.normal) != self.num_edges or len(mask.reduce) != self.num_edges:
            raise ValueError(
                f"mask has {len(mask.normal)}/{len(mask.reduce)} edges, "
                f"policy expects {self.num_edges}"
            )
