"""REINFORCE machinery: reward baseline and the policy-gradient estimator.

Implements Eq. (7)-(10) of the paper: the expected reward objective, its
Monte-Carlo policy gradient over the sub-models trained in a round, and
the moving-average reward baseline (Eq. 8-9) that reduces the variance of
the estimator.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.search_space import ArchitectureMask

from .policy import ArchitecturePolicy

__all__ = ["MovingAverageBaseline", "ReinforceEstimator", "AlphaOptimizer"]


class MovingAverageBaseline:
    """Exponential moving average of round-mean accuracies (Eq. 9).

    ``b_{t+1} = β · mean_m ACC(N_{g^m}) + (1 − β) · b_t``;  the reward
    passed to the estimator is ``ACC − b`` (Eq. 8).
    """

    def __init__(self, decay: float = 0.99, initial: float = 0.0):
        if not 0.0 < decay <= 1.0:
            raise ValueError(f"baseline decay must be in (0, 1], got {decay}")
        self.decay = decay
        self.value = float(initial)

    def advantage(self, accuracy: float) -> float:
        """Centre an accuracy observation with the current baseline."""
        return accuracy - self.value

    def update(self, accuracies: Sequence[float]) -> float:
        """Fold a round of accuracies into the baseline; returns new value.

        Non-finite observations (NaN/Inf rewards from corrupted or
        degraded rounds) are ignored — one poisoned value would
        otherwise stick in the moving average forever.
        """
        finite = [a for a in accuracies if np.isfinite(a)]
        if not finite:
            return self.value
        round_mean = float(np.mean(finite))
        self.value = self.decay * round_mean + (1.0 - self.decay) * self.value
        return self.value

    def state_dict(self) -> Dict[str, float]:
        return {"value": self.value, "decay": self.decay}

    def load_state_dict(self, state: Mapping[str, float]) -> None:
        self.value = float(state["value"])
        self.decay = float(state["decay"])


class ReinforceEstimator:
    """Accumulates the Monte-Carlo policy gradient of Eq. (10).

    Per observation ``(mask, reward)`` the contribution is
    ``reward · ∇_α log p(mask)``; :meth:`gradient` returns the mean over
    the round's ``M`` observations.  Gradients of log-probabilities may be
    supplied directly (the delay-compensated path repairs them first).
    """

    def __init__(self, policy: ArchitecturePolicy):
        self.policy = policy
        self._terms: List[np.ndarray] = []

    def add(self, mask: ArchitectureMask, reward: float) -> None:
        """Record a fresh observation sampled from the current policy."""
        self._terms.append(reward * self.policy.grad_log_prob(mask))

    def add_gradient_term(self, term: np.ndarray) -> None:
        """Record a pre-computed ``reward · ∇ log p`` term (stale path)."""
        term = np.asarray(term)
        if term.shape != self.policy.alpha.shape:
            raise ValueError(
                f"gradient term shape {term.shape} != alpha shape {self.policy.alpha.shape}"
            )
        self._terms.append(term)

    @property
    def count(self) -> int:
        return len(self._terms)

    def gradient(self) -> np.ndarray:
        """Mean accumulated ascent direction ``∇_α J`` (Eq. 10)."""
        if not self._terms:
            raise RuntimeError("no observations recorded this round")
        return np.mean(self._terms, axis=0)

    def reset(self) -> None:
        self._terms.clear()


@dataclasses.dataclass
class AlphaOptimizer:
    """Gradient-ascent update for ``α`` with weight decay and clipping.

    Matches Table I: learning rate 0.003, weight decay 1e-4, gradient
    clip 5 (global L2 norm).
    """

    policy: ArchitecturePolicy
    lr: float = 0.003
    weight_decay: float = 1e-4
    grad_clip: Optional[float] = 5.0

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ValueError(f"learning rate must be positive, got {self.lr}")

    def step(self, ascent_gradient: np.ndarray) -> float:
        """Apply one ascent step on J; returns the (pre-clip) grad norm."""
        grad = np.asarray(ascent_gradient, dtype=float)
        if grad.shape != self.policy.alpha.shape:
            raise ValueError(
                f"gradient shape {grad.shape} != alpha shape {self.policy.alpha.shape}"
            )
        norm = float(np.linalg.norm(grad))
        if self.grad_clip is not None and norm > self.grad_clip > 0:
            grad = grad * (self.grad_clip / norm)
        if self.weight_decay:
            grad = grad - self.weight_decay * self.policy.alpha
        self.policy.alpha = self.policy.alpha + self.lr * grad
        return norm
