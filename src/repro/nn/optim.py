"""Optimizers, gradient clipping, and learning-rate schedules.

The paper's settings (Table I) use SGD with momentum 0.9, weight decay
3e-4, and gradient clipping at norm 5 for supernet weights, and a separate
optimizer for architecture parameters.  Both are provided here, along with
Adam (the DARTS choice for architecture parameters) and cosine annealing.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from .tensor import Tensor

__all__ = ["Optimizer", "SGD", "Adam", "clip_grad_norm", "CosineAnnealingLR", "StepLR"]


class Optimizer:
    """Base optimizer holding a parameter list and a learning rate."""

    def __init__(self, params: Iterable[Tensor], lr: float):
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer got an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """SGD with momentum and decoupled L2 weight decay.

    Matches ``torch.optim.SGD`` semantics: weight decay is added to the
    gradient before the momentum update.
    """

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity: List[Optional[np.ndarray]] = [None] * len(self.params)

    def step(self) -> None:
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                if self._velocity[i] is None:
                    self._velocity[i] = np.zeros_like(p.data)
                self._velocity[i] = self.momentum * self._velocity[i] + grad
                grad = self._velocity[i]
            p.data -= self.lr * grad

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Momentum buffers as ``velocity.<i>`` (untouched slots omitted)."""
        return {
            f"velocity.{i}": v for i, v in enumerate(self._velocity) if v is not None
        }

    def load_state_dict(self, state: Mapping[str, np.ndarray]) -> None:
        self._velocity = [state.get(f"velocity.{i}") for i in range(len(self.params))]


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba), used by DARTS for architecture params."""

    def __init__(
        self,
        params: Iterable[Tensor],
        lr: float = 1e-3,
        betas: Sequence[float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: List[Optional[np.ndarray]] = [None] * len(self.params)
        self._v: List[Optional[np.ndarray]] = [None] * len(self.params)
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for i, p in enumerate(self.params):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self._m[i] is None:
                self._m[i] = np.zeros_like(p.data)
                self._v[i] = np.zeros_like(p.data)
            self._m[i] = self.beta1 * self._m[i] + (1 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1 - self.beta2) * grad ** 2
            m_hat = self._m[i] / bias1
            v_hat = self._v[i] / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def clip_grad_norm(params: Iterable[Tensor], max_norm: float) -> float:
    """Clip gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm (useful for diagnostics).
    """
    params = [p for p in params if p.grad is not None]
    total = math.sqrt(sum(float((p.grad ** 2).sum()) for p in params))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            # A borrowed (copy-on-write) gradient may be shared with
            # another tensor; materialise before scaling in place.
            p.own_grad()
            p.grad *= scale
    return total


class CosineAnnealingLR:
    """Cosine learning-rate annealing, as used in the DARTS training recipe."""

    def __init__(self, optimizer: Optimizer, t_max: int, eta_min: float = 0.0):
        if t_max <= 0:
            raise ValueError(f"t_max must be positive, got {t_max}")
        self.optimizer = optimizer
        self.t_max = t_max
        self.eta_min = eta_min
        self.base_lr = optimizer.lr
        self._step = 0

    def step(self) -> None:
        self._step = min(self._step + 1, self.t_max)
        cos = (1 + math.cos(math.pi * self._step / self.t_max)) / 2
        self.optimizer.lr = self.eta_min + (self.base_lr - self.eta_min) * cos


class StepLR:
    """Multiply the learning rate by ``gamma`` every ``step_size`` steps."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1):
        if step_size <= 0:
            raise ValueError(f"step_size must be positive, got {step_size}")
        self.optimizer = optimizer
        self.step_size = step_size
        self.gamma = gamma
        self._step = 0

    def step(self) -> None:
        self._step += 1
        if self._step % self.step_size == 0:
            self.optimizer.lr *= self.gamma
