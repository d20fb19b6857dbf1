"""Model evaluation and training-curve bookkeeping."""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

import repro.nn as nn
from repro.data import ArrayDataset

__all__ = ["evaluate_accuracy", "batch_accuracy", "CurveRecorder"]


def batch_accuracy(logits, labels: np.ndarray) -> float:
    """Fraction of correct argmax predictions in one batch."""
    preds = logits.data.argmax(axis=1)
    return float((preds == np.asarray(labels)).mean())


def evaluate_accuracy(
    model: nn.Module, dataset: ArrayDataset, batch_size: int = 64
) -> float:
    """Test-set accuracy of ``model`` (eval mode, no augmentation)."""
    was_training = model.training
    model.eval()
    correct = 0
    with nn.no_grad():
        for start in range(0, len(dataset), batch_size):
            x = dataset.images[start : start + batch_size]
            y = dataset.labels[start : start + batch_size]
            preds = model(x).data.argmax(axis=1)
            correct += int((preds == y).sum())
    if was_training:
        model.train()
    return correct / len(dataset)


@dataclasses.dataclass
class CurveRecorder:
    """Accumulates named per-round series (accuracy curves, latencies, ...)."""

    series: Dict[str, List[float]] = dataclasses.field(default_factory=dict)

    def record(self, name: str, value: float) -> None:
        self.series.setdefault(name, []).append(float(value))

    def get(self, name: str) -> List[float]:
        return self.series.get(name, [])

    def moving_average(self, name: str, window: int = 50) -> np.ndarray:
        """Trailing moving average, the smoothing used in Figs. 3-6, 8, 12."""
        values = np.asarray(self.get(name), dtype=float)
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if len(values) == 0:
            return values
        smoothed = np.empty_like(values)
        cumsum = np.cumsum(values)
        for i in range(len(values)):
            lo = max(0, i - window + 1)
            total = cumsum[i] - (cumsum[lo - 1] if lo > 0 else 0.0)
            smoothed[i] = total / (i - lo + 1)
        return smoothed

    def last(self, name: str, default: Optional[float] = None) -> Optional[float]:
        values = self.get(name)
        return values[-1] if values else default

    def state_dict(self) -> Dict[str, List[float]]:
        return {name: list(values) for name, values in self.series.items()}

    def load_state_dict(self, state: Mapping[str, Sequence[float]]) -> None:
        self.series = {
            name: [float(v) for v in values] for name, values in state.items()
        }
