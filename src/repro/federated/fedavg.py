"""Federated Averaging (McMahan et al., 2017) on fixed architectures.

Used in three places:

* phase P3 when retraining the searched architecture federatedly,
* the ``FedAvg`` baseline rows of Tables III and IV (hand-designed model),
* the convergence studies of Figs. 9-11 (average participant train /
  validation accuracy versus communication rounds).

Implements the model-averaging form: each selected participant trains the
global model for ``local_steps`` mini-batches and returns its weights; the
server takes the sample-weighted average as the next global model.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

import repro.nn as nn
from repro.data import ArrayDataset, Compose, DataLoader
from repro.evaluation import CurveRecorder, batch_accuracy, evaluate_accuracy

__all__ = ["FedAvgConfig", "FedAvgTrainer"]


@dataclasses.dataclass
class FedAvgConfig:
    """FedAvg hyperparameters; FL-column defaults follow Table I (P3, FL)."""

    lr: float = 0.1
    momentum: float = 0.5
    weight_decay: float = 0.005
    grad_clip: float = 5.0
    batch_size: int = 16
    local_steps: int = 2
    participation_fraction: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.participation_fraction <= 1.0:
            raise ValueError(
                f"participation_fraction must be in (0, 1], "
                f"got {self.participation_fraction}"
            )
        if self.local_steps < 1:
            raise ValueError(f"local_steps must be >= 1, got {self.local_steps}")


class FedAvgTrainer:
    """Trains one fixed-architecture model over federated shards."""

    def __init__(
        self,
        model: nn.Module,
        shards: Sequence[ArrayDataset],
        config: Optional[FedAvgConfig] = None,
        transform: Optional[Compose] = None,
        test_dataset: Optional[ArrayDataset] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        if not shards:
            raise ValueError("at least one shard required")
        self.model = model
        self.shards = list(shards)
        self.config = config or FedAvgConfig()
        self.transform = transform
        self.test_dataset = test_dataset
        self.rng = rng or np.random.default_rng()
        self.recorder = CurveRecorder()
        self.round = 0
        #: flat arena over the model (one already attached by the caller
        #: is reused): the global state is one ``data.copy()``, restoring
        #: a participant is one range copy, and the weighted average is a
        #: single accumulation over the flat buffer.
        self.arena: nn.ParameterArena = getattr(
            model, "_arena", None
        ) or nn.ParameterArena.from_module(model)
        self._loaders = [
            DataLoader(
                shard,
                batch_size=min(self.config.batch_size, len(shard)),
                transform=transform,
                rng=np.random.default_rng(self.rng.integers(2**32)),
            )
            for shard in self.shards
        ]

    # ------------------------------------------------------------------
    def run_round(self) -> Dict[str, float]:
        """One communication round; returns round metrics."""
        k = len(self.shards)
        num_selected = max(1, int(round(self.config.participation_fraction * k)))
        selected = self.rng.choice(k, size=num_selected, replace=False)

        train_accuracies: List[float] = []
        weights: List[float] = []
        # state_dict() views alias the live arena, so snapshots are flat
        # copies: one range copy per movement instead of a dict of arrays.
        global_flat = self.arena.data.copy()
        flats: List[np.ndarray] = []
        for idx in selected:
            self.arena.load_flat(global_flat)
            accuracy = self._local_train(int(idx))
            flats.append(self.arena.data.copy())
            weights.append(len(self.shards[idx]))
            train_accuracies.append(accuracy)
        self.arena.load_flat(self._weighted_average(flats, weights))

        metrics = {"train_accuracy": float(np.mean(train_accuracies))}
        self.recorder.record("train_accuracy", metrics["train_accuracy"])
        if self.test_dataset is not None:
            metrics["val_accuracy"] = evaluate_accuracy(self.model, self.test_dataset)
            self.recorder.record("val_accuracy", metrics["val_accuracy"])
        self.round += 1
        return metrics

    def run(self, rounds: int) -> CurveRecorder:
        for _ in range(rounds):
            self.run_round()
        return self.recorder

    # ------------------------------------------------------------------
    def _local_train(self, shard_index: int) -> float:
        """Train the global model on one shard; returns mean batch accuracy."""
        optimizer = nn.SGD(
            self.model.parameters(),
            lr=self.config.lr,
            momentum=self.config.momentum,
            weight_decay=self.config.weight_decay,
        )
        self.model.train()
        accuracies = []
        loader = self._loaders[shard_index]
        for _ in range(self.config.local_steps):
            x, y = loader.sample_batch()
            optimizer.zero_grad()
            logits = self.model(x)
            loss = nn.functional.cross_entropy(logits, y)
            loss.backward()
            nn.clip_grad_norm(self.model.parameters(), self.config.grad_clip)
            optimizer.step()
            accuracies.append(batch_accuracy(logits, y))
        return float(np.mean(accuracies))

    @staticmethod
    def _weighted_average(
        flats: List[np.ndarray], weights: List[float]
    ) -> np.ndarray:
        """Sample-weighted average of flat arena snapshots: one
        accumulation over the buffer, addends in participant order."""
        total = float(sum(weights))
        if total <= 0:
            raise ValueError("aggregation weights must sum to a positive value")
        averaged = np.zeros_like(flats[0])
        for flat, w in zip(flats, weights):
            averaged += (w / total) * flat
        return averaged
