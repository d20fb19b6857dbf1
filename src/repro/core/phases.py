"""The four pipeline phases (Sec. VI-A).

P1 *warm-up* — train supernet weights with the architecture distribution
frozen, so heavyweight and lightweight operations compete fairly once the
search starts.

P2 *search* — the joint RL optimisation of ``α`` and ``θ`` (Alg. 1).

P3 *retrain* — re-initialise the derived architecture and train it from
scratch, either centralised (SGD + cosine annealing + cutout, the DARTS
recipe) or federated (FedAvg with the Table I "P3, FL" hyperparameters).

P4 *evaluate* — test-set accuracy of the retrained model.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

import repro.nn as nn
from repro.data import ArrayDataset, DataLoader, standard_augmentation
from repro.evaluation import CurveRecorder, batch_accuracy, evaluate_accuracy
from repro.federated import (
    FedAvgConfig,
    FedAvgTrainer,
    FederatedSearchServer,
    RoundResult,
)
from repro.search_space import Genotype, Supernet, SupernetConfig, build_derived_network
from repro.telemetry import Telemetry

from .config import ExperimentConfig

__all__ = [
    "run_warmup",
    "run_search",
    "retrain_centralized",
    "retrain_federated",
    "evaluate",
]


@contextlib.contextmanager
def _phase(telemetry: Optional[Telemetry], name: str, **fields):
    """Bracket one pipeline phase with span + phase_start/phase_end events."""
    if telemetry is None or not telemetry.enabled:
        yield
        return
    telemetry.emit("phase_start", phase=name, **fields)
    start = time.perf_counter()
    try:
        with telemetry.span(f"phase.{name}"):
            yield
    finally:
        telemetry.emit(
            "phase_end",
            phase=name,
            duration_s=round(time.perf_counter() - start, 6),
            **fields,
        )


def _run_rounds(
    server: FederatedSearchServer,
    rounds: int,
    on_round: Optional[Callable[[RoundResult], None]],
) -> List[RoundResult]:
    """Round loop with an optional per-round hook (checkpoint cadence)."""
    results = []
    for _ in range(rounds):
        result = server.run_round()
        results.append(result)
        if on_round is not None:
            on_round(result)
    return results


def run_warmup(
    server: FederatedSearchServer,
    rounds: int,
    telemetry: Optional[Telemetry] = None,
    on_round: Optional[Callable[[RoundResult], None]] = None,
) -> List[RoundResult]:
    """P1: federated supernet training with ``α`` fixed.

    ``on_round`` is invoked after every completed round — the pipeline
    hooks its checkpoint cadence here.
    """
    previous = server.config.update_alpha
    previous_label = server.phase_label
    server.config.update_alpha = False
    server.phase_label = "warmup"
    try:
        with _phase(telemetry, "warmup", backend=server.backend.name):
            return _run_rounds(server, rounds, on_round)
    finally:
        server.config.update_alpha = previous
        server.phase_label = previous_label


def run_search(
    server: FederatedSearchServer,
    rounds: int,
    telemetry: Optional[Telemetry] = None,
    on_round: Optional[Callable[[RoundResult], None]] = None,
) -> List[RoundResult]:
    """P2: the joint α/θ search (Alg. 1); ``on_round`` as in warm-up."""
    previous_label = server.phase_label
    server.phase_label = "search"
    try:
        with _phase(telemetry, "search", backend=server.backend.name):
            return _run_rounds(server, rounds, on_round)
    finally:
        server.phase_label = previous_label


def retrain_centralized(
    genotype: Genotype,
    config: ExperimentConfig,
    train_set: ArrayDataset,
    test_set: Optional[ArrayDataset] = None,
    rng: Optional[np.random.Generator] = None,
    telemetry: Optional[Telemetry] = None,
) -> Tuple[Supernet, CurveRecorder]:
    """P3 (centralised): fresh model, SGD + cosine annealing + augmentation."""
    with _phase(telemetry, "retrain"):
        return _retrain_centralized_inner(genotype, config, train_set, test_set, rng)


def _retrain_centralized_inner(
    genotype: Genotype,
    config: ExperimentConfig,
    train_set: ArrayDataset,
    test_set: Optional[ArrayDataset] = None,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[Supernet, CurveRecorder]:
    rng = rng or np.random.default_rng(config.seed)
    model = build_derived_network(genotype, config.supernet_config(), rng=rng)
    optimizer = nn.SGD(
        model.parameters(),
        lr=config.theta_lr,
        momentum=config.theta_momentum,
        weight_decay=config.theta_weight_decay,
    )
    schedule = nn.CosineAnnealingLR(optimizer, t_max=max(config.retrain_epochs, 1))
    loader = DataLoader(
        train_set,
        batch_size=min(config.batch_size, len(train_set)),
        transform=standard_augmentation(config.image_size),
        rng=rng,
    )
    recorder = CurveRecorder()
    model.train()
    for _ in range(config.retrain_epochs):
        epoch_accuracy = []
        for x, y in loader:
            optimizer.zero_grad()
            logits = model(x)
            loss = nn.functional.cross_entropy(logits, y)
            loss.backward()
            nn.clip_grad_norm(model.parameters(), config.theta_grad_clip)
            optimizer.step()
            epoch_accuracy.append(batch_accuracy(logits, y))
        schedule.step()
        recorder.record("train_accuracy", float(np.mean(epoch_accuracy)))
        if test_set is not None:
            recorder.record("val_accuracy", evaluate_accuracy(model, test_set))
    return model, recorder


def retrain_federated(
    genotype: Genotype,
    config: ExperimentConfig,
    shards: Sequence[ArrayDataset],
    test_set: Optional[ArrayDataset] = None,
    rng: Optional[np.random.Generator] = None,
    telemetry: Optional[Telemetry] = None,
) -> Tuple[Supernet, CurveRecorder]:
    """P3 (federated): fresh model trained with FedAvg (Table I "P3, FL")."""
    with _phase(telemetry, "retrain"):
        return _retrain_federated_inner(genotype, config, shards, test_set, rng)


def _retrain_federated_inner(
    genotype: Genotype,
    config: ExperimentConfig,
    shards: Sequence[ArrayDataset],
    test_set: Optional[ArrayDataset] = None,
    rng: Optional[np.random.Generator] = None,
) -> Tuple[Supernet, CurveRecorder]:
    rng = rng or np.random.default_rng(config.seed)
    model = build_derived_network(genotype, config.supernet_config(), rng=rng)
    trainer = FedAvgTrainer(
        model,
        shards,
        FedAvgConfig(
            lr=config.fl_lr,
            momentum=config.fl_momentum,
            weight_decay=config.fl_weight_decay,
            grad_clip=config.theta_grad_clip,
            batch_size=config.batch_size,
        ),
        transform=standard_augmentation(config.image_size),
        test_dataset=test_set,
        rng=rng,
    )
    trainer.run(config.fl_retrain_rounds)
    return model, trainer.recorder


def evaluate(
    model: nn.Module,
    test_set: ArrayDataset,
    batch_size: int = 64,
    telemetry: Optional[Telemetry] = None,
) -> float:
    """P4: test-set accuracy."""
    with _phase(telemetry, "evaluate"):
        accuracy = evaluate_accuracy(model, test_set, batch_size=batch_size)
    if telemetry is not None and telemetry.enabled:
        telemetry.gauge("test.accuracy", accuracy)
    return accuracy
