"""Synthetic class-conditional image datasets.

The paper evaluates on CIFAR10, SVHN, and CIFAR100.  Those datasets cannot
be downloaded in this offline environment, so we generate synthetic
stand-ins that preserve the properties the evaluation depends on:

* **class-conditional structure** — each class owns a smooth spatial
  template (a random low-frequency field per channel); samples are noisy,
  randomly shifted, contrast-jittered renderings of their class template.
  Convolutional models with translation tolerance therefore beat
  non-spatial models, and architecture choice matters.
* **controllable difficulty** — ``noise`` and ``template_scale`` control
  class separability, letting "SVHN-like" (easier, lower error) and
  "CIFAR100-like" (harder, more classes) variants mirror the relative
  difficulty ordering of the real datasets.
* **a disjoint test set** drawn from the same generative process.

Presets :func:`synth_cifar10`, :func:`synth_svhn`, and
:func:`synth_cifar100` bundle the scaled-down defaults used across the
benchmark harness.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ArrayDataset",
    "SyntheticImageSpec",
    "generate_dataset",
    "synth_cifar10",
    "synth_svhn",
    "synth_cifar100",
]


@dataclasses.dataclass
class ArrayDataset:
    """An in-memory labelled image dataset (NCHW float images, int labels)."""

    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        if len(self.images) != len(self.labels):
            raise ValueError(
                f"images ({len(self.images)}) and labels ({len(self.labels)}) differ in length"
            )
        if self.images.ndim != 4:
            raise ValueError(f"images must be NCHW, got shape {self.images.shape}")
        if self.num_classes < 1:
            raise ValueError(f"num_classes must be >= 1, got {self.num_classes}")
        self.labels = np.asarray(self.labels, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.images)

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        return self.images.shape[1:]

    def subset(self, indices: Sequence[int]) -> "ArrayDataset":
        """Return a view-like dataset restricted to ``indices``."""
        indices = np.asarray(indices)
        return ArrayDataset(self.images[indices], self.labels[indices], self.num_classes)

    def class_counts(self) -> np.ndarray:
        """Number of samples per class, length ``num_classes``."""
        return np.bincount(self.labels, minlength=self.num_classes)

    def split(self, fraction: float, rng: np.random.Generator) -> Tuple["ArrayDataset", "ArrayDataset"]:
        """Randomly split into two datasets; first gets ``fraction`` of samples."""
        if not 0.0 < fraction < 1.0:
            raise ValueError(f"fraction must be in (0, 1), got {fraction}")
        perm = rng.permutation(len(self))
        cut = int(round(fraction * len(self)))
        return self.subset(perm[:cut]), self.subset(perm[cut:])


@dataclasses.dataclass(frozen=True)
class SyntheticImageSpec:
    """Generative recipe for a synthetic image-classification dataset."""

    num_classes: int = 10
    channels: int = 3
    image_size: int = 16
    train_per_class: int = 100
    test_per_class: int = 20
    #: number of low-frequency cosine components per template
    frequencies: int = 3
    #: amplitude of the class template relative to unit noise
    template_scale: float = 2.0
    #: standard deviation of additive pixel noise
    noise: float = 0.6
    #: maximum random translation (pixels) applied per sample
    max_shift: int = 2
    #: per-sample contrast jitter range [1-j, 1+j]
    contrast_jitter: float = 0.2


def _class_template(
    spec: SyntheticImageSpec, rng: np.random.Generator
) -> np.ndarray:
    """Draw one smooth spatial template of shape (C, H, W)."""
    size = spec.image_size
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    template = np.zeros((spec.channels, size, size))
    for c in range(spec.channels):
        for _ in range(spec.frequencies):
            fy, fx = rng.uniform(0.5, 2.0, size=2)
            phase_y, phase_x = rng.uniform(0, 2 * np.pi, size=2)
            amplitude = rng.normal(0, 1)
            template[c] += amplitude * np.cos(
                2 * np.pi * fy * yy / size + phase_y
            ) * np.cos(2 * np.pi * fx * xx / size + phase_x)
    template *= spec.template_scale / max(np.abs(template).max(), 1e-9)
    return template


def _render_samples(
    template: np.ndarray, count: int, spec: SyntheticImageSpec, rng: np.random.Generator
) -> np.ndarray:
    """Render noisy, shifted, contrast-jittered samples of one class."""
    samples = np.empty((count,) + template.shape)
    for i in range(count):
        shifted = template
        if spec.max_shift > 0:
            dy, dx = rng.integers(-spec.max_shift, spec.max_shift + 1, size=2)
            shifted = np.roll(np.roll(template, dy, axis=1), dx, axis=2)
        contrast = 1.0 + rng.uniform(-spec.contrast_jitter, spec.contrast_jitter)
        samples[i] = contrast * shifted + rng.normal(0, spec.noise, size=template.shape)
    return samples


def generate_dataset(
    spec: SyntheticImageSpec, seed: int = 0
) -> Tuple[ArrayDataset, ArrayDataset]:
    """Generate a (train, test) pair from ``spec``.

    The same ``seed`` always produces identical datasets; train and test
    are disjoint draws from the same class-conditional processes.
    """
    rng = np.random.default_rng(seed)
    templates = [_class_template(spec, rng) for _ in range(spec.num_classes)]

    def build(per_class: int) -> ArrayDataset:
        images, labels = [], []
        for cls, template in enumerate(templates):
            images.append(_render_samples(template, per_class, spec, rng))
            labels.append(np.full(per_class, cls))
        x = np.concatenate(images)
        y = np.concatenate(labels)
        perm = rng.permutation(len(x))
        return ArrayDataset(x[perm], y[perm], spec.num_classes)

    return build(spec.train_per_class), build(spec.test_per_class)


def synth_cifar10(
    seed: int = 0, train_per_class: int = 100, test_per_class: int = 20, image_size: int = 16
) -> Tuple[ArrayDataset, ArrayDataset]:
    """CIFAR10 stand-in: 10 classes, moderate difficulty."""
    spec = SyntheticImageSpec(
        num_classes=10,
        image_size=image_size,
        train_per_class=train_per_class,
        test_per_class=test_per_class,
        noise=0.6,
    )
    return generate_dataset(spec, seed=seed)


def synth_svhn(
    seed: int = 1, train_per_class: int = 100, test_per_class: int = 20, image_size: int = 16
) -> Tuple[ArrayDataset, ArrayDataset]:
    """SVHN stand-in: 10 classes, easier than CIFAR10 (as in the paper,
    where SVHN error rates are roughly half the CIFAR10 ones)."""
    spec = SyntheticImageSpec(
        num_classes=10,
        image_size=image_size,
        train_per_class=train_per_class,
        test_per_class=test_per_class,
        noise=0.4,
        template_scale=2.5,
    )
    return generate_dataset(spec, seed=seed)


def synth_cifar100(
    seed: int = 2, train_per_class: int = 50, test_per_class: int = 10, image_size: int = 16
) -> Tuple[ArrayDataset, ArrayDataset]:
    """CIFAR100 stand-in: more classes, fewer samples each, harder.

    Scaled to 20 classes (vs the paper's 100) to stay tractable on the
    numpy substrate while preserving the "more classes, higher error"
    relationship used by the transfer experiments.
    """
    spec = SyntheticImageSpec(
        num_classes=20,
        image_size=image_size,
        train_per_class=train_per_class,
        test_per_class=test_per_class,
        noise=0.7,
        template_scale=1.8,
    )
    return generate_dataset(spec, seed=seed)
