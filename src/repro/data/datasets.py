"""Synthetic data sets standing in for CIFAR-10, CIFAR-100, and SVHN.

The paper evaluates on CIFAR-10, CIFAR-100 and SVHN.  Those require network
downloads and GPU-scale training, neither of which is available to this
reproduction, so this module generates deterministic synthetic image
classification tasks that exercise exactly the same code paths (multi-class
image classification with convolutional networks) and preserve the properties
the paper's analysis relies on:

* **class structure** — each class is defined by a smooth spatial prototype;
  samples are noisy, spatially jittered, brightness-perturbed renderings of
  their class prototype, so convolutional features genuinely help;
* **difficulty ordering** — ``cifar100_like`` has 10x more classes than
  ``cifar10_like`` (ensembles help more, as the paper observes), while
  ``svhn_like`` has markedly lower intra-class variation so a single base
  learner already achieves low error and ensembling helps least (§3,
  discussion of Figure 8);
* **determinism** — everything is derived from an explicit seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.utils.rng import SeedLike, as_rng


@dataclass
class Dataset:
    """An in-memory classification data set."""

    name: str
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    num_classes: int

    def __post_init__(self):
        if self.x_train.shape[0] != self.y_train.shape[0]:
            raise ValueError("x_train / y_train size mismatch")
        if self.x_test.shape[0] != self.y_test.shape[0]:
            raise ValueError("x_test / y_test size mismatch")
        if self.num_classes < 2:
            raise ValueError("num_classes must be at least 2")

    @property
    def input_shape(self) -> Tuple[int, ...]:
        """Per-sample input shape (``(C, H, W)`` for images)."""
        return tuple(self.x_train.shape[1:])

    @property
    def train_size(self) -> int:
        return int(self.x_train.shape[0])

    @property
    def test_size(self) -> int:
        return int(self.x_test.shape[0])

    def subset(self, train_samples: int, test_samples: int) -> "Dataset":
        """A smaller view of the data set (used by fast tests)."""
        return Dataset(
            name=f"{self.name}[{train_samples}/{test_samples}]",
            x_train=self.x_train[:train_samples],
            y_train=self.y_train[:train_samples],
            x_test=self.x_test[:test_samples],
            y_test=self.y_test[:test_samples],
            num_classes=self.num_classes,
        )


def _class_prototypes(
    num_classes: int,
    image_shape: Tuple[int, int, int],
    rng: np.random.Generator,
    coarse: int = 4,
) -> np.ndarray:
    """Smooth per-class prototype images.

    Each prototype is a random coarse grid upsampled to the target resolution,
    which yields spatially-correlated structure that convolutions can exploit
    (unlike i.i.d. noise)."""
    channels, height, width = image_shape
    coarse = max(2, min(coarse, height, width))
    grids = rng.normal(0.0, 1.0, size=(num_classes, channels, coarse, coarse))
    reps_h = int(np.ceil(height / coarse))
    reps_w = int(np.ceil(width / coarse))
    upsampled = np.repeat(np.repeat(grids, reps_h, axis=2), reps_w, axis=3)
    return upsampled[:, :, :height, :width]


def _render_samples(
    prototypes: np.ndarray,
    labels: np.ndarray,
    noise_std: float,
    jitter: int,
    brightness_std: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Render noisy, jittered, brightness-perturbed samples of the prototypes."""
    images = prototypes[labels].copy()
    n = images.shape[0]
    if jitter > 0:
        shifts_h = rng.integers(-jitter, jitter + 1, size=n)
        shifts_w = rng.integers(-jitter, jitter + 1, size=n)
        for i in range(n):
            if shifts_h[i] or shifts_w[i]:
                images[i] = np.roll(images[i], (int(shifts_h[i]), int(shifts_w[i])), axis=(1, 2))
    if brightness_std > 0:
        images += rng.normal(0.0, brightness_std, size=(n, 1, 1, 1))
    if noise_std > 0:
        images += rng.normal(0.0, noise_std, size=images.shape)
    return images


def synthetic_image_classification(
    name: str,
    num_classes: int = 10,
    image_shape: Tuple[int, int, int] = (3, 16, 16),
    train_samples: int = 2048,
    test_samples: int = 512,
    noise_std: float = 0.9,
    jitter: int = 2,
    brightness_std: float = 0.2,
    seed: SeedLike = 0,
) -> Dataset:
    """Generate a synthetic multi-class image classification data set.

    ``noise_std`` controls intra-class variation: larger values make the task
    harder (higher single-network error, more head-room for ensembles).
    """
    if num_classes < 2:
        raise ValueError("num_classes must be at least 2")
    if train_samples < num_classes or test_samples < 1:
        raise ValueError("need at least one training sample per class and one test sample")
    rng = as_rng(seed)
    prototypes = _class_prototypes(num_classes, image_shape, rng)

    def _labels(count: int) -> np.ndarray:
        # Balanced labels: every class appears floor/ceil(count / num_classes) times.
        labels = np.arange(count) % num_classes
        rng.shuffle(labels)
        return labels

    y_train = _labels(train_samples)
    y_test = _labels(test_samples)
    x_train = _render_samples(prototypes, y_train, noise_std, jitter, brightness_std, rng)
    x_test = _render_samples(prototypes, y_test, noise_std, jitter, brightness_std, rng)

    # Normalise with training statistics (as one would with real CIFAR/SVHN).
    mean = x_train.mean()
    std = x_train.std() + 1e-8
    x_train = (x_train - mean) / std
    x_test = (x_test - mean) / std
    return Dataset(
        name=name,
        x_train=x_train,
        y_train=y_train.astype(np.int64),
        x_test=x_test,
        y_test=y_test.astype(np.int64),
        num_classes=num_classes,
    )


def cifar10_like(
    train_samples: int = 2048,
    test_samples: int = 512,
    image_shape: Tuple[int, int, int] = (3, 16, 16),
    seed: SeedLike = 0,
) -> Dataset:
    """A CIFAR-10 stand-in: 10 classes, substantial intra-class variation."""
    return synthetic_image_classification(
        "cifar10-like",
        num_classes=10,
        image_shape=image_shape,
        train_samples=train_samples,
        test_samples=test_samples,
        noise_std=0.9,
        jitter=2,
        brightness_std=0.2,
        seed=seed,
    )


def cifar100_like(
    train_samples: int = 2048,
    test_samples: int = 512,
    image_shape: Tuple[int, int, int] = (3, 16, 16),
    num_classes: int = 100,
    seed: SeedLike = 1,
) -> Dataset:
    """A CIFAR-100 stand-in: many classes, high intra-class variation.

    ``num_classes`` defaults to 100 like the real data set; benchmarks running
    with very few samples may reduce it (keeping it well above 10) so that
    every class still has several training examples.
    """
    return synthetic_image_classification(
        "cifar100-like",
        num_classes=num_classes,
        image_shape=image_shape,
        train_samples=train_samples,
        test_samples=test_samples,
        noise_std=1.0,
        jitter=2,
        brightness_std=0.2,
        seed=seed,
    )


def svhn_like(
    train_samples: int = 3072,
    test_samples: int = 768,
    image_shape: Tuple[int, int, int] = (3, 16, 16),
    seed: SeedLike = 2,
) -> Dataset:
    """An SVHN stand-in: 10 classes with *low* intra-class variation, so a
    single base learner already reaches low error (the paper's explanation for
    the small ensemble gains on SVHN)."""
    return synthetic_image_classification(
        "svhn-like",
        num_classes=10,
        image_shape=image_shape,
        train_samples=train_samples,
        test_samples=test_samples,
        noise_std=0.35,
        jitter=1,
        brightness_std=0.1,
        seed=seed,
    )


def synthetic_tabular_classification(
    name: str = "tabular",
    num_classes: int = 10,
    num_features: int = 64,
    train_samples: int = 2048,
    test_samples: int = 512,
    class_separation: float = 2.0,
    noise_std: float = 1.0,
    seed: SeedLike = 0,
) -> Dataset:
    """Gaussian-blob classification for fully-connected networks (used by the
    quickstart example and the MLP unit tests)."""
    if num_features < 1:
        raise ValueError("num_features must be positive")
    rng = as_rng(seed)
    centers = rng.normal(0.0, class_separation, size=(num_classes, num_features))

    def _split(count: int):
        labels = np.arange(count) % num_classes
        rng.shuffle(labels)
        x = centers[labels] + rng.normal(0.0, noise_std, size=(count, num_features))
        return x, labels.astype(np.int64)

    x_train, y_train = _split(train_samples)
    x_test, y_test = _split(test_samples)
    mean = x_train.mean(axis=0)
    std = x_train.std(axis=0) + 1e-8
    return Dataset(
        name=name,
        x_train=(x_train - mean) / std,
        y_train=y_train,
        x_test=(x_test - mean) / std,
        y_test=y_test,
        num_classes=num_classes,
    )


_DATASETS = {
    "cifar10": cifar10_like,
    "cifar100": cifar100_like,
    "svhn": svhn_like,
    "tabular": synthetic_tabular_classification,
}


def load_dataset(name: str, **kwargs) -> Dataset:
    """Load a named data-set stand-in (``cifar10``, ``cifar100``, ``svhn``,
    ``tabular``)."""
    try:
        factory = _DATASETS[name.lower()]
    except KeyError as exc:
        raise ValueError(f"unknown dataset {name!r}; known: {sorted(_DATASETS)}") from exc
    return factory(**kwargs)
