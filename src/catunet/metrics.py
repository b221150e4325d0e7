"""Evaluation metrics: reconstruction accuracy, Dice overlap, confusion counts."""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_atomic

logger = logging.getLogger("catunet.metrics")

POSITIVE = "Positive"
NEGATIVE = "Negative"


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    @property
    def sensitivity(self) -> float | None:
        d = self.tp + self.fn
        return self.tp / d if d else None

    @property
    def specificity(self) -> float | None:
        d = self.tn + self.fp
        return self.tn / d if d else None

    @property
    def accuracy(self) -> float | None:
        return (self.tp + self.tn) / self.total if self.total else None

    def to_csv(self, path: str) -> None:
        write_atomic(path, ",predicted_positive,predicted_negative\n"
                           f"actual_positive,{self.tp},{self.fn}\n"
                           f"actual_negative,{self.fp},{self.tn}\n")


def confusion(predicted, actual) -> ConfusionMatrix:
    """Count agreement between predicted and actual Positive/Negative labels."""
    predicted = list(predicted)
    actual = list(actual)
    if len(predicted) != len(actual):
        raise ValueError(f"{len(predicted)} predictions but {len(actual)} actual labels")
    valid = {POSITIVE, NEGATIVE}
    tp = fp = tn = fn = 0
    for p, a in zip(predicted, actual):
        if p not in valid or a not in valid:
            raise ValueError(f"labels must be {POSITIVE!r} or {NEGATIVE!r}, "
                             f"got predicted={p!r} actual={a!r}")
        if a == POSITIVE:
            if p == POSITIVE:
                tp += 1
            else:
                fn += 1
        else:
            if p == POSITIVE:
                fp += 1
            else:
                tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


def reconstruction_accuracy(mses) -> float:
    """One minus the mean of per-image MSEs on normalized [0,1] images,
    clamped into [0,1] (a warning notes any clamping)."""
    mses = [float(m) for m in mses]
    if not mses:
        raise ValueError("reconstruction_accuracy needs at least one image MSE")
    bad = [m for m in mses if not math.isfinite(m)]
    if bad:
        raise ValueError(f"image MSEs must be finite, got {bad}")
    acc = 1.0 - sum(mses) / len(mses)
    if acc < 0.0:
        logger.warning("reconstruction accuracy %.6g is negative; clamping to 0", acc)
        return 0.0
    return min(acc, 1.0)


def dice(prediction, truth) -> float:
    """2|X n Y| / (|X| + |Y|) over binary masks; two empty masks agree
    perfectly, so that case is 1.0."""
    x = np.asarray(prediction)
    y = np.asarray(truth)
    if x.shape != y.shape:
        raise ValueError(f"prediction shape {x.shape} does not match "
                         f"truth shape {y.shape}")
    if not np.isin(x, (0, 1)).all() or not np.isin(y, (0, 1)).all():
        raise ValueError("dice inputs must be binary (values 0 or 1)")
    x = x.astype(bool)
    y = y.astype(bool)
    denom = int(x.sum()) + int(y.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((x & y).sum()) / denom


@dataclass
class MetricsReport:
    reconstruction_accuracy: float
    dice: float
    confusion: ConfusionMatrix

    def to_json(self) -> str:
        """Flat JSON object; deterministic byte-for-byte for equal inputs."""
        payload = {
            "reconstruction_accuracy": self.reconstruction_accuracy,
            "dice": self.dice,
            "tp": self.confusion.tp,
            "fp": self.confusion.fp,
            "tn": self.confusion.tn,
            "fn": self.confusion.fn,
            "sensitivity": self.confusion.sensitivity,
            "specificity": self.confusion.specificity,
            "accuracy": self.confusion.accuracy,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def write_json(self, path: str) -> None:
        write_atomic(path, self.to_json())
