"""Reconstruction-error scoring, thresholding, error-mask extraction, and
the evaluation fold over a dataset.

Scores are mean squared errors expressed on the 0-255 intensity scale
(inputs live in [0,1], so the raw difference is multiplied by 255
before squaring). On that scale the default sample threshold of 50 is
meaningful; on the normalized scale it would be unreachable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import metrics as mx
from . import tensor as T
from .metrics import NEGATIVE, POSITIVE
from .model import CatUNetModel

INTENSITY_SCALE = 255.0


@dataclass
class ThresholdConfig:
    sample_threshold: float = 50.0
    pixel_threshold: float | None = None  # None -> Otsu per error map

    def __post_init__(self) -> None:
        if self.sample_threshold < 0:
            raise ValueError(f"sample_threshold must be >= 0, got {self.sample_threshold}")
        if self.pixel_threshold is not None and self.pixel_threshold < 0:
            raise ValueError(f"pixel_threshold must be >= 0, got {self.pixel_threshold}")


@dataclass
class DiagnosisResult:
    id: str
    score: float
    label: str
    mask: np.ndarray | None = None
    mask_path: str | None = None

    def to_json_line(self) -> str:
        payload = {"id": self.id, "score": self.score, "label": self.label}
        if self.mask_path is not None:
            payload["mask_path"] = self.mask_path
        return json.dumps(payload, sort_keys=True)


def _as_batch(sample: np.ndarray) -> np.ndarray:
    arr = np.asarray(sample, dtype=np.float32)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    if arr.ndim != 3:
        raise T.ShapeError(f"sample must be 2-d or (channels, h, w), got shape {arr.shape}")
    return arr[None]


def reconstruct(model: CatUNetModel, sample: np.ndarray) -> np.ndarray:
    """Inference-mode forward pass for a single sample; returns (c, h, w).

    An overflowing model yields inf/NaN silently here; `diagnose` names
    the sample whose score is not finite.
    """
    batch = _as_batch(sample)
    with T.no_grad(), np.errstate(over="ignore", invalid="ignore"):
        out = model.forward(T.Tensor(batch), training=False)
    return out.data[0]


def error_map(sample: np.ndarray, reconstruction: np.ndarray) -> np.ndarray:
    """The per-pixel squared error on the 0-255 scale, float64, with the
    channels averaged into one spatial map: the single error definition
    behind the score, the error mask and pixel-threshold calibration."""
    x = np.asarray(sample, dtype=np.float64)
    y = np.asarray(reconstruction, dtype=np.float64)
    if x.shape != y.shape:
        raise T.ShapeError(f"sample shape {x.shape} does not match "
                           f"reconstruction shape {y.shape}")
    e = (INTENSITY_SCALE * (x - y)) ** 2
    return e.mean(axis=0) if e.ndim == 3 else e


def score_from_pair(sample: np.ndarray, reconstruction: np.ndarray) -> float:
    """The mean of the error map."""
    return float(np.mean(error_map(sample, reconstruction)))


def classify(value: float, config: ThresholdConfig) -> str:
    """Positive iff the score is at or below the sample threshold."""
    return POSITIVE if value <= config.sample_threshold else NEGATIVE


def otsu_threshold(values: np.ndarray) -> float:
    """Threshold a non-negative map by maximizing between-class variance
    over a 256-bin histogram.

    Returns a cut such that `values >= cut` selects the high class. A
    constant map has no separable classes; the cut lands just above the
    single level so nothing is selected.
    """
    v = np.asarray(values, dtype=np.float64).ravel()
    lo, hi = float(v.min()), float(v.max())
    if hi <= lo:
        return float(np.nextafter(hi, np.inf))
    hist, edges = np.histogram(v, bins=256, range=(lo, hi))
    w = hist.astype(np.float64)
    centers = (edges[:-1] + edges[1:]) / 2.0
    weight0 = np.cumsum(w)
    sum0 = np.cumsum(w * centers)
    weight1 = weight0[-1] - weight0
    with np.errstate(divide="ignore", invalid="ignore"):
        mu0 = sum0 / weight0
        mu1 = (sum0[-1] - sum0) / weight1
        between = weight0 * weight1 * (mu0 - mu1) ** 2
    between[~np.isfinite(between)] = -1.0
    k = int(np.argmax(between))
    return float(edges[k + 1])


def error_mask(sample: np.ndarray, reconstruction: np.ndarray,
               config: ThresholdConfig) -> np.ndarray:
    """Binarize the error map: 1 where the error is at or above the pixel
    threshold (Otsu-chosen when unset)."""
    e = error_map(sample, reconstruction)
    t_px = config.pixel_threshold
    if t_px is None:
        t_px = otsu_threshold(e)
    return (e >= t_px).astype(np.uint8)


def diagnose(model: CatUNetModel, sample_id: str, sample: np.ndarray,
             config: ThresholdConfig, with_mask: bool = False) -> DiagnosisResult:
    """Reconstruct, score and label one sample at batch 1, and binarize its
    error map when `with_mask` is set.

    The one scoring path of `catunet evaluate` and `catunet diagnose`. A
    non-finite score (an overflowing or NaN model) raises ValueError
    naming the sample instead of becoming a label.
    """
    x = _as_batch(sample)[0]
    recon = reconstruct(model, x)
    value = score_from_pair(x, recon)
    if not math.isfinite(value):
        raise ValueError(f"sample '{sample_id}' scored {value}: the model's "
                         "reconstruction is not finite")
    label = classify(value, config)
    mask = error_mask(x, recon, config) if with_mask else None
    return DiagnosisResult(id=sample_id, score=value, label=label, mask=mask)


def evaluate(model: CatUNetModel, samples: list, config: ThresholdConfig,
             with_masks: bool = False) -> tuple[list[DiagnosisResult], mx.MetricsReport]:
    """Diagnose each sample and fold the results into metrics; the one
    evaluation path of `catunet evaluate` and the end-to-end gates.

    A mask is made only with `with_masks` and a `truth_mask`; no
    reconstruction outlives its `diagnose` call. Dice is over the masked
    samples (None when there are none), confusion over those with a
    `truth_label`, reconstruction accuracy over all of them: one minus
    the mean score, rescaled to the normalized [0,1] range.
    """
    results = [diagnose(model, s.id, s.pixels, config,
                        with_mask=with_masks and s.truth_mask is not None)
               for s in samples]
    dices = [mx.dice(r.mask, s.truth_mask) for r, s in zip(results, samples)
             if r.mask is not None]
    labeled = [(r.label, s.truth_label) for r, s in zip(results, samples)
               if s.truth_label is not None]
    return results, mx.MetricsReport(
        reconstruction_accuracy=mx.reconstruction_accuracy(
            [r.score / INTENSITY_SCALE ** 2 for r in results]),
        dice=(float(np.mean(dices)) if dices else None),
        confusion=mx.confusion([p for p, _ in labeled], [a for _, a in labeled]),
    )


def write_jsonl(results: list[DiagnosisResult], path: str) -> None:
    with open(path, "w", newline="") as fh:
        for r in results:
            fh.write(r.to_json_line() + "\n")


def calibrate_threshold(scores, labels) -> float:
    """Pick the sample threshold maximizing balanced accuracy over
    labeled scores (Positive iff score <= T). Ties go to the smallest
    candidate threshold."""
    scores = [float(s) for s in scores]
    if len(scores) != len(labels):
        raise ValueError(f"{len(scores)} scores but {len(labels)} labels")
    if not scores:
        raise ValueError("cannot calibrate on an empty score list")
    pos = [s for s, l in zip(scores, labels) if l == POSITIVE]
    neg = [s for s, l in zip(scores, labels) if l == NEGATIVE]
    if not pos or not neg:
        raise ValueError("calibration needs both Positive and Negative examples; "
                         "use calibrate_from_positives for a one-class set")
    best_t, best_score = None, -1.0
    for t in sorted(set(scores)):
        sens = sum(1 for s in pos if s <= t) / len(pos)
        spec = sum(1 for s in neg if s > t) / len(neg)
        balanced = (sens + spec) / 2.0
        if balanced > best_score:
            best_t, best_score = t, balanced
    return float(best_t)


def calibrate_pixel_threshold(error_maps, truth_masks) -> float:
    """Pick a shared pixel threshold by sweeping a percentile grid of the
    pooled per-pixel errors and maximizing mean Dice overlap against the
    reference masks.

    Otsu's split assumes two comparably sized populations; squared-error
    maps are instead a huge near-zero mass plus a small unbounded tail,
    which drags the variance optimum far into the tail. Calibrating on a
    handful of masked validation images is cheap and lands where the
    overlap actually peaks.
    """
    error_maps = [np.asarray(e, dtype=np.float64) for e in error_maps]
    if len(error_maps) != len(truth_masks):
        raise ValueError(f"{len(error_maps)} error maps but "
                         f"{len(truth_masks)} masks")
    if not error_maps:
        raise ValueError("cannot calibrate on an empty map list")
    pooled = np.concatenate([e.ravel() for e in error_maps])
    grid = np.percentile(pooled, np.linspace(75.0, 99.9, 80))
    best_t, best_d = None, -1.0
    for t in grid:
        d = float(np.mean([mx.dice((e >= t).astype(np.uint8), m)
                           for e, m in zip(error_maps, truth_masks)]))
        if d > best_d:
            best_t, best_d = float(t), d
    return best_t


def calibrate_from_positives(scores, margin: float = 1.5) -> float:
    """One-class calibration: place the threshold a safety margin above
    the worst (largest) positive validation score."""
    scores = [float(s) for s in scores]
    if not scores:
        raise ValueError("cannot calibrate on an empty score list")
    if margin <= 0:
        raise ValueError(f"margin must be positive, got {margin}")
    return max(scores) * margin
