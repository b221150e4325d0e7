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
from .artifacts import write_atomic
from .metrics import NEGATIVE, POSITIVE
from .model import CatUNetModel

INTENSITY_SCALE = 255.0


def eval_batch(size: int) -> int:
    """Samples per forward in `evaluate` for size x size images: as many as
    fit, zero-padded, in one TILE of columns, and at least one.

    Each image in a batch gets its batch-1 GEMM calls (tensor.py), so
    batching changes no score. The rule gives 3 at 48 px, where 3 beat 4
    on images/s (+11-19%) and peak RSS (-0.5 to -0.9 MB) in three paired
    40 s score-48 benchmark runs on a 2-vCPU x86_64 VM, and batch 1 from
    63 px up, 256 px included, where batching was not measured.
    """
    return max(1, T.TILE // (size + 2) ** 2)


@dataclass
class ThresholdConfig:
    sample_threshold: float = 50.0
    pixel_threshold: float | None = None  # None -> Otsu per error map

    def __post_init__(self) -> None:
        # a NaN passes every comparison as False, so it would label all
        # samples Negative instead of failing
        if not (math.isfinite(self.sample_threshold) and self.sample_threshold >= 0):
            raise ValueError("sample_threshold must be finite and >= 0, "
                             f"got {self.sample_threshold}")
        if self.pixel_threshold is not None and not (
                math.isfinite(self.pixel_threshold) and self.pixel_threshold >= 0):
            raise ValueError("pixel_threshold must be finite and >= 0, "
                             f"got {self.pixel_threshold}")


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


def _forward(model: CatUNetModel, batch: np.ndarray) -> np.ndarray:
    """Inference-mode forward pass over an (n, c, h, w) batch.

    An overflowing model yields inf/NaN silently here; `_judge` names the
    sample whose score is not finite.
    """
    with T.no_grad(), np.errstate(over="ignore", invalid="ignore"):
        return model.forward(T.Tensor(batch), training=False).data


def reconstruct(model: CatUNetModel, sample: np.ndarray) -> np.ndarray:
    """Inference-mode forward pass for a single sample; returns (c, h, w)."""
    return _forward(model, _as_batch(sample))[0]


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


def score_from_pair(sample: np.ndarray, reconstruction: np.ndarray,
                    errors: np.ndarray | None = None) -> float:
    """The mean of the error map; `errors` is that map when the caller has
    built it already."""
    if errors is None:
        errors = error_map(sample, reconstruction)
    return float(np.mean(errors))


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


def error_mask(errors: np.ndarray, config: ThresholdConfig) -> np.ndarray:
    """Binarize an error map: 1 where the error is at or above the pixel
    threshold (Otsu-chosen when unset)."""
    t_px = config.pixel_threshold
    if t_px is None:
        t_px = otsu_threshold(errors)
    return (errors >= t_px).astype(np.uint8)


def _judge(sample_id: str, sample: np.ndarray, recon: np.ndarray,
           config: ThresholdConfig, with_mask: bool) -> DiagnosisResult:
    """Score, label and (with `with_mask`) mask one sample from its
    reconstruction, building its error map once for score and mask."""
    errors = error_map(sample, recon)
    value = score_from_pair(sample, recon, errors)
    if not math.isfinite(value):
        raise ValueError(f"sample '{sample_id}' scored {value}: the model's "
                         "reconstruction is not finite")
    label = classify(value, config)
    mask = error_mask(errors, config) if with_mask else None
    return DiagnosisResult(id=sample_id, score=value, label=label, mask=mask)


def diagnose(model: CatUNetModel, sample_id: str, sample: np.ndarray,
             config: ThresholdConfig, with_mask: bool = False) -> DiagnosisResult:
    """Reconstruct, score and label one sample at batch 1, and binarize its
    error map when `with_mask` is set.

    `catunet diagnose` runs it; `evaluate` runs the same steps on each
    sample's slice of a batch. A non-finite score (an overflowing or NaN
    model) raises ValueError naming the sample instead of becoming a
    label.
    """
    x = _as_batch(sample)[0]
    return _judge(sample_id, x, reconstruct(model, x), config, with_mask)


def evaluate(model: CatUNetModel, samples: list, config: ThresholdConfig,
             with_masks: bool = False) -> tuple[list[DiagnosisResult], mx.MetricsReport]:
    """Diagnose each sample and fold the results into metrics; the one
    evaluation path of `catunet evaluate` and the end-to-end gates.

    The forward runs over `eval_batch` samples at a time, and each sample is
    judged from its slice as `diagnose` judges it, with the same bits. A
    mask is made only with `with_masks` and a `truth_mask`; no
    reconstruction outlives its batch. Dice is over the masked samples
    (None when there are none), confusion over those with a
    `truth_label`, reconstruction accuracy over all of them: one minus
    the mean score, rescaled to the normalized [0,1] range.
    """
    results = []
    step = eval_batch(model.config.input_size)
    for i in range(0, len(samples), step):
        chunk = samples[i:i + step]
        xs = np.concatenate([_as_batch(s.pixels) for s in chunk])
        results += [_judge(s.id, x, r, config, with_masks and s.truth_mask is not None)
                    for s, x, r in zip(chunk, xs, _forward(model, xs))]
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
    write_atomic(path, "".join(r.to_json_line() + "\n" for r in results))


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
    bad = [i for i, e in enumerate(error_maps) if not np.isfinite(e).all()]
    if bad:
        raise ValueError(f"error maps at positions {bad} hold NaN or inf")
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
    bad = [s for s in scores if not math.isfinite(s)]
    if bad:
        raise ValueError(f"scores must be finite, got {bad}")
    if not (math.isfinite(margin) and margin > 0):
        raise ValueError(f"margin must be finite and positive, got {margin}")
    threshold = max(scores) * margin
    if not math.isfinite(threshold):
        raise ValueError(f"threshold overflows: largest score {max(scores)} times margin {margin} "
                         "is not finite")
    return threshold
