"""Image I/O, preprocessing, dataset directory handling, and the
deterministic synthetic corpus generator.

Images are 8-bit grayscale. Binary PGM (P5) is the native format; PNG
works when Pillow is installed. Pixel values are normalized to [0,1]
on load.

The synthetic corpus mirrors a positives-only training regime. Each
class has its own background character, the way two patient
populations differ globally and not just at the lesion site:
"positive" (condition) images are broad smooth blobs hosting one
bright elliptical lesion with a per-image random interior texture;
"negative" (clean) images are smooth backgrounds built from more,
finer blobs and carry no lesion. A reconstructor fitted only to the
positives reproduces positive-family backgrounds well — so unseen
positives keep low reconstruction error, concentrated in the
unpredictable lesion interior — while the finer negative backgrounds
fall outside what it learned and come back with high error.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass

import numpy as np

from .artifacts import write_atomic
from .metrics import NEGATIVE, POSITIVE
from .rng import Rng

logger = logging.getLogger("catunet.data_io")


@dataclass
class ImageSample:
    id: str
    pixels: np.ndarray  # (C, H, W) float32 in [0, 1]
    truth_label: str | None = None
    truth_mask: np.ndarray | None = None  # (H, W) uint8 in {0, 1}


LESION_RADII = (5, 7)  # smallest and largest semi-axis of a lesion, in pixels


@dataclass
class SynthConfig:
    image_size: int = 64
    n_positive: int = 100
    n_negative: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        problems = []
        min_size = 2 * (LESION_RADII[1] + 2) + 1  # _lesion keeps a 2-pixel margin
        if self.image_size < min_size:
            problems.append(f"image_size must be >= {min_size}: lesion radius "
                            f"{LESION_RADII[1]} plus a 2-pixel margin must stay below "
                            f"half the image size, got {self.image_size}")
        if self.n_positive < 0 or self.n_negative < 0:
            problems.append("sample counts must be >= 0")
        if self.seed < 0:
            problems.append(f"seed must be >= 0, got {self.seed}")
        if problems:
            raise ValueError("invalid synth config: " + "; ".join(problems))


# --------------------------------------------------------------------------
# PGM / PNG codecs


def read_pgm(path: str) -> np.ndarray:
    """Decode a binary (P5) PGM file into a 2-d uint8 array on the 0-255
    scale, whatever the file's maxval."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read image '{path}': {exc}") from exc

    pos = 0

    def next_token() -> bytes:
        nonlocal pos
        while pos < len(raw):
            if raw[pos: pos + 1].isspace():
                pos += 1
            elif raw[pos: pos + 1] == b"#":  # comment runs to end of line
                while pos < len(raw) and raw[pos: pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            else:
                break
        start = pos
        while pos < len(raw) and not raw[pos: pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ValueError(f"'{path}' is not a valid PGM file: truncated header")
        return raw[start:pos]

    magic = next_token()
    if magic != b"P5":
        raise ValueError(f"'{path}' is not a binary PGM (P5) file, "
                         f"found magic {magic!r}")
    try:
        width = int(next_token())
        height = int(next_token())
        maxval = int(next_token())
    except ValueError as exc:
        raise ValueError(f"'{path}' has a malformed PGM header") from exc
    if maxval > 255:
        raise ValueError(f"'{path}' has maxval {maxval}; only 8-bit images "
                         "are supported")
    if maxval < 1 or width < 1 or height < 1:
        raise ValueError(f"'{path}' has an invalid PGM header "
                         f"({width}x{height}, maxval {maxval})")
    pos += 1  # single whitespace byte separates header from raster
    data = raw[pos: pos + width * height]
    if len(data) != width * height:
        raise ValueError(f"'{path}' is truncated: expected {width * height} "
                         f"raster bytes, found {len(data)}")
    raster = np.frombuffer(data, dtype=np.uint8).reshape(height, width)
    if maxval < 255:
        # callers read 0-255 intensities, so a lower maxval is rescaled
        if raster.max() > maxval:
            raise ValueError(f"'{path}' has a raster value {raster.max()} "
                             f"above its maxval {maxval}")
        raster = np.round(raster * 255.0 / maxval).astype(np.uint8)
    return raster


def write_pgm(path: str, image: np.ndarray) -> None:
    """Write a 2-d uint8 array as a binary (P5) PGM file."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ValueError(f"PGM images are 2-d, got shape {arr.shape}")
    if arr.dtype != np.uint8:
        raise ValueError(f"PGM images must be uint8, got {arr.dtype}")
    h, w = arr.shape
    write_atomic(path, f"P5\n{w} {h}\n255\n".encode("ascii") + arr.tobytes())


def _read_png(path: str) -> np.ndarray:
    try:
        from PIL import Image
    except ImportError as exc:
        raise ValueError(
            f"cannot read '{path}': PNG support needs the optional Pillow "
            "dependency (install the 'png' extra)") from exc
    try:
        with Image.open(path) as img:
            return np.asarray(img.convert("L"), dtype=np.uint8)
    except Exception as exc:
        raise ValueError(f"cannot decode PNG '{path}': {exc}") from exc


def load_image(path: str) -> ImageSample:
    """Load an 8-bit grayscale image and scale it into [0, 1]."""
    ext = os.path.splitext(path)[1].lower()
    if ext == ".pgm":
        raster = read_pgm(path)
    elif ext == ".png":
        raster = _read_png(path)
    else:
        raise ValueError(f"unsupported image format '{ext}' for '{path}' "
                         "(supported: .pgm, .png)")
    pixels = (raster.astype(np.float32) / 255.0)[None, :, :]
    stem = os.path.splitext(os.path.basename(path))[0]
    return ImageSample(id=stem, pixels=pixels)


# --------------------------------------------------------------------------
# Preprocessing


def resize_bilinear(image: np.ndarray, target: int) -> np.ndarray:
    """Bilinear resize of a 2-d array to target x target, using
    half-pixel-centered sampling. Identity when already at size."""
    img = np.asarray(image, dtype=np.float32)
    h, w = img.shape
    if target < 1:
        raise ValueError(f"target size must be >= 1, got {target}")
    if (h, w) == (target, target):
        return img
    out = np.empty((target, target), dtype=np.float32)
    ys = np.clip((np.arange(target) + 0.5) * (h / target) - 0.5, 0, h - 1)
    xs = np.clip((np.arange(target) + 0.5) * (w / target) - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0).astype(np.float32)[:, None]
    wx = (xs - x0).astype(np.float32)[None, :]
    out = (img[np.ix_(y0, x0)] * (1 - wy) * (1 - wx)
           + img[np.ix_(y0, x1)] * (1 - wy) * wx
           + img[np.ix_(y1, x0)] * wy * (1 - wx)
           + img[np.ix_(y1, x1)] * wy * wx)
    return out.astype(np.float32)


def _resize_mask(mask: np.ndarray, target: int) -> np.ndarray:
    if mask.shape == (target, target):
        return mask
    h, w = mask.shape
    ys = np.clip(np.round((np.arange(target) + 0.5) * (h / target) - 0.5), 0, h - 1).astype(int)
    xs = np.clip(np.round((np.arange(target) + 0.5) * (w / target) - 0.5), 0, w - 1).astype(int)
    return mask[np.ix_(ys, xs)].astype(np.uint8)


def resize(sample: ImageSample, target: int) -> ImageSample:
    """Resize a sample (and its mask, if any) to target x target."""
    channels = [resize_bilinear(c, target) for c in sample.pixels]
    mask = None if sample.truth_mask is None else _resize_mask(sample.truth_mask, target)
    return ImageSample(id=sample.id, pixels=np.stack(channels),
                       truth_label=sample.truth_label, truth_mask=mask)


def preprocess(sample: ImageSample, target: int, channels: int = 1) -> ImageSample:
    """Resize to the model's input size, clamp into [0,1], and replicate
    the gray channel when the model wants more than one. Idempotent."""
    out = resize(sample, target)
    pixels = np.clip(out.pixels, 0.0, 1.0).astype(np.float32)
    if pixels.shape[0] == 1 and channels > 1:
        pixels = np.repeat(pixels, channels, axis=0)
    elif pixels.shape[0] != channels:
        raise ValueError(f"sample '{sample.id}' has {pixels.shape[0]} channels, "
                         f"cannot map to {channels}")
    return ImageSample(id=out.id, pixels=pixels, truth_label=out.truth_label,
                       truth_mask=out.truth_mask)


# --------------------------------------------------------------------------
# Dataset directory handling


def load_dataset(root: str):
    """Load root/positive, root/negative, root/masks.

    Returns (positives, negatives, masks) where masks maps file stems to
    binary arrays; each positive with a matching mask also gets its
    truth_mask attached. File order is lexicographic by name.
    """
    if not os.path.isdir(root):
        raise ValueError(f"dataset root '{root}' is not a directory")
    pos_dir = os.path.join(root, "positive")
    if not os.path.isdir(pos_dir):
        raise ValueError(f"dataset root '{root}' has no positive/ directory")

    def load_dir(directory: str, label: str) -> list[ImageSample]:
        if not os.path.isdir(directory):
            return []
        samples = []
        for name in sorted(os.listdir(directory)):
            if os.path.splitext(name)[1].lower() not in (".pgm", ".png"):
                continue
            sample = load_image(os.path.join(directory, name))
            sample.truth_label = label
            samples.append(sample)
        return samples

    positives = load_dir(pos_dir, POSITIVE)
    negatives = load_dir(os.path.join(root, "negative"), NEGATIVE)

    masks: dict[str, np.ndarray] = {}
    mask_dir = os.path.join(root, "masks")
    if os.path.isdir(mask_dir):
        stems = {s.id for s in positives}
        for name in sorted(os.listdir(mask_dir)):
            if os.path.splitext(name)[1].lower() != ".pgm":
                continue
            stem = os.path.splitext(name)[0]
            raster = read_pgm(os.path.join(mask_dir, name))
            masks[stem] = (raster > 127).astype(np.uint8)
            if stem not in stems:
                logger.warning("mask '%s' has no matching positive sample", name)
    for sample in positives:
        if sample.id in masks:
            sample.truth_mask = masks[sample.id]
    return positives, negatives, masks


# --------------------------------------------------------------------------
# Synthetic corpus generator


def _grid(size: int):
    return np.meshgrid(np.arange(size, dtype=np.float64),
                       np.arange(size, dtype=np.float64), indexing="ij")


def _vignette(size: int) -> np.ndarray:
    """Smooth border darkening: 0 in the middle, 0.2 at the edge, easing
    over a band one quarter of the image wide."""
    ii, jj = _grid(size)
    d = np.minimum(np.minimum(ii, jj), np.minimum(size - 1 - ii, size - 1 - jj))
    band = size / 4.0
    tt = np.clip(1.0 - d / band, 0.0, 1.0)
    return 0.20 * tt * tt * (3.0 - 2.0 * tt)


def _positive_background(gen: np.random.Generator, size: int):
    """Condition-class background: a gentle ramp, one dominant bright
    blob (the lesion host), two dim broad secondary blobs, and the
    acquisition vignette shared by every condition image."""
    ii, jj = _grid(size)
    field = 0.28 + 0.04 * (ii + jj) / (2.0 * size)
    cy, cx = gen.uniform(0.3 * size, 0.7 * size, 2)
    sy, sx = gen.uniform(size / 4.0, size / 3.0, 2)
    field = field + 0.12 * np.exp(-((ii - cy) ** 2 / (2 * sy ** 2)
                                    + (jj - cx) ** 2 / (2 * sx ** 2)))
    for _ in range(2):
        by, bx = gen.uniform(0, size, 2)
        s = gen.uniform(size / 5.0, size / 3.0)
        amp = gen.uniform(0.04, 0.06)
        field = field + amp * np.exp(-((ii - by) ** 2 + (jj - bx) ** 2) / (2 * s ** 2))
    return field - _vignette(size)


def _negative_background(gen: np.random.Generator, size: int):
    """Clean-class background: the same gentle ramp and six of the same
    kind of smooth blobs, but acquired without the vignette — these
    images stay bright all the way out to the border."""
    ii, jj = _grid(size)
    field = 0.28 + 0.04 * (ii + jj) / (2.0 * size)
    for _ in range(6):
        by, bx = gen.uniform(0, size, 2)
        s = gen.uniform(size / 5.0, size / 3.0)
        amp = gen.uniform(0.05, 0.10)
        field = field + amp * np.exp(-((ii - by) ** 2 + (jj - bx) ** 2) / (2 * s ** 2))
    return field


def _lesion(gen: np.random.Generator, size: int):
    """Bright ellipse at a random interior position: a flat plateau with
    a thin smooth taper to zero at the boundary, overlaid with a
    strictly positive two-level speckle texture.

    Every pixel inside the ellipse gains strictly positive intensity,
    so the emitted mask is exactly the support of the added signal.
    Returns (added intensity map, binary mask, center, radii)."""
    lo, hi = LESION_RADII
    ra = int(gen.integers(lo, hi + 1))
    rb = int(gen.integers(lo, hi + 1))
    theta = float(gen.uniform(0, np.pi))
    margin = max(ra, rb) + 2
    cy = int(gen.integers(margin, size - margin))
    cx = int(gen.integers(margin, size - margin))

    ii, jj = _grid(size)
    dy, dx = ii - cy, jj - cx
    u = (dx * np.cos(theta) + dy * np.sin(theta)) / ra
    v = (-dx * np.sin(theta) + dy * np.cos(theta)) / rb
    rho = np.sqrt(u * u + v * v)
    inside = rho < 1.0  # strict: the taper is positive everywhere inside

    # smoothstep taper: full plateau in the middle, easing to 0 at rho = 1
    # over the outer 0.3 of the radius
    tt = np.clip((1.0 - rho) / 0.3, 0.0, 1.0)
    taper = tt * tt * (3.0 - 2.0 * tt)
    # two-level speckle in {0.06, 0.3}: strictly positive, fair coin per
    # pixel, equidistant from the per-pixel mean either way
    coin = gen.uniform(0.0, 1.0, (size, size)) < 0.5
    added = 0.3 * taper + 0.30 * np.where(coin, 1.0, 0.2)
    added = np.where(inside, added, 0.0)
    return added, inside.astype(np.uint8), (cy, cx), (ra, rb)


def synthesize(config: SynthConfig, out_dir: str) -> dict:
    """Write a synthetic dataset under out_dir and return its manifest.

    Layout: positive/pos_###.pgm, negative/neg_###.pgm,
    masks/pos_###.pgm, manifest.json. Byte-identical for equal configs.
    """
    gen = Rng(config.seed).stream("synth")
    for sub in ("positive", "negative", "masks"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)

    entries = []
    for k in range(config.n_positive):
        field = _positive_background(gen, config.image_size)
        added, mask, center, radii = _lesion(gen, config.image_size)
        noise = gen.normal(0.0, 0.01, field.shape)
        img = np.clip(field + added + noise, 0.0, 1.0)
        raster = np.round(img * 255.0).astype(np.uint8)
        name = f"pos_{k:03d}"
        write_pgm(os.path.join(out_dir, "positive", name + ".pgm"), raster)
        write_pgm(os.path.join(out_dir, "masks", name + ".pgm"),
                  (mask * 255).astype(np.uint8))
        entries.append({"id": name, "label": POSITIVE,
                        "lesion_center": list(center),
                        "lesion_radii": list(radii)})
    for k in range(config.n_negative):
        field = _negative_background(gen, config.image_size)
        noise = gen.normal(0.0, 0.10, field.shape)
        img = np.clip(field + noise, 0.0, 1.0)
        raster = np.round(img * 255.0).astype(np.uint8)
        name = f"neg_{k:03d}"
        write_pgm(os.path.join(out_dir, "negative", name + ".pgm"), raster)
        entries.append({"id": name, "label": NEGATIVE})

    manifest = {
        "seed": config.seed,
        "image_size": config.image_size,
        "n_positive": config.n_positive,
        "n_negative": config.n_negative,
        "samples": entries,
    }
    write_atomic(os.path.join(out_dir, "manifest.json"),
                 json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
