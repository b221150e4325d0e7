"""The concatenation-augmented encoder-decoder network.

Symmetric ladder: each encoder level runs two same-padded 3x3 convolutions
with ReLU and then halves the resolution with max-pooling; the pre-pool
activation is kept as the level's skip feature, and the channel count
doubles from one level to the next. The bottleneck is one conv+ReLU. Each
decoder level doubles the resolution with nearest upsampling, concatenates
the spatially matching encoder skip onto the channel axis, and applies one
conv+ReLU followed by dropout (training only). A linear 1x1 convolution maps
the last decoder features to the output, which has the input's shape.

The decoder's upsample, concatenation and 3x3 conv run as one primitive,
`T.up_concat_conv2d`, which computes the upsampled part at low resolution
(the four output phases' 2x2 kernels stacked as one 2x2 conv) and never
builds the upsampled or the concatenated map. `dec{k}_w` is still the
weight of the conv over the concatenation: upsampled channels first,
then the skip's.

Every conv but the linear `out` runs with `relu=True`: ReLU is the conv's
epilogue, not a node of its own, so a training graph holds one map per
conv layer (5 * depth + 2 non-leaf 4-d nodes with dropout on).
"""

import io
import json
import math
import struct
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import tensor as T
from .artifacts import write_atomic
from .rng import Rng

CHECKPOINT_MAGIC = b"CATU"
CHECKPOINT_VERSION = 1
KERNEL_SIZE = 3
CHANNEL_GROWTH = 2


class CheckpointError(RuntimeError):
    """Checkpoint file is malformed (bad magic, version, or truncated)."""


@dataclass
class CatUNetConfig:
    input_channels: int = 1
    input_size: int = 256
    depth: int = 3
    base_channels: int = 16
    dropout_rate: float = 0.5

    def __post_init__(self):
        self.validate()

    def validate(self):
        # bool is an int subclass; refuse True as a size or a rate
        sizes = ("input_channels", "input_size", "depth", "base_channels")
        problems = [f"{k} must be an integer, got {getattr(self, k)!r}" for k in sizes
                    if type(getattr(self, k)) is not int]
        if isinstance(self.dropout_rate, bool) or not isinstance(self.dropout_rate, (int, float)):
            problems.append(f"dropout_rate must be a number, got {self.dropout_rate!r}")
        if problems:
            raise ValueError("invalid config: " + "; ".join(problems))
        if self.depth < 1:
            problems.append(f"depth must be >= 1, got {self.depth}")
        if self.base_channels < 1:
            problems.append(f"base_channels must be >= 1, got {self.base_channels}")
        if self.input_channels < 1:
            problems.append(f"input_channels must be >= 1, got {self.input_channels}")
        # a multiple of 2^depth has more than depth bits, so a huge depth
        # fails here before 2^depth is computed
        if (self.input_size < 1 or self.input_size.bit_length() <= self.depth
                or self.input_size % 2 ** self.depth):
            problems.append(f"input_size must be a positive multiple of 2^depth=2^{self.depth}, "
                            f"got {self.input_size}")
        if not 0 <= self.dropout_rate < 1:
            problems.append(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if problems:
            raise ValueError("invalid config: " + "; ".join(problems))

    def encoder_channels(self) -> List[int]:
        """Channel ladder of the encoder levels (pre-pool features)."""
        return [self.base_channels * CHANNEL_GROWTH ** i for i in range(self.depth)]

    def bottleneck_channels(self) -> int:
        return self.base_channels * CHANNEL_GROWTH ** self.depth

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "CatUNetConfig":
        fields = json.loads(text)
        if not isinstance(fields, dict):
            raise ValueError("config must be a JSON object")
        # Older headers carry settings the code now fixes; each is accepted
        # only at the value the code uses.
        fixed = {"kernel_size": KERNEL_SIZE, "channel_growth": CHANNEL_GROWTH,
                 "output_channels": fields.get("input_channels", cls.input_channels)}
        for key, value in fixed.items():
            found = fields.pop(key, value)
            # compared with its type too: true == 1 and 3.0 == 3
            if (type(found), found) != (type(value), value):
                raise ValueError(f"{key} ({found!r}) must be {value!r}")
        return cls(**fields)


def parameter_count(config: CatUNetConfig) -> int:
    """Closed-form parameter total for a config (weights plus biases)."""
    k2 = KERNEL_SIZE ** 2
    enc = config.encoder_channels()
    total = 0
    prev = config.input_channels
    for c in enc:
        total += c * prev * k2 + c      # conv1
        total += c * c * k2 + c         # conv2
        prev = c
    cb = config.bottleneck_channels()
    total += cb * enc[-1] * k2 + cb
    up = cb
    for c in reversed(enc):
        total += c * (up + c) * k2 + c  # decoder conv after concat
        up = c
    total += config.input_channels * enc[0] + config.input_channels
    return total


@dataclass
class CatUNetModel:
    config: CatUNetConfig
    parameters: Dict[str, T.Tensor]

    def zero_grad(self):
        for p in self.parameters.values():
            p.zero_grad()

    def _conv(self, name: str, x: T.Tensor, relu: bool = True) -> T.Tensor:
        w = self.parameters[f"{name}_w"]
        return T.conv2d(x, w, self.parameters[f"{name}_b"], padding=w.shape[-1] // 2, relu=relu)

    def forward(self, batch: T.Tensor, training: bool = False,
                dropout_rng: Optional[np.random.Generator] = None,
                return_features: bool = False):
        """Run the network; output spatial shape equals the input's.

        `training=True` activates decoder dropout and requires `dropout_rng`
        (unless the configured rate is 0). With `return_features=True` the
        output comes with each decoder level's `(x_low, skip)` pair; that
        level's conv reads `concat_channels(upsample_nearest(x_low), skip)`,
        which `T.up_concat_conv2d` never builds.
        """
        cfg = self.config
        n, c, h, w = batch.shape if batch.data.ndim == 4 else (None,) * 4
        if n is None:
            raise T.ShapeError(f"forward: expected a 4-d batch, got {batch.data.ndim}-d")
        if c != cfg.input_channels or h != cfg.input_size or w != cfg.input_size:
            raise T.ShapeError(
                f"forward: batch is {c}x{h}x{w}, model expects "
                f"{cfg.input_channels}x{cfg.input_size}x{cfg.input_size}")
        use_dropout = training and cfg.dropout_rate > 0
        if use_dropout and dropout_rng is None:
            raise ValueError("forward: training mode with dropout needs a dropout_rng")

        x = batch
        skips: List[T.Tensor] = []
        for i in range(cfg.depth):
            x = self._conv(f"enc{i}_conv1", x)
            x = self._conv(f"enc{i}_conv2", x)
            skips.append(x)
            x, _ = T.maxpool2d(x)
        x = self._conv("bottleneck", x)

        features: List[Tuple[T.Tensor, T.Tensor]] = []
        for k in range(1, cfg.depth + 1):
            # popped and deleted, so inference frees each skip once its
            # level has run
            skip = skips.pop()
            if return_features:
                features.append((x, skip))
            x = T.up_concat_conv2d(x, skip, self.parameters[f"dec{k}_w"],
                                   self.parameters[f"dec{k}_b"], relu=True)
            del skip
            if use_dropout:
                x = T.dropout(x, cfg.dropout_rate, dropout_rng)
        out = self._conv("out", x, relu=False)
        if return_features:
            return out, features
        return out


def _parameter_shapes(config: CatUNetConfig) -> List[Tuple[str, Tuple[int, ...]]]:
    """(name, shape) of every parameter in the order `build` creates them:
    each conv's weight (cout, cin, k, k), then its bias (cout,)."""
    k = KERNEL_SIZE
    convs = []
    enc = config.encoder_channels()
    prev = config.input_channels
    for i, c in enumerate(enc):
        convs += [(f"enc{i}_conv1", c, prev, k), (f"enc{i}_conv2", c, c, k)]
        prev = c
    cb = config.bottleneck_channels()
    convs.append(("bottleneck", cb, prev, k))
    up = cb
    for kk in range(1, config.depth + 1):
        partner = enc[config.depth - kk]
        convs.append((f"dec{kk}", partner, up + partner, k))
        up = partner
    convs.append(("out", config.input_channels, enc[0], 1))
    shapes = []
    for name, cout, cin, ksz in convs:
        shapes += [(f"{name}_w", (cout, cin, ksz, ksz)), (f"{name}_b", (cout,))]
    return shapes


def build(config: CatUNetConfig, rng: Rng) -> CatUNetModel:
    """He-initialize the parameters the config implies: fan-in scaled
    normal weights, zero biases."""
    config.validate()
    gen = rng.stream("init")
    params: Dict[str, T.Tensor] = {}
    for name, shape in _parameter_shapes(config):
        if len(shape) == 4:
            std = np.sqrt(2.0 / (shape[1] * shape[2] * shape[3]))
            data = (gen.standard_normal(shape) * std).astype(np.float32)
        else:
            data = np.zeros(shape, dtype=np.float32)
        params[name] = T.Tensor(data, requires_grad=True, name=name)
    return CatUNetModel(config=config, parameters=params)


def feature_norm(model: CatUNetModel, batch: T.Tensor) -> List[float]:
    """L2 norm of the concatenated feature map at each decoder level,
    sqrt(4 |x_low|^2 + |skip|^2) in float64: the nearest-2x upsample holds
    each low-res pixel four times."""
    with T.no_grad():
        _, feats = model.forward(batch, training=False, return_features=True)
    return [float(np.sqrt(4 * np.square(lo.data, dtype=np.float64).sum()
                          + np.square(sk.data, dtype=np.float64).sum()))
            for lo, sk in feats]


def save_checkpoint(model: CatUNetModel, path: str):
    """Versioned binary snapshot; parameters stored as raw little-endian f32,
    written atomically (`write_atomic`)."""
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    cfg = model.config.to_json().encode("utf-8")
    buf.write(struct.pack("<I", len(cfg)))
    buf.write(cfg)
    buf.write(struct.pack("<I", len(model.parameters)))
    for name, p in model.parameters.items():
        nb = name.encode("utf-8")
        buf.write(struct.pack("<H", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<B", p.data.ndim))
        for d in p.data.shape:
            buf.write(struct.pack("<I", d))
        buf.write(np.ascontiguousarray(p.data, dtype="<f4").tobytes())
    write_atomic(path, buf.getvalue())


def load_checkpoint(path: str) -> CatUNetModel:
    with open(path, "rb") as f:
        raw = f.read()
    view = io.BytesIO(raw)

    def take(n: int, what: str) -> bytes:
        chunk = view.read(n)
        if len(chunk) != n:
            raise CheckpointError(f"truncated checkpoint while reading {what}")
        return chunk

    if take(4, "magic") != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic bytes in {path}")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (cfg_len,) = struct.unpack("<I", take(4, "config length"))
    try:
        config = CatUNetConfig.from_json(take(cfg_len, "config").decode("utf-8"))
    except (ValueError, TypeError, RecursionError) as e:
        raise CheckpointError(f"bad config block: {e}") from e
    (count,) = struct.unpack("<I", take(4, "parameter count"))
    shapes = dict(_parameter_shapes(config))
    if count != len(shapes):
        raise CheckpointError(
            f"checkpoint holds {count} parameters, config implies {len(shapes)}")
    values: Dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        # a name that is not UTF-8 matches no parameter
        name = take(name_len, "name").decode("utf-8", "backslashreplace")
        (rank,) = struct.unpack("<B", take(1, "rank"))
        dims = struct.unpack(f"<{rank}I", take(4 * rank, "dims"))
        # name and shape are checked before the values are read, so the
        # config bounds the read
        if name not in shapes:
            raise CheckpointError(f"unexpected parameter {name!r} in checkpoint")
        if name in values:
            raise CheckpointError(f"parameter {name!r} appears twice in checkpoint")
        if shapes[name] != dims:
            raise CheckpointError(
                f"parameter {name!r} has shape {dims}, config implies {shapes[name]}")
        vals = np.frombuffer(take(4 * math.prod(dims), f"values of {name}"), dtype="<f4").reshape(dims)
        if not np.isfinite(vals).all():
            raise CheckpointError(f"parameter {name!r} holds non-finite values")
        values[name] = vals.astype(np.float32)
    if view.read(1):
        raise CheckpointError("trailing bytes after last parameter")
    params = {name: T.Tensor(values[name], requires_grad=True, name=name) for name in shapes}
    return CatUNetModel(config=config, parameters=params)
