"""Finite-difference verification of the analytic gradients.

The probes run the regular op code on float64 tensors so the comparison is
limited by truncation error of the central difference, not by float32
rounding; production paths stay float32.
"""

from typing import Callable, Dict, Iterable

import numpy as np

from . import tensor as T
from .rng import Rng

DEFAULT_STEP = 1e-3
PRIMITIVE_TOL = 1e-4
MODEL_TOL = 1e-3


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))


def grad_check(fn: Callable[[], T.Tensor], wrt: Iterable[T.Tensor], h: float = DEFAULT_STEP) -> float:
    """Max relative error between analytic and central-difference gradients.

    `fn` rebuilds a scalar loss from the tensors in `wrt` on every call; the
    probes perturb each element of each tensor in place. Any randomness
    inside `fn` must be re-seeded per call so all evaluations agree.
    """
    wrt = list(wrt)
    for t in wrt:
        t.zero_grad()
    loss = fn()
    T.backward(loss)
    analytic = [np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in wrt]

    worst = 0.0
    for t, ga in zip(wrt, analytic):
        flat = t.data.reshape(-1)
        gf = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            with T.no_grad():
                fp = fn().item()
            flat[i] = orig - h
            with T.no_grad():
                fm = fn().item()
            flat[i] = orig
            numeric = (fp - fm) / (2 * h)
            worst = max(worst, relative_error(float(gf[i]), numeric))
    return worst


def _f64(gen: np.random.Generator, shape, lo=-1.0, hi=1.0, requires_grad=True) -> T.Tensor:
    return T.Tensor(gen.uniform(lo, hi, size=shape).astype(np.float64), requires_grad=requires_grad)


def primitive_checks(seed: int = 0) -> Dict[str, float]:
    """Max relative FD error per differentiable primitive."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    errs: Dict[str, float] = {}

    x = _f64(gen, (1, 2, 4, 4))
    w = _f64(gen, (3, 2, 3, 3))
    b = _f64(gen, (3,))
    tgt = T.Tensor(gen.uniform(-1, 1, (1, 3, 4, 4)).astype(np.float64))
    errs["conv2d"] = grad_check(lambda: T.mse(T.conv2d(x, w, b, stride=1, padding=1), tgt), [x, w, b])

    x2 = _f64(gen, (2, 2, 2, 4))
    tgt2 = T.Tensor(gen.uniform(-1, 1, (2, 3, 1, 2)).astype(np.float64))
    errs["conv2d_strided"] = grad_check(
        lambda: T.mse(T.conv2d(x2, w, b, stride=2, padding=1), tgt2), [x2, w, b])

    # distinct window values keep the max away from ties, so the FD probe
    # (h = 1e-3) never flips the argmax
    vals = gen.permutation(np.linspace(-1, 1, 2 * 2 * 4 * 4)).reshape(2, 2, 4, 4)
    xp = T.Tensor(vals.astype(np.float64), requires_grad=True)
    ptgt = T.Tensor(gen.uniform(-1, 1, (2, 2, 2, 2)).astype(np.float64))
    errs["maxpool2d"] = grad_check(lambda: T.mse(T.maxpool2d(xp)[0], ptgt), [xp])

    xu = _f64(gen, (1, 2, 3, 3))
    utgt = T.Tensor(gen.uniform(-1, 1, (1, 2, 6, 6)).astype(np.float64))
    errs["upsample_nearest"] = grad_check(lambda: T.mse(T.upsample_nearest(xu), utgt), [xu])

    ca = _f64(gen, (2, 2, 3, 3))
    cb = _f64(gen, (2, 3, 3, 3))
    ctgt = T.Tensor(gen.uniform(-1, 1, (2, 5, 3, 3)).astype(np.float64))
    errs["concat_channels"] = grad_check(lambda: T.mse(T.concat_channels(ca, cb), ctgt), [ca, cb])

    # keep inputs off the kink at 0 where the subgradient convention applies
    rv = gen.uniform(0.1, 1.0, (2, 3, 4, 4)) * gen.choice([-1.0, 1.0], (2, 3, 4, 4))
    xr = T.Tensor(rv.astype(np.float64), requires_grad=True)
    rtgt = T.Tensor(gen.uniform(-1, 1, (2, 3, 4, 4)).astype(np.float64))
    errs["relu"] = grad_check(lambda: T.mse(T.relu(xr), rtgt), [xr])

    xd = _f64(gen, (2, 2, 4, 4))
    dtgt = T.Tensor(gen.uniform(-1, 1, (2, 2, 4, 4)).astype(np.float64))

    def drop_loss():
        g = np.random.Generator(np.random.Philox(np.random.SeedSequence(9)))
        return T.mse(T.dropout(xd, 0.5, True, g), dtgt)

    errs["dropout"] = grad_check(drop_loss, [xd])

    ma = _f64(gen, (3, 5))
    mb = _f64(gen, (3, 5))
    errs["mse"] = grad_check(lambda: T.mse(ma, mb), [ma, mb])

    # drawn last, so the entries above keep their draws
    ul = _f64(gen, (2, 2, 2, 2))
    us = _f64(gen, (2, 1, 4, 4))
    uw = _f64(gen, (2, 3, 3, 3))
    ub = _f64(gen, (2,))
    uctgt = T.Tensor(gen.uniform(-1, 1, (2, 2, 4, 4)).astype(np.float64))
    errs["up_concat_conv2d"] = grad_check(
        lambda: T.mse(T.up_concat_conv2d(ul, us, uw, ub), uctgt), [ul, us, uw, ub])

    return errs


def model_check(seed: int = 0) -> float:
    """FD check through the whole tiny network, dropout disabled.

    Uses a finer step than the per-op checks: the net stacks ReLUs and max
    pools, and a parameter nudge that pushes a pre-activation across a kink
    invalidates the central difference. h = 1e-5 keeps the probes inside one
    linear piece while float64 still leaves ~6 digits of headroom.
    """
    from .model import CatUNetConfig, build

    cfg = CatUNetConfig(input_channels=1, input_size=8, depth=1, base_channels=2, dropout_rate=0.0)
    net = build(cfg, Rng(seed))
    params = list(net.parameters.values())
    for p in params:
        p.data = p.data.astype(np.float64)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed + 1)))
    x = T.Tensor(gen.uniform(0, 1, (1, 1, 8, 8)).astype(np.float64))
    return grad_check(lambda: T.mse(net.forward(x, training=False), x), params, h=1e-5)


def tolerance(name: str) -> float:
    """The relative error a suite entry must stay under to pass."""
    return MODEL_TOL if name == "model" else PRIMITIVE_TOL


def run_suite(seed: int = 0) -> Dict[str, float]:
    """Primitive checks plus the full-model check, keyed by op name."""
    errs = primitive_checks(seed)
    errs["model"] = model_check(seed)
    return errs
