"""Dense tensors with reverse-mode autodiff over the handful of primitives
the network needs: convolution, max-pooling, nearest upsampling, channel
concatenation, the decoder's fused upsample-concatenate-convolve
(`up_concat_conv2d`), ReLU, dropout, and mean-squared-error.

Each operation returns a new Tensor holding a closure that knows how to push
the output gradient back to its parents; `backward()` walks the recorded
graph in reverse topological order and accumulates into `.grad`. Images are
channels-first (N, C, H, W). Values are float32 by default; float arrays
keep their dtype so checks can run the same code in float64.

To keep a training step's memory down, `backward()` releases each
intermediate gradient once its closure has pushed it on (leaves keep
theirs), and the convolutions' backward rebuilds the zero-padded copy of
its input instead of keeping it from the forward (memory for recompute:
Chen et al. 2016, arXiv 1604.06174). With `relu=True` a convolution
applies ReLU in its epilogue and its backward takes the ReLU mask from
the clamped output (`out > 0` selects the same elements as `x > 0` of the
pre-activation x, NaN included), so the graph keeps one map per conv
layer and no pre-activation (the output-side backward of In-Place
Activated BatchNorm: Rota Bulo et al. 2018, arXiv 1712.02616). What the
graph keeps for the other elementwise ops is compact: max-pooling's
routing index takes one byte per output for 2x2 windows, dropout's keep
mask one bool per element. `relu` stays as a primitive, the reference of
the fused epilogue.

Convolution runs as one BLAS GEMM per kernel tap over shifted views of a
zero-padded, channel-major copy of its input; the repack stays inside
`conv2d`, so every op takes and returns NCHW. Each tap loop walks the
flattened columns in tiles of `TILE` columns, because OpenBLAS runs this
model's thin GEMMs (a few rows, thousands of columns) several times
slower once their operands outgrow the cache; the input gradient is
gathered tile by tile from a zero-led gradient grid, so it runs the same
loop as the forward.

The forward tiles each image's columns from that image's first column
and gives each image its own GEMM calls (numpy's stacked matmul calls
BLAS once per image), so an image in a batch goes through the calls of
its batch-1 forward and gets its bits. A BLAS may sum a column in
another order depending on where the column falls in a call: OpenBLAS
0.3.31's Haswell kernels, which it also runs on Zen, do that at every
width, and its SkylakeX kernels in the ragged last `N mod 16` columns
once the inner dimension reaches 32. Equal calls gave equal bits
whatever the operands' offsets and row strides, checked with these
kernels and the SandyBridge ones at 1 and 2 BLAS threads. The backward
sweeps the whole batch at once; it needs no batch invariance.

The polyphase identity: a 3x3 conv over a nearest-2x upsample equals four
2x2 convs at the low resolution, one per output phase (row and column
parity), each with the sums of the 3x3 taps that read the same low-res
pixel (the resize-convolution / sub-pixel equivalence: Odena, Dumoulin &
Olah, Distill 2016; Shi et al. 2016, arXiv 1609.07009).
`up_concat_conv2d` runs the decoder's upsample, concatenation and conv
that way, so it never builds the upsampled or the concatenated map.
`upsample_nearest` and `concat_channels` stay as primitives: composed
with `conv2d` they are its reference.
"""

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Optional, Tuple

import numpy as np


# Columns per GEMM in conv2d's tap loops. On a 2-vCPU x86_64 VM with
# OpenBLAS 0.3.31 on one thread, a (6x18)@(18xn) tap ran at 59 GFLOP/s for
# n = 8192 and 12 GFLOP/s for n = 20000; a whole 48 px batch-8 training
# step took a median 25 ms with 8192-column tiles, 29-32 ms with 2048,
# 4096 or 16384.
TILE = 8192


class ShapeError(ValueError):
    """Operand shapes are incompatible; message names the offending dims."""


_grad_enabled: ContextVar[bool] = ContextVar("catunet_grad_enabled", default=True)


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference paths).

    The switch belongs to the current thread (more exactly, the current
    `contextvars` context), so a block in one thread never turns recording
    off in another. A thread started inside a `no_grad` block records
    normally until it enters `no_grad` itself. On exit, normal or by an
    exception, the state in force before the block comes back, so nested
    blocks unwind in order.
    """
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad: bool = False, name: Optional[str] = None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: Tuple["Tensor", ...] = ()
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self.name = name

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def backward(self):
        backward(self)

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}{tag})"


def _result(data: np.ndarray, parents: Tuple[Tensor, ...], backward_fn) -> Tensor:
    """Wrap a forward result, recording the graph edge only when needed."""
    needs = _grad_enabled.get() and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=needs)
    if needs:
        out._parents = parents
        out._backward = backward_fn
    return out


def _accum(t: Tensor, g: np.ndarray):
    if t.grad is None:
        # a copy: callers may pass a view of their own upstream gradient
        t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g.astype(t.data.dtype, copy=False)


def topo_order(root: Tensor):
    """Nodes of the graph below `root`, inputs before consumers."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    return order


def backward(loss: Tensor):
    """Accumulate d(loss)/d(leaf) into `.grad` of every leaf reachable from
    a scalar loss.

    Gradients accumulate, so a tensor feeding several consumers receives the
    sum of its branch gradients. A leaf (no `_parents`: a parameter, or an
    input with `requires_grad`) keeps its gradient. Every other node's
    `.grad` is released once its closure has pushed it to its parents, so
    a step never holds all intermediate gradients at once. The closures
    stay, so a second `backward` over the same graph adds the same leaf
    gradients again.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {tuple(loss.shape)}")
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo_order(loss)):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
        if node._parents:
            node.grad = None


# ---------------------------------------------------------------------------
# primitives


def _tap_gemms(mats, src: np.ndarray, shifts, out: np.ndarray, ncols: int, block: int = 0):
    """out[:, c] = sum over taps t of mats[t] @ src[:, c + shifts[t]], for
    the first `ncols` columns c of each block of `block` columns (of `out`
    as one block when `block` is 0), one tile of at most TILE columns at a
    time.

    Tiles start at each block's first column and each block gets its own
    GEMM calls, so with one block per image each image gets the calls of
    its batch-1 forward (see the module docstring). The first tap writes
    the tile and each later tap adds through one temporary, so taps are
    summed in order and a single tile runs exactly the untiled operations.
    Blocks that fit a tile sum in a contiguous buffer that is copied out
    once: numpy adds short strided rows ~3x slower than contiguous ones
    (6 rows of 2398 floats: 8 against 2.3 us), while a second buffer for
    wider tiles cost more than it saved (16 x 8192 floats, 2 BLAS threads:
    256 px convs ran twice as slow). With an inner dimension of 1 a tap is
    an outer product, which numpy's matmul computes several times slower
    than a broadcast multiply.
    """
    mul = np.multiply if mats[0].shape[1] == 1 else np.matmul
    if block and mul is np.multiply:
        # elementwise products round alike wherever a column falls
        ncols, block = out.shape[1] - block + ncols, 0
    if block:
        out, src = _per_block(out, block), _per_block(src, block)
    else:
        out, src = out[None], src[None]
    nb, rows = out.shape[:2]
    # blocks of at most TILE columns go as many at a time as fill a tile,
    # wider ones one at a time
    staged = ncols <= TILE
    group = TILE // ncols if staged else 1
    size = min(group, nb) * rows * min(TILE, ncols)
    tmp = np.empty(2 * size if staged else size, dtype=out.dtype)
    for b0 in range(0, nb, group):
        b1 = min(b0 + group, nb)
        for c0 in range(0, ncols, TILE):
            c1 = min(c0 + TILE, ncols)
            t = tmp[:(b1 - b0) * rows * (c1 - c0)].reshape(b1 - b0, rows, c1 - c0)
            y = tmp[size:size + t.size].reshape(t.shape) if staged else out[b0:b1, :, c0:c1]
            mul(mats[0], src[b0:b1, :, c0 + shifts[0]:c1 + shifts[0]], out=y)
            for a, s in zip(mats[1:], shifts[1:]):
                y += mul(a, src[b0:b1, :, c0 + s:c1 + s], out=t)
            if staged:
                out[b0:b1, :, c0:c1] = y


def _per_block(a: np.ndarray, block: int) -> np.ndarray:
    """(..., rows, n * block) -> the (..., n, rows, block) view, one
    matrix per block of columns."""
    return a.reshape(a.shape[:-1] + (-1, block)).swapaxes(-3, -2)


def _tap_weight_grads(g: np.ndarray, src: np.ndarray, shifts, ncols: int, dw: np.ndarray):
    """dw[t] += sum over columns c < ncols of g[:, c] src[:, c + shifts[t]]^T,
    one tile of at most TILE columns at a time."""
    for c0 in range(0, ncols, TILE):
        c1 = min(c0 + TILE, ncols)
        for t, s in enumerate(shifts):
            dw[t] += g[:, c0:c1] @ src[:, c0 + s:c1 + s].T


def _windows(src: np.ndarray, shifts, c0: int, ncols: int, buf: np.ndarray) -> np.ndarray:
    """Stack the shifted column windows src[..., c0 + d:c0 + d + ncols], one
    block of rows per shift d, into buf and return that (..., rows, ncols)
    view."""
    rows = src.shape[-2]
    for t, d in enumerate(shifts):
        buf[..., t * rows:(t + 1) * rows, :ncols] = src[..., c0 + d:c0 + d + ncols]
    return buf[..., :ncols]


def _channel_major(a: np.ndarray, p: int) -> np.ndarray:
    """(N, C, H, W) -> its zero-padded channel-major copy (C, N, H+2p, W+2p),
    flattened to (C, M)."""
    n, c, h, w = a.shape
    xf = np.zeros((c, n, h + 2 * p, w + 2 * p), dtype=a.dtype)
    xf[:, :, p:p + h, p:p + w] = a.transpose(1, 0, 2, 3)
    return xf.reshape(c, -1)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0,
           relu: bool = False) -> Tensor:
    """2D cross-correlation over (N, Cin, H, W) with zero padding.

    Output spatial size is floor((H + 2*padding - kh) / stride) + 1.

    Computed as one GEMM per kernel tap over a shifted view of the input
    (the kn2row / shifted-GEMM family; Vasudevan, Anderson & Gregg 2017,
    arXiv 1704.04428) instead of an im2col patch matrix. The input is copied
    once into a zero-padded channel-major grid (Cin, N, Hp, Wp) and
    flattened to xf of shape (Cin, M), M = N*Hp*Wp. Tap (ki, kj) is the
    fixed column shift d = ki*Wp + kj, so

        yf[:, c] = sum over taps of w[:, :, ki, kj] @ xf[:, c + d],  c < M - d_max

    with every operand a strided view BLAS takes as is. Column c of yf is
    the output anchored at padded position c; the anchors of the strided
    output grid are the valid ones, and every other column (a window
    straddling a row or image edge) is junk that is cropped away. Stride > 1
    computes at stride 1 and subsamples.

    The backward pass scatters the gradient into a zeroed grid that has
    d_max leading zero columns, gpad of shape (Cout, d_max + M), so junk
    columns contribute nothing. dX is gathered, the same loop as the
    forward: dxf[:, c] = sum over taps of w_tap.T @ gpad[:, d_max + c - d].
    dW per tap sums gpad_tile @ xf_shift_tile.T over the column tiles; xf
    is rebuilt from x for that, so the graph does not hold a padded copy
    of every conv input.

    Every tap loop walks the columns in tiles of TILE = 8192 (blocking the
    GEMM operands to cache: Goto & van de Geijn 2008; inside kn2row:
    Anderson et al. 2017, arXiv 1709.03395). This model's GEMMs have 1 to
    128 rows, and OpenBLAS runs the thin ones several times slower once a
    tap spans tens of thousands of columns; 8192 measured fastest for a
    whole training step. With M <= TILE (a 48 px image at batch 1) each
    loop runs one tile, the same operations as an untiled loop.

    `relu=True` is relu(conv2d(...)) as one node: the epilogue clamps the
    biased output in place, and the backward first masks the incoming
    gradient by that output, g * (out > 0), then runs as above. Output and
    gradients equal `relu` of the unfused op bit for bit, in values and
    memory layout.
    """
    if stride < 1:
        raise ValueError(f"conv2d: stride must be >= 1, got {stride}")
    if padding < 0:
        raise ValueError(f"conv2d: padding must be >= 0, got {padding}")
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError(f"conv2d: expected 4-d input/weight, got {x.data.ndim}-d and {w.data.ndim}-d")
    n, cin, h, wd = x.shape
    cout, cin_w, kh, kw = w.shape
    if cin != cin_w:
        raise ShapeError(f"conv2d: input has {cin} channels but weight expects {cin_w}")
    if b.shape != (cout,):
        raise ShapeError(f"conv2d: bias shape {tuple(b.shape)} does not match {cout} output channels")
    if h + 2 * padding < kh or wd + 2 * padding < kw:
        raise ShapeError(
            f"conv2d: kernel {kh}x{kw} exceeds padded input {h + 2 * padding}x{wd + 2 * padding}"
        )

    p = padding
    hp, wp = h + 2 * p, wd + 2 * p
    ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
    m = n * hp * wp
    dmax = (kh - 1) * wp + kw - 1
    span = m - dmax
    taps = [(ki, kj, ki * wp + kj) for ki in range(kh) for kj in range(kw)]
    shifts = [d for _, _, d in taps]
    valid = (slice(None), slice(None), slice(0, stride * ho, stride), slice(0, stride * wo, stride))

    xf = _channel_major(x.data, p)
    yf = np.empty((cout, m), dtype=np.result_type(x.data, w.data))
    _tap_gemms([w.data[:, :, ki, kj] for ki, kj, _ in taps], xf, shifts, yf,
               hp * wp - dmax, hp * wp)
    out = yf.reshape(cout, n, hp, wp)[valid].transpose(1, 0, 2, 3) + b.data[None, :, None, None]
    if relu:
        np.maximum(out, 0, out=out)

    def bwd(g: np.ndarray):
        if relu:
            g = g * (out > 0)
        if b.requires_grad:
            _accum(b, g.sum(axis=(0, 2, 3)))
        if not (w.requires_grad or x.requires_grad):
            return
        gpad = np.zeros((cout, dmax + m), dtype=g.dtype)
        gf = gpad[:, dmax:]
        # splits gf's unit-stride rows, so the reshape is a view into gpad
        gf.reshape(cout, n, hp, wp)[valid] = g.transpose(1, 0, 2, 3)
        if w.requires_grad:
            xf = _channel_major(x.data, p)
            dw = np.zeros((len(taps), cout, cin), dtype=np.result_type(g, xf))
            _tap_weight_grads(gf, xf, shifts, span, dw)
            _accum(w, dw.transpose(1, 2, 0).reshape(w.shape))
        if x.requires_grad:
            dxf = np.empty((cin, m), dtype=np.result_type(g, w.data))
            _tap_gemms([w.data[:, :, ki, kj].T for ki, kj, _ in taps], gpad,
                       [dmax - d for d in shifts], dxf, m)
            _accum(x, dxf.reshape(cin, n, hp, wp)[:, :, p:p + h, p:p + wd].transpose(1, 0, 2, 3))

    return _result(out, (x, w, b), bwd)


# Output row 2p + a reads upsampled rows 2p + a - 1 + ki, which are the
# low-res rows p - 1 + a + r: _WINDOW_ROWS[a, r, ki] = 1 where kernel row
# ki of phase a reads window row r. Columns work the same way, so the
# (16, 9) collapse of a 3x3 kernel's taps (column 3*ki + kj) into the four
# phases' 2x2 kernels (row 4*(2a + e) + 2r + s for phase (a, e) and window
# tap (r, s)) is the outer product of the row and column maps.
_WINDOW_ROWS = np.array([[[1, 0, 0], [0, 1, 1]],
                         [[1, 1, 0], [0, 0, 1]]], dtype=np.float64)
PHASE_COLLAPSE = (np.multiply.outer(_WINDOW_ROWS, _WINDOW_ROWS)    # [a, r, ki, e, s, kj]
                  .transpose(0, 3, 1, 4, 2, 5).reshape(16, 9))


def up_concat_conv2d(x_low: Tensor, skip: Tensor, w: Tensor, b: Tensor,
                     relu: bool = False) -> Tensor:
    """conv2d(concat_channels(upsample_nearest(x_low, 2), skip), w, b,
    padding=1) for a 3x3 kernel, without building the upsampled, the
    concatenated or a padded full-resolution copy of x_low.

    The conv over the concatenation is the sum of a conv over each part,
    split at ca = x_low's channel count: w[:, :ca] reads the upsampled map
    and w[:, ca:] the skip. The skip part is conv2d's tap loop at full
    resolution. The upsampled part is the polyphase identity of the module
    docstring: output (2p + a, 2q + e) reads only the 2x2 low-res window at
    rows p - 1 + a + {0, 1} and columns q - 1 + e + {0, 1}, through the
    phase kernel that one GEMM with PHASE_COLLAPSE sums from the 3x3 taps;
    the transpose of that GEMM maps the phase kernels' gradient back. That
    part costs 16 of the 36 multiply-adds per low-res pixel of a conv over
    the upsampled map.

    On x_low's zero-padded channel-major grid (row pitch lwp), window tap
    (r, s) and phase (a, e) are the column shifts r*lwp + s and a*lwp + e.
    The four shifted copies of a tile of that grid, stacked as 4*ca rows,
    make each phase one GEMM with a (cout, 4*ca) kernel. A tile has a
    quarter of TILE columns, so the stack is no larger than a tap operand.
    The bias rides along as one more row, of ones. The phase outputs are
    interleaved with the skip part's into the NCHW output.

    Backward runs the skip part as conv2d's backward. For the upsampled
    part, dW comes from the same window tiles, one GEMM per phase, and
    dX_low from one GEMM per tile over the 16 shifted windows of the
    phases' output gradients, each phase scattered onto its own zero-led
    low-res grid. Like conv2d, dW rebuilds both padded grids instead of
    keeping them from the forward, and `relu=True` clamps the output in
    place and masks the incoming gradient by it (conv2d's epilogue).
    """
    for name, t in (("x_low", x_low), ("skip", skip), ("w", w)):
        if t.data.ndim != 4:
            raise ShapeError(f"up_concat_conv2d: expected 4-d {name}, got {t.data.ndim}-d")
    n, ca, h, wd = x_low.shape
    ns, cb, hs, ws = skip.shape
    cout, cin, kh, kw = w.shape
    if (ns, hs, ws) != (n, 2 * h, 2 * wd):
        raise ShapeError(
            f"up_concat_conv2d: skip is {ns}x{hs}x{ws}, the upsampled input is {n}x{2 * h}x{2 * wd}")
    if (cin, kh, kw) != (ca + cb, 3, 3):
        raise ShapeError(
            f"up_concat_conv2d: weight is {cin}x{kh}x{kw} per output channel, "
            f"expected {ca + cb}x3x3 for {ca} + {cb} input channels")
    if b.shape != (cout,):
        raise ShapeError(
            f"up_concat_conv2d: bias shape {tuple(b.shape)} does not match {cout} output channels")

    dtype = np.result_type(x_low.data, skip.data, w.data)
    hh, ww = 2 * h, 2 * wd

    # the skip part: conv2d's tap loop on the padded full-resolution grid
    hp, wp = hh + 2, ww + 2
    m = n * hp * wp
    shifts = [ki * wp + kj for ki in range(3) for kj in range(3)]
    dmax = shifts[-1]
    span = m - dmax
    sf = _channel_major(skip.data, 1)
    # one contiguous (cout, cb) matrix per tap, which BLAS takes as is
    wskip = np.ascontiguousarray(w.data[:, ca:].transpose(2, 3, 0, 1)).reshape(9, cout, cb)
    yf = np.empty((cout, m), dtype=dtype)
    _tap_gemms(wskip, sf, shifts, yf, hp * wp - dmax, hp * wp)

    # the upsampled part: four 2x2 phase convs on the padded low-res grid
    lhp, lwp = h + 2, wd + 2
    ml = n * lhp * lwp
    wshifts = (0, 1, lwp, lwp + 1)      # index 2r + s, or 2a + e
    ldmax = 2 * wshifts[-1]
    lspan = ml - ldmax
    wtile = -(-TILE // 4)
    lf = _channel_major(x_low.data, 1)
    collapse = PHASE_COLLAPSE.astype(dtype)
    k = (collapse @ w.data[:, :ca].transpose(2, 3, 0, 1).reshape(9, cout * ca)).reshape(4, 4, cout, ca)
    k4 = np.empty((4, cout, 4 * ca + 1), dtype=dtype)
    k4[:, :, :-1] = k.transpose(0, 2, 1, 3).reshape(4, cout, 4 * ca)
    k4[:, :, -1] = b.data
    zf = np.empty((4, cout, ml), dtype=dtype)
    # tiled per image, as _tap_gemms tiles the skip part
    lspan1 = lhp * lwp - ldmax
    lf1, zf1 = _per_block(lf, lhp * lwp), _per_block(zf, lhp * lwp)
    buf = np.empty((n, 4 * ca + 1, min(wtile, lspan1) + wshifts[-1]), dtype=dtype)
    buf[:, -1] = 1
    for c0 in range(0, lspan1, wtile):
        c1 = min(c0 + wtile, lspan1)
        x4 = _windows(lf1, wshifts, c0, c1 - c0 + wshifts[-1], buf)
        for ph, d in enumerate(wshifts):
            np.matmul(k4[ph], x4[..., d:d + c1 - c0], out=zf1[ph, ..., c0:c1])

    # out[:, :, 2p + a, 2q + e] = skip part + phase (a, e) at (p, q)
    out = np.empty((n, cout, hh, ww), dtype=dtype)
    out6 = out.reshape(n, cout, h, 2, wd, 2)
    y6 = yf.reshape(cout, n, hp, wp)[:, :, :hh, :ww].reshape(cout, n, h, 2, wd, 2).swapaxes(0, 1)
    z = zf.reshape(2, 2, cout, n, lhp, lwp)[..., :h, :wd].swapaxes(2, 3)
    for a in range(2):
        for e in range(2):
            np.add(y6[:, :, :, a, :, e], z[a, e], out=out6[:, :, :, a, :, e])
    if relu:
        np.maximum(out, 0, out=out)

    def bwd(g: np.ndarray):
        if relu:
            g = g * (out > 0)
        if b.requires_grad:
            _accum(b, g.sum(axis=(0, 2, 3)))
        if not (w.requires_grad or x_low.requires_grad or skip.requires_grad):
            return
        gpad = np.zeros((cout, dmax + m), dtype=g.dtype)
        gpad[:, dmax:].reshape(cout, n, hp, wp)[:, :, :hh, :ww] = g.transpose(1, 0, 2, 3)
        # phase (a, e) of g on its own zero-led low-res grid, block 2a + e
        lgpad = np.zeros((cout, 4, ldmax + ml), dtype=g.dtype)
        lgf = lgpad[:, :, ldmax:]
        lgf.reshape(cout, 2, 2, n, lhp, lwp)[..., :h, :wd] = (
            g.reshape(n, cout, h, 2, wd, 2).transpose(1, 3, 5, 0, 2, 4))
        gtype = np.result_type(g, dtype)
        if w.requires_grad:
            dw = np.empty(w.shape, dtype=gtype)
            dws = np.zeros((9, cout, cb), dtype=gtype)
            _tap_weight_grads(gpad[:, dmax:], _channel_major(skip.data, 1), shifts, span, dws)
            dw[:, ca:] = dws.transpose(1, 2, 0).reshape(cout, cb, 3, 3)
            dk = np.zeros((4, 4 * ca, cout), dtype=gtype)     # [phase][(r, s, ch), co]
            lf = _channel_major(x_low.data, 1)
            wbuf = np.empty((4 * ca, min(wtile, lspan) + wshifts[-1]), dtype=dtype)
            for c0 in range(0, lspan, wtile):
                c1 = min(c0 + wtile, lspan)
                x4 = _windows(lf, wshifts, c0, c1 - c0 + wshifts[-1], wbuf)
                for ph, d in enumerate(wshifts):
                    dk[ph] += x4[:, d:d + c1 - c0] @ lgf[:, ph, c0:c1].T
            dwu = collapse.T.astype(gtype) @ dk.reshape(16, ca * cout)
            dw[:, :ca] = dwu.reshape(3, 3, ca, cout).transpose(3, 2, 0, 1)
            _accum(w, dw)
        if skip.requires_grad:
            dsf = np.empty((cb, m), dtype=gtype)
            _tap_gemms(wskip.transpose(0, 2, 1), gpad, [dmax - d for d in shifts], dsf, m)
            _accum(skip, dsf.reshape(cb, n, hp, wp)[:, :, 1:1 + hh, 1:1 + ww].transpose(1, 0, 2, 3))
        if x_low.requires_grad:
            # dX_low[:, c] = sum over phase (a, e), window tap (r, s) of
            # k[a, e, r, s].T @ phase (a, e) of g at c - (a + r)*lwp - (e + s)
            gshifts = [ph * (ldmax + ml) + ldmax - a - d for ph, a in enumerate(wshifts) for d in wshifts]
            kt = k.transpose(3, 0, 1, 2).reshape(ca, 16 * cout)
            gsrc = lgpad.reshape(cout, -1)
            gbuf = np.empty((16 * cout, min(wtile, ml)), dtype=g.dtype)
            dlf = np.empty((ca, ml), dtype=gtype)
            for c0 in range(0, ml, wtile):
                c1 = min(c0 + wtile, ml)
                np.matmul(kt, _windows(gsrc, gshifts, c0, c1 - c0, gbuf), out=dlf[:, c0:c1])
            _accum(x_low, dlf.reshape(ca, n, lhp, lwp)[:, :, 1:1 + h, 1:1 + wd].transpose(1, 0, 2, 3))

    return _result(out, (x_low, skip, w, b), bwd)


def maxpool2d(x: Tensor, size: int = 2, stride: int = 2) -> Tuple[Tensor, np.ndarray]:
    """Window maximum over (N, C, H, W); floor semantics when H or W is not
    divisible by the stride (trailing rows/cols are dropped).

    Returns the pooled tensor and the argmax indices (flat position within
    each window, ties resolved to the first element in row-major order);
    the indices route the gradient to the max positions. Both passes loop
    over the size*size window offsets, each a strided view of the input.

    The output is np.maximum folded over the views. The index is then the
    number of leading views that miss the maximum, which is the first
    maximum, held in the smallest unsigned type that fits size*size - 1
    (one byte for the model's 2x2 windows). A window holding NaN pools to
    NaN; NaN equals nothing, so its index is the window's last position
    and its gradient goes there.
    """
    if size < 1 or stride < 1:
        raise ValueError(f"maxpool2d: size and stride must be >= 1, got size={size} stride={stride}")
    n, c, h, w = x.shape
    if h < size or w < size:
        raise ShapeError(f"maxpool2d: window {size}x{size} exceeds input {h}x{w}")
    ho, wo = (h - size) // stride + 1, (w - size) // stride + 1
    offsets = [(slice(None), slice(None), slice(a, a + stride * (ho - 1) + 1, stride),
                slice(e, e + stride * (wo - 1) + 1, stride))
               for a in range(size) for e in range(size)]
    views = [x.data[o] for o in offsets]
    out = np.maximum(views[0], views[1]) if len(views) > 1 else views[0].copy()
    for v in views[2:]:
        np.maximum(out, v, out=out)
    idx = np.zeros(out.shape, dtype=np.min_scalar_type(size * size - 1))
    miss = np.ones(out.shape, dtype=bool)
    for v in views[:-1]:
        miss &= v != out
        idx += miss

    def bwd(g: np.ndarray):
        if not x.requires_grad:
            return
        gx = np.zeros_like(x.data)
        for k, view in enumerate(offsets):
            gx[view] += np.where(idx == k, g, 0)
        _accum(x, gx)

    return _result(out, (x,), bwd), idx


def upsample_nearest(x: Tensor, factor: int = 2) -> Tensor:
    """Replicate each pixel into a factor x factor block."""
    if factor < 1:
        raise ValueError(f"upsample_nearest: factor must be >= 1, got {factor}")
    out = np.repeat(np.repeat(x.data, factor, axis=2), factor, axis=3)

    def bwd(g: np.ndarray):
        if x.requires_grad:
            _accum(x, sum(g[:, :, a::factor, e::factor]
                          for a in range(factor) for e in range(factor)))

    return _result(out, (x,), bwd)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Stack b's channels after a's; batch and spatial dims must match."""
    if a.data.ndim != 4 or b.data.ndim != 4:
        raise ShapeError(f"concat_channels: expected 4-d inputs, got {a.data.ndim}-d and {b.data.ndim}-d")
    na, ca, ha, wa = a.shape
    nb, cb, hb, wb = b.shape
    if (na, ha, wa) != (nb, hb, wb):
        raise ShapeError(
            f"concat_channels: batch/spatial dims differ: {na}x{ha}x{wa} vs {nb}x{hb}x{wb}"
        )
    out = np.concatenate([a.data, b.data], axis=1)

    def bwd(g: np.ndarray):
        if a.requires_grad:
            _accum(a, g[:, :ca])
        if b.requires_grad:
            _accum(b, g[:, ca:])

    return _result(out, (a, b), bwd)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)

    def bwd(g: np.ndarray):
        if x.requires_grad:
            _accum(x, g * (x.data > 0))

    return _result(out, (x,), bwd)


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability `rate`, scale survivors by
    1/(1-rate) so the expectation is unchanged; identity at inference.

    One float64 uniform per element decides which survive; the graph keeps
    that decision as a bool mask, a quarter of a float32 one.
    """
    if not 0 <= rate < 1:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if not training or rate == 0:
        return x
    keep = rng.random(size=x.shape) >= rate
    scale_ = 1.0 / (1.0 - rate)
    out = x.data * keep * scale_

    def bwd(g: np.ndarray):
        if x.requires_grad:
            _accum(x, g * keep * scale_)

    return _result(out, (x,), bwd)


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean over all elements of (a - b)^2, accumulated in float64."""
    if a.shape != b.shape:
        raise ShapeError(f"mse: shapes differ: {tuple(a.shape)} vs {tuple(b.shape)}")
    d = a.data.astype(np.float64) - b.data.astype(np.float64)
    val = np.array((d * d).mean(), dtype=a.data.dtype)
    scale_ = 2.0 / a.data.size

    def bwd(g: np.ndarray):
        gd = float(g.reshape(-1)[0]) * scale_ * d
        if a.requires_grad:
            _accum(a, gd)
        if b.requires_grad:
            _accum(b, -gd)

    return _result(val, (a, b), bwd)

