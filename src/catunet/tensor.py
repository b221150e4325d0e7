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
routing index takes one byte per output, dropout's keep mask one bool
per element. `relu` stays as a primitive, the reference of the fused
epilogue.

Convolution runs as one BLAS GEMM per kernel row over shifted views of a
zero-padded, channel-major copy of its input (`_row_gemms`); the repack
stays inside the conv ops, so every op takes and returns NCHW. The input
gradient runs the same loop over a zero-led gradient grid with the
flipped kernel, and the weight gradient one GEMM per tap and tile
(`_tap_weight_grads`). One forward helper (`_conv_grid`) and one backward
helper (`_conv_grads`) run these loops for every conv the model runs:
`conv2d` and both parts of `up_concat_conv2d`. The loops walk the
flattened columns in tiles, because OpenBLAS runs this model's thin
GEMMs (a few rows, thousands of columns) at half the rate or less past a
size bound: the forward in tiles of `TILE` columns, the backward's GEMMs
in tiles as wide as keep them under OpenBLAS's small-matrix bound
(`_gemm_cols`).

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
Olah, Distill 2016; Shi et al. 2016, arXiv 1609.07009). Stacked as
4*cout output channels, the four phase kernels are a single 2x2 conv with
padding 1 over the low-res map, read for phase (a, e) at anchor offset
(a, e) (sub-pixel convolution as one conv: Aitken et al. 2017, arXiv
1707.02937). `up_concat_conv2d` runs the decoder's upsample,
concatenation and conv that way, so it never builds the upsampled or the
concatenated map. `upsample_nearest` and `concat_channels` stay as
primitives: composed with `conv2d` they are its reference.
"""

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Optional, Tuple

import numpy as np


# Columns per tile of the forward's kernel-row GEMMs, which start at each
# image's first column; also the width that sets the staging groups and
# `evaluate`'s batch.
# On a 2-vCPU x86_64 VM (OpenBLAS 0.3.31, SkylakeX kernels, 2 threads) a
# 48 px batch-8 training step took a median 12.9 ms with 8192-column tiles,
# 12.6 with 16384 and 15.9 with 4096 (8 interleaved rounds); a 256 px
# batch-2 step took 395-409 ms with any of the three.
TILE = 8192

# OpenBLAS 0.3.31's SkylakeX build runs a single-precision GEMM whose
# M*N*K is at most 10**6 through its small-matrix kernel and a larger one
# through its blocked path, at half the rate or less for this model's
# shapes: on the VM above, at one BLAS thread, a 16x16 @ 16xn tap took
# 16.7 us for n = 3906 and 34.0 us for n = 3907 (119 -> 59 GFLOP/s). Its
# Haswell and SandyBridge builds have no such kernel. The backward's GEMMs
# take their column tiles from this bound (`_gemm_cols`), or TILE where it
# leaves fewer than MIN_COLS columns: there the shorter tiles' extra calls
# cost more than the kernel saves. On the VM above, at 2 BLAS threads, the
# 32x32 weight gradient at 976 columns ran 18.3 -> 11.2 ms per 128 px
# batch-2 layer and the 16 -> 32 input gradient at 651 columns 7.2 -> 6.6
# ms, while the 64x32 weight gradient at 488 columns ran 4.6 -> 5.3 ms and
# the 32 -> 32 input gradient at 325 columns 9.3 -> 12.6 ms.
SMALL_GEMM = 10 ** 6
MIN_COLS = 512


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


def _row_gemms(rows_w: np.ndarray, src: np.ndarray, wp: int, out: np.ndarray, ncols: int,
               tile: int, block: int = 0):
    """out[:, c] = sum over kernel rows ki of rows_w[ki] @ stack(c + ki*wp)
    for the first `ncols` columns c of each block of `block` columns (of
    `out` as one block when `block` is 0), one tile of at most `tile`
    columns at a time. stack(c) stacks src[:, c + kj] for kj < kw as kw
    blocks of rows, and rows_w[ki] is kernel row ki as a (rows, kw*cin)
    matrix (`_kernel_rows`).

    Each tile's kw column-shifted windows, widened by (kh - 1)*wp columns,
    are copied once into a buffer of kw*cin rows per block, and kernel row
    ki reads that buffer ki*wp columns on. So a 3x3 kernel costs 3 GEMMs
    and 2 adds per tile instead of 9 and 8, and each GEMM's inner
    dimension is 3*cin, at which OpenBLAS runs this model's thin layers
    (cin of 1 to 64) at a higher rate (stacked kn2row: Vasudevan et al.
    2017, arXiv 1704.04428; stacking one kernel row, not all nine taps,
    keeps the copy at kw times a tile and the GEMMs wide at 48 px). On a
    2-vCPU x86_64 VM (OpenBLAS 0.3.31, SkylakeX kernels, 2 threads) the
    paper model's forward at batch 2 ran, per tap against per kernel row:
    the one-channel 1 -> 16 conv at 256 px 9.2 -> 4.7 ms, 16 -> 16 at
    256 px 17.6 -> 13.0, 32 -> 32 at 128 px 10.0 -> 8.6 and 64 -> 64 at
    64 px 6.6 -> 5.8; only the 1x1 `out` conv, whose one-row stack is a
    plain copy, lost (1.7 -> 2.0 ms). With an inner dimension of 1 (the
    input gradient of the 1x1 one-output-channel conv) a GEMM is an outer
    product, which numpy's matmul computes several times slower than a
    broadcast multiply.

    Tiles start at each block's first column and each block gets its own
    GEMM calls, so with one block per image each image gets the calls of
    its batch-1 forward (see the module docstring). The first kernel row
    writes the tile and each later row adds through one temporary, so a
    single tile runs exactly the untiled operations. Blocks that fit a tile
    go as many at a time as fill one and sum in a contiguous buffer that is
    copied out once: numpy adds short strided rows ~3x slower than
    contiguous ones (6 rows of 2398 floats: 8 against 2.3 us), while a
    second buffer for wider tiles cost more than it saved (16 x 8192
    floats, 2 BLAS threads: 256 px convs ran twice as slow).
    """
    kh, rows, k = rows_w.shape
    kw = k // src.shape[0]
    mul = np.multiply if k == 1 else np.matmul
    halo = (kh - 1) * wp
    if block:
        out, src = _per_block(out, block), _per_block(src, block)
    else:
        out, src = out[None], src[None]
    nb = out.shape[0]
    staged = ncols <= tile
    group = tile // ncols if staged else 1
    g, width = min(group, nb), min(tile, ncols)
    win = np.empty((g, k, width + halo), dtype=src.dtype)
    size = g * rows * width
    tmp = np.empty(2 * size if staged else size, dtype=out.dtype)
    for b0 in range(0, nb, group):
        b1 = min(b0 + group, nb)
        for c0 in range(0, ncols, tile):
            c1 = min(c0 + tile, ncols)
            x = _windows(src[b0:b1], range(kw), c0, c1 - c0 + halo, win[:b1 - b0])
            t = tmp[:(b1 - b0) * rows * (c1 - c0)].reshape(b1 - b0, rows, c1 - c0)
            y = tmp[size:size + t.size].reshape(t.shape) if staged else out[b0:b1, :, c0:c1]
            mul(rows_w[0], x[..., :c1 - c0], out=y)
            for ki in range(1, kh):
                y += mul(rows_w[ki], x[..., ki * wp:ki * wp + c1 - c0], out=t)
            if staged:
                out[b0:b1, :, c0:c1] = y


def _kernel_rows(w: np.ndarray) -> np.ndarray:
    """(cout, cin, kh, kw) kernel -> (kh, cout, kw*cin), kernel row ki as
    one matrix whose column kj*cin + ch is tap (ki, kj) of channel ch."""
    cout, cin, kh, kw = w.shape
    return w.transpose(2, 0, 3, 1).reshape(kh, cout, kw * cin)


def _flipped(w: np.ndarray) -> np.ndarray:
    """The kernel whose correlation with the output gradient is the input
    gradient: w with in and out channels swapped, rotated 180 degrees."""
    return w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)


def _per_block(a: np.ndarray, block: int) -> np.ndarray:
    """(..., rows, n * block) -> the (..., n, rows, block) view, one
    matrix per block of columns."""
    return a.reshape(a.shape[:-1] + (-1, block)).swapaxes(-3, -2)


def _gemm_cols(rows: int, inner: int) -> int:
    """Columns per tile of a GEMM whose other two dimensions are `rows`
    and `inner`, the input gradient's (rows x inner) @ (inner x cols) or
    the weight gradient's (rows x cols) @ (cols x inner): the most that
    keep rows*inner*cols within SMALL_GEMM, or TILE where that is fewer
    than MIN_COLS."""
    cols = SMALL_GEMM // (rows * inner)
    return cols if cols >= MIN_COLS else TILE


def _tap_weight_grads(g: np.ndarray, src: np.ndarray, shifts, ncols: int, dw: np.ndarray):
    """dw[t] += sum over columns c < ncols of g[:, c] src[:, c + shifts[t]]^T,
    one tile of _gemm_cols columns at a time.

    Each GEMM sums over its tile's columns, so tiles under OpenBLAS's
    small-matrix bound (SMALL_GEMM) run at up to twice the rate of TILE
    ones: on a 2-vCPU x86_64 VM (SkylakeX kernels, 2 threads) a 16x16
    GEMM over 3906 columns ran at 57 GFLOP/s and over 3907 at 34, and the
    paper model's weight gradients at batch 2 ran 16 -> 16 at 256 px
    23.7 -> 14.8 ms and 32 -> 32 at 128 px 18.3 -> 11.2 ms against
    8192-column tiles.
    """
    step = _gemm_cols(*dw.shape[1:])
    for c0 in range(0, ncols, step):
        c1 = min(c0 + step, ncols)
        for t, s in enumerate(shifts):
            dw[t] += np.matmul(g[:, c0:c1], src[:, c0 + s:c1 + s].T)


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


def _conv_grid(x: np.ndarray, w: np.ndarray, p: int) -> np.ndarray:
    """The stride-1 correlation of kernel w with x zero-padded by p, as the
    (Cout, N, Hp, Wp) grid of outputs anchored at each padded position
    (see conv2d): one `_row_gemms` sweep with TILE-column tiles per image.
    An anchor whose window straddles a row or image edge holds junk."""
    n, _, h, wd = x.shape
    kh, kw = w.shape[2:]
    hp, wp = h + 2 * p, wd + 2 * p
    yf = np.empty((w.shape[0], n * hp * wp), dtype=np.result_type(x, w))
    _row_gemms(_kernel_rows(w), _channel_major(x, p), wp, yf, hp * wp - (kh - 1) * wp - kw + 1,
               TILE, hp * wp)
    return yf.reshape(-1, n, hp, wp)


def _conv_grads(scatter, x: Tensor, w: np.ndarray, p: int, need_w: bool) -> Optional[np.ndarray]:
    """Backward of `_conv_grid(x.data, w, p)`: accumulates dX into x when
    x requires it, and returns dW when `need_w` (else None). `scatter`
    lists (index, values) pairs that place the output gradient on the
    (Cout, N, Hp, Wp) anchor grid; every other anchor, junk included, gets
    zero. That grid is led by d_max zero columns (see conv2d). dW runs
    `_tap_weight_grads` over it and a copy of x's padded grid rebuilt here,
    so the graph does not hold one; dX runs `_row_gemms` with the flipped
    kernel over the whole batch. Both take `_gemm_cols` columns per tile."""
    if not (need_w or x.requires_grad):
        return None
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    hp, wp = h + 2 * p, wd + 2 * p
    m = n * hp * wp
    dmax = (kh - 1) * wp + kw - 1
    gpad = np.zeros((cout, dmax + m), dtype=scatter[0][1].dtype)
    gf = gpad[:, dmax:]
    for index, values in scatter:
        # splits gf's unit-stride rows, so the reshape is a view into gpad
        gf.reshape(cout, n, hp, wp)[index] = values
    dw = None
    if need_w:
        taps = np.zeros((kh * kw, cout, cin), dtype=np.result_type(gpad, x.data))
        shifts = [ki * wp + kj for ki in range(kh) for kj in range(kw)]
        _tap_weight_grads(gf, _channel_major(x.data, p), shifts, m - dmax, taps)
        dw = taps.transpose(1, 2, 0).reshape(w.shape)
    if x.requires_grad:
        dxf = np.empty((cin, m), dtype=np.result_type(gpad, w))
        _row_gemms(_kernel_rows(_flipped(w)), gpad, wp, dxf, m, _gemm_cols(cin, kw * cout))
        _accum(x, dxf.reshape(cin, n, hp, wp)[:, :, p:p + h, p:p + wd].transpose(1, 0, 2, 3))
    return dw


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0,
           relu: bool = False) -> Tensor:
    """2D cross-correlation over (N, Cin, H, W) with zero padding.

    Output spatial size is floor((H + 2*padding - kh) / stride) + 1.

    Computed from shifted views of the input (the kn2row / shifted-GEMM
    family; Vasudevan, Anderson & Gregg 2017, arXiv 1704.04428) instead of
    an im2col patch matrix. The input is copied once into a zero-padded
    channel-major grid (Cin, N, Hp, Wp) and flattened to xf of shape
    (Cin, M), M = N*Hp*Wp. Tap (ki, kj) is the fixed column shift
    d = ki*Wp + kj. Stacking the kw shifts of one kernel row,
    xs[kj*Cin + ch, c] = xf[ch, c + kj], makes kernel row ki one
    (Cout, kw*Cin) matrix w_ki and

        yf[:, c] = sum over ki of w_ki @ xs[:, c + ki*Wp],  c < M - d_max

    with d_max = (kh - 1)*Wp + kw - 1: kh GEMMs per tile (`_row_gemms`,
    run by `_conv_grid`). Column c of yf is the output anchored at padded
    position c; the anchors of the strided output grid are the valid ones,
    and every other column (a window straddling a row or image edge) is
    junk that is cropped away. Stride > 1 computes at stride 1 and
    subsamples.

    The backward pass (`_conv_grads`) scatters the gradient into a zeroed
    grid that has d_max leading zero columns, gpad of shape
    (Cout, d_max + M), so junk columns contribute nothing. dX is gathered,

        dxf[:, c] = sum over taps of w[:, :, ki, kj].T @ gpad[:, c + d_max - d],

    a correlation of gpad with the kernel rotated 180 degrees and its
    channels swapped, so it runs the forward's loop. dW per tap sums
    gpad_tile @ xf_shift_tile.T over the column tiles; xf is rebuilt from
    x for that, so the graph does not hold a padded copy of every conv
    input.

    The loops walk the columns in tiles (blocking the GEMM operands:
    Goto & van de Geijn 2008; inside kn2row: Anderson et al. 2017, arXiv
    1709.03395). The forward takes TILE columns per tile of each image;
    with Hp*Wp <= TILE (a 48 px image) it runs one tile per image, the
    same operations as an untiled loop. dX and dW take `_gemm_cols`
    columns, as many as keep each GEMM under OpenBLAS's small-matrix bound
    (see SMALL_GEMM).

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
    ho, wo = (h + 2 * p - kh) // stride + 1, (wd + 2 * p - kw) // stride + 1
    valid = (slice(None), slice(None), slice(0, stride * ho, stride), slice(0, stride * wo, stride))
    out = _conv_grid(x.data, w.data, p)[valid].transpose(1, 0, 2, 3) + b.data[None, :, None, None]
    if relu:
        np.maximum(out, 0, out=out)

    def bwd(g: np.ndarray):
        if relu:
            g = g * (out > 0)
        if b.requires_grad:
            _accum(b, g.sum(axis=(0, 2, 3)))
        dw = _conv_grads([(valid, g.transpose(1, 0, 2, 3))], x, w.data, p, w.requires_grad)
        if w.requires_grad:
            _accum(w, dw)

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
    """conv2d(concat_channels(upsample_nearest(x_low), skip), w, b,
    padding=1) for a 3x3 kernel, without building the upsampled, the
    concatenated or a padded full-resolution copy of x_low.

    The conv over the concatenation is the sum of a conv over each part,
    split at ca = x_low's channel count: w[:, :ca] reads the upsampled map
    and w[:, ca:] the skip. The skip part is conv2d's 3x3 conv at full
    resolution. The upsampled part is the polyphase identity of the module
    docstring: output (2p + a, 2q + e) reads only the 2x2 low-res window at
    rows p - 1 + a + {0, 1} and columns q - 1 + e + {0, 1}, through the
    phase kernel that one GEMM with PHASE_COLLAPSE sums from the 3x3 taps.
    Stacked as 4*cout output channels, phase (a, e) in channels
    (2a + e)*cout on, the four phase kernels are one 2x2 conv with padding
    1 over x_low, whose anchor (p + a, q + e) is phase (a, e)'s output at
    (p, q). That part costs 16 of the 36 multiply-adds per low-res pixel of
    a conv over the upsampled map.

    Both parts run through conv2d's forward and backward helpers
    (`_conv_grid`, `_conv_grads`), so they tile, batch and bound their
    GEMMs as conv2d does; the transpose of the collapse maps the stacked
    kernel's gradient back to w[:, :ca]. The phase outputs are interleaved
    with the skip part's into the NCHW output, and the bias is added
    there. Like conv2d, `relu=True` clamps the output in place and masks
    the incoming gradient by it.
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
    collapse = PHASE_COLLAPSE.astype(dtype)
    # (phase, r, s, co, ch) -> (phase, co, ch, r, s); the same axis swap maps back
    k = collapse @ w.data[:, :ca].transpose(2, 3, 0, 1).reshape(9, cout * ca)
    k = k.reshape(4, 2, 2, cout, ca).transpose(0, 3, 4, 1, 2).reshape(4 * cout, ca, 2, 2)
    # phase (a, e): its block of the stacked conv's anchor grid, and its
    # pixels (2p + a, 2q + e) of a full-resolution map
    phases = [((slice(ph * cout, (ph + 1) * cout), slice(None), slice(a, a + h), slice(e, e + wd)),
               (slice(None), slice(None), slice(a, None, 2), slice(e, None, 2)))
              for ph, (a, e) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1)))]

    # out at phase (a, e)'s pixels = skip part + phase (a, e)'s anchors + bias
    y = _conv_grid(skip.data, w.data[:, ca:], 1)[:, :, :hs, :ws]
    z = _conv_grid(x_low.data, k, 1)
    out = np.empty((n, cout, hs, ws), dtype=dtype)
    for at, px in phases:
        np.add(y[px].swapaxes(0, 1), z[at].swapaxes(0, 1), out=out[px])
    out += b.data[:, None, None]
    if relu:
        np.maximum(out, 0, out=out)

    def bwd(g: np.ndarray):
        if relu:
            g = g * (out > 0)
        if b.requires_grad:
            _accum(b, g.sum(axis=(0, 2, 3)))
        gt = g.transpose(1, 0, 2, 3)
        dws = _conv_grads([(np.s_[:, :, :hs, :ws], gt)], skip, w.data[:, ca:], 1, w.requires_grad)
        dk = _conv_grads([(at, gt[px]) for at, px in phases], x_low, k, 1, w.requires_grad)
        if w.requires_grad:
            dk = dk.reshape(4, cout, ca, 2, 2).transpose(0, 3, 4, 1, 2).reshape(16, cout * ca)
            dwu = (collapse.T @ dk).reshape(3, 3, cout, ca).transpose(2, 3, 0, 1)
            _accum(w, np.concatenate([dwu, dws], axis=1))

    return _result(out, (x_low, skip, w, b), bwd)


def maxpool2d(x: Tensor) -> Tuple[Tensor, np.ndarray]:
    """2x2 window maximum at stride 2 over (N, C, H, W); an odd trailing
    row or column is dropped (floor semantics).

    Returns the pooled tensor and, as uint8, the position (0-3, row-major)
    of each window's first maximum, which routes the gradient. Both passes
    loop over the four window offsets, each a strided view of the input:
    the output is np.maximum folded over the views, and the index the
    number of leading views that miss it. A window holding NaN pools to
    NaN; NaN equals nothing, so its index is the window's last position
    and its gradient goes there.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2d: expected 4-d input, got {x.data.ndim}-d")
    n, c, h, w = x.shape
    if h < 2 or w < 2:
        raise ShapeError(f"maxpool2d: input is {h}x{w}, smaller than the 2x2 window")
    ho, wo = h // 2, w // 2
    offsets = [(slice(None), slice(None), slice(a, 2 * ho, 2), slice(e, 2 * wo, 2))
               for a in range(2) for e in range(2)]
    views = [x.data[o] for o in offsets]
    out = np.maximum(views[0], views[1])
    for v in views[2:]:
        np.maximum(out, v, out=out)
    idx = np.zeros(out.shape, dtype=np.uint8)
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


def upsample_nearest(x: Tensor) -> Tensor:
    """Replicate each pixel into a 2x2 block."""
    if x.data.ndim != 4:
        raise ShapeError(f"upsample_nearest: expected 4-d input, got {x.data.ndim}-d")
    out = np.repeat(np.repeat(x.data, 2, axis=2), 2, axis=3)

    def bwd(g: np.ndarray):
        if x.requires_grad:
            _accum(x, sum(g[:, :, a::2, e::2] for a in range(2) for e in range(2)))

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


def dropout(x: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero with probability `rate`, scale survivors by
    1/(1-rate) so the expectation is unchanged. The model applies it in
    training only.

    One float64 uniform per element decides which survive; the graph keeps
    that decision as a bool mask, a quarter of a float32 one.
    """
    if not 0 <= rate < 1:
        raise ValueError(f"dropout: rate must be in [0, 1), got {rate}")
    if rate == 0:
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

