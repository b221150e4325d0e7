"""Independent brute-force reference implementations used to cross-check the
vectorized kernels. Everything here is deliberately written as plain nested
loops over python floats so it shares no code path with the package."""

import numpy as np


def conv2d_loops(x, w, b, stride=1, padding=0):
    """Direct convolution: dot product of kernel with zero-padded window."""
    n, cin, h, wd = x.shape
    cout, cin_w, kh, kw = w.shape
    assert cin == cin_w
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (wd + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, ho, wo), dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    acc = 0.0
                    for ci in range(cin):
                        for ki in range(kh):
                            for kj in range(kw):
                                yi = i * stride + ki - padding
                                xj = j * stride + kj - padding
                                if 0 <= yi < h and 0 <= xj < wd:
                                    acc += float(x[ni, ci, yi, xj]) * float(w[co, ci, ki, kj])
                    out[ni, co, i, j] = acc + float(b[co])
    return out


def conv2d_backward_loops(x, w, grad_out, stride=1, padding=0):
    """Gradients of conv2d_loops for an upstream gradient: each output
    element sends grad * weight back to the input pixel it read and
    grad * input to the weight that read it. Returns (dX, dW, db)."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    _, _, ho, wo = grad_out.shape
    dx = np.zeros(x.shape, dtype=np.float64)
    dw = np.zeros(w.shape, dtype=np.float64)
    db = np.zeros(cout, dtype=np.float64)
    for ni in range(n):
        for co in range(cout):
            for i in range(ho):
                for j in range(wo):
                    gv = float(grad_out[ni, co, i, j])
                    db[co] += gv
                    for ci in range(cin):
                        for ki in range(kh):
                            for kj in range(kw):
                                yi = i * stride + ki - padding
                                xj = j * stride + kj - padding
                                if 0 <= yi < h and 0 <= xj < wd:
                                    dx[ni, ci, yi, xj] += gv * float(w[co, ci, ki, kj])
                                    dw[co, ci, ki, kj] += gv * float(x[ni, ci, yi, xj])
    return dx, dw, db


def maxpool2d_loops(x, size=2, stride=2):
    """Window max with first-occurrence (row-major) tie handling."""
    n, c, h, w = x.shape
    ho = (h - size) // stride + 1
    wo = (w - size) // stride + 1
    out = np.zeros((n, c, ho, wo), dtype=np.float64)
    idx = np.zeros((n, c, ho, wo), dtype=np.int64)
    for ni in range(n):
        for ci in range(c):
            for i in range(ho):
                for j in range(wo):
                    best = -np.inf
                    best_k = 0
                    for ki in range(size):
                        for kj in range(size):
                            v = float(x[ni, ci, i * stride + ki, j * stride + kj])
                            if v > best:
                                best = v
                                best_k = ki * size + kj
                    out[ni, ci, i, j] = best
                    idx[ni, ci, i, j] = best_k
    return out, idx


def maxpool2d_backward_loops(x, grad_out, size=2, stride=2):
    """Gradient of maxpool2d_loops: each window's upstream gradient goes to
    its first maximum; overlapping windows add up at a shared pixel."""
    _, idx = maxpool2d_loops(x, size, stride)
    n, c, ho, wo = idx.shape
    dx = np.zeros(x.shape, dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for i in range(ho):
                for j in range(wo):
                    k = int(idx[ni, ci, i, j])
                    dx[ni, ci, i * stride + k // size, j * stride + k % size] += float(grad_out[ni, ci, i, j])
    return dx


def upsample_nearest_loops(x, factor=2):
    n, c, h, w = x.shape
    out = np.zeros((n, c, h * factor, w * factor), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for i in range(h * factor):
                for j in range(w * factor):
                    out[ni, ci, i, j] = float(x[ni, ci, i // factor, j // factor])
    return out


def upsample_backward_loops(grad_out, factor=2):
    """Gradient of nearest upsampling: sum over each factor x factor block."""
    n, c, hf, wf = grad_out.shape
    h, w = hf // factor, wf // factor
    g = np.zeros((n, c, h, w), dtype=np.float64)
    for ni in range(n):
        for ci in range(c):
            for i in range(hf):
                for j in range(wf):
                    g[ni, ci, i // factor, j // factor] += float(grad_out[ni, ci, i, j])
    return g


def mse_loops(a, b):
    af = a.reshape(-1)
    bf = b.reshape(-1)
    acc = 0.0
    for i in range(af.size):
        d = float(af[i]) - float(bf[i])
        acc += d * d
    return acc / af.size


def l2_norm_loops(x):
    acc = 0.0
    for v in x.reshape(-1):
        acc += float(v) * float(v)
    return acc ** 0.5


def numeric_gradient(f, x, h=1e-6):
    """Central finite differences of a scalar-valued f at array x (float64)."""
    x = x.astype(np.float64).copy()
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g
