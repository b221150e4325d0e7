"""Forward and backward semantics of the primitive ops against brute-force
oracles."""

from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest

from catunet import tensor as T
from catunet.rng import Rng

from oracles import (conv2d_backward_loops, conv2d_loops, maxpool2d_backward_loops,
                     maxpool2d_loops, mse_loops, upsample_backward_loops,
                     upsample_nearest_loops)


# conv2d column tiles to run the conv tests under, as (TILE, SMALL_GEMM,
# MIN_COLS): one column per tile; 7 columns per forward tile and
# 7 // (rows * inner) per backward GEMM (7 where that is 0), which leaves
# partial last tiles and puts tap shifts across tile edges; and the defaults
TILES = ((1, 1, 1), (7, 7, 1), (T.TILE, T.SMALL_GEMM, T.MIN_COLS))


def use_tiles(monkeypatch, tiles):
    for name, value in zip(("TILE", "SMALL_GEMM", "MIN_COLS"), tiles):
        monkeypatch.setattr(T, name, value)


def tensor(a, **kw):
    return T.Tensor(np.asarray(a, dtype=np.float32), **kw)


def drive_backward(out, g):
    """Backpropagate the upstream gradient `g` into `out` through an MSE
    whose target makes dL/d(out) equal g."""
    target = T.Tensor(out.data - g * (out.data.size / 2.0))
    T.backward(T.mse(out, target))


def push_gradient(out, g):
    """Run `out`'s backward closure on exactly `g` (drive_backward goes
    through an MSE, which may round it)."""
    out._backward(np.asarray(g, dtype=out.dtype))


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestConv2d:
    def test_identity_kernel(self):
        out = T.conv2d(tensor([[[[5.0]]]]), tensor([[[[1.0]]]]), tensor([0.0]))
        assert out.data[0, 0, 0, 0] == 5.0

    def test_known_2x2_sum_kernel(self):
        x = tensor(np.arange(1, 10).reshape(1, 1, 3, 3))
        w = tensor(np.ones((1, 1, 2, 2)))
        out = T.conv2d(x, w, tensor([0.0]))
        npt.assert_array_equal(out.data[0, 0], [[12, 16], [24, 28]])

    def test_zero_kernel_annihilates(self):
        gen = np.random.default_rng(3)
        x = tensor(gen.uniform(-1, 1, (2, 3, 5, 5)))
        out = T.conv2d(x, tensor(np.zeros((4, 3, 3, 3))), tensor(np.zeros(4)), padding=1)
        assert not out.data.any()

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 2)])
    def test_matches_loop_oracle(self, stride, padding, monkeypatch):
        gen = np.random.default_rng(stride * 10 + padding)
        for _ in range(5):
            n, cin, cout = gen.integers(1, 3), int(gen.integers(1, 4)), int(gen.integers(1, 4))
            kh, kw = int(gen.integers(1, 4)), int(gen.integers(1, 4))
            h = int(gen.integers(max(1, kh - 2 * padding), 8))
            w = int(gen.integers(max(1, kw - 2 * padding), 8))
            if h + 2 * padding < kh or w + 2 * padding < kw:
                continue
            x = gen.uniform(-1, 1, (n, cin, h, w))
            wt = gen.uniform(-1, 1, (cout, cin, kh, kw))
            b = gen.uniform(-1, 1, cout)
            ref = conv2d_loops(x, wt, b, stride, padding)
            for tiles in TILES:
                use_tiles(monkeypatch, tiles)
                out = T.conv2d(T.Tensor(x), T.Tensor(wt), T.Tensor(b), stride, padding)
                npt.assert_allclose(out.data, ref, atol=1e-12)

    def test_output_shape_formula(self):
        gen = np.random.default_rng(7)
        for _ in range(25):
            kh, kw = int(gen.integers(1, 5)), int(gen.integers(1, 5))
            stride = int(gen.integers(1, 4))
            padding = int(gen.integers(0, 3))
            h = int(gen.integers(kh, 12))
            w = int(gen.integers(kw, 12))
            x = T.Tensor(np.zeros((1, 2, h, w), dtype=np.float32))
            wt = T.Tensor(np.zeros((3, 2, kh, kw), dtype=np.float32))
            out = T.conv2d(x, wt, tensor(np.zeros(3)), stride, padding)
            expect = (1, 3, (h + 2 * padding - kh) // stride + 1, (w + 2 * padding - kw) // stride + 1)
            assert out.shape == expect

    def test_linearity_with_zero_bias(self):
        gen = np.random.default_rng(11)
        x = gen.uniform(-1, 1, (1, 2, 6, 6)).astype(np.float32)
        y = gen.uniform(-1, 1, (1, 2, 6, 6)).astype(np.float32)
        w = T.Tensor(gen.uniform(-1, 1, (3, 2, 3, 3)).astype(np.float32))
        b = tensor(np.zeros(3))
        a, c = 0.7, -1.3
        lhs = T.conv2d(T.Tensor(a * x + c * y), w, b, padding=1).data
        rhs = a * T.conv2d(T.Tensor(x), w, b, padding=1).data + c * T.conv2d(T.Tensor(y), w, b, padding=1).data
        npt.assert_allclose(lhs, rhs, atol=1e-5)

    def test_channel_mismatch_names_dims(self):
        with pytest.raises(T.ShapeError, match="2 channels.*expects 3"):
            T.conv2d(tensor(np.zeros((1, 2, 4, 4))), tensor(np.zeros((1, 3, 2, 2))), tensor([0.0]))

    def test_nonpositive_stride_rejected(self):
        with pytest.raises(ValueError, match="stride"):
            T.conv2d(tensor(np.zeros((1, 1, 4, 4))), tensor(np.zeros((1, 1, 2, 2))), tensor([0.0]), stride=0)

    def test_kernel_larger_than_padded_input(self):
        with pytest.raises(T.ShapeError, match="exceeds"):
            T.conv2d(tensor(np.zeros((1, 1, 2, 2))), tensor(np.zeros((1, 1, 5, 5))), tensor([0.0]))


class TestConv2dBackward:
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2, 3])
    def test_matches_loop_oracle(self, stride, padding, k, monkeypatch):
        gen = np.random.default_rng(100 * stride + 10 * padding + k)
        h, w = 7, 5
        xd = gen.uniform(-1, 1, (3, 2, h, w))
        wd = gen.uniform(-1, 1, (3, 2, k, k))
        bd = gen.uniform(-1, 1, 3)
        ho, wo = (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1
        g = gen.uniform(-1, 1, (3, 3, ho, wo))
        dx, dw, db = conv2d_backward_loops(xd, wd, g, stride, padding)
        for tiles in TILES:
            use_tiles(monkeypatch, tiles)
            x, wt, b = (T.Tensor(a, requires_grad=True) for a in (xd, wd, bd))
            drive_backward(T.conv2d(x, wt, b, stride, padding), g)
            npt.assert_allclose(x.grad, dx, atol=1e-12)
            npt.assert_allclose(wt.grad, dw, atol=1e-12)
            npt.assert_allclose(b.grad, db, atol=1e-12)

    @pytest.mark.parametrize("stride,padding", [(1, 1), (1, 0), (2, 1)])
    def test_batch_images_are_independent(self, stride, padding, monkeypatch):
        # a window straddling a row or image edge must not reach any image's
        # output or input gradient, so each image matches its solo run
        gen = np.random.default_rng(31 + stride + padding)
        xs = gen.uniform(-1, 1, (3, 2, 6, 9)) * np.array([1.0, 100.0, -10.0])[:, None, None, None]
        wt = gen.uniform(-1, 1, (4, 2, 3, 3))
        b = gen.uniform(-1, 1, 4)

        def run(x):
            xt = T.Tensor(x, requires_grad=True)
            out = T.conv2d(xt, T.Tensor(wt), T.Tensor(b), stride, padding)
            drive_backward(out, np.ones(out.shape))
            return out.data, xt.grad

        for tiles in TILES:
            use_tiles(monkeypatch, tiles)
            out, dx = run(xs)
            for i in range(len(xs)):
                solo_out, solo_dx = run(xs[i:i + 1])
                npt.assert_allclose(out[i:i + 1], solo_out, rtol=1e-12, atol=1e-12)
                npt.assert_allclose(dx[i:i + 1], solo_dx, rtol=1e-12, atol=1e-12)

    def test_tiled_matches_one_tile_at_model_size(self, monkeypatch):
        # a 48 px batch of 4 spans more columns than one tile of the forward
        # and of each backward GEMM; tiling only regroups float32 sums, so
        # every result stays within rounding of the same conv run as a
        # single tile
        gen = np.random.default_rng(48)
        xd = gen.uniform(0, 1, (4, 18, 48, 48)).astype(np.float32)
        wd = (gen.standard_normal((6, 18, 3, 3)) * 0.1).astype(np.float32)
        bd = gen.uniform(-1, 1, 6).astype(np.float32)
        g = gen.uniform(-1, 1, (4, 6, 48, 48)).astype(np.float32)
        assert 4 * 50 * 50 > max(T.TILE, T._gemm_cols(6, 18), T._gemm_cols(18, 3 * 6))

        def run():
            x, wt, b = (T.Tensor(a, requires_grad=True) for a in (xd, wd, bd))
            out = T.conv2d(x, wt, b, 1, 1)
            drive_backward(out, g)
            return out.data, x.grad, wt.grad, b.grad

        tiled = run()
        use_tiles(monkeypatch, (10 ** 6, 10 ** 12, 1))
        for got, want in zip(tiled, run()):
            npt.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * np.abs(want).max())


class TestBatchInvariance:
    """A ragged batch of 5 gives each image's batch-1 result bit for bit,
    also where a GEMM's inner dimension reaches 32, from which OpenBLAS's
    SkylakeX kernels sum a ragged last 16 columns in another order."""

    def test_conv2d_wide_input(self):
        gen = np.random.default_rng(32)
        # batch 1 is one GEMM of 1846 columns per tap, a ragged 6 past the
        # last 16; the batch's 9680 columns would take two tiles in one sweep
        x = gen.uniform(0, 1, (5, 32, 42, 42)).astype(np.float32)
        w = T.Tensor((gen.standard_normal((12, 32, 3, 3)) * 0.1).astype(np.float32))
        b = T.Tensor(gen.uniform(-1, 1, 12).astype(np.float32))
        assert 5 * 44 * 44 > T.TILE
        out = T.conv2d(T.Tensor(x), w, b, padding=1).data
        for i in range(len(x)):
            npt.assert_array_equal(out[i:i + 1], T.conv2d(T.Tensor(x[i:i + 1]), w, b, padding=1).data,
                                   err_msg=f"image {i}")

    # (ca, cb, cout, h): the reference model's dec1 and dec2
    @pytest.mark.parametrize("ca, cb, cout, h", [(24, 12, 12, 12), (12, 6, 6, 24)])
    def test_up_concat_conv2d(self, ca, cb, cout, h):
        gen = np.random.default_rng(ca)
        x_low = gen.uniform(0, 1, (5, ca, h, h)).astype(np.float32)
        skip = gen.uniform(0, 1, (5, cb, 2 * h, 2 * h)).astype(np.float32)
        w = T.Tensor((gen.standard_normal((cout, ca + cb, 3, 3)) * 0.1).astype(np.float32))
        b = T.Tensor(gen.uniform(-1, 1, cout).astype(np.float32))
        out = T.up_concat_conv2d(T.Tensor(x_low), T.Tensor(skip), w, b).data
        for i in range(len(x_low)):
            solo = T.up_concat_conv2d(T.Tensor(x_low[i:i + 1]), T.Tensor(skip[i:i + 1]), w, b)
            npt.assert_array_equal(out[i:i + 1], solo.data, err_msg=f"image {i}")


    def test_each_image_gets_the_gemm_calls_of_batch_1(self, monkeypatch):
        # holds on any BLAS, also on one whose bits would not show a change
        # of calls: a stacked matmul calls BLAS once per matrix
        calls, matmul = Counter(), np.matmul

        def spy(a, b, *args, **kwargs):
            calls[a.shape, b.shape[-2:]] += b.shape[0] if b.ndim == 3 else 1
            return matmul(a, b, *args, **kwargs)

        gen = np.random.default_rng(5)
        x = gen.uniform(0, 1, (5, 12, 24, 24)).astype(np.float32)
        skip = gen.uniform(0, 1, (5, 6, 48, 48)).astype(np.float32)
        wc = T.Tensor(gen.standard_normal((12, 12, 3, 3)).astype(np.float32))
        wu = T.Tensor(gen.standard_normal((6, 18, 3, 3)).astype(np.float32))
        bc, bu = T.Tensor(np.zeros(12, np.float32)), T.Tensor(np.zeros(6, np.float32))
        monkeypatch.setattr(np, "matmul", spy)
        per_n = {}
        with T.no_grad():
            for n in (5, 1):
                calls.clear()
                low = T.conv2d(T.Tensor(x[:n]), wc, bc, padding=1)
                T.up_concat_conv2d(low, T.Tensor(skip[:n]), wu, bu)
                per_n[n] = dict(calls)
        assert per_n[1] and per_n[5] == {k: 5 * v for k, v in per_n[1].items()}


class TestGemmShapes:
    """The conv GEMMs' call shapes, seen through a spy on np.matmul, so they
    hold on any BLAS."""

    @staticmethod
    def spy(monkeypatch):
        calls, matmul = [], np.matmul

        def spy(a, b, *args, **kwargs):
            calls.append((a.shape, b.shape))
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        return calls

    # each 24 px image spans 622 columns: at TILE 300 three tiles (300,
    # 300, 22); at 1300 two images share a tile, so the batch of 5 ends in
    # a group of one
    @pytest.mark.parametrize("tile", [300, 1300])
    def test_forward_runs_one_gemm_per_kernel_row_per_image_and_tile(self, tile, monkeypatch):
        gen = np.random.default_rng(9)
        x = tensor(gen.uniform(0, 1, (5, 4, 24, 24)))
        w = tensor(gen.standard_normal((6, 4, 3, 3)))
        monkeypatch.setattr(T, "TILE", tile)
        calls = self.spy(monkeypatch)
        with T.no_grad():
            T.conv2d(x, w, tensor(np.zeros(6)), padding=1)
        ncols = 26 * 26 - 2 * 26 - 2
        widths = Counter(min(tile, ncols - c0) for c0 in range(0, ncols, tile))
        per_width = Counter()
        for a, b in calls:
            assert a == (6, 3 * 4) and b[-2] == 3 * 4
            per_width[b[-1]] += b[0] if len(b) == 3 else 1
        assert per_width == {wd: 3 * 5 * k for wd, k in widths.items()}

    def test_backward_gemms_stay_under_the_bound_or_at_the_fallback(self, monkeypatch):
        # with these constants the 4 -> 6 conv's GEMMs fit the bound in
        # several tiles and the 12 -> 16 conv's fall back to TILE
        monkeypatch.setattr(T, "TILE", 300)
        monkeypatch.setattr(T, "SMALL_GEMM", 10 ** 4)
        monkeypatch.setattr(T, "MIN_COLS", 64)
        gen = np.random.default_rng(10)
        calls = self.spy(monkeypatch)
        seen = Counter()
        for cin, cout in ((4, 6), (12, 16)):
            x = tensor(gen.uniform(0, 1, (3, cin, 20, 20)))
            w = tensor(gen.standard_normal((cout, cin, 3, 3)))
            g = gen.uniform(-1, 1, (3, cout, 20, 20))
            for part in ("dW", "dX"):
                x.requires_grad, w.requires_grad = part == "dX", part == "dW"
                out = T.conv2d(x, w, tensor(np.zeros(cout)), padding=1)
                calls.clear()
                push_gradient(out, g)
                assert len(calls) > (9 if part == "dW" else 3)
                for a, b in calls:
                    cols = a[-1] if part == "dW" else b[-1]
                    rows_inner = a[-2] * a[-1] * b[-1] // cols
                    if rows_inner * cols <= T.SMALL_GEMM:
                        seen["under the bound"] += 1
                    else:
                        assert T.SMALL_GEMM // rows_inner < T.MIN_COLS and cols <= T.TILE
                        seen["at the fallback"] += 1
        assert seen["under the bound"] and seen["at the fallback"]


    def test_up_concat_phase_part_runs_one_2x2_conv_with_4cout_outputs(self, monkeypatch):
        # the stacked phase kernel is (4*cout, ca, 2, 2): 2 GEMMs per image
        # and tile with a (4*cout, 2*ca) row matrix; each 12 px image spans
        # 14*14 - 15 = 181 anchor columns, two tiles at TILE 100
        gen = np.random.default_rng(11)
        ca, cb, cout = 4, 3, 6
        x_low = tensor(gen.uniform(0, 1, (5, ca, 12, 12)))
        skip = tensor(gen.uniform(0, 1, (5, cb, 24, 24)))
        w = tensor(gen.standard_normal((cout, ca + cb, 3, 3)))
        monkeypatch.setattr(T, "TILE", 100)
        calls = self.spy(monkeypatch)
        with T.no_grad():
            T.up_concat_conv2d(x_low, skip, w, tensor(np.zeros(cout)))
        per_width = Counter()
        for a, b in calls:
            assert a in ((4 * cout, 2 * ca), (cout, 3 * cb))
            if a == (4 * cout, 2 * ca):
                per_width[b[-1]] += b[0]
        assert per_width == {100: 2 * 5, 81: 2 * 5}

    def test_up_concat_backward_gemms_stay_under_the_bound_or_at_the_fallback(self, monkeypatch):
        # with these constants the phase part's dX falls back to TILE, and
        # its dW and the skip part's GEMMs fit the bound in several tiles
        monkeypatch.setattr(T, "TILE", 300)
        monkeypatch.setattr(T, "SMALL_GEMM", 10 ** 4)
        monkeypatch.setattr(T, "MIN_COLS", 64)
        gen = np.random.default_rng(12)
        ca, cb, cout = 4, 3, 6
        x_low = tensor(gen.uniform(0, 1, (3, ca, 10, 10)))
        skip = tensor(gen.uniform(0, 1, (3, cb, 20, 20)))
        w = tensor(gen.standard_normal((cout, ca + cb, 3, 3)))
        g = gen.uniform(-1, 1, (3, cout, 20, 20))
        calls = self.spy(monkeypatch)
        seen = Counter()
        for part in ("dW", "dX"):
            x_low.requires_grad = skip.requires_grad = part == "dX"
            w.requires_grad = part == "dW"
            out = T.up_concat_conv2d(x_low, skip, w, tensor(np.zeros(cout)))
            calls.clear()
            push_gradient(out, g)
            for a, b in calls:
                cols = a[-1] if part == "dW" else b[-1]
                # the stacked phase kernel's rows in dW, its kernel row in dX
                phase = a[-2] == 4 * cout if part == "dW" else a[-1] == 2 * 4 * cout
                seen[part, "phase" if phase else "skip"] += 1
                rows_inner = a[-2] * a[-1] * b[-1] // cols
                if rows_inner * cols <= T.SMALL_GEMM:
                    seen["under the bound"] += 1
                else:
                    assert T.SMALL_GEMM // rows_inner < T.MIN_COLS and cols <= T.TILE
                    seen["at the fallback"] += 1
        assert all(seen[part, side] for part in ("dW", "dX") for side in ("phase", "skip"))
        assert seen["under the bound"] and seen["at the fallback"]


def unfused_up_concat_conv2d(x_low, skip, w, b):
    return T.conv2d(T.concat_channels(T.upsample_nearest(x_low), skip), w, b, padding=1)


class TestUpConcatConv2d:
    # (n, ca, cb, cout, h, w): single channels, batch > 1, non-square
    SHAPES = [(1, 1, 1, 1, 1, 1), (3, 1, 1, 1, 2, 3), (2, 3, 2, 4, 3, 5), (2, 1, 4, 2, 4, 2),
              (1, 5, 3, 1, 6, 6)]

    @staticmethod
    def _run(fn, arrays, g):
        ts = [T.Tensor(a, requires_grad=True) for a in arrays]
        out = fn(*ts)
        drive_backward(out, g)
        return [out.data] + [t.grad for t in ts]

    @pytest.mark.parametrize("tiles", TILES, ids=[str(t[0]) for t in TILES])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_unfused_composition(self, shape, tiles, monkeypatch):
        # forward and all four gradients, float64, across tile widths
        n, ca, cb, cout, h, w = shape
        gen = np.random.default_rng(sum(shape))
        arrays = [gen.uniform(-1, 1, (n, ca, h, w)), gen.uniform(-1, 1, (n, cb, 2 * h, 2 * w)),
                  gen.uniform(-1, 1, (cout, ca + cb, 3, 3)), gen.uniform(-1, 1, cout)]
        g = gen.uniform(-1, 1, (n, cout, 2 * h, 2 * w))
        use_tiles(monkeypatch, tiles)
        got = self._run(T.up_concat_conv2d, arrays, g)
        want = self._run(unfused_up_concat_conv2d, arrays, g)
        for name, a, b in zip(("out", "dx_low", "dskip", "dw", "db"), got, want):
            npt.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max(), err_msg=name)

    def test_matches_loop_oracle(self):
        gen = np.random.default_rng(61)
        xl = gen.uniform(-1, 1, (2, 2, 3, 2))
        sk = gen.uniform(-1, 1, (2, 3, 6, 4))
        wd = gen.uniform(-1, 1, (2, 5, 3, 3))
        bd = gen.uniform(-1, 1, 2)
        g = gen.uniform(-1, 1, (2, 2, 6, 4))
        cat = np.concatenate([upsample_nearest_loops(xl), sk], axis=1)
        ref = conv2d_loops(cat, wd, bd, 1, 1)
        dcat, dw, db = conv2d_backward_loops(cat, wd, g, 1, 1)
        out, dxl, dsk, gw, gb = self._run(T.up_concat_conv2d, [xl, sk, wd, bd], g)
        npt.assert_allclose(out, ref, atol=1e-12)
        npt.assert_allclose(dxl, upsample_backward_loops(dcat[:, :2]), atol=1e-12)
        npt.assert_allclose(dsk, dcat[:, 2:], atol=1e-12)
        npt.assert_allclose(gw, dw, atol=1e-12)
        npt.assert_allclose(gb, db, atol=1e-12)

    def test_tiled_matches_one_tile_at_model_size(self, monkeypatch):
        # the train-48 dec2 shape at batch 4 spans several tiles of the
        # skip part and of the phase part's input gradient; tiling only
        # regroups float32 sums, so every result stays within rounding of
        # one tile
        gen = np.random.default_rng(24)
        arrays = [gen.uniform(0, 1, (4, 12, 24, 24)).astype(np.float32),
                  gen.uniform(0, 1, (4, 6, 48, 48)).astype(np.float32),
                  (gen.standard_normal((6, 18, 3, 3)) * 0.1).astype(np.float32),
                  gen.uniform(-1, 1, 6).astype(np.float32)]
        g = gen.uniform(-1, 1, (4, 6, 48, 48)).astype(np.float32)
        assert 4 * 26 * 26 > T._gemm_cols(12, 2 * 4 * 6)
        assert 4 * 50 * 50 > max(T.TILE, T._gemm_cols(6, 3 * 6))
        tiled = self._run(T.up_concat_conv2d, arrays, g)
        use_tiles(monkeypatch, (10 ** 6, 10 ** 12, 1))
        for got, want in zip(tiled, self._run(T.up_concat_conv2d, arrays, g)):
            npt.assert_allclose(got, want, rtol=1e-5, atol=1e-5 * np.abs(want).max())

    def test_float32_stays_float32(self):
        gen = np.random.default_rng(3)
        arrays = [gen.uniform(-1, 1, s).astype(np.float32)
                  for s in ((2, 3, 4, 4), (2, 2, 8, 8), (4, 5, 3, 3), (4,))]
        out, *grads = self._run(T.up_concat_conv2d, arrays, np.ones((2, 4, 8, 8), np.float32))
        assert out.dtype == np.float32 and all(gr.dtype == np.float32 for gr in grads)
        ref = unfused_up_concat_conv2d(*(T.Tensor(a.astype(np.float64)) for a in arrays)).data
        npt.assert_allclose(out, ref, rtol=1e-5, atol=1e-5 * np.abs(ref).max())

    def test_collapse_rows_sum_the_taps_each_phase_reads(self):
        # every 3x3 tap lands on exactly one window tap of each phase
        npt.assert_array_equal(T.PHASE_COLLAPSE.reshape(4, 4, 9).sum(axis=1), np.ones((4, 9)))

    @pytest.mark.parametrize("shapes, match", [
        (((1, 2, 3, 3), (1, 1, 6, 5), (1, 3, 3, 3), (1,)), "skip is 1x6x5"),
        (((1, 2, 3, 3), (2, 1, 6, 6), (1, 3, 3, 3), (1,)), "skip is 2x6x6"),
        (((1, 2, 3, 3), (1, 1, 6, 6), (1, 4, 3, 3), (1,)), "expected 3x3x3"),
        (((1, 2, 3, 3), (1, 1, 6, 6), (1, 3, 1, 1), (1,)), "expected 3x3x3"),
        (((1, 2, 3, 3), (1, 1, 6, 6), (1, 3, 3, 3), (2,)), "bias shape"),
        (((2, 3, 3), (1, 1, 6, 6), (1, 3, 3, 3), (1,)), "4-d x_low"),
    ])
    def test_shape_mismatch_names_dims(self, shapes, match):
        with pytest.raises(T.ShapeError, match=match):
            T.up_concat_conv2d(*(tensor(np.zeros(s)) for s in shapes))


def backprop(out, g):
    """Run the backward pass of `out`'s graph from exactly the upstream
    gradient `g`, as `T.backward` does from a scalar loss."""
    out.grad = np.asarray(g, dtype=out.dtype)
    for node in reversed(T.topo_order(out)):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


class TestFusedRelu:
    """`relu=True` clamps the conv's output in place and masks the incoming
    gradient by that output; it must equal `T.relu` of the unfused op bit
    for bit, in values and in memory layout."""

    @staticmethod
    def _run(op, arrays, g):
        ts = [T.Tensor(a, requires_grad=True) for a in arrays]
        out = op(*ts)
        backprop(out, g)
        return [out.data] + [t.grad for t in ts]

    def _check(self, fused, composed, linear, shapes, seed, dtype):
        # small integers, so many pre-activations are exactly 0, and one NaN
        gen = np.random.default_rng(seed)
        arrays = [gen.integers(-1, 2, s).astype(dtype) for s in shapes]
        arrays[0].flat[gen.integers(arrays[0].size)] = np.nan
        pre = linear(*(T.Tensor(a) for a in arrays)).data
        assert (pre == 0).any() and np.isnan(pre).any() and (pre > 0).any()
        g = gen.uniform(-1, 1, pre.shape).astype(dtype)
        got, want = self._run(fused, arrays, g), self._run(composed, arrays, g)
        for k, (a, b) in enumerate(zip(got, want)):     # output, then each gradient
            assert a.strides == b.strides, k
            assert_same_bits(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("stride", [1, 2])
    def test_conv2d_equals_relu_of_conv2d(self, stride, dtype):
        self._check(lambda x, w, b: T.conv2d(x, w, b, stride=stride, padding=1, relu=True),
                    lambda x, w, b: T.relu(T.conv2d(x, w, b, stride=stride, padding=1)),
                    lambda x, w, b: T.conv2d(x, w, b, stride=stride, padding=1),
                    [(2, 3, 7, 6), (4, 3, 3, 3), (4,)], 10 + stride, dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_up_concat_conv2d_equals_relu_of_it(self, dtype):
        self._check(lambda *ts: T.up_concat_conv2d(*ts, relu=True),
                    lambda *ts: T.relu(T.up_concat_conv2d(*ts)),
                    T.up_concat_conv2d,
                    [(2, 2, 3, 4), (2, 3, 6, 8), (4, 5, 3, 3), (4,)], 12, dtype)


class TestMaxPool2d:
    def test_single_window(self):
        out, _ = T.maxpool2d(tensor([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert out.data[0, 0, 0, 0] == 4.0

    def test_known_4x4(self):
        out, _ = T.maxpool2d(tensor(np.arange(1, 17).reshape(1, 1, 4, 4)))
        npt.assert_array_equal(out.data[0, 0], [[6, 8], [14, 16]])

    def test_constant_input(self):
        out, _ = T.maxpool2d(tensor(np.full((1, 2, 4, 4), 3.5)))
        npt.assert_array_equal(out.data, np.full((1, 2, 2, 2), 3.5))

    def test_matches_loop_oracle(self):
        # odd sizes included; few distinct values, so many windows tie
        gen = np.random.default_rng(5)
        for _ in range(10):
            n, c = (int(v) for v in gen.integers(1, 4, 2))
            h, w = (int(v) for v in gen.integers(2, 10, 2))
            x = T.Tensor(gen.integers(0, 3, (n, c, h, w)).astype(np.float64), requires_grad=True)
            out, idx = T.maxpool2d(x)
            ref, ref_idx = maxpool2d_loops(x.data)
            npt.assert_array_equal(out.data, ref)
            npt.assert_array_equal(idx, ref_idx)
            g = gen.uniform(-1, 1, out.shape)
            push_gradient(out, g)
            npt.assert_array_equal(x.grad, maxpool2d_backward_loops(x.data, g))

    def test_tie_takes_first_in_row_major_order(self):
        x = tensor(np.full((1, 1, 2, 2), 7.0), requires_grad=True)
        out, idx = T.maxpool2d(x)
        assert idx[0, 0, 0, 0] == 0
        T.backward(T.mse(out, tensor([[[[0.0]]]])))
        assert x.grad[0, 0, 0, 0] != 0
        assert not x.grad.reshape(-1)[1:].any()

    def test_relu_ties_match_oracle_bitwise(self):
        # a ReLU'd float32 map: about half the inputs are exact zeros, so
        # many windows tie at 0 and must route to their first position
        gen = np.random.default_rng(17)
        x = T.relu(T.Tensor(gen.standard_normal((2, 3, 10, 12)).astype(np.float32)))
        assert 0.4 < (x.data == 0).mean() < 0.6
        x = T.Tensor(x.data, requires_grad=True)
        out, idx = T.maxpool2d(x)
        ref, ref_idx = maxpool2d_loops(x.data)
        assert idx.dtype == np.uint8
        assert_same_bits(out.data, ref.astype(np.float32))
        npt.assert_array_equal(idx, ref_idx)
        g = gen.standard_normal(out.shape).astype(np.float32)
        push_gradient(out, g)
        assert_same_bits(x.grad, maxpool2d_backward_loops(x.data, g).astype(np.float32))

    def test_nan_window_pools_to_nan_and_routes_to_its_last_position(self):
        # NaN equals nothing, so no position of a NaN window matches its
        # maximum; a window without NaN routes to its first maximum
        x = tensor([[[[1.0, np.nan, np.nan, 7.0, 5.0, 2.0],
                      [3.0, 0.0, 2.0, 1.0, 1.0, 5.0]]]], requires_grad=True)
        out, idx = T.maxpool2d(x)
        assert np.isnan(out.data[0, 0, 0, :2]).all() and out.data[0, 0, 0, 2] == 5.0
        npt.assert_array_equal(idx[0, 0, 0], [3, 3, 0])
        push_gradient(out, [[[[2.0, 3.0, 4.0]]]])
        npt.assert_array_equal(x.grad[0, 0], [[0, 0, 0, 0, 4, 0],
                                               [0, 2, 0, 3, 0, 0]])

    def test_floor_semantics_on_odd_size(self):
        out, _ = T.maxpool2d(tensor(np.zeros((1, 1, 5, 7))))
        assert out.shape == (1, 1, 2, 3)

    @pytest.mark.parametrize("h, w", [(1, 3), (3, 1), (1, 1)])
    def test_input_smaller_than_window_rejected(self, h, w):
        with pytest.raises(T.ShapeError, match=f"input is {h}x{w}, smaller than the 2x2 window"):
            T.maxpool2d(tensor(np.zeros((1, 1, h, w))))

    @pytest.mark.parametrize("shape", [(4, 4), (1, 4, 4), (1, 1, 1, 4, 4)])
    def test_non_4d_input_names_rank(self, shape):
        with pytest.raises(T.ShapeError, match=f"expected 4-d input, got {len(shape)}-d"):
            T.maxpool2d(tensor(np.zeros(shape)))


class TestUpsampleNearest:
    def test_replication(self):
        out = T.upsample_nearest(tensor([[[[1.0, 2.0], [3.0, 4.0]]]]))
        npt.assert_array_equal(
            out.data[0, 0],
            [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]])

    def test_matches_loop_oracle(self):
        gen = np.random.default_rng(6)
        for _ in range(10):
            n, c = (int(v) for v in gen.integers(1, 4, 2))
            h, w = (int(v) for v in gen.integers(1, 8, 2))
            x = T.Tensor(gen.uniform(-1, 1, (n, c, h, w)), requires_grad=True)
            out = T.upsample_nearest(x)
            npt.assert_array_equal(out.data, upsample_nearest_loops(x.data))
            g = gen.uniform(-1, 1, out.shape)
            push_gradient(out, g)
            npt.assert_array_equal(x.grad, upsample_backward_loops(g))

    def test_backward_sums_blocks(self):
        x = tensor(np.arange(4).reshape(1, 1, 2, 2), requires_grad=True)
        out = T.upsample_nearest(x)
        # every output's gradient is 2 * 1 / 16, and each input feeds 4
        T.backward(T.mse(out, T.Tensor(out.data - 1.0)))
        npt.assert_allclose(x.grad[0, 0], [[0.5, 0.5], [0.5, 0.5]], atol=1e-6)

    @pytest.mark.parametrize("shape", [(4, 4), (1, 4, 4), (1, 1, 1, 4, 4)])
    def test_non_4d_input_names_rank(self, shape):
        with pytest.raises(T.ShapeError, match=f"expected 4-d input, got {len(shape)}-d"):
            T.upsample_nearest(tensor(np.zeros(shape)))


class TestConcatChannels:
    def test_shape_additivity(self):
        a = tensor(np.zeros((1, 2, 4, 4)))
        b = tensor(np.zeros((1, 3, 4, 4)))
        assert T.concat_channels(a, b).shape == (1, 5, 4, 4)

    def test_zero_channel_identity(self):
        x = np.random.default_rng(1).uniform(-1, 1, (1, 2, 3, 3)).astype(np.float32)
        empty = tensor(np.zeros((1, 0, 3, 3)))
        npt.assert_array_equal(T.concat_channels(T.Tensor(x), empty).data, x)

    def test_order_and_values(self):
        gen = np.random.default_rng(2)
        a = gen.uniform(-1, 1, (2, 2, 3, 3)).astype(np.float32)
        b = gen.uniform(-1, 1, (2, 1, 3, 3)).astype(np.float32)
        out = T.concat_channels(T.Tensor(a), T.Tensor(b)).data
        npt.assert_array_equal(out[:, :2], a)
        npt.assert_array_equal(out[:, 2:], b)

    def test_backward_splits_at_boundary(self):
        gen = np.random.default_rng(4)
        a = T.Tensor(gen.uniform(-1, 1, (1, 2, 2, 2)).astype(np.float32), requires_grad=True)
        b = T.Tensor(gen.uniform(-1, 1, (1, 3, 2, 2)).astype(np.float32), requires_grad=True)
        tgt = T.Tensor(gen.uniform(-1, 1, (1, 5, 2, 2)).astype(np.float32))
        out = T.concat_channels(a, b)
        T.backward(T.mse(out, tgt))
        full = 2.0 / out.data.size * (out.data - tgt.data)
        npt.assert_allclose(a.grad, full[:, :2], atol=1e-7)
        npt.assert_allclose(b.grad, full[:, 2:], atol=1e-7)

    def test_spatial_mismatch_rejected(self):
        with pytest.raises(T.ShapeError, match="batch/spatial"):
            T.concat_channels(tensor(np.zeros((1, 1, 4, 4))), tensor(np.zeros((1, 1, 2, 4))))


class TestRelu:
    def test_elementwise(self):
        out = T.relu(tensor([-1.0, 0.0, 2.0]))
        npt.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_all_negative(self):
        assert not T.relu(tensor(-np.ones((3, 3)))).data.any()

    def test_gradient_passes_above_zero(self):
        # loss gradient w.r.t. relu(x) is 2 * (3 - 2) = 2
        x = tensor([3.0], requires_grad=True)
        T.backward(T.mse(T.relu(x), tensor([2.0])))
        npt.assert_allclose(x.grad, [2.0], atol=1e-6)

    def test_subgradient_zero_at_zero(self):
        x = tensor([0.0, -1.0], requires_grad=True)
        T.backward(T.mse(T.relu(x), tensor([1.0, 1.0])))
        npt.assert_array_equal(x.grad, [0.0, 0.0])


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = tensor(np.ones((4, 4)))
        out = T.dropout(x, 0.0, rng=Rng(0).stream("dropout"))
        npt.assert_array_equal(out.data, x.data)

    def test_inverted_scaling_preserves_mean(self):
        gen = Rng(123).stream("dropout")
        out = T.dropout(T.Tensor(np.ones(1_000_000, dtype=np.float32)), 0.5, gen)
        assert 0.99 <= out.data.mean() <= 1.01

    def test_survivors_scaled(self):
        gen = Rng(7).stream("dropout")
        out = T.dropout(T.Tensor(np.ones(1000, dtype=np.float32)), 0.25, gen)
        survivors = out.data[out.data != 0]
        npt.assert_allclose(survivors, 1 / 0.75, rtol=1e-6)

    def test_same_stream_same_mask(self):
        x = T.Tensor(np.ones((8, 8), dtype=np.float32))
        a = T.dropout(x, 0.5, Rng(9).stream("dropout")).data
        b = T.dropout(x, 0.5, Rng(9).stream("dropout")).data
        npt.assert_array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_non_dyadic_rate_matches_float_mask_bitwise(self, dtype):
        # 1 / (1 - 0.3) is inexact, so the order of the two products shows
        rate = 0.3
        gen = np.random.default_rng(6)
        x = T.Tensor(gen.uniform(-2, 2, (2, 3, 5, 7)).astype(dtype), requires_grad=True)
        out = T.dropout(x, rate, Rng(21).stream("dropout"))
        keep = (Rng(21).stream("dropout").random(size=x.shape) >= rate).astype(dtype)
        scale = 1 / (1 - rate)
        assert_same_bits(out.data, x.data * keep * scale)
        g = gen.uniform(-1, 1, out.shape).astype(dtype)
        push_gradient(out, g)
        assert_same_bits(x.grad, g * keep * scale)

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            T.dropout(tensor([1.0]), 1.0, Rng(0).stream("dropout"))
        with pytest.raises(ValueError):
            T.dropout(tensor([1.0]), -0.1, Rng(0).stream("dropout"))


class TestMse:
    def test_equal_inputs_zero(self):
        x = tensor(np.random.default_rng(0).uniform(-1, 1, (3, 3)))
        assert T.mse(x, x).item() == 0.0

    def test_unit_distance(self):
        assert T.mse(tensor([0.0, 1.0]), tensor([1.0, 0.0])).item() == 1.0

    def test_matches_scalar_loop(self):
        gen = np.random.default_rng(8)
        a = gen.uniform(-2, 2, 8)
        b = gen.uniform(-2, 2, 8)
        got = T.mse(T.Tensor(a), T.Tensor(b)).item()
        assert abs(got - mse_loops(a, b)) < 1e-7

    def test_shape_mismatch_rejected(self):
        with pytest.raises(T.ShapeError):
            T.mse(tensor([1.0]), tensor([1.0, 2.0]))


def test_forward_stays_finite_on_bounded_inputs():
    gen = np.random.default_rng(13)
    x = T.Tensor(gen.uniform(-10, 10, (2, 2, 8, 8)).astype(np.float32), requires_grad=True)
    w = T.Tensor(gen.uniform(-10, 10, (3, 2, 3, 3)).astype(np.float32), requires_grad=True)
    b = T.Tensor(gen.uniform(-10, 10, 3).astype(np.float32), requires_grad=True)
    out = T.relu(T.conv2d(x, w, b, padding=1))
    pooled, _ = T.maxpool2d(out)
    up = T.upsample_nearest(pooled)
    loss = T.mse(T.concat_channels(up, out), T.Tensor(np.zeros((2, 6, 8, 8), dtype=np.float32)))
    T.backward(loss)
    for t in (out, pooled, up, loss, x, w, b):
        assert np.isfinite(t.data).all()
        assert t.grad is None or np.isfinite(t.grad).all()


def test_fixed_seed_bitwise_reproducible():
    def run():
        gen = Rng(77).stream("dropout")
        data = Rng(77).stream("init").uniform(-1, 1, (1, 2, 6, 6)).astype(np.float32)
        x = T.Tensor(data, requires_grad=True)
        w = T.Tensor(np.ones((1, 2, 3, 3), dtype=np.float32) * 0.1, requires_grad=True)
        out = T.dropout(T.relu(T.conv2d(x, w, T.Tensor(np.zeros(1, dtype=np.float32)), padding=1)), 0.5, gen)
        loss = T.mse(out, T.Tensor(np.zeros_like(out.data)))
        T.backward(loss)
        return out.data.copy(), x.grad.copy(), w.grad.copy()

    o1, gx1, gw1 = run()
    o2, gx2, gw2 = run()
    npt.assert_array_equal(o1, o2)
    npt.assert_array_equal(gx1, gx2)
    npt.assert_array_equal(gw1, gw2)
