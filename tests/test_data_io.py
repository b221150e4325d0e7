"""PGM codec, preprocessing, dataset loading, and corpus generation."""

import json
import logging
import os
import re
import sys
import types

import numpy as np
import pytest

from catunet import data_io as dio
from catunet.data_io import ImageSample, SynthConfig


def bilinear_loops(img, target):
    """Scalar half-pixel-centered bilinear resize, O(target^2) loops."""
    h, w = img.shape
    out = np.zeros((target, target))
    for i in range(target):
        for j in range(target):
            y = min(max((i + 0.5) * h / target - 0.5, 0.0), h - 1.0)
            x = min(max((j + 0.5) * w / target - 0.5, 0.0), w - 1.0)
            y0, x0 = int(np.floor(y)), int(np.floor(x))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = y - y0, x - x0
            out[i, j] = (img[y0, x0] * (1 - fy) * (1 - fx)
                         + img[y0, x1] * (1 - fy) * fx
                         + img[y1, x0] * fy * (1 - fx)
                         + img[y1, x1] * fy * fx)
    return out


class TestPgmCodec:
    def test_roundtrip_random_rasters(self, tmp_path):
        gen = np.random.default_rng(0)
        for k in range(20):
            h, w = int(gen.integers(1, 40)), int(gen.integers(1, 40))
            raster = gen.integers(0, 256, (h, w), dtype=np.uint8)
            path = str(tmp_path / f"img_{k}.pgm")
            dio.write_pgm(path, raster)
            assert np.array_equal(dio.read_pgm(path), raster)

    def test_header_comments_and_whitespace(self, tmp_path):
        path = str(tmp_path / "odd.pgm")
        body = bytes([10, 20, 30, 40, 50, 60])
        with open(path, "wb") as fh:
            fh.write(b"P5 # a comment\n# another line\n  3\r\n2\t255\n" + body)
        raster = dio.read_pgm(path)
        assert raster.shape == (2, 3)
        assert raster.ravel().tolist() == [10, 20, 30, 40, 50, 60]

    def test_sixteen_bit_rejected(self, tmp_path):
        path = str(tmp_path / "deep.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n2 2\n65535\n" + bytes(8))
        with pytest.raises(ValueError, match="8-bit"):
            dio.read_pgm(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = str(tmp_path / "ascii.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(ValueError, match="P5"):
            dio.read_pgm(path)

    def test_truncated_raster_rejected(self, tmp_path):
        path = str(tmp_path / "short.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n4 4\n255\n" + bytes(7))  # needs 16
        with pytest.raises(ValueError, match="truncated"):
            dio.read_pgm(path)

    def test_truncated_header_rejected(self, tmp_path):
        path = str(tmp_path / "header.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n4")
        with pytest.raises(ValueError, match="truncated"):
            dio.read_pgm(path)

    def test_low_maxval_rescaled_to_255(self, tmp_path):
        path = str(tmp_path / "dim.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n3 1\n15\n" + bytes([0, 5, 15]))
        assert dio.read_pgm(path).tolist() == [[0, 85, 255]]

    def test_raster_byte_above_maxval_rejected(self, tmp_path):
        path = str(tmp_path / "over.pgm")
        with open(path, "wb") as fh:
            fh.write(b"P5\n2 1\n15\n" + bytes([15, 16]))
        with pytest.raises(ValueError, match="over.pgm.*above its maxval 15"):
            dio.read_pgm(path)

    def test_write_rejects_bad_arrays(self, tmp_path):
        path = str(tmp_path / "x.pgm")
        with pytest.raises(ValueError, match="2-d"):
            dio.write_pgm(path, np.zeros((2, 2, 2), dtype=np.uint8))
        with pytest.raises(ValueError, match="uint8"):
            dio.write_pgm(path, np.zeros((2, 2), dtype=np.float32))

    def test_missing_file_message_names_path(self):
        with pytest.raises(ValueError, match="no_such"):
            dio.read_pgm("/nonexistent/no_such.pgm")


class TestLoadImage:
    def test_four_pixel_normalization(self, tmp_path):
        path = str(tmp_path / "quad.pgm")
        dio.write_pgm(path, np.array([[0, 128], [255, 64]], dtype=np.uint8))
        sample = dio.load_image(path)
        assert sample.id == "quad"
        assert sample.pixels.shape == (1, 2, 2)
        assert sample.pixels.dtype == np.float32
        expected = np.array([[0.0, 128 / 255], [1.0, 64 / 255]], dtype=np.float32)
        assert np.array_equal(sample.pixels[0], expected)

    def test_unsupported_extension(self, tmp_path):
        path = tmp_path / "img.tiff"
        path.write_bytes(b"xx")
        with pytest.raises(ValueError, match="unsupported image format"):
            dio.load_image(str(path))


def _stub_pillow(monkeypatch, open_image):
    """Install a stand-in `PIL` whose `Image.open` is `open_image`, so the
    PNG reader runs without Pillow."""
    image = types.ModuleType("PIL.Image")
    image.open = open_image
    pil = types.ModuleType("PIL")
    pil.Image = image
    monkeypatch.setitem(sys.modules, "PIL", pil)
    monkeypatch.setitem(sys.modules, "PIL.Image", image)


class _StubPng:
    """What the stub `Image.open` returns: a context manager whose "L"
    conversion is a fixed 8-bit raster."""

    def __init__(self, raster):
        self.raster = raster

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def convert(self, mode):
        assert mode == "L"
        return self.raster


class TestLoadPng:
    RASTER = np.array([[0, 51], [255, 102]], dtype=np.uint8)

    def test_l_raster_scaled_to_unit_range(self, tmp_path, monkeypatch):
        opened = []
        _stub_pillow(monkeypatch, lambda path: opened.append(path) or _StubPng(self.RASTER))
        path = tmp_path / "scan.png"
        path.write_bytes(b"not decoded by the stub")
        sample = dio.load_image(str(path))
        assert opened == [str(path)]
        assert sample.id == "scan"
        assert sample.pixels.dtype == np.float32
        assert np.array_equal(sample.pixels, self.RASTER[None].astype(np.float32) / 255.0)

    def test_load_dataset_reads_png_next_to_pgm(self, tmp_path, monkeypatch):
        _stub_pillow(monkeypatch, lambda path: _StubPng(self.RASTER))
        (tmp_path / "positive").mkdir()
        (tmp_path / "positive" / "a.png").write_bytes(b"")
        _write_gray(tmp_path / "positive" / "b.pgm", 10, size=2)
        positives, _, _ = dio.load_dataset(str(tmp_path))
        assert [s.id for s in positives] == ["a", "b"]
        assert np.array_equal(positives[0].pixels, self.RASTER[None].astype(np.float32) / 255.0)

    def test_missing_pillow_names_the_png_extra(self, tmp_path, monkeypatch):
        # a None entry makes `from PIL import Image` raise ImportError
        monkeypatch.setitem(sys.modules, "PIL", None)
        (tmp_path / "positive").mkdir()
        (tmp_path / "positive" / "a.png").write_bytes(b"")
        with pytest.raises(ValueError, match="install the 'png' extra"):
            dio.load_dataset(str(tmp_path))

    def test_decoder_error_names_the_file(self, tmp_path, monkeypatch):
        def broken(path):
            raise OSError("image file is truncated")

        _stub_pillow(monkeypatch, broken)
        path = tmp_path / "broken.png"
        path.write_bytes(b"\x89PNG")
        with pytest.raises(ValueError, match=re.escape(f"cannot decode PNG '{path}': image file is truncated")):
            dio.load_image(str(path))


class TestResize:
    def test_checkerboard_2x2_to_4x4_hand_values(self):
        img = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        out = dio.resize_bilinear(img, 4)
        # corner pixels sample outside the source centers and clamp to
        # the nearest corner; the two interior values interpolate the
        # diagonal: (1,1) mixes 3 parts corner to 1 part opposite.
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 3] == pytest.approx(0.0)
        assert out[1, 1] == pytest.approx(0.625)
        assert out[1, 2] == pytest.approx(0.375)

    def test_matches_loop_oracle(self):
        gen = np.random.default_rng(3)
        for _ in range(15):
            h, w = int(gen.integers(2, 12)), int(gen.integers(2, 12))
            target = int(gen.integers(1, 16))
            img = gen.uniform(0, 1, (h, w))
            got = dio.resize_bilinear(img, target)
            ref = bilinear_loops(img, target)
            assert np.max(np.abs(got - ref)) < 1e-6

    def test_identity_at_size_is_exact(self):
        gen = np.random.default_rng(4)
        img = gen.uniform(0, 1, (9, 9)).astype(np.float32)
        assert np.array_equal(dio.resize_bilinear(img, 9), img)

    def test_constant_stays_constant(self):
        img = np.full((5, 5), 0.37, dtype=np.float32)
        out = dio.resize_bilinear(img, 13)
        assert np.allclose(out, 0.37, atol=1e-7)

    def test_mask_resize_stays_binary(self):
        mask = np.zeros((8, 8), dtype=np.uint8)
        mask[2:6, 3:7] = 1
        sample = ImageSample(id="m", pixels=np.zeros((1, 8, 8), np.float32),
                             truth_mask=mask)
        out = dio.resize(sample, 12)
        assert set(np.unique(out.truth_mask).tolist()) <= {0, 1}
        assert out.truth_mask.shape == (12, 12)
        assert out.truth_mask.sum() > 0

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            dio.resize_bilinear(np.zeros((4, 4)), 0)


class TestPreprocess:
    def test_idempotent_bit_exact(self):
        gen = np.random.default_rng(5)
        sample = ImageSample(id="s", pixels=gen.uniform(0, 1, (1, 20, 20)).astype(np.float32))
        once = dio.preprocess(sample, 16)
        twice = dio.preprocess(once, 16)
        assert np.array_equal(once.pixels, twice.pixels)

    def test_clamps_out_of_range(self):
        pixels = np.array([[[-0.5, 0.5], [1.5, 0.25]]], dtype=np.float32)
        out = dio.preprocess(ImageSample(id="c", pixels=pixels), 2)
        assert out.pixels.min() >= 0.0 and out.pixels.max() <= 1.0

    def test_replicates_gray_to_three_channels(self):
        sample = ImageSample(id="g", pixels=np.ones((1, 4, 4), np.float32) * 0.2)
        out = dio.preprocess(sample, 4, channels=3)
        assert out.pixels.shape == (3, 4, 4)
        assert np.array_equal(out.pixels[0], out.pixels[2])

    def test_channel_mismatch_rejected(self):
        sample = ImageSample(id="x", pixels=np.zeros((3, 4, 4), np.float32))
        with pytest.raises(ValueError, match="channels"):
            dio.preprocess(sample, 4, channels=2)


def _write_gray(path, value, size=4):
    dio.write_pgm(str(path), np.full((size, size), value, dtype=np.uint8))


class TestLoadDataset:
    def test_orders_and_pairs_masks_by_stem(self, tmp_path):
        (tmp_path / "positive").mkdir()
        (tmp_path / "negative").mkdir()
        (tmp_path / "masks").mkdir()
        _write_gray(tmp_path / "positive" / "b.pgm", 10)
        _write_gray(tmp_path / "positive" / "a.pgm", 20)
        _write_gray(tmp_path / "negative" / "c.pgm", 30)
        (tmp_path / "positive" / "notes.txt").write_text("ignored")
        mask = np.zeros((4, 4), dtype=np.uint8)
        mask[1:3, 1:3] = 255
        dio.write_pgm(str(tmp_path / "masks" / "a.pgm"), mask)

        positives, negatives, masks = dio.load_dataset(str(tmp_path))
        assert [s.id for s in positives] == ["a", "b"]
        assert [s.id for s in negatives] == ["c"]
        assert positives[0].truth_label == dio.POSITIVE
        assert negatives[0].truth_label == dio.NEGATIVE
        assert set(masks) == {"a"}
        assert positives[0].truth_mask.sum() == 4
        assert positives[1].truth_mask is None

    def test_maxval_one_mask_matches_its_255_twin(self, tmp_path):
        # a binary mask saved with maxval 1 must not load as all zeros
        truth = np.zeros((4, 4), dtype=np.uint8)
        truth[1:3, 0:2] = 1
        masks = {}
        for name, maxval in (("one", 1), ("full", 255)):
            root = tmp_path / name
            (root / "positive").mkdir(parents=True)
            (root / "masks").mkdir()
            _write_gray(root / "positive" / "a.pgm", 10)
            with open(root / "masks" / "a.pgm", "wb") as fh:
                fh.write(f"P5\n4 4\n{maxval}\n".encode("ascii"))
                fh.write((truth * maxval).astype(np.uint8).tobytes())
            positives, _, _ = dio.load_dataset(str(root))
            masks[name] = positives[0].truth_mask
        assert np.array_equal(masks["one"], truth)
        assert np.array_equal(masks["one"], masks["full"])

    def test_missing_positive_dir_rejected(self, tmp_path):
        (tmp_path / "negative").mkdir()
        with pytest.raises(ValueError, match="positive"):
            dio.load_dataset(str(tmp_path))

    def test_missing_root_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="not a directory"):
            dio.load_dataset(str(tmp_path / "absent"))

    def test_orphan_mask_warns(self, tmp_path, caplog):
        (tmp_path / "positive").mkdir()
        (tmp_path / "masks").mkdir()
        _write_gray(tmp_path / "positive" / "a.pgm", 10)
        _write_gray(tmp_path / "masks" / "zz.pgm", 255)
        with caplog.at_level(logging.WARNING, logger="catunet.data_io"):
            dio.load_dataset(str(tmp_path))
        assert any("zz" in r.getMessage() for r in caplog.records)


SMALL = dict(image_size=24, n_positive=3, n_negative=2, seed=11)


class TestSynthesize:
    def test_reruns_are_byte_identical(self, tmp_path):
        config = SynthConfig(**SMALL)
        a, b = tmp_path / "a", tmp_path / "b"
        dio.synthesize(config, str(a))
        dio.synthesize(config, str(b))
        for sub in ("positive", "negative", "masks"):
            names = sorted(os.listdir(a / sub))
            assert names == sorted(os.listdir(b / sub))
            for name in names:
                assert (a / sub / name).read_bytes() == (b / sub / name).read_bytes()
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()

    def test_different_seed_changes_pixels(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        dio.synthesize(SynthConfig(**SMALL), str(a))
        dio.synthesize(SynthConfig(**{**SMALL, "seed": 12}), str(b))
        assert ((a / "positive" / "pos_000.pgm").read_bytes()
                != (b / "positive" / "pos_000.pgm").read_bytes())

    def test_counts_and_layout(self, tmp_path):
        manifest = dio.synthesize(SynthConfig(**SMALL), str(tmp_path))
        assert len(os.listdir(tmp_path / "positive")) == 3
        assert len(os.listdir(tmp_path / "negative")) == 2
        assert len(os.listdir(tmp_path / "masks")) == 3
        labels = [e["label"] for e in manifest["samples"]]
        assert labels.count(dio.POSITIVE) == 3
        assert labels.count(dio.NEGATIVE) == 2
        for entry in manifest["samples"]:
            if entry["label"] == dio.POSITIVE:
                assert "lesion_center" in entry and "lesion_radii" in entry

    def test_masks_nonempty_and_inside_bounds(self, tmp_path):
        manifest = dio.synthesize(SynthConfig(**SMALL), str(tmp_path))
        positives, _, masks = dio.load_dataset(str(tmp_path))
        assert len(masks) == len(positives)
        by_id = {e["id"]: e for e in manifest["samples"]}
        for sample in positives:
            mask = sample.truth_mask
            assert mask.sum() > 0
            ys, xs = np.nonzero(mask)
            cy, cx = by_id[sample.id]["lesion_center"]
            ra, rb = by_id[sample.id]["lesion_radii"]
            reach = max(ra, rb)
            assert ys.min() >= cy - reach and ys.max() <= cy + reach
            assert xs.min() >= cx - reach and xs.max() <= cx + reach

    def test_mask_is_exact_support_of_added_signal(self):
        # the emitted mask must equal the set of pixels the lesion
        # actually brightened, with no off-by-one at the taper edge
        gen = np.random.default_rng(7)
        for _ in range(10):
            added, mask, _, _ = dio._lesion(gen, SMALL["image_size"])
            assert np.array_equal(added > 0, mask.astype(bool))

    def test_invalid_config_collects_all_problems(self):
        with pytest.raises(ValueError) as err:
            SynthConfig(image_size=4, n_negative=-1, seed=-1)
        message = str(err.value)
        assert "image_size" in message
        assert "sample counts" in message
        assert "seed" in message

    @pytest.mark.parametrize("key, value", [("n_positive", True), ("seed", True),
                                            ("image_size", 64.0), ("n_negative", 2.5)])
    def test_bool_or_non_integer_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            SynthConfig(**{key: value})

    def test_radius_must_fit_image(self):
        # one size rule: the largest lesion radius (7) plus _lesion's
        # 2-pixel margin must stay below half the image
        for size in (4, 18):
            with pytest.raises(ValueError, match="lesion radius 7") as err:
                SynthConfig(image_size=size)
            assert ";" not in str(err.value)  # one rule, one problem

    @pytest.mark.parametrize("radii", [(2, 3), (4, 4), (5, 7)])
    def test_smallest_accepted_size_synthesizes(self, tmp_path, monkeypatch, radii):
        # the size rule and _lesion both read LESION_RADII: at the smallest
        # size the rule accepts, every lesion must still fit, whatever the radii
        monkeypatch.setattr(dio, "LESION_RADII", radii)
        size = 2 * (radii[1] + 2) + 1  # _lesion's centre needs a 2-pixel margin
        with pytest.raises(ValueError, match="half the"):
            SynthConfig(image_size=size - 1)
        for seed in range(3):
            dio.synthesize(SynthConfig(image_size=size, n_positive=20, n_negative=0,
                                       seed=seed),
                           str(tmp_path / str(seed)))
