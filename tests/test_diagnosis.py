"""Scoring, threshold classification, and error-mask behavior."""

import json

import numpy as np
import numpy.testing as npt
import pytest

from catunet import diagnosis as dx
from catunet import tensor as T
from catunet.data_io import ImageSample
from catunet.metrics import confusion, dice as mx_dice
from catunet.model import CatUNetConfig, build
from catunet.rng import Rng


def tiny_model(seed=0):
    cfg = CatUNetConfig(input_channels=1, input_size=8, depth=1,
                        base_channels=2, dropout_rate=0.0)
    return build(cfg, Rng(seed))


class TestScore:
    def test_perfect_pair_scores_zero(self):
        img = np.random.default_rng(0).uniform(0, 1, (1, 8, 8))
        assert dx.score_from_pair(img, img) == 0.0

    def test_constant_offset_one_255th(self):
        img = np.full((1, 8, 8), 0.5)
        assert dx.score_from_pair(img, img - 1.0 / 255.0) == pytest.approx(1.0)

    def test_matches_scalar_loop(self):
        gen = np.random.default_rng(3)
        a = gen.uniform(0, 1, (1, 6, 6))
        b = gen.uniform(0, 1, (1, 6, 6))
        ref = 0.0
        for x, y in zip(a.ravel().tolist(), b.ravel().tolist()):
            ref += (255.0 * (x - y)) ** 2
        ref /= a.size
        assert abs(dx.score_from_pair(a, b) - ref) <= 1e-4 * ref

    def test_model_score_nonnegative_and_shape_checked(self):
        net = tiny_model()
        img = np.random.default_rng(1).uniform(0, 1, (1, 8, 8)).astype(np.float32)
        cfg = dx.ThresholdConfig()
        assert dx.diagnose(net, "s", img, cfg).score >= 0.0
        with pytest.raises(T.ShapeError):
            dx.diagnose(net, "s", np.zeros((1, 4, 4), dtype=np.float32), cfg)


class TestErrorMap:
    def test_score_and_mask_read_the_map_bit_for_bit(self):
        gen = np.random.default_rng(11)
        img = gen.uniform(0, 1, (1, 12, 12)).astype(np.float32)
        recon = gen.uniform(0, 1, (1, 12, 12)).astype(np.float32)
        e = dx.error_map(img, recon)
        assert e.dtype == np.float64 and e.shape == (12, 12)
        d = dx.INTENSITY_SCALE * (img.astype(np.float64) - recon.astype(np.float64))
        npt.assert_array_equal(e, (d * d)[0])
        assert dx.score_from_pair(img, recon) == float(np.mean(d * d))
        assert dx.score_from_pair(img, recon) == float(np.mean(e))
        for t in (None, float(np.median(e))):
            cut = dx.otsu_threshold(e) if t is None else t
            mask = dx.error_mask(e, dx.ThresholdConfig(pixel_threshold=t))
            npt.assert_array_equal(mask, (e >= cut).astype(np.uint8))

    def test_channels_averaged_into_one_map(self):
        img = np.zeros((3, 4, 4))
        recon = np.zeros((3, 4, 4))
        recon[1, 2, 3] = 3.0 / 255.0  # squared error 9 in one channel
        e = dx.error_map(img, recon)
        assert e.shape == (4, 4)
        assert e[2, 3] == 3.0 and e.sum() == 3.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(T.ShapeError, match="does not match"):
            dx.error_map(np.zeros((1, 4, 4)), np.zeros((1, 4, 5)))


class TestClassify:
    def test_boundary_is_positive(self):
        cfg = dx.ThresholdConfig(sample_threshold=50.0)
        assert dx.classify(50.0, cfg) == "Positive"
        assert dx.classify(50.001, cfg) == "Negative"
        assert dx.classify(0.0, cfg) == "Positive"

    @pytest.mark.parametrize("key, value", [("sample_threshold", True),
                                            ("pixel_threshold", False),
                                            ("sample_threshold", "50")])
    def test_bool_or_non_number_threshold_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            dx.ThresholdConfig(**{key: value})

    def test_monotone_in_score(self):
        cfg = dx.ThresholdConfig(sample_threshold=12.5)
        gen = np.random.default_rng(4)
        scores = sorted(gen.uniform(0, 30, 40).tolist())
        labels = [dx.classify(s, cfg) for s in scores]
        # once Negative, never Positive again at a higher score
        first_neg = labels.index("Negative") if "Negative" in labels else len(labels)
        assert all(l == "Positive" for l in labels[:first_neg])
        assert all(l == "Negative" for l in labels[first_neg:])

    def test_rescaling_preserves_labels(self):
        gen = np.random.default_rng(5)
        scores = gen.uniform(0, 100, 30).tolist()
        for c in (0.1, 3.0, 255.0):
            before = [dx.classify(s, dx.ThresholdConfig(sample_threshold=42.0))
                      for s in scores]
            after = [dx.classify(s * c, dx.ThresholdConfig(sample_threshold=42.0 * c))
                     for s in scores]
            assert before == after


class TestErrorMask:
    def test_perfect_reconstruction_gives_empty_mask(self):
        img = np.random.default_rng(0).uniform(0, 1, (1, 8, 8))
        cfg = dx.ThresholdConfig(pixel_threshold=1.0)
        assert not dx.error_mask(dx.error_map(img, img), cfg).any()

    def test_quadrant_error_recovers_quadrant(self):
        img = np.full((16, 16), 0.5)
        recon = img.copy()
        recon[:8, :8] += 20.0 / 255.0  # squared error 400 in one quadrant
        cfg = dx.ThresholdConfig(pixel_threshold=100.0)
        mask = dx.error_mask(dx.error_map(img, recon), cfg)
        expected = np.zeros((16, 16), dtype=np.uint8)
        expected[:8, :8] = 1
        npt.assert_array_equal(mask, expected)

    def test_otsu_is_idempotent(self):
        gen = np.random.default_rng(7)
        img = gen.uniform(0, 1, (12, 12))
        recon = img + gen.normal(0, 0.02, (12, 12))
        recon[3:7, 4:9] += 0.3
        e = (255.0 * (img - recon)) ** 2
        t = dx.otsu_threshold(e)
        auto = dx.error_mask(dx.error_map(img, recon), dx.ThresholdConfig())
        fixed = dx.error_mask(dx.error_map(img, recon), dx.ThresholdConfig(pixel_threshold=t))
        npt.assert_array_equal(auto, fixed)

    def test_otsu_separates_two_levels(self):
        e = np.zeros((10, 10))
        e[:, 5:] = 900.0
        t = dx.otsu_threshold(e)
        assert 0.0 < t <= 900.0
        npt.assert_array_equal(e >= t, e > 0)

    def test_constant_map_selects_nothing(self):
        e = np.full((6, 6), 4.0)
        assert not (e >= dx.otsu_threshold(e)).any()

    def test_channel_axis_collapsed(self):
        img = np.zeros((1, 4, 4))
        recon = np.zeros((1, 4, 4))
        recon[0, 1, 1] = 0.5
        mask = dx.error_mask(dx.error_map(img, recon), dx.ThresholdConfig(pixel_threshold=1.0))
        assert mask.shape == (4, 4)
        assert mask[1, 1] == 1 and mask.sum() == 1


class TestDiagnoseBatch:
    """dx.diagnose applied sample by sample, as `catunet evaluate` runs it."""

    def test_duplicate_samples_identical_scores(self):
        net = tiny_model(seed=2)
        img = np.random.default_rng(2).uniform(0, 1, (1, 8, 8)).astype(np.float32)
        cfg = dx.ThresholdConfig()
        results = [dx.diagnose(net, name, img, cfg) for name in ("a", "b")]
        assert results[0].score == results[1].score

    def test_counts_agree_with_confusion_matrix(self):
        net = tiny_model(seed=4)
        gen = np.random.default_rng(6)
        samples = [(f"s{i}", gen.uniform(0, 1, (1, 8, 8)).astype(np.float32))
                   for i in range(20)]
        cfg = dx.ThresholdConfig(sample_threshold=2000.0)
        results = [dx.diagnose(net, name, img, cfg) for name, img in samples]
        truth = ["Positive" if i < 10 else "Negative" for i in range(20)]
        cm = confusion([r.label for r in results], truth)
        n_pos_pred = sum(1 for r in results if r.label == "Positive")
        assert cm.tp + cm.fp == n_pos_pred
        assert cm.total == 20

    def test_jsonl_round_trip(self, tmp_path):
        net = tiny_model(seed=5)
        img = np.random.default_rng(8).uniform(0, 1, (1, 8, 8)).astype(np.float32)
        results = [dx.diagnose(net, "x", img, dx.ThresholdConfig(), with_mask=True)]
        results[0].mask_path = "masks/x.pgm"
        out = tmp_path / "diag.jsonl"
        dx.write_jsonl(results, str(out))
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        obj = json.loads(lines[0])
        assert obj["id"] == "x" and obj["mask_path"] == "masks/x.pgm"
        assert set(obj) == {"id", "score", "label", "mask_path"}


class TestDiagnose:
    def test_matches_the_separate_steps(self):
        net = tiny_model(seed=3)
        img = np.random.default_rng(9).uniform(0, 1, (8, 8)).astype(np.float32)
        cfg = dx.ThresholdConfig(sample_threshold=3000.0)
        result = dx.diagnose(net, "s", img, cfg, with_mask=True)
        recon = dx.reconstruct(net, img[None])
        value = dx.score_from_pair(img[None], recon)
        assert result.score == value
        assert result.label == dx.classify(value, cfg)
        npt.assert_array_equal(result.mask, dx.error_mask(dx.error_map(img[None], recon), cfg))
        assert dx.diagnose(net, "s", img, cfg).mask is None

    @pytest.mark.parametrize("weight", [1e38, np.nan])
    def test_non_finite_score_raises_naming_sample(self, weight):
        net = tiny_model(seed=6)
        for p in net.parameters.values():
            p.data[...] = weight
        img = np.random.default_rng(10).uniform(0, 1, (1, 8, 8)).astype(np.float32)
        with pytest.raises(ValueError, match="sample 'bad_07'"):
            dx.diagnose(net, "bad_07", img, dx.ThresholdConfig())


def _reachable_arrays(root) -> list:
    """Every ndarray reachable from `root` through containers and attributes."""
    found, stack, seen = [], [root], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, (list, tuple, set)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return found


class TestEvaluate:
    def samples(self, n=6):
        gen = np.random.default_rng(12)
        out = []
        for i in range(n):
            mask = np.zeros((8, 8), dtype=np.uint8)
            mask[2:5, 3:6] = 1
            out.append(ImageSample(id=f"s{i}",
                                   pixels=gen.uniform(0, 1, (1, 8, 8)).astype(np.float32),
                                   truth_label="Positive" if i % 2 else "Negative",
                                   truth_mask=mask))
        return out

    def test_holds_no_image_sized_array_without_masks(self):
        outcome = dx.evaluate(tiny_model(seed=7), self.samples(),
                              dx.ThresholdConfig(sample_threshold=2000.0))
        assert _reachable_arrays(outcome) == []

    def test_holds_only_the_masks_with_masks(self):
        samples = self.samples()
        results, report = dx.evaluate(tiny_model(seed=7), samples,
                                      dx.ThresholdConfig(pixel_threshold=100.0),
                                      with_masks=True)
        held = _reachable_arrays((results, report))
        assert len(held) == len(samples)
        assert all(a.shape == (8, 8) and a.dtype == np.uint8 for a in held)
        assert report.dice is not None

    def test_accuracy_is_one_minus_mean_normalized_score(self):
        results, report = dx.evaluate(tiny_model(seed=7), self.samples(),
                                      dx.ThresholdConfig())
        mses = [r.score / dx.INTENSITY_SCALE ** 2 for r in results]
        assert report.reconstruction_accuracy == max(0.0, 1.0 - sum(mses) / len(mses))

    def test_batch_is_what_fits_one_tile(self):
        # three padded 48 px images fit TILE columns; from 63 px up it is
        # batch 1, as `diagnose` runs
        assert [dx.eval_batch(s) for s in (48, 62, 63, 256)] == [3, 2, 1, 1]
        assert dx.eval_batch(8) * 10 ** 2 <= T.TILE < (dx.eval_batch(8) + 1) * 10 ** 2

    def test_batched_forward_equals_per_sample_diagnose_bit_for_bit(self):
        # the 48 px reference config, whose decoder GEMMs are where a batch
        # could leave batch 1's bits; the last batch holds one sample
        net = build(CatUNetConfig(input_channels=1, input_size=48, depth=2, base_channels=6),
                    Rng(5))
        gen = np.random.default_rng(13)
        mask = np.zeros((48, 48), dtype=np.uint8)
        mask[10:20, 20:30] = 1
        samples = [ImageSample(id=f"s{i}", pixels=gen.uniform(0, 1, (1, 48, 48)).astype(np.float32),
                               truth_label="Positive", truth_mask=mask)
                   for i in range(2 * dx.eval_batch(48) + 1)]
        scores = [dx.diagnose(net, s.id, s.pixels, dx.ThresholdConfig()).score for s in samples]
        cfg = dx.ThresholdConfig(sample_threshold=float(np.median(scores)))
        results, _ = dx.evaluate(net, samples, cfg, with_masks=True)
        solo = [dx.diagnose(net, s.id, s.pixels, cfg, with_mask=True) for s in samples]
        assert {r.label for r in solo} == {"Positive", "Negative"}
        for r, d in zip(results, solo):
            assert (r.id, r.score, r.label) == (d.id, d.score, d.label)
            npt.assert_array_equal(r.mask, d.mask)


class TestCalibration:
    def test_positives_only_margin(self):
        assert dx.calibrate_from_positives([1.0, 4.0, 2.0]) == pytest.approx(6.0)
        assert dx.calibrate_from_positives([3.0], margin=2.0) == pytest.approx(6.0)
        with pytest.raises(ValueError, match="empty"):
            dx.calibrate_from_positives([])

    # max() skips a NaN that is not first, so the NaN's position varies
    @pytest.mark.parametrize("scores", [[1.0, np.nan, 2.0], [np.nan, 1.0, 2.0],
                                        [1.0, np.inf], [-np.inf, 1.0]])
    def test_non_finite_score_rejected(self, scores):
        with pytest.raises(ValueError, match="scores must be finite"):
            dx.calibrate_from_positives(scores)

    @pytest.mark.parametrize("margin", [np.nan, np.inf])
    def test_non_finite_margin_rejected(self, margin):
        with pytest.raises(ValueError, match="margin must be finite"):
            dx.calibrate_from_positives([1.0, 2.0], margin=margin)

    def test_overflowing_threshold_rejected(self):
        # finite score and margin whose product is not
        with pytest.raises(ValueError, match="threshold overflows"):
            dx.calibrate_from_positives([1.0, 1e308], margin=2.0)


class TestPixelThresholdCalibration:
    def _maps_with_hot_square(self, gen, n, size=16, hot=900.0, cold=50.0):
        maps, masks = [], []
        for _ in range(n):
            e = gen.uniform(0, cold, (size, size))
            m = np.zeros((size, size), dtype=np.uint8)
            y, x = gen.integers(2, size - 6, 2)
            m[y: y + 4, x: x + 4] = 1
            e[m.astype(bool)] = gen.uniform(hot, hot * 1.2, 16)
            maps.append(e)
            masks.append(m)
        return maps, masks

    def test_separable_maps_recover_near_perfect_overlap(self):
        # the percentile grid need not contain a point in the exact
        # cold/hot gap, so demand near-perfect rather than exact masks
        gen = np.random.default_rng(6)
        maps, masks = self._maps_with_hot_square(gen, 5)
        t = dx.calibrate_pixel_threshold(maps, masks)
        dices = [mx_dice((e >= t).astype(np.uint8), m)
                 for e, m in zip(maps, masks)]
        assert np.mean(dices) >= 0.97
        assert min(dices) >= 0.9

    def test_beats_otsu_on_heavy_tailed_maps(self):
        # squared-error maps have a huge near-zero mass plus a thin
        # unbounded tail; the calibrated cut must sit in the gap even
        # when the hot region's values span two decades
        gen = np.random.default_rng(13)
        maps, masks = [], []
        for _ in range(4):
            e = gen.exponential(20.0, (24, 24))
            m = np.zeros((24, 24), dtype=np.uint8)
            m[8:14, 9:15] = 1
            e[m.astype(bool)] = gen.uniform(500.0, 50000.0, int(m.sum()))
            maps.append(e)
            masks.append(m)
        t = dx.calibrate_pixel_threshold(maps, masks)
        dice_cal = np.mean([mx_dice((e >= t).astype(np.uint8), m)
                            for e, m in zip(maps, masks)])
        assert dice_cal > 0.95

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="error maps but"):
            dx.calibrate_pixel_threshold([np.zeros((4, 4))], [])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            dx.calibrate_pixel_threshold([], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_map_rejected(self, bad):
        maps, masks = self._maps_with_hot_square(np.random.default_rng(3), 3)
        maps[1][0, 0] = bad
        with pytest.raises(ValueError, match=r"error maps at positions \[1\] hold NaN or inf"):
            dx.calibrate_pixel_threshold(maps, masks)
