"""End-to-end acceptance gates.

Eight gates, each with the tolerance it must meet pinned in the test.
The expensive end-to-end run (train 100 positives, evaluate 25+25) is
built once as a session fixture; the classification, segmentation, and
determinism gates all read from it, and the determinism gate repeats the
full run to compare artifact bytes.
"""

import importlib.util
import os
import time

import numpy as np
import pytest

from catunet import data_io as dio
from catunet import diagnosis as dx
from catunet import gradcheck as gc
from catunet import metrics as mx
from catunet import tensor as T
from catunet import training as tr
from catunet.model import CatUNetConfig, build, load_checkpoint, save_checkpoint
from catunet.rng import Rng

from oracles import conv2d_loops, maxpool2d_loops, upsample_nearest_loops

# The one tuned recipe shared by the end-to-end gates (criteria 4/5/8).
RECIPE = {
    "corpus": dict(image_size=48, n_positive=125, n_negative=25, seed=7),
    "model": dict(input_channels=1, input_size=48, depth=2,
                  base_channels=6, dropout_rate=0.5),
    "init_seed": 1,
    "training": dict(learning_rate=0.02, epochs=300, batch_size=8,
                     validation_fraction=0.2, seed=11),
    "margin": 1.35,
}


def test_reference_script_uses_the_acceptance_recipe():
    # perfbench/make_reference.py trains the benchmark's reference model;
    # it must run this recipe, on config fields that still exist
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "make_reference.py")
    spec = importlib.util.spec_from_file_location("make_reference", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.RECIPE == RECIPE
    dio.SynthConfig(**RECIPE["corpus"])
    CatUNetConfig(**RECIPE["model"])
    tr.TrainingConfig(**RECIPE["training"])


def test_criterion_1_gradient_suite_under_tolerance():
    t0 = time.monotonic()
    errs = gc.run_suite(seed=0)
    elapsed = time.monotonic() - t0
    for name, err in errs.items():
        tol = 1e-3 if name == "model" else 1e-4
        assert err < tol, f"{name}: relative error {err:.3e} >= {tol}"
    assert elapsed < 120, f"gradient suite took {elapsed:.0f}s"


class TestCriterion2KernelOracles:
    N_CASES = 50
    ATOL = 1e-6

    def test_conv2d_matches_loops(self):
        gen = np.random.default_rng(20)
        for _ in range(self.N_CASES):
            n, cin, cout = gen.integers(1, 3), int(gen.integers(1, 4)), int(gen.integers(1, 4))
            h, w = int(gen.integers(3, 9)), int(gen.integers(3, 9))
            k = int(gen.choice([1, 3]))
            stride = int(gen.choice([1, 2]))
            padding = int(gen.choice([0, 1]))
            x = gen.standard_normal((int(n), cin, h, w))
            wgt = gen.standard_normal((cout, cin, k, k))
            b = gen.standard_normal(cout)
            got = T.conv2d(T.Tensor(x), T.Tensor(wgt), T.Tensor(b),
                           stride=stride, padding=padding).data
            ref = conv2d_loops(x, wgt, b, stride=stride, padding=padding)
            assert np.max(np.abs(got - ref)) < self.ATOL

    def test_maxpool2d_matches_loops(self):
        gen = np.random.default_rng(21)
        for _ in range(self.N_CASES):
            n, c = int(gen.integers(1, 3)), int(gen.integers(1, 4))
            h, w = int(gen.integers(2, 9)) * 2, int(gen.integers(2, 9)) * 2
            x = gen.standard_normal((n, c, h, w))
            got, _ = T.maxpool2d(T.Tensor(x))
            got = got.data
            ref, _ = maxpool2d_loops(x)
            assert np.max(np.abs(got - ref)) < self.ATOL

    def test_upsample_matches_loops(self):
        gen = np.random.default_rng(22)
        for _ in range(self.N_CASES):
            n, c = int(gen.integers(1, 3)), int(gen.integers(1, 4))
            h, w = int(gen.integers(1, 9)), int(gen.integers(1, 9))
            x = gen.standard_normal((n, c, h, w))
            got = T.upsample_nearest(T.Tensor(x)).data
            ref = upsample_nearest_loops(x)
            assert np.max(np.abs(got - ref)) < self.ATOL


def test_criterion_3_overfit_reconstruction_accuracy(tmp_path):
    t0 = time.monotonic()
    dio.synthesize(dio.SynthConfig(image_size=64, n_positive=16,
                                   n_negative=0, seed=3), str(tmp_path))
    positives, _, _ = dio.load_dataset(str(tmp_path))
    data = np.stack([s.pixels for s in positives])
    model = build(CatUNetConfig(input_channels=1, input_size=64, depth=2,
                                base_channels=6, dropout_rate=0.5), Rng(0))
    model, _ = tr.train(model, data, tr.TrainingConfig(
        learning_rate=0.01, epochs=200, batch_size=8,
        validation_fraction=0.0, seed=0))
    _, report = dx.evaluate(model, positives, dx.ThresholdConfig())
    acc = report.reconstruction_accuracy
    elapsed = time.monotonic() - t0
    assert acc >= 0.98, f"training reconstruction accuracy {acc:.4f} < 0.98"
    assert elapsed < 600, f"overfit fixture took {elapsed:.0f}s"


def _end_to_end(root: str) -> dict:
    """One full pipeline run: synth → train → calibrate → `dx.evaluate`."""
    t0 = time.monotonic()
    corpus = dio.SynthConfig(**RECIPE["corpus"])
    dio.synthesize(corpus, root)
    positives, negatives, _ = dio.load_dataset(str(root))
    train_pool, test_pos = positives[:100], positives[100:]

    data = np.stack([s.pixels for s in train_pool])
    model = build(CatUNetConfig(**RECIPE["model"]), Rng(RECIPE["init_seed"]))
    t_cfg = tr.TrainingConfig(**RECIPE["training"])
    model, report = tr.train(model, data, t_cfg)

    # Recover the validation subset by replaying the training split on
    # indices: tr.split consumes the first draw of the shuffle stream,
    # exactly as tr.train does internally.
    _, val_idx = tr.split(np.arange(len(train_pool)), t_cfg.validation_fraction,
                          Rng(t_cfg.seed).stream("shuffle"))
    val_samples = [train_pool[i] for i in val_idx]
    val_recons = [dx.reconstruct(model, s.pixels) for s in val_samples]
    threshold = dx.calibrate_from_positives(
        [dx.score_from_pair(s.pixels, r) for s, r in zip(val_samples, val_recons)],
        margin=RECIPE["margin"])
    t_px = dx.calibrate_pixel_threshold(
        [dx.error_map(s.pixels, r) for s, r in zip(val_samples, val_recons)],
        [s.truth_mask for s in val_samples])
    threshold_cfg = dx.ThresholdConfig(sample_threshold=threshold,
                                       pixel_threshold=t_px)

    test_samples = test_pos + negatives
    results, metrics_report = dx.evaluate(model, test_samples, threshold_cfg,
                                          with_masks=True)
    dices = [mx.dice(r.mask, s.truth_mask) for r, s in zip(results, test_samples)
             if r.mask is not None]
    csv_path = f"{root}/train.csv"
    report.to_csv(csv_path)
    return {
        "confusion": metrics_report.confusion,
        "dice_per_sample": dices,
        "mean_dice": metrics_report.dice,
        "metrics_json": metrics_report.to_json(),
        "train_csv": open(csv_path, "rb").read(),
        "threshold": threshold,
        "pixel_threshold": t_px,
        "elapsed": time.monotonic() - t0,
    }


@pytest.fixture(scope="session")
def end_to_end_run(tmp_path_factory):
    return _end_to_end(str(tmp_path_factory.mktemp("e2e_a")))


@pytest.mark.slow
def test_criterion_4_classification_accuracy_and_sensitivity(end_to_end_run):
    confusion = end_to_end_run["confusion"]
    assert confusion.total == 50
    assert confusion.accuracy >= 0.90, f"accuracy {confusion.accuracy:.3f} < 0.90"
    assert confusion.sensitivity >= 0.90, (
        f"sensitivity {confusion.sensitivity:.3f} < 0.90")
    assert end_to_end_run["elapsed"] < 1200, (
        f"end-to-end run took {end_to_end_run['elapsed']:.0f}s")


class TestCriterion5Segmentation:
    @pytest.mark.slow
    def test_mean_dice_on_end_to_end_run(self, end_to_end_run):
        mean_dice = end_to_end_run["mean_dice"]
        assert len(end_to_end_run["dice_per_sample"]) == 25
        assert mean_dice >= 0.70, f"mean Dice {mean_dice:.3f} < 0.70"

    def test_dice_identical_masks_is_exactly_one(self):
        mask = np.zeros((9, 9), dtype=np.uint8)
        mask[2:6, 3:8] = 1
        assert mx.dice(mask, mask.copy()) == 1.0

    def test_dice_disjoint_masks_is_exactly_zero(self):
        a = np.zeros((9, 9), dtype=np.uint8)
        b = np.zeros((9, 9), dtype=np.uint8)
        a[:3], b[6:] = 1, 1
        assert mx.dice(a, b) == 0.0

    def test_dice_half_overlap_is_exactly_half(self):
        a = np.zeros((8, 8), dtype=np.uint8)
        b = np.zeros((8, 8), dtype=np.uint8)
        a[0, :4] = 1        # |A| = 4
        b[0, 2:6] = 1       # |B| = 4, |A∩B| = 2 → 2·2/8 = 0.5
        assert mx.dice(a, b) == 0.5


def test_criterion_6_plateau_lr_sequence_exact():
    config = tr.TrainingConfig(learning_rate=0.01, decay_rate=0.1, patience=10)
    state = tr.SchedulerState(current_lr=config.learning_rate, best_val_loss=1.0)
    lrs = []
    for _ in range(20):  # forced non-improvement: constant validation loss
        lrs.append(state.current_lr)
        state = tr.schedule_update(state, 1.0, config)
    lrs.append(state.current_lr)
    assert lrs[:10] == [0.01] * 10
    assert lrs[10:20] == [0.01 * 0.1] * 10          # == 0.001
    assert lrs[20] == 0.01 * 0.1 ** 2               # == 1e-4
    assert state.reductions_applied == 2


def test_criterion_7_checkpoint_roundtrip_bit_exact(tmp_path):
    model = build(CatUNetConfig(input_channels=1, input_size=16, depth=2,
                                base_channels=3, dropout_rate=0.5), Rng(4))
    gen = np.random.default_rng(0)
    x = T.Tensor(gen.uniform(0, 1, (2, 1, 16, 16)).astype(np.float32))
    before = model.forward(x).data
    path = str(tmp_path / "model.catu")
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    assert set(loaded.parameters) == set(model.parameters)
    for name, p in model.parameters.items():
        got = loaded.parameters[name].data
        assert got.dtype == p.data.dtype
        assert np.array_equal(got, p.data), f"parameter {name} not bit-exact"
    after = loaded.forward(x).data
    assert np.array_equal(before, after)


@pytest.mark.slow
def test_criterion_8_full_run_determinism(end_to_end_run, tmp_path_factory):
    repeat = _end_to_end(str(tmp_path_factory.mktemp("e2e_b")))
    assert repeat["train_csv"] == end_to_end_run["train_csv"]
    assert repeat["metrics_json"] == end_to_end_run["metrics_json"]
