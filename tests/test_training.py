"""Training loop, SGD, and learning-rate schedule behavior."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from catunet import tensor as T
from catunet import training as tr
from catunet.model import CatUNetConfig, CatUNetModel, build, load_checkpoint
from catunet.rng import Rng


def tiny_model(dropout=0.0, seed=0, size=8):
    cfg = CatUNetConfig(input_channels=1, input_size=size, depth=1,
                        base_channels=2, dropout_rate=dropout)
    return build(cfg, Rng(seed))


def smooth_stack(n, size, seed):
    """Low-frequency images a small net can reconstruct quickly."""
    gen = np.random.default_rng(seed)
    ii, jj = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    out = np.empty((n, 1, size, size), dtype=np.float32)
    for k in range(n):
        fx, fy = gen.uniform(0.5, 1.5, 2)
        px, py = gen.uniform(0, 2 * np.pi, 2)
        img = 0.5 + 0.25 * (np.sin(2 * np.pi * fx * ii / size + px)
                            + np.sin(2 * np.pi * fy * jj / size + py)) / 2
        out[k, 0] = img
    return out


class TestSplit:
    def test_eighty_twenty(self):
        data = np.arange(100, dtype=np.float32).reshape(100, 1, 1, 1)
        train, val = tr.split(data, 0.2, Rng(0).stream("shuffle"))
        assert train.shape[0] == 80 and val.shape[0] == 20
        merged = sorted(np.concatenate([train, val]).ravel().tolist())
        assert merged == list(range(100))  # disjoint and exhaustive

    def test_fraction_zero_all_train(self):
        data = np.zeros((7, 1, 2, 2), dtype=np.float32)
        train, val = tr.split(data, 0.0, Rng(1).stream("shuffle"))
        assert train.shape[0] == 7 and val.shape[0] == 0

    def test_same_seed_same_membership(self):
        data = np.arange(30, dtype=np.float32).reshape(30, 1, 1, 1)
        a = tr.split(data, 0.3, Rng(5).stream("shuffle"))
        b = tr.split(data, 0.3, Rng(5).stream("shuffle"))
        npt.assert_array_equal(a[0], b[0])
        npt.assert_array_equal(a[1], b[1])

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            tr.split(np.zeros((0, 1, 2, 2)), 0.2, Rng(0).stream("shuffle"))

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError, match="validation_fraction"):
            tr.split(np.zeros((4, 1, 2, 2)), 1.0, Rng(0).stream("shuffle"))


class TestLoss:
    def test_matches_scalar_oracle(self):
        net = tiny_model(seed=3)
        gen = np.random.default_rng(8)
        x = T.Tensor(gen.uniform(0, 1, (2, 1, 8, 8)).astype(np.float32))
        got = float(tr.loss(net, x).data)
        out = net.forward(x).data
        se = 0.0
        for a, b in zip(out.ravel().tolist(), x.data.ravel().tolist()):
            se += (a - b) ** 2
        assert abs(got - se / out.size) < 1e-6


class TestSgdStep:
    @staticmethod
    def set_grads(net, grads):
        for k, p in net.parameters.items():
            p.grad = grads[k]

    def test_single_parameter_update(self):
        net = tiny_model()
        p = net.parameters["enc0_conv1_w"]
        p.data[...] = 1.0
        grads = {k: np.zeros_like(q.data) for k, q in net.parameters.items()}
        grads["enc0_conv1_w"] = np.full_like(p.data, 0.5)
        self.set_grads(net, grads)
        tr.sgd_step(net, 0.01)
        npt.assert_allclose(p.data, 0.995)

    def test_zero_lr_is_identity(self):
        net = tiny_model(seed=4)
        before = {k: p.data.copy() for k, p in net.parameters.items()}
        self.set_grads(net, {k: np.ones_like(p.data) for k, p in net.parameters.items()})
        tr.sgd_step(net, 0.0)
        for k, p in net.parameters.items():
            npt.assert_array_equal(p.data, before[k])

    def test_missing_gradient_names_parameter(self):
        net = tiny_model()
        before = {k: p.data.copy() for k, p in net.parameters.items()}
        self.set_grads(net, {k: np.ones_like(p.data) for k, p in net.parameters.items()})
        net.parameters["out_w"].grad = None
        with pytest.raises(ValueError, match="out_w"):
            tr.sgd_step(net, 0.1)
        for k, p in net.parameters.items():  # no parameter was updated
            npt.assert_array_equal(p.data, before[k])

    def test_two_steps_equal_one_summed_step(self):
        a = tiny_model(seed=7)
        b = tiny_model(seed=7)
        gen = np.random.default_rng(2)
        g1 = {k: gen.normal(size=p.data.shape).astype(np.float32)
              for k, p in a.parameters.items()}
        g2 = {k: gen.normal(size=p.data.shape).astype(np.float32)
              for k, p in a.parameters.items()}
        self.set_grads(a, g1)
        tr.sgd_step(a, 0.01)
        self.set_grads(a, g2)
        tr.sgd_step(a, 0.01)
        self.set_grads(b, {k: g1[k] + g2[k] for k in g1})
        tr.sgd_step(b, 0.01)
        for k in a.parameters:
            npt.assert_allclose(a.parameters[k].data, b.parameters[k].data,
                                rtol=0, atol=1e-6)

    def test_step_without_backward_names_parameter(self):
        net = tiny_model()
        with pytest.raises(ValueError, match="enc0_conv1_w"):
            tr.sgd_step(net, 0.01)


class TestScheduleUpdate:
    def cfg(self, **kw):
        return tr.TrainingConfig(**kw)

    def test_ten_flat_epochs_decay_once(self):
        config = self.cfg()
        state = tr.SchedulerState(current_lr=0.01, best_val_loss=1.0)
        for _ in range(10):
            state = tr.schedule_update(state, 1.0, config)
        assert state.current_lr == pytest.approx(0.001)
        assert state.reductions_applied == 1

    def test_twenty_flat_epochs_decay_twice(self):
        config = self.cfg()
        state = tr.SchedulerState(current_lr=0.01, best_val_loss=1.0)
        for _ in range(20):
            state = tr.schedule_update(state, 1.0, config)
        assert state.current_lr == pytest.approx(1e-4)
        assert state.reductions_applied == 2

    def test_improving_every_epoch_keeps_lr(self):
        config = self.cfg()
        state = tr.SchedulerState(current_lr=0.01)
        for k in range(25):
            state = tr.schedule_update(state, 1.0 - 0.01 * k, config)
        assert state.current_lr == 0.01
        assert state.reductions_applied == 0

    def test_lr_is_exact_power_under_random_losses(self):
        config = self.cfg()
        gen = np.random.default_rng(11)
        state = tr.SchedulerState(current_lr=config.learning_rate)
        for _ in range(200):
            state = tr.schedule_update(state, float(gen.uniform(0.4, 0.6)), config)
            expect = config.learning_rate * config.decay_rate ** state.reductions_applied
            assert state.current_lr == expect

    def test_sub_tolerance_improvement_does_not_reset(self):
        config = self.cfg(patience=2)
        state = tr.SchedulerState(current_lr=0.01, best_val_loss=1.0)
        state = tr.schedule_update(state, 1.0 - 5e-7, config)
        assert state.epochs_since_improvement == 1

    def test_non_finite_loss_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            tr.schedule_update(tr.SchedulerState(current_lr=0.01),
                               float("nan"), self.cfg())


class TestTrain:
    def test_loss_decreases_on_smooth_fixture(self):
        net = tiny_model(dropout=0.0, seed=1)
        data = smooth_stack(8, 8, seed=6)
        config = tr.TrainingConfig(learning_rate=0.1, epochs=40, batch_size=4,
                                   validation_fraction=0.0, seed=2)
        _, report = tr.train(net, data, config)
        losses = [r.train_loss for r in report.records]
        assert np.mean(losses[-10:]) < np.mean(losses[:10])

    def test_one_step_decreases_loss_at_small_lr(self):
        net = tiny_model(dropout=0.0, seed=5)
        data = smooth_stack(2, 8, seed=9)
        xb = T.Tensor(data)
        before = tr.loss(net, xb)
        net.zero_grad()
        T.backward(before)
        tr.sgd_step(net, 1e-4)
        after = tr.loss(net, xb)
        assert float(after.data) < float(before.data)

    def test_zero_epochs_leaves_model_unchanged(self):
        net = tiny_model(seed=8)
        before = {k: p.data.copy() for k, p in net.parameters.items()}
        _, report = tr.train(net, smooth_stack(4, 8, seed=1),
                             tr.TrainingConfig(epochs=0, validation_fraction=0.0))
        assert report.records == []
        for k, p in net.parameters.items():
            npt.assert_array_equal(p.data, before[k])

    def test_identical_runs_identical_traces(self):
        data = smooth_stack(6, 8, seed=3)
        config = tr.TrainingConfig(learning_rate=0.05, epochs=5, batch_size=2,
                                   validation_fraction=0.25, seed=13)
        _, rep_a = tr.train(tiny_model(dropout=0.5, seed=2), data, config)
        _, rep_b = tr.train(tiny_model(dropout=0.5, seed=2), data, config)
        assert rep_a.records == rep_b.records

    def test_nan_loss_aborts_with_location(self):
        net = tiny_model(seed=0)
        net.parameters["enc0_conv1_w"].data[...] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(RuntimeError, match="epoch 1, batch 1"):
                tr.train(net, smooth_stack(4, 8, seed=2),
                         tr.TrainingConfig(epochs=1, validation_fraction=0.0))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            tr.train(tiny_model(), np.zeros((0, 1, 8, 8), dtype=np.float32),
                     tr.TrainingConfig())

    def test_lr_column_non_increasing_and_exact_power(self):
        net = tiny_model(dropout=0.0, seed=6)
        config = tr.TrainingConfig(learning_rate=0.05, epochs=25, batch_size=4,
                                   patience=3, validation_fraction=0.25, seed=4)
        _, report = tr.train(net, smooth_stack(8, 8, seed=5), config)
        lrs = [r.lr for r in report.records]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
        for lr in lrs:
            r = round(math.log(lr / config.learning_rate, config.decay_rate))
            assert lr == config.learning_rate * config.decay_rate ** r

    def test_best_checkpoint_saved_and_loadable(self, tmp_path):
        net = tiny_model(dropout=0.0, seed=9)
        path = str(tmp_path / "best.catu")
        config = tr.TrainingConfig(learning_rate=0.05, epochs=6, batch_size=4,
                                   validation_fraction=0.25, seed=3)
        _, report = tr.train(net, smooth_stack(8, 8, seed=7), config,
                             checkpoint_path=path)
        assert (tmp_path / "best.catu").exists()
        assert report.best_epoch is not None
        assert report.best_val_loss == min(r.val_loss for r in report.records)
        loaded = load_checkpoint(path)
        assert loaded.config == net.config

    def test_replayed_split_recovers_validation_set(self):
        # The acceptance gates and the benchmark recover train()'s validation
        # set by replaying the first draw of the shuffle stream on indices.
        data = smooth_stack(8, 8, seed=7)
        config = tr.TrainingConfig(learning_rate=0.05, epochs=2, batch_size=4,
                                   validation_fraction=0.25, seed=3)
        net, report = tr.train(tiny_model(dropout=0.5, seed=9), data, config)
        train_idx, val_idx = tr.split(np.arange(len(data)), config.validation_fraction,
                                      Rng(config.seed).stream("shuffle"))
        val_loss = report.records[-1].val_loss
        assert tr.evaluate_mse(net, data[val_idx], config.batch_size) == val_loss
        other = train_idx[: len(val_idx)]
        assert tr.evaluate_mse(net, data[other], config.batch_size) != val_loss

    def test_csv_report_shape(self, tmp_path):
        net = tiny_model(dropout=0.0, seed=1)
        _, report = tr.train(net, smooth_stack(4, 8, seed=1),
                             tr.TrainingConfig(epochs=3, validation_fraction=0.0))
        out = tmp_path / "report.csv"
        report.to_csv(str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,lr"
        assert len(lines) == 4
        assert lines[1].startswith("1,")

    def test_invalid_config_reports_all_problems(self):
        with pytest.raises(ValueError) as err:
            tr.TrainingConfig(decay_rate=1.5, patience=0, batch_size=0)
        msg = str(err.value)
        assert "decay_rate" in msg and "patience" in msg and "batch_size" in msg

    @pytest.mark.parametrize("key, value", [
        ("epochs", 2.5), ("batch_size", 2.0), ("epochs", True), ("seed", True),
        ("patience", 3.0), ("learning_rate", True), ("decay_rate", "0.1"),
        ("validation_fraction", False)])
    def test_bool_or_non_number_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            tr.TrainingConfig(**{key: value})

    @pytest.mark.parametrize("fraction, inference_calls", [(0.25, 3), (0.0, 0)])
    def test_runs_no_forward_its_outputs_do_not_need(self, monkeypatch, fraction,
                                                     inference_calls):
        # per epoch: a training forward per train batch (6 samples or 8 at
        # batch 4: 2) and an inference forward per validation batch (2
        # samples: 1, or none)
        modes = []
        forward = CatUNetModel.forward

        def spy(self, batch, training=False, **kw):
            modes.append(training)
            return forward(self, batch, training=training, **kw)

        monkeypatch.setattr(CatUNetModel, "forward", spy)
        tr.train(tiny_model(seed=2), smooth_stack(8, 8, seed=2),
                 tr.TrainingConfig(epochs=3, batch_size=4, validation_fraction=fraction))
        assert modes.count(True) == 6
        assert modes.count(False) == inference_calls
