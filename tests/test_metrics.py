"""Reconstruction accuracy, Dice, and confusion-matrix arithmetic."""

import json
import logging

import numpy as np
import pytest

from catunet import metrics as mx


class TestReconstructionAccuracy:
    """Input is one MSE per image on the normalized [0,1] scale."""

    def test_perfect_pairs_give_one(self):
        assert mx.reconstruction_accuracy([0.0, 0.0, 0.0]) == 1.0

    def test_uniform_mse_002_gives_098(self):
        assert mx.reconstruction_accuracy([0.02] * 4) == pytest.approx(0.98)

    def test_matches_scalar_oracle(self):
        gen = np.random.default_rng(2)
        imgs = [gen.uniform(0, 1, (5, 7)) for _ in range(3)]
        recs = [gen.uniform(0, 1, (5, 7)) for _ in range(3)]
        mses = []
        for a, b in zip(imgs, recs):
            se = 0.0
            for x, y in zip(a.ravel().tolist(), b.ravel().tolist()):
                se += (x - y) ** 2
            mses.append(se / a.size)
        ref = 1.0 - sum(mses) / 3
        got = mx.reconstruction_accuracy(np.mean((np.stack(imgs) - np.stack(recs)) ** 2,
                                                  axis=(1, 2)))
        assert abs(got - max(ref, 0.0)) < 1e-12

    def test_negative_clamped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="catunet.metrics"):
            assert mx.reconstruction_accuracy([4.0]) == 0.0  # raw accuracy -3
        assert any("clamping" in r.message for r in caplog.records)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            mx.reconstruction_accuracy([])

    @pytest.mark.parametrize("mses", [[0.1, np.nan], [np.inf], [0.1, -np.inf]])
    def test_non_finite_rejected(self, mses):
        with pytest.raises(ValueError, match="MSEs must be finite"):
            mx.reconstruction_accuracy(mses)

    def test_perturbation_strictly_decreases(self):
        mses = [0.001, 0.002]
        base = mx.reconstruction_accuracy(mses)
        mses[1] += 1e-4
        assert mx.reconstruction_accuracy(mses) < base


class TestDice:
    def test_identical_nonempty_is_one(self):
        m = np.zeros((6, 6), dtype=np.uint8)
        m[2:4, 2:4] = 1
        assert mx.dice(m, m) == 1.0

    def test_disjoint_is_zero(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        b = np.zeros((4, 4), dtype=np.uint8)
        a[:2] = 1
        b[2:] = 1
        assert mx.dice(a, b) == 0.0

    def test_half_overlap(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        b = np.zeros((4, 4), dtype=np.uint8)
        a[0, :4] = 1          # |X| = 4
        b[0, 2:] = 1          # overlap 2
        b[1, :2] = 1          # |Y| = 4
        assert mx.dice(a, b) == 0.5

    def test_both_empty_is_one(self):
        z = np.zeros((3, 3), dtype=np.uint8)
        assert mx.dice(z, z) == 1.0

    def test_symmetry_and_range(self):
        gen = np.random.default_rng(3)
        for _ in range(20):
            a = (gen.uniform(size=(8, 8)) > 0.6).astype(np.uint8)
            b = (gen.uniform(size=(8, 8)) > 0.6).astype(np.uint8)
            d1, d2 = mx.dice(a, b), mx.dice(b, a)
            assert d1 == d2
            assert 0.0 <= d1 <= 1.0

    def test_non_binary_rejected(self):
        a = np.zeros((3, 3))
        b = np.full((3, 3), 0.5)
        with pytest.raises(ValueError, match="binary"):
            mx.dice(a, b)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            mx.dice(np.zeros((2, 2)), np.zeros((3, 3)))


class TestConfusion:
    def test_all_correct(self):
        labels = ["Positive"] * 3 + ["Negative"] * 2
        cm = mx.confusion(labels, labels)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (3, 0, 2, 0)
        assert cm.accuracy == 1.0

    def test_97_of_99_positive_cases(self):
        actual = ["Positive"] * 99
        predicted = ["Positive"] * 97 + ["Negative"] * 2
        cm = mx.confusion(predicted, actual)
        assert cm.sensitivity == pytest.approx(97 / 99)
        assert cm.fn == 2

    def test_hand_counted_fixture(self):
        predicted = ["Positive", "Positive", "Negative", "Negative", "Positive",
                     "Negative", "Positive", "Negative", "Positive", "Negative"]
        actual = ["Positive", "Negative", "Positive", "Negative", "Positive",
                  "Negative", "Negative", "Positive", "Positive", "Negative"]
        cm = mx.confusion(predicted, actual)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (3, 2, 3, 2)
        assert cm.accuracy == pytest.approx(0.6)

    def test_permutation_invariant(self):
        gen = np.random.default_rng(5)
        predicted = ["Positive" if v > 0.5 else "Negative" for v in gen.uniform(size=30)]
        actual = ["Positive" if v > 0.4 else "Negative" for v in gen.uniform(size=30)]
        base = mx.confusion(predicted, actual)
        order = gen.permutation(30)
        shuffled = mx.confusion([predicted[i] for i in order],
                                [actual[i] for i in order])
        assert base == shuffled

    def test_zero_denominator_is_none_not_zero(self):
        cm = mx.confusion(["Positive", "Positive"], ["Positive", "Positive"])
        assert cm.specificity is None
        assert cm.sensitivity == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="predictions"):
            mx.confusion(["Positive"], ["Positive", "Negative"])

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="labels must be"):
            mx.confusion(["maybe"], ["Positive"])


class TestMetricsReport:
    def test_flat_json_and_csv(self, tmp_path):
        cm = mx.confusion(["Positive", "Negative", "Positive"],
                          ["Positive", "Negative", "Negative"])
        report = mx.MetricsReport(reconstruction_accuracy=0.97, dice=0.81,
                                  confusion=cm)
        payload = json.loads(report.to_json())
        assert payload["tp"] == 1 and payload["fp"] == 1
        assert payload["dice"] == 0.81
        assert payload["sensitivity"] == 1.0

        json_path = tmp_path / "metrics.json"
        report.write_json(str(json_path))
        assert json.loads(json_path.read_text()) == payload

        csv_path = tmp_path / "confusion.csv"
        cm.to_csv(str(csv_path))
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ",predicted_positive,predicted_negative"
        assert lines[1] == "actual_positive,1,0"
        assert lines[2] == "actual_negative,1,1"

    def test_json_is_deterministic(self):
        cm = mx.ConfusionMatrix(tp=5, fp=1, tn=4, fn=0)
        a = mx.MetricsReport(0.9, 0.7, cm).to_json()
        b = mx.MetricsReport(0.9, 0.7, cm).to_json()
        assert a == b
