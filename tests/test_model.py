"""Network construction, wiring, forward shape law, and checkpoint format."""

import json
import os
import struct
import weakref

import numpy as np
import numpy.testing as npt
import pytest

from catunet import artifacts
from catunet import model as model_module
from catunet import tensor as T
from catunet.model import (CatUNetConfig, CheckpointError, build, feature_norm,
                           load_checkpoint, parameter_count, save_checkpoint)
from catunet.rng import Rng

from oracles import l2_norm_loops


def small_cfg(**kw):
    defaults = dict(input_channels=1, input_size=16, depth=2, base_channels=4)
    defaults.update(kw)
    return CatUNetConfig(**defaults)


class TestConfig:
    def test_channel_ladder(self):
        cfg = CatUNetConfig(input_size=64, depth=3, base_channels=16)
        assert cfg.encoder_channels() == [16, 32, 64]

    def test_invalid_size_lists_violation(self):
        with pytest.raises(ValueError, match="multiple of 2\\^depth"):
            CatUNetConfig(input_size=100, depth=3)

    def test_invalid_depth(self):
        with pytest.raises(ValueError, match="depth"):
            CatUNetConfig(depth=0, input_size=64)

    @pytest.mark.parametrize("key, value", [("base_channels", True), ("depth", True),
                                            ("dropout_rate", False), ("dropout_rate", "0.5")])
    def test_bool_or_non_number_rejected(self, key, value):
        with pytest.raises(ValueError, match=key):
            small_cfg(**{key: value})

    def test_json_roundtrip(self):
        cfg = small_cfg(dropout_rate=0.25)
        assert CatUNetConfig.from_json(cfg.to_json()) == cfg


class TestBuild:
    def test_same_seed_bit_identical(self):
        a = build(small_cfg(), Rng(42))
        b = build(small_cfg(), Rng(42))
        assert a.parameters.keys() == b.parameters.keys()
        for k in a.parameters:
            npt.assert_array_equal(a.parameters[k].data, b.parameters[k].data)

    def test_different_seed_differs(self):
        a = build(small_cfg(), Rng(1))
        b = build(small_cfg(), Rng(2))
        assert any((a.parameters[k].data != b.parameters[k].data).any()
                   for k in a.parameters if k.endswith("_w"))

    def test_biases_zero(self):
        net = build(small_cfg(), Rng(0))
        for k, p in net.parameters.items():
            if k.endswith("_b"):
                assert not p.data.any()

    def test_parameter_count_matches_formula(self):
        for cfg in (small_cfg(), CatUNetConfig(input_size=64, depth=3, base_channels=16)):
            net = build(cfg, Rng(0))
            assert sum(p.data.size for p in net.parameters.values()) == parameter_count(cfg)

    def test_minimal_depth_one_net(self):
        cfg = CatUNetConfig(input_channels=1, input_size=2, depth=1, base_channels=1)
        net = build(cfg, Rng(0))
        out = net.forward(T.Tensor(np.ones((1, 1, 2, 2), dtype=np.float32)))
        assert out.shape == (1, 1, 2, 2)


class TestForward:
    def test_shape_preserved_depth3(self):
        cfg = CatUNetConfig(input_channels=1, input_size=64, depth=3, base_channels=4)
        net = build(cfg, Rng(0))
        x = T.Tensor(np.random.default_rng(0).uniform(0, 1, (2, 1, 64, 64)).astype(np.float32))
        assert net.forward(x).shape == (2, 1, 64, 64)

    def test_concat_channels_add_exactly(self):
        # each decoder conv sees the upsampled level below, then its skip
        cfg = small_cfg()
        net = build(cfg, Rng(0))
        x = T.Tensor(np.random.default_rng(1).uniform(0, 1, (1, 1, 16, 16)).astype(np.float32))
        _, feats = net.forward(x, return_features=True)
        enc = cfg.encoder_channels()
        up = cfg.bottleneck_channels()
        assert len(feats) == cfg.depth
        for k, (low, skip) in enumerate(feats, start=1):
            partner = enc[cfg.depth - k]
            assert (low.shape[1], skip.shape[1]) == (up, partner)
            assert low.shape[1] + skip.shape[1] == net.parameters[f"dec{k}_w"].shape[1]
            assert skip.shape[2:] == (2 * low.shape[2], 2 * low.shape[3])
            up = partner

    def test_inference_deterministic(self):
        net = build(small_cfg(), Rng(3))
        x = T.Tensor(np.random.default_rng(2).uniform(0, 1, (2, 1, 16, 16)).astype(np.float32))
        npt.assert_array_equal(net.forward(x, training=False).data,
                               net.forward(x, training=False).data)

    def test_batch_of_8_equals_each_solo_forward_bit_for_bit(self):
        # the reference config (48 px, depth 2, base 6): its decoder's phase
        # GEMMs have inner dimensions 97 and 49, where OpenBLAS's SkylakeX
        # kernels sum a ragged last 16 columns in another order
        cfg = CatUNetConfig(input_channels=1, input_size=48, depth=2, base_channels=6)
        net = build(cfg, Rng(3))
        x = np.random.default_rng(4).uniform(0, 1, (8, 1, 48, 48)).astype(np.float32)
        with T.no_grad():
            batch = net.forward(T.Tensor(x)).data
            for i in range(len(x)):
                npt.assert_array_equal(batch[i:i + 1], net.forward(T.Tensor(x[i:i + 1])).data,
                                       err_msg=f"image {i}")

    def test_inference_frees_each_skip_once_its_level_ran(self, monkeypatch):
        net = build(small_cfg(depth=3), Rng(0))
        skips, alive_at_out = [], []
        fused, conv = T.up_concat_conv2d, T.conv2d

        def fused_spy(x_low, skip, w, b, **kwargs):
            skips.append(weakref.ref(skip.data))
            return fused(x_low, skip, w, b, **kwargs)

        def conv_spy(x, w, *args, **kwargs):
            if w.name == "out_w":
                alive_at_out.extend(ref() is not None for ref in skips)
            return conv(x, w, *args, **kwargs)

        monkeypatch.setattr(T, "up_concat_conv2d", fused_spy)
        monkeypatch.setattr(T, "conv2d", conv_spy)
        x = T.Tensor(np.random.default_rng(1).uniform(0, 1, (1, 1, 16, 16)).astype(np.float32))
        with T.no_grad():
            net.forward(x)
        assert alive_at_out == [False] * 3

    def test_training_dropout_changes_output_and_needs_rng(self):
        net = build(small_cfg(dropout_rate=0.5), Rng(3))
        x = T.Tensor(np.random.default_rng(2).uniform(0, 1, (1, 1, 16, 16)).astype(np.float32))
        with pytest.raises(ValueError, match="dropout_rng"):
            net.forward(x, training=True)
        out = net.forward(x, training=True, dropout_rng=Rng(5).stream("dropout"))
        assert (out.data != net.forward(x).data).any()

    def test_wrong_spatial_size_names_expectation(self):
        net = build(small_cfg(), Rng(0))
        with pytest.raises(T.ShapeError, match="model expects 1x16x16"):
            net.forward(T.Tensor(np.zeros((1, 1, 8, 8), dtype=np.float32)))

    def test_shape_law_over_random_configs(self):
        gen = np.random.default_rng(9)
        for _ in range(8):
            depth = int(gen.integers(1, 4))
            size = int(2 ** depth * gen.integers(1, 4))
            cfg = CatUNetConfig(input_channels=int(gen.integers(1, 3)), input_size=size,
                                depth=depth, base_channels=int(gen.integers(1, 5)))
            net = build(cfg, Rng(int(gen.integers(0, 100))))
            n = int(gen.integers(1, 3))
            x = T.Tensor(gen.uniform(0, 1, (n, cfg.input_channels, size, size)).astype(np.float32))
            out = net.forward(x)
            assert out.shape == x.shape


def unfused_forward(net, batch):
    """The network with each decoder level run as the unfused composition
    conv2d(concat_channels(upsample_nearest(x), skip)) of the kept
    primitives; no dropout."""
    depth = net.config.depth
    p = net.parameters
    x, skips = batch, []
    for i in range(depth):
        for j in (1, 2):
            x = T.relu(T.conv2d(x, p[f"enc{i}_conv{j}_w"], p[f"enc{i}_conv{j}_b"], padding=1))
        skips.append(x)
        x, _ = T.maxpool2d(x)
    x = T.relu(T.conv2d(x, p["bottleneck_w"], p["bottleneck_b"], padding=1))
    for k in range(1, depth + 1):
        x = T.concat_channels(T.upsample_nearest(x), skips[depth - k])
        x = T.relu(T.conv2d(x, p[f"dec{k}_w"], p[f"dec{k}_b"], padding=1))
    return T.conv2d(x, p["out_w"], p["out_b"])


class TestFusedDecoder:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_forward_and_gradients_match_unfused_decoder(self, depth):
        # float64, so only summation order separates the two; a wrong
        # dec{k}_w slice order or phase mix-up is off by O(1)
        cfg = CatUNetConfig(input_channels=1, input_size=8 * 2 ** (depth - 1), depth=depth,
                            base_channels=2, dropout_rate=0.0)
        net = build(cfg, Rng(depth))
        gen = np.random.default_rng(depth)
        for p in net.parameters.values():
            p.data = gen.uniform(-0.5, 0.5, p.shape)
        size = cfg.input_size
        x = T.Tensor(gen.uniform(0, 1, (2, 1, size, size)))
        target = T.Tensor(gen.uniform(0, 1, (2, 1, size, size)))

        def run(forward):
            net.zero_grad()
            out = forward(x)
            T.backward(T.mse(out, target))
            return out.data, {k: p.grad.copy() for k, p in net.parameters.items()}

        fused, fused_grads = run(net.forward)
        ref, ref_grads = run(lambda b: unfused_forward(net, b))
        npt.assert_allclose(fused, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
        assert fused_grads.keys() == ref_grads.keys()
        for k, want in ref_grads.items():
            npt.assert_allclose(fused_grads[k], want, rtol=1e-10,
                                atol=1e-12 * max(np.abs(want).max(), 1e-300), err_msg=k)


def composed_forward(net, batch, dropout_rng):
    """The training forward with each hidden conv followed by its own
    `T.relu` node, the composition the fused epilogue replaces."""
    depth = net.config.depth
    p = net.parameters

    def conv(name, x, padding=1):
        return T.conv2d(x, p[f"{name}_w"], p[f"{name}_b"], padding=padding)

    x, skips = batch, []
    for i in range(depth):
        x = T.relu(conv(f"enc{i}_conv2", T.relu(conv(f"enc{i}_conv1", x))))
        skips.append(x)
        x, _ = T.maxpool2d(x)
    x = T.relu(conv("bottleneck", x))
    for k in range(1, depth + 1):
        x = T.relu(T.up_concat_conv2d(x, skips.pop(), p[f"dec{k}_w"], p[f"dec{k}_b"]))
        x = T.dropout(x, net.config.dropout_rate, dropout_rng)
    return conv("out", x, 0)


class TestFusedRelu:
    def test_training_step_matches_composed_relu_bit_for_bit(self):
        cfg = CatUNetConfig(input_channels=1, input_size=16, depth=3, base_channels=4,
                            dropout_rate=0.5)
        net = build(cfg, Rng(7))
        gen = np.random.default_rng(7)
        x = T.Tensor(gen.uniform(0, 1, (2, 1, 16, 16)).astype(np.float32))

        def run(forward):
            net.zero_grad()
            loss = T.mse(forward(x, Rng(8).stream("dropout")), x)
            T.backward(loss)
            return loss.data, {k: p.grad for k, p in net.parameters.items()}

        loss, grads = run(lambda b, rng: net.forward(b, training=True, dropout_rng=rng))
        ref_loss, ref_grads = run(lambda b, rng: composed_forward(net, b, rng))
        assert loss.tobytes() == ref_loss.tobytes()
        assert grads.keys() == ref_grads.keys()
        for k, want in ref_grads.items():
            assert grads[k].dtype == want.dtype == np.float32, k
            assert grads[k].tobytes() == want.tobytes(), k

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_training_graph_holds_one_map_per_layer(self, depth):
        # per level: two convs and a pool down, a conv and a dropout up;
        # plus the bottleneck and the output conv. No ReLU node.
        cfg = CatUNetConfig(input_channels=1, input_size=2 ** (depth + 1), depth=depth,
                            base_channels=2, dropout_rate=0.5)
        net = build(cfg, Rng(0))
        size = cfg.input_size
        x = T.Tensor(np.random.default_rng(0).uniform(0, 1, (1, 1, size, size)).astype(np.float32))
        loss = T.mse(net.forward(x, training=True, dropout_rng=Rng(1).stream("dropout")), x)
        maps = [t for t in T.topo_order(loss) if t._parents and t.data.ndim == 4]
        assert len(maps) == 5 * depth + 2


class TestFeatureNorm:
    def test_zeroed_parameters_give_zero_norms(self):
        net = build(small_cfg(), Rng(0))
        for p in net.parameters.values():
            p.data[...] = 0.0
        x = T.Tensor(np.random.default_rng(0).uniform(0, 1, (1, 1, 16, 16)).astype(np.float32))
        assert feature_norm(net, x) == [0.0, 0.0]

    def test_norms_finite_nonnegative(self):
        net = build(small_cfg(), Rng(1))
        x = T.Tensor(np.random.default_rng(4).uniform(0, 1, (2, 1, 16, 16)).astype(np.float32))
        norms = feature_norm(net, x)
        assert len(norms) == 2
        assert all(np.isfinite(n) and n >= 0 for n in norms)

    def test_matches_scalar_loop_norm(self):
        # the reference builds the concatenated map the probe never builds
        net = build(small_cfg(), Rng(2))
        x = T.Tensor(np.random.default_rng(5).uniform(0, 1, (1, 1, 16, 16)).astype(np.float32))
        _, feats = net.forward(x, return_features=True)
        norms = feature_norm(net, x)
        assert len(norms) == len(feats)
        for n, (low, skip) in zip(norms, feats):
            ref = l2_norm_loops(T.concat_channels(T.upsample_nearest(low), skip).data)
            assert abs(n - ref) <= 1e-5 * max(ref, 1e-12)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        net = build(small_cfg(), Rng(11))
        path = str(tmp_path / "m.catu")
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert loaded.config == net.config
        for k in net.parameters:
            npt.assert_array_equal(loaded.parameters[k].data, net.parameters[k].data)
        x = T.Tensor(np.random.default_rng(3).uniform(0, 1, (1, 1, 16, 16)).astype(np.float32))
        npt.assert_array_equal(net.forward(x).data, loaded.forward(x).data)

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "m.catu"
        save_checkpoint(build(small_cfg(), Rng(1)), str(path))
        before = path.read_bytes()

        class FullDisk:
            """A file that takes half of what it is given, then fails."""
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                self.f.write(data[:len(data) // 2])
                self.f.flush()
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(artifacts, "open", lambda name, mode: FullDisk(open(name, mode)),
                            raising=False)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(build(small_cfg(), Rng(2)), str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["m.catu"]

    def test_load_does_not_build(self, tmp_path, monkeypatch):
        # the file's arrays become the parameters; nothing is initialized
        # only to be overwritten
        net = build(small_cfg(), Rng(11))
        path = str(tmp_path / "m.catu")
        save_checkpoint(net, path)

        def no_build(*args, **kwargs):
            raise AssertionError("load_checkpoint called build")

        monkeypatch.setattr(model_module, "build", no_build)
        loaded = load_checkpoint(path)
        assert list(loaded.parameters) == list(net.parameters)
        for k, p in net.parameters.items():
            q = loaded.parameters[k]
            assert q.data.dtype == np.float32 and q.requires_grad and q.name == k
            npt.assert_array_equal(q.data, p.data)

    def test_duplicate_parameter_raises_load_error(self, tmp_path):
        net = build(small_cfg(), Rng(0))
        path = str(tmp_path / "m.catu")
        save_checkpoint(net, path)
        raw = open(path, "rb").read()
        # same length and shape, so only the repeated name betrays it
        assert net.parameters["enc0_conv2_b"].shape == net.parameters["enc0_conv1_b"].shape
        open(path, "wb").write(raw.replace(b"enc0_conv2_b", b"enc0_conv1_b"))
        with pytest.raises(CheckpointError, match="twice"):
            load_checkpoint(path)

    def test_huge_config_header_raises_load_error(self, tmp_path):
        # the header's config alone must not allocate the parameters it
        # implies: the file's own arrays disagree with it first
        net = build(small_cfg(), Rng(0))
        path = str(tmp_path / "m.catu")
        save_checkpoint(net, path)
        raw = open(path, "rb").read()
        (cfg_len,) = struct.unpack("<I", raw[8:12])
        cfg = small_cfg(base_channels=10 ** 9).to_json().encode("utf-8")
        open(path, "wb").write(raw[:8] + struct.pack("<I", len(cfg)) + cfg + raw[12 + cfg_len:])
        with pytest.raises(CheckpointError, match="config implies"):
            load_checkpoint(path)

    @staticmethod
    def _save_with_header_key(path, key, value):
        """Save a small model whose header carries one extra key."""
        net = build(small_cfg(), Rng(0))
        save_checkpoint(net, path)
        raw = open(path, "rb").read()
        (cfg_len,) = struct.unpack("<I", raw[8:12])
        fields = dict(json.loads(raw[12:12 + cfg_len]), **{key: value})
        cfg = json.dumps(fields, sort_keys=True, separators=(",", ":")).encode("utf-8")
        open(path, "wb").write(raw[:8] + struct.pack("<I", len(cfg)) + cfg + raw[12 + cfg_len:])
        return net

    def test_legacy_output_channels_equal_to_input_loads(self, tmp_path):
        path = str(tmp_path / "m.catu")
        net = self._save_with_header_key(path, "output_channels", 1)
        assert load_checkpoint(path).config == net.config

    def test_output_channels_other_than_input_raises_load_error(self, tmp_path):
        path = str(tmp_path / "m.catu")
        self._save_with_header_key(path, "output_channels", 2)
        with pytest.raises(CheckpointError, match="output_channels"):
            load_checkpoint(path)

    # older headers carry the architecture settings the code now fixes
    @pytest.mark.parametrize("key, value", [("kernel_size", 3), ("channel_growth", 2)])
    def test_legacy_fixed_key_at_code_value_loads(self, tmp_path, key, value):
        path = str(tmp_path / "m.catu")
        net = self._save_with_header_key(path, key, value)
        assert load_checkpoint(path).config == net.config

    @pytest.mark.parametrize("key, value", [("kernel_size", 5), ("kernel_size", 1),
                                            ("channel_growth", 1), ("channel_growth", 3)])
    def test_legacy_fixed_key_at_other_value_raises_load_error(self, tmp_path, key, value):
        path = str(tmp_path / "m.catu")
        self._save_with_header_key(path, key, value)
        with pytest.raises(CheckpointError, match=key):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value, match", [
        ("depth", 2.0, "depth must be an integer"),
        ("base_channels", "4", "base_channels must be an integer"),
        # would take 2^(10^9) before the size check
        ("depth", 10 ** 9, "multiple of 2\\^depth"),
    ])
    def test_config_of_wrong_type_or_range_raises_load_error(self, tmp_path, key, value, match):
        path = str(tmp_path / "m.catu")
        self._save_with_header_key(path, key, value)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)

    # each of these loaded on a 1-channel model as if it held the integer
    @pytest.mark.parametrize("key, value", [
        ("input_channels", True), ("dropout_rate", False), ("output_channels", True),
        ("kernel_size", 3.0), ("channel_growth", 2.0),
    ])
    def test_bool_or_float_in_place_of_an_integer_raises_load_error(self, tmp_path, key, value):
        path = str(tmp_path / "m.catu")
        self._save_with_header_key(path, key, value)
        with pytest.raises(CheckpointError, match=key):
            load_checkpoint(path)

    @staticmethod
    def _save_with_first_entry(path, entry):
        """Save a small model, then put `entry` where its parameter entries
        begin; the parameter count still matches the config."""
        save_checkpoint(build(small_cfg(), Rng(0)), path)
        raw = open(path, "rb").read()
        (cfg_len,) = struct.unpack("<I", raw[8:12])
        open(path, "wb").write(raw[:16 + cfg_len] + entry)

    def test_dims_whose_product_overflows_raise_load_error(self, tmp_path):
        # 65536^4 = 2^64 elements, which np.prod wraps to 0 in int64
        path = str(tmp_path / "m.catu")
        self._save_with_first_entry(
            path, struct.pack("<H", 12) + b"enc0_conv1_w" + struct.pack("<B4I", 4, *[65536] * 4))
        with pytest.raises(CheckpointError, match="config implies"):
            load_checkpoint(path)

    def test_name_that_is_not_utf8_raises_load_error(self, tmp_path):
        path = str(tmp_path / "m.catu")
        self._save_with_first_entry(
            path, struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<BI", 1, 4) + bytes(16))
        with pytest.raises(CheckpointError, match="unexpected parameter"):
            load_checkpoint(path)

    def test_reference_model_header_loads(self):
        # its header carries kernel_size, channel_growth and output_channels
        path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                            "reference", "model.catu")
        assert load_checkpoint(path).config == CatUNetConfig(
            input_channels=1, input_size=48, depth=2, base_channels=6, dropout_rate=0.5)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_raises_load_error(self, tmp_path, value):
        # a NaN weight would otherwise score NaN and label every image Negative
        net = build(small_cfg(), Rng(0))
        net.parameters["dec1_w"].data[0, 0, 1, 1] = value
        path = str(tmp_path / "m.catu")
        save_checkpoint(net, path)
        with pytest.raises(CheckpointError, match="'dec1_w'.*non-finite"):
            load_checkpoint(path)

    def test_corrupt_magic_raises_load_error(self, tmp_path):
        net = build(small_cfg(), Rng(0))
        path = str(tmp_path / "m.catu")
        save_checkpoint(net, path)
        raw = bytearray(open(path, "rb").read())
        raw[:4] = b"XXXX"
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncation_raises_load_error(self, tmp_path):
        net = build(small_cfg(), Rng(0))
        path = str(tmp_path / "m.catu")
        save_checkpoint(net, path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:len(raw) // 2])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_bad_version_raises(self, tmp_path):
        net = build(small_cfg(), Rng(0))
        path = str(tmp_path / "m.catu")
        save_checkpoint(net, path)
        raw = bytearray(open(path, "rb").read())
        raw[4] = 99
        open(path, "wb").write(bytes(raw))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_depth3_checkpoint_parameter_count(self, tmp_path):
        cfg = CatUNetConfig(input_channels=1, input_size=64, depth=3, base_channels=16)
        net = build(cfg, Rng(1))
        path = str(tmp_path / "m.catu")
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        assert sum(p.data.size for p in loaded.parameters.values()) == parameter_count(cfg)
