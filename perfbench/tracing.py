"""Outside-in tracer for the benchmark's `--trace 1` runs.

The tracer replaces public functions of the catunet modules with timing
wrappers, from the benchmark's side only: nothing under src/ knows it is
traced. Primitives are wrapped at the `catunet.tensor` attribute, which
is where model.py looks them up, and each Tensor a primitive returns has
its `_backward` closure wrapped so the backward pass is timed per op.
Names a consumer imported with `from .model import ...` are wrapped at
the consumer (`training.save_checkpoint`, `cli.load_checkpoint`, ...).

Spans (name, start, end, parent, layer) stay in memory and are reduced
to per-layer metrics when the run ends; a span's self time is its
duration minus that of its direct children. Counts (conv FLOPs and
operand bytes) are computed from operand shapes, not measured.
"""

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

# Union of conv layer names over the benchmarked depths (2 and 3), keyed
# by weight-name prefix; a layer a workload's model lacks reads 0.
CONV_LAYERS = ("enc0_conv1", "enc0_conv2", "enc1_conv1", "enc1_conv2",
               "enc2_conv1", "enc2_conv2", "bottleneck",
               "dec1", "dec2", "dec3", "out")
OPS = ("conv2d", "maxpool2d", "upsample_nearest", "concat_channels",
       "relu", "dropout", "mse")


def percentile(values, q):
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class Tracer:
    """Span recorder plus the module patches that feed it."""

    def __init__(self):
        self.spans = []          # (index, name, start, end, parent index, layer)
        self._stack = []         # [index, name, start, layer] of open spans
        self._next = 0
        self._patches = []
        self.enabled = False
        self.flops = defaultdict(int)        # layer -> conv FLOPs
        self.operand_bytes = defaultdict(int)  # layer -> conv operand bytes
        self._step_start = None
        self.step_s = []
        self.conv_in_steps_s = 0.0
        self.read_bytes = 0

    # -- spans -----------------------------------------------------------

    def _open(self, name, layer=None):
        self._stack.append([self._next, name, time.perf_counter(), layer])
        self._next += 1

    def _close(self):
        """Close the innermost span; returns its end time."""
        end = time.perf_counter()
        index, name, start, layer = self._stack.pop()
        parent = self._stack[-1][0] if self._stack else -1
        # finished spans are flat tuples, which the garbage collector
        # stops tracking, so a long trace does not slow collections
        self.spans.append((index, name, start, end, parent, layer))
        if self._step_start is not None and name.startswith("tensor.conv2d."):
            self.conv_in_steps_s += end - start
        return end

    @contextmanager
    def span(self, name):
        """Record one span around the block when tracing is enabled."""
        if not self.enabled:
            yield
            return
        self._open(name)
        try:
            yield
        finally:
            self._close()

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, name, after=None, name_of=None):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            tracer._open(*(name_of(args, kwargs) if name_of else (name, None)))
            try:
                result = original(*args, **kwargs)
            finally:
                end = tracer._close()
            if after is not None:
                after(end, args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _time_backward(self, out, name, layer, on_backward=None):
        closure = out._backward
        if closure is None:
            return

        def timed(g):
            self._open(name, layer)
            try:
                closure(g)
            finally:
                self._close()
            if on_backward is not None:
                on_backward(g)

        out._backward = timed

    def _after_primitive(self, op):
        def after(end, args, result):
            out = result[0] if op == "maxpool2d" else result
            self._time_backward(out, f"tensor.{op}.bwd", None)
        return after

    @staticmethod
    def _conv_span(args, kwargs):
        """Conv spans carry the layer name: the weight's name minus `_w`."""
        name = args[1].name or ""
        return "tensor.conv2d.fwd", name[:-2] if name.endswith("_w") else name

    def _after_conv(self, end, args, out):
        x, w, b = args[:3]
        layer = self._conv_span(args, None)[1]
        cout, cin, kh, kw = w.shape
        n, _, ho, wo = out.shape
        flops = 2 * n * ho * wo * cout * cin * kh * kw
        self.flops[layer] += flops
        self.operand_bytes[layer] += (x.data.nbytes + w.data.nbytes + b.data.nbytes
                                      + out.data.nbytes)

        def on_backward(g):
            # dW reads g and x, writes dW and db; dX reads g and w, writes dX
            moved = g.nbytes
            if w.requires_grad:
                self.flops[layer] += flops
                moved += x.data.nbytes + w.data.nbytes + b.data.nbytes
            if x.requires_grad:
                self.flops[layer] += flops
                moved += w.data.nbytes + x.data.nbytes
            self.operand_bytes[layer] += moved

        self._time_backward(out, "tensor.conv2d.bwd", layer, on_backward)

    def _forward_name(self, args, kwargs):
        training = kwargs.get("training", args[2] if len(args) > 2 else False)
        if training:
            self._step_start = time.perf_counter()
            return "model.forward.train", None
        return "model.forward.infer", None

    def _after_sgd_step(self, end, args, result):
        if self._step_start is not None:
            self.step_s.append(end - self._step_start)
            self._step_start = None

    def _after_read_pgm(self, end, args, raster):
        self.read_bytes += raster.nbytes

    def install(self):
        """Wrap the public functions of every catunet module."""
        from catunet import cli, data_io, diagnosis, metrics, model, tensor, training

        for op in OPS:
            if op == "conv2d":
                self._patch(tensor, op, None, self._after_conv, name_of=self._conv_span)
            else:
                self._patch(tensor, op, f"tensor.{op}.fwd", self._after_primitive(op))
        self._patch(tensor, "backward", "tensor.backward")
        self._patch(model.CatUNetModel, "forward", None, name_of=self._forward_name)
        self._patch(model, "build", "model.build")
        for owner in (training, cli):
            self._patch(owner, "save_checkpoint", "model.save_checkpoint")
        self._patch(cli, "load_checkpoint", "model.load_checkpoint")
        self._patch(cli, "build", "model.build")
        self._patch(cli, "train", "training.train")
        self._patch(training, "feature_norm", "training.feature_norm")
        self._patch(training, "evaluate_mse", "training.evaluate_mse")
        self._patch(training, "sgd_step", "training.sgd_step", self._after_sgd_step)
        for fn in ("reconstruct", "score_from_pair", "error_mask", "classify"):
            self._patch(diagnosis, fn, f"diagnosis.{fn}")
        for fn in ("dice", "reconstruction_accuracy", "confusion"):
            self._patch(metrics, fn, f"metrics.{fn}")
        for fn in ("load_dataset", "preprocess", "write_pgm"):
            self._patch(data_io, fn, f"data_io.{fn}")
        self._patch(data_io, "read_pgm", "data_io.read_pgm", self._after_read_pgm)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction ---------------------------------------------------------

    def per_layer(self, units):
        """Per-layer metrics over the traced work.

        `units` is the number of work units traced (training steps or
        scored images); times and counts are per unit unless the name
        says per call, a percentile or a share.
        """
        total = defaultdict(float)
        calls = defaultdict(int)
        child = defaultdict(float)
        layer_total = defaultdict(float)
        names = {}
        for index, name, start, end, parent, layer in self.spans:
            names[index] = name
            total[name] += end - start
            calls[name] += 1
            if layer is not None:
                layer_total[(name, layer)] += end - start
            child[parent] += end - start
        self_time = defaultdict(float)
        build_in_load = 0.0
        for index, name, start, end, parent, _ in self.spans:
            self_time[name] += end - start - child[index]
            if name == "model.build" and names.get(parent) == "model.load_checkpoint":
                build_in_load += end - start

        u = max(units, 1)

        def ms(name):
            return 1e3 * total[name] / u

        def ms_per_call(value, name):
            return 1e3 * value / calls[name] if calls[name] else 0.0

        m = {}
        for op in OPS:
            m[f"tensor.{op}.fwd_ms"] = ms(f"tensor.{op}.fwd")
            m[f"tensor.{op}.bwd_ms"] = ms(f"tensor.{op}.bwd")
            m[f"tensor.{op}.calls"] = calls[f"tensor.{op}.fwd"] / u
        m["tensor.backward.self_ms"] = 1e3 * self_time["tensor.backward"] / u
        conv_s = total["tensor.conv2d.fwd"] + total["tensor.conv2d.bwd"]
        flops = sum(self.flops.values())
        m["tensor.conv2d.gflop"] = flops / 1e9 / u
        m["tensor.conv2d.operand_mb"] = sum(self.operand_bytes.values()) / 1e6 / u
        m["tensor.conv2d.gflop_per_s"] = flops / 1e9 / conv_s if conv_s else 0.0
        m["tensor.conv2d.step_share"] = (self.conv_in_steps_s / sum(self.step_s)
                                         if self.step_s else 0.0)
        for layer in CONV_LAYERS:
            pre = f"model.layer.{layer}"
            m[f"{pre}.fwd_ms"] = 1e3 * layer_total[("tensor.conv2d.fwd", layer)] / u
            m[f"{pre}.bwd_ms"] = 1e3 * layer_total[("tensor.conv2d.bwd", layer)] / u
            m[f"{pre}.gflop"] = self.flops[layer] / 1e9 / u
            m[f"{pre}.operand_mb"] = self.operand_bytes[layer] / 1e6 / u
        m["model.forward.train_ms"] = ms("model.forward.train")
        m["model.forward.infer_ms"] = ms("model.forward.infer")
        m["model.save_checkpoint_ms"] = ms_per_call(total["model.save_checkpoint"],
                                                    "model.save_checkpoint")
        m["model.save_checkpoint.calls"] = calls["model.save_checkpoint"] / u
        m["model.load_checkpoint_ms"] = ms_per_call(total["model.load_checkpoint"],
                                                    "model.load_checkpoint")
        m["model.load_checkpoint.build_ms"] = ms_per_call(build_in_load,
                                                          "model.load_checkpoint")

        steps_ms = [1e3 * s for s in self.step_s]
        m["training.step_ms_p50"] = percentile(steps_ms, 50)
        m["training.step_ms_p95"] = percentile(steps_ms, 95)
        m["training.backward_ms"] = ms("tensor.backward")
        m["training.sgd_step_ms"] = ms("training.sgd_step")
        m["training.evaluate_mse_ms"] = ms("training.evaluate_mse")
        m["training.feature_norm_ms"] = ms("training.feature_norm")
        m["training.checkpoint_ms"] = ms("model.save_checkpoint")
        train_cmd_s = total["cli.command.train"]
        m["training.overhead_share"] = ((train_cmd_s - sum(self.step_s)) / train_cmd_s
                                        if train_cmd_s else 0.0)
        saves = calls["model.save_checkpoint"]
        m["training.checkpoint.useful_ratio"] = (calls["training.train"] / saves
                                                 if saves else 0.0)

        recon_ms = [1e3 * (end - start) for _, name, start, end, _, _ in self.spans
                    if name == "diagnosis.reconstruct"]
        m["diagnosis.reconstruct_ms_p50"] = percentile(recon_ms, 50)
        m["diagnosis.reconstruct_ms_p95"] = percentile(recon_ms, 95)
        m["diagnosis.score_from_pair_ms"] = ms("diagnosis.score_from_pair")
        m["diagnosis.error_mask_ms"] = ms("diagnosis.error_mask")
        m["diagnosis.classify.calls"] = calls["diagnosis.classify"] / u

        m["metrics.dice_ms"] = ms("metrics.dice")
        m["metrics.reconstruction_accuracy_ms"] = ms("metrics.reconstruction_accuracy")
        m["metrics.confusion_ms"] = ms("metrics.confusion")

        m["data_io.load_dataset_ms"] = ms("data_io.load_dataset")
        m["data_io.read_pgm.calls"] = calls["data_io.read_pgm"] / u
        m["data_io.read_pgm_mb"] = self.read_bytes / 1e6 / u
        m["data_io.preprocess_ms"] = ms("data_io.preprocess")
        m["data_io.write_pgm_ms"] = ms("data_io.write_pgm")

        commands = [name for name in total if name.startswith("cli.command.")]
        m["cli.command_ms"] = 1e3 * sum(total[name] for name in commands) / u
        m["cli.self_ms"] = 1e3 * sum(self_time[name] for name in commands) / u
        return m
