"""Reverse-mode propagation: accumulation, ordering, and agreement with an
independent finite-difference routine."""

import threading

import numpy as np
import numpy.testing as npt
import pytest

from catunet import tensor as T
from catunet.gradcheck import grad_check, model_check, primitive_checks, relative_error
from catunet.model import CatUNetConfig, build
from catunet.rng import Rng
from catunet.training import loss as training_loss

from oracles import numeric_gradient


def test_self_mse_has_zero_gradient():
    x = T.Tensor(np.random.default_rng(0).uniform(-1, 1, (2, 3)).astype(np.float32), requires_grad=True)
    T.backward(T.mse(x, x))
    npt.assert_array_equal(x.grad, np.zeros_like(x.data))


def test_non_scalar_loss_rejected():
    x = T.Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        T.backward(T.relu(x))


def test_conv_loss_matches_independent_finite_differences():
    gen = np.random.default_rng(21)
    x0 = gen.uniform(-1, 1, (1, 1, 4, 4))
    w0 = gen.uniform(-1, 1, (2, 1, 3, 3))
    b0 = gen.uniform(-1, 1, 2)
    t0 = gen.uniform(-1, 1, (1, 2, 4, 4))

    x = T.Tensor(x0.copy(), requires_grad=True)
    w = T.Tensor(w0.copy(), requires_grad=True)
    b = T.Tensor(b0.copy(), requires_grad=True)
    T.backward(T.mse(T.conv2d(x, w, b, padding=1), T.Tensor(t0)))

    def loss_at_w(wv):
        out = T.conv2d(T.Tensor(x0), T.Tensor(wv), T.Tensor(b0), padding=1)
        return T.mse(out, T.Tensor(t0)).item()

    def loss_at_x(xv):
        out = T.conv2d(T.Tensor(xv), T.Tensor(w0), T.Tensor(b0), padding=1)
        return T.mse(out, T.Tensor(t0)).item()

    num_w = numeric_gradient(loss_at_w, w0, h=1e-3)
    num_x = numeric_gradient(loss_at_x, x0, h=1e-3)
    assert np.max([relative_error(a, n) for a, n in zip(w.grad.reshape(-1), num_w.reshape(-1))]) < 1e-4
    assert np.max([relative_error(a, n) for a, n in zip(x.grad.reshape(-1), num_x.reshape(-1))]) < 1e-4


def test_two_consumers_accumulate():
    gen = np.random.default_rng(5)
    x0 = gen.uniform(-1, 1, (1, 1, 3, 3)).astype(np.float32)
    tgt = T.Tensor(gen.uniform(-1, 1, (1, 2, 3, 3)).astype(np.float32))

    def loss(relu_in, direct):
        return T.mse(T.concat_channels(T.relu(relu_in), direct), tgt)

    # branch gradients computed on separate graphs, the other branch fed
    # a constant copy
    xa = T.Tensor(x0.copy(), requires_grad=True)
    T.backward(loss(xa, T.Tensor(x0.copy())))
    xb = T.Tensor(x0.copy(), requires_grad=True)
    T.backward(loss(T.Tensor(x0.copy()), xb))

    # one graph where x feeds both consumers
    x = T.Tensor(x0.copy(), requires_grad=True)
    T.backward(loss(x, x))
    npt.assert_allclose(x.grad, xa.grad + xb.grad, rtol=1e-6)


def test_topo_order_inputs_before_consumers():
    x = T.Tensor(np.ones((1, 1, 2, 2), dtype=np.float32), requires_grad=True)
    y = T.relu(x)
    z = T.upsample_nearest(y, 2)
    loss = T.mse(z, T.Tensor(np.zeros((1, 1, 4, 4), dtype=np.float32)))
    order = T.topo_order(loss)
    pos = {id(t): i for i, t in enumerate(order)}
    for node in order:
        for parent in node._parents:
            assert pos[id(parent)] < pos[id(node)]


def test_second_backward_doubles_leaf_gradients():
    gen = np.random.default_rng(8)
    x = T.Tensor(gen.uniform(-1, 1, (2, 2, 5, 5)), requires_grad=True)
    w = T.Tensor(gen.uniform(-1, 1, (3, 2, 3, 3)), requires_grad=True)
    b = T.Tensor(gen.uniform(-1, 1, 3), requires_grad=True)
    tgt = T.Tensor(gen.uniform(-1, 1, (2, 3, 5, 5)))
    loss = T.mse(T.relu(T.conv2d(x, w, b, padding=1)), tgt)
    T.backward(loss)
    first = [t.grad.copy() for t in (x, w, b)]
    # the closures stay, so a second walk adds the same gradients again;
    # intermediate gradients left over from the first walk would be
    # pushed through twice
    T.backward(loss)
    for t, g in zip((x, w, b), first):
        npt.assert_array_equal(t.grad, 2 * g)


def test_backward_releases_intermediate_gradients():
    net = build(CatUNetConfig(input_channels=1, input_size=16, depth=2, base_channels=4), Rng(0))
    batch = T.Tensor(np.random.default_rng(4).uniform(0, 1, (2, 1, 16, 16)).astype(np.float32))
    loss = training_loss(net, batch, training=True, dropout_rng=Rng(0).stream("dropout"))
    order = T.topo_order(loss)
    T.backward(loss)
    inner = [node for node in order if node._parents]
    assert inner, "the loss recorded no graph"
    assert all(node.grad is None for node in inner)
    missing = [k for k, p in net.parameters.items() if p.grad is None]
    assert not missing, f"parameters without a gradient: {missing}"


def test_no_grad_suppresses_graph():
    x = T.Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    with T.no_grad():
        out = T.relu(x)
    assert out._backward is None and not out.requires_grad


def _assert_gradient_flows():
    # d/dx mean((relu(x) - t)^2) = 2 (x - t) / n where every x > 0
    x0 = np.array([[0.5, 1.0], [1.5, 2.0]], dtype=np.float32)
    t0 = np.zeros((2, 2), dtype=np.float32)
    x = T.Tensor(x0.copy(), requires_grad=True)
    T.backward(T.mse(T.relu(x), T.Tensor(t0)))
    assert x.grad is not None, "graph recording is off: no gradient reached x"
    npt.assert_allclose(x.grad, 2.0 * (x0 - t0) / x0.size, rtol=1e-6)


def test_no_grad_in_another_thread_leaves_this_thread_recording():
    entered, release = threading.Event(), threading.Event()

    def worker():
        with T.no_grad():
            entered.set()
            release.wait(timeout=30)

    thread = threading.Thread(target=worker)
    thread.start()
    try:
        assert entered.wait(timeout=30)
        # the worker is inside its no_grad block right now
        x = T.Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        out = T.relu(x)
        assert out.requires_grad and out._backward is not None
    finally:
        release.set()
        thread.join()
    _assert_gradient_flows()


def test_thread_started_inside_no_grad_records():
    seen = {}

    def worker():
        x = T.Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        seen["records"] = T.relu(x).requires_grad

    with T.no_grad():
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    assert seen["records"] is True


def test_nested_no_grad_restores_each_level():
    x = T.Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    with T.no_grad():
        with T.no_grad():
            assert not T.relu(x).requires_grad
        assert not T.relu(x).requires_grad
    assert T.relu(x).requires_grad
    _assert_gradient_flows()


def test_no_grad_restores_after_exception():
    x = T.Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
    with pytest.raises(RuntimeError, match="inside"):
        with T.no_grad():
            raise RuntimeError("raised inside no_grad")
    assert T.relu(x).requires_grad
    _assert_gradient_flows()


class TestGradCheckSuite:
    def test_conv2d_below_1e4(self):
        errs = primitive_checks(seed=1)
        assert errs["conv2d"] < 1e-4

    def test_maxpool_distinct_values_below_1e4(self):
        errs = primitive_checks(seed=1)
        assert errs["maxpool2d"] < 1e-4

    def test_concat_below_1e6(self):
        errs = primitive_checks(seed=1)
        assert errs["concat_channels"] < 1e-6

    def test_every_primitive_below_1e4(self):
        errs = primitive_checks(seed=2)
        bad = {k: v for k, v in errs.items() if v >= 1e-4}
        assert not bad, f"primitives over tolerance: {bad}"

    def test_full_model_below_1e3(self):
        assert model_check(seed=0) < 1e-3

    def test_detects_a_wrong_gradient(self):
        # negative control: a deliberately corrupted backward must be caught
        # (x > 0, so relu passes the gradient through unchanged)
        x = T.Tensor(np.random.default_rng(3).uniform(0.5, 1.0, (2, 2)), requires_grad=True)
        tgt = T.Tensor(np.zeros((2, 2)))

        def broken():
            out = T.relu(x)
            good = out._backward

            def bad(g):
                good(g * 1.5)
            out._backward = bad
            return T.mse(out, tgt)

        assert grad_check(broken, [x]) > 1e-2
