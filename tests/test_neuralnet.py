import math

import numpy as np
import pytest

from fdkg.neuralnet import (
    ADAM_CHUNK,
    ADAM_EPS,
    RHO1_DEFAULT,
    RHO2_DEFAULT,
    Gradients,
    NetworkParams,
    Workspace,
    _sigmoid,
    adam_step,
    backward,
    forward,
    init_adam_state,
    init_network,
    mse_loss,
    sgd_step,
)


def scalar_net(w: float, output_activation: str = "linear") -> NetworkParams:
    return NetworkParams(
        layer_dims=(1, 1),
        weights=[np.array([[float(w)]])],
        biases=[np.array([0.0])],
        output_activation=output_activation,
    )


def hidden_pre_activations(net, x):
    """Pre-activations of every hidden layer (the network keeps only the ReLU outputs)."""
    pre, a = [], x
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        pre.append(a @ w.T + b)
        a = np.maximum(pre[-1], 0.0)
    return pre


def finite_difference_grads(net, x, y, h=1e-5):
    fd_w = [np.zeros_like(w) for w in net.weights]
    fd_b = [np.zeros_like(b) for b in net.biases]
    for arrs, outs in ((net.weights, fd_w), (net.biases, fd_b)):
        for arr, out in zip(arrs, outs):
            flat, oflat = arr.reshape(-1), out.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                lp = mse_loss(forward(net, x), y)
                flat[i] = orig - h
                lm = mse_loss(forward(net, x), y)
                flat[i] = orig
                oflat[i] = (lp - lm) / (2 * h)
    return fd_w, fd_b


def test_init_deterministic_and_shapes():
    a = init_network([2, 3, 1], seed=5)
    b = init_network([2, 3, 1], seed=5)
    assert np.array_equal(a.flat, b.flat)
    assert a.weights[0].shape == (3, 2) and a.weights[1].shape == (1, 3)
    assert a.biases[0].shape == (3,) and a.biases[1].shape == (1,)
    assert np.all(a.biases[0] == 0.0)


def test_init_he_variance():
    net = init_network([512, 32], seed=0)
    sampled = net.weights[0].reshape(-1)[:10_000]
    assert np.var(sampled) == pytest.approx(2.0 / 512, rel=0.10)


def test_forward_zero_net_outputs_half():
    net = init_network([4, 3, 2], seed=0)
    for w in net.weights:
        w[:] = 0.0
    out = forward(net, np.array([0.3, -1.0, 2.0, 0.1]))
    assert np.allclose(out, 0.5)


def test_forward_relu_preserves_positive_identity():
    net = NetworkParams(
        layer_dims=(3, 3, 3),
        weights=[np.eye(3), np.eye(3)],
        biases=[np.zeros(3), np.zeros(3)],
        output_activation="linear",
    )
    x = np.array([0.5, 1.5, 0.25])
    assert np.array_equal(forward(net, x), x)


def test_forward_matches_hand_computation():
    # 2-2-1 net evaluated by hand: relu hidden, sigmoid output
    net = NetworkParams(
        layer_dims=(2, 2, 1),
        weights=[np.array([[1.0, -2.0], [0.5, 1.0]]), np.array([[2.0, -1.0]])],
        biases=[np.array([0.1, -0.2]), np.array([0.05])],
    )
    x = np.array([0.6, 0.4])
    z1 = np.array([1.0 * 0.6 - 2.0 * 0.4 + 0.1, 0.5 * 0.6 + 1.0 * 0.4 - 0.2])
    a1 = np.maximum(z1, 0.0)
    z2 = 2.0 * a1[0] - 1.0 * a1[1] + 0.05
    expected = 1.0 / (1.0 + np.exp(-z2))
    assert forward(net, x)[0] == pytest.approx(expected, abs=1e-12)


def test_forward_dimension_mismatch():
    net = init_network([4, 2], seed=1)
    with pytest.raises(ValueError):
        forward(net, np.ones(3))


def test_mse_loss_examples():
    assert mse_loss(np.array([[1.0, 2.0]]), np.array([[1.0, 2.0]])) == 0.0
    assert mse_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]])) == 1.0
    out = np.array([[1.0, 0.0], [3.0, 0.0]])
    tgt = np.array([[0.0, 0.0], [0.0, 0.0]])
    assert mse_loss(out, tgt) == pytest.approx((1.0 + 9.0) / 2.0)


def test_mse_loss_empty_batch_errors():
    with pytest.raises(ValueError):
        mse_loss(np.empty((0, 2)), np.empty((0, 2)))


def test_backward_zero_error_gives_tiny_gradients():
    net = init_network([3, 4, 2], seed=2)
    x = np.random.default_rng(0).uniform(0.1, 0.9, (5, 3))
    y = forward(net, x)
    loss, grads = backward(net, x, y)
    assert loss == 0.0
    assert all(np.max(np.abs(g)) <= 1e-12 for g in grads.d_weights + grads.d_biases)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(3)
    checked = 0
    seed = 0
    while checked < 20:
        seed += 1
        net = init_network([6, 8, 8, 4], seed=seed)
        for b in net.biases:
            b += rng.normal(0.0, 0.1, b.shape)
        x = rng.uniform(0.0, 1.0, (4, 6))
        y = rng.uniform(0.05, 0.95, (4, 4))
        if min(float(np.min(np.abs(z))) for z in hidden_pre_activations(net, x)) < 1e-6:
            continue  # resample away from ReLU kinks
        _, grads = backward(net, x, y)
        fd_w, fd_b = finite_difference_grads(net, x, y)
        for g, fd in zip(grads.d_weights + grads.d_biases, fd_w + fd_b):
            rel = np.abs(g - fd) / np.maximum.reduce([np.abs(g), np.abs(fd), np.full_like(g, 1e-8)])
            assert np.max(rel) <= 1e-4
        checked += 1


def test_backward_linear_head_bias_gradient_scales_with_error():
    # with a linear output, the output-layer bias gradient is linear in the error
    net = init_network([3, 4, 2], seed=4, output_activation="linear")
    x = np.random.default_rng(5).uniform(0.0, 1.0, (6, 3))
    base = forward(net, x)
    y1 = base - 0.1
    y2 = base - 0.2  # doubled error components
    _, g1 = backward(net, x, y1)
    _, g2 = backward(net, x, y2)
    assert np.allclose(g2.d_biases[-1], 2.0 * g1.d_biases[-1], rtol=1e-10)


def test_adam_zero_gradient_keeps_parameters():
    net = init_network([2, 2], seed=6)
    grads = Gradients.zeros_like(net)
    before = net.flat.copy()
    out, _ = adam_step(net, grads, init_adam_state(net), 1e-3)
    assert out is net and np.array_equal(net.flat, before)


def test_adam_first_step_closed_form():
    net = scalar_net(0.0)
    grads = Gradients(d_weights=[np.array([[1.0]])], d_biases=[np.array([0.0])])
    state = init_adam_state(net)
    stepped, state = adam_step(net, grads, state, 1e-3)
    # m=0.1, v=0.001, bias-corrected m^=1, v^=1 => delta = -lr/(1+eps)
    assert state.m[0] == pytest.approx(0.1, abs=1e-15)
    assert state.v[0] == pytest.approx(0.001, abs=1e-15)
    assert stepped.weights[0][0, 0] == pytest.approx(-1e-3 / (1 + 1e-8), abs=1e-12)


def test_adam_two_steps_match_hand_computation():
    lr, r1, r2, eps = 1e-3, 0.9, 0.999, 1e-8
    g1, g2 = 1.0, -0.5
    theta, m, v = 0.0, 0.0, 0.0
    for t, g in ((1, g1), (2, g2)):
        m = r1 * m + (1 - r1) * g
        v = r2 * v + (1 - r2) * g * g
        mhat = m / (1 - r1**t)
        vhat = v / (1 - r2**t)
        theta -= lr * mhat / (np.sqrt(vhat) + eps)

    net = scalar_net(0.0)
    state = init_adam_state(net)
    for g in (g1, g2):
        grads = Gradients(d_weights=[np.array([[g]])], d_biases=[np.array([0.0])])
        net, state = adam_step(net, grads, state, lr)
    assert net.weights[0][0, 0] == pytest.approx(theta, abs=1e-12)


def test_sgd_step_arithmetic():
    net = scalar_net(0.0)
    grads = Gradients(d_weights=[np.array([[-4.0]])], d_biases=[np.array([0.0])])
    assert sgd_step(net, grads, 0.1).weights[0][0, 0] == pytest.approx(0.4, abs=1e-15)
    assert np.array_equal(sgd_step(net, grads, 0.0).flat, net.flat)


def test_sgd_differs_from_adam_on_nonzero_gradient():
    net = scalar_net(1.0)
    grads = Gradients(d_weights=[np.array([[0.3]])], d_biases=[np.array([0.1])])
    sgd_out = sgd_step(net, grads, 1e-3)
    adam_out, _ = adam_step(net, grads, init_adam_state(net), 1e-3)
    assert not np.isclose(sgd_out.weights[0][0, 0], adam_out.weights[0][0, 0])


def test_training_loss_trend_and_determinism():
    # smoothed loss over 50 adam steps on a fixed tiny regression task
    rng = np.random.default_rng(8)
    x = rng.uniform(0.0, 1.0, (32, 4))
    w_true = rng.normal(size=(3, 4))
    y = 1.0 / (1.0 + np.exp(-(x @ w_true.T)))
    net = init_network([4, 8, 3], seed=9)
    state = init_adam_state(net)
    losses = []
    for _ in range(50):
        loss, grads = backward(net, x, y)
        losses.append(loss)
        net, state = adam_step(net, grads, state, 1e-2)
    first = np.mean(losses[:10])
    last = np.mean(losses[-10:])
    assert last < first


def two_branch_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bit_equal_to_two_branch_formula():
    special = [0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 1e3, -1e3, 5e-324, -5e-324, 745.0, -745.0]
    z = np.concatenate([special, np.linspace(-40.0, 40.0, 8000)]).reshape(4, -1)
    got, ref = _sigmoid(z), two_branch_sigmoid(z)
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_flat_vector_layout_and_views():
    net = init_network([3, 4, 2], seed=7)
    expected = np.concatenate([net.weights[0].ravel(), net.biases[0], net.weights[1].ravel(), net.biases[1]])
    assert np.array_equal(net.flat, expected) and net.n_parameters == expected.size
    net.weights[1][0, 0] = 5.0  # views write through to the flat vector
    assert net.flat[3 * 4 + 4] == 5.0
    grads = Gradients(d_weights=[np.ones((4, 3)), np.ones((2, 4))], d_biases=[np.zeros(4), np.zeros(2)])
    assert grads.flat.shape == (net.n_parameters,) and np.shares_memory(grads.d_biases[1], grads.flat)


def test_copy_shares_no_memory():
    net = init_network([4, 5, 3], seed=1)
    dup = net.copy()
    assert not np.shares_memory(dup.flat, net.flat)
    assert not any(np.shares_memory(a, b) for a in dup.weights + dup.biases for b in net.weights + net.biases)
    assert np.array_equal(dup.flat, net.flat)


def test_optimizer_steps_do_not_modify_inputs():
    """adam_step updates the network and the state it is given in place and
    only reads the gradients; sgd_step reads both and returns new parameters."""
    net = init_network([4, 6, 3], seed=2)
    x = np.random.default_rng(3).uniform(0.0, 1.0, (5, 4))
    _, grads = backward(net, x, np.full((5, 3), 0.25))
    net_before, grads_before = net.flat.copy(), grads.flat.copy()
    moved = sgd_step(net, grads, 0.1)
    assert np.array_equal(net.flat, net_before) and np.array_equal(grads.flat, grads_before)
    assert not np.shares_memory(moved.flat, net.flat) and not np.array_equal(moved.flat, net.flat)

    state = init_adam_state(net)
    buffers = (net.flat, state.m, state.v)
    for step in (1, 2):
        stepped, returned = adam_step(net, grads, state, 1e-2)
        assert stepped is net and returned is state and state.step_count == step
        assert all(a is b for a, b in zip((net.flat, state.m, state.v), buffers))
        assert np.array_equal(grads.flat, grads_before)
    assert not np.array_equal(net.flat, net_before)


def test_chunked_adam_bitwise_equal_to_whole_vector_formula():
    n = 2 * ADAM_CHUNK + 7  # two full chunks and a short one
    dims = (n - 1, 1)
    rng = np.random.default_rng(21)
    net = NetworkParams.from_flat(dims, rng.normal(size=n), "linear")
    state = init_adam_state(net)
    assert state.scratch.shape == (ADAM_CHUNK,)
    theta, m, v = net.flat.copy(), np.zeros(n), np.zeros(n)
    lr, r1, r2, eps = 1e-3, RHO1_DEFAULT, RHO2_DEFAULT, ADAM_EPS
    for t in (1, 2, 3):
        g = rng.normal(size=n) * 10.0 ** rng.integers(-8, 3, size=n)
        adam_step(net, Gradients.from_flat(dims, g), state, lr)
        # the folded whole-vector update, operation for operation
        root_c2 = math.sqrt(1.0 - r2**t)
        m = (m - g) * r1 + g
        v = (v - g * g) * r2 + g * g
        theta = theta - m / (np.sqrt(v) + eps * root_c2) * (lr * root_c2 / (1.0 - r1**t))
        for got, want in ((net.flat, theta), (state.m, m), (state.v, v)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_adam_agrees_with_textbook_update():
    # Kingma & Ba (arXiv:1412.6980), Algorithm 1, over two chunks and several steps.  The
    # gradients are positive and the parameters start at 0, so m, v and theta are each a
    # one-signed sum: rounding stays relative to them in both forms, and no value
    # cancels to near 0, where any two orders of operations differ relatively by far more
    n = ADAM_CHUNK + 1000
    dims = (n - 1, 1)
    rng = np.random.default_rng(22)
    net = NetworkParams.from_flat(dims, np.zeros(n), "linear")
    state = init_adam_state(net)
    theta, m, v = np.zeros(n), np.zeros(n), np.zeros(n)
    lr, r1, r2, eps = 1e-3, RHO1_DEFAULT, RHO2_DEFAULT, ADAM_EPS
    for t in range(1, 9):
        g = np.exp(rng.normal(scale=3.0, size=n))  # spans about 8 decades around 1
        adam_step(net, Gradients.from_flat(dims, g), state, lr)
        m = r1 * m + (1.0 - r1) * g
        v = r2 * v + (1.0 - r2) * g * g
        theta = theta - lr * (m / (1.0 - r1**t)) / (np.sqrt(v / (1.0 - r2**t)) + eps)
        for got, want in ((net.flat, theta), (state.m, m), (state.v, v)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)
    assert state.step_count == 8


@pytest.mark.parametrize("head", ["sigmoid", "linear"])
def test_workspace_backward_bit_identical_to_fresh_call(head):
    net = init_network([16, 24, 32, 8], seed=5, output_activation=head)
    work = Workspace(net, 128)
    rng = np.random.default_rng(6)
    for rows in (128, 104, 128):  # a short final batch runs on leading-row views
        x = rng.uniform(-1.0, 1.0, (rows, 16))
        y = rng.uniform(0.0, 1.0, (rows, 8))
        loss, grads = backward(net, x, y, work)
        ref_loss, ref = backward(net, x, y)
        assert grads is work.grads
        assert loss == ref_loss
        assert np.array_equal(grads.flat.view(np.uint64), ref.flat.view(np.uint64))
    with pytest.raises(ValueError):
        backward(net, np.zeros((129, 16)), np.zeros((129, 8)), work)
    with pytest.raises(ValueError):
        backward(init_network([16, 8], seed=5), np.zeros((4, 16)), np.zeros((4, 8)), work)


@pytest.mark.parametrize("head, bad", [("sigmoid", np.nan), ("linear", np.nan), ("linear", 1e300)])
@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
def test_backward_rejects_non_finite_loss(head, bad):
    net = init_network([3, 4, 2], seed=2, output_activation=head)
    x = np.random.default_rng(0).uniform(0.1, 0.9, (5, 3))
    x[2] = bad  # a NaN row, or one whose linear outputs square past the float range
    with pytest.raises(FloatingPointError, match="non-finite training loss"):
        backward(net, x, np.full((5, 2), 0.5), Workspace(net, 8))


def test_backward_without_workspace_returns_unaliased_gradients():
    net = init_network([4, 6, 3], seed=8)
    rng = np.random.default_rng(9)
    _, first = backward(net, rng.uniform(size=(5, 4)), rng.uniform(size=(5, 3)))
    kept = first.flat.copy()
    _, second = backward(net, rng.uniform(size=(5, 4)), rng.uniform(size=(5, 3)))
    assert not np.shares_memory(first.flat, second.flat)
    assert np.array_equal(first.flat, kept)
