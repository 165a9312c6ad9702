"""Analytic backpropagation checked against central finite differences.

The finite-difference side never touches the backward code, so the two
routes are independent. Dropout masks are replayed by reseeding the same
stream before every forward evaluation; corruption is applied once outside
the loss closure so perturbations see a fixed input.
"""
import numpy as np
import pytest

from claire.errors import StateError
from claire.network import (Activation, DenseLayer, LossWeights, backward,
                            batch_losses, build_network, corrupt, dense_backward,
                            dense_forward, total_loss, training_forward)
from claire.numerics import RngStream, substream_seed
from conftest import named_parameters

REL_TOL = 1e-4
FD_STEP = 1e-5


def fd_check_one(seed: int) -> int:
    """Check every parameter of one randomly drawn network. Returns the
    number of scalar parameters compared."""
    draw = np.random.default_rng(seed)
    d = int(draw.integers(2, 11))
    k = int(draw.integers(1, 5))
    n_hidden = int(draw.integers(0, 3))
    hidden = [int(draw.integers(2, 9)) for _ in range(n_hidden)]
    n = int(draw.integers(2, 9))

    net = build_network(d, hidden, k, RngStream(substream_seed(seed, "init")))
    x_clean = draw.uniform(0.0, 1.0, size=(n, d))
    x_corrupted = corrupt(x_clean, 0.1, RngStream(substream_seed(seed, "corruption")))
    y = draw.integers(0, 2, size=n).astype(np.float64)
    weights = LossWeights(
        latent_weight=float(draw.uniform(0.05, 1.0)),
        classifier_weight=float(draw.uniform(0.2, 1.5)),
        entropy_weight=float(draw.uniform(-0.3, 0.3)),
    )
    dropout_seed = substream_seed(seed, "dropout")

    def loss_value() -> float:
        fwd = training_forward(net, x_corrupted, RngStream(dropout_seed))
        return total_loss(batch_losses(fwd, x_clean, y), weights)

    fwd = training_forward(net, x_corrupted, RngStream(dropout_seed))
    grad = backward(net, fwd, x_clean, y, weights)

    checked = 0
    offset = 0
    for name, param in named_parameters(net):
        flat = param.reshape(-1)
        g_flat = grad[offset:offset + flat.size]
        offset += flat.size
        for i in range(flat.shape[0]):
            saved = flat[i]
            flat[i] = saved + FD_STEP
            up = loss_value()
            flat[i] = saved - FD_STEP
            down = loss_value()
            flat[i] = saved
            fd = (up - down) / (2 * FD_STEP)
            a = g_flat[i]
            bound = REL_TOL * max(abs(a), abs(fd), 1e-6)
            assert abs(a - fd) <= bound, (
                f"seed {seed} {name}[{i}]: analytic {a!r} vs finite-diff {fd!r}")
            checked += 1
    assert offset == grad.size
    return checked


@pytest.mark.parametrize("seed", range(101, 121))
def test_backward_matches_finite_differences(seed):
    assert fd_check_one(seed) > 0


def test_dense_backward_linear_hand_chain():
    # out = h W^T + b, so dW = dOut^T h, db = column sums, dh = dOut W
    rng = np.random.default_rng(0)
    layer = DenseLayer(weights=rng.normal(size=(2, 3)), bias=rng.normal(size=2),
                       activation=Activation("linear"))
    h_in = rng.normal(size=(4, 3))
    out, cache = dense_forward(layer, h_in, training=True)
    assert np.allclose(out, h_in @ layer.weights.T + layer.bias, atol=1e-12)
    d_out = rng.normal(size=(4, 2))
    d_h, (d_weights, d_bias) = dense_backward(layer, cache, d_out)
    assert np.allclose(d_weights, d_out.T @ h_in, atol=1e-12)
    assert np.allclose(d_bias, d_out.sum(axis=0), atol=1e-12)
    assert np.allclose(d_h, d_out @ layer.weights, atol=1e-12)


def test_dense_backward_leaky_hand_chain():
    layer = DenseLayer(weights=np.array([[1.0, -1.0]]), bias=np.array([0.0]),
                       activation=Activation("leaky_relu", 0.01))
    h_in = np.array([[2.0, 0.0], [0.0, 3.0]])        # pre-acts +2 and -3
    out, cache = dense_forward(layer, h_in, training=True)
    assert np.allclose(out, [[2.0], [-0.03]])
    d_h, (d_weights, d_bias) = dense_backward(layer, cache, np.array([[1.0], [1.0]]))
    # row 1 passes slope 1, row 2 slope 0.01
    assert np.allclose(d_weights, [[2.0 + 0.0, 0.0 + 0.03]])
    assert np.allclose(d_bias, [1.01])
    assert np.allclose(d_h, [[1.0, -1.0], [0.01, -0.01]])


def test_backward_rejects_inference_forward():
    net = build_network(3, [], 2, RngStream(5))
    x = np.full((2, 3), 0.4)
    fwd = training_forward(net, x, RngStream(6))
    fwd.encoder_caches = None
    with pytest.raises(StateError, match="training-mode"):
        backward(net, fwd, x, np.array([0.0, 1.0]), LossWeights())


def test_dense_backward_requires_cache():
    layer = DenseLayer(weights=np.ones((1, 1)), bias=np.zeros(1),
                       activation=Activation("linear"))
    with pytest.raises(StateError, match="cache"):
        dense_backward(layer, None, np.ones((1, 1)))
