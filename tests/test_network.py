"""Layer mechanics, loss terms, and the optimizer, against hand-computed values."""
import math

import numpy as np
import pytest

from claire.errors import DegenerateDataError, NumericError, ShapeError
from claire.network import (LEAKY, Activation, AdamState, BatchNormState,
                            DenseLayer, DropoutState, LossComponents, LossWeights,
                            adam_step, backward, batch_losses, batchnorm_forward,
                            build_network, classify, corrupt, dense_forward, encode,
                            fold_encoder,
                            loss_classification, loss_entropy, loss_latent_variance,
                            loss_reconstruction, named_parameters, parameter_vector,
                            reconstruct, sigmoid, total_loss, training_forward)
from claire.numerics import RngStream


def test_activations_hand_values():
    a = np.array([[2.0, -1.0]])
    out = LEAKY.apply(a)
    assert np.allclose(out, [[2.0, -0.01]])
    grad = LEAKY.grad(a, out)
    assert np.allclose(grad, [[1.0, 0.01]])
    assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)
    # extreme inputs stay finite and saturate
    big = sigmoid(np.array([800.0, -800.0]))
    assert big[0] == pytest.approx(1.0) and big[1] == pytest.approx(0.0)
    assert np.isfinite(big).all()


def test_sigmoid_matches_masked_formula_bit_for_bit():
    def masked(a):
        out = np.empty_like(a)
        pos = a >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
        ea = np.exp(a[~pos])
        out[~pos] = ea / (1.0 + ea)
        return out

    edges = np.array([0.0, -0.0, 745.0, -745.0, 800.0, -800.0, 1e-300, -1e-300,
                      np.inf, -np.inf, 36.7, -36.7, 709.8, -709.8])
    a = np.concatenate([edges, np.random.default_rng(3).normal(0.0, 30.0, 100_000)])
    got, want = sigmoid(a), masked(a)
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    grid = a[len(edges):].reshape(-1, 100)
    assert np.array_equal(sigmoid(grid), masked(grid))


def _randomized_running_stats(net, seed):
    rng = np.random.default_rng(seed)
    for layer in net.encoder:
        bn = layer.batch_norm
        bn.gamma = rng.uniform(0.5, 1.5, bn.gamma.shape)
        bn.beta = rng.normal(0.0, 0.2, bn.beta.shape)
        bn.running_mean = rng.normal(0.0, 0.5, bn.beta.shape)
        bn.running_var = rng.uniform(0.1, 2.0, bn.beta.shape)
        layer.bias = rng.normal(0.0, 0.1, layer.bias.shape)


def _folded_encode(net, x):
    layers, out_scale = fold_encoder(net)
    h = x
    for weights, bias, act in layers:
        h = act.apply(h @ weights.T + bias)
    return out_scale * h


def test_fold_encoder_matches_encode():
    net = build_network(9, [7, 5], 4, RngStream(31), dropout_keep=0.6)
    _randomized_running_stats(net, 32)
    x = RngStream(33).uniform((50, 9))
    want = encode(net, x)
    assert np.abs(_folded_encode(net, x) - want).max() <= 1e-12 * np.abs(want).max()
    layers, out_scale = fold_encoder(net)
    assert len(layers) == 3 and out_scale == 0.6
    # folding reads the network and never writes it
    assert np.array_equal(encode(net, x), want)


def test_fold_encoder_plain_and_sigmoid_layers():
    # layer 0 without batch norm or dropout, a sigmoid layer in the middle
    net = build_network(6, [5, 4], 3, RngStream(34), dropout_keep=0.8)
    _randomized_running_stats(net, 35)
    net.encoder[0].batch_norm = None
    net.encoder[0].dropout = None
    object.__setattr__(net.encoder[1], "activation", Activation("sigmoid"))
    x = RngStream(36).uniform((40, 6))
    want = encode(net, x)
    assert np.abs(_folded_encode(net, x) - want).max() <= 1e-12 * np.abs(want).max()
    weights0, bias0, _ = fold_encoder(net)[0][0]
    assert np.array_equal(weights0, net.encoder[0].weights)
    assert np.array_equal(bias0, net.encoder[0].bias)


def test_batchnorm_training_hand_case():
    st = BatchNormState(gamma=np.ones(1), beta=np.zeros(1),
                        running_mean=np.zeros(1), running_var=np.ones(1))
    out, cache = batchnorm_forward(st, np.array([[1.0], [3.0]]), training=True)
    # mean 2, population var 1 -> normalized to about -1, +1 (epsilon shrinks it)
    assert np.allclose(out, [[-1.0], [1.0]], atol=5e-6)
    assert cache is not None
    # running stats moved one momentum step: 0.9 * old + 0.1 * batch
    assert st.running_mean[0] == pytest.approx(0.2)
    assert st.running_var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 1.0)


def test_batchnorm_constant_batch_and_single_row():
    st = BatchNormState(gamma=np.ones(1), beta=np.zeros(1),
                        running_mean=np.zeros(1), running_var=np.ones(1))
    out, _ = batchnorm_forward(st, np.array([[5.0], [5.0]]), training=True)
    assert np.allclose(out, 0.0, atol=1e-8)          # zero variance normalizes to 0
    with pytest.raises(DegenerateDataError, match="at least 2 rows"):
        batchnorm_forward(st, np.array([[5.0]]), training=True)


def test_batchnorm_inference_uses_running_stats():
    st = BatchNormState(gamma=np.full(1, 2.0), beta=np.full(1, 1.0),
                        running_mean=np.full(1, 3.0), running_var=np.full(1, 4.0))
    out, cache = batchnorm_forward(st, np.array([[5.0]]), training=False)
    # (5 - 3) / sqrt(4 + eps) * 2 + 1
    assert out[0, 0] == pytest.approx(1.0 + 2.0 * 2.0 / math.sqrt(4.0 + 1e-5))
    assert cache is None
    assert st.running_mean[0] == 3.0                 # untouched at inference


def test_dense_forward_linear_hand_case():
    layer = DenseLayer(weights=np.array([[1.0, 2.0]]), bias=np.array([0.5]),
                       activation=Activation("linear"))
    out, cache = dense_forward(layer, np.array([[3.0, 4.0]]), training=False)
    assert out[0, 0] == pytest.approx(1 * 3 + 2 * 4 + 0.5)
    assert cache is None


def test_dropout_scaling_expectation():
    # non-inverted dropout: train multiplies by the mask, inference by keep
    keep = 0.7
    layer = DenseLayer(weights=np.eye(4), bias=np.zeros(4),
                       activation=Activation("linear"), dropout=DropoutState(keep))
    x = np.ones((1, 4))
    rng = RngStream(0)
    total = np.zeros(4)
    n = 10000
    for _ in range(n):
        out, _ = dense_forward(layer, x, training=True, rng=rng)
        total += out[0]
    inference, _ = dense_forward(layer, x, training=False)
    assert np.allclose(inference, keep)              # keep * h at inference
    se = math.sqrt(keep * (1 - keep) / n)
    assert np.all(np.abs(total / n - keep) < 3 * se + 1e-12)


def test_corrupt_statistics_and_identity():
    rng = RngStream(1)
    x = np.full((100, 100), 0.5)
    noisy = corrupt(x, 0.1, rng)
    assert noisy.min() >= 0.0 and noisy.max() <= 1.0
    assert abs((noisy - x).mean()) < 0.005           # 10k draws, se ~ 0.001
    assert 0.05 < (noisy - x).std() < 0.15
    same = corrupt(x, 0.0, rng)
    assert np.array_equal(same, x)
    assert same is not x


def test_corrupt_zero_std_consumes_no_randomness():
    a = RngStream(2)
    b = RngStream(2)
    corrupt(np.full((3, 3), 0.5), 0.0, a)
    assert np.array_equal(a.normal((5,)), b.normal((5,)))


def test_loss_hand_values():
    # squared Euclidean norm per row, averaged over the batch, no 1/2
    x = np.array([[0.0, 0.0], [1.0, 1.0]])
    x_hat = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert loss_reconstruction(x, x_hat) == pytest.approx((1.0 + 1.0) / 2)
    assert loss_latent_variance(np.array([[0.0], [2.0]])) == pytest.approx(1.0)
    assert loss_classification(np.array([1.0]), np.array([0.5])) == pytest.approx(math.log(2))
    assert loss_entropy(np.array([0.5])) == pytest.approx(math.log(2))
    assert loss_entropy(np.array([1.0])) == pytest.approx(0.0, abs=1e-9)


def test_loss_classification_clamps_instead_of_inf():
    val = loss_classification(np.array([1.0]), np.array([0.0]))
    assert val == pytest.approx(-math.log(1e-12))
    assert math.isfinite(val)


def test_total_loss_weighting_hand_case():
    comp = LossComponents(recon=1.0, latent=2.0, clf=3.0, ent=4.0)
    w = LossWeights(latent_weight=0.1, classifier_weight=1.0, entropy_weight=0.01)
    total, breakdown = total_loss(comp, w)
    assert total == pytest.approx(1.0 + 0.2 + 3.0 + 0.04)   # 4.24
    assert breakdown == {"recon": 1.0, "latent": 2.0, "clf": 3.0, "ent": 4.0}
    # weights scale their own term linearly
    t2, _ = total_loss(comp, LossWeights(0.2, 1.0, 0.01))
    assert t2 - total == pytest.approx(0.1 * 2.0)


def test_total_loss_rejects_non_finite():
    comp = LossComponents(recon=float("nan"), latent=0.0, clf=0.0, ent=0.0)
    with pytest.raises(NumericError, match="recon"):
        total_loss(comp, LossWeights())


def test_adam_first_step_magnitude():
    # first step with g=1: m=0.1, v=0.001, theta -= lr * 0.1/(sqrt(0.001)+1e-8)
    theta = np.array([0.5, -2.0, 0.0])
    grad = np.array([1.0, 0.0, 1.0])
    state = AdamState(learning_rate=1.0)
    adam_step(state, theta, grad)
    expected = -0.1 / (math.sqrt(0.001) + 1e-8)      # about -3.16228
    assert np.allclose(theta, [0.5 + expected, -2.0, expected], rtol=1e-9)
    assert state.step == 1
    assert state.first_moment.shape == state.second_moment.shape == theta.shape


def test_adam_without_bias_correction_differs_from_corrected():
    # with correction the first unit-gradient step would be exactly -lr
    theta = np.zeros(4)
    adam_step(AdamState(learning_rate=1e-3), theta, np.ones(4))
    assert not np.allclose(theta, -1e-3, rtol=1e-3)


def test_adam_errors():
    state = AdamState()
    with pytest.raises(ShapeError):
        adam_step(state, np.zeros(3), np.zeros(2))
    assert state.first_moment is None and state.step == 0


def test_parameter_vector_is_the_network():
    net = build_network(5, [4], 3, RngStream(23))
    saved = [(n, p.copy()) for n, p in named_parameters(net)]
    theta = parameter_vector(net)
    assert theta.dtype == np.float64 and theta.flags.c_contiguous
    assert theta.size == sum(p.size for _, p in saved)
    # same values in named_parameters order, and every array is a view of theta
    assert np.array_equal(theta, np.concatenate([p.ravel() for _, p in saved]))
    for (name, param), (_, before) in zip(named_parameters(net), saved):
        assert np.array_equal(param, before) and np.shares_memory(param, theta), name
    x = RngStream(24).uniform((6, 5))
    assert np.abs(encode(net, x)).max() > 0
    # zero weights, biases, gammas and betas make every code exactly 0
    theta *= 0.0
    assert not net.encoder[0].weights.any() and not net.classifier.bias.any()
    assert np.array_equal(encode(net, x), np.zeros((6, 3)))


def test_build_network_shapes_and_order():
    net = build_network(10, [8, 6], 4, RngStream(3), dropout_keep=0.7)
    enc_shapes = [l.weights.shape for l in net.encoder]
    dec_shapes = [l.weights.shape for l in net.decoder]
    assert enc_shapes == [(8, 10), (6, 8), (4, 6)]
    assert dec_shapes == [(6, 4), (8, 6), (10, 8)]
    assert net.classifier.weights.shape == (1, 4)
    # every encoder layer normalizes and drops; decoder output and the
    # classifier head do neither and squash with a sigmoid
    for layer in net.encoder:
        assert layer.batch_norm is not None and layer.dropout is not None
        assert layer.activation.kind == "leaky_relu"
    assert net.decoder[-1].batch_norm is None and net.decoder[-1].dropout is None
    assert net.decoder[-1].activation.kind == "sigmoid"
    for layer in net.decoder[:-1]:
        assert layer.batch_norm is not None and layer.dropout is not None
    assert net.classifier.batch_norm is None and net.classifier.dropout is None
    assert net.classifier.activation.kind == "sigmoid"


def test_build_network_deterministic():
    a = build_network(5, [4], 3, RngStream(7))
    b = build_network(5, [4], 3, RngStream(7))
    for (na, pa), (nb, pb) in zip(named_parameters(a), named_parameters(b)):
        assert na == nb
        assert np.array_equal(pa, pb)


def test_single_linear_encoder_matches_matmul():
    # strip the network down to one linear path and check by hand
    net = build_network(3, [], 2, RngStream(11))
    layer = net.encoder[0]
    layer.batch_norm = None
    layer.dropout = None
    object.__setattr__(layer, "activation", Activation("linear"))
    x = np.array([[1.0, 2.0, 3.0], [0.5, 0.0, -1.0]])
    want = x @ layer.weights.T + layer.bias
    assert np.allclose(encode(net, x), want, atol=1e-12)


def test_inference_reconstruction_in_unit_interval():
    net = build_network(6, [5], 3, RngStream(13))
    x = RngStream(14).uniform((20, 6))
    out = reconstruct(net, x)
    assert out.shape == x.shape
    assert out.min() >= 0.0 and out.max() <= 1.0
    probs = classify(net, x)
    assert probs.shape == (20,)
    assert probs.min() >= 0.0 and probs.max() <= 1.0


def test_inference_batch_independence():
    net = build_network(4, [3], 2, RngStream(15))
    x = RngStream(16).uniform((8, 4))
    whole = encode(net, x)
    rows = np.vstack([encode(net, x[i:i + 1]) for i in range(8)])
    assert np.allclose(whole, rows, atol=1e-12)


def test_training_forward_and_batch_losses_shapes():
    net = build_network(5, [4], 3, RngStream(17))
    x = RngStream(18).uniform((6, 5))
    y = np.array([0, 1, 0, 1, 1, 0], dtype=np.float64)
    fwd = training_forward(net, x, RngStream(19))
    assert fwd.z.shape == (6, 3)
    assert fwd.x_hat.shape == (6, 5)
    assert fwd.y_hat.shape == (6, 1)
    comp = batch_losses(fwd, x, y)
    for term in (comp.recon, comp.latent, comp.clf, comp.ent):
        assert math.isfinite(term) and term >= 0.0


def test_backward_produces_all_named_gradients():
    net = build_network(5, [4], 3, RngStream(20))
    x = RngStream(21).uniform((6, 5))
    y = np.array([0, 1, 0, 1, 1, 0], dtype=np.float64)
    fwd = training_forward(net, x, RngStream(22))
    grad = backward(net, fwd, x, y, LossWeights())
    assert isinstance(grad, np.ndarray) and grad.ndim == 1
    assert grad.size == sum(p.size for _, p in named_parameters(net))
    assert grad.shape == parameter_vector(net).shape
    assert np.isfinite(grad).all()
