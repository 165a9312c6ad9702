"""Layer mechanics, loss terms, and the optimizer, against hand-computed values."""
import math

import numpy as np
import pytest

from claire.data import TabularDataset
from claire.errors import DegenerateDataError, ShapeError
from claire.network import (ADAM_BLOCK, LEAKY, Activation, AdamState, BatchNormState,
                            DenseLayer, DropoutState, LossComponents, LossWeights,
                            adam_step, backward, batch_losses, batchnorm_backward,
                            batchnorm_forward, build_network, corrupt, dense_forward,
                            encode, fold_encoder, loss_classification, loss_entropy,
                            loss_latent_variance, loss_reconstruction, parameter_vector,
                            sigmoid, total_loss, training_forward)
from claire.numerics import RngStream, substream_seed
from claire.training import TrainConfig, train_phase1
from conftest import named_parameters


def test_activations_hand_values():
    a = np.array([[2.0, -1.0]])
    out = LEAKY.apply(a)
    assert np.allclose(out, [[2.0, -0.01]])
    d_pre = LEAKY.backward(np.array([[3.0, 3.0]]), a, out)
    assert np.allclose(d_pre, [[3.0, 0.03]])
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
    total = total_loss(comp, w)
    assert total == pytest.approx(1.0 + 0.2 + 3.0 + 0.04)   # 4.24
    # weights scale their own term linearly
    t2 = total_loss(comp, LossWeights(0.2, 1.0, 0.01))
    assert t2 - total == pytest.approx(0.1 * 2.0)


def test_adam_first_step_magnitude():
    # first step with g=1: m=0.1, v=0.001, theta -= lr * 0.1/(sqrt(0.001)+1e-8)
    theta = np.array([0.5, -2.0, 0.0])
    grad = np.array([1.0, 0.0, 1.0])
    state = AdamState(learning_rate=1.0)
    adam_step(state, theta, grad)
    expected = -0.1 / (math.sqrt(0.001) + 1e-8)      # about -3.16228
    assert np.allclose(theta, [0.5 + expected, -2.0, expected], rtol=1e-9)
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
    with pytest.raises(ShapeError, match="ndim=2"):
        adam_step(state, np.zeros((2, 3)), np.zeros((2, 3)))
    assert state.first_moment is None


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
    z = encode(net, x)
    out = z
    for layer in net.decoder:
        out, _ = dense_forward(layer, out, False)
    assert out.shape == x.shape
    assert out.min() >= 0.0 and out.max() <= 1.0
    probs = dense_forward(net.classifier, z, False)[0][:, 0]
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


# ---------------------------------------------------------------------------
# Bit identity of the training step. The functions below are the plain
# formulas of the layer recipe, one temporary per operation, kept as the
# reference that the in-place, blocked code in claire.network must match
# bit for bit.

def _ref_adam(m, v, theta, grad, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    m *= beta1
    m += (1 - beta1) * grad
    v *= beta2
    v += (1 - beta2) * np.square(grad)
    theta -= lr * m / (np.sqrt(v) + eps)


def _ref_leaky(a, slope):
    return np.where(a > 0, a, slope * a)


def _ref_leaky_backward(d, a, slope):
    return d * np.where(a > 0, 1.0, slope)


def _ref_sigmoid(a):
    e = np.exp(-np.abs(a))
    denom = 1.0 + e
    return np.where(a >= 0, 1.0 / denom, e / denom)


def _ref_bn_forward(bn, a):
    mean = a.mean(axis=0)
    var = np.square(a - mean).mean(axis=0)
    bn.running_mean = bn.momentum * bn.running_mean + (1 - bn.momentum) * mean
    bn.running_var = bn.momentum * bn.running_var + (1 - bn.momentum) * var
    std = np.sqrt(var + bn.epsilon)
    normalized = (a - mean) / std
    return bn.gamma * normalized + bn.beta, normalized, std


def _ref_bn_backward(gamma, normalized, std, d_out):
    d_gamma = (d_out * normalized).sum(axis=0)
    d_beta = d_out.sum(axis=0)
    d_norm = d_out * gamma
    d_a = (d_norm - d_norm.mean(axis=0)
           - normalized * (d_norm * normalized).mean(axis=0)) / std
    return d_a, d_gamma, d_beta


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _edge_values():
    tiny = np.finfo(np.float64).tiny
    return np.array([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310,
                     tiny, -tiny, tiny / 3, -tiny / 3, 1e308, -1e308, np.nan])


@pytest.mark.parametrize("size", [1000, 2 * ADAM_BLOCK + 123])
def test_adam_step_matches_reference_bit_for_bit(size):
    rng = np.random.default_rng(size)
    theta = rng.normal(size=size)
    want_theta, want_m, want_v = theta.copy(), np.zeros(size), np.zeros(size)
    state = AdamState(learning_rate=3e-3)
    for step in range(5):
        grad = rng.normal(scale=10.0 ** (step - 2), size=size)
        grad[::97] = 0.0
        adam_step(state, theta, grad)
        _ref_adam(want_m, want_v, want_theta, grad, lr=3e-3)
    assert np.array_equal(_bits(theta), _bits(want_theta))
    assert np.array_equal(_bits(state.first_moment), _bits(want_m))
    assert np.array_equal(_bits(state.second_moment), _bits(want_v))
    assert all(buf.size == min(size, ADAM_BLOCK) for buf in state.scratch)


@pytest.mark.parametrize("slope", [0.01, 0.5, 1.0])
def test_leaky_relu_matches_where_form_bit_for_bit(slope):
    rng = np.random.default_rng(7)
    a = np.concatenate([_edge_values(), rng.normal(size=200_000),
                        rng.normal(scale=1e-310, size=1000)]).reshape(-1, 5)
    d = rng.normal(size=a.shape)
    d[-3:] = _edge_values().reshape(3, 5)
    act = Activation("leaky_relu", slope)
    out = act.apply(a)
    assert np.array_equal(_bits(out), _bits(_ref_leaky(a, slope)))
    assert np.array_equal(_bits(act.backward(d, a, out)),
                          _bits(_ref_leaky_backward(d, a, slope)))


def test_leaky_relu_slope_zero_keeps_where_form():
    # here max(a, 0 * a) would differ: 0 * inf is nan
    a = np.array([np.inf, -np.inf, 2.0, -2.0, 0.0, -0.0])
    with np.errstate(invalid="ignore"):
        out = Activation("leaky_relu", 0.0).apply(a)
        want = _ref_leaky(a, 0.0)
    assert np.array_equal(_bits(out), _bits(want))


def test_batchnorm_forward_backward_match_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    a = rng.normal(loc=rng.normal(size=37) * 5, scale=rng.uniform(0.01, 3.0, 37),
                   size=(50, 37))
    a[:, 3] = 2.5                                     # a constant column

    def state():
        r = np.random.default_rng(12)
        return BatchNormState(gamma=r.uniform(0.5, 1.5, 37), beta=r.normal(size=37),
                              running_mean=r.normal(size=37),
                              running_var=r.uniform(0.5, 2.0, 37), momentum=0.8)
    got_state, want_state = state(), state()
    out, cache = batchnorm_forward(got_state, a, training=True)
    want_out, normalized, std = _ref_bn_forward(want_state, a)
    got_normalized, got_std = cache
    for got, want in [(out, want_out), (got_normalized, normalized), (got_std, std),
                      (got_state.running_mean, want_state.running_mean),
                      (got_state.running_var, want_state.running_var)]:
        assert np.array_equal(_bits(got), _bits(want))
    d_out = rng.normal(size=a.shape)
    got = batchnorm_backward(got_state, cache, d_out)
    want = _ref_bn_backward(want_state.gamma, normalized, std, d_out)
    for g, w in zip(got, want):
        assert np.array_equal(_bits(g), _bits(w))


def _ref_layer_forward(layer, h, rng):
    a = h @ layer.weights.T + layer.bias
    normalized = std = None
    if layer.batch_norm is not None:
        a, normalized, std = _ref_bn_forward(layer.batch_norm, a)
    act = layer.activation
    out = _ref_leaky(a, act.slope) if act.kind == "leaky_relu" else _ref_sigmoid(a)
    mask = None
    if layer.dropout is not None:
        mask = rng.bernoulli(layer.dropout.keep, out.shape)
    cache = (h, a, out, normalized, std, mask)
    return (out if mask is None else mask * out), cache


def _ref_layer_backward(layer, cache, d):
    h, pre, out, normalized, std, mask = cache
    if mask is not None:
        d = d * mask
    act = layer.activation
    if act.kind == "leaky_relu":
        d_a = _ref_leaky_backward(d, pre, act.slope)
    else:
        d_a = d * (out * (1.0 - out))
    bn_grads = []
    if layer.batch_norm is not None:
        d_a, *bn_grads = _ref_bn_backward(layer.batch_norm.gamma, normalized, std, d_a)
    return d_a @ layer.weights, [d_a.T @ h, d_a.sum(axis=0), *bn_grads]


def _ref_stack(layers, h, rng):
    caches = []
    for layer in layers:
        h, cache = _ref_layer_forward(layer, h, rng)
        caches.append(cache)
    return h, caches


def _ref_stack_backward(layers, caches, d):
    grads = [None] * len(layers)
    for idx in reversed(range(len(layers))):
        d, grads[idx] = _ref_layer_backward(layers[idx], caches[idx], d)
    return d, grads


def _ref_phase1(train, cfg):
    """train_phase1's loop on the reference formulas: the same streams,
    batches and loss terms, every layer's input gradient formed."""
    net = build_network(train.n_features, list(cfg.hidden_widths), cfg.latent_dim,
                        RngStream(substream_seed(cfg.seed, "init")),
                        dropout_keep=cfg.dropout_keep, bn_momentum=cfg.bn_momentum,
                        bn_epsilon=cfg.bn_epsilon)
    theta = parameter_vector(net)
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    shuffle_rng, dropout_rng, corruption_rng = (
        RngStream(substream_seed(cfg.seed, name))
        for name in ("shuffle", "dropout", "corruption"))
    w = cfg.weights
    x_all, y_all = train.features, train.labels.astype(np.float64)
    logs = []
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(x_all.shape[0])
        sums, rows = np.zeros(5), 0
        for start in range(0, x_all.shape[0], cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            x, y = x_all[idx], y_all[idx]
            n = idx.size
            x_tilde = (np.clip(x + corruption_rng.normal(x.shape, std=cfg.corruption_std),
                               0.0, 1.0) if cfg.corruption_std > 0 else x.copy())
            z, enc_caches = _ref_stack(net.encoder, x_tilde, dropout_rng)
            x_hat, dec_caches = _ref_stack(net.decoder, z, dropout_rng)
            y_hat, clf_cache = _ref_layer_forward(net.classifier, z, None)
            comps = LossComponents(loss_reconstruction(x, x_hat), loss_latent_variance(z),
                                   loss_classification(y, y_hat), loss_entropy(y_hat))
            total = total_loss(comps, w)
            d_z, dec_grads = _ref_stack_backward(net.decoder, dec_caches,
                                                 (2.0 / n) * (x_hat - x))
            y_col = y.reshape(-1, 1)
            p = np.clip(y_hat, 1e-12, 1.0 - 1e-12)
            d_y_hat = (w.classifier_weight * (-(1.0 / n)) * (y_col / p - (1 - y_col) / (1 - p))
                       + w.entropy_weight * (-(1.0 / n)) * np.log(p / (1 - p)))
            d_z_clf, clf_grads = _ref_layer_backward(net.classifier, clf_cache, d_y_hat)
            d_z = d_z + d_z_clf
            d_z = d_z + w.latent_weight * (2.0 / (n * z.shape[1])) * (z - z.mean(axis=0))
            _, enc_grads = _ref_stack_backward(net.encoder, enc_caches, d_z)
            grad = np.concatenate([g.ravel() for layer_grads in (*enc_grads, *dec_grads,
                                                                 clf_grads)
                                   for g in layer_grads])
            _ref_adam(m, v, theta, grad, lr=cfg.learning_rate)
            sums += np.array([*comps, total]) * n
            rows += n
        logs.append(sums / rows)
    return net, np.array(logs)


@pytest.mark.parametrize("mode", ["CLAIRE", "PlainAE"])
def test_train_phase1_matches_reference_step_loop_bit_for_bit(mode):
    rng = np.random.default_rng(5)
    features = rng.uniform(size=(150, 30))
    labels = (features[:, :3].sum(axis=1) > 1.5).astype(np.int64)
    train = TabularDataset(features, labels, [f"c{j}" for j in range(30)])
    # 150 rows in batches of 40, 40, 40 and 30: 4 steps an epoch, 12 in all;
    # batch sizes that are not powers of two, so a division by n and a
    # multiplication by 1 / n round differently
    cfg = TrainConfig(mode=mode, epochs=3, batch_size=40, latent_dim=4,
                      hidden_widths=[16, 8], learning_rate=5e-3, seed=9)
    net, logs = train_phase1(train, cfg)
    want_net, want_logs = _ref_phase1(train, cfg)
    got_logs = np.array([[e.recon, e.latent, e.clf, e.ent, e.total] for e in logs])
    assert np.array_equal(_bits(got_logs), _bits(want_logs))
    for (name, got), (_, want) in zip(named_parameters(net), named_parameters(want_net)):
        assert np.array_equal(_bits(got), _bits(want)), name
    for got, want in zip([*net.encoder, *net.decoder], [*want_net.encoder, *want_net.decoder]):
        if got.batch_norm is not None:
            assert np.array_equal(_bits(got.batch_norm.running_mean),
                                  _bits(want.batch_norm.running_mean))
            assert np.array_equal(_bits(got.batch_norm.running_var),
                                  _bits(want.batch_norm.running_var))
