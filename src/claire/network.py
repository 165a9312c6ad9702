"""Denoising autoencoder with a joint classifier head, from scratch.

Layer recipe: affine, then batch normalization, then activation, then
dropout. Hidden and latent layers use LeakyReLU; the decoder output layer
and the classifier head use a sigmoid and carry neither batch norm nor
dropout (so reconstructions stay inside (0, 1) in every mode).

Batch norm keeps running statistics (momentum 0.9 by default) for
inference and uses population batch statistics while training. Dropout is
the non-inverted kind: a Bernoulli(keep) 0/1 mask multiplies activations
during training, and inference multiplies activations by keep instead.

The optimizer is Adam in its plain recurrence without bias correction,
run over one parameter vector (``parameter_vector``) that holds every
weight, bias, gamma and beta, each layer keeping a view of its part:

    m <- beta1 * m + (1 - beta1) * g
    v <- beta2 * v + (1 - beta2) * g^2
    theta <- theta - lr * m / (sqrt(v) + eps)

with the usual beta1 = 0.9, beta2 = 0.999 and eps = 1e-8 as constants.

``adam_step`` applies it in blocks of ``ADAM_BLOCK`` elements through two
scratch buffers that ``AdamState`` owns, so each block of the four vectors
stays in cache across the five updates and no vector-sized temporary is
made. Each element sees the same operations in the same order as the
unblocked form above, so the result is the same bit for bit.

The training step is written to give the same float64 bits as the plain
formulas with fewer passes over memory: batch norm centres its input once
and normalizes that block in place, column means are column sums over n
(which is what ``np.mean`` computes), and LeakyReLU is a ``maximum``. The
encoder's first layer reads the data, so ``backward`` never forms that
layer's input gradient (d_a @ W, about a seventh of a step's matmul work
on a 560-column table). Layer caches are tuples and the loss terms a
named tuple, so a step builds no dict.

The joint objective is

    L_total = L_recon + latent_weight * L_latent
            + classifier_weight * L_clf + entropy_weight * L_ent

where L_recon is the batch mean of squared reconstruction norms against the
clean inputs, L_latent is the mean over latent dimensions of the population
variance of each latent coordinate, L_clf is binary cross entropy, and
L_ent is the mean prediction entropy. ``backward`` returns the analytic
gradient of L_total in the layout of the parameter vector, including the
paths through batch statistics, dropout masks and the variance penalty.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDataError, ShapeError, StateError
from .numerics import RngStream, as_matrix

LOG_CLAMP = 1e-12
ACTIVATIONS = ("leaky_relu", "sigmoid", "linear")


@dataclass(frozen=True)
class Activation:
    kind: str                 # one of ACTIVATIONS
    slope: float = 0.01       # leaky_relu only

    def apply(self, a: np.ndarray) -> np.ndarray:
        if self.kind == "leaky_relu":
            # for 0 < slope <= 1, max(a, slope * a) is where(a > 0, a, slope * a)
            # bit for bit (signed zeros, infinities and subnormals included)
            # in one pass; at slope 0 they differ (0 * inf), so it keeps where
            if 0.0 < self.slope <= 1.0:
                return np.maximum(a, self.slope * a)
            return np.where(a > 0, a, self.slope * a)
        if self.kind == "sigmoid":
            return sigmoid(a)
        if self.kind == "linear":
            return a
        raise StateError(f"unknown activation kind {self.kind!r}")

    def backward(self, d: np.ndarray, a: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Gradient with respect to the pre-activation ``a``, given the
        gradient ``d`` with respect to the output ``out``."""
        if self.kind == "leaky_relu":
            return np.where(a > 0, d, self.slope * d)
        if self.kind == "sigmoid":
            return d * (out * (1.0 - out))
        if self.kind == "linear":
            return d
        raise StateError(f"unknown activation kind {self.kind!r}")


LEAKY = Activation("leaky_relu", 0.01)
SIGMOID = Activation("sigmoid")


def sigmoid(a: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: exp(-|a|) never overflows, and
    each side divides its numerator (1 or exp(-|a|)) by 1 + exp(-|a|)."""
    e = np.abs(a)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(a >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


@dataclass
class BatchNormState:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.9
    epsilon: float = 1e-5


@dataclass
class DropoutState:
    keep: float

    def __post_init__(self):
        if not 0.0 < self.keep <= 1.0:
            raise StateError(f"dropout keep probability must be in (0, 1], got {self.keep}")


@dataclass
class DenseLayer:
    weights: np.ndarray          # (out, in)
    bias: np.ndarray             # (out,)
    activation: Activation
    batch_norm: BatchNormState | None = None
    dropout: DropoutState | None = None


@dataclass
class NetworkParams:
    encoder: list[DenseLayer]
    decoder: list[DenseLayer]
    classifier: DenseLayer
    input_dim: int
    latent_dim: int


def build_network(input_dim: int, hidden_widths: list[int], latent_dim: int,
                  rng: RngStream, dropout_keep: float = 0.7,
                  bn_momentum: float = 0.9, bn_epsilon: float = 1e-5) -> NetworkParams:
    """Assemble encoder input->hidden...->latent, a mirrored decoder, and a
    one-unit sigmoid classifier head. Weights are seeded He-style normals.
    """
    if input_dim < 1 or latent_dim < 1 or any(w < 1 for w in hidden_widths):
        raise ShapeError("all layer widths must be positive")

    def dense(n_in, n_out, act, with_bn, with_dropout):
        std = np.sqrt(2.0 / n_in) if act.kind == "leaky_relu" else np.sqrt(1.0 / n_in)
        bn = None
        if with_bn:
            bn = BatchNormState(gamma=np.ones(n_out), beta=np.zeros(n_out),
                                running_mean=np.zeros(n_out), running_var=np.ones(n_out),
                                momentum=bn_momentum, epsilon=bn_epsilon)
        drop = DropoutState(dropout_keep) if with_dropout and dropout_keep < 1.0 else None
        return DenseLayer(weights=rng.normal((n_out, n_in), std=std),
                          bias=np.zeros(n_out), activation=act,
                          batch_norm=bn, dropout=drop)

    enc_widths = [input_dim, *hidden_widths, latent_dim]
    encoder = [dense(enc_widths[i], enc_widths[i + 1], LEAKY, True, True)
               for i in range(len(enc_widths) - 1)]
    dec_widths = [latent_dim, *reversed(hidden_widths), input_dim]
    decoder = [dense(dec_widths[i], dec_widths[i + 1], LEAKY, True, True)
               for i in range(len(dec_widths) - 2)]
    decoder.append(dense(dec_widths[-2], dec_widths[-1], SIGMOID, False, False))
    classifier = dense(latent_dim, 1, SIGMOID, False, False)
    return NetworkParams(encoder, decoder, classifier, input_dim, latent_dim)


def batchnorm_forward(state: BatchNormState, a: np.ndarray,
                      training: bool) -> tuple[np.ndarray, tuple | None]:
    """Normalize per column. Training uses population batch statistics,
    updates the running estimates in place and returns the cache
    (normalized, std); inference uses the running ones and returns None.
    """
    a = as_matrix(a, "batch norm input")
    if training:
        if a.shape[0] < 2:
            raise DegenerateDataError(
                f"batch norm in training mode needs at least 2 rows, got {a.shape[0]}")
        # column sums over n are np.mean's own arithmetic, bit for bit
        n = a.shape[0]
        mean = a.sum(axis=0) / n
        normalized = a - mean               # centred here, normalized below
        var = np.square(normalized).sum(axis=0) / n
        state.running_mean = state.momentum * state.running_mean + (1 - state.momentum) * mean
        state.running_var = state.momentum * state.running_var + (1 - state.momentum) * var
        std = np.sqrt(var + state.epsilon)
        normalized /= std
        out = normalized * state.gamma
        out += state.beta
        return out, (normalized, std)
    std = np.sqrt(state.running_var + state.epsilon)
    normalized = (a - state.running_mean) / std
    return state.gamma * normalized + state.beta, None


def batchnorm_backward(state: BatchNormState, cache: tuple,
                       d_out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients through training-mode batch norm, including the dependence
    of the batch mean and variance on every row.
    """
    normalized, std = cache
    n = d_out.shape[0]
    scratch = d_out * normalized
    d_gamma = scratch.sum(axis=0)
    d_beta = d_out.sum(axis=0)
    # d_a = (d_norm - mean(d_norm) - normalized * mean(d_norm * normalized)) / std,
    # evaluated in that order in place; sum / n is np.mean bit for bit
    d_a = d_out * state.gamma
    np.multiply(d_a, normalized, out=scratch)
    mean_dn_norm = scratch.sum(axis=0) / n
    d_a -= d_a.sum(axis=0) / n
    np.multiply(normalized, mean_dn_norm, out=scratch)
    d_a -= scratch
    d_a /= std
    return d_a, d_gamma, d_beta


def dense_forward(layer: DenseLayer, h_in: np.ndarray, training: bool,
                  rng: RngStream | None = None) -> tuple[np.ndarray, tuple | None]:
    """One layer: affine, optional batch norm, activation, optional dropout.

    Returns (output, cache). The cache is only built in training mode: the
    tuple (h_in, pre_act, post_act, bn_cache, mask) that the backward pass
    needs, with None for a batch norm or dropout the layer does not have.
    """
    h_in = as_matrix(h_in, "layer input")
    if h_in.shape[1] != layer.weights.shape[1]:
        raise ShapeError(
            f"layer expects {layer.weights.shape[1]} inputs, got {h_in.shape[1]}")
    a = h_in @ layer.weights.T
    a += layer.bias
    bn_cache = None
    if layer.batch_norm is not None:
        u, bn_cache = batchnorm_forward(layer.batch_norm, a, training)
    else:
        u = a
    h_act = layer.activation.apply(u)
    mask = None
    if layer.dropout is not None:
        if training:
            if rng is None:
                raise StateError("training-mode dropout needs an RngStream")
            mask = rng.bernoulli(layer.dropout.keep, h_act.shape)
            h_out = mask * h_act
        else:
            h_out = layer.dropout.keep * h_act
    else:
        h_out = h_act
    if not training:
        return h_out, None
    return h_out, (h_in, u, h_act, bn_cache, mask)


def dense_backward(layer: DenseLayer, cache: tuple, d_out: np.ndarray,
                   input_grad: bool = True) -> tuple[np.ndarray | None, list[np.ndarray]]:
    """Gradients for one layer. Returns (d_input, [weights, bias[, gamma, beta]]);
    d_input is None when ``input_grad`` is false, as for a network's first
    layer, whose input is data."""
    if cache is None:
        raise StateError("dense_backward needs a training-mode cache")
    h_in, pre_act, post_act, bn_cache, mask = cache
    d = d_out if mask is None else d_out * mask
    d_u = layer.activation.backward(d, pre_act, post_act)
    d_a, bn_grads = d_u, []
    if layer.batch_norm is not None:
        d_a, *bn_grads = batchnorm_backward(layer.batch_norm, bn_cache, d_u)
    d_in = d_a @ layer.weights if input_grad else None
    return d_in, [d_a.T @ h_in, d_a.sum(axis=0), *bn_grads]


def _stack_forward(layers, x, training, rng):
    caches = [] if training else None
    h = x
    for layer in layers:
        h, cache = dense_forward(layer, h, training, rng)
        if training:
            caches.append(cache)
    return h, caches


def encode(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """Inference-mode latent codes."""
    z, _ = _stack_forward(params.encoder, x, False, None)
    return z


FoldedLayer = tuple[np.ndarray, np.ndarray, Activation]      # weights, bias, activation


def fold_encoder(params: NetworkParams) -> tuple[list[FoldedLayer], float]:
    """The inference-mode encoder as one affine map and activation per layer.

    Inference batch norm is affine, so it folds into its layer's weights and
    bias; each dropout keep scales the activations that the next layer's
    weights read, so it folds into those weights. Returns the (weights,
    bias, activation) layers and the last layer's keep, which scales the
    output: encode(x) equals out_scale * h after h = act(h @ W.T + b) per
    layer, up to rounding.
    """
    layers = []
    scale = 1.0
    for layer in params.encoder:
        weights, bias = layer.weights * scale, layer.bias
        bn = layer.batch_norm
        if bn is not None:
            gain = bn.gamma / np.sqrt(bn.running_var + bn.epsilon)
            weights = weights * gain[:, None]
            bias = (bias - bn.running_mean) * gain + bn.beta
        layers.append((weights, bias, layer.activation))
        scale = layer.dropout.keep if layer.dropout is not None else 1.0
    return layers, scale


@dataclass
class ForwardPass:
    """Training-mode forward results plus the caches backward needs."""
    z: np.ndarray
    x_hat: np.ndarray
    y_hat: np.ndarray            # column vector (n, 1)
    encoder_caches: list | None
    decoder_caches: list | None
    classifier_cache: tuple | None


def training_forward(params: NetworkParams, x_corrupted: np.ndarray,
                     rng: RngStream) -> ForwardPass:
    z, enc_caches = _stack_forward(params.encoder, x_corrupted, True, rng)
    x_hat, dec_caches = _stack_forward(params.decoder, z, True, rng)
    y_hat, clf_cache = dense_forward(params.classifier, z, True)
    return ForwardPass(z, x_hat, y_hat, enc_caches, dec_caches, clf_cache)


def corrupt(x: np.ndarray, noise_std: float, rng: RngStream) -> np.ndarray:
    """Additive Gaussian corruption clipped back to [0, 1].

    noise_std == 0 is exactly the identity and consumes no randomness.
    """
    x = as_matrix(x, "corruption input")
    if noise_std < 0:
        raise ShapeError(f"noise_std must be non-negative, got {noise_std}")
    if noise_std == 0.0:
        return x.copy()
    noisy = rng.normal(x.shape, std=noise_std)
    noisy += x
    return np.clip(noisy, 0.0, 1.0, out=noisy)


@dataclass(frozen=True)
class LossWeights:
    latent_weight: float = 0.1
    classifier_weight: float = 1.0
    entropy_weight: float = 0.01


class LossComponents(NamedTuple):
    """Unweighted loss terms from one batch."""
    recon: float
    latent: float
    clf: float
    ent: float


def loss_reconstruction(x_clean: np.ndarray, x_hat: np.ndarray) -> float:
    x_clean = as_matrix(x_clean)
    x_hat = as_matrix(x_hat)
    if x_clean.shape != x_hat.shape:
        raise ShapeError(f"shapes differ: {x_clean.shape} vs {x_hat.shape}")
    return float(np.square(x_clean - x_hat).sum(axis=1).mean())


def loss_latent_variance(z: np.ndarray) -> float:
    """Mean over latent dimensions of the population variance of each one."""
    z = as_matrix(z)
    var = np.square(z - z.mean(axis=0)).mean(axis=0)
    return float(var.mean())


def _clamped(y_hat: np.ndarray) -> np.ndarray:
    return np.clip(y_hat, LOG_CLAMP, 1.0 - LOG_CLAMP)


def loss_classification(y: np.ndarray, y_hat: np.ndarray) -> float:
    """Binary cross entropy with probability clamping at 1e-12."""
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    p = _clamped(np.asarray(y_hat, dtype=np.float64).reshape(-1))
    if y.shape != p.shape:
        raise ShapeError(f"shapes differ: {y.shape} vs {p.shape}")
    return float(-(y * np.log(p) + (1 - y) * np.log(1 - p)).mean())


def loss_entropy(y_hat: np.ndarray) -> float:
    """Mean binary entropy of the predicted probabilities."""
    p = _clamped(np.asarray(y_hat, dtype=np.float64).reshape(-1))
    return float(-(p * np.log(p) + (1 - p) * np.log(1 - p)).mean())


def total_loss(components: LossComponents, weights: LossWeights) -> float:
    """Weighted sum of the four terms. It checks nothing: the training loop
    guards the terms and the total."""
    return float(components.recon
                 + weights.latent_weight * components.latent
                 + weights.classifier_weight * components.clf
                 + weights.entropy_weight * components.ent)


def batch_losses(fwd: ForwardPass, x_clean: np.ndarray, y: np.ndarray) -> LossComponents:
    return LossComponents(
        recon=loss_reconstruction(x_clean, fwd.x_hat),
        latent=loss_latent_variance(fwd.z),
        clf=loss_classification(y, fwd.y_hat),
        ent=loss_entropy(fwd.y_hat),
    )


def _stack_backward(layers, caches, d_out, input_grad=True):
    """Backward through a stack of layers. Returns d_input (None unless
    ``input_grad``) and each layer's gradient list, in layer order."""
    grads = [None] * len(layers)
    d = d_out
    for idx in reversed(range(len(layers))):
        d, grads[idx] = dense_backward(layers[idx], caches[idx], d,
                                       input_grad=input_grad or idx > 0)
    return d, grads


def backward(params: NetworkParams, fwd: ForwardPass, x_clean: np.ndarray,
             y: np.ndarray, weights: LossWeights) -> np.ndarray:
    """Analytic gradient of the weighted total loss, as one vector in the
    layout of ``parameter_vector``.
    """
    if fwd.encoder_caches is None:
        raise StateError("backward needs a training-mode forward (caches missing)")
    x_clean = as_matrix(x_clean)
    n, k = fwd.z.shape
    y_col = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    if y_col.shape[0] != n:
        raise ShapeError(f"{y_col.shape[0]} labels for a batch of {n}")

    # reconstruction path back to the latent code
    d_x_hat = fwd.x_hat - x_clean
    d_x_hat *= 2.0 / n
    d_z, dec_grads = _stack_backward(params.decoder, fwd.decoder_caches, d_x_hat)

    # classification and entropy paths through the sigmoid head
    p = _clamped(fwd.y_hat)
    d_y_hat = (weights.classifier_weight * (-(1.0 / n)) * (y_col / p - (1 - y_col) / (1 - p))
               + weights.entropy_weight * (-(1.0 / n)) * np.log(p / (1 - p)))
    d_z_clf, clf_grads = dense_backward(params.classifier, fwd.classifier_cache, d_y_hat)
    d_z += d_z_clf

    # variance penalty acts on the latent code directly
    centred = fwd.z - fwd.z.mean(axis=0)
    centred *= weights.latent_weight * (2.0 / (n * k))
    d_z += centred

    # the encoder's input is data: its gradient is never formed
    _, enc_grads = _stack_backward(params.encoder, fwd.encoder_caches, d_z,
                                   input_grad=False)
    return np.concatenate([g.ravel() for layer_grads in (*enc_grads, *dec_grads, clf_grads)
                           for g in layer_grads])


def _parameter_slots(params: NetworkParams):
    """(name, owner, attribute) of every trainable array, in the one order
    that names, the parameter vector and gradients share."""
    prefixed = [*((f"encoder.{i}", layer) for i, layer in enumerate(params.encoder)),
                *((f"decoder.{i}", layer) for i, layer in enumerate(params.decoder)),
                ("classifier", params.classifier)]
    for prefix, layer in prefixed:
        yield f"{prefix}.weights", layer, "weights"
        yield f"{prefix}.bias", layer, "bias"
        if layer.batch_norm is not None:
            yield f"{prefix}.gamma", layer.batch_norm, "gamma"
            yield f"{prefix}.beta", layer.batch_norm, "beta"


def parameter_vector(params: NetworkParams) -> np.ndarray:
    """Move every trainable array into one contiguous float64 vector, in
    ``_parameter_slots`` order, and leave each layer holding a view of its
    part: an in-place update of the vector is an update of the network.
    """
    slots = list(_parameter_slots(params))
    arrays = [getattr(owner, attr) for _, owner, attr in slots]
    theta = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
    offset = 0
    for (_, owner, attr), a in zip(slots, arrays):
        setattr(owner, attr, theta[offset:offset + a.size].reshape(a.shape))
        offset += a.size
    return theta


# Adam walks the parameter vector in blocks of this many float64s: 128 KiB
# per array, so a block of theta, the gradient, both moments and the two
# scratch buffers (768 KiB) stays in a 1-2 MiB L2 cache between passes.
ADAM_BLOCK = 16384

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """Plain Adam at one learning rate: the moments over the parameter
    vector and two block-sized scratch buffers, all allocated on the first
    step. No bias correction."""
    learning_rate: float = 1e-3
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None
    scratch: tuple[np.ndarray, np.ndarray] | None = None


def adam_step(state: AdamState, theta: np.ndarray, grad: np.ndarray) -> None:
    """One in-place update of the parameter vector from its gradient.

    Every element sees the operations of the recurrence in the module
    docstring, in this order: m * beta1 + (1 - beta1) * g, then
    v * beta2 + (1 - beta2) * g^2, then theta - (lr * m) / (sqrt(v) + eps).
    """
    if grad.shape != theta.shape:
        raise ShapeError(f"gradient shape {grad.shape} does not match parameters {theta.shape}")
    if theta.ndim != 1:
        raise ShapeError(f"adam_step updates a parameter vector, got ndim={theta.ndim}")
    if state.first_moment is None:
        state.first_moment, state.second_moment = np.zeros_like(theta), np.zeros_like(theta)
        width = min(ADAM_BLOCK, theta.size)
        state.scratch = (np.empty(width), np.empty(width))
    b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, state.learning_rate, ADAM_EPSILON
    for lo in range(0, theta.size, ADAM_BLOCK):
        block = slice(lo, lo + ADAM_BLOCK)
        t, g = theta[block], grad[block]
        m, v = state.first_moment[block], state.second_moment[block]
        a, b = state.scratch[0][:t.size], state.scratch[1][:t.size]
        m *= b1
        np.multiply(g, 1 - b1, out=a)
        m += a
        v *= b2
        np.square(g, out=a)
        a *= 1 - b2
        v += a
        np.multiply(m, lr, out=a)
        np.sqrt(v, out=b)
        b += eps
        a /= b
        t -= a
