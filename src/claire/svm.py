"""Kernel SVM trained by sequential minimal optimization with second-order
working-set selection (Fan, Chen & Lin 2005, the LIBSVM solver).

Each step picks the pair of multipliers that most violates the KKT
conditions to first order and promises the largest dual gain to second
order, then moves it to the exact maximizer of the dual restricted to that
pair, clipped to the box, so the dual objective never decreases. The
solver stops when the two-threshold gap of Keerthi et al. 2001 falls to
``tol``; it has no random choices.

Labels are +1 / -1 inside this module. 0 / 1 mapping happens in training.

``smo_train`` solves over the distinct (row, label) pairs it is given,
each bounded by C times its copies, so an oversampled training set costs
no more than its distinct rows. Their Gram is still the largest array
``train`` makes, so ``smo_train`` keeps it out of the C heap: it first
hands the heap's free pages back to the system, then fills the Gram in an
anonymous map of its own, which goes back to the system when the Gram is
released. Its peak is then the live data plus one Gram, whatever earlier
work in the same process left in the heap.
"""
from __future__ import annotations

import ctypes
import math
import mmap
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateDataError, InputError, ShapeError
from .numerics import as_matrix, column_mean_var

SV_THRESHOLD = 1e-10
TAU = 1e-12    # curvature floor for a pair the kernel cannot tell apart
BLOCK = 1 << 15    # values per row block of the rbf kernel's distance pass
KERNELS = ("linear", "polynomial", "rbf", "sigmoid")

try:                    # glibc's; other C libraries have no such call
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def _mapped_matrix(rows: int, cols: int) -> np.ndarray:
    """An uninitialised float64 (rows, cols) array in an anonymous map of
    its own, unmapped when the array and its views are released."""
    buf = mmap.mmap(-1, max(1, rows * cols * 8))
    return np.frombuffer(buf, np.float64, rows * cols).reshape(rows, cols)


@dataclass(frozen=True)
class KernelSpec:
    """One of: linear, polynomial, rbf, sigmoid.

    gamma is the rbf width or the sigmoid slope; None means "resolve from
    the training data" (rbf: 1 / (n_features * mean feature variance);
    sigmoid: 1 / n_features). coef0 is the polynomial / sigmoid offset.
    """
    kind: str
    gamma: float | None = None
    degree: int = 3
    coef0: float = 0.0

    def __post_init__(self):
        if self.kind not in KERNELS:
            raise InputError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "polynomial" and self.degree < 1:
            raise InputError(f"polynomial degree must be >= 1, got {self.degree}")
        if self.gamma is not None and self.gamma <= 0 and self.kind == "rbf":
            raise InputError(f"rbf gamma must be positive, got {self.gamma}")

    @staticmethod
    def linear() -> "KernelSpec":
        return KernelSpec("linear")

    @staticmethod
    def polynomial(coef0: float = 1.0, degree: int = 3) -> "KernelSpec":
        return KernelSpec("polynomial", degree=degree, coef0=coef0)

    @staticmethod
    def rbf(gamma: float | None = None) -> "KernelSpec":
        return KernelSpec("rbf", gamma=gamma)

    @staticmethod
    def sigmoid(gamma: float | None = None, coef0: float = 0.0) -> "KernelSpec":
        return KernelSpec("sigmoid", gamma=gamma, coef0=coef0)


def resolve_kernel(spec: KernelSpec, train_features: np.ndarray) -> KernelSpec:
    """Fill in a data-dependent gamma where the spec left it open."""
    if spec.gamma is not None or spec.kind in ("linear", "polynomial"):
        return spec
    x = as_matrix(train_features)
    if spec.kind == "rbf":
        _, var = column_mean_var(x)
        denom = x.shape[1] * float(var.mean())
        gamma = 1.0 / denom if denom > 1e-12 else 1.0
    else:
        gamma = 1.0 / x.shape[1]
    return replace(spec, gamma=gamma)


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Kernel values for every row pair, shape (rows(a), rows(b)).

    One buffer: every kind is finished inside the array that ``a @ b.T``
    fills (``out`` when given, a C-ordered float64 array of that shape,
    else a new one), so the only other memory is a row block of about
    ``BLOCK`` values (rbf). Each value takes the same operations in the
    same order as the whole-matrix formulas, so the bits are theirs.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[1]:
        raise ShapeError(f"feature widths differ: {a.shape[1]} vs {b.shape[1]}")
    out = np.matmul(a, b.T, out=out)
    if spec.kind == "polynomial":
        out += spec.coef0
        out **= spec.degree
    elif spec.kind == "sigmoid":
        out *= spec.gamma
        out += spec.coef0
        np.tanh(out, out=out)
    elif spec.kind == "rbf":
        # |a_i - b_j|^2 = (|a_i|^2 + |b_j|^2) - 2 a_i.b_j, clamped at 0
        sq_a, sq_b = np.square(a).sum(axis=1), np.square(b).sum(axis=1)
        step = max(1, BLOCK // max(1, out.shape[1]))
        for r in range(0, out.shape[0], step):
            blk = out[r:r + step]
            blk *= 2.0
            np.subtract(sq_a[r:r + step, None] + sq_b[None, :], blk, out=blk)
            np.maximum(blk, 0.0, out=blk)
            if a is b:
                np.fill_diagonal(blk[:, r:], 0.0)
            blk *= -spec.gamma
            np.exp(blk, out=blk)
    return out


@dataclass
class SvmModel:
    """Trained classifier: support vectors with their signed multipliers.

    dual_coef[i] = alpha_i * y_i for support vector i (alpha_i > 1e-10), and
    support_indices[i] is its index among the rows ``smo_train`` was given,
    copies included. ``converged`` is False when the update budget ran out
    before the KKT gap fell to the tolerance; the model is still usable.
    ``n_sweeps`` counts the pair updates the solver made and ``kkt_gap`` is
    its final gap m - M. Bundles store the gap; one written before they
    did loads with NaN.
    """
    kernel: KernelSpec
    c: float
    support_vectors: np.ndarray
    dual_coef: np.ndarray
    support_indices: np.ndarray
    bias: float
    converged: bool
    n_sweeps: int
    kkt_gap: float = math.nan


def decision_function(model: SvmModel, z: np.ndarray) -> np.ndarray:
    """Signed decision values for each row of z."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        z = z[None, :]
    k = kernel_matrix(model.kernel, model.support_vectors, z)
    return model.dual_coef @ k + model.bias


def predict_labels(model: SvmModel, z: np.ndarray) -> np.ndarray:
    """0/1 labels; a decision value of exactly 0 maps to +1, i.e. label 1."""
    return (decision_function(model, z) >= 0.0).astype(np.int64)


def _clip_pair(differ: bool, old_i: float, old_j: float, step: float,
               c_i: float, c_j: float) -> tuple[float, float]:
    """The pair (a_i, a_j) moved by ``step`` along its constraint line, both
    up when the labels differ (a_i - a_j fixed), else a_i down and a_j up
    (a_i + a_j fixed), then clipped back into the box [0, c_i] x [0, c_j]:
    LIBSVM's two-bound clip (Chang & Lin 2011), which is the one-bound clip
    when c_i == c_j."""
    if differ:
        diff = old_i - old_j
        a_i, a_j = old_i + step, old_j + step
        if diff > 0:
            if a_j < 0:
                a_i, a_j = diff, 0.0
        elif a_i < 0:
            a_i, a_j = 0.0, -diff
        if diff > c_i - c_j:
            if a_i > c_i:
                a_i, a_j = c_i, c_i - diff
        elif a_j > c_j:
            a_i, a_j = c_j + diff, c_j
    else:
        total = old_i + old_j
        a_i, a_j = old_i - step, old_j + step
        if total > c_i:
            if a_i > c_i:
                a_i, a_j = c_i, total - c_i
        elif a_j < 0:
            a_i, a_j = total, 0.0
        if total > c_j:
            if a_j > c_j:
                a_i, a_j = total - c_j, c_j
        elif a_i < 0:
            a_i, a_j = 0.0, total
    return a_i, a_j


def _pair_updates(gram: np.ndarray, y: np.ndarray, c):
    """The solver's iterates, without end. Yields (alpha, G, gap) for
    alpha = 0 and after each pair update, then makes the next update when
    resumed; alpha and G are the solver's own arrays, updated in place.

    Minimizes 0.5 a'Qa - sum(a) over 0 <= a_k <= C_k, y'a = 0, with
    Q_ij = y_i y_j K_ij and C the bound ``c``, one for every row or one per
    row, keeping the gradient G = Qa - 1. Each update takes i as the worst
    violator in I_up = {a < C, y = +1} | {a > 0, y = -1}, i.e. the row with
    the largest -y G, then j in I_low (the mirror set) with the largest
    second-order gain b^2 / a, where b is the violation of the pair and
    a = K_ii + K_jj - 2 K_ij its curvature. The pair moves to the clipped
    maximizer of the dual along y_i a_i + y_j a_j = const (``_clip_pair``),
    and G follows in O(n) from Gram rows i and j. ``gap`` is m - M, the
    largest -y G over I_up less the smallest over I_low.
    """
    diag = gram.diagonal()
    positive = y > 0
    bound = np.broadcast_to(np.asarray(c, dtype=np.float64), y.shape)
    alpha = np.zeros(y.shape[0])
    grad = -np.ones(y.shape[0])
    while True:
        score = -y * grad
        up = np.where(positive, alpha < bound, alpha > 0)
        low = np.where(positive, alpha > 0, alpha < bound)
        score_up = np.where(up, score, -np.inf)
        i = int(np.argmax(score_up))
        top = score_up[i]
        yield alpha, grad, float(top - np.where(low, score, np.inf).min())

        # j: the I_low row whose pair with i promises the largest decrease
        k_i = gram[i]
        curv = diag[i] + diag - 2.0 * k_i
        curv[curv <= 0] = TAU
        viol = top - score
        gain = np.where(low & (viol > 0), viol * viol / curv, -1.0)
        j = int(np.argmax(gain))

        old_i, old_j = alpha[i], alpha[j]
        differ = y[i] != y[j]
        step = ((-grad[i] - grad[j]) if differ else (grad[i] - grad[j])) / curv[j]
        a_i, a_j = _clip_pair(differ, old_i, old_j, step, float(bound[i]), float(bound[j]))
        alpha[i], alpha[j] = a_i, a_j
        # Q rows on demand: Q_k = y_k * y * K_k
        grad += y * (y[i] * (a_i - old_i) * k_i + y[j] * (a_j - old_j) * gram[j])


def _distinct_rows(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each bit-identical (row, label) group, in the order
    the groups first appear, and each row's group number in that order."""
    keys = np.ascontiguousarray(np.column_stack([x, y]))
    keys = keys.view(np.dtype((np.void, keys.dtype.itemsize * keys.shape[1]))).ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[group.reshape(-1)]


def _copy_alphas(merged: np.ndarray, group: np.ndarray, c: float) -> np.ndarray:
    """One multiplier per given row: a group's merged multiplier a fills its
    copies up to C in input order, copy q getting min(C, max(0, a - q C))."""
    rows = np.argsort(group, kind="stable")
    starts = np.searchsorted(group[rows], group[rows])
    copy = np.empty_like(group)
    copy[rows] = np.arange(group.size) - starts
    return np.minimum(c, np.maximum(0.0, merged[group] - copy * c))


def smo_train(features: np.ndarray, y: np.ndarray, kernel: KernelSpec,
              c: float = 1.0, tol: float = 1e-3, max_passes: int = 100) -> SvmModel:
    """Train on labels in {-1, +1} by the pair updates of ``_pair_updates``.

    m copies of one (row, label) enter the dual only through the sum of
    their multipliers, which lies in [0, m C]. So the solve runs over the
    bit-distinct (row, label) pairs, each bounded by C times its copies
    (the instance-weighted C-SVM of Osuna, Freund & Girosi 1997), with a
    Gram of the distinct rows only; without copies, every bound is C. An
    open gamma is resolved on every row given. ``_copy_alphas`` then gives
    each given row a multiplier of at most C.

    Stops successfully (converged=True) when the gap m - M is at most
    ``tol``, or gives up (converged=False) after ``max_passes * n`` pair
    updates, n counting the rows given, copies included. The bias is
    recomputed at the end from the multipliers strictly inside their own
    bounds, falling back to the midpoint of the feasible interval the bound
    multipliers imply.
    """
    x = as_matrix(features, "training features")
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if y.shape[0] != x.shape[0]:
        raise ShapeError(f"{y.shape[0]} labels for {x.shape[0]} rows")
    classes = set(np.unique(y))
    if classes != {-1.0, 1.0}:
        raise DegenerateDataError(
            f"training needs both classes -1 and +1, got {sorted(classes)}")
    if c <= 0:
        raise InputError(f"penalty C must be positive, got {c}")
    if tol <= 0:
        raise InputError(f"stopping tolerance must be positive, got {tol}")

    kernel = resolve_kernel(kernel, x)
    first, group = _distinct_rows(x, y)
    xd, yd, bound = x[first], y[first], c * np.bincount(group)
    if _malloc_trim is not None:     # the heap's free pages go back to the system
        _malloc_trim(0)
    gram = kernel_matrix(kernel, xd, xd, out=_mapped_matrix(xd.shape[0], xd.shape[0]))
    updates = 0
    for merged, _, gap in _pair_updates(gram, yd, bound):
        if gap <= tol or updates >= max_passes * x.shape[0]:
            break
        updates += 1

    # final bias per the KKT system
    g = (merged * yd) @ gram
    at_zero, at_bound = merged <= 1e-8 * bound, merged >= bound * (1 - 1e-8)
    unbounded = ~at_zero & ~at_bound
    if unbounded.any():
        b = float(np.mean(yd[unbounded] - g[unbounded]))
    else:
        # every multiplier is at a bound. Neither set is empty: that needs one
        # class all at its bounds and the other all at 0, so y'alpha != 0,
        # while the pair updates keep y'alpha = 0 and both classes are present
        margins = yd - g
        lower_set = (at_zero & (yd > 0)) | (at_bound & (yd < 0))
        upper_set = (at_zero & (yd < 0)) | (at_bound & (yd > 0))
        b = float(0.5 * (margins[lower_set].max() + margins[upper_set].min()))

    alpha = _copy_alphas(merged, group, c)
    sv_mask = alpha > SV_THRESHOLD
    return SvmModel(
        kernel=kernel, c=float(c),
        support_vectors=x[sv_mask].copy(),
        dual_coef=(alpha * y)[sv_mask],
        support_indices=np.flatnonzero(sv_mask),
        bias=b, converged=bool(gap <= tol), n_sweeps=updates, kkt_gap=gap,
    )


def full_alphas(model: SvmModel, n_train: int) -> np.ndarray:
    """Expand the stored support multipliers back to one alpha per row."""
    alpha = np.zeros(n_train)
    alpha[model.support_indices] = np.abs(model.dual_coef)
    return alpha


def kkt_violation(model: SvmModel, features: np.ndarray, y: np.ndarray) -> float:
    """Largest KKT violation over the training set, recomputed from the
    model's decision values alone. The traced benchmark reports it as
    ``svm.kkt_gap``: an independent check on the gap the solver stopped at."""
    x = as_matrix(features)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    alpha = full_alphas(model, x.shape[0])
    gap = y * decision_function(model, x) - 1.0
    # alpha = 0 needs margin >= 1, alpha = C needs <= 1, a free alpha needs == 1;
    # -(m - 1) has the bits of 1 - m up to the sign of zero, which max drops
    violation = np.select([alpha <= SV_THRESHOLD, alpha >= model.c - 1e-8], [-gap, gap],
                          np.abs(gap))
    return max(0.0, float(violation.max()))
