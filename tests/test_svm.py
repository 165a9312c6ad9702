"""Kernels and the SMO solver, checked against closed forms and a grid oracle.

The oracle maximizes the dual directly: eliminate the equality constraint by
pinning the last multiplier, then run a multi-resolution grid search over the
free ones. The dual is concave, so re-centering on the best feasible point
each round converges to the global maximum. It shares no code with the
solver, including the Gram matrix.
"""
import itertools
import math

import numpy as np
import pytest

from claire.errors import DegenerateDataError, InputError, ShapeError
import claire.svm as svm_mod
from claire.svm import (BLOCK, SV_THRESHOLD, KernelSpec, SvmModel, _clip_pair, _pair_updates,
                        decision_function, full_alphas, kernel_matrix, kkt_violation,
                        predict_labels, resolve_kernel, smo_train)

from conftest import peak_bytes


def kernel_eval(spec, u, v):
    """Kernel value for a single pair of vectors."""
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    v = np.asarray(v, dtype=np.float64).reshape(-1)
    if spec.kind == "linear":
        return float(u @ v)
    if spec.kind == "polynomial":
        return float((u @ v + spec.coef0) ** spec.degree)
    if spec.kind == "rbf":
        diff = u - v
        return float(np.exp(-spec.gamma * (diff @ diff)))
    return float(np.tanh(spec.gamma * (u @ v) + spec.coef0))


def dual_objective(gram, y, alpha):
    """Maximized dual: sum(alpha) - 0.5 * (alpha*y)' K (alpha*y)."""
    coef = alpha * y
    return float(alpha.sum() - 0.5 * coef @ gram @ coef)


def oracle_gram(x, kind, gamma=1.0):
    if kind == "linear":
        return x @ x.T
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
    return np.exp(-gamma * d2)


def grid_qp_duals(gram, y, c, rounds=14, points=13):
    """Best feasible multipliers for a tiny dual QP by grid refinement."""
    n = len(y)
    free = n - 1
    center = np.full(free, c / 2.0)
    width = c / 2.0
    best, best_val = None, -np.inf
    for _ in range(rounds):
        axes = [np.linspace(max(0.0, center[i] - width), min(c, center[i] + width),
                            points) for i in range(free)]
        for combo in itertools.product(*axes):
            a = np.empty(n)
            a[:free] = combo
            a[-1] = -y[-1] * float(np.dot(y[:free], combo))
            if a[-1] < -1e-9 or a[-1] > c + 1e-9:
                continue
            a[-1] = min(max(a[-1], 0.0), c)
            coef = a * y
            val = a.sum() - 0.5 * coef @ gram @ coef
            if val > best_val:
                best_val, best = val, a.copy()
        center = best[:free].copy()
        width = width * 4.0 / (points - 1)
    return best, best_val


XOR_X = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
XOR_Y = np.array([1.0, 1.0, -1.0, -1.0])
# by symmetry all four multipliers equal a, objective 4a - 2a^2 (1 - e^-1)^2
XOR_ALPHA = (1.0 - math.exp(-1.0)) ** -2


def test_kernel_hand_values():
    u = np.array([0.0, 0.0])
    v = np.array([1.0, 0.0])
    assert kernel_eval(KernelSpec.rbf(1.0), u, v) == pytest.approx(math.exp(-1.0))
    assert kernel_eval(KernelSpec.rbf(2.0), u, u) == 1.0
    assert kernel_eval(KernelSpec.linear(), np.array([1.0, 2.0]),
                       np.array([3.0, 4.0])) == pytest.approx(11.0)
    assert kernel_eval(KernelSpec.polynomial(coef0=1.0, degree=3),
                       np.array([1.0]), np.array([2.0])) == pytest.approx(27.0)
    assert kernel_eval(KernelSpec.sigmoid(gamma=0.5, coef0=0.0),
                       np.array([2.0]), np.array([1.0])) == pytest.approx(math.tanh(1.0))


def test_kernel_matrix_matches_eval_and_is_psd():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(12, 4))
    for spec in (KernelSpec.linear(), KernelSpec.rbf(0.7),
                 KernelSpec.polynomial(coef0=1.0, degree=3)):
        k = kernel_matrix(spec, x, x)
        assert k.shape == (12, 12)
        assert k[3, 7] == pytest.approx(kernel_eval(spec, x[3], x[7]))
        assert np.allclose(k, k.T)
        # positive semi-definite up to round-off (sigmoid is indefinite, exempt)
        assert np.linalg.eigvalsh(k).min() >= -1e-8


def whole_matrix_gram(spec, a, b):
    """The kernels as whole-matrix formulas, each step a new n x m array:
    the bits kernel_matrix must reproduce in its one buffer."""
    inner = a @ b.T
    if spec.kind == "linear":
        return inner
    if spec.kind == "polynomial":
        return (inner + spec.coef0) ** spec.degree
    if spec.kind == "sigmoid":
        return np.tanh(spec.gamma * inner + spec.coef0)
    sq = (np.square(a).sum(axis=1)[:, None]
          + np.square(b).sum(axis=1)[None, :] - 2.0 * inner)
    np.maximum(sq, 0.0, out=sq)
    if a is b:
        np.fill_diagonal(sq, 0.0)
    return np.exp(-spec.gamma * sq)


SPECS = [KernelSpec.linear(), KernelSpec.polynomial(coef0=1.0, degree=3),
         KernelSpec.polynomial(coef0=0.5, degree=2), KernelSpec.rbf(0.37),
         KernelSpec.sigmoid(gamma=0.2, coef0=0.1)]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}{s.degree}")
@pytest.mark.parametrize("n,m,d", [
    (1, None, 3),           # 1 x 1, a is b
    (1, 1, 3),
    (700, None, 5),         # blocks of BLOCK // 700 = 46 rows: 15 of them, then 10
    (700, 300, 5),          # blocks of 109 rows: 6 of them, then 46
    (3, BLOCK + 3, 2),      # so wide that a block is one row
    (3, 0, 2),              # no columns, as for an empty split
])
def test_kernel_matrix_bits_match_the_whole_matrix_formulas(spec, n, m, d):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, d))
    b = a if m is None else rng.normal(size=(m, d))
    got, want = kernel_matrix(spec, a, b), whole_matrix_gram(spec, a, b)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


MEMORY_ROWS = np.random.default_rng(7).normal(size=(1500, 32))
GRAM_BYTES = MEMORY_ROWS.shape[0] ** 2 * 8


@pytest.mark.parametrize("spec", SPECS[:2] + SPECS[3:], ids=lambda s: s.kind)
def test_kernel_matrix_holds_one_gram(spec):
    x = MEMORY_ROWS
    assert peak_bytes(lambda: kernel_matrix(spec, x, x)) <= 1.1 * GRAM_BYTES


def test_smo_train_holds_one_gram():
    x = MEMORY_ROWS
    y = np.where(x[:, 0] + 0.5 * x[:, 1] > 0, 1.0, -1.0)
    peak = peak_bytes(lambda: smo_train(x, y, KernelSpec.rbf(), max_passes=1))
    assert peak <= 1.25 * GRAM_BYTES


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}{s.degree}")
@pytest.mark.parametrize("n,m", [(1, None), (700, None), (700, 300), (3, 0)])
def test_kernel_matrix_fills_a_given_buffer_with_the_same_bits(spec, n, m):
    rng = np.random.default_rng(n)
    a = rng.normal(size=(n, 5))
    b = a if m is None else rng.normal(size=(m, 5))
    buf = svm_mod._mapped_matrix(a.shape[0], b.shape[0])
    got = kernel_matrix(spec, a, b, out=buf)
    assert got is buf
    want = kernel_matrix(spec, a, b)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_smo_train_keeps_its_gram_out_of_the_heap(monkeypatch):
    """The heap's free pages go back to the system before the Gram is
    made, and the Gram lives in a map of its own: no Gram-sized buffer is
    left in the heap, and the model is bit for bit the one a heap Gram
    gives."""
    x = MEMORY_ROWS
    y = np.where(x[:, 0] + 0.5 * x[:, 1] > 0, 1.0, -1.0)
    events = []
    trim = svm_mod._malloc_trim
    monkeypatch.setattr(svm_mod, "_malloc_trim",
                        lambda pad: events.append("trim") or (trim and trim(pad)))
    monkeypatch.setattr(svm_mod, "kernel_matrix", lambda *a, **kw: (
        events.append("gram"), kernel_matrix(*a, **kw))[1])
    peak = peak_bytes(lambda: smo_train(x, y, KernelSpec.rbf(), max_passes=1))
    assert peak <= 0.25 * GRAM_BYTES
    assert events == ["trim", "gram"]

    mapped = smo_train(x, y, KernelSpec.rbf(), max_passes=1)
    monkeypatch.setattr(svm_mod, "_mapped_matrix", lambda r, c: np.empty((r, c)))
    heap = smo_train(x, y, KernelSpec.rbf(), max_passes=1)
    for name in ("support_vectors", "dual_coef", "support_indices"):
        assert np.array_equal(getattr(mapped, name), getattr(heap, name)), name
    assert (mapped.bias, mapped.n_sweeps, mapped.kkt_gap) == (heap.bias, heap.n_sweeps,
                                                              heap.kkt_gap)


def test_resolve_kernel_gamma_rules():
    x = np.array([[0.0, 0.0], [2.0, 2.0]])          # each column: pop var 1
    assert resolve_kernel(KernelSpec.rbf(), x).gamma == pytest.approx(1.0 / (2 * 1.0))
    assert resolve_kernel(KernelSpec.rbf(3.0), x).gamma == 3.0
    assert resolve_kernel(KernelSpec.sigmoid(), x).gamma == pytest.approx(0.5)
    flat = np.ones((4, 3))                           # zero variance falls back to 1
    assert resolve_kernel(KernelSpec.rbf(), flat).gamma == 1.0
    assert resolve_kernel(KernelSpec.linear(), x).gamma is None


def test_kernel_spec_validation():
    with pytest.raises(InputError, match="unknown kernel"):
        KernelSpec("cubic")
    with pytest.raises(InputError, match="degree"):
        KernelSpec("polynomial", degree=0)
    with pytest.raises(InputError, match="gamma"):
        KernelSpec("rbf", gamma=-1.0)


def test_two_point_hand_solution():
    # x = -1, +1 with matching labels: alpha = (0.5, 0.5), b = 0 exactly
    x = np.array([[-1.0], [1.0]])
    y = np.array([-1.0, 1.0])
    m = smo_train(x, y, KernelSpec.linear(), c=10.0)
    assert m.converged
    assert np.allclose(full_alphas(m, 2), 0.5, atol=1e-10)
    assert abs(m.bias) <= 1e-10
    assert np.allclose(decision_function(m, x), [-1.0, 1.0], atol=1e-10)
    assert predict_labels(m, x).tolist() == [0, 1]


def test_xor_perfect_accuracy_and_kkt():
    m = smo_train(XOR_X, XOR_Y, KernelSpec.rbf(1.0), c=10.0)
    assert m.converged
    assert predict_labels(m, XOR_X).tolist() == [1, 1, 0, 0]
    assert kkt_violation(m, XOR_X, XOR_Y) <= 1e-3
    assert abs(m.dual_coef.sum()) <= 1e-8            # equality constraint held
    assert sorted(m.support_indices.tolist()) == [0, 1, 2, 3]


def test_xor_duals_match_closed_form_and_grid():
    m = smo_train(XOR_X, XOR_Y, KernelSpec.rbf(1.0), c=10.0, tol=1e-5)
    a = full_alphas(m, 4)
    assert np.abs(a - XOR_ALPHA).max() <= 1e-5
    assert abs(m.bias) <= 1e-9
    grid, _ = grid_qp_duals(oracle_gram(XOR_X, "rbf", 1.0), XOR_Y, 10.0)
    assert np.abs(grid - XOR_ALPHA).max() <= 1e-5    # oracle agrees with closed form
    assert np.abs(a - grid).max() <= 1e-4


def test_linear_four_point_duals_match_grid():
    x = np.array([[0.0, 0.2], [0.3, -0.1], [1.2, 1.0], [0.9, 1.4]])
    y = np.array([-1.0, -1.0, 1.0, 1.0])
    m = smo_train(x, y, KernelSpec.linear(), c=5.0, tol=1e-5)
    assert m.converged
    a = full_alphas(m, 4)
    gram = oracle_gram(x, "linear")
    grid, grid_val = grid_qp_duals(gram, y, 5.0)
    assert np.abs(a - grid).max() <= 1e-4
    assert dual_objective(gram, y, a) == pytest.approx(grid_val, abs=1e-6)


def test_bound_hitting_duals_match_grid():
    # interleaved points force two multipliers onto the C bound
    x = np.array([[0.0], [0.45], [0.55], [1.0]])
    y = np.array([-1.0, 1.0, -1.0, 1.0])
    m = smo_train(x, y, KernelSpec.rbf(1.0), c=2.0)
    a = full_alphas(m, 4)
    grid, _ = grid_qp_duals(oracle_gram(x, "rbf", 1.0), y, 2.0)
    assert np.abs(a - grid).max() <= 1e-5
    assert a[1] == pytest.approx(2.0) and a[2] == pytest.approx(2.0)
    assert kkt_violation(m, x, y) <= 1e-3


def test_bias_with_no_free_multiplier_is_the_midpoint_of_the_bounds():
    # at C = 1e-6 every multiplier of a random-label problem sits at 0 or C
    rng = np.random.default_rng(4)
    x = rng.normal(size=(40, 3))
    y = np.where(rng.uniform(size=40) < 0.5, -1.0, 1.0)
    c = 1e-6
    m = smo_train(x, y, KernelSpec.rbf(0.5), c=c)
    a = full_alphas(m, 40)
    at_zero, at_c = a <= 1e-8 * c, a >= c * (1 - 1e-8)
    assert np.all(at_zero | at_c)
    margins = y - (a * y) @ kernel_matrix(m.kernel, x, x)
    lo = margins[(at_zero & (y > 0)) | (at_c & (y < 0))].max()
    hi = margins[(at_zero & (y < 0)) | (at_c & (y > 0))].min()
    assert m.bias == pytest.approx(0.5 * (lo + hi), rel=1e-12, abs=1e-15)


def _cloud_problem(n_per=15, offset=1.5, std=0.3, seed=11):
    rng = np.random.default_rng(seed)
    x = np.vstack([rng.normal(0, std, (n_per, 3)) + [offset, offset, 0],
                   rng.normal(0, std, (n_per, 3)) - [offset, offset, 0]])
    y = np.hstack([np.ones(n_per), -np.ones(n_per)])
    return x, y, rng


def test_duplicating_training_rows_keeps_decisions():
    x, y, rng = _cloud_problem()
    m1 = smo_train(x, y, KernelSpec.rbf(0.5), c=3.0)
    m2 = smo_train(np.vstack([x, x]), np.hstack([y, y]), KernelSpec.rbf(0.5),
                   c=3.0)
    probe = rng.normal(0, 1.2, (60, 3))
    d1 = decision_function(m1, probe)
    d2 = decision_function(m2, probe)
    assert np.array_equal(d1 >= 0, d2 >= 0)
    assert np.abs(d1 - d2).max() < 0.05


def one_bound_clip(differ, old_i, old_j, step, c):
    """The clip for one bound C shared by every row, as the solver made it
    before bounds were per row: the reference for ``_clip_pair`` at
    c_i == c_j."""
    if differ:
        diff = old_i - old_j
        a_i, a_j = old_i + step, old_j + step
        if diff > 0:
            if a_j < 0:
                a_i, a_j = diff, 0.0
            elif a_i > c:
                a_i, a_j = c, c - diff
        elif a_i < 0:
            a_i, a_j = 0.0, -diff
        elif a_j > c:
            a_i, a_j = c + diff, c
    else:
        total = old_i + old_j
        a_i, a_j = old_i - step, old_j + step
        if total > c:
            if a_i > c:
                a_i, a_j = c, total - c
            elif a_j > c:
                a_i, a_j = total - c, c
        elif a_j < 0:
            a_i, a_j = total, 0.0
        elif a_i < 0:
            a_i, a_j = 0.0, total
    return a_i, a_j


def _random_pair(rng, c_i, c_j):
    """Feasible multipliers, at a bound a quarter of the time each."""
    old = [rng.choice([0.0, bound, rng.uniform(0.0, bound)], p=[0.25, 0.25, 0.5])
           for bound in (c_i, c_j)]
    return np.float64(old[0]), np.float64(old[1])


def test_two_bound_clip_at_equal_bounds_is_the_one_bound_clip_bit_for_bit():
    rng = np.random.default_rng(28)
    for _ in range(20000):
        c = float(rng.choice([1e-6, 0.1, 1.0, 10.0]))
        differ = bool(rng.integers(2))
        old_i, old_j = _random_pair(rng, c, c)
        step = np.float64(rng.normal(0.0, rng.choice([0.01, 1.0, 10.0]) * c))
        got = np.array(_clip_pair(differ, old_i, old_j, step, c, c), dtype=np.float64)
        want = np.array(one_bound_clip(differ, old_i, old_j, step, c), dtype=np.float64)
        assert got.tobytes() == want.tobytes(), (differ, old_i, old_j, step, c)


def test_two_bound_clip_maximizes_the_pair_dual_in_its_box():
    """For unequal bounds, the clipped pair is feasible and no point of a
    fine grid over the pair's feasible segment has a lower objective
    0.5 a'Qa - sum(a), restricted to the pair with the other multipliers
    held (their effect is in the gradient G)."""
    rng = np.random.default_rng(29)
    for _ in range(300):
        c_i, c_j = rng.choice([0.1, 1.0, 2.0, 3.0, 10.0], size=2, replace=False)
        y = rng.choice([-1.0, 1.0], size=2)
        v = rng.normal(size=(2, 3))
        k = v @ v.T
        q = np.outer(y, y) * k
        old = np.array(_random_pair(rng, c_i, c_j))
        grad = rng.normal(0.0, 2.0, size=2)
        differ = y[0] != y[1]
        curv = k[0, 0] + k[1, 1] - 2.0 * k[0, 1]
        step = ((-grad[0] - grad[1]) if differ else (grad[0] - grad[1])) / curv
        a = np.array(_clip_pair(differ, old[0], old[1], step, c_i, c_j))
        sign = 1.0 if differ else -1.0          # a_i moves by sign * t when a_j moves by t

        def objective(t):
            d = np.stack([sign * t, t])
            return grad @ d + 0.5 * np.einsum("i...,ij,j...->...", d, q, d)
        lo = max(-old[1], (-old[0] if differ else old[0] - c_i))
        hi = min(c_j - old[1], (c_i - old[0] if differ else old[0]))
        t = a[1] - old[1]
        assert lo - 1e-12 <= t <= hi + 1e-12
        assert a[0] == pytest.approx(old[0] + sign * t, abs=1e-12)
        assert -1e-12 <= a[0] <= c_i + 1e-12 and -1e-12 <= a[1] <= c_j + 1e-12
        grid = np.linspace(lo, hi, 20001)
        assert objective(t) <= objective(grid).min() + 1e-12 * (1.0 + abs(objective(t)))


def _copied_problem(rng, n, d, most):
    """n random rows of width d with both labels, each given 1 to ``most``
    times, the copies shuffled among the others."""
    x = rng.normal(size=(n, d))
    y = np.where(rng.uniform(size=n) < 0.5, 1.0, -1.0)
    y[:2] = 1.0, -1.0
    rows = rng.permutation(np.repeat(np.arange(n), rng.integers(1, most + 1, n)))
    return x[rows], y[rows], rows


def _solve_every_copy(x, y, spec, c, tol):
    """The solver's own iterates over every row given, unmerged, to the gap
    ``tol``: the multipliers, the bias by smo_train's rule and the Gram."""
    gram = kernel_matrix(spec, x, x)
    for alpha, _, gap in _pair_updates(gram, y, c):
        if gap <= tol:
            break
    g = (alpha * y) @ gram
    at_zero, at_c = alpha <= 1e-8 * c, alpha >= c * (1 - 1e-8)
    free = ~at_zero & ~at_c
    if free.any():
        return alpha, float(np.mean(y[free] - g[free])), gram
    margins = y - g
    return alpha, 0.5 * (margins[(at_zero & (y > 0)) | (at_c & (y < 0))].max()
                         + margins[(at_zero & (y < 0)) | (at_c & (y > 0))].min()), gram


def test_solve_over_distinct_rows_matches_the_solve_over_every_copy():
    """Copied rows: smo_train's solve over the distinct rows, each bounded
    by C times its copies, gives the decision values of the solve over every
    copy within the default KKT tolerance, 1e-3, and their dual objectives
    agree within the grid oracle's 1e-6 (both solved to a gap of 1e-6).
    Every stored |alpha y| is at most C, the sum of alpha y is 0 within the
    benchmark's dual check, and at most one copy of a row is strictly
    between 0 and C."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 9), d=st.integers(1, 3),
           most=st.integers(2, 4), kind=st.sampled_from(["rbf", "linear"]),
           c=st.sampled_from([0.1, 1.0, 10.0]))
    def check(seed, n, d, most, kind, c):
        rng = np.random.default_rng(seed)
        x, y, rows = _copied_problem(rng, n, d, most)
        m = smo_train(x, y, KernelSpec(kind), c=c, tol=1e-6, max_passes=10 ** 5)
        assert m.converged
        alpha_ref, bias_ref, gram = _solve_every_copy(x, y, m.kernel, c, 1e-6)
        probe = np.vstack([x, rng.normal(size=(10, d))])
        want = (alpha_ref * y) @ kernel_matrix(m.kernel, x, probe) + bias_ref
        assert np.abs(decision_function(m, probe) - want).max() <= 1e-3
        alpha = full_alphas(m, len(y))
        assert dual_objective(gram, y, alpha) == pytest.approx(
            dual_objective(gram, y, alpha_ref), abs=1e-6)
        assert np.abs(m.dual_coef).max() <= c
        assert abs(m.dual_coef.sum()) <= 1e-9 * c * m.dual_coef.size
        fractional = (alpha > 0) & (alpha < c)
        assert np.bincount(rows, weights=fractional, minlength=n).max() <= 1
    check()


def test_rows_given_three_times_build_the_gram_of_the_distinct_rows(monkeypatch):
    made = []
    real = svm_mod._mapped_matrix
    monkeypatch.setattr(svm_mod, "_mapped_matrix",
                        lambda rows, cols: made.append((rows, cols)) or real(rows, cols))
    x, y, _ = _cloud_problem()
    order = np.random.default_rng(5).permutation(3 * len(y))
    m = smo_train(np.vstack([x, x, x])[order], np.hstack([y, y, y])[order],
                  KernelSpec.rbf(0.5), c=3.0)
    assert made == [(len(y), len(y))]
    assert m.converged and m.support_indices.max() < 3 * len(y)


def _solver_iterates(x, y, spec, c, tol=1e-3):
    """Drive the solver's own generator on the solver's own Gram matrix to
    the gap at which smo_train stops. Returns the oracle's dual at every
    iterate, the dual that each iterate's gradient implies,
    0.5 sum(a) - 0.5 a'G, and the last multipliers."""
    gram, oracle = kernel_matrix(spec, x, x), oracle_gram(x, spec.kind, spec.gamma)
    duals, implied = [], []
    for alpha, grad, gap in _pair_updates(gram, y, c):
        duals.append(dual_objective(oracle, y, alpha))
        implied.append(0.5 * float(alpha.sum()) - 0.5 * float(alpha @ grad))
        if gap <= tol:
            return np.array(duals), np.array(implied), alpha.copy()


def test_dual_objective_never_decreases():
    x, y, _ = _cloud_problem()
    m = smo_train(x, y, KernelSpec.rbf(0.5), c=3.0)
    duals, _, alpha = _solver_iterates(x, y, KernelSpec.rbf(0.5), c=3.0)
    # the same iterates as smo_train's: as many updates, the same multipliers
    assert len(duals) == m.n_sweeps + 1 > 10
    assert np.array_equal(np.where(alpha > SV_THRESHOLD, alpha, 0.0), full_alphas(m, len(y)))
    assert np.diff(duals).min() >= -1e-9
    assert duals[-1] > duals[0] == 0.0


def test_objective_trace_matches_recomputed_dual():
    x, y, _ = _cloud_problem()
    m = smo_train(x, y, KernelSpec.rbf(0.5), c=3.0)
    duals, implied, _ = _solver_iterates(x, y, KernelSpec.rbf(0.5), c=3.0)
    # at every iterate the solver's gradient G = Qa - 1 gives the oracle's dual
    assert len(implied) == m.n_sweeps + 1
    assert np.allclose(implied, duals, rtol=1e-9, atol=0.0)
    final = dual_objective(oracle_gram(x, "rbf", 0.5), y, full_alphas(m, len(y)))
    assert implied[-1] == pytest.approx(final, rel=1e-9)


def test_converges_below_tolerance():
    x, y, _ = _cloud_problem(offset=0.4, std=0.5)    # overlapping: bound multipliers
    for tol in (1e-3, 1e-6):
        m = smo_train(x, y, KernelSpec.rbf(0.5), c=3.0, tol=tol)
        assert m.converged
        assert 0.0 <= m.kkt_gap <= tol
        assert kkt_violation(m, x, y) <= tol


def test_gives_up_with_converged_false():
    rng_x = np.random.default_rng(3)
    rng_y = np.random.default_rng(4)
    x = rng_x.uniform(0, 1, (40, 2))
    y = np.where(rng_y.uniform(size=40) < 0.5, 1.0, -1.0)  # pure noise labels
    m = smo_train(x, y, KernelSpec.rbf(50.0), c=1000.0, tol=1e-6, max_passes=1)
    assert not m.converged
    assert m.n_sweeps == 40                          # budget: max_passes * n updates
    assert m.kkt_gap > 1e-6


def loop_kkt_violation(model, x, y):
    """The row-by-row form ``kkt_violation`` replaced: each row's KKT
    condition tested on its own, the largest violation kept."""
    alpha = full_alphas(model, x.shape[0])
    margins = y * decision_function(model, x)
    worst = 0.0
    for a_i, m_i in zip(alpha, margins):
        if a_i <= SV_THRESHOLD:
            worst = max(worst, 1.0 - m_i)              # need m >= 1
        elif a_i >= model.c - 1e-8:
            worst = max(worst, m_i - 1.0)              # need m <= 1
        else:
            worst = max(worst, abs(m_i - 1.0))         # need m == 1
    return worst


def test_kkt_violation_matches_the_row_by_row_loop():
    """Exactly the loop's value on models with zero, free and bounded
    multipliers, converged or stopped after one pass."""
    x, y, _ = _cloud_problem(offset=0.4, std=0.5)
    seen, unconverged = set(), 0
    for kernel in (KernelSpec.rbf(0.5), KernelSpec.linear()):
        for c in (0.1, 1.0, 10.0):
            for max_passes in (1, 100):
                m = smo_train(x, y, kernel, c=c, max_passes=max_passes)
                a = full_alphas(m, len(y))
                seen |= {"zero"} if (a <= SV_THRESHOLD).any() else set()
                seen |= {"bounded"} if (a >= c - 1e-8).any() else set()
                seen |= {"free"} if ((a > SV_THRESHOLD) & (a < c - 1e-8)).any() else set()
                unconverged += not m.converged
                assert kkt_violation(m, x, y) == loop_kkt_violation(m, x, y), (kernel, c)
    assert seen == {"zero", "free", "bounded"} and unconverged >= 1


def test_training_determinism():
    x, y, _ = _cloud_problem()
    m1 = smo_train(x, y, KernelSpec.rbf(0.5), c=3.0)
    m2 = smo_train(x, y, KernelSpec.rbf(0.5), c=3.0)
    assert np.array_equal(m1.dual_coef, m2.dual_coef)
    assert m1.bias == m2.bias
    assert np.array_equal(m1.support_indices, m2.support_indices)


def test_smo_input_validation():
    x = np.array([[0.0], [1.0]])
    with pytest.raises(DegenerateDataError, match="both classes"):
        smo_train(x, np.array([1.0, 1.0]), KernelSpec.linear())
    with pytest.raises(DegenerateDataError, match="both classes"):
        smo_train(x, np.array([0.0, 1.0]), KernelSpec.linear())
    with pytest.raises(ShapeError, match="labels"):
        smo_train(x, np.array([1.0, -1.0, 1.0]), KernelSpec.linear())
    with pytest.raises(InputError, match="positive"):
        smo_train(x, np.array([-1.0, 1.0]), KernelSpec.linear(), c=0.0)


def test_zero_decision_maps_to_label_one():
    m = SvmModel(kernel=KernelSpec.linear(), c=1.0,
                 support_vectors=np.array([[1.0]]), dual_coef=np.array([0.0]),
                 support_indices=np.array([0]), bias=0.0, converged=True, n_sweeps=1)
    assert decision_function(m, np.array([[3.0]]))[0] == 0.0
    assert predict_labels(m, np.array([[3.0]])).tolist() == [1]
