"""Linear algebra and RNG determinism, checked against naive oracles."""
import numpy as np
import pytest

from claire.errors import ConditioningError, DegenerateDataError, ShapeError
from claire.numerics import (RngStream, as_matrix, as_vector, column_mean_var,
                             solve_weighted_least_squares, substream_seed,
                             weighted_normal_matrix)


def test_as_matrix_rejects_wrong_ndim():
    with pytest.raises(ShapeError):
        as_matrix(np.zeros(3))
    with pytest.raises(ShapeError):
        as_vector(np.zeros((2, 2)))
    assert as_matrix([[1, 2]]).dtype == np.float64


def test_column_mean_var_two_pass_oracle():
    rng = np.random.default_rng(2)
    m = rng.normal(size=(20, 4)) * 3.0 + 1.0
    mean, var = column_mean_var(m)
    for j in range(4):
        col = m[:, j]
        mu = sum(col) / len(col)
        v = sum((c - mu) ** 2 for c in col) / len(col)   # population variance
        assert mean[j] == pytest.approx(mu, rel=1e-12)
        assert var[j] == pytest.approx(v, rel=1e-12)


def test_column_mean_var_hand_case_and_empty():
    mean, var = column_mean_var([[1.0], [3.0]])
    assert mean[0] == pytest.approx(2.0)
    assert var[0] == pytest.approx(1.0)          # population divisor, not n-1
    with pytest.raises(DegenerateDataError):
        column_mean_var(np.zeros((0, 3)))


def test_wls_matches_longdouble_normal_equations():
    rng = np.random.default_rng(3)
    design = rng.normal(size=(50, 6))
    targets = rng.normal(size=50)
    weights = rng.uniform(0.1, 2.0, size=50)
    beta = solve_weighted_least_squares(design, targets, weights)

    dl = design.astype(np.longdouble)
    tl = targets.astype(np.longdouble)
    wl = weights.astype(np.longdouble)
    lhs = dl.T @ (dl * wl[:, None]) + np.longdouble(1e-10) * np.eye(6, dtype=np.longdouble)
    rhs = dl.T @ (tl * wl)
    want = np.linalg.solve(lhs.astype(np.float64), rhs.astype(np.float64))
    assert np.max(np.abs(beta - want)) <= 1e-8 * max(1.0, np.max(np.abs(want)))


def test_wls_multi_target_equals_per_column():
    rng = np.random.default_rng(4)
    design = rng.normal(size=(30, 5))
    targets = rng.normal(size=(30, 3))
    weights = rng.uniform(0.5, 1.5, size=30)
    beta = solve_weighted_least_squares(design, targets, weights)
    assert beta.shape == (5, 3)
    for c in range(3):
        single = solve_weighted_least_squares(design, targets[:, c], weights)
        assert np.allclose(beta[:, c], single, atol=1e-12)


def test_wls_recovers_exact_solution():
    rng = np.random.default_rng(5)
    design = rng.normal(size=(40, 4))
    truth = np.array([2.0, -1.0, 0.5, 3.0])
    targets = design @ truth
    beta = solve_weighted_least_squares(design, targets, np.ones(40))
    assert np.allclose(beta, truth, atol=1e-6)


def test_wls_errors():
    with pytest.raises(ShapeError):
        solve_weighted_least_squares(np.zeros((3, 2)), np.zeros(4), np.ones(3))
    with pytest.raises(ShapeError):
        solve_weighted_least_squares(np.zeros((3, 2)), np.zeros(3), -np.ones(3))
    with pytest.raises(ConditioningError):
        solve_weighted_least_squares(np.full((3, 2), np.nan), np.zeros(3), np.ones(3))


def test_wls_with_a_formed_normal_matrix_is_the_same_solve():
    rng = np.random.default_rng(6)
    design = rng.normal(size=(40, 5))
    weights = rng.uniform(0.1, 2.0, size=40)
    lhs = weighted_normal_matrix(design, weights)
    for _ in range(3):
        targets = rng.normal(size=(40, 2))
        assert np.array_equal(solve_weighted_least_squares(design, targets, weights, lhs=lhs),
                              solve_weighted_least_squares(design, targets, weights))


def test_substream_seed_stable_and_distinct():
    assert substream_seed(42, "init") == substream_seed(42, "init")
    names = ["init", "shuffle", "dropout", "corruption", "smo", "shap", "split"]
    seeds = {substream_seed(42, n) for n in names}
    assert len(seeds) == len(names)
    for s in seeds:
        assert 0 <= s < 2**63


def test_rng_stream_determinism():
    a = RngStream(99).normal((10000,))
    b = RngStream(99).normal((10000,))
    assert np.array_equal(a, b)
    c = RngStream(100).normal((10000,))
    assert not np.array_equal(a, c)


def test_rng_substream_is_reproducible_and_distinct():
    direct = RngStream(substream_seed(7, "dropout")).uniform((50,))
    again = RngStream(substream_seed(7, "dropout")).uniform((50,))
    assert np.array_equal(direct, again)
    assert not np.array_equal(direct, RngStream(7).uniform((50,)))
    assert not np.array_equal(direct, RngStream(substream_seed(7, "noise")).uniform((50,)))


def test_rng_stream_draw_kinds():
    rng = RngStream(11)
    perm = rng.permutation(20)
    assert sorted(perm.tolist()) == list(range(20))
    ints = rng.integers(0, 5, size=1000)
    assert ints.min() >= 0 and ints.max() <= 4
    mask = rng.bernoulli(0.7, (20000,))
    assert set(np.unique(mask)) <= {0.0, 1.0}
    assert abs(mask.mean() - 0.7) < 0.02
    u = rng.uniform((1000,), 2.0, 3.0)
    assert u.min() >= 2.0 and u.max() <= 3.0


@pytest.mark.parametrize("n,count", [(1, 3), (5, 0), (13, 7), (560, 40)])
def test_permutations_equal_successive_permutation_draws(n, count):
    one, block = RngStream(17), RngStream(17)
    want = np.array([one.permutation(n) for _ in range(count)],
                    dtype=np.int64).reshape(count, n)
    got = block.permutations(n, count)
    assert got.shape == (count, n) and np.array_equal(got, want)
    # the stream is left where the single draws leave it
    assert np.array_equal(block.uniform((8,)), one.uniform((8,)))
