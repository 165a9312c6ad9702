"""Attribution engine against the exact subset-enumeration Shapley formula.

The oracle computes phi_i = sum over S not containing i of
|S|!(d-|S|-1)!/d! * (v(S+i) - v(S)) with v estimated the same way (mean
over background completions), sharing no code with the regression route.
"""
import itertools
import math
import threading

import numpy as np
import pytest

from claire.errors import InputError, ShapeError
from conftest import peak_bytes
import claire.explain as explain_mod
from claire.explain import (AttributionTensor, EXHAUSTIVE_LIMIT, SAMPLE_BLOCK,
                            _allocate_budget, _allocate_pairs, _call_model,
                            _coalition_values, _encoder_chunks, _encoder_coalition_values,
                            _enumerate_all, _pair_count, _plan, _sample_coalitions, _size_mass,
                            additivity_gap, class_conditional_importance, coalition_count,
                            dependence_export, explain_encoder, explain_plan,
                            global_importance, kernel_shap, shapley_kernel_weight)
from claire.network import Activation, build_network, encode, fold_encoder
from claire.numerics import RngStream, solve_weighted_least_squares


def exact_shapley(f, x, background):
    """(d, k) exact Shapley values for one evaluation row, plus the base."""
    d = x.shape[0]
    v = {}
    for r in range(d + 1):
        for subset in itertools.combinations(range(d), r):
            mask = np.zeros(d, dtype=bool)
            mask[list(subset)] = True
            rows = np.where(mask, x, background)
            v[subset] = f(rows).mean(axis=0)
    base = v[()]
    phi = np.zeros((d, base.shape[0]))
    for i in range(d):
        others = [j for j in range(d) if j != i]
        for r in range(d):
            for subset in itertools.combinations(others, r):
                w = math.factorial(r) * math.factorial(d - r - 1) / math.factorial(d)
                with_i = tuple(sorted(subset + (i,)))
                phi[i] += w * (v[with_i] - v[subset])
    return phi, base


def interactive_model(d, seed=0):
    """Two outputs with genuine feature interactions, so attributions are
    not recoverable from any additive shortcut."""
    rng = np.random.default_rng(seed)
    w0 = rng.normal(size=d)
    w1 = rng.normal(size=d)

    def f(rows):
        rows = np.asarray(rows)
        out0 = rows @ w0 + rows[:, 0] * rows[:, 1]
        out1 = rows @ w1 + rows[:, -1] * rows[:, 0] ** 2
        return np.column_stack([out0, out1])

    return f


def test_kernel_weight_hand_values():
    assert shapley_kernel_weight(3, 1) == pytest.approx(1 / 3)
    assert shapley_kernel_weight(3, 2) == pytest.approx(1 / 3)
    assert shapley_kernel_weight(4, 2) == pytest.approx(3 / 24)
    with pytest.raises(InputError):
        shapley_kernel_weight(3, 0)
    with pytest.raises(InputError):
        shapley_kernel_weight(3, 3)


def test_linear_model_single_background_is_exact():
    # for linear f and one background row, phi_i = w_i * (x_i - b_i)
    w = np.array([[2.0, -1.0, 0.5, 3.0, 0.0], [1.0, 1.0, 1.0, -2.0, 4.0]])
    b = np.array([[0.1, 0.2, 0.3, 0.4, 0.5]])
    x = np.array([[1.0, 0.0, 0.8, 0.4, 0.9]])
    attr = kernel_shap(lambda rows: rows @ w.T, x, b)
    want = w.T * (x[0] - b[0])[:, None]
    assert attr.values.shape == (1, 5, 2)
    assert np.abs(attr.values[0] - want).max() <= 1e-8
    assert np.allclose(attr.base_values, b @ w.T)


def test_constant_model_gets_zero_attributions():
    f = lambda rows: np.full((len(rows), 2), 7.0)
    attr = kernel_shap(f, np.random.default_rng(0).uniform(size=(3, 4)),
                       np.random.default_rng(1).uniform(size=(6, 4)))
    assert np.abs(attr.values).max() <= 1e-9
    assert np.allclose(attr.base_values, 7.0)


@pytest.mark.parametrize("d", [3, 5, 8])
def test_exhaustive_matches_exact_shapley(d):
    rng = np.random.default_rng(d)
    f = interactive_model(d, seed=d)
    background = rng.uniform(0, 1, size=(5, d))
    x_eval = rng.uniform(0, 1, size=(2, d))
    attr = kernel_shap(f, x_eval, background)
    for i in range(2):
        phi, base = exact_shapley(f, x_eval[i], background)
        assert np.abs(attr.values[i] - phi).max() <= 1e-6
        assert np.abs(attr.base_values - base).max() <= 1e-9
    assert additivity_gap(attr, f, x_eval) <= 1e-8


def test_single_feature_attribution_is_full_gap():
    f = lambda rows: np.asarray(rows) * 3.0
    attr = kernel_shap(f, np.array([[5.0]]), np.array([[2.0]]))
    assert attr.base_values[0] == pytest.approx(6.0)
    assert attr.values[0, 0, 0] == pytest.approx(9.0)


def test_sampled_path_additivity_and_determinism():
    d = 20                                           # beyond the exhaustive limit
    assert d > EXHAUSTIVE_LIMIT
    rng = np.random.default_rng(9)
    f = interactive_model(d, seed=9)
    background = rng.uniform(0, 1, size=(8, d))
    x_eval = rng.uniform(0, 1, size=(3, d))
    a1 = kernel_shap(f, x_eval, background, seed=77)
    a2 = kernel_shap(f, x_eval, background, seed=77)
    a3 = kernel_shap(f, x_eval, background, seed=78)
    assert np.array_equal(a1.values, a2.values)
    assert not np.array_equal(a1.values, a3.values)
    assert additivity_gap(a1, f, x_eval) <= 1e-4     # holds by construction
    assert a1.values.shape == (3, d, 2)


def test_sampled_budget_validation():
    d = 15
    rng = np.random.default_rng(2)
    f = interactive_model(d)
    with pytest.raises(InputError, match="d \\+ 2"):
        kernel_shap(f, rng.uniform(size=(1, d)), rng.uniform(size=(4, d)),
                    n_coalitions=10)


def test_input_validation():
    f = lambda rows: np.asarray(rows).sum(axis=1, keepdims=True)
    with pytest.raises(ShapeError, match="features"):
        kernel_shap(f, np.ones((1, 3)), np.ones((2, 4)))
    with pytest.raises(InputError, match="at least one row"):
        kernel_shap(f, np.ones((1, 3)), np.ones((0, 3)))


def test_explain_encoder_wires_the_network():
    net = build_network(6, [5], 3, RngStream(21))
    train = RngStream(22).uniform((30, 6))
    test = RngStream(23).uniform((10, 6))
    attr = explain_encoder(net, train, test, feature_names=list("abcdef"),
                           n_background=4, n_eval=2, seed=5)
    direct = kernel_shap(lambda rows: encode(net, rows), test[:2], train[:4], seed=5)
    # coalition rows are summed in another order than encode's, so the two
    # agree to rounding, not bit for bit
    assert np.abs(attr.values - direct.values).max() <= 1e-12
    assert np.array_equal(attr.base_values, direct.base_values)
    assert attr.feature_names == list("abcdef")
    assert attr.n_samples == 2 and attr.n_features == 6 and attr.n_outputs == 3
    with pytest.raises(InputError, match="n_background"):
        explain_encoder(net, train, test, n_background=31, n_eval=2)
    with pytest.raises(InputError, match="n_eval"):
        explain_encoder(net, train, test, n_background=4, n_eval=11)


def trained_like_encoder(d, seed):
    """An encoder whose batch norm and biases are far from their initial
    values, so folding them is not a no-op."""
    net = build_network(d, [7, 5], 4, RngStream(seed), dropout_keep=0.7)
    rng = np.random.default_rng(seed)
    for layer in net.encoder:
        bn = layer.batch_norm
        bn.gamma = rng.uniform(0.5, 1.5, bn.gamma.shape)
        bn.beta = rng.normal(0.0, 0.2, bn.beta.shape)
        bn.running_mean = rng.normal(0.0, 0.5, bn.beta.shape)
        bn.running_var = rng.uniform(0.1, 2.0, bn.beta.shape)
        layer.bias = rng.normal(0.0, 0.1, layer.bias.shape)
    return net


@pytest.mark.parametrize("d", [5, 18])
def test_encoder_coalition_values_match_masked_rows(d):
    net = trained_like_encoder(d, 40 + d)
    rng = np.random.default_rng(d)
    background = rng.uniform(0, 1, size=(7, d))
    x = rng.uniform(0, 1, size=d)
    if d <= EXHAUSTIVE_LIMIT:
        in_s, _ = _enumerate_all(d)
    else:
        in_s, _ = _sample_coalitions(d, 300, RngStream(4))
    sizes = set(in_s.sum(axis=1).tolist())
    # both the small-side and the complement branch, and the tie at d / 2
    assert min(sizes) < d / 2 < max(sizes) and (d % 2 or d // 2 in sizes)
    got = _encoder_coalition_values(fold_encoder(net), x, background, in_s)
    want = _coalition_values(lambda rows: encode(net, rows), x, background, in_s, 4)
    assert got.shape == want.shape == (in_s.shape[0], 4)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_encoder_coalition_values_chunked_like_one_batch(monkeypatch):
    import claire.explain as explain_mod
    d = 30
    net = trained_like_encoder(d, 50)
    rng = np.random.default_rng(51)
    background = rng.uniform(0, 1, size=(6, d))
    x = rng.uniform(0, 1, size=d)
    in_s = _sample_coalitions(d, 200, RngStream(5))[0]
    whole = _encoder_coalition_values(fold_encoder(net), x, background, in_s)
    monkeypatch.setattr(explain_mod, "ENCODER_ROWS", 6 * 3)
    monkeypatch.setattr(explain_mod, "ENCODER_GATHER", 7 * 20)
    chunked = _encoder_coalition_values(fold_encoder(net), x, background, in_s)
    assert np.abs(chunked - whole).max() <= 1e-12 * np.abs(whole).max()


def test_explain_encoder_matches_exact_shapley():
    d = 6
    net = trained_like_encoder(d, 60)
    rng = np.random.default_rng(61)
    train = rng.uniform(0, 1, size=(12, d))
    test = rng.uniform(0, 1, size=(3, d))
    attr = explain_encoder(net, train, test, n_background=5, n_eval=3)
    f = lambda rows: encode(net, rows)
    for i in range(3):
        phi, base = exact_shapley(f, test[i], train[:5])
        assert np.abs(attr.values[i] - phi).max() <= 1e-9
        assert np.abs(attr.base_values - base).max() <= 1e-12
    assert additivity_gap(attr, f, test[:3]) <= 1e-12


def test_coalition_count():
    assert coalition_count(6) == 62
    assert coalition_count(6, 10) == 62              # exhaustive ignores the budget
    assert coalition_count(560) == 560 + 1024
    assert coalition_count(21) == 21 + 1024 - 1      # sampled in pairs: rounded to even
    assert coalition_count(20, 500) == 500
    assert coalition_count(20, 501) == 500
    assert coalition_count(14, 20_000) == 2**14 - 2
    with pytest.raises(InputError, match="d \\+ 2"):
        coalition_count(20, 21)


def test_global_importance_ranking():
    # feature 1 dominates, feature 0 is second, feature 2 silent
    values = np.zeros((2, 3, 2))
    values[:, 0, :] = 0.5
    values[:, 1, :] = [[-2.0, 1.0], [-2.0, 1.0]]     # mean |.| = 1.5
    attr = AttributionTensor(values=values, base_values=np.zeros(2),
                             feature_names=["a", "b", "c"])
    rank = global_importance(attr)
    assert rank.features == ["b", "a", "c"]
    assert rank.order.tolist() == [1, 0, 2]
    assert np.allclose(rank.msv, [1.5, 0.5, 0.0])
    assert np.allclose(rank.per_output[0], [2.0, 1.0])
    # default names kick in when none were attached
    attr.feature_names = None
    assert global_importance(attr).features[0] == "feature_1"


def test_class_conditional_importance_and_contrast():
    values = np.zeros((4, 2, 1))
    values[0, 0, 0] = 4.0                            # failure sample, feature 0
    values[1, 0, 0] = 2.0                            # failure sample
    values[2, 1, 0] = 1.0                            # success sample, feature 1
    values[3, 1, 0] = 3.0
    attr = AttributionTensor(values=values, base_values=np.zeros(1),
                             feature_names=["f0", "f1"])
    labels = np.array([0, 0, 1, 1])
    ci = class_conditional_importance(attr, labels)
    assert ci.failure.features[0] == "f0"
    assert ci.failure.msv[0] == pytest.approx(3.0)
    assert ci.success.features[0] == "f1"
    assert ci.success.msv[0] == pytest.approx(2.0)
    # contrast: f0 -> 3 - 0 = 3, f1 -> 0 - 2 = -2, sorted descending
    assert ci.contrast_features == ["f0", "f1"]
    assert np.allclose(ci.contrast, [3.0, -2.0])

    empty_fail = class_conditional_importance(attr, np.ones(4, dtype=int))
    assert np.allclose(empty_fail.failure.msv, 0.0)

    with pytest.raises(ShapeError):
        class_conditional_importance(attr, np.array([0, 1]))
    with pytest.raises(InputError, match="0 or 1"):
        class_conditional_importance(attr, np.array([0, 1, 2, 1]))


def test_dependence_export_rows():
    values = np.arange(12, dtype=np.float64).reshape(2, 3, 2)
    attr = AttributionTensor(values=values, base_values=np.zeros(2))
    x_eval = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]])
    rows = dependence_export(attr, x_eval, feature=1, color_feature=2, output="mean")
    assert rows == [(0.2, pytest.approx((2 + 3) / 2), 0.3),
                    (0.5, pytest.approx((8 + 9) / 2), 0.6)]
    rows0 = dependence_export(attr, x_eval, feature=1, color_feature=0, output=1)
    assert rows0[0] == (0.2, 3.0, 0.1)
    with pytest.raises(InputError, match="out of range"):
        dependence_export(attr, x_eval, feature=5, color_feature=0)
    with pytest.raises(ShapeError):
        dependence_export(attr, np.ones((3, 3)), feature=0, color_feature=1)


def test_attribution_tensor_properties():
    attr = AttributionTensor(values=np.zeros((4, 6, 3)), base_values=np.zeros(3))
    assert (attr.n_samples, attr.n_features, attr.n_outputs) == (4, 6, 3)



# References: the per-draw samplers, the allocate-per-layer coalition
# values and the per-row solve that the planned, buffered route replaced.
# The route must reproduce them bit for bit.

def membership(coalitions, d):
    """(coalitions, d) boolean matrix, True where a feature is in the coalition."""
    mask = np.zeros((len(coalitions), d), dtype=bool)
    for i, combo in enumerate(coalitions):
        mask[i, list(combo)] = True
    return mask


def complement(combo, d):
    return tuple(j for j in range(d) if j not in combo)


def per_draw_sample_coalitions(d, budget, rng, stats=None):
    """The paired sampler with one ``permutation`` per draw; ``stats``, if
    given, gets the draws made, the pairs they sampled and the largest
    sampled stratum."""
    coalitions, weights = [], []
    draws = sampled = largest = 0
    for s, want in _allocate_pairs(budget, d).items():
        if want == 0:
            continue
        half = 2 * s == d
        if want == _pair_count(d, s):
            first = list(itertools.islice(itertools.combinations(range(d), s), want))
        else:
            sampled, largest = sampled + want, max(largest, want)
            seen = set()
            while len(seen) < want:
                combo = tuple(sorted(rng.permutation(d)[:s].tolist()))
                draws += 1
                seen.add(complement(combo, d) if half and combo[0] != 0 else combo)
            first = sorted(seen)
        coalitions += first + [complement(c, d) for c in first]
        weights += [_size_mass(d, s) / (2 * want if half else want)] * (2 * want)
    if stats is not None:
        stats.update(draws=draws, sampled=sampled, largest=largest)
    return coalitions, np.array(weights)


def per_draw_unpaired_coalitions(d, budget, rng):
    """The sampler before pairing: each size its own share of the budget,
    sampled without its complements."""
    alloc = _allocate_budget(budget, {s: _size_mass(d, s) for s in range(1, d)},
                             {s: math.comb(d, s) for s in range(1, d)})
    coalitions, weights = [], []
    for s, want in alloc.items():
        if want == 0:
            continue
        count = math.comb(d, s)
        if want >= count:
            coalitions += list(itertools.combinations(range(d), s))
            weights += [_size_mass(d, s) / count] * count
            continue
        seen = set()
        while len(seen) < want:
            seen.add(tuple(sorted(rng.permutation(d)[:s].tolist())))
        coalitions += sorted(seen)
        weights += [_size_mass(d, s) / want] * want
    return coalitions, np.array(weights)


def per_layer_encoder_coalition_values(folded, x, background, in_s):
    layers, out_scale = folded
    (w0, b0, act0), rest = layers[0], layers[1:]
    n_bg, d = background.shape
    diff_t = np.zeros((d + 1, n_bg))
    diff_t[:d] = (x[None, :] - background).T
    w0_t = np.zeros((d + 1, w0.shape[0]))
    w0_t[:d] = w0.T
    bg_pre, x_pre = background @ w0.T + b0, x @ w0.T + b0
    from_x = 2 * in_s.sum(axis=1) > d
    changed = in_s != from_x[:, None]
    n_changed = changed.sum(axis=1)
    values = np.empty((in_s.shape[0], layers[-1][0].shape[0]))
    for block in _encoder_chunks(from_x, n_changed, n_bg, w0.shape[0]):
        counts = n_changed[block]
        rows, cols = np.nonzero(changed[block])
        slots = np.arange(rows.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
        idx = np.full((block.shape[0], counts.max()), d)
        idx[rows, slots] = cols
        moved = np.swapaxes(diff_t[idx], 1, 2) @ w0_t[idx]
        pre = x_pre - moved if from_x[block[0]] else moved + bg_pre
        h = act0.apply(pre.reshape(-1, w0.shape[0]))
        for w, b, act in rest:
            h = act.apply(h @ w.T + b)
        values[block] = h.reshape(block.shape[0], n_bg, -1).mean(axis=1)
    return values * out_scale


def per_chunk_coalition_values(f, x, background, in_s, width):
    n_bg, d = background.shape
    rows_per_chunk = max(1, 16384 // n_bg)
    values = np.empty((in_s.shape[0], width))
    for start in range(0, in_s.shape[0], rows_per_chunk):
        masks = in_s[start:start + rows_per_chunk]
        batch = np.where(masks[:, None, :], x[None, None, :], background[None, :, :])
        out = _call_model(f, batch.reshape(-1, d), width)
        values[start:start + masks.shape[0]] = out.reshape(masks.shape[0], n_bg,
                                                           width).mean(axis=1)
    return values


def per_row_attribute(values_of, x_eval, base, fx_all, n_coalitions, seed,
                      sampler=per_draw_sample_coalitions):
    d = x_eval.shape[1]
    if d <= EXHAUSTIVE_LIMIT:
        in_s, weights = _enumerate_all(d)
    else:
        coalitions, weights = sampler(d, coalition_count(d, n_coalitions), RngStream(seed))
        in_s = membership(coalitions, d)
    values = np.empty((x_eval.shape[0], d, base.shape[0]))
    for i in range(x_eval.shape[0]):
        excess = fx_all[i] - base
        z = in_s.astype(np.float64)
        design = z[:, :-1] - z[:, -1:]
        targets = (values_of(x_eval[i], in_s) - base[None, :]
                   - z[:, -1:] * excess[None, :])
        phi_head = solve_weighted_least_squares(design, targets, weights)
        values[i, :-1] = phi_head
        values[i, -1] = excess - phi_head.sum(axis=0)
    return values


@pytest.mark.parametrize("d,budget,seed,redraws,blocks", [
    (13, 100, 1, False, False), (15, 2000, 2, True, False), (16, 20000, 3, True, True),
    (17, 5001, 4, True, False), (60, 500, 3, False, False), (560, 3168, 5, True, False)])
def test_block_sampler_matches_per_draw_loop(d, budget, seed, redraws, blocks):
    one, block, stats = RngStream(seed), RngStream(seed), {}
    want, want_w = per_draw_sample_coalitions(d, budget, one, stats)
    got, got_w = _sample_coalitions(d, budget, block)
    assert np.array_equal(got, membership(want, d))
    assert np.array_equal(got_w, want_w)
    # the block sampler made exactly the per-draw loop's draws
    assert np.array_equal(block.uniform((4,)), one.uniform((4,)))
    # what the case covers: draws that repeat a coalition, and a stratum
    # that needs more than one block
    assert (stats["draws"] > stats["sampled"]) == redraws
    assert (stats["largest"] > SAMPLE_BLOCK) == blocks


def _covers(d, budget, what):
    alloc = _allocate_pairs(budget, d)
    capacity = {s: _pair_count(d, s) for s in alloc}
    return {"odd budget": budget % 2 == 1,
            "odd d": d % 2 == 1,
            "sampled d/2 stratum": d % 2 == 0 and 0 < alloc[d // 2] < capacity[d // 2],
            "full stratum": any(0 < alloc[s] == capacity[s] for s in alloc),
            "stratum over SAMPLE_BLOCK": any(SAMPLE_BLOCK < alloc[s] < capacity[s]
                                             for s in alloc)}[what]


@pytest.mark.parametrize("d,budget,what", [
    (20, 501, "odd budget"), (21, 600, "odd d"), (16, 2000, "sampled d/2 stratum"),
    (15, 2000, "full stratum"), (16, 20000, "stratum over SAMPLE_BLOCK")])
def test_paired_plan(d, budget, what):
    assert _covers(d, budget, what)
    plan = _plan(d, budget, 11)
    rows = coalition_count(d, budget)
    # the count the ``explain:`` plan line prints
    assert explain_plan(5, 5, d, 1, 1, budget) == rows == plan.in_s.shape[0]
    packed = [r.tobytes() for r in np.packbits(plan.in_s, axis=1)]
    assert len(set(packed)) == rows                             # no duplicates
    # every coalition's complement is in the plan
    assert set(packed) == {r.tobytes() for r in np.packbits(~plan.in_s, axis=1)}
    sizes = plan.in_s.sum(axis=1)
    for s in np.unique(sizes).tolist():                        # weights sum to kernel mass
        assert plan.weights[sizes == s].sum() == pytest.approx(_size_mass(d, s), rel=1e-12)
    again = _plan(d, budget, 11)
    assert np.array_equal(again.in_s, plan.in_s) and np.array_equal(again.weights, plan.weights)
    assert not np.array_equal(_plan(d, budget, 12).in_s, plan.in_s)


def test_paired_half_budget_is_no_less_accurate():
    """Paired sampling at the default d + 1024 coalitions is at least as
    close to exact Shapley values as the unpaired sampler at the former
    default of 2d + 2048, in the mean over sampler seeds 1-8 of the max-abs
    error. This is a property of the expected error, not of every model:
    with encoders and rows built from seeds 1-30 it held on 25 of them."""
    d = 14
    net = trained_like_encoder(d, 1)
    rng = np.random.default_rng(1)
    background, x = rng.uniform(0, 1, size=(5, d)), rng.uniform(0, 1, size=(1, d))
    f = lambda rows: encode(net, rows)
    phi, base = exact_shapley(f, x[0], background)
    folded = fold_encoder(net)
    paired, unpaired = [], []
    for seed in range(1, 9):
        got = explain_encoder(net, background, x, n_background=5, n_eval=1, seed=seed)
        old = per_row_attribute(
            lambda row, in_s: per_layer_encoder_coalition_values(folded, row, background, in_s),
            x, base, f(x), 2 * d + 2048, seed, sampler=per_draw_unpaired_coalitions)
        paired.append(np.abs(got.values[0] - phi).max())
        unpaired.append(np.abs(old[0] - phi).max())
    assert coalition_count(d) == d + 1024
    assert np.mean(paired) <= np.mean(unpaired)


def sigmoid_middle(folded):
    layers, scale = folded
    (w, b, _), rest = layers[1], layers[2:]
    return [layers[0], (w, b, Activation("sigmoid")), *rest], scale


def flat_leaky_first(folded):
    layers, scale = folded
    w, b, _ = layers[0]
    return [(w, b, Activation("leaky_relu", 0.0)), *layers[1:]], scale


def encoder_case(d):
    """An encoder, 6 background rows, a row to explain and its coalitions:
    all of them when d <= EXHAUSTIVE_LIMIT, else 400 sampled ones."""
    net = trained_like_encoder(d, 70 + d)
    rng = np.random.default_rng(d)
    background = rng.uniform(0, 1, size=(6, d))
    x = rng.uniform(0, 1, size=d)
    if d <= EXHAUSTIVE_LIMIT:
        in_s, _ = _enumerate_all(d)
    else:
        in_s, _ = _sample_coalitions(d, 400, RngStream(d))
    return net, x, background, in_s


def use_small_chunks(monkeypatch):
    """Chunks of at most 3 coalitions, and fewer where the gather limit binds."""
    monkeypatch.setattr(explain_mod, "ENCODER_ROWS", 6 * 3)
    monkeypatch.setattr(explain_mod, "ENCODER_GATHER", 7 * 20)


@pytest.mark.parametrize("small_chunks", [False, True])
@pytest.mark.parametrize("d", [5, 18, 60])
def test_buffered_encoder_values_match_per_layer_reference(monkeypatch, no_thread_left, d,
                                                           small_chunks):
    """Bit for bit on 1, 2, 3 and 8 lanes, also where a chunk holds fewer
    coalitions than there are lanes (small chunks, 3 or 8 lanes)."""
    net, x, background, in_s = encoder_case(d)
    if small_chunks:
        use_small_chunks(monkeypatch)
    threads = set()
    activate = explain_mod._activate
    monkeypatch.setattr(explain_mod, "_activate", lambda *a: threads.add(threading.get_ident())
                        or activate(*a))
    for folded in (fold_encoder(net), sigmoid_middle(fold_encoder(net)),
                   flat_leaky_first(fold_encoder(net))):
        want = per_layer_encoder_coalition_values(folded, x, background, in_s)
        for lanes in (1, 2, 3, 8):
            threads.clear()
            got = _encoder_coalition_values(folded, x, background, in_s, lanes)
            no_thread_left()
            assert np.array_equal(got, want), lanes
            # every lane did some of the work: each chunk holds at most 3
            # coalitions when they are small, and all of one side's when not
            assert len(threads) == (min(lanes, 3) if small_chunks else lanes)


@pytest.mark.parametrize("failing", ["caller", "first chunk", "later chunk"])
def test_an_exception_in_any_lane_reaches_the_caller(monkeypatch, no_thread_left, failing):
    """The lane's own exception, raised after every lane is joined."""
    net, x, background, in_s = encoder_case(18)
    use_small_chunks(monkeypatch)
    boom = RuntimeError("activation failed")
    calls = []
    activate = explain_mod._activate

    def failing_activate(*args):
        on_caller = threading.current_thread() is threading.main_thread()
        if on_caller == (failing == "caller"):
            calls.append(1)
            if len(calls) == (5 if failing == "later chunk" else 1):
                raise boom
        activate(*args)

    monkeypatch.setattr(explain_mod, "_activate", failing_activate)
    with pytest.raises(RuntimeError) as caught:
        _encoder_coalition_values(fold_encoder(net), x, background, in_s, 2)
    no_thread_left()
    assert caught.value is boom


def test_two_lanes_hold_little_more_memory_than_one():
    """The lanes share one chunk's buffers: at the process table's shape
    (d = 52, 100 background rows, layers 128 and 64 wide, 1076 coalitions)
    the traced peak at 2 lanes is at most 1.1 times the peak at 1 lane. A
    set of chunk buffers per lane would double it."""
    d = 52
    net = build_network(d, [128, 64], 32, RngStream(90))
    rng = np.random.default_rng(91)
    background, x = rng.uniform(0, 1, size=(100, d)), rng.uniform(0, 1, size=d)
    in_s = _plan(d, None, 92).in_s
    folded = fold_encoder(net)
    one, two = (peak_bytes(lambda: _encoder_coalition_values(folded, x, background, in_s, lanes))
                for lanes in (1, 2))
    assert two <= 1.1 * one


@pytest.mark.parametrize("d", [6, 20])
def test_planned_solve_matches_per_row_reference(d):
    net = trained_like_encoder(d, 80 + d)
    rng = np.random.default_rng(81 + d)
    train = rng.uniform(0, 1, size=(12, d))
    test = rng.uniform(0, 1, size=(4, d))
    background, x_eval = train[:5], test[:3]
    base = encode(net, background).mean(axis=0)
    folded = fold_encoder(net)
    want = per_row_attribute(
        lambda x, in_s: per_layer_encoder_coalition_values(folded, x, background, in_s),
        x_eval, base, encode(net, x_eval), 120, 9)
    got = explain_encoder(net, train, test, n_background=5, n_eval=3, n_coalitions=120,
                          seed=9)
    assert np.array_equal(got.values, want)

    f = interactive_model(d, seed=d)
    base_out = f(background).mean(axis=0)
    want = per_row_attribute(
        lambda x, in_s: per_chunk_coalition_values(f, x, background, in_s, 2),
        x_eval, base_out, f(x_eval), 120, 9)
    got = kernel_shap(f, x_eval, background, n_coalitions=120, seed=9)
    assert np.array_equal(got.values, want)
