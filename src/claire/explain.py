"""Shapley-value feature attributions via the kernel-weighted regression.

For an input x, a background set B and a vector-valued model f, the value
of a coalition S of features is the exact expectation over background
completions:

    v(S) = mean over rows r of B of f(x restricted to S, r elsewhere)

Attributions solve a weighted least squares fit of an additive game to
v(.), with coalition weight

    pi(s) = (d - 1) / (C(d, s) * s * (d - s))

for coalitions of size s. The empty and full coalitions carry infinite
weight; they are enforced exactly as constraints (intercept = v(empty),
attributions sum to f(x) - v(empty)) by eliminating one unknown, so the
additivity identity holds by construction.

All 2^d coalitions are enumerated when d <= 12. Otherwise the sampling is
paired (antithetic; Covert & Lee 2021, "Improving KernelSHAP"): every
sampled coalition S comes with its complement S^c. Sizes s and d - s form
a pair of strata with the same count, and the pairs share the budget in
proportion to their total kernel mass, (d - 1) / (s * (d - s)) per
stratum. A pair that fits its share is enumerated in full; otherwise
distinct s-subsets are sampled without replacement and their complements
fill stratum d - s. At s = d / 2 the stratum draws distinct pairs
{S, S^c}. Every coalition weighs its stratum's mass over the stratum's
count, so each stratum keeps its mass. A budget is rounded down to an even
count. Sampling is deterministic given the seed. Output per evaluated
sample is one attribution per (feature, model output) pair.

One call plans once for all its rows (``_plan``). Within a sampled
stratum the permutations come in blocks of at most ``SAMPLE_BLOCK`` from
``RngStream.permutations``: a block is never longer than the subsets
still missing, and each permutation adds at most one, so the stream gives
exactly the draws, coalitions and order of one ``permutation`` per draw.
The plan holds the membership matrix, the eliminated design and its
ridge-regularised weighted normal matrix; each explained row then forms
only its own right-hand side for ``solve_weighted_least_squares``.

``kernel_shap`` treats f as a black box and evaluates it on every masked
row: coalitions x background rows per explained row. ``explain_encoder``
shares the plan and the constrained solve but reads v(S) off the encoder's
structure. Its inference layers fold into one affine map per layer
(``network.fold_encoder``). A completed row differs from its background
row only on S and from x only off S, so layer 0 needs only the
min(s, d - s) changed columns, added to precomputed B W0^T or x W0^T.
The layers after it run on every coalition row, chunk by chunk, in
buffers allocated once per call and released when it returns. Each
chunk's coalitions are split across one lane per usable CPU
(``blas.in_lanes``), with BLAS held at one thread; every lane writes only
its own rows and runs each elementwise pass over them in one go. At the
line table's defaults (d = 560, 1584 coalitions, layer widths 128 and 64)
layer 0 sees 36,940 instead of 887,040 column terms per background row.
The base values and f(x) still come from ``network.encode``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import blas, network
from .errors import InputError, InterfaceError, ShapeError
from .numerics import (RngStream, as_matrix, solve_weighted_least_squares,
                       weighted_normal_matrix)

EXHAUSTIVE_LIMIT = 12
ENCODER_ROWS = 4096        # coalition rows (coalitions x background rows) per chunk
ENCODER_GATHER = 2**18     # gathered layer-0 weights per chunk
SAMPLE_BLOCK = 1024        # most permutations the coalition sampler draws at once


@dataclass
class AttributionTensor:
    """values[sample, feature, output] plus per-output base values."""
    values: np.ndarray
    base_values: np.ndarray
    feature_names: list[str] | None = None

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.values.shape[2]


def shapley_kernel_weight(d: int, s: int) -> float:
    """Regression weight for one coalition of size s out of d features."""
    if not 0 < s < d:
        raise InputError(f"coalition size must be strictly between 0 and {d}, got {s}")
    return (d - 1) / (math.comb(d, s) * s * (d - s))


def _size_mass(d: int, s: int) -> float:
    # total kernel mass of the whole size-s stratum: pi(s) * C(d, s)
    return (d - 1) / (s * (d - s))


def _call_model(f, batch: np.ndarray, expected_width: int | None) -> np.ndarray:
    out = np.asarray(f(batch), dtype=np.float64)
    if out.ndim == 1:
        out = out[:, None]
    if out.ndim != 2 or out.shape[0] != batch.shape[0]:
        raise InterfaceError(
            f"model returned shape {out.shape} for a batch of {batch.shape[0]} rows")
    if expected_width is not None and out.shape[1] != expected_width:
        raise InterfaceError(
            f"model output width changed between calls: {expected_width} then {out.shape[1]}")
    return out


def _coalition_values(f, x: np.ndarray, background: np.ndarray, in_s: np.ndarray,
                      width: int) -> np.ndarray:
    """v(S) for each row of the membership ``in_s``: exact mean over all
    background completions."""
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


def _encoder_chunks(from_x: np.ndarray, n_changed: np.ndarray, n_bg: int, width: int):
    """Runs of coalitions, sorted by side and by changed-column count, that
    each fit one batched layer-0 matmul of at most ENCODER_ROWS rows and
    ENCODER_GATHER gathered weights."""
    max_coalitions = max(1, ENCODER_ROWS // n_bg)
    block: list[int] = []
    for c in np.lexsort((n_changed, from_x)):
        if block and (len(block) == max_coalitions or from_x[c] != from_x[block[0]]
                      or (len(block) + 1) * n_changed[c] * width > ENCODER_GATHER):
            yield np.array(block)
            block = []
        block.append(c)
    if block:
        yield np.array(block)


def _activate(act, a: np.ndarray, scratch: np.ndarray) -> None:
    """``a = act.apply(a)`` in place; LeakyReLU with 0 < slope <= 1 goes
    through ``scratch``, at least as large as ``a``, with the same bits."""
    if act.kind == "leaky_relu" and 0.0 < act.slope <= 1.0:
        t = scratch[:a.size].reshape(a.shape)
        np.multiply(a, act.slope, out=t)
        np.maximum(a, t, out=a)
    else:
        a[...] = act.apply(a)


def _encoder_coalition_values(folded, x: np.ndarray, background: np.ndarray,
                              in_s: np.ndarray, lanes: int = 1) -> np.ndarray:
    """v(S) for each row of the membership ``in_s`` through the folded
    encoder of ``network.fold_encoder``, without building the masked rows.

    With D = x - B, the row that completes x on S with background row r
    reaches layer 0 as P_r + sum over j in S of D_rj * W0[:, j], where
    P = B W0^T + b0, and equally as q - sum over j not in S, where
    q = x W0^T + b0. Each coalition takes the shorter sum, so only
    min(s, d - s) columns per row enter layer 0. A chunk of coalitions goes
    through layer 0 as one batched matmul, their column lists padded with
    column d, whose D and W0 entries are zero. Every chunk writes into the
    same buffers, sized for the largest chunk.

    The calling thread builds a chunk's padded column lists; the chunk's
    coalitions are then cut into min(``lanes``, coalitions) runs of
    neighbours, one per lane, as one ``blas.in_lanes`` job. Each lane
    gathers, multiplies, activates and averages its own rows of the shared
    buffers. After each layer's matmul it runs every elementwise pass (P or
    q, the bias, the activation) once, in place, over all its rows; the
    LeakyReLU scratch of a lane holds its share of the largest chunk. A
    coalition's rows see the same matmuls whichever lane runs them, and the
    passes act on each value alone, so with BLAS at one thread the bits are
    the same at every lane count.
    """
    layers, out_scale = folded
    (w0, b0, act0), rest = layers[0], layers[1:]
    n_bg, d = background.shape
    h0 = w0.shape[0]
    diff_t = np.zeros((d + 1, n_bg))
    diff_t[:d] = (x[None, :] - background).T
    w0_t = np.zeros((d + 1, h0))
    w0_t[:d] = w0.T
    bg_pre, x_pre = background @ w0.T + b0, x @ w0.T + b0
    from_x = 2 * in_s.sum(axis=1) > d
    changed = in_s != from_x[:, None]
    n_changed = changed.sum(axis=1)
    blocks = list(_encoder_chunks(from_x, n_changed, n_bg, h0))
    most_gathered = max(block.shape[0] * n_changed[block].max() for block in blocks)
    most_coalitions = max(block.shape[0] for block in blocks)
    lanes = min(lanes, most_coalitions)
    diff_buf, w0_buf = np.empty(most_gathered * n_bg), np.empty(most_gathered * h0)
    outs = [np.empty(most_coalitions * n_bg * w.shape[0]) for w, _, _ in layers]
    scratch_size = math.ceil(most_coalitions / lanes) * n_bg * max(w.shape[0] for w, _, _ in layers)
    scratches = [np.empty(scratch_size) for _ in range(lanes)]
    values = np.empty((in_s.shape[0], layers[-1][0].shape[0]))

    def run(block, idx, bufs, lo, hi, scratch):
        """Coalitions lo:hi of the chunk ``block``, in their rows of ``bufs``."""
        diff_g, w0_g, hs = bufs
        # mode "clip" leaves the indices, all in range, as they are and, unlike
        # the default, writes straight into ``out``
        np.take(diff_t, idx[lo:hi], axis=0, mode="clip", out=diff_g[lo:hi])
        np.take(w0_t, idx[lo:hi], axis=0, mode="clip", out=w0_g[lo:hi])
        pre = np.matmul(np.swapaxes(diff_g[lo:hi], 1, 2), w0_g[lo:hi], out=hs[0][lo:hi])
        if from_x[block[0]]:
            np.subtract(x_pre, pre, out=pre)
        else:
            pre += bg_pre
        h = pre.reshape(-1, h0)
        _activate(act0, h, scratch)
        for (w, b, act), out in zip(rest, hs[1:]):
            h = np.matmul(h, w.T, out=out[lo:hi].reshape(h.shape[0], -1))
            h += b
            _activate(act, h, scratch)
        values[block[lo:hi]] = h.reshape(hi - lo, n_bg, -1).mean(axis=1)

    def jobs():
        for block in blocks:
            nb = block.shape[0]
            counts = n_changed[block]
            rows, cols = np.nonzero(changed[block])
            slots = np.arange(rows.shape[0]) - np.repeat(np.cumsum(counts) - counts, counts)
            idx = np.full((nb, counts.max()), d)
            idx[rows, slots] = cols
            bufs = (diff_buf[:idx.size * n_bg].reshape(*idx.shape, n_bg),
                    w0_buf[:idx.size * h0].reshape(*idx.shape, h0),
                    [out[:nb * n_bg * w.shape[0]].reshape(nb, n_bg, -1)
                     for (w, _, _), out in zip(layers, outs)])
            parts = min(lanes, nb)

            # every lane has run a job before the next is drawn
            def job(lane):
                if lane < parts:
                    run(block, idx, bufs, lane * nb // parts, (lane + 1) * nb // parts,
                        scratches[lane])
            yield job

    blas.in_lanes(lanes, jobs())
    return values * out_scale


def _combinations(d: int, s: int, count: int) -> np.ndarray:
    """Membership rows of the first ``count`` s-subsets of range(d), in
    lexicographic order."""
    combos = np.array(list(itertools.islice(itertools.combinations(range(d), s), count)),
                      dtype=np.intp).reshape(count, s)
    rows = np.zeros((count, d), dtype=bool)
    np.put_along_axis(rows, combos, True, axis=1)
    return rows


def _stack(d: int, strata: list[tuple[np.ndarray, float]]) -> tuple[np.ndarray, np.ndarray]:
    """One membership matrix and weight vector from (rows, weight per row)
    strata, in order."""
    in_s = np.concatenate([np.zeros((0, d), dtype=bool)] + [rows for rows, _ in strata])
    weights = np.concatenate([np.zeros(0)] + [np.full(rows.shape[0], w) for rows, w in strata])
    return in_s, weights


def _enumerate_all(d: int) -> tuple[np.ndarray, np.ndarray]:
    return _stack(d, [(_combinations(d, s, math.comb(d, s)), shapley_kernel_weight(d, s))
                      for s in range(1, d)])


def _allocate_budget(budget: int, masses: dict[int, float],
                     counts: dict[int, int]) -> dict[int, int]:
    """Split ``budget`` over the keys of ``masses`` in proportion to their
    mass, giving key k at most counts[k]."""
    keys = sorted(masses)
    alloc = {k: 0 for k in keys}
    left = budget
    while left > 0:
        active = [k for k in keys if alloc[k] < counts[k]]
        if not active:
            break
        total = sum(masses[k] for k in active)
        gave = 0
        for k in active:
            take = min(int(left * masses[k] / total), counts[k] - alloc[k])
            alloc[k] += take
            gave += take
        if gave == 0:
            for k in sorted(active, key=lambda k: (-masses[k], k)):
                if gave >= left:
                    break
                alloc[k] += 1
                gave += 1
        left -= gave
    return alloc


def _pair_count(d: int, s: int) -> int:
    """How many pairs {S, S^c} with |S| = s <= d / 2 there are: C(d, s), or
    half that at s = d / 2, where S and S^c have the same size."""
    return math.comb(d, s) // (2 if 2 * s == d else 1)


def _allocate_pairs(budget: int, d: int) -> dict[int, int]:
    """How many pairs {S, S^c} of each size s = |S| <= d / 2 the paired
    sampler takes from a budget of coalitions."""
    sizes = range(1, d // 2 + 1)
    return _allocate_budget(budget // 2,
                            {s: _size_mass(d, s) * (1 if 2 * s == d else 2) for s in sizes},
                            {s: _pair_count(d, s) for s in sizes})


def _draw_distinct(d: int, s: int, want: int, rng: RngStream) -> np.ndarray:
    """Membership rows of ``want`` distinct s-subsets, in lexicographic order.
    Each permutation proposes its first s entries; at s = d / 2 a subset
    stands for its pair and is taken as the member holding feature 0. A
    stratum is deduplicated and ordered as packed bytes: with feature 0 as
    the first bit, descending bytes are ascending lexicographic order."""
    key = np.dtype((np.void, (d + 7) // 8))
    seen = np.zeros(0, dtype=key)
    while seen.shape[0] < want:
        block = rng.permutations(d, min(want - seen.shape[0], SAMPLE_BLOCK))
        rows = np.zeros(block.shape, dtype=bool)
        np.put_along_axis(rows, block[:, :s], True, axis=1)
        if 2 * s == d:
            rows ^= ~rows[:, :1]
        packed = np.packbits(rows, axis=1).view(key).ravel()
        seen = np.unique(np.concatenate([seen, packed]))
    return np.unpackbits(seen.view(np.uint8).reshape(want, -1), axis=1,
                         count=d)[::-1].view(bool)


def _sample_coalitions(d: int, budget: int,
                       rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """Paired coalitions: for each size s <= d / 2 its share of the budget
    in subsets S, then their complements; S and S^c weigh the same. A pair
    of strata that fits its share is enumerated in full, and every coalition
    weighs its stratum's kernel mass over the stratum's count."""
    strata = []
    for s, want in _allocate_pairs(budget, d).items():
        if want == 0:
            continue
        if want == _pair_count(d, s):
            first = _combinations(d, s, want)
        else:
            first = _draw_distinct(d, s, want, rng)
        weight = _size_mass(d, s) / (2 * want if 2 * s == d else want)
        strata += [(first, weight), (~first, weight)]
    return _stack(d, strata)


def coalition_count(d: int, n_coalitions: int | None = None) -> int:
    """How many coalitions the attribution of one row evaluates: all
    2^d - 2 proper ones when d <= EXHAUSTIVE_LIMIT, else the budget
    (default d + 1024) rounded down to even, as sampled coalitions come with
    their complements, and capped at 2^d - 2."""
    if d <= EXHAUSTIVE_LIMIT:
        return 2**d - 2
    if n_coalitions is None:
        n_coalitions = d + 1024
    if n_coalitions < d + 2:
        raise InputError(f"n_coalitions must be at least d + 2 = {d + 2}, got {n_coalitions}")
    return min(n_coalitions - n_coalitions % 2, 2**d - 2)


@dataclass
class _Plan:
    """The coalitions of one call and the parts of the constrained fit that
    depend on them alone: with z their 0/1 membership, ``design`` is
    z[:, :-1] - z[:, -1:], ``last`` is z[:, -1:] and ``lhs`` the design's
    weighted normal matrix. The last three are None when d = 1."""
    in_s: np.ndarray
    weights: np.ndarray
    design: np.ndarray | None
    last: np.ndarray | None
    lhs: np.ndarray | None


def _plan(d: int, n_coalitions: int | None, seed: int) -> _Plan:
    budget = coalition_count(d, n_coalitions)
    if d <= EXHAUSTIVE_LIMIT:
        in_s, weights = _enumerate_all(d)
    else:
        in_s, weights = _sample_coalitions(d, budget, RngStream(seed))
    if d == 1:
        return _Plan(in_s, weights, None, None, None)
    last = in_s[:, -1:].astype(np.float64)
    design = in_s[:, :-1].astype(np.float64, order="C")
    design -= last
    return _Plan(in_s, weights, design, last, weighted_normal_matrix(design, weights))


def _solve_attribution(plan: _Plan, values, base, fx) -> np.ndarray:
    """Constrained weighted least squares via elimination of the last
    feature: phi_last = (f(x) - base) - sum(other phi).
    """
    excess = fx - base                         # (k,)
    if plan.design is None:
        return excess[None, :].copy()
    targets = values - base[None, :] - plan.last * excess[None, :]
    phi_head = solve_weighted_least_squares(plan.design, targets, plan.weights,
                                            lhs=plan.lhs)
    phi = np.empty((plan.design.shape[1] + 1, values.shape[1]))
    phi[:-1] = phi_head
    phi[-1] = excess - phi_head.sum(axis=0)
    return phi


def _check_rows(x_eval, background) -> tuple[np.ndarray, np.ndarray]:
    x_eval = as_matrix(x_eval, "evaluation rows")
    background = as_matrix(background, "background rows")
    if x_eval.shape[1] != background.shape[1]:
        raise ShapeError(
            f"evaluation rows have {x_eval.shape[1]} features, background has "
            f"{background.shape[1]}")
    if background.shape[0] < 1:
        raise InputError("background set must contain at least one row")
    return x_eval, background


def _attribute(values_of, x_eval: np.ndarray, base: np.ndarray, fx_all: np.ndarray,
               n_coalitions: int | None, seed: int, progress=None) -> AttributionTensor:
    """Plan the coalitions once, then fit every row of ``x_eval``;
    ``values_of(x, in_s)`` gives v(S) for one row and each row of the
    membership ``in_s``, and ``progress(i)``, if given, runs after row i."""
    plan = _plan(x_eval.shape[1], n_coalitions, seed)
    values = np.empty((x_eval.shape[0], x_eval.shape[1], base.shape[0]))
    for i in range(x_eval.shape[0]):
        if plan.in_s.shape[0]:
            coalition_vals = values_of(x_eval[i], plan.in_s)
        else:
            coalition_vals = np.zeros((0, base.shape[0]))
        values[i] = _solve_attribution(plan, coalition_vals, base, fx_all[i])
        if progress is not None:
            progress(i)
    return AttributionTensor(values=values, base_values=base)


def kernel_shap(f, x_eval: np.ndarray, background: np.ndarray,
                n_coalitions: int | None = None, seed: int = 0) -> AttributionTensor:
    """Attribute each model output across input features for every row of
    ``x_eval``. ``f`` maps a (rows, d) batch to (rows, k) outputs.
    """
    x_eval, background = _check_rows(x_eval, background)
    base_out = _call_model(f, background, None)
    width = base_out.shape[1]
    fx_all = _call_model(f, x_eval, width)
    return _attribute(
        lambda x, in_s: _coalition_values(f, x, background, in_s, width),
        x_eval, base_out.mean(axis=0), fx_all, n_coalitions, seed)


def explain_plan(n_train: int, n_test: int, d: int, n_background: int, n_eval: int,
                 n_coalitions: int | None) -> int:
    """Check the budgets of ``explain_encoder`` against the rows it gets;
    returns the coalitions it evaluates per explained row."""
    if not 1 <= n_background <= n_train:
        raise InputError(f"n_background must be in [1, {n_train}], got {n_background}")
    if not 1 <= n_eval <= n_test:
        raise InputError(f"n_eval must be in [1, {n_test}], got {n_eval}")
    if n_coalitions is not None and n_coalitions < 1:
        raise InputError(f"n_coalitions must be at least 1, got {n_coalitions}")
    return coalition_count(d, n_coalitions)


def explain_encoder(params, train_features: np.ndarray, test_features: np.ndarray,
                    feature_names: list[str] | None = None,
                    n_background: int = 100, n_eval: int = 100,
                    n_coalitions: int | None = None, seed: int = 0,
                    progress=None) -> AttributionTensor:
    """Kernel attributions of every latent dimension of the encoder.

    Background = first ``n_background`` training rows; evaluated samples =
    first ``n_eval`` test rows. Inputs must already be preprocessed. The
    base values and f(x) come from ``network.encode``; the coalition values
    come from the folded encoder (``_encoder_coalition_values``), on one
    lane per usable CPU. The whole call holds BLAS at one thread
    (``blas.one_thread``), so its bits do not depend on BLAS's thread count
    and the lanes do not compete with BLAS threads; where that count
    cannot be set, BLAS is left alone and the call runs one lane.
    ``progress(i)``, if given, runs after evaluated sample i is attributed.
    """
    train_features = as_matrix(train_features, "training rows")
    test_features = as_matrix(test_features, "test rows")
    explain_plan(train_features.shape[0], test_features.shape[0], test_features.shape[1],
                 n_background, n_eval, n_coalitions)
    x_eval, background = _check_rows(test_features[:n_eval], train_features[:n_background])
    with blas.one_thread() as pinned:
        lanes = blas.usable_cpus() if pinned else 1
        base = network.encode(params, background).mean(axis=0)
        fx_all = network.encode(params, x_eval)
        folded = network.fold_encoder(params)
        attr = _attribute(
            lambda x, in_s: _encoder_coalition_values(folded, x, background, in_s, lanes),
            x_eval, base, fx_all, n_coalitions, seed, progress)
    attr.feature_names = list(feature_names) if feature_names is not None else None
    return attr


@dataclass
class ImportanceRanking:
    """Features sorted by mean absolute attribution, most important first.

    ``msv`` is the mean over samples and model outputs of |attribution|;
    ``per_output`` keeps the per-output means, aligned with the ranking.
    """
    order: np.ndarray
    features: list[str]
    msv: np.ndarray
    per_output: np.ndarray


def _names_for(attr: AttributionTensor) -> list[str]:
    if attr.feature_names is not None:
        return list(attr.feature_names)
    return [f"feature_{j}" for j in range(attr.n_features)]


def _rank(scores_per_output: np.ndarray, names: list[str]) -> ImportanceRanking:
    msv = scores_per_output.mean(axis=1)
    order = np.argsort(-msv, kind="stable")
    return ImportanceRanking(order=order,
                             features=[names[j] for j in order],
                             msv=msv[order],
                             per_output=scores_per_output[order])


def global_importance(attr: AttributionTensor) -> ImportanceRanking:
    """Rank features by mean |attribution| over samples and outputs."""
    scores = np.abs(attr.values).mean(axis=0)      # (d, k)
    return _rank(scores, _names_for(attr))


@dataclass
class ClassImportance:
    failure: ImportanceRanking
    success: ImportanceRanking
    contrast_features: list[str]
    contrast: np.ndarray           # failure score - success score, sorted desc


def class_conditional_importance(attr: AttributionTensor,
                                 labels: np.ndarray) -> ClassImportance:
    """Importance computed separately over failure (label 0) and success
    (label 1) samples; contrast = failure score - success score.
    """
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if labels.shape[0] != attr.n_samples:
        raise ShapeError(f"{labels.shape[0]} labels for {attr.n_samples} explained samples")
    bad = set(np.unique(labels)) - {0, 1}
    if bad:
        raise InputError(f"labels must be 0 or 1, found {sorted(bad)}")
    names = _names_for(attr)
    abs_vals = np.abs(attr.values)

    def class_scores(mask):
        if not mask.any():
            return np.zeros((attr.n_features, attr.n_outputs))
        return abs_vals[mask].mean(axis=0)

    fail_scores = class_scores(labels == 0)
    succ_scores = class_scores(labels == 1)
    diff = fail_scores.mean(axis=1) - succ_scores.mean(axis=1)
    order = np.argsort(-diff, kind="stable")
    return ClassImportance(failure=_rank(fail_scores, names),
                           success=_rank(succ_scores, names),
                           contrast_features=[names[j] for j in order],
                           contrast=diff[order])


def dependence_export(attr: AttributionTensor, x_eval: np.ndarray,
                      feature: int, color_feature: int,
                      output: int | str = "mean") -> list[tuple[float, float, float]]:
    """Rows of (feature value, attribution of that feature, color feature
    value) per evaluated sample. ``output`` picks one model output index or
    "mean" to average attributions over outputs.
    """
    x_eval = as_matrix(x_eval, "evaluation rows")
    if x_eval.shape[0] != attr.n_samples or x_eval.shape[1] != attr.n_features:
        raise ShapeError(
            f"evaluation rows {x_eval.shape} do not match attributions "
            f"({attr.n_samples}, {attr.n_features})")
    for name, idx in (("feature", feature), ("color_feature", color_feature)):
        if not 0 <= idx < attr.n_features:
            raise InputError(f"{name} index {idx} out of range [0, {attr.n_features})")
    if output == "mean":
        shap_vals = attr.values[:, feature, :].mean(axis=1)
    else:
        if not 0 <= int(output) < attr.n_outputs:
            raise InputError(f"output index {output} out of range [0, {attr.n_outputs})")
        shap_vals = attr.values[:, feature, int(output)]
    return [(float(x_eval[i, feature]), float(shap_vals[i]), float(x_eval[i, color_feature]))
            for i in range(attr.n_samples)]


def additivity_gap(attr: AttributionTensor, f, x_eval: np.ndarray) -> float:
    """Largest |base + sum(attributions) - f(x)| over samples and outputs."""
    x_eval = as_matrix(x_eval)
    fx = _call_model(f, x_eval, attr.n_outputs)
    reconstructed = attr.base_values[None, :] + attr.values.sum(axis=1)
    return float(np.max(np.abs(reconstructed - fx)))
