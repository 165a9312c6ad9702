"""Output checks that recompute what the claire commands report.

Nothing here imports claire. Every check reads the files a command wrote
(model.json, metrics.json, lda_*.{csv,json}, loss_history.csv and the
explain exports), recomputes the reported figure with plain numpy, and
raises ``CheckFailed`` when the two disagree.
"""
from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

# decision values this close to 0 may land on either side of the >= 0 rule
AMBIGUOUS_DECISION = 1e-9
# attributions are written with repr(), so sums differ from the encoder
# only by float64 summation order over at most a few hundred features
ADDITIVITY_TOL = 1e-8
METRIC_TOL = 1e-12


class CheckFailed(AssertionError):
    """A command output disagrees with its independent recomputation."""


def read_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- the model, re-implemented from the bundle -------------------------------

def scale_raw(bundle: dict, raw_x: np.ndarray) -> np.ndarray:
    """Drop, impute and min-max scale raw rows with the bundle's stored state."""
    pre = bundle["preprocessing"]
    col_of = {name: j for j, name in enumerate(pre["original_feature_names"])}
    kept = pre["kept_feature_names"]
    x = raw_x[:, [col_of[name] for name in kept]].copy()
    medians = np.array([pre["medians"][name] for name in kept])
    nan_rows, nan_cols = np.nonzero(np.isnan(x))
    x[nan_rows, nan_cols] = medians[nan_cols]
    lo = np.array(pre["scaler"]["col_min"])
    hi = np.array(pre["scaler"]["col_max"])
    span = hi - lo
    constant = span == 0
    scaled = (x - lo) / np.where(constant, 1.0, span)
    return np.clip(np.where(constant, 0.5, scaled), 0.0, 1.0)


def encode(network: dict, x: np.ndarray) -> np.ndarray:
    """Inference-mode encoder: affine, running-statistics batch norm,
    activation, then the non-inverted dropout's scaling by keep."""
    h = x
    for layer in network["encoder"]:
        a = h @ np.array(layer["weights"]).T + np.array(layer["bias"])
        bn = layer["batch_norm"]
        if bn is not None:
            std = np.sqrt(np.array(bn["running_var"]) + bn["epsilon"])
            a = (np.array(bn["gamma"]) * (a - np.array(bn["running_mean"])) / std
                 + np.array(bn["beta"]))
        act = layer["activation"]
        if act["kind"] == "leaky_relu":
            a = np.where(a > 0, a, act["slope"] * a)
        elif act["kind"] == "sigmoid":
            a = 1.0 / (1.0 + np.exp(-a))
        else:
            raise CheckFailed(f"encoder activation {act['kind']!r} is not re-implemented")
        if layer["dropout_keep"] is not None:
            a = layer["dropout_keep"] * a
        h = a
    return h


def decision_values(bundle: dict, raw_x: np.ndarray) -> np.ndarray:
    """Kernel SVM decision for every raw row, from the bundle alone."""
    scaled = scale_raw(bundle, raw_x)
    codes = encode(bundle["network"], scaled)
    svm = bundle["svm"]
    _require(svm["kernel"]["kind"] == "rbf",
             f"kernel {svm['kernel']['kind']!r} is not re-implemented")
    sv = np.array(svm["support_vectors"])
    sq = (np.square(sv).sum(axis=1)[:, None] + np.square(codes).sum(axis=1)[None, :]
          - 2.0 * sv @ codes.T)
    gram = np.exp(-svm["kernel"]["gamma"] * np.maximum(sq, 0.0))
    return np.array(svm["dual_coef"]) @ gram + svm["bias"]


def confusion(labels: np.ndarray, preds: np.ndarray) -> dict:
    return {"tp": int(np.sum((preds == 1) & (labels == 1))),
            "fp": int(np.sum((preds == 1) & (labels == 0))),
            "tn": int(np.sum((preds == 0) & (labels == 0))),
            "fn": int(np.sum((preds == 0) & (labels == 1)))}


# --- the checks --------------------------------------------------------------

def check_predictions(bundle: dict, raw_x: np.ndarray, raw_y: np.ndarray,
                      metrics_all: dict) -> None:
    """The `eval --split all` confusion counts match labels recomputed from
    the bundle on the raw table, up to rows whose decision is within
    AMBIGUOUS_DECISION of 0."""
    _require(metrics_all["split"] == "all" and metrics_all["n_rows"] == raw_y.size,
             f"eval --split all scored {metrics_all['n_rows']} rows, table has {raw_y.size}")
    decision = decision_values(bundle, raw_x)
    clear = np.abs(decision) > AMBIGUOUS_DECISION
    ours = confusion(raw_y[clear], (decision[clear] >= 0).astype(np.int64))
    slack = int(np.sum(~clear))
    reported = metrics_all["confusion"]
    for cell in ("tp", "fp", "tn", "fn"):
        _require(ours[cell] <= reported[cell] <= ours[cell] + slack,
                 f"confusion {cell}: eval reports {reported[cell]}, recomputed "
                 f"{ours[cell]} (+{slack} ambiguous rows)")


def _f1(hit: int, false_pos: int, false_neg: int) -> float:
    if hit + false_pos == 0 or hit + false_neg == 0:
        return 0.0
    precision = hit / (hit + false_pos)
    recall = hit / (hit + false_neg)
    return 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)


def check_reported_metrics(metrics: dict) -> None:
    """accuracy and f1_macro follow from the reported confusion counts."""
    c = metrics["confusion"]
    n = c["tp"] + c["fp"] + c["tn"] + c["fn"]
    _require(n == metrics["n_rows"], f"confusion counts sum to {n}, not {metrics['n_rows']}")
    accuracy = (c["tp"] + c["tn"]) / n
    macro_f1 = (_f1(c["tp"], c["fp"], c["fn"]) + _f1(c["tn"], c["fn"], c["fp"])) / 2
    _require(abs(accuracy - metrics["accuracy"]) <= METRIC_TOL,
             f"accuracy {metrics['accuracy']} but confusion gives {accuracy}")
    _require(abs(macro_f1 - metrics["f1_macro"]) <= METRIC_TOL,
             f"f1_macro {metrics['f1_macro']} but confusion gives {macro_f1}")


def check_dual(bundle: dict) -> None:
    """Box constraint |alpha_i y_i| <= C and equality constraint sum = 0."""
    svm = bundle["svm"]
    coef = np.array(svm["dual_coef"])
    c = svm["c"]
    _require(coef.size > 0, "the SVM has no support vectors")
    worst = float(np.max(np.abs(coef)))
    _require(worst <= c * (1 + 1e-12), f"dual coefficient {worst!r} exceeds C = {c!r}")
    total = float(coef.sum())
    _require(abs(total) <= 1e-9 * c * coef.size,
             f"dual coefficients sum to {total!r}, not 0")


def check_loss_history(path: str) -> None:
    """Every logged loss is finite and the last epoch's total beats the first."""
    header, rows = read_csv(path)
    _require(len(rows) >= 2, f"{path}: {len(rows)} epochs logged")
    values = np.array([[float(v) for v in row] for row in rows])
    _require(bool(np.all(np.isfinite(values))), f"{path}: non-finite loss value")
    total = values[:, header.index("l_total")]
    _require(total[-1] < total[0],
             f"{path}: last total {total[-1]!r} not below first {total[0]!r}")


def dprime_from_projection(path: str) -> float:
    """Fisher d' from projected values, with population variances."""
    _, rows = read_csv(path)
    values = np.array([float(r[0]) for r in rows])
    labels = np.array([int(r[1]) for r in rows])
    p0, p1 = values[labels == 0], values[labels == 1]
    m0, m1 = p0.mean(), p1.mean()
    v0, v1 = np.square(p0 - m0).mean(), np.square(p1 - m1).mean()
    return float(abs(m1 - m0) / math.sqrt(max((v0 + v1) / 2.0, 1e-24)))


def check_projection(out_dir: str) -> float:
    """lda_summary.json's dprime matches the one recomputed from the CSV."""
    reported = read_json(os.path.join(out_dir, "lda_summary.json"))["dprime"]
    ours = dprime_from_projection(os.path.join(out_dir, "lda_projection.csv"))
    _require(abs(ours - reported) <= 1e-9 * max(1.0, abs(ours)),
             f"lda_summary dprime {reported!r}, projection gives {ours!r}")
    return reported


def read_attributions(out_dir: str, kept_names: list[str]) -> np.ndarray:
    """attributions.csv as values[sample, feature, latent_dim]."""
    _, rows = read_csv(os.path.join(out_dir, "attributions.csv"))
    col = {name: j for j, name in enumerate(kept_names)}
    n = 1 + max(int(r[0]) for r in rows)
    k = 1 + max(int(r[2]) for r in rows)
    values = np.full((n, len(kept_names), k), np.nan)
    for sample, feature, dim, value in rows:
        values[int(sample), col[feature], int(dim)] = float(value)
    _require(not np.isnan(values).any(), "attributions.csv does not cover every cell")
    return values


def explained_rows(out_dir: str, kept_names: list[str], n_samples: int) -> np.ndarray:
    """The scaled feature rows explain exported next to one beeswarm dimension."""
    name = min(f for f in os.listdir(out_dir) if f.startswith("beeswarm_dim_"))
    _, rows = read_csv(os.path.join(out_dir, name))
    col = {n: j for j, n in enumerate(kept_names)}
    x = np.full((n_samples, len(kept_names)), np.nan)
    for sample, feature, value, _ in rows:
        x[int(sample), col[feature]] = float(value)
    _require(not np.isnan(x).any(), f"{name} does not cover every explained cell")
    return x


def check_additivity(out_dir: str, bundle: dict, attributions: np.ndarray) -> float:
    """base + sum over features of the attributions equals our own encoder
    output for every explained row and latent dimension; returns the gap."""
    base = np.array(read_json(os.path.join(out_dir, "base_values.json"))["base_values"])
    kept = bundle["preprocessing"]["kept_feature_names"]
    z = encode(bundle["network"], explained_rows(out_dir, kept, attributions.shape[0]))
    gap = float(np.max(np.abs(base[None, :] + attributions.sum(axis=1) - z)))
    _require(gap <= ADDITIVITY_TOL, f"attribution additivity gap {gap!r}")
    return gap


def check_ranking(out_dir: str, kept_names: list[str], attributions: np.ndarray) -> None:
    """importance_global.csv's msv is mean |attribution| over samples and
    dimensions, listed in non-increasing order."""
    _, rows = read_csv(os.path.join(out_dir, "importance_global.csv"))
    _require(len(rows) == len(kept_names), "importance_global.csv misses features")
    msv = np.abs(attributions).mean(axis=(0, 2))
    col = {name: j for j, name in enumerate(kept_names)}
    reported = np.array([float(r[2]) for r in rows])
    ours = np.array([msv[col[r[1]]] for r in rows])
    _require(bool(np.all(np.abs(ours - reported) <= 1e-12 * np.maximum(1.0, ours))),
             "importance_global.csv msv differs from the attributions")
    _require(bool(np.all(np.diff(reported) <= 0)), "importance_global.csv is not sorted")
