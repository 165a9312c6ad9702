"""Classification metrics and a one-dimensional separability analysis.

The separability tool fits Fisher's linear discriminant on a labeled point
cloud (latent codes or raw features), projects onto the discriminant
direction, and summarizes class separation with the sensitivity index

    dprime = |mu1 - mu0| / sqrt((var0 + var1) / 2)

computed from the projected class means and population variances.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError, DegenerateDataError, InputError, ShapeError
from .numerics import as_matrix

LDA_RIDGE = 1e-8    # added to the diagonal of the within-class scatter


@dataclass(frozen=True)
class MetricsReport:
    """Accuracy plus per-class and macro F1 with the confusion counts.

    ``f1`` is the macro average; the per-class scores are reported next to
    it so either convention can be read off directly. Positive class for
    the confusion counts is label 1.
    """
    accuracy: float
    f1: float
    f1_class1: float
    f1_class0: float
    tp: int
    fp: int
    tn: int
    fn: int

    def to_json_dict(self) -> dict:
        return {"accuracy": self.accuracy, "f1_macro": self.f1,
                "f1_class1": self.f1_class1, "f1_class0": self.f1_class0,
                "confusion": {"tp": self.tp, "fp": self.fp, "tn": self.tn, "fn": self.fn}}


def _f1(precision_num: int, precision_den: int, recall_num: int, recall_den: int) -> float:
    if precision_den == 0 or recall_den == 0:
        return 0.0
    p = precision_num / precision_den
    r = recall_num / recall_den
    if p + r == 0:
        return 0.0
    return 2 * p * r / (p + r)


def compute_metrics(y_true, y_pred) -> MetricsReport:
    y_true = np.asarray(y_true, dtype=np.int64).reshape(-1)
    y_pred = np.asarray(y_pred, dtype=np.int64).reshape(-1)
    if y_true.shape != y_pred.shape:
        raise ShapeError(f"{y_true.shape[0]} true labels vs {y_pred.shape[0]} predictions")
    if y_true.size == 0:
        raise DegenerateDataError("cannot score an empty label set")
    for name, arr in (("true labels", y_true), ("predictions", y_pred)):
        bad = set(np.unique(arr)) - {0, 1}
        if bad:
            raise InputError(f"{name} must be 0 or 1, found {sorted(bad)}")
    tp = int(np.sum((y_pred == 1) & (y_true == 1)))
    fp = int(np.sum((y_pred == 1) & (y_true == 0)))
    tn = int(np.sum((y_pred == 0) & (y_true == 0)))
    fn = int(np.sum((y_pred == 0) & (y_true == 1)))
    accuracy = (tp + tn) / y_true.size
    f1_pos = _f1(tp, tp + fp, tp, tp + fn)
    f1_neg = _f1(tn, tn + fn, tn, tn + fp)
    return MetricsReport(accuracy=accuracy, f1=(f1_pos + f1_neg) / 2,
                         f1_class1=f1_pos, f1_class0=f1_neg,
                         tp=tp, fp=fp, tn=tn, fn=fn)


@dataclass
class LdaProjection:
    """Unit discriminant direction plus the projected class summary.

    Sign convention: the class-1 projected mean is the larger one.
    ``threshold`` is the midpoint of the projected class means.
    """
    direction: np.ndarray
    threshold: float
    mean0: float
    mean1: float
    std0: float
    std1: float
    dprime: float

    def summary_dict(self) -> dict:
        return {"mean0": self.mean0, "mean1": self.mean1,
                "std0": self.std0, "std1": self.std1,
                "threshold": self.threshold, "dprime": self.dprime}


def lda_fit(z: np.ndarray, labels: np.ndarray) -> LdaProjection:
    """Fisher discriminant: direction proportional to S_W^-1 (mu1 - mu0),
    where S_W is the pooled within-class scatter with a ridge for
    invertibility. The direction is normalized to unit length.
    """
    z = as_matrix(z, "projection input")
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if labels.shape[0] != z.shape[0]:
        raise ShapeError(f"{labels.shape[0]} labels for {z.shape[0]} rows")
    z0 = z[labels == 0]
    z1 = z[labels == 1]
    if z0.shape[0] < 2 or z1.shape[0] < 2:
        raise DegenerateDataError(
            f"discriminant fit needs >= 2 rows per class, got {z0.shape[0]} and {z1.shape[0]}")
    if z.shape[0] - 2 < z.shape[1]:
        # the pooled scatter has rank at most n0 + n1 - 2; below the
        # dimension the direction and d' come from the ridge alone
        raise DegenerateDataError(
            f"discriminant fit on {z.shape[0]} rows in {z.shape[1]} dimensions is "
            f"rank-deficient: it needs at least {z.shape[1] + 2} rows")
    mu0 = z0.mean(axis=0)
    mu1 = z1.mean(axis=0)
    c0 = z0 - mu0
    c1 = z1 - mu1
    scatter = c0.T @ c0 + c1.T @ c1 + LDA_RIDGE * np.eye(z.shape[1])
    try:
        w = np.linalg.solve(scatter, mu1 - mu0)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"within-class scatter singular beyond ridge: {exc}") from exc
    if not np.all(np.isfinite(w)):
        raise ConditioningError("discriminant direction is non-finite")
    norm = np.linalg.norm(w)
    if norm == 0:
        # identical class means: any unit direction separates nothing
        w = np.zeros(z.shape[1])
        w[0] = 1.0
    else:
        w = w / norm

    proj0 = z0 @ w
    proj1 = z1 @ w
    if proj1.mean() < proj0.mean():
        w = -w
        proj0, proj1 = -proj0, -proj1
    m0, m1 = float(proj0.mean()), float(proj1.mean())
    v0 = float(np.square(proj0 - m0).mean())
    v1 = float(np.square(proj1 - m1).mean())
    denom = np.sqrt(max((v0 + v1) / 2.0, 1e-24))
    dprime = abs(m1 - m0) / denom
    return LdaProjection(direction=w, threshold=(m0 + m1) / 2.0,
                         mean0=m0, mean1=m1,
                         std0=float(np.sqrt(v0)), std1=float(np.sqrt(v1)),
                         dprime=float(dprime))


def project_export(proj: LdaProjection, z: np.ndarray,
                   labels: np.ndarray) -> dict:
    """Per-sample projections plus the summary, ready for CSV/JSON export."""
    z = as_matrix(z)
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    if labels.shape[0] != z.shape[0]:
        raise ShapeError(f"{labels.shape[0]} labels for {z.shape[0]} rows")
    if z.shape[1] != proj.direction.shape[0]:
        raise ShapeError(
            f"projection fitted on {proj.direction.shape[0]} dims, data has {z.shape[1]}")
    values = z @ proj.direction
    rows = [(float(v), int(l)) for v, l in zip(values, labels)]
    return {"rows": rows, "summary": proj.summary_dict()}
