"""Dense float64 linear algebra, batch statistics, and seeded randomness.

Matrices throughout the package are 2-D C-contiguous float64 numpy arrays.
Every function here is pure; ``RngStream`` is the only stateful object and
produces identical draw sequences for identical seeds on every platform
(counter-based Philox generator behind a SeedSequence).
"""
from __future__ import annotations

import hashlib

import numpy as np

from .errors import ConditioningError, DegenerateDataError, ShapeError

RIDGE = 1e-10    # added to the diagonal of the weighted normal equations


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting anything that is not one."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={out.ndim}")
    return np.ascontiguousarray(out)


def as_vector(a, name: str = "vector") -> np.ndarray:
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 1:
        raise ShapeError(f"{name} must be 1-D, got ndim={out.ndim}")
    return np.ascontiguousarray(out)


def column_mean_var(m) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and population variance (divisor = row count)."""
    m = as_matrix(m)
    if m.shape[0] == 0:
        raise DegenerateDataError("column statistics need at least one row")
    mean = m.mean(axis=0)
    var = np.square(m - mean).mean(axis=0)
    return mean, var


def weighted_normal_matrix(design: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """design^T diag(weights) design + RIDGE * I: the left-hand side of the
    weighted normal equations, which depends on the design alone."""
    return design.T @ (design * weights[:, None]) + RIDGE * np.eye(design.shape[1])


def solve_weighted_least_squares(design, targets, weights,
                                 lhs: np.ndarray | None = None) -> np.ndarray:
    """Solve min_beta sum_i w_i * ||design_i . beta - targets_i||^2.

    Solved through the normal equations with a small ridge term
    (RIDGE * I) added for numerical rescue. ``targets`` may have several
    columns; one coefficient column is returned per target column.
    Several solves on one design and one set of weights can pass
    ``lhs = weighted_normal_matrix(design, weights)`` to form it once.
    """
    design = as_matrix(design, "design")
    targets = np.asarray(targets, dtype=np.float64)
    squeeze = targets.ndim == 1
    if squeeze:
        targets = targets[:, None]
    targets = as_matrix(targets, "targets")
    weights = as_vector(weights, "weights")
    if design.shape[0] != targets.shape[0] or design.shape[0] != weights.shape[0]:
        raise ShapeError(
            f"row counts differ: design {design.shape[0]}, targets {targets.shape[0]}, "
            f"weights {weights.shape[0]}")
    if np.any(weights < 0):
        raise ShapeError("weights must be non-negative")
    if lhs is None:
        lhs = weighted_normal_matrix(design, weights)
    rhs = design.T @ (targets * weights[:, None])
    try:
        beta = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise ConditioningError(f"normal equations singular beyond ridge rescue: {exc}") from exc
    if not np.all(np.isfinite(beta)):
        raise ConditioningError("normal equations produced non-finite coefficients")
    return beta[:, 0] if squeeze else beta


def substream_seed(root_seed: int, name: str) -> int:
    """Derive a stable 63-bit child seed for a named substream.

    Uses sha256 so the mapping is platform and numpy-version independent.
    """
    digest = hashlib.sha256(f"{root_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


class RngStream:
    """Deterministic random stream: identical seeds give identical draws."""

    def __init__(self, seed: int):
        self.seed = int(seed) % 2**63
        self._gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(self.seed)))

    def normal(self, shape, std: float = 1.0) -> np.ndarray:
        return self._gen.normal(scale=std, size=shape)

    def uniform(self, shape=None, low: float = 0.0, high: float = 1.0):
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low: int, high: int, size=None):
        # high is exclusive
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def permutations(self, n: int, count: int) -> np.ndarray:
        """(count, n) rows equal to ``count`` successive ``permutation(n)``
        draws, and the stream is left where those draws leave it."""
        return self._gen.permuted(np.tile(np.arange(n), (count, 1)), axis=1)

    def bernoulli(self, p: float, shape) -> np.ndarray:
        """0/1 float mask with P(1) = p."""
        return (self._gen.random(size=shape) < p).astype(np.float64)
