"""Seeded synthetic benchmark generators.

These produce datasets with the shape and texture of the two target
domains (a wide, NaN-riddled, imbalanced semiconductor line table and a
narrower process-monitoring table with a fault-class column) so the whole
pipeline can be exercised and benchmarked without shipping data.

Construction: class identity lives in the magnitude of one hidden factor.
Failures are excursions along a secret sparse direction with a random
sign, successes sit near zero on it, so the two classes have identical
means in every column and the signal is second order only. High-variance
nuisance factors and a pure-noise block carry most of the energy. Kernel
distances on raw columns barely move with that structure and a
reconstruction-only objective has little reason to keep it, while a
jointly supervised encoder can isolate it, so representation quality
differences between training modes show up clearly.
"""
from __future__ import annotations

import numpy as np

from .data import TabularDataset
from .numerics import RngStream


def make_wide_line_dataset(n_rows: int = 1567, n_features: int = 590,
                           seed: int = 7, failure_fraction: float = 0.2,
                           label_noise: float = 0.02) -> TabularDataset:
    """Wide imbalanced table: 150 informative columns driven by latent
    factors, the rest pure noise; NaN-heavy columns, moderately missing
    columns, and a few constant columns included.
    """
    rng = RngStream(seed)
    n_fail = int(round(failure_fraction * n_rows))
    labels = np.ones(n_rows, dtype=np.int64)
    labels[rng.permutation(n_rows)[:n_fail]] = 0

    # class info is the magnitude of the factor, never its sign or mean
    sign = np.where(rng.uniform(n_rows) < 0.5, -1.0, 1.0)
    magnitude = np.where(labels == 0, 1.0, 0.0) + rng.normal(n_rows, std=0.2)
    u_sig = sign * magnitude
    bulk_scales = np.array([2.0, 1.8, 1.5, 1.2, 1.0, 0.8])
    u_bulk = rng.normal((n_rows, 6)) * bulk_scales

    n_informative = min(150, n_features)
    x = np.empty((n_rows, n_features))
    signal_cols = rng.permutation(n_informative)[:60]
    signal_gain = np.zeros(n_informative)
    signal_gain[signal_cols] = (rng.uniform(n_informative, 0.4, 0.8)[signal_cols]
                                * np.where(rng.uniform(n_informative)[signal_cols] < 0.5, -1, 1))
    bulk_load = rng.normal((n_informative, 6)) * (rng.uniform((n_informative, 6)) < 0.4)
    offsets = rng.uniform(n_features, -2.0, 2.0)
    x[:, :n_informative] = (offsets[:n_informative]
                            + u_sig[:, None] * signal_gain[None, :]
                            + u_bulk @ bulk_load.T
                            + rng.normal((n_rows, n_informative), std=0.3))
    noise_scales = rng.uniform(n_features - n_informative, 0.5, 1.5)
    x[:, n_informative:] = (offsets[n_informative:]
                            + rng.normal((n_rows, n_features - n_informative)) * noise_scales)

    # constant columns exercise the degenerate-scaler path
    n_constant = min(4, n_features - n_informative)
    for j in range(n_constant):
        x[:, n_informative + j] = offsets[n_informative + j]

    # missingness: a block that must be dropped, a block that gets imputed
    noise_start = n_informative + n_constant
    heavy = min(30, max(0, n_features - noise_start))
    moderate = min(80, max(0, n_features - noise_start - heavy))
    for j in range(heavy):
        frac = rng.uniform(None, 0.35, 0.85)
        col = noise_start + j
        x[rng.uniform(n_rows) < frac, col] = np.nan
    for j in range(moderate):
        frac = rng.uniform(None, 0.02, 0.20)
        col = noise_start + heavy + j
        x[rng.uniform(n_rows) < frac, col] = np.nan

    flips = rng.uniform(n_rows) < label_noise
    labels = np.where(flips, 1 - labels, labels)
    names = [f"feature_{j}" for j in range(n_features)]
    return TabularDataset(x, labels, names)


def make_process_dataset(n_normal: int = 960, fault_sizes: dict[int, int] | None = None,
                         n_vars: int = 52, seed: int = 11,
                         label_noise: float = 0.02) -> tuple[np.ndarray, np.ndarray]:
    """Process-monitoring table: returns (variables, fault_class) where
    fault class 0 is normal operation. Same magnitude-excursion
    construction; higher fault classes sit further out on the hidden axis.
    """
    if fault_sizes is None:
        fault_sizes = {1: 220, 2: 200, 3: 180}
    rng = RngStream(seed)
    fault_col = np.concatenate([np.zeros(n_normal, dtype=np.int64)]
                               + [np.full(size, cls, dtype=np.int64)
                                  for cls, size in sorted(fault_sizes.items())])
    order = rng.permutation(fault_col.size)
    fault_col = fault_col[order]
    n_rows = fault_col.size

    severity = {0: 0.0}
    for i, cls in enumerate(sorted(fault_sizes)):
        severity[cls] = 1.0 + 0.2 * i
    sign = np.where(rng.uniform(n_rows) < 0.5, -1.0, 1.0)
    magnitude = np.array([severity[int(c)] for c in fault_col]) + rng.normal(n_rows, std=0.2)
    u_sig = sign * magnitude
    u_bulk = rng.normal((n_rows, 4)) * np.array([2.0, 1.5, 1.2, 1.0])

    n_informative = min(30, n_vars)
    x = np.empty((n_rows, n_vars))
    gain = np.zeros(n_informative)
    picked = rng.permutation(n_informative)[:12]
    gain[picked] = (rng.uniform(n_informative, 0.4, 0.8)[picked]
                    * np.where(rng.uniform(n_informative)[picked] < 0.5, -1, 1))
    load = rng.normal((n_informative, 4)) * (rng.uniform((n_informative, 4)) < 0.5)
    offsets = rng.uniform(n_vars, -1.0, 1.0)
    x[:, :n_informative] = (offsets[:n_informative] + u_sig[:, None] * gain[None, :]
                            + u_bulk @ load.T
                            + rng.normal((n_rows, n_informative), std=0.3))
    x[:, n_informative:] = (offsets[n_informative:]
                            + rng.normal((n_rows, n_vars - n_informative))
                            * rng.uniform(n_vars - n_informative, 0.5, 1.5))

    flip = rng.uniform(n_rows) < label_noise
    flipped = fault_col.copy()
    # a flipped normal row borrows the first fault class and vice versa
    first_fault = sorted(fault_sizes)[0]
    flipped[flip & (fault_col == 0)] = first_fault
    flipped[flip & (fault_col != 0)] = 0
    return x, flipped


def write_line_files(features_path: str, labels_path: str,
                     ds: TabularDataset) -> None:
    """Write the whitespace features file and the -1/1 label file, row by row."""
    with open(features_path, "w", encoding="utf-8") as fh:
        for row in ds.features:
            fh.write(" ".join(["NaN" if v != v else repr(v) for v in row.tolist()]) + "\n")
    with open(labels_path, "w", encoding="utf-8") as fh:
        for i, label in enumerate(ds.labels.tolist()):
            raw = -1 if label == 1 else 1
            fh.write(f'{raw} "2008-01-01 {i % 24:02d}:00:00"\n')


def write_process_file(path: str, x: np.ndarray, fault_col: np.ndarray,
                       header: bool = True) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(",".join([f"var_{j}" for j in range(x.shape[1])] + ["fault"]) + "\n")
        for row, cls in zip(x, fault_col.tolist()):
            fh.write(",".join([repr(v) for v in row.tolist()]) + f",{int(cls)}\n")
