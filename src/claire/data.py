"""Dataset loading and the fixed preprocessing pipeline.

Pipeline order is fixed: missing-data handling, stratified split, minority
oversampling on the training rows only, then min-max scaling fitted on the
oversampled training rows and applied to both splits. No statistic of the
test split influences fitted state.

Label convention everywhere: 1 = success / normal operation, 0 = failure.

Loaders read each file once, and numpy's C parser (``np.loadtxt``) reads
its numeric block. The per-token parser reads the block again only when
the C parser refuses it (``NA`` or empty fields, a ragged row, a token
neither parser reads), when it is blank, or when a fault class or label
breaks its column's rule. That parser is the reference the C path
matches bit for bit, the only reader of ``NA`` and empty fields, and the
only source of the ``path:line`` errors.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, TextIO

import numpy as np

from .errors import DegenerateDataError, InputError, ShapeError, StateError
from .numerics import RngStream, substream_seed


@dataclass
class TabularDataset:
    """Feature matrix plus aligned integer labels in {0, 1}.

    ``features`` may contain NaN before missing-data handling and never
    after. ``provenance`` tags where the rows came from ("raw", "train",
    "test") so fitting routines can refuse test rows.
    """
    features: np.ndarray
    labels: np.ndarray
    feature_names: list[str]
    provenance: str = "raw"

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise ShapeError(f"features must be 2-D, got ndim={self.features.ndim}")
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.labels.ndim != 1:
            raise ShapeError("labels must be 1-D")
        if self.features.shape[0] != self.labels.shape[0]:
            raise ShapeError(
                f"{self.features.shape[0]} feature rows but {self.labels.shape[0]} labels")
        bad = set(np.unique(self.labels)) - {0, 1}
        if bad:
            raise InputError(f"labels must be 0 or 1, found {sorted(bad)}")
        if len(self.feature_names) != self.features.shape[1]:
            raise ShapeError(
                f"{len(self.feature_names)} feature names for {self.features.shape[1]} columns")

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> dict[str, int]:
        return {"failure": int(np.sum(self.labels == 0)),
                "success": int(np.sum(self.labels == 1))}


@dataclass
class ScalerState:
    """Per-column min/max learned from training rows."""
    col_min: np.ndarray | None = None
    col_max: np.ndarray | None = None
    fitted: bool = False


@dataclass
class PreprocessReport:
    """What preprocessing did, for the JSON report and the model bundle."""
    dropped_columns: list[tuple[str, float]] = field(default_factory=list)
    imputed_columns: list[tuple[str, float]] = field(default_factory=list)
    class_counts_before: dict[str, int] | None = None
    class_counts_after: dict[str, int] | None = None
    outlier_detection: str = "not applied"

    def to_json_dict(self) -> dict:
        return {
            "dropped_columns": [{"name": n, "missing_fraction": f}
                                for n, f in self.dropped_columns],
            "imputed_columns": [{"name": n, "median": m}
                                for n, m in self.imputed_columns],
            "class_counts_before_oversampling": self.class_counts_before,
            "class_counts_after_oversampling": self.class_counts_after,
            "outlier_detection": self.outlier_detection,
        }

    @staticmethod
    def from_json_dict(doc: dict) -> "PreprocessReport":
        return PreprocessReport(
            dropped_columns=[(e["name"], float(e["missing_fraction"]))
                             for e in doc.get("dropped_columns", [])],
            imputed_columns=[(e["name"], float(e["median"]))
                             for e in doc.get("imputed_columns", [])],
            class_counts_before=doc.get("class_counts_before_oversampling"),
            class_counts_after=doc.get("class_counts_after_oversampling"),
            outlier_detection=doc.get("outlier_detection", "not applied"),
        )


def _parse_float(token: str, path: str, line_no: int) -> float:
    t = token.strip()
    if t.lower() in ("nan", "na", ""):
        return math.nan
    try:
        return float(t)
    except ValueError as exc:
        raise InputError(f"{path}:{line_no}: cannot parse value {token!r}") from exc


# A loader's rule for one column of every row: its index, a test of float64
# values (arrays or scalars) and what the column must hold.
ColumnRule = tuple[int, Callable[[Any], Any], str]


def _integral(v):
    return np.isfinite(v) & (np.trunc(v) == v)


def _zero_or_one(v):
    return (v == 0.0) | (v == 1.0)


def _first_line(fh: TextIO) -> tuple[int, int, str]:
    """Offset, line number and text of the first non-blank line of ``fh``;
    the text is "" when there is none."""
    line_no = 0
    while True:
        pos = fh.tell()
        line = fh.readline()
        line_no += 1
        if not line or line.strip():
            return pos, line_no, line


def _numeric_rows(fh: TextIO, path: str, delimiter: str | None, start: int,
                  width: int | None = None, rule: ColumnRule | None = None) -> np.ndarray:
    """The lines left in ``fh``, the first of which is line ``start`` of
    ``path``, as a float64 matrix ``width`` columns wide (by default as wide
    as its first row). numpy's C parser reads the block in one pass.
    Anything it refuses (an ``NA`` or empty field, a ragged row, a bad
    token), an empty block, a block of another width and a value that
    breaks ``rule`` send it to the per-token parser instead.
    """
    pos = fh.tell()
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            x = np.loadtxt(fh, dtype=np.float64, comments=None, delimiter=delimiter,
                           ndmin=2)
        if (x.size and x.shape[1] == (width or x.shape[1])
                and (rule is None or np.all(rule[1](x[:, rule[0]])))):
            return x
    except ValueError:
        pass
    fh.seek(pos)
    return _token_rows(fh, path, delimiter, start, width, rule)


def _token_rows(fh: TextIO, path: str, delimiter: str | None, start: int,
                width: int | None = None, rule: ColumnRule | None = None) -> np.ndarray:
    """The per-token parser that ``_numeric_rows`` falls back to, and the
    reference it must match. Blank lines are skipped; ``NaN``, ``NA`` and
    empty tokens (any case) read as NaN, others as ``float`` reads them.
    It raises every ``path:line`` error a loader reports.
    """
    rows: list[list[float]] = []
    for line_no, line in enumerate(fh, start=start):
        if not line.strip():
            continue
        toks = [t.strip() for t in line.split(delimiter)]
        if width is None:
            width = len(toks)
        elif len(toks) != width:
            raise InputError(f"{path}:{line_no}: expected {width} columns, got {len(toks)}")
        values = [_parse_float(t, path, line_no) for t in toks]
        if rule is not None and not rule[1](values[rule[0]]):
            raise InputError(f"{path}:{line_no}: {rule[2]}, got {toks[rule[0]]!r}")
        rows.append(values)
    return np.array(rows, dtype=np.float64).reshape(len(rows), width or 0)


def load_secom(features_path: str, labels_path: str) -> TabularDataset:
    """Load the semiconductor-line format: one whitespace-separated feature
    row per line, plus a separate label file whose first token per line is
    -1 (pass) or 1 (fail), followed by a timestamp that is ignored.

    Pass maps to label 1 (success), fail to label 0 (failure). NaN feature
    tokens are preserved as NaN for the missing-data stage.
    """
    try:
        with open(features_path, encoding="utf-8") as fh:
            features = _numeric_rows(fh, features_path, None, 1)
    except OSError as exc:
        raise InputError(f"cannot read features file {features_path}: {exc}") from exc
    if features.shape[0] == 0:
        raise InputError(f"{features_path}: no feature rows")

    labels: list[int] = []
    try:
        with open(labels_path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                token = line.split()[0]
                try:
                    raw = int(float(token))
                except ValueError as exc:
                    raise InputError(f"{labels_path}:{line_no}: bad label {token!r}") from exc
                if raw == -1:
                    labels.append(1)   # pass -> success
                elif raw == 1:
                    labels.append(0)   # fail -> failure
                else:
                    raise InputError(f"{labels_path}:{line_no}: label must be -1 or 1, got {raw}")
    except OSError as exc:
        raise InputError(f"cannot read labels file {labels_path}: {exc}") from exc

    if len(labels) != features.shape[0]:
        raise InputError(
            f"label file has {len(labels)} rows but feature file has {features.shape[0]}")
    names = [f"feature_{j}" for j in range(features.shape[1])]
    return TabularDataset(features, np.array(labels), names)


def _sniff_delimiter(line: str) -> str | None:
    return "," if "," in line else None


def load_tep(path: str, fault_classes: list[int] | None = None) -> TabularDataset:
    """Load a process-monitoring table: numeric variable columns plus a final
    integer fault-class column; an optional header row is auto-detected.

    Rows with fault class 0 become label 1 (normal). Rows whose fault class
    is in ``fault_classes`` become label 0. Other fault rows are excluded.
    ``fault_classes=None`` selects every non-zero class in the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            pos, line_no, first = _first_line(fh)
            if not first:
                raise InputError(f"{path}: empty file")
            delim = _sniff_delimiter(first)
            head = [t.strip() for t in first.split(delim)]
            try:
                float(head[0])
            except ValueError:          # a header row
                names, width, start = head[:-1], len(head), line_no + 1
            else:
                names, width, start = None, None, line_no
                fh.seek(pos)
            x = _numeric_rows(fh, path, delim, start, width,
                              (-1, _integral, "fault class must be an integer"))
    except OSError as exc:
        raise InputError(f"cannot read dataset file {path}: {exc}") from exc
    if x.shape[0] == 0:
        raise InputError(f"{path}: header but no data rows")
    if x.shape[1] < 2:
        raise InputError(f"{path}: need at least one variable and a fault class")

    faults = x[:, -1]
    present = set(int(c) for c in np.unique(faults))
    if fault_classes is None:
        selection = sorted(present - {0})
    else:
        selection = sorted(set(int(c) for c in fault_classes))
        unknown = [c for c in selection if c not in present]
        if unknown:
            raise InputError(f"fault classes {unknown} not present in {path} "
                             f"(available: {sorted(present)})")
        if 0 in selection:
            raise InputError("fault class 0 denotes normal operation and cannot be selected")

    keep = (faults == 0) | np.isin(faults, selection)
    features = x[keep, :-1]
    labels = (faults[keep] == 0).astype(np.int64)
    if names is None:
        names = [f"var_{j}" for j in range(features.shape[1])]
    if features.shape[0] == 0:
        raise DegenerateDataError(f"{path}: no rows left after fault-class selection")
    return TabularDataset(features, labels, list(names))


def load_labeled_csv(path: str, label_column: str = "label") -> TabularDataset:
    """Load a generic comma-separated table with a header and a 0/1 label column."""
    need_rows = f"{path}: need a header row and at least one data row"
    try:
        with open(path, encoding="utf-8") as fh:
            _, line_no, first = _first_line(fh)
            if not first:
                raise InputError(need_rows)
            header = [t.strip() for t in first.split(",")]
            if label_column not in header:
                raise InputError(f"{path}: no column named {label_column!r} in header")
            label_idx = header.index(label_column)
            x = _numeric_rows(fh, path, ",", line_no + 1, len(header),
                              (label_idx, _zero_or_one, "label must be 0 or 1"))
    except OSError as exc:
        raise InputError(f"cannot read dataset file {path}: {exc}") from exc
    if x.shape[0] == 0:
        raise InputError(need_rows)
    names = [h for i, h in enumerate(header) if i != label_idx]
    return TabularDataset(np.delete(x, label_idx, axis=1),
                          x[:, label_idx].astype(np.int64), names)


def missing_census(features: np.ndarray,
                   drop_threshold: float = 0.30) -> tuple[np.ndarray, np.ndarray]:
    """Each column's missing fraction and the mask of the columns it drops,
    those above ``drop_threshold``. The one place that decides which
    columns survive, for training and for the replay of a saved model.
    """
    if not 0.0 <= drop_threshold <= 1.0:
        raise InputError(f"drop_threshold must be in [0, 1], got {drop_threshold}")
    missing_frac = np.isnan(features).mean(axis=0)
    drop_mask = missing_frac > drop_threshold
    if np.all(drop_mask):
        raise DegenerateDataError("every column exceeds the missing-data drop threshold")
    return missing_frac, drop_mask


def handle_missing(ds: TabularDataset,
                   drop_threshold: float = 0.30) -> tuple[TabularDataset, PreprocessReport]:
    """Drop columns whose missing fraction exceeds ``drop_threshold``; impute
    remaining NaN entries with the column median over non-missing values.
    """
    x = ds.features
    missing_frac, drop_mask = missing_census(x, drop_threshold)
    report = PreprocessReport()
    report.dropped_columns = [(ds.feature_names[j], float(missing_frac[j]))
                              for j in np.flatnonzero(drop_mask)]
    kept_idx = np.flatnonzero(~drop_mask)
    kept = x[:, kept_idx].copy()
    kept_names = [ds.feature_names[j] for j in kept_idx]

    for col in range(kept.shape[1]):
        nan_mask = np.isnan(kept[:, col])
        if not nan_mask.any():
            continue
        finite = kept[~nan_mask, col]
        if finite.size == 0:
            raise DegenerateDataError(
                f"column {kept_names[col]!r} survives the drop threshold but has no "
                "observed values to take a median from")
        med = float(np.median(finite))
        kept[nan_mask, col] = med
        report.imputed_columns.append((kept_names[col], med))

    out = TabularDataset(kept, ds.labels.copy(), kept_names, provenance=ds.provenance)
    return out, report


def fit_scaler(train: TabularDataset) -> ScalerState:
    """Learn per-column min and max from training rows. NaN-free input required."""
    if train.provenance == "test":
        raise InputError("refusing to fit a scaler on test-tagged rows")
    x = train.features
    if np.isnan(x).any():
        raise InputError("scaler input still contains NaN; run missing-data handling first")
    if x.shape[0] == 0:
        raise DegenerateDataError("cannot fit a scaler on zero rows")
    return ScalerState(col_min=x.min(axis=0), col_max=x.max(axis=0), fitted=True)


def apply_scaler(state: ScalerState, ds: TabularDataset) -> TabularDataset:
    """Map features to [0, 1] using the fitted ranges.

    Constant columns map to 0.5. Values outside the fitted range (possible
    on test rows) are clipped so every output lies in [0, 1].
    """
    if not state.fitted:
        raise StateError("apply_scaler called before fit_scaler")
    x = ds.features
    if x.shape[1] != state.col_min.shape[0]:
        raise ShapeError(
            f"scaler fitted on {state.col_min.shape[0]} columns, dataset has {x.shape[1]}")
    if np.isnan(x).any():
        raise InputError("scaler input still contains NaN; run missing-data handling first")
    span = state.col_max - state.col_min
    constant = span == 0
    safe_span = np.where(constant, 1.0, span)
    scaled = (x - state.col_min) / safe_span
    scaled = np.where(constant, 0.5, scaled)
    scaled = np.clip(scaled, 0.0, 1.0)
    return TabularDataset(scaled, ds.labels.copy(), list(ds.feature_names),
                          provenance=ds.provenance)


def stratified_split(ds: TabularDataset, test_fraction: float = 0.2,
                     seed: int = 42) -> tuple[TabularDataset, TabularDataset]:
    """Split rows so each class lands in the test set at the requested
    fraction, to within one sample per class. Deterministic given seed.
    """
    if not 0.0 < test_fraction < 1.0:
        raise InputError(f"test_fraction must be in (0, 1), got {test_fraction}")
    counts = ds.class_counts()
    if min(counts.values()) < 2:
        raise DegenerateDataError(
            f"stratified split needs at least 2 rows per class, got {counts}")
    rng = RngStream(seed)
    test_rows: list[np.ndarray] = []
    for cls in (0, 1):
        idx = np.flatnonzero(ds.labels == cls)
        order = idx[rng.permutation(idx.size)]
        n_test = int(round(test_fraction * idx.size))
        test_rows.append(order[:n_test])
    test_idx = np.sort(np.concatenate(test_rows))
    mask = np.zeros(ds.n_rows, dtype=bool)
    mask[test_idx] = True
    train = TabularDataset(ds.features[~mask].copy(), ds.labels[~mask].copy(),
                           list(ds.feature_names), provenance="train")
    test = TabularDataset(ds.features[mask].copy(), ds.labels[mask].copy(),
                          list(ds.feature_names), provenance="test")
    return train, test


def oversample_minority(train: TabularDataset, seed: int = 42) -> TabularDataset:
    """Duplicate minority-class rows uniformly at random (with replacement)
    until both classes have equal counts. Training rows only.
    """
    if train.provenance == "test":
        raise InputError("refusing to oversample test-tagged rows")
    counts = train.class_counts()
    if counts["failure"] == 0 or counts["success"] == 0:
        raise DegenerateDataError(f"oversampling needs both classes, got {counts}")
    if counts["failure"] == counts["success"]:
        return TabularDataset(train.features.copy(), train.labels.copy(),
                              list(train.feature_names), provenance=train.provenance)
    minority = 0 if counts["failure"] < counts["success"] else 1
    deficit = abs(counts["success"] - counts["failure"])
    min_idx = np.flatnonzero(train.labels == minority)
    rng = RngStream(seed)
    picks = min_idx[rng.integers(0, min_idx.size, size=deficit)]
    features = np.vstack([train.features, train.features[picks]])
    labels = np.concatenate([train.labels, train.labels[picks]])
    return TabularDataset(features, labels, list(train.feature_names),
                          provenance=train.provenance)


@dataclass
class PreparedData:
    """Everything the downstream stages need after preprocessing."""
    train: TabularDataset
    test: TabularDataset
    scaler: ScalerState
    report: PreprocessReport
    original_names: list[str]
    kept_names: list[str]
    medians: dict[str, float]


def run_pipeline(ds_raw: TabularDataset, drop_threshold: float = 0.30,
                 test_fraction: float = 0.2, seed: int = 42) -> PreparedData:
    """Run the fixed pipeline and return scaled train/test splits plus the
    state needed to preprocess future rows identically.
    """
    handled, report = handle_missing(ds_raw, drop_threshold)
    medians = {name: float(np.median(handled.features[:, j]))
               for j, name in enumerate(handled.feature_names)}
    train, test = stratified_split(handled, test_fraction, substream_seed(seed, "split"))
    report.class_counts_before = train.class_counts()
    train_bal = oversample_minority(train, substream_seed(seed, "oversample"))
    report.class_counts_after = train_bal.class_counts()
    scaler = fit_scaler(train_bal)
    return PreparedData(
        train=apply_scaler(scaler, train_bal),
        test=apply_scaler(scaler, test),
        scaler=scaler,
        report=report,
        original_names=list(ds_raw.feature_names),
        kept_names=list(handled.feature_names),
        medians=medians,
    )


def apply_saved_preprocessing(features_raw: np.ndarray, original_names: list[str],
                              kept_names: list[str], medians: dict[str, float],
                              scaler: ScalerState) -> np.ndarray:
    """Preprocess new raw rows with state saved from a training run: drop the
    same columns, impute saved medians, and apply the saved scaler.
    """
    x = np.asarray(features_raw, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.shape[1] != len(original_names):
        raise ShapeError(
            f"saved preprocessing expects {len(original_names)} raw columns, got {x.shape[1]}")
    col_of = {name: j for j, name in enumerate(original_names)}
    kept = np.empty((x.shape[0], len(kept_names)), dtype=np.float64)
    for out_j, name in enumerate(kept_names):
        col = x[:, col_of[name]].copy()
        nan_mask = np.isnan(col)
        if nan_mask.any():
            col[nan_mask] = medians[name]
        kept[:, out_j] = col
    dummy = TabularDataset(kept, np.zeros(kept.shape[0], dtype=np.int64), list(kept_names))
    return apply_scaler(scaler, dummy).features
