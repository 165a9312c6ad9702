"""Dataset loading and the fixed preprocessing pipeline.

Pipeline order is fixed: missing-data handling, stratified split, minority
oversampling on the training rows only, then min-max scaling fitted on the
oversampled training rows and applied to both splits. The missing-data
census (which columns are dropped) and the imputation medians are taken
over every row, test rows included, before the split. ``Preprocessing``
holds the fitted state that ``apply_saved_preprocessing`` replays.

Label convention everywhere: 1 = success / normal operation, 0 = failure.

Loaders read each file once, and numpy's C parser (``np.loadtxt``) reads
its numeric block. The per-token parser reads the block again only when
the C parser refuses it (``NA`` or empty fields, a ragged row, a token
neither parser reads), when it is blank, or when a fault class or label
breaks its column's rule. That parser is the reference the C path
matches bit for bit, the only reader of ``NA`` and empty fields, and the
only source of the ``path:line`` errors. A UTF-8 byte-order mark at the
start of a file is skipped.

A loaded table can be kept as a table cache (``write_table_cache``): its
raw features, labels and names in one binary file, keyed by the digest of
the loader's options and its source files' bytes (``table_digest``: a
SHA-256 of each file's 1 MiB chunks, hashed on one lane per usable CPU,
``blas.in_lanes``). ``read_table_cache`` gives the table back only while
that key still matches. It and the model bundle's sidecar are keyed
records (``write_keyed``, ``read_keyed``).
"""
from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, TextIO

import numpy as np

from . import blas
from .errors import DegenerateDataError, InputError, ShapeError
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
        return _class_counts(self.labels)


def _class_counts(labels: np.ndarray) -> dict[str, int]:
    return {"failure": int(np.sum(labels == 0)), "success": int(np.sum(labels == 1))}


@dataclass
class ScalerState:
    """Per-column min/max learned from training rows."""
    col_min: np.ndarray
    col_max: np.ndarray


@dataclass
class PreprocessReport:
    """What preprocessing did. ``model_io.REPORT`` declares its JSON form:
    preprocess_report.json and the model bundle's preprocessing.report."""
    dropped_columns: list[tuple[str, float]] = field(default_factory=list)
    imputed_columns: list[tuple[str, float]] = field(default_factory=list)
    class_counts_before: dict[str, int] | None = None
    class_counts_after: dict[str, int] | None = None
    outlier_detection: str = "not applied"


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
        with open(features_path, encoding="utf-8-sig") as fh:
            features = _numeric_rows(fh, features_path, None, 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read features file {features_path}: {exc}") from exc
    if features.shape[0] == 0:
        raise InputError(f"{features_path}: no feature rows")

    labels: list[int] = []
    try:
        with open(labels_path, encoding="utf-8-sig") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                token = line.split()[0]
                try:
                    labels.append({-1.0: 1, 1.0: 0}[float(token)])   # pass -> 1, fail -> 0
                except (ValueError, KeyError):
                    raise InputError(f"{labels_path}:{line_no}: label must be -1 or 1, "
                                     f"got {token!r}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read labels file {labels_path}: {exc}") from exc

    if len(labels) != features.shape[0]:
        raise InputError(
            f"label file has {len(labels)} rows but feature file has {features.shape[0]}")
    names = [f"feature_{j}" for j in range(features.shape[1])]
    return TabularDataset(features, np.array(labels), names)


def _sniff_delimiter(line: str) -> str | None:
    return "," if "," in line else None


def _header(path: str, line_no: int, names: list[str]) -> list[str]:
    """A header's column ``names``, refused if one is given twice: every
    later stage, the replay of a saved model too, finds a column by name."""
    if len(set(names)) < len(names):
        twice = next(name for j, name in enumerate(names) if name in names[:j])
        raise InputError(f"{path}:{line_no}: column {twice!r} is named twice in the header")
    return names


def load_tep(path: str, fault_classes: list[int] | None = None) -> TabularDataset:
    """Load a process-monitoring table: numeric variable columns plus a final
    integer fault-class column; an optional header row is auto-detected.

    Rows with fault class 0 become label 1 (normal). Rows whose fault class
    is in ``fault_classes`` become label 0. Other fault rows are excluded.
    ``fault_classes=None`` selects every non-zero class in the file.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            pos, line_no, first = _first_line(fh)
            if not first:
                raise InputError(f"{path}: empty file")
            delim = _sniff_delimiter(first)
            head = [t.strip() for t in first.split(delim)]
            try:
                float(head[0])
            except ValueError:          # a header row
                names, width, start = _header(path, line_no, head)[:-1], len(head), line_no + 1
            else:
                names, width, start = None, None, line_no
                fh.seek(pos)
            x = _numeric_rows(fh, path, delim, start, width,
                              (-1, _integral, "fault class must be an integer"))
    except (OSError, UnicodeDecodeError) as exc:
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
        with open(path, encoding="utf-8-sig") as fh:
            _, line_no, first = _first_line(fh)
            if not first:
                raise InputError(need_rows)
            header = _header(path, line_no, [t.strip() for t in first.split(",")])
            if label_column not in header:
                raise InputError(f"{path}: no column named {label_column!r} in header")
            label_idx = header.index(label_column)
            x = _numeric_rows(fh, path, ",", line_no + 1, len(header),
                              (label_idx, _zero_or_one, "label must be 0 or 1"))
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read dataset file {path}: {exc}") from exc
    if x.shape[0] == 0:
        raise InputError(need_rows)
    names = [h for i, h in enumerate(header) if i != label_idx]
    return TabularDataset(np.delete(x, label_idx, axis=1),
                          x[:, label_idx].astype(np.int64), names)


# Bump the tag whenever a loader would read the same bytes differently.
_TABLE_TAG = b"claire-table/2\n"
_CHUNK = 1 << 20
_BLOCK = 1 << 18         # a lane's read buffer; _CHUNK is a multiple of it


def _hash_run(fh, chunks: range, size: int, digests: list) -> None:
    """Put the SHA-256 of each 1 MiB chunk in ``chunks`` of the file ``fh``,
    ``size`` bytes long, in its slot of ``digests``, reading the chunks in
    order through one 256 KiB buffer. The buffer is an anonymous map, not
    the allocator's, so no heap keeps it after the call. A chunk that ends
    early, or runs past ``size``, leaves its slot None."""
    with mmap.mmap(-1, _BLOCK) as buf:
        fh.seek(chunks.start * _CHUNK)
        for k in chunks:
            h = hashlib.sha256()
            left = min(_CHUNK, size - k * _CHUNK)
            # a chunk is whole blocks, so only the file's last read is short
            while left > 0 and (got := fh.readinto(buf)):
                h.update(buf if got == _BLOCK else buf[:got])
                left -= got
            if left:
                return
            digests[k] = h.digest()


def _file_digests(path: str) -> tuple[list[bytes], int]:
    """The SHA-256 of each 1 MiB chunk of ``path``, in order, and its size;
    an OSError when a chunk cannot be read. Lane i of one ``blas.in_lanes``
    job opens the file on its own and hashes run i of min(usable CPUs,
    chunks) runs of neighbours, so a one-chunk file is hashed on the calling
    thread. hashlib and the reads release the GIL, so the lanes overlap."""
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
    n = -(-size // _CHUNK)
    digests: list = [None] * n
    lanes = max(1, min(blas.usable_cpus(), n))

    def job(lane):
        with open(path, "rb", buffering=0) as fh:
            _hash_run(fh, range(lane * n // lanes, (lane + 1) * n // lanes), size, digests)
    blas.in_lanes(lanes, [job])
    if None in digests:
        raise OSError(f"cannot read {path} in full")
    return digests, size


def table_digest(loader: dict, paths: list[str]) -> bytes | None:
    """SHA-256 of the format tag, the loader's kind and options (``loader``,
    a JSON object without the paths) and, for each source file in
    ``paths``, the SHA-256 of each of its 1 MiB chunks in order, then its
    size. The key is the same whatever the lane count. None, never an
    error, when a file cannot be read: the loader then reports it."""
    h = hashlib.sha256(_TABLE_TAG)
    h.update(json.dumps(loader, sort_keys=True).encode())
    for path in paths:
        try:
            digests, size = _file_digests(path)
        except (OSError, ValueError):
            return None
        h.update(b"".join(digests))
        h.update(b"\n%d\n" % size)
    return h.digest()


def _stamps(paths: list[str]) -> list[tuple[int, int]] | None:
    try:
        return [(s.st_size, s.st_mtime_ns) for s in map(os.stat, paths)]
    except (OSError, ValueError):
        return None


def load_keyed(load: Callable[[], TabularDataset], loader: dict,
               paths: list[str]) -> tuple[TabularDataset, bytes | None]:
    """``load()``'s table and its ``table_digest``. The key is None when a
    source file's size or modification time changed while it was parsed
    and hashed, so a table is never keyed by bytes it was not read from."""
    before = _stamps(paths)
    table = load()
    key = table_digest(loader, paths)
    return table, key if before is not None and _stamps(paths) == before else None


def write_keyed(path: str, what: str, key: bytes, records) -> None:
    """Write ``key``, then each array of ``records``, to ``path`` as ``np.save``
    records, under a temporary name in the same directory that is then
    moved into place, so a reader sees the old file or the new."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            for record in (np.frombuffer(key, np.uint8), *records):
                np.save(fh, record, allow_pickle=False)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise InputError(f"cannot write {what} {path}: {exc}") from exc


def read_keyed(path: str, key: Callable[[], bytes | None], read: Callable):
    """What ``read(record)`` returns, each ``record()`` reading the next
    record of the file ``write_keyed`` wrote to ``path``, if the file's key
    is ``key()`` (called only when the file exists); else None. A missing,
    truncated or unreadable file is None, and so is one ``read`` fails on."""
    try:
        with open(path, "rb") as fh:
            def record() -> np.ndarray:
                return np.lib.format.read_array(fh, allow_pickle=False)
            return read(record) if record().tobytes() == key() else None
    except (OSError, ValueError, LookupError, TypeError, RecursionError, MemoryError,
            ShapeError, InputError):        # MemoryError: a header claiming a huge shape
        return None


def write_table_cache(path: str, key: bytes, table: TabularDataset) -> None:
    """Write ``table`` (raw: NaN kept) to ``path`` as ``write_keyed`` records:
    the key, the features, the labels and the names as UTF-8 JSON."""
    names = json.dumps(table.feature_names).encode()
    write_keyed(path, "table cache", key,
                (table.features, table.labels, np.frombuffer(names, np.uint8)))


def read_table_cache(path: str, loader: dict, paths: list[str]) -> TabularDataset | None:
    """The table ``write_table_cache`` wrote to ``path``, if its key is the
    ``table_digest`` of ``loader`` and ``paths`` now; else None. A missing,
    truncated or unreadable file, another key, a record of the wrong dtype
    or ndim, lengths that disagree and labels outside {0, 1} are all None.
    The sources are hashed only when the file exists."""
    def table(record) -> TabularDataset | None:
        features, labels, names = record(), record(), json.loads(record().tobytes())
        if (features.dtype == np.float64 and labels.dtype == np.int64 and isinstance(names, list)
                and all(isinstance(n, str) for n in names)):
            # TabularDataset checks the ndims, the lengths and the labels
            return TabularDataset(features, labels, names)
    return read_keyed(path, lambda: table_digest(loader, paths), table)


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


def _impute(x: np.ndarray, medians: np.ndarray, holes: np.ndarray) -> np.ndarray:
    """``x`` with its ``holes`` (its NaNs) set in place to their column's
    ``medians``: the one imputation, for training and for the replay."""
    np.copyto(x, medians, where=holes)
    return x


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
    kept = x[:, kept_idx]
    kept_names = [ds.feature_names[j] for j in kept_idx]

    holes = np.isnan(kept)
    medians = np.zeros(kept.shape[1])
    for col in np.flatnonzero(holes.any(axis=0)):
        observed = kept[~holes[:, col], col]
        if observed.size == 0:
            raise DegenerateDataError(
                f"column {kept_names[col]!r} survives the drop threshold but has no "
                "observed values to take a median from")
        medians[col] = np.median(observed)
        report.imputed_columns.append((kept_names[col], float(medians[col])))

    _impute(kept, medians, holes)
    return TabularDataset(kept, ds.labels.copy(), kept_names, provenance=ds.provenance), report


def fit_scaler(train: TabularDataset) -> ScalerState:
    """Learn per-column min and max from training rows. NaN-free input required."""
    if train.provenance == "test":
        raise InputError("refusing to fit a scaler on test-tagged rows")
    x = train.features
    if np.isnan(x).any():
        raise InputError("scaler input still contains NaN; run missing-data handling first")
    if x.shape[0] == 0:
        raise DegenerateDataError("cannot fit a scaler on zero rows")
    return ScalerState(col_min=x.min(axis=0), col_max=x.max(axis=0))


def apply_scaler(state: ScalerState, x: np.ndarray) -> np.ndarray:
    """Features ``x`` mapped to [0, 1] by the fitted ranges, in a new table.

    Constant columns map to 0.5. Values outside the fitted range (possible
    on test rows) are clipped so every output lies in [0, 1].
    """
    if x.shape[1] != state.col_min.shape[0]:
        raise ShapeError(
            f"scaler fitted on {state.col_min.shape[0]} columns, dataset has {x.shape[1]}")
    if np.isnan(x).any():
        raise InputError("scaler input still contains NaN; run missing-data handling first")
    span = state.col_max - state.col_min
    constant = span == 0
    scaled = x - state.col_min          # the one new table; the rest is in place
    scaled /= np.where(constant, 1.0, span)
    scaled[:, constant] = 0.5
    np.clip(scaled, 0.0, 1.0, out=scaled)
    return scaled


def stratified_test_mask(labels: np.ndarray, test_fraction: float = 0.2,
                         seed: int = 42) -> np.ndarray:
    """The mask of the rows that go to the test set: each class's rows
    there at the requested fraction, to within one sample per class. It
    reads only the labels and the seed, so a replay can pick a split's
    rows before it touches their features. Deterministic given seed.
    """
    if not 0.0 < test_fraction < 1.0:
        raise InputError(f"test_fraction must be in (0, 1), got {test_fraction}")
    counts = _class_counts(labels)
    if min(counts.values()) < 2:
        raise DegenerateDataError(
            f"stratified split needs at least 2 rows per class, got {counts}")
    rng = RngStream(seed)
    mask = np.zeros(labels.shape[0], dtype=bool)
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        order = idx[rng.permutation(idx.size)]
        mask[order[:int(round(test_fraction * idx.size))]] = True
    return mask


def stratified_split(ds: TabularDataset, test_fraction: float = 0.2,
                     seed: int = 42) -> tuple[TabularDataset, TabularDataset]:
    """The rows of ``stratified_test_mask`` as the test set, the others as
    the training set, each in the order of ``ds``.
    """
    mask = stratified_test_mask(ds.labels, test_fraction, seed)
    # boolean indexing copies
    train = TabularDataset(ds.features[~mask], ds.labels[~mask],
                           list(ds.feature_names), provenance="train")
    test = TabularDataset(ds.features[mask], ds.labels[mask],
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
class Preprocessing:
    """The fitted preprocessing that new rows replay (the model bundle's
    ``preprocessing`` section); ``medians`` fill each kept column's holes."""
    original_names: list[str]
    kept_names: list[str]
    medians: dict[str, float]
    scaler: ScalerState
    report: PreprocessReport


@dataclass
class PreparedData:
    """Everything the downstream stages need after preprocessing."""
    train: TabularDataset
    test: TabularDataset
    preprocessing: Preprocessing


def run_pipeline(ds_raw: TabularDataset, drop_threshold: float = 0.30,
                 test_fraction: float = 0.2, seed: int = 42) -> PreparedData:
    """Run the fixed pipeline and return scaled train/test splits plus the
    state needed to preprocess future rows identically. Each stage's table
    is let go as soon as the next one is made.
    """
    handled, report = handle_missing(ds_raw, drop_threshold)
    kept_names = list(handled.feature_names)
    # imputing at the median leaves it unchanged: these are the imputed values
    medians = dict(zip(kept_names, np.median(handled.features, axis=0).tolist()))
    train, test = stratified_split(handled, test_fraction, substream_seed(seed, "split"))
    del handled
    report.class_counts_before = train.class_counts()
    train = oversample_minority(train, substream_seed(seed, "oversample"))
    report.class_counts_after = train.class_counts()
    scaler = fit_scaler(train)
    train.features = apply_scaler(scaler, train.features)
    test.features = apply_scaler(scaler, test.features)
    return PreparedData(train, test, Preprocessing(list(ds_raw.feature_names), kept_names,
                                                   medians, scaler, report))


def apply_saved_preprocessing(features_raw: np.ndarray,
                              preprocessing: Preprocessing) -> np.ndarray:
    """Preprocess new raw rows with state saved from a training run: drop the
    same columns, impute saved medians, and apply the saved scaler.
    """
    p = preprocessing
    x = np.atleast_2d(np.asarray(features_raw, dtype=np.float64))
    if x.shape[1] != len(p.original_names):
        raise ShapeError(
            f"saved preprocessing expects {len(p.original_names)} raw columns, got {x.shape[1]}")
    col_of = {name: j for j, name in enumerate(p.original_names)}
    kept = x[:, [col_of[name] for name in p.kept_names]]
    medians = np.array([p.medians[name] for name in p.kept_names])
    return apply_scaler(p.scaler, _impute(kept, medians, np.isnan(kept)))
