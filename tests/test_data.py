"""Loaders, the table cache and the fixed preprocessing pipeline."""
import numpy as np
import pytest

from claire.data import (TabularDataset, apply_saved_preprocessing,
                         apply_scaler, fit_scaler, handle_missing, load_keyed,
                         load_labeled_csv, load_secom, load_tep, oversample_minority,
                         read_table_cache, run_pipeline, stratified_split, table_digest,
                         write_table_cache)
from claire.errors import DegenerateDataError, InputError, ShapeError
from claire.numerics import substream_seed
from claire.synthetic import make_wide_line_dataset

from conftest import make_dataset, peak_bytes


def test_dataset_validation():
    with pytest.raises(InputError, match="labels must be 0 or 1"):
        make_dataset([[1.0, 2.0]], [2])
    with pytest.raises(ShapeError):
        make_dataset([[1.0, 2.0]], [0, 1])
    with pytest.raises(ShapeError):
        TabularDataset(np.zeros((2, 2)), np.zeros(2, dtype=int), ["only_one"])
    ds = make_dataset([[1.0], [2.0], [3.0]], [0, 1, 1])
    assert ds.class_counts() == {"failure": 1, "success": 2}


def test_load_secom_polarity_and_nan(tmp_path):
    feat = tmp_path / "f.txt"
    lab = tmp_path / "l.txt"
    feat.write_text("1.5 NaN 3.0\n4.0 5.0 nan\n7.0 8.0 9.0\n")
    lab.write_text('-1 "2008-01-01 10:00:00"\n1 "2008-01-02 11:00:00"\n-1 "2008-01-03 12:00:00"\n')
    ds = load_secom(str(feat), str(lab))
    assert ds.features.shape == (3, 3)
    assert np.isnan(ds.features[0, 1]) and np.isnan(ds.features[1, 2])
    # -1 in the file means pass -> success label 1; +1 means fail -> 0
    assert ds.labels.tolist() == [1, 0, 1]


def test_load_secom_errors(tmp_path):
    feat = tmp_path / "f.txt"
    lab = tmp_path / "l.txt"
    feat.write_text("1 2 3\n4 5\n")
    lab.write_text("-1 x\n-1 x\n")
    with pytest.raises(InputError, match="f.txt:2"):
        load_secom(str(feat), str(lab))
    feat.write_text("1 2 3\n4 5 6\n")
    lab.write_text("-1 x\n")
    with pytest.raises(InputError, match="label file has 1 rows"):
        load_secom(str(feat), str(lab))
    for bad in ("3", "1.5", "-1.9", "inf", "nan", "1e400", "x"):
        lab.write_text(f"-1 x\n{bad} x\n")
        with pytest.raises(InputError, match="l.txt:2: label must be -1 or 1"):
            load_secom(str(feat), str(lab))
    lab.write_text("-1.0 x\n1.0 x\n")
    assert load_secom(str(feat), str(lab)).labels.tolist() == [1, 0]
    with pytest.raises(InputError):
        load_secom(str(tmp_path / "missing.txt"), str(lab))


def test_load_tep_header_and_selection(tmp_path):
    p = tmp_path / "tep.csv"
    p.write_text("v1,v2,fault\n"
                 "0.1,0.2,0\n"
                 "0.3,0.4,1\n"
                 "0.5,0.6,2\n"
                 "0.7,0.8,0\n")
    ds = load_tep(str(p))                      # all non-zero classes are failures
    assert ds.labels.tolist() == [1, 0, 0, 1]
    assert ds.feature_names == ["v1", "v2"]
    ds1 = load_tep(str(p), fault_classes=[1])  # class 2 rows drop out entirely
    assert ds1.features.shape == (3, 2)
    assert ds1.labels.tolist() == [1, 0, 1]
    with pytest.raises(InputError, match=r"fault classes \[9\] not present"):
        load_tep(str(p), fault_classes=[9])
    with pytest.raises(InputError, match="cannot be selected"):
        load_tep(str(p), fault_classes=[0, 1])


def test_load_tep_headerless_whitespace(tmp_path):
    p = tmp_path / "tep.dat"
    p.write_text("0.1 0.2 0\n0.3 0.4 1\n")
    ds = load_tep(str(p))
    assert ds.feature_names == ["var_0", "var_1"]
    assert ds.labels.tolist() == [1, 0]
    p.write_text("0.1 0.2 1.5\n")
    with pytest.raises(InputError, match="fault class must be an integer"):
        load_tep(str(p))


def test_load_labeled_csv(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("a,label,b\n1.0,1,2.0\n3.0,0,4.0\n")
    ds = load_labeled_csv(str(p))
    assert ds.feature_names == ["a", "b"]
    assert np.allclose(ds.features, [[1.0, 2.0], [3.0, 4.0]])
    assert ds.labels.tolist() == [1, 0]
    with pytest.raises(InputError, match="no column named 'y'"):
        load_labeled_csv(str(p), label_column="y")
    p.write_text("a,label\n1.0,5\n")
    with pytest.raises(InputError, match="label must be 0 or 1"):
        load_labeled_csv(str(p))


def test_handle_missing_drop_and_impute():
    x = np.array([
        [1.0, np.nan, 10.0],
        [2.0, np.nan, np.nan],
        [3.0, np.nan, 30.0],
        [4.0, 7.0, 40.0],
    ])
    ds = make_dataset(x, [0, 1, 0, 1], ["keep", "mostly_gone", "holey"])
    out, report = handle_missing(ds, drop_threshold=0.30)
    assert out.feature_names == ["keep", "holey"]
    assert [n for n, _ in report.dropped_columns] == ["mostly_gone"]
    assert report.dropped_columns[0][1] == pytest.approx(0.75)
    # median of observed {10, 30, 40} is 30
    assert out.features[1, 1] == pytest.approx(30.0)
    assert [n for n, _ in report.imputed_columns] == ["holey"]
    assert not np.isnan(out.features).any()


def test_handle_missing_threshold_is_strict():
    # exactly at the threshold stays; just above goes
    x = np.array([[np.nan], [1.0], [2.0], [3.0]])        # 25% missing
    ds = make_dataset(x, [0, 1, 0, 1])
    out, _ = handle_missing(ds, drop_threshold=0.25)
    assert out.n_features == 1

    x2 = np.hstack([x, np.ones((4, 1))])
    ds2 = make_dataset(x2, [0, 1, 0, 1])
    out2, report = handle_missing(ds2, drop_threshold=0.24)
    assert out2.feature_names == ["c1"]
    assert [n for n, _ in report.dropped_columns] == ["c0"]


def test_handle_missing_degenerate_cases():
    ds = make_dataset([[np.nan], [np.nan]], [0, 1])
    with pytest.raises(DegenerateDataError, match="every column"):
        handle_missing(ds, drop_threshold=0.5)
    # at threshold 1.0 nothing can be dropped, so the all-NaN column
    # survives and fails at the imputation stage instead
    with pytest.raises(DegenerateDataError, match="no\nobserved values".replace("\n", " ")):
        handle_missing(ds, drop_threshold=1.0)
    with pytest.raises(InputError):
        handle_missing(ds, drop_threshold=1.5)


def test_scaler_round_trip_and_clipping():
    train = make_dataset([[0.0, 5.0], [10.0, 5.0]], [0, 1])
    state = fit_scaler(train)
    scaled = apply_scaler(state, train.features)
    assert np.allclose(scaled[:, 0], [0.0, 1.0])
    assert np.allclose(scaled[:, 1], [0.5, 0.5])   # constant column
    # out-of-range test values clip into [0, 1]
    test = make_dataset([[-5.0, 7.0], [20.0, 3.0]], [0, 1], ["c0", "c1"])
    out = apply_scaler(state, test.features)
    assert out.min() >= 0.0 and out.max() <= 1.0
    assert np.allclose(out[:, 0], [0.0, 1.0])


def test_scaler_guards():
    test_tagged = TabularDataset(np.zeros((2, 1)), np.zeros(2, dtype=int), ["c0"],
                                 provenance="test")
    with pytest.raises(InputError, match="test-tagged"):
        fit_scaler(test_tagged)
    holey = make_dataset([[np.nan], [1.0]], [0, 1])
    with pytest.raises(InputError, match="NaN"):
        fit_scaler(holey)


def test_stratified_split_counts_and_determinism():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(100, 3))
    labels = np.array([0] * 20 + [1] * 80)
    ds = make_dataset(x, labels)
    train, test = stratified_split(ds, 0.2, seed=5)
    assert test.class_counts() == {"failure": 4, "success": 16}
    assert train.class_counts() == {"failure": 16, "success": 64}
    assert train.provenance == "train" and test.provenance == "test"
    train2, test2 = stratified_split(ds, 0.2, seed=5)
    assert np.array_equal(test.features, test2.features)
    t3 = stratified_split(ds, 0.2, seed=6)[1]
    assert not np.array_equal(test.features, t3.features)


def test_stratified_split_within_one_sample():
    x = np.arange(10)[:, None].astype(float)
    ds = make_dataset(x, [0] * 7 + [1] * 3)
    train, test = stratified_split(ds, 0.25, seed=1)
    # 7 * 0.25 rounds to 2, 3 * 0.25 rounds to 1
    assert abs(test.class_counts()["failure"] - 7 * 0.25) <= 1
    assert abs(test.class_counts()["success"] - 3 * 0.25) <= 1
    assert test.n_rows + train.n_rows == 10


def test_stratified_split_errors():
    ds = make_dataset([[1.0], [2.0], [3.0]], [0, 1, 1])
    with pytest.raises(DegenerateDataError):
        stratified_split(ds, 0.5)
    ds2 = make_dataset([[1.0], [2.0], [3.0], [4.0]], [0, 0, 1, 1])
    with pytest.raises(InputError):
        stratified_split(ds2, 1.5)


def test_oversample_balances_exactly():
    x = np.arange(14)[:, None].astype(float)
    ds = TabularDataset(x, np.array([1] * 10 + [0] * 4), ["c0"], provenance="train")
    out = oversample_minority(ds, seed=3)
    assert out.class_counts() == {"failure": 10, "success": 10}
    # originals preserved in order, duplicates appended at the end
    assert np.array_equal(out.features[:14], x)
    dup_rows = out.features[14:]
    assert all(row in x[10:] for row in dup_rows)
    again = oversample_minority(ds, seed=3)
    assert np.array_equal(out.features, again.features)


def test_oversample_guards_and_balanced_copy():
    balanced = TabularDataset(np.zeros((4, 1)), np.array([0, 0, 1, 1]), ["c0"],
                              provenance="train")
    out = oversample_minority(balanced)
    assert out.n_rows == 4
    assert out.features is not balanced.features
    test_tagged = TabularDataset(np.zeros((4, 1)), np.array([0, 0, 1, 1]), ["c0"],
                                 provenance="test")
    with pytest.raises(InputError):
        oversample_minority(test_tagged)
    single = TabularDataset(np.zeros((3, 1)), np.ones(3, dtype=int), ["c0"],
                            provenance="train")
    with pytest.raises(DegenerateDataError):
        oversample_minority(single)


def _messy_dataset():
    rng = np.random.default_rng(7)
    n = 120
    x = rng.normal(size=(n, 5)) * [1.0, 2.0, 0.5, 1.0, 3.0]
    x[:, 3] = 2.5                                      # constant column
    x[rng.random(n) < 0.5, 4] = np.nan                 # mostly-missing column
    x[rng.random(n) < 0.1, 1] = np.nan                 # lightly-missing column
    labels = (rng.random(n) < 0.75).astype(int)
    return make_dataset(x, labels)


def test_run_pipeline_invariants():
    ds = _messy_dataset()
    prep = run_pipeline(ds, drop_threshold=0.30, test_fraction=0.2, seed=9)
    for split in (prep.train, prep.test):
        assert not np.isnan(split.features).any()
        assert split.features.min() >= 0.0 and split.features.max() <= 1.0
    counts = prep.train.class_counts()
    assert counts["failure"] == counts["success"]      # exact balance
    state = prep.preprocessing
    assert state.report.class_counts_after == counts
    assert "c4" in [n for n, _ in state.report.dropped_columns]
    assert set(state.medians) == set(state.kept_names)
    assert state.original_names == ds.feature_names
    # split replays from the same substream seed
    handled, _ = handle_missing(ds, 0.30)
    train, test = stratified_split(handled, 0.2, substream_seed(9, "split"))
    assert np.array_equal(test.labels, prep.test.labels)


def test_run_pipeline_holds_at_most_three_tables():
    """Each stage's table is let go once the next is made, and scaling
    makes one new table: at most three tables' worth at once on the
    default line table (1567 x 590, 7.40 MB), the result included."""
    ds = make_wide_line_dataset()
    peak = peak_bytes(lambda: run_pipeline(ds))
    assert peak <= 3 * ds.features.nbytes


@pytest.mark.parametrize("table", ["messy", "line"])
def test_apply_saved_preprocessing_replays_pipeline(table):
    # saved-state replay on the full raw matrix must equal imputing then
    # scaling directly: imputing at the median leaves the median unchanged,
    # so the stored medians reproduce handle_missing exactly
    ds = _messy_dataset() if table == "messy" else make_wide_line_dataset()
    prep = run_pipeline(ds, seed=9)
    state = prep.preprocessing
    # training and the replay fill holes with the same values, bit for bit
    assert state.report.imputed_columns
    for name, median in state.report.imputed_columns:
        assert np.float64(state.medians[name]).tobytes() == np.float64(median).tobytes(), name
    replay = apply_saved_preprocessing(ds.features, state)
    handled, _ = handle_missing(ds, 0.30)
    expected = apply_scaler(state.scaler, handled.features)
    assert replay.tobytes() == expected.tobytes()
    # and the pipeline's own test rows are a subset of that replay
    train, test = stratified_split(handled, 0.2, substream_seed(9, "split"))
    scaled_test = apply_scaler(state.scaler, test.features)
    assert scaled_test.tobytes() == prep.test.features.tobytes()


def test_apply_saved_preprocessing_width_check():
    ds = _messy_dataset()
    state = run_pipeline(ds, seed=9).preprocessing
    with pytest.raises(ShapeError, match="expects 5 raw columns"):
        apply_saved_preprocessing(np.zeros((2, 4)), state)
    one_row = apply_saved_preprocessing(ds.features[0], state)
    assert one_row.shape == (1, len(state.kept_names))


# ---- the table cache ----

CSV_LOADER = {"kind": "csv", "label_column": "label"}


def _csv_table(tmp_path, name="d.csv", text="a,label,b\n1.5,1,NaN\n-0,0,4e-3\n"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _same_table(got, want):
    assert got.features.tobytes() == want.features.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.feature_names == want.feature_names


def test_table_cache_round_trip_keeps_every_bit(tmp_path):
    names = ["a", "b\x00", "ü,\"c\"", ""]      # a NUL, quotes, non-ASCII, empty
    features = np.array([[1.5, np.nan, -0.0, 1e-310], [np.inf, 2.0, 3.0, 4.0]])
    table = TabularDataset(features, np.array([1, 0]), names)
    source = _csv_table(tmp_path)
    key = table_digest(CSV_LOADER, [source])
    cache = str(tmp_path / "cache.npy")
    write_table_cache(cache, key, table)
    _same_table(read_table_cache(cache, CSV_LOADER, [source]), table)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache.npy", "d.csv"]


def test_table_digest_keys_bytes_and_options_not_paths(tmp_path):
    a = _csv_table(tmp_path, "a.csv")
    (tmp_path / "sub").mkdir()
    b = _csv_table(tmp_path / "sub", "b.csv")
    c = _csv_table(tmp_path, "c.csv", "a,label,b\n1.5,1,NaN\n-0,0,4e-4\n")
    key = table_digest(CSV_LOADER, [a])
    assert len(key) == 32 and table_digest(CSV_LOADER, [b]) == key
    assert table_digest(CSV_LOADER, [c]) != key
    assert table_digest({**CSV_LOADER, "label_column": "b"}, [a]) != key
    assert table_digest({"kind": "tep", "fault_classes": None}, [a]) != key
    # where one file ends and the next begins is part of the key
    first, second = tmp_path / "x1", tmp_path / "x2"
    first.write_bytes(b"12")
    second.write_bytes(b"3")
    moved = table_digest({"kind": "secom"}, [str(first), str(second)])
    first.write_bytes(b"1")
    second.write_bytes(b"23")
    assert table_digest({"kind": "secom"}, [str(first), str(second)]) != moved


@pytest.mark.parametrize("path", ["absent.csv", "\x00", ".", ""])
def test_table_digest_of_an_unreadable_source_is_none(tmp_path, monkeypatch, path):
    monkeypatch.chdir(tmp_path)
    assert table_digest(CSV_LOADER, [_csv_table(tmp_path), path]) is None


MIB = 1 << 20


def _digest_oracle(loader, blobs, tag=b"claire-table/2\n", chunked=True):
    """The table-cache key written out: the tag, the loader's options, then
    for each file the SHA-256 of each 1 MiB chunk in order and its size.
    The ``/1`` key hashed each file's bytes themselves (``chunked=False``)."""
    import hashlib
    import json
    h = hashlib.sha256(tag)
    h.update(json.dumps(loader, sort_keys=True).encode())
    for blob in blobs:
        for at in range(0, len(blob), MIB):
            chunk = blob[at:at + MIB]
            h.update(hashlib.sha256(chunk).digest() if chunked else chunk)
        h.update(b"\n%d\n" % len(blob))
    return h.digest()


def _blob(size, seed=0):
    return np.random.default_rng(seed).integers(0, 256, size, dtype=np.uint8).tobytes()


@pytest.fixture
def lanes(monkeypatch):
    """Sets the usable CPU count the digest sees and gives the chunk runs
    hashed on threads other than the caller's; checks that every call left
    as many threads alive as it found."""
    import threading
    import claire.data as data_mod
    before = threading.active_count()
    runs = []
    real = data_mod._hash_lane
    monkeypatch.setattr(data_mod, "_hash_lane",
                        lambda path, chunks, *a: runs.append(chunks) or real(path, chunks, *a))

    def set_cpus(cpus):
        monkeypatch.setattr(data_mod, "_usable_cpus", lambda: cpus)
        return runs
    yield set_cpus
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 2, 8])
@pytest.mark.parametrize("size", [0, 1, MIB - 1, MIB, MIB + 1, 3 * MIB + 5])
def test_table_digest_is_the_chunked_oracle_at_every_lane_count(tmp_path, lanes, cpus, size):
    threaded = lanes(cpus)
    blobs = [_blob(size), b"-1 x\n1 y\n"]
    paths = [tmp_path / "t.data", tmp_path / "l.data"]
    for path, blob in zip(paths, blobs):
        path.write_bytes(blob)
    loader = {"kind": "secom"}
    assert table_digest(loader, [str(p) for p in paths]) == _digest_oracle(loader, blobs)
    chunks = -(-size // MIB)
    assert len(threaded) == max(0, min(cpus, chunks) - 1)
    assert sum(len(run) for run in threaded) == (chunks - chunks // min(cpus, chunks)
                                                 if threaded else 0)


def test_more_lanes_than_cores_switching_often_give_the_oracle(tmp_path, lanes):
    """Eight lanes, each filling its own slots, on a short switch interval."""
    import sys
    threaded = lanes(8)
    blob = _blob(9 * MIB + 3)
    path = tmp_path / "t.data"
    path.write_bytes(blob)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        keys = {table_digest(CSV_LOADER, [str(path)]) for _ in range(5)}
    finally:
        sys.setswitchinterval(interval)
    assert keys == {_digest_oracle(CSV_LOADER, [blob])}
    assert len(threaded) == 5 * 7


@pytest.mark.parametrize("at", [0, 2 * MIB + 7, 4 * MIB + 4], ids=["first", "middle", "last"])
def test_flipping_one_byte_in_any_chunk_changes_the_key(tmp_path, lanes, at):
    lanes(2)
    blob = bytearray(_blob(4 * MIB + 5))
    path = tmp_path / "t.data"
    path.write_bytes(blob)
    key = table_digest(CSV_LOADER, [str(path)])
    blob[at] ^= 1
    path.write_bytes(blob)
    assert table_digest(CSV_LOADER, [str(path)]) not in (key, None)
    assert table_digest(CSV_LOADER, [str(path)]) == _digest_oracle(CSV_LOADER, [bytes(blob)])


@pytest.mark.parametrize("chunk", [0, 1, 3], ids=["calling_lane", "its_last_chunk", "thread"])
def test_a_lane_whose_read_fails_gives_none(tmp_path, monkeypatch, lanes, chunk):
    """Two lanes on four chunks: the calling thread reads chunks 0 and 1,
    a second thread chunks 2 and 3."""
    import io
    import claire.data as data_mod
    lanes(2)
    path = tmp_path / "t.data"
    path.write_bytes(_blob(4 * MIB))
    assert table_digest(CSV_LOADER, [str(path)]) == _digest_oracle(CSV_LOADER,
                                                                   [path.read_bytes()])

    class Failing(io.FileIO):
        def readinto(self, buffer):
            if self.tell() == chunk * MIB:
                raise OSError("read failed")
            return super().readinto(buffer)
    monkeypatch.setattr(data_mod, "open", lambda name, mode, buffering: Failing(name, mode),
                        raising=False)
    assert table_digest(CSV_LOADER, [str(path)]) is None


@pytest.mark.parametrize("delta", [-1, 1], ids=["grew", "shrank"])
def test_a_file_whose_size_changes_while_it_is_hashed_gives_none(tmp_path, monkeypatch, lanes,
                                                                 delta):
    """The size is read once, before the chunks: a file that then grew or
    shrank is read past or short of it."""
    import os
    from types import SimpleNamespace
    import claire.data as data_mod
    lanes(2)
    path = tmp_path / "t.data"
    path.write_bytes(_blob(2 * MIB + 9))
    real = os.fstat
    monkeypatch.setattr(data_mod.os, "fstat",
                        lambda fd: SimpleNamespace(st_size=real(fd).st_size + delta))
    assert table_digest(CSV_LOADER, [str(path)]) is None


def test_a_cache_keyed_by_the_first_digest_misses(tmp_path):
    source = _csv_table(tmp_path)
    with open(source, "rb") as fh:
        old = _digest_oracle(CSV_LOADER, [fh.read()], tag=b"claire-table/1\n", chunked=False)
    cache = str(tmp_path / "cache.npy")
    write_table_cache(cache, old, load_labeled_csv(source))
    assert read_table_cache(cache, CSV_LOADER, [source]) is None
    write_table_cache(cache, table_digest(CSV_LOADER, [source]), load_labeled_csv(source))
    _same_table(read_table_cache(cache, CSV_LOADER, [source]), load_labeled_csv(source))


def test_load_keyed_keys_only_a_table_whose_sources_held_still(tmp_path):
    import os
    path = _csv_table(tmp_path)
    table, key = load_keyed(lambda: load_labeled_csv(path), CSV_LOADER, [path])
    _same_table(table, load_labeled_csv(path))
    assert key == table_digest(CSV_LOADER, [path])

    def touched():
        got = load_labeled_csv(path)
        stat = os.stat(path)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 10**9))
        return got
    assert load_keyed(touched, CSV_LOADER, [path])[1] is None
    with pytest.raises(InputError):
        load_keyed(lambda: load_labeled_csv("absent.csv"), CSV_LOADER, ["absent.csv"])


def _write_records(path, *records):
    with open(path, "wb") as fh:
        for record in records:
            np.save(fh, record)


@pytest.mark.parametrize("case", ["absent", "empty", "other_key", "other_options",
                                  "key_dtype", "features_dtype", "features_ndim",
                                  "labels_dtype", "labels_ndim", "row_counts", "name_count",
                                  "labels_range", "names_not_json", "names_not_strings",
                                  "names_dtype", "pickled", "no_names"])
def test_table_cache_misses(tmp_path, case):
    source = _csv_table(tmp_path)
    key = np.frombuffer(table_digest(CSV_LOADER, [source]), np.uint8)
    x, y = np.zeros((2, 3)), np.array([0, 1])
    names = np.frombuffer(b'["a", "b", "c"]', np.uint8)
    cache = str(tmp_path / "cache.npy")
    loader = CSV_LOADER
    records = {
        "other_key": (key[::-1], x, y, names),
        "key_dtype": (key.astype(np.int64), x, y, names),
        "features_dtype": (key, x.astype(np.float32), y, names),
        "features_ndim": (key, x.ravel(), y, names),
        "labels_dtype": (key, x, y.astype(np.int32), names),
        "labels_ndim": (key, x, y[:, None], names),
        "row_counts": (key, x, np.array([0, 1, 1]), names),
        "name_count": (key, x, y, np.frombuffer(b'["a", "b"]', np.uint8)),
        "labels_range": (key, x, np.array([0, 2]), names),
        "names_not_json": (key, x, y, np.frombuffer(b'["a", "b", "c"', np.uint8)),
        "names_not_strings": (key, x, y, np.frombuffer(b'["a", "b", 3]', np.uint8)),
        "names_dtype": (key, x, y, np.array(["a", "b", "c"])),
        "pickled": (key, x, y, np.array(["a", "b", "c"], dtype=object)),
        "no_names": (key, x, y),
    }
    if case == "empty":
        open(cache, "wb").close()
    elif case == "other_options":
        _write_records(cache, key, x, y, names)
        loader = {**CSV_LOADER, "label_column": "b"}
    elif case in records:
        _write_records(cache, *records[case])
    assert read_table_cache(cache, loader, [source]) is None
    if case == "other_key":          # the control: the right key reads
        _write_records(cache, key, x, y, names)
        assert read_table_cache(cache, CSV_LOADER, [source]) is not None


def test_truncated_table_cache_misses_at_every_length(tmp_path):
    source = _csv_table(tmp_path)
    table = load_labeled_csv(source)
    cache = tmp_path / "cache.npy"
    write_table_cache(str(cache), table_digest(CSV_LOADER, [source]), table)
    whole = cache.read_bytes()
    _same_table(read_table_cache(str(cache), CSV_LOADER, [source]), table)
    for size in range(len(whole)):
        cache.write_bytes(whole[:size])
        assert read_table_cache(str(cache), CSV_LOADER, [source]) is None, size


def test_table_cache_write_failure_is_input_error_and_leaves_no_file(tmp_path):
    table = load_labeled_csv(_csv_table(tmp_path))
    with pytest.raises(InputError, match="cannot write table cache"):
        write_table_cache(str(tmp_path / "absent" / "cache.npy"), b"k" * 32, table)
    (tmp_path / "dir.npy").mkdir()
    with pytest.raises(InputError, match="cannot write table cache"):
        write_table_cache(str(tmp_path / "dir.npy"), b"k" * 32, table)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "dir.npy"]
    assert list((tmp_path / "dir.npy").iterdir()) == []
