"""The C-parsed loaders and the synthetic writers against their references.

Each loader reads its numeric block with numpy's C parser and falls back
to the per-token parser (``data._token_rows``) on anything the C parser
refuses. The per-token parser is the reference: every file must load to
the same bits, or fail with the same error, whichever path reads it.
"""
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from claire import data as data_mod
from claire.data import TabularDataset, load_labeled_csv, load_secom, load_tep
from claire.errors import ClaireError
from claire.synthetic import (make_process_dataset, make_wide_line_dataset, write_line_files,
                              write_process_file)

from conftest import peak_bytes

FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
SPELLINGS = st.one_of(
    FLOATS.map(repr),
    FLOATS.map(lambda v: "%.17g" % v),
    FLOATS.map(lambda v: "%e" % v),
    st.sampled_from(["NaN", "nan", "NA", "na", "", "inf", "-inf", "Infinity", "-0", "+1.5"]),
)
# text the per-token parser and the C parser might read differently
DEFECTS = st.sampled_from(["none", "ragged", "hash", "bad", "blank", "crlf", "space"])
PROPERTY = settings(max_examples=80, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _outcome(load, *args):
    try:
        ds = load(*args)
    except ClaireError as exc:
        return type(exc).__name__, str(exc)
    return ds


def _assert_matches_reference(load, *args):
    got = _outcome(load, *args)
    with mock.patch.object(data_mod, "_numeric_rows", data_mod._token_rows):
        want = _outcome(load, *args)
    if not isinstance(want, TabularDataset):
        assert got == want
        return
    assert isinstance(got, TabularDataset), got
    assert got.features.shape == want.features.shape
    nan = np.isnan(want.features)
    assert np.array_equal(np.isnan(got.features), nan)
    assert np.array_equal(got.features[~nan].view(np.int64),
                          want.features[~nan].view(np.int64))
    assert got.labels.tolist() == want.labels.tolist()
    assert got.feature_names == want.feature_names


def _with_defect(rows: list[list[str]], defect: str, sep: str, pick: int) -> str:
    rows = [list(r) for r in rows]
    r = pick % len(rows)
    if defect == "ragged":
        rows[r] = rows[r][:-1] or ["1", "2"]
    elif defect == "hash":
        rows[r][0] = "#" + rows[r][0]
    elif defect == "bad":
        rows[r][-1] = "1.5x"
    elif defect == "space":
        rows[r][0] = "\x0c" + rows[r][0] + "\xa0"
    lines = [sep.join(row) for row in rows]
    if defect == "blank":
        lines.insert(r, "   " if pick % 2 else "")
    text = "\n".join(lines) + "\n"
    return text.replace("\n", "\r\n") if defect == "crlf" else text


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("loaders")


@PROPERTY
@given(cells=st.lists(st.lists(SPELLINGS, min_size=1, max_size=4), min_size=1, max_size=5),
       defect=DEFECTS, pick=st.integers(0, 9))
def test_secom_loader_matches_token_parser(folder, cells, defect, pick):
    width = len(cells[0])
    cells = [(row * width)[:width] for row in cells]
    features, labels = folder / "f.txt", folder / "l.txt"
    features.write_text(_with_defect(cells, defect, " ", pick), encoding="utf-8",
                        newline="")
    labels.write_text("".join(f"{(-1, 1)[i % 2]} x\n" for i in range(len(cells))))
    _assert_matches_reference(load_secom, str(features), str(labels))


@PROPERTY
@given(cells=st.lists(st.lists(SPELLINGS, min_size=1, max_size=3), min_size=1, max_size=5),
       faults=st.lists(st.sampled_from(["0", "1", "2", "1.0", "-0", "1.5", "nan"]),
                       min_size=5, max_size=5),
       header=st.booleans(), comma=st.booleans(), defect=DEFECTS, pick=st.integers(0, 9))
def test_tep_loader_matches_token_parser(folder, cells, faults, header, comma, defect,
                                         pick):
    width = len(cells[0])
    rows = [(row * width)[:width] + [faults[i]] for i, row in enumerate(cells)]
    sep = "," if comma else " "
    text = _with_defect(rows, defect, sep, pick)
    if header:
        text = sep.join([f"v{j}" for j in range(width)] + ["fault"]) + "\n" + text
    path = folder / "tep.csv"
    path.write_text(text, encoding="utf-8", newline="")
    _assert_matches_reference(load_tep, str(path))


@PROPERTY
@given(cells=st.lists(st.lists(SPELLINGS, min_size=2, max_size=3), min_size=1, max_size=5),
       labels=st.lists(st.sampled_from(["0", "1", "1.0", "-0", "2", ""]),
                       min_size=5, max_size=5),
       label_at=st.integers(0, 2), defect=DEFECTS, pick=st.integers(0, 9))
def test_csv_loader_matches_token_parser(folder, cells, labels, label_at, defect, pick):
    width = len(cells[0])
    label_at = min(label_at, width)
    rows = [(row * width)[:width] for row in cells]
    for i, row in enumerate(rows):
        row.insert(label_at, labels[i])
    names = [f"c{j}" for j in range(width)]
    names.insert(label_at, "label")
    path = folder / "d.csv"
    path.write_text(",".join(names) + "\n" + _with_defect(rows, defect, ",", pick),
                    encoding="utf-8", newline="")
    _assert_matches_reference(load_labeled_csv, str(path))


TOKEN_CHARS = "0123456789+-.eEinfatyINFATY_ \t\x0b\x0c\x1c\x1f\x85\xa0 　\x00#x"


@pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
@settings(max_examples=200, deadline=None)
@given(token=st.one_of(st.text(TOKEN_CHARS, max_size=10), FLOATS.map(repr),
                       FLOATS.map(lambda v: "%e" % v)))
def test_any_token_the_c_parser_accepts_reads_as_the_token_parser_reads_it(token):
    try:
        got = np.loadtxt(io.StringIO(token + "\n"), dtype=np.float64, comments=None,
                         delimiter=",", ndmin=2)
    except ValueError:
        return
    if got.size == 0:           # a blank line holds no value
        return
    assert got.shape == (1, 1)
    want = data_mod._parse_float(token, "token", 1)
    if math.isnan(want):
        assert math.isnan(got[0, 0])
    else:
        assert np.float64(want).view(np.int64) == got[0, 0].view(np.int64)


def test_clean_files_never_reach_the_token_parser(tmp_path):
    features, labels = tmp_path / "f.txt", tmp_path / "l.txt"
    features.write_text("1.5 NaN -0\r\n\n4e-3 inf 6\n")
    labels.write_text("-1 x\n1 x\n")
    tep, csv = tmp_path / "tep.csv", tmp_path / "d.csv"
    tep.write_text("\na,b,fault\n0.1,nan,0\n0.3,0.4,2.0\n")
    csv.write_text("a,label,b\n1.0,1,2.0\n3.0,-0,4.0\n")

    def never(*args):
        raise AssertionError("the token parser ran")
    with mock.patch.object(data_mod, "_token_rows", never):
        assert load_secom(str(features), str(labels)).features.shape == (2, 3)
        assert load_tep(str(tep)).labels.tolist() == [1, 0]
        assert load_labeled_csv(str(csv)).labels.tolist() == [1, 0]


BOM_CASES = {   # each loader's files; "{na}" is a value, or NA to force the token parser
    "secom": ("1.5 {na} -0\n4e-3 inf 6\n", "-1 x\n1 x\n"),
    "tep": ("a,b,fault\n0.1,{na},0\n0.3,0.4,2\n",),
    "tep_headerless": ("0.1 {na} 0\n0.3 0.4 2\n",),
    "csv_label_first": ("label,a,b\n1,1.0,{na}\n0,3.0,4.0\n",),
    "csv_label_inside": ("a,label,b\n1.0,1,{na}\n3.0,0,4.0\n",),
}


@pytest.mark.parametrize("na", ["2.5", "NA"], ids=["c_parser", "token_parser"])
@pytest.mark.parametrize("case", list(BOM_CASES))
def test_byte_order_mark_reads_as_the_plain_file(tmp_path, case, na):
    load = {"secom": load_secom, "tep": load_tep, "tep_headerless": load_tep}.get(
        case, load_labeled_csv)
    texts = [t.format(na=na) for t in BOM_CASES[case]]
    plain, bom = [], []
    for i, text in enumerate(texts):
        for paths, prefix in ((plain, b""), (bom, b"\xef\xbb\xbf")):
            path = tmp_path / f"{prefix.hex()}{i}.txt"
            path.write_bytes(prefix + text.encode())
            paths.append(str(path))
    token_rows = mock.Mock(wraps=data_mod._token_rows)
    with mock.patch.object(data_mod, "_token_rows", token_rows):
        want, got = load(*plain), load(*bom)
    assert token_rows.call_count == (2 if na == "NA" else 0)
    assert got.features.tobytes() == want.features.tobytes()
    assert got.labels.tolist() == want.labels.tolist()
    assert got.feature_names == want.feature_names
    assert np.isnan(got.features).any() == (na == "NA")


def test_blank_file_falls_back_without_a_numpy_warning(tmp_path, recwarn):
    features, labels = tmp_path / "f.txt", tmp_path / "l.txt"
    features.write_text("\n  \n\n")
    labels.write_text("")
    with pytest.raises(ClaireError, match="no feature rows"):
        load_secom(str(features), str(labels))
    path = tmp_path / "tep.csv"
    path.write_text("a,b,fault\n\n")
    with pytest.raises(ClaireError, match="header but no data rows"):
        load_tep(str(path))
    assert not recwarn.list


def test_token_parser_reports_true_line_numbers(tmp_path):
    path = tmp_path / "tep.csv"
    path.write_text("a,b,fault\n\n0.1,0.2,0\n\n0.3,0.4,1.5\n")
    with pytest.raises(ClaireError, match=r"tep.csv:5: fault class must be an integer, "
                                          r"got '1.5'"):
        load_tep(str(path))
    path = tmp_path / "d.csv"
    path.write_text("a,label\n1,0\n\n2,NA\n")
    with pytest.raises(ClaireError, match=r"d.csv:4: label must be 0 or 1, got 'NA'"):
        load_labeled_csv(str(path))


def _old_line_files(features_path, labels_path, ds):
    """write_line_files as it formatted one numpy scalar at a time."""
    with open(features_path, "w", encoding="utf-8") as fh:
        for row in ds.features:
            fh.write(" ".join("NaN" if np.isnan(v) else repr(float(v)) for v in row))
            fh.write("\n")
    with open(labels_path, "w", encoding="utf-8") as fh:
        for i, label in enumerate(ds.labels):
            raw = -1 if label == 1 else 1
            fh.write(f'{raw} "2008-01-01 {i % 24:02d}:00:00"\n')


def _old_process_file(path, x, fault_col, header=True):
    """write_process_file as it formatted one numpy scalar at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(",".join([f"var_{j}" for j in range(x.shape[1])] + ["fault"]) + "\n")
        for row, cls in zip(x, fault_col):
            fh.write(",".join(repr(float(v)) for v in row) + f",{int(cls)}\n")


def _awkward_table(seed: int, n_rows: int, n_cols: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_rows, n_cols)) * 10.0 ** rng.integers(-30, 30, (n_rows, n_cols))
    flat = x.reshape(-1)
    specials = [np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 1e300, 0.1, 1e16]
    flat[rng.choice(flat.size, len(specials), replace=False)] = specials
    return x


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_writers_keep_the_bytes_of_the_per_scalar_formula(tmp_path, seed):
    x = _awkward_table(seed, 40, 7)
    labels = np.random.default_rng(seed).integers(0, 2, 40)
    ds = TabularDataset(x, labels, [f"c{j}" for j in range(7)])
    write_line_files(str(tmp_path / "new_f"), str(tmp_path / "new_l"), ds)
    _old_line_files(str(tmp_path / "old_f"), str(tmp_path / "old_l"), ds)
    faults = np.random.default_rng(seed).integers(0, 4, 40)
    for header in (True, False):
        write_process_file(str(tmp_path / f"new_p{header}"), x, faults, header)
        _old_process_file(str(tmp_path / f"old_p{header}"), x, faults, header)
    for name in ("f", "l", "pTrue", "pFalse"):
        assert (tmp_path / f"new_{name}").read_bytes() == (tmp_path / f"old_{name}").read_bytes()


def test_writers_hold_one_row_at_a_time(tmp_path):
    """The writers convert one row to Python floats at a time: on the
    default tables they hold well under 1 MB, where converting the whole
    line table at once held about 30 MB."""
    ds = make_wide_line_dataset()
    x, faults = make_process_dataset()
    assert peak_bytes(lambda: write_line_files(str(tmp_path / "f"), str(tmp_path / "l"),
                                               ds)) <= 1 << 20
    assert peak_bytes(lambda: write_process_file(str(tmp_path / "p"), x, faults)) <= 1 << 20
