"""End-to-end command tests, driven through main() for speed.

A tiny two-cloud CSV stands in for real line data: four informative
columns plus one mostly-missing column the census must drop.
"""
import json
import math
import os

import numpy as np
import pytest

from claire.cli import main, parse_dataset_spec
from claire.errors import InputError


def _write_dataset(path, heavy_col="h", seed=5, n_per_class=60):
    rng = np.random.default_rng(seed)
    names = ["f0", "f1", "h", "f3", "l"]
    centers = {0: 0.3, 1: 0.7}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label," + ",".join(names) + "\n")
        for label in (0, 1):
            for _ in range(n_per_class):
                vals = {}
                for name in names:
                    vals[name] = float(np.clip(rng.normal(centers[label], 0.06), 0, 1))
                if rng.uniform() < 0.6:
                    vals[heavy_col] = None           # census drops this column
                if rng.uniform() < 0.05:
                    vals["f1" if heavy_col != "f1" else "f3"] = None
                row = [repr(vals[n]) if vals[n] is not None else "NaN" for n in names]
                fh.write(f"{label}," + ",".join(row) + "\n")
    return path


def _write_config(path, **train_overrides):
    train = {"epochs": 6, "batch_size": 16, "latent_dim": 4, "hidden_widths": [8]}
    train.update(train_overrides)
    doc = {"format": "claire-config/1", "train": train,
           "explain": {"n_background": 20, "n_eval": 5, "beeswarm_dims": [0, 1]}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = _write_dataset(str(root / "line.csv"))
    config = _write_config(str(root / "config.json"))
    return {"root": root, "data": f"csv:{data}", "config": config}


@pytest.fixture(scope="module")
def trained(workspace):
    out = str(workspace["root"] / "model_out")
    rc = main(["train", "--dataset", workspace["data"], "--config",
               workspace["config"], "--seed", "5", "--out", out])
    assert rc == 0
    return out


def test_dataset_spec_grammar():
    assert parse_dataset_spec("secom:a.data:b.data") == {
        "kind": "secom", "features": "a.data", "labels": "b.data"}
    assert parse_dataset_spec("tep:d.dat") == {
        "kind": "tep", "path": "d.dat", "fault_classes": None}
    assert parse_dataset_spec("tep:d.dat:faults=1,4")["fault_classes"] == [1, 4]
    assert parse_dataset_spec("csv:x.csv")["label_column"] == "label"
    assert parse_dataset_spec("csv:x.csv:label=ok")["label_column"] == "ok"
    for bad in ("parquet:x", "secom:only_features", "tep:d.dat:speed=9",
                "csv:x.csv:sep=;"):
        with pytest.raises(InputError):
            parse_dataset_spec(bad)


def test_preprocess_exports_splits(workspace):
    out = str(workspace["root"] / "prep_out")
    rc = main(["preprocess", "--dataset", workspace["data"], "--seed", "5",
               "--out", out])
    assert rc == 0
    train_lines = open(os.path.join(out, "train.csv")).read().splitlines()
    test_lines = open(os.path.join(out, "test.csv")).read().splitlines()
    assert train_lines[0] == "f0,f1,f3,l,label"      # h dropped by the census
    assert len(train_lines) == 1 + 96                # 120 rows, 0.2 test fraction
    assert len(test_lines) == 1 + 24
    for line in train_lines[1:]:
        cells = line.split(",")
        assert cells[-1] in ("0", "1")
        assert all(0.0 <= float(c) <= 1.0 for c in cells[:-1])
    report = json.load(open(os.path.join(out, "preprocess_report.json")))
    assert [d["name"] for d in report["dropped_columns"]] == ["h"]


def test_train_writes_bundle_and_history(workspace, trained):
    doc = json.load(open(os.path.join(trained, "model.json")))
    assert doc["format"] == "claire-model/1"
    assert doc["mode"] == "CLAIRE"
    assert doc["preprocess"] == {"drop_threshold": 0.3, "test_fraction": 0.2}
    assert doc["dataset"]["kind"] == "csv"
    history = open(os.path.join(trained, "loss_history.csv")).read().splitlines()
    assert history[0] == "epoch,l_recon,l_latent,l_clf,l_ent,l_total"
    assert len(history) == 1 + 6                     # config sets 6 epochs
    assert os.path.exists(os.path.join(trained, "preprocess_report.json"))


def test_retraining_is_byte_identical(workspace, trained):
    out2 = str(workspace["root"] / "model_out2")
    rc = main(["train", "--dataset", workspace["data"], "--config",
               workspace["config"], "--seed", "5", "--out", out2])
    assert rc == 0
    a = open(os.path.join(trained, "model.json"), "rb").read()
    b = open(os.path.join(out2, "model.json"), "rb").read()
    assert a == b


def test_saved_bundle_reproduces_train_output(workspace, trained, tmp_path):
    from claire.model_io import load_bundle, save_bundle
    copy = str(tmp_path / "model.json")
    save_bundle(copy, load_bundle(os.path.join(trained, "model.json")))
    assert open(copy, "rb").read() == open(os.path.join(trained, "model.json"), "rb").read()


def test_rawsvm_train_has_no_history(workspace):
    out = str(workspace["root"] / "raw_out")
    rc = main(["train", "--dataset", workspace["data"], "--config",
               workspace["config"], "--seed", "5", "--out", out,
               "--mode", "RawSVM"])
    assert rc == 0
    assert not os.path.exists(os.path.join(out, "loss_history.csv"))
    assert json.load(open(os.path.join(out, "model.json")))["network"] is None


def test_eval_splits(workspace, trained):
    for split, expect_rows in (("test", 24), ("train", 96), ("all", 120)):
        out = str(workspace["root"] / f"eval_{split}")
        rc = main(["eval", "--dataset", workspace["data"], "--seed", "5",
                   "--model", os.path.join(trained, "model.json"),
                   "--out", out, "--split", split])
        assert rc == 0
        doc = json.load(open(os.path.join(out, "metrics.json")))
        assert doc["split"] == split
        assert doc["n_rows"] == expect_rows
        assert doc["accuracy"] == 1.0                # trivially separable clouds
        assert set(doc["confusion"]) == {"tp", "fp", "tn", "fn"}
        assert 0.0 <= doc["f1_macro"] <= 1.0


def test_eval_can_fall_back_to_recorded_dataset(workspace, trained):
    out = str(workspace["root"] / "eval_fallback")
    rc = main(["eval", "--seed", "5", "--model",
               os.path.join(trained, "model.json"), "--out", out])
    assert rc == 0
    assert json.load(open(os.path.join(out, "metrics.json")))["n_rows"] == 24


def test_explain_exports(workspace, trained):
    out = str(workspace["root"] / "explain_out")
    rc = main(["explain", "--dataset", workspace["data"], "--config",
               workspace["config"], "--seed", "5",
               "--model", os.path.join(trained, "model.json"), "--out", out])
    assert rc == 0
    attr_lines = open(os.path.join(out, "attributions.csv")).read().splitlines()
    assert attr_lines[0] == "sample,feature,latent_dim,value"
    assert len(attr_lines) == 1 + 5 * 4 * 4          # samples x features x latent dims
    base = json.load(open(os.path.join(out, "base_values.json")))
    assert len(base["base_values"]) == 4

    imp = open(os.path.join(out, "importance_global.csv")).read().splitlines()
    assert imp[0] == "rank,feature,msv,dim_0,dim_1,dim_2,dim_3"
    assert len(imp) == 1 + 4
    msvs = [float(line.split(",")[2]) for line in imp[1:]]
    assert msvs == sorted(msvs, reverse=True)

    cls = open(os.path.join(out, "importance_class.csv")).read().splitlines()
    assert cls[0] == "rank,feature,contrast,failure_msv,success_msv"
    assert len(cls) == 1 + 4

    assert os.path.exists(os.path.join(out, "beeswarm_dim_0.csv"))
    assert os.path.exists(os.path.join(out, "beeswarm_dim_1.csv"))
    assert not os.path.exists(os.path.join(out, "beeswarm_dim_2.csv"))
    dep_lines = open(os.path.join(out, "dependence.csv")).read().splitlines()
    assert dep_lines[0] == "feature,feature_value,attribution,color_feature,color_value"
    assert len(dep_lines) == 1 + 5
    top_feature = imp[1].split(",")[1]
    assert all(line.split(",")[0] == top_feature for line in dep_lines[1:])


def test_explain_rejects_rawsvm(workspace, capsys):
    out = str(workspace["root"] / "raw_out")      # written by the RawSVM test
    if not os.path.exists(os.path.join(out, "model.json")):
        main(["train", "--dataset", workspace["data"], "--config",
              workspace["config"], "--seed", "5", "--out", out, "--mode", "RawSVM"])
        capsys.readouterr()
    rc = main(["explain", "--dataset", workspace["data"], "--seed", "5",
               "--model", os.path.join(out, "model.json"),
               "--out", str(workspace["root"] / "noexplain")])
    assert rc == 2
    assert "nothing to explain" in capsys.readouterr().err


def test_explain_rejects_oversized_eval_request(workspace, trained, capsys):
    rc = main(["explain", "--dataset", workspace["data"], "--config",
               workspace["config"], "--seed", "5",
               "--model", os.path.join(trained, "model.json"),
               "--out", str(workspace["root"] / "big_eval"), "--n-eval", "999"])
    assert rc == 2
    assert "n_eval" in capsys.readouterr().err


def test_project_exports(workspace, trained):
    out = str(workspace["root"] / "project_out")
    rc = main(["project", "--dataset", workspace["data"], "--seed", "5",
               "--model", os.path.join(trained, "model.json"), "--out", out])
    assert rc == 0
    lines = open(os.path.join(out, "lda_projection.csv")).read().splitlines()
    assert lines[0] == "projection,label"
    assert len(lines) == 1 + 24
    summary = json.load(open(os.path.join(out, "lda_summary.json")))
    assert summary["split"] == "test"
    assert set(summary) == {"split", "mean0", "mean1", "std0", "std1",
                            "threshold", "dprime"}
    assert summary["dprime"] > 1.0


def test_bad_dataset_spec_is_input_error(workspace, capsys):
    rc = main(["train", "--dataset", "parquet:x", "--out",
               str(workspace["root"] / "never")])
    assert rc == 2
    assert "unknown dataset kind" in capsys.readouterr().err


def test_missing_model_is_input_error(workspace, capsys):
    rc = main(["eval", "--dataset", workspace["data"],
               "--model", str(workspace["root"] / "absent.json"),
               "--out", str(workspace["root"] / "never2")])
    assert rc == 2
    capsys.readouterr()


def test_wrong_config_format_is_input_error(workspace, capsys):
    bad = workspace["root"] / "bad_config.json"
    bad.write_text('{"format": "claire-config/9"}')
    rc = main(["train", "--dataset", workspace["data"], "--config", str(bad),
               "--out", str(workspace["root"] / "never3")])
    assert rc == 2
    assert "claire-config/1" in capsys.readouterr().err


def test_divergence_exits_three(workspace, capsys):
    rc = main(["train", "--dataset", workspace["data"], "--config",
               workspace["config"], "--seed", "5",
               "--out", str(workspace["root"] / "diverged"),
               "--learning-rate", "1e6"])
    assert rc == 3
    assert "diverged at epoch" in capsys.readouterr().err


def test_mismatched_replay_dataset_exits_four(workspace, trained, capsys):
    other = _write_dataset(str(workspace["root"] / "other.csv"), heavy_col="f1")
    rc = main(["eval", "--dataset", f"csv:{other}", "--seed", "5",
               "--model", os.path.join(trained, "model.json"),
               "--out", str(workspace["root"] / "never4")])
    assert rc == 4
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    # the census drops f1, most of it missing here, where the model kept it
    for needle in ("different column set", "column 'f1' is dropped here (missing fraction 0.",
                   "drop_threshold 0.3) but not in the model"):
        assert needle in err


def test_reordered_replay_dataset_exits_four(workspace, trained, capsys):
    """Columns f0 and f1 swapped: the census keeps the same columns, in
    another order than the bundle records."""
    swapped = str(workspace["root"] / "swapped.csv")
    with open(workspace["data"][len("csv:"):], encoding="utf-8") as src, \
            open(swapped, "w", encoding="utf-8") as dst:
        for line in src:
            cells = line.split(",")
            cells[1], cells[2] = cells[2], cells[1]
            dst.write(",".join(cells))
    rc = main(["eval", "--dataset", f"csv:{swapped}", "--seed", "5",
               "--model", os.path.join(trained, "model.json"),
               "--out", str(workspace["root"] / "never4b")])
    assert rc == 4
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert "different column set than the model bundle records: the same columns, " \
           "in another order or under other names" in err


def test_bundle_with_swapped_original_names_exits_four(workspace, trained, tmp_path, capsys):
    """Two kept names swapped in the bundle's original_feature_names: the
    census keeps the same columns, but the bundle would read f0 as f1."""
    doc = json.load(open(os.path.join(trained, "model.json")))
    names = doc["preprocessing"]["original_feature_names"]
    assert names[:2] == ["f0", "f1"]
    names[:2] = ["f1", "f0"]
    bundle = tmp_path / "model.json"
    bundle.write_text(json.dumps(doc))
    rc = main(["eval", "--dataset", workspace["data"], "--model", str(bundle),
               "--out", str(tmp_path / "out")])
    assert rc == 4
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1
    assert ("different column set than the model bundle records: the same columns, in another "
            "order or under other names (column 0 is 'f0' here, 'f1' in the model)") in err


@pytest.mark.parametrize("kind, header", [("csv", "a,a,b,c,label"), ("tep", "a,a,b,c,fault")])
def test_a_column_named_twice_exits_two_naming_it(workspace, capsys, kind, header):
    """Every stage finds a column by its name, so a header that names one
    twice is refused before it can map both to the same column."""
    path = str(workspace["root"] / f"twice.{kind}")
    rng = np.random.default_rng(0)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for i in range(200):
            fh.write(",".join(repr(v) for v in rng.uniform(size=4)) + f",{i % 2}\n")
    rc = main(["train", "--dataset", f"{kind}:{path}", "--out",
               str(workspace["root"] / f"never_twice_{kind}")])
    _assert_one_line_input_error(rc, capsys.readouterr().err,
                                 f"{path}:1: column 'a' is named twice")


def test_eval_without_any_dataset_is_input_error(workspace, trained, capsys):
    stripped = str(workspace["root"] / "stripped.json")
    doc = json.load(open(os.path.join(trained, "model.json")))
    doc["dataset"] = None
    with open(stripped, "w") as fh:
        json.dump(doc, fh)
    rc = main(["eval", "--model", stripped,
               "--out", str(workspace["root"] / "never5")])
    assert rc == 2
    assert "no dataset configured" in capsys.readouterr().err


def _assert_one_line_input_error(rc, err, *needles):
    assert rc == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    for needle in needles:
        assert needle in err


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs; gives the end of the explain plan line: its lanes
    and BLAS threads, or one lane where BLAS's thread count cannot be set."""
    import claire.blas as blas
    monkeypatch.setattr(blas, "usable_cpus", lambda: 2)
    if blas.thread_calls() is None:
        return "; BLAS thread count not pinned; 1 lane"
    return " on 2 lanes, BLAS 1 thread"


def test_explain_prints_its_plan_first(workspace, trained, two_cpus, capsys):
    rc = main(["explain", "--dataset", workspace["data"], "--config",
               workspace["config"], "--seed", "5",
               "--model", os.path.join(trained, "model.json"),
               "--out", str(workspace["root"] / "explain_plan")])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    # 5 rows, 4 features -> 2^4 - 2 coalitions, 20 background rows
    plan = lines.index("explain: 5 rows x 14 coalitions x 20 background rows "
                       "= 1400 coalition rows" + two_cpus)
    # then one progress line per explained row, in order, before the exports
    rows = [lines.index(f"explain: row {i} of 5") for i in range(1, 6)]
    assert plan < rows[0] and rows == sorted(rows)
    assert rows[-1] < next(i for i, l in enumerate(lines)
                           if l.startswith("wrote attribution exports"))


def test_explain_solves_once_per_explained_row(workspace, trained, monkeypatch, capsys):
    """The traced benchmark times ``explain.solve_s`` by wrapping this name."""
    import claire.explain as explain_mod
    calls = []
    solve = explain_mod.solve_weighted_least_squares

    def counting(*args, **kwargs):
        calls.append(args[1].shape)
        return solve(*args, **kwargs)

    monkeypatch.setattr(explain_mod, "solve_weighted_least_squares", counting)
    rc = main(["explain", "--dataset", workspace["data"], "--config",
               workspace["config"], "--seed", "5", "--n-eval", "2",
               "--model", os.path.join(trained, "model.json"),
               "--out", str(workspace["root"] / "explain_solves")])
    assert rc == 0
    capsys.readouterr()
    assert calls == [(14, 4), (14, 4)]       # coalitions x latent dimensions, per row


def test_project_refuses_rank_deficient_fit(tmp_path, capsys):
    # RawSVM on 30 columns leaves 8 test rows: too few for the discriminant
    rng = np.random.default_rng(9)
    path = tmp_path / "wide.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("label," + ",".join(f"c{j}" for j in range(30)) + "\n")
        for i in range(40):
            label = i % 2
            row = np.clip(rng.normal(0.3 + 0.4 * label, 0.05, 30), 0, 1)
            fh.write(f"{label}," + ",".join(repr(float(v)) for v in row) + "\n")
    out = str(tmp_path / "out")
    assert main(["train", "--dataset", f"csv:{path}", "--seed", "3", "--out", out,
                 "--mode", "RawSVM"]) == 0
    capsys.readouterr()
    rc = main(["project", "--dataset", f"csv:{path}", "--seed", "3", "--out", out])
    _assert_one_line_input_error(rc, capsys.readouterr().err,
                                 "8 rows in 30 dimensions", "rank-deficient")


def test_explain_reads_dataset_once(workspace, trained, monkeypatch, tmp_path):
    """Never more than one parse: none with the table cache beside the
    bundle, one without it."""
    import shutil
    import claire.data as data_mod
    calls = []
    real = data_mod.load_labeled_csv
    monkeypatch.setattr(data_mod, "load_labeled_csv",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    uncached = tmp_path / "model.json"
    shutil.copy(os.path.join(trained, "model.json"), uncached)
    for bundle, want in ((os.path.join(trained, "model.json"), 0), (str(uncached), 1)):
        calls.clear()
        rc = main(["explain", "--dataset", workspace["data"], "--config",
                   workspace["config"], "--seed", "5", "--model", bundle,
                   "--out", str(workspace["root"] / "explain_once")])
        assert rc == 0
        assert len(calls) == want


@pytest.mark.parametrize("command", [["eval"], ["explain", "--n-eval", "2",
                                                 "--n-background", "10"]])
def test_replay_reads_the_bundle_once(trained, monkeypatch, tmp_path, bundle_parses, command):
    """One open of model.json, and no JSON parse of it beside its sidecar:
    the config is left out, so each json.load is the bundle's."""
    import builtins
    import shutil
    opened = []
    real = builtins.open
    monkeypatch.setattr(builtins, "open",
                        lambda file, *a, **kw: opened.append(file) or real(file, *a, **kw))
    bare = tmp_path / "model.json"
    shutil.copy(os.path.join(trained, "model.json"), bare)
    for bundle, parses in ((os.path.join(trained, "model.json"), 0), (str(bare), 1)):
        opened.clear()
        bundle_parses.clear()
        assert main([*command, "--model", bundle, "--out", str(tmp_path / "out")]) == 0
        assert opened.count(bundle) == 1
        assert len(bundle_parses) == parses


def test_bad_tep_fault_filter_is_input_error(workspace, capsys):
    rc = main(["train", "--dataset", "tep:d.csv:faults=x", "--out",
               str(workspace["root"] / "never6")])
    _assert_one_line_input_error(rc, capsys.readouterr().err, "faults", "'x'")


@pytest.mark.parametrize("flag", ["--n-eval", "--n-background", "--n-coalitions"])
def test_explain_rejects_zero_budgets(workspace, trained, no_loader, capsys, flag):
    # before the dataset is read: the loaders fail the test if called
    rc = main(["explain", "--dataset", workspace["data"], "--config",
               workspace["config"], "--seed", "5",
               "--model", os.path.join(trained, "model.json"),
               "--out", str(workspace["root"] / "zero_budget"), flag, "0"])
    _assert_one_line_input_error(rc, capsys.readouterr().err, flag[2:].replace("-", "_"))


@pytest.mark.parametrize("key,column", [("dependence_feature", "h"),
                                        ("dependence_feature", "nope"),
                                        ("dependence_color", "nope"),
                                        ("dependence_color", 9)])
def test_explain_rejects_unknown_dependence_column(workspace, trained, capsys, key, column):
    config = workspace["root"] / f"dep_{key}_{column}.json"
    config.write_text(json.dumps({"format": "claire-config/1",
                                  "explain": {"n_background": 20, "n_eval": 5,
                                              key: column}}))
    rc = main(["explain", "--dataset", workspace["data"], "--config", str(config),
               "--seed", "5", "--model", os.path.join(trained, "model.json"),
               "--out", str(workspace["root"] / "bad_dependence")])
    _assert_one_line_input_error(rc, capsys.readouterr().err, key, repr(column))


def test_default_process_train_converges(tmp_path, capsys):
    from claire.synthetic import make_process_dataset, write_process_file
    x, fault = make_process_dataset()
    path = str(tmp_path / "process.csv")
    write_process_file(path, x, fault)
    rc = main(["train", "--dataset", f"tep:{path}", "--seed", "1",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    captured = capsys.readouterr()
    assert "warning" not in captured.err
    svm = json.load(open(tmp_path / "out" / "model.json"))["svm"]
    assert svm["converged"] is True
    line = next(l for l in captured.out.splitlines() if l.startswith("svm:"))
    gap = float(line.split("KKT gap ")[1].split(",")[0])
    assert 0.0 <= gap <= 1e-3


@pytest.mark.parametrize("command,doc,key", [
    ("train", {"seed": "s"}, "'seed'"),
    ("train", {"preprocess": {"drop_threshold": "abc"}}, "'preprocess.drop_threshold'"),
    ("train", {"train": {"hidden_widths": 5}}, "'train.hidden_widths'"),
    ("train", {"train": "oops"}, "'train'"),
    ("explain", {"explain": {"n_background": "x"}}, "'explain.n_background'"),
    ("train", {"train": {"mode": 1}}, "'train.mode'"),
    ("train", {"svm": {"kernel": ["rbf"]}}, "'svm.kernel'"),
    ("explain", {"explain": {"output": [0]}}, "'explain.output'"),
])
def test_config_value_of_wrong_type_is_input_error(workspace, trained, tmp_path, capsys,
                                                   command, doc, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "claire-config/1", **doc}))
    rc = main([command, "--dataset", workspace["data"], "--config", str(config),
               "--out", str(tmp_path / "out"),
               *(["--model", os.path.join(trained, "model.json")]
                 if command == "explain" else [])])
    _assert_one_line_input_error(rc, capsys.readouterr().err, key)


def test_polynomial_degree_zero_is_input_error(workspace, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "claire-config/1",
                                  "svm": {"kernel": "polynomial", "degree": 0}}))
    rc = main(["train", "--dataset", workspace["data"], "--config", str(config),
               "--out", str(tmp_path / "out")])
    _assert_one_line_input_error(rc, capsys.readouterr().err, "degree must be >= 1, got 0")


def test_output_dir_of_wrong_type_fails_before_training(workspace, tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "claire-config/1", "output_dir": 5}))
    rc = main(["train", "--dataset", workspace["data"], "--config", str(config)])
    _assert_one_line_input_error(rc, capsys.readouterr().err, "'output_dir'", "a string")
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


# Where a command first reads its data: a loader, or the table cache of a replay.
DATA_READERS = ("load_secom", "load_tep", "load_labeled_csv", "read_table_cache")


@pytest.fixture
def no_loader(monkeypatch):
    """Every dataset loader, and the table cache's reader, fails the test if
    it is called."""
    def never(*args, **kwargs):
        raise AssertionError("a loader ran")
    for loader in DATA_READERS:
        monkeypatch.setattr(f"claire.data.{loader}", never)


@pytest.mark.parametrize("dataset,key", [
    ({"kind": "secom", "features": "x.data"}, "'dataset.labels' is missing"),
    ({"kind": "tep", "fault_classes": [1]}, "'dataset.path' is missing"),
    ({"kind": "csv"}, "'dataset.path' is missing"),
])
def test_dataset_missing_its_file_key_is_input_error(tmp_path, no_loader, capsys,
                                                     dataset, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "claire-config/1", "dataset": dataset}))
    rc = main(["train", "--config", str(config), "--out", str(tmp_path / "out")])
    _assert_one_line_input_error(rc, capsys.readouterr().err, key)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc,key", [
    ({"svm": {"kernel": "foo"}}, "'svm.kernel'"),
    ({"train": {"mode": "Nope"}}, "'train.mode'"),
    ({"train": {"dropout_rate": 1.5}}, "'train.dropout_rate'"),
])
def test_bad_train_setting_fails_before_the_dataset_is_read(tmp_path, no_loader, capsys,
                                                           doc, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "claire-config/1",
                                  "dataset": {"kind": "csv", "path": "absent.csv"}, **doc}))
    rc = main(["train", "--config", str(config), "--out", str(tmp_path / "out")])
    _assert_one_line_input_error(rc, capsys.readouterr().err, key)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("output", ["foo", 99])
def test_bad_explain_output_fails_before_the_dataset_is_read(workspace, trained, tmp_path,
                                                            no_loader, capsys, output):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "claire-config/1",
                                  "explain": {"output": output}}))
    out = tmp_path / "out"
    rc = main(["explain", "--dataset", workspace["data"], "--config", str(config),
               "--model", os.path.join(trained, "model.json"), "--out", str(out)])
    _assert_one_line_input_error(rc, capsys.readouterr().err, "'explain.output'",
                                 repr(output))
    assert not (out / "attributions.csv").exists()


@pytest.mark.parametrize("site", ["secom_features", "secom_labels", "tep", "csv",
                                  "model", "config"])
def test_non_utf8_input_is_input_error(tmp_path, capsys, site):
    # one Latin-1 byte (e9, an accented e) in each file the CLI reads
    bad = tmp_path / "latin1.dat"
    bad.write_bytes({
        "secom_features": b"1.0 2.0\n3.0 \xe9\n",
        "secom_labels": b"-1 \xe9\n1 x\n",
        "tep": b"v0,fault\n\xe9,0\n",
        "csv": b"a,label\n\xe9,1\n",
        "model": b'{"format": "\xe9"}',
        "config": b'{"format": "claire-config/1", "seed": "\xe9"}',
    }[site])
    features, labels = tmp_path / "x.data", tmp_path / "y.data"
    features.write_text("1.0 2.0\n3.0 4.0\n")
    labels.write_text("-1 t\n1 t\n")
    out = str(tmp_path / "out")
    argv = {
        "secom_features": ["preprocess", "--dataset", f"secom:{bad}:{labels}"],
        "secom_labels": ["preprocess", "--dataset", f"secom:{features}:{bad}"],
        "tep": ["preprocess", "--dataset", f"tep:{bad}"],
        "csv": ["preprocess", "--dataset", f"csv:{bad}"],
        "model": ["eval", "--model", str(bad)],
        "config": ["train", "--config", str(bad)],
    }[site]
    rc = main([*argv, "--out", out])
    _assert_one_line_input_error(rc, capsys.readouterr().err, str(bad), "utf-8")


@pytest.mark.parametrize("command", ["eval", "explain", "project"])
@pytest.mark.parametrize("doc,needle", [
    ([1, 2], "not an object"),
    ({"format": "claire-model/1"}, ": mode is missing"),
    ({"format": "claire-model/1", "mode": "CLAIRE", "seed": 1, "train_config": None,
      "preprocessing": 5}, ": preprocessing must be an object, got 5"),
])
def test_bundle_of_the_wrong_shape_is_input_error(workspace, tmp_path, no_loader, capsys,
                                                  command, doc, needle):
    bundle = tmp_path / "model.json"
    bundle.write_text(json.dumps(doc))
    rc = main([command, "--dataset", workspace["data"], "--model", str(bundle),
               "--out", str(tmp_path / "out")])
    _assert_one_line_input_error(rc, capsys.readouterr().err, str(bundle), needle)


@pytest.fixture(scope="module")
def wide_trained(tmp_path_factory):
    """A CLAIRE model on 14 columns, past the exhaustive limit of 12."""
    root = tmp_path_factory.mktemp("wide")
    rng = np.random.default_rng(14)
    data = root / "wide.csv"
    with open(data, "w", encoding="utf-8") as fh:
        fh.write("label," + ",".join(f"c{j}" for j in range(14)) + "\n")
        for i in range(80):
            row = np.clip(rng.normal(0.3 + 0.4 * (i % 2), 0.08, 14), 0, 1)
            fh.write(f"{i % 2}," + ",".join(repr(float(v)) for v in row) + "\n")
    config = _write_config(str(root / "config.json"))
    out = str(root / "model_out")
    assert main(["train", "--dataset", f"csv:{data}", "--config", config, "--seed", "3",
                 "--out", out]) == 0
    return {"data": f"csv:{data}", "config": config, "model": os.path.join(out, "model.json"),
            "root": root}


def test_explain_checks_coalitions_against_d_before_the_dataset_is_read(wide_trained,
                                                                        no_loader, capsys):
    out = wide_trained["root"] / "early_budget"
    rc = main(["explain", "--dataset", wide_trained["data"], "--config",
               wide_trained["config"], "--model", wide_trained["model"], "--out", str(out),
               "--n-coalitions", "5"])
    _assert_one_line_input_error(rc, capsys.readouterr().err, "n_coalitions", "d + 2 = 16")
    assert not out.exists()


def test_explain_plan_line_counts_the_sampled_coalitions(wide_trained, monkeypatch, two_cpus,
                                                         capsys):
    import claire.explain as explain_mod
    rows = []
    solve = explain_mod.solve_weighted_least_squares

    def counting(*args, **kwargs):
        rows.append(args[1].shape[0])
        return solve(*args, **kwargs)

    monkeypatch.setattr(explain_mod, "solve_weighted_least_squares", counting)
    rc = main(["explain", "--dataset", wide_trained["data"], "--config",
               wide_trained["config"], "--model", wide_trained["model"], "--n-eval", "2",
               "--n-coalitions", "101", "--out", str(wide_trained["root"] / "plan_line")])
    assert rc == 0
    # an odd budget drops one coalition: sampled coalitions come with their complements
    assert ("explain: 2 rows x 100 coalitions x 20 background rows = 4000 coalition rows"
            + two_cpus in capsys.readouterr().out.splitlines())
    assert rows == [100, 100]


# One value per config key that the table refuses: out of range or of the wrong type.
# Dataset fields are keyed "dataset.FIELD" and tried on a dataset of their kind.
REFUSED = {
    "seed": 1.5,
    "output_dir": ["out"],
    "preprocess.drop_threshold": 1.5,
    "preprocess.test_fraction": 1.0,
    "train.mode": "Nope",
    "train.epochs": 0,
    "train.batch_size": 1,
    "train.learning_rate": -1,
    "train.latent_dim": 0,
    "train.hidden_widths": [8, 0],
    "train.latent_weight": -0.1,
    "train.classifier_weight": "1",
    "train.entropy_weight": True,
    "train.corruption_std": -0.1,
    "train.dropout_rate": 1.0,
    "train.bn_momentum": 2.0,
    "train.bn_epsilon": 0,
    "svm.kernel": "quadratic",
    "svm.gamma": "auto",
    "svm.degree": 2.5,
    "svm.coef0": [0],
    "svm.c": 0,
    "svm.tol": 0,
    "svm.max_passes": -1,
    "explain.n_background": 0,
    "explain.n_eval": "all",
    "explain.n_coalitions": 0,
    "explain.beeswarm_dims": [-1],
    "explain.dependence_feature": -1,
    "explain.dependence_color": 1.5,
    "explain.output": "max",
    ("secom", "features"): 3,
    ("secom", "labels"): None,
    ("tep", "path"): ["x.csv"],
    ("tep", "fault_classes"): [0],
    ("csv", "path"): {},
    ("csv", "label_column"): 0,
}
DATASETS = {"secom": {"kind": "secom", "features": "x.data", "labels": "y.data"},
            "tep": {"kind": "tep", "path": "x.csv"},
            "csv": {"kind": "csv", "path": "x.csv"}}


def _config_doc(settings: dict, dataset=DATASETS["csv"]) -> dict:
    """A claire-config/1 document setting dotted keys to the given values."""
    doc = {"format": "claire-config/1", "dataset": dataset}
    for name, value in settings.items():
        section, _, key = name.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[key] = value
    return doc


def _train_with(tmp_path, doc, *flags):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"output_dir": str(tmp_path / "out"), **doc}))
    return main(["train", "--config", str(config), *flags])


def test_every_config_key_has_a_refused_value():
    from claire.cli import DATASET_KINDS, SETTINGS
    dataset_fields = {(kind, key) for kind, fields in DATASET_KINDS.items() for key in fields}
    assert set(REFUSED) == set(SETTINGS) | dataset_fields


@pytest.mark.parametrize("key", list(REFUSED), ids=str)
def test_refused_value_exits_two_naming_its_key(tmp_path, no_loader, capsys, key):
    if isinstance(key, tuple):
        kind, field = key
        doc = _config_doc({}, {**DATASETS[kind], field: REFUSED[key]})
        name = f"dataset.{field}"
    else:
        doc, name = _config_doc({key: REFUSED[key]}), key
    rc = _train_with(tmp_path, doc)
    _assert_one_line_input_error(rc, capsys.readouterr().err, repr(name))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag,value,key", [
    ("--epochs", "0", "'train.epochs' must be an integer >= 1 or null, got 0"),
    ("--learning-rate", "-1", "'train.learning_rate'"),
    ("--learning-rate", "nan", "'train.learning_rate'")])
def test_flag_value_is_checked_by_the_table(tmp_path, no_loader, capsys, flag, value, key):
    rc = _train_with(tmp_path, _config_doc({}), flag, value)
    _assert_one_line_input_error(rc, capsys.readouterr().err, key)


@pytest.mark.parametrize("dataset,needle", [
    (5, "'dataset' must be an object or null, got 5"),
    ({"kind": "csv", "path": {}}, "'dataset.path' must be a file name, got {}"),
    ({"kind": "tep", "path": "x.csv", "fault_classes": [0]},
     "'dataset.fault_classes' must be a list of integers >= 1 or null, got [0]"),
])
def test_nullable_refusal_says_null_only_of_the_value_itself(tmp_path, no_loader, capsys,
                                                             dataset, needle):
    rc = _train_with(tmp_path, _config_doc({}, dataset))
    _assert_one_line_input_error(rc, capsys.readouterr().err, needle)


@pytest.mark.parametrize("key,value", [
    ("train.epochs", 1.7), ("train.epochs", True),
    ("train.hidden_widths", [1.5]), ("train.hidden_widths", [True]),
    ("explain.beeswarm_dims", [0.5]), ("explain.beeswarm_dims", [False]),
    ("dataset.fault_classes", [1.5]), ("dataset.fault_classes", [True]),
    ("dataset.fault_classes", "1,2"), ("dataset.fault_classes", 1),
])
def test_integer_key_refuses_other_values(tmp_path, no_loader, capsys, key, value):
    if key.startswith("dataset."):
        doc = _config_doc({}, {**DATASETS["tep"], "fault_classes": value})
    else:
        doc = _config_doc({key: value})
    rc = _train_with(tmp_path, doc)
    _assert_one_line_input_error(rc, capsys.readouterr().err, repr(key), repr(value))


@pytest.mark.parametrize("document", ["config", "bundle"])
def test_integral_float_is_taken_as_an_integer(trained, tmp_path, monkeypatch, document):
    if document == "bundle":
        from claire.model_io import bundle_dict, load_bundle
        text = open(os.path.join(trained, "model.json"), encoding="utf-8").read()
        doc = json.loads(text)
        doc["train_config"].update(epochs=6.0, hidden_widths=[8.0])
        bundle = tmp_path / "model.json"
        bundle.write_text(json.dumps(doc))
        model = load_bundle(str(bundle))
        assert bundle_dict(model) == json.loads(text)        # written back as integers
        got, want = model.train_config, (6, [8])
    else:
        seen = []

        def stop(prepared, train_cfg, svm_cfg):
            seen.append(train_cfg)
            raise InputError("stopped before training")

        monkeypatch.setattr("claire.cli.train_pipeline", stop)
        data = _write_dataset(str(tmp_path / "line.csv"))
        doc = _config_doc({"train.epochs": 2.0, "train.hidden_widths": [8.0]},
                          {"kind": "csv", "path": data})
        assert _train_with(tmp_path, doc) == 2
        got, want = seen[0], (2, [8])
    assert type(got.epochs) is int and got.epochs == want[0]
    assert [type(w) for w in got.hidden_widths] == [int] and got.hidden_widths == want[1]


@pytest.mark.parametrize("doc,key", [
    ({"bogus": 1}, "'bogus'"),
    ({"preprocess": {"drop_treshold": 0.5}}, "'preprocess.drop_treshold'"),
    ({"train": {"learning_rat": 0.1}}, "'train.learning_rat'"),
    ({"svm": {"kernal": "rbf"}}, "'svm.kernal'"),
    ({"explain": {"n_evals": 5}}, "'explain.n_evals'"),
    ({"dataset": {**DATASETS["secom"], "path": "x.csv"}}, "'dataset.path'"),
    ({"dataset": {**DATASETS["tep"], "label_column": "y"}}, "'dataset.label_column'"),
    ({"dataset": {**DATASETS["csv"], "fault_classes": [1]}}, "'dataset.fault_classes'"),
])
def test_unknown_config_key_exits_two_naming_it(tmp_path, no_loader, capsys, doc, key):
    rc = _train_with(tmp_path, {"format": "claire-config/1", "dataset": DATASETS["csv"], **doc})
    _assert_one_line_input_error(rc, capsys.readouterr().err, key)


@pytest.mark.parametrize("fault_classes", ["1,2", 1])
def test_bundle_fault_classes_not_a_list_is_input_error(trained, tmp_path, no_loader, capsys,
                                                        fault_classes):
    doc = json.load(open(os.path.join(trained, "model.json")))
    doc["dataset"] = {"kind": "tep", "path": "x.csv", "fault_classes": fault_classes}
    bundle = tmp_path / "model.json"
    bundle.write_text(json.dumps(doc))
    rc = main(["eval", "--model", str(bundle), "--out", str(tmp_path / "out")])
    _assert_one_line_input_error(rc, capsys.readouterr().err, ": dataset.fault_classes must be",
                                 repr(fault_classes))


@pytest.mark.parametrize("value", ["1" * 5000, "[" * 100_000 + "]" * 100_000],
                         ids=["5000_digits", "deep_array"])
@pytest.mark.parametrize("document", ["config", "bundle"])
def test_unreadable_json_value_exits_two_in_one_line(tmp_path, no_loader, capsys, document,
                                                     value):
    path = tmp_path / f"{document}.json"
    path.write_text(f'{{"format": "claire-{"config" if document == "config" else "model"}/1", '
                    f'"seed": {value}}}')
    rc = main(["train", "--config", str(path)] if document == "config"
              else ["eval", "--model", str(path)])
    _assert_one_line_input_error(rc, capsys.readouterr().err, str(path), "not valid JSON")


def _with_preprocess(trained, tmp_path, preprocess):
    doc = json.load(open(os.path.join(trained, "model.json")))
    doc["preprocess"] = preprocess
    bundle = tmp_path / "model.json"
    bundle.write_text(json.dumps(doc))
    return str(bundle)


@pytest.mark.parametrize("preprocess,fraction,rc", [
    ({"drop_threshold": 0.9, "test_fraction": 0.2}, None, 2),
    ({"drop_threshold": 0.7, "test_fraction": 0.2}, 0.7, 2),
    (None, 0.3, 2),                                 # a null block replays 0.30
    (None, 0.31, 0),
    ({"drop_threshold": 0.2, "test_fraction": 0.2}, 0.25, 0),
])
def test_bundle_threshold_that_keeps_a_dropped_column_exits_two(
        workspace, trained, tmp_path, request, capsys, preprocess, fraction, rc):
    """A bundle whose preprocess.drop_threshold would keep a column its
    report says training dropped contradicts itself: exit 2 naming the
    threshold, before any dataset is read."""
    doc = json.load(open(os.path.join(trained, "model.json")))
    doc["preprocess"] = preprocess
    if fraction is not None:
        doc["preprocessing"]["report"]["dropped_columns"][0]["missing_fraction"] = fraction
    bundle = tmp_path / "model.json"
    bundle.write_text(json.dumps(doc))
    if rc == 2:
        request.getfixturevalue("no_loader")
    got = main(["eval", "--dataset", workspace["data"], "--model", str(bundle),
                "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if rc == 0:
        assert got == 0, err
    else:
        _assert_one_line_input_error(got, err, f"{bundle}: preprocess.drop_threshold must be "
                                     "below the missing fraction")


@pytest.mark.parametrize("command", ["eval", "explain", "project"])
@pytest.mark.parametrize("preprocess,key", [
    ({"drop_threshold": 0.3, "test_fraction": "x"}, ": preprocess.test_fraction must be"),
    ({"drop_threshold": True, "test_fraction": 0.2}, ": preprocess.drop_threshold must be"),
    ({"drop_threshold": 0.3, "test_fraction": 1.5}, ": preprocess.test_fraction must be"),
    ({"drop_threshold": 0.3, "test_fraction": 0.2, "bogus": 1}, ": preprocess.bogus is unknown"),
])
def test_bad_bundle_preprocess_block_fails_before_the_dataset_is_read(
        workspace, trained, tmp_path, no_loader, capsys, command, preprocess, key):
    bundle = _with_preprocess(trained, tmp_path, preprocess)
    rc = main([command, "--dataset", workspace["data"], "--model", bundle,
               "--out", str(tmp_path / "out")])
    _assert_one_line_input_error(rc, capsys.readouterr().err, key)
    assert not (tmp_path / "out").exists()


def test_null_bundle_preprocess_block_takes_the_defaults(workspace, trained, tmp_path):
    # the workspace config leaves preprocess at its defaults
    metrics = []
    for name, bundle in (("recorded", os.path.join(trained, "model.json")),
                         ("null", _with_preprocess(trained, tmp_path, None))):
        out = tmp_path / name
        assert main(["eval", "--dataset", workspace["data"], "--model", bundle,
                     "--out", str(out)]) == 0
        metrics.append((out / "metrics.json").read_bytes())
    assert metrics[0] == metrics[1]


def test_bundle_without_the_solver_gap_replays_the_same_outputs(workspace, trained, tmp_path,
                                                                capsys):
    """A bundle written before the gap was kept (no svm.kkt_gap) loads and
    writes what the bundle with it writes, for every replay command."""
    doc = json.load(open(os.path.join(trained, "model.json")))
    assert isinstance(doc["svm"].pop("kkt_gap"), float)
    old = tmp_path / "old"
    old.mkdir()
    (old / "model.json").write_text(json.dumps(doc))
    outputs = []
    for name, bundle in (("with", os.path.join(trained, "model.json")),
                         ("without", str(old / "model.json"))):
        out = tmp_path / f"out_{name}"
        for argv in (["eval", "--split", "all"], ["explain", "--n-eval", "2"], ["project"]):
            assert main([*argv, "--dataset", workspace["data"], "--config",
                         workspace["config"], "--model", bundle, "--out", str(out)]) == 0
        capsys.readouterr()
        outputs.append({name: (out / name).read_bytes() for name in sorted(os.listdir(out))})
    assert len(outputs[0]) > 3 and outputs[0] == outputs[1]


@pytest.mark.parametrize("edit,key", [
    (lambda doc: doc["svm"].update(bias="x"), ": svm.bias must be"),
    (lambda doc: doc["svm"].update(kkt_gap="x"), ": svm.kkt_gap must be"),
    (lambda doc: doc["svm"].update(dual_coef=doc["svm"]["dual_coef"][:-1]), ": svm.dual_coef "),
    (lambda doc: doc["svm"]["kernel"].update(gamma=None), ": svm.kernel.gamma must be"),
    (lambda doc: doc["network"]["encoder"][0]["activation"].update(slope="x"),
     ": network.encoder[0].activation.slope must be"),
    (lambda doc: doc["network"]["encoder"][0].update(bias=[0.0]), ": network.encoder[0].bias "),
    (lambda doc: doc["network"]["encoder"][0]["batch_norm"].update(gamma=[1.0]),
     ": network.encoder[0].batch_norm.gamma "),
    (lambda doc: doc.update(bogus=1), ": bogus is unknown"),
    (lambda doc: doc["svm"].update(bogus=1), ": svm.bogus is unknown"),
    (lambda doc: doc["svm"]["kernel"].update(bogus=1), ": svm.kernel.bogus is unknown"),
    (lambda doc: doc["network"]["encoder"][0].update(bogus=1),
     ": network.encoder[0].bogus is unknown"),
    (lambda doc: doc.update(epoch_log=doc.pop("epoch_logs")), ": epoch_log is unknown"),
], ids=["svm.bias", "svm.kkt_gap", "svm.dual_coef", "svm.kernel.gamma", "encoder.slope",
        "encoder.bias", "encoder.gamma", "unknown", "svm.unknown", "svm.kernel.unknown",
        "encoder.unknown", "epoch_log"])
def test_bad_bundle_value_exits_two_naming_its_section(trained, tmp_path, no_loader, capsys,
                                                       edit, key):
    doc = json.load(open(os.path.join(trained, "model.json")))
    edit(doc)
    bundle = tmp_path / "model.json"
    bundle.write_text(json.dumps(doc))
    rc = main(["eval", "--model", str(bundle), "--out", str(tmp_path / "out")])
    _assert_one_line_input_error(rc, capsys.readouterr().err, str(bundle), key)


def _scalar_leaves(node, path=()):
    """(path, value) of each scalar under ``node``, through the first two
    entries of each list."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _scalar_leaves(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node[:2]):
            yield from _scalar_leaves(value, (*path, i))
    else:
        yield path, node


def _path_text(path):
    """A leaf's path down to its last key, as a bundle error names it: a
    number array is read whole, so its entries are not named."""
    last = max(i for i, part in enumerate(path) if isinstance(part, str))
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path[:last + 1])[1:]


def test_every_bad_bundle_leaf_exits_two_naming_its_path(trained, tmp_path, no_loader, capsys):
    """Each scalar of the bundle but its format tag, replaced by each of
    these values unlike its own JSON type, exits 2 in one line naming its
    path. NaN and Infinity are unlike every number. true among the numbers
    of an array reads as 1.0, so it is left out."""
    text = open(os.path.join(trained, "model.json"), encoding="utf-8").read()
    doc = json.loads(text)
    kept = {k: v for k, v in doc.items() if k != "format"}
    bundle = tmp_path / "model.json"
    edits, loaded = 0, []
    for path, leaf in _scalar_leaves(kept):
        in_array = isinstance(path[-1], int) and isinstance(leaf, float)
        for bad in ("x", True, 1.5, math.nan, math.inf, [], 10 ** 400):
            nonfinite = isinstance(bad, float) and not math.isfinite(bad)
            if (type(bad) is type(leaf) and not nonfinite) or (bad is True and in_array):
                continue
            edited = json.loads(text)
            node = edited
            for part in path[:-1]:
                node = node[part]
            node[path[-1]] = bad
            bundle.write_text(json.dumps(edited), encoding="utf-8")
            edits += 1
            rc = main(["eval", "--model", str(bundle), "--out", str(tmp_path / "out")])
            err = capsys.readouterr().err
            if not (rc == 2 and len(err.strip().splitlines()) == 1
                    and f"{bundle}: {_path_text(path)}" in err):
                loaded.append((_path_text(path), repr(bad)[:20], rc, err.strip()[-80:]))
    assert edits > 600
    assert loaded == []


def _subtrees(node, path=()):
    """The path of ``node`` and of each value under it, through the first
    two entries of each list."""
    yield path
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node[:2]):
            yield from _subtrees(value, (*path, key))


def test_any_structural_bundle_edit_exits_zero_or_two_in_one_line(trained, tmp_path):
    """A key inserted into any object of the bundle, or any subtree (the
    whole document too) replaced by any JSON value, either evaluates with
    exit 0 or exits 2 in one line, with no traceback. The one exit 4 is the
    replay guard's one line: a preprocess.drop_threshold lowered below the
    missing fraction of a kept column, which the bundle does not record,
    drops it and reads as a dataset other than the one trained on, as in
    test_mismatched_replay_dataset_exits_four. A threshold raised to keep
    a dropped column exits 2, as the bundle's own contradiction."""
    import contextlib
    import io
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
    text = open(os.path.join(trained, "model.json"), encoding="utf-8").read()
    bundle = tmp_path / "model.json"

    @settings(max_examples=200, deadline=None)
    @given(path=st.sampled_from(list(_subtrees(json.loads(text)))),
           key=st.none() | st.text(max_size=4) | st.just("bogus"), value=_json_values())
    @example(path=("preprocess", "drop_threshold"), key=None, value=0.9)
    @example(path=("preprocess", "drop_threshold"), key=None, value=0.01)
    @example(path=("preprocessing", "original_feature_names"), key=None,
             value=["a", "b", "c", "d", "e"])
    @example(path=("network", "encoder"), key=None, value=[])
    def check(path, key, value):
        doc = json.loads(text)
        parent = None
        node = doc
        for part in path:
            parent, node = node, node[part]
        if key is not None and isinstance(node, dict):
            node[key] = value
        elif parent is not None:
            parent[path[-1]] = value
        else:
            doc = value
        bundle.write_text(json.dumps(doc), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["eval", "--model", str(bundle), "--out", str(tmp_path / "out")])
        if rc == 4:
            assert "different column set" in err.getvalue()
            assert len(err.getvalue().strip().splitlines()) == 1
        elif rc != 0:
            _assert_one_line_input_error(rc, err.getvalue())

    check()


def test_readme_lists_every_config_key_with_its_default_and_range():
    from claire.cli import DATASET_KINDS, SETTINGS
    readme = open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                               "README.md"), encoding="utf-8").read()
    rows = {line.split("|")[1].strip(): line for line in readme.splitlines()
            if line.startswith("| `")}
    for name, (codec, default) in SETTINGS.items():
        row = rows.get(f"`{name}`", "")
        assert f"| `{json.dumps(default)}` |" in row, name
        assert f"| {codec.text} |" in row, name
    for kind, fields in DATASET_KINDS.items():
        for field, (codec, *default) in fields.items():
            row = rows.get(f"`dataset.{field}`", "")
            assert kind in row and f"| {codec.text} |" in row
            assert (f"`{json.dumps(default[0])}`" if default else "required") in row
    for flag in ("--config", "--dataset", "--seed", "--out", "--mode", "--epochs",
                 "--learning-rate", "--model", "--split", "--n-background", "--n-eval",
                 "--n-coalitions"):
        assert any(key.startswith(f"`{flag} ") for key in rows), flag


class LoaderReached(Exception):
    pass


def _json_values():
    from hypothesis import strategies as st
    scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
               | st.sampled_from(["mean", "rbf", "CLAIRE", "x.csv", "label"]))
    return st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                        | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                        max_leaves=6)


def _config_docs():
    """Config documents over the table's keys and unknown ones, with
    defaults, near-defaults and values of any JSON type."""
    from hypothesis import strategies as st
    from claire.cli import DATASET_KINDS, SETTINGS
    values = _json_values()
    good = st.sampled_from([default for _, default in SETTINGS.values()] + [0, 1, 2, 0.5])
    keys = st.sampled_from([*SETTINGS, "bogus", "train.bogus", "explain.outputs"])
    fields = st.sampled_from(["kind", "bogus", *{f for fs in DATASET_KINDS.values() for f in fs}])
    dataset = (st.sampled_from(list(DATASETS.values()))
               | st.builds(lambda base, extra: {**base, **extra},
                           st.sampled_from(list(DATASETS.values())),
                           st.dictionaries(fields, values | good, max_size=2))
               | values)
    sections = st.dictionaries(st.sampled_from(["train", "svm", "explain", "preprocess"]),
                               values, max_size=1)
    return st.builds(lambda settings, data, broken: {**_config_doc(settings, data), **broken},
                     st.dictionaries(keys, good | values, max_size=4), dataset,
                     st.just({}) | sections)


def _exits_two_in_one_line_or_reaches_the_loader(argv):
    import contextlib
    import io

    def reached(*args, **kwargs):
        raise LoaderReached

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        for loader in DATA_READERS:
            mp.setattr(f"claire.data.{loader}", reached)
        rc = main(argv)
    if "LoaderReached" not in err.getvalue():
        _assert_one_line_input_error(rc, err.getvalue())


@pytest.mark.parametrize("command", ["train", "explain"])
def test_any_config_exits_two_in_one_line_or_reaches_the_loader(trained, tmp_path, command):
    """Every config document either exits 2 with one stderr line and no
    traceback, or passes every check and reaches a dataset loader."""
    from hypothesis import given, settings

    @settings(max_examples=120, deadline=None)
    @given(doc=_config_docs())
    def check(doc):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        model = ["--model", os.path.join(trained, "model.json")] if command == "explain" else []
        _exits_two_in_one_line_or_reaches_the_loader([command, "--config", str(config), *model])

    check()


def test_any_dataset_spec_exits_two_in_one_line_or_reaches_the_loader(tmp_path):
    from hypothesis import given, settings
    from hypothesis import strategies as st

    options = st.builds(str.__add__, st.sampled_from(["faults=", "label="]),
                        st.text(max_size=4) | st.sampled_from(["1,2", "0", "x", "1,x"]))
    specs = st.builds(lambda kind, rest: ":".join([kind, *rest]),
                      st.sampled_from(["secom", "tep", "csv", "parquet", ""]),
                      st.lists(st.text(max_size=6) | options, max_size=3))

    @settings(max_examples=200, deadline=None)
    @given(spec=specs)
    def check(spec):
        _exits_two_in_one_line_or_reaches_the_loader(
            ["train", f"--dataset={spec}", "--out", str(tmp_path / "out")])

    check()


# ---- output directories ----

@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
def test_train_output_dir_that_is_a_file_exits_two_before_any_load(tmp_path, no_loader,
                                                                   capsys, under):
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    out = blocker / "sub" if under else blocker
    rc = main(["train", "--dataset", "csv:absent.csv", "--out", str(out)])
    _assert_one_line_input_error(rc, capsys.readouterr().err,
                                 f"cannot create output directory {out}")
    assert blocker.read_text() == "x"


@pytest.mark.parametrize("command", ["eval", "explain", "project", "preprocess"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
def test_eval_output_dir_that_is_a_file_exits_two(workspace, trained, tmp_path, no_loader,
                                                  monkeypatch, capsys, command, under):
    """Every command refuses such an output directory before it reads the
    bundle or the data."""
    def never(*args, **kwargs):
        raise AssertionError("the bundle was read")
    monkeypatch.setattr("claire.cli.load_bundle", never)
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    out = blocker / "sub" if under else blocker
    model = [] if command == "preprocess" else ["--model", os.path.join(trained, "model.json")]
    rc = main([command, "--dataset", workspace["data"], *model, "--out", str(out)])
    _assert_one_line_input_error(rc, capsys.readouterr().err,
                                 f"cannot create output directory {out}")
    assert blocker.read_text() == "x"


# every file each command writes with the workspace config (beeswarm_dims [0, 1])
OUTPUTS = {
    "preprocess": ["train.csv", "test.csv", "preprocess_report.json"],
    "train": ["model.json", "model_cache.npy", "loss_history.csv", "preprocess_report.json",
              "table_cache.npy"],
    "eval": ["metrics.json"],
    "explain": ["attributions.csv", "base_values.json", "importance_global.csv",
                "importance_class.csv", "beeswarm_dim_0.csv", "beeswarm_dim_1.csv",
                "dependence.csv"],
    "project": ["lda_projection.csv", "lda_summary.json"],
}


def _run_into(workspace, trained, command, out):
    model = [] if command in ("train", "preprocess") else [
        "--model", os.path.join(trained, "model.json")]
    return main([command, "--dataset", workspace["data"], "--config", workspace["config"],
                 "--seed", "5", *model, "--out", str(out)])


@pytest.mark.parametrize("command", OUTPUTS)
def test_each_command_writes_the_files_it_checks_first(workspace, trained, tmp_path, command):
    from claire import cli
    out = tmp_path / "out"
    assert _run_into(workspace, trained, command, out) == 0
    cfg = cli.resolve_config(cli.build_parser().parse_args(
        [command, "--config", workspace["config"]]))
    assert sorted(os.listdir(out)) == sorted(cli._outputs(command, cfg)) == sorted(
        OUTPUTS[command])


@pytest.mark.parametrize("command,name", [(command, name) for command, names in OUTPUTS.items()
                                          for name in names])
def test_output_file_that_cannot_be_opened_exits_two_naming_it(workspace, trained, tmp_path,
                                                               no_loader, monkeypatch, capsys,
                                                               command, name):
    """Refused before the data is read or a model trained."""
    def never(*args, **kwargs):
        raise AssertionError("a model was trained")
    monkeypatch.setattr("claire.cli.train_pipeline", never)
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    rc = _run_into(workspace, trained, command, out)
    _assert_one_line_input_error(rc, capsys.readouterr().err,
                                 f"cannot write {out / name}: it is a directory")


@pytest.mark.parametrize("exists", [True, False], ids=["file", "absent_file"])
def test_output_file_that_is_not_writable_exits_two_naming_it(workspace, trained, tmp_path,
                                                              no_loader, monkeypatch, capsys,
                                                              exists):
    """A file that exists must be writable, else the directory it goes in."""
    out = tmp_path / "out"
    out.mkdir()
    target = out / "metrics.json"
    if exists:
        target.write_text("{}")
    blocked = target if exists else out
    real = os.access
    monkeypatch.setattr("os.access", lambda path, mode: real(path, mode) and
                        os.path.abspath(path) != str(blocked))
    rc = _run_into(workspace, trained, "eval", out)
    _assert_one_line_input_error(rc, capsys.readouterr().err,
                                 f"cannot write {target}: {blocked} is not writable")


SINKS = ["closed_pipe"] + (["dev_full"] if os.path.exists("/dev/full") else [])
CLI = "import sys; from claire.cli import main; sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("sink", SINKS)
@pytest.mark.parametrize("command", ["eval", "explain"])
def test_standard_output_that_cannot_be_written_exits_two_in_one_line(workspace, trained,
                                                                      tmp_path, command, sink):
    """A pipe whose read end is closed, or a full device: exit 2 with one
    stderr line, and no second complaint when Python flushes at exit."""
    import subprocess
    import sys
    import claire
    src = os.path.dirname(os.path.dirname(claire.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [command, "--dataset", workspace["data"], "--config", workspace["config"],
            "--model", os.path.join(trained, "model.json"), "--out", str(tmp_path / "out")]
    if sink == "closed_pipe":
        read, stdout = os.pipe()
        os.close(read)
    else:
        stdout = os.open("/dev/full", os.O_WRONLY)
    try:
        run = subprocess.run([sys.executable, "-c", CLI, *argv], stdout=stdout,
                             stderr=subprocess.PIPE, env=env, text=True, timeout=300)
    finally:
        os.close(stdout)
    assert run.returncode == 2, run.stderr
    lines = run.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: cannot write standard output: ")


# ---- rows first: a replay preprocesses only the rows it uses ----

ROWS_FIRST = {"eval_test": ["eval", "--split", "test"],
              "explain": ["explain", "--n-background", "5", "--n-eval", "2"],
              "project_all": ["project", "--split", "all"]}


def _replay_into(workspace, trained, argv, out, capsys):
    """The exit code, the standard output (``out`` spelled OUT) and every
    file written to ``out``."""
    rc = main([*argv, "--model", os.path.join(trained, "model.json"), "--dataset",
               workspace["data"], "--config", workspace["config"], "--seed", "5",
               "--out", str(out)])
    printed = capsys.readouterr().out.replace(str(out), "OUT")
    return rc, printed, {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


@pytest.mark.parametrize("name", ROWS_FIRST)
def test_a_replay_scales_only_the_rows_it_uses(workspace, trained, tmp_path, monkeypatch,
                                               capsys, name):
    import claire.cli as cli
    import claire.data as data_mod
    from claire.data import TabularDataset, stratified_split
    from claire.numerics import substream_seed

    # the old path: every row scaled, then split
    model = cli.load_bundle(os.path.join(trained, "model.json"))
    p = model.preprocessing
    raw = cli.load_dataset(parse_dataset_spec(workspace["data"]))
    every = TabularDataset(data_mod.apply_saved_preprocessing(raw.features, p), raw.labels,
                           list(p.kept_names))
    train, test = stratified_split(every, model.preprocess["test_fraction"],
                                   substream_seed(model.seed, "split"))
    want = {"eval_test": test.features, "project_all": every.features,
            "explain": np.vstack([train.features[:5], test.features[:2]])}[name]
    assert want.shape[0] == {"eval_test": test.n_rows, "project_all": 120, "explain": 7}[name]

    real = data_mod.apply_saved_preprocessing
    scaled = []
    monkeypatch.setattr(data_mod, "apply_saved_preprocessing",
                        lambda x, p: scaled.append(real(x, p)) or scaled[-1])
    got = _replay_into(workspace, trained, ROWS_FIRST[name], tmp_path / "rows_first", capsys)
    assert got[0] == 0
    assert sum(x.shape[0] for x in scaled) == want.shape[0]
    assert np.concatenate(scaled).tobytes() == want.tobytes()

    # the same replay with every row scaled before the rows are taken
    monkeypatch.setattr(cli, "_scaled", lambda model, raw, rows: real(
        raw.features, model.preprocessing)[rows])
    assert got == _replay_into(workspace, trained, ROWS_FIRST[name], tmp_path / "old", capsys)


# ---- the table cache: train's parsed table, replayed by eval, explain and project ----

CACHE_CONFIG = {"format": "claire-config/1",
                "train": {"epochs": 2, "batch_size": 16, "latent_dim": 3, "hidden_widths": [6]},
                "explain": {"n_background": 10, "n_eval": 2, "beeswarm_dims": [0]}}
REPLAYS = {"eval_test": ["eval", "--split", "test"], "eval_all": ["eval", "--split", "all"],
           "eval_train": ["eval", "--split", "train"], "explain": ["explain"],
           "project": ["project"]}


@pytest.fixture(scope="module")
def cached(tmp_path_factory):
    """A model trained on a small csv, tep and secom table each: kind ->
    dataset spec, source files and model directory."""
    from claire.synthetic import make_process_dataset, make_wide_line_dataset
    from claire.synthetic import write_line_files, write_process_file
    root = tmp_path_factory.mktemp("cache")
    config = root / "config.json"
    config.write_text(json.dumps(CACHE_CONFIG))
    csv = _write_dataset(str(root / "table.csv"))
    tep = str(root / "process.csv")
    write_process_file(tep, *make_process_dataset(n_normal=120, fault_sizes={1: 40, 2: 40},
                                                  n_vars=8))
    features, labels = str(root / "line.data"), str(root / "line_labels.data")
    write_line_files(features, labels, make_wide_line_dataset(n_rows=150, n_features=200))
    kinds = {"csv": [csv], "tep": [tep], "secom": [features, labels]}
    out = {}
    for kind, files in kinds.items():
        model = str(root / f"{kind}_model")
        spec = ":".join([kind, *files])
        assert main(["train", "--dataset", spec, "--config", str(config), "--seed", "5",
                     "--out", model]) == 0
        out[kind] = {"spec": spec, "files": files, "model": model, "config": str(config)}
    return out


@pytest.fixture
def parses(monkeypatch):
    """The loader calls made, one entry per call."""
    import claire.data as data_mod
    calls = []
    for loader in ("load_secom", "load_tep", "load_labeled_csv"):
        real = getattr(data_mod, loader)
        monkeypatch.setattr(data_mod, loader,
                            lambda *a, real=real, **kw: calls.append(a) or real(*a, **kw))
    return calls


def _replay_all(case, model, spec, out, capsys, replays=REPLAYS):
    """Each replay command's exit code and stderr, and every file written
    under ``out``, by its path there."""
    got = {}
    for name, argv in replays.items():
        rc = main([*argv, "--model", os.path.join(model, "model.json"), "--dataset", spec,
                   "--config", case["config"], "--seed", "5",
                   "--out", os.path.join(out, name)])
        got[name] = (rc, capsys.readouterr().err)
    for folder, _, names in os.walk(out):
        for name in names:
            path = os.path.join(folder, name)
            got[os.path.relpath(path, out)] = open(path, "rb").read()
    return got


def _copy_model(case, dst, cache=True):
    import shutil
    shutil.copytree(case["model"], dst)
    if not cache:
        os.remove(os.path.join(dst, "table_cache.npy"))
    return str(dst)


@pytest.mark.parametrize("kind", ["csv", "tep", "secom"])
def test_cache_hit_writes_what_a_parse_writes(cached, tmp_path, parses, capsys, kind):
    case = cached[kind]
    hit = _replay_all(case, case["model"], case["spec"], str(tmp_path / "hit"), capsys)
    assert parses == []
    miss = _replay_all(case, _copy_model(case, tmp_path / "uncached", cache=False),
                       case["spec"], str(tmp_path / "miss"), capsys)
    assert len(parses) == 1         # the first replay writes the cache the others hit
    assert all(hit[name][0] == 0 for name in REPLAYS)
    assert len(hit) > 2 * len(REPLAYS) and hit == miss


def _edit_token(path, index, edit):
    """Replace the ``index``-th token of the file's second line by ``edit(token)``."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    sep = "," if "," in lines[1] else " "
    tokens = lines[1].split(sep)
    new = edit(tokens[index])
    assert new != tokens[index]
    tokens[index] = new
    lines[1] = sep.join(tokens)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


@pytest.mark.parametrize("kind,change", [
    *[(kind, change) for kind in ("csv", "tep", "secom")
      for change in ("feature_token", "bad_token", "truncated_cache", "foreign_cache",
                     "deleted_source")],
    ("secom", "label_token"),
])
def test_cache_miss_gives_the_parse_result(cached, tmp_path, parses, capsys, kind, change):
    import shutil
    case = cached[kind]
    data = tmp_path / "data"
    data.mkdir()
    files = [shutil.copy(f, data) for f in case["files"]]
    spec = ":".join([kind, *files])
    with_cache = _copy_model(case, tmp_path / "cached")
    cache = os.path.join(with_cache, "table_cache.npy")
    if change in ("feature_token", "bad_token"):
        _edit_token(files[0], 1, (lambda t: repr(float(t) + 0.5)) if change == "feature_token"
                    else (lambda t: t + "x"))
    elif change == "label_token":
        _edit_token(files[1], 0, lambda t: str(-int(t)))
    elif change == "truncated_cache":
        with open(cache, "r+b") as fh:
            fh.truncate(os.path.getsize(cache) - 1)
    elif change == "foreign_cache":
        other = cached["tep" if kind != "tep" else "csv"]["model"]
        shutil.copy(os.path.join(other, "table_cache.npy"), cache)
    elif change == "deleted_source":
        os.remove(files[-1])
    got = _replay_all(case, with_cache, spec, str(tmp_path / "got"), capsys)
    # a replay that reads the table rewrites the cache the next ones hit
    assert len(parses) == (len(REPLAYS) if change in ("bad_token", "deleted_source") else 1)
    want = _replay_all(case, _copy_model(case, tmp_path / "uncached", cache=False), spec,
                       str(tmp_path / "want"), capsys)
    assert got == want
    codes = {got[name][0] for name in REPLAYS}
    assert codes == ({2} if change in ("bad_token", "deleted_source") else {0})


def test_replay_rewrites_a_foreign_cache_once(cached, tmp_path, parses, capsys):
    """A replay that misses the cache writes the one train would have
    written, so the next replay parses nothing."""
    import shutil
    case = cached["secom"]
    model = _copy_model(case, tmp_path / "model")
    cache = os.path.join(model, "table_cache.npy")
    shutil.copy(os.path.join(cached["tep"]["model"], "table_cache.npy"), cache)
    first = _replay_all(case, model, case["spec"], str(tmp_path / "first"), capsys,
                        {"eval_test": REPLAYS["eval_test"]})
    assert len(parses) == 1
    assert open(cache, "rb").read() == open(os.path.join(case["model"], "table_cache.npy"),
                                            "rb").read()
    again = _replay_all(case, model, case["spec"], str(tmp_path / "again"), capsys,
                        {"eval_test": REPLAYS["eval_test"]})
    assert len(parses) == 1
    assert first == again and first["eval_test"][0] == 0
    assert not [name for name in os.listdir(model) if name.endswith(".tmp")]


def test_replay_that_cannot_rewrite_the_cache_gives_the_same_result(cached, tmp_path, parses,
                                                                    capsys):
    """A cache write that fails (here the cache's name is taken by a
    directory) is skipped: the replays' outputs and exit codes are those of
    replays that wrote it, and each of them parses the text."""
    case = cached["tep"]
    want = _replay_all(case, _copy_model(case, tmp_path / "writable", cache=False),
                       case["spec"], str(tmp_path / "want"), capsys)
    model = _copy_model(case, tmp_path / "blocked", cache=False)
    os.mkdir(os.path.join(model, "table_cache.npy"))
    del parses[:]
    got = _replay_all(case, model, case["spec"], str(tmp_path / "got"), capsys)
    assert got == want and {got[name][0] for name in REPLAYS} == {0}
    assert len(parses) == len(REPLAYS)
    assert sorted(os.listdir(model)) == sorted(os.listdir(case["model"]))     # no .tmp left
    assert os.path.isdir(os.path.join(model, "table_cache.npy"))


def test_cache_hits_a_byte_identical_copy_elsewhere(cached, tmp_path, parses, capsys):
    import shutil
    case = cached["secom"]
    copies = [shutil.copy(f, tmp_path) for f in case["files"]]
    moved = _replay_all(case, case["model"], ":".join(["secom", *copies]),
                        str(tmp_path / "moved"), capsys)
    assert parses == []
    assert moved == _replay_all(case, case["model"], case["spec"], str(tmp_path / "here"),
                                capsys)


@pytest.mark.parametrize("kind", ["csv", "tep", "secom"])
def test_retraining_writes_the_same_cache_and_no_temporary_file(cached, tmp_path, kind):
    case = cached[kind]
    out = str(tmp_path / "again")
    assert main(["train", "--dataset", case["spec"], "--config", case["config"],
                 "--seed", "5", "--out", out]) == 0
    for name in ("model.json", "table_cache.npy"):
        assert (open(os.path.join(out, name), "rb").read()
                == open(os.path.join(case["model"], name), "rb").read()), name
    assert not [name for name in os.listdir(out) if name.endswith(".tmp")]


def test_train_writes_no_cache_from_a_source_that_changed_while_read(workspace, tmp_path,
                                                                     monkeypatch):
    import shutil
    import claire.data as data_mod
    real = data_mod.load_labeled_csv
    path = shutil.copy(workspace["data"].split(":")[1], tmp_path)

    def touching(*args, **kwargs):
        got = real(*args, **kwargs)
        stat = os.stat(path)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))     # same time: kept
        return got
    monkeypatch.setattr(data_mod, "load_labeled_csv", touching)
    out = tmp_path / "out"
    argv = ["train", "--dataset", f"csv:{path}", "--config", workspace["config"],
            "--seed", "5", "--epochs", "1"]
    assert main([*argv, "--out", str(out)]) == 0
    assert (out / "table_cache.npy").exists()

    def moving(*args, **kwargs):
        got = real(*args, **kwargs)
        stat = os.stat(path)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns + 1))
        return got
    monkeypatch.setattr(data_mod, "load_labeled_csv", moving)
    assert main([*argv, "--out", str(tmp_path / "moved")]) == 0
    assert not (tmp_path / "moved" / "table_cache.npy").exists()
    assert (tmp_path / "moved" / "model.json").exists()


# ---- the bundle's sidecar: model.json's float arrays, keyed by its bytes ----

SIDECAR_REPLAYS = {"eval_all": ["eval", "--split", "all"], "explain": ["explain", "--n-eval", "1"],
                   "project": ["project"]}


@pytest.fixture
def bundle_parses(monkeypatch):
    """The JSON parses made, one entry per json.load call."""
    calls = []
    real = json.load
    monkeypatch.setattr(json, "load", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    return calls


def _bare_copy(case, dst):
    """The case's model directory without the bundle's sidecar."""
    dst = _copy_model(case, dst)
    os.remove(os.path.join(dst, "model_cache.npy"))
    return dst


def _load_bytes(bundle):
    import pickle
    from claire.model_io import load_bundle
    return pickle.dumps(load_bundle(bundle))


def _sidecar_records(path):
    """Every np.save record of a sidecar, in order."""
    records = []
    with open(path, "rb") as fh:
        while fh.peek(1):
            records.append(np.lib.format.read_array(fh, allow_pickle=False))
    return records


@pytest.mark.parametrize("kind", ["tep", "secom"])
def test_sidecar_hit_loads_and_replays_what_the_json_gives(cached, tmp_path, capsys,
                                                           bundle_parses, kind):
    case = cached[kind]
    bare = _bare_copy(case, tmp_path / "bare")
    hit = _load_bytes(os.path.join(case["model"], "model.json"))
    assert bundle_parses == []
    assert hit == _load_bytes(os.path.join(bare, "model.json"))
    assert len(bundle_parses) == 1
    got = _replay_all(case, case["model"], case["spec"], str(tmp_path / "hit"), capsys,
                      SIDECAR_REPLAYS)
    want = _replay_all(case, bare, case["spec"], str(tmp_path / "miss"), capsys,
                       SIDECAR_REPLAYS)
    assert all(got[name][0] == 0 for name in SIDECAR_REPLAYS)
    assert len(got) > 2 * len(SIDECAR_REPLAYS) and got == want


def test_one_byte_edit_of_the_bundle_misses_its_sidecar(cached, tmp_path, bundle_parses):
    case = cached["secom"]
    model = _copy_model(case, tmp_path / "edited")
    bundle = os.path.join(model, "model.json")
    text = bytearray(open(bundle, "rb").read())
    at = text.index(b'"weights"')
    at += next(i for i, c in enumerate(text[at:]) if c in b"12345678")
    text[at] += 1                                    # one digit of encoder[0].weights
    open(bundle, "wb").write(text)
    bare = os.path.join(_bare_copy(case, tmp_path / "bare"), "model.json")
    open(bare, "wb").write(text)
    edited = _load_bytes(bundle)
    assert len(bundle_parses) == 1
    assert edited == _load_bytes(bare)
    assert edited != _load_bytes(os.path.join(case["model"], "model.json"))


@pytest.mark.parametrize("change", ["truncated", "garbage", "other_key", "int32", "deep",
                                    "huge_header"])
def test_bad_sidecar_falls_back_to_the_json_silently(cached, tmp_path, capsys, bundle_parses,
                                                     change):
    import hashlib
    from claire.data import write_keyed
    case = cached["secom"]
    model = _copy_model(case, tmp_path / "model")
    sidecar = os.path.join(model, "model_cache.npy")
    key, skeleton, *arrays = _sidecar_records(sidecar)
    if change == "truncated":
        with open(sidecar, "r+b") as fh:
            fh.truncate(os.path.getsize(sidecar) - 1)
    elif change == "garbage":
        with open(sidecar, "wb") as fh:
            fh.write(b"\x93NUMPY garbage" * 100)
    elif change == "huge_header":           # more bytes than any address space holds
        with open(sidecar, "wb") as fh:
            np.save(fh, key, allow_pickle=False)
            np.lib.format.write_array_header_1_0(
                fh, {"descr": "|u1", "fortran_order": False, "shape": (10 ** 15,)})
    else:
        if change == "other_key":
            key = np.frombuffer(hashlib.sha256(b"another bundle").digest(), np.uint8)
        elif change == "int32":
            arrays = [a.astype(np.int32) for a in arrays]
        else:
            skeleton = np.frombuffer(b"[" * 100_000, np.uint8)
        write_keyed(sidecar, "model cache", key.tobytes(), [skeleton, *arrays])
    assert _load_bytes(os.path.join(model, "model.json")) == _load_bytes(
        os.path.join(_bare_copy(case, tmp_path / "bare"), "model.json"))
    assert len(bundle_parses) == 2
    got = _replay_all(case, model, case["spec"], str(tmp_path / "got"), capsys,
                      SIDECAR_REPLAYS)
    assert all(got[name] == (0, "") for name in SIDECAR_REPLAYS)
    assert got == _replay_all(case, case["model"], case["spec"], str(tmp_path / "want"), capsys,
                              SIDECAR_REPLAYS)


def test_forged_sidecar_with_the_right_key_is_checked(cached, tmp_path, capsys):
    """A NaN in a sidecar whose key matches is refused as in the JSON: the
    document rebuilt from the sidecar goes through every check."""
    from claire.data import write_keyed
    model = _copy_model(cached["secom"], tmp_path / "model")
    sidecar = os.path.join(model, "model_cache.npy")
    key, skeleton, *arrays = _sidecar_records(sidecar)
    paths = json.loads(skeleton.tobytes())[1]
    arrays[paths.index(["network", "encoder", 0, "weights"])][0, 0] = math.nan
    write_keyed(sidecar, "model cache", key.tobytes(), [skeleton, *arrays])
    bundle = os.path.join(model, "model.json")
    rc = main(["eval", "--model", bundle, "--out", str(tmp_path / "out")])
    _assert_one_line_input_error(rc, capsys.readouterr().err,
                                 f"{bundle}: network.encoder[0].weights must be a 2-D array")


@pytest.mark.parametrize("kind", ["tep", "secom"])
def test_retraining_writes_the_same_sidecar(cached, tmp_path, kind):
    case = cached[kind]
    out = str(tmp_path / "again")
    assert main(["train", "--dataset", case["spec"], "--config", case["config"],
                 "--seed", "5", "--out", out]) == 0
    assert (open(os.path.join(out, "model_cache.npy"), "rb").read()
            == open(os.path.join(case["model"], "model_cache.npy"), "rb").read())
    assert not [name for name in os.listdir(out) if name.endswith(".tmp")]


@pytest.mark.parametrize("sidecar", [False, True], ids=["bare", "sidecar"])
@pytest.mark.parametrize("kind", ["tep", "secom"])
def test_an_indented_bundle_loads_and_replays_as_the_compact_one(cached, tmp_path, capsys,
                                                                 bundle_parses, kind, sidecar):
    """claire-model/1 bundles were once written with indent=1: such a
    bundle, bare or with the sidecar keyed to its bytes, loads to the same
    model as the compact one and replays to the same files."""
    import hashlib
    from claire.data import write_keyed
    from claire.model_io import _CACHE_TAG
    case = cached[kind]
    model = _copy_model(case, tmp_path / "indented")
    bundle, cache = os.path.join(model, "model.json"), os.path.join(model, "model_cache.npy")
    text = (json.dumps(json.loads(open(bundle, "rb").read()), indent=1) + "\n").encode()
    assert len(text) > len(open(bundle, "rb").read())
    open(bundle, "wb").write(text)
    _, *records = _sidecar_records(cache)
    if sidecar:
        write_keyed(cache, "model cache", hashlib.sha256(_CACHE_TAG + text).digest(), records)
    else:
        os.remove(cache)
    assert _load_bytes(bundle) == _load_bytes(os.path.join(case["model"], "model.json"))
    assert len(bundle_parses) == (0 if sidecar else 1)
    got = _replay_all(case, model, case["spec"], str(tmp_path / "got"), capsys,
                      SIDECAR_REPLAYS)
    want = _replay_all(case, case["model"], case["spec"], str(tmp_path / "want"), capsys,
                       SIDECAR_REPLAYS)
    assert all(got[name] == (0, "") for name in SIDECAR_REPLAYS)
    assert len(got) > 2 * len(SIDECAR_REPLAYS) and got == want
