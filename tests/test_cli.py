"""End-to-end command tests, driven through main() for speed.

A tiny two-cloud CSV stands in for real line data: four informative
columns plus one mostly-missing column the census must drop.
"""
import json
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
    assert "different column set" in capsys.readouterr().err


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


def test_explain_prints_its_plan_first(workspace, trained, capsys):
    rc = main(["explain", "--dataset", workspace["data"], "--config",
               workspace["config"], "--seed", "5",
               "--model", os.path.join(trained, "model.json"),
               "--out", str(workspace["root"] / "explain_plan")])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    # 5 rows, 4 features -> 2^4 - 2 coalitions, 20 background rows
    plan = lines.index("explain: 5 rows x 14 coalitions x 20 background rows "
                       "= 1400 encoder rows")
    assert plan < next(i for i, l in enumerate(lines)
                       if l.startswith("wrote attribution exports"))


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


def test_explain_reads_dataset_once(workspace, trained, monkeypatch):
    import claire.data as data_mod
    calls = []
    real = data_mod.load_labeled_csv
    monkeypatch.setattr(data_mod, "load_labeled_csv",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    rc = main(["explain", "--dataset", workspace["data"], "--config",
               workspace["config"], "--seed", "5",
               "--model", os.path.join(trained, "model.json"),
               "--out", str(workspace["root"] / "explain_once")])
    assert rc == 0
    assert len(calls) == 1


def test_bad_tep_fault_filter_is_input_error(workspace, capsys):
    rc = main(["train", "--dataset", "tep:d.csv:faults=x", "--out",
               str(workspace["root"] / "never6")])
    _assert_one_line_input_error(rc, capsys.readouterr().err, "faults", "'x'")


@pytest.mark.parametrize("flag", ["--n-eval", "--n-background", "--n-coalitions"])
def test_explain_rejects_zero_budgets(workspace, trained, capsys, flag):
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


@pytest.fixture
def no_loader(monkeypatch):
    """Every dataset loader fails the test if it is called."""
    def never(*args, **kwargs):
        raise AssertionError("a loader ran")
    for loader in ("load_secom", "load_tep", "load_labeled_csv"):
        monkeypatch.setattr(f"claire.data.{loader}", never)


@pytest.mark.parametrize("dataset,key", [
    ({"kind": "secom", "features": "x.data"}, "'labels'"),
    ({"kind": "tep", "fault_classes": [1]}, "'path'"),
    ({"kind": "csv"}, "'path'"),
])
def test_dataset_missing_its_file_key_is_input_error(tmp_path, no_loader, capsys,
                                                     dataset, key):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "claire-config/1", "dataset": dataset}))
    rc = main(["train", "--config", str(config), "--out", str(tmp_path / "out")])
    _assert_one_line_input_error(rc, capsys.readouterr().err, f"'{dataset['kind']}'", key)
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
