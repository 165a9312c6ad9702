"""Bundle round trips: save -> load must preserve behavior bit for bit."""
import hashlib
import json
import math
import os
import pickle

import numpy as np
import pytest

from claire.data import PreprocessReport, load_tep, run_pipeline, TabularDataset
from claire.errors import InputError
from claire.model_io import (MODEL_FORMAT, REPORT, bundle_dict, load_bundle, save_bundle,
                             write_bundle, write_json)
from claire.svm import KernelSpec
from claire.synthetic import make_process_dataset, make_wide_line_dataset, write_process_file
from claire.training import SvmConfig, TrainConfig, predict, train_pipeline
from conftest import named_parameters, peak_bytes


def _small_model(mode="CLAIRE", seed=17):
    rng = np.random.default_rng(seed)
    x = np.vstack([rng.normal(0.3, 0.06, (40, 4)), rng.normal(0.7, 0.06, (40, 4))])
    x[rng.uniform(size=80) < 0.1, 1] = np.nan
    labels = np.array([0] * 40 + [1] * 40, dtype=np.int64)
    ds = TabularDataset(x, labels, [f"m{j}" for j in range(4)])
    prepared = run_pipeline(ds, drop_threshold=0.3, test_fraction=0.25, seed=seed)
    cfg = TrainConfig(mode=mode, epochs=4, batch_size=16, latent_dim=3,
                      hidden_widths=[6], seed=seed)
    return train_pipeline(prepared, cfg, SvmConfig(kernel=KernelSpec.rbf()))


def test_round_trip_preserves_predictions_exactly(tmp_path):
    model = _small_model()
    path = str(tmp_path / "model.json")
    save_bundle(path, model)
    loaded = load_bundle(path)

    probe = np.random.default_rng(1).uniform(0.0, 1.0, (25, 4))
    assert np.array_equal(predict(model, probe), predict(loaded, probe))
    for (n1, p1), (n2, p2) in zip(named_parameters(model.network),
                                  named_parameters(loaded.network)):
        assert n1 == n2
        assert np.array_equal(p1, p2)                # bit identical, not just close
    assert np.array_equal(model.svm.dual_coef, loaded.svm.dual_coef)
    assert model.svm.bias == loaded.svm.bias
    assert model.svm.kernel == loaded.svm.kernel
    assert loaded.preprocessing.kept_names == model.preprocessing.kept_names
    assert loaded.preprocessing.medians == model.preprocessing.medians
    assert loaded.epoch_logs == model.epoch_logs
    assert loaded.train_config.weights == model.train_config.weights


def test_resave_is_byte_identical(tmp_path):
    model = _small_model()
    first = str(tmp_path / "a.json")
    second = str(tmp_path / "b.json")
    save_bundle(first, model)
    save_bundle(second, load_bundle(first))
    assert open(first, "rb").read() == open(second, "rb").read()


def test_bundle_keeps_the_solver_gap_bit_for_bit(tmp_path):
    """The gap comes back bit for bit, from the sidecar and from the JSON."""
    model = _small_model()
    path = str(tmp_path / "model.json")
    save_bundle(path, model)
    gap = model.svm.kkt_gap
    assert math.isfinite(gap) and json.load(open(path))["svm"]["kkt_gap"] == gap
    assert load_bundle(path).svm.kkt_gap.hex() == gap.hex()
    os.remove(tmp_path / "model_cache.npy")
    assert load_bundle(path).svm.kkt_gap.hex() == gap.hex()


def test_bundle_without_the_gap_loads_with_nan_and_predicts_the_same(tmp_path):
    """A bundle written before the gap was kept loads with a NaN gap, which
    a re-save writes as null and reads back as NaN."""
    model = _small_model()
    doc = json.loads(json.dumps(bundle_dict(model)))
    del doc["svm"]["kkt_gap"]
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    loaded = load_bundle(str(old))
    assert math.isnan(loaded.svm.kkt_gap)
    probe = np.random.default_rng(4).uniform(0.0, 1.0, (25, 4))
    assert np.array_equal(predict(model, probe), predict(loaded, probe))
    resaved = str(tmp_path / "resaved.json")
    save_bundle(resaved, loaded)
    assert json.load(open(resaved))["svm"]["kkt_gap"] is None
    assert math.isnan(load_bundle(resaved).svm.kkt_gap)


def test_rawsvm_bundle_has_no_network(tmp_path):
    model = _small_model(mode="RawSVM")
    path = str(tmp_path / "raw.json")
    save_bundle(path, model)
    doc = bundle_dict(model)
    assert doc["network"] is None
    assert doc["train_config"]["mode"] == "RawSVM"
    loaded = load_bundle(path)
    assert loaded.network is None
    assert loaded.epoch_logs == []
    probe = np.random.default_rng(2).uniform(0.0, 1.0, (10, 4))
    assert np.array_equal(predict(model, probe), predict(loaded, probe))


def test_format_and_parse_errors(tmp_path):
    bad_format = tmp_path / "wrong.json"
    bad_format.write_text('{"format": "claire-model/999"}')
    with pytest.raises(InputError, match="format"):
        load_bundle(str(bad_format))

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    with pytest.raises(InputError, match="not valid JSON"):
        load_bundle(str(garbage))

    with pytest.raises(InputError, match="cannot read"):
        load_bundle(str(tmp_path / "absent.json"))


def test_preprocess_report_json_round_trip():
    report = PreprocessReport(
        dropped_columns=[("a", 0.5)], imputed_columns=[("b", 1.25)],
        class_counts_before={"failure": 3, "success": 9},
        class_counts_after={"failure": 9, "success": 9})
    doc = REPORT.dump(report)
    assert doc["outlier_detection"] == "not applied"
    back = REPORT.load(doc)
    assert back == report


def test_bundle_format_tag():
    assert bundle_dict(_small_model())["format"] == MODEL_FORMAT == "claire-model/1"


@pytest.mark.parametrize("mode", ["CLAIRE", "RawSVM"])
def test_package_predict_on_a_reloaded_bundle(tmp_path, mode):
    import claire
    path = str(tmp_path / "model.json")
    claire.save_bundle(path, _small_model(mode))
    loaded = claire.load_bundle(path)
    raw = np.random.default_rng(3).uniform(0.0, 1.0, (40, 4))
    raw[::5, 1] = np.nan
    scaled = claire.apply_saved_preprocessing(raw, loaded.preprocessing)
    got = claire.predict(loaded, raw)
    assert np.array_equal(got, claire.predict_labels(loaded.svm,
                                                     claire.model_codes(loaded, scaled)))
    assert set(got.tolist()) == {0, 1}


def test_each_bundle_in_a_directory_has_its_own_sidecar(tmp_path, monkeypatch):
    """model.json's sidecar is model_cache.npy, so a second bundle beside it
    keeps its own; each loads the same with its sidecar as without."""
    parsed = []
    real = json.load
    monkeypatch.setattr(json, "load", lambda *a, **kw: parsed.append(a) or real(*a, **kw))
    for name, mode in (("a", "CLAIRE"), ("b", "RawSVM")):
        save_bundle(str(tmp_path / f"{name}.json"), _small_model(mode))
    assert sorted(os.listdir(tmp_path)) == ["a.json", "a_cache.npy", "b.json", "b_cache.npy"]
    for name in "ab":
        hit = pickle.dumps(load_bundle(str(tmp_path / f"{name}.json")))
        os.remove(tmp_path / f"{name}_cache.npy")
        assert pickle.dumps(load_bundle(str(tmp_path / f"{name}.json"))) == hit
    assert len(parsed) == 2                      # only the loads without a sidecar parse


def test_an_empty_array_is_refused_with_and_without_the_sidecar(tmp_path):
    """JSON writes a (0, k) array as [], which reads back as 1-D and is
    refused; the sidecar keeps that [] in its document, so it is refused too."""
    model = _small_model()
    model.svm.support_vectors = np.empty((0, model.svm.support_vectors.shape[1]))
    path = str(tmp_path / "model.json")
    save_bundle(path, model)
    with pytest.raises(InputError, match="svm.support_vectors must be a 2-D array") as hit:
        load_bundle(path)
    os.remove(tmp_path / "model_cache.npy")
    with pytest.raises(InputError) as miss:
        load_bundle(path)
    assert str(hit.value) == str(miss.value)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Documents write_json writes: the bundle of a one-epoch model on each
    default synthetic table, the process model's preprocess report, and a
    document of the shapes the bundles do not hold."""
    path = str(tmp_path_factory.mktemp("process") / "process.csv")
    write_process_file(path, *make_process_dataset())
    docs = {}
    for name, ds in (("line", make_wide_line_dataset()), ("process", load_tep(path, None))):
        prepared = run_pipeline(ds, drop_threshold=0.3, test_fraction=0.2, seed=1)
        model = train_pipeline(prepared, TrainConfig(mode="CLAIRE", epochs=1, seed=1),
                               SvmConfig())
        docs[name] = bundle_dict(model)
    docs["report"] = REPORT.dump(model.preprocessing.report)
    docs["shapes"] = {"a": [[1.5, [2, {"k": None}]], [], {}, [[]]], 3: {"x": [True, "é\n"]},
                      "n": [math.nan, -0.0, 1e300, -math.inf], "t": (1, (2,)),
                      2.5: [{"": []}], "s": "\u2028\"", "": {}}
    return docs


@pytest.mark.parametrize("name", ["line", "process", "report", "shapes"])
def test_write_json_writes_compact_json_and_its_digest(written, tmp_path, name):
    doc = written[name]
    path = str(tmp_path / "doc.json")
    key = write_json(path, doc, b"tag\n")
    data = open(path, "rb").read()
    assert data == (json.dumps(doc, separators=(",", ":")) + "\n").encode()
    assert key == hashlib.sha256(b"tag\n" + data).digest()


def test_write_bundle_holds_no_more_than_a_few_rows_of_text(written, tmp_path):
    """The writer streams the text row by row: a one-shot json.dumps of the
    line bundle would hold its whole text, and its bytes, at once."""
    doc = written["line"]
    text = len(json.dumps(doc, separators=(",", ":")))
    assert text > 4 << 20
    assert peak_bytes(lambda: write_bundle(str(tmp_path / "model.json"), doc)) <= 1 << 20

