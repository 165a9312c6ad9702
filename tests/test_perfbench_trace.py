"""The traced benchmark's wrappers still see every call they time.

``perfbench/layers.py`` times claire by replacing named functions
(``claire.training.adam_step``, ``claire.network.dense_backward``,
``claire.cli.bundle_dict`` and others). A renamed or bypassed function
would leave its metric unrecorded and fail only the traced benchmark run,
so this test runs train, eval and explain under those wrappers on a small
process table and asks for every per-layer metric.
"""
import importlib
import os

import claire
import claire.cli
from claire.synthetic import make_process_dataset, write_process_file

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def _call(*argv):
    assert claire.cli.main(list(argv)) == 0


def test_traced_run_records_every_per_layer_metric(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(PERFBENCH)
    layers = importlib.import_module("layers")
    Tracer = importlib.import_module("spans").Tracer

    x, fault = make_process_dataset(n_normal=150, fault_sizes={1: 50, 2: 50}, n_vars=10)
    table = str(tmp_path / "process.csv")
    write_process_file(table, x, fault)
    out = str(tmp_path / "out")
    with Tracer() as tracer:
        layers.install(tracer, claire)
        _call("train", "--dataset", f"tep:{table}", "--out", out, "--seed", "3",
              "--mode", "CLAIRE", "--epochs", "1")
        _call("eval", "--out", out, "--split", "test")
        _call("explain", "--out", out, "--n-eval", "1", "--n-background", "5",
              "--n-coalitions", "40")
    capsys.readouterr()
    # the traced run computes these three itself, outside the wrappers
    extra = {"svm.kkt_gap": 0.0, "model_io.save_s": 0.0, "explain.additivity_gap": 0.0}
    metrics = layers.per_layer_metrics(tracer, extra)
    assert set(metrics) == set(layers.PER_LAYER)
    for name in [*(name for name, _ in layers.TIMES), *layers.COUNTS]:
        assert metrics[name] > 0, name
