"""The output checks pass on real claire outputs and fail on corrupted copies.

    python3 perfbench/test_checks.py        (or: python3 -m pytest perfbench/test_checks.py)

Run from the root of a claire source tree. A small process table (10
variables, 250 rows) is trained for three epochs with a narrow network,
then scored, projected and explained; each test corrupts one output.
"""
from __future__ import annotations

import atexit
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
from claire import cli  # noqa: E402
from claire.synthetic import make_process_dataset, write_process_file  # noqa: E402

_RUN: dict = {}


def _claire(*argv: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"claire {' '.join(argv)} exited {code}")


def outputs() -> dict:
    """Train, score, project and explain once; later calls reuse the result."""
    if _RUN:
        return _RUN
    root = tempfile.mkdtemp(prefix="perfbench-checks-")
    atexit.register(shutil.rmtree, root, True)
    x, fault = make_process_dataset(n_normal=150, fault_sizes={1: 50, 2: 50}, n_vars=10)
    table = os.path.join(root, "process.csv")
    write_process_file(table, x, fault)
    config = os.path.join(root, "config.json")
    with open(config, "w", encoding="utf-8") as fh:
        json.dump({"format": "claire-config/1",
                   "train": {"epochs": 3, "latent_dim": 4, "hidden_widths": [8]}}, fh)
    out = os.path.join(root, "out")
    _claire("train", "--dataset", f"tep:{table}", "--config", config, "--out", out,
            "--seed", "3")
    _claire("eval", "--out", out, "--split", "test")
    _claire("eval", "--out", os.path.join(out, "all"), "--model",
            os.path.join(out, "model.json"), "--split", "all")
    _claire("project", "--out", out)
    _claire("explain", "--out", out, "--n-eval", "2", "--n-background", "10",
            "--n-coalitions", "40")
    _RUN.update(root=root, out=out, raw_x=x, raw_y=(fault == 0).astype(int),
                bundle=checks.read_json(os.path.join(out, "model.json")))
    return _RUN


def _copy_out(tmp: str) -> str:
    copy = os.path.join(tmp, "out")
    shutil.copytree(outputs()["out"], copy)
    return copy


def _expect_failure(check, *args) -> None:
    try:
        check(*args)
    except checks.CheckFailed:
        return
    raise AssertionError(f"{check.__name__} accepted a corrupted output")


def _metrics(out: str, split: str) -> dict:
    return checks.read_json(os.path.join(out, "all" if split == "all" else "", "metrics.json"))


def test_checks_pass_on_real_outputs():
    run = outputs()
    out, bundle = run["out"], run["bundle"]
    checks.check_predictions(bundle, run["raw_x"], run["raw_y"], _metrics(out, "all"))
    checks.check_reported_metrics(_metrics(out, "test"))
    checks.check_dual(bundle)
    checks.check_loss_history(os.path.join(out, "loss_history.csv"))
    checks.check_projection(out)
    kept = bundle["preprocessing"]["kept_feature_names"]
    attributions = checks.read_attributions(out, kept)
    assert checks.check_additivity(out, bundle, attributions) <= checks.ADDITIVITY_TOL
    checks.check_ranking(out, kept, attributions)


def test_flipped_confusion_count_fails():
    run = outputs()
    for split, check, args in (
            ("all", checks.check_predictions, (run["bundle"], run["raw_x"], run["raw_y"])),
            ("test", checks.check_reported_metrics, ())):
        metrics = _metrics(run["out"], split)
        cells = metrics["confusion"]
        donor = "tp" if cells["tp"] > 0 else "tn"
        cells[donor] -= 1
        cells["fn" if donor == "tp" else "fp"] += 1
        _expect_failure(check, *args, metrics)


def test_dual_coefficient_past_c_fails():
    bundle = json.loads(json.dumps(outputs()["bundle"]))
    coef = bundle["svm"]["dual_coef"]
    coef[0] = float(np.sign(coef[0])) * bundle["svm"]["c"] * 1.01
    _expect_failure(checks.check_dual, bundle)


def test_perturbed_attribution_fails():
    run = outputs()
    kept = run["bundle"]["preprocessing"]["kept_feature_names"]
    with tempfile.TemporaryDirectory() as tmp:
        out = _copy_out(tmp)
        path = os.path.join(out, "attributions.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        sample, feature, dim, value = lines[1].rstrip("\n").split(",")
        lines[1] = f"{sample},{feature},{dim},{float(value) + 1e-3!r}\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        attributions = checks.read_attributions(out, kept)
        _expect_failure(checks.check_additivity, out, run["bundle"], attributions)
        _expect_failure(checks.check_ranking, out, kept, attributions)


def test_edited_dprime_fails():
    with tempfile.TemporaryDirectory() as tmp:
        out = _copy_out(tmp)
        path = os.path.join(out, "lda_summary.json")
        summary = checks.read_json(path)
        summary["dprime"] *= 1.01
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh)
        _expect_failure(checks.check_projection, out)


def test_rising_loss_fails():
    with tempfile.TemporaryDirectory() as tmp:
        out = _copy_out(tmp)
        path = os.path.join(out, "loss_history.csv")
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
        lines[-1] = lines[1]     # the last epoch's total now equals the first
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        _expect_failure(checks.check_loss_history, path)


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name}: PASS")
