"""Shipping gate: one test per release criterion, slow parts shared.

Each test prints one `ACCEPTANCE <name>: PASS|FAIL` line that survives
output capture. The mode-comparison and separability criteria run a full
5-seed x 3-mode sweep on a bundled synthetic line-process table (plus a
3-seed process-monitoring analog); point CLAIRE_SECOM_FEATURES and
CLAIRE_SECOM_LABELS (or CLAIRE_TEP_PATH) at real files to run the same
gate on real data.
"""
import json
import math
import os
import statistics
import time
from dataclasses import dataclass

import numpy as np
import pytest

from claire.data import load_secom, load_tep, run_pipeline
from claire.evaluate import compute_metrics, lda_fit
from claire.model_io import bundle_dict
from claire.network import LossWeights, build_network, corrupt
from claire.numerics import RngStream
from claire.svm import KernelSpec, full_alphas, kkt_violation, predict_labels, smo_train
from claire.synthetic import make_process_dataset, make_wide_line_dataset, write_process_file
from claire.training import SvmConfig, TrainConfig, model_codes, train_pipeline

from test_explain import exact_shapley, interactive_model
from test_gradients import fd_check_one
from test_svm import XOR_ALPHA, XOR_X, XOR_Y, grid_qp_duals, oracle_gram

from claire.explain import additivity_gap, kernel_shap

LINE_SEEDS = (1, 2, 3, 4, 5)
PROCESS_SEEDS = (1, 2, 3)
MODES = ("CLAIRE", "PlainAE", "RawSVM")


def _report(capsys, name: str, ok: bool, detail: str = ""):
    with capsys.disabled():
        line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        print(line, flush=True)


@dataclass
class Cell:
    accuracy: float
    f1: float
    dprime: float | None
    logs: list


def _line_dataset():
    features = os.environ.get("CLAIRE_SECOM_FEATURES")
    labels = os.environ.get("CLAIRE_SECOM_LABELS")
    if features and labels:
        return load_secom(features, labels)
    return make_wide_line_dataset()


def _process_dataset(tmp_dir):
    override = os.environ.get("CLAIRE_TEP_PATH")
    if override:
        return load_tep(override, None)
    x, fault = make_process_dataset()
    path = os.path.join(tmp_dir, "process.csv")
    write_process_file(path, x, fault)
    return load_tep(path, None)


def _run_cell(ds, mode, seed, epochs=None, latent_dim=None):
    prepared = run_pipeline(ds, drop_threshold=0.3, test_fraction=0.2, seed=seed)
    kwargs = {}
    if epochs is not None:
        kwargs["epochs"] = epochs
    if latent_dim is not None:
        kwargs["latent_dim"] = latent_dim
    model = train_pipeline(prepared, TrainConfig(mode=mode, seed=seed, **kwargs),
                           SvmConfig())
    codes = model_codes(model, prepared.test.features)
    rep = compute_metrics(prepared.test.labels, predict_labels(model.svm, codes))
    dprime = (lda_fit(codes, prepared.test.labels).dprime
              if mode != "RawSVM" else None)
    return Cell(accuracy=rep.accuracy, f1=rep.f1, dprime=dprime,
                logs=model.epoch_logs), model


@pytest.fixture(scope="session")
def line_sweep():
    ds = _line_dataset()
    cells = {}
    bundles = {}
    for mode in MODES:
        for seed in LINE_SEEDS:
            cell, model = _run_cell(ds, mode, seed)
            cells[(mode, seed)] = cell
            if mode == "CLAIRE" and seed == 3:
                bundles["claire-3"] = json.dumps(bundle_dict(model), indent=1)
    return {"dataset": ds, "cells": cells, "bundles": bundles}


@pytest.fixture(scope="session")
def process_sweep(tmp_path_factory):
    ds = _process_dataset(str(tmp_path_factory.mktemp("process")))
    cells = {}
    for mode in ("CLAIRE", "PlainAE"):
        for seed in PROCESS_SEEDS:
            cell, _ = _run_cell(ds, mode, seed, epochs=30, latent_dim=32)
            cells[(mode, seed)] = cell
    return cells


def test_gradient_finite_difference_oracle(capsys):
    t0 = time.perf_counter()
    checked = sum(fd_check_one(seed) for seed in range(101, 121))
    elapsed = time.perf_counter() - t0
    ok = checked > 0 and elapsed < 60.0
    _report(capsys, "gradient-finite-difference-oracle", ok,
            f"{checked} parameters over 20 networks in {elapsed:.1f}s")
    assert ok


def test_shapley_exact_oracle(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    worst_add = 0.0
    for d in (3, 5, 8):
        rng = np.random.default_rng(d)
        f = interactive_model(d, seed=d)
        background = rng.uniform(0, 1, size=(5, d))
        x_eval = rng.uniform(0, 1, size=(2, d))
        attr = kernel_shap(f, x_eval, background)
        for i in range(2):
            phi, _ = exact_shapley(f, x_eval[i], background)
            worst = max(worst, float(np.abs(attr.values[i] - phi).max()))
        worst_add = max(worst_add, additivity_gap(attr, f, x_eval))
    agree_ok = worst <= 1e-6
    add_ok = worst_add <= 1e-8

    d = 20
    rng = np.random.default_rng(99)
    f = interactive_model(d, seed=99)
    x_eval = rng.uniform(0, 1, (3, d))
    background = rng.uniform(0, 1, (8, d))
    sampled = kernel_shap(f, x_eval, background, seed=5)
    sampled_ok = additivity_gap(sampled, f, x_eval) <= 1e-4
    elapsed = time.perf_counter() - t0
    ok = agree_ok and add_ok and sampled_ok and elapsed < 120.0
    _report(capsys, "shapley-exact-oracle", ok,
            f"max dev {worst:.2e}, additivity {worst_add:.2e}, {elapsed:.1f}s")
    assert ok


def test_svm_solver_oracles(capsys):
    t0 = time.perf_counter()
    m_default = smo_train(XOR_X, XOR_Y, KernelSpec.rbf(1.0), c=10.0)
    acc_ok = predict_labels(m_default, XOR_X).tolist() == [1, 1, 0, 0]
    kkt_ok = kkt_violation(m_default, XOR_X, XOR_Y) <= 1e-3

    m_tight = smo_train(XOR_X, XOR_Y, KernelSpec.rbf(1.0), c=10.0, tol=1e-5)
    xor_alphas = full_alphas(m_tight, 4)
    grid_xor, _ = grid_qp_duals(oracle_gram(XOR_X, "rbf", 1.0), XOR_Y, 10.0)
    xor_dev = max(float(np.abs(xor_alphas - grid_xor).max()),
                  float(np.abs(xor_alphas - XOR_ALPHA).max()))

    x4 = np.array([[0.0, 0.2], [0.3, -0.1], [1.2, 1.0], [0.9, 1.4]])
    y4 = np.array([-1.0, -1.0, 1.0, 1.0])
    m4 = smo_train(x4, y4, KernelSpec.linear(), c=5.0, tol=1e-5)
    grid4, _ = grid_qp_duals(oracle_gram(x4, "linear"), y4, 5.0)
    lin_dev = float(np.abs(full_alphas(m4, 4) - grid4).max())

    # both problems with their rows given 2, 3, 1 and 2 times: no oracle
    # multiplier is at C, so each row's copies sum to the oracle's multiplier
    rows = np.repeat(np.arange(4), [2, 3, 1, 2])
    copies_dev = 0.0
    for x, y, spec, c, want in ((XOR_X, XOR_Y, KernelSpec.rbf(1.0), 10.0, grid_xor),
                                (x4, y4, KernelSpec.linear(), 5.0, grid4)):
        m = smo_train(x[rows], y[rows], spec, c=c, tol=1e-5)
        summed = np.bincount(rows, weights=full_alphas(m, rows.size), minlength=4)
        copies_dev = max(copies_dev, float(np.abs(summed - want).max()))

    elapsed = time.perf_counter() - t0
    duals_ok = xor_dev <= 1e-4 and lin_dev <= 1e-4 and copies_dev <= 1e-4
    ok = acc_ok and kkt_ok and duals_ok and elapsed < 60.0
    _report(capsys, "svm-solver-oracles", ok,
            f"xor dual dev {xor_dev:.2e}, linear dev {lin_dev:.2e}, "
            f"copies dev {copies_dev:.2e}, {elapsed:.1f}s")
    assert ok


def test_loss_convergence(capsys, line_sweep):
    details = []
    ok = True
    for seed in LINE_SEEDS:
        logs = line_sweep["cells"][("CLAIRE", seed)].logs
        head = statistics.median(l.total for l in logs if 1 <= l.epoch <= 5)
        tail = statistics.median(l.total for l in logs if 36 <= l.epoch <= 40)
        finite = all(math.isfinite(v) for l in logs
                     for v in (l.recon, l.latent, l.clf, l.ent, l.total))
        if not (tail < head and finite):
            ok = False
        details.append(f"seed {seed}: {tail / head:.3f}")
    _report(capsys, "loss-convergence", ok, "tail/head " + ", ".join(details))
    assert ok


def test_mode_comparison_directional(capsys, line_sweep):
    cells = line_sweep["cells"]

    def mean(metric, mode):
        return statistics.mean(getattr(cells[(mode, s)], metric) for s in LINE_SEEDS)

    acc = {mode: mean("accuracy", mode) for mode in MODES}
    f1 = {mode: mean("f1", mode) for mode in MODES}
    ok = (acc["CLAIRE"] > acc["PlainAE"] and acc["CLAIRE"] > acc["RawSVM"]
          and f1["CLAIRE"] > f1["PlainAE"] and f1["CLAIRE"] > f1["RawSVM"]
          and acc["CLAIRE"] - acc["PlainAE"] >= 0.03
          and acc["CLAIRE"] - acc["RawSVM"] >= 0.03)
    detail = (f"acc {acc['CLAIRE']:.3f}/{acc['PlainAE']:.3f}/{acc['RawSVM']:.3f}, "
              f"f1 {f1['CLAIRE']:.3f}/{f1['PlainAE']:.3f}/{f1['RawSVM']:.3f}")
    _report(capsys, "mode-comparison-directional", ok, detail)
    assert ok, detail


def test_latent_separability_gain(capsys, line_sweep, process_sweep):
    line_pairs = [(line_sweep["cells"][("CLAIRE", s)].dprime,
                   line_sweep["cells"][("PlainAE", s)].dprime) for s in LINE_SEEDS]
    proc_pairs = [(process_sweep[("CLAIRE", s)].dprime,
                   process_sweep[("PlainAE", s)].dprime) for s in PROCESS_SEEDS]
    ok = all(c > p for c, p in line_pairs) and all(c > p for c, p in proc_pairs)
    detail = ("line " + ", ".join(f"{c:.2f}>{p:.2f}" for c, p in line_pairs)
              + "; process " + ", ".join(f"{c:.2f}>{p:.2f}" for c, p in proc_pairs))
    _report(capsys, "latent-separability-gain", ok, detail)
    assert ok, detail


def test_dprime_unit_calibration(capsys):
    rng = np.random.default_rng(55)
    n = 2000
    z = np.concatenate([rng.normal(0.0, 1.0, n), rng.normal(2.0, 1.0, n)])[:, None]
    labels = np.concatenate([np.zeros(n, int), np.ones(n, int)])
    dprime = lda_fit(z, labels).dprime
    ok = abs(dprime - 2.0) <= 0.15
    _report(capsys, "dprime-unit-calibration", ok, f"dprime {dprime:.3f}")
    assert ok


def test_determinism_byte_identical(capsys, line_sweep):
    _, model = _run_cell(line_sweep["dataset"], "CLAIRE", 3)
    rerun = json.dumps(bundle_dict(model), indent=1)
    ok = rerun == line_sweep["bundles"]["claire-3"]
    _report(capsys, "determinism-byte-identical", ok,
            f"{len(rerun)} bundle bytes compared")
    assert ok


def test_preprocessing_invariants(capsys, line_sweep):
    ds = line_sweep["dataset"]
    prepared = run_pipeline(ds, drop_threshold=0.3, test_fraction=0.2, seed=1)
    problems = []

    for name, split in (("train", prepared.train), ("test", prepared.test)):
        if np.isnan(split.features).any():
            problems.append(f"{name} split contains NaN")
        if split.features.min() < 0.0 or split.features.max() > 1.0:
            problems.append(f"{name} split leaves [0, 1]")
    counts = prepared.train.class_counts()
    if counts["failure"] != counts["success"]:
        problems.append(f"train split unbalanced: {counts}")
    if prepared.train.provenance != "train" or prepared.test.provenance != "test":
        problems.append("split provenance tags wrong")

    state = prepared.preprocessing
    dropped = {name for name, _ in state.report.dropped_columns}
    if set(state.kept_names) & dropped:
        problems.append("dropped columns leaked into kept names")
    if set(state.kept_names) | dropped != set(state.original_names):
        problems.append("kept + dropped does not cover the original columns")
    if sorted(state.medians) != sorted(state.kept_names):
        problems.append("imputation medians not keyed by the kept columns")
    if state.scaler.col_min.shape[0] != len(state.kept_names):
        problems.append("scaler width mismatch")

    n_test = prepared.test.n_rows
    expect = ds.n_rows * 0.2
    if abs(n_test - expect) > 1.0:
        problems.append(f"test rows {n_test} far from fraction ({expect:.1f})")

    ok = not problems
    _report(capsys, "preprocessing-invariants", ok,
            "; ".join(problems) if problems else
            f"{len(state.kept_names)} kept, {len(dropped)} dropped, "
            f"{counts['failure']}+{counts['success']} balanced train rows")
    assert ok, problems
