"""Orchestration of the two training phases on small separable data."""
from dataclasses import fields

import numpy as np
import pytest

from claire.data import TabularDataset, run_pipeline
from claire.errors import DegenerateDataError, DivergenceError, InputError
from claire.evaluate import compute_metrics, lda_fit
from claire.network import LossComponents, LossWeights
from claire.numerics import RngStream, substream_seed
from claire.svm import KernelSpec, predict_labels
from claire.training import (LOSS_TERMS, EpochLog, SvmConfig, TrainConfig, extract_latent,
                             model_codes, predict, train_phase1, train_phase2,
                             train_pipeline)
from conftest import named_parameters

SMALL = dict(epochs=15, batch_size=32, latent_dim=4, hidden_widths=[16, 8], seed=7)


def test_claire_smoke_learns_the_clouds(two_cloud_dataset):
    cfg = TrainConfig(mode="CLAIRE", **SMALL)
    params, logs = train_phase1(two_cloud_dataset, cfg)
    assert [log.epoch for log in logs] == list(range(1, 16))
    for log in logs:
        for term in (log.recon, log.latent, log.clf, log.ent, log.total):
            assert np.isfinite(term)
    assert logs[-1].recon < 0.6 * logs[0].recon
    assert logs[-1].total < logs[0].total

    latents = extract_latent(params, two_cloud_dataset)
    svm = train_phase2(latents, SvmConfig(kernel=KernelSpec.rbf()))
    rep = compute_metrics(two_cloud_dataset.labels, predict_labels(svm, latents.codes))
    assert rep.accuracy == 1.0
    assert lda_fit(latents.codes, two_cloud_dataset.labels).dprime > 3.0


def test_phase1_is_deterministic(two_cloud_dataset):
    cfg = TrainConfig(mode="CLAIRE", **SMALL)
    params1, logs1 = train_phase1(two_cloud_dataset, cfg)
    params2, logs2 = train_phase1(two_cloud_dataset, cfg)
    assert logs1 == logs2
    for (n1, p1), (n2, p2) in zip(named_parameters(params1), named_parameters(params2)):
        assert n1 == n2
        assert np.array_equal(p1, p2)


def test_single_oversized_batch(two_cloud_dataset):
    cfg = TrainConfig(mode="CLAIRE", epochs=1, batch_size=500, latent_dim=4,
                      hidden_widths=[8], seed=7)
    _, logs = train_phase1(two_cloud_dataset, cfg)
    assert len(logs) == 1 and logs[0].epoch == 1


def test_one_row_tail_batch_is_skipped():
    rng = np.random.default_rng(5)
    ds = TabularDataset(rng.uniform(0.2, 0.8, (33, 4)),
                        rng.integers(0, 2, 33).astype(np.int64),
                        [f"f{j}" for j in range(4)])
    cfg = TrainConfig(mode="CLAIRE", epochs=2, batch_size=32, latent_dim=2,
                      hidden_widths=[4], seed=1)
    _, logs = train_phase1(ds, cfg)                  # 33 = 32 + an unusable 1-row tail
    assert len(logs) == 2


def test_plain_ae_mode_forces_pure_reconstruction(two_cloud_dataset):
    cfg = TrainConfig(mode="PlainAE", weights=LossWeights(0.5, 2.0, 0.3),
                      corruption_std=0.2, **SMALL)
    assert cfg.weights == LossWeights(0.0, 0.0, 0.0)
    assert cfg.corruption_std == 0.0
    _, logs = train_phase1(two_cloud_dataset, cfg)
    for log in logs:
        assert log.total == pytest.approx(log.recon, abs=1e-12)
        assert log.clf > 0.0                         # unweighted terms still logged


def test_config_validation():
    with pytest.raises(InputError, match="mode"):
        TrainConfig(mode="hybrid")
    with pytest.raises(InputError, match="epochs"):
        TrainConfig(epochs=0)
    with pytest.raises(InputError):
        TrainConfig(batch_size=1)


def test_phase1_rejects_rawsvm_and_test_rows(two_cloud_dataset):
    with pytest.raises(InputError, match="no autoencoder phase"):
        train_phase1(two_cloud_dataset, TrainConfig(mode="RawSVM", **SMALL))
    tagged = TabularDataset(two_cloud_dataset.features, two_cloud_dataset.labels,
                            two_cloud_dataset.feature_names, provenance="test")
    with pytest.raises(InputError, match="test-tagged"):
        train_phase1(tagged, TrainConfig(mode="CLAIRE", **SMALL))
    tiny = TabularDataset(np.full((1, 2), 0.5), np.array([1]), ["a", "b"])
    with pytest.raises(DegenerateDataError, match="at least 2 rows"):
        train_phase1(tiny, TrainConfig(mode="CLAIRE", latent_dim=2,
                                       hidden_widths=[2], seed=0))


def test_divergence_error_names_the_blowup(two_cloud_dataset):
    cfg = TrainConfig(mode="CLAIRE", epochs=3, batch_size=32, latent_dim=4,
                      hidden_widths=[16, 8], seed=7, learning_rate=1000.0)
    with pytest.raises(DivergenceError, match="diverged at epoch") as exc_info:
        train_phase1(two_cloud_dataset, cfg)
    err = exc_info.value
    assert err.epoch == 1
    assert err.batch >= 1
    assert err.term in ("recon", "latent", "clf", "ent")


def test_divergence_from_a_nan_feature_names_its_term(two_cloud_dataset):
    features = two_cloud_dataset.features.copy()
    features[0, 0] = np.nan
    table = TabularDataset(features, two_cloud_dataset.labels,
                           two_cloud_dataset.feature_names)
    cfg = TrainConfig(mode="CLAIRE", **SMALL)
    with pytest.raises(DivergenceError, match="loss term 'recon' = nan") as exc_info:
        train_phase1(table, cfg)
    # row 0 poisons the batch norm statistics of its batch, so the first
    # guarded value of that batch, the reconstruction term, is nan
    order = RngStream(substream_seed(cfg.seed, "shuffle")).permutation(table.n_rows)
    want_batch = int(np.flatnonzero(order == 0)[0]) // cfg.batch_size + 1
    err = exc_info.value
    assert (err.epoch, err.batch, err.term) == (1, want_batch, "recon")


def test_guarded_losses_are_the_epoch_log_fields():
    assert LOSS_TERMS == tuple(f.name for f in fields(EpochLog))[1:]
    assert LOSS_TERMS[:-1] == LossComponents._fields


def test_extract_latent_copies_labels(two_cloud_dataset):
    cfg = TrainConfig(mode="CLAIRE", epochs=1, batch_size=64, latent_dim=3,
                      hidden_widths=[8], seed=2)
    params, _ = train_phase1(two_cloud_dataset, cfg)
    latents = extract_latent(params, two_cloud_dataset)
    latents.labels[0] = 1 - latents.labels[0]
    assert latents.labels[0] != two_cloud_dataset.labels[0]


def test_phase2_determinism(two_cloud_dataset):
    cfg = TrainConfig(mode="CLAIRE", epochs=3, batch_size=32, latent_dim=3,
                      hidden_widths=[8], seed=3)
    params, _ = train_phase1(two_cloud_dataset, cfg)
    latents = extract_latent(params, two_cloud_dataset)
    m1 = train_phase2(latents, SvmConfig())
    m2 = train_phase2(latents, SvmConfig())
    assert np.array_equal(m1.dual_coef, m2.dual_coef)
    assert m1.bias == m2.bias


def _raw_cloud_frame(seed=31, n=60):
    """Raw-feature version of the cloud problem with preprocessing hazards:
    a constant column and a mostly-missing one."""
    rng = np.random.default_rng(seed)
    x0 = rng.normal(0.3, 0.05, (n, 5))
    x1 = rng.normal(0.7, 0.05, (n, 5))
    x = np.vstack([x0, x1])
    x[:, 2] = 4.2                                    # constant, kept and midpointed
    hole = rng.uniform(size=2 * n) < 0.6
    x[hole, 4] = np.nan                              # 60% missing, dropped
    x[rng.uniform(size=2 * n) < 0.05, 1] = np.nan    # light damage, imputed
    labels = np.array([0] * n + [1] * n, dtype=np.int64)
    return TabularDataset(x, labels, [f"v{j}" for j in range(5)])


@pytest.mark.parametrize("mode", ["CLAIRE", "RawSVM"])
def test_end_to_end_pipeline_and_predict(mode):
    ds = _raw_cloud_frame()
    prepared = run_pipeline(ds, drop_threshold=0.3, test_fraction=0.25, seed=11)
    cfg = TrainConfig(mode=mode, epochs=10, batch_size=16, latent_dim=3,
                      hidden_widths=[8], seed=11)
    model = train_pipeline(prepared, cfg, SvmConfig(kernel=KernelSpec.rbf()))
    assert model.mode == mode
    assert model.preprocessing.kept_names == ["v0", "v1", "v2", "v3"]
    assert model.preprocessing.original_names == [f"v{j}" for j in range(5)]
    if mode == "RawSVM":
        assert model.network is None
        assert model.epoch_logs == []
    else:
        assert model.network is not None
        assert len(model.epoch_logs) == 10

    raw_probe = np.array([[0.72, 0.68, 4.2, 0.71, 0.3],
                          [0.28, np.nan, 4.2, 0.33, 0.9]])
    got = predict(model, raw_probe)
    assert got.tolist() == [1, 0]

    scaled = prepared.test.features
    codes = model_codes(model, scaled)
    if mode == "RawSVM":
        assert np.array_equal(codes, scaled)
    else:
        assert codes.shape == (scaled.shape[0], 3)
    rep = compute_metrics(prepared.test.labels, predict_labels(model.svm, codes))
    assert rep.accuracy == 1.0


def test_train_pipeline_refuses_swapped_splits():
    ds = _raw_cloud_frame()
    prepared = run_pipeline(ds, drop_threshold=0.3, test_fraction=0.25, seed=11)
    swapped = type(prepared)(train=prepared.test, test=prepared.train,
                             preprocessing=prepared.preprocessing)
    cfg = TrainConfig(mode="RawSVM", epochs=1, latent_dim=2, hidden_widths=[4], seed=0)
    with pytest.raises(InputError, match="test-tagged"):
        train_pipeline(swapped, cfg, SvmConfig())
