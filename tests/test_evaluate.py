"""Metrics and the discriminant separability analysis."""
import numpy as np
import pytest

from claire.errors import DegenerateDataError, InputError, ShapeError
from claire.evaluate import (LdaProjection, compute_metrics, lda_fit,
                             project_export)


def test_metrics_hand_case():
    # tp=4 fp=1 tn=3 fn=2 out of 10
    y_true = [1, 1, 1, 1, 1, 1, 0, 0, 0, 0]
    y_pred = [1, 1, 1, 1, 0, 0, 1, 0, 0, 0]
    rep = compute_metrics(y_true, y_pred)
    assert rep.tp == 4 and rep.fp == 1 and rep.tn == 3 and rep.fn == 2
    assert rep.accuracy == pytest.approx(0.7)
    # class 1: p=4/5, r=4/6 -> f1 = 8/11; class 0: p=3/5, r=3/4 -> f1 = 2/3
    assert rep.f1_class1 == pytest.approx(8 / 11)
    assert rep.f1_class0 == pytest.approx(2 / 3)
    assert rep.f1 == pytest.approx((8 / 11 + 2 / 3) / 2)
    d = rep.to_json_dict()
    assert d["f1_macro"] == rep.f1
    assert d["confusion"] == {"tp": 4, "fp": 1, "tn": 3, "fn": 2}


def test_metrics_zero_denominators_score_zero():
    rep = compute_metrics([0, 0, 0], [0, 0, 0])     # no positives anywhere
    assert rep.f1_class1 == 0.0
    assert rep.f1_class0 == pytest.approx(1.0)
    assert rep.accuracy == 1.0
    rep = compute_metrics([1, 1], [0, 0])           # everything missed
    assert rep.f1 == 0.0 and rep.accuracy == 0.0


def test_metrics_validation():
    with pytest.raises(ShapeError):
        compute_metrics([1, 0], [1])
    with pytest.raises(DegenerateDataError):
        compute_metrics([], [])
    with pytest.raises(InputError, match="0 or 1"):
        compute_metrics([1, 2], [1, 0])


def test_dprime_recovers_known_separation():
    # two 1-D Gaussians 2 sigma apart, by definition dprime = 2
    rng = np.random.default_rng(55)
    n = 2000
    z = np.concatenate([rng.normal(0.0, 1.0, n), rng.normal(2.0, 1.0, n)])[:, None]
    labels = np.concatenate([np.zeros(n, int), np.ones(n, int)])
    proj = lda_fit(z, labels)
    assert proj.dprime == pytest.approx(2.0, abs=0.15)
    assert proj.threshold == pytest.approx((proj.mean0 + proj.mean1) / 2)


def test_dprime_identical_clouds_near_zero():
    rng = np.random.default_rng(7)
    z = rng.normal(0.0, 1.0, (4000, 3))
    labels = np.repeat([0, 1], 2000)
    assert lda_fit(z, labels).dprime < 0.1


def test_lda_direction_and_sign_convention():
    # well separated clouds along one axis; the discriminant must find it
    rng = np.random.default_rng(11)
    z0 = rng.normal(0.0, 0.1, (200, 4))
    z1 = rng.normal(0.0, 0.1, (200, 4))
    z1[:, 2] += 5.0
    z = np.vstack([z0, z1])
    labels = np.repeat([0, 1], 200)
    proj = lda_fit(z, labels)
    assert np.linalg.norm(proj.direction) == pytest.approx(1.0)
    assert abs(proj.direction[2]) > 0.99
    assert proj.mean1 > proj.mean0                   # class 1 on the high side
    # flipping the informative axis must flip the direction, not the means
    z_flipped = z.copy()
    z_flipped[:, 2] *= -1
    proj2 = lda_fit(z_flipped, labels)
    assert proj2.mean1 > proj2.mean0
    assert proj2.direction[2] < 0


def test_lda_identical_means_degenerate_direction():
    # both class means at the origin: no direction separates anything
    z = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    labels = np.array([0, 0, 1, 1])
    proj = lda_fit(z, labels)
    assert proj.dprime == pytest.approx(0.0, abs=1e-6)
    assert np.linalg.norm(proj.direction) == pytest.approx(1.0)


def test_lda_validation():
    z = np.zeros((3, 2))
    with pytest.raises(ShapeError):
        lda_fit(z, np.array([0, 1]))
    with pytest.raises(DegenerateDataError, match=">= 2 rows per class"):
        lda_fit(z, np.array([0, 1, 1]))


def test_lda_rejects_rank_deficient_scatter():
    # the pooled within-class scatter has rank at most n0 + n1 - 2
    rng = np.random.default_rng(8)
    z = rng.normal(size=(10, 9))
    labels = np.repeat([0, 1], 5)
    with pytest.raises(DegenerateDataError, match="10 rows in 9 dimensions"):
        lda_fit(z, labels)
    assert np.isfinite(lda_fit(z[:, :8], labels).dprime)   # rank 8 = dimension


def test_project_export_rows_and_summary():
    rng = np.random.default_rng(3)
    z = np.vstack([rng.normal(0, 0.2, (50, 2)), rng.normal(1.5, 0.2, (50, 2))])
    labels = np.repeat([0, 1], 50)
    proj = lda_fit(z, labels)
    out = project_export(proj, z, labels)
    assert len(out["rows"]) == 100
    values = np.array([v for v, _ in out["rows"]])
    assert np.allclose(values, z @ proj.direction)
    assert out["rows"][0][1] == 0 and out["rows"][99][1] == 1
    assert out["summary"]["dprime"] == proj.dprime
    with pytest.raises(ShapeError, match="fitted on"):
        project_export(proj, np.zeros((5, 3)), np.zeros(5, int))
