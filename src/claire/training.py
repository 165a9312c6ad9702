"""Two-phase training orchestration and the end-to-end predictor.

Phase 1 trains the denoising autoencoder jointly with its classifier head
on the preprocessed (oversampled, scaled) training split. Phase 2 freezes
the network, extracts inference-mode latent codes for the same split, and
trains a kernel SVM on them.

Modes:
  CLAIRE  - full objective with corruption.
  PlainAE - pure reconstruction: every auxiliary weight and the corruption
            level forced to zero.
  RawSVM  - phase 1 skipped entirely; the SVM trains on the scaled raw
            features.

Every loss term and the weighted total are checked each step; a non-finite
value or one above 1e6 in magnitude aborts with a divergence error naming
the epoch, batch and term.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import PreparedData, Preprocessing, TabularDataset, apply_saved_preprocessing
from .errors import DegenerateDataError, DivergenceError, InputError
from .network import (AdamState, LossWeights, NetworkParams, adam_step, backward,
                      batch_losses, build_network, corrupt, encode, parameter_vector,
                      total_loss, training_forward)
from .numerics import RngStream, substream_seed
from .svm import KernelSpec, SvmModel, predict_labels, smo_train

MODES = ("CLAIRE", "PlainAE", "RawSVM")
LOSS_GUARD = 1e6
LOSS_TERMS = ("recon", "latent", "clf", "ent", "total")     # EpochLog's loss fields


@dataclass
class TrainConfig:
    """Phase-1 hyperparameters. PlainAE mode zeroes the auxiliary terms."""
    mode: str = "CLAIRE"
    epochs: int = 40
    batch_size: int = 64
    learning_rate: float = 1e-3
    latent_dim: int = 64
    hidden_widths: list[int] = field(default_factory=lambda: [128, 64])
    weights: LossWeights = field(default_factory=LossWeights)
    corruption_std: float = 0.1
    dropout_keep: float = 0.7
    bn_momentum: float = 0.9
    bn_epsilon: float = 1e-5
    seed: int = 42

    def __post_init__(self):
        if self.mode not in MODES:
            raise InputError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.epochs < 1 or self.batch_size < 2:
            raise InputError("epochs must be >= 1 and batch_size >= 2")
        if self.mode == "PlainAE":
            self.weights = LossWeights(latent_weight=0.0, classifier_weight=0.0,
                                       entropy_weight=0.0)
            self.corruption_std = 0.0


@dataclass(frozen=True)
class EpochLog:
    """Per-epoch mean losses: the four unweighted terms plus the weighted total."""
    epoch: int
    recon: float
    latent: float
    clf: float
    ent: float
    total: float


@dataclass
class SvmConfig:
    kernel: KernelSpec = field(default_factory=KernelSpec.rbf)
    c: float = 1.0
    tol: float = 1e-3
    max_passes: int = 100


@dataclass
class LatentDataset:
    codes: np.ndarray
    labels: np.ndarray


def _check_trainable(ds: TabularDataset):
    if ds.provenance == "test":
        raise InputError("refusing to train on test-tagged rows")
    if ds.n_rows < 2:
        raise DegenerateDataError(f"training needs at least 2 rows, got {ds.n_rows}")


def train_phase1(train: TabularDataset,
                 cfg: TrainConfig) -> tuple[NetworkParams, list[EpochLog]]:
    """Train the autoencoder and classifier head; returns the fitted
    parameters and one loss log entry per epoch.
    """
    if cfg.mode == "RawSVM":
        raise InputError("RawSVM mode has no autoencoder phase")
    _check_trainable(train)
    params = build_network(train.n_features, list(cfg.hidden_widths), cfg.latent_dim,
                           RngStream(substream_seed(cfg.seed, "init")),
                           dropout_keep=cfg.dropout_keep,
                           bn_momentum=cfg.bn_momentum, bn_epsilon=cfg.bn_epsilon)
    theta = parameter_vector(params)
    adam = AdamState(learning_rate=cfg.learning_rate)
    shuffle_rng = RngStream(substream_seed(cfg.seed, "shuffle"))
    dropout_rng = RngStream(substream_seed(cfg.seed, "dropout"))
    corruption_rng = RngStream(substream_seed(cfg.seed, "corruption"))

    x_all = train.features
    y_all = train.labels.astype(np.float64)
    n = x_all.shape[0]
    logs: list[EpochLog] = []
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        sums = np.zeros(5)      # the four terms in EpochLog order, then the total
        rows_seen = 0
        for batch_no, start in enumerate(range(0, n, cfg.batch_size), start=1):
            idx = order[start:start + cfg.batch_size]
            if idx.size < 2:
                break   # a 1-row tail cannot support batch statistics
            x = x_all[idx]
            y = y_all[idx]
            x_tilde = corrupt(x, cfg.corruption_std, corruption_rng)
            fwd = training_forward(params, x_tilde, dropout_rng)
            comps = batch_losses(fwd, x, y)
            losses = (*comps, total_loss(comps, cfg.weights))
            for term, value in zip(LOSS_TERMS, losses):
                if not abs(value) <= LOSS_GUARD:       # also true for nan
                    raise DivergenceError(
                        f"training diverged at epoch {epoch}, batch {batch_no}: "
                        f"loss term {term!r} = {value:.6g} is non-finite or exceeds "
                        f"{LOSS_GUARD:g}", epoch=epoch, batch=batch_no, term=term)
            adam_step(adam, theta, backward(params, fwd, x, y, cfg.weights))
            sums += np.array(losses) * idx.size
            rows_seen += idx.size
        if rows_seen == 0:
            raise DegenerateDataError("no batch had the 2 rows training requires")
        logs.append(EpochLog(epoch, *(sums / rows_seen).tolist()))
    return params, logs


def extract_latent(params: NetworkParams, ds: TabularDataset) -> LatentDataset:
    """Inference-mode latent codes for a dataset; dropout scaled, batch norm
    on running statistics, so single rows match batched rows exactly.
    """
    return LatentDataset(codes=encode(params, ds.features), labels=ds.labels.copy())


def train_phase2(latents: LatentDataset, cfg: SvmConfig) -> SvmModel:
    """Kernel SVM on frozen codes. Labels 0/1 map to -1/+1."""
    y = 2.0 * latents.labels.astype(np.float64) - 1.0
    return smo_train(latents.codes, y, cfg.kernel, c=cfg.c, tol=cfg.tol,
                     max_passes=cfg.max_passes)


@dataclass
class TrainedModel:
    """Everything needed to classify raw feature rows end to end."""
    mode: str
    seed: int
    network: NetworkParams | None
    svm: SvmModel
    train_config: TrainConfig | None
    preprocessing: Preprocessing
    epoch_logs: list[EpochLog] = field(default_factory=list)
    # what the CLI records next to a bundle so later commands can replay the
    # split: the dataset spec and the preprocessing knobs
    dataset: dict | None = None
    preprocess: dict | None = None


def train_pipeline(prepared: PreparedData, train_cfg: TrainConfig,
                   svm_cfg: SvmConfig) -> TrainedModel:
    """Run whichever phases the mode requires on preprocessed splits."""
    _check_trainable(prepared.train)
    if train_cfg.mode == "RawSVM":
        params: NetworkParams | None = None
        logs: list[EpochLog] = []
        latents = LatentDataset(codes=prepared.train.features.copy(),
                                labels=prepared.train.labels.copy())
    else:
        params, logs = train_phase1(prepared.train, train_cfg)
        latents = extract_latent(params, prepared.train)
    svm_model = train_phase2(latents, svm_cfg)
    return TrainedModel(mode=train_cfg.mode, seed=train_cfg.seed, network=params,
                        svm=svm_model, train_config=train_cfg,
                        preprocessing=prepared.preprocessing, epoch_logs=logs)


def model_codes(model: TrainedModel, scaled_features: np.ndarray) -> np.ndarray:
    """The space the SVM sees: latent codes, or scaled features for RawSVM."""
    if model.network is None:
        return np.asarray(scaled_features, dtype=np.float64)
    return encode(model.network, scaled_features)


def predict(model: TrainedModel, features_raw: np.ndarray) -> np.ndarray:
    """Classify raw rows: saved preprocessing, encoder (unless RawSVM),
    kernel decision. Decision value 0 resolves to +1, i.e. label 1.
    """
    scaled = apply_saved_preprocessing(features_raw, model.preprocessing)
    return predict_labels(model.svm, model_codes(model, scaled))
