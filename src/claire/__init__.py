"""Fault detection for wide tabular data.

Two-phase pipeline: a denoising autoencoder with a latent-variance
penalty and a small classifier head learns a compact representation,
then a kernel SVM is trained on the frozen latent codes. Shapley-value
attributions explain the encoder; a Fisher discriminant projection
quantifies class separability in the latent space.
"""
from .data import (PreparedData, Preprocessing, PreprocessReport, ScalerState, TabularDataset,
                   apply_saved_preprocessing, fit_scaler, handle_missing,
                   load_labeled_csv, load_secom, load_tep, oversample_minority,
                   run_pipeline, stratified_split)
from .errors import (ClaireError, ConditioningError, DegenerateDataError,
                     DivergenceError, InputError, InterfaceError, NumericError,
                     ShapeError, StateError)
from .evaluate import LdaProjection, MetricsReport, compute_metrics, lda_fit, project_export
from .explain import (AttributionTensor, class_conditional_importance, dependence_export,
                      explain_encoder, global_importance, kernel_shap)
from .model_io import load_bundle, save_bundle
from .network import LossWeights, NetworkParams, build_network, encode
from .numerics import RngStream, substream_seed
from .svm import KernelSpec, SvmModel, decision_function, predict_labels, smo_train
from .training import (EpochLog, SvmConfig, TrainConfig, TrainedModel, extract_latent,
                       model_codes, predict, train_phase1, train_phase2, train_pipeline)

__version__ = "0.1.0"

__all__ = [
    "AttributionTensor", "ClaireError", "ConditioningError", "DegenerateDataError",
    "DivergenceError", "EpochLog", "InputError", "InterfaceError", "KernelSpec",
    "LdaProjection", "LossWeights", "MetricsReport", "NetworkParams", "NumericError",
    "PreparedData", "Preprocessing", "PreprocessReport", "RngStream", "ScalerState", "ShapeError",
    "StateError", "SvmConfig", "SvmModel", "TabularDataset", "TrainConfig",
    "TrainedModel", "apply_saved_preprocessing", "build_network",
    "class_conditional_importance", "compute_metrics", "decision_function",
    "dependence_export", "encode", "explain_encoder", "extract_latent", "fit_scaler",
    "global_importance", "handle_missing", "kernel_shap", "lda_fit", "load_bundle",
    "load_labeled_csv", "load_secom", "load_tep", "model_codes", "oversample_minority",
    "predict", "predict_labels", "project_export", "run_pipeline",
    "save_bundle", "smo_train", "stratified_split", "substream_seed", "train_phase1",
    "train_phase2", "train_pipeline",
]
