"""Model bundle serialization: one self-contained JSON document.

Format version "claire-model/1". Floats are serialized with Python's
shortest round-trip repr, so save -> load reproduces parameters bit for
bit and loaded models give identical outputs.
"""
from __future__ import annotations

import json

import numpy as np

from .data import PreprocessReport, ScalerState
from .errors import InputError
from .network import (Activation, BatchNormState, DenseLayer, DropoutState,
                      LossWeights, NetworkParams)
from .svm import KernelSpec, SvmModel
from .training import EpochLog, TrainConfig, TrainedModel

MODEL_FORMAT = "claire-model/1"


def _array(a: np.ndarray) -> list:
    return np.asarray(a, dtype=np.float64).tolist()


def _layer_dict(layer: DenseLayer) -> dict:
    doc = {
        "weights": _array(layer.weights),
        "bias": _array(layer.bias),
        "activation": {"kind": layer.activation.kind, "slope": layer.activation.slope},
        "batch_norm": None,
        "dropout_keep": layer.dropout.keep if layer.dropout is not None else None,
    }
    if layer.batch_norm is not None:
        bn = layer.batch_norm
        doc["batch_norm"] = {
            "gamma": _array(bn.gamma), "beta": _array(bn.beta),
            "running_mean": _array(bn.running_mean), "running_var": _array(bn.running_var),
            "momentum": bn.momentum, "epsilon": bn.epsilon,
        }
    return doc


def _per_row(values, rows: int, key: str) -> np.ndarray:
    """A layer's vector with one float per weight row, or ValueError."""
    vector = np.array(values, dtype=np.float64)
    if vector.shape != (rows,):
        raise ValueError(f"{vector.size} {key} values for {rows} weight rows")
    return vector


def _layer_from(doc: dict) -> DenseLayer:
    weights = np.array(doc["weights"], dtype=np.float64)
    rows = len(weights)
    bn = None
    if doc["batch_norm"] is not None:
        b = doc["batch_norm"]
        bn = BatchNormState(*(_per_row(b[key], rows, key)
                              for key in ("gamma", "beta", "running_mean", "running_var")),
                            momentum=float(b["momentum"]), epsilon=float(b["epsilon"]))
    keep = doc["dropout_keep"]
    drop = DropoutState(float(keep)) if keep is not None else None
    act = Activation(doc["activation"]["kind"], float(doc["activation"]["slope"]))
    return DenseLayer(weights=weights, bias=_per_row(doc["bias"], rows, "bias"),
                      activation=act, batch_norm=bn, dropout=drop)


def _network_dict(params: NetworkParams) -> dict:
    return {
        "input_dim": params.input_dim,
        "latent_dim": params.latent_dim,
        "encoder": [_layer_dict(l) for l in params.encoder],
        "decoder": [_layer_dict(l) for l in params.decoder],
        "classifier": _layer_dict(params.classifier),
    }


def _network_from(doc: dict) -> NetworkParams:
    return NetworkParams(encoder=[_layer_from(l) for l in doc["encoder"]],
                         decoder=[_layer_from(l) for l in doc["decoder"]],
                         classifier=_layer_from(doc["classifier"]),
                         input_dim=doc["input_dim"], latent_dim=doc["latent_dim"])


def _svm_dict(model: SvmModel) -> dict:
    return {
        "kernel": {"kind": model.kernel.kind, "gamma": model.kernel.gamma,
                   "degree": model.kernel.degree, "coef0": model.kernel.coef0},
        "c": model.c,
        "support_vectors": _array(model.support_vectors),
        "dual_coef": _array(model.dual_coef),
        "support_indices": [int(i) for i in model.support_indices],
        "bias": model.bias,
        "converged": model.converged,
        "n_sweeps": model.n_sweeps,
    }


def _svm_from(doc: dict) -> SvmModel:
    k = doc["kernel"]
    if k["gamma"] is None and k["kind"] in ("rbf", "sigmoid"):
        raise ValueError(f"a trained {k['kind']} kernel needs a gamma")
    support_vectors = np.array(doc["support_vectors"], dtype=np.float64)
    dual_coef = np.array(doc["dual_coef"], dtype=np.float64)
    if dual_coef.shape != (len(support_vectors),):
        raise ValueError(f"{dual_coef.size} dual coefficients for "
                         f"{len(support_vectors)} support vectors")
    gamma = float(k["gamma"]) if k["gamma"] is not None else None
    return SvmModel(kernel=KernelSpec(k["kind"], gamma=gamma, degree=k["degree"],
                                      coef0=float(k["coef0"])),
                    c=float(doc["c"]), support_vectors=support_vectors, dual_coef=dual_coef,
                    support_indices=np.array(doc["support_indices"], dtype=np.int64),
                    bias=float(doc["bias"]), converged=doc["converged"],
                    n_sweeps=doc["n_sweeps"])


def _train_config_dict(cfg: TrainConfig | None) -> dict | None:
    if cfg is None:
        return None
    return {
        "mode": cfg.mode, "epochs": cfg.epochs, "batch_size": cfg.batch_size,
        "learning_rate": cfg.learning_rate, "latent_dim": cfg.latent_dim,
        "hidden_widths": list(cfg.hidden_widths),
        "loss_weights": {"latent_weight": cfg.weights.latent_weight,
                         "classifier_weight": cfg.weights.classifier_weight,
                         "entropy_weight": cfg.weights.entropy_weight},
        "corruption_std": cfg.corruption_std, "dropout_keep": cfg.dropout_keep,
        "bn_momentum": cfg.bn_momentum, "bn_epsilon": cfg.bn_epsilon,
        "seed": cfg.seed,
    }


def _train_config_from(doc: dict | None) -> TrainConfig | None:
    if doc is None:
        return None
    lw = doc["loss_weights"]
    return TrainConfig(mode=doc["mode"], epochs=doc["epochs"], batch_size=doc["batch_size"],
                       learning_rate=doc["learning_rate"], latent_dim=doc["latent_dim"],
                       hidden_widths=list(doc["hidden_widths"]),
                       weights=LossWeights(latent_weight=lw["latent_weight"],
                                           classifier_weight=lw["classifier_weight"],
                                           entropy_weight=lw["entropy_weight"]),
                       corruption_std=doc["corruption_std"],
                       dropout_keep=doc["dropout_keep"], bn_momentum=doc["bn_momentum"],
                       bn_epsilon=doc["bn_epsilon"], seed=doc["seed"])


def bundle_dict(model: TrainedModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "mode": model.mode,
        "seed": model.seed,
        "train_config": _train_config_dict(model.train_config),
        "preprocessing": {
            "original_feature_names": list(model.original_names),
            "kept_feature_names": list(model.kept_names),
            "medians": {name: float(model.medians[name]) for name in model.kept_names},
            "scaler": {"col_min": _array(model.scaler.col_min),
                       "col_max": _array(model.scaler.col_max)},
            "report": model.report.to_json_dict(),
        },
        "network": _network_dict(model.network) if model.network is not None else None,
        "svm": _svm_dict(model.svm),
        "epoch_logs": [{"epoch": e.epoch, "recon": e.recon, "latent": e.latent,
                        "clf": e.clf, "ent": e.ent, "total": e.total}
                       for e in model.epoch_logs],
        "preprocess": model.preprocess,
        "dataset": model.dataset,
    }


def write_json(path: str, doc: dict) -> None:
    """The one JSON writer of the package, for bundles and reports alike."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def save_bundle(path: str, model: TrainedModel) -> None:
    write_json(path, bundle_dict(model))


_REQUIRED = object()


def _section(path: str, doc: dict, key: str, parse, default=_REQUIRED):
    """``parse(doc[key])``, or ``default`` when the key is absent and has one.
    A missing required key, or a value that ``parse`` cannot read, is an
    InputError naming the bundle and the key."""
    if key not in doc:
        if default is _REQUIRED:
            raise InputError(f"model bundle {path} has no {key!r} key")
        return default
    try:
        return parse(doc[key])
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise InputError(f"model bundle {path} has a malformed {key!r} key: "
                         f"{type(exc).__name__}: {exc}") from exc


def _one_of(*kinds):
    """A parse that passes a value of one of ``kinds`` and refuses the rest."""
    def check(value):
        if not isinstance(value, kinds):
            raise TypeError(f"expected {' or '.join(k.__name__ for k in kinds)}, "
                            f"got {type(value).__name__}")
        return value
    return check


def _preprocessing_from(pre: dict) -> dict:
    return dict(original_names=list(pre["original_feature_names"]),
                kept_names=list(pre["kept_feature_names"]),
                medians={k: float(v) for k, v in pre["medians"].items()},
                scaler=ScalerState(col_min=np.array(pre["scaler"]["col_min"], dtype=np.float64),
                                   col_max=np.array(pre["scaler"]["col_max"], dtype=np.float64),
                                   fitted=True),
                report=PreprocessReport.from_json_dict(pre["report"]))


def _epoch_logs_from(logs: list) -> list[EpochLog]:
    return [EpochLog(epoch=e["epoch"], recon=e["recon"], latent=e["latent"], clf=e["clf"],
                     ent=e["ent"], total=e["total"]) for e in logs]


def load_bundle(path: str) -> TrainedModel:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read model bundle {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"model bundle {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"model bundle {path} holds a JSON {type(doc).__name__}, "
                         f"not an object")
    if doc.get("format") != MODEL_FORMAT:
        raise InputError(
            f"model bundle {path} has format {doc.get('format')!r}, expected {MODEL_FORMAT!r}")
    section = lambda key, parse, default=_REQUIRED: _section(path, doc, key, parse, default)
    optional_dict = _one_of(dict, type(None))
    return TrainedModel(
        **section("preprocessing", _preprocessing_from),
        mode=section("mode", _one_of(str)), seed=section("seed", _one_of(int)),
        network=section("network",
                        lambda net: _network_from(net) if net is not None else None),
        svm=section("svm", _svm_from),
        train_config=section("train_config", _train_config_from),
        epoch_logs=section("epoch_logs", _epoch_logs_from, []),
        dataset=section("dataset", optional_dict, None),
        preprocess=section("preprocess", optional_dict, None),
    )
