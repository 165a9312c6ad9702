"""Model bundle serialization: one self-contained JSON document.

Format version "claire-model/1". Each section is declared once, as fields
in the rule language of ``schema``, which ``bundle_dict`` writes and
``load_bundle`` reads through. Every value is checked on the way in, and
so is every key: one that no section declares is refused. A refusal is
an InputError naming the bundle and the value's path. The preprocess,
dataset and train_config blocks are read with the codecs the config
declares for the same settings. Floats are written in shortest
round-trip repr, so save -> load is bit exact. Number arrays are read by
numpy in one pass, where true and false among numbers read as 1 and 0.

``write_json`` writes every document of the package, bundles and reports,
as compact JSON (no whitespace between tokens, one trailing newline),
streamed a row at a time through json's C encoder. The indented bundles
of earlier versions still load: whitespace is free in JSON.

A bundle write also writes a binary sidecar (``cache_path``) keyed by
the SHA-256 of the bundle's bytes. ``load_bundle`` takes the float arrays
from it while the key matches, else parses the JSON, the document of
record; the same checks read the document either way.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from functools import reduce

import numpy as np

from .data import Preprocessing, PreprocessReport, ScalerState, read_keyed, write_keyed
from .errors import InputError
from .network import (ACTIVATIONS, Activation, BatchNormState, DenseLayer, DropoutState,
                      LossWeights, NetworkParams)
from .schema import (COUNT, DATASET, FINITE, POSITIVE, PREPROCESS, SETTINGS,
                     STRING, UNIT, _array, _choice, _Codec, _Floats, _integer, _integers,
                     _list, _mapping, _nullable, _number, _plain, _Refused, _section, _tag,
                     _via, read_document)
from .svm import KERNELS, KernelSpec, SvmModel
from .training import EpochLog, TrainConfig, TrainedModel

MODEL_FORMAT = "claire-model/1"
_CACHE_TAG = b"claire-model-cache/1\n"       # bump it whenever the sidecar's records change


def _row(*fields) -> _Codec:
    """A tuple written as an object with one (key, codec) per entry."""
    return _Codec(lambda row: {key: codec.dump(v) for (key, codec), v in zip(fields, row)},
                  _section(lambda **entries: tuple(entries.values()), fields).load, "an object")


def _lengths(n: int, what: str, vectors: dict) -> None:
    """Each of ``vectors``, keyed by its path in the section, has ``n`` values."""
    for key, vector in vectors.items():
        if len(vector) != n:
            raise _Refused(f"has {len(vector)} values for {n} {what}", f".{key}")


def _layer_check(a: dict) -> None:
    norm = vars(a["batch_norm"]) if a["batch_norm"] is not None else {}
    _lengths(len(a["weights"]), "weight rows", {"bias": a["bias"], **{
        f"batch_norm.{k}": v for k, v in norm.items() if isinstance(v, np.ndarray)}})


def _svm_check(a: dict) -> None:
    if a["kernel"].kind in ("rbf", "sigmoid") and a["kernel"].gamma is None:
        raise _Refused(f"must be a number for a trained {a['kernel'].kind} kernel, got None",
                       ".kernel.gamma")
    _lengths(len(a["support_vectors"]), "support vectors",
             {"dual_coef": a["dual_coef"], "support_indices": a["support_indices"]})


def _preprocessing_check(a: dict) -> None:
    scaler = a["scaler"]
    _lengths(len(scaler.col_min), "col_min values", {"scaler.col_max": scaler.col_max})
    if set(a["medians"]) != set(a["kept_names"]):
        raise _Refused("must hold one median per kept column", ".medians")
    if not set(a["kept_names"]) <= set(a["original_names"]):
        raise _Refused("must be among the original feature names", ".kept_feature_names")


def _bundle_check(a: dict) -> None:
    """The replay's drop threshold (the default for a null preprocess
    block) still drops every column the report says training dropped."""
    threshold = (a["preprocess"] or PREPROCESS.load({}))["drop_threshold"]
    for name, fraction in a["preprocessing"].report.dropped_columns:
        if fraction <= threshold:
            raise _Refused(f"must be below the missing fraction {fraction!r} of dropped "
                           f"column {name!r}, got {threshold!r}", ".preprocess.drop_threshold")


_KEEP = _number("a number in (0, 1]", lambda x: 0 < x <= 1)
_VECTOR = _array(1)

_LAYER = _section(DenseLayer, [
    ("weights", _array(2)), ("bias", _VECTOR),
    ("activation", _section(Activation, [("kind", _choice(ACTIVATIONS)), ("slope", FINITE)])),
    ("batch_norm", _nullable(_section(BatchNormState, [
        ("gamma", _VECTOR), ("beta", _VECTOR), ("running_mean", _VECTOR),
        ("running_var", _array(1, low=0.0)), ("momentum", UNIT), ("epsilon", POSITIVE)]))),
    ("dropout_keep", "dropout", _nullable(_via(_KEEP, DropoutState, lambda d: d.keep))),
], _layer_check)

_SVM = _section(SvmModel, [
    ("kernel", _section(KernelSpec, [
        ("kind", _choice(KERNELS)), ("gamma", _nullable(FINITE)), ("degree", _integer()),
        ("coef0", FINITE)])),
    ("c", POSITIVE), ("support_vectors", _array(2)), ("dual_coef", _VECTOR),
    ("support_indices", _via(_integers(0), lambda v: np.array(v, dtype=np.int64),
                             lambda a: [int(i) for i in a])),
    ("bias", FINITE), ("converged", _plain(lambda v: isinstance(v, bool), "true or false")),
    ("n_sweeps", _integer(0)),
    # the solver's final gap; null, or a bundle written before it was kept, is NaN
    ("kkt_gap", _via(_nullable(FINITE), lambda v: math.nan if v is None else v,
                     lambda gap: None if math.isnan(gap) else gap), None),
], _svm_check)


def _train(*keys: str) -> list:
    """(key, codec) fields for the config's train.KEY values, with its codecs."""
    return [(key, SETTINGS[f"train.{key}"][0]) for key in keys]


# the trained values of the config's train.* settings, with the seed
_TRAIN_CONFIG = _section(TrainConfig, [
    *_train("mode"), ("epochs", COUNT), *_train("batch_size", "learning_rate"),
    ("latent_dim", COUNT), *_train("hidden_widths"),
    ("loss_weights", "weights", _section(LossWeights, _train(
        "latent_weight", "classifier_weight", "entropy_weight"))),
    *_train("corruption_std"), ("dropout_keep", _KEEP), *_train("bn_momentum", "bn_epsilon"),
    ("seed", SETTINGS["seed"][0]),
])

_COUNTS = _nullable(_mapping(_integer(0)))

# preprocess_report.json, and the bundle's preprocessing.report
REPORT = _section(PreprocessReport, [
    ("dropped_columns", _list(_row(("name", STRING), ("missing_fraction", UNIT)))),
    ("imputed_columns", _list(_row(("name", STRING), ("median", FINITE)))),
    ("class_counts_before_oversampling", "class_counts_before", _COUNTS),
    ("class_counts_after_oversampling", "class_counts_after", _COUNTS),
    ("outlier_detection", STRING),
])

_BUNDLE = _section(TrainedModel, [
    ("format", None, _tag(MODEL_FORMAT)), *_train("mode"), ("seed", SETTINGS["seed"][0]),
    ("train_config", _nullable(_TRAIN_CONFIG)),
    ("preprocessing", _section(Preprocessing, [
        ("original_feature_names", "original_names", _list(STRING)),
        ("kept_feature_names", "kept_names", _list(STRING)),
        ("medians", _mapping(FINITE)),
        ("scaler", _section(ScalerState, [("col_min", _VECTOR), ("col_max", _VECTOR)])),
        ("report", REPORT)], _preprocessing_check)),
    ("network", _nullable(_section(NetworkParams, [
        ("input_dim", COUNT), ("latent_dim", COUNT), ("encoder", _list(_LAYER)),
        ("decoder", _list(_LAYER)), ("classifier", _LAYER)]))),
    ("svm", _SVM),
    ("epoch_logs", _list(_section(EpochLog, [
        ("epoch", COUNT), ("recon", FINITE), ("latent", FINITE), ("clf", FINITE),
        ("ent", FINITE), ("total", FINITE)])), []),
    # the config's blocks that train ran with, so later commands replay its split
    ("preprocess", _nullable(PREPROCESS), None),
    ("dataset", _nullable(DATASET), None),
], _bundle_check)


def bundle_dict(model: TrainedModel) -> dict:
    return _BUNDLE.dump(model)


_COMPACT = json.JSONEncoder(separators=(",", ":"))
_SCALARS = frozenset((str, int, float, bool, type(None)))


def _pieces(node):
    """The compact JSON text of ``node``, in pieces. A scalar, or a list or
    object of scalars only (a weight row, a name list), is one call of the
    C encoder; the lists and objects around them are walked here, so no
    piece is longer than one row."""
    if isinstance(node, dict) and not _SCALARS.issuperset(map(type, node.values())):
        for i, (key, value) in enumerate(node.items()):
            yield ("," if i else "{") + _COMPACT.encode({key: 0})[1:-2]    # '"key":'
            yield from _pieces(value)
        yield "}"
    elif isinstance(node, (list, tuple)) and not _SCALARS.issuperset(map(type, node)):
        for i, value in enumerate(node):
            yield "," if i else "["
            yield from _pieces(value)
        yield "]"
    else:
        yield _COMPACT.encode(node)


def write_json(path: str, doc: dict, tag: bytes = b"") -> bytes:
    """The one JSON writer of the package, for bundles and reports alike:
    the bytes of ``json.dumps(doc, separators=(",", ":"))`` and a newline,
    written piece by piece. Returns the SHA-256 of ``tag`` and those bytes,
    hashed as they go."""
    digest = hashlib.sha256(tag)
    try:
        with open(path, "wb") as fh:
            for text in _pieces(doc):
                data = text.encode()
                fh.write(data)
                digest.update(data)
            fh.write(b"\n")
            digest.update(b"\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    return digest.digest()


def cache_path(path: str) -> str:
    """The bundle's sidecar: model.json's is model_cache.npy beside it."""
    return os.path.splitext(path)[0] + "_cache.npy"


def write_bundle(path: str, doc: dict) -> None:
    """Write ``doc``, a ``bundle_dict``, to ``path`` and its sidecar: the key,
    the document with each non-empty float array nulled and their paths as
    UTF-8 JSON, then the arrays. ``[]`` stays, as JSON reads it as 1-D."""
    key = write_json(path, doc, _CACHE_TAG)
    paths, arrays = [], []

    def split(node, at: list):
        if isinstance(node, _Floats) and node:
            paths.append(at)
            arrays.append(np.ascontiguousarray(node.array))
            return None
        if isinstance(node, dict):
            return {k: split(v, [*at, k]) for k, v in node.items()}
        if isinstance(node, list):
            return [split(v, [*at, i]) for i, v in enumerate(node)]
        return node
    skeleton = json.dumps([split(doc, []), paths]).encode()
    write_keyed(cache_path(path), "model cache", key, [np.frombuffer(skeleton, np.uint8), *arrays])


def _rebuild(record) -> dict | None:
    """The document ``write_bundle`` split into records; None for an array not of float64."""
    doc, paths = json.loads(record().tobytes())
    for *steps, last in paths:
        array = record()
        if array.dtype != np.float64:
            return None
        reduce(lambda node, step: node[step], steps, doc)[last] = array
    return doc


def save_bundle(path: str, model: TrainedModel) -> None:
    write_bundle(path, bundle_dict(model))


def load_bundle(path: str) -> TrainedModel:
    """The bundle at ``path``, read once: rebuilt from its sidecar while the
    sidecar's key is the digest of its bytes, else parsed from them."""
    def cached(data: bytes) -> dict | None:
        key = hashlib.sha256(_CACHE_TAG)
        key.update(data)
        return read_keyed(cache_path(path), key.digest, _rebuild)
    return read_document(_BUNDLE, path, "model bundle", MODEL_FORMAT, cached=cached)
