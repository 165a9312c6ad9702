"""Model bundle serialization: one self-contained JSON document.

Format version "claire-model/1". Each section is declared once, as (JSON
key, attribute, codec) fields that ``bundle_dict`` writes and
``load_bundle`` reads through, so every value is checked on the way in; a
bad one is an InputError naming the bundle and the value's path. Floats
are written in shortest round-trip repr, so save -> load is bit exact.
Number arrays are read by numpy in one pass, where true and false among
numbers read as 1 and 0.
"""
from __future__ import annotations

import json
import math
import reprlib
from typing import Callable, NamedTuple

import numpy as np

from .data import PreprocessReport, ScalerState
from .errors import ClaireError, InputError
from .network import (ACTIVATIONS, Activation, BatchNormState, DenseLayer, DropoutState,
                      LossWeights, NetworkParams)
from .svm import KERNELS, KernelSpec, SvmModel
from .training import MODES, EpochLog, TrainConfig, TrainedModel

MODEL_FORMAT = "claire-model/1"


class _Refused(ValueError):
    """A value a codec will not read; ``path`` grows as the error rises."""

    def __init__(self, text: str, path: str = ""):
        super().__init__(text)
        self.path = path


def _refuse(text: str, value):
    raise _Refused(f"must be {text}, got {reprlib.repr(value)}")


def _at(key, load, value):
    """``load(value)``; a refusal's path starts with ``key``, a name or an index."""
    try:
        return load(value)
    except _Refused as exc:
        exc.path = (f"[{key}]" if isinstance(key, int) else f".{key}") + exc.path
        raise


class _Codec(NamedTuple):
    dump: Callable    # attribute -> JSON value
    load: Callable    # JSON value -> attribute, or _Refused


def _plain(test, text: str, cast=None) -> _Codec:
    """A JSON value written as it is and read when ``test`` passes."""
    def load(value):
        try:
            if test(value):
                return value if cast is None else cast(value)
        except (TypeError, ValueError, OverflowError):
            pass
        _refuse(text, value)
    return _Codec(lambda value: value, load)


def _number(text: str = "a finite number", test=lambda x: True) -> _Codec:
    """A finite number passing ``test``, read as a float (a bool is not one)."""
    return _plain(lambda v: type(v) in (int, float) and math.isfinite(v) and test(v),
                  text, float)


def _integer(low: float = -math.inf) -> _Codec:
    return _plain(lambda v: type(v) is int and v >= low,
                  "an integer" + (f" >= {low}" if low > -math.inf else ""))


def _choice(options) -> _Codec:
    return _plain(lambda v: v in options, "one of " + ", ".join(options))


def _array(ndim: int, low: float = -math.inf) -> _Codec:
    """A float64 array of ``ndim`` dimensions of finite numbers >= ``low``."""
    text = f"a {ndim}-D array of finite numbers" + (f" >= {low:g}" if low > -math.inf else "")

    def load(value):
        try:
            a = np.array(value)
            if (a.ndim == ndim and a.dtype.kind in "fi" and np.isfinite(a).all()
                    and (a >= low).all()):
                return np.asarray(a, dtype=np.float64)
        except (TypeError, ValueError, OverflowError):
            pass
        _refuse(text, value)
    return _Codec(lambda a: np.asarray(a, dtype=np.float64).tolist(), load)


def _nullable(codec: _Codec) -> _Codec:
    return _Codec(lambda v: None if v is None else codec.dump(v),
                  lambda v: None if v is None else codec.load(v))


def _list(codec: _Codec) -> _Codec:
    def load(value):
        if not isinstance(value, list):
            _refuse("a list", value)
        return [_at(i, codec.load, v) for i, v in enumerate(value)]
    return _Codec(lambda values: [codec.dump(v) for v in values], load)


def _mapping(codec: _Codec) -> _Codec:
    def load(value):
        if not isinstance(value, dict):
            _refuse("an object", value)
        return {k: _at(k, codec.load, v) for k, v in value.items()}
    return _Codec(lambda d: {k: codec.dump(v) for k, v in d.items()}, load)


def _via(codec: _Codec, make, take) -> _Codec:
    """``codec`` on ``take(attribute)``, read back through ``make``."""
    return _Codec(lambda v: codec.dump(take(v)), lambda v: make(codec.load(v)))


def _section(make, fields, check=None) -> _Codec:
    """An object with one (key, attribute, codec[, default]) per field, or
    (key, codec) where the attribute has the key's name, written from the
    attributes and read into ``make(**attributes)``. A field whose attribute
    is None writes the whole object and spreads the attributes it reads. A
    key left out reads as its default, a JSON value, if it has one.
    ``check(attributes)`` refuses a mismatch between fields."""
    fields = [(f[0], *f) if len(f) == 2 else f for f in fields]

    def dump(obj):
        return {key: codec.dump(obj if attr is None else getattr(obj, attr))
                for key, attr, codec, *_ in fields}

    def load(doc):
        if not isinstance(doc, dict):
            _refuse("an object", doc)
        attrs = {}
        for key, attr, codec, *default in fields:
            if key not in doc and not default:
                raise _Refused("is missing", f".{key}")
            value = _at(key, codec.load, doc[key] if key in doc else default[0])
            if attr is None:
                attrs.update(value)
            else:
                attrs[attr] = value
        if check is not None:
            check(attrs)
        try:
            return make(**attrs)
        except ClaireError as exc:
            raise _Refused(f"is invalid: {exc}") from exc
    return _Codec(dump, load)


def _row(*fields) -> _Codec:
    """A tuple written as an object with one (key, codec) per entry."""
    return _Codec(lambda row: {key: codec.dump(v) for (key, codec), v in zip(fields, row)},
                  _section(lambda **entries: tuple(entries.values()), fields).load)


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


_FINITE = _number()
_NON_NEGATIVE = _number("a finite number >= 0", lambda x: x >= 0)
_POSITIVE = _number("a finite number > 0", lambda x: x > 0)
_UNIT = _number("a number in [0, 1]", lambda x: 0 <= x <= 1)
_KEEP = _number("a number in (0, 1]", lambda x: 0 < x <= 1)
_STRING = _plain(lambda v: isinstance(v, str), "a string")
_OBJECT = _nullable(_plain(lambda v: isinstance(v, dict), "an object"))
_VECTOR = _array(1)

_LAYER = _section(DenseLayer, [
    ("weights", _array(2)), ("bias", _VECTOR),
    ("activation", _section(Activation, [("kind", _choice(ACTIVATIONS)), ("slope", _FINITE)])),
    ("batch_norm", _nullable(_section(BatchNormState, [
        ("gamma", _VECTOR), ("beta", _VECTOR), ("running_mean", _VECTOR),
        ("running_var", _array(1, low=0.0)), ("momentum", _UNIT), ("epsilon", _POSITIVE)]))),
    ("dropout_keep", "dropout", _nullable(_via(_KEEP, DropoutState, lambda d: d.keep))),
], _layer_check)

_SVM = _section(SvmModel, [
    ("kernel", _section(KernelSpec, [
        ("kind", _choice(KERNELS)), ("gamma", _nullable(_FINITE)), ("degree", _integer()),
        ("coef0", _FINITE)])),
    ("c", _POSITIVE), ("support_vectors", _array(2)), ("dual_coef", _VECTOR),
    ("support_indices", _via(_list(_integer(0)), lambda v: np.array(v, dtype=np.int64),
                             lambda a: [int(i) for i in a])),
    ("bias", _FINITE), ("converged", _plain(lambda v: isinstance(v, bool), "true or false")),
    ("n_sweeps", _integer(0)),
], _svm_check)

_TRAIN_CONFIG = _section(TrainConfig, [
    ("mode", _choice(MODES)), ("epochs", _integer(1)), ("batch_size", _integer(2)),
    ("learning_rate", _POSITIVE), ("latent_dim", _integer(1)),
    ("hidden_widths", _list(_integer(1))),
    ("loss_weights", "weights", _section(LossWeights, [
        ("latent_weight", _NON_NEGATIVE), ("classifier_weight", _NON_NEGATIVE),
        ("entropy_weight", _NON_NEGATIVE)])),
    ("corruption_std", _NON_NEGATIVE), ("dropout_keep", _KEEP), ("bn_momentum", _UNIT),
    ("bn_epsilon", _POSITIVE), ("seed", _integer()),
])

_COUNTS = _nullable(_mapping(_integer(0)))

# preprocess_report.json, and the bundle's preprocessing.report
REPORT = _section(PreprocessReport, [
    ("dropped_columns", _list(_row(("name", _STRING), ("missing_fraction", _UNIT)))),
    ("imputed_columns", _list(_row(("name", _STRING), ("median", _FINITE)))),
    ("class_counts_before_oversampling", "class_counts_before", _COUNTS),
    ("class_counts_after_oversampling", "class_counts_after", _COUNTS),
    ("outlier_detection", _STRING),
])

_BUNDLE = _section(TrainedModel, [
    ("mode", _choice(MODES)), ("seed", _integer()),
    ("train_config", _nullable(_TRAIN_CONFIG)),
    ("preprocessing", None, _section(dict, [
        ("original_feature_names", "original_names", _list(_STRING)),
        ("kept_feature_names", "kept_names", _list(_STRING)),
        ("medians", _mapping(_FINITE)),
        ("scaler", _section(lambda **a: ScalerState(**a, fitted=True),
                            [("col_min", _VECTOR), ("col_max", _VECTOR)])),
        ("report", REPORT)], _preprocessing_check)),
    ("network", _nullable(_section(NetworkParams, [
        ("input_dim", _integer(1)), ("latent_dim", _integer(1)), ("encoder", _list(_LAYER)),
        ("decoder", _list(_LAYER)), ("classifier", _LAYER)]))),
    ("svm", _SVM),
    ("epoch_logs", "epoch_logs", _list(_section(EpochLog, [
        ("epoch", _integer(1)), ("recon", _FINITE), ("latent", _FINITE), ("clf", _FINITE),
        ("ent", _FINITE), ("total", _FINITE)])), []),
    # checked by the cli's SETTINGS and DATASET_KINDS rules when a command uses them
    ("preprocess", "preprocess", _OBJECT, None),
    ("dataset", "dataset", _OBJECT, None),
])


def bundle_dict(model: TrainedModel) -> dict:
    return {"format": MODEL_FORMAT, **_BUNDLE.dump(model)}


def write_json(path: str, doc: dict) -> None:
    """The one JSON writer of the package, for bundles and reports alike."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def save_bundle(path: str, model: TrainedModel) -> None:
    write_json(path, bundle_dict(model))


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
    try:
        return _BUNDLE.load(doc)
    except _Refused as exc:
        raise InputError(f"model bundle {path}: {exc.path.lstrip('.')} {exc}") from exc
