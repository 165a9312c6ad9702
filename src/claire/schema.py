"""The rules of claire's two JSON documents, the config ("claire-config/1")
and the model bundle ("claire-model/1"), and the one reader of both.

A codec reads a JSON value, checking it, and writes it back; its ``text``
says what it reads. ``_section`` reads an object field by field and
refuses a key no field declares. The config's settings are declared here
(SETTINGS, DATASET_KINDS), so the bundle reads its copies of them with the
same codecs. A number must be finite and is never a boolean; an integer
may be written as an integral number (2.0 is 2, while 1.7 is refused).
"""
from __future__ import annotations

import io
import json
import math
import reprlib
from typing import Callable, NamedTuple

import numpy as np

from .errors import ClaireError, InputError
from .svm import KERNELS
from .training import MODES

CONFIG_FORMAT = "claire-config/1"


class _Refused(ValueError):
    """A value a codec will not read; ``path`` grows as the error rises."""

    def __init__(self, text: str, path: str = ""):
        super().__init__(text)
        self.path = path


def _refuse(text: str, value):
    raise _Refused(f"must be {text}, got {reprlib.repr(value)}")


def _step(key) -> str:
    """A list index or an object key as a step of a value's path."""
    if isinstance(key, int):
        return f"[{key}]"
    return f".{key}" if key.isidentifier() else f"[{reprlib.repr(key)}]"


def _at(key, load, value):
    """``load(value)``; a refusal's path starts with ``key``, a name or an index."""
    try:
        return load(value)
    except _Refused as exc:
        exc.path = _step(key) + exc.path
        raise


class _Codec(NamedTuple):
    dump: Callable    # attribute -> JSON value
    load: Callable    # JSON value -> attribute, or _Refused
    text: str         # what load reads, in words


def _plain(test, text: str, cast=None) -> _Codec:
    """A JSON value written as it is and read when ``test`` passes."""
    def load(value):
        try:
            if test(value):
                return value if cast is None else cast(value)
        except (TypeError, ValueError, OverflowError):     # a _Refused from cast, too
            pass
        _refuse(text, value)
    return _Codec(lambda value: value, load, text)


def _number(text: str = "a finite number", test=lambda x: True) -> _Codec:
    """A finite number passing ``test``, read as a float."""
    return _plain(lambda v: type(v) in (int, float) and math.isfinite(v) and test(v),
                  text, float)


def _integer(low: float = -math.inf) -> _Codec:
    """An integral number >= ``low``, read as an int."""
    return _plain(lambda v: type(v) in (int, float) and v == int(v) and v >= low,
                  "an integer" + (f" >= {low}" if low > -math.inf else ""), int)


def _integers(low: int) -> _Codec:
    """A list of integers >= ``low``, refused as a whole."""
    item = _integer(low)
    return _plain(lambda v: isinstance(v, list), f"a list of integers >= {low}",
                  lambda values: [item.load(v) for v in values])


def _choice(options) -> _Codec:
    return _plain(lambda v: v in options, "one of " + ", ".join(options))


def _either(test, codec: _Codec, text: str) -> _Codec:
    """A value that passes ``test``, else one that ``codec`` reads."""
    return _plain(lambda v: True, text, lambda v: v if test(v) else codec.load(v))


class _Floats(list):
    """A float64 array's JSON list that keeps the array, for the model
    bundle's sidecar (``model_io.write_bundle``) to write in its place."""

    def __init__(self, a):
        self.array = np.asarray(a, dtype=np.float64)
        super().__init__(self.array.tolist())


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
    return _Codec(_Floats, load, text)


def _nullable(codec: _Codec) -> _Codec:
    """``codec``'s value or null. A refusal of the value itself says that
    null is read too; one of a value inside it keeps its own words."""
    text = codec.text + " or null"

    def load(value):
        if value is None:
            return None
        try:
            return codec.load(value)
        except _Refused as exc:
            if exc.path or not str(exc).startswith("must be "):
                raise
            _refuse(text, value)
    return _Codec(lambda v: None if v is None else codec.dump(v), load, text)


def _list(codec: _Codec) -> _Codec:
    def load(value):
        if not isinstance(value, list):
            _refuse("a list", value)
        return [_at(i, codec.load, v) for i, v in enumerate(value)]
    return _Codec(lambda values: [codec.dump(v) for v in values], load, "a list")


def _mapping(codec: _Codec) -> _Codec:
    def load(value):
        if not isinstance(value, dict):
            _refuse("an object", value)
        return {k: _at(k, codec.load, v) for k, v in value.items()}
    return _Codec(lambda d: {k: codec.dump(v) for k, v in d.items()}, load, "an object")


def _via(codec: _Codec, make, take) -> _Codec:
    """``codec`` on ``take(attribute)``, read back through ``make``."""
    return _Codec(lambda v: codec.dump(take(v)), lambda v: make(codec.load(v)), codec.text)


def _tag(fmt: str) -> _Codec:
    """A format tag, for a field whose attribute is None: ``fmt``, read as nothing."""
    return _via(_choice([fmt]), lambda v: {}, lambda obj: fmt)


def _section(make, fields, check=None) -> _Codec:
    """An object with one (key[, attribute], codec[, default]) per field,
    written from the attributes (or the items of a dict) and read into
    ``make(**attributes)``. The attribute is the key unless it is given. A
    field whose attribute is None writes the whole object and spreads the
    attributes it reads. A key left out reads as its default, a JSON
    value, if it has one; a key that no field declares is refused.
    ``check(attributes)`` refuses a mismatch between fields."""
    fields = [(f[0], *f) if isinstance(f[1], _Codec) else f for f in fields]
    keys = {f[0] for f in fields}

    def dump(obj):
        get = dict.__getitem__ if isinstance(obj, dict) else getattr
        return {key: codec.dump(obj if attr is None else get(obj, attr))
                for key, attr, codec, *_ in fields}

    def load(doc):
        if not isinstance(doc, dict):
            _refuse("an object", doc)
        for key in doc:
            if key not in keys:
                raise _Refused("is unknown", _step(key))
        attrs = {}
        for key, attr, codec, *default in fields:
            if key not in doc and not default:
                raise _Refused("is missing", _step(key))
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
    return _Codec(dump, load, "an object")


def _dataset(kinds: dict) -> _Codec:
    """An object whose ``kind``, a key of ``kinds``, picks the fields it has."""
    sections = {kind: _section(dict, [("kind", _choice([kind]))] + [
        (key, *field) for key, field in fields.items()]) for kind, fields in kinds.items()}
    kind = _choice(kinds)

    def load(value):
        if not isinstance(value, dict):
            _refuse("an object", value)
        return sections[_at("kind", kind.load, value.get("kind"))].load(value)
    return _Codec(lambda ds: ds, load, "an object")


FINITE = _number()
NON_NEGATIVE = _number("a finite number >= 0", lambda x: x >= 0)
POSITIVE = _number("a finite number > 0", lambda x: x > 0)
UNIT = _number("a number in [0, 1]", lambda x: 0 <= x <= 1)
COUNT = _integer(1)
STRING = _plain(lambda v: isinstance(v, str), "a string")
FILE = _plain(lambda v: isinstance(v, str), "a file name")
_COLUMN = _nullable(_either(lambda v: isinstance(v, str), _integer(0),
                           "a column name or an integer >= 0"))

# Every config key: its codec and its default. train.epochs and
# train.latent_dim default to 30 and 32 on a tep dataset, else to 40 and 64
# (cli.build_train_config).
SETTINGS = {
    "seed": (_integer(), 42),
    "output_dir": (STRING, "claire_out"),
    "preprocess.drop_threshold": (UNIT, 0.30),
    "preprocess.test_fraction": (_number("a number in (0, 1)", lambda x: 0 < x < 1), 0.20),
    "train.mode": (_choice(MODES), "CLAIRE"),
    "train.epochs": (_nullable(COUNT), None),
    "train.batch_size": (_integer(2), 64),
    "train.learning_rate": (POSITIVE, 1e-3),
    "train.latent_dim": (_nullable(COUNT), None),
    "train.hidden_widths": (_integers(1), [128, 64]),
    "train.latent_weight": (NON_NEGATIVE, 0.1),
    "train.classifier_weight": (NON_NEGATIVE, 1.0),
    "train.entropy_weight": (NON_NEGATIVE, 0.01),
    "train.corruption_std": (NON_NEGATIVE, 0.1),
    "train.dropout_rate": (_number("a number in [0, 1)", lambda x: 0 <= x < 1), 0.3),
    "train.bn_momentum": (UNIT, 0.9),
    "train.bn_epsilon": (POSITIVE, 1e-5),
    "svm.kernel": (_choice(KERNELS), "rbf"),
    "svm.gamma": (_nullable(FINITE), None),
    "svm.degree": (_integer(), 3),
    "svm.coef0": (_nullable(FINITE), None),
    "svm.c": (POSITIVE, 1.0),
    "svm.tol": (POSITIVE, 1e-3),
    "svm.max_passes": (COUNT, 100),
    "explain.n_background": (COUNT, 100),
    "explain.n_eval": (COUNT, 100),
    "explain.n_coalitions": (_nullable(COUNT), None),
    "explain.beeswarm_dims": (_integers(0), [0, 5, 10, 15]),
    "explain.dependence_feature": (_COLUMN, None),
    "explain.dependence_color": (_COLUMN, None),
    "explain.output": (_either(lambda v: v == "mean", _integer(0), '"mean" or an integer >= 0'),
                       "mean"),
}
# The fields of the dataset key, besides its kind, for each dataset kind:
# (codec,) for a file that must be given, (codec, default) for an option.
DATASET_KINDS = {
    "secom": {"features": (FILE,), "labels": (FILE,)},
    "tep": {"path": (FILE,), "fault_classes": (_nullable(_integers(1)), None)},
    "csv": {"path": (FILE,), "label_column": (STRING, "label")},
}


def _fields(section: str) -> list:
    """The (key, codec, default) fields of a section of SETTINGS ("" for the top)."""
    return [(name.rpartition(".")[2], *field) for name, field in SETTINGS.items()
            if name.rpartition(".")[0] == section]


_SECTIONS = {name: _section(dict, _fields(name)) for name in ("preprocess", "train", "svm",
                                                              "explain")}
PREPROCESS = _SECTIONS["preprocess"]
DATASET = _dataset(DATASET_KINDS)
# a config document, read into the dict every command takes
CONFIG = _section(dict, [("format", None, _tag(CONFIG_FORMAT), CONFIG_FORMAT), *_fields(""),
                         ("dataset", _nullable(DATASET), None),
                         *((name, codec, {}) for name, codec in _SECTIONS.items())])


def read_document(codec: _Codec, path: str | None, what: str, fmt: str,
                  overrides: dict | None = None, name: Callable[[str], str] | None = None,
                  cached: Callable[[bytes], dict | None] | None = None):
    """What ``codec`` reads from the JSON object in file ``path`` (or {}), a
    ``what`` tagged ``fmt``, with each of ``overrides`` placed at its dotted
    path; ``cached(the file's bytes)``, when it is not None, replaces the
    parse. Each fault is one InputError line: a file that cannot be read or
    parsed (too deep or with a too long integer, too), or a value refused
    at a path that ``name`` words ("WHAT PATH: PATH" by default)."""
    doc = {}
    if path is not None:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            # parsed as json.load(open(path, encoding="utf-8")) would
            doc = (cached and cached(data)) or json.load(
                io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {what} {path}: {exc}") from exc
        except (ValueError, RecursionError) as exc:
            raise InputError(f"{what} {path} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise InputError(f"{what} {path} holds a JSON {type(doc).__name__}, not an object")
        if doc.get("format") != fmt:
            raise InputError(f"{what} {path} has format {reprlib.repr(doc.get('format'))}, "
                             f"expected {fmt!r}")
    for dotted, value in (overrides or {}).items():
        section, _, key = dotted.rpartition(".")
        box = doc.setdefault(section, {}) if section else doc
        if isinstance(box, dict):           # a section of another type is refused below
            box[key] = value
    try:
        return codec.load(doc)
    except _Refused as exc:
        where = exc.path.lstrip(".")
        raise InputError(f"{name(where) if name else f'{what} {path}: {where}'} {exc}") from exc
