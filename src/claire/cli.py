"""Command-line interface.

Subcommands: preprocess, train, eval, explain, project. Every setting is
one entry of schema.SETTINGS (DATASET_KINDS for the dataset's fields),
read by the schema's codecs: the defaults, then an optional JSON config
("claire-config/1"), then the flags, all checked before any data or model
bundle is read, and the output directory right after them. Outputs are
UTF-8 CSV/JSON files in the output directory, plus train's two binary
caches, with no timestamps, so a re-run reproduces them: the table cache
(TABLE_CACHE) and the bundle's sidecar (model_io.cache_path). A replay
(eval, explain, project) reads both while their keys match, picks its
rows by the model's split and preprocesses only those.

Exit codes: 0 success, 2 input or validation problem (a standard output
that cannot be written included), 3 numeric divergence during training,
4 internal invariant breach. Every line a command prints on standard
output goes through ``say``.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
import traceback

import numpy as np

from . import blas
from . import data as data_mod
from .data import Preprocessing, TabularDataset
from .data import stratified_split  # noqa: F401 (perfbench/layers.py times it here)
from .errors import (ClaireError, ConditioningError, DegenerateDataError, InputError,
                     NumericError, ShapeError, StateError)
from .evaluate import compute_metrics, lda_fit, project_export
from .explain import (class_conditional_importance, coalition_count, dependence_export,
                      explain_encoder, explain_plan, global_importance)
from .model_io import (REPORT, bundle_dict, cache_path, load_bundle, write_bundle,
                       write_json)
from .network import LossWeights
from .numerics import substream_seed
from .schema import CONFIG, CONFIG_FORMAT, DATASET_KINDS, FILE, PREPROCESS, SETTINGS, read_document
from .svm import KernelSpec, predict_labels
from .training import MODES, SvmConfig, TrainConfig, TrainedModel, model_codes, train_pipeline

TABLE_CACHE = "table_cache.npy"     # train's parsed table, beside model.json

CSV_BLOCK_CELLS = 16_384            # write_csv formats and writes this many cells at a time

INPUT_ERRORS = (InputError, ShapeError, StateError, DegenerateDataError, ConditioningError)


def say(line: str) -> None:
    """Print ``line`` on standard output and flush it. A write that fails
    (a closed pipe, a full device) is an InputError, and standard output
    then points at os.devnull, so the flush at exit cannot fail again."""
    try:
        print(line, flush=True)
    except OSError as exc:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise InputError(f"cannot write standard output: {exc}") from exc


def resolve_config(args) -> dict:
    """The defaults, then the config file, then the flags placed at their
    keys' dotted paths, read and checked at once before any other file."""
    flags = {name: getattr(args, name) for name in SETTINGS
             if getattr(args, name, None) is not None}    # a flag's dest is the key it sets
    if args.dataset is not None:
        flags["dataset"] = parse_dataset_spec(args.dataset)
    return read_document(CONFIG, args.config, "config file", CONFIG_FORMAT, flags,
                         "config key {!r}".format)


def parse_dataset_spec(spec: str) -> dict:
    """secom:FEATURES:LABELS | tep:PATH[:faults=1,2] | csv:PATH[:label=NAME]"""
    parts = spec.split(":")
    kind = parts[0]
    if kind == "secom":
        if len(parts) != 3:
            raise InputError("secom dataset spec must be secom:FEATURES_PATH:LABELS_PATH")
        return {"kind": "secom", "features": parts[1], "labels": parts[2]}
    if kind == "tep":
        if len(parts) < 2:
            raise InputError("tep dataset spec must be tep:PATH[:faults=1,2]")
        out = {"kind": "tep", "path": parts[1], "fault_classes": None}
        for extra in parts[2:]:
            if extra.startswith("faults="):
                codes = extra[len("faults="):]
                try:
                    out["fault_classes"] = [int(t) for t in codes.split(",") if t]
                except ValueError:
                    raise InputError(f"tep faults filter must be comma-separated "
                                     f"integer fault codes, got {codes!r}") from None
            else:
                raise InputError(f"unknown tep dataset option {extra!r}")
        return out
    if kind == "csv":
        if len(parts) < 2:
            raise InputError("csv dataset spec must be csv:PATH[:label=NAME]")
        out = {"kind": "csv", "path": parts[1], "label_column": "label"}
        for extra in parts[2:]:
            if extra.startswith("label="):
                out["label_column"] = extra[len("label="):]
            else:
                raise InputError(f"unknown csv dataset option {extra!r}")
        return out
    raise InputError(f"unknown dataset kind {kind!r}; expected secom, tep or csv")


def _dataset(ds: dict | None) -> dict:
    if ds is None:
        raise InputError("no dataset configured; pass --dataset or set it in the config")
    return ds


def _source(ds: dict) -> tuple[dict, list[str]]:
    """A completed dataset block's table-cache key inputs: the loader's kind
    and options (every field but the files), and its files."""
    files = [key for key, (codec, *_) in DATASET_KINDS[ds["kind"]].items() if codec is FILE]
    return {key: value for key, value in ds.items() if key not in files}, [ds[k] for k in files]


def load_dataset(ds: dict) -> TabularDataset:
    """The raw table of a completed dataset block, from its loader."""
    if ds["kind"] == "secom":
        return data_mod.load_secom(ds["features"], ds["labels"])
    if ds["kind"] == "tep":
        return data_mod.load_tep(ds["path"], ds["fault_classes"])
    return data_mod.load_labeled_csv(ds["path"], ds["label_column"])


def build_train_config(cfg: dict) -> TrainConfig:
    t = cfg["train"]
    tep = (cfg["dataset"] or {}).get("kind") == "tep"
    return TrainConfig(
        mode=t["mode"], epochs=t["epochs"] or (30 if tep else 40), batch_size=t["batch_size"],
        learning_rate=t["learning_rate"], latent_dim=t["latent_dim"] or (32 if tep else 64),
        hidden_widths=t["hidden_widths"],
        weights=LossWeights(latent_weight=t["latent_weight"],
                            classifier_weight=t["classifier_weight"],
                            entropy_weight=t["entropy_weight"]),
        corruption_std=t["corruption_std"], dropout_keep=1.0 - t["dropout_rate"],
        bn_momentum=t["bn_momentum"], bn_epsilon=t["bn_epsilon"], seed=cfg["seed"],
    )


def build_svm_config(cfg: dict) -> SvmConfig:
    s = cfg["svm"]
    gamma, coef0 = s["gamma"], s["coef0"]
    if s["kernel"] == "linear":
        kernel = KernelSpec.linear()
    elif s["kernel"] == "polynomial":
        kernel = KernelSpec.polynomial(coef0=1.0 if coef0 is None else coef0, degree=s["degree"])
    elif s["kernel"] == "rbf":
        kernel = KernelSpec.rbf(gamma=gamma)
    else:
        kernel = KernelSpec.sigmoid(gamma=gamma, coef0=0.0 if coef0 is None else coef0)
    return SvmConfig(kernel=kernel, c=s["c"], tol=s["tol"], max_passes=s["max_passes"])


def write_csv(path: str, header: list[str], columns: list) -> None:
    """Write ``header`` and then one line per row of ``columns``: one or
    more numpy arrays or sequences of equal length, each of Python strings
    or of numbers (not numpy scalars). The bytes are those of
    ``csv.writer`` in its default dialect: CRLF line ends, a field quoted
    only when it holds a comma, a quote or a line end (inner quotes
    doubled) or is the empty only field of its line, and a float as its
    shortest round-trip repr. At most CSV_BLOCK_CELLS cells are formatted
    and written at a time."""
    step = max(1, CSV_BLOCK_CELLS // len(columns))
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(_csv_lines([[name] for name in header]))
            for lo in range(0, len(columns[0]), step):
                fh.write(_csv_lines([column[lo:lo + step] for column in columns]))
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _csv_lines(columns: list) -> str:
    """The CRLF-ended lines of one block of column slices."""
    lines = list(map(",".join, zip(*map(_csv_cells, columns))))
    if len(columns) == 1:       # a lone empty field is quoted, so the line is not blank
        lines = [line or '""' for line in lines]
    return "\r\n".join(lines) + "\r\n"


def _csv_cells(values) -> map:
    """One column slice's fields: each distinct string quoted once, as
    needed; each number as its repr."""
    if isinstance(values, np.ndarray):
        values = values.tolist()
    if not (values and isinstance(values[0], str)):
        return map(repr, values)
    fields = {text: '"' + text.replace('"', '""') + '"'
              if any(c in text for c in ',"\r\n') else text for text in set(values)}
    return map(fields.__getitem__, values)


def _prepare(cfg: dict, raw: TabularDataset):
    p = cfg["preprocess"]
    return data_mod.run_pipeline(raw, drop_threshold=p["drop_threshold"],
                                 test_fraction=p["test_fraction"], seed=cfg["seed"])


def _out_dir(cfg: dict) -> str:
    out = cfg["output_dir"]
    try:
        os.makedirs(out, exist_ok=True)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _outputs(command: str, cfg: dict) -> list[str]:
    """The files ``command`` writes in the output directory."""
    if command == "explain":
        beeswarms = [f"beeswarm_dim_{dim}.csv" for dim in cfg["explain"]["beeswarm_dims"]]
        return ["attributions.csv", "base_values.json", "importance_global.csv",
                "importance_class.csv", *beeswarms, "dependence.csv"]
    return {"preprocess": ["train.csv", "test.csv", "preprocess_report.json"],
            "train": ["model.json", cache_path("model.json"), "loss_history.csv",
                      "preprocess_report.json", TABLE_CACHE],
            "eval": ["metrics.json"],
            "project": ["lda_projection.csv", "lda_summary.json"]}[command]


def _check_out_dir(cfg: dict, command: str) -> None:
    """Refuse, before any data is read, an output directory that ``_out_dir``
    could not create because it, or the nearest of its parents that
    exists, is not a directory; and an output file of ``command`` that is
    a directory or that cannot be written."""
    out = cfg["output_dir"]
    path = os.path.abspath(out)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise InputError(f"cannot create output directory {out}: {path} is not a directory")
    for name in _outputs(command, cfg):
        target = os.path.join(out, name)
        where = target if os.path.lexists(target) else path
        if os.path.isdir(target):
            raise InputError(f"cannot write {target}: it is a directory")
        if not os.access(where, os.W_OK):
            raise InputError(f"cannot write {target}: {where} is not writable")


def _train_table(cfg: dict) -> TabularDataset:
    """The raw training table, also written as the output directory's table
    cache unless a source file changed while it was read."""
    ds = _dataset(cfg["dataset"])
    raw, key = data_mod.load_keyed(lambda: load_dataset(ds), *_source(ds))
    if key is not None:
        data_mod.write_table_cache(os.path.join(_out_dir(cfg), TABLE_CACHE), key, raw)
    return raw


def cmd_preprocess(cfg: dict, args) -> int:
    prepared = _prepare(cfg, load_dataset(_dataset(cfg["dataset"])))
    p, out = prepared.preprocessing, _out_dir(cfg)
    for name, split in (("train", prepared.train), ("test", prepared.test)):
        write_csv(os.path.join(out, f"{name}.csv"), p.kept_names + ["label"],
                  [*split.features.T, split.labels])
    write_json(os.path.join(out, "preprocess_report.json"), REPORT.dump(p.report))
    say(f"wrote train.csv, test.csv, preprocess_report.json to {out}")
    return 0


def cmd_train(cfg: dict, args) -> int:
    train_cfg = build_train_config(cfg)
    svm_cfg = build_svm_config(cfg)
    prepared = _prepare(cfg, _train_table(cfg))
    model = train_pipeline(prepared, train_cfg, svm_cfg)
    # preprocessing knobs ride along so later commands can replay the split
    model.preprocess = dict(cfg["preprocess"])
    model.dataset = cfg["dataset"]
    out = _out_dir(cfg)
    write_bundle(os.path.join(out, "model.json"), bundle_dict(model))
    if model.epoch_logs:
        write_csv(os.path.join(out, "loss_history.csv"),
                  ["epoch", "l_recon", "l_latent", "l_clf", "l_ent", "l_total"],
                  list(zip(*((e.epoch, e.recon, e.latent, e.clf, e.ent, e.total)
                             for e in model.epoch_logs))))
    write_json(os.path.join(out, "preprocess_report.json"),
               REPORT.dump(model.preprocessing.report))
    svm = model.svm
    if not svm.converged:
        print(f"warning: svm update budget ({svm_cfg.max_passes} per row) ran out "
              f"with KKT gap {svm.kkt_gap:.3g} above tol {svm_cfg.tol:g}", file=sys.stderr)
    say(f"svm: {svm.n_sweeps} pair updates, KKT gap {svm.kkt_gap:.3g}, "
        f"{svm.dual_coef.size} support vectors")
    say(f"wrote model.json to {out} (mode {model.mode})")
    return 0


def _load_model(cfg: dict, args) -> TrainedModel:
    """The model bundle; a null preprocess block replays the defaults."""
    model = load_bundle(_bundle_path(cfg, args))
    model.preprocess = model.preprocess or PREPROCESS.load({})
    return model


def _bundle_path(cfg: dict, args) -> str:
    return args.model or os.path.join(cfg["output_dir"], "model.json")


def _replay(model: TrainedModel, cfg: dict, args) -> TabularDataset:
    """Every raw row of the dataset, once its columns are checked against
    the ones the bundle's preprocessing kept. The raw table comes from the
    table cache beside the bundle when its key matches the dataset, else
    from the loader. A table the loader gave that passes the column check
    is written as that cache, unless a source file changed while it was
    read; a cache that cannot be written is left as it was.
    """
    ds = _dataset(cfg["dataset"] or model.dataset)
    cache = os.path.join(os.path.dirname(_bundle_path(cfg, args)), TABLE_CACHE)
    raw, key = data_mod.read_table_cache(cache, *_source(ds)), None
    if raw is None:
        raw, key = data_mod.load_keyed(lambda: load_dataset(ds), *_source(ds))
    p, threshold = model.preprocessing, model.preprocess["drop_threshold"]
    if raw.features.shape[1] == len(p.original_names):
        fraction, drop = data_mod.missing_census(raw.features, threshold)
        names = raw.feature_names
        if names != p.original_names or [names[j] for j in np.flatnonzero(~drop)] != p.kept_names:
            j = next((j for j, name in enumerate(names) if drop[j] == (name in p.kept_names)), None)
            moved = next((f" (column {k} is {name!r} here, {p.original_names[k]!r} in the model)"
                          for k, name in enumerate(names) if name != p.original_names[k]), "")
            why = (f"column {names[j]!r} is {'dropped' if drop[j] else 'kept'} here (missing "
                   f"fraction {float(fraction[j])!r}, drop_threshold {threshold!r}) but not in "
                   "the model" if j is not None else
                   "the same columns, in another order or under other names" + moved)
            raise ClaireError("replayed preprocessing kept a different column set than the model "
                              f"bundle records: {why}; the dataset does not match the one "
                              "trained on")
        if key is not None:
            try:
                data_mod.write_table_cache(cache, key, raw)
            except InputError:
                pass        # the next replay parses the text again, as this one did
    return raw


def _split_rows(model: TrainedModel, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices of the train and test rows of the replayed table, as the
    model's split drew them."""
    test = data_mod.stratified_test_mask(labels, model.preprocess["test_fraction"],
                                         substream_seed(model.seed, "split"))
    return np.flatnonzero(~test), np.flatnonzero(test)


def _scaled(model: TrainedModel, raw: TabularDataset, rows) -> np.ndarray:
    """The raw table's ``rows`` (an index array or slice), preprocessed as
    the model's training rows were."""
    return data_mod.apply_saved_preprocessing(raw.features[rows], model.preprocessing)


def _replay_codes(cfg: dict, args) -> tuple[TrainedModel, np.ndarray, np.ndarray]:
    """The model, and its codes and the labels of the requested split."""
    model = _load_model(cfg, args)
    raw = _replay(model, cfg, args)
    rows = (slice(None) if args.split == "all"
            else _split_rows(model, raw.labels)[args.split == "test"])
    return model, model_codes(model, _scaled(model, raw, rows)), raw.labels[rows]


def _column_index(p: Preprocessing, key: str, column) -> int:
    """Index among the kept columns of a column given by name or index."""
    if not isinstance(column, str):
        if column < len(p.kept_names):
            return column
        raise InputError(f"explain.{key} index {column} is outside the "
                         f"{len(p.kept_names)} kept columns")
    if column in p.kept_names:
        return p.kept_names.index(column)
    why = ("was dropped by preprocessing" if column in p.original_names
           else "is not a column of the dataset")
    raise InputError(f"explain.{key} {column!r} {why}")


def cmd_eval(cfg: dict, args) -> int:
    model, codes, labels = _replay_codes(cfg, args)
    preds = predict_labels(model.svm, codes)
    report = compute_metrics(labels, preds)
    out = _out_dir(cfg)
    write_json(os.path.join(out, "metrics.json"),
               {"mode": model.mode, "split": args.split, "n_rows": int(labels.shape[0]),
                **report.to_json_dict()})
    say(f"accuracy {report.accuracy:.4f}  macro-F1 {report.f1:.4f}  "
        f"({args.split} split, {labels.shape[0]} rows)")
    svm = model.svm     # a bundle written before the gap was stored holds NaN
    gap = "not stored" if math.isnan(svm.kkt_gap) else f"{svm.kkt_gap:.3g}"
    say(f"svm: KKT gap {gap}, {'converged' if svm.converged else 'not converged'}")
    return 0


def cmd_explain(cfg: dict, args) -> int:
    model = _load_model(cfg, args)
    if model.network is None:
        raise InputError("model bundle has no encoder (RawSVM mode); nothing to explain")
    e = cfg["explain"]
    output, k = e["output"], model.network.latent_dim
    if output != "mean" and output >= k:
        raise InputError(f"config key 'explain.output' must be \"mean\" or a latent "
                         f"dimension in [0, {k}), got {output!r}")
    n_bg, n_eval, n_coalitions = e["n_background"], e["n_eval"], e["n_coalitions"]
    kept = model.preprocessing.kept_names
    coalition_count(len(kept), n_coalitions)     # refuses fewer than d + 2
    feat, color = (None if e[key] is None else _column_index(model.preprocessing, key, e[key])
                   for key in ("dependence_feature", "dependence_color"))
    raw = _replay(model, cfg, args)
    train_rows, test_rows = _split_rows(model, raw.labels)
    per_row = explain_plan(train_rows.size, test_rows.size, len(kept),
                           n_bg, n_eval, n_coalitions)
    # the background rows, then the explained ones: all that explain_encoder reads
    scaled = _scaled(model, raw, np.concatenate([train_rows[:n_bg], test_rows[:n_eval]]))
    train_x, eval_x = scaled[:n_bg], scaled[n_bg:]
    eval_labels = raw.labels[test_rows[:n_eval]]
    if blas.thread_calls() is None:
        runs_on = "; BLAS thread count not pinned; 1 lane"
    else:
        lanes = blas.usable_cpus()
        runs_on = f" on {lanes} lane{'s' * (lanes > 1)}, BLAS 1 thread"
    say(f"explain: {n_eval} rows x {per_row} coalitions x {n_bg} background rows "
        f"= {n_eval * per_row * n_bg} coalition rows{runs_on}")
    attr = explain_encoder(model.network, train_x, eval_x,
                           feature_names=kept,
                           n_background=n_bg, n_eval=n_eval,
                           n_coalitions=n_coalitions,
                           seed=substream_seed(cfg["seed"], "shap"),
                           progress=lambda i: say(f"explain: row {i + 1} of {n_eval}"))
    out = _out_dir(cfg)
    names = attr.feature_names
    n, d, k = attr.values.shape
    write_csv(os.path.join(out, "attributions.csv"),
              ["sample", "feature", "latent_dim", "value"],
              [np.repeat(np.arange(n), d * k), np.tile(np.repeat(np.array(names, object), k), n),
               np.tile(np.arange(k), n * d), attr.values.ravel()])
    write_json(os.path.join(out, "base_values.json"),
               {"base_values": attr.base_values.tolist()})

    ranking = global_importance(attr)
    write_csv(os.path.join(out, "importance_global.csv"),
              ["rank", "feature", "msv"] + [f"dim_{l}" for l in range(attr.n_outputs)],
              [np.arange(1, d + 1), ranking.features, ranking.msv, *ranking.per_output.T])

    classes = class_conditional_importance(attr, eval_labels)
    fail_msv = dict(zip(classes.failure.features, classes.failure.msv.tolist()))
    succ_msv = dict(zip(classes.success.features, classes.success.msv.tolist()))
    write_csv(os.path.join(out, "importance_class.csv"),
              ["rank", "feature", "contrast", "failure_msv", "success_msv"],
              [np.arange(1, d + 1), classes.contrast_features, classes.contrast,
               [fail_msv[f] for f in classes.contrast_features],
               [succ_msv[f] for f in classes.contrast_features]])

    for dim in (dim for dim in e["beeswarm_dims"] if dim < k):
        write_csv(os.path.join(out, f"beeswarm_dim_{dim}.csv"),
                  ["sample", "feature", "feature_value", "shap_value"],
                  [np.repeat(np.arange(n), d), np.tile(np.array(names, object), n),
                   eval_x.ravel(), attr.values[:, :, dim].ravel()])

    feat_idx = ranking.order[0] if feat is None else feat
    color_idx = (ranking.order[1] if color is None and len(ranking.order) > 1
                 else feat_idx if color is None else color)
    fv, sv, cv = np.array(dependence_export(attr, eval_x, int(feat_idx), int(color_idx),
                                            output)).reshape(n, 3).T
    write_csv(os.path.join(out, "dependence.csv"),
              ["feature", "feature_value", "attribution", "color_feature", "color_value"],
              [[names[int(feat_idx)]] * n, fv, sv, [names[int(color_idx)]] * n, cv])
    say(f"wrote attribution exports for {n_eval} samples to {out}")
    return 0


def cmd_project(cfg: dict, args) -> int:
    _, codes, labels = _replay_codes(cfg, args)
    projection = lda_fit(codes, labels)
    export = project_export(projection, codes, labels)
    out = _out_dir(cfg)
    write_csv(os.path.join(out, "lda_projection.csv"), ["projection", "label"],
              [[v for v, _ in export["rows"]], [label for _, label in export["rows"]]])
    write_json(os.path.join(out, "lda_summary.json"),
               {"split": args.split, **export["summary"]})
    say(f"dprime {export['summary']['dprime']:.4f} on {args.split} split")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claire",
        description="Fault detection: denoising autoencoder + kernel SVM with "
                    "Shapley attributions and separability analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    # a flag that sets a config key has that key as its dest (resolve_config)
    for name, extra in (("preprocess", "run the preprocessing pipeline and export splits"),
                        ("train", "train phase 1 and 2 and save a model bundle"),
                        ("eval", "score a trained model"),
                        ("explain", "export attribution tables"),
                        ("project", "export the discriminant projection")):
        p = sub.add_parser(name, help=extra)
        p.add_argument("--config", help="JSON config file (claire-config/1)")
        p.add_argument("--seed", type=int, help="root random seed")
        p.add_argument("--out", dest="output_dir", help="output directory")
        p.add_argument("--dataset",
                       help="secom:FEATURES:LABELS | tep:PATH[:faults=1,2] "
                            "| csv:PATH[:label=NAME]")
        p.add_argument("--mode", dest="train.mode", choices=MODES, help="training mode")
        if name == "train":
            p.add_argument("--epochs", dest="train.epochs", type=int)
            p.add_argument("--learning-rate", dest="train.learning_rate", type=float)
        if name in ("eval", "explain", "project"):
            p.add_argument("--model", help="model bundle path (default: OUT/model.json)")
        if name in ("eval", "project"):
            p.add_argument("--split", choices=["train", "test", "all"], default="test")
        if name == "explain":
            for budget in ("n_background", "n_eval", "n_coalitions"):
                p.add_argument("--" + budget.replace("_", "-"), dest=f"explain.{budget}",
                               type=int)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        _check_out_dir(cfg, args.command)
        # looked up by name at call time, so a wrapped cmd_* is the one that runs
        return globals()[f"cmd_{args.command}"](cfg, args)
    except (*INPUT_ERRORS, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, NumericError) else 2
    except ClaireError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
