"""Command-line interface.

Subcommands: preprocess, train, eval, explain, project. Every command
reads an optional JSON config (format "claire-config/1"), lets flags
override config values, and writes UTF-8 CSV/JSON files into the output
directory. No timestamps are written, so a command re-run with the same
config and seed reproduces its outputs byte for byte.

Exit codes: 0 success, 2 input or validation problem, 3 numeric
divergence during training, 4 internal invariant breach.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import traceback

import numpy as np

from . import data as data_mod
from .data import TabularDataset, stratified_split
from .errors import (ClaireError, ConditioningError, DegenerateDataError,
                     DivergenceError, InputError, NumericError, ShapeError, StateError)
from .evaluate import compute_metrics, lda_fit, project_export
from .explain import (class_conditional_importance, dependence_export, explain_encoder,
                      explain_plan, global_importance)
from .model_io import bundle_dict, load_bundle
from .network import LossWeights
from .numerics import substream_seed
from .svm import KernelSpec
from .training import (MODES, SvmConfig, TrainConfig, TrainedModel, model_codes,
                       train_pipeline)

CONFIG_FORMAT = "claire-config/1"

INPUT_ERRORS = (InputError, ShapeError, StateError, DegenerateDataError, ConditioningError)


def _default_config() -> dict:
    return {
        "format": CONFIG_FORMAT,
        "seed": 42,
        "output_dir": "claire_out",
        "dataset": None,
        "preprocess": {"drop_threshold": 0.30, "test_fraction": 0.20},
        "train": {
            "mode": "CLAIRE", "epochs": None, "batch_size": 64, "learning_rate": 1e-3,
            "latent_dim": None, "hidden_widths": [128, 64],
            "latent_weight": 0.1, "classifier_weight": 1.0, "entropy_weight": 0.01,
            "corruption_std": 0.1, "dropout_rate": 0.3,
            "bn_momentum": 0.9, "bn_epsilon": 1e-5,
        },
        "svm": {"kernel": "rbf", "gamma": None, "degree": 3, "coef0": None,
                "c": 1.0, "tol": 1e-3, "max_passes": 100},
        "explain": {"n_background": 100, "n_eval": 100, "n_coalitions": None,
                    "beeswarm_dims": [0, 5, 10, 15],
                    "dependence_feature": None, "dependence_color": None,
                    "output": "mean"},
    }


# the type a set value must take where the default is None (worked out later)
NULL_DEFAULT_TYPES = {"dataset": dict, "train.epochs": int, "train.latent_dim": int,
                      "svm.gamma": float, "svm.coef0": float, "explain.n_coalitions": int}
TYPE_NAMES = {int: "an integer", float: "a number", list: "a list of integers",
              dict: "a JSON object", str: "a string"}
# explain.output is "mean" or the index of one latent dimension
STRING_OR_INDEX = ("explain.output",)
# the file names each dataset kind needs
DATASET_PATHS = {"secom": ("features", "labels"), "tep": ("path",), "csv": ("path",)}


def _typed(name: str, default, value):
    """A config value converted to the type of its key's default. A value
    that does not convert is an input error that names the key."""
    kind = NULL_DEFAULT_TYPES.get(name) if default is None else type(default)
    if kind not in TYPE_NAMES or (value is None and default is None):
        return value
    if name in STRING_OR_INDEX and isinstance(value, int):
        return value
    try:
        if kind in (dict, str) and not isinstance(value, kind):
            raise TypeError
        return [int(v) for v in value] if kind is list else kind(value)
    except (TypeError, ValueError, OverflowError):
        what = TYPE_NAMES[kind] + (" or an integer" if name in STRING_OR_INDEX else "")
        raise InputError(f"config key {name!r} must be {what}, got {value!r}") from None


def _deep_update(base: dict, extra: dict, path: str = "") -> dict:
    for key, value in extra.items():
        name = path + key
        if isinstance(base.get(key), dict):
            _deep_update(base[key], _typed(name, base[key], value), name + ".")
        else:
            base[key] = _typed(name, base.get(key), value)
    return base


def load_config(path: str | None) -> dict:
    cfg = _default_config()
    if path is None:
        return cfg
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"config file {path} must hold a JSON object")
    if doc.get("format") != CONFIG_FORMAT:
        raise InputError(
            f"config file {path} has format {doc.get('format')!r}, expected {CONFIG_FORMAT!r}")
    return _deep_update(cfg, doc)


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


def check_dataset(ds_cfg: dict) -> None:
    """Every file name the dataset's kind reads is present and a string."""
    kind = ds_cfg.get("kind")
    if not isinstance(kind, str) or kind not in DATASET_PATHS:
        raise InputError(f"unknown dataset kind {kind!r}; expected secom, tep or csv")
    for key in DATASET_PATHS[kind]:
        if key not in ds_cfg:
            raise InputError(f"dataset of kind {kind!r} needs the key {key!r}")
        if not isinstance(ds_cfg[key], str):
            raise InputError(f"dataset key {key!r} of kind {kind!r} must be a string, "
                             f"got {ds_cfg[key]!r}")


def load_dataset(cfg: dict) -> TabularDataset:
    ds_cfg = cfg.get("dataset")
    if not ds_cfg:
        raise InputError("no dataset configured; pass --dataset or set it in the config")
    check_dataset(ds_cfg)
    kind = ds_cfg["kind"]
    if kind == "secom":
        return data_mod.load_secom(ds_cfg["features"], ds_cfg["labels"])
    if kind == "tep":
        return data_mod.load_tep(ds_cfg["path"], ds_cfg.get("fault_classes"))
    return data_mod.load_labeled_csv(ds_cfg["path"], ds_cfg.get("label_column", "label"))


def build_train_config(cfg: dict) -> TrainConfig:
    t = cfg["train"]
    kind = (cfg.get("dataset") or {}).get("kind")
    epochs = t["epochs"] if t["epochs"] is not None else (30 if kind == "tep" else 40)
    latent_dim = t["latent_dim"] if t["latent_dim"] is not None else (32 if kind == "tep" else 64)
    if t["mode"] not in MODES:
        raise InputError(f"config key 'train.mode' must be one of {MODES}, got {t['mode']!r}")
    rate = t["dropout_rate"]
    if not 0.0 <= rate < 1.0:
        raise InputError(f"config key 'train.dropout_rate' must be in [0, 1), got {rate}")
    return TrainConfig(
        mode=t["mode"], epochs=int(epochs), batch_size=int(t["batch_size"]),
        learning_rate=float(t["learning_rate"]), latent_dim=int(latent_dim),
        hidden_widths=[int(w) for w in t["hidden_widths"]],
        weights=LossWeights(latent_weight=float(t["latent_weight"]),
                            classifier_weight=float(t["classifier_weight"]),
                            entropy_weight=float(t["entropy_weight"])),
        corruption_std=float(t["corruption_std"]), dropout_keep=1.0 - rate,
        bn_momentum=float(t["bn_momentum"]), bn_epsilon=float(t["bn_epsilon"]),
        seed=int(cfg["seed"]),
    )


def build_svm_config(cfg: dict) -> SvmConfig:
    s = cfg["svm"]
    kind = s["kernel"]
    gamma = s.get("gamma")
    degree = int(s["degree"])
    coef0 = s.get("coef0")
    if kind == "linear":
        kernel = KernelSpec.linear()
    elif kind == "polynomial":
        kernel = KernelSpec.polynomial(coef0=1.0 if coef0 is None else float(coef0),
                                       degree=degree)
    elif kind == "rbf":
        kernel = KernelSpec.rbf(gamma=None if gamma is None else float(gamma))
    elif kind == "sigmoid":
        kernel = KernelSpec.sigmoid(gamma=None if gamma is None else float(gamma),
                                    coef0=0.0 if coef0 is None else float(coef0))
    else:
        raise InputError(f"config key 'svm.kernel' must be linear, polynomial, rbf or "
                         f"sigmoid, got {kind!r}")
    return SvmConfig(kernel=kernel, c=float(s["c"]), tol=float(s["tol"]),
                     max_passes=int(s["max_passes"]))


def write_csv(path: str, header: list[str], rows) -> None:
    """Rows of Python ints, floats and strings (``.tolist()`` values, not
    numpy scalars); a float is written as its shortest round-trip repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _prepare(cfg: dict):
    raw = load_dataset(cfg)
    p = cfg["preprocess"]
    return data_mod.run_pipeline(raw, drop_threshold=float(p["drop_threshold"]),
                                 test_fraction=float(p["test_fraction"]),
                                 seed=int(cfg["seed"]))


def _out_dir(cfg: dict) -> str:
    out = cfg["output_dir"]
    os.makedirs(out, exist_ok=True)
    return out


def cmd_preprocess(cfg: dict) -> int:
    prepared = _prepare(cfg)
    out = _out_dir(cfg)
    for name, split in (("train", prepared.train), ("test", prepared.test)):
        write_csv(os.path.join(out, f"{name}.csv"),
                  prepared.kept_names + ["label"],
                  (row + [lab] for row, lab in zip(split.features.tolist(),
                                                   split.labels.tolist())))
    write_json(os.path.join(out, "preprocess_report.json"), prepared.report.to_json_dict())
    print(f"wrote train.csv, test.csv, preprocess_report.json to {out}")
    return 0


def cmd_train(cfg: dict) -> int:
    train_cfg = build_train_config(cfg)
    svm_cfg = build_svm_config(cfg)
    prepared = _prepare(cfg)
    model = train_pipeline(prepared, train_cfg, svm_cfg)
    # preprocessing knobs ride along so later commands can replay the split
    model.preprocess = {"drop_threshold": float(cfg["preprocess"]["drop_threshold"]),
                        "test_fraction": float(cfg["preprocess"]["test_fraction"])}
    model.dataset = cfg.get("dataset")
    out = _out_dir(cfg)
    write_json(os.path.join(out, "model.json"), bundle_dict(model))
    if model.epoch_logs:
        write_csv(os.path.join(out, "loss_history.csv"),
                  ["epoch", "l_recon", "l_latent", "l_clf", "l_ent", "l_total"],
                  ((e.epoch, e.recon, e.latent, e.clf, e.ent, e.total)
                   for e in model.epoch_logs))
    write_json(os.path.join(out, "preprocess_report.json"), model.report.to_json_dict())
    svm = model.svm
    if not svm.converged:
        print(f"warning: svm update budget ({svm_cfg.max_passes} per row) ran out "
              f"with KKT gap {svm.kkt_gap:.3g} above tol {svm_cfg.tol:g}", file=sys.stderr)
    print(f"svm: {svm.n_sweeps} pair updates, KKT gap {svm.kkt_gap:.3g}, "
          f"{svm.dual_coef.size} support vectors")
    print(f"wrote model.json to {out} (mode {model.mode})")
    return 0


def _load_model(cfg: dict, args) -> TrainedModel:
    return load_bundle(args.model or os.path.join(cfg["output_dir"], "model.json"))


def _replay(model: TrainedModel, cfg: dict) -> TabularDataset:
    """Every row of the dataset, scaled with the preprocessing state stored
    in the bundle.
    """
    ds_cfg = cfg.get("dataset") or model.dataset
    if not ds_cfg:
        raise InputError("no dataset configured and none recorded in the model bundle")
    raw = load_dataset({"dataset": ds_cfg})
    pre = model.preprocess or {}
    if raw.features.shape[1] == len(model.original_names):
        # replay guard: the same missing-data census must drop the same columns
        _, drop = data_mod.missing_census(raw.features, float(pre.get("drop_threshold", 0.30)))
        if [raw.feature_names[j] for j in np.flatnonzero(~drop)] != model.kept_names:
            raise ClaireError(
                "replayed preprocessing kept a different column set than the model "
                "bundle records; the dataset does not match the one trained on")
    scaled = data_mod.apply_saved_preprocessing(raw.features, model.original_names,
                                                model.kept_names, model.medians,
                                                model.scaler)
    return TabularDataset(scaled, raw.labels, list(model.kept_names))


def _split(model: TrainedModel, rows: TabularDataset) -> tuple[TabularDataset, TabularDataset]:
    """The train and test splits of replayed rows, as the model saw them."""
    test_fraction = float((model.preprocess or {}).get("test_fraction", 0.2))
    return stratified_split(rows, test_fraction, substream_seed(model.seed, "split"))


def _replay_view(model: TrainedModel, cfg: dict, split: str):
    """Scaled features and labels for the requested split of the dataset."""
    rows = _replay(model, cfg)
    if split != "all":
        train, test = _split(model, rows)
        rows = train if split == "train" else test
    return rows.features, rows.labels


def _column_index(model: TrainedModel, key: str, column) -> int:
    """Index among the kept columns of a column given by name or index."""
    if not isinstance(column, str):
        if 0 <= int(column) < len(model.kept_names):
            return int(column)
        raise InputError(f"explain.{key} index {column} is outside the "
                         f"{len(model.kept_names)} kept columns")
    if column in model.kept_names:
        return model.kept_names.index(column)
    why = ("was dropped by preprocessing" if column in model.original_names
           else "is not a column of the dataset")
    raise InputError(f"explain.{key} {column!r} {why}")


def cmd_eval(cfg: dict, args) -> int:
    model = _load_model(cfg, args)
    features, labels = _replay_view(model, cfg, args.split)
    codes = model_codes(model, features)
    from .svm import predict_labels
    preds = predict_labels(model.svm, codes)
    report = compute_metrics(labels, preds)
    out = _out_dir(cfg)
    write_json(os.path.join(out, "metrics.json"),
               {"mode": model.mode, "split": args.split, "n_rows": int(labels.shape[0]),
                **report.to_json_dict()})
    print(f"accuracy {report.accuracy:.4f}  macro-F1 {report.f1:.4f}  "
          f"({args.split} split, {labels.shape[0]} rows)")
    return 0


def cmd_explain(cfg: dict, args) -> int:
    model = _load_model(cfg, args)
    if model.network is None:
        raise InputError("model bundle has no encoder (RawSVM mode); nothing to explain")
    e = cfg["explain"]
    output, k = e["output"], model.network.latent_dim
    if output != "mean" and not (isinstance(output, int) and 0 <= output < k):
        raise InputError(f"config key 'explain.output' must be \"mean\" or a latent "
                         f"dimension in [0, {k}), got {output!r}")

    def flag_or_config(key):
        value = getattr(args, key)
        return e[key] if value is None else value

    n_bg = int(flag_or_config("n_background"))
    n_eval = int(flag_or_config("n_eval"))
    n_coalitions = flag_or_config("n_coalitions")
    if n_coalitions is not None:
        n_coalitions = int(n_coalitions)
    feat, color = (None if e[key] is None else _column_index(model, key, e[key])
                   for key in ("dependence_feature", "dependence_color"))
    train, test = _split(model, _replay(model, cfg))
    train_x, test_x, test_labels = train.features, test.features, test.labels
    per_row = explain_plan(train_x.shape[0], test_x.shape[0], test_x.shape[1],
                           n_bg, n_eval, n_coalitions)
    print(f"explain: {n_eval} rows x {per_row} coalitions x {n_bg} background rows "
          f"= {n_eval * per_row * n_bg} encoder rows")
    attr = explain_encoder(model.network, train_x, test_x,
                           feature_names=model.kept_names,
                           n_background=n_bg, n_eval=n_eval,
                           n_coalitions=n_coalitions,
                           seed=substream_seed(int(cfg["seed"]), "shap"))
    out = _out_dir(cfg)
    eval_x = test_x[:n_eval]
    eval_labels = test_labels[:n_eval]

    names = attr.feature_names
    write_csv(os.path.join(out, "attributions.csv"),
              ["sample", "feature", "latent_dim", "value"],
              ((i, names[j], l, v)
               for i, sample in enumerate(attr.values.tolist())
               for j, outputs in enumerate(sample)
               for l, v in enumerate(outputs)))
    write_json(os.path.join(out, "base_values.json"),
               {"base_values": attr.base_values.tolist()})

    ranking = global_importance(attr)
    write_csv(os.path.join(out, "importance_global.csv"),
              ["rank", "feature", "msv"] + [f"dim_{l}" for l in range(attr.n_outputs)],
              ((r + 1, f, msv, *per_output) for r, (f, msv, per_output) in enumerate(
                  zip(ranking.features, ranking.msv.tolist(), ranking.per_output.tolist()))))

    classes = class_conditional_importance(attr, eval_labels)
    fail_msv = dict(zip(classes.failure.features, classes.failure.msv.tolist()))
    succ_msv = dict(zip(classes.success.features, classes.success.msv.tolist()))
    write_csv(os.path.join(out, "importance_class.csv"),
              ["rank", "feature", "contrast", "failure_msv", "success_msv"],
              ((r + 1, f, c, fail_msv[f], succ_msv[f]) for r, (f, c) in enumerate(
                  zip(classes.contrast_features, classes.contrast.tolist()))))

    eval_rows = eval_x.tolist()
    for dim in (d for d in e["beeswarm_dims"] if 0 <= d < attr.n_outputs):
        write_csv(os.path.join(out, f"beeswarm_dim_{dim}.csv"),
                  ["sample", "feature", "feature_value", "shap_value"],
                  ((i, names[j], fv, sv)
                   for i, (row, shap) in enumerate(zip(eval_rows,
                                                       attr.values[:, :, dim].tolist()))
                   for j, (fv, sv) in enumerate(zip(row, shap))))

    feat_idx = ranking.order[0] if feat is None else feat
    color_idx = (ranking.order[1] if color is None and len(ranking.order) > 1
                 else feat_idx if color is None else color)
    rows = dependence_export(attr, eval_x, int(feat_idx), int(color_idx), output)
    write_csv(os.path.join(out, "dependence.csv"),
              ["feature", "feature_value", "attribution", "color_feature", "color_value"],
              ((model.kept_names[int(feat_idx)], fv, sv,
                model.kept_names[int(color_idx)], cv) for fv, sv, cv in rows))
    print(f"wrote attribution exports for {n_eval} samples to {out}")
    return 0


def cmd_project(cfg: dict, args) -> int:
    model = _load_model(cfg, args)
    features, labels = _replay_view(model, cfg, args.split)
    codes = model_codes(model, features)
    projection = lda_fit(codes, labels)
    export = project_export(projection, codes, labels)
    out = _out_dir(cfg)
    write_csv(os.path.join(out, "lda_projection.csv"), ["projection", "label"],
              export["rows"])
    write_json(os.path.join(out, "lda_summary.json"),
               {"split": args.split, **export["summary"]})
    print(f"dprime {export['summary']['dprime']:.4f} on {args.split} split")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="claire",
        description="Fault detection: denoising autoencoder + kernel SVM with "
                    "Shapley attributions and separability analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file (claire-config/1)")
        p.add_argument("--seed", type=int, help="root random seed")
        p.add_argument("--out", help="output directory")
        p.add_argument("--dataset",
                       help="secom:FEATURES:LABELS | tep:PATH[:faults=1,2] "
                            "| csv:PATH[:label=NAME]")
        p.add_argument("--mode", choices=["CLAIRE", "PlainAE", "RawSVM"],
                       help="training mode")

    p = sub.add_parser("preprocess", help="run the preprocessing pipeline and export splits")
    common(p)

    p = sub.add_parser("train", help="train phase 1 and 2 and save a model bundle")
    common(p)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float)

    for name, extra in (("eval", "score a trained model"),
                        ("explain", "export attribution tables"),
                        ("project", "export the discriminant projection")):
        p = sub.add_parser(name, help=extra)
        common(p)
        p.add_argument("--model", help="model bundle path (default: OUT/model.json)")
        if name in ("eval", "project"):
            p.add_argument("--split", choices=["train", "test", "all"], default="test")
        if name == "explain":
            p.add_argument("--n-background", type=int, dest="n_background")
            p.add_argument("--n-eval", type=int, dest="n_eval")
            p.add_argument("--n-coalitions", type=int, dest="n_coalitions")
    return parser


def resolve_config(args) -> dict:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["output_dir"] = args.out
    if args.dataset is not None:
        cfg["dataset"] = parse_dataset_spec(args.dataset)
    if args.mode is not None:
        cfg["train"]["mode"] = args.mode
    if getattr(args, "epochs", None) is not None:
        cfg["train"]["epochs"] = args.epochs
    if getattr(args, "learning_rate", None) is not None:
        cfg["train"]["learning_rate"] = args.learning_rate
    if cfg["dataset"]:
        check_dataset(cfg["dataset"])
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "preprocess":
            return cmd_preprocess(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg, args)
        if args.command == "explain":
            return cmd_explain(cfg, args)
        if args.command == "project":
            return cmd_project(cfg, args)
        raise InputError(f"unknown command {args.command!r}")
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ClaireError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
