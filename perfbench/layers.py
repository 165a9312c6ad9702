"""Which claire functions the traced run wraps, and the metrics they give.

Layers are claire's modules. Each entry names the namespace the caller
reads the function from; ``claire.cli`` imported several names directly,
``training`` imported the network and svm entry points, and the data
loaders are reached as ``data_mod.<name>``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from spans import Tracer

LAYER_NAMES = ("enc0", "enc1", "enc2", "dec0", "dec1", "dec2", "clf")

TIMES = [
    ("data.load_s", "data.load"),
    ("data.preprocess_s", "data.preprocess"),
    ("numerics.rng_s", "numerics.rng"),
    ("network.forward_s", "network.forward"),
    ("network.backward_s", "network.backward"),
    ("network.adam_s", "network.adam"),
    ("network.corrupt_s", "network.corrupt"),
    ("network.losses_s", "network.losses"),
    *[(f"network.{n}.{d}_s", f"network.{n}.{d}") for n in LAYER_NAMES for d in ("fwd", "bwd")],
    ("network.encode_s", "network.encode"),
    ("training.phase1_s", "training.phase1"),
    ("training.extract_latent_s", "training.extract_latent"),
    ("training.phase2_s", "training.phase2"),
    ("svm.smo_s", "svm.smo"),
    ("svm.gram_s", "svm.gram"),
    ("svm.decision_s", "svm.decision"),
    ("explain.shap_s", "explain.shap"),
    ("explain.encoder_s", "explain.encoder"),
    ("explain.solve_s", "explain.solve"),
    ("model_io.load_s", "model_io.load"),
    ("model_io.bundle_dict_s", "model_io.bundle_dict"),
]
COUNTS = ["data.load_calls", "numerics.rng_calls", "network.steps", "network.encode_rows",
          "svm.decision_rows", "explain.encoder_rows", "model_io.load_calls"]
COMMANDS = ("train", "eval", "explain")

# name -> (unit, better), in the order BENCHMARK.json lists them
PER_LAYER = {
    **{name: ("s", "lower") for name, _ in TIMES},
    "explain.outside_encoder_s": ("s", "lower"),
    "model_io.save_s": ("s", "lower"),
    **{f"cli.{c}.self_s": ("s", "lower") for c in COMMANDS},
    **{f"cli.{c}.wall_s": ("s", "lower") for c in COMMANDS},
    **{name: ("count", "lower") for name in COUNTS},
    "svm.sweeps": ("count", "lower"),
    "svm.support_vectors": ("count", "lower"),
    "svm.converged": ("0/1", "higher"),
    "svm.kkt_gap": ("1", "lower"),
    "explain.additivity_gap": ("1", "lower"),
}


@dataclass
class Captured:
    """What the wrappers keep for the metrics computed after the trace."""
    layer_names: dict[int, str] = field(default_factory=dict)
    model: object = None
    smo_inputs: tuple | None = None


def install(tracer: Tracer, claire) -> Captured:
    cli, data, network, training, svm, explain, numerics = (
        claire.cli, claire.data, claire.network, claire.training, claire.svm,
        claire.explain, claire.numerics)
    got = Captured()

    def count(name, rows=None):
        def after(args, kwargs, result, seconds):
            tracer.counts[name] += 1 if rows is None else rows(args)
        return after

    def on_build(args, kwargs, params, seconds):
        layers = [*params.encoder, *params.decoder, params.classifier]
        got.layer_names = {id(layer): name for layer, name in zip(layers, LAYER_NAMES)}

    def dense_key(direction):
        def key(layer, *args, **kwargs):
            training_mode = direction == "bwd" or (args[1] if len(args) > 1
                                                   else kwargs.get("training"))
            name = got.layer_names.get(id(layer))
            return f"network.{name}.{direction}" if training_mode and name else None
        return key

    def on_encode(args, kwargs, result, seconds):
        tracer.counts["network.encode_rows"] += result.shape[0]
        if tracer.active("explain.shap"):
            tracer.totals["explain.encoder"] += seconds
            tracer.counts["explain.encoder_rows"] += result.shape[0]

    def on_smo(args, kwargs, result, seconds):
        got.smo_inputs = (args[0], args[1])
        tracer.values["svm.sweeps"] = result.n_sweeps
        tracer.values["svm.converged"] = int(result.converged)
        tracer.values["svm.support_vectors"] = result.dual_coef.size

    def on_pipeline(args, kwargs, model, seconds):
        got.model = model

    w = tracer.wrap
    for name in ("load_secom", "load_tep"):
        w(data, name, "data.load", count("data.load_calls"))
    for name in ("run_pipeline", "apply_saved_preprocessing", "handle_missing"):
        w(data, name, "data.preprocess")
    w(cli, "stratified_split", "data.preprocess")
    for name in ("normal", "bernoulli"):
        w(numerics.RngStream, name, "numerics.rng", count("numerics.rng_calls"))
    w(training, "build_network", "network.build", on_build)
    w(training, "training_forward", "network.forward")
    w(training, "backward", "network.backward")
    w(training, "adam_step", "network.adam", count("network.steps"))
    w(training, "corrupt", "network.corrupt")
    w(training, "batch_losses", "network.losses")
    w(training, "total_loss", "network.losses")
    w(network, "dense_forward", dense_key("fwd"))
    w(network, "dense_backward", dense_key("bwd"))
    w(training, "encode", "network.encode", on_encode)
    w(network, "encode", "network.encode", on_encode)
    w(training, "train_phase1", "training.phase1")
    w(training, "extract_latent", "training.extract_latent")
    w(training, "train_phase2", "training.phase2")
    w(training, "smo_train", "svm.smo", on_smo)
    w(svm, "kernel_matrix",
      lambda *a, **kw: "svm.gram" if tracer.active("svm.smo") else None)
    w(svm, "decision_function", "svm.decision",
      count("svm.decision_rows", rows=lambda a: a[1].shape[0]))
    w(cli, "explain_encoder", "explain.shap")
    w(explain, "solve_weighted_least_squares", "explain.solve")
    w(cli, "load_bundle", "model_io.load", count("model_io.load_calls"))
    w(cli, "bundle_dict", "model_io.bundle_dict")
    w(cli, "train_pipeline", "training.pipeline", on_pipeline)
    for command in COMMANDS:
        w(cli, f"cmd_{command}", f"cli.{command}")
    return got


def per_layer_metrics(tracer: Tracer, extra: dict) -> dict:
    """Every per-layer metric. Both workloads enter every layer, so a
    metric that was never recorded means a wrapper no longer sees its
    calls, and the traced run fails rather than report a 0."""
    out = {name: tracer.totals[key] for name, key in TIMES if key in tracer.totals}
    if "explain.shap_s" in out and "explain.encoder_s" in out:
        out["explain.outside_encoder_s"] = out["explain.shap_s"] - out["explain.encoder_s"]
    for command in COMMANDS:
        if f"cli.{command}" in tracer.totals:
            out[f"cli.{command}.self_s"] = tracer.self_time[f"cli.{command}"]
            out[f"cli.{command}.wall_s"] = tracer.totals[f"cli.{command}"]
    out.update({name: int(tracer.counts[name]) for name in COUNTS if name in tracer.counts})
    out.update(tracer.values)
    out.update(extra)
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise KeyError(f"per-layer metrics never recorded: {sorted(missing)}")
    return {name: out[name] for name in PER_LAYER}
