#!/usr/bin/env python3
"""Benchmark claire's train, eval and explain commands end to end.

    python3 perfbench/run.py --workload line-claire --seed 1 --seconds 30 --trace 0

Run from the root of a claire source tree; the program is imported from
its ``src/`` directory and every command goes through ``claire.cli.main``
in this process, so interpreter start-up is not timed. ``--seed`` is
passed to every command as ``--seed``: it picks the split, the
oversampling, the initial weights, the noise and dropout draws and the SMO
pairs. The synthetic table is the generator's default one (the corpus the
README and the tests use) unless ``--data-seed`` picks another.

One run: set up (imports, then generate the table and write it in the
loader's file format, repeated), then train the workload's models, each
followed by a timed round of a few ``eval --split test`` calls and one
``explain`` on it (see timed_run). After the timing, untimed ``project``
calls and one ``eval --split all`` feed the output checks in checks.py.
With ``--trace 1`` the run instead makes one train, eval and explain call
under the wrappers of layers.py and reports per-layer figures.

The last line of standard output is one JSON object: correct, attempted
(claire commands called), failed (commands that exited non-zero) and the
metrics. Progress and diagnostics go to standard error.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS_DIR = ".perfbench_runs"
SETUP_REPEATS = 3
SEED_STRIDE = 1_000_003
EXPLAIN_ROWS = 1    # explain --n-eval
BLAS_THREADS = 1


@dataclass(frozen=True)
class Workload:
    table: str             # "line" (SECOM files) or "process" (tep: CSV)
    models: int            # models trained per run, on seeds SEED_STRIDE apart
    evals_per_round: int   # eval --split test calls per round


# Both workloads run CLAIRE mode at the CLI's defaults for their table.
# line-claire is the paper's headline case, where phase 1 on 560-wide
# layers and explain at d = 560 are matmul-bound. process-claire runs the
# same layers on the 52-variable process table, where each phase-1 step is
# bound by Python overhead and SMO is about half of train. A process-table
# model is cheap to train and its d' swings more from seed to seed, so a
# run trains three; its eval calls are short, so a round makes more of them.
WORKLOADS = {
    "line-claire": Workload("line", 2, 2),
    "process-claire": Workload("process", 3, 8),
}


class CommandFailed(Exception):
    pass


def pin_blas_threads() -> None:
    """Run BLAS on one thread, so a run never competes with itself for the
    cores; must happen before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "claire", "__init__.py")):
        sys.exit(f"perfbench: no claire package under {src}")
    sys.path.insert(0, src)
    import numpy  # noqa: F401  (timed as part of set-up)
    import claire
    import claire.cli
    import claire.synthetic
    if os.path.dirname(os.path.dirname(claire.__file__)) != src:
        sys.exit(f"perfbench: claire imported from {claire.__file__}, not from {src}")
    return claire


class Runner:
    """Calls claire commands in-process and counts them."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.warnings: list[str] = []

    def call(self, *argv: str) -> float:
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(argv))
        seconds = time.perf_counter() - start
        self.warnings += [line for line in err.getvalue().splitlines()
                          if line.startswith("warning")]
        if code != 0:
            self.failed += 1
            raise CommandFailed(f"claire {' '.join(argv)} exited {code}: "
                                f"{err.getvalue().strip()}")
        return seconds


def make_table(claire, table: str, data_seed: int | None, work: str):
    """Generate the workload's table and write it in its loader's format;
    ``data_seed`` None keeps the generator's own default seed. Returns the
    --dataset spec and the raw features and the 0/1 labels the loader makes."""
    synthetic = claire.synthetic
    seeded = {} if data_seed is None else {"seed": data_seed}
    if table == "line":
        ds = synthetic.make_wide_line_dataset(**seeded)
        features, labels = f"{work}/line.data", f"{work}/line_labels.data"
        synthetic.write_line_files(features, labels, ds)
        return f"secom:{features}:{labels}", ds.features, ds.labels
    x, fault = synthetic.make_process_dataset(**seeded)
    path = f"{work}/process.csv"
    synthetic.write_process_file(path, x, fault)
    # load_tep labels normal operation (fault class 0) as 1
    return f"tep:{path}", x, (fault == 0).astype(int)


def check_outputs(runner: Runner, out: str, raw_x, raw_y, first: bool) -> dict:
    """Output checks on one trained model, after an untimed project and, on
    the first model, an untimed eval --split all for the prediction check.
    Returns the figures the checks read or recomputed."""
    import checks

    bundle = checks.read_json(f"{out}/model.json")
    metrics_test = checks.read_json(f"{out}/metrics.json")
    checks.check_reported_metrics(metrics_test)
    checks.check_dual(bundle)
    if first:
        runner.call("eval", "--model", f"{out}/model.json", "--out", f"{out}/all",
                     "--split", "all")
        metrics_all = checks.read_json(f"{out}/all/metrics.json")
        checks.check_predictions(bundle, raw_x, raw_y, metrics_all)
        checks.check_reported_metrics(metrics_all)
    checks.check_loss_history(f"{out}/loss_history.csv")
    runner.call("project", "--out", out)
    kept = bundle["preprocessing"]["kept_feature_names"]
    attributions = checks.read_attributions(out, kept)
    if attributions.shape[0] != EXPLAIN_ROWS:
        raise checks.CheckFailed(f"explained {attributions.shape[0]} rows, "
                                 f"asked for {EXPLAIN_ROWS}")
    checks.check_ranking(out, kept, attributions)
    return {"metrics": metrics_test, "dprime": checks.check_projection(out),
            "bundle_mb": os.path.getsize(f"{out}/model.json") / 1e6,
            "additivity_gap": checks.check_additivity(out, bundle, attributions)}


def train(runner: Runner, spec: str, out: str, seed: int) -> float:
    return runner.call("train", "--dataset", spec, "--out", out, "--seed", str(seed),
                        "--mode", "CLAIRE")


def timed_run(runner, workload, spec, outs, seed, seconds) -> dict:
    """Train each model and follow it with one round on it: a few
    ``eval --split test`` calls and one ``explain``. More rounds, on the
    models in turn, follow until ``seconds`` have passed since the first
    training began. Spreading the calls over the run keeps one slow or
    fast stretch of the machine from setting the figures.

    Each timing is the mean call. The host switches between a fast and a
    slow speed for seconds at a time, so a run's calls fall in two
    clusters; the median of a few calls jumps from one cluster to the other
    as the slow share crosses a half, while the mean moves in proportion to
    it (see README, "Mean call, not median call")."""
    trains, evals, explains = [], [], []

    def one_round(out):
        for _ in range(workload.evals_per_round):
            evals.append(runner.call("eval", "--out", out, "--split", "test"))
        explains.append(runner.call("explain", "--out", out,
                                     "--n-eval", str(EXPLAIN_ROWS)))

    start = time.perf_counter()
    for i, out in enumerate(outs):
        trains.append(train(runner, spec, out, seed + SEED_STRIDE * i))
        one_round(out)
    rounds = len(outs)
    while time.perf_counter() - start < seconds:
        one_round(outs[rounds % len(outs)])
        rounds += 1
    print(f"perfbench: train {[round(t, 3) for t in trains]}; {rounds} rounds; "
          f"eval {[round(t, 3) for t in evals]}; explain {[round(t, 3) for t in explains]}",
          file=sys.stderr)
    return {"train_s": statistics.mean(trains), "eval_s": statistics.mean(evals),
            "explain_s": statistics.mean(explains)}


def traced_run(claire, runner, spec, out, seed) -> tuple:
    """One train, eval and explain call under the layer wrappers."""
    import layers
    from spans import Tracer

    with Tracer() as tracer:
        got = layers.install(tracer, claire)
        train(runner, spec, out, seed)
        runner.call("eval", "--out", out, "--split", "test")
        runner.call("explain", "--out", out, "--n-eval", str(EXPLAIN_ROWS))
    features, y = got.smo_inputs
    extra = {"svm.kkt_gap": claire.svm.kkt_violation(got.model.svm, features, y)}
    start = time.perf_counter()
    claire.model_io.save_bundle(f"{out}/saved_by_library.json", got.model)
    extra["model_io.save_s"] = time.perf_counter() - start
    return tracer, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--data-seed", type=int,
                        help="table seed (default: the generator's own, 7 for line, 11 for process)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    os.chdir(ROOT)
    pin_blas_threads()
    start = time.perf_counter()
    claire = import_program()
    import_s = time.perf_counter() - start
    import numpy

    work = os.path.join(RUNS_DIR, f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    print(f"perfbench: {args.workload} seed {args.seed} data-seed {args.data_seed} "
          f"trace {args.trace}; BLAS threads {BLAS_THREADS}, nproc {os.cpu_count()}, "
          f"numpy {numpy.__version__}, python {sys.version.split()[0]}", file=sys.stderr)

    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        spec, raw_x, raw_y = make_table(claire, workload.table, args.data_seed, work)
        setups.append(time.perf_counter() - t0)

    print(f"perfbench: set-up: imports {import_s:.3f} s, table "
          f"{[round(t, 3) for t in setups]} s", file=sys.stderr)
    runner = Runner(claire.cli)
    outs = [f"{work}/m{i}" for i in range(1 if args.trace else workload.models)]
    correct = True
    metrics: dict[str, tuple[float, str]] = {}
    try:
        if args.trace:
            tracer, extra = traced_run(claire, runner, spec, outs[0], args.seed)
        else:
            timed = timed_run(runner, workload, spec, outs, args.seed, args.seconds)
            # before the checks, whose own bundle parse and Gram would count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        found = [check_outputs(runner, out, raw_x, raw_y, first=i == 0)
                 for i, out in enumerate(outs)]
    except Exception as exc:   # a failed command or check is reported, not raised
        import checks
        if not isinstance(exc, (CommandFailed, checks.CheckFailed)):
            raise
        print(f"perfbench: FAILED: {exc}", file=sys.stderr)
        correct = False
    else:
        if args.trace:
            import layers
            extra["explain.additivity_gap"] = found[0]["additivity_gap"]
            for name, value in layers.per_layer_metrics(tracer, extra).items():
                metrics[name] = (value, layers.PER_LAYER[name][0])
        else:
            def mean_of(get):
                return statistics.mean(get(f) for f in found)

            metrics = {
                "setup_s": (import_s + statistics.median(setups), "s"),
                "train_s": (timed["train_s"], "s"),
                "eval_s": (timed["eval_s"], "s"),
                "explain_s": (timed["explain_s"], "s"),
                "bundle_mb": (mean_of(lambda f: f["bundle_mb"]), "MB"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "accuracy": (mean_of(lambda f: f["metrics"]["accuracy"]), "ratio"),
                "macro_f1": (mean_of(lambda f: f["metrics"]["f1_macro"]), "ratio"),
                "dprime": (mean_of(lambda f: f["dprime"]), "1"),
            }
        shutil.rmtree(work)
    if runner.warnings:
        print(f"perfbench: claire warned: {sorted(set(runner.warnings))}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
