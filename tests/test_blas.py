"""The lane runner ``blas.in_lanes``; BLAS held at one thread around
``explain_encoder``, and explain's output bytes at any BLAS thread count.

The BLAS tests need the thread count setter of the OpenBLAS in numpy's
wheel; with another BLAS build explain leaves the count alone and its
bytes may follow it.
"""
import contextlib
import io
import json
import os
import subprocess
import sys
import threading
import time

import pytest

import claire
import claire.blas as blas
import claire.explain as explain_mod
from claire.cli import main
from claire.explain import explain_encoder
from claire.network import build_network
from claire.numerics import RngStream
from claire.synthetic import make_process_dataset, write_process_file

needs_setter = pytest.mark.skipif(blas.thread_calls() is None,
                                  reason="numpy's BLAS has no thread count setter")

CLI = "import sys; from claire.cli import main; sys.exit(main(sys.argv[1:]))"


# ---- the lane runner; these tests need no thread count setter ----

def test_in_lanes_draws_a_job_only_once_every_lane_finished_the_last(no_thread_left):
    """Lane 0, the caller, finishes each job first, and lane 2 last."""
    done, seen = [], []

    def jobs():
        for k in range(4):
            seen.append(sorted(done))

            def job(lane, k=k):
                assert (lane == 0) == (threading.current_thread() is threading.main_thread())
                time.sleep(0.005 * lane)
                done.append((k, lane))
            yield job
        seen.append(sorted(done))

    blas.in_lanes(3, jobs())
    no_thread_left()
    assert seen == [[(j, lane) for j in range(k) for lane in range(3)] for k in range(5)]


def test_in_lanes_on_one_lane_runs_every_job_on_the_caller(no_thread_left):
    threads = threading.active_count()
    ran = []

    def job(lane):
        assert threading.active_count() == threads
        ran.append((lane, threading.current_thread() is threading.main_thread()))
    blas.in_lanes(1, [job, job, job])
    no_thread_left()
    assert ran == [(0, True)] * 3


def test_in_lanes_raises_a_lane_exception_on_the_caller_as_it_was(no_thread_left):
    """Lane 2 fails on the third job: no job is drawn after it, and the
    caller gets that very exception once every lane is joined."""
    boom = RuntimeError("lane 2 failed")
    drawn = []

    def jobs():
        for k in range(5):
            drawn.append(k)

            def job(lane, k=k):
                if (k, lane) == (2, 2):
                    raise boom
            yield job

    with pytest.raises(RuntimeError) as caught:
        blas.in_lanes(3, jobs())
    no_thread_left()
    assert caught.value is boom and drawn == [0, 1, 2]


# ---- BLAS held at one thread ----

@pytest.fixture(scope="module")
def small_process(tmp_path_factory):
    """A CLAIRE model trained for one epoch on a 290-row process table."""
    root = tmp_path_factory.mktemp("blas")
    x, fault = make_process_dataset(n_normal=200, fault_sizes={1: 30, 2: 30, 3: 30})
    write_process_file(str(root / "process.csv"), x, fault)
    config = root / "config.json"
    config.write_text(json.dumps({"format": "claire-config/1", "train": {"epochs": 1},
                                  "explain": {"n_eval": 1}}))
    model = root / "model"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["train", "--dataset", f"tep:{root / 'process.csv'}", "--config",
                     str(config), "--seed", "1", "--out", str(model)]) == 0
    return {"root": root, "argv": ["explain", "--dataset", f"tep:{root / 'process.csv'}",
                                   "--config", str(config),
                                   "--model", str(model / "model.json")]}


def files(directory) -> dict:
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


@needs_setter
def test_explain_writes_the_same_bytes_at_one_and_two_blas_threads(small_process):
    src = os.path.dirname(os.path.dirname(claire.__file__))
    written, plans = [], []
    for threads in ("1", "2"):
        out = small_process["root"] / f"explain_{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-c", CLI, *small_process["argv"],
                              "--out", str(out)],
                             env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        written.append(files(out))
        plans.append(run.stdout.splitlines()[0])
    assert len(written[0]) == 9                 # 4 attribution tables, 5 beeswarm and dependence
    assert written[0] == written[1]
    assert plans[0] == plans[1] and plans[0].endswith("BLAS 1 thread")


@pytest.fixture
def three_blas_threads():
    """BLAS at three threads, a count neither the default nor one, and
    back to the count it had after the test."""
    get, set_threads = blas.thread_calls()
    before = get()
    set_threads(3)
    yield get
    set_threads(before)


@needs_setter
@pytest.mark.parametrize("raises", [False, True])
def test_explain_encoder_puts_the_blas_thread_count_back(monkeypatch, three_blas_threads,
                                                         raises):
    get = three_blas_threads
    inside = []
    values = explain_mod._encoder_coalition_values

    def spy(*args):
        inside.append(get())
        if raises:
            raise RuntimeError("coalition values failed")
        return values(*args)

    monkeypatch.setattr(explain_mod, "_encoder_coalition_values", spy)
    net = build_network(6, [5], 3, RngStream(21))
    train, test = RngStream(22).uniform((30, 6)), RngStream(23).uniform((10, 6))
    with pytest.raises(RuntimeError) if raises else contextlib.nullcontext():
        explain_encoder(net, train, test, n_background=4, n_eval=2)
    assert inside == ([1] if raises else [1, 1])
    assert get() == 3


@needs_setter
def test_without_a_thread_setter_explain_runs_one_lane_with_the_same_bytes(
        small_process, monkeypatch, no_thread_left, capsys):
    """Both runs see one BLAS thread; the second cannot set the count, so
    it leaves BLAS alone and runs the coalition values on one lane."""
    lanes = []
    values = explain_mod._encoder_coalition_values
    monkeypatch.setattr(explain_mod, "_encoder_coalition_values",
                        lambda *args: lanes.append(args[4]) or values(*args))
    monkeypatch.setattr(blas, "usable_cpus", lambda: 2)
    root, argv = small_process["root"], small_process["argv"]
    with blas.one_thread():
        assert main([*argv, "--out", str(root / "pinned")]) == 0
        monkeypatch.setattr(blas, "thread_calls", lambda: None)
        assert main([*argv, "--out", str(root / "unpinned")]) == 0
    assert lanes == [2, 1]
    plans = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("explain: 1 rows")]
    assert [plan.split("coalition rows")[1] for plan in plans] == [
        " on 2 lanes, BLAS 1 thread", "; BLAS thread count not pinned; 1 lane"]
    pinned, unpinned = files(root / "pinned"), files(root / "unpinned")
    assert len(pinned) == 9 and pinned == unpinned
