import threading
import tracemalloc

import numpy as np
import pytest

from claire.data import TabularDataset
from claire.network import _parameter_slots


@pytest.fixture
def two_cloud_dataset():
    """Two well-separated Gaussian clouds in 6 features, values in [0, 1]."""
    rng = np.random.default_rng(123)
    n = 100
    center1 = np.full(6, 0.65)
    center0 = np.full(6, 0.35)
    x = np.vstack([rng.normal(center1, 0.05, size=(n, 6)),
                   rng.normal(center0, 0.05, size=(n, 6))])
    x = np.clip(x, 0.0, 1.0)
    labels = np.array([1] * n + [0] * n, dtype=np.int64)
    perm = rng.permutation(2 * n)
    return TabularDataset(x[perm], labels[perm], [f"f{j}" for j in range(6)])


@pytest.fixture
def no_thread_left():
    """Checks that as many threads are alive as the test found, when it
    ends and whenever it calls the fixture's value: every lane it started
    was joined."""
    before = threading.active_count()

    def check():
        assert threading.active_count() == before
    yield check
    check()


def make_dataset(features, labels, names=None):
    features = np.asarray(features, dtype=np.float64)
    if names is None:
        names = [f"c{j}" for j in range(features.shape[1])]
    return TabularDataset(features, np.asarray(labels, dtype=np.int64), names)


def named_parameters(params):
    """(name, array) of every trainable parameter, in the order of the
    network's parameter vector and of its gradient."""
    return [(name, getattr(owner, attr)) for name, owner, attr in _parameter_slots(params)]


def peak_bytes(call) -> int:
    """The most bytes that ``call()`` held at once, numpy's buffers included
    (numpy reports them to tracemalloc)."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
