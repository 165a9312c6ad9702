"""Per-layer timing by wrapping claire's public functions from outside.

Each wrapper replaces a name in the namespace its caller reads it from
(``claire.cli.load_bundle``, ``claire.training.adam_step``, a method on
``RngStream``), so the program runs unedited. A wrapped call is a span.
A metric's total counts only the outermost of its nested spans; a span's
self time is its duration minus that of the spans directly inside it.
"""
from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.totals: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.values: dict[str, float] = {}
        self._stack: list[list] = []     # [key, start, child seconds]
        self._patches: list[tuple] = []

    def active(self, key: str) -> bool:
        return any(frame[0] == key for frame in self._stack)

    def wrap(self, owner, name: str, key, after=None) -> None:
        """Replace ``owner.name`` with a timed call.

        ``key`` is a metric name, or a function of the call's arguments that
        returns one or None (None runs the call untimed). ``after(args,
        kwargs, result, seconds)`` runs after every timed call.
        """
        original = getattr(owner, name)
        key_of = key if callable(key) else (lambda *a, **kw: key)
        tracer = self

        def traced(*args, **kwargs):
            k = key_of(*args, **kwargs)
            if k is None:
                return original(*args, **kwargs)
            frame = [k, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._stack.pop()
                seconds = time.perf_counter() - frame[1]
                if not tracer.active(k):
                    tracer.totals[k] += seconds
                tracer.self_time[k] += seconds - frame[2]
                if tracer._stack:
                    tracer._stack[-1][2] += seconds
            if after is not None:
                after(args, kwargs, result, seconds)
            return result

        self._patches.append((owner, name, original))
        setattr(owner, name, traced)

    def restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
