"""Spans around the public csmimo functions on the simulate path.

A :class:`Tracer` replaces each traced function in the module namespace its
caller looks it up in (``csmimo.harness`` imports most of them by name, and
``csmux.multiplex`` and ``detection.demux`` call ``transmit_gain`` and
``zf_equalize`` through their own modules).  Each call records one span with
the index of its parent span; leaving the ``with`` block puts every original
function back.  Spans stay in memory and are summarized afterwards.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (module under csmimo, attribute, span name).  A function called from two
# namespaces is wrapped in both, and both call sites share one span name.
TARGETS = (
    ("harness", "gen_phi", "csmux.gen_phi"),
    ("harness", "build_dictionary", "dictionary.build_dictionary"),
    ("harness", "sensing_matrix", "detection.sensing_matrix"),
    ("harness", "symbol_indices", "modem.symbol_indices"),
    ("harness", "multiplex", "csmux.multiplex"),
    ("csmux", "transmit_gain", "csmux.transmit_gain"),
    ("detection", "transmit_gain", "csmux.transmit_gain"),
    ("harness", "sample_channel", "channel.sample_channel"),
    ("harness", "channel_is_usable", "detection.channel_is_usable"),
    ("harness", "apply_channel", "channel.apply_channel"),
    ("harness", "zf_equalize", "detection.zf_equalize"),
    ("detection", "zf_equalize", "detection.zf_equalize"),
    ("harness", "demux", "detection.demux"),
    ("harness", "nearest_point_indices", "modem.nearest_point_indices"),
)

ROOT = "harness.run_sweep"

# transmit_gain is counted, but its time stays in the self time of its
# caller: multiplex is measured including its gain, and demux's self time
# is demux minus zf_equalize only.
FOLDED = frozenset({"csmux.transmit_gain"})


class Tracer:
    """Context manager that wraps :data:`TARGETS` and records spans.

    ``spans[i]`` is ``(name, parent, start_ns, end_ns)`` where ``parent`` is
    the index of the enclosing span, or -1 for a root span.  Times come
    from ``clock``, in nanoseconds.
    """

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self._clock = clock
        self.spans: list[tuple[str, int, int, int] | None] = []
        self._stack = [-1]
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, self._clock

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, parent, start, end)

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        return self._wrap(name, fn)(*args, **kwargs)

    def __enter__(self) -> "Tracer":
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(f"csmimo.{module_name}")
            original = getattr(module, attr)
            if hasattr(original, "__wrapped__"):
                raise RuntimeError(f"csmimo.{module_name}.{attr} is already wrapped")
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))
        return self

    def __exit__(self, *exc) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)


def summarize(spans) -> dict[str, dict[str, int]]:
    """Per span name: ``calls``, inclusive ``total_ns`` and ``self_ns``.

    A span's self time is its duration minus the durations of its direct
    children, except children in :data:`FOLDED`, whose time stays with the
    parent (and whose own self time is 0).  Calls are synchronous, so the
    self times of all spans add up to the durations of the root spans.
    """
    child_ns = defaultdict(int)
    for name, parent, start, end in spans:
        if parent >= 0 and name not in FOLDED:
            child_ns[parent] += end - start
    out: dict[str, dict[str, int]] = defaultdict(
        lambda: {"calls": 0, "total_ns": 0, "self_ns": 0}
    )
    for sid, (name, _parent, start, end) in enumerate(spans):
        entry = out[name]
        entry["calls"] += 1
        entry["total_ns"] += end - start
        if name not in FOLDED:
            entry["self_ns"] += end - start - child_ns[sid]
    return dict(out)
