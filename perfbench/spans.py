"""In-memory span recording around calls into the program's layers.

A span has a name such as ``oracle.verify_closed_form``, whose prefix up
to the first dot is the layer, a start and end from ``time.perf_counter``,
and the index of the span that was open when it started (-1 for none).
One :class:`Tracer` records one invocation; every span it records shares
that invocation's id once the runner merges the files.

Self time of a span is its duration minus the durations of its direct
children; spans come from one call stack, so those children are disjoint
and lie inside it.  Busy time of a layer is the summed duration of that
layer's outermost spans.
"""

from __future__ import annotations

import functools
import json
import time
from array import array

import numpy as np


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    """Records spans in flat arrays, so hot leaf calls stay cheap."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.extras: dict[int, dict] = {}
        self._stack = [-1]

    def _open(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        span = len(self.start)
        self.name.append(index)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(span)
        return span

    def wrap(self, fn, name: str, extra=None):
        """Return ``fn`` recording one span per call.

        ``extra(args, kwargs, result, exc)`` may return a dict of counts to
        attach to the span; ``result`` is None when the call raised ``exc``.
        """
        perf_counter = time.perf_counter
        stack = self._stack
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as error:
                exc = error
                raise
            finally:
                ends[span] = perf_counter()
                starts[span] = t0
                stack.pop()
                if extra is not None:
                    self.extras[span] = extra(args, kwargs, result, exc)

        return traced

    def call(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span named ``name``."""
        return self.wrap(fn, name)(*args)

    def save(self, path) -> None:
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            meta=np.array(json.dumps({
                "names": self.names,
                "extras": {str(k): v for k, v in self.extras.items()},
            })),
        )


class Spans:
    """Spans of one invocation, as loaded from a :meth:`Tracer.save` file."""

    def __init__(self, names, name, parent, start, end, extras):
        self.names = list(names)
        self.name = np.asarray(name, dtype=np.int64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.extras = {int(k): v for k, v in extras.items()}

    @classmethod
    def load(cls, path) -> "Spans":
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            return cls(meta["names"], data["name"], data["parent"], data["start"],
                       data["end"], meta["extras"])

    def __len__(self) -> int:
        return self.start.size

    def find(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self.name == self.names.index(name))

    @functools.cached_property
    def layers(self) -> np.ndarray:
        """Layer name of every span."""
        return np.array([layer_of(n) for n in self.names], dtype=object)[self.name]

    def self_time(self, span: int) -> float:
        """Duration of ``span`` minus the durations of its direct children."""
        children = self.parent == span
        return float((self.end[span] - self.start[span])
                     - np.sum(self.end[children] - self.start[children]))

    def outermost(self, layer: str) -> np.ndarray:
        """Spans of ``layer`` whose parent is not a span of the same layer."""
        layers = self.layers
        mine = layers == layer
        parent_layer = np.where(self.parent >= 0, layers[np.maximum(self.parent, 0)], None)
        return np.flatnonzero(mine & (parent_layer != layer))

    def busy(self, layer: str) -> tuple[int, float]:
        """(calls, seconds) of the layer's outermost spans."""
        spans = self.outermost(layer)
        return spans.size, float(np.sum(self.end[spans] - self.start[spans]))

    def extra_values(self, layer: str, key: str) -> list:
        return [self.extras[int(s)][key] for s in self.outermost(layer)
                if key in self.extras.get(int(s), {})]

