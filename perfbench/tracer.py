"""Thread-safe span recorder for the traced benchmark run.

Spans are recorded by wrapping public fedsim functions at the module
attribute each caller looks the function up through.  fedsim modules bind
imported names at import time (`from .nn import train_local`), so wrapping
`fedsim.nn.train_local` alone would miss the call made by
`fedsim.aggregation`; every entry of CALL_SITES names the module whose
global is replaced.  A span's layer is the first dotted part of its name,
which is the fedsim module that implements the function.

With `threads: 2` two clients train concurrently, so spans are kept per
thread: a span opened on a worker thread with nothing open on that thread
takes as parent the innermost span open on the thread that opened the
current root (the scheduler thread, blocked in the round function).
"""

from __future__ import annotations

import importlib
import math
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    thread: int
    round: int | None  # round index within the experiment; None during set-up
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self, origin: float) -> dict:
        return {"id": self.id, "name": self.name, "start": self.start - origin,
                "end": self.end - origin, "parent": self.parent,
                "thread": self.thread, "round": self.round, **self.attrs}


def _train_attrs(args, kwargs, result) -> dict:
    # train_local(model, arch, batch, cfg, seed)
    batch, cfg = args[2], args[3]
    batches = -(-len(batch) // cfg.batch_size)
    return {"windows": len(batch) * cfg.local_epochs,
            "minibatches": batches * cfg.local_epochs,
            "frozen_prefix": cfg.frozen_prefix}


def _evaluate_attrs(args, kwargs, result) -> dict:
    # nn.evaluate(model, arch, inputs)
    return {"windows": len(args[2])}


def _select_attrs(args, kwargs, result) -> dict:
    return {"candidates": len(result)}


# (module whose global is replaced, attribute, span name, annotator).
CALL_SITES = (
    ("fedsim.scheduler", "generate_synthetic", "data.generate_synthetic", None),
    ("fedsim.scheduler", "concat_window_sets", "data.concat_window_sets", None),
    ("fedsim.scheduler", "init_model", "fabric.init_model", None),
    ("fedsim.scheduler", "conform_to_shape", "fabric.conform_to_shape", None),
    ("fedsim.scheduler", "fedavg_round", "aggregation.fedavg_round", None),
    ("fedsim.scheduler", "fedprox_round", "aggregation.fedprox_round", None),
    ("fedsim.scheduler", "feddist_round", "aggregation.feddist_round", None),
    ("fedsim.scheduler", "evaluate_global", "metrics.evaluate_global", None),
    ("fedsim.scheduler", "evaluate_personalization",
     "metrics.evaluate_personalization", None),
    ("fedsim.scheduler", "evaluate_generalization",
     "metrics.evaluate_generalization", None),
    ("fedsim.scheduler", "serialize_model", "container.serialize_model", None),
    ("fedsim.scheduler", "train_local", "nn.train_local", _train_attrs),
    ("fedsim.aggregation", "train_local", "nn.train_local", _train_attrs),
    ("fedsim.aggregation", "byte_size", "container.byte_size", None),
    ("fedsim.aggregation", "shape_metadata_size", "container.shape_metadata_size",
     None),
    ("fedsim.aggregation", "weighted_average", "fabric.weighted_average", None),
    ("fedsim.aggregation", "conform_to_shape", "fabric.conform_to_shape", None),
    ("fedsim.aggregation", "append_neuron", "fabric.append_neuron", None),
    ("fedsim.aggregation", "neuron_vector", "fabric.neuron_vector", None),
    ("fedsim.aggregation", "donor_successor_rows", "fabric.donor_successor_rows",
     None),
    ("fedsim.aggregation", "distance_matrix", "aggregation.distance_matrix", None),
    ("fedsim.aggregation", "select_divergent", "aggregation.select_divergent",
     _select_attrs),
    # metrics calls nn.evaluate through the module object, not a bound name.
    ("fedsim.nn", "evaluate", "nn.evaluate", _evaluate_attrs),
)

# The scheduler evaluates right after the round function returns, so the
# eval tick opens there and closes when the report reaches on_report.
ROUND_FUNCTIONS = ("aggregation.fedavg_round", "aggregation.fedprox_round",
                   "aggregation.feddist_round")


class Tracer:
    """Records spans in memory; nothing is written until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._root_thread: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str, round_index: int | None = None) -> Span:
        thread = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                root = self._stacks.get(self._root_thread, [])
                parent = root[-1] if root else None
            span = Span(len(self.spans), name, time.perf_counter(),
                        parent.id if parent else None, thread,
                        parent.round if parent else round_index)
            self.spans.append(span)
            stack.append(span)
        return span

    def open_root(self, name: str, round_index: int | None) -> Span:
        with self._lock:
            self._root_thread = threading.get_ident()
        return self.open(name, round_index)

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        with self._lock:
            stack = self._stacks[span.thread]
            if stack[-1] is not span:
                raise RuntimeError(f"span {span.name} closed out of order")
            stack.pop()

    def close_open(self, name: str) -> None:
        """Close the innermost span on this thread if it has the given name."""
        with self._lock:
            stack = self._stacks.get(threading.get_ident(), [])
            span = stack[-1] if stack and stack[-1].name == name else None
        if span is not None:
            self.close(span)

    def discard_open(self) -> None:
        """Forget spans left open by a failed experiment."""
        with self._lock:
            self._stacks.clear()

    def _wrap(self, fn, name: str, annotate):
        then = "scheduler.eval_tick" if name in ROUND_FUNCTIONS else None

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if annotate is not None:
                span.attrs.update(annotate(args, kwargs, result))
            if then is not None:
                self.open(then)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, name, annotate in CALL_SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, annotate))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def _union(intervals) -> float:
    covered, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


def self_times(spans: list[Span]) -> tuple[dict[str, float], float]:
    """Per-layer self time (span duration minus the union of its children)
    and the parallel overlap: the child time counted twice because children
    of one span ran concurrently.  Sum of self times minus the overlap
    equals the summed duration of the root spans."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    layers: dict[str, float] = {}
    overlap = 0.0
    for span in spans:
        kids = children.get(span.id, [])
        covered = _union((k.start, k.end) for k in kids)
        layers[span.layer] = layers.get(span.layer, 0.0) + span.duration - covered
        overlap += sum(k.duration for k in kids) - covered
    return layers, overlap
