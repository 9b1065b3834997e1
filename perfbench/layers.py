"""Per-layer spans recorded from the benchmark's own code.

The traced mode wraps the public functions of each ``repro`` layer for the
duration of a run.  Every wrapped call is a span with a name, a start, an
end and a parent (the enclosing wrapped call on the same thread).  Spans
are kept in memory as compact rows and folded into self times when the
run ends: a span's self time is its duration minus the time its child
spans cover.  Nothing under ``src/`` changes; the wrappers replace module
or class attributes and are removed again by :meth:`Recorder.uninstall`.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from array import array

# (owner module, attribute) -> layer name.  Kernels are looked up as
# ``F.<name>`` by their callers, so replacing the module attribute is seen
# by every call site.  The compact-cache ``*_fast`` training kernels map to
# the same layer names, so a trainer that switches families stays covered.
KERNELS = {
    "conv2d_infer": "nn.conv2d_infer",
    "depthwise_conv2d_infer": "nn.depthwise_conv2d_infer",
    "batchnorm_infer": "nn.batchnorm_infer",
    "maxpool2d_infer": "nn.pool_infer",
    "avgpool2d_infer": "nn.pool_infer",
    "conv2d_forward": "nn.conv2d_forward",
    "conv2d_forward_fast": "nn.conv2d_forward",
    "conv2d_backward": "nn.conv2d_backward",
    "conv2d_backward_fast": "nn.conv2d_backward",
    "depthwise_conv2d_forward": "nn.depthwise_conv2d_forward",
    "depthwise_conv2d_forward_fast": "nn.depthwise_conv2d_forward",
    "depthwise_conv2d_backward": "nn.depthwise_conv2d_backward",
    "depthwise_conv2d_backward_fast": "nn.depthwise_conv2d_backward",
    "batchnorm_forward": "nn.batchnorm_forward",
    "batchnorm_forward_fast": "nn.batchnorm_forward",
    "batchnorm_backward": "nn.batchnorm_backward",
    "batchnorm_backward_fast": "nn.batchnorm_backward",
    "maxpool2d_forward": "nn.pool_train",
    "maxpool2d_forward_fast": "nn.pool_train",
    "maxpool2d_backward": "nn.pool_train",
    "maxpool2d_backward_fast": "nn.pool_train",
    "avgpool2d_forward": "nn.pool_train",
    "avgpool2d_forward_fast": "nn.pool_train",
    "avgpool2d_backward": "nn.pool_train",
    "avgpool2d_backward_fast": "nn.pool_train",
}

# Layers whose output bytes are recorded (``<layer>.out_mb``).
OUT_BYTES = {"nn.conv2d_infer", "nn.depthwise_conv2d_infer", "nn.batchnorm_infer", "nn.pool_infer"}

#: The layer names every traced run reports, zero where a workload does
#: not reach the layer.  Their self times sum into ``trace.coverage_frac``.
TIMED_LAYERS = (
    "nas.evaluate_many",
    "nas.train_forward",
    "nas.train_backward",
    "nn.conv2d_infer",
    "nn.depthwise_conv2d_infer",
    "nn.batchnorm_infer",
    "nn.pool_infer",
    "nn.conv2d_forward",
    "nn.conv2d_backward",
    "nn.depthwise_conv2d_forward",
    "nn.depthwise_conv2d_backward",
    "nn.batchnorm_forward",
    "nn.batchnorm_backward",
    "nn.pool_train",
    "nn.sgd_step",
    "nn.adam_step",
    "search.controller_sample",
    "search.policy_gradient",
    "search.evaluator",
    "predict.gp_predict",
    "predict.features",
    "predict.gp_fit",
    "accel.simulate",
    "parallel.pool.wait",
    "service.client",
    "service.protocol.encode",
    "service.protocol.decode",
)


def quantile(values, q: float) -> float:
    """The ``q``-quantile of ``values``: the smallest value with at least a
    ``q`` share of the values at or below it."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, -int(-q * len(ordered) // 1) - 1))]


def _nbytes(out) -> int:
    if isinstance(out, (list, tuple)):
        return sum(_nbytes(part) for part in out)
    return int(getattr(out, "nbytes", 0))


def _batch_len(args, _kwargs, _out) -> int:
    """Length of a method's first argument (genotypes, rows, networks)."""
    return len(args[1]) if len(args) > 1 else 0


def _one(_args, _kwargs, _out) -> int:
    return 1


def _encoded_bytes(_args, _kwargs, out) -> int:
    return len(out)


def _decoded_bytes(args, _kwargs, _out) -> int:
    return len(args[0]) if args else 0


class Recorder:
    """Span recorder over wrapped layer entry points.

    ``active`` gates recording without removing the wrappers, so a traced
    run can interleave untraced stretches and measure its own overhead.
    Spans are stored as parallel arrays (name index, parent row, start,
    end) so a long run stays small in memory.
    """

    def __init__(self) -> None:
        self.active = False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        #: Per-layer counters (``<layer>.<what>``), outermost calls only.
        self.counts: dict[str, float] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str, counters: dict | None = None):
        recorder = self
        name_id = self._name_id(name)
        counters = counters or {}
        out_key = f"{name}.out_mb" if name in OUT_BYTES else None

        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            parent = stack[-1] if stack else (-1, -1)
            row = recorder._open(name_id, parent[0])
            stack.append((row, name_id))
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                recorder.span_end[row] = time.perf_counter()
            if parent[1] != name_id:
                # Nested calls of one layer (a batch entry point calling its
                # scalar form) count once, at the outermost call.
                recorder._count(f"{name}.calls", 1)
                for key, counter in counters.items():
                    recorder._count(f"{name}.{key}", counter(args, kwargs, out))
                if out_key is not None:
                    recorder._count(out_key, _nbytes(out) / 1e6)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _open(self, name_id: int, parent_row: int) -> int:
        with self._lock:
            row = len(self.span_name)
            self.span_name.append(name_id)
            self.span_parent.append(parent_row)
            self.span_start.append(time.perf_counter())
            self.span_end.append(0.0)
        return row

    def _count(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0.0) + value

    def patch(self, owner, attr: str, name: str, counters: dict | None = None) -> None:
        """Wrap ``owner.attr`` (a module function or a class method)."""
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, counters))

    def patch_function(self, fn, name: str, counters: dict | None = None) -> None:
        """Wrap a function everywhere a loaded ``repro`` module bound it
        by name (``from x import f`` copies the reference)."""
        wrapped = self._wrap(fn, name, counters)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patched.append((module, attr, fn))
                    setattr(module, attr, wrapped)

    def install(self) -> None:
        """Wrap every layer entry point the per-layer table names."""
        from repro.accel.simulator import SystolicArraySimulator
        from repro.nas.hypernet import HyperNet
        from repro.nn import functional as F
        from repro.nn.optim import SGD, Adam
        from repro.parallel.pool import EvaluatorPool
        from repro.predict import features
        from repro.predict.base import Regressor
        from repro.search.controller import Controller
        from repro.search.evaluator import BatchEvaluator
        from repro.service import client, protocol

        for attr, name in KERNELS.items():
            self.patch(F, attr, name)
        self.patch(HyperNet, "evaluate_many", "nas.evaluate_many", {"genotypes": _batch_len})
        self.patch(HyperNet, "forward", "nas.train_forward")
        self.patch(HyperNet, "backward", "nas.train_backward")
        self.patch(SGD, "step", "nn.sgd_step")
        self.patch(Adam, "step", "nn.adam_step")
        self.patch(Controller, "sample", "search.controller_sample")
        self.patch(Controller, "accumulate_policy_gradient", "search.policy_gradient")
        self.patch(BatchEvaluator, "evaluate_many", "search.evaluator")
        self.patch(BatchEvaluator, "evaluate_tokens", "search.evaluator")
        self.patch(Regressor, "predict", "predict.gp_predict", {"rows": _batch_len})
        self.patch(Regressor, "predict_batch", "predict.gp_predict", {"rows": _batch_len})
        self.patch(Regressor, "fit", "predict.gp_fit")
        self.patch_function(features.genotype_features, "predict.features")
        self.patch_function(features.config_features, "predict.features")
        self.patch(SystolicArraySimulator, "simulate_many", "accel.simulate", {"points": _batch_len})
        self.patch(SystolicArraySimulator, "simulate_network", "accel.simulate", {"points": _one})
        self.patch(SystolicArraySimulator, "simulate_genotypes", "accel.simulate", {"points": _batch_len})
        self.patch(EvaluatorPool, "run_shards", "parallel.pool.wait")
        self.patch(protocol, "encode_message", "service.protocol.encode", {"bytes": _encoded_bytes})
        self.patch(protocol, "decode_message", "service.protocol.decode", {"bytes": _decoded_bytes})
        self.patch(client.ServiceClient, "evaluate_many", "service.client")

    def uninstall(self) -> None:
        """Put every wrapped attribute back (reverse order)."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- folding ---------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Per-layer self seconds: each span's duration minus its
        children's (children nest inside their parent on one thread)."""
        n = len(self.span_name)
        child = [0.0] * n
        for row in range(n):
            parent = self.span_parent[row]
            if parent >= 0:
                child[parent] += self.span_end[row] - self.span_start[row]
        totals: dict[str, float] = {}
        for row in range(n):
            name = self.names[self.span_name[row]]
            own = self.span_end[row] - self.span_start[row] - child[row]
            totals[name] = totals.get(name, 0.0) + own
        return totals

    def write_spans(self, path) -> None:
        """Write every span as one JSON line (name, row, parent row, start,
        end; ``perf_counter`` seconds of this process)."""
        with open(path, "w") as out:
            for row in range(len(self.span_name)):
                out.write(json.dumps({
                    "name": self.names[self.span_name[row]],
                    "span": row,
                    "parent": self.span_parent[row],
                    "start_s": self.span_start[row],
                    "end_s": self.span_end[row],
                }) + "\n")

    def reset(self) -> None:
        """Drop recorded spans and counts (the wrappers stay)."""
        with self._lock:
            for column in (self.span_name, self.span_parent, self.span_start, self.span_end):
                del column[:]
            self.counts.clear()


class WorkerLayers:
    """Per-layer tracing inside evaluator pool workers.

    Attached to the fast evaluator before its pool starts, an instance
    travels in the pool's replication payload.  Unpickling it in a worker
    installs a :class:`Recorder` there and replaces the worker's
    ``repro.parallel.pool._run_traced`` (looked up by name when a traced
    task arrives) with a version that records the shard and returns the
    shard's self times as one extra span dict.  The parent's tracer
    ingests that dict with the shard spans it already harvests.
    """

    SPAN = "perfbench.worker_layers"

    def __getstate__(self) -> dict:
        return {}

    def __setstate__(self, _state: dict) -> None:
        from repro.parallel import pool

        recorder = Recorder()
        recorder.install()
        run_traced = pool._run_traced

        def traced_with_layers(fn, shard, trace_id, parent_id):
            recorder.reset()
            recorder.active = True
            try:
                result, spans = run_traced(fn, shard, trace_id, parent_id)
            finally:
                recorder.active = False
            layers = {"self_times": recorder.self_times(), "counts": dict(recorder.counts)}
            return result, [*spans, {"name": self.SPAN, "attrs": layers}]

        pool._run_traced = traced_with_layers
