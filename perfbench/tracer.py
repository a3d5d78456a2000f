"""Span tracing from outside the library.

`Tracer.install()` replaces every public function of the six timed modules
(`weaklabel`, `corpus`, `model`, `training`, `benchmarks`, `downstream`) with a
timing wrapper. The modules import names from each other directly (for
example `training` calls `model.backward` as `model_backward`), so a wrapper is
set on every `stepmask` module attribute that holds the original function, not
only on the defining module. `uninstall()` restores the originals.

Spans live in memory as parallel arrays (name id, start, end, parent index) and
are written out with `save()`. Self time of a span is its duration minus the
durations of its direct children. Counting work done by the tracer itself
(array sizes, non-zero gradients) runs inside a child span of layer `trace`,
so it is not charged to the library's self time.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "stepmask"
LAYERS = ("weaklabel", "corpus", "model", "training", "benchmarks", "downstream")
TRACE_SPAN = "trace.bookkeeping"
# Per-array parameter accessors, called once per array (53 at desk width) in
# every optimizer step and gradient reset. Wrapping them would cost more than
# the lookups they do; their time stays with the caller.
NOT_WRAPPED = {"model.get_array", "model.set_array"}


def public_functions(module):
    """Plain public functions defined in `module`, by name. Generator
    functions are left out: their call returns before any work is done."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
        and not inspect.isgeneratorfunction(obj)
    }


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.gauges: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []
        self._trace_id = self._intern(TRACE_SPAN)

    # --- span recording -----------------------------------------------------

    def _intern(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span_count(self) -> int:
        return len(self.start)

    # --- wrapping -----------------------------------------------------------

    def _wrapper(self, layer: str, fname: str, fn):
        key = f"{layer}.{fname}"
        fixed_id = self._intern(key)
        namer = _SPAN_NAMERS.get(key)
        before = _BEFORE.get(key)
        after = _AFTER.get(key)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                tracer._bookkeep(before, args, kwargs, None)
            name_id = tracer._intern(namer(args, kwargs)) if namer else fixed_id
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counts[f"{key}.raised"] += 1
                raise
            finally:
                tracer._close(idx)
            if after is not None:
                tracer._bookkeep(after, args, kwargs, result)
            return result

        return wrapper

    def _bookkeep(self, hook, args, kwargs, result):
        idx = self._open(self._trace_id)
        try:
            hook(self, args, kwargs, result)
        finally:
            self._close(idx)

    def install(self):
        """Wrap the public functions of the timed modules wherever the
        package's modules refer to them."""
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for fname, fn in public_functions(module).items():
                if f"{layer}.{fname}" not in NOT_WRAPPED:
                    originals[id(fn)] = (fn, self._wrapper(layer, fname, fn))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # --- output -------------------------------------------------------------

    def arrays(self, first: int = 0, last: int | None = None):
        """(name_id, start, end, parent) as numpy arrays for spans
        [first, last); parents are re-based to the slice (-1 outside it)."""
        last = self.span_count() if last is None else last
        name_id = np.frombuffer(self.name_id, dtype=np.int32)[first:last].copy()
        start = np.frombuffer(self.start, dtype=np.float64)[first:last].copy()
        end = np.frombuffer(self.end, dtype=np.float64)[first:last].copy()
        parent = np.frombuffer(self.parent, dtype=np.int32)[first:last].astype(np.int64)
        parent = np.where(parent >= first, parent - first, -1)
        return name_id, start, end, parent

    def save(self, path):
        name_id, start, end, parent = self.arrays()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), name_id=name_id,
            start=start, end=end, parent=parent,
        )


def self_times(name_id, start, end, parent, n_names: int):
    """Per-name total self time and call count for one slice of spans."""
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    own = dur - child
    return (
        np.bincount(name_id, weights=own, minlength=n_names),
        np.bincount(name_id, minlength=n_names),
    )


def step_intervals_ms(tracer: Tracer, name_id, start, end, parent):
    """Time between the ends of consecutive optimizer steps under the same
    training-loop span: one training step, with its data handling, forward
    and backward. The tracer's own bookkeeping inside the interval is left
    out."""
    step_id = tracer._ids.get("training.optimizer_step")
    idx = np.nonzero(name_id == step_id)[0] if step_id is not None else np.zeros(0, int)
    if idx.size < 2:
        return np.zeros(0)
    is_trace = name_id == tracer._trace_id
    done = np.concatenate([[0.0], np.cumsum(end[is_trace] - start[is_trace])])
    booked = done[np.searchsorted(end[is_trace], end[idx], side="right")]
    same = parent[idx[1:]] == parent[idx[:-1]]
    return ((np.diff(end[idx]) - np.diff(booked)) * 1e3)[same]


# --- per-function counting hooks -------------------------------------------
# Each runs outside the timed call, inside a `trace` span.


def _forward_after(tr: Tracer, args, kwargs, trace):
    tr.counts["model.forward.tokens"] += trace.T
    if any(tr.names[tr.name_id[i]].startswith("downstream.finetune.") for i in tr._stack):
        tr.counts["downstream.finetune.forward_calls"] += 1


def _optimizer_after(tr: Tracer, args, kwargs, _):
    state, params, grads = args[:3]
    trainable = kwargs.get("trainable", args[4] if len(args) > 4 else None)
    named_arrays = sys.modules["stepmask.model"].named_arrays
    arrays_per_update = 7 if state.cfg.kind == "adamw" else 5
    by_name = dict(named_arrays(grads))
    for name, p in named_arrays(params):
        if trainable is not None and name not in trainable:
            continue
        g = by_name[name]
        tr.counts["training.optimizer_step.bytes_computed"] += arrays_per_update * p.nbytes
        tr.counts["training.optimizer_step.elements"] += p.size
        tr.counts["training.optimizer_step.useful_elements"] += int(np.count_nonzero(g))


def _finetune_before(tr: Tracer, args, kwargs, _):
    dataset = args[3] if len(args) > 3 else kwargs["dataset"]
    tr.counts["downstream.finetune.instances"] += len(dataset.instances)


def _save_checkpoint_after(tr: Tracer, args, kwargs, _):
    tr.counts["model.save_checkpoint.bytes"] += os.path.getsize(args[0])


def _init_params_after(tr: Tracer, args, kwargs, params):
    arrays = list(sys.modules["stepmask.model"].named_arrays(params))
    tr.gauges["model.params.count"] = float(sum(a.size for _, a in arrays))
    tr.gauges["model.params.arrays"] = float(len(arrays))


def _save_corpus_after(tr: Tracer, args, kwargs, _):
    out_dir = args[1] if len(args) > 1 else kwargs["out_dir"]
    for entry in os.scandir(out_dir):
        if entry.is_file():
            tr.counts["corpus.save_corpus.bytes"] += entry.stat().st_size


def _build_set_after(tr: Tracer, args, kwargs, bset):
    tr.counts["benchmarks.build_benchmark_set.instances"] += len(bset)


def _sample_mask_after(tr: Tracer, args, kwargs, mask):
    if not mask:
        tr.counts["training.sample_mask.empty"] += 1


def _finetune_name(args, kwargs):
    cfg = args[2] if len(args) > 2 else kwargs["cfg"]
    return f"downstream.finetune.{cfg.task_kind}"


def _evaluate_name(args, kwargs):
    dataset = args[2] if len(args) > 2 else kwargs["dataset"]
    return f"downstream.evaluate.{dataset.kind}"


_SPAN_NAMERS = {
    "downstream.finetune": _finetune_name,
    "downstream.evaluate": _evaluate_name,
}
_BEFORE = {"downstream.finetune": _finetune_before}
_AFTER = {
    "model.forward": _forward_after,
    "model.init_params": _init_params_after,
    "model.save_checkpoint": _save_checkpoint_after,
    "training.optimizer_step": _optimizer_after,
    "training.sample_mask": _sample_mask_after,
    "corpus.save_corpus": _save_corpus_after,
    "benchmarks.build_benchmark_set": _build_set_after,
}
