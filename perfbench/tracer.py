"""In-process tracing of pnr from outside the package.

The tracer replaces public functions at each module boundary with thin
wrappers that record a span (name, start, end, parent span) and exact
counters, then restores the originals. Names that other modules re-bind
with ``from .x import y`` are wrapped at every binding, so a call is
traced whichever module it goes through. Spans live in memory; self time
is a span's duration minus the union of its children's intervals.

Worker threads (``curate_corpus`` runs a thread pool) start with an empty
span stack; their root spans take the innermost open span of the main
thread as parent, which is the call that is waiting on them. Self times
of spans on parallel threads add up, so a layer's self time can exceed
the wall time of the run.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


def _bytes_of(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# Counter hooks: (args, kwargs, result) -> {counter suffix: amount}. They run
# after the span has closed, so their cost is not charged to the wrapped
# function.
def _path_bytes(args, kwargs, result, pos):
    path = kwargs.get("path", args[pos] if len(args) > pos else None)
    return {"bytes": _bytes_of(path)} if path is not None else {}


def _write_bytes(args, kwargs, result):
    return _path_bytes(args, kwargs, result, 1)


def _read_bytes(args, kwargs, result):
    return _path_bytes(args, kwargs, result, 0)


def _rays(args, kwargs, result):
    return {"rays": len(args[0])}


def _scan_rays(args, kwargs, result):
    return {"rays": len(args[0]), "@gaze.samples_scanned": len(args[0])}


def _frames_in(args, kwargs, result):
    return {"frames": args[0].n_frames}


def _frames_out(args, kwargs, result):
    return {"frames": len(args[0])}


def _prime_outcome(args, kwargs, result):
    if result is None:
        return {"@gaze.unprimed": 1}
    return {f"@gaze.primed.{result.prime_mode}": 1}


def _curate_outcome(args, kwargs, result):
    out = Counter({
        "@curation.events_seen": len(args[0].events),
        "@curation.sequences_out": len(result.sequences),
    })
    for drop in result.drops:
        out[f"@curation.drops.{drop.reason}"] += 1
    return out


def _sweep_cells(args, kwargs, result):
    return {"@metrics.sweep_cells": int(result.size)}


# (module, owner attribute or None, attribute, span name, counter hook).
# Each row is one binding; a missing binding is skipped, so the table also
# works after a refactor drops a re-import. Only calls that cross a module
# boundary get spans, so a span's self time is the work of its own layer.
WRAPS = [
    ("cli", None, "main", "cli.main", None),
    *[("cli", None, f"cmd_{c}", f"cli.cmd_{c}", None)
      for c in ("synth", "curate", "split", "stats", "baseline", "evaluate")],
    ("io_jsonl", None, "write_recording", "io_jsonl.write_recording", _write_bytes),
    ("io_jsonl", None, "read_recording", "io_jsonl.read_recording", _read_bytes),
    ("io_jsonl", None, "write_sequence", "io_jsonl.write_sequence", _write_bytes),
    ("io_jsonl", None, "read_sequence", "io_jsonl.read_sequence", _read_bytes),
    ("io_jsonl", None, "read_recordings_dir", "io_jsonl.read_recordings_dir", None),
    ("io_jsonl", None, "read_sequences_dir", "io_jsonl.read_sequences_dir", None),
    ("io_jsonl", None, "write_sequences_dir", "io_jsonl.write_sequences_dir", None),
    ("io_jsonl", None, "write_labels", "io_jsonl.write_labels", None),
    ("io_jsonl", None, "write_curation_log", "io_jsonl.write_curation_log", None),
    ("io_jsonl", None, "write_report", "io_jsonl.write_report", None),
    ("io_jsonl", None, "write_json", "io_jsonl.write_json", None),
    ("io_jsonl", None, "write_sweep_csv", "io_jsonl.write_sweep_csv", None),
    ("synth", None, "generate_corpus", "synth.generate_corpus", None),
    ("cli", None, "generate_corpus", "synth.generate_corpus", None),
    ("synth", None, "static_baseline", "synth.static_baseline", None),
    ("cli", None, "static_baseline", "synth.static_baseline", None),
    ("synth", None, "procedural_pnr", "synth.procedural_pnr", None),
    ("curation", None, "curate", "curation.curate", _curate_outcome),
    ("curation", None, "curate_corpus", "curation.curate_corpus", None),
    ("cli", None, "curate_corpus", "curation.curate_corpus", None),
    ("curation", None, "stats", "curation.stats", None),
    ("cli", None, "stats", "curation.stats", None),
    ("curation", None, "split", "curation.split", None),
    ("cli", None, "split", "curation.split", None),
    ("gaze", None, "find_prime_time", "gaze.find_prime_time", _prime_outcome),
    ("curation", None, "find_prime_time", "gaze.find_prime_time", _prime_outcome),
    ("gaze", "GazeTrack", "world_rays", "gaze.world_rays", None),
    ("geometry", None, "slab_intersect_batch", "geometry.slab_intersect_batch", _rays),
    ("gaze", None, "slab_intersect_batch", "geometry.slab_intersect_batch", _scan_rays),
    ("geometry", None, "near_miss_batch", "geometry.near_miss_batch", _rays),
    ("gaze", None, "near_miss_batch", "geometry.near_miss_batch", _rays),
    ("motion", None, "canonicalize", "motion.canonicalize", None),
    ("curation", None, "canonicalize", "motion.canonicalize", None),
    ("motion", None, "body_movement", "motion.body_movement", None),
    ("curation", None, "body_movement", "motion.body_movement", None),
    ("motion", None, "hand_movement", "motion.hand_movement", None),
    ("curation", None, "hand_movement", "motion.hand_movement", None),
    ("motion", None, "resample", "motion.resample", None),
    ("cli", None, "resample", "motion.resample", None),
    ("metrics", None, "resample", "motion.resample", None),
    ("motion", None, "head_forward_batch", "motion.head_forward_batch", None),
    ("metrics", None, "head_forward_batch", "motion.head_forward_batch", None),
    ("features", None, "to_features", "features.to_features", _frames_in),
    ("features", None, "from_features", "features.from_features", _frames_out),
    ("metrics", "EvalPair", "from_sequences", "metrics.EvalPair.from_sequences", None),
    ("metrics", None, "evaluate", "metrics.evaluate", None),
    ("cli", None, "evaluate", "metrics.evaluate", None),
    ("metrics", None, "prime_success_sweep", "metrics.prime_success_sweep", _sweep_cells),
    ("cli", None, "prime_success_sweep", "metrics.prime_success_sweep", _sweep_cells),
]

# Bindings that are counted but get no span: the call sits inside one
# module, and a span would move its time out of the caller's self time.
# Calls are also counted per innermost open span.
COUNTED = [
    ("metrics", None, "prime_window_errors", "metrics.prime_window_errors"),
]

# Outcome counters reported even when no event had that outcome.
ZERO_COUNTERS = ("curation.events_seen", "curation.sequences_out",
                 "curation.drops.unprimed", "curation.drops.minimal_movement",
                 "curation.drops.too_short", "gaze.primed.direct_hit",
                 "gaze.primed.near_miss", "gaze.unprimed", "gaze.samples_scanned",
                 "gaze.world_rays.computes", "metrics.sweep_cells")

# Spans whose CPU time is recorded as well as their wall time.
_CPU_SPANS = {"curation.curate_corpus"}


class Span:
    __slots__ = ("name", "parent", "start", "end", "cpu")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.cpu = 0.0


class Tracer:
    """Records spans and counters while installed; see ``installed``."""

    def __init__(self, package):
        self.package = package
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            is_main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if is_main else []
            self._local.stack = stack
        return stack

    def _wrap(self, fn, name, hook):
        tracer = self
        cpu = name in _CPU_SPANS
        world_rays = name == "gaze.world_rays"

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif stack is not tracer._main_stack and tracer._main_stack:
                parent = tracer._main_stack[-1]
            else:
                parent = None
            span = Span(name, parent)
            tracer.spans.append(span)  # list.append is atomic under the GIL
            # GazeTrack caches its rays in _rays; a call without the cache computes
            computes = world_rays and getattr(args[0], "_rays", None) is None
            stack.append(span)
            c0 = time.process_time() if cpu else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if cpu:
                    span.cpu = time.process_time() - c0
                stack.pop()
            extra = hook(args, kwargs, result) if hook else None
            with tracer._lock:
                if computes:
                    tracer.counts["gaze.world_rays.computes"] += 1
                for key, amount in (extra or {}).items():
                    key = key[1:] if key.startswith("@") else f"{name}.{key}"
                    tracer.counts[key] += amount
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn, name):
        tracer = self

        def counted(*args, **kwargs):
            stack = tracer._stack()
            with tracer._lock:
                tracer.counts[f"{name}.calls"] += 1
                if stack:
                    tracer.counts[f"{name}.calls_in.{stack[-1].name}"] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def installed(self):
        """Wrap every binding in WRAPS and COUNTED for the duration of the block."""
        saved = []
        try:
            rows = [(*row, True) for row in WRAPS] + [(*row, None, False) for row in COUNTED]
            for mod_name, owner_name, attr, span_name, hook, span in rows:
                owner = getattr(self.package, mod_name)
                if owner_name is not None:
                    owner = getattr(owner, owner_name, None)
                if owner is None or attr not in vars(owner):
                    continue
                raw = vars(owner)[attr]
                static = isinstance(raw, staticmethod)
                fn = raw.__func__ if static else raw
                wrapped = self._wrap(fn, span_name, hook) if span else self._count(fn, span_name)
                setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
                saved.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def summary(self) -> dict:
        """Per-name calls, wall and self time, per-layer self time, and the
        exact counters, for the spans recorded since the last reset."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)].append(span)
        out: dict = defaultdict(float)
        for span in self.spans:
            dur = span.end - span.start
            covered = _union_within(span, children.get(id(span), ()))
            self_s = max(dur - covered, 0.0)
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.wall_s"] += dur
            out[f"{span.name}.self_s"] += self_s
            if span.name in _CPU_SPANS:
                out[f"{span.name}.cpu_s"] += span.cpu
            out[f"{span.name.split('.', 1)[0]}.self_s"] += self_s
        for key in ZERO_COUNTERS:
            out[key] += 0
        for key, amount in self.counts.items():
            out[key] += amount
        sweeps = out.get("metrics.prime_success_sweep.calls", 0)
        in_sweep = out.get("metrics.prime_window_errors.calls_in.metrics.prime_success_sweep", 0)
        out["metrics.prime_window_errors.per_sweep"] = in_sweep / sweeps if sweeps else 0.0
        out["motion.movement.self_s"] = (out.get("motion.body_movement.self_s", 0.0)
                                         + out.get("motion.hand_movement.self_s", 0.0))
        out["trace.spans"] = len(self.spans)
        return dict(out)

    def dump(self, path) -> None:
        """Write the recorded spans as JSON lines (times relative to the
        first span), for inspection after a traced run."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                parent = index.get(id(s.parent)) if s.parent is not None else None
                f.write(json.dumps({"i": i, "name": s.name, "parent": parent,
                                    "start": s.start - t0, "end": s.end - t0}) + "\n")


def _union_within(span: Span, kids) -> float:
    """Length of the union of the children's intervals, clipped to the
    span (children on worker threads may overlap each other)."""
    if not kids:
        return 0.0
    intervals = sorted((max(k.start, span.start), min(k.end, span.end)) for k in kids)
    total = 0.0
    cur_lo, cur_hi = intervals[0]
    for lo, hi in intervals[1:]:
        if lo > cur_hi:
            total += max(cur_hi - cur_lo, 0.0)
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    return total + max(cur_hi - cur_lo, 0.0)
