"""Machine-speed calibration for a shared host.

On a host shared with other tenants the same Python work can run up to
twice as slow for a fraction of a second to tens of seconds at a time, so
raw medians of back-to-back runs disagree by more than any useful
regression bound. The harness therefore times every step (a set-up, an
iteration, a CLI command) between samples of a fixed reference kernel and
reports it in calibrated seconds:

    calibrated = raw * REFERENCE_S / median(reference samples around the step)

that is, the time the step would take at the speed at which the reference
kernel takes REFERENCE_S. The kernel mixes what pnr spends its time on
(small-array numpy calls, einsum, JSON encode/parse of float rows, and
passes over a multi-MB joint array like that of a 60 s, 60 fps track,
whose speed a busy neighbour's cache and memory traffic moves more than
it moves small-array work) and never calls pnr, so a change to pnr
cannot move it. A step that keeps k threads busy is calibrated against k copies of the kernel run in k
threads at once (quiet time k * REFERENCE_S), because it is slowed by
whatever slows any of the CPUs it runs on. Raw times are kept in the run
record next to the calibrated ones.
"""

from __future__ import annotations

import json
import statistics
import threading
import time

import numpy as np

# Typical reference-kernel time on a 2-vCPU x86-64 VM (Python 3.11, numpy
# 2.4) in its fast periods; it only fixes the scale of calibrated seconds.
REFERENCE_S = 0.033
SAMPLES = 3  # reference runs on each side of a step

_rng = np.random.default_rng(0)
_POINTS = _rng.random((200, 3))
_ROTATIONS = _rng.random((200, 3, 3))
_ROWS = _rng.random((300, 66)).tolist()
_TRACK = _rng.random((3600, 22, 3))  # frames x joints x xyz, 1.9 MB


def _kernel() -> None:
    for _ in range(200):
        moved = _POINTS * 1.0001 + 0.5
        rotated = np.einsum("nij,nj->ni", _ROTATIONS, moved)
        float(np.linalg.norm(rotated - moved, axis=1).max())
    text = "\n".join(
        json.dumps({"k": "frame", "t": i / 30, "joints": row}, separators=(",", ":"))
        for i, row in enumerate(_ROWS))
    for line in text.splitlines():
        np.asarray(json.loads(line)["joints"], dtype=np.float64)
    for _ in range(3):
        moved = _TRACK @ _ROTATIONS[0]
        float(np.linalg.norm(np.diff(moved, axis=0), axis=2).sum())


def reference_time(threads: int = 1) -> float:
    """Wall time of ``threads`` concurrent runs of the reference kernel."""
    workers = [threading.Thread(target=_kernel) for _ in range(threads - 1)]
    t0 = time.perf_counter()
    for w in workers:
        w.start()
    _kernel()
    for w in workers:
        w.join()
    return time.perf_counter() - t0


class Clock:
    """Times the steps of one iteration in raw and calibrated seconds.

    Consecutive steps share the reference samples between them, so a clock
    is meant for steps that run back to back; use a new clock after other
    work (checks, clean-up) has run."""

    def __init__(self):
        self._last = None  # (threads, samples) taken after the previous step
        self.raw_s = 0.0
        self.calibrated_s = 0.0
        self.cpu_s = 0.0
        self.steps = {}  # step name -> calibrated seconds

    def step(self, fn, name=None, threads=1):
        """Run ``fn()`` as one timed step that keeps ``threads`` threads
        busy, and return its result."""
        if self._last is not None and self._last[0] == threads:
            before = self._last[1]
        else:
            before = [reference_time(threads) for _ in range(SAMPLES)]
        c0 = time.process_time()
        t0 = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t0
        self.cpu_s += time.process_time() - c0
        after = [reference_time(threads) for _ in range(SAMPLES)]
        self._last = (threads, after)
        cal = raw * threads * REFERENCE_S / statistics.median(before + after)
        self.raw_s += raw
        self.calibrated_s += cal
        if name is not None:
            self.steps[name] = cal
        return result
