"""World-frame gaze rays from eye-tracker samples, and prime-time
detection: the first moment in a window before a pick/put event where the
gaze ray lands on (or near-misses) the event's target.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGaze, EmptyWindow
from .geometry import Aabb, as_vec3, blocks_near_box, prime_batch, ray_blocks

DEFAULT_WINDOW = 10.0  # s
DEFAULT_TAU = 0.05  # m

DIRECT_HIT = "direct_hit"
NEAR_MISS = "near_miss"
PRIME_MODES = (DIRECT_HIT, NEAR_MISS)
EVENT_KINDS = ("pick", "put")

_DEGENERATE_TOL = 1e-9
_BLOCK = 32  # samples per block of the priming scan's cull


@dataclass(frozen=True)
class GazeTrack:
    """Columnar storage of a gaze stream: one row per eye-tracker sample."""

    times: np.ndarray
    points_cam: np.ndarray
    rotations: np.ndarray
    translations: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        p = np.asarray(self.points_cam, dtype=np.float64)
        r = np.asarray(self.rotations, dtype=np.float64)
        tr = np.asarray(self.translations, dtype=np.float64)
        n = len(t)
        if p.shape != (n, 3) or r.shape != (n, 3, 3) or tr.shape != (n, 3):
            raise ValueError("gaze track arrays disagree on length")
        if n > 1 and np.any(np.diff(t) <= 0):
            raise ValueError("gaze times must be strictly increasing")
        for name, arr in (("times", t), ("points_cam", p), ("rotations", r), ("translations", tr)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite values in {name}")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "points_cam", p)
        object.__setattr__(self, "rotations", r)
        object.__setattr__(self, "translations", tr)

    def __len__(self):
        return len(self.times)

    def world_rays(self) -> tuple[np.ndarray, np.ndarray]:
        """Ray origins and unit directions for every sample, ((N,3), (N,3)).

        Cached after the first call; treat the arrays as read-only. Raises
        DegenerateGaze, naming the first such sample, if any sample's gaze
        point collapses onto the camera origin.
        """
        cached = getattr(self, "_rays", None)
        if cached is not None:
            return cached
        # R @ p, its products summed in numpy 2's einsum order, which no release promises
        q = self.rotations * self.points_cam[:, None, :]
        dirs = (q[:, :, 0] + q[:, :, 2]) + q[:, :, 1]
        norms = np.linalg.norm(dirs, axis=1)
        short = norms < _DEGENERATE_TOL
        if short.any():
            bad = int(np.argmax(short))  # the first such sample
            raise DegenerateGaze(f"gaze sample {bad} at t={self.times[bad]:.6f}", bad)
        rays = (self.translations, dirs / norms[:, None])
        object.__setattr__(self, "_rays", rays)
        return rays

    def blocks_near(self, box: Aabb, tau: float) -> list[int]:
        """Indices, in increasing order, of the blocks of _BLOCK samples
        (block k holds samples _BLOCK k to _BLOCK (k + 1) - 1) that may hold
        a ray priming ``box`` within ``tau``: geometry.blocks_near_box. The
        block bounds and each (box, tau)'s answer are cached, so a target's
        later events cost a look-up. Raises ValueError unless tau >= 0."""
        kept = getattr(self, "_kept", None)
        if kept is None:
            kept = {}
            object.__setattr__(self, "_blocks", ray_blocks(*self.world_rays(), _BLOCK))
            object.__setattr__(self, "_kept", kept)
        key = (box.min.tobytes(), box.max.tobytes(), tau)
        blocks = kept.get(key)
        if blocks is None:
            mask = blocks_near_box(self._blocks, box.min, box.max, tau)
            blocks = kept[key] = np.flatnonzero(mask).tolist()
        return blocks


@dataclass(frozen=True)
class ObjectTarget:
    """A priming target: a box, or a bare 3-D point treated as a
    zero-extent box (which only the near-miss path can prime)."""

    id: str
    box: Aabb | None = None
    point: np.ndarray | None = None

    def __post_init__(self):
        if (self.box is None) == (self.point is None):
            raise ValueError("target needs exactly one of box or point")
        if self.point is not None:
            object.__setattr__(self, "point", as_vec3(self.point))

    def as_box(self) -> Aabb:
        if self.box is not None:
            return self.box
        return Aabb(self.point, self.point)

    @property
    def location(self) -> np.ndarray:
        return self.as_box().center


@dataclass(frozen=True)
class InteractionEvent:
    kind: str  # "pick" | "put"
    t_e: float
    target: ObjectTarget

    def __post_init__(self):
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {self.kind!r}")


@dataclass(frozen=True)
class PrimedEvent:
    event: InteractionEvent
    t_p: float
    prime_mode: str = field(default=DIRECT_HIT)


def find_prime_time(
    track: GazeTrack,
    event: InteractionEvent,
    w: float = DEFAULT_WINDOW,
    tau: float = DEFAULT_TAU,
) -> PrimedEvent | None:
    """Earliest sample in [t_e - w, t_e] whose gaze ray primes the target:
    a direct hit of its box, or else a near miss within tau.

    Only the window's rays in the blocks that GazeTrack.blocks_near keeps
    for the box can prime it; no ray of a skipped block hits or near-misses
    the box (geometry.blocks_near_box proves it). The kept blocks are
    tested in time order, in runs of 1, 2, 4, ... blocks, each run as one
    slice of rays from its first kept block to its last through
    geometry.prime_batch, and the scan stops at the first run that holds a
    priming ray. prime_batch decides each ray by its own row alone (the
    slab test, then the near-miss test on the rays that miss), so the
    earliest priming ray of that run is the earliest of the window: the
    result is that of the two kernels run on every ray of the window.
    Prime times are quantized to sample timestamps. Returns None when no
    sample in the window primes; raises EmptyWindow when the window holds
    no samples at all (stream/event misalignment), and then ValueError
    unless tau >= 0.
    """
    lo, hi = event.t_e - w, event.t_e
    i0 = int(np.searchsorted(track.times, lo, side="left"))
    i1 = int(np.searchsorted(track.times, hi, side="right"))
    if i0 >= i1:
        raise EmptyWindow(f"no gaze samples in [{lo:.3f}, {hi:.3f}]")
    box = event.target.as_box()
    kept = track.blocks_near(box, tau)
    j0, j1 = bisect_left(kept, i0 // _BLOCK), bisect_right(kept, (i1 - 1) // _BLOCK)
    if j0 == j1:
        return None
    origins, dirs = track.world_rays()
    run = 1
    while j0 < j1:
        j = min(j0 + run, j1)
        # one slice per run: the skipped blocks between kept ones cost
        # the two kernels, and none of their rays primes
        s0, s1 = max(i0, kept[j0] * _BLOCK), min(i1, (kept[j - 1] + 1) * _BLOCK)
        hit, near = prime_batch(origins[s0:s1], dirs[s0:s1], box.min, box.max, tau)
        where = np.flatnonzero(hit | near)
        if where.size:
            first = int(where[0])
            mode = DIRECT_HIT if hit[first] else NEAR_MISS
            return PrimedEvent(event, float(track.times[s0 + first]), mode)
        j0, run = j, 2 * run
    return None
