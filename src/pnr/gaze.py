"""World-frame gaze rays from eye-tracker samples, and prime-time
detection: the first moment in a window before a pick/put event where the
gaze ray lands on (or near-misses) the event's target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateGaze, EmptyWindow
from .geometry import Aabb, Ray, as_vec3, prime_batch

DEFAULT_WINDOW = 10.0  # s
DEFAULT_TAU = 0.05  # m

DIRECT_HIT = "direct_hit"
NEAR_MISS = "near_miss"
PRIME_MODES = (DIRECT_HIT, NEAR_MISS)
EVENT_KINDS = ("pick", "put")

_DEGENERATE_TOL = 1e-9


@dataclass(frozen=True)
class GazeSample:
    """One GazeTrack row: the camera pose (``rotation`` (3, 3) and
    ``translation`` (3,)) maps the camera-frame gaze point into the world.
    It is checked as a row read from a file is, by GazeTrack: shapes and
    finite values, with no orthonormality test."""

    t: float
    gaze_point_cam: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        GazeTrack.from_samples([self])


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

    @staticmethod
    def from_samples(samples) -> "GazeTrack":
        samples = list(samples)
        return GazeTrack(
            np.array([s.t for s in samples]),
            np.array([s.gaze_point_cam for s in samples]),
            np.array([s.rotation for s in samples]),
            np.array([s.translation for s in samples]),
        )

    def world_rays(self) -> tuple[np.ndarray, np.ndarray]:
        """Ray origins and unit directions for every sample, ((N,3), (N,3)).

        Cached after the first call; treat the arrays as read-only. Raises
        DegenerateGaze if any sample's gaze point collapses onto the
        camera origin.
        """
        cached = getattr(self, "_rays", None)
        if cached is not None:
            return cached
        dirs = np.einsum("nij,nj->ni", self.rotations, self.points_cam)
        norms = np.linalg.norm(dirs, axis=1)
        if np.any(norms < _DEGENERATE_TOL):
            bad = int(np.argmin(norms))
            raise DegenerateGaze(f"gaze sample {bad} at t={self.times[bad]:.6f}", bad)
        rays = (self.translations, dirs / norms[:, None])
        object.__setattr__(self, "_rays", rays)
        return rays


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


def gaze_ray(sample: GazeSample) -> Ray:
    """World gaze ray of one sample (GazeTrack.world_rays for one row): from
    the camera position through the world-transformed gaze point."""
    origins, dirs = GazeTrack.from_samples([sample]).world_rays()
    return Ray(origins[0], dirs[0])


def find_prime_time(
    track: GazeTrack,
    event: InteractionEvent,
    w: float = DEFAULT_WINDOW,
    tau: float = DEFAULT_TAU,
) -> PrimedEvent | None:
    """Earliest sample in [t_e - w, t_e] whose gaze ray primes the target:
    a direct hit of its box, or else a near miss within tau.

    The window's rays go through geometry.prime_batch: a ray whose line
    passes farther from the box center than the half-diagonal plus tau
    (plus that kernel's rounding margin) is never slab- or near-miss-tested,
    since it can prime in neither way. Prime times are quantized to sample
    timestamps. Returns None when no sample in the window primes; raises
    EmptyWindow when the window holds no samples at all (stream/event
    misalignment).
    """
    lo, hi = event.t_e - w, event.t_e
    i0 = int(np.searchsorted(track.times, lo, side="left"))
    i1 = int(np.searchsorted(track.times, hi, side="right"))
    if i0 >= i1:
        raise EmptyWindow(f"no gaze samples in [{lo:.3f}, {hi:.3f}]")
    origins, dirs = track.world_rays()
    box = event.target.as_box()
    hit, near = prime_batch(origins[i0:i1], dirs[i0:i1], box.min, box.max, tau)
    where = np.nonzero(hit | near)[0]
    if where.size == 0:
        return None
    first = int(where[0])
    mode = DIRECT_HIT if hit[first] else NEAR_MISS
    return PrimedEvent(event, float(track.times[i0 + first]), mode)
