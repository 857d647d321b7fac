"""Pick/put event extraction from hand and object trajectories, for
recordings that ship without interaction timestamps.

In-hand segments come from thresholding the hand-to-object distance;
segment boundaries are then refined to the frame where the object's state
flips between stationary and moving, which is where the pick (or put)
actually happens.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import TimelineMismatch
from .gaze import InteractionEvent, ObjectTarget
from .geometry import Aabb

log = logging.getLogger(__name__)

DEFAULT_DIST_THRESHOLD = 0.05  # m, hand-to-object contact distance
DEFAULT_MIN_DURATION = 0.2  # s, shorter runs are contact flicker
DEFAULT_STATIONARY_SPEED = 0.02  # m/s, below this the object is "at rest"
SPEED_SMOOTHING = 0.1  # s
BOUNDARY_SLACK = 0.5  # s, how far a refined event may leave its segment
TARGET_HALF_EXTENT = 0.05  # m, box planted around the object at event time


@dataclass(frozen=True)
class Trajectory3:
    times: np.ndarray
    positions: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.float64)
        p = np.asarray(self.positions, dtype=np.float64)
        if t.ndim != 1 or p.shape != (len(t), 3):
            raise ValueError("trajectory needs times (N,) and positions (N, 3)")
        if len(t) > 1 and np.any(np.diff(t) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "positions", p)

    def __len__(self):
        return len(self.times)

    def at(self, t: float) -> np.ndarray:
        """Linear interpolation, clamped at the ends."""
        return np.array(
            [np.interp(t, self.times, self.positions[:, i]) for i in range(3)]
        )


@dataclass(frozen=True)
class InHandSegment:
    start_t: float
    end_t: float
    hand: str = "right"

    def __post_init__(self):
        if self.start_t >= self.end_t:
            raise ValueError("segment must have positive duration")


def in_hand_segments(
    hand: Trajectory3,
    obj: Trajectory3,
    dist_threshold: float = DEFAULT_DIST_THRESHOLD,
    min_duration: float = DEFAULT_MIN_DURATION,
    side: str = "right",
) -> list[InHandSegment]:
    """Maximal runs of frames where the hand is within dist_threshold of
    the object. Runs shorter than min_duration are discarded."""
    if dist_threshold <= 0:
        raise ValueError("dist_threshold must be positive")
    if len(hand) != len(obj) or not np.array_equal(hand.times, obj.times):
        raise TimelineMismatch("hand and object trajectories must share a timeline")
    close = np.linalg.norm(hand.positions - obj.positions, axis=1) < dist_threshold
    segments = []
    padded = np.concatenate([[False], close, [False]])
    edges = np.diff(padded.astype(int))
    starts = np.nonzero(edges == 1)[0]
    ends = np.nonzero(edges == -1)[0] - 1
    for s, e in zip(starts, ends):
        t0, t1 = float(hand.times[s]), float(hand.times[e])
        if t1 - t0 < min_duration or t1 <= t0:
            continue
        segments.append(InHandSegment(t0, t1, side))
    return segments


def object_speeds(obj: Trajectory3, smoothing: float = SPEED_SMOOTHING) -> np.ndarray:
    """Central-difference speed per frame, box-smoothed over ``smoothing``
    seconds. One-sided differences at the ends."""
    t, p = obj.times, obj.positions
    v = np.gradient(p, t, axis=0)
    speed = np.linalg.norm(v, axis=1)
    if smoothing <= 0 or len(t) < 3:
        return speed
    half = smoothing / 2.0
    lo = np.searchsorted(t, t - half, side="left")
    hi = np.searchsorted(t, t + half, side="right")
    csum = np.concatenate([[0.0], np.cumsum(speed)])
    out = (csum[hi] - csum[lo]) / np.maximum(hi - lo, 1)
    return out


def _first_moving_near(times, moving, anchor_idx, lo_t, hi_t):
    """Index of the earliest frame of the moving stretch that contains (or
    follows) the anchor, restricted to [lo_t, hi_t]. None if the object
    never moves there."""
    window = np.nonzero((times >= lo_t) & (times <= hi_t))[0]
    if window.size == 0:
        return None
    if moving[anchor_idx]:
        # walk outward (backward) to the start of this moving stretch
        i = anchor_idx
        while i - 1 >= window[0] and moving[i - 1]:
            i -= 1
        return i
    after = window[(window >= anchor_idx) & moving[window]]
    return int(after[0]) if after.size else None


def _last_moving_near(times, moving, anchor_idx, lo_t, hi_t):
    """Mirror of _first_moving_near: index of the latest frame of the
    moving stretch that contains (or precedes) the anchor, restricted to
    [lo_t, hi_t]; the put is placed at that last moving frame. None if the
    object never moves there."""
    window = np.nonzero((times >= lo_t) & (times <= hi_t))[0]
    if window.size == 0:
        return None
    if moving[anchor_idx]:
        i = anchor_idx
        while i + 1 <= window[-1] and moving[i + 1]:
            i += 1
        return i
    before = window[(window <= anchor_idx) & moving[window]]
    return int(before[-1]) if before.size else None


def refine_and_emit_events(
    segments: list[InHandSegment],
    obj: Trajectory3,
    stationary_speed: float = DEFAULT_STATIONARY_SPEED,
    object_id: str = "object",
) -> list[InteractionEvent]:
    """Refine each in-hand segment into a pick event (object starts moving
    near the segment start) and a put event (object stops moving near the
    segment end). Segments with no detectable state change fall back to
    the raw boundary, flagged low-confidence.

    The emitted target is a box of half-extent TARGET_HALF_EXTENT around
    the object's position at the event time.
    """
    if stationary_speed <= 0:
        raise ValueError("stationary_speed must be positive")
    speeds = object_speeds(obj)
    moving = speeds > stationary_speed
    times = obj.times
    events = []
    for seg in segments:
        s_idx = int(np.argmin(np.abs(times - seg.start_t)))
        e_idx = int(np.argmin(np.abs(times - seg.end_t)))

        pick_i = _first_moving_near(
            times, moving, s_idx, seg.start_t - BOUNDARY_SLACK, seg.end_t
        )
        if pick_i is None:
            t_pick, low_conf = seg.start_t, True
        else:
            t_pick, low_conf = float(times[pick_i]), False
        events.append(_event("pick", t_pick, obj, object_id, low_conf))

        last_i = _last_moving_near(
            times, moving, e_idx, seg.start_t, seg.end_t + BOUNDARY_SLACK
        )
        if last_i is None:
            t_put, low_conf = seg.end_t, True
        else:
            # symmetric to the pick: the last frame the object still moves
            t_put, low_conf = float(times[last_i]), False
        events.append(_event("put", t_put, obj, object_id, low_conf))
    return events


def _event(kind, t_e, obj, object_id, low_confidence):
    pos = obj.at(t_e)
    h = np.full(3, TARGET_HALF_EXTENT)
    target = ObjectTarget(object_id, box=Aabb(pos - h, pos + h))
    return InteractionEvent(kind, t_e, target, low_confidence=low_confidence)
