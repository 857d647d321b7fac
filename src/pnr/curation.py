"""Slicing recordings into prime-and-reach sequences, corpus statistics,
and deterministic video-level train/test splits.

A curated sequence runs from a fixed prepend before the prime time to the
interaction time, carries the goal and the initial body state, and is
rigidly normalized to its own first frame (pelvis over the origin, facing
+z) with the goal, gaze and initial state dragged along.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import EmptyCorpus, EmptyWindow
from .gaze import (
    DEFAULT_TAU,
    DEFAULT_WINDOW,
    GazeTrack,
    InteractionEvent,
    ObjectTarget,
    PrimedEvent,
    find_prime_time,
)
from .motion import MotionSequence, body_movement, canonicalize, hand_movement, yaw_apply

log = logging.getLogger(__name__)

DEFAULT_PREPEND = 2.0  # s prepended before the prime time
DEFAULT_MIN_MOVEMENT = 0.20  # m; stiller interactions are dropped

REASON_UNPRIMED = "unprimed"
REASON_TOO_SHORT = "too_short"
REASON_MINIMAL_MOVEMENT = "minimal_movement"

FLAG_CLAMPED_START = "clamped_start"
FLAG_NO_PRECEDING_FRAME = "no_preceding_frame"


@dataclass(frozen=True)
class Recording:
    id: str
    video_id: str
    gaze: GazeTrack
    motion: MotionSequence
    objects: dict[str, ObjectTarget] = field(default_factory=dict)
    events: list[InteractionEvent] = field(default_factory=list)


@dataclass(frozen=True)
class InitialState:
    """First-frame pose plus per-joint velocity in meters per frame step."""

    pose: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pose, dtype=np.float64)
        v = np.asarray(self.velocity, dtype=np.float64)
        if p.shape != (22, 3) or v.shape != (22, 3):
            raise ValueError("initial state arrays must be (22, 3)")
        if not (np.all(np.isfinite(p)) and np.all(np.isfinite(v))):
            raise ValueError("non-finite initial state")
        object.__setattr__(self, "pose", p)
        object.__setattr__(self, "velocity", v)


@dataclass(frozen=True)
class PnRSequence:
    id: str
    video_id: str
    event: PrimedEvent
    motion: MotionSequence
    goal_location: np.ndarray
    initial_state: InitialState
    prime_frame_index: int
    flags: tuple = ()

    @property
    def goal_pose(self) -> np.ndarray:
        return self.motion.joints[-1]

    @property
    def t_p(self) -> float:
        return self.event.t_p

    @property
    def t_e(self) -> float:
        return self.event.event.t_e

    @property
    def prime_gap(self) -> float:
        return self.t_e - self.t_p


@dataclass(frozen=True)
class Drop:
    event_index: int
    kind: str
    t_e: float
    reason: str


@dataclass(frozen=True)
class CurationResult:
    recording_id: str
    sequences: list
    drops: list


def _nearest_gaze_dirs(track: GazeTrack, frame_times: np.ndarray) -> np.ndarray:
    """World gaze direction of the nearest-in-time sample per frame."""
    _, dirs = track.world_rays()
    idx = np.searchsorted(track.times, frame_times)
    idx = np.clip(idx, 0, len(track) - 1)
    prev = np.clip(idx - 1, 0, len(track) - 1)
    take_prev = np.abs(track.times[prev] - frame_times) <= np.abs(
        track.times[idx] - frame_times
    )
    return dirs[np.where(take_prev, prev, idx)]


def curate(
    recording: Recording,
    prepend: float = DEFAULT_PREPEND,
    w: float = DEFAULT_WINDOW,
    tau: float = DEFAULT_TAU,
    min_movement: float = DEFAULT_MIN_MOVEMENT,
) -> CurationResult:
    """Curate every primeable event of a recording into a sequence.

    Per-event skips are recorded as drops with one of three reasons:
    unprimed (no gaze sample in the window lands on the target; an empty
    window counts, with a warning), too_short (slice under two frames),
    minimal_movement (neither body nor hands move at least min_movement).
    """
    motion = recording.motion
    fps = motion.fps
    n = motion.n_frames
    sequences, drops = [], []
    for k, event in enumerate(recording.events):
        try:
            primed = find_prime_time(recording.gaze, event, w, tau)
        except EmptyWindow as exc:
            log.warning("%s event %d: %s", recording.id, k, exc)
            primed = None
        if primed is None:
            drops.append(Drop(k, event.kind, event.t_e, REASON_UNPRIMED))
            continue

        flags = []
        start_t = primed.t_p - prepend
        if start_t < 0.0:
            start_t = 0.0
            flags.append(FLAG_CLAMPED_START)
        i0 = int(round(start_t * fps))
        i1 = min(int(round(event.t_e * fps)), n - 1)
        if i1 - i0 + 1 < 2:
            drops.append(Drop(k, event.kind, event.t_e, REASON_TOO_SHORT))
            continue

        frame_times = np.arange(i0, i1 + 1) / fps
        gaze_dirs = _nearest_gaze_dirs(recording.gaze, frame_times)
        sliced = MotionSequence(fps, motion.joints[i0 : i1 + 1], gaze=gaze_dirs)

        if max(body_movement(sliced), hand_movement(sliced)) < min_movement:
            drops.append(Drop(k, event.kind, event.t_e, REASON_MINIMAL_MOVEMENT))
            continue

        if i0 >= 1:
            velocity = motion.joints[i0] - motion.joints[i0 - 1]
        else:
            velocity = np.zeros((22, 3))
            flags.append(FLAG_NO_PRECEDING_FRAME)
        prime_idx = int(np.clip(round(primed.t_p * fps) - i0, 0, i1 - i0))

        sliced, angle, shift = canonicalize(sliced)
        sequences.append(
            PnRSequence(
                id=f"{recording.id}-e{k:03d}",
                video_id=recording.video_id,
                event=primed,
                motion=sliced,
                goal_location=yaw_apply(angle, event.target.location) + shift,
                initial_state=InitialState(sliced.joints[0], yaw_apply(angle, velocity)),
                prime_frame_index=prime_idx,
                flags=tuple(flags),
            )
        )
    return CurationResult(recording.id, sequences, drops)


def curate_corpus(recordings, **kwargs) -> list:
    """curate() across a corpus, in input order."""
    return [curate(r, **kwargs) for r in recordings]


@dataclass(frozen=True)
class DatasetStats:
    n_sequences: int
    duration_mean: float
    duration_std: float
    prime_gap_mean: float
    prime_gap_std: float
    body_movement_mean: float
    body_movement_std: float
    hand_movement_mean: float
    hand_movement_std: float
    degenerate_std: bool = False

    def to_dict(self) -> dict:
        return {
            "n_sequences": self.n_sequences,
            "sequence_duration_s": {"mean": self.duration_mean, "std": self.duration_std},
            "prime_gap_s": {"mean": self.prime_gap_mean, "std": self.prime_gap_std},
            "body_movement_m": {"mean": self.body_movement_mean, "std": self.body_movement_std},
            "hand_movement_m": {"mean": self.hand_movement_mean, "std": self.hand_movement_std},
            "degenerate_std": self.degenerate_std,
        }


def stats(sequences) -> DatasetStats:
    """Count, means and sample standard deviations (n-1 denominator) of
    duration, prime gap and body/hand movement. A single sequence reports
    zero stds, flagged degenerate. ``sequences`` is read once, and only
    those four numbers of each sequence are kept."""
    rows = [(s.motion.duration, s.prime_gap, body_movement(s.motion), hand_movement(s.motion))
            for s in sequences]
    if not rows:
        raise EmptyCorpus("stats over zero sequences")
    durations, gaps, body, hand = map(np.array, zip(*rows))
    degenerate = len(rows) == 1

    def mean_std(x):
        if degenerate:
            return float(x[0]), 0.0
        return float(x.mean()), float(x.std(ddof=1))

    d = mean_std(durations)
    g = mean_std(gaps)
    b = mean_std(body)
    h = mean_std(hand)
    return DatasetStats(len(rows), d[0], d[1], g[0], g[1], b[0], b[1], h[0], h[1], degenerate)


@dataclass(frozen=True)
class SplitManifest:
    seed: int
    ratio: float
    train_video_ids: tuple
    test_video_ids: tuple
    assignments: dict  # sequence id -> "train" | "test", in id order

    def to_dict(self) -> dict:
        return asdict(self)


def split(sequences, ratio: float = 0.7, seed: int = 0, video_overrides=None) -> SplitManifest:
    """Video-level split: distinct video ids are shuffled with the seeded
    generator and the first ceil(ratio * V) go to train; sequences inherit
    their video's side, so no video straddles the split. video_overrides
    maps video ids to a forced side (honoring published splits) and takes
    precedence over the shuffle."""
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must be in (0, 1)")
    sequences = list(sequences)
    videos = sorted({s.video_id for s in sequences})
    rng = np.random.default_rng(seed)
    order = [videos[i] for i in rng.permutation(len(videos))]
    n_train = math.ceil(ratio * len(videos))
    side = {v: ("train" if i < n_train else "test") for i, v in enumerate(order)}
    if video_overrides:
        for v, s in video_overrides.items():
            if s not in ("train", "test"):
                raise ValueError(f"override side must be train or test, got {s!r}")
            side[v] = s
    train = tuple(sorted(v for v in side if side[v] == "train"))
    test = tuple(sorted(v for v in side if side[v] == "test"))
    assignments = {s.id: side[s.video_id] for s in sorted(sequences, key=lambda s: s.id)}
    return SplitManifest(seed, ratio, train, test, assignments)
