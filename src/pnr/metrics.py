"""The six evaluation metrics over (predicted, ground-truth) sequence
pairs, plus the prime-success threshold sweep.

All thresholds are inclusive on the success side (<= for prime and reach)
and on the error side (>= for the location flag), matching the reported
definitions; angles are radians internally and degrees only at the CLI
boundary. No root alignment is applied anywhere: errors are world-frame
because generation is conditioned on a world-frame initial state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .curation import PnRSequence
from .errors import EmptyCorpus, MissingGaze
from .features import CONTACT_HEIGHT, CONTACT_SPEED
from .geometry import as_vec3
from .motion import MotionSequence, head_forward_batch, resample, resampled_index
from .skeleton import L_FOOT, L_WRIST, PELVIS, R_FOOT, R_WRIST

DEFAULT_THETA_DEG = 16.0
DEFAULT_SIGMA = 0.2  # s
DEFAULT_N_FRAMES = 150
REACH_RADIUS = 0.10  # m
LOCATION_THRESHOLD = 0.50  # m


@dataclass(frozen=True)
class MetricsConfig:
    """The settable metric parameters. to_dict also echoes the fixed
    thresholds, so a report states every value it was scored with."""

    theta_deg: float = DEFAULT_THETA_DEG
    sigma: float = DEFAULT_SIGMA
    n_frames: int = DEFAULT_N_FRAMES

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be >= 0")

    @property
    def theta_rad(self) -> float:
        return math.radians(self.theta_deg)

    def to_dict(self) -> dict:
        return {
            "theta_deg": self.theta_deg,
            "sigma_s": self.sigma,
            "reach_radius_m": REACH_RADIUS,
            "location_threshold_m": LOCATION_THRESHOLD,
            "skate_speed_m_per_s": CONTACT_SPEED,
            "skate_height_m": CONTACT_HEIGHT,
            "n_frames": self.n_frames,
            "foot_joints": "toes",
        }


@dataclass(frozen=True)
class EvalPair:
    """A predicted motion against its ground truth, on a shared frame
    count and fps. prime_gaze is the GT gaze at the prime time, captured
    before any resampling so the reference direction cannot be blurred."""

    id: str
    predicted: MotionSequence
    ground_truth: MotionSequence
    prime_frame_index: int
    goal_location: np.ndarray
    prime_gaze: np.ndarray

    def __post_init__(self):
        if self.predicted.n_frames != self.ground_truth.n_frames:
            raise ValueError("predicted and ground truth must share frame counts")
        if not math.isclose(self.predicted.fps, self.ground_truth.fps, rel_tol=1e-9):
            raise ValueError("predicted and ground truth must share fps")
        if not 0 <= self.prime_frame_index < self.predicted.n_frames:
            raise ValueError("prime frame index out of range")
        object.__setattr__(self, "goal_location", as_vec3(self.goal_location))
        object.__setattr__(self, "prime_gaze", as_vec3(self.prime_gaze))

    @staticmethod
    def from_sequences(predicted: MotionSequence, gt: PnRSequence, n: int | None = None) -> "EvalPair":
        """Pair a prediction with a curated sequence on n frames (default:
        the prediction's frame count). The GT is resampled to n frames; the
        prediction is resampled only when its frame count differs, and is
        put on the resampled GT's fps. The prime gaze is read from the
        unresampled GT at its own prime frame."""
        if gt.motion.gaze is None:
            raise MissingGaze(f"{gt.id}: ground truth carries no gaze")
        n = n if n is not None else predicted.n_frames
        gaze_at_prime = gt.motion.gaze[gt.prime_frame_index]
        if not np.all(np.isfinite(gaze_at_prime)):
            raise MissingGaze(f"{gt.id}: gaze missing at the prime frame")
        resampled = resample(gt.motion, n)
        if predicted.n_frames != n:
            predicted = resample(predicted, n)
        if predicted.fps != resampled.fps:
            predicted = MotionSequence(resampled.fps, predicted.joints)
        return EvalPair(
            id=gt.id,
            predicted=predicted,
            ground_truth=resampled,
            prime_frame_index=resampled_index(gt.prime_frame_index, gt.motion.n_frames, n),
            goal_location=gt.goal_location,
            prime_gaze=gaze_at_prime / np.linalg.norm(gaze_at_prime),
        )


def _window(pair: EvalPair, sigma: float) -> slice:
    """Frames within sigma seconds of the prime frame; windows of larger
    sigmas contain those of smaller ones. A half-width past the sequence
    gives the same window, so it is capped there and stays finite."""
    half = int(round(min(sigma * pair.predicted.fps, pair.predicted.n_frames)))
    lo = max(0, pair.prime_frame_index - half)
    hi = min(pair.predicted.n_frames - 1, pair.prime_frame_index + half)
    return slice(lo, hi + 1)


def prime_window_errors(pair: EvalPair, sigma: float) -> np.ndarray:
    """Angular error between the GT prime gaze and the predicted head
    forward, per frame of the +/- sigma window.

    The dot product is summed elementwise, f0*g0 + f1*g1 + f2*g2, so a
    frame's error does not depend on the window it is computed in (a
    matrix-vector product may round differently with the row count).
    prime_success_sweep relies on that to read every sigma's window out
    of the widest one and agree with prime_success to the bit."""
    forwards = head_forward_batch(pair.predicted.joints[_window(pair, sigma)])
    g = pair.prime_gaze
    dots = forwards[:, 0] * g[0] + forwards[:, 1] * g[1] + forwards[:, 2] * g[2]
    return np.arccos(np.clip(dots, -1.0, 1.0))


def prime_success(pair: EvalPair, theta_deg: float = DEFAULT_THETA_DEG,
                  sigma: float = DEFAULT_SIGMA) -> bool:
    """Minimum angular error over the window is within theta."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    errors = prime_window_errors(pair, sigma)
    return bool(errors.min() <= math.radians(theta_deg))


def reach_success(pair: EvalPair) -> bool:
    """Either predicted wrist within REACH_RADIUS of the goal at the last frame."""
    final = pair.predicted.joints[-1]
    d = min(
        float(np.linalg.norm(final[L_WRIST] - pair.goal_location)),
        float(np.linalg.norm(final[R_WRIST] - pair.goal_location)),
    )
    return d <= REACH_RADIUS


def location_error_flag(pair: EvalPair) -> bool:
    """Final pelvis at least LOCATION_THRESHOLD from the GT final pelvis."""
    d = float(
        np.linalg.norm(
            pair.predicted.joints[-1, PELVIS] - pair.ground_truth.joints[-1, PELVIS]
        )
    )
    return d >= LOCATION_THRESHOLD


def goal_mpjpe(pair: EvalPair) -> float:
    """Mean per-joint error at the final frame, meters."""
    d = np.linalg.norm(pair.predicted.joints[-1] - pair.ground_truth.joints[-1], axis=1)
    return float(d.mean())


def mpjpe(pair: EvalPair) -> float:
    """Mean per-joint error over all frames, meters."""
    d = np.linalg.norm(pair.predicted.joints - pair.ground_truth.joints, axis=2)
    return float(d.mean())


def foot_skating(motion: MotionSequence) -> float:
    """Fraction of frame steps where a grounded foot slides.

    A step from frame i-1 to i skates when either toe joint moves
    horizontally faster than CONTACT_SPEED while it is below
    CONTACT_HEIGHT in both frames: the feature contact thresholds."""
    joints = motion.joints
    skate = np.zeros(joints.shape[0] - 1, dtype=bool)
    for j in (L_FOOT, R_FOOT):
        track = joints[:, j]
        horiz = track[1:, [0, 2]] - track[:-1, [0, 2]]
        speed = np.linalg.norm(horiz, axis=1) * motion.fps
        grounded = (track[1:, 1] < CONTACT_HEIGHT) & (track[:-1, 1] < CONTACT_HEIGHT)
        skate |= grounded & (speed > CONTACT_SPEED)
    return float(skate.sum() / len(skate))


@dataclass(frozen=True)
class PairOutcome:
    id: str
    prime_success: bool
    reach_success: bool
    location_error: bool
    goal_mpjpe: float
    mpjpe: float
    foot_skating: float

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "prime_success": self.prime_success,
            "reach_success": self.reach_success,
            "location_error": self.location_error,
            "goal_mpjpe": self.goal_mpjpe,
            "mpjpe": self.mpjpe,
            "foot_skating": self.foot_skating,
        }


@dataclass(frozen=True)
class MetricsReport:
    prime_success: float  # percent
    reach_success: float  # percent
    location_error_rate: float  # percent
    goal_mpjpe: float  # meters
    mpjpe: float  # meters
    foot_skating: float  # fraction
    n: int
    config: MetricsConfig
    per_pair: tuple = field(default=())

    def to_dict(self) -> dict:
        return {
            "prime_success": self.prime_success,
            "reach_success": self.reach_success,
            "location_error_rate": self.location_error_rate,
            "goal_mpjpe": self.goal_mpjpe,
            "mpjpe": self.mpjpe,
            "foot_skating": self.foot_skating,
            "n": self.n,
            "config": self.config.to_dict(),
            "per_sequence": [p.to_dict() for p in self.per_pair],
        }


def evaluate_pair(pair: EvalPair, config: MetricsConfig = MetricsConfig()) -> PairOutcome:
    return PairOutcome(
        id=pair.id,
        prime_success=prime_success(pair, config.theta_deg, config.sigma),
        reach_success=reach_success(pair),
        location_error=location_error_flag(pair),
        goal_mpjpe=goal_mpjpe(pair),
        mpjpe=mpjpe(pair),
        foot_skating=foot_skating(pair.predicted),
    )


def evaluate(pairs, config: MetricsConfig = MetricsConfig()) -> MetricsReport:
    """All six metrics over a corpus of pairs; success metrics are
    percentages of the pair count."""
    pairs = list(pairs)
    if not pairs:
        raise EmptyCorpus("evaluate over zero pairs")
    outcomes = [evaluate_pair(p, config) for p in pairs]
    n = len(outcomes)
    return MetricsReport(
        prime_success=100.0 * sum(o.prime_success for o in outcomes) / n,
        reach_success=100.0 * sum(o.reach_success for o in outcomes) / n,
        location_error_rate=100.0 * sum(o.location_error for o in outcomes) / n,
        goal_mpjpe=float(np.mean([o.goal_mpjpe for o in outcomes])),
        mpjpe=float(np.mean([o.mpjpe for o in outcomes])),
        foot_skating=float(np.mean([o.foot_skating for o in outcomes])),
        n=n,
        config=config,
        per_pair=tuple(outcomes),
    )


def prime_success_sweep(pairs, thetas_deg, sigmas) -> np.ndarray:
    """Prime-success percentage grid, shape (len(sigmas), len(thetas)).

    Per-frame angular errors are computed once per pair over the widest
    window; each sigma's window is nested in it, so its minimum is read
    from a slice, and cell (k, j) equals the mean of
    prime_success(pair, thetas_deg[j], sigmas[k]) over the pairs, times 100."""
    pairs = list(pairs)
    if not pairs:
        raise EmptyCorpus("sweep over zero pairs")
    thetas = np.asarray(list(thetas_deg), dtype=np.float64)
    sigmas = np.asarray(list(sigmas), dtype=np.float64)
    if np.any(sigmas < 0):
        raise ValueError("sigmas must be >= 0")
    grid = np.zeros((len(sigmas), len(thetas)))
    if not len(sigmas):
        return grid
    widest = float(sigmas.max())
    mins = np.zeros((len(pairs), len(sigmas)))
    for i, pair in enumerate(pairs):
        errors = prime_window_errors(pair, widest)
        first = _window(pair, widest).start
        for k, sigma in enumerate(sigmas):
            w = _window(pair, float(sigma))
            mins[i, k] = errors[w.start - first:w.stop - first].min()
    theta_rad = np.radians(thetas)
    for k in range(len(sigmas)):
        grid[k] = 100.0 * np.mean(mins[:, k][:, None] <= theta_rad[None, :], axis=0)
    return grid
