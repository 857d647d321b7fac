"""The six evaluation metrics over (predicted, ground-truth) sequence
pairs, plus the prime-success threshold sweep.

All thresholds are inclusive on the success side (<= for prime and reach)
and on the error side (>= for the location flag), matching the reported
definitions; angles are radians internally and degrees only at the CLI
boundary. No root alignment is applied anywhere: errors are world-frame
because generation is conditioned on a world-frame initial state.

Each pair is scored on its own arrays, on x/y/z components: joint
distances come from ``geometry.component_norm`` over component views of
the differences, with the bits of ``np.linalg.norm`` over a 3-long axis,
and single lengths (the prime gaze, reach, location) from
``geometry.norm3``, with the same bits. ``prime_success`` takes the
minimum error over one sigma's window. The sweep has one window kernel,
``_window_minima``: it computes the per-frame errors of the widest window
once, folds them about the prime frame (entry h is the smaller error of
the frames h before and h after it, or the error of the one inside the
sequence) and takes a running minimum, whose entry h is the minimum over
the window of half-width h; ``prime_success_sweep`` reads every sigma's
entry from it.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .curation import PnRSequence
from .errors import EmptyCorpus, MissingGaze
from .features import CONTACT_HEIGHT, CONTACT_SPEED
from .geometry import as_vec3, component_norm, norm3
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
        _check(self.theta_deg, self.sigma)

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
        length = norm3(gaze_at_prime)
        if not length > 0.0:
            raise MissingGaze(f"{gt.id}: gaze at the prime frame has zero length")
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
            prime_gaze=gaze_at_prime / length,
        )


def _check(theta_deg: float = 0.0, sigma: float = 0.0) -> None:
    """Refuse a NaN theta and a NaN or negative sigma, by comparisons
    that NaN fails. An array is checked through its minimum, which is NaN
    when the array holds one."""
    if not theta_deg >= -math.inf:
        raise ValueError("theta must not be NaN")
    if not sigma >= 0.0:
        raise ValueError("sigma must be >= 0")


def _half_width(pair: EvalPair, sigma):
    """Frames on each side of the prime frame in the window of sigma (a
    float or an array): sigma * fps rounded half to even. A half-width past
    the sequence gives the same window, so it is capped there and stays
    finite, also where the product passes the float range."""
    with np.errstate(over="ignore"):
        return np.rint(np.minimum(sigma * pair.predicted.fps, pair.predicted.n_frames)
                       ).astype(np.intp)


def _window(pair: EvalPair, sigma: float) -> slice:
    """Frames within sigma seconds of the prime frame; windows of larger
    sigmas contain those of smaller ones."""
    half = int(_half_width(pair, sigma))
    lo = max(0, pair.prime_frame_index - half)
    hi = min(pair.predicted.n_frames - 1, pair.prime_frame_index + half)
    return slice(lo, hi + 1)


def prime_window_errors(pair: EvalPair, sigma: float) -> np.ndarray:
    """Angular error between the GT prime gaze and the predicted head
    forward, per frame of the +/- sigma window; a NaN or negative sigma
    raises ValueError.

    The dot product is summed elementwise, f0*g0 + f1*g1 + f2*g2, so a
    frame's error does not depend on the window it is computed in (a
    matrix-vector product may round differently with the row count).
    _window_minima relies on that to read every sigma's window out of the
    widest one."""
    _check(sigma=sigma)
    forwards = head_forward_batch(pair.predicted.joints[_window(pair, sigma)])
    g = pair.prime_gaze
    dots = forwards[:, 0] * g[0] + forwards[:, 1] * g[1] + forwards[:, 2] * g[2]
    return np.arccos(np.clip(dots, -1.0, 1.0))


def _window_minima(pair: EvalPair, sigmas: np.ndarray) -> np.ndarray:
    """Minimum prime-window error at each of the sigmas (a float64 array
    of any shape): one prime_window_errors call over the widest window,
    folded about the prime frame and run through a running minimum (see
    the module docstring), read at each sigma's half-width, the integer
    _half_width gives. Minima do not round, so each value is bit-equal to
    the minimum over that sigma's own window."""
    errors = prime_window_errors(pair, float(sigmas.max()))
    halves = _half_width(pair, sigmas)
    widest = int(halves.max())
    at = min(pair.prime_frame_index, widest)  # the prime frame's place in errors
    before, after = errors[at::-1], errors[at:]
    folded = np.full(widest + 1, np.inf)
    folded[:len(before)] = before
    np.minimum(folded[:len(after)], after, out=folded[:len(after)])
    return np.minimum.accumulate(folded)[halves]


def prime_success(pair: EvalPair, theta_deg: float = DEFAULT_THETA_DEG,
                  sigma: float = DEFAULT_SIGMA) -> bool:
    """Minimum angular error over the window is within theta."""
    _check(theta_deg, sigma)
    return bool(prime_window_errors(pair, sigma).min() <= math.radians(theta_deg))


def reach_success(pair: EvalPair) -> bool:
    """Either predicted wrist within REACH_RADIUS of the goal at the last frame."""
    final = pair.predicted.joints[-1]
    d = min(norm3(final[L_WRIST] - pair.goal_location),
            norm3(final[R_WRIST] - pair.goal_location))
    return d <= REACH_RADIUS


def location_error_flag(pair: EvalPair) -> bool:
    """Final pelvis at least LOCATION_THRESHOLD from the GT final pelvis."""
    d = norm3(pair.predicted.joints[-1, PELVIS] - pair.ground_truth.joints[-1, PELVIS])
    return d >= LOCATION_THRESHOLD


def goal_mpjpe(pair: EvalPair) -> float:
    """Mean per-joint error at the final frame, meters."""
    diff = pair.predicted.joints[-1] - pair.ground_truth.joints[-1]
    return float(component_norm(*diff.T).mean())


def mpjpe(pair: EvalPair) -> float:
    """Mean per-joint error over all frames, meters."""
    diff = pair.predicted.joints - pair.ground_truth.joints
    return float(component_norm(*diff.transpose(2, 0, 1)).mean())


def foot_skating(motion: MotionSequence) -> float:
    """Fraction of frame steps where a grounded foot slides.

    A step from frame i-1 to i skates when either toe joint moves
    horizontally faster than CONTACT_SPEED while it is below
    CONTACT_HEIGHT in both frames: the feature contact thresholds."""
    feet = motion.joints[:, [L_FOOT, R_FOOT]]
    step = feet[1:] - feet[:-1]
    hx, hz = step[:, :, 0], step[:, :, 2]
    speed = np.sqrt(hx * hx + hz * hz) * motion.fps
    low = feet[:, :, 1] < CONTACT_HEIGHT
    skate = (low[1:] & low[:-1] & (speed > CONTACT_SPEED)).any(axis=1)
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
        return asdict(self)


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
    percentages of the pair count. ``pairs`` is read once, and only each
    pair's outcome is kept."""
    outcomes = [evaluate_pair(p, config) for p in pairs]
    if not outcomes:
        raise EmptyCorpus("evaluate over zero pairs")
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

    Each pair's minimum error at every sigma comes from one folded running
    minimum over its widest window (_window_minima), in any order of
    sigmas and with repeats, so cell (k, j) equals the mean of
    prime_success(pair, thetas_deg[j], sigmas[k]) over the pairs, times
    100. ``pairs`` is read once, and only each pair's minima are kept. The
    grid is counted one sigma row at a time, which keeps memory at pairs x
    thetas."""
    thetas = np.asarray(list(thetas_deg), dtype=np.float64)
    sigmas = np.asarray(list(sigmas), dtype=np.float64)
    _check(thetas.min(initial=0.0), sigmas.min(initial=0.0))
    # with no sigma there is nothing to compute, but every pair is still read
    mins = np.array([_window_minima(pair, sigmas) if len(sigmas) else sigmas
                     for pair in pairs])
    if not len(mins):
        raise EmptyCorpus("sweep over zero pairs")
    grid = np.zeros((len(sigmas), len(thetas)))
    limits = np.radians(thetas)
    for k in range(len(sigmas)):
        grid[k] = 100.0 * np.mean(mins[:, k][:, None] <= limits[None, :], axis=0)
    return grid
