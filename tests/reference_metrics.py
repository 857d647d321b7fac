"""The joint-distance metrics and the prime-success sweep as they were
before ``pnr.metrics`` scored pairs on x/y/z components with one window
kernel, kept for tests only.

``goal_mpjpe``, ``mpjpe`` and ``foot_skating`` are verbatim copies of the
``np.linalg.norm`` forms (``foot_skating`` with its fancy-index gathers).
``_window``, ``prime_success`` and ``prime_success_sweep`` are verbatim
copies of the per-sigma form: one slice and one ``.min()`` per pair and
sigma. ``test_metrics_reference.py`` requires the library versions to give
bit-equal values and grids.
"""

from __future__ import annotations

import math

import numpy as np

from pnr.errors import EmptyCorpus
from pnr.features import CONTACT_HEIGHT, CONTACT_SPEED
from pnr.metrics import DEFAULT_SIGMA, DEFAULT_THETA_DEG, EvalPair, prime_window_errors
from pnr.motion import MotionSequence
from pnr.skeleton import L_FOOT, R_FOOT


def _window(pair: EvalPair, sigma: float) -> slice:
    """Frames within sigma seconds of the prime frame; windows of larger
    sigmas contain those of smaller ones. A half-width past the sequence
    gives the same window, so it is capped there and stays finite."""
    half = int(round(min(sigma * pair.predicted.fps, pair.predicted.n_frames)))
    lo = max(0, pair.prime_frame_index - half)
    hi = min(pair.predicted.n_frames - 1, pair.prime_frame_index + half)
    return slice(lo, hi + 1)


def prime_success(pair: EvalPair, theta_deg: float = DEFAULT_THETA_DEG,
                  sigma: float = DEFAULT_SIGMA) -> bool:
    """Minimum angular error over the window is within theta."""
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    errors = prime_window_errors(pair, sigma)
    return bool(errors.min() <= math.radians(theta_deg))


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
