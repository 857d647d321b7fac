"""Fixed-fps 22-joint motion sequences and the rigid-normalization,
resampling and head-frame operations defined over them.

A sequence stores joint positions as one (N, 22, 3) array; frame i lives
at time i / fps. Ground-truth sequences may carry a per-frame world gaze
direction used by the priming metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegeneratePose
from .geometry import component_norm
from .skeleton import (
    HEAD,
    L_HIP,
    L_SHOULDER,
    L_WRIST,
    N_JOINTS,
    NECK,
    PELVIS,
    R_HIP,
    R_SHOULDER,
    R_WRIST,
)

_DEGENERATE_TOL = 1e-9

# Most frames a generated or resampled motion may have: about 28 min at
# 60 fps, 53 MB as one (n, 22, 3) array. Motion read from disk is not capped.
MAX_FRAMES = 100_000


@dataclass(frozen=True)
class MotionSequence:
    fps: float
    joints: np.ndarray
    gaze: np.ndarray | None = field(default=None)

    def __post_init__(self):
        j = np.asarray(self.joints, dtype=np.float64)
        if j.ndim != 3 or j.shape[1:] != (N_JOINTS, 3):
            raise ValueError(f"joints must be (N, {N_JOINTS}, 3), got {j.shape}")
        if j.shape[0] < 2:
            raise ValueError("a motion needs at least 2 frames")
        if not np.all(np.isfinite(j)):
            raise ValueError("non-finite joint positions")
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        object.__setattr__(self, "joints", j)
        if self.gaze is not None:
            g = np.asarray(self.gaze, dtype=np.float64)
            if g.shape != (j.shape[0], 3):
                raise ValueError("gaze must be (N, 3) matching the frames")
            if not np.all(np.isfinite(g)):
                raise ValueError("non-finite gaze directions")
            object.__setattr__(self, "gaze", g)

    @property
    def n_frames(self) -> int:
        return self.joints.shape[0]

    @property
    def duration(self) -> float:
        return (self.n_frames - 1) / self.fps

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_frames) / self.fps


def resample(motion: MotionSequence, n: int) -> MotionSequence:
    """Uniform up-/down-sampling to exactly ``n`` frames.

    Joint positions are linearly interpolated at uniform parameters over
    [first, last]; endpoints are preserved exactly and resampling at the
    current frame count is the identity. The gaze channel, being a held
    directional signal, takes the nearest source frame instead of a lerp.
    """
    if not 2 <= n <= MAX_FRAMES:
        raise ValueError(f"n must be in [2, {MAX_FRAMES}]")
    src = motion.n_frames
    pos = np.linspace(0.0, src - 1, n)
    i0 = np.minimum(np.floor(pos).astype(int), src - 2)
    w = (pos - i0)[:, None, None]
    joints = (1.0 - w) * motion.joints[i0] + w * motion.joints[i0 + 1]
    gaze = None
    if motion.gaze is not None:
        gaze = motion.gaze[np.round(pos).astype(int)]
    return MotionSequence(resampled_fps(motion.fps, src, n), joints, gaze)


def resampled_fps(fps: float, src: int, n: int) -> float:
    """The fps of an ``n``-frame resample of ``src`` frames at ``fps``: the
    same duration over n - 1 frame steps."""
    return fps * (n - 1) / (src - 1)


def resampled_index(i: int, src: int, n: int) -> int:
    """Frame of an ``n``-frame resample nearest to frame ``i`` of ``src``;
    one division of exact integers, so an exact half rounds to even."""
    return round(i * (n - 1) / (src - 1))


def _across_vectors(joints: np.ndarray) -> np.ndarray:
    """Left-to-right body axis per frame from hips and shoulders, (N, 3)."""
    return (joints[:, L_HIP] - joints[:, R_HIP]) + (
        joints[:, L_SHOULDER] - joints[:, R_SHOULDER]
    )


def heading_angles(joints: np.ndarray) -> np.ndarray:
    """Per-frame yaw of the body's facing direction, (N,).

    Zero means facing +z; the angle grows toward +x (rotation about +y).
    Raises DegeneratePose when hips and shoulders give no horizontal axis.
    """
    across = _across_vectors(joints)
    fx, fz = -across[:, 2], across[:, 0]
    norm = np.hypot(fx, fz)
    if np.any(norm < _DEGENERATE_TOL):
        raise DegeneratePose("body axis is parallel to the up axis")
    return np.arctan2(fx, fz)


def yaw_matrices(angles) -> np.ndarray:
    """Rotations about +y, one (3, 3) matrix per angle; a positive angle
    turns +z toward +x."""
    angles = np.asarray(angles, dtype=np.float64)
    c, s = np.cos(angles), np.sin(angles)
    m = np.zeros(angles.shape + (3, 3))
    m[..., 0, 0], m[..., 0, 2] = c, s
    m[..., 1, 1] = 1.0
    m[..., 2, 0], m[..., 2, 2] = -s, c
    return m


def yaw_planes(c, s, x, y, z):
    """Vectors given as x, y and z planes, rotated about +y by the angles
    whose cosines and sines are c and s; leading dims broadcast. Returns the
    three rotated planes, computed as ``(0.0 + c*x) + s*z``, ``0.0 + y`` and
    ``(0.0 - s*x) + c*z``: the same bits as ``yaw_matrices`` applied entry
    by entry, ``out_i = 0.0 + m_i0*x + m_i1*y + m_i2*z`` summed left to
    right, without the matrix or its zero entries.

    The rows of the matrix are (c, 0, s), (0, 1, 0) and (-s, 0, c). For
    finite input every dropped term ``0*x`` is +0 or -0, and adding a zero
    to a sum changes it only where the sum is itself zero; the leading
    ``0.0 +`` makes such a sum +0, and +0 plus either zero is +0. And
    ``0.0 - s*x`` is ``0.0 + (-s)*x`` because IEEE subtraction adds the
    negation and negating is exact. A non-finite component may give a
    finite entry where the matrix gave NaN (``0*inf``), but every
    non-finite vector still gives a non-finite vector: y reaches the y
    plane whole, and x, z reach the x and z planes times c, which no finite
    double angle makes zero.

    Each plane is read with unit stride, which is why ``features`` keeps
    its vectors as planes and calls this directly.
    """
    return (0.0 + c * x) + s * z, 0.0 + y, (0.0 - s * x) + c * z


def yaw_apply(angles, v) -> np.ndarray:
    """Vectors v (..., 3) rotated about +y by angles (...), leading dims
    broadcast: ``yaw_planes`` on the components of v, with the same bits as
    ``yaw_matrices(angles)`` applied entry by entry."""
    angles = np.asarray(angles, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    planes = yaw_planes(np.cos(angles), np.sin(angles), v[..., 0], v[..., 1], v[..., 2])
    out = np.empty(np.broadcast_shapes(angles.shape, v.shape[:-1]) + (3,))
    for k, plane in enumerate(planes):
        out[..., k] = plane
    return out


def canonicalize(motion: MotionSequence) -> tuple[MotionSequence, float, np.ndarray]:
    """Rigidly normalize so frame 0 has the pelvis over the ground origin
    and faces +z. Returns ``(canonical motion, angle, shift)``: a point p
    maps to ``yaw_apply(angle, p) + shift`` and a direction d to
    ``yaw_apply(angle, d)``, so callers can drag other scene geometry into
    the same frame; ``yaw_apply(-angle, q - shift)`` maps a point back."""
    angle = -float(heading_angles(motion.joints[:1])[0])
    p0 = motion.joints[0, PELVIS]
    shift = -yaw_apply(angle, np.array([p0[0], 0.0, p0[2]]))
    joints = yaw_apply(angle, motion.joints)
    joints += shift
    gaze = None if motion.gaze is None else yaw_apply(angle, motion.gaze)
    return MotionSequence(motion.fps, joints, gaze), angle, shift


def head_forward_batch(joints: np.ndarray) -> np.ndarray:
    """Forward direction of the head frame of each pose in (N, 22, 3),
    returning (N, 3): up from neck->head, across from the shoulders,
    forward their cross product across x up.

    The cross product and its length are written out on the x, y and z
    components with the bits of ``np.cross`` (``f_0 = a_1*u_2 - a_2*u_1``
    and its cyclic shifts) and ``np.linalg.norm(axis=1)``
    (``geometry.component_norm``)."""
    ax, ay, az = (joints[:, L_SHOULDER] - joints[:, R_SHOULDER]).T
    ux, uy, uz = (joints[:, HEAD] - joints[:, NECK]).T
    fx, fy, fz = ay * uz - az * uy, az * ux - ax * uz, ax * uy - ay * ux
    n = component_norm(fx, fy, fz)
    if np.any(n < _DEGENERATE_TOL):
        raise DegeneratePose("no head frame: the head and shoulder axes "
                             "are parallel or of zero length")
    return np.stack((fx / n, fy / n, fz / n), axis=1)


def head_forward(pose: np.ndarray) -> np.ndarray:
    """head_forward_batch of one (22, 3) pose."""
    return head_forward_batch(np.asarray(pose, dtype=np.float64)[None])[0]


def body_movement(motion: MotionSequence) -> float:
    """Maximum pelvis displacement from the first frame, meters."""
    d = motion.joints[:, PELVIS] - motion.joints[0, PELVIS]
    return float(np.linalg.norm(d, axis=1).max())


def hand_movement(motion: MotionSequence) -> float:
    """Maximum wrist displacement from the first frame, either side."""
    best = 0.0
    for w in (L_WRIST, R_WRIST):
        d = motion.joints[:, w] - motion.joints[0, w]
        best = max(best, float(np.linalg.norm(d, axis=1).max()))
    return best
