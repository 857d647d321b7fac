"""Conversion between joint-position motion and the 263-dim per-frame
feature representation used as the training/interchange format.

Layout per frame (indices below are the binding contract):

    [0]        root angular velocity about +y, rad per frame step
    [1:3]      root linear velocity (x, z) in the root-local ground plane,
               meters per frame step
    [3]        root height (pelvis y), meters
    [4:67]     joints 1..21 positions relative to the pelvis, expressed in
               the heading-removed root frame (21 x 3)
    [67:193]   joints 1..21 rotations in continuous 6-D form (21 x 6)
    [193:259]  all 22 joint velocities in the root frame, m per frame (22 x 3)
    [259:263]  contact flags for l_ankle, l_foot, r_ankle, r_foot

Rotations are the shortest-arc alignment from the rest-pose bone direction
to the observed bone direction in the root frame (positions cannot fix
twist, so twist is zero). Velocity channels at the last frame are zero;
its contact flags reuse the previous frame step. Position recovery needs
only the root channels and local positions, so the rotation and contact
channels ride along unchanged through a round trip.

Conversion expects canonicalized motion (frame-0 pelvis over the origin,
facing +z): recovery integrates the root from that initial condition.
"""

from __future__ import annotations

import numpy as np

from .motion import MotionSequence, heading_angles, yaw_matrices
from .skeleton import CONTACT_JOINTS, DEFAULT_SKELETON, N_JOINTS, PARENTS, PELVIS

FEATURE_DIM = 263

ROOT_ROT_VEL = 0
ROOT_LIN_VEL = slice(1, 3)
ROOT_HEIGHT = 3
LOCAL_POS = slice(4, 67)
ROTATIONS = slice(67, 193)
VELOCITIES = slice(193, 259)
CONTACTS = slice(259, 263)

CONTACT_HEIGHT = 0.05  # m, shared with the foot-skating metric
CONTACT_SPEED = 0.5  # m/s, shared with the foot-skating metric


def matrix_to_rot6d(mats: np.ndarray) -> np.ndarray:
    """First two rows of (..., 3, 3) rotation matrices, flattened."""
    return mats[..., :2, :].reshape(*mats.shape[:-2], 6)


def rot6d_to_matrix(d6: np.ndarray) -> np.ndarray:
    """Gram-Schmidt the two stored rows back into a rotation matrix."""
    a1, a2 = d6[..., :3], d6[..., 3:]
    b1 = a1 / np.linalg.norm(a1, axis=-1, keepdims=True)
    a2p = a2 - np.sum(b1 * a2, axis=-1, keepdims=True) * b1
    b2 = a2p / np.linalg.norm(a2p, axis=-1, keepdims=True)
    b3 = np.cross(b1, b2)
    return np.stack([b1, b2, b3], axis=-2)


def shortest_arc(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotation matrices taking unit vectors u onto unit vectors v.

    Broadcasts over leading dims. Antiparallel pairs rotate 180 degrees
    about an arbitrary perpendicular axis.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    u, v = np.broadcast_arrays(u, v)
    a = np.cross(u, v)
    c = np.sum(u * v, axis=-1)
    out = np.empty(u.shape[:-1] + (3, 3))
    safe = c > -1.0 + 1e-8
    den = 1.0 + np.where(safe, c, 0.0)
    norm2 = np.sum(a * a, axis=-1)
    # Rodrigues entry by entry: (I + K) + (a a^T - |a|^2 I) / (1 + c), with
    # K the cross-product matrix of a = u x v. The identity's off-diagonal
    # zeros are added too, so signed zeros come out as in the matrix form.
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    out[..., 0, 0] = 1.0 + (a0 * a0 - norm2) / den
    out[..., 0, 1] = (0.0 - a2) + a0 * a1 / den
    out[..., 0, 2] = (0.0 + a1) + a0 * a2 / den
    out[..., 1, 0] = (0.0 + a2) + a1 * a0 / den
    out[..., 1, 1] = 1.0 + (a1 * a1 - norm2) / den
    out[..., 1, 2] = (0.0 - a0) + a1 * a2 / den
    out[..., 2, 0] = (0.0 - a1) + a2 * a0 / den
    out[..., 2, 1] = (0.0 + a0) + a2 * a1 / den
    out[..., 2, 2] = 1.0 + (a2 * a2 - norm2) / den
    if not np.all(safe):
        flipped = np.argwhere(~safe)
        for idx in flipped:
            uu = u[tuple(idx)]
            perp = np.cross(uu, [1.0, 0.0, 0.0])
            if np.linalg.norm(perp) < 1e-6:
                perp = np.cross(uu, [0.0, 1.0, 0.0])
            perp /= np.linalg.norm(perp)
            out[tuple(idx)] = 2.0 * np.outer(perp, perp) - np.eye(3)
    return out


def _rotate(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Matrices m (..., 3, 3) applied to vectors v (..., 3), leading dims
    broadcast: out_i = m_i0*x + m_i1*y + m_i2*z, summed in that order from
    +0.0 as a matrix product does, so an all-zero sum is +0.0."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return np.stack([0.0 + m[..., i, 0] * x + m[..., i, 1] * y + m[..., i, 2] * z
                     for i in range(3)], axis=-1)


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def to_features(motion: MotionSequence) -> np.ndarray:
    """Per-frame 263-dim features of a canonicalized motion, (N, 263)."""
    joints = motion.joints
    n = motion.n_frames
    psi = heading_angles(joints)
    inv_rot = yaw_matrices(-psi)

    feats = np.zeros((n, FEATURE_DIM))
    feats[:-1, ROOT_ROT_VEL] = _wrap_angle(np.diff(psi))

    pelvis = joints[:, PELVIS]
    step = pelvis[1:] - pelvis[:-1]
    step[:, 1] = 0.0
    local_step = _rotate(inv_rot[:-1], step)
    feats[:-1, ROOT_LIN_VEL] = local_step[:, [0, 2]]
    feats[:, ROOT_HEIGHT] = pelvis[:, 1]

    rel = joints[:, 1:] - pelvis[:, None, :]
    local_pos = _rotate(inv_rot[:, None], rel)
    feats[:, LOCAL_POS] = local_pos.reshape(n, -1)

    rest_dirs = DEFAULT_SKELETON.bone_directions()
    bones = joints[:, 1:] - joints[:, PARENTS[1:]]
    bones = _rotate(inv_rot[:, None], bones)
    lengths = np.linalg.norm(bones, axis=-1)
    safe = np.where(lengths < 1e-9, 1.0, lengths)
    obs_dirs = bones / safe[..., None]
    degenerate = np.where(lengths < 1e-9)
    if degenerate[0].size:
        obs_dirs[degenerate[0], degenerate[1]] = rest_dirs[degenerate[1]]
    rots = shortest_arc(np.broadcast_to(rest_dirs, obs_dirs.shape), obs_dirs)
    feats[:, ROTATIONS] = matrix_to_rot6d(rots).reshape(n, -1)

    vel = joints[1:] - joints[:-1]
    local_vel = _rotate(inv_rot[:-1, None], vel)
    feats[:-1, VELOCITIES] = local_vel.reshape(n - 1, -1)

    speeds = np.linalg.norm(vel[:, CONTACT_JOINTS], axis=-1) * motion.fps
    speeds = np.concatenate([speeds, speeds[-1:]], axis=0)
    heights = joints[:, CONTACT_JOINTS, 1]
    feats[:, CONTACTS] = ((heights < CONTACT_HEIGHT) & (speeds < CONTACT_SPEED)).astype(
        np.float64
    )
    return feats


def from_features(features: np.ndarray, fps: float) -> MotionSequence:
    """Recover joint positions from features by integrating the root
    velocities from the canonical initial condition."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != FEATURE_DIM:
        raise ValueError(f"features must be (N, {FEATURE_DIM}), got {feats.shape}")
    n = feats.shape[0]
    psi = np.concatenate([[0.0], np.cumsum(feats[:-1, ROOT_ROT_VEL])])
    rot = yaw_matrices(psi)

    local_step = np.zeros((n - 1, 3))
    local_step[:, [0, 2]] = feats[:-1, ROOT_LIN_VEL]
    world_step = _rotate(rot[:-1], local_step)
    ground = np.zeros((n, 3))
    ground[1:] = np.cumsum(world_step, axis=0)

    root = ground.copy()
    root[:, 1] = feats[:, ROOT_HEIGHT]
    joints = np.zeros((n, N_JOINTS, 3))
    local_pos = feats[:, LOCAL_POS].reshape(n, N_JOINTS - 1, 3)
    joints[:, 1:] = _rotate(rot[:, None], local_pos) + root[:, None, :]
    joints[:, PELVIS] = root
    return MotionSequence(fps, joints)
