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

No 3x3 matrix is built. Each direction turns every vector it needs into
or out of the root frame in one ``motion.yaw_apply`` call on one block;
``shortest_arc`` and the bone lengths are written out component by
component. Both give the bits of the matrix forms they replace: yaw
matrices applied entry by entry, ``np.cross``, ``np.sum`` and
``np.linalg.norm`` over the last axis.
"""

from __future__ import annotations

import numpy as np

from .motion import MotionSequence, heading_angles, yaw_apply
from .skeleton import CONTACT_JOINTS, DEFAULT_SKELETON, N_JOINTS, PARENTS, PELVIS

FEATURE_DIM = 263

ROOT_ROT_VEL = 0
ROOT_LIN_VEL = slice(1, 3)
ROOT_HEIGHT = 3
LOCAL_POS = slice(4, 67)
ROTATIONS = slice(67, 193)
VELOCITIES = slice(193, 259)
CONTACTS = slice(259, 263)

# contact thresholds; metrics.foot_skating imports them as its own
CONTACT_HEIGHT = 0.05  # m
CONTACT_SPEED = 0.5  # m/s

# rows of to_features' block of vectors to rotate into the root frame
_STEP = 0
_REL = slice(1, N_JOINTS)
_BONES = slice(N_JOINTS, 2 * N_JOINTS - 1)
_VEL = slice(2 * N_JOINTS - 1, 3 * N_JOINTS - 1)
_BLOCK = 3 * N_JOINTS - 1


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

    Computed component by component with the same bits as the matrix
    form: the cross product a = u x v as ``np.cross`` forms it
    (``a_0 = u_1*v_2 - u_2*v_1`` and its cyclic shifts), and the dot
    product and |a|^2 as ``np.sum`` reduces a 3-long axis, from +0.0 left
    to right (``((0.0 + x_0*y_0) + x_1*y_1) + x_2*y_2``).
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    shape = np.broadcast_shapes(u.shape, v.shape)
    u0, u1, u2 = u[..., 0], u[..., 1], u[..., 2]
    v0, v1, v2 = v[..., 0], v[..., 1], v[..., 2]
    a0 = u1 * v2 - u2 * v1
    a1 = u2 * v0 - u0 * v2
    a2 = u0 * v1 - u1 * v0
    c = ((0.0 + u0 * v0) + u1 * v1) + u2 * v2
    out = np.empty(shape[:-1] + (3, 3))
    safe = c > -1.0 + 1e-8
    den = 1.0 + np.where(safe, c, 0.0)
    norm2 = ((0.0 + a0 * a0) + a1 * a1) + a2 * a2
    # Rodrigues entry by entry: (I + K) + (a a^T - |a|^2 I) / (1 + c), with
    # K the cross-product matrix of a. The identity's off-diagonal zeros
    # are added too, so signed zeros come out as in the matrix form.
    # Products commute exactly, so each off-diagonal a_i a_j / (1 + c) is
    # computed once for both of its entries.
    a01, a02, a12 = a0 * a1 / den, a0 * a2 / den, a1 * a2 / den
    out[..., 0, 0] = 1.0 + (a0 * a0 - norm2) / den
    out[..., 0, 1] = (0.0 - a2) + a01
    out[..., 0, 2] = (0.0 + a1) + a02
    out[..., 1, 0] = (0.0 + a2) + a01
    out[..., 1, 1] = 1.0 + (a1 * a1 - norm2) / den
    out[..., 1, 2] = (0.0 - a0) + a12
    out[..., 2, 0] = (0.0 - a1) + a02
    out[..., 2, 1] = (0.0 + a0) + a12
    out[..., 2, 2] = 1.0 + (a2 * a2 - norm2) / den
    if not np.all(safe):
        flipped = np.argwhere(~safe)
        for idx in flipped:
            uu = np.broadcast_to(u, shape)[tuple(idx)]
            perp = np.cross(uu, [1.0, 0.0, 0.0])
            if np.linalg.norm(perp) < 1e-6:
                perp = np.cross(uu, [0.0, 1.0, 0.0])
            perp /= np.linalg.norm(perp)
            out[tuple(idx)] = 2.0 * np.outer(perp, perp) - np.eye(3)
    return out


def _norm(v: np.ndarray) -> np.ndarray:
    """Lengths of vectors v (..., 3) with the bits of
    ``np.linalg.norm(v, axis=-1)``, whose sum runs from +0.0 left to right."""
    x, y, z = v[..., 0], v[..., 1], v[..., 2]
    return np.sqrt(((0.0 + x * x) + y * y) + z * z)


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    return (a + np.pi) % (2.0 * np.pi) - np.pi


def to_features(motion: MotionSequence) -> np.ndarray:
    """Per-frame 263-dim features of a canonicalized motion, (N, 263)."""
    joints = motion.joints
    n = motion.n_frames
    psi = heading_angles(joints)

    feats = np.zeros((n, FEATURE_DIM))
    feats[:-1, ROOT_ROT_VEL] = _wrap_angle(np.diff(psi))

    # every vector the encoding turns into the root frame, one block per
    # frame: the ground step of the pelvis, the 21 offsets from the
    # pelvis, the 21 bones and the 22 joint velocities; the last frame
    # has no step and no velocity
    pelvis = joints[:, PELVIS]
    world = np.zeros((n, _BLOCK, 3))
    world[:-1, _STEP] = pelvis[1:] - pelvis[:-1]
    world[:-1, _STEP, 1] = 0.0
    world[:, _REL] = joints[:, 1:] - pelvis[:, None, :]
    world[:, _BONES] = joints[:, 1:] - joints[:, PARENTS[1:]]
    world[:-1, _VEL] = joints[1:] - joints[:-1]
    local = yaw_apply(-psi[:, None], world)

    feats[:-1, ROOT_LIN_VEL] = local[:-1, _STEP][:, [0, 2]]
    feats[:, ROOT_HEIGHT] = pelvis[:, 1]
    feats[:, LOCAL_POS] = local[:, _REL].reshape(n, -1)

    rest_dirs = DEFAULT_SKELETON.bone_directions()
    bones = local[:, _BONES]
    lengths = _norm(bones)
    zero = lengths < 1e-9
    obs_dirs = bones / np.where(zero, 1.0, lengths)[..., None]
    if zero.any():
        frame, bone = np.nonzero(zero)
        obs_dirs[frame, bone] = rest_dirs[bone]
    rots = shortest_arc(rest_dirs, obs_dirs)
    feats[:, ROTATIONS] = matrix_to_rot6d(rots).reshape(n, -1)

    feats[:-1, VELOCITIES] = local[:-1, _VEL].reshape(n - 1, -1)

    speeds = _norm(world[:-1, _VEL][:, CONTACT_JOINTS]) * motion.fps
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

    # the ground step (last frame: none) and the 21 pelvis offsets of
    # each frame, turned into the world in one call
    local = np.zeros((n, N_JOINTS, 3))
    local[:-1, 0, [0, 2]] = feats[:-1, ROOT_LIN_VEL]
    local[:, 1:] = feats[:, LOCAL_POS].reshape(n, N_JOINTS - 1, 3)
    world = yaw_apply(psi[:, None], local)
    root = np.zeros((n, 3))
    root[1:] = np.cumsum(world[:-1, 0], axis=0)
    root[:, 1] = feats[:, ROOT_HEIGHT]
    joints = np.zeros((n, N_JOINTS, 3))
    joints[:, 1:] = world[:, 1:] + root[:, None, :]
    joints[:, PELVIS] = root
    return MotionSequence(fps, joints)
