"""The 263-dim feature encoding as it was before the per-entry rewrite of
``pnr.features``, kept for tests only.

``shortest_arc``, ``matrix_to_rot6d``, ``to_features`` and
``from_features`` below are verbatim copies of the einsum-based
implementations (3x3 matrices built whole, rotations applied with
``np.einsum``); ``to_features`` takes the rest-pose bone directions from
``_rest_dirs``, the removed ``SkeletonSpec.bone_directions`` on the
skeleton's offsets. One edit was made since: ``shortest_arc`` takes the
length of an antiparallel bone's perpendicular over its last axis
(``axis=-1``). Without an axis ``np.linalg.norm`` is a BLAS dot product,
whose bits depend on the kernel OpenBLAS picks for the CPU; over an axis
it sums the squares left to right, as ``geometry.norm3`` does. ``test_features_reference.py`` requires the library
versions to return bit-equal arrays, and ``features._arc_entries`` and
``features._FLIP_ROWS`` to give the rows of ``shortest_arc`` that the
encoding stores.

``rot6d_to_matrix`` decodes the two stored rows of a rotation channel
into its matrix; the tests use it as their oracle for those rows, and the
library, which never decodes them, no longer has it.

``_rotate`` is a verbatim copy of the per-entry matrix product that the
library used between the einsum form and ``motion.yaw_apply``;
``test_yaw_reference.py`` holds ``yaw_apply`` to its bits.

``head_forward_batch`` is a verbatim copy of ``motion.head_forward_batch``
as it was before its cross product and norm were written out on the x, y
and z components; ``test_features_planes.py`` holds the library version to
its bits and to its ``DegeneratePose``.
"""

from __future__ import annotations

import numpy as np

from pnr.features import (
    CONTACT_HEIGHT,
    CONTACT_SPEED,
    CONTACTS,
    FEATURE_DIM,
    LOCAL_POS,
    ROOT_HEIGHT,
    ROOT_LIN_VEL,
    ROOT_ROT_VEL,
    ROTATIONS,
    VELOCITIES,
)
from pnr.errors import DegeneratePose
from pnr.motion import _DEGENERATE_TOL, MotionSequence, heading_angles, yaw_matrices
from pnr.skeleton import (
    CONTACT_JOINTS,
    HEAD,
    L_SHOULDER,
    N_JOINTS,
    NECK,
    PARENTS,
    PELVIS,
    R_SHOULDER,
    REST_OFFSETS,
)


def _rest_dirs() -> np.ndarray:
    """Unit rest-pose bone direction per non-root joint, (21, 3)."""
    off = REST_OFFSETS[1:]
    return off / np.linalg.norm(off, axis=1, keepdims=True)


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
    cs = np.where(safe, c, 0.0)
    aa = a[..., :, None] * a[..., None, :]
    k = np.zeros_like(aa)
    k[..., 0, 1], k[..., 0, 2] = -a[..., 2], a[..., 1]
    k[..., 1, 0], k[..., 1, 2] = a[..., 2], -a[..., 0]
    k[..., 2, 0], k[..., 2, 1] = -a[..., 1], a[..., 0]
    norm2 = np.sum(a * a, axis=-1)
    out[...] = np.eye(3)
    out += k
    out += (aa - norm2[..., None, None] * np.eye(3)) / (1.0 + cs)[..., None, None]
    if not np.all(safe):
        flipped = np.argwhere(~safe)
        for idx in flipped:
            uu = u[tuple(idx)]
            perp = np.cross(uu, [1.0, 0.0, 0.0])
            if np.linalg.norm(perp, axis=-1) < 1e-6:
                perp = np.cross(uu, [0.0, 1.0, 0.0])
            perp /= np.linalg.norm(perp, axis=-1)
            out[tuple(idx)] = 2.0 * np.outer(perp, perp) - np.eye(3)
    return out


def matrix_to_rot6d(mats: np.ndarray) -> np.ndarray:
    """First two rows of (..., 3, 3) rotation matrices, flattened."""
    return mats[..., :2, :].reshape(*mats.shape[:-2], 6)


def rot6d_to_matrix(d6: np.ndarray) -> np.ndarray:
    """Gram-Schmidt the two stored rows back into a rotation matrix: the
    decoder of the rotation channels, which nothing in the library reads."""
    a1, a2 = d6[..., :3], d6[..., 3:]
    b1 = a1 / np.linalg.norm(a1, axis=-1, keepdims=True)
    a2p = a2 - np.sum(b1 * a2, axis=-1, keepdims=True) * b1
    b2 = a2p / np.linalg.norm(a2p, axis=-1, keepdims=True)
    b3 = np.cross(b1, b2)
    return np.stack([b1, b2, b3], axis=-2)


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
    local_step = np.einsum("nij,nj->ni", inv_rot[:-1], step)
    feats[:-1, ROOT_LIN_VEL] = local_step[:, [0, 2]]
    feats[:, ROOT_HEIGHT] = pelvis[:, 1]

    rel = joints[:, 1:] - pelvis[:, None, :]
    local_pos = np.einsum("nij,nkj->nki", inv_rot, rel)
    feats[:, LOCAL_POS] = local_pos.reshape(n, -1)

    rest_dirs = _rest_dirs()
    bones = joints[:, 1:] - joints[:, PARENTS[1:]]
    bones = np.einsum("nij,nkj->nki", inv_rot, bones)
    lengths = np.linalg.norm(bones, axis=-1)
    safe = np.where(lengths < 1e-9, 1.0, lengths)
    obs_dirs = bones / safe[..., None]
    degenerate = np.where(lengths < 1e-9)
    if degenerate[0].size:
        obs_dirs[degenerate[0], degenerate[1]] = rest_dirs[degenerate[1]]
    rots = shortest_arc(np.broadcast_to(rest_dirs, obs_dirs.shape), obs_dirs)
    feats[:, ROTATIONS] = matrix_to_rot6d(rots).reshape(n, -1)

    vel = joints[1:] - joints[:-1]
    local_vel = np.einsum("nij,nkj->nki", inv_rot[:-1], vel)
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
    world_step = np.einsum("nij,nj->ni", rot[:-1], local_step)
    ground = np.zeros((n, 3))
    ground[1:] = np.cumsum(world_step, axis=0)

    root = ground.copy()
    root[:, 1] = feats[:, ROOT_HEIGHT]
    joints = np.zeros((n, N_JOINTS, 3))
    local_pos = feats[:, LOCAL_POS].reshape(n, N_JOINTS - 1, 3)
    joints[:, 1:] = np.einsum("nij,nkj->nki", rot, local_pos) + root[:, None, :]
    joints[:, PELVIS] = root
    return MotionSequence(fps, joints)


def head_forward_batch(joints: np.ndarray) -> np.ndarray:
    """Forward direction of the head frame of each pose in (N, 22, 3),
    returning (N, 3): up from neck->head, across from the shoulders,
    forward their cross."""
    up_h = joints[:, HEAD] - joints[:, NECK]
    across = joints[:, L_SHOULDER] - joints[:, R_SHOULDER]
    fwd = np.cross(across, up_h)
    n = np.linalg.norm(fwd, axis=1)
    if np.any(n < _DEGENERATE_TOL):
        raise DegeneratePose("no head frame: the head and shoulder axes "
                             "are parallel or of zero length")
    return fwd / n[:, None]
