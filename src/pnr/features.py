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
twist, so twist is zero). A bone pointing against its rest direction u
(cosine at most -1 + 1e-8) has no shortest arc and is stored as the
180-degree turn about u x +x, or about u x +y where u x +x is shorter than
1e-6. Those flip rows depend on the bone alone, so ``_FLIP_ROWS`` holds
them for all 21 bones, computed once at import. Velocity channels at the
last frame are zero; its contact flags reuse the previous frame step.
Position recovery needs only the root channels and local positions, so
the rotation and contact channels ride along unchanged through a round
trip.

Conversion expects canonicalized motion (frame-0 pelvis over the origin,
facing +z): recovery integrates the root from that initial condition.

No 3x3 matrix is built. The encoding copies the joints once into x, y
and z planes, contiguous (N, 22) arrays, and keeps every vector it turns
into the root frame as one (N, 65) block on each plane; one
``motion.yaw_planes`` call rotates the three blocks. The bone lengths
(``geometry.component_norm``) and the two stored rows of each
shortest-arc rotation (``_arc_entries``) are computed on the planes too.
The decoding rotates the stored offsets and the root steps on the planes
and integrates the root from its x and z planes. All of it gives the
bits of the matrix forms it replaces: yaw
matrices applied entry by entry, ``np.cross``, ``np.sum`` and
``np.linalg.norm`` over the last axis.
"""

from __future__ import annotations

import numpy as np

from .geometry import component_norm, norm3
from .motion import MotionSequence, heading_angles, wrap_angle, yaw_planes
from .skeleton import CONTACT_JOINTS, N_JOINTS, PARENTS, PELVIS, REST_DIRS

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

# columns of to_features' planes of vectors to rotate into the root frame
_STEP = 0
_REL = slice(1, N_JOINTS)
_BONES = slice(N_JOINTS, 2 * N_JOINTS - 1)
_VEL = slice(2 * N_JOINTS - 1, 3 * N_JOINTS - 1)
_BLOCK = 3 * N_JOINTS - 1


def _arc_entries(u, v):
    """Entries of the first two rows of the shortest-arc rotations taking
    unit vectors u onto unit vectors v, given as x, y, z planes whose
    leading dims broadcast; returns (entries in row-major order, safe),
    safe false where the pair is antiparallel and the entries are not its
    rotation.

    Computed with the bits of the matrix form: the cross product a = u x v
    as ``np.cross`` forms it (``a_0 = u_1*v_2 - u_2*v_1`` and its cyclic
    shifts), and the dot product and |a|^2 as ``np.sum`` reduces a 3-long
    axis, from +0.0 left to right (``((0.0 + x_0*y_0) + x_1*y_1) + x_2*y_2``).
    """
    u0, u1, u2 = u
    v0, v1, v2 = v
    a0 = u1 * v2 - u2 * v1
    a1 = u2 * v0 - u0 * v2
    a2 = u0 * v1 - u1 * v0
    c = ((0.0 + u0 * v0) + u1 * v1) + u2 * v2
    safe = c > -1.0 + 1e-8
    den = 1.0 + np.where(safe, c, 0.0)
    norm2 = ((0.0 + a0 * a0) + a1 * a1) + a2 * a2
    # Rodrigues entry by entry: (I + K) + (a a^T - |a|^2 I) / (1 + c), with
    # K the cross-product matrix of a. The identity's off-diagonal zeros
    # are added too, so signed zeros come out as in the matrix form.
    # Products commute exactly, so each off-diagonal a_i a_j / (1 + c) is
    # computed once for both of its entries.
    a01, a02, a12 = a0 * a1 / den, a0 * a2 / den, a1 * a2 / den
    entries = [1.0 + (a0 * a0 - norm2) / den, (0.0 - a2) + a01, (0.0 + a1) + a02,
               (0.0 + a2) + a01, 1.0 + (a1 * a1 - norm2) / den, (0.0 - a0) + a12]
    return entries, safe


def _flip_rows(u):
    """First two rows, flattened, of the 180-degree rotation about an axis
    perpendicular to the unit vector u: u x +x, or u x +y where that is
    shorter than 1e-6."""
    perp = np.cross(u, [1.0, 0.0, 0.0])
    if norm3(perp) < 1e-6:
        perp = np.cross(u, [0.0, 1.0, 0.0])
    perp /= norm3(perp)
    return (2.0 * np.outer(perp, perp) - np.eye(3))[:2].reshape(6)


# the stored rows of each bone pointing against its rest direction, (21, 6)
_FLIP_ROWS = np.array([_flip_rows(u) for u in REST_DIRS])
_FLIP_ROWS.flags.writeable = False


def to_features(motion: MotionSequence) -> np.ndarray:
    """Per-frame 263-dim features of a canonicalized motion, (N, 263)."""
    joints = motion.joints
    n = motion.n_frames
    psi = heading_angles(joints)

    feats = np.zeros((n, FEATURE_DIM))
    feats[:-1, ROOT_ROT_VEL] = wrap_angle(np.diff(psi))

    # every vector the encoding turns into the root frame, as x, y and z
    # planes with one row per frame: the ground step of the pelvis, the 21
    # offsets from the pelvis, the 21 bones and the 22 joint velocities;
    # the last frame has no step and no velocity
    planes = joints.transpose(2, 0, 1).copy()
    world = np.zeros((3, n, _BLOCK))
    world[::2, :-1, _STEP] = planes[::2, 1:, PELVIS] - planes[::2, :-1, PELVIS]
    world[:, :, _REL] = planes[:, :, 1:] - planes[:, :, PELVIS, None]
    world[:, :, _BONES] = planes[:, :, 1:] - planes[:, :, PARENTS[1:]]
    world[:, :-1, _VEL] = planes[:, 1:] - planes[:, :-1]
    local = yaw_planes(np.cos(-psi)[:, None], np.sin(-psi)[:, None], *world)

    lin = feats[:-1, ROOT_LIN_VEL]
    lin[:, 0], lin[:, 1] = local[0][:-1, _STEP], local[2][:-1, _STEP]
    feats[:, ROOT_HEIGHT] = planes[1, :, PELVIS]
    for k, plane in enumerate(local):
        feats[:, LOCAL_POS][:, k::3] = plane[:, _REL]
        feats[:-1, VELOCITIES][:, k::3] = plane[:-1, _VEL]

    bones = [plane[:, _BONES] for plane in local]
    lengths = component_norm(*bones)
    zero = lengths < 1e-9
    lengths = np.where(zero, 1.0, lengths)
    obs_dirs = [b / lengths for b in bones]
    if zero.any():
        frame, bone = np.nonzero(zero)
        for d, rest in zip(obs_dirs, REST_DIRS.T):
            d[frame, bone] = rest[bone]
    # only the two stored rows of each rotation are computed; a bone
    # pointing against its rest direction takes its flip rows instead
    entries, safe = _arc_entries(REST_DIRS.T, obs_dirs)
    for k, entry in enumerate(entries):
        feats[:, ROTATIONS][:, k::6] = entry
    if not safe.all():
        frame, bone = np.nonzero(~safe)
        cols = ROTATIONS.start + 6 * bone[:, None] + np.arange(6)
        feats[frame[:, None], cols] = _FLIP_ROWS[bone]

    vel = world[:, :-1, _VEL][:, :, CONTACT_JOINTS]
    speeds = component_norm(*vel) * motion.fps
    speeds = np.concatenate([speeds, speeds[-1:]], axis=0)
    heights = planes[1][:, CONTACT_JOINTS]
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
    c, s = np.cos(psi), np.sin(psi)

    # the root integrates the ground steps (the last frame has none) on
    # the x and z planes; its height is stored
    lin = feats[:-1, ROOT_LIN_VEL]
    step_x, _, step_z = yaw_planes(c[:-1], s[:-1], lin[:, 0], 0.0, lin[:, 1])
    root = np.zeros((3, n))
    root[0, 1:] = np.cumsum(step_x)
    root[1] = feats[:, ROOT_HEIGHT]
    root[2, 1:] = np.cumsum(step_z)
    pos = feats[:, LOCAL_POS]
    world = yaw_planes(c[:, None], s[:, None], pos[:, 0::3], pos[:, 1::3], pos[:, 2::3])
    joints = np.empty((n, N_JOINTS, 3))
    for k, plane in enumerate(world):
        joints[:, PELVIS, k] = root[k]
        joints[:, 1:, k] = plane + root[k, :, None]
    return MotionSequence(fps, joints)
