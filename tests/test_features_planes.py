"""The x/y/z-plane kernels must keep the bits of the code they replaced:
``head_forward_batch`` those of its ``np.cross`` form, kept verbatim in
``reference_features.py``, and ``to_features``/``from_features`` those of
the einsum encoding there, on seeded random motions with the edge cases
the planes treat apart (two frames, zero-length and antiparallel bones)."""

import numpy as np
import pytest

import reference_features as ref
from builders import random_smooth_motion
from pnr.errors import DegeneratePose
from pnr.features import (
    LOCAL_POS,
    ROTATIONS,
    VELOCITIES,
    from_features,
    to_features,
)
from pnr.motion import MotionSequence, head_forward_batch, heading_angles, yaw_apply
from pnr.skeleton import (
    HEAD,
    L_SHOULDER,
    L_WRIST,
    NECK,
    PARENTS,
    R_SHOULDER,
    REST_DIRS,
    REST_POSE,
)

L_KNEE, L_ELBOW = 4, 18


def assert_same_bits(new, old):
    assert new.shape == old.shape and new.dtype == old.dtype
    assert new.tobytes() == old.tobytes()


def head_outcome(fn, joints):
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(joints).tobytes()
    except DegeneratePose as exc:
        return f"DegeneratePose: {exc}"


def test_head_forward_batch_matches_reference():
    rng = np.random.default_rng(21)
    rounded = np.round(rng.normal(size=(40, 22, 3)))  # exact zeros and ties
    rounded = rounded[[not isinstance(head_outcome(ref.head_forward_batch, pose[None]), str)
                       for pose in rounded]]
    poses = [rng.normal(size=(40, 22, 3)), random_smooth_motion(rng).joints, rounded]
    signed = rng.normal(size=(6, 22, 3))
    signed[:, [HEAD, NECK, L_SHOULDER, R_SHOULDER]] = rng.choice([0.0, -0.0, 1.0, -1.0],
                                                                   size=(6, 4, 3))
    signed[:, HEAD, 1] = 1.0  # keep the head above the neck
    signed[:, L_SHOULDER, 0], signed[:, R_SHOULDER, 0] = 1.0, -1.0
    huge = rng.normal(size=(5, 22, 3))
    huge[:, HEAD] = 1e300 * rng.normal(size=(5, 3))  # squares overflow
    huge[0, L_SHOULDER, 0] = np.inf
    huge[1, NECK, 2] = np.nan
    poses += [signed, huge]
    for joints in poses:
        got = head_outcome(head_forward_batch, joints)
        assert isinstance(got, bytes)
        assert got == head_outcome(ref.head_forward_batch, joints)


@pytest.mark.parametrize("where", ["zero length", "parallel"])
def test_head_forward_batch_degenerate_matches_reference(where):
    joints = random_smooth_motion(np.random.default_rng(22), n=8).joints.copy()
    if where == "zero length":
        joints[5, HEAD] = joints[5, NECK]
    else:  # neck->head along the shoulder axis
        joints[5, HEAD] = joints[5, NECK] + (joints[5, L_SHOULDER] - joints[5, R_SHOULDER])
    got = head_outcome(head_forward_batch, joints)
    assert got.startswith("DegeneratePose")
    assert got == head_outcome(ref.head_forward_batch, joints)


def assert_encoding_matches(motion):
    feats = to_features(motion)
    assert_same_bits(feats, ref.to_features(motion))
    assert_same_bits(from_features(feats, motion.fps).joints,
                     ref.from_features(feats, motion.fps).joints)
    return feats


def random_joints(rng, n):
    """Joints scattered around a rest pose: every bone points anywhere."""
    return REST_POSE + rng.normal(scale=0.2, size=(n, 22, 3)) + rng.normal(size=(n, 1, 3))


def point_bone_against_rest(joints, frames, joint, length=0.3):
    """Bone of ``joint`` in ``frames`` set to point against its rest direction
    in the root frame (to rounding), which the 180-degree branch handles."""
    psi = heading_angles(joints[frames])
    rest = REST_DIRS[joint - 1]
    joints[frames, joint] = joints[frames, PARENTS[joint]] - length * yaw_apply(psi, rest)


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_random_motions_match_reference(seed):
    rng = np.random.default_rng(seed)
    for n in (2, 3, 40):
        assert_encoding_matches(MotionSequence(30.0, random_joints(rng, n)))
    assert_encoding_matches(MotionSequence(24.0, random_smooth_motion(rng, n=2).joints))

    joints = random_joints(rng, 30)
    joints[4:9, L_WRIST] = joints[4:9, PARENTS[L_WRIST]]  # zero-length bones
    joints[0, HEAD] = joints[0, NECK]
    joints[-1, L_KNEE] = joints[-1, PARENTS[L_KNEE]]
    frames = rng.choice(30, size=6, replace=False)
    point_bone_against_rest(joints, frames, L_ELBOW)
    point_bone_against_rest(joints, frames[:3], L_KNEE)
    feats = assert_encoding_matches(MotionSequence(30.0, joints))
    rest = REST_DIRS
    rot6d = feats[frames, ROTATIONS].reshape(len(frames), 21, 6)
    for joint, rows in ((L_ELBOW, slice(None)), (L_KNEE, slice(0, 3))):
        turned = ref.rot6d_to_matrix(rot6d[rows, joint - 1]) @ rest[joint - 1]
        assert np.allclose(turned, -rest[joint - 1])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("axis", [0, 1, 2])
def test_non_finite_joint_matches_reference(value, axis):
    """A joint made non-finite after MotionSequence checked it. The einsum
    form multiplies every component by the zeros of the yaw matrix too, so
    a ``0 * inf`` can make a whole rotated vector NaN where the planes keep
    its finite components; every other channel keeps its bits, the bad
    joint's offset and velocities are non-finite in both, and both
    decodings refuse the result."""
    motion = random_smooth_motion(np.random.default_rng(34), n=6)
    joints = motion.joints.copy()
    joints[3, L_WRIST, axis] = value
    object.__setattr__(motion, "joints", joints)
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = to_features(motion), ref.to_features(motion)
        for fn, feats in ((from_features, got), (ref.from_features, want)):
            with pytest.raises(ValueError, match="non-finite joint positions"):
                fn(feats, motion.fps)
    # the wrist's offset from the pelvis in frame 3, its velocities into
    # and out of frame 3
    pos = LOCAL_POS.start + 3 * (L_WRIST - 1) + np.arange(3)
    vel = VELOCITIES.start + 3 * L_WRIST + np.arange(3)
    for row, cols in [(3, pos), (2, vel), (3, vel)]:
        assert not np.isfinite(got[row, cols]).all()
        assert not np.isfinite(want[row, cols]).all()
        got[row, cols] = want[row, cols] = 0.0
    assert_same_bits(got, want)
