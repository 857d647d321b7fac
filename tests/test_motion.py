import math

import numpy as np
import pytest

from pnr.errors import DegeneratePose
from pnr.motion import (
    MotionSequence,
    body_movement,
    canonicalize,
    hand_movement,
    head_forward_batch,
    heading_angles,
    resample,
    yaw_apply,
    yaw_matrices,
)
from pnr.skeleton import (
    JOINT_NAMES,
    L_WRIST,
    N_JOINTS,
    PARENTS,
    PELVIS,
    R_WRIST,
    REST_DIRS,
    REST_OFFSETS,
    REST_POSE,
)

from builders import (
    REST,
    Rig,
    glide_motion,
    head_forward,
    random_smooth_motion,
    standing_motion,
    vec3,
)


class TestResample:
    def test_identity_at_same_count(self):
        m = glide_motion(n=10)
        out = resample(m, 10)
        assert np.array_equal(out.joints, m.joints)

    def test_two_frames_to_three_midpoint(self):
        joints = np.stack([REST, REST + vec3(1, 0, 0)])
        m = MotionSequence(30.0, joints)
        out = resample(m, 3)
        assert np.allclose(out.joints[1], 0.5 * (joints[0] + joints[1]))

    def test_endpoints_preserved(self):
        m = glide_motion(n=4)
        out = resample(m, 2)
        assert np.array_equal(out.joints[0], m.joints[0])
        assert np.array_equal(out.joints[-1], m.joints[-1])

    def test_idempotent_at_fixed_n(self):
        m = random_smooth_motion(np.random.default_rng(3), n=37)
        once = resample(m, 150)
        twice = resample(once, 150)
        assert np.array_equal(once.joints, twice.joints)

    def test_duration_preserved(self):
        m = glide_motion(n=60, fps=30.0)
        out = resample(m, 150)
        assert out.duration == pytest.approx(m.duration)

    def test_gaze_survives_as_nearest(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(20, 3))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        m = MotionSequence(30.0, np.tile(REST, (20, 1, 1)), gaze=g)
        out = resample(m, 50)
        # every output gaze is one of the source directions, unit length
        norms = np.linalg.norm(out.gaze, axis=1)
        assert np.allclose(norms, 1.0)
        assert np.array_equal(out.gaze[0], g[0])
        assert np.array_equal(out.gaze[-1], g[-1])


class TestCanonicalize:
    def test_already_canonical_is_identity(self):
        m = glide_motion()
        canon, angle, shift = canonicalize(m)
        assert angle == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(shift, 0.0, atol=1e-12)
        assert np.allclose(canon.joints, m.joints)

    def test_translation_inverse(self):
        m = standing_motion(offset=(3.0, 0.0, 4.0))
        _, _, shift = canonicalize(m)
        assert np.allclose(shift, [-3, 0, -4], atol=1e-12)

    def test_rotation_inverse_roundtrip(self):
        base = glide_motion(n=20)
        rotated = Rig(yaw_matrices(math.pi / 2)).motion(base)
        canon, angle, shift = canonicalize(rotated)
        assert np.allclose(canon.joints, base.joints, atol=1e-9)
        # the inverse yaw and shift restore the rotated input
        back = yaw_apply(-angle, canon.joints - shift)
        assert np.allclose(back, rotated.joints, atol=1e-9)

    def test_general_rigid_roundtrip(self):
        m = random_smooth_motion(np.random.default_rng(8), n=40)
        moved = Rig(yaw_matrices(1.1), vec3(2.0, 0.0, -1.5)).motion(m)
        canon, angle, shift = canonicalize(moved)
        assert np.allclose(yaw_apply(-angle, canon.joints - shift), moved.joints, atol=1e-9)
        assert np.allclose(canon.joints[0, PELVIS][[0, 2]], 0.0, atol=1e-9)

    def test_maps_points_and_dirs_by_angle_and_shift(self):
        # points by yaw_apply(angle, p) + shift, directions by the yaw
        # alone; the angle undoes the first frame's heading
        m = random_smooth_motion(np.random.default_rng(4), n=12)
        gaze = np.random.default_rng(5).normal(size=(12, 3))
        moved = Rig(yaw_matrices(2.0), vec3(-1.25, 0.5, 3.0)).motion(
            MotionSequence(m.fps, m.joints, gaze))
        canon, angle, shift = canonicalize(moved)
        assert angle == -heading_angles(moved.joints[:1])[0]
        assert shift[1] == 0.0
        assert canon.joints.tobytes() == (yaw_apply(angle, moved.joints) + shift).tobytes()
        assert canon.gaze.tobytes() == yaw_apply(angle, moved.gaze).tobytes()


class TestHeadForward:
    def test_tpose_faces_forward(self):
        assert np.allclose(head_forward(REST), [0, 0, 1], atol=1e-12)

    def test_equivariant_under_yaw(self):
        r = yaw_matrices(math.pi / 2)
        rotated = REST @ r.T
        assert np.allclose(head_forward(rotated), [1, 0, 0], atol=1e-12)

    def test_pitch_down_30_degrees(self):
        pose = REST.copy()
        # rotate the head about the shoulder axis (+x) through the neck
        ang = -math.pi / 6
        c, s = math.cos(ang), math.sin(ang)
        rx = np.array([[1, 0, 0], [0, c, -s], [0, s, c]])
        pose[15] = pose[12] + rx @ (pose[15] - pose[12])
        fwd = head_forward(pose)
        expected = np.array([0.0, math.sin(math.pi / 6), math.cos(math.pi / 6)])
        # pitching the head axis back tips forward down; sign check:
        expected = rx @ np.array([0.0, 0.0, 1.0])
        assert np.allclose(fwd, expected, atol=1e-12)

    def test_equivariance_random_rotations(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            r = Rig.about(axis, rng.uniform(0, 2 * math.pi)).rotation
            f = head_forward(REST @ r.T)
            assert np.allclose(f, r @ head_forward(REST), atol=1e-6)

    def test_degenerate_pose_raises(self):
        pose = REST.copy()
        pose[15] = pose[12] + np.array([0.3, 0.0, 0.0])  # head along shoulder axis
        with pytest.raises(DegeneratePose):
            head_forward(pose)

    def test_batch_matches_scalar(self):
        # each pose alone gives the bits of its row of the batch
        m = random_smooth_motion(np.random.default_rng(11), n=25)
        batch = head_forward_batch(m.joints)
        for i in range(m.n_frames):
            assert head_forward_batch(m.joints[i:i + 1]).tobytes() == batch[i:i + 1].tobytes()


class TestMovement:
    def test_static_is_zero(self):
        m = standing_motion()
        assert body_movement(m) == 0.0
        assert hand_movement(m) == 0.0

    def test_max_not_net_displacement(self):
        n = 31
        joints = np.tile(REST, (n, 1, 1))
        # pelvis out 1.5 m and back
        out = np.concatenate([np.linspace(0, 1.5, 16), np.linspace(1.5, 0, 16)[1:]])
        joints[:, PELVIS, 2] += out
        m = MotionSequence(30.0, joints)
        assert body_movement(m) == pytest.approx(1.5)

    def test_single_wrist_counts(self):
        joints = np.tile(REST, (10, 1, 1))
        joints[:, R_WRIST, 2] += np.linspace(0, 0.4, 10)
        m = MotionSequence(30.0, joints)
        assert hand_movement(m) == pytest.approx(0.4)
        assert np.allclose(joints[:, L_WRIST], REST[L_WRIST])

    def test_rigid_invariance(self):
        m = random_smooth_motion(np.random.default_rng(2), n=40)
        moved = Rig.about(vec3(0, 1, 0), 0.8, vec3(5, 0, -2)).motion(m)
        assert body_movement(moved) == pytest.approx(body_movement(m))
        assert hand_movement(moved) == pytest.approx(hand_movement(m))


def test_motion_validation():
    with pytest.raises(ValueError):
        MotionSequence(30.0, np.zeros((1, N_JOINTS, 3)))
    with pytest.raises(ValueError):
        MotionSequence(0.0, np.zeros((5, N_JOINTS, 3)))
    bad = np.zeros((5, N_JOINTS, 3))
    bad[2, 3, 1] = np.nan
    with pytest.raises(ValueError):
        MotionSequence(30.0, bad)
    # read_sequence rejects a file with a non-finite gaze, so no motion
    # that holds one may exist to be written
    for value in (np.nan, np.inf):
        gaze = np.ones((5, 3))
        gaze[3, 1] = value
        with pytest.raises(ValueError, match="non-finite gaze"):
            MotionSequence(30.0, np.zeros((5, N_JOINTS, 3)), gaze)


def test_skeleton_rest_pose_shape():
    pose = REST_POSE
    assert pose.shape == (22, 3)
    # feet on the ground, head on top
    assert pose[10, 1] < 0.06 and pose[11, 1] < 0.06
    assert pose[15, 1] > 1.5
    # left side on +x
    assert pose[20, 0] > 0 > pose[21, 0]


def test_skeleton_tree_order():
    assert len(JOINT_NAMES) == len(PARENTS) == N_JOINTS
    assert PARENTS[0] == -1
    for joint, parent in enumerate(PARENTS[1:], start=1):
        assert 0 <= parent < joint, JOINT_NAMES[joint]


def test_rest_pose_chains_offsets():
    for joint in range(N_JOINTS):
        path = [joint]
        while PARENTS[path[-1]] != -1:
            path.append(PARENTS[path[-1]])
        pos = REST_OFFSETS[path[-1]]
        for j in reversed(path[:-1]):  # root to joint, as the tree is chained
            pos = pos + REST_OFFSETS[j]
        assert REST_POSE[joint].tobytes() == pos.tobytes(), JOINT_NAMES[joint]


def test_rest_dirs_are_unit_bone_directions():
    assert REST_DIRS.shape == (N_JOINTS - 1, 3)
    assert np.allclose(np.linalg.norm(REST_DIRS, axis=1), 1.0, rtol=0.0, atol=1e-15)
    bones = REST_POSE[1:] - REST_POSE[PARENTS[1:]]
    assert np.allclose(np.cross(REST_DIRS, bones), 0.0, atol=1e-15)
    assert np.all(np.sum(REST_DIRS * bones, axis=1) > 0.0)


@pytest.mark.parametrize("array", [REST_POSE, REST_DIRS], ids=["REST_POSE", "REST_DIRS"])
def test_rest_arrays_are_read_only(array):
    with pytest.raises(ValueError):
        array[0, 0] = 1.0
    with pytest.raises(ValueError):
        array += 1.0
