import numpy as np
import pytest

from pnr.features import (
    CONTACTS,
    FEATURE_DIM,
    LOCAL_POS,
    ROOT_HEIGHT,
    ROOT_LIN_VEL,
    ROOT_ROT_VEL,
    ROTATIONS,
    VELOCITIES,
    _FLIP_ROWS,
    from_features,
    to_features,
)
from pnr.motion import canonicalize
from pnr.skeleton import N_JOINTS, REST_DIRS

from builders import (
    REST,
    glide_motion,
    random_smooth_motion,
    standing_motion,
    stored_rows,
    turning_motion,
)
from reference_features import rot6d_to_matrix


def test_feature_dimension():
    feats = to_features(standing_motion(n=5))
    assert feats.shape == (5, FEATURE_DIM)
    assert FEATURE_DIM == 263


def test_static_pose_zero_velocities():
    feats = to_features(standing_motion(n=8))
    assert np.allclose(feats[:, ROOT_ROT_VEL], 0.0)
    assert np.allclose(feats[:, ROOT_LIN_VEL], 0.0)
    assert np.allclose(feats[:, VELOCITIES], 0.0)


def test_height_isolation():
    base = to_features(standing_motion(n=5))
    lifted = to_features(standing_motion(n=5, offset=(0.0, 0.1, 0.0)))
    assert np.allclose(lifted[:, ROOT_HEIGHT] - base[:, ROOT_HEIGHT], 0.1)
    assert np.allclose(lifted[:, LOCAL_POS], base[:, LOCAL_POS], atol=1e-12)


def test_constant_glide_linear_velocity():
    m = glide_motion(speed=1.0, n=30, fps=30.0)
    feats = to_features(m)
    # facing +z, moving +z at 1 m/s: local z velocity is 1/30 per frame
    assert np.allclose(feats[:-1, 2], 1.0 / 30.0, atol=1e-12)
    assert np.allclose(feats[:-1, 1], 0.0, atol=1e-12)


def test_constant_turn_angular_velocity():
    omega = 0.5  # rad/s
    fps = 30.0
    m = turning_motion(omega=omega, n=40, fps=fps)
    feats = to_features(m)
    assert np.allclose(feats[:-1, ROOT_ROT_VEL], omega / fps, atol=1e-12)
    # recovered heading at frame n is n * omega / fps
    rec = from_features(feats, fps)
    from pnr.motion import heading_angles

    psi = heading_angles(rec.joints)
    n = np.arange(40)
    assert np.allclose(psi, (n * omega / fps + np.pi) % (2 * np.pi) - np.pi, atol=1e-9)


def test_roundtrip_static():
    m = standing_motion(n=6)
    canon = canonicalize(m)[0]
    rec = from_features(to_features(canon), canon.fps)
    assert np.allclose(rec.joints, canon.joints, atol=1e-9)


def test_roundtrip_smooth_motions():
    rng = np.random.default_rng(42)
    for _ in range(5):
        m = random_smooth_motion(rng, n=150)
        rec = from_features(to_features(m), m.fps)
        err = np.linalg.norm(rec.joints - m.joints, axis=2).max()
        assert err <= 1e-4


def test_zero_features_give_static_origin():
    feats = np.zeros((5, FEATURE_DIM))
    local = (REST - REST[0])[1:]
    feats[:, LOCAL_POS] = np.tile(local.reshape(-1), (5, 1))
    feats[:, ROOT_HEIGHT] = REST[0, 1]
    rec = from_features(feats, 30.0)
    assert np.allclose(rec.joints[0], rec.joints[-1])
    assert np.allclose(rec.joints[0, 0, [0, 2]], 0.0)


def test_contacts_binary_and_grounded():
    m = standing_motion(n=6)
    feats = to_features(m)
    contacts = feats[:, CONTACTS]
    assert set(np.unique(contacts)) <= {0.0, 1.0}
    # standing still: toe joints (flag order l_ankle, l_foot, r_ankle,
    # r_foot) are under 5 cm; ankles sit at ~9 cm and stay off
    assert np.all(contacts[:, [1, 3]] == 1.0)
    assert np.all(contacts[:, [0, 2]] == 0.0)


def test_contacts_off_when_airborne():
    m = standing_motion(n=6, offset=(0.0, 0.5, 0.0))
    feats = to_features(m)
    assert np.all(feats[:, CONTACTS] == 0.0)


def test_rot6d_matrix_roundtrip():
    """The stored rows of each bone decode to a rotation taking its rest
    direction onto the observed one, whose first two rows they are."""
    rng = np.random.default_rng(1)
    bones = rng.integers(0, N_JOINTS - 1, size=50)
    v = rng.normal(size=(50, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    rows = stored_rows(bones, v)
    r = rot6d_to_matrix(rows)
    assert np.allclose(np.einsum("nij,nj->ni", r, REST_DIRS[bones]), v, atol=1e-9)
    assert np.allclose(r @ r.transpose(0, 2, 1), np.eye(3), atol=1e-9)
    assert np.linalg.det(r) == pytest.approx(np.ones(50))
    assert np.allclose(r[:, :2].reshape(50, 6), rows, atol=1e-9)


def test_shortest_arc_antiparallel():
    """The flip rows of each bone decode to a rotation taking its rest
    direction onto its negation."""
    r = rot6d_to_matrix(_FLIP_ROWS)
    assert np.allclose(np.einsum("nij,nj->ni", r, REST_DIRS), -REST_DIRS, atol=1e-9)
    assert np.allclose(r @ r.transpose(0, 2, 1), np.eye(3), atol=1e-9)
    assert np.linalg.det(r) == pytest.approx(np.ones(N_JOINTS - 1))


def test_rotation_channels_identity_at_rest():
    canon = canonicalize(standing_motion(n=4))[0]
    feats = to_features(canon)
    rots = rot6d_to_matrix(feats[:, ROTATIONS].reshape(4, N_JOINTS - 1, 6))
    assert np.allclose(rots, np.eye(3), atol=1e-9)


def test_from_features_validates_shape():
    with pytest.raises(ValueError):
        from_features(np.zeros((5, 100)), 30.0)
