"""``motion.yaw_apply`` and the rotation rows the encoding stores must be
bit-equal to the matrix forms they replace: ``yaw_matrices`` applied with
``np.einsum`` and with the per-entry product kept as
``reference_features._rotate``, and the first two rows of the reference
``shortest_arc`` from each bone's rest direction (``features._arc_entries``,
and ``features._FLIP_ROWS`` for an antiparallel pair). Signed zeros count,
so every comparison is on bytes."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_features as ref
from builders import random_smooth_motion, stored_rows
from pnr.features import FEATURE_DIM, from_features, to_features
from pnr.motion import yaw_apply, yaw_matrices
from pnr.skeleton import N_JOINTS, REST_DIRS

SPECIAL_ANGLES = [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi]

angles = st.one_of(
    st.sampled_from(SPECIAL_ANGLES),
    st.floats(-10.0, 10.0),
    st.floats(-1e6, 1e6),
)
components = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-1e3, 1e3),
)


def assert_same_bits(new, old):
    assert new.shape == old.shape and new.dtype == old.dtype
    assert new.tobytes() == old.tobytes()


@st.composite
def angles_and_vectors(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    a = np.array(draw(st.lists(angles, min_size=n, max_size=n)))
    v = np.array(draw(st.lists(components, min_size=3 * n * k, max_size=3 * n * k)))
    return a, v.reshape(n, k, 3)


@settings(max_examples=300, deadline=None)
@given(angles_and_vectors())
@example((np.array(SPECIAL_ANGLES),
          np.array([[[-0.0, -0.0, -0.0], [0.0, -0.0, 0.0], [-0.0, 1.0, -0.0]]] * 6)))
def test_yaw_apply_matches_matrix_forms(case):
    a, v = case
    m = yaw_matrices(a)
    out = yaw_apply(a[:, None], v)
    assert_same_bits(out, np.einsum("nij,nkj->nki", m, v))
    assert_same_bits(out, ref._rotate(m[:, None], v))
    # one vector per angle, and one vector for every angle
    assert_same_bits(yaw_apply(a, v[:, 0]), np.einsum("nij,nj->ni", m, v[:, 0]))
    assert_same_bits(yaw_apply(a, v[0, 0]), np.einsum("nij,j->ni", m, v[0, 0]))


def test_yaw_apply_rotates_z_toward_x():
    out = yaw_apply([math.pi / 2, 0.0], [0.0, 2.0, 1.0])
    assert np.allclose(out, [[1.0, 2.0, 0.0], [0.0, 2.0, 1.0]], atol=1e-15)


unit_axes = st.tuples(*[st.sampled_from([0.0, -0.0])] * 3).flatmap(
    lambda zeros: st.integers(0, 2).flatmap(
        lambda axis: st.sampled_from([1.0, -1.0]).map(
            lambda sign: tuple(sign if i == axis else zeros[i] for i in range(3)))))
vectors = st.one_of(
    unit_axes,
    st.tuples(*[components] * 3),
    st.tuples(*[st.sampled_from([0.0, -0.0])] * 3),
)


def reference_rows(bones, v):
    return ref.matrix_to_rot6d(ref.shortest_arc(REST_DIRS[bones], v))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, N_JOINTS - 2), vectors), min_size=1, max_size=8),
       st.sampled_from(["as drawn", "antiparallel", "parallel"]))
def test_shortest_arc_matches_reference(pairs, relation):
    bones = np.array([p[0] for p in pairs])
    v = np.array([p[1] for p in pairs], dtype=np.float64)
    if relation == "antiparallel":
        v = -REST_DIRS[bones]
    elif relation == "parallel":
        v = REST_DIRS[bones].copy()
    assert_same_bits(stored_rows(bones, v), reference_rows(bones, v))


def test_shortest_arc_edge_pairs():
    """Each bone observed along every signed axis, with signed zeros, and
    as a zero vector of either sign: antiparallel to the rest directions
    along x and y, parallel to them, and neither."""
    z = -0.0
    v = np.array([[0.0, 1.0, 0.0], [z, 1.0, z], [z, -1.0, z], [0.0, -1.0, 0.0],
                  [1.0, z, 0.0], [-1.0, 0.0, z], [z, z, -1.0], [0.0, z, 1.0],
                  [-0.6, -0.8, z], [z, z, z], [0.0, 0.0, 0.0]])
    bones = np.arange(N_JOINTS - 1)[:, None]
    v = np.broadcast_to(v, (N_JOINTS - 1,) + v.shape)
    assert_same_bits(stored_rows(bones, v), reference_rows(bones, v))


@pytest.fixture(scope="module")
def features():
    motion = random_smooth_motion(np.random.default_rng(11), n=12)
    return to_features(motion), motion.fps


def outcome(fn, feats, fps):
    try:
        with np.errstate(invalid="ignore"):
            return fn(feats, fps).joints.tobytes()
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_from_features_non_finite_matches_reference(features, value):
    """A non-finite channel still raises where the matrix form raised:
    the dropped ``0 * inf`` terms turn no error into output."""
    feats, fps = features
    raised = 0
    for row in (0, len(feats) // 2, len(feats) - 1):
        for col in range(FEATURE_DIM):
            bad = feats.copy()
            bad[row, col] = value
            got = outcome(from_features, bad, fps)
            assert got == outcome(ref.from_features, bad, fps), (row, col)
            raised += isinstance(got, str)
    # every position channel raises: root rotation and velocity on all but
    # the last row, root height and local positions on every row
    assert raised == 2 * 3 + 3 * (1 + 63)
