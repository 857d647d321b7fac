"""The per-entry 263-dim encoding must be bit-equal to the einsum-based
reference in ``reference_features.py``: features, decoded joints and the
stored rows of the shortest-arc rotations, signed zeros included."""

import numpy as np
import pytest

import reference_features as ref
from builders import random_smooth_motion, stored_rows, turning_motion
from pnr.curation import curate_corpus
from pnr.features import _FLIP_ROWS, ROTATIONS, from_features, to_features
from pnr.motion import MotionSequence, resample
from pnr.skeleton import L_HIP, L_WRIST, N_JOINTS, PARENTS, REST_DIRS
from pnr.synth import ScenarioSpec, generate_corpus, procedural_pnr

L_KNEE = 4


def assert_same_bits(new, old):
    assert np.array_equal(new, old)
    assert new.dtype == old.dtype and new.tobytes() == old.tobytes()


def assert_encoding_matches(motion):
    feats = to_features(motion)
    assert_same_bits(feats, ref.to_features(motion))
    assert_same_bits(from_features(feats, motion.fps).joints,
                     ref.from_features(feats, motion.fps).joints)


@pytest.fixture(scope="module")
def curated():
    corpus = generate_corpus(ScenarioSpec(), 12, seed=3, mixed_modes=True)
    seqs = [s for r in curate_corpus([rec for rec, _ in corpus]) for s in r.sequences]
    assert len(seqs) >= 10
    return seqs


def test_curated_ground_truth(curated):
    for seq in curated:
        assert_encoding_matches(seq.motion)


def test_procedural_predictions(curated):
    for gt in curated:
        fps = resample(gt.motion, 150).fps
        assert_encoding_matches(procedural_pnr(gt.initial_state, gt.goal_location,
                                               gt.event.event.kind, n=150, fps=fps))


def test_smooth_and_turning_motions():
    rng = np.random.default_rng(5)
    for _ in range(5):
        assert_encoding_matches(random_smooth_motion(rng))
    assert_encoding_matches(turning_motion())


def test_zero_length_bone():
    joints = random_smooth_motion(np.random.default_rng(6)).joints.copy()
    joints[10:20, L_WRIST] = joints[10:20, PARENTS[L_WRIST]]
    assert_encoding_matches(MotionSequence(30.0, joints))


def test_antiparallel_bone():
    joints = random_smooth_motion(np.random.default_rng(7)).joints.copy()
    joints[:, L_KNEE] = 2.0 * joints[:, L_HIP] - joints[:, L_KNEE]
    motion = MotionSequence(30.0, joints)
    # the flipped thigh points against its rest direction in the root
    # frame, so its rotation is the 180-degree branch
    rest = REST_DIRS[L_KNEE - 1]
    rot6d = to_features(motion)[:, ROTATIONS].reshape(-1, 21, 6)[:, L_KNEE - 1]
    assert np.allclose(ref.rot6d_to_matrix(rot6d) @ rest, -rest)
    assert_encoding_matches(motion)


def test_shortest_arc_random_and_edge_pairs():
    """The stored rows for every bone, against the reference's first two
    rows: random directions, and each bone parallel (zero cross product)
    and antiparallel to its rest direction, which lies along y for the
    spine and legs, along x for the arms, and off the axes elsewhere."""
    rng = np.random.default_rng(8)
    v = rng.normal(size=(200, N_JOINTS - 1, 3))
    v /= np.linalg.norm(v, axis=-1, keepdims=True)
    v[:10] = -REST_DIRS
    v[10:20] = REST_DIRS
    bones = np.arange(N_JOINTS - 1)
    want = ref.matrix_to_rot6d(ref.shortest_arc(np.broadcast_to(REST_DIRS, v.shape), v))
    assert_same_bits(stored_rows(bones, v), want)
    assert_same_bits(stored_rows(bones, v[:10]), np.broadcast_to(_FLIP_ROWS, (10, 21, 6)))


@pytest.mark.parametrize("bone", range(N_JOINTS - 1))
def test_flip_rows_match_reference(bone):
    """``_FLIP_ROWS`` holds the reference's rows of each bone turned to point
    against its rest direction u: at -u, and a few ulps off -u where the
    cosine is still at most -1 + 1e-8."""
    u = REST_DIRS[bone]
    shrunk = -u
    for _ in range(4):
        shrunk = np.nextafter(shrunk, 0.0)
    for v in (-u, np.nextafter(-u, np.inf), np.nextafter(-u, -np.inf), shrunk):
        assert np.sum(u * v) <= -1.0 + 1e-8
        assert_same_bits(_FLIP_ROWS[bone], ref.matrix_to_rot6d(ref.shortest_arc(u, v)))
        assert_same_bits(stored_rows(np.array([bone]), v[None])[0], _FLIP_ROWS[bone])
