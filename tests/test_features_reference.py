"""The per-entry 263-dim encoding must be bit-equal to the einsum-based
reference in ``reference_features.py``: features, decoded joints and
shortest-arc rotations, signed zeros included."""

import numpy as np
import pytest

import reference_features as ref
from builders import random_smooth_motion, turning_motion
from pnr.curation import curate_corpus
from pnr.features import ROTATIONS, from_features, rot6d_to_matrix, shortest_arc, to_features
from pnr.motion import MotionSequence, resample
from pnr.skeleton import DEFAULT_SKELETON, L_HIP, L_WRIST, PARENTS
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
    rest = DEFAULT_SKELETON.bone_directions()[L_KNEE - 1]
    rot6d = to_features(motion)[:, ROTATIONS].reshape(-1, 21, 6)[:, L_KNEE - 1]
    assert np.allclose(rot6d_to_matrix(rot6d) @ rest, -rest)
    assert_encoding_matches(motion)


def test_shortest_arc_random_and_edge_pairs():
    rng = np.random.default_rng(8)
    u = rng.normal(size=(4000, 3))
    v = rng.normal(size=(4000, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    v[:20] = -u[:20]  # antiparallel
    v[20:40] = u[20:40]  # parallel
    u[40:50], v[40:50] = [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]  # antiparallel along y
    u[50:60], v[50:60] = [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]  # along x: the other perpendicular
    u[60:70], v[60:70] = [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]  # zero cross product
    assert_same_bits(shortest_arc(u, v), ref.shortest_arc(u, v))
    # leading dims broadcast as in to_features
    rest = DEFAULT_SKELETON.bone_directions()
    obs = v[:21 * 30].reshape(30, 21, 3)
    assert_same_bits(shortest_arc(np.broadcast_to(rest, obs.shape), obs),
                     ref.shortest_arc(np.broadcast_to(rest, obs.shape), obs))
