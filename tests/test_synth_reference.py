"""The procedural motion must be byte-equal to the earlier pose assembly in
``reference_synth.py`` (yaw rotations by ``np.einsum``, the gait filled
step by step): ``procedural_pnr`` and ``generate_scenario`` are run once
as they are and once with the reference ``_smoothstep``, ``_pose_track``
and ``_gait_tracks`` swapped into ``pnr.synth``."""

import math

import numpy as np
import pytest

import reference_synth as ref
from builders import REST
from pnr import synth
from pnr.curation import InitialState, curate_corpus
from pnr.geometry import Aabb
from pnr.motion import resample
from pnr.skeleton import L_FOOT, N_JOINTS, R_FOOT
from pnr.synth import (
    STAND_DISTANCE,
    STEP_PERIOD,
    ScenarioSpec,
    generate_corpus,
    generate_scenario,
    procedural_pnr,
)


def with_reference(fn, *args, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(synth, "_smoothstep", ref._smoothstep)
        mp.setattr(synth, "_pose_track", ref._pose_track)
        mp.setattr(synth, "_gait_tracks", ref._gait_tracks)
        return fn(*args, **kwargs)


def assert_same_bytes(new, old):
    assert new.shape == old.shape and new.dtype == old.dtype
    assert new.tobytes() == old.tobytes()


def assert_predictions_match(initial, goal, n, fps):
    new = procedural_pnr(initial, goal, "pick", n=n, fps=fps)
    old = with_reference(procedural_pnr, initial, goal, "pick", n=n, fps=fps)
    assert_same_bytes(new.joints, old.joints)
    return new


def assert_scenario_matches(spec):
    (new, new_labels), (old, old_labels) = (generate_scenario(spec),
                                            with_reference(generate_scenario, spec))
    assert_same_bytes(new.motion.joints, old.motion.joints)
    assert_same_bytes(new.gaze.points_cam, old.gaze.points_cam)
    assert_same_bytes(new.gaze.translations, old.gaze.translations)
    assert new_labels.events[0].t_p == old_labels.events[0].t_p


def standing_initial(heading=0.0):
    c, s = math.cos(heading), math.sin(heading)
    rest = REST - REST[0]
    pose = np.stack([c * rest[:, 0] + s * rest[:, 2], rest[:, 1],
                     -s * rest[:, 0] + c * rest[:, 2]], axis=1) + [0.0, REST[0, 1], 0.0]
    return InitialState(pose, np.zeros((N_JOINTS, 3)))


@pytest.fixture(scope="module")
def corpus():
    return generate_corpus(ScenarioSpec(), 8, seed=3, mixed_modes=True)


def test_curated_ground_truth(corpus):
    old = with_reference(generate_corpus, ScenarioSpec(), 8, seed=3, mixed_modes=True)
    for (rec, _), (ref_rec, _) in zip(corpus, old):
        assert_same_bytes(rec.motion.joints, ref_rec.motion.joints)
        assert_same_bytes(rec.gaze.points_cam, ref_rec.gaze.points_cam)
    seqs = [s for r in curate_corpus([rec for rec, _ in corpus]) for s in r.sequences]
    assert len(seqs) >= 6
    for gt in seqs:
        for n in (gt.motion.n_frames, 150):
            fps = resample(gt.motion, n).fps
            assert_predictions_match(gt.initial_state, gt.goal_location, n, fps)


@pytest.mark.parametrize("goal", [(0.2, 1.0, 0.3), (0.0, 1.0, 0.0), (-0.3, 0.9, -0.2)])
def test_goal_within_stand_distance(goal):
    assert math.hypot(goal[0], goal[2]) <= STAND_DISTANCE
    for heading in (0.0, 2.0):
        assert_predictions_match(standing_initial(heading), goal, 90, 30.0)


@pytest.mark.parametrize("fps", [25.0, 30.0, 60.0])
@pytest.mark.parametrize("n", [2, 3, 47, 151])
def test_frame_counts_and_rates(n, fps):
    # 1/25 and 1/60 s frames put most step bounds between frames
    walk = min(2.0, 2.5 * 0.7 * (n - 1) / fps)  # within the walking speed limit
    d = STAND_DISTANCE + walk
    assert_predictions_match(standing_initial(0.7), (0.6 * d, 1.0, 0.8 * d), n, fps)


def test_long_walk_with_many_steps():
    n, fps = 601, 30.0
    pred = assert_predictions_match(standing_initial(-1.0), (-12.0, 0.9, 15.0), n, fps)
    assert 0.7 * (n - 1) / fps / STEP_PERIOD > 30
    feet = pred.joints[:, [L_FOOT, R_FOOT]]
    assert np.all(feet[:, :, 1] > 0.0)  # every frame has both toes placed


@pytest.mark.parametrize("spec", [
    ScenarioSpec(seed=4, fps=25.0),
    ScenarioSpec(seed=5, fps=60.0, prime_mode="near_miss"),
    ScenarioSpec(seed=6, gaze_noise_std=0.01),
    # walk_end = t_e - SETTLE_TIME at or before walk_start = t_p
    ScenarioSpec(seed=7, planted_prime_offset=0.4, min_goal_distance=0.3,
                 max_goal_distance=0.45),
    ScenarioSpec(seed=8, planted_prime_offset=0.2, min_goal_distance=0.3,
                 max_goal_distance=0.45),
    # a long walk
    ScenarioSpec(seed=9, duration=40.0, planted_prime_offset=30.0,
                 room=Aabb((-20.0, 0.0, -20.0), (20.0, 2.5, 20.0)),
                 min_goal_distance=20.0, max_goal_distance=25.0),
], ids=["fps25", "fps60", "noisy", "walk_end_eq_start", "walk_end_before_start",
        "long_walk"])
def test_scenarios(spec):
    assert_scenario_matches(spec)


@pytest.mark.parametrize("walk", [(1.0, 1.0), (1.5, 1.0), (0.0, 2.0), (0.2, 5.0),
                                  (0.0, 0.8 + 5e-10), (-1.0, 0.5), (2.0, 9.0)])
def test_gait_tracks_direct(walk):
    """Walks that end at, before or after they start, end outside the
    frames, or leave a last step that ends within 1e-9 s of walk_end."""
    walk_start, walk_end = walk
    times = np.sort(np.concatenate([np.arange(31) / 15.0, [0.8 + 2e-10, 0.8 + 4e-10]]))
    rng = np.random.default_rng(12)
    root_xz = np.cumsum(rng.normal(0.0, 0.05, size=(len(times), 2)), axis=0)
    headings = np.concatenate([[0.0, -0.0, math.pi, -math.pi / 2],
                               rng.uniform(-4.0, 4.0, len(times) - 4)])
    for new, old in zip(synth._gait_tracks(times, root_xz, headings, walk_start, walk_end),
                        ref._gait_tracks(times, root_xz, headings, walk_start, walk_end)):
        assert_same_bytes(new, old)


def test_pose_track_direct():
    """Headings at signed zeros and right angles, look targets level with
    the neck and straight above it."""
    n = 8
    times = np.arange(n) / 30.0
    headings = np.array([0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi, 0.0, 1.0])
    root_xz = np.zeros((n, 2))
    root_xz[1::2] = [0.0, -0.0]
    feet = ref._gait_tracks(times, root_xz, headings, 0.05, 0.2)
    neck_y = REST[synth.NECK, 1]
    look = np.array([[0.0, neck_y, 1.0], [1.0, neck_y, 0.0], [0.0, neck_y, -0.0],
                     [0.0, 5.0, 0.0], [-0.0, neck_y, -2.0], [2.0, neck_y, 0.0],
                     [0.0, 5.0, 0.0], [1.0, 1.0, 1.0]])
    w = np.linspace(0.0, 1.0, n)
    args = (times, root_xz, headings, look)
    kwargs = dict(wrist_side=synth.L_WRIST, wrist_goal=np.array([0.3, 1.0, 0.4]),
                  wrist_weights=w, feet=feet)
    assert_same_bytes(synth._pose_track(*args, **kwargs), ref._pose_track(*args, **kwargs))
