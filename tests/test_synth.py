import numpy as np
import pytest

from pnr.curation import InitialState, curate
from pnr.errors import EmptyCorpus, InfeasibleSpec, UnreachableGoal
from pnr.gaze import find_prime_time
from pnr.metrics import EvalPair, foot_skating, prime_success, reach_success
from pnr.skeleton import L_WRIST, PELVIS, R_WRIST
from pnr.synth import (
    NEAR_MISS,
    ScenarioSpec,
    generate_corpus,
    generate_scenario,
    procedural_pnr,
    static_baseline,
)

from builders import REST, head_forward, standing_motion, vec3


class TestGenerateScenario:
    def test_planted_prime_time_recovered(self):
        for seed in range(20):
            rec, labels = generate_scenario(ScenarioSpec(seed=seed))
            planted = labels.events[0]
            primed = find_prime_time(rec.gaze, rec.events[0])
            assert primed is not None
            assert primed.t_p == pytest.approx(planted.t_p, abs=1e-12)

    def test_zero_noise_is_direct_hit(self):
        rec, _ = generate_scenario(ScenarioSpec(seed=5, gaze_noise_std=0.0))
        primed = find_prime_time(rec.gaze, rec.events[0])
        assert primed.prime_mode == "direct_hit"

    def test_noisy_gaze_still_exact(self):
        for seed in range(10):
            spec = ScenarioSpec(seed=seed, gaze_noise_std=0.01)
            rec, labels = generate_scenario(spec)
            primed = find_prime_time(rec.gaze, rec.events[0])
            assert primed.t_p == pytest.approx(labels.events[0].t_p, abs=1e-12)

    def test_near_miss_mode_needs_proximity_rule(self):
        spec = ScenarioSpec(seed=7, prime_mode=NEAR_MISS)
        rec, labels = generate_scenario(spec)
        primed = find_prime_time(rec.gaze, rec.events[0])
        assert primed.prime_mode == "near_miss"
        assert primed.t_p == pytest.approx(labels.events[0].t_p, abs=1e-12)
        assert find_prime_time(rec.gaze, rec.events[0], tau=0.0) is None

    def test_infeasible_walk_speed(self):
        with pytest.raises(InfeasibleSpec):
            generate_scenario(ScenarioSpec(seed=0, walk_speed=0.0))

    def test_spec_invariant_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec(duration=4.0, planted_prime_offset=3.0)
        with pytest.raises(ValueError):
            ScenarioSpec(fps=0.0)

    def test_wrist_meets_goal_at_event(self):
        rec, labels = generate_scenario(ScenarioSpec(seed=11))
        ev = labels.events[0]
        e_idx = int(round(ev.t_e * rec.motion.fps))
        frame = rec.motion.joints[e_idx]
        d = min(np.linalg.norm(frame[L_WRIST] - ev.goal),
                np.linalg.norm(frame[R_WRIST] - ev.goal))
        assert d < 0.02

    def test_determinism(self):
        a, la = generate_scenario(ScenarioSpec(seed=123))
        b, lb = generate_scenario(ScenarioSpec(seed=123))
        assert np.array_equal(a.motion.joints, b.motion.joints)
        assert np.array_equal(a.gaze.points_cam, b.gaze.points_cam)
        assert la.events[0].t_p == lb.events[0].t_p

    def test_curation_closure(self):
        # every planted event curates into exactly one sequence at the
        # planted prime time
        for seed in range(10):
            rec, labels = generate_scenario(ScenarioSpec(seed=seed))
            res = curate(rec)
            assert len(res.sequences) == 1 and not res.drops
            assert res.sequences[0].t_p == pytest.approx(labels.events[0].t_p)

    def test_corpus_mixed_modes(self):
        corpus = generate_corpus(ScenarioSpec(), 8, seed=1, mixed_modes=True)
        modes = {labels.events[0].prime_mode for _, labels in corpus}
        assert modes == {"direct_hit", "near_miss"}

    def test_distractors_present(self):
        rec, _ = generate_scenario(ScenarioSpec(seed=2, n_objects=4))
        assert len(rec.objects) == 4


class TestStaticBaseline:
    def test_mean_of_identical_is_that_pose(self):
        seqs = [_seq_from_motion(standing_motion(n=10)) for _ in range(3)]
        out = static_baseline(seqs, n=5)
        assert np.allclose(out.joints, REST)
        assert out.n_frames == 5

    def test_two_offset_poses_average(self):
        a = _seq_from_motion(standing_motion(n=10))
        b = _seq_from_motion(standing_motion(n=10, offset=(1.0, 0.0, 0.0)))
        out = static_baseline([a, b], n=4)
        assert np.allclose(out.joints[0], REST + np.array([0.5, 0.0, 0.0]))

    def test_self_consistency(self):
        seqs = [_seq_from_motion(standing_motion(n=10))] * 2
        out = static_baseline(seqs, n=10)
        assert foot_skating(out) == 0.0

    def test_zero_velocity_channels_in_feature_space(self):
        from pnr.features import ROOT_LIN_VEL, ROOT_ROT_VEL, VELOCITIES, to_features

        seqs = [_seq_from_motion(standing_motion(n=10))] * 2
        feats = to_features(static_baseline(seqs, n=8))
        assert np.allclose(feats[:, ROOT_ROT_VEL], 0.0)
        assert np.allclose(feats[:, ROOT_LIN_VEL], 0.0)
        assert np.allclose(feats[:, VELOCITIES], 0.0)

    def test_empty_raises(self):
        with pytest.raises(EmptyCorpus):
            static_baseline([], n=5)


def _seq_from_motion(motion):
    from pnr.curation import PnRSequence
    from pnr.gaze import InteractionEvent, ObjectTarget, PrimedEvent
    from pnr.geometry import Aabb

    tgt = ObjectTarget("t", box=Aabb.from_center(vec3(0, 1, 2), vec3(0.1, 0.1, 0.1)))
    gaze = np.tile([0.0, 0.0, 1.0], (motion.n_frames, 1))
    from pnr.motion import MotionSequence

    m = MotionSequence(motion.fps, motion.joints, gaze=gaze)
    return PnRSequence(
        id="s", video_id="v",
        event=PrimedEvent(InteractionEvent("pick", 1.0, tgt), 0.5),
        motion=m, goal_location=vec3(0, 1, 2),
        initial_state=InitialState(m.joints[0], np.zeros((22, 3))),
        prime_frame_index=0,
    )


class TestProceduralPnr:
    def initial(self):
        return InitialState(REST.copy(), np.zeros((22, 3)))

    def test_reaches_goal_one_meter_ahead(self):
        goal = np.array([0.0, 1.0, 1.0])
        m = procedural_pnr(self.initial(), goal, "pick", n=150, fps=30.0)
        d = min(np.linalg.norm(m.joints[-1, L_WRIST] - goal),
                np.linalg.norm(m.joints[-1, R_WRIST] - goal))
        assert d < 0.02

    def test_prime_success_against_goal_gaze(self):
        goal = np.array([0.5, 1.0, 2.0])
        m = procedural_pnr(self.initial(), goal, "pick", n=150, fps=30.0)
        prime_idx = 60
        gaze_dir = goal - m.joints[prime_idx, 15]
        gaze = np.tile(gaze_dir / np.linalg.norm(gaze_dir), (150, 1))
        gt = type(m)(m.fps, m.joints, gaze=gaze)
        pair = EvalPair("p", m, gt, prime_idx, goal, gaze[prime_idx])
        assert prime_success(pair)
        assert reach_success(pair)

    def test_goal_behind_turns_and_reaches(self):
        goal = np.array([0.0, 1.0, -2.0])
        m = procedural_pnr(self.initial(), goal, "pick", n=150, fps=30.0)
        d = min(np.linalg.norm(m.joints[-1, L_WRIST] - goal),
                np.linalg.norm(m.joints[-1, R_WRIST] - goal))
        assert d < 0.02
        # the body ends up facing the goal
        fwd = head_forward(m.joints[-1])
        to_goal = goal - m.joints[-1, 15]
        cos = fwd @ to_goal / np.linalg.norm(to_goal)
        assert cos > 0.7

    def test_unreachable_goal(self):
        with pytest.raises(UnreachableGoal):
            procedural_pnr(self.initial(), np.array([0.0, 1.0, 50.0]), "pick",
                           n=30, fps=30.0)

    def test_low_foot_skating(self):
        goal = np.array([1.0, 1.0, 2.0])
        m = procedural_pnr(self.initial(), goal, "pick", n=150, fps=30.0)
        assert foot_skating(m) <= 0.05

    def test_determinism(self):
        goal = np.array([1.0, 1.0, 2.0])
        a = procedural_pnr(self.initial(), goal, "pick", n=100, fps=30.0)
        b = procedural_pnr(self.initial(), goal, "pick", n=100, fps=30.0)
        assert np.array_equal(a.joints, b.joints)

    def test_close_goal_no_walk(self):
        goal = np.array([0.2, 1.0, 0.2])  # within the standing distance
        m = procedural_pnr(self.initial(), goal, "pick", n=60, fps=30.0)
        assert np.linalg.norm(m.joints[-1, PELVIS, [0, 2]] - REST[PELVIS, [0, 2]]) < 1e-9
        d = min(np.linalg.norm(m.joints[-1, L_WRIST] - goal),
                np.linalg.norm(m.joints[-1, R_WRIST] - goal))
        assert d < 0.02
