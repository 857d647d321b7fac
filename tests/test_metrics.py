import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from pnr.curation import InitialState, PnRSequence
from pnr.errors import EmptyCorpus, MissingGaze
from pnr.gaze import InteractionEvent, ObjectTarget, PrimedEvent
from pnr.geometry import Aabb
from pnr.metrics import (
    EvalPair,
    MetricsConfig,
    _window_minima,
    evaluate,
    evaluate_pair,
    foot_skating,
    goal_mpjpe,
    location_error_flag,
    mpjpe,
    prime_success,
    prime_success_sweep,
    prime_window_errors,
    reach_success,
)
from pnr.motion import MotionSequence, yaw_matrices
from pnr.skeleton import L_FOOT, L_WRIST, R_WRIST

from builders import REST, Rig, glide_motion, posed_frames, standing_motion, vec3

FPS = 30.0
N = 60


def gt_motion(gaze_dir=(0.0, 0.0, 1.0), n=N):
    g = np.tile(np.asarray(gaze_dir) / np.linalg.norm(gaze_dir), (n, 1))
    return MotionSequence(FPS, np.tile(REST, (n, 1, 1)), gaze=g)


def make_pair(pred=None, gt=None, prime_idx=30, goal=None, gaze=(0.0, 0.0, 1.0)):
    gt = gt if gt is not None else gt_motion(gaze)
    pred = pred if pred is not None else MotionSequence(FPS, gt.joints.copy())
    goal = goal if goal is not None else gt.joints[-1, R_WRIST]
    gaze = np.asarray(gaze, dtype=float)
    return EvalPair(
        id="pair",
        predicted=pred,
        ground_truth=gt,
        prime_frame_index=prime_idx,
        goal_location=goal,
        prime_gaze=gaze / np.linalg.norm(gaze),
    )


def yawed_pred(angle_deg, n=N):
    """Rest pose rotated about the up axis so head forward is angle_deg
    off the +z gaze."""
    r = yaw_matrices(math.radians(angle_deg))
    return MotionSequence(FPS, np.tile(REST @ r.T, (n, 1, 1)))


class TestPrimeSuccess:
    def test_exact_alignment(self):
        assert prime_success(make_pair())

    def test_twenty_degrees_off_fails(self):
        assert not prime_success(make_pair(pred=yawed_pred(20.0)))

    def test_window_minimum_rescues(self):
        # 20 degrees off at t_p but 10 degrees off sigma later
        joints = np.tile(REST @ yaw_matrices(math.radians(20.0)).T, (N, 1, 1))
        later = 30 + int(round(0.2 * FPS))
        joints[later:] = REST @ yaw_matrices(math.radians(10.0)).T
        pair = make_pair(pred=MotionSequence(FPS, joints))
        assert not prime_success(pair, sigma=0.0)
        assert prime_success(pair, sigma=0.2)

    def test_inclusive_threshold(self):
        pair = make_pair(pred=yawed_pred(16.0))
        assert prime_success(pair, theta_deg=16.0, sigma=0.0)

    def test_window_clamps_at_bounds(self):
        pair = make_pair(prime_idx=0)
        assert prime_success(pair, sigma=1.0)


class TestReachSuccess:
    def test_close_wrist(self):
        gt = gt_motion()
        goal = gt.joints[-1, R_WRIST] + np.array([0.05, 0.0, 0.0])
        assert reach_success(make_pair(gt=gt, goal=goal))

    def test_both_far(self):
        gt = gt_motion()
        goal = gt.joints[-1, R_WRIST] + np.array([0.0, 0.0, 5.0])
        assert not reach_success(make_pair(gt=gt, goal=goal))

    def test_boundary_inclusive(self):
        gt = gt_motion()
        goal = gt.joints[-1, R_WRIST] + np.array([0.10, 0.0, 0.0])
        assert reach_success(make_pair(gt=gt, goal=goal))

    def test_wrist_relabel_invariance(self):
        gt = gt_motion()
        goal = gt.joints[-1, L_WRIST]
        pair = make_pair(gt=gt, goal=goal)
        swapped_joints = gt.joints.copy()
        swapped_joints[:, [L_WRIST, R_WRIST]] = swapped_joints[:, [R_WRIST, L_WRIST]]
        swapped = make_pair(pred=MotionSequence(FPS, swapped_joints), gt=gt, goal=goal)
        assert reach_success(pair) == reach_success(swapped)


class TestLocationError:
    def test_identical_pelvis(self):
        assert not location_error_flag(make_pair())

    def test_far_pelvis(self):
        pred = MotionSequence(FPS, gt_motion().joints + np.array([0.6, 0.0, 0.0]))
        assert location_error_flag(make_pair(pred=pred))

    def test_boundary_inclusive(self):
        pred = MotionSequence(FPS, gt_motion().joints + np.array([0.5, 0.0, 0.0]))
        assert location_error_flag(make_pair(pred=pred))


class TestJointErrors:
    def test_identical_zero(self):
        pair = make_pair()
        assert goal_mpjpe(pair) == 0.0
        assert mpjpe(pair) == 0.0

    def test_uniform_offset(self):
        pred = MotionSequence(FPS, gt_motion().joints + np.array([0.1, 0.0, 0.0]))
        pair = make_pair(pred=pred)
        assert goal_mpjpe(pair) == pytest.approx(0.1)
        assert mpjpe(pair) == pytest.approx(0.1)

    def test_final_frame_only_offset(self):
        joints = gt_motion().joints.copy()
        joints[-1] += np.array([0.1, 0.0, 0.0])
        pair = make_pair(pred=MotionSequence(FPS, joints))
        assert goal_mpjpe(pair) == pytest.approx(0.1)
        assert mpjpe(pair) == pytest.approx(0.1 / N)


class TestFootSkating:
    def test_static_zero(self):
        assert foot_skating(standing_motion()) == 0.0

    def test_grounded_slide_detected(self):
        # foot at 0.02 m height moving 0.04 m per frame at 20 fps = 0.8 m/s
        joints = np.tile(REST, (10, 1, 1))
        joints[:, L_FOOT, 1] = 0.02
        joints[:, L_FOOT, 0] += np.arange(10) * 0.04
        frac = foot_skating(MotionSequence(20.0, joints))
        assert frac == pytest.approx(1.0)

    def test_airborne_slide_ignored(self):
        joints = np.tile(REST, (10, 1, 1))
        joints[:, L_FOOT, 1] = 0.10
        joints[:, L_FOOT, 0] += np.arange(10) * 0.04
        assert foot_skating(MotionSequence(20.0, joints)) == 0.0

    def test_range(self):
        m = glide_motion(speed=2.0, n=30, fps=30.0)
        assert 0.0 <= foot_skating(m) <= 1.0

    def test_ankle_config(self):
        joints = np.tile(REST, (10, 1, 1))
        joints[:, L_FOOT, 0] += np.arange(10) * 0.04  # toes slide at 0.03 height
        m = MotionSequence(20.0, joints)
        assert foot_skating(m) == 1.0


class TestEvaluate:
    def test_self_evaluation(self):
        pairs = [make_pair(goal=gt_motion().joints[-1, R_WRIST]) for _ in range(3)]
        report = evaluate(pairs)
        assert report.prime_success == 100.0
        assert report.reach_success == 100.0
        assert report.mpjpe == 0.0
        assert report.n == 3

    def test_mixed_ratio(self):
        gt = gt_motion()
        good_goal = gt.joints[-1, R_WRIST]
        bad_goal = gt.joints[-1, R_WRIST] + np.array([0.0, 0.0, 5.0])
        pairs = [make_pair(gt=gt, goal=good_goal) for _ in range(3)]
        pairs.append(make_pair(gt=gt, goal=bad_goal))
        assert evaluate(pairs).reach_success == pytest.approx(75.0)

    def test_empty_raises(self):
        with pytest.raises(EmptyCorpus):
            evaluate([])

    def test_aggregates_match_recount(self):
        gt = gt_motion()
        pairs = [
            make_pair(gt=gt, goal=gt.joints[-1, R_WRIST]),
            make_pair(pred=yawed_pred(25.0), gt=gt,
                      goal=gt.joints[-1, R_WRIST] + np.array([0, 0, 5.0])),
        ]
        report = evaluate(pairs)
        assert report.prime_success == pytest.approx(
            100.0 * np.mean([p.prime_success for p in report.per_pair]))
        assert report.reach_success == pytest.approx(
            100.0 * np.mean([p.reach_success for p in report.per_pair]))

    def test_config_echo(self):
        report = evaluate([make_pair()])
        cfg = report.to_dict()["config"]
        assert cfg["theta_deg"] == 16.0
        assert cfg["sigma_s"] == 0.2


class TestSweep:
    def pairs(self):
        gt = gt_motion()
        return [
            make_pair(gt=gt),
            make_pair(pred=yawed_pred(12.0), gt=gt),
            make_pair(pred=yawed_pred(45.0), gt=gt),
        ]

    def test_theta_180_row_is_100(self):
        grid = prime_success_sweep(self.pairs(), [180.0], [0.0, 0.2])
        assert np.all(grid == 100.0)

    def test_zero_zero_exact_only(self):
        grid = prime_success_sweep(self.pairs(), [0.0], [0.0])
        assert grid[0, 0] == pytest.approx(100.0 / 3.0)

    def test_monotone_both_axes(self):
        thetas = list(range(0, 91, 5))
        sigmas = [0.0, 0.2, 0.4, 0.8, 1.0]
        grid = prime_success_sweep(self.pairs(), thetas, sigmas)
        assert np.all(np.diff(grid, axis=1) >= 0.0)
        assert np.all(np.diff(grid, axis=0) >= 0.0)

    def turning_pairs(self):
        """Predictions whose head turns every frame, at random, toward the
        gaze or away from it, primed at the first, the middle and the last
        frame; the steady turns make a frame just outside any window
        better than every frame in it."""
        rng = np.random.default_rng(3)
        pairs = []
        for headings, jitter in ((np.cumsum(rng.normal(0.0, 0.15, size=N)), 0.01),
                                 (np.linspace(-0.8, 0.0, N), 0.001),
                                 (np.linspace(0.4, 1.2, N), 0.001)):
            joints = posed_frames(np.tile(REST[0], (N, 1)), headings)
            pred = MotionSequence(FPS, joints + rng.normal(0.0, jitter, size=joints.shape))
            pairs += [make_pair(pred=pred, prime_idx=i, gaze=(0.3, -0.1, 1.0))
                      for i in (0, N // 2, N - 1)]
        return pairs

    def test_cells_equal_prime_success(self):
        pairs = self.turning_pairs()
        sigmas = [0.0, 0.01, 0.05, 0.1, 0.35, 0.5, 1.0, 2.5, 0.2, 0.35, 1e308, 0.0]
        # thresholds halfway between adjacent frame errors: a minimum read
        # from a wrong frame moves some cell; and thresholds equal to a
        # frame's error, where the inclusive comparison decides
        errors = np.unique(np.concatenate([prime_window_errors(p, 2.5) for p in pairs]))
        exact = np.degrees(errors)
        exact = exact[np.radians(exact) == errors]
        assert len(exact) > len(errors) // 2
        thetas = (list(range(0, 91, 3)) + list(np.degrees((errors[1:] + errors[:-1]) / 2))
                  + list(exact))
        grid = prime_success_sweep(pairs, thetas, sigmas)
        for k, sigma in enumerate(sigmas):
            for j, theta in enumerate(thetas):
                expected = 100.0 * np.mean([prime_success(p, theta, sigma) for p in pairs])
                assert grid[k, j] == expected, (sigma, theta)

    def test_window_minimum_is_brute_force(self):
        sigmas = (0.35, 0.0, 0.05, 0.1, 0.35, 1.0, 2.5, 0.0)
        for pair in self.turning_pairs():
            # each frame's error on its own, from a one-frame window
            alone = [prime_window_errors(replace(pair, prime_frame_index=f), 0.0)[0]
                     for f in range(N)]
            minima = _window_minima(pair, np.array(sigmas))
            for k, sigma in enumerate(sigmas):
                half = round(sigma * FPS)
                frames = [f for f in range(N) if abs(f - pair.prime_frame_index) <= half]
                errors = prime_window_errors(pair, sigma)
                assert len(errors) == len(frames)
                assert errors.min() == min(alone[f] for f in frames)
                assert np.array_equal(errors, [alone[f] for f in frames])
                assert minima[k] == min(alone[f] for f in frames)

    def test_empty_sigmas_give_empty_grid(self):
        grid = prime_success_sweep(self.pairs(), [0.0, 10.0, 20.0], [])
        assert grid.shape == (0, 3)

    @pytest.mark.parametrize("thetas, sigmas", [
        ([math.nan, 180.0], [0.2]),
        ([16.0], [0.2, math.nan]),
        ([16.0], [0.2, -0.1]),
    ], ids=["nan_theta", "nan_sigma", "negative_sigma"])
    def test_nan_or_negative_refused(self, thetas, sigmas):
        with pytest.raises(ValueError):
            prime_success_sweep(self.pairs(), thetas, sigmas)


class TestRigidInvariance:
    def make(self):
        pred = glide_motion(speed=0.8, n=N, fps=FPS)
        gt = gt_motion()
        return make_pair(pred=pred, gt=gt, goal=gt.joints[-1, R_WRIST])

    def test_ground_preserving_all_six(self):
        pair = self.make()
        moved = Rig(yaw_matrices(1.234), vec3(3.7, 0.0, -2.1)).pair(pair)
        a, b = evaluate_pair(pair), evaluate_pair(moved)
        assert a.prime_success == b.prime_success
        assert a.reach_success == b.reach_success
        assert a.location_error == b.location_error
        assert abs(a.goal_mpjpe - b.goal_mpjpe) < 1e-9
        assert abs(a.mpjpe - b.mpjpe) < 1e-9
        assert abs(a.foot_skating - b.foot_skating) < 1e-9

    def test_full_rotation_five_metrics(self):
        # foot skating is height-gated so only ground-preserving motions
        # leave it unchanged; the other five survive any rigid transform
        pair = self.make()
        moved = Rig.about(vec3(1, 2, 0.5), 0.9, vec3(1, 2, 3)).pair(pair)
        assert prime_success(pair) == prime_success(moved)
        assert reach_success(pair) == reach_success(moved)
        assert location_error_flag(pair) == location_error_flag(moved)
        assert goal_mpjpe(pair) == pytest.approx(goal_mpjpe(moved), abs=1e-9)
        assert mpjpe(pair) == pytest.approx(mpjpe(moved), abs=1e-9)


def curated(motion, prime_frame_index, t_p, t_e):
    """A curated sequence around ``motion``, whose goal is (0, 1, 2)."""
    tgt = ObjectTarget("t", box=Aabb.from_center(vec3(0, 1, 2), vec3(0.1, 0.1, 0.1)))
    return PnRSequence(
        id="s", video_id="v",
        event=PrimedEvent(InteractionEvent("pick", t_e, tgt), t_p),
        motion=motion, goal_location=vec3(0, 1, 2),
        initial_state=InitialState(motion.joints[0], np.zeros((22, 3))),
        prime_frame_index=prime_frame_index,
    )


class TestEvalPairConstruction:
    def test_mismatched_counts_rejected(self):
        with pytest.raises(ValueError):
            EvalPair("x", standing_motion(n=10), gt_motion(n=12), 0,
                     vec3(0, 0, 0), vec3(0, 0, 1))

    def test_missing_gaze_rejected(self):
        seq = curated(standing_motion(n=10), 2, t_p=0.5, t_e=1.0)
        with pytest.raises(MissingGaze):
            EvalPair.from_sequences(standing_motion(n=10), seq)

    # the prime gaze used to be normalized by a length whose square
    # overflowed (the first scored as unprimed, with an overflow warning)
    # or underflowed to zero (the second refused as zero length)
    @pytest.mark.parametrize("gaze, yaw_deg", [
        ([1e200, 0.0, 0.0], 90.0),
        ([1e-170, 0.0, 1e-170], 45.0),
    ])
    def test_extreme_gaze_length_self_evaluates_as_primed(self, gaze, yaw_deg):
        # the body is turned so its head faces along the gaze
        joints = yawed_pred(yaw_deg).joints
        motion = MotionSequence(FPS, joints, gaze=np.tile(gaze, (len(joints), 1)))
        seq = curated(motion, 30, t_p=1.0, t_e=1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pair = EvalPair.from_sequences(motion, seq)
            assert evaluate_pair(pair).prime_success
        want = np.array(gaze) / np.array(gaze).max()
        assert np.allclose(pair.prime_gaze, want / np.sqrt(want @ want), rtol=0, atol=1e-15)

    def test_from_sequences_resamples_and_maps_prime(self):
        seq = curated(gt_motion(n=61), 30, t_p=1.0, t_e=2.0)
        pred = standing_motion(n=150, fps=FPS * 149 / 60)
        pair = EvalPair.from_sequences(pred, seq, n=150)
        assert pair.ground_truth.n_frames == 150
        assert pair.prime_frame_index == int(round(30 * 149 / 60))
        assert np.allclose(pair.prime_gaze, [0, 0, 1])

    def test_from_sequences_puts_prediction_on_gt_fps(self):
        # a prediction of n frames at another fps is not resampled: it keeps
        # its joints to the bit and takes the resampled ground truth's fps
        seq = curated(gt_motion(n=61), 30, t_p=1.0, t_e=2.0)
        pred = glide_motion(n=150, fps=17.0)
        pair = EvalPair.from_sequences(pred, seq, n=150)
        assert pair.predicted.fps == pair.ground_truth.fps == FPS * 149 / 60 != pred.fps
        assert pair.predicted.joints.tobytes() == pred.joints.tobytes()


def test_metrics_config_validation():
    for fields in ({"sigma": -0.1}, {"sigma": math.nan}, {"theta_deg": math.nan}):
        with pytest.raises(ValueError):
            MetricsConfig(**fields)
        with pytest.raises(ValueError):
            prime_success(make_pair(), **fields)
    with pytest.raises(ValueError):
        prime_window_errors(make_pair(), math.nan)
