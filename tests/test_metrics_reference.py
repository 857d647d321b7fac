"""The component-wise metrics and the folded window kernel must be
bit-equal to the ``np.linalg.norm`` and per-sigma forms kept in
``reference_metrics.py``: joint distances, foot skating, prime success and
the sweep grid, over random pairs and their edge cases."""

import numpy as np
import pytest

import reference_metrics as ref
from builders import random_smooth_motion
from pnr.metrics import (
    EvalPair,
    foot_skating,
    goal_mpjpe,
    mpjpe,
    prime_success,
    prime_success_sweep,
    prime_window_errors,
)
from pnr.motion import MotionSequence
from pnr.skeleton import L_FOOT, N_JOINTS, R_FOOT


def same_bits(new, old):
    new, old = np.asarray(new, dtype=np.float64), np.asarray(old, dtype=np.float64)
    return new.shape == old.shape and new.tobytes() == old.tobytes()


def pair_of(pred, gt, prime=0):
    return EvalPair(id="p", predicted=pred, ground_truth=gt, prime_frame_index=prime,
                    goal_location=gt.joints[-1, 0], prime_gaze=np.array([0.0, 0.0, 1.0]))


def random_joints(rng, n, kind):
    """(n, 22, 3) joints of one kind of edge: plain normals, signed zeros,
    values whose squares overflow, or values whose squares are subnormal
    or underflow to zero."""
    if kind == "normal":
        return rng.normal(0.0, 1.0, size=(n, N_JOINTS, 3))
    if kind == "signed_zeros":
        return rng.choice([0.0, -0.0, 0.0, 0.25], size=(n, N_JOINTS, 3))
    if kind == "overflow":
        return rng.choice([1e200, -1e200, 1.5e154, 1.0], size=(n, N_JOINTS, 3))
    return rng.choice([1e-160, -1e-170, 3e-200, 0.0], size=(n, N_JOINTS, 3))


KINDS = ["normal", "signed_zeros", "overflow", "tiny"]


def one_joint_apart(rng, pred, gt):
    """gt with one joint of pred: the mean is that joint's distance over
    the joint count, so a distance rounded another way shows in it (the
    mean of many distances mostly absorbs a last-bit change)."""
    joints = gt.joints.copy()
    frame = -1 if rng.random() < 0.5 else int(rng.integers(len(joints)))
    joint = int(rng.integers(N_JOINTS))
    joints[frame, joint] = pred.joints[frame, joint]
    return MotionSequence(gt.fps, joints)


@pytest.mark.parametrize("kind", KINDS)
def test_joint_distances_match_reference(kind):
    rng = np.random.default_rng(KINDS.index(kind))
    for n in (2, 3, 17, 150):
        pred = MotionSequence(30.0, random_joints(rng, n, kind))
        gt = MotionSequence(30.0, random_joints(rng, n, kind))
        pairs = [pair_of(pred, gt), pair_of(gt, pred), pair_of(pred, pred)]
        pairs += [pair_of(one_joint_apart(rng, pred, gt), gt) for _ in range(100)]
        for pair in pairs:
            with np.errstate(over="ignore", under="ignore"):
                assert same_bits(mpjpe(pair), ref.mpjpe(pair))
                assert same_bits(goal_mpjpe(pair), ref.goal_mpjpe(pair))


def skating_joints(rng, n, fps, kind):
    """Joints whose toes hover around CONTACT_HEIGHT and step at speeds
    around CONTACT_SPEED, so both gates go each way; the other edge kinds
    overwrite some toe components."""
    joints = rng.normal(0.0, 1.0, size=(n, N_JOINTS, 3))
    for j in (L_FOOT, R_FOOT):
        joints[:, j, 1] = rng.uniform(0.0, 0.1, size=n)
        for c in (0, 2):
            joints[:, j, c] = np.cumsum(rng.normal(0.0, 0.5 / fps, size=n))
    if kind != "normal":
        edge = random_joints(rng, n, kind)
        mask = rng.random(size=(n, N_JOINTS, 3)) < 0.3
        joints[mask] = edge[mask]
    return joints


@pytest.mark.parametrize("kind", KINDS)
def test_foot_skating_matches_reference(kind):
    rng = np.random.default_rng(10 + KINDS.index(kind))
    for n, fps in ((2, 30.0), (9, 20.0), (150, 29.97), (150, 60.0)):
        for _ in range(4):
            motion = MotionSequence(fps, skating_joints(rng, n, fps, kind))
            with np.errstate(over="ignore", under="ignore", invalid="ignore"):
                assert same_bits(foot_skating(motion), ref.foot_skating(motion))


def random_pairs(seed, n=90):
    """Predictions that wander and turn their heads, against random gaze
    directions, primed at the first, the last and random frames, at fps
    values that put sigma * fps on and between whole frames."""
    rng = np.random.default_rng(seed)
    pairs = []
    for k, fps in enumerate((30.0, 29.97, 12.5, 60.0)):
        for prime in (0, n - 1, int(rng.integers(1, n - 1))):
            pred = random_smooth_motion(rng, n=n, fps=fps)
            gt = random_smooth_motion(rng, n=n, fps=fps)
            gaze = rng.normal(size=3) + np.array([0.0, 0.0, 2.0])
            pairs.append(EvalPair(id=f"p{k}-{prime}", predicted=pred, ground_truth=gt,
                                  prime_frame_index=prime, goal_location=gt.joints[-1, 0],
                                  prime_gaze=gaze / np.linalg.norm(gaze)))
    return pairs


def exact_error_thetas(pairs, sigma):
    """Thresholds in degrees that convert back to a frame's error exactly,
    so the inclusive comparison is tested at equality."""
    errors = np.unique(np.concatenate([prime_window_errors(p, sigma) for p in pairs]))
    thetas = np.degrees(errors)
    exact = thetas[np.radians(thetas) == errors]
    assert len(exact) >= 20
    return list(exact)


# unsorted, repeated, zero, on a whole frame at 30 fps, and past the
# sequence at every fps (including one whose frame count overflows)
SIGMAS = [0.35, 0.0, 1e308, 0.2, 0.35, 0.1, 50.0, 0.0, 0.05, 3.0, 0.2]


@pytest.mark.parametrize("seed", [1, 2])
def test_sweep_matches_reference(seed):
    pairs = random_pairs(seed)
    thetas = list(range(0, 181, 5)) + exact_error_thetas(pairs, 3.0)
    grid = prime_success_sweep(pairs, thetas, SIGMAS)
    assert same_bits(grid, ref.prime_success_sweep(pairs, thetas, SIGMAS))
    # each sigma alone, and in reverse order, reads the same rows
    assert same_bits(prime_success_sweep(pairs, thetas, SIGMAS[::-1]), grid[::-1])
    for k, sigma in enumerate(SIGMAS):
        assert same_bits(prime_success_sweep(pairs, thetas, [sigma]), grid[k:k + 1])


def test_prime_success_matches_reference():
    pairs = random_pairs(3)
    thetas = [0.0, 10.0, 30.0, 90.0] + exact_error_thetas(pairs, 3.0)[::7]
    for pair in pairs:
        for sigma in SIGMAS:
            for theta in thetas:
                assert prime_success(pair, theta, sigma) == ref.prime_success(pair, theta, sigma)
