"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The corpus-level tests
share one 500-scenario synthetic corpus built once per session.
"""

import inspect
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from pnr.curation import (
    DEFAULT_MIN_MOVEMENT,
    DEFAULT_PREPEND,
    curate,
    curate_corpus,
    split,
)
from pnr.features import CONTACT_HEIGHT, CONTACT_SPEED, FEATURE_DIM, from_features, to_features
from pnr.gaze import DEFAULT_TAU, DEFAULT_WINDOW, find_prime_time
from pnr.geometry import slab_intersect_batch
from pnr.io_jsonl import write_json, write_sequence
from pnr.metrics import (
    DEFAULT_N_FRAMES,
    DEFAULT_SIGMA,
    DEFAULT_THETA_DEG,
    LOCATION_THRESHOLD,
    REACH_RADIUS,
    EvalPair,
    MetricsConfig,
    evaluate,
    evaluate_pair,
    foot_skating,
    goal_mpjpe,
    location_error_flag,
    mpjpe,
    prime_success,
    prime_success_sweep,
    reach_success,
)
from pnr.motion import MotionSequence, resample, yaw_matrices
from pnr.synth import (
    NEAR_MISS,
    ScenarioSpec,
    generate_corpus,
    generate_scenario,
    procedural_pnr,
    static_baseline,
)

from builders import Rig, head_forward, random_smooth_motion, vec3
from oracles import N_SAMPLES, focused_hit_batch, oracle_grid_steps


def _report(name, detail):
    print(f"\nACCEPTANCE {name}: PASS ({detail})")


# --------------------------------------------------------------------- 1


def test_01_slab_oracle_equivalence():
    rng = np.random.default_rng(20240611)
    n = 100_000
    origins = rng.uniform(-5.0, 5.0, (n, 3))
    centers = rng.uniform(-5.0, 5.0, (n, 3))
    extents = rng.uniform(0.01, 2.0, (n, 3))
    bmins = centers - extents / 2.0
    bmaxs = centers + extents / 2.0
    interior = bmins + rng.uniform(0.0, 1.0, (n, 3)) * extents
    dirs = np.where(rng.random(n)[:, None] < 0.5,
                    interior - origins, rng.normal(size=(n, 3)))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    start = time.perf_counter()
    hit, t_near, t_far = slab_intersect_batch(origins, dirs, bmins, bmaxs)
    oracle = focused_hit_batch(origins, dirs, bmins, bmaxs)
    elapsed = time.perf_counter() - start

    # a point-sampling oracle cannot adjudicate chords thinner than its
    # own grid step, so the grazing band is the larger of 1e-6 and the
    # per-pair step (the focused oracle's step scales with the box)
    steps = oracle_grid_steps(origins, dirs, bmins, bmaxs)
    band = np.maximum(1e-6, steps)
    decisive = np.abs(t_near - t_far) >= band
    mismatches = np.nonzero(decisive & (hit != oracle))[0]
    assert mismatches.size == 0, f"disagreements at {mismatches[:10]}"
    assert elapsed < 5.0, f"oracle comparison took {elapsed:.2f}s"
    _report(
        "1 slab-oracle",
        f"{n} pairs, {int(hit.sum())} hits, {int((~decisive).sum())} grazing "
        f"excluded, 0 disagreements, {elapsed:.2f}s (oracle {N_SAMPLES} samples)",
    )


# --------------------------------------------------------------------- 2


def test_02_prime_time_recovery():
    n_direct, n_near = 750, 250
    exact = 0
    for rec, labels in generate_corpus(ScenarioSpec(), n_direct, seed=101):
        primed = find_prime_time(rec.gaze, rec.events[0])
        assert primed is not None
        if abs(primed.t_p - labels.events[0].t_p) < 1e-12:
            exact += 1
    near_spec = ScenarioSpec(prime_mode=NEAR_MISS)
    near_fail_without_rule = 0
    for rec, labels in generate_corpus(near_spec, n_near, seed=202):
        primed = find_prime_time(rec.gaze, rec.events[0])
        assert primed is not None
        assert primed.prime_mode == "near_miss"
        if abs(primed.t_p - labels.events[0].t_p) < 1e-12:
            exact += 1
        if find_prime_time(rec.gaze, rec.events[0], tau=0.0) is None:
            near_fail_without_rule += 1
    assert exact == n_direct + n_near
    assert near_fail_without_rule == n_near
    _report(
        "2 prime-time recovery",
        f"{exact}/{n_direct + n_near} exact at frame resolution; "
        f"{near_fail_without_rule}/{n_near} near-miss scenarios fail with "
        f"the proximity rule removed",
    )


# --------------------------------------------------------------------- 3


def test_03_defaults_pinned():
    assert DEFAULT_THETA_DEG == 16.0
    assert DEFAULT_SIGMA == 0.2
    assert REACH_RADIUS == 0.10
    assert LOCATION_THRESHOLD == 0.50
    assert CONTACT_SPEED == 0.5
    assert CONTACT_HEIGHT == 0.05
    assert DEFAULT_WINDOW == 10.0
    assert DEFAULT_TAU == 0.05
    assert DEFAULT_PREPEND == 2.0
    assert DEFAULT_MIN_MOVEMENT == 0.20
    assert DEFAULT_N_FRAMES == 150

    cfg = MetricsConfig().to_dict()
    assert cfg == {
        "theta_deg": 16.0, "sigma_s": 0.2, "reach_radius_m": 0.10,
        "location_threshold_m": 0.50, "skate_speed_m_per_s": 0.5,
        "skate_height_m": 0.05, "n_frames": 150, "foot_joints": "toes",
    }
    sig = inspect.signature(curate)
    assert sig.parameters["prepend"].default == 2.0
    assert sig.parameters["w"].default == 10.0
    assert sig.parameters["tau"].default == 0.05
    assert sig.parameters["min_movement"].default == 0.20
    sig = inspect.signature(find_prime_time)
    assert sig.parameters["w"].default == 10.0
    assert sig.parameters["tau"].default == 0.05
    _report("3 defaults", "theta=16deg sigma=0.2s reach=0.10m loc=0.50m "
                          "skate=0.5m/s@0.05m w=10s tau=0.05m prepend=2s "
                          "min-movement=0.20m N=150, all echoed in config")


# --------------------------------------------------------------------- shared corpus


@pytest.fixture(scope="module")
def corpus():
    n = 500
    recordings = generate_corpus(ScenarioSpec(), n, seed=7)
    results = curate_corpus([rec for rec, _ in recordings])
    sequences = [s for r in results for s in r.sequences]
    assert len(sequences) == n, "every planted event must curate"
    manifest = split(sequences, ratio=0.7, seed=13)
    train = [s for s in sequences if manifest.assignments[s.id] == "train"]
    test = [s for s in sequences if manifest.assignments[s.id] == "test"]
    return {"sequences": sequences, "manifest": manifest,
            "train": train, "test": test, "results": results}


def _procedural_pairs(test_seqs, n=DEFAULT_N_FRAMES):
    pairs = []
    for gt in test_seqs:
        fps = resample(gt.motion, n).fps
        pred = procedural_pnr(gt.initial_state, gt.goal_location,
                              gt.event.event.kind, n=n, fps=fps)
        pairs.append(EvalPair.from_sequences(pred, gt, n=n))
    return pairs


def _static_pairs(train_seqs, test_seqs, n=DEFAULT_N_FRAMES):
    mean = static_baseline(train_seqs, n=n, fps=30.0)
    pairs = []
    for gt in test_seqs:
        fps = resample(gt.motion, n).fps
        pred = MotionSequence(fps, mean.joints)
        pairs.append(EvalPair.from_sequences(pred, gt, n=n))
    return pairs


# --------------------------------------------------------------------- 4


def test_04_sweep_monotonicity(corpus):
    test_seqs = corpus["test"][:40]
    pairs = _procedural_pairs(test_seqs) + _static_pairs(corpus["train"], test_seqs)
    thetas = list(range(0, 91, 2))
    sigmas = [0.0, 0.2, 0.4, 0.8, 1.0]
    grid = prime_success_sweep(pairs, thetas, sigmas)
    assert np.all(np.diff(grid, axis=1) >= -1e-12), "not monotone in theta"
    assert np.all(np.diff(grid, axis=0) >= -1e-12), "not monotone in sigma"
    wide = prime_success_sweep(pairs, [180.0], sigmas)
    assert np.all(wide == 100.0)
    _report("4 sweep", f"{grid.shape[1]} thetas x {grid.shape[0]} sigmas over "
                       f"{len(pairs)} pairs, non-decreasing on both axes; "
                       f"theta=180deg row = 100%")


# --------------------------------------------------------------------- 5


def test_05_baseline_separation(corpus):
    test_seqs = corpus["test"]
    proc_report = evaluate(_procedural_pairs(test_seqs))
    static_report = evaluate(_static_pairs(corpus["train"], test_seqs))

    assert proc_report.prime_success >= 95.0, proc_report.prime_success
    assert proc_report.reach_success >= 95.0, proc_report.reach_success
    # goals are planted >= 1 m from any mean-pose wrist by construction
    assert static_report.reach_success == 0.0, static_report.reach_success
    assert static_report.location_error_rate == 100.0
    _report(
        "5 baseline separation",
        f"{len(test_seqs)} test sequences: procedural prime "
        f"{proc_report.prime_success:.1f}% / reach {proc_report.reach_success:.1f}%; "
        f"static reach {static_report.reach_success:.1f}% / "
        f"loc-err {static_report.location_error_rate:.1f}%",
    )


# --------------------------------------------------------------------- 6


def test_06_feature_roundtrip():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        m = random_smooth_motion(rng, n=150)
        feats = to_features(m)
        assert feats.shape == (150, FEATURE_DIM) and FEATURE_DIM == 263
        rec = from_features(feats, m.fps)
        err = float(np.linalg.norm(rec.joints - m.joints, axis=2).max())
        worst = max(worst, err)
    assert worst <= 1e-4, worst
    _report("6 feature roundtrip", f"100 motions x 150 frames, max per-joint "
                                   f"error {worst:.2e} m <= 1e-4; dim=263")


# --------------------------------------------------------------------- 7


def test_07_rigid_invariance(corpus):
    rng = np.random.default_rng(99)
    pairs = _procedural_pairs(corpus["test"][:20])
    worst = 0.0
    for pair in pairs:
        # ground-preserving rigid motion: yaw plus horizontal translation
        # (foot skating and contact gates are height-referenced)
        rig = Rig(
            yaw_matrices(rng.uniform(0, 2 * math.pi)),
            vec3(rng.uniform(-5, 5), 0.0, rng.uniform(-5, 5)),
        )
        moved = rig.pair(pair)
        a, b = evaluate_pair(pair), evaluate_pair(moved)
        assert a.prime_success == b.prime_success
        assert a.reach_success == b.reach_success
        assert a.location_error == b.location_error
        for x, y in ((a.goal_mpjpe, b.goal_mpjpe), (a.mpjpe, b.mpjpe),
                     (a.foot_skating, b.foot_skating)):
            worst = max(worst, abs(x - y))
        # the five height-free metrics survive arbitrary rigid transforms
        free = Rig.about(rng.normal(size=3), rng.uniform(0, math.pi), rng.uniform(-3, 3, 3))
        far = free.pair(pair)
        assert prime_success(pair) == prime_success(far)
        assert reach_success(pair) == reach_success(far)
        assert location_error_flag(pair) == location_error_flag(far)
        worst = max(worst, abs(goal_mpjpe(pair) - goal_mpjpe(far)))
        worst = max(worst, abs(mpjpe(pair) - mpjpe(far)))
    assert worst < 1e-9, worst

    ang_worst = 0.0
    for _ in range(200):
        m = random_smooth_motion(rng, n=5)
        pose = m.joints[2]
        rot = Rig.about(rng.normal(size=3), rng.uniform(0, 2 * math.pi))
        f1 = head_forward(pose @ rot.rotation.T)
        f2 = rot.rotation @ head_forward(pose)
        ang = math.acos(min(1.0, max(-1.0, float(f1 @ f2))))
        ang_worst = max(ang_worst, ang)
    assert ang_worst < 1e-6, ang_worst
    _report("7 rigid invariance", f"metric drift {worst:.2e} < 1e-9 over 20 pairs; "
                                  f"head-forward equivariance {ang_worst:.2e} rad < 1e-6")


# --------------------------------------------------------------------- 8


def test_08_determinism_and_split_hygiene(corpus, tmp_path):
    # byte-identical sequence files from two independent pipeline runs
    rec_a, _ = generate_scenario(ScenarioSpec(seed=31))
    rec_b, _ = generate_scenario(ScenarioSpec(seed=31))
    seq_a = curate(rec_a).sequences[0]
    seq_b = curate(rec_b).sequences[0]
    fa, fb = tmp_path / "a.seq.jsonl", tmp_path / "b.seq.jsonl"
    write_sequence(seq_a, fa)
    write_sequence(seq_b, fb)
    assert fa.read_bytes() == fb.read_bytes()

    # byte-identical manifests and reports
    sequences = corpus["sequences"]
    m1 = split(sequences, ratio=0.7, seed=13)
    m2 = split(list(reversed(sequences)), ratio=0.7, seed=13)
    assert m1.train_video_ids == m2.train_video_ids
    assert m1.assignments == m2.assignments

    pairs = _procedural_pairs(corpus["test"][:10])
    ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
    write_json(evaluate(pairs).to_dict(), ra)
    write_json(evaluate(pairs).to_dict(), rb)
    assert ra.read_bytes() == rb.read_bytes()

    # split hygiene over several seeds: no video id on both sides, and
    # every sequence follows its video
    straddles = 0
    for seed in (13, 14, 99):
        m = split(sequences, ratio=0.7, seed=seed)
        assert not set(m.train_video_ids) & set(m.test_video_ids)
        by_video = {}
        for s in sequences:
            by_video.setdefault(s.video_id, set()).add(m.assignments[s.id])
        straddles += sum(len(v) > 1 for v in by_video.values())
    assert straddles == 0
    _report("8 determinism + split hygiene",
            "byte-identical sequences, manifests and reports; "
            "no video straddles train/test over 3 seeds")


# --------------------------------------------------------------------- 9


def test_09_throughput():
    n_total, batch = 10_000, 1_000
    spec = ScenarioSpec(duration=4.5, planted_prime_offset=2.0, n_objects=1)
    curate_time = 0.0
    n_sequences = 0
    child_seeds = np.random.SeedSequence(404).generate_state(n_total)
    for lo in range(0, n_total, batch):
        recs = [generate_scenario(replace(spec, seed=int(s)))[0]
                for s in child_seeds[lo:lo + batch]]
        start = time.perf_counter()
        results = curate_corpus(recs)
        curate_time += time.perf_counter() - start
        n_sequences += sum(len(r.sequences) for r in results)
    assert n_sequences == n_total
    assert curate_time < 60.0, f"curation took {curate_time:.1f}s"
    _report("9 throughput", f"curated {n_total} recordings -> {n_sequences} "
                            f"sequences in {curate_time:.1f}s (< 60s)")
