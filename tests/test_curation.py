import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnr.curation import (
    InitialState,
    PnRSequence,
    Recording,
    curate,
    curate_corpus,
    split,
    stats,
)
from pnr.errors import EmptyCorpus
from pnr.gaze import DIRECT_HIT, NEAR_MISS, GazeTrack, InteractionEvent, ObjectTarget, PrimedEvent
from pnr.geometry import Aabb
from pnr.motion import MotionSequence, canonicalize, yaw_apply
from pnr.skeleton import PELVIS
from pnr.synth import ScenarioSpec, generate_scenario

from builders import REST, Rig, glide_motion, standing_motion, vec3

FPS = 30.0
TARGET = ObjectTarget("tgt", box=Aabb.from_center(vec3(0, 1.0, 6.0), vec3(0.1, 0.1, 0.1)))


def gaze_hitting_from(t_on, duration=10.0, target=TARGET, fps=FPS):
    """Identity-pose gaze track at the origin: looks at -z until t_on,
    then at the target center."""
    n = int(round(duration * fps)) + 1
    times = np.arange(n) / fps
    aim = target.as_box().center - np.array([0.0, 1.6, 0.0])
    off = np.array([0.0, 0.0, -1.0])
    pts = np.where((times >= t_on)[:, None], aim[None, :], off[None, :])
    return GazeTrack(times, pts, np.tile(np.eye(3), (n, 1, 1)),
                     np.tile([0.0, 1.6, 0.0], (n, 1)))


def make_recording(t_on=5.0, t_e=8.0, moving=True, rec_id="rec0", video_id="vid0"):
    n = int(round(10.0 * FPS)) + 1
    if moving:
        motion = glide_motion(speed=0.3, n=n, fps=FPS)
    else:
        motion = standing_motion(n=n, fps=FPS)
    return Recording(
        id=rec_id,
        video_id=video_id,
        gaze=gaze_hitting_from(t_on),
        motion=motion,
        objects={"tgt": TARGET},
        events=[InteractionEvent("pick", t_e, TARGET)],
    )


class TestCurate:
    def test_window_arithmetic(self):
        res = curate(make_recording(t_on=5.0, t_e=8.0))
        assert len(res.sequences) == 1 and not res.drops
        seq = res.sequences[0]
        assert seq.t_p == pytest.approx(5.0)
        assert seq.motion.duration == pytest.approx(5.0)  # slice [3, 8]
        assert seq.prime_frame_index == 60  # 2 s prepend at 30 fps
        assert seq.flags == ()

    def test_minimal_movement_drop(self):
        res = curate(make_recording(moving=False))
        assert not res.sequences
        assert [d.reason for d in res.drops] == ["minimal_movement"]

    def test_unprimed_drop(self):
        rec = make_recording(t_on=20.0)  # gaze lands after the window
        res = curate(rec)
        assert not res.sequences
        assert [d.reason for d in res.drops] == ["unprimed"]

    def test_too_short_drop(self):
        rec = make_recording(t_on=8.0, t_e=8.0)
        res = curate(rec, prepend=0.0)
        assert not res.sequences
        assert [d.reason for d in res.drops] == ["too_short"]

    def test_event_past_the_last_frame_dropped(self):
        # the last frame is at 10 s: an event within half a frame of it is
        # cut there, one later is dropped before the priming scan
        edge = 300.5 / FPS
        (seq,) = curate(make_recording(t_e=edge)).sequences
        assert seq.motion.n_frames == 211  # frames 90 to 300
        res = curate(make_recording(t_e=float(np.nextafter(edge, np.inf))))
        assert not res.sequences
        assert [d.reason for d in res.drops] == ["after_last_frame"]

    def test_clamped_start_flag(self):
        rec = make_recording(t_on=1.0, t_e=4.0)
        res = curate(rec)
        seq = res.sequences[0]
        assert "clamped_start" in seq.flags
        assert "no_preceding_frame" in seq.flags
        assert np.allclose(seq.initial_state.velocity, 0.0)
        # slice clamps to the stream start
        assert seq.motion.n_frames == int(round(4.0 * FPS)) + 1

    def test_count_conservation(self):
        rec = make_recording()
        far = ObjectTarget("far", box=Aabb.from_center(vec3(50, 1, 0), vec3(0.1, 0.1, 0.1)))
        events = [
            InteractionEvent("pick", 8.0, TARGET),
            InteractionEvent("put", 9.0, far),
            InteractionEvent("pick", 6.0, TARGET),
        ]
        rec = Recording(rec.id, rec.video_id, rec.gaze, rec.motion, rec.objects, events)
        res = curate(rec)
        assert len(res.sequences) + len(res.drops) == len(events)

    def test_goal_pose_is_last_frame(self):
        # the goal pose a sequence conditions on, its last frame, is the
        # recording's pose at t_e moved into the sequence's frame
        rec = make_recording(t_on=5.0, t_e=8.0)
        seq = curate(rec).sequences[0]
        slice_3_to_8 = MotionSequence(FPS, rec.motion.joints[90:241])
        assert np.array_equal(seq.motion.joints[-1], canonicalize(slice_3_to_8)[0].joints[-1])

    def test_canonical_output(self):
        seq = curate(make_recording()).sequences[0]
        p0 = seq.motion.joints[0, PELVIS]
        assert np.allclose([p0[0], p0[2]], 0.0, atol=1e-9)

    def test_initial_velocity_from_preceding_frame(self):
        # the world step into the slice's first frame, turned by the
        # slice's own canonicalizing yaw
        rec = make_recording()
        seq = curate(rec).sequences[0]
        i0, i1 = int(round(3.0 * FPS)), int(round(8.0 * FPS))
        _, angle, _ = canonicalize(MotionSequence(FPS, rec.motion.joints[i0:i1 + 1]))
        step = rec.motion.joints[i0] - rec.motion.joints[i0 - 1]
        assert np.any(step != 0.0)
        assert np.allclose(seq.initial_state.velocity, yaw_apply(angle, step))

    def test_gaze_attached_to_frames(self):
        seq = curate(make_recording()).sequences[0]
        assert seq.motion.gaze is not None
        assert np.allclose(np.linalg.norm(seq.motion.gaze, axis=1), 1.0)

    def test_determinism(self):
        a = curate(make_recording()).sequences[0]
        b = curate(make_recording()).sequences[0]
        assert a.id == b.id
        assert np.array_equal(a.motion.joints, b.motion.joints)
        assert np.array_equal(a.goal_location, b.goal_location)

    def test_corpus_order_and_parallelism(self):
        recs = [make_recording(rec_id=f"r{i}", video_id=f"v{i % 3}") for i in range(8)]
        results = curate_corpus(recs)
        assert [r.recording_id for r in results] == [r.id for r in recs]
        for rec, res in zip(recs, results):
            for x, y in zip(res.sequences, curate(rec).sequences):
                assert np.array_equal(x.motion.joints, y.motion.joints)


# (cos, sin) of k quarter turns: yaw matrices of 0 and +-1 turn exactly
QUARTER_TURNS = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]


def scene(seed, mode, noise):
    """A synthetic recording, its planted event first, plus a put on a
    distractor box and picks of two point targets, each placed 2 cm off
    one sample's gaze ray (inside the near-miss tau of 5 cm)."""
    rec, _ = generate_scenario(ScenarioSpec(seed=seed, prime_mode=mode, gaze_noise_std=noise))
    rng = np.random.default_rng(seed)
    times = rec.gaze.times
    origins, dirs = rec.gaze.world_rays()
    objects = dict(rec.objects)
    events = [rec.events[0], InteractionEvent("put", rec.events[0].t_e - 1.0,
                                              objects["distractor00"])]
    for name in ("p0", "p1"):
        i = int(rng.integers(0, len(times) - 1))
        side = np.cross(dirs[i], [0.0, 1.0, 0.0])
        point = origins[i] + rng.uniform(1.0, 3.0) * dirs[i] + 0.02 * side / np.linalg.norm(side)
        objects[name] = ObjectTarget(name, point=point)
        t_e = times[min(i + int(rng.integers(0, 90)), len(times) - 1)]
        events.append(InteractionEvent("pick", float(t_e), objects[name]))
    return Recording(rec.id, rec.video_id, rec.gaze, rec.motion, objects, events)


def moved(rec, k, shift):
    """``rec`` with the whole world turned k quarter turns about +y and
    then shifted: joints, camera poses, boxes and points. Gaze points stay
    in the camera frame. Only the shift rounds."""
    c, s = QUARTER_TURNS[k]
    rig = Rig([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]], shift)

    def target(t):
        if t.point is not None:
            return ObjectTarget(t.id, point=rig.points(t.point))
        corners = rig.points([t.box.min, t.box.max])
        return ObjectTarget(t.id, box=Aabb(corners.min(axis=0), corners.max(axis=0)))

    objects = {name: target(t) for name, t in rec.objects.items()}
    g = rec.gaze
    gaze = GazeTrack(g.times, g.points_cam, rig.rotation @ g.rotations,
                     rig.points(g.translations))
    events = [InteractionEvent(e.kind, e.t_e, objects[e.target.id]) for e in rec.events]
    return Recording(rec.id, rec.video_id, gaze, rig.motion(rec.motion), objects, events)


@given(seed=st.integers(0, 2 ** 16), mode=st.sampled_from([DIRECT_HIT, NEAR_MISS]),
       noise=st.sampled_from([0.0, 0.02]), k=st.integers(0, 3),
       dx=st.integers(-1024, 1024), dz=st.integers(-1024, 1024))
@settings(max_examples=100, deadline=None)
def test_moving_the_world_changes_no_curated_sequence(seed, mode, noise, k, dx, dz):
    # A sequence lives in the frame of its own first pose, so a yaw and a
    # ground shift of the whole recording change nothing curation gives.
    # The shift is in eighths of a meter and keeps the ground at y = 0,
    # which the frame is measured from. Gaze noise applies in direct-hit
    # scenes only.
    rec = scene(seed, mode, noise)
    a, b = curate(rec), curate(moved(rec, k, (dx / 8, 0.0, dz / 8)))
    assert a.drops == b.drops
    assert ([(s.id, s.t_p, s.event.prime_mode, s.prime_frame_index, s.flags)
             for s in a.sequences]
            == [(s.id, s.t_p, s.event.prime_mode, s.prime_frame_index, s.flags)
                for s in b.sequences])
    for x, y in zip(a.sequences, b.sequences):
        for u, v in ((x.motion.joints, y.motion.joints), (x.motion.gaze, y.motion.gaze),
                     (x.goal_location, y.goal_location),
                     (x.initial_state.pose, y.initial_state.pose),
                     (x.initial_state.velocity, y.initial_state.velocity)):
            assert np.allclose(u, v, rtol=0.0, atol=1e-9)


def seq_with(duration_s, gap_s, seq_id="s", video_id="v", fps=10.0):
    n = int(round(duration_s * fps)) + 1
    joints = np.tile(REST, (n, 1, 1))
    joints[:, PELVIS, 2] += np.linspace(0.0, 1.0, n)
    motion = MotionSequence(fps, joints, gaze=np.tile([0.0, 0.0, 1.0], (n, 1)))
    t_e = 10.0
    event = PrimedEvent(InteractionEvent("pick", t_e, TARGET), t_e - gap_s)
    return PnRSequence(
        id=seq_id, video_id=video_id, event=event, motion=motion,
        goal_location=vec3(0, 1, 2),
        initial_state=InitialState(joints[0], np.zeros((22, 3))),
        prime_frame_index=0,
    )


class TestStats:
    def test_two_point_mean_std(self):
        s = stats([seq_with(4.0, 2.0, "a"), seq_with(6.0, 3.0, "b")])
        assert s.n_sequences == 2
        assert s.duration_mean == pytest.approx(5.0)
        assert s.duration_std == pytest.approx(np.sqrt(2.0))
        assert s.prime_gap_mean == pytest.approx(2.5)

    def test_single_sequence_degenerate(self):
        s = stats([seq_with(4.0, 2.0)])
        assert s.duration_std == 0.0
        assert s.degenerate_std

    def test_empty_raises(self):
        with pytest.raises(EmptyCorpus):
            stats([])

    def test_planted_distribution_reproduced(self):
        # durations planted around the largest curated corpus's profile
        # (5.49 +/- 2.76 s); expected values frozen via direct numpy
        rng = np.random.default_rng(0)
        planted = np.clip(rng.normal(5.49, 2.76, 40), 1.0, 12.0)
        planted = np.round(planted * 10.0) / 10.0  # frame grid at 10 fps
        seqs = [seq_with(d, 1.0, f"s{i}") for i, d in enumerate(planted)]
        s = stats(seqs)
        assert s.duration_mean == pytest.approx(float(np.mean(planted)), abs=1e-9)
        assert s.duration_std == pytest.approx(float(np.std(planted, ddof=1)), abs=1e-9)


class TestSplit:
    def make_corpus(self, n_videos=10, per_video=3):
        return [
            seq_with(4.0, 2.0, seq_id=f"v{v}-s{k}", video_id=f"v{v}")
            for v in range(n_videos)
            for k in range(per_video)
        ]

    def test_ceiling_ratio(self):
        m = split(self.make_corpus(10), ratio=0.7, seed=1)
        assert len(m.train_video_ids) == 7
        assert len(m.test_video_ids) == 3

    def test_determinism(self):
        a = split(self.make_corpus(), ratio=0.7, seed=42)
        b = split(self.make_corpus(), ratio=0.7, seed=42)
        assert a == b

    def test_seed_changes_split(self):
        a = split(self.make_corpus(), ratio=0.7, seed=1)
        b = split(self.make_corpus(), ratio=0.7, seed=2)
        assert a.train_video_ids != b.train_video_ids

    def test_no_video_straddles(self):
        m = split(self.make_corpus(), ratio=0.7, seed=3)
        train_vids = {sid.split("-")[0] for sid, side in m.assignments.items() if side == "train"}
        test_vids = {sid.split("-")[0] for sid, side in m.assignments.items() if side == "test"}
        assert not (train_vids & test_vids)

    def test_single_video_all_one_side(self):
        seqs = [seq_with(4.0, 2.0, seq_id=f"s{k}", video_id="only") for k in range(5)]
        m = split(seqs, ratio=0.7, seed=0)
        assert len(set(m.assignments.values())) == 1

    def test_manifest_in_id_order(self):
        # the manifest lists sequences by id whatever order they come in,
        # as split's file-name order need not be
        seqs = [seq_with(4.0, 2.0, seq_id=i, video_id=i) for i in ("a.b", "a", "Z", "a-b")]
        m = split(seqs, ratio=0.5, seed=0).to_dict()
        assert list(m["assignments"]) == ["Z", "a", "a-b", "a.b"]
        assert list(m) == ["seed", "ratio", "train_video_ids", "test_video_ids", "assignments"]

    def test_override_honored(self):
        m = split(self.make_corpus(), ratio=0.7, seed=3, video_overrides={"v0": "test"})
        assert "v0" in m.test_video_ids
        assert m.assignments["v0-s0"] == "test"

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            split(self.make_corpus(), ratio=1.5, seed=0)
