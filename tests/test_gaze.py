import math

import numpy as np
import pytest

from pnr import gaze, synth
from pnr.curation import Recording, curate
from pnr.errors import DegenerateGaze, EmptyWindow
from pnr.gaze import (
    DEFAULT_TAU,
    DIRECT_HIT,
    NEAR_MISS,
    GazeTrack,
    InteractionEvent,
    ObjectTarget,
    find_prime_time,
)
from pnr.geometry import Aabb, prime_batch

from builders import Rig, glide_motion, vec3
from oracles import focused_hit_batch, near_miss_oracle


def gaze_ray(point, rotation=np.eye(3), translation=(0, 0, 0)):
    """World ray (origin, direction) of one sample: world_rays of a one-row
    GazeTrack."""
    track = GazeTrack(np.zeros(1), np.array([point], dtype=np.float64),
                      np.array([rotation], dtype=np.float64),
                      np.array([translation], dtype=np.float64))
    origins, dirs = track.world_rays()
    return origins[0], dirs[0]


class TestGazeRay:
    def test_identity_pose(self):
        origin, direction = gaze_ray((0, 0, 1))
        assert np.allclose(origin, 0.0)
        assert np.allclose(direction, [0, 0, 1])

    def test_translation_cancels(self):
        origin, direction = gaze_ray((0, 0, 2), translation=(1, 1, 1))
        assert np.allclose(origin, [1, 1, 1])
        assert np.allclose(direction, [0, 0, 1])

    def test_rotated_frame(self):
        rotation = Rig.about(vec3(0, 1, 0), math.pi / 2).rotation
        _, direction = gaze_ray((0, 0, 1), rotation)
        assert np.allclose(direction, [1, 0, 0], atol=1e-12)

    def test_degenerate_sample_raises(self):
        with pytest.raises(DegenerateGaze):
            gaze_ray((0, 0, 0))

    def test_first_degenerate_sample_named(self):
        # both samples are shorter than 1e-9: the first is named, not the
        # shorter
        track = GazeTrack(np.arange(3.0), np.array([[0, 0, 1], [1e-10, 0, 0], [0, 0, 0]]),
                          np.tile(np.eye(3), (3, 1, 1)), np.zeros((3, 3)))
        with pytest.raises(DegenerateGaze) as err:
            track.world_rays()
        assert err.value.index == 1

    def test_scale_invariance_of_direction(self):
        assert np.allclose(gaze_ray((0, 0, 0.5))[1], gaze_ray((0, 0, 7.0))[1])

    def test_sample_checked_as_a_file_row(self):
        # shapes and finite values, as for a recording's gaze row; a
        # camera rotation that is not orthonormal is read as given
        skew = np.diag([2.0, 1.0, 1.0])
        _, direction = gaze_ray((1, 0, 1), skew)
        assert np.allclose(direction, np.array([2.0, 0.0, 1.0]) / math.sqrt(5.0))
        good = dict(times=[0.0], points_cam=[[0, 0, 1]], rotations=[np.eye(3)],
                    translations=[[0, 0, 0]])
        for bad in ({"rotations": [np.eye(2)]}, {"translations": [[0, 0]]},
                    {"points_cam": [[0, 0, 1, 0]]}, {"rotations": [np.full((3, 3), np.nan)]},
                    {"translations": [[0, math.inf, 0]]}, {"times": [math.nan]}):
            with pytest.raises(ValueError):
                GazeTrack(**(good | bad))


class TestTargetPrimed:
    """Prime mode of a single gaze ray: find_prime_time on a one-sample
    track looking along +x from height offset_y."""

    BOX = ObjectTarget("box", box=Aabb(vec3(2, -0.5, -0.5), vec3(3, 0.5, 0.5)))
    POINT = ObjectTarget("pt", point=vec3(5, 0, 0))

    def mode(self, offset_y, target, tau=0.05):
        track = GazeTrack(np.zeros(1), np.array([[1.0, 0.0, 0.0]]), np.eye(3)[None],
                          np.array([[0.0, offset_y, 0.0]]))
        primed = find_prime_time(track, InteractionEvent("pick", 0.0, target), tau=tau)
        return None if primed is None else primed.prime_mode

    def test_center_ray_direct_hit(self):
        assert self.mode(0.0, self.BOX) == DIRECT_HIT

    def test_point_target_within_tau(self):
        # derived: perpendicular distance from the ray to the point is the
        # ray's y offset, so 3 cm vs tau=5 cm primes
        assert self.mode(0.03, self.POINT, tau=0.05) == NEAR_MISS

    def test_point_target_beyond_tau(self):
        assert self.mode(0.08, self.POINT, tau=0.05) is None

    def test_point_target_never_direct(self):
        assert self.mode(0.0, self.POINT, tau=0.05) == NEAR_MISS


def straight_track(times, direction=(0, 0, 1)):
    n = len(times)
    return GazeTrack(
        np.asarray(times, dtype=float),
        np.tile(np.asarray(direction, dtype=float), (n, 1)),
        np.tile(np.eye(3), (n, 1, 1)),
        np.zeros((n, 3)),
    )


def sweeping_track(times, on_from, target_dir, off_dir=(0, 0, -1)):
    """Gaze that flips from off_dir onto target_dir at time on_from."""
    pts = np.array([target_dir if t >= on_from else off_dir for t in times], dtype=float)
    n = len(times)
    return GazeTrack(
        np.asarray(times, dtype=float),
        pts,
        np.tile(np.eye(3), (n, 1, 1)),
        np.zeros((n, 3)),
    )


class TestFindPrimeTime:
    TARGET = ObjectTarget("t", box=Aabb.from_center(vec3(0, 0, 5), vec3(0.2, 0.2, 0.2)))

    def event(self, t_e=10.0):
        return InteractionEvent("pick", t_e, self.TARGET)

    def test_first_intersection_wins(self):
        times = np.arange(0.0, 10.5, 0.5)
        track = sweeping_track(times, on_from=7.0, target_dir=(0, 0, 1))
        primed = find_prime_time(track, self.event(), w=10.0)
        assert primed is not None
        assert primed.t_p == 7.0
        assert primed.prime_mode == DIRECT_HIT

    def test_no_intersection_returns_none(self):
        times = np.arange(0.0, 10.5, 0.5)
        track = straight_track(times, direction=(0, 0, -1))
        assert find_prime_time(track, self.event(), w=10.0) is None

    def test_intersection_after_event_does_not_count(self):
        times = np.arange(0.0, 14.0, 0.5)
        track = sweeping_track(times, on_from=12.0, target_dir=(0, 0, 1))
        assert find_prime_time(track, self.event(t_e=10.0), w=10.0) is None

    def test_window_start_boundary_inclusive(self):
        times = np.arange(0.0, 10.5, 0.5)
        track = sweeping_track(times, on_from=0.0, target_dir=(0, 0, 1))
        primed = find_prime_time(track, self.event(t_e=10.0), w=10.0)
        assert primed.t_p == 0.0

    def test_empty_window_raises(self):
        track = straight_track([20.0, 21.0])
        with pytest.raises(EmptyWindow):
            find_prime_time(track, self.event(t_e=10.0), w=5.0)

    @pytest.mark.parametrize("tau", [-0.01, math.nan])
    def test_bad_tau_raises_even_when_every_ray_hits(self, tau):
        track = straight_track(np.arange(0.0, 10.5, 0.5), direction=(0, 0, 1))
        with pytest.raises(ValueError, match="tau"):
            find_prime_time(track, self.event(), tau=tau)

    def test_prime_time_is_minimal(self):
        # exhaustive re-scan with the oracles: the sample at t_p primes and
        # no earlier one in the window does. The tracks have identity
        # camera rotations at the origin, so each ray is the normalized
        # gaze point from the origin.
        rng = np.random.default_rng(0)
        box = self.TARGET.as_box()
        for _ in range(25):
            on_from = float(rng.integers(2, 18)) * 0.5
            times = np.arange(0.0, 10.5, 0.5)
            track = sweeping_track(times, on_from=on_from, target_dir=(0, 0, 1))
            ev = self.event()
            primed = find_prime_time(track, ev, w=10.0)
            if primed is None:
                assert on_from > 10.0
                continue
            n = len(track)
            dirs = track.points_cam / np.linalg.norm(track.points_cam, axis=1, keepdims=True)
            bmins, bmaxs = np.tile(box.min, (n, 1)), np.tile(box.max, (n, 1))
            hit = focused_hit_batch(track.translations, dirs, bmins, bmaxs)
            near, _, _ = near_miss_oracle(track.translations, dirs, bmins, bmaxs, 0.05)
            in_window = track.times >= ev.t_e - 10.0
            assert not np.any((hit | near) & in_window & (track.times < primed.t_p))
            assert (hit | near)[track.times == primed.t_p].all()

    def test_shrinking_window_never_earlier(self):
        times = np.arange(0.0, 10.5, 0.5)
        track = sweeping_track(times, on_from=4.0, target_dir=(0, 0, 1))
        full = find_prime_time(track, self.event(), w=10.0)
        for w in (8.0, 6.0, 4.0, 2.0):
            smaller = find_prime_time(track, self.event(), w=w)
            if smaller is not None:
                assert smaller.t_p >= full.t_p

    def test_scene_rigid_transform_preserves_prime_time(self):
        # rotate the whole scene 90 degrees about y: axis-aligned, so the
        # box maps to another box
        times = np.arange(0.0, 10.5, 0.5)
        track = sweeping_track(times, on_from=6.0, target_dir=(0, 0, 1))
        rig = Rig.about(vec3(0, 1, 0), math.pi / 2, vec3(1, 2, 3))
        rot_track = GazeTrack(
            track.times,
            track.points_cam,
            np.einsum("ij,njk->nik", rig.rotation, track.rotations),
            rig.points(track.translations),
        )
        box = self.TARGET.as_box()
        corners = rig.points([box.min, box.max])
        rot_target = ObjectTarget("t", box=Aabb(corners.min(axis=0), corners.max(axis=0)))
        a = find_prime_time(track, self.event(), w=10.0)
        b = find_prime_time(rot_track, InteractionEvent("pick", 10.0, rot_target), w=10.0)
        assert a.t_p == b.t_p


class TestPrimeEvents:
    """Priming over all of a recording's events, as curate applies
    find_prime_time to each: unprimed events become drops."""

    GOOD = ObjectTarget("g", box=Aabb.from_center(vec3(0, 0, 5), vec3(0.2, 0.2, 0.2)))
    BAD = ObjectTarget("b", box=Aabb.from_center(vec3(5, 0, 0), vec3(0.2, 0.2, 0.2)))

    def recording(self, track, events, duration=20.0):
        motion = glide_motion(speed=0.3, n=int(round(duration * 30.0)) + 1)
        return Recording("rec", "vid", track, motion, events=events)

    def test_filters_and_preserves_order(self):
        times = np.arange(0.0, 20.0, 0.5)
        track = sweeping_track(times, on_from=5.0, target_dir=(0, 0, 1))
        events = [
            InteractionEvent("pick", 8.0, self.GOOD),
            InteractionEvent("put", 9.0, self.BAD),
            InteractionEvent("pick", 12.0, self.GOOD),
        ]
        res = curate(self.recording(track, events))
        assert [s.t_e for s in res.sequences] == [8.0, 12.0]
        assert [(d.event_index, d.reason) for d in res.drops] == [(1, "unprimed")]

    def test_empty_events(self):
        res = curate(self.recording(straight_track([0.0, 1.0]), []))
        assert res.sequences == [] and res.drops == []

    def test_empty_window_skips_with_warning(self, caplog):
        track = straight_track([0.0, 1.0])
        events = [InteractionEvent("pick", 50.0, self.GOOD)]
        with caplog.at_level("WARNING", logger="pnr.curation"):
            res = curate(self.recording(track, events, duration=50.0), w=5.0)
        assert res.sequences == []
        assert [d.reason for d in res.drops] == ["unprimed"]
        assert any("no gaze samples" in r.getMessage() for r in caplog.records)

    def test_boundary_priming_at_window_start(self):
        # all events primeable exactly at t_e - w
        times = np.arange(0.0, 30.0, 0.5)
        track = sweeping_track(times, on_from=0.0, target_dir=(0, 0, 1))
        events = [InteractionEvent("pick", te, self.GOOD) for te in (6.0, 8.0, 10.0)]
        res = curate(self.recording(track, events), w=4.0)
        assert [s.t_p for s in res.sequences] == [2.0, 4.0, 6.0]


def test_block_cull_skips_most_blocks_on_a_dense_recording():
    # curate_dense's shape: 60 s at 60 fps with 6 objects. Few 32-sample
    # blocks can hold a ray that primes a given object, so find_prime_time
    # runs prime_batch on few of them; at most 10% of (block, object)
    # pairs are kept
    spec = synth.ScenarioSpec(duration=60.0, fps=60.0, n_objects=6)
    kept = total = 0
    for rec, _ in synth.generate_corpus(spec, 8, seed=1000, mixed_modes=True):
        n_blocks = -(-len(rec.gaze) // 32)
        for target in rec.objects.values():
            kept += len(rec.gaze.blocks_near(target.as_box(), DEFAULT_TAU))
            total += n_blocks
    assert total == 8 * 6 * 113
    assert kept <= 0.10 * total


def random_track(rng, box, tau):
    """A gaze track of a few hundred samples at 60 Hz from a wandering
    head: stretches that look steadily away from ``box`` (blocks the cull
    skips) alternate with stretches of random directions (blocks it keeps,
    which rarely prime), and a few samples aim at the box center (a hit)
    or half of tau beside its +x face (a near miss)."""
    n = int(rng.integers(200, 700))
    origins = np.array([0.0, 1.6, 0.0]) + np.cumsum(rng.normal(0.0, 0.005, (n, 3)), axis=0)
    dirs = np.empty((n, 3))
    i = 0
    while i < n:
        length = int(rng.integers(10, 90))
        if rng.random() < 0.5:
            dirs[i:i + length] = [0.0, 0.0, -1.0] + rng.normal(0.0, 0.02, 3)
        else:
            dirs[i:i + length] = rng.normal(size=(len(dirs[i:i + length]), 3))
        i += length
    beside = box.center + [0.5 * (box.max - box.min)[0] + 0.5 * tau, 0.0, 0.0]
    for k in rng.integers(0, n, int(rng.integers(0, 4))):
        dirs[k] = (box.center if rng.random() < 0.5 else beside) - origins[k]
    return GazeTrack(np.arange(n) / 60.0, dirs, np.tile(np.eye(3), (n, 1, 1)), origins)


def test_prime_time_matches_prime_batch_over_the_whole_window():
    # oracle: prime_batch on every ray of the window, no block skipped and
    # no early stop; the scan must give the same sample and mode
    rng = np.random.default_rng(29)
    tau = DEFAULT_TAU
    box = Aabb.from_center(vec3(0.0, 1.0, 4.0), vec3(0.3, 0.3, 0.3))
    target = ObjectTarget("t", box=box)
    seen = set()
    for _ in range(300):
        track = random_track(rng, box, tau)
        n = len(track)
        t_e = float(track.times[int(rng.integers(n // 2, n))]) + float(rng.uniform(0, 1 / 60))
        w = float(rng.uniform(0.5, t_e + 0.1))
        primed = find_prime_time(track, InteractionEvent("pick", t_e, target), w=w, tau=tau)

        i0 = int(np.searchsorted(track.times, t_e - w, side="left"))
        i1 = int(np.searchsorted(track.times, t_e, side="right"))
        origins, dirs = track.world_rays()
        hit, near = prime_batch(origins[i0:i1], dirs[i0:i1], box.min, box.max, tau)
        where = np.flatnonzero(hit | near)
        if where.size == 0:
            assert primed is None
            seen.add("no prime")
            continue
        first = i0 + int(where[0])
        assert primed.t_p == track.times[first]
        assert primed.prime_mode == (DIRECT_HIT if hit[where[0]] else NEAR_MISS)

        kept = [b for b in track.blocks_near(box, tau) if i0 // 32 <= b <= (i1 - 1) // 32]
        rank = kept.index(first // 32)  # the prime's block among the window's kept ones
        if rank == 0:
            seen.add("first kept block")
        if rank >= 3:  # past the runs of 1 and 2 blocks
            seen.add("later run")
        hits = i0 + np.flatnonzero(hit)
        if not hit[where[0]] and hits.size and hits[0] // 32 > first // 32:
            seen.add("near miss before a hit")
        if i0 % 32 and i1 % 32:
            seen.add("edges off the blocks")
    assert {"no prime", "first kept block", "later run", "near miss before a hit",
            "edges off the blocks"} <= seen


def test_scan_stops_at_the_first_kept_block_that_primes(monkeypatch):
    # every sample looks at the target: the window's first kept block
    # primes, so prime_batch runs once, on that block's rays alone
    calls = []

    def spy(origins, dirs, *args):
        calls.append(len(origins))
        return prime_batch(origins, dirs, *args)

    monkeypatch.setattr(gaze, "prime_batch", spy)
    times = np.arange(0.0, 20.0, 1 / 60)
    track = straight_track(times)
    target = ObjectTarget("t", box=Aabb.from_center(vec3(0, 0, 5), vec3(0.2, 0.2, 0.2)))
    primed = find_prime_time(track, InteractionEvent("pick", 15.0, target), w=10.0)
    assert primed.t_p == times[np.searchsorted(times, 5.0)]
    assert len(calls) == 1 and calls[0] <= 32
