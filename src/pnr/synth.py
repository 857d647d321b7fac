"""Synthetic scenarios with analytically planted prime times, a static
mean-pose baseline, and a procedural prime-then-reach synthesizer.

The scenario generator is the verification oracle for the whole pipeline:
it emits recordings where, by construction, the gaze ray first lands on
the target at exactly the planted prime time. Before that moment the gaze
is held on a decoy direction rotated far off the target, so its ray
passes nowhere near the box; from the prime time on it is aimed at the
box center (direct-hit scenarios) or swept exactly 3 cm over the box top
(near-miss scenarios, which only the proximity rule can prime).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .curation import InitialState, Recording
from .errors import EmptyCorpus, InfeasibleSpec, UnreachableGoal
from .gaze import DIRECT_HIT, NEAR_MISS, GazeTrack, InteractionEvent, ObjectTarget
from .geometry import Aabb, as_vec3, finite_number, norm3
from .motion import (
    MAX_FRAMES,
    MotionSequence,
    heading_angles,
    yaw_apply,
    yaw_matrices,
)
from .skeleton import (
    HEAD,
    L_ANKLE,
    L_FOOT,
    L_WRIST,
    N_JOINTS,
    NECK,
    R_ANKLE,
    R_FOOT,
    R_WRIST,
    REST_POSE,
)

REST_LOCAL = REST_POSE - REST_POSE[0]
ROOT_HEIGHT = REST_POSE[0, 1]
HEAD_LEN = norm3(REST_POSE[HEAD] - REST_POSE[NECK])

STAND_DISTANCE = 0.45  # m from the goal where the walk ends
NEAR_MISS_GAP = 0.03  # m planted over-the-top clearance
DECOY_ANGLE = math.radians(40.0)
STEP_PERIOD = 0.4  # s per gait step
STEP_LIFT = 0.07  # m swing-foot apex
FOOT_LATERAL = 0.09  # m stance width from the root line
TURN_TIME = 0.5  # s to rotate onto the walk heading
SETTLE_TIME = 0.4  # s between arriving and the interaction
REACH_TIME = 0.5  # s of wrist travel before the interaction
ROOM_MARGIN = 0.4  # m kept between a random box center and the room walls
MAX_WALK_SPEED = 3.0  # m/s the procedural synthesizer may walk
MAX_OBJECTS = 1_000  # objects per scenario
MAX_RECORDINGS = 100_000  # recordings per corpus


@dataclass(frozen=True)
class ScenarioSpec:
    seed: int = 0
    duration: float = 8.0
    fps: float = 30.0
    n_objects: int = 3
    room: Aabb = field(default_factory=lambda: Aabb((-4.0, 0.0, -4.0), (4.0, 2.5, 4.0)))
    planted_prime_offset: float = 3.0  # t_e - t_p
    planted_event_kind: str = "pick"
    gaze_noise_std: float = 0.0  # radians
    walk_speed: float = 1.0  # m/s
    prime_mode: str = DIRECT_HIT
    min_goal_distance: float = 1.5
    max_goal_distance: float = 3.5

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if f.type == "float" and not finite_number(v):
                raise ValueError(f"{f.name} must be a finite number, got {v!r}")
        if self.fps <= 0:
            raise ValueError("fps must be positive")
        if self.planted_prime_offset < 0 or self.gaze_noise_std < 0 or self.walk_speed < 0:
            raise ValueError("planted_prime_offset, gaze_noise_std and walk_speed must be >= 0")
        if not 0 <= self.min_goal_distance <= self.max_goal_distance:
            raise ValueError("goal distances must satisfy 0 <= min_goal_distance "
                             "<= max_goal_distance")
        if self.duration <= self.planted_prime_offset + 2.0:
            raise ValueError("duration must exceed planted_prime_offset + 2 s")
        # generate_scenario's frame count; min() keeps an overflow finite
        if round(min(self.duration * self.fps, MAX_FRAMES)) + 1 > MAX_FRAMES:
            raise ValueError(f"duration * fps gives more than {MAX_FRAMES} frames")
        if type(self.n_objects) is not int or not 0 <= self.n_objects <= MAX_OBJECTS:
            raise ValueError(f"n_objects must be an integer in [0, {MAX_OBJECTS}], "
                             f"got {self.n_objects!r}")
        with np.errstate(over="ignore"):  # _random_box's center range
            span = (self.room.max - ROOM_MARGIN) - (self.room.min + ROOM_MARGIN)
        if not np.all(np.isfinite(span) & (span >= 0.0)):  # as rng.uniform requires
            raise ValueError(f"room must be at least {2 * ROOM_MARGIN} m and finitely "
                             "wide on every axis")
        if self.planted_event_kind not in ("pick", "put"):
            raise ValueError("planted_event_kind must be pick or put")
        if self.prime_mode not in (DIRECT_HIT, NEAR_MISS):
            raise ValueError("prime_mode must be direct_hit or near_miss")


@dataclass(frozen=True)
class PlantedEvent:
    t_p: float
    t_e: float
    kind: str
    object_id: str
    goal: np.ndarray
    prime_mode: str


@dataclass(frozen=True)
class GroundTruthLabels:
    recording_id: str
    events: list


def _clip01(u):
    """np.clip(u, 0, 1) without its call overhead."""
    return np.minimum(np.maximum(u, 0.0), 1.0)


def _smoothstep(u):
    u = _clip01(u)
    return u * u * (3.0 - 2.0 * u)


def _shortest_turn(a, b):
    """Signed angle from heading a to heading b along the short way."""
    return (b - a + math.pi) % (2.0 * math.pi) - math.pi


def _pose_track(times, root_xz, headings, look_targets,
                wrist_side, wrist_goal, wrist_weights, feet):
    """Assemble (N, 22, 3) joints: the rigid rest body carried along the
    root path and yaw headings, with the head re-aimed at per-frame look
    targets, a wrist lerp onto a goal, and the foot tracks from the gait
    generator."""
    n = len(times)
    joints = np.empty((n, N_JOINTS, 3))
    roots = np.stack([root_xz[:, 0], np.full(n, ROOT_HEIGHT), root_xz[:, 1]], axis=1)
    joints[:] = yaw_apply(headings[:, None], REST_LOCAL) + roots[:, None, :]

    # head: build the head axis so the derived forward hits the look target
    # body +x in world: the first column of the heading's yaw matrix
    across = np.stack([np.cos(headings), np.zeros(n), -np.sin(headings)], axis=1)
    neck = joints[:, NECK]
    f_raw = look_targets - neck
    f_perp = f_raw - np.sum(f_raw * across, axis=1, keepdims=True) * across
    norms = np.linalg.norm(f_perp, axis=1)
    ok = norms > 1e-6
    f_perp[ok] /= norms[ok, None]
    up_h = np.cross(f_perp, across)
    joints[ok, HEAD] = neck[ok] + HEAD_LEN * up_h[ok]

    l_toe, r_toe = feet
    joints[:, L_FOOT] = l_toe
    joints[:, R_FOOT] = r_toe
    back = yaw_apply(headings, np.array([0.0, 0.06, -0.13]))
    joints[:, L_ANKLE] = l_toe + back
    joints[:, R_ANKLE] = r_toe + back

    w = wrist_weights[:, None]
    joints[:, wrist_side] = (1.0 - w) * joints[:, wrist_side] + w * wrist_goal
    return joints


def _nearer_wrist(stand_xz, heading, goal):
    """The wrist of the rest body, standing at stand_xz and facing heading,
    that is nearer to the goal; the left one on a tie."""
    root = np.array([stand_xz[0], ROOT_HEIGHT, stand_xz[1]])
    l_w, r_w = yaw_apply(heading, REST_LOCAL[[L_WRIST, R_WRIST]]) + root
    return L_WRIST if norm3(l_w - goal) <= norm3(r_w - goal) else R_WRIST


def _gait_tracks(times, root_xz, headings, walk_start, walk_end):
    """Alternating-step toe tracks (left, right), each (N, 3).

    The stance foot is pinned; the swing foot travels with smoothstep
    horizontal progress (zero speed at lift-off and touchdown) and a
    half-sine lift above the contact height, so grounded frames never
    slide. Steps start with the left foot, and a frame at time t belongs
    to the step k with start_k <= t < end_k. The last step may end up to
    1e-9 s before walk_end; a frame in that gap stays all zero.
    """
    n = len(times)
    lat = np.stack([np.cos(headings), -np.sin(headings)], axis=1) * FOOT_LATERAL
    toe_y = REST_POSE[L_FOOT, 1]
    fwd = np.stack([np.sin(headings), np.cos(headings)], axis=1) * 0.10

    # the step table; plants[j] is where a foot stands: the first two are
    # the left and right feet before the walk, plants[k + 2] the landing of
    # step k, so step k swings a foot from plants[k] while the other stands
    # on plants[k + 1]
    starts, ends = [], []
    if walk_end > walk_start:
        t = walk_start
        while t < walk_end - 1e-9:
            starts.append(t)
            t = min(t + STEP_PERIOD, walk_end)
            ends.append(t)
    starts, ends = np.array(starts), np.array(ends)
    land = np.minimum(np.searchsorted(times, ends), n - 1)
    sign = np.where(np.arange(len(starts)) % 2 == 0, 1.0, -1.0)[:, None]
    plants = np.concatenate([
        [root_xz[0] + lat[0] + fwd[0], root_xz[0] - lat[0] + fwd[0]],
        root_xz[land] + sign * lat[land] + fwd[land],
    ])

    # before the walk each foot stands on its first plant, after it on its
    # last one
    tracks = np.zeros((2, n, 3))
    before, after = times < walk_start, times >= walk_end
    for side in (0, 1):
        last = len(starts) + (len(starts) + side) % 2
        tracks[side, before] = plants[side, 0], toe_y, plants[side, 1]
        tracks[side, after] = plants[last, 0], toe_y, plants[last, 1]

    if len(starts):
        k = np.searchsorted(starts, times, side="right") - 1
        rows = np.flatnonzero((k >= 0) & (times < ends[k]))
        k = k[rows]
        swing = k % 2
        u = (times[rows] - starts[k]) / (ends[k] - starts[k])
        s = _smoothstep(u)[:, None]
        xz = (1.0 - s) * plants[k] + s * plants[k + 2]
        tracks[swing, rows, 0] = xz[:, 0]
        tracks[swing, rows, 2] = xz[:, 1]
        tracks[swing, rows, 1] = toe_y + STEP_LIFT * np.sin(np.pi * _clip01(u))
        tracks[1 - swing, rows] = np.stack(
            [plants[k + 1, 0], np.full(len(k), toe_y), plants[k + 1, 1]], axis=1)
    return tracks[0], tracks[1]


def _root_profile(times, start_xz, stand_xz, walk_start, arrive):
    """Ease-in/ease-out straight-line root path between the two marks."""
    if arrive <= walk_start:
        u = np.where(times >= arrive, 1.0, 0.0)
    else:
        u = _smoothstep((times - walk_start) / (arrive - walk_start))
    return start_xz[None, :] + u[:, None] * (stand_xz - start_xz)[None, :]


def _heading_profile(times, psi0, psi1, turn_start, turn_end):
    dpsi = _shortest_turn(psi0, psi1)
    if turn_end <= turn_start:
        u = np.where(times >= turn_end, 1.0, 0.0)
    else:
        u = _smoothstep((times - turn_start) / (turn_end - turn_start))
    return psi0 + u * dpsi


def _random_box(rng, room):
    half = rng.uniform(0.04, 0.12, size=3)
    center = rng.uniform(room.min + ROOM_MARGIN, room.max - ROOM_MARGIN)
    center[1] = rng.uniform(0.4, 1.4)
    return Aabb(center - half, center + half)


def generate_scenario(spec: ScenarioSpec) -> tuple[Recording, GroundTruthLabels]:
    """One recording with a single planted pick/put interaction.

    Guarantees, by construction: no gaze sample before the planted t_p
    primes the target (the decoy ray passes at least ~0.8 m from it);
    every sample in [t_p, t_e] primes it in the planted mode; the walk
    reaches a standing point by t_e - SETTLE_TIME and a wrist touches the
    goal at t_e. All times are on the frame grid, so prime-time recovery
    is exact."""
    rng = np.random.default_rng(spec.seed)
    fps = spec.fps
    n_frames = int(round(spec.duration * fps)) + 1
    times = np.arange(n_frames) / fps

    e_lo = math.ceil((spec.planted_prime_offset + 2.0) * fps)
    e_hi = n_frames - 2
    if e_hi < e_lo:
        raise InfeasibleSpec("duration leaves no room for the planted event")
    e_idx = int(rng.integers(e_lo, e_hi + 1))
    p_idx = e_idx - int(round(spec.planted_prime_offset * fps))
    t_e, t_p = times[e_idx], times[p_idx]

    walk_time = (t_e - SETTLE_TIME) - t_p
    d_max_feasible = STAND_DISTANCE + spec.walk_speed * max(walk_time, 0.0)
    d_lo = spec.min_goal_distance
    d_hi = min(spec.max_goal_distance, d_max_feasible)
    if d_hi < d_lo:
        raise InfeasibleSpec(
            f"walk speed {spec.walk_speed} m/s cannot cover "
            f"{d_lo:.2f} m within {walk_time:.2f} s"
        )

    cam_height = REST_POSE[HEAD, 1]
    room = spec.room
    for _ in range(200):
        box = _random_box(rng, room)
        if spec.prime_mode == NEAR_MISS:
            # pin the box so a horizontal ray at camera height clears the
            # top face by exactly NEAR_MISS_GAP
            half = box.half_extents
            cy = cam_height - half[1] - NEAR_MISS_GAP
            if cy - half[1] < 0.0:
                continue
            center = box.center
            center[1] = cy
            box = Aabb.from_center(center, half)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        dist = rng.uniform(d_lo, d_hi)
        goal_xz = np.array([box.center[0], box.center[2]])
        start_xz = goal_xz - dist * np.array([math.sin(theta), math.cos(theta)])
        inside = (
            room.min[0] + 0.3 <= start_xz[0] <= room.max[0] - 0.3
            and room.min[2] + 0.3 <= start_xz[1] <= room.max[2] - 0.3
        )
        if inside:
            break
    else:
        raise InfeasibleSpec("could not place start and target inside the room")

    target = ObjectTarget("target", box=box)
    objects = {"target": target}
    for i in range(max(spec.n_objects - 1, 0)):
        objects[f"distractor{i:02d}"] = ObjectTarget(
            f"distractor{i:02d}", box=_random_box(rng, room)
        )

    stand_xz = goal_xz - STAND_DISTANCE * np.array([math.sin(theta), math.cos(theta)])
    psi_start = rng.uniform(0.0, 2.0 * math.pi)
    headings = _heading_profile(times, psi_start, theta, t_p - TURN_TIME, t_p)
    root_xz = _root_profile(times, start_xz, stand_xz, t_p, t_e - SETTLE_TIME)
    feet = _gait_tracks(times, root_xz, headings, t_p, t_e - SETTLE_TIME)

    goal = box.center.copy()
    if spec.prime_mode == NEAR_MISS:
        aim_point = box.center + np.array([0.0, box.half_extents[1] + NEAR_MISS_GAP, 0.0])
    else:
        aim_point = box.center

    # look targets: decoy before the prime, the aim point from it on
    decoy_yaw = DECOY_ANGLE * (1.0 if rng.random() < 0.5 else -1.0)
    look = np.tile(aim_point, (n_frames, 1))
    pre = times < t_p
    u0 = aim_point - np.array([start_xz[0], cam_height, start_xz[1]])
    decoy_dir = yaw_apply(decoy_yaw, u0 / norm3(u0))
    look[pre] = np.array([start_xz[0], cam_height, start_xz[1]]) + 5.0 * decoy_dir

    wrist_side = _nearer_wrist(stand_xz, theta, goal)
    w = _smoothstep((times - (t_e - REACH_TIME)) / REACH_TIME)

    joints = _pose_track(times, root_xz, headings, look,
                         wrist_side=wrist_side, wrist_goal=goal,
                         wrist_weights=w, feet=feet)

    # gaze stream on the same grid; camera rides the head (at a fixed
    # height in near-miss mode so the over-the-top clearance is exact)
    cam_pos = joints[:, HEAD].copy()
    if spec.prime_mode == NEAR_MISS:
        cam_pos[:, 1] = cam_height
    dirs = aim_point[None, :] - cam_pos
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    pre_dirs = np.tile(decoy_dir, (pre.sum(), 1))
    dirs[pre] = pre_dirs
    if spec.gaze_noise_std > 0.0 and spec.prime_mode == DIRECT_HIT:
        dirs = _perturb_gaze(rng, dirs, cam_pos, box, pre, spec.gaze_noise_std)

    rotations = yaw_matrices(headings)
    points_cam = np.einsum("nji,nj->ni", rotations, dirs)  # R^T @ dir
    track = GazeTrack(times, points_cam, rotations, cam_pos)

    rec_id = f"synth-{spec.seed:08d}"
    event = InteractionEvent(spec.planted_event_kind, float(t_e), target)
    recording = Recording(
        id=rec_id,
        video_id=f"video-{spec.seed % 97:04d}",
        gaze=track,
        motion=MotionSequence(fps, joints),
        objects=objects,
        events=[event],
    )
    labels = GroundTruthLabels(
        rec_id,
        [PlantedEvent(float(t_p), float(t_e), spec.planted_event_kind,
                      "target", goal, spec.prime_mode)],
    )
    return recording, labels


def _perturb_gaze(rng, dirs, cam_pos, box, pre_mask, std):
    """Small random rotations of the post-prime gaze, clipped inside the
    box's inscribed-sphere cone so a planted hit stays a hit. Pre-prime
    decoy samples get at most 5 degrees, preserving the decoy clearance."""
    out = dirs.copy()
    min_half = float(box.half_extents.min())
    center = box.center
    for i in range(len(dirs)):
        if pre_mask[i]:
            limit = math.radians(5.0)
        else:
            dist = norm3(center - cam_pos[i])
            limit = 0.8 * math.asin(min(min_half / max(dist, min_half), 1.0))
        angle = float(np.clip(rng.normal(0.0, std), -limit, limit))
        axis = np.cross(out[i], rng.normal(size=3))
        norm = norm3(axis)
        if norm < 1e-9:
            continue
        axis /= norm
        out[i] = (
            out[i] * math.cos(angle)
            + np.cross(axis, out[i]) * math.sin(angle)
        )
        out[i] /= norm3(out[i])
    return out


def generate_corpus(base: ScenarioSpec, n_recordings: int, seed: int = 0,
                    mixed_modes: bool = False) -> list:
    """n independent scenarios with per-recording seeds derived from one
    corpus seed. Returns [(Recording, GroundTruthLabels), ...]."""
    child_seeds = np.random.SeedSequence(seed).generate_state(n_recordings)
    out = []
    for i in range(n_recordings):
        spec = replace(base, seed=int(child_seeds[i]))
        if mixed_modes and i % 4 == 3:
            spec = replace(spec, prime_mode=NEAR_MISS)
        out.append(generate_scenario(spec))
    return out


def static_baseline(train, n: int, fps: float = 30.0) -> MotionSequence:
    """Average full-body pose over every frame of the training sequences,
    replicated for n frames; ``train`` is read once, as a running sum."""
    total = np.zeros((N_JOINTS, 3))
    count = 0
    for seq in train:
        total += seq.motion.joints.sum(axis=0)
        count += seq.motion.n_frames
    if not count:
        raise EmptyCorpus("static baseline needs a non-empty train set")
    mean_pose = total / count
    return MotionSequence(fps, np.tile(mean_pose, (n, 1, 1)))


def procedural_pnr(initial: InitialState, goal, event_kind: str, n: int,
                   fps: float) -> MotionSequence:
    """Deterministic kinematic stand-in for a learned generator.

    Turns the head onto the goal direction within the first fifth of the
    frames, eases the root to a standing point near the goal, walks with
    the alternating gait, and brings the nearer wrist onto the goal over
    the final 15% of frames."""
    goal = as_vec3(goal)
    if n < 2:
        raise ValueError("n must be >= 2")
    pose = initial.pose
    times = np.arange(n) / fps
    total = times[-1]

    psi0 = float(heading_angles(pose[None])[0])
    start_xz = np.array([pose[0, 0], pose[0, 2]])
    goal_xz = np.array([goal[0], goal[2]])
    to_goal = goal_xz - start_xz
    dist = norm3(to_goal)
    if dist > STAND_DISTANCE:
        walk_dir = to_goal / dist
        stand_xz = goal_xz - STAND_DISTANCE * walk_dir
        theta = math.atan2(walk_dir[0], walk_dir[1])
    else:
        stand_xz = start_xz
        theta = math.atan2(to_goal[0], to_goal[1]) if dist > 1e-9 else psi0

    walk_start, arrive = 0.15 * total, 0.85 * total
    walk_dist = norm3(stand_xz - start_xz)
    if walk_dist > 1e-9:
        needed = walk_dist / max(arrive - walk_start, 1e-9)
        if needed > MAX_WALK_SPEED:
            raise UnreachableGoal(
                f"goal needs {needed:.2f} m/s, above the {MAX_WALK_SPEED} m/s limit"
            )

    headings = _heading_profile(times, psi0, theta, 0.0, 0.2 * total)
    root_xz = _root_profile(times, start_xz, stand_xz, walk_start, arrive)
    feet = _gait_tracks(times, root_xz, headings, walk_start, arrive)
    look = np.tile(goal, (n, 1))

    wrist_side = _nearer_wrist(stand_xz, theta, goal)
    w = _smoothstep((times - 0.85 * total) / max(0.15 * total, 1e-9))

    joints = _pose_track(times, root_xz, headings, look,
                         wrist_side=wrist_side, wrist_goal=goal,
                         wrist_weights=w, feet=feet)
    return MotionSequence(fps, joints)
