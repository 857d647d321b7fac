"""The procedural pose assembly as it was before the component-wise yaw
rewrite of ``pnr.synth``, kept for tests only.

``_smoothstep``, ``_pose_track`` and ``_gait_tracks`` below are verbatim
copies of the earlier implementations: yaw rotations applied with
``np.einsum`` over ``yaw_matrices``, and the gait filled one step at a
time. ``test_synth_reference.py`` swaps them into ``pnr.synth`` and
requires the library versions to give byte-equal joints.
"""

from __future__ import annotations

import numpy as np

from pnr.motion import yaw_matrices
from pnr.synth import (
    FOOT_LATERAL,
    HEAD_LEN,
    REST_LOCAL,
    ROOT_HEIGHT,
    STEP_LIFT,
    STEP_PERIOD,
)
from pnr.skeleton import HEAD, L_ANKLE, L_FOOT, N_JOINTS, NECK, R_ANKLE, R_FOOT
from pnr.skeleton import REST_POSE as REST


def _smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _pose_track(times, root_xz, headings, look_targets,
                wrist_side, wrist_goal, wrist_weights, feet):
    """Assemble (N, 22, 3) joints: the rigid rest body carried along the
    root path and yaw headings, with the head re-aimed at per-frame look
    targets, a wrist lerp onto a goal, and the foot tracks from the gait
    generator."""
    n = len(times)
    joints = np.empty((n, N_JOINTS, 3))
    rot = yaw_matrices(headings)
    roots = np.stack([root_xz[:, 0], np.full(n, ROOT_HEIGHT), root_xz[:, 1]], axis=1)
    joints[:] = np.einsum("nij,kj->nki", rot, REST_LOCAL) + roots[:, None, :]

    # head: build the head axis so the derived forward hits the look target
    across = rot[:, :, 0]  # body +x in world
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
    back = np.einsum("nij,j->ni", rot, np.array([0.0, 0.06, -0.13]))
    joints[:, L_ANKLE] = l_toe + back
    joints[:, R_ANKLE] = r_toe + back

    w = wrist_weights[:, None]
    joints[:, wrist_side] = (1.0 - w) * joints[:, wrist_side] + w * wrist_goal
    return joints


def _gait_tracks(times, root_xz, headings, walk_start, walk_end):
    """Alternating-step toe tracks (left, right), each (N, 3).

    The stance foot is pinned; the swing foot travels with smoothstep
    horizontal progress (zero speed at lift-off and touchdown) and a
    half-sine lift above the contact height, so grounded frames never
    slide.
    """
    n = len(times)
    lat = np.stack([np.cos(headings), -np.sin(headings)], axis=1) * FOOT_LATERAL
    toe_y = REST[L_FOOT, 1]
    fwd = np.stack([np.sin(headings), np.cos(headings)], axis=1) * 0.10

    tracks = {side: np.zeros((n, 3)) for side in ("l", "r")}
    plant = {
        "l": root_xz[0] + lat[0] + fwd[0],
        "r": root_xz[0] - lat[0] + fwd[0],
    }

    def set_frames(side, mask, xz, y=None):
        tracks[side][mask, 0] = xz[..., 0]
        tracks[side][mask, 2] = xz[..., 1]
        tracks[side][mask, 1] = toe_y if y is None else y

    before = times < walk_start
    for side in ("l", "r"):
        set_frames(side, before, plant[side][None, :])

    if walk_end > walk_start:
        t = walk_start
        k = 0
        while t < walk_end - 1e-9:
            t_next = min(t + STEP_PERIOD, walk_end)
            swing, stance = ("l", "r") if k % 2 == 0 else ("r", "l")
            mask = (times >= t) & (times < t_next)
            idx_land = min(np.searchsorted(times, t_next), n - 1)
            sign = 1.0 if swing == "l" else -1.0
            target = root_xz[idx_land] + sign * lat[idx_land] + fwd[idx_land]
            if mask.any():
                u = (times[mask] - t) / (t_next - t)
                s = _smoothstep(u)[:, None]
                xz = (1.0 - s) * plant[swing][None, :] + s * target[None, :]
                y = toe_y + STEP_LIFT * np.sin(np.pi * np.clip(u, 0, 1))
                set_frames(swing, mask, xz, y)
                set_frames(stance, mask, plant[stance][None, :])
            plant[swing] = target
            t = t_next
            k += 1

    after = times >= walk_end
    for side in ("l", "r"):
        set_frames(side, after, plant[side][None, :])
    return tracks["l"], tracks["r"]
