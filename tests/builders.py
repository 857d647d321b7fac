"""Shared constructors for synthetic test motions, a rigid motion of the
scene, and the rotation rows the encoding stores for observed bone
directions; and a runner of one ``pnr`` command in a child process that
reports the child's peak RSS."""

import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

import pnr
from pnr.features import _FLIP_ROWS, _arc_entries
from pnr.metrics import EvalPair
from pnr.motion import MotionSequence, canonicalize, yaw_matrices
from pnr.skeleton import N_JOINTS, REST_DIRS, REST_POSE

REST = REST_POSE
REST_LOCAL = REST - REST[0]


class Rig:
    """A rigid motion x -> rotation @ x + shift of a test scene, applied
    with numpy ``@``: the library has no general rigid transform, since
    curation maps each sequence by a yaw and a shift alone."""

    def __init__(self, rotation, shift=(0.0, 0.0, 0.0)):
        self.rotation = np.asarray(rotation, dtype=np.float64)
        self.shift = np.asarray(shift, dtype=np.float64)

    @staticmethod
    def about(axis, angle, shift=(0.0, 0.0, 0.0)):
        """Rotation by ``angle`` about ``axis`` (Rodrigues), then ``shift``."""
        a = np.asarray(axis, dtype=np.float64)
        a = a / np.linalg.norm(a)
        k = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
        return Rig(np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k), shift)

    def points(self, p):
        return np.asarray(p, dtype=np.float64) @ self.rotation.T + self.shift

    def dirs(self, d):
        return np.asarray(d, dtype=np.float64) @ self.rotation.T

    def motion(self, m):
        gaze = None if m.gaze is None else self.dirs(m.gaze)
        return MotionSequence(m.fps, self.points(m.joints), gaze)

    def pair(self, pair):
        return EvalPair(
            id=pair.id,
            predicted=self.motion(pair.predicted),
            ground_truth=self.motion(pair.ground_truth),
            prime_frame_index=pair.prime_frame_index,
            goal_location=self.points(pair.goal_location),
            prime_gaze=self.dirs(pair.prime_gaze),
        )


def standing_motion(n=30, fps=30.0, offset=(0.0, 0.0, 0.0)):
    joints = np.tile(REST + np.asarray(offset), (n, 1, 1))
    return MotionSequence(fps, joints)


def posed_frames(roots, headings):
    """Rigid rest body placed at per-frame root positions and yaw headings."""
    n = len(roots)
    joints = np.zeros((n, N_JOINTS, 3))
    for i in range(n):
        r = yaw_matrices(headings[i])
        joints[i] = REST_LOCAL @ r.T + roots[i]
    return joints


def glide_motion(speed=1.0, n=30, fps=30.0, heading=0.0):
    """Root translating at constant speed along its facing direction."""
    d = np.array([np.sin(heading), 0.0, np.cos(heading)])
    t = np.arange(n) / fps
    roots = REST[0] + t[:, None] * d * speed
    return MotionSequence(fps, posed_frames(roots, np.full(n, heading)))


def turning_motion(omega=0.5, n=60, fps=30.0):
    """Root spinning in place at a constant yaw rate (rad/s)."""
    headings = omega * np.arange(n) / fps
    roots = np.tile(REST[0], (n, 1))
    return MotionSequence(fps, posed_frames(roots, headings))


def random_smooth_motion(rng, n=150, fps=30.0):
    """Smooth wandering walk with arm and head micro-motion, canonicalized."""
    t = np.linspace(0.0, 1.0, n)

    def smooth(scale, k_max=3):
        out = np.zeros(n)
        for k in range(1, k_max + 1):
            out += rng.normal(0, scale / k) * np.sin(
                2 * np.pi * k * t + rng.uniform(0, 2 * np.pi)
            )
        return out

    roots = np.stack(
        [smooth(1.0), REST[0, 1] + smooth(0.03), smooth(1.0)], axis=1
    )
    headings = smooth(0.8)
    joints = posed_frames(roots, headings)
    # limb micro-motion that leaves hips and shoulders rigid
    for j in (15, 18, 19, 20, 21):
        for axis in range(3):
            joints[:, j, axis] += smooth(0.04)
    motion = MotionSequence(fps, joints)
    return canonicalize(motion)[0]


def stored_rows(bones, v):
    """The 6-D rows ``to_features`` stores for bones (...) observed along
    v (..., 3), assembled as it does: ``_arc_entries`` from the bones' rest
    directions, and ``_FLIP_ROWS`` where the pair is antiparallel."""
    u = REST_DIRS[bones]
    entries, safe = _arc_entries(np.moveaxis(u, -1, 0), np.moveaxis(v, -1, 0))
    rows = np.stack(entries, axis=-1)
    rows[~safe] = _FLIP_ROWS[np.broadcast_to(bones, safe.shape)[~safe]]
    return rows


class PnrRun(NamedTuple):
    """One ``pnr`` command run in a child process."""

    returncode: int
    stdout: str
    stderr: str
    peak_rss_mb: float


# The child forks before it imports pnr: an exec'd process starts with the
# peak RSS of the process that spawned it (Linux keeps it across exec), a
# forked one with its own, so the command's peak is not hidden under that
# of the test runner. The fork writes its ru_maxrss (KiB) to argv[1].
_CHILD = r"""
import os, resource, sys
pid = os.fork()
if pid == 0:
    from pnr.cli import main
    try:
        code = main(sys.argv[2:])
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    sys.stderr.flush()
    with open(sys.argv[1], "w") as f:
        f.write(str(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss))
    os._exit(code)
sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""


def run_pnr(argv, rss_file) -> PnrRun:
    """``pnr argv`` in a fresh interpreter that imports the pnr the tests
    import; ``rss_file`` is a scratch path for the child's report."""
    env = dict(os.environ)
    src = str(Path(pnr.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _CHILD, str(rss_file), *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    rss_file = Path(rss_file)
    peak = int(rss_file.read_text()) / 1024.0 if rss_file.exists() else float("nan")
    return PnrRun(done.returncode, done.stdout, done.stderr, peak)
