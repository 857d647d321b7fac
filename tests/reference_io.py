"""Row-wise reference readers and writers for the recording and sequence
JSONL formats, kept for tests only.

These are the per-row implementations that ``pnr.io_jsonl`` replaced: it
reads a file in one batch per numeric field, and writes gaze and frame
rows from text templates around the numbers that orjson spells for a
block of rows. Here every row is converted and checked on its own and
written with its own ``json.dumps`` call. ``test_io_reference.py``
requires ``pnr.io_jsonl`` to write the same bytes, read the same values
and report malformed input at the same line with the same reason.
Sixteen changes were made to them since, as in ``pnr.io_jsonl``:
``read_sequence`` rejects a ``prime_frame_index`` outside the frames;
``read_recording`` skips timed object rows (object trajectories) with a
warning instead of reading them, and ``write_recording`` writes none;
both readers reject a non-finite ``fps``, ``t_p``, ``t_e`` or
``t_start`` in the header ("non-finite fps", ...); ``read_sequence``
rejects a header ``fps`` of 0 or below as "fps must be positive" before
it compares the frame count with the header's time span, which such a
file of more than two frames used to fail instead;
``read_recording`` reports a gaze time equal to the one before at its
line, as ``pnr.io_jsonl`` always has, where it used to fail later, when
the track was built; it takes an event row's time from ``t_e`` alone,
where it used to prefer a ``t`` key when the row had one; and it rejects
a non-finite event time at its line ("non-finite event time"), which it
used to accept; and both readers reject header values of the wrong JSON
type, which they used to convert: an ``id`` or ``video_id`` that is not a
string ("id must be a string", ...), a ``prime_mode`` other than
``direct_hit`` or ``near_miss``, a ``prime_frame_index`` that is not a
JSON integer (3.7, "12" and true included), ``flags`` that are not a list
of strings, a header ``fps``, ``t_p``, ``t_e`` or ``t_start`` that is a
boolean or a string, and a row time (``t``, ``t_e``) that is a boolean;
``read_sequence`` checks each frame row's ``t`` as ``read_recording``
does ("record missing time", "frame times must be non-decreasing"),
where it used to ignore it; and both readers refuse a boolean in a list
read once per file, a header's ``goal`` or ``initial_velocity`` or an
object's box corner or ``point`` ("goal must be a list of numbers", ...),
which they used to read as 1 or 0; both readers check every row time (a
gaze, frame or event time, and a sequence's frame times) in one order: a
number ("record missing time"), finite ("non-finite frame time", ...),
then not below the row before of its kind, so a NaN, infinite or
out-of-range time is reported at its own line, where a frame time of
Infinity used to be read, a NaN one to be reported at the next line, and
an integer past the float range to crash; ``read_recording`` checks its
header's ``fps`` as ``read_sequence`` does ("fps must be a number",
"non-finite fps", "fps must be positive"), where it used to give "fps
must be a positive number" for all three; and ``read_sequence`` requires
``t_start``, ``prime_mode`` and ``flags`` in the header, which it used to
default (``t_start`` to ``t_p - 2``, which only a 2 s prepend makes true);
both readers refuse a string in any list of numbers ("joints must be a
list of numbers", "cam_pose.r must be ...", ...), which np.asarray used to
parse when it spelled a number, and crash on when it did not, and
``read_sequence`` reports a non-finite ``initial_velocity`` at line 1
("non-finite initial velocity"), where it used to crash; and both report
a line nested too deeply for ``json.loads`` ("JSON nested too deeply"),
where its RecursionError used to escape.

``pnr.io_jsonl`` also differs from these in three ways. Its readers parse
gaze and frame rows with orjson, and any row that orjson refuses or may
read otherwise with ``json.loads``, where these parse every line with
``json.loads``; the values read are the same. (An integer past 64 bits in
a row's numeric list is parsed as its nearest double, which is the
float64 these convert ``json.loads``'s int to.) And it checks a sequence
header's values when it reads line 1, where these check them after the
frames: a file with one error is reported alike, but a file with an
error in both its header and a frame row is reported at the header there
and at the frame here, and ``pnr split``, which reads headers alone,
reports header errors only. And it refuses at line 1 a header whose id,
video_id or flags hold a lone surrogate (the JSON escape ``"\\ud800"``),
which these read and no UTF-8 file can be written with.
"""

from __future__ import annotations

import json
import logging
import math
from pathlib import Path

import numpy as np

from pnr.curation import InitialState, PnRSequence, Recording
from pnr.errors import MalformedFile
from pnr.gaze import GazeTrack, InteractionEvent, ObjectTarget, PrimedEvent
from pnr.geometry import Aabb
from pnr.motion import MotionSequence
from pnr.skeleton import N_JOINTS

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1


def _dump(obj) -> str:
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def _require(cond, path, line_no, reason):
    if not cond:
        raise MalformedFile(path, line_no, reason)


def _is_finite(value):
    """math.isfinite, false for an integer past the float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _finite(header, key, path):
    _require(type(header[key]) in (int, float), path, 1, f"{key} must be a number")
    _require(_is_finite(header[key]), path, 1, f"non-finite {key}")
    return float(header[key])


def _check_time(t, kind, prev, path, line_no):
    _require(type(t) in (int, float), path, line_no, "record missing time")
    _require(_is_finite(t), path, line_no, f"non-finite {kind} time")
    _require(prev is None or t >= prev, path, line_no, f"{kind} times must be non-decreasing")
    _require(kind != "gaze" or t != prev, path, line_no,
             "gaze times must be strictly increasing")


def _finite_list(values, path, line_no, what, name=None):
    """Refuse a list holding a string, which np.asarray would parse."""
    if isinstance(values, list):
        for v in values:
            _require(not isinstance(v, str), path, line_no,
                     f"{name or what} must be a list of numbers")
    arr = np.asarray(values, dtype=np.float64)
    _require(np.all(np.isfinite(arr)), path, line_no, f"non-finite {what}")
    return arr


def _no_booleans(values, path, line_no, name):
    """Refuse a list holding true or false; returns the list."""
    if isinstance(values, list):
        for v in values:
            _require(not isinstance(v, bool), path, line_no, f"{name} must be a list of numbers")
    return values


def write_recording(rec: Recording, path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as f:
        f.write(_dump({
            "schema_version": SCHEMA_VERSION,
            "id": rec.id,
            "video_id": rec.video_id,
            "fps": rec.motion.fps,
            "up_axis": "y",
            "units": "m/s/rad",
        }) + "\n")
        for oid in rec.objects:
            tgt = rec.objects[oid]
            row = {"k": "object", "id": oid}
            if tgt.box is not None:
                row["box"] = {"min": tgt.box.min.tolist(), "max": tgt.box.max.tolist()}
            else:
                row["point"] = tgt.point.tolist()
            f.write(_dump(row) + "\n")
        g = rec.gaze
        for i in range(len(g)):
            f.write(_dump({
                "k": "gaze",
                "t": float(g.times[i]),
                "dir_cam": g.points_cam[i].tolist(),
                "cam_pose": {"r": g.rotations[i].reshape(9).tolist(),
                             "t": g.translations[i].tolist()},
            }) + "\n")
        for i in range(rec.motion.n_frames):
            f.write(_dump({
                "k": "frame",
                "t": i / rec.motion.fps,
                "joints": rec.motion.joints[i].reshape(66).tolist(),
            }) + "\n")
        for ev in sorted(rec.events, key=lambda e: e.t_e):
            f.write(_dump({"k": "event", "kind": ev.kind, "t_e": ev.t_e,
                           "object_id": ev.target.id}) + "\n")


def read_recording(path) -> Recording:
    path = Path(path)
    header = None
    gaze_rows, frame_rows, event_rows = [], [], []
    objects: dict[str, ObjectTarget] = {}
    last_t = {}
    with path.open("r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedFile(path, line_no, f"invalid JSON: {exc.msg}")
            except RecursionError:
                raise MalformedFile(path, line_no, "JSON nested too deeply")
            if header is None:
                _require(isinstance(row, dict) and "schema_version" in row,
                         path, line_no, "first line must be the header")
                for key in ("id", "video_id", "fps"):
                    _require(key in row, path, line_no, f"header missing {key}")
                _require(_finite(row, "fps", path) > 0, path, line_no, "fps must be positive")
                for key in ("id", "video_id"):
                    _require(isinstance(row[key], str), path, line_no,
                             f"{key} must be a string")
                header = row
                continue
            kind = row.get("k")
            if kind in ("gaze", "frame", "event"):
                t = row.get("t_e" if kind == "event" else "t")
                _check_time(t, kind, last_t.get(kind), path, line_no)
                last_t[kind] = t
            if kind == "gaze":
                _require("dir_cam" in row and "cam_pose" in row, path, line_no,
                         "gaze record needs dir_cam and cam_pose")
                r = _finite_list(row["cam_pose"]["r"], path, line_no, "cam rotation",
                                 "cam_pose.r")
                _require(r.size == 9, path, line_no, "cam_pose.r must have 9 entries")
                gaze_rows.append((
                    float(row["t"]),
                    _finite_list(row["dir_cam"], path, line_no, "gaze direction", "dir_cam"),
                    r.reshape(3, 3),
                    _finite_list(row["cam_pose"]["t"], path, line_no, "cam translation",
                                 "cam_pose.t"),
                ))
            elif kind == "frame":
                joints = _finite_list(row["joints"], path, line_no, "joints")
                _require(joints.size == 3 * N_JOINTS, path, line_no,
                         f"joints must have {3 * N_JOINTS} entries")
                frame_rows.append(joints.reshape(N_JOINTS, 3))
            elif kind == "object" and "t" not in row:
                oid = row.get("id")
                _require(isinstance(oid, str), path, line_no, "object record needs id")
                if "box" in row:
                    mn = _finite_list(_no_booleans(row["box"]["min"], path, line_no, "box min"),
                                      path, line_no, "box min")
                    mx = _finite_list(_no_booleans(row["box"]["max"], path, line_no, "box max"),
                                      path, line_no, "box max")
                    _require(np.all(mn <= mx), path, line_no, "box min exceeds max")
                    objects[oid] = ObjectTarget(oid, box=Aabb(mn, mx))
                elif "point" in row:
                    objects[oid] = ObjectTarget(
                        oid, point=_finite_list(_no_booleans(row["point"], path, line_no,
                                                             "point"), path, line_no, "point"))
                else:
                    raise MalformedFile(path, line_no, "object record needs box or point")
            elif kind == "event":
                _require(row.get("kind") in ("pick", "put"), path, line_no,
                         "event kind must be pick or put")
                _require("object_id" in row, path, line_no, "event needs object_id")
                event_rows.append((row["kind"], float(row["t_e"]), row["object_id"], line_no))
            else:
                log.warning("%s:%d: skipping unknown record kind %r", path, line_no, kind)
    _require(header is not None, path, 1, "empty file")
    _require(len(gaze_rows) >= 1, path, 1, "recording has no gaze samples")
    _require(len(frame_rows) >= 2, path, 1, "recording has fewer than 2 frames")

    track = GazeTrack(
        np.array([r[0] for r in gaze_rows]),
        np.array([r[1] for r in gaze_rows]),
        np.array([r[2] for r in gaze_rows]),
        np.array([r[3] for r in gaze_rows]),
    )
    motion = MotionSequence(float(header["fps"]), np.array(frame_rows))
    events = []
    for kind, t_e, oid, line_no in event_rows:
        _require(oid in objects, path, line_no, f"event references unknown object {oid!r}")
        events.append(InteractionEvent(kind, t_e, objects[oid]))
    return Recording(
        id=str(header["id"]),
        video_id=str(header["video_id"]),
        gaze=track,
        motion=motion,
        objects=objects,
        events=events,
    )


def write_sequence(seq: PnRSequence, path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as f:
        f.write(_dump({
            "schema_version": SCHEMA_VERSION,
            "id": seq.id,
            "video_id": seq.video_id,
            "fps": seq.motion.fps,
            "kind": seq.event.event.kind,
            "t_p": seq.t_p,
            "t_e": seq.t_e,
            "t_start": seq.t_e - seq.motion.duration,
            "prime_mode": seq.event.prime_mode,
            "goal": seq.goal_location.tolist(),
            "prime_frame_index": seq.prime_frame_index,
            "initial_velocity": seq.initial_state.velocity.reshape(66).tolist(),
            "flags": list(seq.flags),
        }) + "\n")
        for i in range(seq.motion.n_frames):
            row = {
                "k": "frame",
                "t": i / seq.motion.fps,
                "joints": seq.motion.joints[i].reshape(66).tolist(),
            }
            if seq.motion.gaze is not None:
                row["gaze"] = seq.motion.gaze[i].tolist()
            f.write(_dump(row) + "\n")


def read_sequence(path) -> PnRSequence:
    path = Path(path)
    header = None
    joints_rows, gaze_rows = [], []
    last_t = None
    with path.open("r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedFile(path, line_no, f"invalid JSON: {exc.msg}")
            except RecursionError:
                raise MalformedFile(path, line_no, "JSON nested too deeply")
            if header is None:
                _require("schema_version" in row, path, line_no,
                         "first line must be the header")
                for key in ("id", "video_id", "fps", "kind", "t_p", "t_e", "t_start",
                            "prime_mode", "goal", "prime_frame_index", "initial_velocity",
                            "flags"):
                    _require(key in row, path, line_no, f"header missing {key}")
                header = row
                continue
            kind = row.get("k")
            if kind == "frame":
                t = row.get("t")
                _check_time(t, "frame", last_t, path, line_no)
                last_t = t
                joints = _finite_list(row["joints"], path, line_no, "joints")
                _require(joints.size == 3 * N_JOINTS, path, line_no,
                         f"joints must have {3 * N_JOINTS} entries")
                joints_rows.append(joints.reshape(N_JOINTS, 3))
                if "gaze" in row:
                    gaze_rows.append(_finite_list(row["gaze"], path, line_no, "gaze"))
            else:
                log.warning("%s:%d: skipping unknown record kind %r", path, line_no, kind)
    _require(header is not None, path, 1, "empty file")
    _require(len(joints_rows) >= 2, path, 1, "sequence has fewer than 2 frames")
    fps = _finite(header, "fps", path)
    _require(fps > 0, path, 1, "fps must be positive")
    for key in ("id", "video_id"):
        _require(isinstance(header[key], str), path, 1, f"{key} must be a string")
    t_p, t_e = _finite(header, "t_p", path), _finite(header, "t_e", path)
    span = t_e - _finite(header, "t_start", path)
    _require(abs((len(joints_rows) - 1) - span * fps) <= 1.0, path, 1,
             "frame count does not match the header time span")
    gaze = None
    if gaze_rows:
        _require(len(gaze_rows) == len(joints_rows), path, 1,
                 "gaze must cover every frame or none")
        gaze = np.array(gaze_rows)
    motion = MotionSequence(fps, np.array(joints_rows), gaze=gaze)
    goal = _finite_list(_no_booleans(header["goal"], path, 1, "goal"), path, 1, "goal")
    velocity = _finite_list(_no_booleans(header["initial_velocity"], path, 1, "initial_velocity"),
                            path, 1, "initial velocity", "initial_velocity").reshape(N_JOINTS, 3)
    prime_mode = header["prime_mode"]
    _require(prime_mode in ("direct_hit", "near_miss"), path, 1,
             "prime_mode must be direct_hit or near_miss")
    _require(type(header["prime_frame_index"]) is int, path, 1,
             "prime_frame_index must be an integer")
    prime_frame_index = int(header["prime_frame_index"])
    _require(0 <= prime_frame_index < motion.n_frames, path, 1, "prime_frame_index out of range")
    flags = header["flags"]
    _require(isinstance(flags, list), path, 1, "flags must be a list")
    _require(all(isinstance(f, str) for f in flags), path, 1, "flags must be a list of strings")
    target = ObjectTarget("goal", point=goal)
    event = PrimedEvent(
        InteractionEvent(str(header["kind"]), float(header["t_e"]), target),
        float(header["t_p"]),
        prime_mode,
    )
    return PnRSequence(
        id=str(header["id"]),
        video_id=str(header["video_id"]),
        event=event,
        motion=motion,
        goal_location=goal,
        initial_state=InitialState(motion.joints[0], velocity),
        prime_frame_index=prime_frame_index,
        flags=tuple(flags),
    )
