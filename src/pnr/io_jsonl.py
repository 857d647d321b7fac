"""JSON-Lines interchange formats: recordings, curated sequences, split
manifests, metric reports and sweep grids.

Every file is plain JSONL with a header line carrying the schema version.
Doubles are serialized at full precision (shortest round-tripping repr),
so write-then-read reproduces in-memory values bit-exactly. Unknown
record kinds, and timed object rows (object trajectories, which pnr does
not read), are skipped with a warning; structural violations raise
MalformedFile with the offending path and line number.

Recordings and sequences are validated in one pass per file. A reader
parses each line and checks there only what is cheap: the row is an
object with the required keys, its lists have the right length and its
times are finite and in order (``_row_time``). Numeric fields (joints,
gaze directions, camera poses) are gathered per column, and each column
is converted to float64 and checked for finite values once; a bad value
is still reported by its line. Frame times are held to the clock that
MotionSequence gives the frames, i / fps from 0, after the loop
(``_on_clock``).

Writers build the gaze and frame rows of recordings and sequences from
fixed templates around the text of their numeric fields (``_rows``),
which orjson spells a block of rows at a time; a row holding a value of
magnitude in [1e-9, 1e-4) or of 1e16 and above, where orjson's spelling
differs, is spelled again with ``float.__repr__``. Headers, object and
event rows, reports, manifests and labels go through ``_dump``, one
shared JSON encoder, which writes a numpy array as its ``tolist()``.
Both spell floats as json.dumps does, so the bytes are those of one
``json.dumps`` per row.

Readers parse gaze and frame rows with orjson when they are shorter than
``_ORJSON_LINE``, too short to nest past the depth json.loads reads, and
every other line with json.loads (``_loads``). A row orjson refuses (NaN, Infinity, a number past the
float range, a lone surrogate escape, malformed JSON) is parsed by
json.loads, so it reads as it always did or fails with json's message.
Every parsed line equals json.loads of it but for one case: an integer
literal beyond 64 bits in a gaze or frame row, other than its time, reads
as its nearest double. The readers use such a value, a joint, say, only
through its float64 conversion, which makes the same double of json's
int.
``read_sequence_header`` reads only line 1 of a sequence and checks it
as ``read_sequence`` does.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import asdict
from functools import partial
from pathlib import Path
from typing import NamedTuple

import numpy as np
import orjson

from .curation import InitialState, PnRSequence, Recording
from .errors import DegenerateGaze, MalformedFile
from .gaze import EVENT_KINDS, PRIME_MODES, GazeTrack, InteractionEvent, ObjectTarget, PrimedEvent
from .geometry import Aabb, finite_number
from .motion import MotionSequence
from .skeleton import N_JOINTS

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1

RECORDING_SUFFIX = ".rec.jsonl"
SEQUENCE_SUFFIX = ".seq.jsonl"
# Output files are named after ids: a sequence's file as id + SEQUENCE_SUFFIX,
# a recording's sequences as id + "-e" + event index + SEQUENCE_SUFFIX, where
# the index has at most 19 digits (no list holds 2^63 events). A file name
# holds at most _NAME_MAX bytes on Linux's common file systems.
_NAME_MAX = 255
_RECORDING_NAME_EXTRA = len("-e") + 19 + len(SEQUENCE_SUFFIX)

_dump = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"),
                         default=np.ndarray.tolist).encode
_UNDECODED = re.compile("[\udc80-\udcff]")  # bytes 0x80-0xff under surrogateescape
# A lone surrogate, which json.loads reads from the escape "\\ud800" and
# UTF-8 cannot encode: a string holding one cannot be written to a file
_SURROGATE = re.compile("[\ud800-\udfff]")
# The types json.loads gives a number: true and false load as bool, a
# subclass of int. A header number or a row time of another type is no
# number; one of these types that fails finite_number is non-finite.
_NUMBER = (int, float)

# The heads of the gaze and frame rows the writers build from templates:
# the row's kind and the key of its time. The time follows, then the
# text of the row's numeric fields.
_GAZE_HEAD = '{"k":"gaze","t":'
_FRAME_HEAD = '{"k":"frame","t":'
# How many rows ``_rows`` has orjson spell at once, so that a long
# recording never holds the text of all its rows
_BLOCK_ROWS = 1024
# orjson reads an integer literal beyond 64 bits as a float; a row time
# of this magnitude or more may be one, and is read again by json.loads
_INT64 = 2.0 ** 63
# orjson reads a line nested to any depth, json.loads about 1,000 levels
# less the frames on the call stack. A gaze or frame row shorter than this
# nests fewer than 900 levels, which json.loads reads too, so only such a
# row goes to orjson. The writers' longest row, a sequence frame row of 70
# numbers of at most 24 characters each, has 1,787 characters.
_ORJSON_LINE = 1800
# Frame row i of a recording or sequence lies within this many frame
# periods of i / fps, the time MotionSequence gives it
_CLOCK_TOL = 0.25


def _require(cond, path, line_no, reason):
    if not cond:
        raise MalformedFile(path, line_no, reason)


def _loads(line):
    """json.loads of one line, through orjson where the line is a gaze or
    frame row that orjson reads as json.loads does. A line of _ORJSON_LINE
    characters or more, a line that orjson refuses, a row whose "k" is
    another kind (a repeated key), and a row whose time may be an integer
    literal beyond 64 bits go through json.loads, so their values and
    errors stay json's."""
    if len(line) < _ORJSON_LINE and line.startswith((_GAZE_HEAD, _FRAME_HEAD)):
        try:
            row = orjson.loads(line)
        except orjson.JSONDecodeError:
            pass
        else:
            t = row["t"]
            if row["k"] in ("gaze", "frame") and (type(t) is not float or abs(t) < _INT64):
                return row
    return json.loads(line)


def _records(path):
    """(line number, parsed value) of every non-blank line. Lines are split
    as text-mode file iteration splits them, never with str.splitlines:
    ids are written unescaped, and splitlines would also break them at
    U+2028 and other separators. Bytes that are not UTF-8 arrive as lone
    surrogates and are reported at their line."""
    with path.open("r", encoding="utf-8", errors="surrogateescape") as f:
        for line_no, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            if not line.isascii() and _UNDECODED.search(line):
                raise MalformedFile(path, line_no, "not valid UTF-8")
            try:
                yield line_no, _loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedFile(path, line_no, f"invalid JSON: {exc.msg}") from None
            except ValueError:  # an integer longer than int() converts (4300 digits by default)
                raise MalformedFile(path, line_no, "integer with too many digits") from None
            except RecursionError:  # json.loads gives up past about 1,000 levels
                raise MalformedFile(path, line_no, "JSON nested too deeply") from None


def _float(value, path, line_no, what) -> float:
    """A JSON number ``value`` as a finite float."""
    if not finite_number(value):
        _require(type(value) in _NUMBER, path, line_no, f"{what} must be a number")
        raise MalformedFile(path, line_no, f"non-finite {what}")
    return float(value)


def _first(path, check):
    """check(row, path, line number) of a file's first record, and an
    iterator over the records after it; "empty file" at line 1 when there
    is no record."""
    records = _records(path)
    for line_no, row in records:
        return check(row, path, line_no), records
    raise MalformedFile(path, 1, "empty file")


def _header(row, path, line_no, keys=(), extra=len(SEQUENCE_SUFFIX)) -> tuple:
    """Check line 1 of a recording or sequence: the header, with id,
    video_id, fps and ``keys``, string ids and a positive fps; gives
    (id, video_id, fps). The id names the files written from it, so it must
    be a file name: no "/" or NUL, not "." or "..", and short enough that
    the longest name made from it, ``extra`` more bytes, fits _NAME_MAX.
    Both ids are written to the files made from them, so neither may hold
    a lone surrogate."""
    _require(isinstance(row, dict) and "schema_version" in row, path, line_no,
             "first line must be the header")
    for key in ("id", "video_id", "fps", *keys):
        _require(key in row, path, line_no, f"header missing {key}")
    fps = _float(row["fps"], path, line_no, "fps")
    _require(fps > 0, path, line_no, "fps must be positive")
    for key in ("id", "video_id"):
        _require(isinstance(row[key], str), path, line_no, f"{key} must be a string")
        _require(not _SURROGATE.search(row[key]), path, line_no, f"{key} holds a lone surrogate")
    _require(row["id"] not in (".", "..") and "/" not in row["id"] and "\0" not in row["id"],
             path, line_no, "id must be a file name: no /, NUL, . or ..")
    limit = _NAME_MAX - extra
    _require(len(row["id"].encode("utf-8")) <= limit, path, line_no,
             f"id too long for a file name: more than {limit} bytes in UTF-8")
    return row["id"], row["video_id"], fps


def _row_time(row, kind, last_t, path, line_no):
    """The time of a gaze, frame or event row, checked in this order: a
    number, finite, and not below the last row of its kind in ``last_t``
    (which it updates); a gaze row's must also differ from it."""
    t = row.get("t_e" if kind == "event" else "t")
    prev = last_t.get(kind)
    if not (finite_number(t) and (prev is None or t > prev)):
        _require(type(t) in _NUMBER, path, line_no, "record missing time")
        _require(finite_number(t), path, line_no, f"non-finite {kind} time")
        _require(t >= prev, path, line_no, f"{kind} times must be non-decreasing")
        _require(kind != "gaze", path, line_no, "gaze times must be strictly increasing")
    last_t[kind] = t
    return t


def _vector(values, n, path, line_no, what, name=None) -> np.ndarray:
    """_floats for a list read once per file (a header's goal or velocity,
    an object's box corner or point), refusing true and false, which the
    float64 conversion would read as 1 and 0."""
    _require(not (type(values) is list and bool in map(type, values)), path, line_no,
             f"{name or what} must be a list of numbers")
    return _floats(values, n, path, line_no, what, name)


def _floats(values, n, path, line_no, what, name=None) -> np.ndarray:
    """One value as a flat array of n finite floats (any shape when n is
    None), converted and checked on its own; ``what`` names it in the
    non-finite error, ``name`` in the others. A list holding a string is
    refused, which the float64 conversion would parse if it spelled a
    number."""
    name = name or what
    _require(not (type(values) is list and str in map(type, values)), path, line_no,
             f"{name} must be a list of numbers")
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise MalformedFile(path, line_no, f"{name} must be a list of numbers") from None
    _require(np.all(np.isfinite(arr)), path, line_no, f"non-finite {what}")
    _require(n is None or arr.shape == (n,), path, line_no, f"{name} must have {n} entries")
    return arr


class _Column:
    """One numeric field of a file with n values per row: joints, a gaze
    direction, a camera rotation. ``add`` gives a row only a cheap shape
    check; ``array`` converts all rows to float64 and checks them for
    finite values at once, and still reports a bad row by its line. A row
    takes true and false as 1 and 0, in the bulk conversion and in the
    row-by-row check (``_floats``) alike."""

    def __init__(self, path, n, what, name=None):
        self.path, self.n, self.what, self.name = path, n, what, name
        self.rows, self.line_nos = [], []

    def __len__(self):
        return len(self.rows)

    def add(self, values, line_no) -> None:
        if type(values) is not list or len(values) != self.n:
            values = _floats(values, self.n, self.path, line_no, self.what, self.name)
        self.rows.append(values)
        self.line_nos.append(line_no)

    def array(self) -> np.ndarray:
        """All rows as one (len(self), n) array. The rows are converted as
        numpy finds their type, not straight to float64, which would parse
        a string."""
        shape = (len(self.rows), self.n)
        try:
            arr = np.array(self.rows)
        except ValueError:  # lists nested in some rows
            arr = None
        if arr is None or arr.dtype.kind not in "biuf" or arr.shape != shape:
            # a string, an item that is no number, an integer past 64 bits
            # or nested lists; converting row by row names the first bad row
            arr = np.array([_floats(v, self.n, self.path, at, self.what, self.name)
                            for v, at in zip(self.rows, self.line_nos)])
        arr = arr.astype(np.float64, copy=False).reshape(shape)
        finite = np.isfinite(arr).all(axis=1)
        if not finite.all():
            raise MalformedFile(self.path, self.line_nos[int(np.argmin(finite))],
                                f"non-finite {self.what}")
        return arr


def _on_clock(times, fps, line_nos, path) -> None:
    """Require frame row i's time within _CLOCK_TOL / fps of i / fps, in
    one comparison; the first row off the clock is reported at its line."""
    times = np.array(times, dtype=np.float64)
    off = np.abs(times - np.arange(len(times)) / fps) > _CLOCK_TOL / fps
    if off.any():
        raise MalformedFile(path, line_nos[int(np.argmax(off))],
                            f"frame time must be its index / fps, within {_CLOCK_TOL} / fps")


def _rows(values, width):
    """The rows of a float64 array, ``width`` values each, as the text of
    their comma-joined JSON numbers, one row at a time, spelled as
    ``float.__repr__`` spells them. orjson spells a block of rows at once.
    It differs from repr only on doubles of magnitude in [1e-9, 1e-4),
    where it writes 1e-05 as 0.00001 and 1e-09 as 1e-9, and on those of
    1e16 and above, where it writes 1e+16 as 1e16; below 1e-9, subnormals
    included, both write the same exponent. So only a row holding a value
    in those two bands is spelled with repr. The values are finite, as
    every container that holds them checks, so there is no NaN or
    Infinity spelling here."""
    rows = np.ascontiguousarray(values, dtype=np.float64).reshape(-1, width)
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        text = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY).decode()
        texts = text[2:-2].split("],[")
        size = np.abs(block)
        for i in np.flatnonzero(((size >= 1e-9) & (size < 1e-4) | (size >= 1e16)).any(axis=1)):
            texts[i] = ",".join(map(float.__repr__, block[i].tolist()))
        yield from texts


def _frame_lines(motion, gaze=None):
    """The frame rows of a motion, with a gaze direction per frame when
    ``gaze`` is given. Frame i is at i / fps, which ``motion.times`` gives
    to the bit."""
    times, joints = motion.times.tolist(), _rows(motion.joints, 3 * N_JOINTS)
    if gaze is None:
        return (f'{_FRAME_HEAD}{t!r},"joints":[{j}]}}\n' for t, j in zip(times, joints))
    return (f'{_FRAME_HEAD}{t!r},"joints":[{j}],"gaze":[{d}]}}\n'
            for t, j, d in zip(times, joints, _rows(gaze, 3)))


# --------------------------------------------------------------------------
# recordings


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
                row["box"] = {"min": tgt.box.min, "max": tgt.box.max}
            else:
                row["point"] = tgt.point
            f.write(_dump(row) + "\n")
        g = rec.gaze
        f.writelines(
            f'{_GAZE_HEAD}{t!r},"dir_cam":[{d}],"cam_pose":{{"r":[{r}],"t":[{c}]}}}}\n'
            for t, d, r, c in zip(g.times.tolist(), _rows(g.points_cam, 3),
                                  _rows(g.rotations, 9), _rows(g.translations, 3)))
        f.writelines(_frame_lines(rec.motion))
        for ev in sorted(rec.events, key=lambda e: e.t_e):
            f.write(_dump({"k": "event", "kind": ev.kind, "t_e": ev.t_e,
                           "object_id": ev.target.id}) + "\n")


def read_recording(path) -> Recording:
    path = Path(path)
    (rec_id, video_id, fps), records = _first(path, partial(_header, extra=_RECORDING_NAME_EXTRA))
    gaze_t = []
    rotations = _Column(path, 9, "cam rotation", "cam_pose.r")
    points_cam = _Column(path, 3, "gaze direction", "dir_cam")
    translations = _Column(path, 3, "cam translation", "cam_pose.t")
    joints = _Column(path, 3 * N_JOINTS, "joints")
    frame_t = []
    event_rows = []
    objects: dict[str, ObjectTarget] = {}
    last_t = {}
    for line_no, row in records:
        _require(isinstance(row, dict), path, line_no, "record must be a JSON object")
        kind = row.get("k")
        if kind in ("gaze", "frame", "event"):
            t = _row_time(row, kind, last_t, path, line_no)
        if kind == "gaze":
            _require("dir_cam" in row and "cam_pose" in row, path, line_no,
                     "gaze record needs dir_cam and cam_pose")
            pose = row["cam_pose"]
            _require(isinstance(pose, dict) and "r" in pose and "t" in pose, path, line_no,
                     "cam_pose needs r and t")
            rotations.add(pose["r"], line_no)
            points_cam.add(row["dir_cam"], line_no)
            translations.add(pose["t"], line_no)
            gaze_t.append(t)
        elif kind == "frame":
            _require("joints" in row, path, line_no, "frame record needs joints")
            joints.add(row["joints"], line_no)
            frame_t.append(t)
        elif kind == "object" and "t" not in row:
            oid = row.get("id")
            _require(isinstance(oid, str), path, line_no, "object record needs id")
            _require(oid not in objects, path, line_no, f"duplicate object id {oid!r}")
            if "box" in row:
                box = row["box"]
                _require(isinstance(box, dict) and "min" in box and "max" in box,
                         path, line_no, "box needs min and max")
                # corners are compared before their shapes are checked, so
                # a scalar corner that exceeds the other is reported as such
                mn = _vector(box["min"], None, path, line_no, "box min")
                mx = _vector(box["max"], None, path, line_no, "box max")
                try:
                    ordered = np.all(mn <= mx)
                except ValueError:  # corners of different lengths
                    ordered = True
                _require(ordered, path, line_no, "box min exceeds max")
                _require(mn.shape == mx.shape == (3,), path, line_no,
                         "box corners must have 3 entries")
                objects[oid] = ObjectTarget(oid, box=Aabb(mn, mx))
            elif "point" in row:
                objects[oid] = ObjectTarget(
                    oid, point=_vector(row["point"], 3, path, line_no, "point"))
            else:
                raise MalformedFile(path, line_no, "object record needs box or point")
        elif kind == "event":
            _require(row.get("kind") in EVENT_KINDS, path, line_no,
                     "event kind must be pick or put")
            _require("object_id" in row, path, line_no, "event needs object_id")
            event_rows.append((row["kind"], float(t), row["object_id"], line_no))
        else:  # an unknown kind, or a timed object row: trajectories are not read
            what = "timed object record" if kind == "object" else f"unknown record kind {kind!r}"
            log.warning("%s:%d: skipping %s", path, line_no, what)
    _on_clock(frame_t, fps, joints.line_nos, path)
    _require(len(gaze_t) >= 1, path, 1, "recording has no gaze samples")
    _require(len(joints) >= 2, path, 1, "recording has fewer than 2 frames")

    track = GazeTrack(np.array(gaze_t, dtype=np.float64), points_cam.array(),
                      rotations.array().reshape(-1, 3, 3), translations.array())
    try:
        track.world_rays()  # cached on the track for curation
    except DegenerateGaze as exc:
        raise MalformedFile(path, points_cam.line_nos[exc.index],
                            "gaze direction is zero in the world frame") from None
    motion = MotionSequence(fps, joints.array().reshape(-1, N_JOINTS, 3))
    events = []
    for kind, t_e, oid, line_no in event_rows:
        _require(isinstance(oid, str) and oid in objects, path, line_no,
                 f"event references unknown object {oid!r}")
        events.append(InteractionEvent(kind, t_e, objects[oid]))
    return Recording(
        id=rec_id,
        video_id=video_id,
        gaze=track,
        motion=motion,
        objects=objects,
        events=events,
    )


# --------------------------------------------------------------------------
# curated sequences


class SequenceHeader(NamedTuple):
    """Line 1 of a sequence file, checked; its fields are the header's
    keys after schema_version, in file order."""

    id: str
    video_id: str
    fps: float
    kind: str
    t_p: float
    t_e: float
    t_start: float
    prime_mode: str
    goal: np.ndarray
    prime_frame_index: int
    initial_velocity: np.ndarray
    flags: tuple


def write_sequence(seq: PnRSequence, path) -> None:
    header = SequenceHeader(
        seq.id, seq.video_id, seq.motion.fps, seq.event.event.kind, seq.t_p, seq.t_e,
        seq.t_e - seq.motion.duration, seq.event.prime_mode, seq.goal_location,
        seq.prime_frame_index, seq.initial_state.velocity.reshape(3 * N_JOINTS),
        tuple(seq.flags))
    with Path(path).open("w", encoding="utf-8") as f:
        f.write(_dump({"schema_version": SCHEMA_VERSION, **header._asdict()}) + "\n")
        f.writelines(_frame_lines(seq.motion, seq.motion.gaze))


def _sequence_header(row, path, line_no) -> SequenceHeader:
    """The header row of a sequence file, checked for everything that does
    not depend on its frames."""
    seq_id, video_id, fps = _header(row, path, line_no, SequenceHeader._fields[3:])
    t_p = _float(row["t_p"], path, line_no, "t_p")
    t_e = _float(row["t_e"], path, line_no, "t_e")
    t_start = _float(row["t_start"], path, line_no, "t_start")
    goal = _vector(row["goal"], 3, path, line_no, "goal")
    velocity = _vector(row["initial_velocity"], 3 * N_JOINTS, path, line_no,
                       "initial velocity", "initial_velocity")
    _require(row["kind"] in EVENT_KINDS, path, line_no, "kind must be pick or put")
    prime_mode = row["prime_mode"]
    _require(prime_mode in PRIME_MODES, path, line_no,
             "prime_mode must be direct_hit or near_miss")
    prime_frame_index = row["prime_frame_index"]
    _require(type(prime_frame_index) is int, path, line_no,
             "prime_frame_index must be an integer")
    _require(prime_frame_index >= 0, path, line_no, "prime_frame_index out of range")
    flags = row["flags"]
    _require(type(flags) is list, path, line_no, "flags must be a list")
    _require(all(isinstance(f, str) for f in flags), path, line_no,
             "flags must be a list of strings")
    _require(not any(map(_SURROGATE.search, flags)), path, line_no, "flags hold a lone surrogate")
    return SequenceHeader(seq_id, video_id, fps, row["kind"], t_p, t_e, t_start,
                          prime_mode, goal, prime_frame_index, velocity, tuple(flags))


def read_sequence_header(path) -> SequenceHeader:
    """The header of a sequence file, read from its first line alone and
    checked as read_sequence checks it. Its frames are not read, so a
    malformed frame row goes unnoticed here."""
    header, records = _first(Path(path), _sequence_header)
    records.close()
    return header


def read_sequence(path) -> PnRSequence:
    path = Path(path)
    header, records = _first(path, _sequence_header)
    joints = _Column(path, 3 * N_JOINTS, "joints")
    gaze = _Column(path, 3, "gaze")
    frame_t = []
    last_t = {}
    for line_no, row in records:
        _require(isinstance(row, dict), path, line_no, "record must be a JSON object")
        kind = row.get("k")
        if kind == "frame":
            t = _row_time(row, kind, last_t, path, line_no)
            _require("joints" in row, path, line_no, "frame record needs joints")
            joints.add(row["joints"], line_no)
            frame_t.append(t)
            if "gaze" in row:
                gaze.add(row["gaze"], line_no)
        else:
            log.warning("%s:%d: skipping unknown record kind %r", path, line_no, kind)
    _on_clock(frame_t, header.fps, joints.line_nos, path)
    joints, gaze = joints.array(), gaze.array()
    _require(len(joints) >= 2, path, 1, "sequence has fewer than 2 frames")
    _require(abs((len(joints) - 1) - (header.t_e - header.t_start) * header.fps) <= 1.0,
             path, 1, "frame count does not match the header time span")
    _require(len(gaze) in (0, len(joints)), path, 1, "gaze must cover every frame or none")
    _require(header.prime_frame_index < len(joints), path, 1, "prime_frame_index out of range")
    motion = MotionSequence(header.fps, joints.reshape(-1, N_JOINTS, 3),
                            gaze=gaze if len(gaze) else None)
    target = ObjectTarget("goal", point=header.goal)
    event = PrimedEvent(
        InteractionEvent(header.kind, header.t_e, target),
        header.t_p,
        header.prime_mode,
    )
    return PnRSequence(
        id=header.id,
        video_id=header.video_id,
        event=event,
        motion=motion,
        goal_location=header.goal,
        # a copy, so that a kept initial state does not keep every frame
        initial_state=InitialState(motion.joints[0].copy(),
                                   header.initial_velocity.reshape(N_JOINTS, 3)),
        prime_frame_index=header.prime_frame_index,
        flags=header.flags,
    )


# --------------------------------------------------------------------------
# directories


def sequence_paths(path) -> list:
    """The sequence files under a directory, sorted by file name."""
    return sorted(Path(path).glob(f"*{SEQUENCE_SUFFIX}"))


# --------------------------------------------------------------------------
# reports, manifests, labels, sweeps


def write_json(payload: dict, path) -> None:
    Path(path).write_text(_dump(payload) + "\n", encoding="utf-8")


def sweep_csv(thetas_deg, sigmas, grid) -> str:
    """The sweep grid as CSV text, one line per (sigma, theta) cell."""
    lines = ["theta_deg,sigma_s,prime_success_pct"]
    grid = np.asarray(grid)
    for k, sigma in enumerate(sigmas):
        for j, theta in enumerate(thetas_deg):
            lines.append(f"{theta},{sigma},{grid[k, j]!r}")
    return "\n".join(lines) + "\n"


def write_labels(labels, path) -> None:
    write_json(asdict(labels), path)


def write_curation_log(entries, path) -> None:
    """Per-recording drop bookkeeping, deterministic by input order: one
    (recording id, sequence count, drops) entry per recording."""
    recordings = [{"id": rec_id, "n_sequences": n, "drops": [asdict(d) for d in drops]}
                  for rec_id, n, drops in entries]
    write_json({
        "recordings": recordings,
        "totals": {
            "sequences": sum(r["n_sequences"] for r in recordings),
            "drops": sum(len(r["drops"]) for r in recordings),
        },
    }, path)
