"""The recording and sequence file contract, taken from the table under
"Malformed files" in README.md.

Valid recordings and sequences are written here from seeded random
values, one ``json.dumps`` per row, never with pnr's writers. Each table
row has one edit below that breaks its rule at a drawn place, and the
readers must raise exactly the line and reason that the row names. Valid
files must read back bit for bit, and pnr's writers must write them back
as one ``json.dumps`` per row. The oracles are the table, Python's json
module and numpy's float64 conversion, not pnr.
"""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from pnr.cli import main
from pnr.errors import MalformedFile
from pnr.io_jsonl import (
    read_recording,
    read_sequence,
    read_sequence_header,
    write_recording,
    write_sequence,
)

README = Path(__file__).resolve().parent.parent / "README.md"
SUFFIX = {"recording": ".rec.jsonl", "sequence": ".seq.jsonl"}
READ = {"recording": read_recording, "sequence": read_sequence}
WRITE = {"recording": write_recording, "sequence": write_sequence}


def contract():
    """The table's rows as (file, line, reason) keys, in table order."""
    lines = README.read_text(encoding="utf-8").splitlines()
    rows = []
    for line in lines[lines.index("| file | line | violation | reason |") + 2:]:
        if not line.startswith("|"):
            break
        file, at, _, reason = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((file, at, reason.strip("`")))
    return rows


CONTRACT = contract()

# --------------------------------------------------------------------------
# valid files

# Doubles whose spelling is unusual: signed zeros, both ends of the bands
# where orjson spells otherwise than repr, a subnormal, the smallest
# normal, integral values
AWKWARD = [-0.0, 0.0, 1e-7, 1.5e-5, 9.99e-5, 1e-9, 1e-4, 1e16, 1.2345e17, 123456789012345.0,
           5e-324, 2.2250738585072014e-308, 2.0, -3.0, 0.1]
NAMES = ["cup", "mark é", 'b "0" x', "ü", "s p a c e", "é" * 30]


def draw(rng, pool):
    return pool[int(rng.integers(len(pool)))]


def values(rng, n, awkward=True):
    """n floats, a few of them from AWKWARD."""
    v = (rng.normal(size=n) * 3.0).tolist()
    if awkward:
        for i in rng.integers(0, n, size=int(rng.integers(0, min(n, 4) + 1))):
            v[i] = draw(rng, AWKWARD)
    return v


def recording_rows(rng, awkward=True, rec_id=None):
    """The rows of a valid recording, in the order pnr writes them."""
    fps = draw(rng, [30.0, 25.0, 59.94, float(rng.uniform(1.0, 200.0))])
    header = {"schema_version": 1,
              "id": rec_id or draw(rng, [f"rec{int(rng.integers(1000))}-ü x", "é" * 112]),
              "video_id": f"vid {int(rng.integers(50))}", "fps": fps, "up_axis": "y",
              "units": "m/s/rad"}
    ids = [str(x) for x in rng.permutation(NAMES)[: int(rng.integers(1, 4))]]
    rows = [header]
    for oid in ids:
        center, half = values(rng, 3, awkward), np.abs(values(rng, 3, awkward)).tolist()
        box = {"min": [c - h for c, h in zip(center, half)],
               "max": [c + h for c, h in zip(center, half)]}
        rows.append({"k": "object", "id": oid,
                     **({"box": box} if rng.random() < 0.5 else {"point": center})})
    for t in np.cumsum(rng.uniform(0.001, 0.3, int(rng.integers(1, 9)))) + rng.uniform(-1, 1):
        rows.append({"k": "gaze", "t": float(t), "dir_cam": values(rng, 3, False),
                     "cam_pose": {"r": values(rng, 9, False), "t": values(rng, 3, awkward)}})
    n = int(rng.integers(2, 9))
    rows += [{"k": "frame", "t": i / fps, "joints": values(rng, 66, awkward)} for i in range(n)]
    event_t = np.sort(rng.uniform(-1.0, n / fps + 1.0, int(rng.integers(2, 4)))).tolist()
    event_t[1] = draw(rng, event_t[:2])  # event times may repeat
    return rows + [{"k": "event", "kind": draw(rng, ["pick", "put"]), "t_e": t,
                    "object_id": draw(rng, ids)} for t in event_t]


def sequence_rows(rng, awkward=True, seq_id=None):
    """The rows of a valid sequence, in the order pnr writes them."""
    fps, n, t_e = draw(rng, [30.0, 59.94, float(rng.uniform(1.0, 200.0))]), \
        int(rng.integers(2, 9)), float(rng.uniform(0.0, 60.0))
    header = {
        "schema_version": 1,
        "id": seq_id or draw(rng, [f"seq{int(rng.integers(1000))}-é", "x" * 245]),
        "video_id": f"vid {int(rng.integers(50))}", "fps": fps,
        "kind": draw(rng, ["pick", "put"]), "t_p": t_e - float(rng.uniform(0.0, 3.0)), "t_e": t_e,
        "t_start": t_e - (n - 1) / fps, "prime_mode": draw(rng, ["direct_hit", "near_miss"]),
        "goal": values(rng, 3, awkward), "prime_frame_index": int(rng.integers(n)),
        "initial_velocity": values(rng, 66, awkward),
        "flags": [f for f in ("clamped_start", "no_preceding_frame", "é") if rng.random() < 0.3],
    }
    gaze = rng.random() < 0.7
    return [header] + [{"k": "frame", "t": i / fps, "joints": values(rng, 66, awkward),
                        **({"gaze": values(rng, 3, awkward)} if gaze else {})} for i in range(n)]


ROWS = {"recording": recording_rows, "sequence": sequence_rows}
PER_ROW_LISTS = {"recording": (("dir_cam",), ("cam_pose", "r"), ("cam_pose", "t"), ("joints",)),
                 "sequence": (("joints",), ("gaze",))}


def get(row, path):
    for key in path:
        row = row.get(key) if isinstance(row, dict) else None
    return row


def put_in(row, path, value):
    get(row, path[:-1])[path[-1]] = value


def valid_file(kind, rng):
    """A valid file holding its rows as a valid file may also hold them:
    per-row list entries as integers (one beyond 64 bits) or true and
    false, frame 0's time as an integer or a quarter frame off, frame
    times off i / fps by less than a quarter frame, rows of other kinds
    interleaved, rows that are skipped (an unknown kind, a timed object
    row), blank lines, a sequence's frame count one frame off its
    header's time span. Gives the File and the rows."""
    rows = ROWS[kind](rng)
    fps = rows[0]["fps"]
    for row in rows[1:]:
        for path in PER_ROW_LISTS[kind]:
            items = get(row, path)
            if items and rng.random() < 0.3:
                i = int(rng.integers(len(items)))
                items[i] = draw(rng, [True, False, int(items[i]), 98765432109876543210])
        if row["k"] == "frame" and rng.random() < 0.5:
            row["t"] += float(rng.uniform(-0.24, 0.24)) / fps
    first = next(row for row in rows[1:] if row["k"] == "frame")
    first["t"] = draw(rng, [0, 0.25 / fps, -0.25 / fps])
    if kind == "sequence" and rng.random() < 0.3:
        h, n = rows[0], len(rows) - 1
        t_start = h["t_e"] - (n - 1 + draw(rng, [-1, 1])) / fps
        if abs((n - 1) - (h["t_e"] - t_start) * fps) == 1:
            h["t_start"] = t_start
    extra = [{"k": "note", "t": "x"}, {"k": "object", "id": "cup", "t": 0.5, "point": [1, 2, 3]}]
    body = rows[1:] + extra[: int(rng.integers(2 + (kind == "recording")))]
    queues = {}  # interleaved, each kind in its order
    for row in body:
        queues.setdefault(row["k"], []).append(row)
    labels = [row["k"] for row in body]
    rng.shuffle(labels)
    rows[1:] = [queues[k].pop(0) for k in labels]
    lines = [dump(rows[0])]
    for row in rows[1:]:
        lines += [draw(rng, ["", " ", "\t "])] * (rng.random() < 0.15) + [dump(row)]
    return File(kind, lines), rows


RAW = re.compile(r'"@@(.*?)@@"')


def raw(text):
    """A value written as ``text`` itself: JSON that json.dumps cannot write."""
    return f"@@{text}@@"


def dump(row, ascii=False):
    """One row as pnr writes it: json.dumps, compact, non-ASCII unescaped;
    ``ascii`` escapes it, and so can write a lone surrogate."""
    text = json.dumps(row, ensure_ascii=ascii, separators=(",", ":"))
    return RAW.sub(r"\1", text) if "@@" in text else text


class File:
    """The lines of a file under edit: JSON rows, blank lines, and the raw
    text that edits put in."""

    def __init__(self, kind, lines, seed=0):
        self.kind, self.lines, self.seed = kind, lines, seed

    def where(self, k):
        """Indices of the lines holding rows of kind ``k`` ("header"; "row",
        any row after it; "object", one without "t"), in file order."""
        if k == "header":
            return [0]
        found = []
        for i, line in enumerate(self.lines[1:], start=1):
            try:
                row = json.loads(line)
            except ValueError:
                continue
            if k == "row" or isinstance(row, dict) and row.get("k") == k and \
                    not (k == "object" and "t" in row):
                found.append(i)
        return found

    def row(self, i):
        return json.loads(self.lines[i])

    def put(self, i, row, ascii=False):
        self.lines[i] = dump(row, ascii)
        return i + 1

    def delete(self, indices):
        indices = set(indices)
        self.lines = [line for i, line in enumerate(self.lines) if i not in indices]

    def write(self, path):
        text = "".join(f"{line}\n" for line in self.lines)
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        return path


# --------------------------------------------------------------------------
# the edits, one per table row

NOT_NUMBERS = [True, False, "30", "x", None, [1.0], {}]
NON_FINITE = [math.nan, math.inf, -math.inf, raw("1e400"), raw("-1e400"), 10 ** 400, -10 ** 400]
NOT_STRINGS = [None, 7, 1.5, True, ["a"], {}]
SURROGATES = ["a\ud800b", "\udfff", "\ud800", "x\udcff"]
HEADER_NUMBERS = {"recording": ("fps",), "sequence": ("fps", "t_p", "t_e", "t_start")}
HEADER_KEYS = {"recording": ("id", "video_id", "fps"),
               "sequence": ("id", "video_id", "fps", "kind", "t_p", "t_e", "t_start", "prime_mode",
                            "goal", "prime_frame_index", "initial_velocity", "flags")}
TIME_KEY = {"gaze": "t", "frame": "t", "event": "t_e"}
EDITS = []


def edit(file, line, reason, fn=None):
    """Register ``fn`` (or the decorated function) as the edit of the table
    row (file, line, reason). An edit breaks the rule in a File at a drawn
    place and gives the line it broke, or (line, the values of the
    reason's placeholders)."""
    if fn is None:
        return lambda fn: edit(file, line, reason, fn)
    EDITS.append(((file, line, reason), fn))
    return fn


def on_row(k, change, ascii=False):
    """An edit that applies ``change(row, rng)`` to a drawn row of kind ``k``."""
    def fn(f, rng):
        i = draw(rng, f.where(k))
        row = f.row(i)
        change(row, rng)
        return f.put(i, row, ascii)
    return fn


def setter(k, path, pool, ascii=False):
    """An edit that sets ``path`` in a drawn row of kind ``k`` to value
    ``seed`` of ``pool``, in turn."""
    def fn(f, rng):
        value = pool[f.seed % len(pool)]
        return on_row(k, lambda row, rng: put_in(row, path, value), ascii)(f, rng)
    return fn


def dropper(k, *keys):
    """An edit that deletes ``keys`` from a drawn row of kind ``k``."""
    def change(row, rng):
        for key in keys:
            row.pop(key, None)
    return on_row(k, change)


def on_line(change):
    """An edit that replaces a drawn line, the header included, with
    ``change(line, rng)``."""
    def fn(f, rng):
        i = draw(rng, f.where(draw(rng, ["header", "row"])))
        f.lines[i] = change(f.lines[i], rng)
        return i + 1
    return fn


def with_key(text):
    """An unread key holding ``text``, first or last in the line."""
    return lambda line, rng: draw(rng, [f'{{"n":{text},{line[1:]}', f'{line[:-1]},"n":{text}}}'])


@edit("both", "1", "empty file")
def _(f, rng):
    f.lines = [draw(rng, ["", " ", "\t"]) for _ in range(int(rng.integers(3)))]
    return 1


def undecodable(line, rng):
    """``line`` with a byte that UTF-8 cannot decode, as surrogateescape holds it."""
    at = int(rng.integers(len(line)))
    return line[:at] + draw(rng, ["\udcff", "\udc80", "\udcc3"]) + line[at:]


edit("both", "row", "not valid UTF-8", on_line(undecodable))
edit("both", "row", "integer with too many digits", on_line(with_key("7" * 4400)))
edit("both", "row", "JSON nested too deeply",
     on_line(with_key("[" * 100_000 + "]" * 100_000)))


@edit("both", "row", "invalid JSON: {msg}")
def _(f, rng):
    i = draw(rng, f.where(draw(rng, ["header", "row"])))
    f.lines[i] = draw(rng, [f.lines[i][:c] for c in range(1, len(f.lines[i]))
                            if not f.lines[i][c - 1].isspace()])
    try:
        json.loads(f.lines[i])
    except json.JSONDecodeError as exc:
        return i + 1, {"msg": exc.msg}


@edit("both", "1", "first line must be the header")
def _(f, rng):
    header = {k: v for k, v in f.row(0).items() if k != "schema_version"}
    f.lines[0] = draw(rng, [dump(header), "[1,2]", '"x"', "7", "null"])
    if rng.random() < 0.3:  # a data row first
        j = draw(rng, f.where("row"))
        f.lines[0], f.lines[j] = f.lines[j], dump(header)
    return 1


@edit("both", "row", "record must be a JSON object")
def _(f, rng):
    i = draw(rng, f.where("row"))
    f.lines[i] = draw(rng, ["[1,2]", '"x"', "7", "null"])
    return i + 1


@edit("both", "1", "header missing {key}")
def _(f, rng):
    key = HEADER_KEYS[f.kind][f.seed % len(HEADER_KEYS[f.kind])]
    return dropper("header", key)(f, rng), {"key": key}


@edit("both", "1", "{key} must be a number")
def _(f, rng):
    key = HEADER_NUMBERS[f.kind][f.seed % len(HEADER_NUMBERS[f.kind])]
    return setter("header", (key,), NOT_NUMBERS)(f, rng), {"key": key}


@edit("both", "1", "non-finite {key}")
def _(f, rng):
    key = HEADER_NUMBERS[f.kind][f.seed % len(HEADER_NUMBERS[f.kind])]
    return setter("header", (key,), NON_FINITE)(f, rng), {"key": key}


for file, key, reason, pool, ascii in [
    ("both", "fps", "fps must be positive", [0, 0.0, -0.0, -1, -29.97, -5e-324], False),
    ("both", "id", "id must be a string", NOT_STRINGS, False),
    ("both", "video_id", "video_id must be a string", NOT_STRINGS, False),
    ("both", "id", "id holds a lone surrogate", SURROGATES, True),
    ("both", "video_id", "video_id holds a lone surrogate", SURROGATES, True),
    ("both", "id", "id must be a file name: no /, NUL, . or ..",
     ["../evil", "..", ".", "a/b", "a\0b", "/"], False),
    ("recording", "id", "id too long for a file name: more than 224 bytes in UTF-8",
     ["x" * 225, "é" * 112 + "x", "\U0001f600" * 56 + "x"], False),
    ("sequence", "id", "id too long for a file name: more than 245 bytes in UTF-8",
     ["x" * 246, "é" * 123, "é" * 122 + "xx"], False),
    ("sequence", "kind", "kind must be pick or put", ["wave", "Pick", None, 7, ["pick"]], False),
    ("sequence", "prime_mode", "prime_mode must be direct_hit or near_miss",
     ["bogus", "Direct_hit", None, 5], False),
    ("sequence", "prime_frame_index", "prime_frame_index must be an integer",
     [3.7, 2.0, "12", True, False, None, [1]], False),
    ("sequence", "prime_frame_index", "prime_frame_index out of range", [-1, -7, -2 ** 70], False),
    ("sequence", "flags", "flags must be a list", ["abc", 7, None, {}, True], False),
    ("sequence", "flags", "flags must be a list of strings", [["a", 1], [None], [["x"]], [True]],
     False),
    ("sequence", "flags", "flags hold a lone surrogate", [["ok", "a\ud800"], ["\udfff"]], True),
]:
    edit(file, "1", reason, setter("header", (key,), pool, ascii))


@edit("sequence", "1 (end)", "prime_frame_index out of range")
def _(f, rng):
    n = len(f.where("frame"))
    return setter("header", ("prime_frame_index",), [n, n + 1, n + 5, 2 ** 70])(f, rng)


def shaped(row, path):
    """``row`` carrying ``path``: an object turned into a box or a point."""
    if path[0] == "box" and "box" not in row:
        row["box"] = {"min": row["point"], "max": list(row.pop("point"))}
    elif path == ("point",) and "point" not in row:
        row["point"] = row.pop("box")["min"]
    return row


def list_edit(k, path, change):
    """An edit that sets the list at ``path`` of a drawn row of kind ``k``,
    or of every such row alike, to ``change(rng, a copy of it)``; a
    sequence's frames all get gaze first when ``path`` is their gaze."""
    def fn(f, rng):
        for j in f.where("frame") if path == ("gaze",) else ():
            f.put(j, {"gaze": [0.5, 0.25, 1.0], **f.row(j)})
        rows = f.where(k) if rng.random() < 0.3 else [draw(rng, f.where(k))]
        seed = int(rng.integers(2 ** 32))
        for i in rows:
            row = shaped(f.row(i), path)
            put_in(row, path, change(np.random.default_rng(seed), list(get(row, path))))
            f.put(i, row)
        return rows[0] + 1
    return fn


def with_item(pool):
    """A change that puts a value from ``pool`` at a drawn place in the list."""
    def change(rng, items):
        items[int(rng.integers(len(items)))] = draw(rng, pool)
        return items
    return change


def misshapen(rng, items):
    """A list of the wrong length, the list nested, or a number in its place."""
    n = len(items)
    return draw(rng, [items[: int(rng.integers(n))], items + values(rng, int(rng.integers(1, 4))),
                      [[v] for v in items], [items[j:j + 3] for j in range(0, n, 3)],
                      draw(rng, [7, 0.5, -2.0, 0])])


# the lists of numbers: (file, row kind, key path, entries, name in the
# reasons, name in the non-finite reason, whether true and false are refused)
for file, k, path, n, name, what, no_bools in [
    ("sequence", "header", ("goal",), 3, "goal", "goal", True),
    ("sequence", "header", ("initial_velocity",), 66, "initial_velocity", "initial velocity",
     True),
    ("both", "frame", ("joints",), 66, "joints", "joints", False),
    ("sequence", "frame", ("gaze",), 3, "gaze", "gaze", False),
    ("recording", "gaze", ("dir_cam",), 3, "dir_cam", "gaze direction", False),
    ("recording", "gaze", ("cam_pose", "r"), 9, "cam_pose.r", "cam rotation", False),
    ("recording", "gaze", ("cam_pose", "t"), 3, "cam_pose.t", "cam translation", False),
    ("recording", "object", ("box", "min"), 3, "box min", "box min", True),
    ("recording", "object", ("box", "max"), 3, "box max", "box max", True),
    ("recording", "object", ("point",), 3, "point", "point", True),
]:
    line = "1" if k == "header" else "row"
    not_numbers = with_item(["1.5", "x", [1.0], {}] + [True, False] * no_bools)
    edit(file, line, f"{name} must be a list of numbers", list_edit(
        k, path, lambda rng, items, change=not_numbers: draw(rng, [{}, change(rng, items)])))
    edit(file, line, f"non-finite {what}", list_edit(k, path, with_item(
        [math.nan, math.inf, -math.inf, raw("1e400"), 10 ** 400, -10 ** 400, None])))
    if path[0] != "box":
        edit(file, line, f"{name} must have {n} entries", list_edit(k, path, misshapen))


@edit("both", "row", "record missing time")
def _(f, rng):
    k = draw(rng, ["gaze", "frame", "event"] if f.kind == "recording" else ["frame"])
    if rng.random() < 0.3:
        return dropper(k, TIME_KEY[k])(f, rng)
    return setter(k, (TIME_KEY[k],), NOT_NUMBERS)(f, rng)


def before(k, equal=False):
    """An edit that puts the time of a drawn row of kind ``k`` below that of
    the row of its kind before it, or equal to it."""
    def fn(f, rng):
        rows = f.where(k)
        if len(rows) == 1:  # a second row, a copy of the first
            f.lines.insert(rows[0] + 1, f.lines[rows[0]])
            rows = f.where(k)
        j = int(rng.integers(1, len(rows)))
        prev = f.row(rows[j - 1])[TIME_KEY[k]]
        t = prev if equal else draw(rng, [float(np.nextafter(prev, -np.inf)), prev - 0.5])
        return f.put(rows[j], dict(f.row(rows[j]), **{TIME_KEY[k]: t}))
    return fn


for file, k in [("recording", "gaze"), ("both", "frame"), ("recording", "event")]:
    edit(file, "row", f"non-finite {k} time", setter(k, (TIME_KEY[k],), NON_FINITE))
    edit(file, "row", f"{k} times must be non-decreasing", before(k))
edit("recording", "row", "gaze times must be strictly increasing", before("gaze", equal=True))


@edit("both", "row", "frame time must be its index / fps, within 0.25 / fps")
def _(f, rng):
    # valid_file puts frames within 0.24 / fps of i / fps
    fps, rows = f.row(0)["fps"], f.where("frame")
    j = int(rng.integers(len(rows) - 1))
    choice = int(rng.integers(3))
    if choice == 0:  # one frame a quarter to half a frame off
        t = j / fps + draw(rng, [1, -1]) * float(rng.uniform(0.26, 0.5)) / fps
        return f.put(rows[j], dict(f.row(rows[j]), t=t))
    if choice == 1:  # every frame from j on later, or every frame earlier
        shift = (float(rng.uniform(0.5, 2.0)) / fps + draw(rng, [0.0, 5.0])) * \
            (draw(rng, [1, -1]) if j == 0 else 1)
        for i in rows[j:]:
            f.put(i, dict(f.row(i), t=f.row(i)["t"] + shift))
        return rows[j] + 1
    f.delete([rows[j]])  # a frame left out
    return f.where("frame")[j] + 1


edit("both", "row", "frame record needs joints", dropper("frame", "joints"))


@edit("sequence", "1 (end)", "sequence has fewer than 2 frames")
@edit("recording", "1 (end)", "recording has fewer than 2 frames")
def _(f, rng):
    f.delete(f.where("frame")[int(rng.integers(2)):])
    return 1


@edit("sequence", "1 (end)", "frame count does not match the header time span")
def _(f, rng):
    header, n = f.row(0), len(f.where("frame"))
    off = float(rng.uniform(1.5, 5.0)) * draw(rng, [1, -1])
    return f.put(0, dict(header, t_start=header["t_e"] - (n - 1 + off) / header["fps"]))


@edit("sequence", "1 (end)", "gaze must cover every frame or none")
def _(f, rng):
    rows = f.where("frame")
    for i in rng.permutation(rows)[: int(rng.integers(1, len(rows)))]:
        row = f.row(i)
        if row.pop("gaze", None) is None:
            row["gaze"] = [0.5, 0.25, 1.0]
        f.put(i, row)
    return 1


@edit("recording", "row", "gaze record needs dir_cam and cam_pose")
def _(f, rng):
    return dropper("gaze", *draw(rng, [("dir_cam",), ("cam_pose",), ("dir_cam", "cam_pose")]))(
        f, rng)


edit("recording", "row", "cam_pose needs r and t", on_row("gaze", lambda row, rng: row.update(
    cam_pose=draw(rng, [[1.0, 2.0], "x", None, {}, {"r": row["cam_pose"]["r"]},
                        {"t": row["cam_pose"]["t"]}]))))
edit("recording", "row", "gaze direction is zero in the world frame", on_row(
    "gaze", lambda row, rng: row.update(draw(rng, [
        {"dir_cam": [0.0, 0.0, 0.0]}, {"dir_cam": [0.0, -0.0, 0.0]},
        {"dir_cam": [1e-12, 0.0, -1e-13]}, {"cam_pose": {"r": [0.0] * 9, "t": [0, 0, 0]}}]))))


@edit("recording", "1 (end)", "recording has no gaze samples")
def _(f, rng):
    f.delete(f.where("gaze"))
    return 1


@edit("recording", "row", "object record needs id")
def _(f, rng):
    return draw(rng, [dropper("object", "id"),
                      setter("object", ("id",), [7, None, ["cup"], True])])(f, rng)


@edit("recording", "row", "duplicate object id {id}")
def _(f, rng):
    i = draw(rng, f.where("object"))
    row = f.row(i)
    j = int(rng.integers(i + 1, len(f.lines) + 1))
    f.lines.insert(j, dump(dict(row, point=values(rng, 3)) if "point" in row else row))
    return j + 1, {"id": repr(row["id"])}


edit("recording", "row", "object record needs box or point", dropper("object", "box", "point"))
edit("recording", "row", "box needs min and max", on_row("object", lambda row, rng: row.update(
    box=draw(rng, [[1.0, 2.0], "x", None, {}, {"min": [0, 0, 0]}, {"max": [0, 0, 0]}]))))


def exceeding(row, rng):
    box = shaped(row, ("box",))["box"]
    a = int(rng.integers(3))
    top = box["max"][a]
    if rng.random() < 0.2:  # one min entry, above some max entry
        box["min"] = [top + 1.0 + abs(top)]
    else:
        box["min"][a] = draw(rng, [float(np.nextafter(top, np.inf)), top + 1.0 + abs(top)])


def cornered(row, rng):
    box = shaped(row, ("box",))["box"]
    corner, n = draw(rng, ["min", "max"]), draw(rng, [0, 1, 2, 4, 5])
    # one entry neither above the max nor below the min
    box[corner] = [min(box["max"]) if corner == "min" else max(box["min"])] if n == 1 else \
        (box[corner] * 2)[:n]


edit("recording", "row", "box min exceeds max", on_row("object", exceeding))
edit("recording", "row", "box corners must have 3 entries", on_row("object", cornered))


@edit("recording", "row", "event kind must be pick or put")
def _(f, rng):
    return draw(rng, [dropper("event", "kind"),
                      setter("event", ("kind",), ["wave", "Pick", None, 7])])(f, rng)


edit("recording", "row", "event needs object_id", dropper("event", "object_id"))


@edit("recording", "row", "event references unknown object {id}")
def _(f, rng):
    oid = ["ghost", 7, None, ["cup"]][f.seed % 4]
    return setter("event", ("object_id",), [oid])(f, rng), {"id": repr(oid)}


CASES = [(kind, key) for key in CONTRACT
         for kind in (["recording", "sequence"] if key[0] == "both" else [key[0]])]


def broken(kind, key, seed, rng):
    """A valid file broken by the edit of table row ``key``: (File, the line
    and the reason that the row names). An edit with a list of values or
    header keys takes entry ``seed`` in turn."""
    f, _ = valid_file(kind, rng)
    f.seed = seed
    got = dict(EDITS)[key](f, rng)
    at, subs = got if isinstance(got, tuple) else (got, {})
    return f, 1 if key[1].startswith("1") else at, key[2].format(**subs)


def test_each_table_row_has_one_edit_and_each_edit_a_row():
    keys = [key for key, _ in EDITS]
    assert len(set(keys)) == len(keys) and len(set(CONTRACT)) == len(CONTRACT)
    assert set(keys) == set(CONTRACT)
    assert {file for file, _, _ in CONTRACT} == {"both", "recording", "sequence"}
    assert {line for _, line, _ in CONTRACT} == {"1", "1 (end)", "row"}


@pytest.mark.parametrize("kind, key", CASES,
                         ids=[f"{kind}-{key[1]}-{key[2]}".replace(" ", "_") for kind, key in CASES])
def test_violation_reported_at_its_line(kind, key, tmp_path):
    # split reads line 1 alone (read_sequence_header) and sees line-1 rules
    reads = [READ[kind]] + [read_sequence_header] * (kind == "sequence" and key[1] == "1")
    for seed in range(12 if "{key}" in key[2] else 8):
        rng = np.random.default_rng([seed, CASES.index((kind, key))])
        f, line, reason = broken(kind, key, seed, rng)
        path = f.write(tmp_path / f"case{seed}{SUFFIX[kind]}")
        for read in reads:
            with pytest.raises(MalformedFile) as err:
                read(path)
            assert (err.value.line_no, err.value.reason) == (line, reason), (seed, read)
            assert str(err.value) == f"{path}:{line}: {reason}"



@pytest.mark.parametrize("kind, k, path, what", [
    ("recording", "frame", ("joints",), "joints"),
    ("recording", "gaze", ("dir_cam",), "gaze direction"),
    ("recording", "object", ("point",), "point"),
    ("sequence", "header", ("goal",), "goal"),
    ("sequence", "frame", ("gaze",), "gaze"),
], ids=["recording-joints", "recording-dir_cam", "recording-point", "sequence-goal",
        "sequence-gaze"])
def test_integer_beyond_the_float_range_in_a_list_is_non_finite(kind, k, path, what, tmp_path):
    # an integer of 400 digits in a list reads as 1e400 does, and as it
    # does as a header number or a row time
    for value in (10 ** 400, -10 ** 400):
        f, _ = valid_file(kind, np.random.default_rng(3001))
        for j in f.where("frame") if path == ("gaze",) else ():
            f.put(j, {"gaze": [0.5, 0.25, 1.0], **f.row(j)})
        i = f.where(k)[-1]
        row = shaped(f.row(i), path)
        get(row, path)[1] = value
        f.put(i, row)
        with pytest.raises(MalformedFile) as err:
            READ[kind](f.write(tmp_path / f"big{SUFFIX[kind]}"))
        assert (err.value.line_no, err.value.reason) == (i + 1, f"non-finite {what}")

# --------------------------------------------------------------------------
# valid files read back, and the writers write one json.dumps per row


def bits(a):
    return np.asarray(a, dtype=np.float64).tobytes()


def expect_recording(rec, rows):
    header, gaze, frames, events = rows[0], *([r for r in rows if r.get("k") == k]
                                              for k in ("gaze", "frame", "event"))
    objects = [r for r in rows if r.get("k") == "object" and "t" not in r]
    assert (rec.id, rec.video_id) == (header["id"], header["video_id"])
    assert bits(rec.motion.fps) == bits(header["fps"])
    assert bits(rec.motion.joints) == bits([r["joints"] for r in frames])
    for got, path in ((rec.gaze.times, ("t",)), (rec.gaze.points_cam, ("dir_cam",)),
                      (rec.gaze.rotations, ("cam_pose", "r")),
                      (rec.gaze.translations, ("cam_pose", "t"))):
        assert bits(got) == bits([get(r, path) for r in gaze]), path
    assert list(rec.objects) == [r["id"] for r in objects]
    for r in objects:
        target = rec.objects[r["id"]]
        box = target.box
        assert bits([box.min, box.max] if box else target.point) == \
            bits([r["box"]["min"], r["box"]["max"]] if "box" in r else r["point"])
    assert [(e.kind, e.target.id) for e in rec.events] == \
        [(r["kind"], r["object_id"]) for r in events]
    assert all(e.target is rec.objects[e.target.id] for e in rec.events)
    assert bits([e.t_e for e in rec.events]) == bits([r["t_e"] for r in events])


def expect_sequence(seq, rows):
    header, frames = rows[0], [r for r in rows[1:] if r["k"] == "frame"]
    assert (seq.id, seq.video_id, seq.event.event.kind, seq.event.prime_mode, seq.flags,
            seq.prime_frame_index) == (header["id"], header["video_id"], header["kind"],
                                       header["prime_mode"], tuple(header["flags"]),
                                       header["prime_frame_index"])
    for got, key in ((seq.motion.fps, "fps"), (seq.t_p, "t_p"), (seq.t_e, "t_e"),
                     (seq.goal_location, "goal"), (seq.initial_state.velocity, "initial_velocity")):
        assert bits(got) == bits(header[key]), key
    assert bits(seq.motion.joints) == bits([r["joints"] for r in frames])
    assert bits(seq.initial_state.pose) == bits(frames[0]["joints"])
    gaze = [r["gaze"] for r in frames if "gaze" in r]
    assert (seq.motion.gaze is None) == (not gaze)
    assert not gaze or bits(seq.motion.gaze) == bits(gaze)


@pytest.mark.parametrize("kind, expect", [("recording", expect_recording),
                                          ("sequence", expect_sequence)])
def test_valid_file_reads_back_bit_for_bit(kind, expect, tmp_path, caplog):
    skips = {"note": "unknown record kind 'note'", "object": "timed object record"}
    for seed in range(30):
        f, rows = valid_file(kind, np.random.default_rng([seed, 1]))
        path = f.write(tmp_path / f"valid{seed}{SUFFIX[kind]}")
        caplog.clear()
        with caplog.at_level("WARNING", logger="pnr.io_jsonl"):
            expect(READ[kind](path), rows)
        # each skipped row is named with its line
        at = [(i + 1, json.loads(line)) for i, line in enumerate(f.lines) if line.strip()]
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}:{i}: skipping {skips[row['k']]}" for i, row in at
            if row.get("k") == "note" or row.get("k") == "object" and "t" in row]
        if kind == "sequence":
            assert read_sequence_header(path).id == rows[0]["id"]


@pytest.mark.parametrize("kind", ["recording", "sequence"])
def test_writer_writes_one_json_dumps_per_row(kind, tmp_path):
    for seed in range(30):
        rows = ROWS[kind](np.random.default_rng([seed, 2]))
        text = "".join(json.dumps(row, ensure_ascii=False, separators=(",", ":")) + "\n"
                       for row in rows)
        path, back = tmp_path / f"valid{SUFFIX[kind]}", tmp_path / f"back{SUFFIX[kind]}"
        path.write_text(text, encoding="utf-8")
        WRITE[kind](READ[kind](path), back)
        assert back.read_text(encoding="utf-8") == text


# --------------------------------------------------------------------------
# the CLI: exit 2 with path:line: reason, once per file kind


def cli_dir(tmp_path, kind, rng, rules):
    """Files a and c valid, b broken by a drawn table row whose line is in
    ``rules``: (the directory, the error line for b)."""
    in_dir = tmp_path / "in"
    in_dir.mkdir()
    for name in ("a", "c"):
        rows = ROWS[kind](rng, False, f"good-{name}")
        File(kind, [dump(row) for row in rows]).write(in_dir / f"{name}{SUFFIX[kind]}")
    key = draw(rng, [key for k, key in CASES if k == kind and key[1] in rules])
    f, line, reason = broken(kind, key, 0, rng)
    return in_dir, f"error: {f.write(in_dir / f'b{SUFFIX[kind]}')}:{line}: {reason}"


def test_curate_reports_a_bad_recording_and_curates_the_others(tmp_path, capsys):
    in_dir, error = cli_dir(tmp_path, "recording", np.random.default_rng(2701),
                            ("1", "1 (end)", "row"))
    assert main(["curate", "--in", str(in_dir), "--out", str(tmp_path / "out")]) == 2
    assert [e for e in capsys.readouterr().err.splitlines() if e.startswith("error: ")] == [error]
    log = json.loads((tmp_path / "out" / "curation_log.json").read_text(encoding="utf-8"))
    assert [r["id"] for r in log["recordings"]] == ["good-a", "good-c"]


def test_stats_and_split_report_a_bad_sequence_header(tmp_path, capsys):
    # split reads line 1 alone, and reports a broken line-1 rule as stats does
    in_dir, error = cli_dir(tmp_path, "sequence", np.random.default_rng(2702), ("1",))
    for argv in (["stats"], ["split", "--seed", "1"]):
        assert main(argv + ["--in", str(in_dir)]) == 2
        assert capsys.readouterr() == ("", error + "\n")
