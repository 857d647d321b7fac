"""The per-file readers and writers of pnr.io_jsonl on a hand-made corpus:
awkward doubles, ids holding U+2028, rows that repeat the row before bit
for bit or only under ==, a 150-frame static prediction.

The reference for the writers is ``json.dumps``: every line they write
must be one ``json.dumps`` of its own parse. Readers must give back the
values written. The readers parse gaze and frame rows with orjson and
fall back to ``json.loads`` (``io._loads``); the text-level edits of
``_repeat_edit`` and the character edits of
``test_loads_agrees_with_json_loads`` put odd times, keys and numbers
into such rows, and every parsed row must then equal ``json.loads`` of
its line, which is the oracle here. The file contract's violations are
checked row by row in ``test_file_contract.py``.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnr import io_jsonl as io
from pnr.curation import InitialState, PnRSequence, Recording, curate
from pnr.errors import MalformedFile
from pnr.gaze import GazeTrack, InteractionEvent, ObjectTarget, PrimedEvent
from pnr.geometry import Aabb
from pnr.motion import MotionSequence
from pnr.synth import ScenarioSpec, generate_scenario, static_baseline

# Ids carry non-ASCII characters and U+2028, which the writers leave
# unescaped and a reader must not treat as a line break.
# Full-precision values plus ones whose repr is unusual: signed zero,
# exponent forms at both ends, a subnormal and integral floats
AWKWARD = [-0.0, 1e-7, 1.5e-5, 1e16, 123456789012345.0, 5e-324, 2.0, -3.0, 0.1]


def _values(rng, shape):
    v = rng.normal(size=shape) * 3.0
    flat = v.reshape(-1)
    flat[: len(AWKWARD)] = AWKWARD[: flat.size]
    return v


def small_recording(seed=0, n_gaze=7, n_frames=6):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.01, 0.05, n_gaze))
    gaze = GazeTrack(times, _values(rng, (n_gaze, 3)), _values(rng, (n_gaze, 3, 3)),
                     _values(rng, (n_gaze, 3)))
    cup = ObjectTarget("cup", box=Aabb.from_center(_values(rng, 3), np.abs(_values(rng, 3))))
    mark = ObjectTarget("mark\u2028\u00e9", point=_values(rng, 3))
    return Recording(
        id=f"rec{seed}-\u00fc\u2028x",
        video_id=f"vid{seed}",
        gaze=gaze,
        motion=MotionSequence(30.0, _values(rng, (n_frames, 22, 3))),
        objects={"cup": cup, "mark\u2028\u00e9": mark},
        events=[InteractionEvent("put", 0.2, mark), InteractionEvent("pick", 0.1, cup)],
    )


def with_timed_rows(lines):
    """The lines of a written recording with four timed object rows (points
    of an object trajectory, which the readers skip) after its object rows."""
    rows = [json.dumps({"k": "object", "id": "cup", "t": 0.25 * k,
                        "point": [AWKWARD[k], 1.0, -2.5]}, separators=(",", ":"))
            for k in range(4)]
    at = max(i for i, line in enumerate(lines) if '"k":"object"' in line) + 1
    return lines[:at] + rows + lines[at:]


def small_sequence(seed=0, n_frames=6, with_gaze=True):
    rng = np.random.default_rng(seed)
    motion = MotionSequence(30.0, _values(rng, (n_frames, 22, 3)),
                            gaze=_values(rng, (n_frames, 3)) if with_gaze else None)
    goal = _values(rng, 3)
    t_e = 2.0 + 1.0 / 3.0
    event = PrimedEvent(InteractionEvent("pick", t_e, ObjectTarget("goal", point=goal)),
                        t_e - 0.1, "near_miss")
    return PnRSequence(
        id=f"seq{seed}-é", video_id=f"vid{seed}", event=event, motion=motion,
        goal_location=goal,
        initial_state=InitialState(motion.joints[0], _values(rng, (22, 3))),
        prime_frame_index=2, flags=("clamped_start",) if seed % 2 else (),
    )


def held(values, rows):
    """A copy of ``values`` in which each listed row repeats the row before
    bit for bit: a held pose, a camera at rest, a fixed gaze direction."""
    values = np.array(values)
    for i in rows:
        values[i] = values[i - 1]
    return values


def zero_flipped(values):
    """A copy of ``values`` whose row 1 is row 0 with its leading -0.0
    (AWKWARD[0]) written as 0.0: equal under ==, different in its bits, so
    a writer must not reuse row 0's text for it."""
    values = np.array(values)
    values[1] = values[0]
    values[1].flat[0] = 0.0
    assert np.array_equal(values[1], values[0]) and np.signbit(values[0].flat[0])
    return values


def with_tracks(rec, joints, points_cam, rotations, translations):
    return replace(rec, motion=MotionSequence(rec.motion.fps, joints),
                   gaze=GazeTrack(rec.gaze.times, points_cam, rotations, translations))


def with_motion(seq, motion):
    """``seq`` carrying ``motion``, with the initial pose that a reader takes
    from its first frame."""
    return replace(seq, motion=motion,
                   initial_state=InitialState(motion.joints[0], seq.initial_state.velocity))


def corpus():
    rec, _ = generate_scenario(ScenarioSpec(seed=3, prime_mode="near_miss"))
    seq = curate(rec).sequences[0]
    small = small_recording(2, n_gaze=9, n_frames=8)
    g = small.gaze
    recordings = [
        small_recording(0), small_recording(1), rec, replace(rec, events=[]),
        # held frames, and a gaze track whose directions and camera poses
        # repeat, each field in its own rows
        with_tracks(small, held(small.motion.joints, (2, 3, 4, 7)), held(g.points_cam, (1, 2)),
                    held(g.rotations, (2, 3, 4, 8)), held(g.translations, (5, 6, 7))),
        # a row that equals the one before only under ==, in every field
        with_tracks(small, *map(zero_flipped, (small.motion.joints, g.points_cam,
                                               g.rotations, g.translations))),
    ]
    other = small_sequence(2, n_frames=8)
    sequences = [
        small_sequence(0), small_sequence(1, with_gaze=False), seq,
        replace(seq, motion=MotionSequence(seq.motion.fps, seq.motion.joints)),
        with_motion(other, MotionSequence(30.0, held(other.motion.joints, (2, 3, 4, 7)),
                                          held(other.motion.gaze, (3, 4, 5)))),
        with_motion(other, MotionSequence(30.0, zero_flipped(other.motion.joints),
                                          zero_flipped(other.motion.gaze))),
        with_motion(seq, static_baseline([seq], n=150, fps=seq.motion.fps)),
    ]
    return recordings, sequences


RECORDINGS, SEQUENCES = corpus()


def same(a, b):
    """Equal bit for bit, so -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_recordings_equal(a, b):
    assert (a.id, a.video_id) == (b.id, b.video_id)
    assert same(a.motion.fps, b.motion.fps) and same(a.motion.joints, b.motion.joints)
    for name in ("times", "points_cam", "rotations", "translations"):
        assert same(getattr(a.gaze, name), getattr(b.gaze, name))
    assert list(a.objects) == list(b.objects)
    for oid, ta in a.objects.items():
        tb = b.objects[oid]
        assert ta.id == tb.id and (ta.box is None) == (tb.box is None)
        if ta.box is None:
            assert same(ta.point, tb.point)
        else:
            assert same(ta.box.min, tb.box.min) and same(ta.box.max, tb.box.max)
    assert [(e.kind, e.target.id) for e in a.events] == [(e.kind, e.target.id) for e in b.events]
    assert same([e.t_e for e in a.events], [e.t_e for e in b.events])


def assert_sequences_equal(a, b):
    assert (a.id, a.video_id, a.event.event.kind, a.event.prime_mode, a.flags) == \
        (b.id, b.video_id, b.event.event.kind, b.event.prime_mode, b.flags)
    assert a.prime_frame_index == b.prime_frame_index
    assert same(a.t_p, b.t_p) and same(a.t_e, b.t_e) and same(a.motion.fps, b.motion.fps)
    assert same(a.motion.joints, b.motion.joints)
    assert (a.motion.gaze is None) == (b.motion.gaze is None)
    if a.motion.gaze is not None:
        assert same(a.motion.gaze, b.motion.gaze)
    assert same(a.goal_location, b.goal_location)
    assert same(a.initial_state.pose, b.initial_state.pose)
    assert same(a.initial_state.velocity, b.initial_state.velocity)


def assert_one_json_dumps_per_row(path):
    for line in path.read_text(encoding="utf-8").split("\n")[:-1]:
        assert json.dumps(json.loads(line), ensure_ascii=False, separators=(",", ":")) == line


@pytest.mark.parametrize("i", range(len(RECORDINGS)))
def test_write_recording_bytes_match_reference(i, tmp_path):
    io.write_recording(RECORDINGS[i], tmp_path / "r.rec.jsonl")
    assert_one_json_dumps_per_row(tmp_path / "r.rec.jsonl")


@pytest.mark.parametrize("i", range(len(SEQUENCES)))
def test_write_sequence_bytes_match_reference(i, tmp_path):
    io.write_sequence(SEQUENCES[i], tmp_path / "s.seq.jsonl")
    assert_one_json_dumps_per_row(tmp_path / "s.seq.jsonl")


@pytest.mark.parametrize("i", range(len(RECORDINGS)))
def test_read_recording_matches_reference(i, tmp_path):
    p = tmp_path / "r.rec.jsonl"
    io.write_recording(RECORDINGS[i], p)
    lines = p.read_text(encoding="utf-8").split("\n")[:-1]
    p.write_text("\n".join(with_timed_rows(lines)) + "\n", encoding="utf-8")
    rec = RECORDINGS[i]
    written = replace(rec, events=sorted(rec.events, key=lambda e: e.t_e))
    assert_recordings_equal(io.read_recording(p), written)


@pytest.mark.parametrize("i", range(len(SEQUENCES)))
def test_read_sequence_matches_reference(i, tmp_path):
    p = tmp_path / "s.seq.jsonl"
    io.write_sequence(SEQUENCES[i], p)
    assert_sequences_equal(io.read_sequence(p), SEQUENCES[i])


@pytest.mark.parametrize("item, reason", [(float("inf"), "non-finite joints"),
                                          ("x", "joints must be a list of numbers")])
@pytest.mark.parametrize("frame", [0, 63, 64, 128, -1])
def test_bad_joint_reported_at_its_line(frame, item, reason, tmp_path):
    seq = SEQUENCES[2]
    frame %= seq.motion.n_frames
    p = tmp_path / "s.seq.jsonl"
    io.write_sequence(seq, p)
    lines = p.read_text(encoding="utf-8").split("\n")
    row = json.loads(lines[1 + frame])
    row["joints"][5] = item
    lines[1 + frame] = json.dumps(row)
    p.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(MalformedFile) as err:
        io.read_sequence(p)
    assert (err.value.line_no, err.value.reason) == (frame + 2, reason)


def test_nested_lists_rejected(tmp_path):
    # A row-wise reader once accepted joints written as 22 lists of 3, as they have
    # 66 numbers in all; the schema writes flat lists, and so must a file.
    # 66 lists of one number in every row once passed the bulk conversion.
    p = tmp_path / "nested.rec.jsonl"
    io.write_recording(RECORDINGS[0], p)
    clean = p.read_text(encoding="utf-8").split("\n")
    frames = [i for i, line in enumerate(clean) if '"k":"frame"' in line]
    for shape in ((22, 3), (66, 1)):
        lines = list(clean)
        for i in frames:
            row = json.loads(lines[i])
            row["joints"] = np.reshape(row["joints"], shape).tolist()
            lines[i] = json.dumps(row)
        p.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(MalformedFile) as err:
            io.read_recording(p)
        assert (err.value.line_no, err.value.reason) == \
            (frames[0] + 1, "joints must have 66 entries")


def test_zero_fps_sequence_rejected(tmp_path):
    p = tmp_path / "still.seq.jsonl"
    io.write_sequence(small_sequence(n_frames=2), p)
    lines = p.read_text(encoding="utf-8").split("\n")
    header = json.loads(lines[0])
    header["fps"] = 0
    lines[0] = json.dumps(header)
    p.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(MalformedFile) as err:
        io.read_sequence(p)
    assert (err.value.line_no, err.value.reason) == (1, "fps must be positive")


@pytest.mark.parametrize("fps", [0, -1, -0.0, -30.0])
@pytest.mark.parametrize("i", [0, 2, 6])
def test_non_positive_fps_reported_as_such(i, fps, tmp_path):
    # checked before the frame count, which such an fps fails too
    p = tmp_path / "s.seq.jsonl"
    io.write_sequence(SEQUENCES[i], p)
    lines = p.read_text(encoding="utf-8").split("\n")
    lines[0] = json.dumps(dict(json.loads(lines[0]), fps=fps), separators=(",", ":"))
    p.write_text("\n".join(lines), encoding="utf-8")
    for read in (io.read_sequence, io.read_sequence_header):
        with pytest.raises(MalformedFile) as err:
            read(p)
        assert (err.value.line_no, err.value.reason) == (1, "fps must be positive")


# --------------------------------------------------------------------------
# edited rows parse as json.loads parses them

# The heads of the rows that the writers build from templates; the time
# follows, up to the first comma.
HEADS = ('{"k":"gaze","t":', '{"k":"frame","t":')
# Time texts: valid JSON numbers of either type, texts that JSON refuses
# or reads as another value, and values whose text holds a comma
TIMES = ["1", "-0", "0", "2E-1", "1e400", "-1.5e-7", "0.30000000000000004", "1.", "+1",
         "01", ".5", "1e", "-", "1 ", "NaN", "Infinity", "-Infinity", "null", "true",
         '"0.5"', '"0,5"', '"1,5"', "[0,1]", "[2,1]", "2,1]", "1" + "0" * 400,
         # integers at the 64-bit edges, past which orjson reads a float
         "9223372036854775807", "9223372036854775808", "18446744073709551615",
         "18446744073709551616", "-9223372036854775808", "-9223372036854775809",
         "123456789012345678901234567890"]
# Text put before a row's closing brace, in two rows whose text after the
# time is then still the same: a second "t" key (the last one wins), an
# escaped one, a second "k", strings holding separators and quotes, a
# nested "t", whitespace
TAIL_EDITS = [',"t":0.5', ',"\\u0074":0.5', ',"t":1,"t":2', ',"t":[1,2]', ',"k":"gaze"',
              ',"k":"frame"', ',"k":"event"', ',"note":"x,\\"t\\":1"', ',"x":{"t":1}',
              ',"t\\"":1', ',"t":18446744073709551616', " ", ""]


def _template(line):
    """(head, time text, the rest) of a template row; None for another line."""
    for head in HEADS:
        end = line.find(",", len(head))
        if line.startswith(head) and end > 0:
            return head, line[len(head):end], line[end:]
    return None


def _repeat_edit(data, lines, i):
    """Make template row i repeat the template row before it except for its
    time, then edit the text of both in ways that keep them so: their
    times (drawn from TIMES) and the same text added to both before their
    closing brace (drawn from TAIL_EDITS). Leaves the lines as they are
    when row i and the row before are not template rows of one kind."""
    before, row = (_template(line) for line in lines[i - 1: i + 1]) if i > 0 else (None, None)
    if before is None or row is None or before[0] != row[0]:
        return
    head, times, tail = row[0], [before[1], row[1]], before[2]
    for k in (0, 1):
        if data.draw(st.booleans(), label="edit time"):
            times[k] = data.draw(st.sampled_from(TIMES), label="time")
    edit = data.draw(st.sampled_from(TAIL_EDITS), label="tail edit")
    tail = tail[:-1] + edit + tail[-1]
    lines[i - 1], lines[i] = head + times[0] + tail, head + times[1] + tail


# The files the edits start from, as indices into RECORDINGS and
# SEQUENCES: two whose rows never repeat, then one with held rows
CLEAN = (0, 1, 4)


@pytest.fixture(scope="module")
def clean_lines(tmp_path_factory):
    """The lines of the recordings and sequences the mutations start from,
    written once; the first recording also carries timed object rows."""
    d = tmp_path_factory.mktemp("clean")
    lines = {}
    for i, k in enumerate(CLEAN):
        io.write_recording(RECORDINGS[k], d / "r.jsonl")
        io.write_sequence(SEQUENCES[k], d / "s.jsonl")
        lines["rec", i] = (d / "r.jsonl").read_text(encoding="utf-8").split("\n")[:-1]
        if i == 0:
            lines["rec", i] = with_timed_rows(lines["rec", i])
        lines["seq", i] = (d / "s.jsonl").read_text(encoding="utf-8").split("\n")[:-1]
    return d, lines


def _parsed(path):
    """(line number, the JSON text of the parsed row) of every line as the
    readers parse it; the error text where they stop."""
    rows = []
    try:
        for line_no, row in io._records(path):
            rows.append((line_no, json.dumps(row)))
    except MalformedFile as exc:
        rows.append(str(exc))
    return rows


def _loaded(path):
    """The same, with every line parsed by json.loads."""
    rows = []
    for line_no, line in enumerate(path.read_text(encoding="utf-8").split("\n"), start=1):
        if line.strip():
            try:
                rows.append((line_no, json.dumps(json.loads(line))))
            except json.JSONDecodeError as exc:
                rows.append(str(MalformedFile(path, line_no, f"invalid JSON: {exc.msg}")))
                break
    return rows


@given(data=st.data(), kind=st.sampled_from(["rec", "seq"]),
       i=st.integers(0, len(CLEAN) - 1))
@settings(max_examples=300, deadline=None)
def test_edited_repeats_parse_as_json_loads(data, kind, i, clean_lines):
    # json.dumps tells 1 from 1.0 and writes NaN, so equal texts are equal
    # rows
    d, lines = clean_lines
    lines = list(lines[kind, i])
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        _repeat_edit(data, lines, data.draw(st.integers(1, len(lines) - 1), label="line"))
    edited = d / "edited.jsonl"
    edited.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _parsed(edited) == _loaded(edited)


@pytest.mark.parametrize("times, edit", [
    (("0.1", "0.2"), ',"t":0.5'),         # a second "t": the last one wins
    (("0.1", "0.2"), ',"\\u0074":0.5'),   # the same, its key escaped
    (("0.1", "0.2"), ',"note":"x,\\"t\\":1"'),  # a string holding separators
    (("0.1", "0.2"), ',"x":{"t":1}'),     # a nested "t" changes nothing
    (("0.1", "1"), ""), (("0.1", "2E-1"), ""), (("0.1", "-0"), ""),  # int or float
    (("0.1", "1."), ""), (("0.1", "+1"), ""), (("0.1", "01"), ""),   # not JSON
    (("0.1", "NaN"), ""), (("NaN", "0.1"), ""), (("0.1", "1 "), ""),
    (("[0,1]", "2,1]"), ""),              # the time before is not a number
    (('"0,5"', '7,5"'), ""),
    # integers that orjson reads as floats, as a time and as an event's
    (("0.1", "-9223372036854775809"), ""), (("0.1", "18446744073709551616"), ""),
    (("0.1", "0.2"), ',"k":"event","t_e":123456789012345678901234567890'),
], ids=["dup_t", "escaped_t", "string_separator", "nested_t", "int", "exponent",
        "minus_zero", "trailing_dot", "plus", "leading_zero", "nan", "nan_before",
        "space", "list_before", "string_before", "below_int64", "past_uint64",
        "event_big_t_e"])
@pytest.mark.parametrize("kind", ["rec", "seq"])
def test_repeat_hazards_parse_as_json_loads(kind, times, edit, clean_lines, tmp_path):
    # the first template row of the file with held rows, and a copy of it
    # at a second time, both edited
    d, lines = clean_lines
    lines = list(lines[kind, 2])  # CLEAN[2]
    i = next(k for k, line in enumerate(lines) if _template(line))
    head, _, tail = _template(lines[i])
    tail = tail[:-1] + edit + tail[-1]
    lines[i: i + 2] = [head + times[0] + tail, head + times[1] + tail]
    edited = tmp_path / "hazard.jsonl"
    edited.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _parsed(edited) == _loaded(edited)


@pytest.mark.parametrize("kind", ["rec", "seq"])
def test_rows_that_end_alike_parse_as_json_loads(kind, clean_lines, tmp_path):
    # A row that ends as the one before but differs earlier in its tail,
    # then the first row again; then a row of the other template kind
    # with that tail, and one more of the first kind
    d, lines = clean_lines
    lines = list(lines[kind, 2])  # CLEAN[2]
    i = next(k for k, line in enumerate(lines) if _template(line))
    head, _, tail = _template(lines[i])
    j = tail.index("[") + 1  # the first character of the first number
    other = tail[:j] + ("8" if tail[j] == "7" else "7") + tail[j + 1:]
    assert other != tail and other[-20:] == tail[-20:]
    other_head = HEADS[head == HEADS[0]]
    lines[i: i + 1] = [head + "0.1" + tail, head + "0.2" + other, head + "0.3" + tail,
                       other_head + "10" + tail, head + "11" + tail]
    edited = tmp_path / "alike.jsonl"
    edited.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert _parsed(edited) == _loaded(edited)


def test_static_prediction_round_trips(tmp_path):
    # every frame of a static prediction repeats the first but for its time
    seq = SEQUENCES[-1]
    assert seq.motion.n_frames == 150
    p = tmp_path / "static.seq.jsonl"
    io.write_sequence(seq, p)
    assert_sequences_equal(io.read_sequence(p), seq)


# Text that character edits put into a row: digits, the other characters
# of a number, quotes, braces, commas, NaN and whitespace
JSONISH = [*"0123456789", *".eE+-", '"', "{", "}", ",", "NaN", " ", "\t"]


def _as_loaded(value, top=True):
    """json.loads's value as the readers parse it: an integer past 64
    bits anywhere in a gaze or frame row but its time is its nearest
    double, which the readers' float64 conversion makes of it anyway."""
    if isinstance(value, dict):
        return {k: v if top and k == "t" else _as_loaded(v, False) for k, v in value.items()}
    if isinstance(value, list):
        return [_as_loaded(v, False) for v in value]
    if type(value) is int and not -2 ** 63 <= value < 2 ** 64:
        return float(value)
    return value


def _json_text(parse, line):
    try:
        return json.dumps(parse(line))
    except ValueError as exc:  # JSONDecodeError, or too many digits
        return type(exc).__name__, str(exc)


@given(data=st.data(), kind=st.sampled_from(["rec", "seq"]),
       i=st.integers(0, len(CLEAN) - 1))
@settings(max_examples=300, deadline=None)
def test_loads_agrees_with_json_loads(data, kind, i, clean_lines):
    # Character edits of a gaze or frame row: what parses must parse as
    # json.loads parses it, and what json.loads refuses must fail as it
    # does (orjson's own errors never show)
    _, lines = clean_lines
    rows = [line for line in lines[kind, i] if _template(line)]
    line = data.draw(st.sampled_from(rows), label="row")
    for _ in range(data.draw(st.integers(1, 4), label="edits")):
        at = data.draw(st.integers(0, len(line)), label="at")
        op = data.draw(st.sampled_from(["insert", "delete", "replace"]), label="op")
        text = "" if op == "delete" else data.draw(st.sampled_from(JSONISH), label="text")
        line = line[:at] + text + line[at + (op != "insert"):]
    want = _json_text(lambda text: _as_loaded(json.loads(text)), line)
    assert _json_text(io._loads, line) == want


def _spelling_cases():
    """Rows of values at the edges of the bands where orjson spells a
    double otherwise than repr, [1e-9, 1e-4) and [1e16, inf), random ones
    in [1e-4, 1e16), and random ones below 1e-9, subnormals included,
    where both spell it alike."""
    rng = np.random.default_rng(21)
    inside = [np.ldexp(rng.uniform(1.0, 2.0, 16), e) for e in range(-14, 54)]
    inside = np.concatenate(inside)
    inside = inside[(inside >= 1e-4) & (inside < 1e16)]
    # 16 per binary exponent, from the subnormals to the one holding 1e-9
    below_band = np.concatenate([np.ldexp(rng.uniform(1.0, 2.0, 16), e)
                                 for e in range(-1074, -29)])
    edges = []
    for edge in (1e-9, 1e-4, 1e16):
        below, above = [edge], [edge]
        for _ in range(50):  # ulps
            below.append(np.nextafter(below[-1], 0.0))
            above.append(np.nextafter(above[-1], np.inf))
        edges += below[1:] + above
    tiny = np.finfo(np.float64).smallest_subnormal
    special = [0.0, -0.0, 5e-324, tiny * 3, 2.2250738585072009e-308, 1e-310,
               np.finfo(np.float64).max, -np.finfo(np.float64).max]
    values = np.concatenate([inside, below_band, edges, special])
    values = np.concatenate([values, -values])
    rows = list(values.reshape(-1, 1).repeat(3, axis=1))
    # one value outside [1e-4, 1e16) among two inside it, in each position
    for k in range(3):
        for out in (1e-5, -1e-300, 1e16, -1e300, 5e-324, 2.7e-17, -1e-9):
            row = rng.uniform(-10.0, 10.0, 3)
            row[k] = out
            rows.append(row)
    # one value in the band among rounding residues below it, in each position
    for k in range(3):
        for band in (3e-7, -1e-9, 9.99e-5):
            row = rng.uniform(1e-20, 1e-10, 3) * rng.choice([-1.0, 1.0], 3)
            row[k] = band
            rows.append(row)
    return np.array(rows)


SPELLING = _spelling_cases()


@pytest.mark.parametrize("n", [0, 1, io._BLOCK_ROWS, io._BLOCK_ROWS + 1, len(SPELLING)],
                         ids=["0", "1", str(io._BLOCK_ROWS), str(io._BLOCK_ROWS + 1), "all"])
def test_rows_spell_floats_as_repr(n):
    # The cases in turn, the mixed rows first; the last row is a mixed
    # one, alone in its block when n is one block plus one row
    rows = np.resize(SPELLING[::-1], (n, 3))
    rows[-1:] = SPELLING[-1]
    want = [",".join(map(float.__repr__, row)) for row in rows.tolist()]
    assert list(io._rows(rows, 3)) == want
