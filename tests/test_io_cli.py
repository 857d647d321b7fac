import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import reference_io as ref
from builders import run_pnr
from pnr import io_jsonl as io
from pnr.cli import MAX_THETAS, _frame_count, _thetas, main
from pnr.curation import curate
from pnr.errors import MalformedFile
from pnr.metrics import EvalPair
from pnr.motion import MAX_FRAMES, MotionSequence, resample
from pnr.synth import ScenarioSpec, generate_corpus, generate_scenario, static_baseline


def read_sequences(path):
    """Every sequence file under a directory, by file name."""
    return [io.read_sequence(f) for f in io.sequence_paths(path)]


@pytest.fixture(scope="module")
def scenario():
    return generate_scenario(ScenarioSpec(seed=9))


class TestRecordingRoundtrip:
    def test_bit_exact(self, scenario, tmp_path):
        rec, _ = scenario
        p = tmp_path / f"{rec.id}{io.RECORDING_SUFFIX}"
        io.write_recording(rec, p)
        back = io.read_recording(p)
        assert back.id == rec.id and back.video_id == rec.video_id
        assert back.motion.fps == rec.motion.fps
        assert np.array_equal(back.motion.joints, rec.motion.joints)
        assert np.array_equal(back.gaze.points_cam, rec.gaze.points_cam)
        assert np.array_equal(back.gaze.rotations, rec.gaze.rotations)
        assert np.array_equal(back.gaze.translations, rec.gaze.translations)
        assert len(back.events) == len(rec.events)
        assert back.events[0].t_e == rec.events[0].t_e
        assert np.array_equal(back.events[0].target.as_box().min,
                              rec.events[0].target.as_box().min)

    def test_write_is_deterministic(self, scenario, tmp_path):
        rec, _ = scenario
        a, b = tmp_path / "a.rec.jsonl", tmp_path / "b.rec.jsonl"
        io.write_recording(rec, a)
        io.write_recording(rec, b)
        assert a.read_bytes() == b.read_bytes()

    def test_timed_object_rows_skipped(self, scenario, tmp_path, caplog):
        # Timed object rows (an object trajectory) are read past with a
        # warning each: the file reads and curates as it does without them.
        rec, _ = scenario
        plain, timed = tmp_path / "plain", tmp_path / "timed"
        plain.mkdir()
        timed.mkdir()
        name = f"{rec.id}{io.RECORDING_SUFFIX}"
        io.write_recording(rec, plain / name)
        lines = (plain / name).read_text(encoding="utf-8").splitlines()
        at = max(i for i, line in enumerate(lines) if '"k":"object"' in line) + 1
        rows = [json.dumps({"k": "object", "id": "target", "t": 0.1 * k,
                            "point": [0.0, 1.0, 0.01 * k]}) for k in range(5)]
        (timed / name).write_text("\n".join(lines[:at] + rows + lines[at:]) + "\n",
                                  encoding="utf-8")
        with caplog.at_level("WARNING", logger="pnr.io_jsonl"):
            back = io.read_recording(timed / name)
        skipped = [r.getMessage() for r in caplog.records]
        assert skipped == [f"{timed / name}:{at + 1 + k}: skipping timed object record"
                           for k in range(5)]
        want = io.read_recording(plain / name)
        assert list(back.objects) == list(want.objects)
        for oid, tgt in back.objects.items():
            assert np.array_equal(tgt.as_box().min, want.objects[oid].as_box().min)
            assert np.array_equal(tgt.as_box().max, want.objects[oid].as_box().max)
        assert [(e.kind, e.t_e, e.target.id) for e in back.events] == \
            [(e.kind, e.t_e, e.target.id) for e in want.events]
        for attr in ("times", "points_cam", "rotations", "translations"):
            assert np.array_equal(getattr(back.gaze, attr), getattr(want.gaze, attr))
        assert back.motion.fps == want.motion.fps
        assert np.array_equal(back.motion.joints, want.motion.joints)

        for d in (plain, timed):
            assert main(["curate", "--in", str(d), "--out", str(d / "seq")]) == 0
        written = sorted(f.name for f in (plain / "seq").iterdir())
        assert "curation_log.json" in written and len(written) == 2
        assert written == sorted(f.name for f in (timed / "seq").iterdir())
        for f in written:
            assert (timed / "seq" / f).read_bytes() == (plain / "seq" / f).read_bytes()

    def test_curation_equal_after_roundtrip(self, scenario, tmp_path):
        rec, _ = scenario
        p = tmp_path / f"{rec.id}{io.RECORDING_SUFFIX}"
        io.write_recording(rec, p)
        back = io.read_recording(p)
        a = curate(rec).sequences[0]
        b = curate(back).sequences[0]
        assert np.array_equal(a.motion.joints, b.motion.joints)
        assert a.t_p == b.t_p


class TestSequenceRoundtrip:
    def test_bit_exact(self, scenario, tmp_path):
        rec, _ = scenario
        seq = curate(rec).sequences[0]
        p = tmp_path / f"{seq.id}{io.SEQUENCE_SUFFIX}"
        io.write_sequence(seq, p)
        back = io.read_sequence(p)
        assert back.id == seq.id
        assert np.array_equal(back.motion.joints, seq.motion.joints)
        assert np.array_equal(back.motion.gaze, seq.motion.gaze)
        assert np.array_equal(back.goal_location, seq.goal_location)
        assert np.array_equal(back.initial_state.velocity, seq.initial_state.velocity)
        assert back.prime_frame_index == seq.prime_frame_index
        assert back.t_p == seq.t_p and back.t_e == seq.t_e
        assert back.event.prime_mode == seq.event.prime_mode
        assert back.flags == seq.flags

    def test_malformed_lines_report_position(self, tmp_path):
        p = tmp_path / "bad.seq.jsonl"
        p.write_text('{"schema_version":1}\n', encoding="utf-8")
        with pytest.raises(MalformedFile) as err:
            io.read_sequence(p)
        assert "bad.seq.jsonl:1" in str(err.value)

    def test_invalid_json_line_number(self, tmp_path):
        p = tmp_path / "bad.seq.jsonl"
        p.write_text('{"schema_version":1,"id":"x","video_id":"v","fps":30,'
                     '"kind":"pick","t_p":1,"t_e":2,"t_start":0,"prime_mode":"direct_hit",'
                     '"goal":[0,0,0],"prime_frame_index":0,"flags":[],"initial_velocity":' +
                     json.dumps([0.0] * 66) + '}\n{oops\n', encoding="utf-8")
        with pytest.raises(MalformedFile) as err:
            io.read_sequence(p)
        assert ":2:" in str(err.value)


class TestRecordingValidation:
    def make_lines(self, scenario, tmp_path):
        rec, _ = scenario
        p = tmp_path / "ok.rec.jsonl"
        io.write_recording(rec, p)
        return p.read_text(encoding="utf-8").splitlines()

    def test_missing_fps_rejected(self, scenario, tmp_path):
        lines = self.make_lines(scenario, tmp_path)
        header = json.loads(lines[0])
        del header["fps"]
        p = tmp_path / "nofps.rec.jsonl"
        p.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(MalformedFile) as err:
            io.read_recording(p)
        assert "fps" in str(err.value)

    def test_wrong_joint_count_rejected(self, scenario, tmp_path):
        lines = self.make_lines(scenario, tmp_path)
        idx, row = next((i, json.loads(l)) for i, l in enumerate(lines)
                        if '"k":"frame"' in l)
        row["joints"] = row["joints"][:-3]
        lines[idx] = json.dumps(row)
        p = tmp_path / "badjoints.rec.jsonl"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedFile):
            io.read_recording(p)

    def test_decreasing_times_rejected(self, scenario, tmp_path):
        lines = self.make_lines(scenario, tmp_path)
        gaze_idx = [i for i, l in enumerate(lines) if '"k":"gaze"' in l]
        lines[gaze_idx[0]], lines[gaze_idx[1]] = lines[gaze_idx[1]], lines[gaze_idx[0]]
        p = tmp_path / "outoforder.rec.jsonl"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedFile):
            io.read_recording(p)

    def test_unknown_kind_skipped_with_warning(self, scenario, tmp_path, caplog):
        lines = self.make_lines(scenario, tmp_path)
        lines.insert(1, '{"k":"mystery","t":0}')
        p = tmp_path / "unknown.rec.jsonl"
        p.write_text("\n".join(lines) + "\n")
        with caplog.at_level("WARNING", logger="pnr.io_jsonl"):
            rec = io.read_recording(p)
        assert rec is not None
        assert any("mystery" in r.message for r in caplog.records)

    def test_unknown_event_object_rejected(self, scenario, tmp_path):
        lines = self.make_lines(scenario, tmp_path)
        idx, row = next((i, json.loads(l)) for i, l in enumerate(lines)
                        if '"k":"event"' in l)
        row["object_id"] = "ghost"
        lines[idx] = json.dumps(row)
        p = tmp_path / "ghost.rec.jsonl"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedFile):
            io.read_recording(p)


def _edit_row(row, edit):
    if edit == "drop_joints":
        del row["joints"]
    elif edit == "pose_not_object":
        row["cam_pose"] = [1.0, 2.0]
    elif edit == "short_dir_cam":
        row["dir_cam"] = row["dir_cam"][:2]
    elif edit == "zero_dir_cam":
        row["dir_cam"] = [0.0, 0.0, 0.0]
    elif edit == "short_gaze":
        row["gaze"] = row["gaze"][:2]
    elif edit == "short_velocity":
        row["initial_velocity"] = row["initial_velocity"][:65]
    elif edit == "nan_velocity":
        row["initial_velocity"][7] = float("nan")
    elif edit == "short_goal":
        row["goal"] = row["goal"][:2]
    elif edit == "negative_prime":
        row["prime_frame_index"] = -1
    return json.dumps(row)


def _malformed(lines, k, edit, tmp_path, read, name):
    """Apply one edit to line k (0-based) and return the reader's error."""
    lines = list(lines)
    lines[k] = '[1, 2]' if edit == "not_object" else _edit_row(json.loads(lines[k]), edit)
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(MalformedFile) as err:
        read(p)
    return err.value


class TestMalformedRows:
    """Bad row shapes raise MalformedFile at their line, not a traceback."""

    @pytest.fixture(scope="class")
    def rec_lines(self, scenario, tmp_path_factory):
        p = tmp_path_factory.mktemp("rec") / "ok.rec.jsonl"
        io.write_recording(scenario[0], p)
        return p.read_text(encoding="utf-8").splitlines()

    @pytest.fixture(scope="class")
    def seq_lines(self, scenario, tmp_path_factory):
        p = tmp_path_factory.mktemp("seq") / "ok.seq.jsonl"
        io.write_sequence(curate(scenario[0]).sequences[0], p)
        return p.read_text(encoding="utf-8").splitlines()

    @pytest.mark.parametrize("kind, edit, reason", [
        ("frame", "drop_joints", "frame record needs joints"),
        ("frame", "not_object", "record must be a JSON object"),
        ("gaze", "pose_not_object", "cam_pose needs r and t"),
        ("gaze", "short_dir_cam", "dir_cam must have 3 entries"),
        ("gaze", "zero_dir_cam", "gaze direction is zero in the world frame"),
    ])
    def test_recording_row(self, rec_lines, tmp_path, kind, edit, reason):
        k = next(i for i, line in enumerate(rec_lines) if f'"k":"{kind}"' in line) + 3
        err = _malformed(rec_lines, k, edit, tmp_path, io.read_recording, "bad.rec.jsonl")
        assert (err.line_no, err.reason) == (k + 1, reason)
        assert f"bad.rec.jsonl:{k + 1}:" in str(err)

    def test_repeated_gaze_time(self, rec_lines, tmp_path):
        k = next(i for i, line in enumerate(rec_lines) if '"k":"gaze"' in line) + 1
        lines = list(rec_lines)
        row = json.loads(lines[k])
        row["t"] = json.loads(lines[k - 1])["t"]
        lines[k] = json.dumps(row)
        p = tmp_path / "repeat.rec.jsonl"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(MalformedFile) as err:
            io.read_recording(p)
        assert (err.value.line_no, err.value.reason) == \
            (k + 1, "gaze times must be strictly increasing")

    def test_not_utf8_reported_at_its_line(self, seq_lines, tmp_path):
        # U+2028 in the id must not count as a line break before the bad byte
        header = json.loads(seq_lines[0])
        header["id"] = "seq\u2028x"
        lines = [json.dumps(header, ensure_ascii=False)] + seq_lines[1:]
        data = "\n".join(lines).encode("utf-8").split(b"\n")
        data[3] = data[3].replace(b'"frame"', b'"fr\xffame"')
        p = tmp_path / "u.seq.jsonl"
        p.write_bytes(b"\n".join(data) + b"\n")
        with pytest.raises(MalformedFile) as err:
            io.read_sequence(p)
        assert (err.value.line_no, err.value.reason) == (4, "not valid UTF-8")

    def test_sequence_gaze_row(self, seq_lines, tmp_path):
        err = _malformed(seq_lines, 4, "short_gaze", tmp_path, io.read_sequence, "g.seq.jsonl")
        assert (err.line_no, err.reason) == (5, "gaze must have 3 entries")

    @pytest.mark.parametrize("edit, reason", [
        ("short_velocity", "initial_velocity must have 66 entries"),
        ("nan_velocity", "non-finite initial velocity"),
        ("short_goal", "goal must have 3 entries"),
        ("negative_prime", "prime_frame_index out of range"),
    ])
    def test_sequence_header_arrays(self, seq_lines, tmp_path, edit, reason):
        err = _malformed(seq_lines, 0, edit, tmp_path, io.read_sequence, "h.seq.jsonl")
        assert (err.line_no, err.reason) == (1, reason)

    @staticmethod
    def _set(lines, k, key, value, path):
        """The file of ``lines`` with ``key`` of line k (0-based) set to ``value``."""
        lines = list(lines)
        lines[k] = json.dumps(dict(json.loads(lines[k]), **{key: value}))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    # header values of the wrong JSON type, which used to be converted
    # (None to "None", 3.7 to 3, true to 1, "abc" to three flags)
    @pytest.mark.parametrize("key, value, reason", [
        ("id", None, "id must be a string"),
        ("video_id", [1], "video_id must be a string"),
        ("prime_mode", "bogus", "prime_mode must be direct_hit or near_miss"),
        ("prime_mode", 5, "prime_mode must be direct_hit or near_miss"),
        ("prime_frame_index", 3.7, "prime_frame_index must be an integer"),
        ("prime_frame_index", "12", "prime_frame_index must be an integer"),
        ("prime_frame_index", True, "prime_frame_index must be an integer"),
        ("flags", "abc", "flags must be a list"),
        ("flags", ["clamped_start", 1], "flags must be a list of strings"),
        ("t_p", True, "t_p must be a number"),
        ("fps", True, "fps must be a number"),
        ("goal", [1.0, True, 2.0], "goal must be a list of numbers"),
        ("initial_velocity", [0.0] * 65 + [False], "initial_velocity must be a list of numbers"),
    ])
    def test_sequence_header_type(self, seq_lines, tmp_path, key, value, reason):
        bad = self._set(seq_lines, 0, key, value, tmp_path / "h.seq.jsonl")
        for read in (io.read_sequence, io.read_sequence_header):
            with pytest.raises(MalformedFile) as err:
                read(bad)
            assert (err.value.line_no, err.value.reason) == (1, reason)

    @pytest.mark.parametrize("key, value, reason", [
        ("fps", True, "fps must be a number"),
        ("id", None, "id must be a string"),
        ("video_id", [1], "video_id must be a string"),
    ])
    def test_recording_header_type(self, rec_lines, tmp_path, key, value, reason):
        bad = self._set(rec_lines, 0, key, value, tmp_path / "h.rec.jsonl")
        with pytest.raises(MalformedFile) as err:
            io.read_recording(bad)
        assert (err.value.line_no, err.value.reason) == (1, reason)

    @pytest.mark.parametrize("kind, key", [("gaze", "t"), ("frame", "t"), ("event", "t_e")])
    @pytest.mark.parametrize("value", [True, False])
    def test_boolean_row_time(self, rec_lines, tmp_path, kind, key, value):
        k = next(i for i, line in enumerate(rec_lines) if f'"k":"{kind}"' in line)
        bad = self._set(rec_lines, k, key, value, tmp_path / "t.rec.jsonl")
        with pytest.raises(MalformedFile) as err:
            io.read_recording(bad)
        assert (err.value.line_no, err.value.reason) == (k + 1, "record missing time")


def write_corpus(tmp_path, n=3, seed=5):
    rec_dir = tmp_path / "recordings"
    rec_dir.mkdir(exist_ok=True)
    for rec, labels in generate_corpus(ScenarioSpec(), n, seed=seed):
        io.write_recording(rec, rec_dir / f"{rec.id}{io.RECORDING_SUFFIX}")
        io.write_labels(labels, rec_dir / f"{rec.id}.labels.json")
    return rec_dir


class TestCliPipeline:
    def test_end_to_end(self, tmp_path):
        rec_dir = write_corpus(tmp_path, n=3)
        seq_dir = tmp_path / "sequences"
        assert main(["curate", "--in", str(rec_dir), "--out", str(seq_dir)]) == 0
        seqs = list(seq_dir.glob("*.seq.jsonl"))
        assert len(seqs) == 3
        assert (seq_dir / "curation_log.json").exists()

        assert main(["stats", "--in", str(seq_dir),
                     "--out", str(tmp_path / "stats.json")]) == 0
        payload = json.loads((tmp_path / "stats.json").read_text())
        assert payload["n_sequences"] == 3

        assert main(["split", "--in", str(seq_dir), "--seed", "7",
                     "--out", str(tmp_path / "split.json")]) == 0
        manifest = json.loads((tmp_path / "split.json").read_text())
        assert set(manifest["assignments"].values()) <= {"train", "test"}

        pred_dir = tmp_path / "preds"
        assert main(["baseline", "static", "--train", str(seq_dir),
                     "--gt", str(seq_dir), "--out", str(pred_dir)]) == 0
        assert len(list(pred_dir.glob("*.seq.jsonl"))) == 3

        assert main(["evaluate", "--pred", str(pred_dir), "--gt", str(seq_dir),
                     "--out", str(tmp_path / "report.json")]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["n"] == 3
        assert report["config"]["theta_deg"] == 16.0
        assert report["config"]["sigma_s"] == 0.2
        # goals are planted >= 1.5 m out, so the static pose always misses
        assert report["location_error_rate"] == 100.0
        assert report["reach_success"] == 0.0

        assert main(["sweep", "--pred", str(pred_dir), "--gt", str(seq_dir),
                     "--thetas", "0:90:30", "--sigmas", "0,0.2",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "theta_deg,sigma_s,prime_success_pct"
        assert len(lines) == 1 + 4 * 2

    def test_self_evaluation_zero_error(self, tmp_path):
        rec_dir = write_corpus(tmp_path, n=2)
        seq_dir = tmp_path / "sequences"
        main(["curate", "--in", str(rec_dir), "--out", str(seq_dir)])
        code = main(["evaluate", "--pred", str(seq_dir), "--gt", str(seq_dir),
                     "--out", str(tmp_path / "self.json")])
        assert code == 0
        report = json.loads((tmp_path / "self.json").read_text())
        assert report["mpjpe"] == 0.0
        assert report["prime_success"] == 100.0

    def test_synth_command(self, tmp_path):
        spec = {"n_recordings": 2, "duration": 7.0, "planted_prime_offset": 2.5}
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        out = tmp_path / "synthout"
        assert main(["synth", "--spec", str(spec_file), "--seed", "3",
                     "--out", str(out)]) == 0
        assert len(list(out.glob("*.rec.jsonl"))) == 2
        assert len(list(out.glob("*.labels.json"))) == 2

    def test_synth_determinism(self, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"n_recordings": 2}))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        main(["synth", "--spec", str(spec_file), "--seed", "11", "--out", str(out1)])
        main(["synth", "--spec", str(spec_file), "--seed", "11", "--out", str(out2)])
        for f1 in sorted(out1.iterdir()):
            f2 = out2 / f1.name
            assert f1.read_bytes() == f2.read_bytes()

    def test_curate_deterministic_bytes(self, tmp_path):
        rec_dir = write_corpus(tmp_path, n=2)
        d1, d2 = tmp_path / "s1", tmp_path / "s2"
        main(["curate", "--in", str(rec_dir), "--out", str(d1)])
        main(["curate", "--in", str(rec_dir), "--out", str(d2)])
        for f1 in sorted(d1.iterdir()):
            assert f1.read_bytes() == (d2 / f1.name).read_bytes()

    def test_multi_event_recording_counts_and_log(self, tmp_path):
        # three events, two primeable: two sequence files plus a log
        # entry naming the unprimed one
        from pnr.curation import Recording
        from pnr.gaze import InteractionEvent, ObjectTarget
        from pnr.geometry import Aabb, vec3

        rec, _ = generate_scenario(ScenarioSpec(seed=40))
        ghost = ObjectTarget(
            "ghost", box=Aabb.from_center(vec3(0, 1.0, -40.0), vec3(0.1, 0.1, 0.1)))
        target = rec.events[0].target
        events = [
            rec.events[0],
            InteractionEvent("put", rec.events[0].t_e - 1.0, target),
            InteractionEvent("pick", rec.events[0].t_e - 0.5, ghost),
        ]
        multi = Recording(rec.id, rec.video_id, rec.gaze, rec.motion,
                          dict(rec.objects, ghost=ghost), events)
        rec_dir = tmp_path / "recs"
        rec_dir.mkdir()
        io.write_recording(multi, rec_dir / f"{multi.id}{io.RECORDING_SUFFIX}")
        out = tmp_path / "seqs"
        assert main(["curate", "--in", str(rec_dir), "--out", str(out)]) == 0
        assert len(list(out.glob("*.seq.jsonl"))) == 2
        log = json.loads((out / "curation_log.json").read_text())
        drops = log["recordings"][0]["drops"]
        assert [d["reason"] for d in drops] == ["unprimed"]
        assert log["totals"] == {"sequences": 2, "drops": 1}

    def test_empty_input_dir_ok(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        out = tmp_path / "out"
        assert main(["curate", "--in", str(empty), "--out", str(out)]) == 0

    def test_malformed_recording_exit_2_continues(self, tmp_path, capsys):
        rec_dir = write_corpus(tmp_path, n=2)
        bad = rec_dir / "zzz-bad.rec.jsonl"
        bad.write_text('{"schema_version":1,"id":"x","video_id":"v"}\n')
        out = tmp_path / "out"
        code = main(["curate", "--in", str(rec_dir), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "zzz-bad.rec.jsonl:1" in err
        # the well-formed recordings were still curated
        assert len(list(out.glob("*.seq.jsonl"))) == 2

    def test_malformed_row_exit_2_continues(self, tmp_path, capsys):
        rec_dir = write_corpus(tmp_path, n=2)
        lines = next(rec_dir.glob("*.rec.jsonl")).read_text(encoding="utf-8").splitlines()
        k = next(i for i, line in enumerate(lines) if '"k":"frame"' in line)
        row = json.loads(lines[k])
        del row["joints"]
        lines[k] = json.dumps(row)
        (rec_dir / "zzz-bad.rec.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["curate", "--in", str(rec_dir), "--out", str(out)]) == 2
        assert f"zzz-bad.rec.jsonl:{k + 1}: frame record needs joints" in capsys.readouterr().err
        assert len(list(out.glob("*.seq.jsonl"))) == 2

    def test_not_utf8_recording_exit_2_continues(self, tmp_path, capsys):
        rec_dir = write_corpus(tmp_path, n=2)
        lines = next(rec_dir.glob("*.rec.jsonl")).read_bytes().split(b"\n")
        k = next(i for i, line in enumerate(lines) if b'"k":"frame"' in line)
        lines[k] = lines[k].replace(b'"frame"', b'"fr\xffame"')
        (rec_dir / "zzz-bad.rec.jsonl").write_bytes(b"\n".join(lines))
        out = tmp_path / "out"
        assert main(["curate", "--in", str(rec_dir), "--out", str(out)]) == 2
        assert f"zzz-bad.rec.jsonl:{k + 1}: not valid UTF-8" in capsys.readouterr().err
        assert len(list(out.glob("*.seq.jsonl"))) == 2

    def test_curate_stderr_order(self, tmp_path):
        # good recordings among a warning and two malformed ones: each
        # file's messages come when it is read, in file-name order, and the
        # good recordings are still curated
        src = write_corpus(tmp_path, n=3)
        good = [p.read_text(encoding="utf-8").splitlines()
                for p in sorted(src.glob("*.rec.jsonl"))]
        rec_dir = tmp_path / "mixed"
        rec_dir.mkdir()

        def put(name, lines):
            (rec_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
            return rec_dir / name

        k = next(i for i, line in enumerate(good[0]) if '"k":"frame"' in line)
        row = json.loads(good[0][k])
        del row["joints"]
        put("a.rec.jsonl", good[0])
        bad_row = put("b.rec.jsonl", good[0][:k] + [json.dumps(row)] + good[0][k + 1:])
        header = json.dumps(dict(json.loads(good[1][0]), id="c-warn"))
        warned = put("c.rec.jsonl", [header, '{"k":"note"}'] + good[1][1:])
        put("d.rec.jsonl", good[1])
        bad_header = put("e.rec.jsonl", ['{"schema_version":1,"id":"x","video_id":"v"}'])
        put("f.rec.jsonl", good[2])
        out = tmp_path / "out"
        run = run_pnr(["curate", "--in", rec_dir, "--out", out], tmp_path / "rss")
        assert run.returncode == 2
        assert run.stderr.splitlines() == [
            f"error: {bad_row}:{k + 1}: frame record needs joints",
            f"{warned}:2: skipping unknown record kind 'note'",
            f"error: {bad_header}:1: header missing fps",
        ]
        assert run.stdout == "curated 4 sequences from 4 recordings (0 events dropped)\n"
        assert len(list(out.glob("*.seq.jsonl"))) == 4

    def test_baseline_same_dir_read_once_same_bytes(self, tmp_path):
        rec_dir = write_corpus(tmp_path, n=2)
        seq_dir, copy_dir = tmp_path / "seqs", tmp_path / "seqs-copy"
        main(["curate", "--in", str(rec_dir), "--out", str(seq_dir)])
        shutil.copytree(seq_dir, copy_dir)
        same, split = tmp_path / "same", tmp_path / "split"
        assert main(["baseline", "static", "--train", str(seq_dir),
                     "--gt", str(seq_dir / ".." / "seqs"), "--out", str(same)]) == 0
        assert main(["baseline", "static", "--train", str(seq_dir),
                     "--gt", str(copy_dir), "--out", str(split)]) == 0
        names = sorted(p.name for p in same.iterdir())
        assert names == sorted(p.name for p in split.iterdir()) and len(names) == 2
        for name in names:
            assert (same / name).read_bytes() == (split / name).read_bytes()
        # each prediction is the mean pose of all training frames, retimed to
        # its ground truth resampled to --n frames
        train = read_sequences(seq_dir)
        for gt in train:
            pred = io.read_sequence(same / f"{gt.id}{io.SEQUENCE_SUFFIX}")
            expected = static_baseline(train, n=150, fps=resample(gt.motion, 150).fps)
            assert pred.motion.fps == expected.fps
            assert np.array_equal(pred.motion.joints, expected.joints)

    def test_bad_flag_exit_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["curate", "--nonsense"])
        assert exc.value.code == 1

    def test_missing_input_exit_2(self, tmp_path):
        assert main(["stats", "--in", str(tmp_path / "nowhere")]) == 2

    def test_console_entrypoint(self):
        # the subprocess imports the pnr these tests import, installed or not
        env = dict(os.environ)
        src = str(Path(io.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-m", "pnr.cli", "--help"], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0
        assert "curate" in out.stdout


def test_report_is_self_auditing(tmp_path):
    rec_dir = write_corpus(tmp_path, n=3)
    seq_dir = tmp_path / "seqs"
    main(["curate", "--in", str(rec_dir), "--out", str(seq_dir)])
    main(["evaluate", "--pred", str(seq_dir), "--gt", str(seq_dir),
          "--out", str(tmp_path / "r.json")])
    report = json.loads((tmp_path / "r.json").read_text())
    per = report["per_sequence"]
    assert len(per) == report["n"]
    assert report["prime_success"] == 100.0 * sum(p["prime_success"] for p in per) / len(per)
    assert report["reach_success"] == 100.0 * sum(p["reach_success"] for p in per) / len(per)
    assert report["mpjpe"] == pytest.approx(
        sum(p["mpjpe"] for p in per) / len(per), abs=1e-15)


def test_evaluate_gazeless_gt_fails_cleanly(tmp_path, capsys):
    rec_dir = write_corpus(tmp_path, n=2)
    seq_dir, pred_dir = tmp_path / "seqs", tmp_path / "preds"
    main(["curate", "--in", str(rec_dir), "--out", str(seq_dir)])
    main(["baseline", "static", "--train", str(seq_dir), "--gt", str(seq_dir),
          "--out", str(pred_dir)])
    # baseline predictions carry no gaze, so they cannot serve as GT
    code = main(["evaluate", "--pred", str(seq_dir), "--gt", str(pred_dir)])
    assert code == 2
    assert "gaze" in capsys.readouterr().err


def test_evaluate_prime_index_past_end_exit_2(tmp_path, capsys):
    rec_dir = write_corpus(tmp_path, n=2)
    seq_dir = tmp_path / "seqs"
    main(["curate", "--in", str(rec_dir), "--out", str(seq_dir)])
    p = sorted(seq_dir.glob("*.seq.jsonl"))[0]
    lines = p.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    header["prime_frame_index"] = len(lines) - 1  # the frame count
    lines[0] = json.dumps(header)
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["evaluate", "--pred", str(seq_dir), "--gt", str(seq_dir)]) == 2
    assert f"{p.name}:1: prime_frame_index out of range" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_unmatched_prediction_read_after_ground_truths(curated_dir, tmp_path, capsys, command):
    # each ground truth is read with its prediction, in file-name order, and
    # evaluate warns of one without a prediction there; a prediction that no
    # ground truth matches is read in full after them, so a bad row in it
    # still exits 2
    gt_dir, pred_dir = tmp_path / "gt", tmp_path / "pred"
    shutil.copytree(curated_dir, gt_dir)
    shutil.copytree(curated_dir, pred_dir)
    first, second = sorted(gt_dir.glob("*.seq.jsonl"))
    second.unlink()
    lines = first.read_text(encoding="utf-8").splitlines()
    lines[0] = json.dumps(dict(json.loads(lines[0]), id="extra"))
    (gt_dir / "extra.seq.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
    bad = pred_dir / second.name
    lines = bad.read_text(encoding="utf-8").splitlines()
    lines[3] = lines[3].replace('"joints":[', '"joints":["x",')
    bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--pred", str(pred_dir), "--gt", str(gt_dir), "--out", str(out)]) == 2
    warnings = ["warning: no prediction for extra"] if command == "evaluate" else []
    assert capsys.readouterr().err.splitlines() == warnings + [
        f"error: {bad}:4: joints must be a list of numbers"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_zero_gaze_at_prime_frame_exit_2(curated_dir, tmp_path, capsys, command):
    # the prime gaze used to be divided by its zero length, and the NaN
    # vector escaped as a ValueError with a traceback
    gt_dir = tmp_path / "gt"
    shutil.copytree(curated_dir, gt_dir)
    path = sorted(gt_dir.glob("*.seq.jsonl"))[0]
    lines = path.read_text(encoding="utf-8").split("\n")
    header = json.loads(lines[0])
    k = header["prime_frame_index"] + 1
    lines[k] = json.dumps(dict(json.loads(lines[k]), gaze=[0.0, -0.0, 0.0]),
                          separators=(",", ":"))
    path.write_text("\n".join(lines), encoding="utf-8")
    assert main([command, "--pred", curated_dir, "--gt", str(gt_dir)]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error: ")]
    assert errors == [f"error: {header['id']}: gaze at the prime frame has zero length"]


def test_prime_remap_rounds_exact_half_to_even(scenario, tmp_path):
    # 575 * 149 / 1150 is exactly 74.5; multiplying by the rounded
    # 149 / 1150 lands just above the half and gives 75
    seq = curate(scenario[0]).sequences[0]
    long = replace(seq, motion=resample(seq.motion, 1151), prime_frame_index=575)
    pred = resample(long.motion, 150)
    assert EvalPair.from_sequences(pred, long, n=150).prime_frame_index == 74
    gt_dir, pred_dir = tmp_path / "gt", tmp_path / "preds"
    gt_dir.mkdir()
    io.write_sequence(long, gt_dir / f"{long.id}{io.SEQUENCE_SUFFIX}")
    assert main(["baseline", "static", "--train", str(gt_dir), "--gt", str(gt_dir),
                 "--out", str(pred_dir), "--n", "150"]) == 0
    (pred,) = read_sequences(pred_dir)
    assert pred.prime_frame_index == 74


@pytest.mark.parametrize("content, reason", [
    (b"{oops", "not a JSON file"),
    (b"\xff{}", "not a JSON file"),
    (b'["video-0001"]', "must be a JSON object of video_id -> side"),
    (b'{"video-0001": "validation"}', "must be train or test, got 'validation'"),
    (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply"),
], ids=["not_json", "not_utf8", "not_object", "bad_side", "nested_too_deeply"])
def test_split_bad_override_exit_2(tmp_path, capsys, content, reason):
    rec_dir = write_corpus(tmp_path, n=2)
    seq_dir = tmp_path / "seqs"
    main(["curate", "--in", str(rec_dir), "--out", str(seq_dir)])
    override = tmp_path / "override.json"
    override.write_bytes(content)
    capsys.readouterr()
    code = main(["split", "--in", str(seq_dir), "--seed", "1", "--override", str(override)])
    err = capsys.readouterr().err
    assert code == 2
    assert str(override) in err and reason in err


def test_split_override_via_cli(tmp_path):
    rec_dir = write_corpus(tmp_path, n=3, seed=2)
    seq_dir = tmp_path / "seqs"
    main(["curate", "--in", str(rec_dir), "--out", str(seq_dir)])
    seqs = read_sequences(seq_dir)
    vid = seqs[0].video_id
    override_file = tmp_path / "override.json"
    override_file.write_text(json.dumps({vid: "test"}))
    main(["split", "--in", str(seq_dir), "--seed", "1",
          "--override", str(override_file), "--out", str(tmp_path / "m.json")])
    manifest = json.loads((tmp_path / "m.json").read_text())
    assert vid in manifest["test_video_ids"]


@pytest.mark.parametrize("content, reason", [
    (b"\xff{}", "not a JSON file"),
    (b"[1]", "must be a JSON object of scenario fields"),
    (b'{"room": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "JSON nested too deeply"),
], ids=["not_utf8", "not_object", "nested_too_deeply"])
def test_synth_bad_spec_exit_2(tmp_path, capsys, content, reason):
    spec = tmp_path / "spec.json"
    spec.write_bytes(content)
    code = main(["synth", "--spec", str(spec), "--seed", "1", "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert str(spec) in err and reason in err


@pytest.mark.parametrize("fields", [
    {"n_recordings": "many"},
    {"n_recordings": -3},
    {"n_recordings": 2.5},
    {"n_recordings": True},
    {"room": 5},
    {"room": {"min": [-5, 0, -5]}},
    {"room": {"min": [0, 0, 0], "max": [3, 3, 0.7]}},
    {"fps": float("nan")},
    {"n_objects": 1e9},
    {"duration": 1e12},
    {"walk_speed": float("nan")},
    {"seed": 5},  # recording seeds come from --seed; a spec seed was ignored
    # a boolean used to be read as 1 or 0, and an integer past the float
    # range to crash synth
    {"fps": True},
    {"duration": 10 ** 400},
    {"walk_speed": 10 ** 400},
    {"room": {"min": [-10 ** 400, 0, -4], "max": [4, 2.5, 4]}},
    {"room": {"min": [-4, False, -4], "max": [4, 2.5, 4]}},
    # counts past their caps: a 400-digit n_recordings used to crash synth
    # after creating --out, and such an n_objects to allocate without end
    {"n_recordings": 10 ** 400},
    {"n_recordings": 100_001},
    {"n_objects": 10 ** 400},
    {"n_objects": 1_001},
    # a negative speed or distance used to exit 2 as infeasible, or to
    # synthesize a start past the goal
    {"walk_speed": -1},
    {"min_goal_distance": 5, "max_goal_distance": 1},
    {"min_goal_distance": -2, "max_goal_distance": -1},
], ids=["n_many", "n_negative", "n_fraction", "n_bool", "room_number", "room_no_max",
        "room_narrow", "fps_nan", "n_objects_1e9", "duration_1e12", "walk_speed_nan",
        "seed", "fps_bool", "duration_int400", "walk_speed_int400", "room_int400",
        "room_bool", "n_int400", "n_over_cap", "n_objects_int400", "n_objects_over_cap",
        "walk_speed_negative", "goal_min_over_max", "goal_negative"])
def test_synth_bad_spec_field_exit_1(tmp_path, capsys, fields):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(fields), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["synth", "--spec", str(spec), "--seed", "1", "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: bad scenario spec: ")
    assert not out.exists()


def test_synth_in_range_spec_no_recording_realizes_exit_2(tmp_path, capsys):
    # every field in range, but at walk speed 0 no start can lie
    # min_goal_distance from the goal
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"walk_speed": 0.0}), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["synth", "--spec", str(spec), "--seed", "1", "--out", str(out)])
    assert code == 2
    assert "cannot cover" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def curated_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("curated")
    seq_dir = tmp_path / "seqs"
    assert main(["curate", "--in", str(write_corpus(tmp_path, n=2)), "--out", str(seq_dir)]) == 0
    return str(seq_dir)


@pytest.mark.parametrize("argv, option", [
    (["evaluate", "--pred", "{seqs}", "--gt", "{seqs}", "--n", "1"], "--n"),
    (["sweep", "--pred", "{seqs}", "--gt", "{seqs}", "--n", "1"], "--n"),
    (["baseline", "static", "--train", "{seqs}", "--gt", "{seqs}", "--out", "{out}",
      "--n", "1"], "--n"),
    (["split", "--in", "{seqs}", "--seed", "1", "--ratio", "0"], "--ratio"),
    (["split", "--in", "{seqs}", "--seed", "1", "--ratio", "1"], "--ratio"),
    (["split", "--in", "{seqs}", "--seed", "1", "--ratio", "1.5"], "--ratio"),
    (["curate", "--in", "{seqs}", "--out", "{out}", "--tau", "-1"], "--tau"),
    (["curate", "--in", "{seqs}", "--out", "{out}", "--w", "-1"], "--w"),
    (["curate", "--in", "{seqs}", "--out", "{out}", "--min-movement", "nan"],
     "--min-movement"),
    (["curate", "--in", "{seqs}", "--out", "{out}", "--prepend", "nan"], "--prepend"),
    (["evaluate", "--pred", "{seqs}", "--gt", "{seqs}", "--sigma", "-1"], "--sigma"),
    (["evaluate", "--pred", "{seqs}", "--gt", "{seqs}", "--theta", "nan"], "--theta"),
    (["evaluate", "--pred", "{seqs}", "--gt", "{seqs}", "--theta", "181"], "--theta"),
    (["sweep", "--pred", "{seqs}", "--gt", "{seqs}", "--sigmas", "-1"], "--sigmas"),
    (["sweep", "--pred", "{seqs}", "--gt", "{seqs}", "--thetas", "0:90:0"], "--thetas"),
    (["sweep", "--pred", "{seqs}", "--gt", "{seqs}", "--thetas", "0:10:-1"], "--thetas"),
    (["sweep", "--pred", "{seqs}", "--gt", "{seqs}", "--thetas", "10:0:1"], "--thetas"),
    (["sweep", "--pred", "{seqs}", "--gt", "{seqs}", "--thetas", "16,x"], "--thetas"),
    (["sweep", "--pred", "{seqs}", "--gt", "{seqs}", "--thetas", "16,190"], "--thetas"),
    (["evaluate", "--pred", "{seqs}", "--gt", "{seqs}", "--n", "100000000000000000000"],
     "--n"),
    (["split", "--in", "{seqs}", "--seed", "-1"], "--seed"),
    (["synth", "--spec", "{spec}", "--seed", "-1", "--out", "{out}"], "--seed"),
], ids=["evaluate_n_1", "sweep_n_1", "baseline_n_1", "split_ratio_0", "split_ratio_1",
        "split_ratio_1.5", "curate_tau_-1", "curate_w_-1", "curate_min_movement_nan",
        "curate_prepend_nan", "evaluate_sigma_-1", "evaluate_theta_nan", "evaluate_theta_181",
        "sweep_sigmas_-1", "sweep_thetas_step_0", "sweep_thetas_step_-1", "sweep_thetas_empty",
        "sweep_thetas_list_x", "sweep_thetas_list_190",
        "evaluate_n_huge", "split_seed_-1", "synth_seed_-1"])
def test_out_of_range_option_exit_1(curated_dir, tmp_path, capsys, argv, option):
    argv = [a.format(seqs=curated_dir, out=tmp_path / "preds", spec=_spec(tmp_path))
            for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert f"argument {option}:" in capsys.readouterr().err


def test_thetas_range_size_checked_before_arange(curated_dir, monkeypatch, capsys):
    # 0:180:1e-6 passes every other check and would ask np.arange for 180
    # million angles; the count is refused from start, stop and step first
    def no_arange(*args, **kwargs):
        raise AssertionError("np.arange reached")

    monkeypatch.setattr(np, "arange", no_arange)
    for thetas in ("0:180:1e-6", "0:180:0.0099", "0:180:5e-324"):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--pred", curated_dir, "--gt", curated_dir, "--thetas", thetas])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "argument --thetas:" in err and "more than 18001 angles" in err
    monkeypatch.undo()
    # the largest range allowed: a 0.01 degree step over [0, 180]
    thetas = _thetas("0:180:0.01")
    assert len(thetas) == MAX_THETAS == 18_001
    assert thetas[0] == 0.0 and thetas[-1] == pytest.approx(180.0)
    # span / step is exactly 18001 here, which passes the first check, but
    # the range gives 18,002 angles, which the count of the angles refuses
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--pred", curated_dir, "--gt", curated_dir,
              "--thetas", "0:180:0.009999444475306927"])
    assert exc.value.code == 1
    assert "more than 18001 angles" in capsys.readouterr().err


@pytest.mark.parametrize("thetas, count, last", [
    ("0:90:2", 46, 90.0),
    ("0:180:100", 2, 100.0),
    ("0:180:7", 26, 175.0),
    ("10:170:0.7", 229, 169.6),
], ids=["default", "0_180_100", "0_180_7", "10_170_0.7"])
def test_thetas_range_never_passes_stop(curated_dir, tmp_path, thetas, count, last):
    # start + k * step for integer k >= 0, up to the last angle not past stop
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--pred", curated_dir, "--gt", curated_dir, "--thetas", thetas,
                 "--sigmas", "0", "--out", str(out)]) == 0
    angles = [float(line.split(",")[0]) for line in out.read_text().splitlines()[1:]]
    start, stop, step = map(float, thetas.split(":"))
    assert angles == [start + k * step for k in range(count)]
    assert angles[-1] == pytest.approx(last) and angles[-1] <= stop


def test_huge_sigma_is_the_whole_window(curated_dir, tmp_path):
    # a window wider than the sequence covers all of it; 1e308 frames once
    # overflowed int(round(...)) in metrics._window
    reports = []
    for sigma in ("1e308", "1000"):
        out = tmp_path / f"report_{sigma}.json"
        assert main(["evaluate", "--pred", curated_dir, "--gt", curated_dir,
                     "--sigma", sigma, "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        reports.append((report["prime_success"], report["per_sequence"]))
    assert reports[0] == reports[1]
    assert main(["sweep", "--pred", curated_dir, "--gt", curated_dir,
                 "--sigmas", "1e308", "--out", str(tmp_path / "sweep.csv")]) == 0


def test_frame_count_bounds():
    assert _frame_count("2") == 2 and _frame_count(str(MAX_FRAMES)) == MAX_FRAMES
    for text in ("1", str(MAX_FRAMES + 1), "2.0", "x"):
        with pytest.raises(argparse.ArgumentTypeError):
            _frame_count(text)


def _taken(tmp_path):
    """A path where a file already stands."""
    path = tmp_path / "taken"
    path.write_text("", encoding="utf-8")
    return str(path)


def _spec(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"n_recordings": 1}', encoding="utf-8")
    return str(path)


def _zero_pose_preds(tmp_path, seqs):
    """A prediction per sequence whose joints are all zero: no head frame."""
    out = tmp_path / "preds"
    out.mkdir()
    for seq in read_sequences(seqs):
        pred = replace(seq, motion=MotionSequence(seq.motion.fps,
                                                  np.zeros_like(seq.motion.joints)))
        io.write_sequence(pred, out / f"{seq.id}{io.SEQUENCE_SUFFIX}")
    return str(out)


def _recordings_plus(tmp_path, recs, bad_entry):
    """A copy of the recordings with one bad entry added, named by bad_entry(dir)."""
    rec_dir = tmp_path / "recs"
    shutil.copytree(recs, rec_dir)
    bad_entry(rec_dir)
    return str(rec_dir)


def _zero_gaze_recording(rec_dir):
    """A copy of a recording under its own id, one dir_cam set to zero."""
    lines = next(rec_dir.glob("*.rec.jsonl")).read_text(encoding="utf-8").splitlines()
    lines[0] = json.dumps(dict(json.loads(lines[0]), id="zzz-bad"))
    k = next(i for i, line in enumerate(lines) if '"k":"gaze"' in line)
    lines[k] = _edit_row(json.loads(lines[k]), "zero_dir_cam")
    (rec_dir / "zzz-bad.rec.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("make_argv, message, n_curated", [
    (lambda t, s, r: ["curate", "--in", r, "--out", _taken(t)], "File exists", None),
    (lambda t, s, r: ["synth", "--spec", _spec(t), "--seed", "1", "--out", _taken(t)],
     "File exists", None),
    (lambda t, s, r: ["baseline", "static", "--train", s, "--gt", s, "--out", _taken(t)],
     "File exists", None),
    (lambda t, s, r: ["stats", "--in", s, "--out", str(t / "nodir" / "x")],
     "No such file or directory", None),
    (lambda t, s, r: ["split", "--in", s, "--seed", "1", "--out", str(t / "nodir" / "x")],
     "No such file or directory", None),
    (lambda t, s, r: ["evaluate", "--pred", s, "--gt", s, "--out", str(t / "nodir" / "x")],
     "No such file or directory", None),
    (lambda t, s, r: ["sweep", "--pred", s, "--gt", s, "--out", str(t / "nodir" / "x")],
     "No such file or directory", None),
    (lambda t, s, r: ["evaluate", "--pred", _zero_pose_preds(t, s), "--gt", s],
     "no head frame", None),
    (lambda t, s, r: ["sweep", "--pred", _zero_pose_preds(t, s), "--gt", s],
     "no head frame", None),
    (lambda t, s, r: ["curate", "--in", _recordings_plus(t, r, _zero_gaze_recording),
                      "--out", str(t / "out")],
     "zzz-bad.rec.jsonl:", 2),
    (lambda t, s, r: ["curate", "--in", _recordings_plus(
        t, r, lambda d: (d / "aaa.rec.jsonl").mkdir()), "--out", str(t / "out")],
     "aaa.rec.jsonl", 2),
], ids=["curate_out_is_file", "synth_out_is_file", "baseline_out_is_file",
        "stats_out_no_dir", "split_out_no_dir", "evaluate_out_no_dir", "sweep_out_no_dir",
        "evaluate_zero_pose", "sweep_zero_pose", "curate_zero_gaze", "curate_dir_entry"])
def test_unwritable_or_unusable_input_exit_2(curated_dir, tmp_path, capsys,
                                             make_argv, message, n_curated):
    recs = str(Path(curated_dir).parent / "recordings")
    assert main(make_argv(tmp_path, curated_dir, recs)) == 2
    errors = [line for line in capsys.readouterr().err.splitlines()
              if line.startswith("error: ")]
    assert len(errors) == 1 and message in errors[0]
    if n_curated is not None:
        # the other recordings were still curated
        assert len(list((tmp_path / "out").glob("*.seq.jsonl"))) == n_curated
        assert (tmp_path / "out" / "curation_log.json").exists()


def _with_header(path, drop=(), **fields):
    """Rewrite a file's header line with ``fields`` set and the keys in
    ``drop`` deleted; json.dumps writes NaN and infinities as JSON can't."""
    lines = path.read_text(encoding="utf-8").split("\n")
    header = dict(json.loads(lines[0]), **fields)
    for key in drop:
        del header[key]
    lines[0] = json.dumps(header, ensure_ascii=False, separators=(",", ":"))
    path.write_text("\n".join(lines), encoding="utf-8")


@pytest.mark.parametrize("fps, reason", [
    (math.inf, "non-finite fps"), (10 ** 400, "non-finite fps"),
    (math.nan, "non-finite fps"),
], ids=["inf", "huge_int", "nan"])
def test_non_finite_recording_fps_exit_2(curated_dir, tmp_path, capsys, fps, reason):
    # an infinite fps used to pass the reader and crash curation
    rec_dir = tmp_path / "recs"
    shutil.copytree(Path(curated_dir).parent / "recordings", rec_dir)
    bad = rec_dir / "zzz-bad.rec.jsonl"
    shutil.copy(sorted(rec_dir.glob("*.rec.jsonl"))[0], bad)
    _with_header(bad, id="zzz-bad", fps=fps)
    out = tmp_path / "out"
    assert main(["curate", "--in", str(rec_dir), "--out", str(out)]) == 2
    assert f"zzz-bad.rec.jsonl:1: {reason}" in capsys.readouterr().err
    assert len(list(out.glob("*.seq.jsonl"))) == 2


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_event_time_exit_2(curated_dir, tmp_path, capsys, value):
    # a NaN t_e on the first event used to be curated as "no gaze samples
    # in [nan, nan]" with exit 0
    rec_dir = tmp_path / "recs"
    shutil.copytree(Path(curated_dir).parent / "recordings", rec_dir)
    lines = sorted(rec_dir.glob("*.rec.jsonl"))[0].read_text(encoding="utf-8").split("\n")
    k = next(i for i, line in enumerate(lines) if '"k":"event"' in line)
    lines[k] = json.dumps(dict(json.loads(lines[k]), t_e=value), separators=(",", ":"))
    bad = rec_dir / "zzz-bad.rec.jsonl"
    bad.write_text("\n".join(lines), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["curate", "--in", str(rec_dir), "--out", str(out)]) == 2
    assert f"zzz-bad.rec.jsonl:{k + 1}: non-finite event time" in capsys.readouterr().err
    assert len(list(out.glob("*.seq.jsonl"))) == 2


def _row_file(curated_dir, tmp_path, suffix, kind, at, edit):
    """A copy of the first recording or sequence, alone in tmp_path/in,
    with row ``at`` of ``kind`` replaced by the line that ``edit`` makes
    of its parsed value; gives its path and the row's 0-based line."""
    src = Path(curated_dir)
    src = src.parent / "recordings" if suffix == io.RECORDING_SUFFIX else src
    lines = sorted(src.glob(f"*{suffix}"))[0].read_text(encoding="utf-8").split("\n")
    k = [i for i, line in enumerate(lines) if f'"k":"{kind}"' in line][at]
    lines[k] = edit(json.loads(lines[k]))
    (tmp_path / "in").mkdir()
    bad = tmp_path / "in" / f"bad{suffix}"
    bad.write_text("\n".join(lines), encoding="utf-8")
    return bad, k


def _timed_file(curated_dir, tmp_path, suffix, kind, at, text):
    """_row_file with the time of the row written as ``text``."""
    def edit(row):
        row["t_e" if kind == "event" else "t"] = "TIME"
        return json.dumps(row, separators=(",", ":")).replace('"TIME"', text)

    return _row_file(curated_dir, tmp_path, suffix, kind, at, edit)


@pytest.mark.parametrize("text", ["NaN", "Infinity", "1e400", "1" + "0" * 400],
                         ids=["nan", "inf", "1e400", "int400"])
@pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("suffix, kind", [
    (io.RECORDING_SUFFIX, "gaze"), (io.RECORDING_SUFFIX, "frame"),
    (io.RECORDING_SUFFIX, "event"), (io.SEQUENCE_SUFFIX, "frame"),
], ids=["rec_gaze", "rec_frame", "rec_event", "seq_frame"])
def test_non_finite_row_time_at_its_line(curated_dir, tmp_path, capsys, suffix, kind, at, text):
    # an infinite frame time used to be read, a NaN one reported at the
    # next line, and an integer past the float range to crash curate
    bad, k = _timed_file(curated_dir, tmp_path, suffix, kind, at, text)
    want = (k + 1, f"non-finite {kind} time")
    if suffix == io.RECORDING_SUFFIX:
        reads, argv = (io.read_recording, ref.read_recording), ["curate", "--out", str(tmp_path)]
    else:
        reads, argv = (io.read_sequence, ref.read_sequence), ["stats"]
    for read in reads:
        with pytest.raises(MalformedFile) as err:
            read(bad)
        assert (err.value.line_no, err.value.reason) == want
    assert main(argv + ["--in", str(tmp_path / "in")]) == 2
    assert capsys.readouterr().err == f"error: {bad}:{want[0]}: {want[1]}\n"


@pytest.mark.parametrize("suffix, argv", [(io.RECORDING_SUFFIX, ["curate", "--out", "{out}"]),
                                          (io.SEQUENCE_SUFFIX, ["stats"])],
                         ids=["curate", "stats"])
def test_integer_too_long_to_parse_exit_2(curated_dir, tmp_path, capsys, suffix, argv):
    # json.loads refuses an integer of more than 4300 digits with a plain
    # ValueError, which used to escape the readers as a traceback
    bad, k = _timed_file(curated_dir, tmp_path, suffix, "frame", 1, "1" * 5000)
    argv = [a.format(out=tmp_path / "out") for a in argv]
    assert main(argv + ["--in", str(tmp_path / "in")]) == 2
    assert capsys.readouterr().err == f"error: {bad}:{k + 1}: integer with too many digits\n"


@pytest.mark.parametrize("suffix, kind, reason", [
    (io.RECORDING_SUFFIX, "event", "JSON nested too deeply"),
    (io.RECORDING_SUFFIX, "gaze", "record missing time"),
    (io.SEQUENCE_SUFFIX, "frame", "record missing time"),
], ids=["rec_event", "rec_gaze", "seq_frame"])
def test_nested_too_deeply_exit_2(curated_dir, tmp_path, capsys, suffix, kind, reason):
    # json.loads raises RecursionError past about 1,000 levels, which used
    # to escape curate as a traceback; orjson reads gaze and frame rows to
    # any depth, and such a time fails as any other list would
    bad, k = _timed_file(curated_dir, tmp_path, suffix, kind, 0,
                         "[" * 100_000 + "]" * 100_000)
    argv = ["curate", "--out", str(tmp_path / "out")] if kind != "frame" else ["stats"]
    assert main(argv + ["--in", str(tmp_path / "in")]) == 2
    assert capsys.readouterr().err == f"error: {bad}:{k + 1}: {reason}\n"


@pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("suffix, kind, key", [
    (io.RECORDING_SUFFIX, "gaze", "dir_cam"), (io.RECORDING_SUFFIX, "gaze", "cam_pose.r"),
    (io.RECORDING_SUFFIX, "gaze", "cam_pose.t"), (io.RECORDING_SUFFIX, "frame", "joints"),
    (io.SEQUENCE_SUFFIX, "frame", "joints"), (io.SEQUENCE_SUFFIX, "frame", "gaze"),
], ids=["rec_dir_cam", "rec_cam_pose_r", "rec_cam_pose_t", "rec_joints", "seq_joints",
        "seq_gaze"])
def test_numeric_string_in_row_list_exit_2(curated_dir, tmp_path, capsys, suffix, kind, key,
                                           at):
    # a float64 conversion parses "1.5", so such a file used to read as
    # if it held 1.5
    def edit(row):
        values = row
        for part in key.split("."):
            values = values[part]
        values[1] = str(values[1])
        return json.dumps(row, separators=(",", ":"))

    bad, k = _row_file(curated_dir, tmp_path, suffix, kind, at, edit)
    want = (k + 1, f"{key} must be a list of numbers")
    if suffix == io.RECORDING_SUFFIX:
        reads, argv = (io.read_recording, ref.read_recording), ["curate", "--out", str(tmp_path)]
    else:
        reads, argv = (io.read_sequence, ref.read_sequence), ["stats"]
    for read in reads:
        with pytest.raises(MalformedFile) as err:
            read(bad)
        assert (err.value.line_no, err.value.reason) == want
    assert main(argv + ["--in", str(tmp_path / "in")]) == 2
    assert capsys.readouterr().err == f"error: {bad}:{want[0]}: {want[1]}\n"


@pytest.mark.parametrize("edit, reason", [
    ({"t": "x"}, "record missing time"),
    ({"t": None}, "record missing time"),
    ({"t": True}, "record missing time"),
    ("drop", "record missing time"),
    ({"t": -1.0}, "frame times must be non-decreasing"),
])
def test_bad_sequence_frame_time_exit_2(curated_dir, tmp_path, capsys, edit, reason):
    # read_sequence used to ignore a frame row's time; read_recording
    # has always refused these
    seq_dir = tmp_path / "seqs"
    shutil.copytree(curated_dir, seq_dir)
    bad = sorted(seq_dir.glob("*.seq.jsonl"))[0]
    lines = bad.read_text(encoding="utf-8").split("\n")
    row = json.loads(lines[5])
    if edit == "drop":
        del row["t"]
    else:
        row.update(edit)
    lines[5] = json.dumps(row, separators=(",", ":"))
    bad.write_text("\n".join(lines), encoding="utf-8")
    for argv in (["stats", "--in", str(seq_dir)],
                 ["evaluate", "--pred", str(seq_dir), "--gt", str(seq_dir)]):
        assert main(argv) == 2
        assert f"{bad}:6: {reason}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, reason", [
    ("min", [True, 0.0, 0.0], "box min must be a list of numbers"),
    ("max", [9.0, 9.0, False], "box max must be a list of numbers"),
    ("point", [0.0, True, 1.0], "point must be a list of numbers"),
])
def test_boolean_in_object_list_exit_2(curated_dir, tmp_path, capsys, key, value, reason):
    # read as 1.0 or 0.0 before; per-row lists (joints, gaze) still are
    rec_dir = tmp_path / "recs"
    shutil.copytree(Path(curated_dir).parent / "recordings", rec_dir)
    lines = sorted(rec_dir.glob("*.rec.jsonl"))[0].read_text(encoding="utf-8").split("\n")
    k = next(i for i, line in enumerate(lines) if '"k":"object"' in line)
    row = json.loads(lines[k])
    if key == "point":
        row["point"] = value
        del row["box"]
    else:
        row["box"][key] = value
    lines[k] = json.dumps(row, separators=(",", ":"))
    (rec_dir / "zzz-bad.rec.jsonl").write_text("\n".join(lines), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["curate", "--in", str(rec_dir), "--out", str(out)]) == 2
    assert f"zzz-bad.rec.jsonl:{k + 1}: {reason}" in capsys.readouterr().err
    assert len(list(out.glob("*.seq.jsonl"))) == 2


@pytest.mark.parametrize("key", ["fps", "t_p", "t_e", "t_start"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_sequence_header_exit_2(curated_dir, tmp_path, capsys, key, value):
    # a NaN t_p used to pass the reader and reach stats.json
    seq_dir = tmp_path / "seqs"
    shutil.copytree(curated_dir, seq_dir)
    bad = sorted(seq_dir.glob("*.seq.jsonl"))[0]
    _with_header(bad, **{key: value})
    for argv in (["stats", "--in", str(seq_dir)], ["split", "--in", str(seq_dir), "--seed", "1"]):
        assert main(argv) == 2
        assert f"{bad}:1: non-finite {key}" in capsys.readouterr().err


@pytest.mark.parametrize("fields, drop, reason", [
    ({"t_p": math.nan}, (), "non-finite t_p"),
    ({"fps": 0}, (), "fps must be positive"),
    ({"fps": -1}, (), "fps must be positive"),
    ({"goal": [1.0, 2.0]}, (), "goal must have 3 entries"),
    ({"kind": "wave"}, (), "kind must be pick or put"),
    ({"prime_frame_index": -1}, (), "prime_frame_index out of range"),
    ({"prime_frame_index": "x"}, (), "prime_frame_index must be an integer"),
    ({"flags": 7}, (), "flags must be a list"),
    ({}, ("video_id",), "header missing video_id"),
    ({}, ("t_start",), "header missing t_start"),
    ({}, ("prime_mode",), "header missing prime_mode"),
    ({}, ("flags",), "header missing flags"),
    ({}, ("id",), "header missing id"),
    ({}, ("fps",), "header missing fps"),
    ({}, ("kind",), "header missing kind"),
    ({}, ("t_p",), "header missing t_p"),
    ({}, ("t_e",), "header missing t_e"),
    ({}, ("goal",), "header missing goal"),
    ({}, ("prime_frame_index",), "header missing prime_frame_index"),
    ({}, ("initial_velocity",), "header missing initial_velocity"),
    ({}, ("prime_frame_index", "initial_velocity"), "header missing prime_frame_index"),
], ids=["nan_t_p", "zero_fps", "negative_fps", "short_goal", "bad_kind", "negative_prime",
        "prime_not_int", "flags_not_list", "no_video_id", "no_t_start", "no_prime_mode",
        "no_flags", "no_id", "no_fps", "no_kind", "no_t_p", "no_t_e", "no_goal",
        "no_prime_frame_index", "no_initial_velocity", "no_prime_or_velocity"])
def test_split_header_error_exit_2_as_read_sequence(curated_dir, tmp_path, capsys,
                                                    fields, drop, reason):
    # split reads headers alone, and reports a bad one as read_sequence does
    seq_dir = tmp_path / "seqs"
    shutil.copytree(curated_dir, seq_dir)
    bad = sorted(seq_dir.glob("*.seq.jsonl"))[0]
    _with_header(bad, drop, **fields)
    with pytest.raises(MalformedFile) as err:
        io.read_sequence(bad)
    assert (err.value.line_no, err.value.reason) == (1, reason)
    capsys.readouterr()
    assert main(["split", "--in", str(seq_dir), "--seed", "1"]) == 2
    assert capsys.readouterr().err == f"error: {err.value}\n"


def test_split_reads_headers_only(curated_dir, tmp_path, capsys):
    # a malformed frame row fails every command that reads frames, but
    # split reads only the header line and gives the same manifest
    seq_dir = tmp_path / "seqs"
    shutil.copytree(curated_dir, seq_dir)
    assert main(["split", "--in", str(seq_dir), "--seed", "4",
                 "--out", str(tmp_path / "want.json")]) == 0
    bad = sorted(seq_dir.glob("*.seq.jsonl"))[0]
    lines = bad.read_text(encoding="utf-8").split("\n")
    lines[3] = lines[3].replace('"joints":[', '"joints":["x",')
    bad.write_text("\n".join(lines), encoding="utf-8")
    assert main(["stats", "--in", str(seq_dir)]) == 2
    assert f"{bad}:4: joints must be a list of numbers" in capsys.readouterr().err
    assert main(["split", "--in", str(seq_dir), "--seed", "4",
                 "--out", str(tmp_path / "got.json")]) == 0
    assert (tmp_path / "got.json").read_bytes() == (tmp_path / "want.json").read_bytes()


def _with_copy(src, dst, suffix, name="zzz-copy"):
    """A copy of the directory src at dst, its first ``suffix`` file copied
    once more under a second name; gives that file's id."""
    shutil.copytree(src, dst)
    first = sorted(dst.glob(f"*{suffix}"))[0]
    shutil.copy(first, dst / f"{name}{suffix}")
    return json.loads(first.read_text(encoding="utf-8").split("\n")[0])["id"]


@pytest.mark.parametrize("make_argv", [
    lambda d, s, out: ["stats", "--in", d, "--out", out],
    lambda d, s, out: ["split", "--in", d, "--seed", "1", "--out", out],
    lambda d, s, out: ["baseline", "static", "--train", d, "--gt", s, "--out", out],
    lambda d, s, out: ["evaluate", "--pred", d, "--gt", s, "--out", out],
    lambda d, s, out: ["sweep", "--pred", s, "--gt", d, "--out", out],
], ids=["stats", "split", "baseline", "evaluate_pred", "sweep_gt"])
def test_duplicate_sequence_id_exit_2(curated_dir, tmp_path, capsys, make_argv):
    # a sequence copied under a second name used to be scored twice by
    # evaluate, and overwritten by the other in baseline's output
    dup = tmp_path / "dup"
    seq_id = _with_copy(Path(curated_dir), dup, io.SEQUENCE_SUFFIX)
    out = tmp_path / "out"
    assert main(make_argv(str(dup), curated_dir, str(out))) == 2
    assert capsys.readouterr() == ("", f"error: duplicate sequence id {seq_id!r} in {dup}\n")
    assert not out.exists()


def test_duplicate_recording_id_exit_2(curated_dir, tmp_path, capsys):
    # the copy is read second, or last, after every other recording was
    # curated and staged: still nothing is written, and no staging is left
    for name in ("aaa-copy", "zzz-copy"):
        case = tmp_path / name
        recs = case / "recs"
        rec_id = _with_copy(Path(curated_dir).parent / "recordings", recs,
                            io.RECORDING_SUFFIX, name)
        out = case / "out"
        assert main(["curate", "--in", str(recs), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: duplicate recording id {rec_id!r} in {recs}\n")
        assert not out.exists()
        assert list(case.iterdir()) == [recs]


def _files_under(path):
    return sorted(p for p in path.rglob("*") if p.is_file())


@pytest.mark.parametrize("bad_id", ["../evil", "..", ".", "a/b", "a\0b"],
                         ids=["parent", "dotdot", "dot", "slash", "nul"])
def test_recording_id_that_is_no_file_name_exit_2(curated_dir, tmp_path, capsys, bad_id):
    # a recording whose id was "../evil" used to be curated with exit 0 and
    # write evil-e000.seq.jsonl beside --out
    recs = tmp_path / "recs"
    shutil.copytree(Path(curated_dir).parent / "recordings", recs)
    bad = recs / "zzz-bad.rec.jsonl"
    shutil.copy(sorted(recs.glob("*.rec.jsonl"))[0], bad)
    _with_header(bad, id=bad_id)
    before = _files_under(tmp_path)
    out = tmp_path / "work" / "seq"
    assert main(["curate", "--in", str(recs), "--out", str(out)]) == 2
    reason = "id must be a file name: no /, NUL, . or .."
    assert capsys.readouterr().err == f"error: {bad}:1: {reason}\n"
    # the bad recording is skipped, the others are curated, and nothing
    # is written outside --out
    assert len(list(out.glob("*.seq.jsonl"))) == 2
    assert [p for p in _files_under(tmp_path) if out not in p.parents] == before


def test_sequence_id_that_is_no_file_name_exit_2(curated_dir, tmp_path, capsys):
    # a ground truth whose id was "../x" used to give a prediction written
    # beside --out
    seqs = tmp_path / "seqs"
    shutil.copytree(curated_dir, seqs)
    bad = sorted(seqs.glob("*.seq.jsonl"))[0]
    _with_header(bad, id="../x")
    before = _files_under(tmp_path)
    out = tmp_path / "work" / "pred"
    assert main(["baseline", "static", "--train", str(seqs), "--gt", str(seqs),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}:1: id must be a file name: no /, NUL, . or ..\n")
    assert _files_under(tmp_path) == before


@pytest.mark.parametrize("bad_id", ["x" * 300, "é" * 112 + "x"], ids=["300", "225"])
def test_recording_id_too_long_for_a_file_name_exit_2(curated_dir, tmp_path, capsys, bad_id):
    # a recording whose id was 300 x's used to stop curate with "[Errno 36]
    # File name too long", no path:line, and nothing curated or published.
    # Its sequences are named id-eNNN.seq.jsonl, and an event index has at
    # most 19 digits: 255 - 2 - 19 - 10 = 224 bytes are left for the id,
    # counted in UTF-8 ("é" is 2 bytes)
    recs = tmp_path / "recs"
    shutil.copytree(Path(curated_dir).parent / "recordings", recs)
    first = sorted(recs.glob("*.rec.jsonl"))[0]
    at_limit, bad = recs / "zzz-limit.rec.jsonl", recs / "zzz-long.rec.jsonl"
    for path, rec_id in ((at_limit, "é" * 112), (bad, bad_id)):
        shutil.copy(first, path)
        _with_header(path, id=rec_id, video_id=rec_id)
    out = tmp_path / "out"
    assert main(["curate", "--in", str(recs), "--out", str(out)]) == 2
    reason = "id too long for a file name: more than 224 bytes in UTF-8"
    assert capsys.readouterr().err == f"error: {bad}:1: {reason}\n"
    # the other recordings are curated, the one at the limit included
    assert len(list(out.glob("*.seq.jsonl"))) == 3
    seq = io.read_sequence(out / f"{'é' * 112}-e000.seq.jsonl")
    assert seq.id == "é" * 112 + "-e000"


def test_sequence_id_too_long_for_a_file_name_exit_2(curated_dir, tmp_path, capsys):
    # a sequence file is named id.seq.jsonl: 245 bytes are left for the id
    seqs = tmp_path / "seqs"
    shutil.copytree(curated_dir, seqs)
    at_limit, bad = sorted(seqs.glob("*.seq.jsonl"))
    _with_header(at_limit, id="x" * 245)
    assert io.read_sequence(at_limit).id == "x" * 245
    _with_header(bad, id="x" * 246)
    assert main(["stats", "--in", str(seqs)]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}:1: id too long for a file name: more than 245 bytes in UTF-8\n")


@pytest.mark.parametrize("suffix, read", [
    (io.RECORDING_SUFFIX, io.read_recording), (io.SEQUENCE_SUFFIX, io.read_sequence),
], ids=["recording", "sequence"])
def test_blank_lines_between_rows_are_skipped(curated_dir, tmp_path, suffix, read):
    src = Path(curated_dir)
    src = src.parent / "recordings" if suffix == io.RECORDING_SUFFIX else src
    src = sorted(src.glob(f"*{suffix}"))[0]
    write = io.write_recording if suffix == io.RECORDING_SUFFIX else io.write_sequence
    lines = src.read_text(encoding="utf-8").split("\n")
    spaced = []
    for i, line in enumerate(lines[:-1]):  # the text ends with a newline
        spaced += [line, "", " \t "] if i in (0, 2, len(lines) - 3) else [line]
    blank = tmp_path / f"blank{suffix}"
    blank.write_text("\n".join(spaced) + "\n", encoding="utf-8")
    # the same values: each writes back to the same bytes
    write(read(src), tmp_path / f"want{suffix}")
    write(read(blank), tmp_path / f"got{suffix}")
    assert (tmp_path / f"got{suffix}").read_bytes() == (tmp_path / f"want{suffix}").read_bytes()
    # a bad row after the blank lines is reported at its physical line
    k = len(spaced) - 1
    spaced[k] = "{"
    blank.write_text("\n".join(spaced) + "\n", encoding="utf-8")
    with pytest.raises(MalformedFile) as err:
        read(blank)
    assert err.value.line_no == k + 1 == len(lines) + 5
    assert err.value.reason.startswith("invalid JSON")


def test_split_empty_sequence_file_exit_2(curated_dir, tmp_path, capsys):
    seqs = tmp_path / "seqs"
    shutil.copytree(curated_dir, seqs)
    empty = seqs / "zzz-empty.seq.jsonl"
    empty.write_text("", encoding="utf-8")
    assert main(["split", "--in", str(seqs), "--seed", "1"]) == 2
    assert capsys.readouterr().err == f"error: {empty}:1: empty file\n"


def test_thetas_list_keeps_its_order(curated_dir, tmp_path):
    # a comma list writes its rows in the order given, with the cells of the
    # same angles in a range run
    cells = {}
    for thetas in ("0:90:2", "16,0,90"):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--pred", curated_dir, "--gt", curated_dir, "--thetas", thetas,
                     "--sigmas", "0,0.2", "--out", str(out)]) == 0
        cells[thetas] = out.read_text(encoding="utf-8").splitlines()[1:]
    by_key = {tuple(line.split(",")[:2]): line for line in cells["0:90:2"]}
    assert [tuple(line.split(",")[:2]) for line in cells["16,0,90"]] == [
        (theta, sigma) for sigma in ("0.0", "0.2") for theta in ("16.0", "0.0", "90.0")]
    assert cells["16,0,90"] == [by_key[tuple(line.split(",")[:2])] for line in cells["16,0,90"]]
