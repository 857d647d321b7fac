"""The three benchmark workloads, each a closed loop with one caller.

A workload builds its inputs from the seed in ``setup``, runs one
iteration in ``run``, timing its steps with the harness's calibrate.Clock,
and checks that iteration's outputs in ``check``. Checks read outputs with plain ``json``/``numpy`` and compare them with
values the synthetic generator planted, never with a second call into
the code being checked. ``check`` returns, per operation (a command, a
recording or a pair), the list of failed checks and a sha256 of that
operation's outputs; the harness compares digests across iterations.

All calls into pnr go through module attributes (``pnr.cli.main``, not a
name imported here), so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else str(c).encode())
        h.update(b"\0")
    return h.hexdigest()


def _tree_digest(path: Path) -> str:
    """sha256 over the relative names and bytes of every file, in sorted order."""
    h = hashlib.sha256()
    files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
    for f in files:
        h.update(f.name.encode() if f == path else str(f.relative_to(path)).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def _jsonl(path: Path) -> list:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


# ---------------------------------------------------------------------------
# cli_pipeline


class CliPipeline:
    """The README command sequence, in-process through ``pnr.cli.main``:
    synth -> curate -> split -> stats -> baseline static -> evaluate.
    JSONL IO dominates it; synth and baseline write, the rest mostly read.

    ``sweep`` is left out: on numpy 2 it writes every prime-success value
    as ``np.float64(...)``, so its output fails the CSV check on every run
    (test_perfbench.py keeps that check as a strict expected failure). Its
    compute, ``prime_success_sweep``, is timed and checked in model_eval."""

    name = "cli_pipeline"
    item = "recording"
    COMMANDS = ("synth", "curate", "split", "stats", "baseline", "evaluate")
    N_FRAMES = 150  # the CLI default --n for baseline/evaluate

    def __init__(self, pnr, workdir: Path, n_recordings: int = 20, warmup_recordings: int = 2):
        self.pnr = pnr
        self.workdir = workdir
        self.n = n_recordings
        self.warmup_n = warmup_recordings

    def _spec(self, n):
        return {"n_recordings": n, "duration": 8.0, "fps": 30.0, "n_objects": 3,
                "planted_prime_offset": 3.0, "planted_event_kind": "pick",
                "gaze_noise_std": 0.0, "walk_speed": 1.0, "prime_mode": "mixed"}

    def setup(self, seed, clock):
        """Write the spec and run the whole pipeline once on a tiny corpus,
        so lazy imports and first-call costs are paid before timing."""
        def write_specs():
            self.workdir.mkdir(parents=True, exist_ok=True)
            for name, n in (("spec.json", self.n), ("warmup_spec.json", self.warmup_n)):
                (self.workdir / name).write_text(json.dumps(self._spec(n)), encoding="utf-8")

        clock.step(write_specs)
        warm_dir = self.workdir / "warmup"
        self._pipeline(self.workdir / "warmup_spec.json", seed, warm_dir, clock)
        clock.step(lambda: shutil.rmtree(warm_dir, ignore_errors=True))
        return {"spec": self.workdir / "spec.json", "seed": seed}

    def _argvs(self, spec, seed, d):
        rec, seq, pred = str(d / "rec"), str(d / "seq"), str(d / "pred")
        return {
            "synth": ["synth", "--spec", str(spec), "--seed", str(seed), "--out", rec],
            "curate": ["curate", "--in", rec, "--out", seq],
            "split": ["split", "--in", seq, "--seed", str(seed), "--out", str(d / "split.json")],
            "stats": ["stats", "--in", seq, "--out", str(d / "stats.json")],
            "baseline": ["baseline", "static", "--train", seq, "--gt", seq, "--out", pred],
            "evaluate": ["evaluate", "--pred", pred, "--gt", seq, "--out", str(d / "report.json")],
        }

    def _command(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return self.pnr.cli.main(argv)
        except SystemExit as exc:
            return exc.code
        except Exception as exc:  # a crash is a failed command, not a failed run
            return f"raised {type(exc).__name__}: {exc}"

    def _pipeline(self, spec, seed, d, clock):
        return {cmd: clock.step(lambda: self._command(argv), name=cmd)
                for cmd, argv in self._argvs(spec, seed, d).items()}

    def run(self, state, k, clock) -> dict:
        d = self.workdir / f"iter{k:04d}"
        return {"dir": d, "codes": self._pipeline(state["spec"], state["seed"], d, clock)}

    def items(self, state) -> int:
        return self.n

    def release(self, data) -> None:
        shutil.rmtree(data["dir"], ignore_errors=True)

    def check(self, state, data):
        d = data["dir"]
        fails = {cmd: [] for cmd in self.COMMANDS}
        for cmd, code in data["codes"].items():
            if code != 0:
                fails[cmd].append(f"exit {code}")
        checks = {
            "synth": self._check_synth, "curate": self._check_curate,
            "split": self._check_split, "stats": self._check_stats,
            "baseline": self._check_baseline, "evaluate": self._check_evaluate,
        }
        for cmd, fn in checks.items():
            try:
                fails[cmd].extend(fn(d))
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                fails[cmd].append(f"unreadable output: {type(exc).__name__}: {exc}")
        outputs = {"synth": d / "rec", "curate": d / "seq", "split": d / "split.json",
                   "stats": d / "stats.json", "baseline": d / "pred",
                   "evaluate": d / "report.json"}
        digests = {cmd: (_tree_digest(p) if p.exists() else "missing")
                   for cmd, p in outputs.items()}
        return fails, digests

    def _seq_headers(self, d):
        return {p.name[: -len(".seq.jsonl")]: _jsonl(p)[0]
                for p in sorted((d / "seq").glob("*.seq.jsonl"))}

    def _check_synth(self, d):
        recs = sorted((d / "rec").glob("*.rec.jsonl"))
        labels = sorted((d / "rec").glob("*.labels.json"))
        if len(recs) != self.n or len(labels) != self.n:
            return [f"wrote {len(recs)} recordings and {len(labels)} label files, "
                    f"expected {self.n} each"]
        return []

    def _check_curate(self, d):
        errs = []
        headers = self._seq_headers(d)
        log = json.loads((d / "seq" / "curation_log.json").read_text(encoding="utf-8"))
        logged = {r["id"]: r for r in log["recordings"]}
        for rec_path in sorted((d / "rec").glob("*.rec.jsonl")):
            rows = _jsonl(rec_path)
            rec_id = rows[0]["id"]
            events = [r for r in rows[1:] if r.get("k") == "event"]
            entry = logged.get(rec_id)
            if entry is None:
                errs.append(f"{rec_id}: missing from curation_log")
                continue
            if entry["n_sequences"] + len(entry["drops"]) != len(events):
                errs.append(f"{rec_id}: {entry['n_sequences']} sequences + "
                            f"{len(entry['drops'])} drops != {len(events)} events")
            labels = json.loads((d / "rec" / f"{rec_id}.labels.json").read_text(encoding="utf-8"))
            for planted in labels["events"]:
                idx = next((i for i, e in enumerate(events)
                            if e["t_e"] == planted["t_e"] and e["object_id"] == planted["object_id"]),
                           None)
                head = headers.get(f"{rec_id}-e{idx:03d}") if idx is not None else None
                if head is None:
                    errs.append(f"{rec_id}: planted event not curated")
                elif head["t_p"] != planted["t_p"] or head["prime_mode"] != planted["prime_mode"]:
                    errs.append(f"{rec_id}: recovered t_p={head['t_p']!r} "
                                f"({head['prime_mode']}), planted {planted['t_p']!r} "
                                f"({planted['prime_mode']})")
        if log["totals"]["sequences"] != len(headers):
            errs.append(f"log totals {log['totals']['sequences']} sequences, "
                        f"{len(headers)} files written")
        return errs

    def _check_split(self, d):
        manifest = json.loads((d / "split.json").read_text(encoding="utf-8"))
        train, test = set(manifest["train_video_ids"]), set(manifest["test_video_ids"])
        errs = [f"video {v} on both sides" for v in sorted(train & test)]
        for sid, head in self._seq_headers(d).items():
            side = manifest["assignments"].get(sid)
            video_side = "train" if head["video_id"] in train else (
                "test" if head["video_id"] in test else None)
            if side is None or side != video_side:
                errs.append(f"{sid}: assigned {side}, its video {head['video_id']} is {video_side}")
        return errs

    def _check_stats(self, d):
        report = json.loads((d / "stats.json").read_text(encoding="utf-8"))
        headers = list(self._seq_headers(d).values())
        errs = []
        if report["n_sequences"] != len(headers):
            errs.append(f"n_sequences {report['n_sequences']} != {len(headers)} files")
        gaps = [h["t_e"] - h["t_p"] for h in headers]
        if gaps and not math.isclose(report["prime_gap_s"]["mean"], sum(gaps) / len(gaps),
                                     rel_tol=1e-9):
            errs.append(f"prime gap mean {report['prime_gap_s']['mean']!r} != "
                        f"{sum(gaps) / len(gaps)!r} from the headers")
        return errs

    def _check_baseline(self, d):
        seqs = sorted(p.name for p in (d / "seq").glob("*.seq.jsonl"))
        preds = sorted(p.name for p in (d / "pred").glob("*.seq.jsonl"))
        if preds != seqs:
            return [f"{len(preds)} predictions for {len(seqs)} ground-truth sequences"]
        return [f"{name}: {n - 1} frames, expected {self.N_FRAMES}"
                for name in preds
                if (n := len(_jsonl(d / "pred" / name))) != self.N_FRAMES + 1]

    def _check_evaluate(self, d):
        report = json.loads((d / "report.json").read_text(encoding="utf-8"))
        n_gt = len(list((d / "seq").glob("*.seq.jsonl")))
        errs = []
        if report["n"] != n_gt:
            errs.append(f"scored {report['n']} pairs of {n_gt}")
        # the static mean pose never reaches a goal and never ends near the
        # ground-truth pelvis (goals are planted >= 1.5 m from the start)
        if report["reach_success"] != 0.0:
            errs.append(f"static baseline reach_success {report['reach_success']!r} != 0")
        if report["location_error_rate"] != 100.0:
            errs.append(f"static baseline location_error_rate "
                        f"{report['location_error_rate']!r} != 100")
        return errs


# ---------------------------------------------------------------------------
# curate_dense


class CurateDense:
    """In-memory ``curate_corpus`` over long recordings with many events:
    60 s at 60 fps, 6 objects, a pick/put on the target or a distractor
    every EVENT_SPACING seconds next to the planted event. Most events are
    unprimed, so every one of them pays the full-window slab scan plus the
    near-miss fallback."""

    name = "curate_dense"
    item = "recording"
    EVENT_SPACING = 1.5  # s
    # Recordings per curate_corpus call. Each call is one clock step, and
    # short steps let the calibration follow the host's speed changes,
    # which come and go within a second; 8 recordings still keep both
    # default pool threads busy.
    BATCH = 8
    POOL = os.cpu_count() or 1  # curate_corpus's default worker count

    def __init__(self, pnr, n_recordings: int = 40, duration: float = 60.0, fps: float = 60.0):
        self.pnr = pnr
        self.n = n_recordings
        self.duration = duration
        self.fps = fps

    def setup(self, seed, clock):
        """Generate the corpus BATCH recordings per clock step (batch b uses
        corpus seed 1000 * seed + b), add the extra events, and curate one
        recording to pay first-call costs before timing."""
        synth = self.pnr.synth
        base = synth.ScenarioSpec(duration=self.duration, fps=self.fps, n_objects=6)
        corpus = []
        for b, lo in enumerate(range(0, self.n, self.BATCH)):
            n = min(self.BATCH, self.n - lo)
            corpus += clock.step(lambda: synth.generate_corpus(
                base, n, seed=1000 * seed + b, mixed_modes=True))
        state = clock.step(lambda: self._add_events(corpus))
        clock.step(lambda: self.pnr.curation.curate_corpus(self._fresh(state["recordings"][:1])))
        return state

    def _add_events(self, corpus):
        recordings, expected = [], []
        for rec, labels in corpus:
            planted = rec.events[0]
            objects = [rec.objects[k] for k in sorted(rec.objects)]
            events = [planted]
            n_extra = int((self.duration - 1.0) / self.EVENT_SPACING)
            for k in range(1, n_extra + 1):
                t_e = round(k * self.EVENT_SPACING * self.fps) / self.fps
                events.append(self.pnr.gaze.InteractionEvent(
                    "pick" if k % 2 else "put", t_e, objects[k % len(objects)]))
            events.sort(key=lambda e: e.t_e)
            recordings.append(replace(rec, events=events))
            label = labels.events[0]
            expected.append((events.index(planted), label.t_p, label.prime_mode))
        return {"recordings": recordings, "expected": expected}

    @staticmethod
    def _fresh(recordings):
        # GazeTrack caches its world rays; a fresh track makes every
        # iteration pay for them, as a recording read from disk would
        return [replace(r, gaze=replace(r.gaze)) for r in recordings]

    def items(self, state) -> int:
        return len(state["recordings"])

    def run(self, state, k, clock) -> dict:
        recordings = self._fresh(state["recordings"])
        results = []
        try:
            for lo in range(0, len(recordings), self.BATCH):
                batch = recordings[lo:lo + self.BATCH]
                results += clock.step(lambda: self.pnr.curation.curate_corpus(batch),
                                      threads=self.POOL)
        except Exception as exc:  # recorded as a failure of every recording
            return {"results": None, "error": f"raised {type(exc).__name__}: {exc}"}
        return {"results": results, "error": None}

    def release(self, data) -> None:
        data.clear()

    def check(self, state, data):
        fails, digests = {}, {}
        results = data["results"]
        for i, rec in enumerate(state["recordings"]):
            if results is None:
                fails[rec.id], digests[rec.id] = [data["error"]], "missing"
                continue
            res = results[i]
            errs = []
            if res.recording_id != rec.id:
                errs.append(f"result {i} is for {res.recording_id}")
            if len(res.sequences) + len(res.drops) != len(rec.events):
                errs.append(f"{len(res.sequences)} sequences + {len(res.drops)} drops "
                            f"!= {len(rec.events)} events")
            idx, t_p, mode = state["expected"][i]
            seq = next((s for s in res.sequences if s.id == f"{rec.id}-e{idx:03d}"), None)
            if seq is None:
                errs.append("planted event not curated")
            elif seq.t_p != t_p or seq.event.prime_mode != mode:
                errs.append(f"recovered t_p={seq.t_p!r} ({seq.event.prime_mode}), "
                            f"planted {t_p!r} ({mode})")
            fails[rec.id] = errs
            digests[rec.id] = _result_digest(res)
        return fails, digests


def _result_digest(res) -> str:
    """Canonical serialization of one recording's curation result."""
    parts = []
    for s in res.sequences:
        parts += [s.id, s.video_id, repr((s.t_p, s.t_e, s.event.prime_mode, s.event.event.kind,
                                          s.prime_frame_index, s.flags, s.motion.fps)),
                  s.motion.joints.tobytes(), s.goal_location.tobytes(),
                  b"" if s.motion.gaze is None else s.motion.gaze.tobytes(),
                  s.initial_state.pose.tobytes(), s.initial_state.velocity.tobytes()]
    parts += [repr((d.event_index, d.kind, d.t_e, d.reason)) for d in res.drops]
    return _sha(*parts)


# ---------------------------------------------------------------------------
# model_eval


class ModelEval:
    """In-memory scoring of generated motion against curated ground truth:
    procedural prediction, 263-dim encode and decode (as a generator
    emitting features would), pairing, the six metrics and a dense θ/σ
    prime-success sweep."""

    name = "model_eval"
    item = "pair"
    N_FRAMES = 150
    THETAS = np.arange(0.0, 91.0, 1.0)  # 0:90:1 degrees
    SIGMAS = np.round(np.arange(0.0, 1.0 + 1e-9, 0.05), 2)  # 0:1:0.05 seconds
    ROUNDTRIP_TOL = 1e-4  # m, per joint
    MIN_SUCCESS = 95.0  # percent, prime and reach success of procedural predictions

    def __init__(self, pnr, n_pairs: int = 160):
        self.pnr = pnr
        self.n = n_pairs

    def setup(self, seed, clock):
        pnr = self.pnr
        corpus = clock.step(lambda: pnr.synth.generate_corpus(
            pnr.synth.ScenarioSpec(), self.n, seed=seed, mixed_modes=True))
        results = clock.step(lambda: pnr.curation.curate_corpus([rec for rec, _ in corpus]))
        gts = [s for r in results for s in r.sequences]
        fps = clock.step(lambda: [pnr.motion.resample(gt.motion, self.N_FRAMES).fps
                                  for gt in gts])
        self._score(gts[:2], fps[:2], clock)
        return {"gts": gts, "fps": fps}

    def items(self, state) -> int:
        return len(state["gts"])

    def _score(self, gts, fps, clock):
        """The five timed steps, each over every pair, as one clock step
        each; a pair that raises drops out of the later steps."""
        pnr, n = self.pnr, self.N_FRAMES
        fps = {gt.id: f for gt, f in zip(gts, fps)}
        errors = {}

        def each(fn, inputs):
            out = {}
            for key, args in inputs.items():
                try:
                    out[key] = fn(*args)
                except Exception as exc:  # recorded as a failure of this pair
                    errors.setdefault(key, f"raised {type(exc).__name__}: {exc}")
            return out

        preds = clock.step(lambda: each(
            lambda gt: pnr.synth.procedural_pnr(gt.initial_state, gt.goal_location,
                                                gt.event.event.kind, n=n, fps=fps[gt.id]),
            {gt.id: (gt,) for gt in gts}), "predict")
        feats = clock.step(lambda: each(
            pnr.features.to_features, {key: (p,) for key, p in preds.items()}), "encode")
        decoded = clock.step(lambda: each(
            pnr.features.from_features, {key: (x, fps[key]) for key, x in feats.items()}),
            "decode")
        feats = None
        pairs = clock.step(lambda: each(
            lambda d, gt: pnr.metrics.EvalPair.from_sequences(d, gt, n=n),
            {gt.id: (decoded[gt.id], gt) for gt in gts if gt.id in decoded}), "pair")
        report = grid = None
        try:
            report = clock.step(lambda: pnr.metrics.evaluate(list(pairs.values())), "evaluate")
            grid = clock.step(lambda: pnr.metrics.prime_success_sweep(
                list(pairs.values()), self.THETAS, self.SIGMAS), "sweep")
        except Exception as exc:  # recorded as a failure of every pair
            errors["*"] = f"raised {type(exc).__name__}: {exc}"
        return {"preds": preds, "decoded": decoded, "report": report, "grid": grid,
                "errors": errors}

    def run(self, state, k, clock) -> dict:
        return self._score(state["gts"], state["fps"], clock)

    def release(self, data) -> None:
        data.clear()

    def check(self, state, data):
        report, grid, errors = data["report"], data["grid"], data["errors"]
        shared = []
        if "*" in errors:
            shared.append(errors["*"])
        else:
            if report.prime_success < self.MIN_SUCCESS or report.reach_success < self.MIN_SUCCESS:
                shared.append(f"procedural prime {report.prime_success!r}% / reach "
                              f"{report.reach_success!r}% below {self.MIN_SUCCESS}%")
            if grid.shape != (len(self.SIGMAS), len(self.THETAS)) or not np.all(np.isfinite(grid)):
                shared.append(f"sweep grid has shape {grid.shape} or non-finite cells")
            elif np.any(np.diff(grid, axis=1) < 0):
                shared.append("a sweep row decreases with theta")
        outcome = {}
        if report is not None:
            outcome = {p.id: p for p in report.per_pair}
        tail = _sha(json.dumps(report.to_dict(), sort_keys=True) if report is not None else "",
                    grid.tobytes() if grid is not None else b"")
        fails, digests = {}, {}
        for gt in state["gts"]:
            errs = list(shared)
            if gt.id in errors:
                errs.append(errors[gt.id])
                fails[gt.id], digests[gt.id] = errs, "missing"
                continue
            pred, dec = data["preds"][gt.id], data["decoded"][gt.id]
            err = float(np.linalg.norm(dec.joints - pred.joints, axis=2).max())
            if not err <= self.ROUNDTRIP_TOL:
                errs.append(f"feature round trip off by {err:.3g} m")
            if gt.id not in outcome:
                errs.append("missing from the report")
            fails[gt.id] = errs
            entry = outcome[gt.id].to_dict() if gt.id in outcome else {}
            digests[gt.id] = _sha(dec.joints.tobytes(), json.dumps(entry, sort_keys=True), tail)
        return fails, digests


WORKLOADS = {w.name: w for w in (CliPipeline, CurateDense, ModelEval)}
