"""Command-line surface: curate, stats, split, evaluate, sweep, synth and
baseline, over the JSONL interchange formats.

Exit codes: 0 success, 1 usage error, 2 unreadable or malformed input:
a file or input entry that cannot be opened or parsed, two inputs with
one id, an --out that cannot be written, a pose with no head frame, or
nothing to work on.
Angles are degrees at this boundary and radians inside.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import curation, io_jsonl as io
from .curation import split, stats
from .errors import EmptyCorpus, MalformedFile, PnrError
from .gaze import DEFAULT_TAU, DEFAULT_WINDOW
from .geometry import Aabb, finite_number
from .metrics import (
    DEFAULT_N_FRAMES,
    DEFAULT_SIGMA,
    DEFAULT_THETA_DEG,
    EvalPair,
    MetricsConfig,
    evaluate,
    prime_success_sweep,
)
from .curation import DEFAULT_MIN_MOVEMENT, DEFAULT_PREPEND
from .motion import MAX_FRAMES, MotionSequence, resampled_fps, resampled_index
from .synth import MAX_RECORDINGS, ScenarioSpec, generate_corpus, static_baseline


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _unique(items, what: str, path):
    """``items``, recordings or sequences read from the directory ``path``,
    passed on one at a time; PnrError at the first id that two share."""
    seen = set()
    for item in items:
        if item.id in seen:
            raise PnrError(f"duplicate {what} id {item.id!r} in {path}")
        seen.add(item.id)
        yield item


def _sequences(read, path, what: str = ""):
    """``read`` (io.read_sequence, or read_sequence_header) of each
    sequence file under a directory, one at a time in file-name order;
    PnrError at the first id that two share, and EmptyCorpus after the
    last file when there are none."""
    empty = True
    for item in _unique(map(read, io.sequence_paths(path)), "sequence", path):
        empty = False
        yield item
    if empty:
        raise EmptyCorpus(f"no {what}sequences under {path}")


def _json_object(path: str, of: str) -> dict:
    """The JSON object a file holds; PnrError naming the file otherwise."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise PnrError(f"{path}: not a JSON file: {exc}") from None
    except RecursionError:
        raise PnrError(f"{path}: JSON nested too deeply") from None
    if not isinstance(payload, dict):
        raise PnrError(f"{path}: must be a JSON object of {of}")
    return payload


def _emit(payload: dict, out: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out:
        Path(out).write_text(text + "\n", encoding="utf-8")
    print(text)


@contextmanager
def _staged(out_dir: Path):
    """A new hidden directory to write into, on the file system of out_dir:
    inside out_dir when that is a directory, else in its nearest existing
    parent. When the block ends without error, its files are moved into
    out_dir, made if missing, in name order. It is removed either way, so
    a failed or interrupted run leaves out_dir as it was."""
    near = next((p for p in (out_dir, *out_dir.parents) if p.is_dir()), out_dir.parent)
    staging = Path(tempfile.mkdtemp(prefix=".pnr-staging-", dir=near))
    try:
        yield staging
        out_dir.mkdir(parents=True, exist_ok=True)
        for path in sorted(staging.iterdir()):
            path.replace(out_dir / path.name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def cmd_curate(args) -> int:
    """Read, curate and write one recording at a time, in file-name order.
    A file that cannot be read is reported and skipped; the files are
    published when every recording is done, so a duplicate id writes
    nothing."""
    in_dir = Path(args.in_dir)
    if not in_dir.is_dir():
        raise PnrError(f"input directory not found: {in_dir}")
    errors = 0

    def recordings():
        nonlocal errors
        for path in sorted(in_dir.glob(f"*{io.RECORDING_SUFFIX}")):
            try:
                rec = io.read_recording(path)
            except (OSError, MalformedFile) as exc:  # reported and skipped
                print(f"error: {exc}", file=sys.stderr)
                errors += 1
                continue
            yield rec

    log = []  # (recording id, sequence count, drops) per recording
    with _staged(Path(args.out_dir)) as staging:
        for rec in _unique(recordings(), "recording", in_dir):
            # through the module, so that a wrapper of curation.curate sees the call
            res = curation.curate(rec, prepend=args.prepend, w=args.w, tau=args.tau,
                                  min_movement=args.min_movement)
            for seq in res.sequences:
                io.write_sequence(seq, staging / f"{seq.id}{io.SEQUENCE_SUFFIX}")
            log.append((res.recording_id, len(res.sequences), res.drops))
        if not log and not errors:
            print(f"warning: no recordings under {in_dir}", file=sys.stderr)
        io.write_curation_log(log, staging / "curation_log.json")
    n_seq = sum(n for _, n, _ in log)
    n_drop = sum(len(drops) for _, _, drops in log)
    print(f"curated {n_seq} sequences from {len(log)} recordings ({n_drop} events dropped)")
    return 2 if errors else 0


def cmd_stats(args) -> int:
    _emit(stats(_sequences(io.read_sequence, args.in_dir)).to_dict(), args.out)
    return 0


def cmd_split(args) -> int:
    # the split needs only ids and video ids: read each file's header alone
    headers = list(_sequences(io.read_sequence_header, args.in_dir))
    overrides = None
    if args.override:
        overrides = _json_object(args.override, "video_id -> side")
        for video, side in overrides.items():
            if side not in ("train", "test"):
                raise PnrError(f"{args.override}: side of {video!r} must be "
                               f"train or test, got {side!r}")
    manifest = split(headers, ratio=args.ratio, seed=args.seed,
                     video_overrides=overrides)
    _emit(manifest.to_dict(), args.out)
    return 0


def _pairs(args):
    """EvalPairs on args.n frames, one at a time, for every ground-truth
    sequence with a prediction of the same id. The predictions' headers
    are read first; then each ground truth in file-name order, with its
    prediction; then the predictions no ground truth matched, so that
    every file is checked. PnrError when either directory repeats an id,
    and EmptyCorpus after the last file when there is no pair. evaluate
    warns of each ground truth without a prediction as it reads it."""
    paths = io.sequence_paths(args.pred)
    headers = _unique(map(io.read_sequence_header, paths), "sequence", args.pred)
    preds = {header.id: path for header, path in zip(headers, paths)}
    empty = True
    for gt in _unique(map(io.read_sequence, io.sequence_paths(args.gt)), "sequence", args.gt):
        if gt.id in preds:
            empty = False
            yield EvalPair.from_sequences(io.read_sequence(preds.pop(gt.id)).motion, gt, args.n)
        elif args.command == "evaluate":
            print(f"warning: no prediction for {gt.id}", file=sys.stderr)
    for path in preds.values():
        io.read_sequence(path)
    if empty:
        raise EmptyCorpus(f"no (prediction, ground truth) pairs to {args.command}")


def cmd_evaluate(args) -> int:
    config = MetricsConfig(theta_deg=args.theta, sigma=args.sigma, n_frames=args.n)
    report = evaluate(_pairs(args), config)
    _emit(report.to_dict(), args.out)
    return 0


def cmd_sweep(args) -> int:
    grid = prime_success_sweep(_pairs(args), args.thetas, args.sigmas)
    if args.out:
        io.write_sweep_csv(args.thetas, args.sigmas, grid, args.out)
    else:
        print(io.sweep_csv(args.thetas, args.sigmas, grid), end="")
    return 0


def cmd_synth(args) -> int:
    payload = _json_object(args.spec, "scenario fields")
    try:
        if "seed" in payload:
            raise ValueError("seed is not a spec field: recording seeds are set by --seed")
        n_recordings = payload.pop("n_recordings", 1)
        if type(n_recordings) is not int or not 0 <= n_recordings <= MAX_RECORDINGS:
            raise ValueError(f"n_recordings must be an integer in [0, {MAX_RECORDINGS}], "
                             f"got {n_recordings!r}")
        prime_mode = payload.pop("prime_mode", "direct_hit")
        room = payload.pop("room", None)
        if room is not None:
            if not (isinstance(room, dict) and all(
                    type(c) is list and all(map(finite_number, c)) for c in room.values())):
                raise ValueError("room corners must be lists of finite numbers")
            payload["room"] = Aabb(**room)
        mixed = prime_mode == "mixed"
        if not mixed:
            payload["prime_mode"] = prime_mode
        base = ScenarioSpec(**payload)
    except (TypeError, ValueError) as exc:
        print(f"error: bad scenario spec: {exc}", file=sys.stderr)
        return 1
    corpus = generate_corpus(base, n_recordings, seed=args.seed, mixed_modes=mixed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for rec, labels in corpus:
        io.write_recording(rec, out_dir / f"{rec.id}{io.RECORDING_SUFFIX}")
        io.write_labels(labels, out_dir / f"{rec.id}.labels.json")
    print(f"wrote {len(corpus)} recordings to {out_dir}")
    return 0


def cmd_baseline(args) -> int:
    """One pass over the training sequences, which also gives the ground
    truths when --gt is the same directory. Of each ground truth only its
    prediction's header is kept: the sequence without its frames, its
    prime frame and its fps on --n frames."""
    same_dir = Path(args.gt).resolve() == Path(args.train).resolve()
    kept = []

    def keep(gt):
        kept.append((replace(gt, motion=None, prime_frame_index=resampled_index(
            gt.prime_frame_index, gt.motion.n_frames, args.n)),
            resampled_fps(gt.motion.fps, gt.motion.n_frames, args.n)))
        return gt

    train = _sequences(io.read_sequence, args.train, "training ")
    mean_pose = static_baseline(map(keep, train) if same_dir else train, n=args.n).joints
    if not same_dir:
        for gt in _sequences(io.read_sequence, args.gt, "ground-truth "):
            keep(gt)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for gt, fps in kept:
        seq = replace(gt, motion=MotionSequence(fps, mean_pose))
        io.write_sequence(seq, out_dir / f"{seq.id}{io.SEQUENCE_SUFFIX}")
    print(f"wrote {len(kept)} static predictions to {out_dir}")
    return 0


def _number(text: str, ok, what: str) -> float:
    """A finite float for which ok(x) holds, else an argparse usage error."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not (finite_number(x) and ok(x)):
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return x


def _nonnegative(text: str) -> float:
    """argparse type of --w, --tau, --prepend, --min-movement and --sigma."""
    return _number(text, lambda x: x >= 0.0, "a finite number >= 0")


def _angle(text: str) -> float:
    """argparse type of --theta: degrees in [0, 180]."""
    return _number(text, lambda x: 0.0 <= x <= 180.0, "an angle in [0, 180] degrees")


# Most angles a --thetas range may give: a 0.01 degree step over [0, 180].
MAX_THETAS = 18_001


def _thetas(text: str) -> list:
    """argparse type of --thetas: a comma list, or start:stop:step, which
    gives start + k * step for every integer k >= 0 whose angle does not
    pass stop (stop included when a step lands on it), at most MAX_THETAS
    angles; degrees within [0, 180]."""
    if ":" not in text:
        return [_angle(x) for x in text.split(",")]
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("theta range must be start:stop:step")
    start, stop = _angle(parts[0]), _angle(parts[1])
    step = _number(parts[2], lambda x: x > 0.0, "a range step > 0")
    span = stop - start
    too_many = argparse.ArgumentTypeError(f"range {text!r} gives more than {MAX_THETAS} angles")
    if span / step > MAX_THETAS:  # checked before any angle is made
        raise too_many
    # span / step is rounded: k runs one past it, which may still land on stop
    angles = start + np.arange(int(span / step) + 2) * step
    thetas = angles[angles <= stop].tolist()
    if len(thetas) > MAX_THETAS:
        raise too_many
    if not thetas:
        raise argparse.ArgumentTypeError(f"range {text!r} gives no angle: start is past stop")
    return thetas


def _sigmas(text: str) -> list:
    """argparse type of --sigmas: a comma list of finite numbers >= 0."""
    return [_nonnegative(x) for x in text.split(",")]


def _integer(text: str, lo: int, hi: float) -> int:
    """An integer in [lo, hi], else an argparse usage error."""
    try:
        n = int(text)
    except ValueError:
        n = lo - 1
    if not lo <= n <= hi:
        bound = f"in [{lo}, {hi}]" if hi < math.inf else f">= {lo}"
        raise argparse.ArgumentTypeError(f"must be an integer {bound}, got {text!r}")
    return n


def _frame_count(text: str) -> int:
    """argparse type of --n: an integer number of frames in [2, MAX_FRAMES]."""
    return _integer(text, 2, MAX_FRAMES)


def _seed(text: str) -> int:
    """argparse type of --seed: an integer >= 0."""
    return _integer(text, 0, math.inf)


def _split_ratio(text: str) -> float:
    """argparse type of --ratio: a number strictly between 0 and 1."""
    return _number(text, lambda x: 0.0 < x < 1.0, "a number in (0, 1)")


def build_parser() -> _Parser:
    parser = _Parser(prog="pnr", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("curate", help="slice recordings into sequences")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out", dest="out_dir", required=True)
    p.add_argument("--w", type=_nonnegative, default=DEFAULT_WINDOW)
    p.add_argument("--tau", type=_nonnegative, default=DEFAULT_TAU)
    p.add_argument("--prepend", type=_nonnegative, default=DEFAULT_PREPEND)
    p.add_argument("--min-movement", type=_nonnegative, default=DEFAULT_MIN_MOVEMENT)
    p.set_defaults(func=cmd_curate)

    p = sub.add_parser("stats", help="corpus statistics")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("split", help="video-level train/test split")
    p.add_argument("--in", dest="in_dir", required=True)
    p.add_argument("--ratio", type=_split_ratio, default=0.7)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--override", help="JSON file of video_id -> side")
    p.add_argument("--out")
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--theta", type=_angle, default=DEFAULT_THETA_DEG)
    p.add_argument("--sigma", type=_nonnegative, default=DEFAULT_SIGMA)
    p.add_argument("--n", type=_frame_count, default=DEFAULT_N_FRAMES)
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="prime-success threshold sweep")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--thetas", type=_thetas, default="0:90:2",
                   help="start:stop:step or comma list")
    p.add_argument("--sigmas", type=_sigmas, default="0,0.2,0.4,0.8,1.0")
    p.add_argument("--n", type=_frame_count, default=DEFAULT_N_FRAMES)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("synth", help="generate synthetic recordings")
    p.add_argument("--spec", required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("baseline", help="non-learned baseline predictions")
    p.add_argument("kind", choices=["static"])
    p.add_argument("--train", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n", type=_frame_count, default=DEFAULT_N_FRAMES)
    p.set_defaults(func=cmd_baseline)
    return parser


def main(argv=None) -> int:
    """Run one command; unreadable or malformed input gives exit 2 here."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, PnrError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
