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
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import io_jsonl as io
from .curation import curate_corpus, split, stats
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
from .motion import MAX_FRAMES, MotionSequence, resample, resampled_index
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


def _sequences(read, path, what: str = "") -> list:
    """``read`` (io.read_sequence, or read_sequence_header) of every
    sequence file under a directory; EmptyCorpus when there are none, and
    PnrError when two share an id."""
    sequences = list(_unique(map(read, io.sequence_paths(path)), "sequence", path))
    if not sequences:
        raise EmptyCorpus(f"no {what}sequences under {path}")
    return sequences


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


def cmd_curate(args) -> int:
    in_dir = Path(args.in_dir)
    if not in_dir.is_dir():
        raise PnrError(f"input directory not found: {in_dir}")
    recordings, errors = [], 0
    for path in sorted(in_dir.glob(f"*{io.RECORDING_SUFFIX}")):
        try:
            recordings.append(io.read_recording(path))
        except (OSError, MalformedFile) as exc:  # reported and skipped
            print(f"error: {exc}", file=sys.stderr)
            errors += 1
    if not recordings and not errors:
        print(f"warning: no recordings under {in_dir}", file=sys.stderr)
    results = curate_corpus(
        list(_unique(recordings, "recording", in_dir)),
        prepend=args.prepend,
        w=args.w,
        tau=args.tau,
        min_movement=args.min_movement,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for res in results:
        for seq in res.sequences:
            io.write_sequence(seq, out_dir / f"{seq.id}{io.SEQUENCE_SUFFIX}")
    io.write_curation_log(results, out_dir / "curation_log.json")
    n_seq = sum(len(r.sequences) for r in results)
    n_drop = sum(len(r.drops) for r in results)
    print(f"curated {n_seq} sequences from {len(recordings)} recordings "
          f"({n_drop} events dropped)")
    return 2 if errors else 0


def cmd_stats(args) -> int:
    _emit(stats(_sequences(io.read_sequence, args.in_dir)).to_dict(), args.out)
    return 0


def cmd_split(args) -> int:
    # the split needs only ids and video ids: read each file's header alone
    headers = _sequences(io.read_sequence_header, args.in_dir)
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


def _pairs(args) -> list:
    """EvalPairs on args.n frames for every ground-truth sequence with a
    prediction of the same id; EmptyCorpus when there are none, and
    PnrError when either directory repeats an id. evaluate warns of each
    ground truth without a prediction."""
    gt_seqs, preds = (_unique(map(io.read_sequence, io.sequence_paths(d)), "sequence", d)
                      for d in (args.gt, args.pred))
    gt_seqs, preds = list(gt_seqs), {p.id: p.motion for p in preds}
    pairs = [EvalPair.from_sequences(preds[gt.id], gt, args.n)
             for gt in gt_seqs if gt.id in preds]
    if args.command == "evaluate":
        for gt in gt_seqs:
            if gt.id not in preds:
                print(f"warning: no prediction for {gt.id}", file=sys.stderr)
    if not pairs:
        raise EmptyCorpus(f"no (prediction, ground truth) pairs to {args.command}")
    return pairs


def cmd_evaluate(args) -> int:
    pairs = _pairs(args)
    config = MetricsConfig(theta_deg=args.theta, sigma=args.sigma, n_frames=args.n)
    report = evaluate(pairs, config)
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
    train = _sequences(io.read_sequence, args.train, "training ")
    same_dir = Path(args.gt).resolve() == Path(args.train).resolve()
    gt_seqs = train if same_dir else _sequences(io.read_sequence, args.gt, "ground-truth ")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    mean_pose = static_baseline(train, n=args.n).joints
    for gt in gt_seqs:
        gt_res = resample(gt.motion, args.n)
        pred = MotionSequence(gt_res.fps, mean_pose)
        seq = replace(gt, motion=pred, prime_frame_index=resampled_index(
            gt.prime_frame_index, gt.motion.n_frames, args.n))
        io.write_sequence(seq, out_dir / f"{seq.id}{io.SEQUENCE_SUFFIX}")
    print(f"wrote {len(gt_seqs)} static predictions to {out_dir}")
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
