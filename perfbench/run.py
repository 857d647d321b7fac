"""pnr benchmark: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload cli_pipeline --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 [--trace 1]  # every workload, one table
    python3 perfbench/run.py --smoke          # tiny sizes + planted defects
    python3 -m pytest perfbench               # the same smoke mode as a test

Run from the repository root. The benchmark imports pnr from ``src/`` of
the checkout it sits in and fails (exit 2, no result line) when that is
missing. Set-up runs SETUP_REPEATS times and reports the median; then
iterations repeat until ``--seconds`` (default: run_seconds of
BENCHMARK.json) have passed, at least MIN_ITERATIONS times, and times are
medians over iterations. All times are calibrated seconds (calibrate.py)
so that runs on a shared host stay comparable; raw times are kept in the
run record. Every iteration's outputs are checked and hashed; a digest
that differs from the first iteration's counts as a failed operation.

With ``--trace 1`` iterations alternate untraced and traced; per-layer
metrics are medians over the traced ones, exact counters must repeat in
every traced iteration, and ``trace.overhead_s`` is the traced minus the
untraced median wall time.

The last line of stdout is the result object: ``correct``, ``attempted``,
``failed`` (operations: a command, a recording or a pair) and ``metrics``,
holding the ``end_to_end`` metrics of BENCHMARK.json untraced and its
``per_layer`` metrics traced. The lines before it give the environment,
every metric with its unit (also ``failed_ratio`` and, for cli_pipeline,
the wait for each command), failure reasons and the output digest; the
same record is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

SETUP_REPEATS = 5
MIN_ITERATIONS = 3
MIN_TRACED_ITERATIONS = 2  # of each kind, so counters can be compared

# Tiny sizes for --smoke; normal runs use the workload classes' defaults.
SMOKE_SIZES = {
    "cli_pipeline": {"n_recordings": 3, "warmup_recordings": 1},
    "curate_dense": {"n_recordings": 3, "duration": 20.0, "fps": 30.0},
    "model_eval": {"n_pairs": 4},
}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no pnr sources, bad config)."""


def load_config() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read {path}: {exc}") from exc


def import_pnr():
    """Import pnr from this checkout's src/ only, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "pnr" / "__init__.py").is_file():
        raise SetupError(f"no pnr sources under {src}")
    sys.path.insert(0, str(src))
    import pnr
    import pnr.cli  # noqa: F401  (cli is not imported by the package itself)

    if Path(pnr.__file__).resolve().parent != (src / "pnr").resolve():
        raise SetupError(f"pnr imported from {pnr.__file__}, not {src}")
    return pnr


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(pnr, seed) -> dict:
    import numpy as np

    src = sorted((ROOT / "src" / "pnr").glob("*.py"))
    h = hashlib.sha256()
    for f in src:
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        # curate_corpus's default pool size, with PNR_THREADS unset
        "curate_workers": os.cpu_count() or 1,
        "numba": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": _git_commit(),
        "src_sha256": h.hexdigest(),
        "pnr_version": pnr.__version__,
    }


def make_workload(name, pnr, workdir, smoke=False):
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    kwargs = dict(SMOKE_SIZES[name]) if smoke else {}
    if name == "cli_pipeline":
        kwargs["workdir"] = workdir
    return cls(pnr, **kwargs)


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(pnr, workload, seed, seconds, trace, defect=None):
    """Set up, iterate for ``seconds`` and check; returns (record, tracer).

    Every time in the record is in calibrated seconds (see calibrate.py);
    raw times are kept under ``raw``. ``defect`` plants a fault after an
    iteration ran and before it is checked (used by --smoke to show that
    the checks catch it)."""
    from calibrate import Clock
    from tracer import Tracer

    setup_raw, setup_cal, state = [], [], None
    for _ in range(SETUP_REPEATS):
        state = None  # drop the previous inputs before building new ones
        clock = Clock()
        state = workload.setup(seed, clock)
        setup_raw.append(clock.raw_s)
        setup_cal.append(clock.calibrated_s)

    tracer = Tracer(pnr) if trace else None
    plain, traced = [], []  # per iteration: (Clock, layer summary or None)
    first_digests, first_counts = None, None
    attempted = failed = 0
    reasons, examples = Counter(), {}
    all_digests = []
    start = time.perf_counter()
    k = 0
    while True:
        if trace:
            enough = min(len(plain), len(traced)) >= MIN_TRACED_ITERATIONS
        else:
            enough = len(plain) >= MIN_ITERATIONS
        if enough and time.perf_counter() - start >= seconds:
            break
        use_trace = trace and k % 2 == 1
        clock, summary = Clock(), None
        if use_trace:
            tracer.reset()
            with tracer.installed():
                data = workload.run(state, k, clock)
            factor = clock.calibrated_s / clock.raw_s if clock.raw_s > 0 else 1.0
            summary = {key: v * factor if key.endswith("_s") else v
                       for key, v in tracer.summary().items()}
            summary["proc.cpu_s"] = clock.cpu_s * factor
        else:
            data = workload.run(state, k, clock)
        if defect is not None:
            defect(workload, state, data, k)
        fails, digests = workload.check(state, data)
        if first_digests is None:
            first_digests = digests
        for op, digest in digests.items():
            if first_digests.get(op) != digest:
                fails.setdefault(op, []).append("output digest differs from the first iteration")
        if summary is not None:
            counts = {key: v for key, v in summary.items() if not key.endswith("_s")}
            if first_counts is None:
                first_counts = counts
            elif counts != first_counts:
                changed = sorted(key for key in set(counts) | set(first_counts)
                                 if counts.get(key) != first_counts.get(key))
                for op in fails:
                    fails[op].append(f"counters differ from the first traced iteration: "
                                     f"{', '.join(changed[:5])}")
        attempted += len(fails)
        for op, errs in fails.items():
            if errs:
                failed += 1
            kind = op if op in getattr(workload, "COMMANDS", ()) else workload.item
            for e in errs:
                key = f"{kind}: {_shape(e)}"
                reasons[key] += 1
                examples.setdefault(key, f"{op}: {e}")
        all_digests.append(_combined(digests))
        (traced if use_trace else plain).append((clock, summary))
        workload.release(data)
        k += 1

    items = workload.items(state)
    wall = _median([c.calibrated_s for c, _ in plain])
    record = {
        "workload": workload.name,
        "items": items,
        "item": workload.item,
        "iterations": len(plain),
        "traced_iterations": len(traced),
        "attempted": attempted,
        "failed": failed,
        "failure_reasons": dict(reasons),
        "failure_examples": examples,
        "digest": all_digests[0] if all_digests else None,
        "digests_repeat": len(set(all_digests)) == 1,
        "end_to_end": {
            "setup_s": _median(setup_cal),
            "wall_s": wall,
            "items_per_s": items / wall if wall > 0 else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "failed_ratio": failed / attempted if attempted else 0.0,
        },
        "raw": {"setup_s": setup_raw, "wall_s": [c.raw_s for c, _ in plain],
                "calibrated_wall_s": [c.calibrated_s for c, _ in plain],
                "cpu_s": [c.cpu_s for c, _ in plain]},
    }
    record["stages_s"] = {stage: _median([c.steps[stage] for c, _ in plain])
                          for stage in (plain[0][0].steps if plain else ())}
    for stage in getattr(workload, "COMMANDS", ()):
        record["end_to_end"][f"cmd_{stage}_s"] = record["stages_s"][stage]
    if trace:
        keys = set().union(*(s for _, s in traced))
        layer = {key: _median([s.get(key, 0.0) for _, s in traced]) for key in sorted(keys)}
        traced_wall = _median([c.calibrated_s for c, _ in traced])
        layer["trace.overhead_s"] = traced_wall - wall
        layer["trace.traced_wall_s"] = traced_wall
        record["per_layer"] = layer
    return record, tracer


def _shape(error: str) -> str:
    """An error message with ids and numbers blanked, to group failures."""
    return re.sub(r"[\w.()-]*\d[\w.()-]*", "#", error)[:100]


def _combined(digests: dict) -> str:
    h = hashlib.sha256()
    for op in sorted(digests):
        h.update(f"{op}={digests[op]}\n".encode())
    return h.hexdigest()


def result_line(record, config, trace) -> dict:
    section = "per_layer" if trace else "end_to_end"
    source = record["per_layer"] if trace else record["end_to_end"]
    metrics = {}
    for spec in config[section]:
        name = spec["name"]
        if trace:
            value = source.get(name, 0.0)  # a layer the workload never calls
        elif name in source:
            value = source[name]
        else:
            raise SetupError(f"workload {record['workload']} does not produce {name}")
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


UNITS = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s", "peak_rss_mb": "MB",
         "failed_ratio": "ratio"}


def print_report(record, env, trace) -> None:
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"workload {record['workload']}: {record['items']} {record['item']}s per iteration, "
          f"{record['iterations']} untraced / {record['traced_iterations']} traced iterations")
    for name, value in record["end_to_end"].items():
        print(f"  {name:<18} {value:>14.6g} {UNITS.get(name, 's')}")
    if record["workload"] != "cli_pipeline":
        for name, value in record["stages_s"].items():
            print(f"  step {name:<13} {value:>14.6g} s")
    print(f"  attempted {record['attempted']}, failed {record['failed']}")
    for key, n in sorted(record["failure_reasons"].items()):
        print(f"  FAILED x{n}: {record['failure_examples'][key]}")
    print(f"  output digest {record['digest']} (repeats: {record['digests_repeat']})")
    if trace:
        print("per-layer (median over traced iterations):")
        for name, value in record["per_layer"].items():
            print(f"  {name:<48} {value:>14.6g}")


def main_one(args) -> int:
    config = load_config()
    pnr = import_pnr()
    os.environ.pop("PNR_THREADS", None)
    env = environment(pnr, args.seed)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = make_workload(args.workload, pnr, workdir)
        record, tracer = run_workload(pnr, workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["environment"] = env
    line = result_line(record, config, bool(args.trace))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.dump(out_dir / f"{stem}.spans.jsonl")
    print_report(record, env, bool(args.trace))
    print(json.dumps(line))
    return 0


def main_all(args) -> int:
    """Every workload in its own fresh process, then one table."""
    config = load_config()
    names = [w["name"] for w in config["workloads"]]
    rows = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            return proc.returncode
        rec = json.loads((ROOT / ".bench_out" /
                          f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())
        rows[name] = rec
    section = "per_layer" if args.trace else "end_to_end"
    metrics = sorted({m for r in rows.values() for m in r[section]},
                     key=lambda m: (m not in UNITS, m))
    print(f"{'metric':<48}" + "".join(f"{n:>16}" for n in names))
    for m in metrics:
        unit = UNITS.get(m, "s") if not args.trace else ""
        cells = "".join(f"{rows[n][section][m]:>16.6g}" if m in rows[n][section] else f"{'-':>16}"
                        for n in names)
        print(f"{m + (' [' + unit + ']' if unit else ''):<48}{cells}")
    print(f"{'attempted / failed':<48}" + "".join(
        f"{str(rows[n]['attempted']) + ' / ' + str(rows[n]['failed']):>16}" for n in names))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and planted defects; exit 0 iff every check behaves")
    args = parser.parse_args(argv)
    try:
        if args.seconds is None:
            args.seconds = float(load_config()["run_seconds"])
        if args.smoke:
            from smoke import run_smoke

            return run_smoke(import_pnr())
        if args.workload == "all":
            return main_all(args)
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all")
        return main_one(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
