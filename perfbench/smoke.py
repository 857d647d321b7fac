"""Smoke mode: every workload at a tiny size, clean and with planted
defects, to show that the correctness and digest checks fail when they
should and pass when they should.

    python3 perfbench/run.py --smoke

Exit 0 iff every case behaves: a clean run has no failure, and each
planted defect is reported.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import replace

import run

DEFECT_ITERATION = 1  # plant after the first, clean, iteration


def _shift_curated_tp(workload, state, data, k):
    """cli_pipeline: one curated sequence file claims a prime time one
    frame late."""
    if k != DEFECT_ITERATION:
        return
    import json

    path = sorted((data["dir"] / "seq").glob("*-e000.seq.jsonl"))[0]
    lines = path.read_text(encoding="utf-8").splitlines()
    header = json.loads(lines[0])
    header["t_p"] += 1.0 / header["fps"]
    lines[0] = json.dumps(header, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _reformat_report(workload, state, data, k):
    """cli_pipeline: the report changes bytes but not values, so only the
    digest can notice."""
    if k != DEFECT_ITERATION:
        return
    path = data["dir"] / "report.json"
    path.write_text(path.read_text(encoding="utf-8").replace('"n": ', '"n":  '),
                    encoding="utf-8")


def _shift_dense_tp(workload, state, data, k):
    """curate_dense: the planted sequence of the first recording comes back
    one frame late."""
    if k != DEFECT_ITERATION:
        return
    idx = state["expected"][0][0]
    res = data["results"][0]
    for j, seq in enumerate(res.sequences):
        if seq.id.endswith(f"-e{idx:03d}"):
            late = replace(seq.event, t_p=seq.t_p + 1.0 / seq.motion.fps)
            res.sequences[j] = replace(seq, event=late)


def _nudge_dense_output(workload, state, data, k):
    """curate_dense: a sequence moves by 1 nm; checks pass, the digest must not."""
    if k != DEFECT_ITERATION:
        return
    res = next(r for r in data["results"] if r.sequences)
    seq = res.sequences[0]
    res.sequences[0] = replace(seq, motion=replace(seq.motion, joints=seq.motion.joints + 1e-9))


def _corrupt_decoded(workload, state, data, k):
    """model_eval: one decoded motion drifts 1 mm from its prediction."""
    if k != DEFECT_ITERATION:
        return
    decoded = data["decoded"]
    first = next(iter(decoded))
    decoded[first] = replace(decoded[first], joints=decoded[first].joints + 1e-3)


# (workload, case name, defect hook, failure text that must appear)
CASES = [
    ("cli_pipeline", "shifted t_p", _shift_curated_tp, "curate: #: recovered t_p"),
    ("cli_pipeline", "reformatted report", _reformat_report,
     "evaluate: output digest differs"),
    ("curate_dense", "shifted t_p", _shift_dense_tp, "recording: recovered t_p"),
    ("curate_dense", "nudged sequence", _nudge_dense_output,
     "recording: output digest differs"),
    ("model_eval", "corrupted decode", _corrupt_decoded, "pair: feature round trip"),
]


def _run(pnr, name, trace=False, defect=None):
    workdir = run.ROOT / ".bench_work" / f"smoke-{name}-{os.getpid()}"
    try:
        workload = run.make_workload(name, pnr, workdir, smoke=True)
        record, _ = run.run_workload(pnr, workload, seed=3, seconds=0.0, trace=trace,
                                     defect=defect)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return record


def run_smoke(pnr) -> int:
    ok = True

    def report(good, what):
        nonlocal ok
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {what}")

    produced = set()
    for name in run.SMOKE_SIZES:
        for trace in (False, True):
            rec = _run(pnr, name, trace=trace)
            produced |= set(rec.get("per_layer", ()))
            report(rec["failed"] == 0 and rec["attempted"] > 0 and rec["digests_repeat"],
                   f"{name} clean{' traced' if trace else ''}: {rec['attempted']} attempted, "
                   f"{rec['failed']} failed"
                   + (f": {sorted(rec['failure_reasons'])}" if rec["failed"] else ""))
            if trace:
                layer = rec["per_layer"]
                report(layer.get("trace.spans", 0) > 0, f"{name} traced: "
                       f"{int(layer.get('trace.spans', 0))} spans recorded")
    listed = {m["name"] for m in run.load_config()["per_layer"]}
    report(listed <= produced, f"every per_layer metric of BENCHMARK.json is produced"
           + (f"; missing: {sorted(listed - produced)}" if not listed <= produced else ""))
    for name, case, hook, expected in CASES:
        rec = _run(pnr, name, defect=hook)
        caught = any(r.startswith(expected) for r in rec["failure_reasons"])
        report(caught and rec["failed"] > 0,
               f"{name} {case}: expected '{expected}', got {sorted(rec['failure_reasons'])}")
    return 0 if ok else 1
