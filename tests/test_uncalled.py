"""Every function defined in ``src/pnr`` must run in one pass of the README
command chain plus one pass of model scoring, except those allowed below.

The pass runs in a fresh interpreter whose profiler starts before
``import pnr``, so calls made at import count too. It runs synth, curate,
stats, split, baseline static, evaluate and sweep through ``pnr.cli.main``
on 4 recordings, with ``--n``, ``--ratio`` and ``--out`` given so that
their parsers run. Then one procedural -> encode -> decode -> pair ->
evaluate -> sweep pass scores the curated sequences. A function that
neither runs there nor is allowed here is code that nothing uses: delete
it, or wire it in. An allowed function that does run is taken off the
list."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pnr

SRC = Path(pnr.__file__).resolve().parent

ALLOWED = {
    # the scalar API that demos/01 and demos/04 call
    "gaze.GazeSample.__post_init__": "demos/01",
    "gaze.GazeTrack.from_samples": "demos/01, through gaze_ray",
    "gaze.gaze_ray": "demos/01",
    "geometry.vec3": "demos/01",
    "geometry.unit": "demos/01",
    "geometry.as_unit": "demos/01, through Ray and angular_error",
    "geometry.Ray.__post_init__": "demos/01",
    "geometry.Ray.at": "demos/01, through near_miss",
    "geometry.slab_intersect": "demos/01",
    "geometry.near_miss": "demos/01",
    "geometry.angular_error": "demos/01",
    # the eager corpus loop that demos/02, demos/03 and perfbench's
    # curate_dense time; the CLI curates one recording at a time
    "curation.curate_corpus": "demos/02 and demos/03",
    # public API that only tests call
    "motion.head_forward": "exported one-pose wrapper of head_forward_batch",
    "curation.PnRSequence.goal_pose": "the goal pose a sequence conditions on",
    # the decoder of the rotation channels, which nothing in the pipeline reads
    "features.rot6d_to_matrix": "the tests' oracle for the stored rows",
    # error paths
    "cli._Parser.error": "usage errors",
    "errors.DegenerateGaze.__init__": "a zero gaze direction",
    "errors.MalformedFile.__init__": "malformed input",
    "io_jsonl._Column._vector": "a row of the wrong shape or type",
}

SCRIPT = r"""
import sys

called = set()


def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


sys.setprofile(profile)

import contextlib
import io
import json
from pathlib import Path

import pnr
from pnr import cli, features, io_jsonl, metrics, motion, synth

work = Path(sys.argv[1])
spec = {"n_recordings": 4, "duration": 8.0, "fps": 30.0, "n_objects": 3,
        "planted_prime_offset": 3.0, "planted_event_kind": "pick",
        "gaze_noise_std": 0.01, "walk_speed": 1.0, "prime_mode": "mixed"}
(work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
recs, seqs, preds = work / "recordings", work / "sequences", work / "preds"
chain = [
    ["synth", "--spec", work / "spec.json", "--seed", "1", "--out", recs],
    ["curate", "--in", recs, "--out", seqs],
    ["stats", "--in", seqs, "--out", work / "stats.json"],
    ["split", "--in", seqs, "--ratio", "0.7", "--seed", "7", "--out", work / "split.json"],
    ["baseline", "static", "--train", seqs, "--gt", seqs, "--out", preds, "--n", "150"],
    ["evaluate", "--pred", preds, "--gt", seqs, "--n", "150", "--out", work / "report.json"],
    ["sweep", "--pred", preds, "--gt", seqs, "--thetas", "0:90:2",
     "--sigmas", "0,0.2,0.4,0.8,1.0", "--n", "150", "--out", work / "sweep.csv"],
]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in chain:
        assert cli.main([str(a) for a in argv]) == 0, argv

pairs = []
for gt in map(io_jsonl.read_sequence, io_jsonl.sequence_paths(seqs)):
    fps = motion.resample(gt.motion, 150).fps
    pred = synth.procedural_pnr(gt.initial_state, gt.goal_location, gt.event.event.kind,
                                n=150, fps=fps)
    decoded = features.from_features(features.to_features(pred), fps)
    pairs.append(metrics.EvalPair.from_sequences(decoded, gt, 150))
assert pairs
metrics.evaluate(pairs)
metrics.prime_success_sweep(pairs, [0.0, 16.0, 90.0], [0.0, 0.2])
sys.setprofile(None)

called = sorted({(c.co_filename, c.co_firstlineno) for c in called})
(work / "called.json").write_text(json.dumps({"pnr": pnr.__file__, "called": called}),
                                  encoding="utf-8")
"""


def defined_functions():
    """{"module.qualname": (path, first line)} of every def under SRC; the
    first line is that of the first decorator, as in the code object."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[name] = (str(path.resolve()), first)
                walk(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path, path.stem + ".")
    return found


def test_every_function_is_called(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent),
                                                      env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads((tmp_path / "called.json").read_text(encoding="utf-8"))
    assert Path(result["pnr"]).resolve().parent == SRC
    called = {(str(Path(path).resolve()), line) for path, line in result["called"]}
    defined = defined_functions()
    assert set(ALLOWED) <= set(defined), "allowed but not defined"
    uncalled = {name for name, where in defined.items() if where not in called}
    assert sorted(uncalled - set(ALLOWED)) == [], "defined but never called"
    assert sorted(set(ALLOWED) - uncalled) == [], "allowed but called"
