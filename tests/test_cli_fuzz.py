"""A contract fuzzer for the command line.

Argv for every subcommand is built from ``build_parser()``'s own option
table. Typed options get NaN, +-inf, zero, negative, huge and malformed
values and ranges; ``synth`` gets specs with wrong-typed and out-of-range
fields; path options get the right kind of path or a wrong one. Each argv
runs in-process on a fresh copy of a two-recording corpus, and must end
in exit 0, 1 or 2 with no exception escaping ``main``.
"""

import argparse
import contextlib
import json
import shutil
import tempfile
from dataclasses import fields
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pnr import io_jsonl as io
from pnr.cli import build_parser, main
from pnr.synth import ScenarioSpec, generate_corpus

SUBCOMMANDS = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices

# values of typed options: at and past each documented range, and malformed
TEXTS = ["nan", "inf", "-inf", "0", "-0", "-1", "1", "2", "0.5", "7", "90", "180", "181",
         "1e308", "100001", "100000000000000000000", "x", "", "0:90:0", "0:10:-1",
         "10:0:1", "0:180:1e-6", "0:90:30", "0:90", "1:2:3:4", "nan:90:1", "0,nan", "5,x",
         "10,20"]

# Spec values stay small enough to synthesize at once: any duration and fps
# drawn here either give at most 901 frames or are refused.
NUMBERS = [float("nan"), float("inf"), float("-inf"), 0, -1, 0.5, 6.0, 30.0, 1e12, 1e300,
           10 ** 400]
WRONG_TYPES = ["x", None, [1.0], {}, True]
ROOMS = [
    {"min": [-4, 0, -4], "max": [4, 2.5, 4]},
    {"min": [0, 0, 0], "max": [0, 0, 0]},
    {"min": [0, 0, 0], "max": [3, 0.7, 3]},
    {"min": [-1e308, 0, -1e308], "max": [1e308, 3, 1e308]},
    {"min": [-10 ** 400, 0, -4], "max": [4, 2.5, 4]},
    {"min": [float("nan"), 0, 0], "max": [1, 1, 1]},
    {"min": [1, 1, 1], "max": [0, 0, 0]},
    {"min": [0, 0], "max": [1, 1]},
    {"min": [0, 0, 0]},
    5,
]
SPEC_FIELDS = {
    # counts past their caps are refused before anything is made
    "n_recordings": st.sampled_from([0, 1, 2, -1, 2.5, "many", True, None, 10 ** 9, 10 ** 400]),
    "n_objects": st.sampled_from([0, 2, -1, 1e9, "x", True, None, 10 ** 9, 10 ** 400]),
    "room": st.sampled_from(ROOMS),
    "prime_mode": st.sampled_from(["direct_hit", "near_miss", "mixed", "x", 5, None]),
    "planted_event_kind": st.sampled_from(["pick", "put", "x", 0]),
    "unknown_field": st.just(1),
    "seed": st.sampled_from([0, 5, -1, "x"]),
    **{f.name: st.sampled_from(NUMBERS + WRONG_TYPES)
       for f in fields(ScenarioSpec) if f.type == "float"},
}


@st.composite
def specs(draw):
    """A spec file: up to two drawn fields, or text that is no spec."""
    if draw(st.integers(0, 9)) == 9:
        return draw(st.sampled_from([b"[1]", b"{", b"\xff{}"]))
    names = draw(st.lists(st.sampled_from(sorted(SPEC_FIELDS)), max_size=2, unique=True))
    return json.dumps({name: draw(SPEC_FIELDS[name]) for name in names}).encode()


OVERRIDES = st.sampled_from([b'{"video-0001": "test"}', b'{"v": "sideways"}', b"[]", b"x"])
WRONG_PATHS = ["{recs}", "{seqs}", "{missing}", "{taken}", "{nodir}"]


def _right_path(command: str, dest: str) -> str:
    if dest in ("spec", "override"):
        return "{%s}" % dest
    if dest.startswith("out"):
        return "{out}"
    return "{recs}" if command == "curate" else "{seqs}"


@st.composite
def argvs(draw):
    """A subcommand and a value for each of its options that is required or
    drawn; placeholders in braces name the paths. One value in four is a
    bad one, so that many runs get past argument parsing."""
    command = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    argv = [command]
    for action in SUBCOMMANDS[command]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        if not (action.required or draw(st.booleans())):
            continue
        bad = draw(st.integers(0, 3)) == 3
        if action.choices is not None:
            value = "bogus" if bad else draw(st.sampled_from(action.choices))
        elif action.type is not None:
            good = "7" if action.default is None else str(action.default)
            value = draw(st.sampled_from(TEXTS)) if bad else good
        else:
            value = (draw(st.sampled_from(WRONG_PATHS)) if bad
                     else _right_path(command, action.dest))
        argv += [*action.option_strings[:1], value]
    return argv


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Two recordings and their curated sequences."""
    root = tmp_path_factory.mktemp("fuzz")
    recs, seqs = root / "recs", root / "seqs"
    recs.mkdir()
    for rec, _ in generate_corpus(ScenarioSpec(), 2, seed=5):
        io.write_recording(rec, recs / f"{rec.id}{io.RECORDING_SUFFIX}")
    assert main(["curate", "--in", str(recs), "--out", str(seqs)]) == 0
    return root


def _run(argv):
    with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


@given(argv=argvs(), spec=specs(), override=OVERRIDES)
@settings(max_examples=300, deadline=None)
def test_any_argv_exits_0_1_or_2(corpus, argv, spec, override):
    with tempfile.TemporaryDirectory(dir=corpus) as d:
        d = Path(d)
        shutil.copytree(corpus / "recs", d / "recs")
        shutil.copytree(corpus / "seqs", d / "seqs")
        (d / "spec.json").write_bytes(spec)
        (d / "override.json").write_bytes(override)
        (d / "taken").write_bytes(b"")
        paths = {"recs": d / "recs", "seqs": d / "seqs", "out": d / "out",
                 "spec": d / "spec.json", "override": d / "override.json",
                 "missing": d / "missing", "taken": d / "taken", "nodir": d / "nodir" / "x"}
        code = _run([a.format(**paths) for a in argv])
    event(f"{argv[0]} exits {code}")
    assert code in (0, 1, 2), argv
