"""Golden files: the README command chain on a small fixed corpus must
write byte-for-byte the files it wrote when these digests were recorded.

Refactors of curation, pairing, resampling or the yaw kernels that claim
identical outputs are held to that claim here. Regenerate the table only
for a deliberate change of output, and say why in CHANGES.md.

No output byte may depend on the BLAS kernel that OpenBLAS picks for the
CPU at run time: the data path makes no BLAS call. The chain is run again
under several kernels (``OPENBLAS_CORETYPE``) in subprocesses to hold it
to that. Run as a script, this file prints the digests of one chain run
in the directory it is given.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pnr
from pnr.cli import main
from pnr.features import from_features, to_features
from pnr.io_jsonl import read_sequence, sequence_paths
from pnr.motion import resample
from pnr.synth import procedural_pnr

SPEC = {"n_recordings": 4, "prime_mode": "mixed", "gaze_noise_std": 0.01}

# path relative to the working directory -> sha256 of its bytes
DIGESTS = {
    "preds/synth-1926383459-e000.seq.jsonl":
        "9c01e97575baa41752a06437c771fd78a7e1e9b046aa65784a202c65caaf28c5",
    "preds/synth-2880094716-e000.seq.jsonl":
        "c85047c44fcbf0d4784c7a2bd7cc86ad2af5f8cb68b39b596fde730f91ee7bc3",
    "preds/synth-681398388-e000.seq.jsonl":
        "0affc259106e143ad0ed885a87f2c8900ace0fcb6c7f3e95475cf085048a5862",
    "preds/synth-914257217-e000.seq.jsonl":
        "5689373cab92b21cfe00fce7921060a3657820d208bcd66207d95399e87f9676",
    "recordings/synth-1926383459.labels.json":
        "dac8b84e2e3ca3dd504c8328b14c953bc107520fd0eb8666ef86eb6e3ef27e95",
    "recordings/synth-1926383459.rec.jsonl":
        "e33bb73b3d6f60246141708254b1223713727781e86194f39c8e74b26b447b1d",
    "recordings/synth-2880094716.labels.json":
        "551112f2a3758c0d463da7eba48ae97e2ac839b412b9e81241c7511840c3a4df",
    "recordings/synth-2880094716.rec.jsonl":
        "7bf4168c6f0f0fa498373e7276a54672afe1cca0ee9e394b46f4acfc2cb6106b",
    "recordings/synth-681398388.labels.json":
        "80b4f99f3bb2ae271a3a901e18c63b066b4ce8491983560a278455059dae2ff2",
    "recordings/synth-681398388.rec.jsonl":
        "b8bc2a07fcd2bd8a28d7f0c0efa9c31c5d9c38a1896c6f6e066fff88f73c182a",
    "recordings/synth-914257217.labels.json":
        "12b9ce98d975ced517d7be2318b0b40b3351a2da9bbff55649867c61a0d5db11",
    "recordings/synth-914257217.rec.jsonl":
        "c489a742b93257c7584ad1666525790b147c14f1c796887282a1845ba98c83ca",
    "report.json":
        "241116b51a3a0d524bebbb059cfe5d427156ab20a5f55a849890e97fea8c21de",
    "report_n60.json":
        "a67854433031a72a0b2444c9bbacba35896373a6106651ef64bc573f2163b0da",
    "sequences/curation_log.json":
        "7a7bd1dff697ec75eb92db2dafca6dbd5edfa63540b13f36a5addb17378f50f8",
    "sequences/synth-1926383459-e000.seq.jsonl":
        "7e5865e1a2097c4d86de6d5c23b78a80ec9bd6b9de642466cac72f29efc7c092",
    "sequences/synth-2880094716-e000.seq.jsonl":
        "bac3f766eab3a063ab985f46926b408f9001ab62a2bf222cc32be805fafdcc85",
    "sequences/synth-681398388-e000.seq.jsonl":
        "849403a51305014159317a0cd152a81cf60e8161a3fd41c010453e0d1792c686",
    "sequences/synth-914257217-e000.seq.jsonl":
        "3eafb55ee396510f123c87763e9ab6586455d4d777b5751bb2fcf6730737374b",
    "split.json":
        "c052fcb7d6091e4f5f7ea2d2a2973add1c922ddd6f99f057893a98186631eaef",
    "stats.json":
        "8ce291d8d815fce1eb5d87c57a6ff0641e7159288d362cc00e1f23db5ef12dae",
    "sweep.csv":
        "a110c10de5aee79846bf491b80fa9a48928ba3204ac70dcecb6379668a9ed3bb",
}


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main([str(a) for a in argv]) == 0, argv
    return out.getvalue()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def chain_digests(root: Path) -> tuple[dict, str]:
    """Run the README chain in ``root``; returns the digest of every file it
    wrote, by path relative to ``root``, and what ``sweep`` printed."""
    spec = root / "spec.json"
    spec.write_text(json.dumps(SPEC), encoding="utf-8")
    d = {name: root / name for name in
         ("recordings", "sequences", "preds", "split.json", "stats.json",
          "report.json", "report_n60.json", "sweep.csv")}
    _run("synth", "--spec", spec, "--seed", "11", "--out", d["recordings"])
    _run("curate", "--in", d["recordings"], "--out", d["sequences"])
    _run("split", "--in", d["sequences"], "--seed", "3", "--out", d["split.json"])
    _run("stats", "--in", d["sequences"], "--out", d["stats.json"])
    _run("baseline", "static", "--train", d["sequences"], "--gt", d["sequences"],
         "--out", d["preds"])
    _run("evaluate", "--pred", d["preds"], "--gt", d["sequences"], "--out", d["report.json"])
    # self-evaluation at a frame count other than the files' own: both
    # sides resample, and the prime metrics are not all zero
    _run("evaluate", "--pred", d["sequences"], "--gt", d["sequences"], "--n", "60",
         "--out", d["report_n60.json"])
    sweep = ("sweep", "--pred", d["preds"], "--gt", d["sequences"],
             "--thetas", "0:90:10", "--sigmas", "0,0.2,1.0")
    _run(*sweep, "--out", d["sweep.csv"])
    printed = _run(*sweep)
    digests = {p.relative_to(root).as_posix(): _sha256(p.read_bytes())
               for p in sorted(root.rglob("*")) if p.is_file() and p != spec}
    return digests, printed


def feature_digests(seq_dir: Path) -> dict:
    """Digests of the 263-dim encoding of a procedural prediction for each
    curated sequence, and of its decoding, as model evaluation makes them."""
    out = {}
    for gt in map(read_sequence, sequence_paths(seq_dir)):
        fps = resample(gt.motion, 150).fps
        pred = procedural_pnr(gt.initial_state, gt.goal_location, gt.event.event.kind,
                              n=150, fps=fps)
        x = to_features(pred)
        out[f"features/{gt.id}"] = _sha256(x.tobytes())
        out[f"decoded/{gt.id}"] = _sha256(from_features(x, fps).joints.tobytes())
    return out


def test_pipeline_outputs_match_golden_digests(tmp_path):
    got, printed = chain_digests(tmp_path)
    assert printed == (tmp_path / "sweep.csv").read_text(encoding="utf-8")
    assert got == DIGESTS


def test_digests_independent_of_blas_kernel(tmp_path):
    # OpenBLAS reads OPENBLAS_CORETYPE once, when numpy loads it, so each
    # kernel needs a process of its own
    src = str(Path(pnr.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    runs = {}
    for kernel in ("Prescott", "Haswell", "SkylakeX"):
        root = tmp_path / kernel
        root.mkdir()
        done = subprocess.run([sys.executable, __file__, str(root)], capture_output=True,
                              text=True, timeout=120, env=dict(env, OPENBLAS_CORETYPE=kernel))
        assert done.returncode == 0, done.stderr
        runs[kernel] = json.loads(done.stdout)
    # the golden files, and an encoding and a decoding per curated sequence
    assert len(runs["Prescott"]) == len(DIGESTS) + 2 * SPEC["n_recordings"]
    assert runs["Haswell"] == runs["Prescott"]
    assert runs["SkylakeX"] == runs["Prescott"]


if __name__ == "__main__":
    root = Path(sys.argv[1])
    digests, _ = chain_digests(root)
    digests.update(feature_digests(root / "sequences"))
    print(json.dumps(digests, sort_keys=True))
