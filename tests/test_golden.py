"""Golden files: the README command chain on a small fixed corpus must
write byte-for-byte the files it wrote when these digests were recorded.

Refactors of curation, pairing, resampling or the yaw kernels that claim
identical outputs are held to that claim here. Float formatting and libm
results enter the digests, so a platform whose numpy rounds differently
fails this test without a change to pnr; regenerate the table only for a
deliberate change of output, and say why in CHANGES.md.
"""

import hashlib
import json

from pnr.cli import main

SPEC = {"n_recordings": 4, "prime_mode": "mixed", "gaze_noise_std": 0.01}

# path relative to the working directory -> sha256 of its bytes
DIGESTS = {
    "preds/synth-1926383459-e000.seq.jsonl":
        "3b9cc50facb4d9b59188387d92b5a76b1011fd413b6e8f669dfdf5f0e0bfac8e",
    "preds/synth-2880094716-e000.seq.jsonl":
        "9a6a7de4082380948c5deb39f96df79c3d9fab6337d355ba9578469ac22192d1",
    "preds/synth-681398388-e000.seq.jsonl":
        "5db89f2c76208f008b3bf1c1641d9a82ef1d05cfb1e2e23803b299374bd9e3b4",
    "preds/synth-914257217-e000.seq.jsonl":
        "80f2d5a88cd5334c344b79a5673c0b1777df822709c6057f5d52cf432b163173",
    "recordings/synth-1926383459.labels.json":
        "dac8b84e2e3ca3dd504c8328b14c953bc107520fd0eb8666ef86eb6e3ef27e95",
    "recordings/synth-1926383459.rec.jsonl":
        "76bd025d7d13fbed40f6fb78588993897d56572ac8371355d11f8df1e791ccdc",
    "recordings/synth-2880094716.labels.json":
        "551112f2a3758c0d463da7eba48ae97e2ac839b412b9e81241c7511840c3a4df",
    "recordings/synth-2880094716.rec.jsonl":
        "f1c87deb13d29d12b3efd149ca16f78662dad0e78a66f1ff20d05664f396cbbf",
    "recordings/synth-681398388.labels.json":
        "80b4f99f3bb2ae271a3a901e18c63b066b4ce8491983560a278455059dae2ff2",
    "recordings/synth-681398388.rec.jsonl":
        "61b88ca1911cfa22cc2c37daa8d2b9d8c09bf4cb668d7207da17976658400996",
    "recordings/synth-914257217.labels.json":
        "12b9ce98d975ced517d7be2318b0b40b3351a2da9bbff55649867c61a0d5db11",
    "recordings/synth-914257217.rec.jsonl":
        "6fe614cb156a7e77bd8a99cbded3068662d04ef3514fe57f10ead1d7c0565790",
    "report.json":
        "62a3c3795ba1a2753d86393116436ba9e9f6b5c1e0f4f4c60d899229c951f50a",
    "report_n60.json":
        "a67854433031a72a0b2444c9bbacba35896373a6106651ef64bc573f2163b0da",
    "sequences/curation_log.json":
        "7a7bd1dff697ec75eb92db2dafca6dbd5edfa63540b13f36a5addb17378f50f8",
    "sequences/synth-1926383459-e000.seq.jsonl":
        "97942145b73e25a00476f6fa6d750d5dacc8c4b75d768c1f5142f021a39fa667",
    "sequences/synth-2880094716-e000.seq.jsonl":
        "dbd77a3607367718ce49e302da9ad5609ed3f23797bd77916bed681c66019e63",
    "sequences/synth-681398388-e000.seq.jsonl":
        "fb0a07a9ca25af9ae9acb8f7b1f2dde9616282d50ddb7635f22661f681e8baae",
    "sequences/synth-914257217-e000.seq.jsonl":
        "29d74c19cdbf818ecde27682b3f073e7f7825c9723024937b15a767d3cfff366",
    "split.json":
        "c052fcb7d6091e4f5f7ea2d2a2973add1c922ddd6f99f057893a98186631eaef",
    "stats.json":
        "8ce291d8d815fce1eb5d87c57a6ff0641e7159288d362cc00e1f23db5ef12dae",
    "sweep.csv":
        "a110c10de5aee79846bf491b80fa9a48928ba3204ac70dcecb6379668a9ed3bb",
}


def _run(capsys, *argv):
    assert main(list(argv)) == 0, argv
    return capsys.readouterr().out


def test_pipeline_outputs_match_golden_digests(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC), encoding="utf-8")
    d = {name: str(tmp_path / name) for name in
         ("recordings", "sequences", "preds", "split.json", "stats.json",
          "report.json", "report_n60.json", "sweep.csv")}
    _run(capsys, "synth", "--spec", str(spec), "--seed", "11", "--out", d["recordings"])
    _run(capsys, "curate", "--in", d["recordings"], "--out", d["sequences"])
    _run(capsys, "split", "--in", d["sequences"], "--seed", "3", "--out", d["split.json"])
    _run(capsys, "stats", "--in", d["sequences"], "--out", d["stats.json"])
    _run(capsys, "baseline", "static", "--train", d["sequences"], "--gt", d["sequences"],
         "--out", d["preds"])
    _run(capsys, "evaluate", "--pred", d["preds"], "--gt", d["sequences"],
         "--out", d["report.json"])
    # self-evaluation at a frame count other than the files' own: both
    # sides resample, and the prime metrics are not all zero
    _run(capsys, "evaluate", "--pred", d["sequences"], "--gt", d["sequences"], "--n", "60",
         "--out", d["report_n60.json"])
    sweep = ("sweep", "--pred", d["preds"], "--gt", d["sequences"],
             "--thetas", "0:90:10", "--sigmas", "0,0.2,1.0")
    _run(capsys, *sweep, "--out", d["sweep.csv"])
    printed = _run(capsys, *sweep)

    assert printed == (tmp_path / "sweep.csv").read_text(encoding="utf-8")
    got = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(tmp_path.rglob("*")) if p.is_file() and p != spec}
    assert got == DIGESTS
