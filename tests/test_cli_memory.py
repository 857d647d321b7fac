"""The commands that read a directory hold one file's arrays at a time:
their peak RSS does not grow with the number of files. The library
aggregates they call keep no item they have been given."""

import shutil
import weakref

import pytest

from builders import run_pnr
from pnr import io_jsonl as io
from pnr.cli import main
from pnr.curation import stats
from pnr.metrics import EvalPair, evaluate, prime_success_sweep
from pnr.synth import ScenarioSpec, generate_corpus, static_baseline

SIZES = (10, 80)
GROWTH_MB = 3.0  # allowed rise of the peak from 10 to 80 recordings


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """{size: (recordings, sequences, predictions)}, directories of the first
    ``size`` default-spec recordings, their curated sequences and their
    static predictions."""
    root = tmp_path_factory.mktemp("memory")
    recs = [rec for rec, _ in generate_corpus(ScenarioSpec(), max(SIZES), seed=23)]
    out = {}
    for size in SIZES:
        rec_dir, seq_dir, pred_dir = (root / f"{name}{size}" for name in ("rec", "seq", "pred"))
        rec_dir.mkdir()
        for rec in recs[:size]:
            io.write_recording(rec, rec_dir / f"{rec.id}{io.RECORDING_SUFFIX}")
        for argv in (["curate", "--in", rec_dir, "--out", seq_dir],
                     ["baseline", "static", "--train", seq_dir, "--gt", seq_dir,
                      "--out", pred_dir]):
            assert main([str(a) for a in argv]) == 0
        out[size] = rec_dir, seq_dir, pred_dir
    return out


@pytest.mark.parametrize("command", ["curate", "stats", "baseline", "evaluate", "sweep"])
def test_peak_rss_independent_of_file_count(corpora, tmp_path, capsys, command):
    capsys.readouterr()  # the fixture's curate and baseline summaries
    peaks = {}
    for size, (recs, seqs, preds) in corpora.items():
        out = tmp_path / f"out{size}"
        argv = {
            "curate": ["curate", "--in", recs, "--out", out],
            "stats": ["stats", "--in", seqs, "--out", out],
            "baseline": ["baseline", "static", "--train", seqs, "--gt", seqs, "--out", out],
            "evaluate": ["evaluate", "--pred", preds, "--gt", seqs, "--out", out],
            "sweep": ["sweep", "--pred", preds, "--gt", seqs, "--out", out],
        }[command]
        run = run_pnr(argv, tmp_path / f"rss{size}")
        assert run.returncode == 0, run.stderr
        peaks[size] = run.peak_rss_mb
        shutil.rmtree(out, ignore_errors=True)
    assert peaks[max(SIZES)] - peaks[min(SIZES)] <= GROWTH_MB, peaks


def _released(items):
    """``items`` one at a time; fails when the item given two before is
    still alive as the next one is given (the one just before may still
    be bound to the consumer's loop variable)."""
    refs = []
    for item in items:
        assert len(refs) < 2 or refs[-2]() is None, f"item {len(refs) - 2} kept"
        refs.append(weakref.ref(item))
        yield item
    assert len(refs) > 2


def _pairs(seqs):
    return (EvalPair.from_sequences(s.motion, s, 150) for s in seqs)


@pytest.mark.parametrize("aggregate, items", [
    (lambda xs: stats(xs).to_dict(), iter),
    (lambda xs: static_baseline(xs, n=150).joints.tolist(), iter),
    (lambda xs: evaluate(xs).to_dict(), _pairs),
    (lambda xs: prime_success_sweep(xs, [0.0, 16.0], [0.0, 0.2]).tolist(), _pairs),
], ids=["stats", "static_baseline", "evaluate", "prime_success_sweep"])
def test_aggregates_keep_no_item(corpora, aggregate, items):
    # the same result as from a list, with no item kept past the next
    _, seq_dir, _ = corpora[min(SIZES)]
    paths = io.sequence_paths(seq_dir)
    assert aggregate(_released(items(map(io.read_sequence, paths)))) == aggregate(
        list(items(map(io.read_sequence, paths))))
