"""Score the procedural prime-then-reach synthesizer and the static
mean-pose baseline on a held-out synthetic test set, then sweep the
prime-success thresholds.

Run: python3 demos/03_baselines_and_metrics.py
"""

from pnr import (
    EvalPair,
    MotionSequence,
    ScenarioSpec,
    curate_corpus,
    evaluate,
    generate_corpus,
    procedural_pnr,
    prime_success_sweep,
    resample,
    split,
    static_baseline,
)

N_FRAMES = 150

print("== Building a 120-scenario corpus ==")
corpus = generate_corpus(ScenarioSpec(), 120, seed=77)
results = curate_corpus([rec for rec, _ in corpus])
sequences = [s for r in results for s in r.sequences]
manifest = split(sequences, ratio=0.7, seed=3)
train = [s for s in sequences if manifest.assignments[s.id] == "train"]
test = [s for s in sequences if manifest.assignments[s.id] == "test"]
print(f"  {len(train)} train / {len(test)} test sequences")


def procedural_pairs(gts):
    pairs = []
    for gt in gts:
        fps = resample(gt.motion, N_FRAMES).fps
        pred = procedural_pnr(gt.initial_state, gt.goal_location,
                              gt.event.event.kind, n=N_FRAMES, fps=fps)
        pairs.append(EvalPair.from_sequences(pred, gt, n=N_FRAMES))
    return pairs


def static_pairs(gts):
    mean = static_baseline(train, n=N_FRAMES, fps=30.0)
    pairs = []
    for gt in gts:
        fps = resample(gt.motion, N_FRAMES).fps
        pairs.append(EvalPair.from_sequences(
            MotionSequence(fps, mean.joints), gt, n=N_FRAMES))
    return pairs


def show(name, report):
    print(f"  {name:12s} prime {report.prime_success:5.1f}%  "
          f"reach {report.reach_success:5.1f}%  "
          f"loc-err {report.location_error_rate:5.1f}%  "
          f"goal-mpjpe {report.goal_mpjpe:.3f} m  "
          f"mpjpe {report.mpjpe:.3f} m  "
          f"skating {report.foot_skating:.3f}")


print("\n== Six metrics at defaults (theta=16 deg, sigma=0.2 s) ==")
show("procedural", evaluate(procedural_pairs(test)))
show("static", evaluate(static_pairs(test)))

print("\n== Prime-success sweep (procedural), rows = sigma ==")
thetas = [0, 8, 16, 32, 64, 90]
sigmas = [0.0, 0.2, 0.4, 0.8, 1.0]
grid = prime_success_sweep(procedural_pairs(test), thetas, sigmas)
print("  sigma\\theta " + "".join(f"{t:7d}" for t in thetas))
for k, sig in enumerate(sigmas):
    print(f"  {sig:10.1f} " + "".join(f"{grid[k, j]:7.1f}" for j in range(len(thetas))))
print("  (non-decreasing along both axes by construction of the metric)")
