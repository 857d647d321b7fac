"""Generate a synthetic corpus with planted prime times, curate it into
prime-and-reach sequences, and print corpus statistics plus a video-level
train/test split.

Run: python3 demos/02_synthetic_curation.py
"""

import numpy as np

from pnr import ScenarioSpec, curate_corpus, generate_corpus, split, stats
from pnr.gaze import find_prime_time

N = 60
print(f"== Generating {N} scenarios (seeded, deterministic) ==")
corpus = generate_corpus(ScenarioSpec(duration=8.0, fps=30.0), N, seed=2024,
                         mixed_modes=True)
recordings = [rec for rec, _ in corpus]
labels = [lab for _, lab in corpus]

exact = sum(
    1 for rec, lab in corpus
    if abs(find_prime_time(rec.gaze, rec.events[0]).t_p - lab.events[0].t_p) < 1e-12
)
modes = [lab.events[0].prime_mode for lab in labels]
print(f"  planted prime times recovered exactly: {exact}/{N}")
print(f"  prime modes: {modes.count('direct_hit')} direct hits, "
      f"{modes.count('near_miss')} near misses")

print("\n== Curating ==")
results = curate_corpus(recordings)
sequences = [s for r in results for s in r.sequences]
drops = [d for r in results for d in r.drops]
print(f"  {len(sequences)} sequences curated, {len(drops)} events dropped")

s = stats(sequences)
print("\n== Corpus statistics (mean +/- std) ==")
print(f"  sequences:        {s.n_sequences}")
print(f"  duration:         {s.duration_mean:.2f} +/- {s.duration_std:.2f} s")
print(f"  prime gap:        {s.prime_gap_mean:.2f} +/- {s.prime_gap_std:.2f} s")
print(f"  body movement:    {s.body_movement_mean:.2f} +/- {s.body_movement_std:.2f} m")
print(f"  hand movement:    {s.hand_movement_mean:.2f} +/- {s.hand_movement_std:.2f} m")

print("\n== 70/30 video-level split ==")
manifest = split(sequences, ratio=0.7, seed=5)
n_train = sum(1 for v in manifest.assignments.values() if v == "train")
print(f"  {len(manifest.train_video_ids)} train videos / "
      f"{len(manifest.test_video_ids)} test videos")
print(f"  {n_train} train sequences / {len(sequences) - n_train} test sequences")
leak = set(manifest.train_video_ids) & set(manifest.test_video_ids)
print(f"  videos on both sides: {len(leak)} (must be 0)")

seq = sequences[0]
print("\n== One curated sequence ==")
print(f"  id {seq.id}: {seq.motion.n_frames} frames at {seq.motion.fps:.0f} fps, "
      f"prime frame {seq.prime_frame_index}")
print(f"  goal location (canonical frame): {np.round(seq.goal_location, 3)}")
print(f"  first-frame pelvis: {np.round(seq.motion.joints[0, 0], 6)} "
      f"(over the origin, facing +z)")
