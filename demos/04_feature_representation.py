"""Canonicalization, fixed-length resampling, and the 263-dim feature
round trip on a synthetic walk.

Run: python3 demos/04_feature_representation.py
"""

import numpy as np

from pnr import (
    ScenarioSpec,
    canonicalize,
    from_features,
    generate_scenario,
    resample,
    to_features,
)
from pnr.features import CONTACTS, LOCAL_POS, ROOT_HEIGHT, ROOT_LIN_VEL, ROOT_ROT_VEL
from pnr.motion import yaw_apply

rec, _ = generate_scenario(ScenarioSpec(seed=42))
motion = rec.motion
print(f"== Source motion: {motion.n_frames} frames at {motion.fps:.0f} fps "
      f"({motion.duration:.1f} s) ==")
print(f"  frame-0 pelvis: {np.round(motion.joints[0, 0], 3)}")

canon, angle, shift = canonicalize(motion)
print("\n== Canonicalized (pelvis over origin, facing +z) ==")
print(f"  frame-0 pelvis: {np.round(canon.joints[0, 0], 6)}")
print(f"  yaw {np.degrees(angle):.1f} deg about +y, then a ground shift of "
      f"{shift[0]:.3f} m in x and {shift[2]:.3f} m in z")
restored = yaw_apply(-angle, canon.joints - shift)
print(f"  the inverse yaw and shift restore the input within "
      f"{np.abs(restored - motion.joints).max():.2e} m")

fixed = resample(canon, 150)
print(f"\n== Resampled to 150 frames ({fixed.fps:.2f} fps, same span) ==")
print(f"  endpoints preserved: "
      f"{np.array_equal(fixed.joints[0], canon.joints[0])} / "
      f"{np.array_equal(fixed.joints[-1], canon.joints[-1])}")

feats = to_features(fixed)
print(f"\n== Feature frames: {feats.shape} ==")
print(f"  channel blocks: rot-vel [0], lin-vel [1:3], height [3], "
      f"local pose {LOCAL_POS}, rotations 6d, velocities, contacts {CONTACTS}")
print(f"  root height range: {feats[:, ROOT_HEIGHT].min():.3f} .. "
      f"{feats[:, ROOT_HEIGHT].max():.3f} m")
speed = np.linalg.norm(feats[:, ROOT_LIN_VEL], axis=1) * fixed.fps
print(f"  peak root speed: {speed.max():.2f} m/s, "
      f"peak |turn rate|: {np.abs(feats[:, ROOT_ROT_VEL]).max() * fixed.fps:.2f} rad/s")
contact_frac = feats[:, CONTACTS].mean(axis=0)
print(f"  contact-flag duty cycle (l_ankle l_foot r_ankle r_foot): "
      f"{np.round(contact_frac, 2)}")

rec2 = from_features(feats, fixed.fps)
err = np.linalg.norm(rec2.joints - fixed.joints, axis=2).max()
print(f"\n== Round trip ==\n  max per-joint position error: {err:.2e} m (<= 1e-4)")
