"""Walk through the priming geometry: the slab test and the near-miss rule
on a handful of rays, gaze rays from eye-tracker samples, and
first-prime-time detection on a tiny hand-built scene. The kernels take N
rays at once, as (N, 3) arrays of origins and unit directions.

Run: python3 demos/01_priming_geometry.py
"""

import numpy as np

from pnr import Aabb, GazeTrack, InteractionEvent, ObjectTarget, find_prime_time
from pnr.geometry import near_miss_batch, slab_intersect_batch
from pnr.motion import yaw_matrices

print("== Rays vs axis-aligned box (slab test) ==")
box = Aabb([2, -1, -1], [4, 1, 1])
labels = ["straight through", "parallel, outside the y slab", "box behind the origin"]
origins = np.array([[0.0, 0.0, 0.0], [0.0, 2.0, 0.0], [10.0, 0.0, 0.0]])
dirs = np.array([[1.0, 0.0, 0.0]] * 3)
hit, t_near, t_far = slab_intersect_batch(origins, dirs, box.min, box.max)
for label, h, tn, tf in zip(labels, hit, t_near, t_far):
    print(f"  {label:32s} hit={h!s:5s} t_near={tn:+.2f} t_far={tf:+.2f}")

print("\n== Near miss: gaze passing close to a small object ==")
small = Aabb.from_center([5, 0, 0], [0.01, 0.01, 0.01])
heights = np.array([0.04, 0.10])
origins = np.stack([np.zeros(2), heights, np.zeros(2)], axis=1)
primed, delta, _ = near_miss_batch(origins, np.array([[1.0, 0.0, 0.0]] * 2),
                                   small.min, small.max, tau=0.05)
for height, d, p in zip(heights, delta, primed):
    print(f"  ray {height:4.2f} m above center: delta={d:.3f} m -> primed={p}")

print("\n== Gaze rays from eye-tracker samples ==")
# camera at (1, 1.6, 0), turned 0 and then 90 degrees about +y: its +z
# looks along world +z and then +x; each sample is a one-row track
for yaw in (0.0, np.pi / 2):
    sample = GazeTrack(times=[0.0], points_cam=[[0.0, 0.0, 2.0]],
                       rotations=[yaw_matrices(yaw)], translations=[[1.0, 1.6, 0.0]])
    (origin,), (direction,) = sample.world_rays()
    print(f"  yaw {np.degrees(yaw):4.0f} deg: camera at {origin}, "
          f"gaze direction {np.round(direction, 3)}")

print("\n== First prime time in a 10 s window before a pick at t_e = 9 s ==")
fps = 30.0
times = np.arange(0.0, 10.0, 1.0 / fps)
target = ObjectTarget("cup", box=Aabb.from_center([0, 1.0, 4.0], [0.08, 0.08, 0.08]))
# gaze wanders off-target, sweeps onto the cup at t = 6.5 s
aim = target.as_box().center - np.array([0, 1.6, 0])
off = np.array([1.0, -0.2, 0.5])
points = np.where((times >= 6.5)[:, None], aim[None, :], off[None, :])
track = GazeTrack(times, points, np.tile(np.eye(3), (len(times), 1, 1)),
                  np.tile([0.0, 1.6, 0.0], (len(times), 1)))
event = InteractionEvent("pick", t_e=9.0, target=target)
primed = find_prime_time(track, event)
print(f"  prime time t_p = {primed.t_p:.3f} s via {primed.prime_mode} "
      f"(prime gap {event.t_e - primed.t_p:.2f} s)")
