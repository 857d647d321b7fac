"""Walk through the priming geometry: gaze rays, the slab test, the
near-miss rule, and first-prime-time detection on a tiny hand-built scene.

Run: python3 demos/01_priming_geometry.py
"""

import numpy as np

from pnr import (
    Aabb,
    GazeSample,
    GazeTrack,
    InteractionEvent,
    ObjectTarget,
    Ray,
    angular_error,
    find_prime_time,
    gaze_ray,
    near_miss,
    slab_intersect,
)
from pnr.geometry import unit, vec3
from pnr.motion import yaw_matrices

print("== Ray vs axis-aligned box (slab test) ==")
box = Aabb(vec3(2, -1, -1), vec3(4, 1, 1))
for origin, direction, label in [
    ((0, 0, 0), (1, 0, 0), "straight through"),
    ((0, 2, 0), (1, 0, 0), "parallel, outside the y slab"),
    ((10, 0, 0), (1, 0, 0), "box behind the origin"),
]:
    r = Ray(vec3(*origin), unit(vec3(*direction)))
    res = slab_intersect(r, box)
    print(f"  {label:32s} hit={res.hit!s:5s} t_near={res.t_near:+.2f} t_far={res.t_far:+.2f}")

print("\n== Near miss: gaze passing close to a small object ==")
small = Aabb.from_center(vec3(5, 0, 0), vec3(0.01, 0.01, 0.01))
for height in (0.04, 0.10):
    r = Ray(vec3(0, height, 0), unit(vec3(1, 0, 0)))
    nm = near_miss(r, small, tau=0.05)
    print(f"  ray {height:4.2f} m above center: delta={nm.delta:.3f} m "
          f"-> primed={nm.primed}")

print("\n== Gaze ray from an eye-tracker sample ==")
# camera at (1, 1.6, 0), turned 90 degrees about +y: its +z looks along world +x
sample = GazeSample(t=0.0, gaze_point_cam=vec3(0, 0, 2),
                    rotation=yaw_matrices(np.pi / 2), translation=vec3(1, 1.6, 0))
ray = gaze_ray(sample)
print(f"  camera at {ray.origin}, gaze direction {np.round(ray.dir, 3)}")

print("\n== First prime time in a 10 s window before a pick at t_e = 9 s ==")
fps = 30.0
times = np.arange(0.0, 10.0, 1.0 / fps)
target = ObjectTarget("cup", box=Aabb.from_center(vec3(0, 1.0, 4.0), vec3(0.08, 0.08, 0.08)))
# gaze wanders off-target, sweeps onto the cup at t = 6.5 s
aim = target.as_box().center - vec3(0, 1.6, 0)
off = vec3(1.0, -0.2, 0.5)
points = np.where((times >= 6.5)[:, None], aim[None, :], off[None, :])
track = GazeTrack(times, points, np.tile(np.eye(3), (len(times), 1, 1)),
                  np.tile([0.0, 1.6, 0.0], (len(times), 1)))
event = InteractionEvent("pick", t_e=9.0, target=target)
primed = find_prime_time(track, event)
print(f"  prime time t_p = {primed.t_p:.3f} s via {primed.prime_mode} "
      f"(prime gap {event.t_e - primed.t_p:.2f} s)")

print("\n== Angular error between unit directions ==")
for v in [(0, 0, 1), (0, 1, 1), (1, 0, 0)]:
    err = angular_error(vec3(0, 0, 1), unit(vec3(*v)))
    print(f"  (0,0,1) vs {v}: {np.degrees(err):6.1f} deg")
