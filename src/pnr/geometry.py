"""Exact 3-D primitives: rays, axis-aligned boxes and the intersection
tests used to decide whether a gaze ray primes a target.

Conventions: lengths in meters, angles in radians, vectors are float64
numpy arrays of shape (3,). All types are immutable values and all
operations are pure functions, so everything here is safe to call
concurrently.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# Direction components below this magnitude are treated as parallel to the
# slab: the axis is resolved by explicit containment instead of a division.
PARALLEL_EPS = 1e-12

_UNIT_TOL = 1e-9
_TINY = np.finfo(np.float64).tiny  # the smallest normal double
_MAX = sys.float_info.max


def finite_number(x) -> bool:
    """Whether ``x`` is an int or a float (a numpy float64 included), never
    a bool, within the float range: NaN, +-inf and integers past
    +-sys.float_info.max fail. Every number read from outside passes this
    one test: a file's header number or row time, a scenario spec's field
    or room corner, a numeric option."""
    return (type(x) in (int, float) or isinstance(x, float)) and -_MAX <= x <= _MAX


def component_norm(x, y, z):
    """Lengths of vectors given as their x, y and z components (arrays or
    planes of one shape), with the bits of ``np.linalg.norm`` over a 3-long
    last axis: that sums the squares from 0.0 left to right, and
    ``0.0 + x*x`` is ``x*x`` because a square is never -0.0."""
    return np.sqrt(x * x + y * y + z * z)


def norm3(v) -> float:
    """Length of one vector of 2 or 3 components with the bits of
    ``component_norm`` (squares summed left to right, no BLAS call), except
    where that sum overflows, or underflows while some component is
    nonzero: there ``math.hypot`` scales by the largest component."""
    c = np.asarray(v, dtype=np.float64).tolist()
    s = 0.0
    for x in c:
        s += x * x
    if s == math.inf or (s < _TINY and any(c)):
        return math.hypot(*c)
    return math.sqrt(s)


def vec3(x: float, y: float, z: float) -> np.ndarray:
    """Build a (3,) float64 vector, rejecting non-finite components."""
    return as_vec3([x, y, z])


def as_vec3(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (3,):
        raise ValueError(f"expected shape (3,), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"non-finite vector {v}")
    return v


def unit(v) -> np.ndarray:
    """Normalize to unit length; rejects near-zero vectors."""
    v = as_vec3(v)
    n = norm3(v)
    if n < _UNIT_TOL:
        raise ValueError("cannot normalize a near-zero vector")
    return v / n


def as_unit(v) -> np.ndarray:
    """Validate that ``v`` is already unit length within 1e-9."""
    v = as_vec3(v)
    if abs(norm3(v) - 1.0) > _UNIT_TOL:
        raise ValueError(f"vector is not unit length: {v}")
    return v


@dataclass(frozen=True)
class Ray:
    origin: np.ndarray
    dir: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "origin", as_vec3(self.origin))
        object.__setattr__(self, "dir", as_unit(self.dir))

    def at(self, t: float) -> np.ndarray:
        return self.origin + t * self.dir


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned box; zero-extent (point) boxes are legal."""

    min: np.ndarray
    max: np.ndarray

    def __post_init__(self):
        mn, mx = as_vec3(self.min), as_vec3(self.max)
        if np.any(mn > mx):
            raise ValueError(f"box min {mn} exceeds max {mx}")
        object.__setattr__(self, "min", mn)
        object.__setattr__(self, "max", mx)

    @staticmethod
    def from_center(center, half_extents) -> "Aabb":
        c, h = as_vec3(center), np.abs(as_vec3(half_extents))
        return Aabb(c - h, c + h)

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.min + self.max)

    @property
    def half_extents(self) -> np.ndarray:
        return 0.5 * (self.max - self.min)


@dataclass(frozen=True)
class IntersectResult:
    """Slab-test outcome of one ray (see slab_intersect_batch).

    On a hit the ray's line is inside the box for t in [t_near, t_far],
    with t_near < 0 when the origin is inside. On a miss the two are only
    diagnostic: the largest per-axis entry and smallest per-axis exit
    parameter, so t_near >= t_far when the slab intervals do not overlap
    and t_far < 0 when the box lies behind the origin. An axis the ray
    runs parallel to bounds neither, even when its slab is what excludes
    the ray.
    """

    hit: bool
    t_near: float
    t_far: float


@dataclass(frozen=True)
class NearMissResult:
    primed: bool
    delta: float
    t_closest: float
    p_closest: np.ndarray


def slab_intersect(ray: Ray, box: Aabb) -> IntersectResult:
    """slab_intersect_batch for one ray."""
    hit, t_near, t_far = slab_intersect_batch(ray.origin[None], ray.dir[None], box.min, box.max)
    return IntersectResult(bool(hit[0]), float(t_near[0]), float(t_far[0]))


def near_miss(ray: Ray, box: Aabb, tau: float = 0.05) -> NearMissResult:
    """near_miss_batch for one ray; p_closest is the ray point at t_closest."""
    primed, delta, t = near_miss_batch(ray.origin[None], ray.dir[None], box.min, box.max, tau)
    return NearMissResult(bool(primed[0]), float(delta[0]), float(t[0]), ray.at(float(t[0])))


def angular_error(u, v) -> float:
    """Angle between two unit vectors, in [0, pi], as atan2(|u x v|, u . v):
    unlike arccos of the dot product it keeps full relative precision for
    nearly parallel and nearly antiparallel vectors."""
    (u0, u1, u2), (v0, v1, v2) = as_unit(u).tolist(), as_unit(v).tolist()
    cross = (u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0)
    return float(np.arctan2(norm3(cross), ((0.0 + u0 * v0) + u1 * v1) + u2 * v2))


# ---------------------------------------------------------------------------
# Batch kernels: the one implementation of each test, vectorized over rays.
# The scalar forms above wrap them. The priming scan (gaze.find_prime_time)
# calls prime_batch, which culls the rays that cannot reach the box and runs
# the slab and near-miss kernels on the rest.


def slab_intersect_batch(origins, dirs, bmin, bmax):
    """Slab test of N rays against one box, or N boxes when bmin/bmax are
    (N, 3): the overlap of the per-axis slab intervals.

    Axes with |direction| < PARALLEL_EPS are resolved by containment:
    origin inside the slab leaves the axis unconstrained, origin outside
    excludes the ray. Hit iff no axis excludes it, t_near < t_far (strict)
    and t_far >= 0, so the overlap is non-empty and not entirely behind the
    origin; zero-extent boxes never satisfy the strict inequality.

    origins, dirs: (N, 3). Returns (hit (N,) bool, t_near (N,), t_far (N,)),
    see IntersectResult for their meaning on a miss.
    """
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    bmin = np.asarray(bmin, dtype=np.float64)
    bmax = np.asarray(bmax, dtype=np.float64)
    parallel = np.abs(dirs) < PARALLEL_EPS
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = 1.0 / dirs
        t1 = (bmin - origins) * inv
        t2 = (bmax - origins) * inv
    lo = np.minimum(t1, t2)
    hi = np.maximum(t1, t2)
    # parallel axes: containment decides; unconstrained otherwise
    inside = (origins >= bmin) & (origins <= bmax)
    lo = np.where(parallel, -np.inf, lo)
    hi = np.where(parallel, np.inf, hi)
    excluded = np.any(parallel & ~inside, axis=1)
    t_near = lo.max(axis=1)
    t_far = hi.min(axis=1)
    hit = ~excluded & (t_near < t_far) & (t_far >= 0.0)
    return hit, t_near, t_far


def near_miss_batch(origins, dirs, bmin, bmax, tau: float):
    """Near-miss check of N rays against one box, or N boxes when bmin/bmax
    are (N, 3), for rays that pass close to a box without entering it.

    Projects the box center onto each ray (p_closest, at t_closest), then
    walks from the center toward p_closest to the box surface. delta is the
    gap between that surface point and p_closest; primed iff delta <= tau
    and the closest point lies in front of the origin (t_closest >= 0). A
    ray through the center has delta = 0 by definition.

    Returns (primed (N,) bool, delta (N,), t_closest (N,)). Raises
    ValueError unless tau >= 0.
    """
    if not tau >= 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if len(origins) == 0:  # prime_batch's call when the cull leaves nothing
        return np.zeros(0, dtype=bool), np.zeros(0), np.zeros(0)
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    bmin = np.asarray(bmin, dtype=np.float64)
    bmax = np.asarray(bmax, dtype=np.float64)
    center = 0.5 * (bmin + bmax)
    t_closest, offset, dist = _closest_approach(origins, dirs, center)
    central = dist < _UNIT_TOL
    safe = np.where(central, 1.0, dist)
    d_center = offset / safe[:, None]
    parallel = np.abs(d_center) < PARALLEL_EPS
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv = 1.0 / d_center
        t1 = (bmin - center) * inv
        t2 = (bmax - center) * inv
    hi = np.where(parallel, np.inf, np.maximum(t1, t2))
    t_far = hi.min(axis=1)
    delta = np.abs(dist - t_far)
    delta = np.where(central, 0.0, delta)
    primed = (delta <= tau) & (t_closest >= 0.0)
    return primed, delta, t_closest


def _closest_approach(origins, dirs, center):
    """Projection of the box center onto each ray: (t_closest, offset from
    the center to the ray's closest point, its length dist). The near-miss
    rule and the cull in prime_batch share these operations, so both see
    the same dist for a ray."""
    t_closest = np.einsum("ij,ij->i", center - origins, dirs)
    p_closest = origins + t_closest[:, None] * dirs
    offset = p_closest - center
    return t_closest, offset, component_norm(offset[:, 0], offset[:, 1], offset[:, 2])


def prime_batch(origins, dirs, bmin, bmax, tau: float):
    """Priming test of N rays against one box, or N boxes when bmin/bmax
    are (N, 3): hit is slab_intersect_batch's hit, near is near_miss_batch's
    primed for the rays that do not hit. Returns (hit (N,) bool, near (N,)
    bool); raises ValueError unless tau >= 0.

    Rays whose line passes farther from the box center than

        bound = (r + tau)(1 + 1e-9) + 1e-9 + 2 PARALLEL_EPS (|t_closest| + r),

    r the box half-diagonal, are culled: neither kernel sees them and they
    are neither hit nor near. The slab test then runs on the survivors, and
    near_miss_batch on the survivors that miss; it is called even when none
    survive, so it stays the one check of tau.

    The cull is exact (a culled ray could neither hit nor near-miss) for
    finite inputs without overflow, boxes with bmin <= bmax, directions of
    unit length to rounding (v / |v|, as GazeTrack.world_rays gives) and
    box centers c within 1e5 m of the world origin. With u = 2^-53:

    - Near miss, central case. dist is computed by the same operations as
      in near_miss_batch, so it is that kernel's dist bit for bit. The
      bound is at least 1e-9, the kernel's threshold for a ray through the
      center (dist < 1e-9 gives delta = 0), so a culled ray is not central
      and its delta is |dist - t_far|.
    - Near miss, PARALLEL_EPS axis handling. t_far is the least h_i / |w_i|
      over the axes of the unit offset direction w with |w_i| >=
      PARALLEL_EPS, h the half-extents. If s is that least value, then
      s |w_i| <= h_i on each such axis, and the skipped axes hold under
      2 PARALLEL_EPS^2 of |w|^2 = 1, so s <= r (1 + 1e-23). Rounding the
      center, the half-extents, w and the division adds at most
      7u r + u |c|, so computed t_far <= r + 1e-15 r + 2e-11. A culled ray
      thus has dist - t_far > tau (1 + 1e-10) + 1e-10, and delta, rounded,
      stays above tau.
    - Hit, rounding in the slab test. A computed entry or exit parameter
      (b_i - o_i) / d_i is off by at most 3u relative, which moves the
      point o + t d by at most 3u |b_i - o_i| on axis i; for a t inside
      the computed overlap that is under 3u (|t| + 2r) over all axes.
    - Hit, PARALLEL_EPS axis handling. An axis with |d_i| < PARALLEL_EPS
      and the origin inside its slab is left unconstrained, so the point
      at t may lie outside that slab by up to PARALLEL_EPS |t|. A unit d
      can have two such axes, so the point is within r + sqrt(2)
      PARALLEL_EPS |t| of the center, plus the rounding above. Its distance
      bounds |t - t_closest|, so |t| <= (|t_closest| + r)(1 + 2e-12), and
      the exact line passes within r + 1.5 PARALLEL_EPS (|t_closest| + r)
      of the center. The factor 2 in the bound covers this sqrt(2): with a
      single PARALLEL_EPS, a ray 1e7 m away with two parallel axes that
      grazes a box edge would be culled and its hit lost.
    - Hit, the computed dist. It differs from the exact distance from the
      center to the line by under 16u (|t_closest| + |c| + dist),
      cancellation in p_closest - center included: for centers within
      1e5 m, under 1e-14 |t_closest| + 2e-15 dist + 2e-10.

    A hit therefore has dist under r (1 + 1e-14) + 1.6 PARALLEL_EPS
    (|t_closest| + r) + 2e-10, and a near miss has dist <= t_far + tau;
    both stay below the bound, rounding of the bound itself included.
    """
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    bmin = np.asarray(bmin, dtype=np.float64)
    bmax = np.asarray(bmax, dtype=np.float64)
    t_closest, _, dist = _closest_approach(origins, dirs, 0.5 * (bmin + bmax))
    r = np.linalg.norm(0.5 * (bmax - bmin), axis=-1)
    slack = (r + tau) * (1.0 + 1e-9) + _UNIT_TOL + 2.0 * PARALLEL_EPS * r
    # not (dist > bound), so a NaN distance is kept for the kernels to judge
    keep = np.nonzero(~(dist > slack + 2.0 * PARALLEL_EPS * np.abs(t_closest)))[0]

    def rows(i):  # the kept rays, with their boxes when there is one per ray
        if bmin.ndim == 2:
            return origins[i], dirs[i], bmin[i], bmax[i]
        return origins[i], dirs[i], bmin, bmax

    hit = np.zeros(len(origins), dtype=bool)
    if keep.size:
        hit[keep] = slab_intersect_batch(*rows(keep))[0]
        keep = keep[~hit[keep]]
    near = np.zeros(len(origins), dtype=bool)
    near[keep] = near_miss_batch(*rows(keep), tau)[0]
    return hit, near
