"""Exact 3-D primitives: axis-aligned boxes and the intersection tests,
vectorized over rays, used to decide whether a gaze ray primes a target.

Conventions: lengths in meters, angles in radians, vectors are float64
numpy arrays of shape (3,), and N rays are an (N, 3) array of origins and
one of unit directions. All types are immutable values and all
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


def as_vec3(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (3,):
        raise ValueError(f"expected shape (3,), got {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"non-finite vector {v}")
    return v


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


# ---------------------------------------------------------------------------
# Batch kernels: the one implementation of each test, vectorized over rays;
# one ray is a one-row batch. The priming scan (gaze.find_prime_time)
# first skips whole blocks of rays that blocks_near_box shows cannot reach
# the box, then calls prime_batch on the rest, which culls the single rays
# that cannot reach it and runs the slab and near-miss kernels on the others.


def slab_intersect_batch(origins, dirs, bmin, bmax):
    """Slab test of N rays against one box, or N boxes when bmin/bmax are
    (N, 3): the overlap of the per-axis slab intervals.

    Axes with |direction| < PARALLEL_EPS are resolved by containment:
    origin inside the slab leaves the axis unconstrained, origin outside
    excludes the ray. Hit iff no axis excludes it, t_near < t_far (strict)
    and t_far >= 0, so the overlap is non-empty and not entirely behind the
    origin; zero-extent boxes never satisfy the strict inequality.

    origins, dirs: (N, 3). Returns (hit (N,) bool, t_near (N,), t_far (N,)).
    On a hit the ray's line is inside the box for t in [t_near, t_far],
    with t_near < 0 when the origin is inside. On a miss the two are only
    diagnostic: the largest per-axis entry and smallest per-axis exit
    parameter, so t_near >= t_far when the slab intervals do not overlap
    and t_far < 0 when the box lies behind the origin. An axis the ray
    runs parallel to bounds neither, even when its slab is what excludes
    the ray.
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


def _check_tau(tau) -> None:
    """The one check of a near-miss tolerance: NaN and negatives fail."""
    if not tau >= 0.0:
        raise ValueError(f"tau must be >= 0, got {tau}")


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
    _check_tau(tau)
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
    c = center - origins  # the sum in numpy 2's einsum order, which no release promises
    t_closest = (c[:, 0] * dirs[:, 0] + c[:, 2] * dirs[:, 2]) + c[:, 1] * dirs[:, 1]
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


def ray_blocks(origins, dirs, size: int):
    """Bounds of the rays in blocks of ``size`` consecutive rows (the last
    block may be shorter), for blocks_near_box: (center (3, B), radius (B,),
    axis (3, B), cos (B,), sin (B,)), B the number of blocks.

    Every origin of block k lies within radius[k] (1 + 4u) of center[:, k],
    u = 2^-53: the center is the midpoint of the origins' bounding box and
    the radius the norm of its larger per-axis reach, each difference
    rounded by at most u. The axis is the block's direction sum divided by
    its length, so |axis| is within 3u of 1; a sum shorter than 1e-3 (the
    directions nearly cancel) gives a zero axis instead, hence cos = 0.
    Every direction d then has d . axis / (|d| |axis|) >= cos whenever
    cos > 0: the computed products and sums are within 3u |d| |axis| of the
    exact dot product, |d| (unit to rounding) and |axis| within 4u of 1,
    and cos is the least computed dot product minus 1e-12, clamped at 0.
    sin is sqrt(1 - cos^2) plus 1e-9: cos <= 1 - 1e-12 + 9u, so the
    computed square root is within 2e-10 of the exact one.
    """
    n = len(origins)
    starts = np.arange(0, n, size)
    o, d = origins.T.copy(), dirs.T.copy()  # x, y, z rows: a block is a run of columns
    lo, hi = np.minimum.reduceat(o, starts, axis=1), np.maximum.reduceat(o, starts, axis=1)
    center = 0.5 * (lo + hi)
    reach = np.maximum(hi - center, center - lo)
    radius = np.sqrt((reach * reach).sum(axis=0))
    total = np.add.reduceat(d, starts, axis=1)
    length = np.sqrt((total * total).sum(axis=0))
    axis = total / np.where(length < 1e-3, np.inf, length)
    along = (d * axis.repeat(size, axis=1)[:, :n]).sum(axis=0)
    cos = np.maximum(np.minimum.reduceat(along, starts) - 1e-12, 0.0)
    return center, radius, axis, cos, np.sqrt(1.0 - cos * cos) + 1e-9


def blocks_near_box(blocks, bmin, bmax, tau: float):
    """Which blocks of ray_blocks may hold a ray that prime_batch keeps for
    the box bmin/bmax (one box) and tau: a (B,) bool mask. A block that is
    not kept holds no ray that hits or near-misses the box. Raises
    ValueError unless tau >= 0, even when no block is kept.

    With c the box center as prime_batch computes it, r the half-diagonal,
    and per block V = c - center, Y = V . axis and X = sqrt(|V|^2 - Y^2),
    a block is skipped when

        low = X cos - |Y| sin - radius
            > (r + tau)(1 + 1e-6) + 1e-6 + (2 PARALLEL_EPS + 1e-7)(|V| + radius + r).

    The proof holds under prime_batch's conditions (finite inputs without
    overflow, unit directions to rounding, box centers within 1e5 m);
    underflow adds errors under 1e-300, far below every margin here.

    - No cone. A block with cos = 0, a zero axis included, has low <= 0
      and is kept, whatever the rounding: each term has its sign.
    - Lines. Otherwise let a = axis / |axis| and alpha the angle with
      cosine cos, so every direction of the block lies within alpha of a
      (ray_blocks), and beta the angle between V and a. The angle between
      V and a direction d lies in [beta - alpha, beta + alpha]. sin is concave on
      [0, pi], so sin of that angle is at least min(sin(beta - alpha),
      sin(beta + alpha)) = sin(beta) cos(alpha) - |cos(beta)| sin(alpha)
      when the interval lies in [0, pi]; otherwise that value is negative
      and the claim holds trivially. The line through the sphere's center
      along d thus passes at least |V x a| cos - |V . a| sin(alpha) from c,
      and a ray's line, moved by at most the sphere's radius rho, at least
      D = |V x a| cos - |V . a| sin(alpha) - rho. Its |t_closest| =
      |(c - o) . d| is at most |V| + rho. A larger sin only lowers D.
    - Rounding of low. V is computed within u |V| per component; Y is
      within 8u |V| of V . a, |axis| included. |V|^2 - Y^2 loses at most
      24u |V|^2 to rounding and cancellation, so X exceeds |V x a| by at
      most 5.3e-8 |V| plus u relative. cos and sin are >= 0, rho is at most
      the radius (1 + 4u), and the last three operations add under
      10u (|V| + rho). So D >= low - 6e-8 (|V| + radius), with |V| taken
      from the computed norm (4u).
    - Against prime_batch's bound. For a ray of a skipped block, D then
      exceeds (r + tau)(1 + 0.99e-6) + 0.99e-6 + (2 PARALLEL_EPS + 3.9e-8)
      (|V| + rho + r), rounding of the threshold included. prime_batch's
      computed dist is within 1e-14 |t_closest| + 2e-15 D + 2e-10 of D
      (its docstring), its half-diagonal and this one's are within 3u of
      the exact one, and its computed bound is at most (r + tau)(1 + 1e-9)
      + 1e-9 + 2 PARALLEL_EPS (|t_closest| + r), |t_closest| <= |V| + rho,
      times (1 + 12u). So dist > bound, and prime_batch culls the ray: it
      neither hits nor near-misses. That kernel decides each ray by its
      own row alone, so skipping the block changes no other ray's result.
    """
    _check_tau(tau)
    center, radius, axis, cos, sin = blocks
    v = (0.5 * (bmin + bmax))[:, None] - center
    along = (v * axis).sum(axis=0)
    far2 = (v * v).sum(axis=0)
    across = np.sqrt(np.maximum(far2 - along * along, 0.0))
    low = across * cos - np.abs(along) * sin - radius
    r = norm3(0.5 * (bmax - bmin))
    margin = (2.0 * PARALLEL_EPS + 1e-7) * (np.sqrt(far2) + radius + r)
    return ~(low > (r + tau) * (1.0 + 1e-6) + 1e-6 + margin)
