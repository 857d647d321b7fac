"""Exact 3-D primitives: rigid transforms, rays, axis-aligned boxes and the
intersection tests used to decide whether a gaze ray primes a target.

Conventions: lengths in meters, angles in radians, vectors are float64
numpy arrays of shape (3,). All types are immutable values and all
operations are pure functions, so everything here is safe to call
concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Direction components below this magnitude are treated as parallel to the
# slab: the axis is resolved by explicit containment instead of a division.
PARALLEL_EPS = 1e-12

_UNIT_TOL = 1e-9
_ORTHO_TOL = 1e-7


def vec3(x: float, y: float, z: float) -> np.ndarray:
    """Build a (3,) float64 vector, rejecting non-finite components."""
    v = np.array([x, y, z], dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"non-finite vector {v}")
    return v


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
    n = float(np.linalg.norm(v))
    if n < _UNIT_TOL:
        raise ValueError("cannot normalize a near-zero vector")
    return v / n


def as_unit(v) -> np.ndarray:
    """Validate that ``v`` is already unit length within 1e-9."""
    v = as_vec3(v)
    if abs(float(np.linalg.norm(v)) - 1.0) > _UNIT_TOL:
        raise ValueError(f"vector is not unit length: {v}")
    return v


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid motion: x -> rotation @ x + translation."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = as_vec3(self.translation)
        if r.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if not np.allclose(r.T @ r, np.eye(3), atol=_ORTHO_TOL):
            raise ValueError("rotation is not orthonormal")
        if abs(np.linalg.det(r) - 1.0) > _ORTHO_TOL:
            raise ValueError("rotation must have determinant +1")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    @staticmethod
    def from_translation(t) -> "RigidTransform":
        return RigidTransform(np.eye(3), as_vec3(t))

    @staticmethod
    def about_axis(axis, angle: float, translation=(0.0, 0.0, 0.0)) -> "RigidTransform":
        """Rotation by ``angle`` about a unit ``axis`` (Rodrigues), then translate."""
        a = unit(axis)
        k = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
        r = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
        return RigidTransform(r, as_vec3(translation))

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self after other: (self ∘ other)(x) = self(other(x))."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -(rt @ self.translation))

    def apply_points(self, pts: np.ndarray) -> np.ndarray:
        """Transform an (..., 3) array of points."""
        pts = np.asarray(pts, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def apply_dirs(self, dirs: np.ndarray) -> np.ndarray:
        """Rotate an (..., 3) array of directions (no translation)."""
        return np.asarray(dirs, dtype=np.float64) @ self.rotation.T


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

    def contains(self, p) -> bool:
        p = as_vec3(p)
        return bool(np.all(p >= self.min) and np.all(p <= self.max))

    def translated(self, delta) -> "Aabb":
        d = as_vec3(delta)
        return Aabb(self.min + d, self.max + d)


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
    u, v = as_unit(u), as_unit(v)
    return float(np.arctan2(np.linalg.norm(np.cross(u, v)), np.dot(u, v)))


# ---------------------------------------------------------------------------
# Batch kernels: the one implementation of each test, vectorized over rays.
# The scalar forms above wrap them; the priming scan and curation call them
# directly.


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
    with np.errstate(divide="ignore", invalid="ignore"):
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
    origins = np.asarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    bmin = np.asarray(bmin, dtype=np.float64)
    bmax = np.asarray(bmax, dtype=np.float64)
    center = 0.5 * (bmin + bmax)
    t_closest = np.einsum("ij,ij->i", center - origins, dirs)
    p_closest = origins + t_closest[:, None] * dirs
    offset = p_closest - center
    dist = np.linalg.norm(offset, axis=1)
    central = dist < _UNIT_TOL
    safe = np.where(central, 1.0, dist)
    d_center = offset / safe[:, None]
    parallel = np.abs(d_center) < PARALLEL_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / d_center
        t1 = (bmin - center) * inv
        t2 = (bmax - center) * inv
    hi = np.where(parallel, np.inf, np.maximum(t1, t2))
    t_far = hi.min(axis=1)
    delta = np.abs(dist - t_far)
    delta = np.where(central, 0.0, delta)
    primed = (delta <= tau) & (t_closest >= 0.0)
    return primed, delta, t_closest
