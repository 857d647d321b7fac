import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pnr.geometry import (
    Aabb,
    IntersectResult,
    Ray,
    RigidTransform,
    angular_error,
    near_miss,
    near_miss_batch,
    slab_intersect,
    slab_intersect_batch,
    unit,
    vec3,
)

from oracles import (
    dense_hit_single,
    focused_hit_batch,
    near_miss_oracle,
    oracle_grid_steps,
    sample_box_surface,
)

BOX = Aabb(vec3(2, -1, -1), vec3(4, 1, 1))


def ray(o, d):
    return Ray(vec3(*o), unit(vec3(*d)))


class TestTransformPoint:
    def test_identity(self):
        t = RigidTransform.identity()
        assert np.allclose(t.apply_points(vec3(1, 2, 3)), [1, 2, 3])

    def test_pure_translation(self):
        t = RigidTransform.from_translation(vec3(0, 0, 5))
        assert np.allclose(t.apply_points(vec3(1, 0, 0)), [1, 0, 5])

    def test_rotation_90_about_z(self):
        t = RigidTransform.about_axis(vec3(0, 0, 1), math.pi / 2)
        assert np.allclose(t.apply_points(vec3(1, 0, 0)), [0, 1, 0], atol=1e-12)

    def test_compose_inverse_roundtrip(self):
        t = RigidTransform.about_axis(vec3(1, 2, 2), 0.7, translation=vec3(3, -1, 2))
        p = vec3(0.3, -4.0, 1.5)
        assert np.allclose(t.inverse().apply_points(t.apply_points(p)), p, atol=1e-12)


class TestSlabIntersect:
    def test_axis_aligned_hit(self):
        r = slab_intersect(ray((0, 0, 0), (1, 0, 0)), BOX)
        assert r.hit
        assert r.t_near == pytest.approx(2.0)
        assert r.t_far == pytest.approx(4.0)

    def test_parallel_slab_origin_outside(self):
        r = slab_intersect(ray((0, 2, 0), (1, 0, 0)), BOX)
        assert not r.hit

    def test_box_behind_origin(self):
        r = slab_intersect(ray((10, 0, 0), (1, 0, 0)), BOX)
        assert not r.hit
        assert r.t_far == pytest.approx(-6.0)

    def test_origin_inside_box(self):
        r = slab_intersect(ray((3, 0, 0), (0, 1, 0)), BOX)
        assert r.hit
        assert r.t_near < 0 < r.t_far

    def test_zero_extent_box_never_hits(self):
        point_box = Aabb(vec3(1, 0, 0), vec3(1, 0, 0))
        r = slab_intersect(ray((0, 0, 0), (1, 0, 0)), point_box)
        assert not r.hit

    def test_parallel_on_face_is_deterministic(self):
        # origin on a slab face with zero direction component: containment
        # branch, never a 0/0
        r = slab_intersect(ray((0, 1, 0), (1, 0, 0)), BOX)
        assert isinstance(r, IntersectResult)
        assert r.hit  # grazing along the face counts: y=1 is inside [-1, 1]


class TestClosestPoint:
    # the near-miss rule projects the box center onto the ray; a point
    # target is a zero-extent box centered on the point
    def closest(self, r, target):
        res = near_miss(r, Aabb(target, target))
        return res.t_closest, res.p_closest

    def test_orthogonal_projection(self):
        t, p = self.closest(ray((0, 0, 0), (1, 0, 0)), vec3(5, 3, 0))
        assert t == pytest.approx(5.0)
        assert np.allclose(p, [5, 0, 0])

    def test_target_on_ray(self):
        t, p = self.closest(ray((0, 0, 0), (1, 0, 0)), vec3(2, 0, 0))
        assert t == pytest.approx(2.0)
        assert np.allclose(p, [2, 0, 0])

    def test_target_behind(self):
        t, p = self.closest(ray((0, 0, 0), (1, 0, 0)), vec3(-3, 1, 0))
        assert t == pytest.approx(-3.0)
        assert np.allclose(p, [-3, 0, 0])


class TestNearMiss:
    # Derived case: tiny box at (5,0,0) with half extents 0.01; a ray at
    # height 0.04 passes 0.03 above the top face. Cross-checked below by
    # dense sampling of the surface.
    def test_primed_within_tau(self):
        box = Aabb.from_center(vec3(5, 0, 0), vec3(0.01, 0.01, 0.01))
        r = near_miss(ray((0, 0.04, 0), (1, 0, 0)), box, tau=0.05)
        assert r.primed
        assert np.allclose(r.p_closest, [5, 0.04, 0])
        assert r.delta == pytest.approx(0.03)

    def test_not_primed_beyond_tau(self):
        box = Aabb.from_center(vec3(5, 0, 0), vec3(0.01, 0.01, 0.01))
        r = near_miss(ray((0, 0.10, 0), (1, 0, 0)), box, tau=0.05)
        assert not r.primed
        assert r.delta == pytest.approx(0.09)

    def test_target_behind_is_never_primed(self):
        box = Aabb.from_center(vec3(5, 0, 0), vec3(0.01, 0.01, 0.01))
        r = near_miss(ray((10, 0.04, 0), (1, 0, 0)), box, tau=0.05)
        assert r.t_closest == pytest.approx(-5.0)
        assert not r.primed

    def test_ray_through_center(self):
        box = Aabb.from_center(vec3(5, 0, 0), vec3(0.1, 0.1, 0.1))
        r = near_miss(ray((0, 0, 0), (1, 0, 0)), box, tau=0.0)
        assert r.primed
        assert r.delta == 0.0

    def test_delta_matches_surface_sampling(self):
        box = Aabb.from_center(vec3(5, 0, 0), vec3(0.01, 0.01, 0.01))
        r = near_miss(ray((0, 0.04, 0), (1, 0, 0)), box, tau=0.05)
        surface = sample_box_surface(box, n=50_000)
        d_min = np.linalg.norm(surface - r.p_closest, axis=1).min()
        # delta measures surface distance along the center ray; for this
        # face-on geometry it equals the true minimum surface distance
        assert r.delta == pytest.approx(d_min, abs=1e-3)

    def test_point_target_reduces_to_point_distance(self):
        pt = vec3(5, 0, 0)
        box = Aabb(pt, pt)
        r = near_miss(ray((0, 0.03, 0), (1, 0, 0)), box, tau=0.05)
        assert r.primed
        assert r.delta == pytest.approx(0.03)

    def test_tau_zero_requires_exact(self):
        box = Aabb.from_center(vec3(5, 0, 0), vec3(0.01, 0.01, 0.01))
        assert not near_miss(ray((0, 0.04, 0), (1, 0, 0)), box, tau=0.0).primed
        assert near_miss(ray((0, 0, 0), (1, 0, 0)), box, tau=0.0).primed


class TestAngularError:
    def test_identical(self):
        assert angular_error(vec3(0, 0, 1), vec3(0, 0, 1)) == 0.0

    def test_orthogonal(self):
        assert angular_error(vec3(1, 0, 0), vec3(0, 1, 0)) == pytest.approx(math.pi / 2)

    def test_antiparallel(self):
        assert angular_error(vec3(1, 0, 0), vec3(-1, 0, 0)) == pytest.approx(math.pi)

    def test_clamp_handles_rounding(self):
        v = unit(vec3(0.3, -0.2, 0.93))
        assert angular_error(v, v) == 0.0

    def test_small_angle_keeps_precision(self):
        # derived: v tilts u by 1e-9 along x, perpendicular to u, so the
        # angle is 1e-9 / |(1e-9, -1, -1)| = 7.0710678118654755e-10 rad;
        # arccos of the dot product gives 2.1e-8
        u = unit(vec3(0, -1, -1))
        v = unit(vec3(1e-9, -1, -1))
        assert angular_error(u, v) == pytest.approx(1e-9 / math.sqrt(2.0), rel=1e-6)


finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def rays_and_boxes(draw):
    o = vec3(draw(finite), draw(finite), draw(finite))
    d = vec3(
        draw(st.floats(-1, 1).filter(lambda x: abs(x) > 1e-3)),
        draw(st.floats(-1, 1)),
        draw(st.floats(-1, 1)),
    )
    c = vec3(draw(finite), draw(finite), draw(finite))
    h = vec3(*(draw(st.floats(0.01, 2.0)) for _ in range(3)))
    return Ray(o, unit(d)), Aabb.from_center(c, h)


@given(rays_and_boxes(), st.tuples(finite, finite, finite))
@settings(max_examples=200, deadline=None)
def test_translation_invariance(rb, delta):
    r, box = rb
    d = vec3(*delta)
    moved = slab_intersect(Ray(r.origin + d, r.dir), box.translated(d))
    assert moved.hit == slab_intersect(r, box).hit


@given(rays_and_boxes(), st.permutations([0, 1, 2]))
@settings(max_examples=200, deadline=None)
def test_axis_permutation_invariance(rb, perm):
    r, box = rb
    perm = list(perm)
    r2 = Ray(r.origin[perm], r.dir[perm])
    b2 = Aabb(box.min[perm], box.max[perm])
    a, b = slab_intersect(r, box), slab_intersect(r2, b2)
    assert a.hit == b.hit
    if a.hit:
        assert a.t_near == pytest.approx(b.t_near)
        assert a.t_far == pytest.approx(b.t_far)


@given(rays_and_boxes(), st.tuples(*(st.floats(0, 1.0) for _ in range(3))))
@settings(max_examples=200, deadline=None)
def test_enlarging_box_preserves_hit(rb, grow):
    r, box = rb
    if not slab_intersect(r, box).hit:
        return
    g = vec3(*grow)
    bigger = Aabb(box.min - g, box.max + g)
    assert slab_intersect(r, bigger).hit


@given(rays_and_boxes())
@settings(max_examples=100, deadline=None)
def test_scalar_hit_agrees_with_dense_sampling(rb):
    r, box = rb
    res = slab_intersect(r, box)
    if abs(res.t_near - res.t_far) < 1e-6:
        return  # grazing band: sample-grid resolution is not decisive
    if res.hit and (res.t_far < 0.0 or res.t_near > 100.0):
        return  # outside the oracle's fixed t range
    # rays that only clip the box very thinly can slip between samples
    if res.hit and (min(res.t_far, 100.0) - max(res.t_near, 0.0)) < 0.02:
        return
    assert res.hit == dense_hit_single(r.origin, r.dir, box.min, box.max)


def test_batch_matches_scalar():
    # the kernels against the independent oracles: the slab test against
    # containment sampling outside the oracle's grazing band, the near-miss
    # rule against containment bisection wherever delta is not at tau
    rng = np.random.default_rng(7)
    n = 500
    origins = rng.uniform(-5, 5, (n, 3))
    dirs = rng.normal(size=(n, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    box = Aabb.from_center(vec3(0.5, -0.2, 1.0), vec3(0.8, 0.5, 1.2))
    bmins, bmaxs = np.tile(box.min, (n, 1)), np.tile(box.max, (n, 1))
    hit, t_near, t_far = slab_intersect_batch(origins, dirs, box.min, box.max)
    oracle_hit = focused_hit_batch(origins, dirs, bmins, bmaxs)
    decisive = np.abs(t_near - t_far) >= np.maximum(
        1e-6, oracle_grid_steps(origins, dirs, bmins, bmaxs))
    assert np.array_equal(hit[decisive], oracle_hit[decisive])
    assert 0 < hit.sum() < n
    # on a hit, the chord's end points lie on the box surface
    for t in (t_near[hit], t_far[hit]):
        p = origins[hit] + t[:, None] * dirs[hit]
        assert np.allclose(np.clip(p, box.min, box.max), p, atol=1e-9)
        gap = np.minimum(np.abs(p - box.min), np.abs(p - box.max)).min(axis=1)
        assert gap.max() < 1e-9

    primed, delta, _ = near_miss_batch(origins, dirs, box.min, box.max, 0.05)
    o_primed, o_delta, _ = near_miss_oracle(origins, dirs, box.min, box.max, 0.05)
    assert np.abs(delta - o_delta).max() <= 1e-12
    decisive = np.abs(o_delta - 0.05) > 1e-12
    assert np.array_equal(primed[decisive], o_primed[decisive])


def test_batch_parallel_axis_matches_scalar():
    # derived: the rays run along x at heights y = 2, 0.5 and 1 through
    # the x range of a box spanning y in [-1, 1]; y = 1 grazes the face
    box = Aabb(vec3(2, -1, -1), vec3(4, 1, 1))
    origins = np.array([[0.0, 2.0, 0.0], [0.0, 0.5, 0.0], [0.0, 1.0, 0.0]])
    dirs = np.array([[1.0, 0.0, 0.0]] * 3)
    hit, _, _ = slab_intersect_batch(origins, dirs, box.min, box.max)
    assert list(hit) == [False, True, True]


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_angular_error_symmetric_triangle(data):
    def rand_unit():
        v = [data.draw(st.floats(-1, 1)) for _ in range(3)]
        n = math.sqrt(sum(x * x for x in v))
        if n < 1e-3:
            return vec3(0, 0, 1)
        return vec3(*(x / n for x in v))

    u, v, w = rand_unit(), rand_unit(), rand_unit()
    assert angular_error(u, v) == pytest.approx(angular_error(v, u))
    assert angular_error(u, w) <= angular_error(u, v) + angular_error(v, w) + 1e-9
