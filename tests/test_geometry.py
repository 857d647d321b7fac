import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pnr.errors import EmptyWindow
from pnr.gaze import (
    DIRECT_HIT,
    NEAR_MISS,
    GazeTrack,
    InteractionEvent,
    ObjectTarget,
    find_prime_time,
)
from pnr.geometry import (
    PARALLEL_EPS,
    Aabb,
    blocks_near_box,
    component_norm,
    near_miss_batch,
    norm3,
    prime_batch,
    ray_blocks,
    slab_intersect_batch,
)

from builders import vec3
from oracles import (
    dense_hit_single,
    focused_hit_batch,
    near_miss_oracle,
    oracle_grid_steps,
    sample_box_surface,
)

BOX = Aabb(vec3(2, -1, -1), vec3(4, 1, 1))


def ray(o, d):
    """One ray as one-row (origins, dirs) arrays, its direction normalized."""
    d = np.array([d], dtype=np.float64)
    return np.array([o], dtype=np.float64), d / np.linalg.norm(d, axis=1, keepdims=True)


def slab(r, box):
    """slab_intersect_batch of one ray: (hit, t_near, t_far)."""
    hit, t_near, t_far = slab_intersect_batch(*r, box.min, box.max)
    return bool(hit[0]), float(t_near[0]), float(t_far[0])


def near(r, box, tau=0.05):
    """near_miss_batch of one ray: (primed, delta, t_closest, the ray's
    point at t_closest)."""
    primed, delta, t = near_miss_batch(*r, box.min, box.max, tau)
    return bool(primed[0]), float(delta[0]), float(t[0]), r[0][0] + t[0] * r[1][0]


class TestNorm3:
    def test_bits_of_component_norm(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=(3000, 3)) * 10.0 ** rng.integers(-100, 100, size=(3000, 1))
        v[::3, 0], v[1::4, 1], v[2::5, 2] = 0.0, -0.0, -0.0
        v[::11] = [-0.0, 0.0, -0.0]
        zero = np.zeros(len(v))
        for got, want in (([norm3(row) for row in v], component_norm(*v.T)),
                          ([norm3(row) for row in v[:, ::2]],
                           component_norm(v[:, 0], v[:, 2], zero))):
            assert np.array(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("v, want", [
        ([1e200, 0.0, 0.0], 1e200),
        ([-3e300, 4e300], 5e300),
        ([1e-170, 0.0, 1e-170], math.sqrt(2.0) * 1e-170),
        ([5e-324, -0.0, 0.0], 5e-324),
        ([0.0, -0.0, 0.0], 0.0),
        ([math.inf, 1.0, 0.0], math.inf),
    ])
    def test_squares_past_the_float_range(self, v, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert norm3(v) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_nan(self):
        assert math.isnan(norm3([math.nan, 0.0, 1.0]))


class TestSlabIntersect:
    def test_axis_aligned_hit(self):
        hit, t_near, t_far = slab(ray((0, 0, 0), (1, 0, 0)), BOX)
        assert hit
        assert t_near == pytest.approx(2.0)
        assert t_far == pytest.approx(4.0)

    def test_parallel_slab_origin_outside(self):
        hit, _, _ = slab(ray((0, 2, 0), (1, 0, 0)), BOX)
        assert not hit

    def test_box_behind_origin(self):
        hit, _, t_far = slab(ray((10, 0, 0), (1, 0, 0)), BOX)
        assert not hit
        assert t_far == pytest.approx(-6.0)

    def test_origin_inside_box(self):
        hit, t_near, t_far = slab(ray((3, 0, 0), (0, 1, 0)), BOX)
        assert hit
        assert t_near < 0 < t_far

    def test_zero_extent_box_never_hits(self):
        point_box = Aabb(vec3(1, 0, 0), vec3(1, 0, 0))
        hit, _, _ = slab(ray((0, 0, 0), (1, 0, 0)), point_box)
        assert not hit

    def test_parallel_on_face_is_deterministic(self):
        # origin on a slab face with zero direction component: containment
        # branch, never a 0/0
        hit, t_near, t_far = slab(ray((0, 1, 0), (1, 0, 0)), BOX)
        assert (t_near, t_far) == (2.0, 4.0)
        assert hit  # grazing along the face counts: y=1 is inside [-1, 1]


class TestClosestPoint:
    # the near-miss rule projects the box center onto the ray; a point
    # target is a zero-extent box centered on the point
    def closest(self, r, target):
        _, _, t, p = near(r, Aabb(target, target))
        return t, p

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
        primed, delta, _, p = near(ray((0, 0.04, 0), (1, 0, 0)), box, tau=0.05)
        assert primed
        assert np.allclose(p, [5, 0.04, 0])
        assert delta == pytest.approx(0.03)

    def test_not_primed_beyond_tau(self):
        box = Aabb.from_center(vec3(5, 0, 0), vec3(0.01, 0.01, 0.01))
        primed, delta, _, _ = near(ray((0, 0.10, 0), (1, 0, 0)), box, tau=0.05)
        assert not primed
        assert delta == pytest.approx(0.09)

    def test_target_behind_is_never_primed(self):
        box = Aabb.from_center(vec3(5, 0, 0), vec3(0.01, 0.01, 0.01))
        primed, _, t, _ = near(ray((10, 0.04, 0), (1, 0, 0)), box, tau=0.05)
        assert t == pytest.approx(-5.0)
        assert not primed

    def test_ray_through_center(self):
        box = Aabb.from_center(vec3(5, 0, 0), vec3(0.1, 0.1, 0.1))
        primed, delta, _, _ = near(ray((0, 0, 0), (1, 0, 0)), box, tau=0.0)
        assert primed
        assert delta == 0.0

    def test_delta_matches_surface_sampling(self):
        box = Aabb.from_center(vec3(5, 0, 0), vec3(0.01, 0.01, 0.01))
        _, delta, _, p = near(ray((0, 0.04, 0), (1, 0, 0)), box, tau=0.05)
        surface = sample_box_surface(box, n=50_000)
        d_min = np.linalg.norm(surface - p, axis=1).min()
        # delta measures surface distance along the center ray; for this
        # face-on geometry it equals the true minimum surface distance
        assert delta == pytest.approx(d_min, abs=1e-3)

    def test_point_target_reduces_to_point_distance(self):
        pt = vec3(5, 0, 0)
        box = Aabb(pt, pt)
        primed, delta, _, _ = near(ray((0, 0.03, 0), (1, 0, 0)), box, tau=0.05)
        assert primed
        assert delta == pytest.approx(0.03)

    def test_tau_zero_requires_exact(self):
        box = Aabb.from_center(vec3(5, 0, 0), vec3(0.01, 0.01, 0.01))
        assert not near(ray((0, 0.04, 0), (1, 0, 0)), box, tau=0.0)[0]
        assert near(ray((0, 0, 0), (1, 0, 0)), box, tau=0.0)[0]


finite = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


directions = st.tuples(
    st.floats(-1, 1).filter(lambda x: abs(x) > 1e-3), st.floats(-1, 1), st.floats(-1, 1)
)


@st.composite
def rays_and_boxes(draw):
    """One ray, as ray() gives it, and a box."""
    r = ray((draw(finite), draw(finite), draw(finite)), draw(directions))
    c = vec3(draw(finite), draw(finite), draw(finite))
    h = vec3(*(draw(st.floats(0.01, 2.0)) for _ in range(3)))
    return r, Aabb.from_center(c, h)


# Multiples of 2**-10 within +-12: the sum of two is exact in binary64.
dyadic = st.integers(-12 * 1024, 12 * 1024).map(lambda k: k / 1024)


@st.composite
def dyadic_rays_and_boxes(draw):
    """rays_and_boxes with the origin and box corners on the dyadic grid."""
    r = ray([draw(dyadic) for _ in range(3)], draw(directions))
    c = vec3(*(draw(dyadic) for _ in range(3)))
    h = vec3(*(draw(st.integers(10, 2048)) / 1024 for _ in range(3)))
    return r, Aabb(c - h, c + h)


def translates_exactly(point, delta) -> bool:
    return all(Fraction(float(p)) + Fraction(float(d)) == Fraction(float(p + d))
               for p, d in zip(point, delta))


@given(dyadic_rays_and_boxes(), st.tuples(dyadic, dyadic, dyadic))
@example(
    # -2.54e-162 + 1 rounds to 1.0: the translation moves the origin of a
    # ray that misses the box onto the box face, where slab_intersect_batch
    # rightly reports a hit (t_far = -0.0). A float translation is not
    # exact, so the property holds only for translations that are.
    rb=(ray((-2.54e-162, 0, 0), (-1, 0, 0)), Aabb(vec3(0, -1, -1), vec3(2, 1, 1))),
    delta=(1.0, 0.0, 0.0),
)
@settings(max_examples=200, deadline=None)
def test_translation_invariance(rb, delta):
    (o, d), box = rb
    shift = vec3(*delta)
    moved = slab((o + shift, d), Aabb(box.min + shift, box.max + shift))
    if not all(translates_exactly(p, shift) for p in (o[0], box.min, box.max)):
        return
    assert moved[0] == slab((o, d), box)[0]


@given(rays_and_boxes(), st.permutations([0, 1, 2]))
@settings(max_examples=200, deadline=None)
def test_axis_permutation_invariance(rb, perm):
    (o, d), box = rb
    perm = list(perm)
    b2 = Aabb(box.min[perm], box.max[perm])
    a, b = slab((o, d), box), slab((o[:, perm], d[:, perm]), b2)
    assert a[0] == b[0]
    if a[0]:
        assert a[1] == pytest.approx(b[1])
        assert a[2] == pytest.approx(b[2])


@given(rays_and_boxes(), st.tuples(*(st.floats(0, 1.0) for _ in range(3))))
@settings(max_examples=200, deadline=None)
def test_enlarging_box_preserves_hit(rb, grow):
    r, box = rb
    if not slab(r, box)[0]:
        return
    g = vec3(*grow)
    bigger = Aabb(box.min - g, box.max + g)
    assert slab(r, bigger)[0]


@given(rays_and_boxes())
@settings(max_examples=100, deadline=None)
def test_scalar_hit_agrees_with_dense_sampling(rb):
    # one ray, a one-row batch, against containment sampling
    r, box = rb
    hit, t_near, t_far = slab(r, box)
    if abs(t_near - t_far) < 1e-6:
        return  # grazing band: sample-grid resolution is not decisive
    if hit and (t_far < 0.0 or t_near > 100.0):
        return  # outside the oracle's fixed t range
    # rays that only clip the box very thinly can slip between samples
    if hit and (min(t_far, 100.0) - max(t_near, 0.0)) < 0.02:
        return
    assert hit == dense_hit_single(r[0][0], r[1][0], box.min, box.max)


def assert_rows_alone_equal_batch(kernel, origins, dirs, *args):
    """Each ray alone, as a one-row batch, gives the bits of its row of
    kernel's batch result."""
    batch = kernel(origins, dirs, *args)
    for i in range(len(origins)):
        alone = kernel(origins[i:i + 1], dirs[i:i + 1], *args)
        for got, want in zip(alone, batch):
            assert got.tobytes() == want[i:i + 1].tobytes()


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

    # each row alone equals the batch
    for kernel, args in ((slab_intersect_batch, ()), (near_miss_batch, (0.05,))):
        assert_rows_alone_equal_batch(kernel, origins, dirs, box.min, box.max, *args)


def test_batch_parallel_axis_matches_scalar():
    # derived: the rays run along x at heights y = 2, 0.5 and 1 through
    # the x range of a box spanning y in [-1, 1]; y = 1 grazes the face
    box = Aabb(vec3(2, -1, -1), vec3(4, 1, 1))
    origins = np.array([[0.0, 2.0, 0.0], [0.0, 0.5, 0.0], [0.0, 1.0, 0.0]])
    dirs = np.array([[1.0, 0.0, 0.0]] * 3)
    hit, _, _ = slab_intersect_batch(origins, dirs, box.min, box.max)
    assert list(hit) == [False, True, True]
    assert_rows_alone_equal_batch(slab_intersect_batch, origins, dirs, box.min, box.max)


def test_subnormal_direction_components_raise_no_warning():
    # derived: ray 0 runs along x with a subnormal y component, so 1/d_y
    # overflows in the slab test; ray 1 runs along x at y = 0.6 past the
    # box [-0.5, 0.5]^3 (a miss, inside the cull bound), with its closest
    # point offset from the center by (0, 0.6, 1e-310), so the near-miss
    # walk divides by a subnormal component. Both lanes are parallel axes
    # that the kernels discard.
    origins = np.array([[-5.0, 0.0, 0.0], [-5.0, 0.6, 1e-310]])
    dirs = np.array([[1.0, 1e-310, 0.0], [1.0, 0.0, 0.0]])
    bmin, bmax = np.full(3, -0.5), np.full(3, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hit, _, _ = slab_intersect_batch(origins, dirs, bmin, bmax)
        near, _, _ = near_miss_batch(origins, dirs, bmin, bmax, 0.05)
        assert prime_batch(origins, dirs, bmin, bmax, 0.05)[0].tolist() == hit.tolist()
    assert hit.tolist() == [True, False]
    assert near.tolist() == [True, False]


def _unculled(origins, dirs, bmin, bmax, tau):
    """prime_batch's answer without the cull: the two kernels on every ray."""
    hit, _, _ = slab_intersect_batch(origins, dirs, bmin, bmax)
    primed, _, _ = near_miss_batch(origins, dirs, bmin, bmax, tau)
    return hit, primed & ~hit


def _grazing_rays(rng, n, tau, one_box=False):
    """n rays, each with a box, whose lines pass the box center at about
    the distances where the cull decides: the bounding sphere radius r
    (through a box corner or anywhere on it), the near-miss limit t_far +
    tau along the offset direction, the box surface, r + tau, the
    distance-scaled margin and the central threshold 1e-9, each nudged by
    a few 1e-12 or ulps relative. Boxes are solid, flat or points;
    direction components fall just under and over PARALLEL_EPS; origins
    sit inside the box or up to 1e7 m along the ray on either side.

    One ray in ten instead starts on a box edge and runs along the box's
    thinnest axis, drifting off the edge through direction components
    around PARALLEL_EPS: the slab test lets such a ray pass up to
    sqrt(2) PARALLEL_EPS per meter outside the box."""
    nb = 1 if one_box else n
    centers = np.repeat(rng.uniform(-5, 5, (nb, 3)), n // nb, axis=0)
    halves = np.repeat(rng.uniform(0, 1, (nb, 3)), n // nb, axis=0)
    shape = rng.integers(0, 4, nb).repeat(n // nb)  # 0 point, 1 flat, 2-3 solid
    halves[shape == 0] = 0.0
    flat = np.nonzero(shape == 1)[0]
    halves[flat, rng.integers(0, 3, flat.size)] = 0.0
    edge = np.nonzero(rng.random(n) < 0.1)[0]
    axis = np.argmin(halves[edge], axis=1)
    if not one_box:
        halves[edge, axis] *= rng.choice([0.0, 1e-6, 1e-3], edge.size)
    r = np.linalg.norm(halves, axis=1)

    dirs = rng.normal(size=(n, 3))
    tiny = rng.random((n, 3)) < 0.25
    tiny[np.arange(n), rng.integers(0, 3, n)] = False  # one full component
    dirs[tiny] = 0.0
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    # set after normalising, so they sit exactly around PARALLEL_EPS
    near_eps = PARALLEL_EPS * rng.choice([0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 2.0], n)
    near_eps = np.where(rng.random(n) < 0.5, -near_eps, near_eps)
    dirs[tiny] = near_eps[np.nonzero(tiny)[0]]

    # offset direction w, perpendicular to the ray: toward a box corner or random
    corner = halves * rng.choice([-1.0, 1.0], (n, 3))
    w = np.where((rng.random(n) < 0.5)[:, None] & (r[:, None] > 0), corner,
                 rng.normal(size=(n, 3)))
    w -= np.einsum("ij,ij->i", w, dirs)[:, None] * dirs
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        t_far = np.min(np.where(np.abs(w) > 0, halves / np.abs(w), np.inf), axis=1)
    along = 10.0 ** rng.uniform(-2, 7, n) * rng.choice([-1.0, 1.0], n)
    target = np.stack([
        r, t_far + tau, t_far, r + tau,
        # within the distance-scaled margin, where the slab test's parallel
        # axes let a ray drift off the box by up to PARALLEL_EPS per meter
        r + rng.uniform(0, 2.2, n) * PARALLEL_EPS * (np.abs(along) + r),
        rng.uniform(0, 2e-9, n),  # around the near-miss rule's central case
    ], axis=1)
    gap = target[np.arange(n), rng.integers(0, target.shape[1], n)]
    gap *= 1.0 + rng.choice([-3e-12, -1e-12, -2**-51, 0, 0, 2**-51, 1e-12, 3e-12], n)

    origins = centers + gap[:, None] * w - along[:, None] * dirs
    inside = rng.random(n) < 0.05
    origins[inside] = centers[inside] + rng.uniform(-1, 1, (inside.sum(), 3)) * halves[inside]

    drift = PARALLEL_EPS * rng.choice([0.0, 0.5, 1 - 1e-6, 1.0, 1 + 1e-6], (edge.size, 3))
    dirs[edge] = drift * rng.choice([-1.0, 1.0], (edge.size, 3))
    dirs[edge, axis] = 1.0
    side = rng.choice([-1.0, 1.0], (edge.size, 3))
    origins[edge] = centers[edge] + side * halves[edge]
    origins[edge, axis] = centers[edge, axis] - along[edge]
    return origins, dirs, centers - halves, centers + halves


@pytest.mark.parametrize("tau", [0.0, 0.05, 0.5])
@pytest.mark.parametrize("seed", [1, 2])
def test_cull_matches_unculled_kernels(seed, tau):
    # the cull may only drop rays that neither hit nor near-miss: on rays
    # built around the bound, prime_batch agrees with the kernels run on
    # every ray, ray by ray, against per-ray boxes and against one box
    rng = np.random.default_rng(seed)
    for one_box in (False, True):
        n = 200_000
        origins, dirs, bmin, bmax = _grazing_rays(rng, n, tau, one_box)
        if one_box:
            bmin, bmax = bmin[0], bmax[0]
        hit, near = prime_batch(origins, dirs, bmin, bmax, tau)
        ref_hit, ref_near = _unculled(origins, dirs, bmin, bmax, tau)
        assert np.array_equal(hit, ref_hit)
        assert np.array_equal(near, ref_near)
        if not one_box:  # the rays straddle the bound: some of each outcome
            assert ref_hit.sum() > 1000 and ref_near.sum() > 1000
            assert ((~ref_hit) & (~ref_near)).sum() > 1000


@pytest.mark.parametrize("d_yz", [(0.9e-12, 0.0), (0.99e-12, 0.99e-12)],
                         ids=["one_parallel_axis", "two_parallel_axes"])
def test_cull_margin_grows_with_distance(d_yz):
    # derived: a box flat in x (half-extents 1e-6, 1, 1, so r = sqrt(2)
    # to 1e-12) and a ray from x = -1e7 along the box's y = z = 1 edge.
    # Its y and z components are below PARALLEL_EPS, so the slab test
    # leaves those axes to containment (the origin lies on both faces)
    # and reports a hit. The line drifts 1e7 * d_y off that edge by x = 0,
    # so it passes r + 6.4e-6 (one axis) or r + 1.4e-5 (two axes) from the
    # center: more than (r + tau)(1 + 1e-9) + 1e-9 at tau = 0, and more
    # than a single PARALLEL_EPS * (|t_closest| + r) = r + 1e-5 with two
    # axes, but within 2 PARALLEL_EPS * (|t_closest| + r).
    bmin, bmax = np.array([-1e-6, -1.0, -1.0]), np.array([1e-6, 1.0, 1.0])
    origins = np.array([[-1e7, 1.0, 1.0]])
    dirs = np.array([[1.0, *d_yz]])
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    hit, near = prime_batch(origins, dirs, bmin, bmax, 0.0)
    assert hit.tolist() == [True] and near.tolist() == [False]
    assert _unculled(origins, dirs, bmin, bmax, 0.0)[0].tolist() == [True]
    r = math.sqrt(2.0 + 1e-12)
    t_closest = 1e7 * dirs[0, 0]
    dist = np.linalg.norm(np.cross(-origins[0], dirs[0]))
    assert dist > r * (1 + 1e-9) + 1e-9 + 1e-6
    if d_yz[1]:
        assert dist > r * (1 + 1e-9) + 1e-9 + PARALLEL_EPS * (t_closest + r)


def test_prime_batch_checks_tau_when_nothing_survives():
    # derived: the ray passes 10 m from a unit box, so the cull drops it
    # and no kernel tests it; tau is still checked
    origins, dirs = np.array([[0.0, 10.0, 0.0]]), np.array([[1.0, 0.0, 0.0]])
    bmin, bmax = np.full(3, -0.5), np.full(3, 0.5)
    hit, near = prime_batch(origins, dirs, bmin, bmax, 0.05)
    assert not hit[0] and not near[0]
    for tau in (-1.0, math.nan):
        with pytest.raises(ValueError, match="tau"):
            prime_batch(origins, dirs, bmin, bmax, tau)


# ---------------------------------------------------------------------------
# The block cull of the priming scan: ray_blocks, blocks_near_box and their
# use in find_prime_time, checked against the kernels run on every ray.


def _dense_track(rng, n, targets):
    """A 60 Hz track of n samples: a walking camera whose gaze moves
    through segments of 3 to 80 samples. A segment fixates a point in a
    target's box grown by 0, 1 or 4 cm, or a point elsewhere, sweeps
    between two directions (a saccade), or
    alternates a direction with its opposite, so that a block's directions
    cancel. Gaussian noise of 0 to 5 mrad is added, and camera rotations
    are random, so world_rays rotates every gaze point."""
    times = np.arange(n) / 60.0
    origins = np.cumsum(rng.normal(0.0, 0.01, (n, 3)), axis=0) + [0.0, 1.6, 0.0]
    aims = np.empty((n, 3))
    i = 0
    while i < n:
        k = min(n - i, int(rng.integers(3, 81)))
        kind = rng.integers(0, 7)
        if kind <= 3:  # in the grown box, or in its middle 30% per axis
            box = targets[rng.integers(0, len(targets))].as_box()
            corner = box.half_extents + rng.choice([0.0, 0.01, 0.04])
            aims[i:i + k] = box.center + rng.uniform(-1, 1, 3) * corner * (kind % 2 or 0.3)
        elif kind == 4:
            aims[i:i + k] = origins[i:i + k] + rng.normal(size=3)
        elif kind == 5:
            a, b = rng.normal(size=(2, 3))
            aims[i:i + k] = origins[i:i + k] + a + np.linspace(0, 1, k)[:, None] * (b - a)
        else:
            d = rng.normal(size=3)
            aims[i:i + k] = origins[i:i + k] + d * np.where(np.arange(k) % 2, -1.0, 1.0)[:, None]
        i += k
    world = aims - origins
    world /= np.linalg.norm(world, axis=1, keepdims=True)
    world += rng.uniform(0.0, 0.005) * rng.normal(size=(n, 3))
    rotations = np.linalg.qr(rng.normal(size=(n, 3, 3)))[0]
    points = np.einsum("nji,nj->ni", rotations, world) * rng.uniform(0.5, 2.0, (n, 1))
    return GazeTrack(times, points, rotations, origins)


def _window_reference(track, event, w, tau):
    """find_prime_time by the two kernels on every ray of the window."""
    i0 = np.searchsorted(track.times, event.t_e - w, side="left")
    i1 = np.searchsorted(track.times, event.t_e, side="right")
    if i0 >= i1:
        return EmptyWindow
    origins, dirs = track.world_rays()
    box = event.target.as_box()
    hit, near = _unculled(origins[i0:i1], dirs[i0:i1], box.min, box.max, tau)
    where = np.flatnonzero(hit | near)
    if where.size == 0:
        return None
    return track.times[i0 + where[0]], DIRECT_HIT if hit[where[0]] else NEAR_MISS


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_block_cull_matches_unculled_kernels_on_dense_tracks(seed):
    # many events per target on one track, so the kept blocks come from the
    # cache; tracks shorter than a block, exactly one block, one past it and
    # longer, whose last block is partly filled; windows that start and end
    # inside blocks; solid, flat and point targets
    rng = np.random.default_rng(seed)
    targets = [
        ObjectTarget("solid", box=Aabb.from_center([1.0, 1.0, 2.0], [0.1, 0.2, 0.1])),
        ObjectTarget("flat", box=Aabb.from_center([-1.5, 0.8, 1.0], [0.3, 0.0, 0.2])),
        ObjectTarget("point", point=[0.5, 1.2, -2.0]),
        ObjectTarget("far", box=Aabb.from_center([30.0, 0.0, 30.0], [0.5, 0.5, 0.5])),
    ]
    outcomes = {"skipped": 0}
    for n in (7, 32, 33, 95, 1000):
        track = _dense_track(rng, n, targets)
        for tau in (0.0, 0.05):
            for _ in range(60):
                event = InteractionEvent("pick", float(rng.uniform(-0.2, n / 60.0 + 0.2)),
                                         targets[rng.integers(0, len(targets))])
                w = float(rng.choice([rng.uniform(0.0, 0.6), rng.uniform(0.0, 20.0)]))
                want = _window_reference(track, event, w, tau)
                if want is EmptyWindow:
                    with pytest.raises(EmptyWindow):
                        find_prime_time(track, event, w, tau)
                    continue
                got = find_prime_time(track, event, w, tau)
                got = got if got is None else (got.t_p, got.prime_mode)
                assert got == want
                outcome = "none" if want is None else want[1]
                outcomes[outcome] = outcomes.get(outcome, 0) + 1
        n_blocks = -(-n // 32)
        for target in targets:
            outcomes["skipped"] += n_blocks - len(track.blocks_near(target.as_box(), 0.05))
    # every outcome occurs, and the cull skipped blocks
    assert min(outcomes.values()) > 10, outcomes


def test_cancelling_block_is_kept_without_warning():
    # derived: the directions of the first block alternate between +z and
    # -z, so they sum to zero and the cone axis is undefined. Its origins
    # are all at 0, and its lines pass 10 m from the box at y = 10. The
    # block is kept, with no RuntimeWarning, while the second block (all
    # +x, also 10 m from the box) is skipped
    dirs = np.zeros((64, 3))
    dirs[:32, 2] = np.where(np.arange(32) % 2, -1.0, 1.0)
    dirs[32:, 0] = 1.0
    blocks = ray_blocks(np.zeros((64, 3)), dirs, 32)
    assert blocks[3][0] == 0.0 and blocks[3][1] > 0.99  # no cone, and a tight one
    keep = blocks_near_box(blocks, np.array([-0.5, 9.5, -0.5]), np.array([0.5, 10.5, 0.5]), 0.05)
    assert keep.tolist() == [True, False]


@pytest.mark.parametrize("tau", [0.0, 0.05, 0.5])
@pytest.mark.parametrize("layout", ["tight", "sorted", "wide"])
def test_block_cull_keeps_every_block_with_a_prime(layout, tau):
    # rays built around prime_batch's bound, against one box, in blocks of
    # 32. Tight: a grazing ray, kept as it is or moved away from the box
    # center by a share f of its distance, and 31 copies moved by f to 2f
    # with directions turned by about 0, 1e-12, 1e-9 or 1e-6 rad. Sorted: rays in
    # order of direction (close cones, scattered origins). Wide: random
    # order. A block that holds a hit or near miss of the kernels run on
    # every ray is never skipped
    rng = np.random.default_rng(len(layout) + int(100 * tau))
    n = 131_072
    if layout == "tight":
        origins, dirs, bmin, bmax = _grazing_rays(rng, n // 32, tau, one_box=True)
        center = 0.5 * (bmin[0] + bmax[0])
        along = np.sum((center - origins) * dirs, axis=1, keepdims=True)
        away = origins + along * dirs - center  # from the center to the closest point
        f = rng.choice([0.0, 1e-9, 1e-6, 1e-3, 0.1, 1.0], (n // 32, 1, 1))
        f = f * (1.0 + rng.random((n // 32, 32, 1)))
        f[:, 0] *= rng.random((n // 32, 1)) < 0.5  # the grazing ray itself
        origins = (origins[:, None] + f * away[:, None]).reshape(n, 3)
        turn = rng.choice([0.0, 1e-12, 1e-9, 1e-6], (n // 32, 1, 1))
        dirs = dirs[:, None] + turn * rng.normal(size=(n // 32, 32, 3))
        dirs = (dirs / np.linalg.norm(dirs, axis=2, keepdims=True)).reshape(n, 3)
    else:
        origins, dirs, bmin, bmax = _grazing_rays(rng, n, tau, one_box=True)
        if layout == "sorted":
            order = np.lexsort((dirs[:, 2], np.round(dirs[:, 1], 2), np.round(dirs[:, 0], 2)))
            origins, dirs = origins[order], dirs[order]
    bmin, bmax = bmin[0], bmax[0]
    hit, near = _unculled(origins, dirs, bmin, bmax, tau)
    primes = (hit | near).reshape(-1, 32).any(axis=1)
    keep = blocks_near_box(ray_blocks(origins, dirs, 32), bmin, bmax, tau)
    assert primes.sum() > 100
    assert not np.any(primes & ~keep)
    if layout == "tight":  # blocks moved well past the bound are skipped
        assert (~keep).sum() > 100


@pytest.mark.parametrize("tau", [-1.0, math.nan])
def test_bad_tau_raises_when_every_block_is_culled(tau):
    # derived: every ray runs along +x from the origin, so its line passes
    # 10 m from a box at y = 10 and no block is kept. EmptyWindow still
    # comes first, and a bad tau still raises, also after a good tau's
    # answer is cached
    n = 100
    track = GazeTrack(np.arange(n) / 60.0, np.tile([1.0, 0.0, 0.0], (n, 1)),
                      np.tile(np.eye(3), (n, 1, 1)), np.zeros((n, 3)))
    box = Aabb(np.array([-0.5, 9.5, -0.5]), np.array([0.5, 10.5, 0.5]))
    event = InteractionEvent("put", 1.0, ObjectTarget("box", box=box))
    with pytest.raises(ValueError, match="tau"):
        blocks_near_box(ray_blocks(*track.world_rays(), 32), box.min, box.max, tau)
    with pytest.raises(ValueError, match="tau"):
        find_prime_time(track, event, tau=tau)
    assert find_prime_time(track, event, tau=0.05) is None
    assert track.blocks_near(box, 0.05) == []
    with pytest.raises(ValueError, match="tau"):
        find_prime_time(track, event, tau=tau)
    with pytest.raises(EmptyWindow):
        find_prime_time(track, InteractionEvent("put", 10.0, event.target), w=1.0, tau=tau)
