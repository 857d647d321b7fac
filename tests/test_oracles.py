"""The test oracles against what they stand in for.

`focused_hit_batch` finds the sampled points inside the box by bisection
instead of testing all of them; this checks that it gives the answer of
testing every sample o + (t0 + k*step)*d, k = 0..N_SAMPLES-1, one pair at a
time, on pairs drawn like the acceptance test's and on the edge cases.
`near_miss_oracle` finds the near-miss surface point by containment
bisection; it is checked against the slab-based `near_miss_batch` on rays
that pass close to the box surface.
"""

import numpy as np

from pnr.geometry import near_miss_batch

from oracles import N_SAMPLES, T_MAX, focused_hit_batch, near_miss_oracle, support_windows


def dense_sampled_hit(origin, direction, bmin, bmax, t0, t1, n_samples=N_SAMPLES):
    if t1 <= t0:
        return False
    step = (t1 - t0) / (n_samples - 1)
    t = t0 + np.arange(n_samples) * step
    pts = origin + t[:, None] * direction
    return bool(np.all((pts >= bmin) & (pts <= bmax), axis=1).any())


def _unit(v):
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def test_focused_hit_batch_matches_dense_sampling():
    rng = np.random.default_rng(7)
    groups = {}

    # drawn like test_01: half aimed into the box, half in random directions
    n = 1000
    origins = rng.uniform(-5.0, 5.0, (n, 3))
    centers = rng.uniform(-5.0, 5.0, (n, 3))
    extents = rng.uniform(0.01, 2.0, (n, 3))
    interior = centers + rng.uniform(-0.5, 0.5, (n, 3)) * extents
    dirs = _unit(np.where(rng.random(n)[:, None] < 0.5,
                          interior - origins, rng.normal(size=(n, 3))))
    groups["random"] = (origins, dirs, centers, extents)

    # aimed at a box corner with small jitter: chords near the sample step
    n = 200
    origins = rng.uniform(-5.0, 5.0, (n, 3))
    centers = rng.uniform(-5.0, 5.0, (n, 3))
    extents = rng.uniform(0.01, 2.0, (n, 3))
    corners = centers + rng.choice([-0.5, 0.5], (n, 3)) * extents
    dirs = _unit(_unit(corners - origins) + rng.normal(scale=1e-4, size=(n, 3)))
    groups["grazing"] = (origins, dirs, centers, extents)

    # axis-parallel: one or two direction components exactly zero, with the
    # origin inside, outside or exactly on the faces of those slabs
    n = 300
    centers = rng.uniform(-5.0, 5.0, (n, 3))
    extents = rng.uniform(0.01, 2.0, (n, 3))
    aim = centers + rng.uniform(-0.5, 0.5, (n, 3)) * extents
    origins = aim - rng.uniform(1.0, 5.0, (n, 1)) * _unit(rng.normal(size=(n, 3)))
    zero = np.zeros((n, 3), dtype=bool)
    zero[np.arange(n), rng.integers(0, 3, n)] = True
    zero[np.arange(n // 2), rng.integers(0, 3, n // 2)] = True
    where = rng.choice([-0.5, -0.25, 0.25, 0.5, 0.75], (n, 3))
    origins = np.where(zero, centers + where * extents, origins)
    dirs = _unit(np.where(zero, 0.0, aim - origins))
    groups["axis-parallel"] = (origins, dirs, centers, extents)

    # origin inside the box, any direction
    n = 100
    centers = rng.uniform(-5.0, 5.0, (n, 3))
    extents = rng.uniform(0.01, 2.0, (n, 3))
    origins = centers + rng.uniform(-0.5, 0.5, (n, 3)) * extents
    dirs = _unit(rng.normal(size=(n, 3)))
    groups["inside"] = (origins, dirs, centers, extents)

    # empty window: the box wholly behind the origin or beyond T_MAX
    n = 200
    origins = rng.uniform(-5.0, 5.0, (n, 3))
    dirs = _unit(rng.normal(size=(n, 3)))
    extents = rng.uniform(0.01, 2.0, (n, 3))
    reach = np.linalg.norm(extents, axis=1, keepdims=True)
    dist = np.where(np.arange(n)[:, None] < n // 2,
                    -(1.0 + reach), T_MAX + 1.0 + reach)
    centers = origins + dist * dirs
    # ...or touching it: the origin on a face and the ray leaving along the
    # face normal (dyadic values, so t0 = t1 = 0 exactly); the origin would
    # be an inside sample, but an empty window has no samples
    m = 20
    axis = rng.integers(0, 3, m)
    normal = np.zeros((m, 3))
    normal[np.arange(m), axis] = rng.choice([-1.0, 1.0], m)
    touch = rng.integers(-5, 5, (m, 3)).astype(float)
    origins = np.concatenate([origins, touch + 0.5 * normal])
    dirs = np.concatenate([dirs, normal])
    centers = np.concatenate([centers, touch])
    extents = np.concatenate([extents, np.ones((m, 3))])
    groups["empty"] = (origins, dirs, centers, extents)

    hits = {}
    for name, (origins, dirs, centers, extents) in groups.items():
        bmins = centers - extents / 2.0
        bmaxs = centers + extents / 2.0
        fast = focused_hit_batch(origins, dirs, bmins, bmaxs)
        t0, t1 = support_windows(origins, dirs, bmins, bmaxs)
        slow = np.array([
            dense_sampled_hit(origins[i], dirs[i], bmins[i], bmaxs[i], t0[i], t1[i])
            for i in range(len(origins))
        ])
        bad = np.nonzero(fast != slow)[0]
        assert bad.size == 0, f"{name}: disagreements at {bad[:10]}"
        hits[name] = slow
        if name == "empty":
            assert np.all(t1 <= t0)

    # each group exercises what it is there for
    for name in ("random", "grazing", "axis-parallel"):
        assert 0 < hits[name].sum() < len(hits[name]), name
    assert hits["inside"].all()
    assert not hits["empty"].any()


def test_near_miss_oracle_matches_kernel():
    rng = np.random.default_rng(11)
    tau = 0.05
    n = 5000
    groups = {}

    # aimed at a point up to 2*tau outside the surface, in a random direction
    # from the center
    centers = rng.uniform(-5.0, 5.0, (n, 3))
    halves = rng.uniform(0.0, 1.0, (n, 3))
    origins = rng.uniform(-5.0, 5.0, (n, 3))
    u = _unit(rng.normal(size=(n, 3)))
    surface = np.min(halves / np.abs(u), axis=1)
    aim = centers + (surface + rng.uniform(0.0, 2.0 * tau, n))[:, None] * u
    groups["near-surface"] = (origins, _unit(aim - origins), centers, halves)

    # point boxes, aimed within 2*tau of the point
    centers = rng.uniform(-5.0, 5.0, (n, 3))
    origins = rng.uniform(-5.0, 5.0, (n, 3))
    aim = centers + rng.uniform(0.0, 2.0 * tau, (n, 1)) * _unit(rng.normal(size=(n, 3)))
    groups["point"] = (origins, _unit(aim - origins), centers, np.zeros((n, 3)))

    # rays through the center, of boxes and of points
    centers = rng.uniform(-5.0, 5.0, (n, 3))
    halves = np.where(np.arange(n)[:, None] < n // 2, 0.0, rng.uniform(0.0, 1.0, (n, 3)))
    origins = rng.uniform(-5.0, 5.0, (n, 3))
    groups["center"] = (origins, _unit(centers - origins), centers, halves)

    # origin inside the box, any direction
    centers = rng.uniform(-5.0, 5.0, (n, 3))
    halves = rng.uniform(0.0, 1.0, (n, 3))
    origins = centers + rng.uniform(-1.0, 1.0, (n, 3)) * halves
    groups["inside"] = (origins, _unit(rng.normal(size=(n, 3))), centers, halves)

    for name, (origins, dirs, centers, halves) in groups.items():
        bmins, bmaxs = centers - halves, centers + halves
        primed, delta, t_closest = near_miss_batch(origins, dirs, bmins, bmaxs, tau)
        o_primed, o_delta, o_t = near_miss_oracle(origins, dirs, bmins, bmaxs, tau)
        assert np.abs(delta - o_delta).max() <= 1e-12, name
        decisive = np.abs(o_delta - tau) > 1e-12
        bad = np.nonzero(decisive & (primed != o_primed))[0]
        assert bad.size == 0, f"{name}: disagreements at {bad[:10]}"
        assert o_primed.sum() >= 300, name
        if name == "center":
            assert np.all(o_delta == 0.0)
        else:
            assert not o_primed.all(), name
