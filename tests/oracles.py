"""Independent brute-force oracles used to check the analytic geometry.

The containment oracles never look at parametric intervals: they sample
points along each ray and ask the box directly. The batched form samples
t_k = t0 + k*step and x_k = o + t_k*d; every float operation there is
monotone, so on each axis x_k is monotone in k and the in-slab indices
form one contiguous range. Bisection finds each axis's range with the same
per-sample expression, and the pair is a hit iff the three ranges meet:
exactly the answer of testing all n_samples points, at O(log n_samples).
"""

import numpy as np

N_SAMPLES = 10_000
T_MAX = 100.0


def dense_hit_single(origin, direction, bmin, bmax, n_samples=N_SAMPLES, t_max=T_MAX):
    """True iff any sampled point o + t*d with t in [0, t_max] lies in the box."""
    t = np.linspace(0.0, t_max, n_samples)
    pts = origin[None, :] + t[:, None] * direction[None, :]
    inside = np.all((pts >= bmin) & (pts <= bmax), axis=1)
    return bool(inside.any())


def support_windows(origins, dirs, bmins, bmaxs, t_max=T_MAX):
    """Per-pair sampling window [t0, t1] from the box's exact projection
    onto the ray line (support function of the box: half-width
    sum_j h_j * |d_j| around the center's projection), clipped to
    [0, t_max]. Any ray-box intersection lies inside this window, so
    focusing the sample budget here is sound and independent of the slab
    interval computation."""
    centers = 0.5 * (bmins + bmaxs)
    halves = 0.5 * (bmaxs - bmins)
    t_c = np.einsum("ij,ij->i", centers - origins, dirs)
    w = np.einsum("ij,ij->i", halves, np.abs(dirs))
    t0 = np.clip(t_c - w, 0.0, t_max)
    t1 = np.clip(t_c + w, 0.0, t_max)
    return t0, t1


def focused_hit_batch(origins, dirs, bmins, bmaxs, n_samples=N_SAMPLES, t_max=T_MAX):
    """True per pair iff some sample o + (t0 + k*step)*d, k = 0..n_samples-1,
    over the pair's support window lies in the box (no samples if t1 <= t0)."""
    t0, t1 = support_windows(origins, dirs, bmins, bmaxs, t_max)
    step = (t1 - t0) / (n_samples - 1)
    # flip the axes where d < 0 (negation is exact) so each sampled
    # coordinate is nondecreasing in k; the slab is then lo <= s*x_k <= hi
    sign = np.where(dirs < 0.0, -1.0, 1.0)
    lo = np.where(dirs < 0.0, -bmaxs, bmins)
    hi = np.where(dirs < 0.0, -bmins, bmaxs)

    def first_index(past):
        """Per pair and axis, the least k in [0, n_samples] with past(s*x_k)
        true, for a predicate that stays true once it holds."""
        a = np.zeros(dirs.shape, dtype=np.int64)
        b = np.full(dirs.shape, n_samples, dtype=np.int64)
        while True:
            open_ = a < b
            if not open_.any():
                return a
            mid = (a + b) // 2
            t = t0[:, None] + mid * step[:, None]
            p = past(sign * (origins + t * dirs))
            b = np.where(open_ & p, mid, b)
            a = np.where(open_ & ~p, mid + 1, a)

    enter = first_index(lambda s: s >= lo).max(axis=1)
    leave = first_index(lambda s: s > hi).min(axis=1)
    return (t1 > t0) & (enter < leave)


def oracle_grid_steps(origins, dirs, bmins, bmaxs, n_samples=N_SAMPLES, t_max=T_MAX):
    """Sample spacing of the focused oracle per pair: chords thinner than
    this are below the oracle's resolving power."""
    t0, t1 = support_windows(origins, dirs, bmins, bmaxs, t_max)
    return np.maximum(t1 - t0, 0.0) / (n_samples - 1)


def sample_box_surface(box, n=20_000, rng=None):
    """Uniform-ish points on the box surface, for cross-checking near-miss
    surface distances by direct minimization."""
    rng = rng or np.random.default_rng(0)
    mn, mx = box.min, box.max
    pts = rng.uniform(mn, mx, size=(n, 3))
    face_axis = rng.integers(0, 3, size=n)
    face_side = rng.integers(0, 2, size=n)
    for i in range(3):
        m = face_axis == i
        pts[m & (face_side == 0), i] = mn[i]
        pts[m & (face_side == 1), i] = mx[i]
    return pts


def near_miss_oracle(origins, dirs, bmins, bmaxs, tau, n_steps=200):
    """Near-miss rule without slab intervals: (primed, delta, t_closest).

    The surface point is found by bisection on containment along the
    center -> p_closest direction u. The box is convex and holds its
    center, and each coordinate of c + s*u is monotone in s, so the
    contained s form one interval [0, s*]; after n_steps halvings of
    [0, |half-diagonal| + 1] the last contained s is s* to the float
    resolution. delta is the distance from c + s*u to p_closest. A ray
    whose closest point is within 1e-9 of the center has delta = 0, the
    rule's definition for rays through the center. The projection t_closest
    uses the kernel's own float expression, so a comparison isolates the
    surface search.
    """
    centers = 0.5 * (bmins + bmaxs)
    t_closest = np.einsum("ij,ij->i", centers - origins, dirs)
    p_closest = origins + t_closest[:, None] * dirs
    offset = p_closest - centers
    dist = np.linalg.norm(offset, axis=1)
    central = dist < 1e-9
    u = offset / np.where(central, 1.0, dist)[:, None]
    lo = np.zeros(len(origins))
    hi = np.linalg.norm(0.5 * (bmaxs - bmins), axis=-1) + 1.0
    for _ in range(n_steps):
        mid = 0.5 * (lo + hi)
        p = centers + mid[:, None] * u
        inside = np.all((p >= bmins) & (p <= bmaxs), axis=1)
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    surface = centers + lo[:, None] * u
    delta = np.where(central, 0.0, np.linalg.norm(surface - p_closest, axis=1))
    primed = (delta <= tau) & (t_closest >= 0.0)
    return primed, delta, t_closest
