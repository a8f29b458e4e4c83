"""Constraint regions: caps, projected star bodies, and the validators."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from sphere_nav import constraints
from sphere_nav import geometry as geo
from sphere_nav.charts import cell_boxes
from sphere_nav.constraints import (
    ConicCap,
    ConstraintArrangement,
    EuclideanStarBody,
    PowerSumProfile,
    ProjectedStarShape,
    RadialTableProfile,
    _Shadow,
    build_projected_star,
    complete_basis,
    dilation_threshold,
    pairwise_separation,
    phi,
    region_membership,
    suggest_epsilon,
    validate_kernel,
    validate_region_disjointness,
)
from sphere_nav.controllers import StarControllerParams, StarPiecewiseController
from sphere_nav.errors import (
    DomainError,
    InsideUnsafe,
    MultipleActiveConstraints,
    NotStarShaped,
    OriginInsideBody,
    TargetInsideUnsafe,
)
from sphere_nav.geometry import UnitPoint
from sphere_nav.scenario import validate_scenario


def cap(axis, xi):
    return ConicCap(geo.normalize(np.asarray(axis, dtype=float)), xi)


def sample_cap_points(c: ConicCap, count: int, rng) -> np.ndarray:
    """Independent cap covering: stratified polar-angle x azimuth grid."""
    g = c.axis.coords
    m = g.size
    basis = np.linalg.qr(np.column_stack([g, np.eye(m)]))[0][:, 1:m]
    if m == 3:
        n_t, n_phi = max(4, count // 200), 200
        ts = np.linspace(0.0, c.xi, n_t)
        phis = 2 * np.pi * np.arange(n_phi) / n_phi
        azim = np.column_stack([np.cos(phis), np.sin(phis)])
    else:
        n_dir = 500
        n_t = max(4, count // n_dir)
        ts = np.linspace(0.0, c.xi, n_t)
        azim = rng.normal(size=(n_dir, m - 1))
        azim /= np.linalg.norm(azim, axis=1, keepdims=True)
    dirs = azim @ basis.T
    pts = (np.cos(ts)[:, None, None] * g[None, None, :]
           + np.sin(ts)[:, None, None] * dirs[None, :, :])
    return pts.reshape(-1, m)


def cap_distance_oracle(x, c: ConicCap, rng, raw_samples=10_000, refine=0):
    """Brute-force 1 - max dot over sampled cap points, optionally concentrated."""
    pts = sample_cap_points(c, raw_samples, rng)
    dots = pts @ x
    best = pts[int(np.argmax(dots))]
    est = 1.0 - float(dots.max())
    g = c.axis.coords
    span = 0.15
    for _ in range(refine):
        # resample around the best point, shrinking the angular window
        t0 = np.arccos(np.clip(best @ g, -1, 1))
        w0 = best - (best @ g) * g
        nw = np.linalg.norm(w0)
        w0 = w0 / nw if nw > 1e-12 else np.zeros_like(w0)
        ts = np.clip(t0 + span * rng.uniform(-1, 1, size=256), 0.0, c.xi)
        ws = w0 + span * rng.normal(size=(256, g.size))
        ws -= np.outer(ws @ g, g)
        ws /= np.linalg.norm(ws, axis=1, keepdims=True)
        pts = np.cos(ts)[:, None] * g + np.sin(ts)[:, None] * ws
        dots = pts @ x
        if 1.0 - float(dots.max()) < est:
            est = 1.0 - float(dots.max())
            best = pts[int(np.argmax(dots))]
        span *= 0.6
    return est


def disc_shape(center, radius):
    """Planar disc perpendicular to `center`; its projection is an exact cap."""
    c = np.asarray(center, dtype=float)
    k = c.size - 1
    profile = PowerSumProfile([2.0] * k, radius ** 2)
    body = EuclideanStarBody(anchor=c, basis=complete_basis(c),
                             kernel_point=c, profile=profile)
    return build_projected_star(body)


def lifted_vertices(shape):
    """The chart vertices of a star region as points of the body's hyperplane."""
    return shape.body.lift(shape.chart.vertices())


# ---------------------------------------------------------------------------
# caps
# ---------------------------------------------------------------------------

def test_cap_distance_examples():
    g = np.array([0.0, 0.0, 1.0])
    c = cap(g, np.pi / 6)
    assert c.distance(g) == 0.0
    assert abs(c.distance(-g) - (1.0 + np.cos(np.pi / 6))) <= 1e-15
    w = np.array([1.0, 0.0, 0.0])
    boundary = geo.rotate_toward(g, w, np.pi / 6)
    assert c.distance(boundary) <= 1e-12
    assert c.contains(boundary)


def test_cap_distance_matches_sampling_oracle():
    # raw 1e4-sample gap meets 1e-3 on S^2; refined agreement on S^2 and S^3
    rng = np.random.default_rng(42)
    for n in (2, 3):
        for _ in range(20):
            g = geo.sample_uniform_many(n, 1, rng)[0]
            c = cap(g, rng.uniform(0.3, 1.0))
            x = geo.sample_uniform_many(n, 1, rng)[0]
            if c.contains(x):
                continue
            analytic = c.distance(x)
            if n == 2:
                raw = cap_distance_oracle(x, c, rng)
                assert abs(analytic - raw) <= 1e-3
            refined = cap_distance_oracle(x, c, rng, refine=30)
            assert abs(analytic - refined) <= 1e-6


def test_cap_contains():
    g = np.array([0.0, 0.0, 1.0])
    c = cap(g, 0.4)
    assert not c.contains(-g)
    assert c.contains(g)
    assert not c.contains_interior(geo.rotate_toward(g, [1, 0, 0], 0.4))


# ---------------------------------------------------------------------------
# projected star bodies
# ---------------------------------------------------------------------------

def test_disc_projects_to_cap():
    center = geo.normalize([0.2, -0.4, 0.6, 0.2]).coords
    radius = 0.2
    shape = disc_shape(center, radius)
    equivalent = ConicCap(UnitPoint(center), np.arctan(radius))
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(60):
        x = geo.sample_uniform_many(3, 1, rng)[0]
        worst = max(worst, abs(shape.distance(x) - equivalent.distance(x)))
        assert shape.contains(x) == equivalent.contains(x)
    assert worst <= 1e-5


def test_star_distance_basics():
    shape = disc_shape(geo.normalize([0.0, 0.0, 1.0]).coords, 0.35)
    g = shape.kernel_on_sphere
    assert shape.distance(g) == 0.0
    assert shape.distance(-g.coords) > 1.0
    bd = geo.normalize(lifted_vertices(shape)[17])
    assert shape.contains(bd)


def test_powersum_body_builds_and_kernel_validates():
    g1 = np.array([-0.5, -0.5, -0.5, -0.5])
    body = EuclideanStarBody(anchor=g1, basis=complete_basis([0, 0, 0, 1.0]),
                             kernel_point=g1,
                             profile=PowerSumProfile([0.4, 0.4, 0.4], 1.5))
    shape = build_projected_star(body)
    assert np.allclose(shape.kernel_on_sphere.coords, g1)
    # exact spike-tip distance to the target direction
    xd = np.array([1.0, 0.0, 0.0, 0.0])
    tip = g1 + np.array([1.5 ** 2.5, 0, 0, 0])
    expected = 1.0 - float(tip @ xd) / np.linalg.norm(tip)
    assert abs(shape.distance(xd) - expected) <= 1e-9
    rep = validate_kernel(shape, shape.kernel_on_sphere)
    assert rep.ok, rep.failures
    assert rep.interior_margin > 0.0


def test_origin_inside_body_rejected():
    # every point of a hyperplane lies at least |normal . anchor| from the
    # origin: here a hyperplane through it, with the kernel within reach of 0,
    # and a disc clear of the origin in the plane z = 5e-7, whose image is a sliver
    normal = np.array([0.0, 0.0, 1.0])
    for anchor, level in (([0.2, 0.0, 0.0], 0.25), ([0.5, 0.0, 5e-7], 0.04)):
        anchor = np.array(anchor)
        body = EuclideanStarBody(anchor=anchor, basis=complete_basis(normal),
                                 kernel_point=anchor,
                                 profile=PowerSumProfile([2.0, 2.0], level))
        with pytest.raises(OriginInsideBody):
            build_projected_star(body)


def power_sum_body(anchor, exponents, level, kernel=None):
    """Power-sum body in the plane normal to `anchor`, kernel at the anchor by default."""
    a = np.asarray(anchor, dtype=float)
    g = a if kernel is None else np.asarray(kernel, dtype=float)
    return EuclideanStarBody(anchor=a, basis=complete_basis(a), kernel_point=g,
                             profile=PowerSumProfile(exponents, level))


def test_body_not_star_shaped_about_its_kernel_rejected():
    # a concave power-sum body is star-shaped about its anchor only: rays from
    # a kernel just off it cross the boundary again near the spikes
    with pytest.raises(NotStarShaped):
        power_sum_body([0.0, -2.0, 0.0], [0.4, 0.4], 0.5, kernel=[0.05, -2.0, 0.0])
    anchor = np.array([0.0, 0.0, 0.0, 3.0])
    with pytest.raises(NotStarShaped):
        power_sum_body(anchor, [0.4, 0.4, 0.4], 1.0,
                       kernel=anchor + 0.05 * complete_basis(anchor)[:, 0])
    # star-shaped bodies that the crossing test checks still build
    for body in (power_sum_body([0.0, -2.0, 0.0], [2.0, 2.0], 0.25,
                                kernel=[0.05, -2.0, 0.0]),
                 power_sum_body([0.0, -2.0, 0.0], [0.4, 1.5], 0.5),
                 power_sum_body([0.0, -2.0, 0.0], [1.0, 2.0], 0.5),
                 power_sum_body(anchor, [2.0, 3.0, 4.0], 1.0)):
        build_projected_star(body)


def test_bounding_reach_covers_the_region():
    # mixed exponents have boundary radii below 1, and an off-anchor kernel
    # sees the body farther out than the anchor does
    for body in (power_sum_body([0.0, -2.0, 0.0], [0.4, 1.5], 0.5),
                 power_sum_body([0.0, -2.0, 0.0], [1.0, 2.0], 0.5),
                 power_sum_body([0.0, -2.0, 0.0], [2.0, 2.0], 0.25,
                                kernel=[0.05, -2.0, 0.0])):
        shape = build_projected_star(body)
        center, reach = shape.bounding()
        # a dense boundary from the body's own radius, not from the chart
        phi = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
        dirs = np.column_stack([np.cos(phi), np.sin(phi)])
        radii = body.profile.radii(body.kernel_s, dirs)
        amb = body.lift(body.kernel_s + radii[:, None] * dirs)
        angles = np.arccos(np.clip(amb @ center / np.linalg.norm(amb, axis=1), -1.0, 1.0))
        assert angles.max() <= reach


def off_anchor_bodies():
    """Power-sum bodies with mixed exponents whose kernel is off the anchor,
    on S^2 and S^3: the profile has no closed-form radius about the kernel."""
    a3 = np.array([0.0, 0.0, 0.0, 2.0])
    b3 = complete_basis(a3)
    a2 = np.array([0.0, -2.0, 0.0])
    b2 = complete_basis(a2)
    return [power_sum_body(a2, [1.5, 3.0], 0.5, kernel=a2 + b2 @ [0.1, -0.05]),
            power_sum_body(a3, [2.0, 3.0, 4.0], 0.5, kernel=a3 + b3 @ [0.1, -0.05, 0.08])]


def bisected_radius(body, d):
    """The boundary radius about the kernel along unit direction d, bisected."""
    lo, hi = 0.0, 1e-3
    while body.profile.implicit(body.kernel_s + hi * d)[0] <= 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if body.profile.implicit(body.kernel_s + mid * d)[0] <= 0.0 \
            else (lo, mid)
    return 0.5 * (lo + hi)


def radial_rule(body, x, tol, outward):
    """The radial membership rule on a bisected radius rho: the ray through x
    hits the body hyperplane at s, r = |s - kernel|, and the closure slack is
    sqrt(2 tol) |P(s)| (times 4 inward) + 1e-12.  Inward, x is contained when
    r - rho <= slack; outward, interior when r - rho < -slack."""
    n = body.normal
    denom = float(x @ n)
    if abs(denom) < 1e-15 or float(n @ body.anchor) / denom <= 0.0:
        return False
    hit = float(n @ body.anchor) / denom * x
    rel = body.basis.T @ (hit - body.anchor) - body.kernel_s
    r = float(np.linalg.norm(rel))
    d = rel / r if r > 1e-15 else np.eye(body.k)[0]
    slack = np.sqrt(2.0 * tol) * np.linalg.norm(hit) * (1.0 if outward else 4.0) + 1e-12
    excess = (r if r > 1e-15 else 0.0) - bisected_radius(body, d)
    return excess < -slack if outward else excess <= slack


@pytest.mark.parametrize("k", [2, 3])
def test_membership_asks_the_body_like_the_radial_rule(k):
    body = off_anchor_bodies()[k - 2]
    region = build_projected_star(body)
    rng = np.random.default_rng(60 + k)
    g = region.kernel_on_sphere.coords
    pts = [*geo.sample_uniform_many(k, 60, rng), g]
    near = []
    # states radially just inside and just outside each closure
    for _ in range(40):
        d = rng.normal(size=k)
        d /= np.linalg.norm(d)
        rho = bisected_radius(body, d)
        lever = np.linalg.norm(body.lift(body.kernel_s + rho * d)[0])
        for slack in (4.0 * np.sqrt(2.0 * constraints.BOUNDARY_CLOSURE_TOL) * lever,
                      -np.sqrt(2.0 * constraints.INTERIOR_TOL) * lever):
            for f in (0.99, 1.01):
                p = body.lift(body.kernel_s + (rho + f * slack) * d)[0]
                near.append(p / np.linalg.norm(p))
    pts = np.array(pts + near)
    contains = [radial_rule(body, x, constraints.BOUNDARY_CLOSURE_TOL, False) for x in pts]
    interior = [radial_rule(body, x, constraints.INTERIOR_TOL, True) for x in pts]
    assert [region.contains(x) for x in pts] == contains
    assert [region.contains_interior(x) for x in pts] == interior
    assert np.array_equal(region.distances_coarse(pts) == 0.0, contains)
    # the near states straddle both closures, and the kernel is interior
    near_in = np.reshape(contains[61:], (40, 2, 2))
    assert near_in[:, 0, 0].all() and not near_in[:, 0, 1].any()
    near_int = np.reshape(interior[61:], (40, 2, 2))
    assert near_int[:, 1, 1].all() and not near_int[:, 1, 0].any()
    assert contains[60] and interior[60]


def test_region_queries_solve_no_radius(monkeypatch):
    def no_radius(*args):
        raise AssertionError("a region query solved a radius")

    for body in off_anchor_bodies():
        region = build_projected_star(body)
        g = region.kernel_on_sphere.coords
        rng = np.random.default_rng(4)
        pts = np.vstack([geo.sample_uniform_many(body.k, 40, rng), g,
                         [geo.slerp(g, b, 0.5).coords for b in region.boundary_samples(10, rng)]])
        with monkeypatch.context() as m:
            m.setattr(constraints, "_radial_bisection", no_radius)
            assert any(region.contains(x) for x in pts)
            for x in pts:
                region.distance_warm(x, None)
                region.distance_warm(x, 0.01)
            region.distances_coarse(pts)


def test_projected_chords_land_on_geodesics():
    shape = disc_shape(geo.normalize([0.3, 0.1, 0.9]).coords, 0.4)
    rng = np.random.default_rng(5)
    amb = lifted_vertices(shape)
    for _ in range(25):
        i, j = rng.choice(amb.shape[0], size=2, replace=False)
        seg = geo.arc(geo.normalize(amb[i]), geo.normalize(amb[j]))
        for lam in np.linspace(0, 1, 12):
            p = geo.normalize((1 - lam) * amb[i] + lam * amb[j])
            assert geo.distance_to_arc(p, seg) <= 1e-9


# ---------------------------------------------------------------------------
# the region queries shared by caps and star regions
# ---------------------------------------------------------------------------

def _region(request, name):
    if name == "cap":
        return cap([1.0, 2.0, 0.0, -1.0], 0.5)
    return request.getfixturevalue(name).arrangement.sets[0]


def _interior_exterior_points(region, seed: int = 11):
    """Interior points on kernel-to-boundary geodesics, exterior uniform draws."""
    rng = np.random.default_rng(seed)
    g = region.kernel_on_sphere
    inner = [geo.slerp(g, geo.normalize(b), lam).coords
             for b, lam in zip(region.boundary_samples(6, rng),
                               rng.uniform(0.1, 0.8, size=6))]
    outer = [p for p in geo.sample_uniform_many(g.n, 40, rng)
             if not region.contains(p)][:10]
    return np.array(inner + outer), len(inner)


WALK_SAMPLES = 120      # boundary samples of the reference kernel walks
BOTH_WALKS = {"GeodesicEscapes", "ReverseGeodesicEnters"}


def walk_failures(region, g, samples=WALK_SAMPLES, seed=0, grid=64) -> set[str]:
    """The reference kernel check: geodesics from g to sampled boundary points
    and from them on to -g, walked in `grid` steps.  A forward walk fails at a
    point outside the region, a reverse one at a point inside its interior
    (closure 1e-9); returns the codes of the walks that fail."""
    g = geo.normalize(g)
    lams = np.linspace(0.0, 1.0, grid + 1)
    codes = set()
    for b in region.boundary_samples(samples, np.random.default_rng(seed)):
        b = geo.normalize(b)
        if "GeodesicEscapes" not in codes and any(
                not region.contains(p, tol=1e-9) for p in geo.slerp_many(g, b, lams)):
            codes.add("GeodesicEscapes")
        if "ReverseGeodesicEnters" not in codes and any(
                region.contains_interior(p, tol=1e-9)
                for p in geo.slerp_many(b, -g.coords, lams)):
            codes.add("ReverseGeodesicEnters")
    return codes


@pytest.mark.parametrize("name", ["cap", "star4", "star1_feasible"])
def test_region_interface(request, name):
    """A cap, a tabulated S^2 star (s2_star4) and a power-sum S^3 star answer
    the shared region queries consistently; the star regions' coarse distances
    and nearest boundary points agree with them."""
    region = _region(request, name)
    assert region.contains_interior(region.kernel_on_sphere)
    pts, n_inner = _interior_exterior_points(region)
    inside = np.array([region.contains(p) for p in pts])
    assert inside[:n_inner].all() and not inside[n_inner:].any()

    for x in pts:
        margin = region.signed_margin(x)
        assert region.distance_warm(x, None)[0] == margin
        assert region.distance(x) == max(0.0, margin)
    if not region.exact_bound:
        coarse = region.distances_coarse(pts)
        # the zero set of the coarse pass is the vectorized membership test
        assert np.array_equal(coarse == 0.0, inside)
        for x, d_coarse in zip(pts, coarse):
            d = region.distance(x)
            assert d_coarse >= d - 1e-12
            assert 1.0 - float(x @ region.max_boundary_dot(x)[1]) >= d - 1e-12

    # off the kernel both stars fail both geodesic checks, as the walks do
    edge = region.boundary_samples(1, np.random.default_rng(11))[0]
    g_off = geo.slerp(region.kernel_on_sphere, geo.normalize(edge), 0.9)
    walked = walk_failures(region, g_off)
    assert walked == (set() if name == "cap" else BOTH_WALKS)
    assert {f.code for f in validate_kernel(region, g_off).failures} == walked


@pytest.mark.parametrize("name", ["cap", "star4", "star1_feasible"])
def test_nearest_boundary_lies_on_boundary(request, name):
    region = _region(request, name)
    if not region.exact_bound:
        pts, _ = _interior_exterior_points(region)
        for x in pts:
            assert abs(region.signed_margin(region.max_boundary_dot(x)[1])) <= 1e-9
    for b in region.boundary_samples(20, np.random.default_rng(4)):
        assert abs(region.signed_margin(b)) <= 1e-9


def _power_sum_chart_oracle(region, x, n: int = 150, polish: int = 8) -> float:
    """Largest boundary dot of a power-sum star: an n-per-side grid on each of
    the 2^k simplex patches s_i = sigma_i (L w_i)^(1/e_i), then SLSQP on the
    simplex from the best grid points."""
    from scipy.optimize import minimize
    body, prof = region.body, region.body.profile
    e, level, k = prof.exponents, prof.level, prof.exponents.size
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    keep = i + j <= n
    grid = np.column_stack([i[keep], j[keep], (n - i - j)[keep]]) / n
    if k == 2:
        grid = np.column_stack([np.arange(n + 1), n - np.arange(n + 1)]) / n

    def dot(w, sign):
        p = body.lift(sign * (level * np.maximum(w, 0.0)) ** (1.0 / e))
        return (p @ x) / np.linalg.norm(p, axis=1)

    starts = []
    for sign in itertools.product((1.0, -1.0), repeat=k):
        d = dot(grid, np.array(sign))
        starts += [(d[m], np.array(sign), grid[m]) for m in np.argsort(d)[-polish:]]
    starts.sort(key=lambda c: -c[0])
    best = starts[0][0]
    for _, sign, w0 in starts[:polish]:
        res = minimize(lambda w: -dot(w[None, :], sign)[0], w0, method="SLSQP",
                       bounds=[(0.0, 1.0)] * k, options={"ftol": 1e-16, "maxiter": 200},
                       constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0}])
        best = max(best, float(dot(np.maximum(res.x, 0.0)[None, :] / np.maximum(res.x, 0.0).sum(), sign)[0]))
    return best


def _radial_table_chart_oracle(region, x, per_segment: int = 16, polish: int = 8) -> float:
    """Largest boundary dot of a radial-table star: each table segment sampled
    per_segment times, then a bounded scalar search on the best segments."""
    from scipy.optimize import minimize_scalar
    body, values = region.body, region.body.profile.values
    m = values.size

    def dot(seg, t):
        phi = 2.0 * np.pi * (seg + t) / m
        r = (1.0 - t) * values[seg] + t * values[(seg + 1) % m]
        p = body.lift(body.kernel_s + r[:, None] * np.column_stack([np.cos(phi), np.sin(phi)]))
        return (p @ x) / np.linalg.norm(p, axis=1)

    t = np.linspace(0.0, 1.0, per_segment + 1)
    d = dot(np.repeat(np.arange(m), t.size), np.tile(t, m)).reshape(m, t.size)
    best = float(d.max())
    for seg in np.argsort(d.max(axis=1))[-polish:]:
        res = minimize_scalar(lambda s: -dot(np.array([seg]), np.array([s]))[0],
                              bounds=(0.0, 1.0), method="bounded", options={"xatol": 1e-12})
        best = max(best, -float(res.fun))
    return best


def test_refined_distances_match_dense_chart_oracle(star1_feasible_run, star4, rng):
    # trajectory states and random states of s3_star1_eps005, and s2_star4
    # states near its regions: the query's boundary dot 1 - |signed margin|
    # is the global maximum over the boundary chart, to 1e-9
    region = star1_feasible_run.scenario.arrangement.sets[0]
    logged = np.vstack([t.x[::60] for t in star1_feasible_run.trajectories[:3]])
    cases = [(region, x, _power_sum_chart_oracle)
             for x in np.vstack([logged, geo.sample_uniform_many(3, 30, rng)])]
    for s in star4.arrangement.sets:
        for b in s.boundary_samples(10, rng):
            v = geo.tangent_basis(b) @ rng.normal(size=2)
            cases.append((s, geo.rotate_toward(b, v / np.linalg.norm(v), rng.uniform(0.0, 0.3)),
                          _radial_table_chart_oracle))
    worst = 0.0
    for s, x, oracle in cases:
        worst = max(worst, abs(1.0 - abs(s.signed_margin(x)) - oracle(s, x)))
    assert len(cases) > 100 and worst <= 1e-9, worst


def test_refined_distances_match_oracle_next_to_cell_edges(star1_feasible):
    # states whose nearest boundary point lies at a corner or on an edge of
    # a chart cell of s3_star1_eps005: such points of every 194th cell (and
    # of four cells whose maxima a vertex-to-cell lookup once missed), pushed
    # away from the kernel image; the query's boundary dot is the oracle's
    # (polished from 24 starts: near a spike tip 8 can fall short)
    region = star1_feasible.arrangement.sets[0]
    body, chart = region.body, region.chart
    sign, lo, hi = cell_boxes(body.k)
    pick = np.array(list(itertools.product((False, True), repeat=body.k)))
    box = np.where(pick, hi[:, None, :], lo[:, None, :])
    # a cell's triangle is the 3 corners of its w-box that lie on the simplex
    tri = box[np.abs(box.sum(axis=2) - 1.0) < 1e-12].reshape(len(box), body.k, body.k)
    g = region.kernel_on_sphere.coords
    worst = 0.0
    for c in list(range(0, len(tri), 194)) + [1116, 1214, 1552, 1726]:
        for weights in ([1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.3, 0.7, 0.0]):
            p = body.lift(chart.s_of(sign[c] * np.sqrt(np.array(weights) @ tri[c]))[None, :])[0]
            p /= np.linalg.norm(p)
            away = p * (p @ g) - g
            away -= (away @ p) * p
            for t in (1e-3, 1e-2, 4e-2):
                x = geo.rotate_toward(p, away / np.linalg.norm(away), t)
                worst = max(worst, abs(1.0 - abs(region.signed_margin(x))
                                       - _power_sum_chart_oracle(region, x, polish=24)))
    assert worst <= 1e-9, worst


# ---------------------------------------------------------------------------
# kernel validation
# ---------------------------------------------------------------------------

def test_validate_kernel_cap_center_ok():
    c = cap([0.0, 1.0, 0.0], 0.5)
    rep = validate_kernel(c, c.axis)
    assert rep.ok


def test_validate_kernel_outside_point():
    c = cap([0.0, 1.0, 0.0], 0.5)
    rep = validate_kernel(c, geo.normalize([1.0, 0.0, 0.0]))
    assert not rep.ok
    assert any(f.code == "NotInInterior" for f in rep.failures)


def test_validate_kernel_detects_non_star_proposal():
    # dumbbell body: star-shaped about its center, but not about a point
    # offset into one lobe; geodesics to the far lobe cross the thin neck
    M = 720
    phis = 2 * np.pi * np.arange(M) / M
    vals = 0.45 * (0.08 + 0.92 * np.cos(phis) ** 2)
    anchor = geo.normalize([0.1, -0.2, 0.97]).coords
    body = EuclideanStarBody(anchor=anchor, basis=complete_basis(anchor),
                             kernel_point=anchor,
                             profile=RadialTableProfile(vals))
    shape = build_projected_star(body)
    good = validate_kernel(shape, shape.kernel_on_sphere)
    assert good.ok, good.failures
    off_lobe = geo.normalize(body.lift(np.array([0.3, 0.0]))[0])
    bad = validate_kernel(shape, off_lobe)
    assert not bad.ok
    assert any(f.code == "GeodesicEscapes" for f in bad.failures)


@pytest.mark.parametrize("dim", [2, 3])
def test_validate_kernel_matches_walks_on_caps(dim):
    # a great circle meets a cap's boundary circle at most twice, so once g is
    # inside and -g outside no walk fails, at any half-angle
    rng = np.random.default_rng(40 + dim)
    walked = 0
    for _ in range(15):
        xi = 3.0 * (1.0 - rng.uniform())                    # (0, 3]
        c = ConicCap(UnitPoint(geo.sample_uniform_many(dim, 1, rng)[0]), xi)
        away = geo.project_to_tangent(c.axis, rng.normal(size=dim + 1)).vec
        inside = geo.rotate_toward(c.axis, away / np.linalg.norm(away), rng.uniform(0.0, xi))
        for g in (geo.sample_uniform_many(dim, 1, rng)[0], inside):
            codes = {f.code for f in validate_kernel(c, g).failures}
            if codes & {"NotInInterior", "AntipodeInside"}:
                continue    # the walks were never the deciding check here
            walked += 1
            assert not codes and not walk_failures(c, g)
    assert walked >= 12


def test_validate_kernel_matches_walks_off_kernel(monkeypatch, star4, star1_feasible):
    regions = star4.arrangement.sets + star1_feasible.arrangement.sets
    # each region's own kernel image needs no crossing test
    with monkeypatch.context() as m:
        m.setattr(constraints, "crosses_once", None)
        assert all(validate_kernel(r, r.kernel_on_sphere).ok for r in regions)
    # interior points off the kernel image
    rng = np.random.default_rng(7)
    for region in regions:
        for b in region.boundary_samples(2, rng):
            for lam in (0.4, 0.8):
                g = geo.slerp(region.kernel_on_sphere, geo.normalize(b), lam)
                codes = {f.code for f in validate_kernel(region, g).failures}
                assert codes == walk_failures(region, g), lam


@pytest.mark.parametrize("k", [2, 3])
def test_validate_kernel_off_anchor_power_sum(k):
    # a convex body is star-shaped about each interior point; a concave one
    # only about its anchor, and the walks find that too
    anchor = 3.0 * np.eye(k + 1)[k]
    rng = np.random.default_rng(k)
    for e, level, must_pass in ((2.0, 0.25, True), (0.5, 1.0, False)):
        region = build_projected_star(power_sum_body(anchor, [e] * k, level))
        for _ in range(10):
            d = rng.normal(size=k)
            d /= np.linalg.norm(d)
            rho = (level / (np.abs(d) ** e).sum()) ** (1.0 / e)
            g = geo.normalize(region.body.lift(rng.uniform(0.05, 0.9) * rho * d)[0])
            codes = {f.code for f in validate_kernel(region, g).failures}
            assert codes == (set() if must_pass else BOTH_WALKS)
            assert bool(walk_failures(region, g)) != must_pass


def test_validate_kernel_sees_spike_tips():
    # 7.4% of the radius off the anchor of a concave body on S^3: the rays from
    # p that leave the body and re-enter it aim at spike tips, which the chart
    # vertices hold and a 4096-direction grid about the anchor misses
    anchor = np.array([0.0, 0.0, 0.0, 3.0])
    region = build_projected_star(power_sum_body(anchor, [0.5] * 3, 1.0))
    d = np.array([-0.4909, 0.3465, -0.7993])
    d /= np.linalg.norm(d)
    rho = (1.0 / np.sqrt(np.abs(d)).sum()) ** 2
    g = geo.normalize(region.body.lift(0.074 * rho * d)[0])
    assert walk_failures(region, g)
    assert {f.code for f in validate_kernel(region, g).failures} == BOTH_WALKS


# ---------------------------------------------------------------------------
# separation, phi, epsilon
# ---------------------------------------------------------------------------

def test_pairwise_separation_two_caps_closed_form():
    for alpha, xi1, xi2 in ((np.pi / 2, np.pi / 6, np.pi / 6), (2.0, 0.4, 0.3)):
        a1 = np.array([0.0, 0.0, 1.0])
        a2 = geo.rotate_toward(a1, [1.0, 0.0, 0.0], alpha)
        arr = ConstraintArrangement([cap(a1, xi1), cap(a2, xi2)])
        expected = 1.0 - np.cos(alpha - xi1 - xi2)
        assert abs(pairwise_separation(arr) - expected) <= 1e-4


def test_pairwise_separation_of_caps_is_exact(cones7):
    # cap pairs are closed form: 1 - cos(max(0, angle - xi1 - xi2))
    for alpha, xi1, xi2 in ((np.pi / 2, np.pi / 6, np.pi / 6), (2.0, 0.4, 0.3)):
        a1 = np.array([0.0, 0.0, 1.0])
        a2 = geo.rotate_toward(a1, [1.0, 0.0, 0.0], alpha)
        arr = ConstraintArrangement([cap(a1, xi1), cap(a2, xi2)])
        assert abs(pairwise_separation(arr) - (1.0 - np.cos(alpha - xi1 - xi2))) <= 1e-15
    assert abs(pairwise_separation(cones7.arrangement) - (1.0 - np.cos(np.pi / 6))) <= 1e-15


def test_pairwise_separation_degenerate_cases():
    c = cap([0.0, 0.0, 1.0], 0.5)
    assert pairwise_separation(ConstraintArrangement([c, c])) <= 1e-12
    assert pairwise_separation(ConstraintArrangement([c])) == float("inf")


def test_separation_draws_and_samples_nothing(cones7, star4, monkeypatch):
    star = star4.arrangement.sets[0]
    with_cap = ConstraintArrangement([cap(-star.kernel_on_sphere.coords, 0.3), star])
    fresh = ConstraintArrangement(star4.arrangement.sets)

    def refuse(*args, **kwargs):
        raise AssertionError("the separation drew a sample")

    monkeypatch.setattr(constraints.np.random, "default_rng", refuse)
    for region in (ConicCap, ProjectedStarShape):
        monkeypatch.setattr(region, "boundary_samples", refuse)
    for arr in (star4.arrangement, cones7.arrangement, with_cap):
        pairwise_separation(arr)
    suggest_epsilon(fresh, star4.target)


@pytest.mark.parametrize("name", ["star1_feasible", "star4"])
def test_pairwise_separation_of_cap_and_star_is_closed_form(request, name):
    star = request.getfixturevalue(name).arrangement.sets[0]
    center, reach = star.bounding()
    n = star.kernel_on_sphere.n
    rng = np.random.default_rng(24)
    values = []
    for _ in range(10):
        # axes from inside the bounding cap to well past it
        w = rng.normal(size=n + 1)
        w -= (w @ center) * center
        axis = geo.rotate_toward(center, w / np.linalg.norm(w), rng.uniform(0.0, reach + 0.8))
        xi = rng.uniform(0.01, 0.6)
        values.append(1.0 - np.cos(max(0.0, np.arccos(1.0 - star.distance(axis)) - xi)))
        c = cap(axis, xi)
        for pair in ([c, star], [star, c]):
            assert abs(pairwise_separation(ConstraintArrangement(pair)) - values[-1]) <= 1e-15
    assert min(values) == 0.0 and max(values) > 0.0

    # nested: a cap about the kernel inside the star, and one holding the star
    g = star.kernel_on_sphere.coords
    assert np.arccos(1.0 + star.signed_margin(g)) > 0.01
    for c in (cap(g, 0.01), cap(center, reach + 0.2)):
        assert pairwise_separation(ConstraintArrangement([c, star])) == 0.0


def _vertex_separation(a, b) -> float:
    """1 - the largest dot between the chart vertices of two star regions."""
    va, vb = (v / np.linalg.norm(v, axis=1, keepdims=True)
              for v in (lifted_vertices(a), lifted_vertices(b)))
    return 1.0 - float((va @ vb.T).max())


def test_pairwise_separation_of_star_pairs(star4):
    regions = star4.arrangement.sets
    for a, b in itertools.combinations(regions, 2):
        delta = pairwise_separation(ConstraintArrangement([a, b]))
        assert delta <= _vertex_separation(a, b) + 1e-15
    reports = [validate_scenario(replace(star4, arrangement=ConstraintArrangement(
        regions, star4.arrangement.kernels)), samples=200, seed=s) for s in (0, 3, 7)]
    for rep in reports[1:]:
        assert (rep.delta_measured, rep.phi_delta, rep.epsilon_suggested) == \
            (reports[0].delta_measured, reports[0].phi_delta, reports[0].epsilon_suggested)


def test_phi_values():
    assert phi(2.0) == 1.0
    assert abs(phi(1.0) - (1.0 - np.sqrt(0.5))) <= 1e-15
    assert phi(1e-9) <= 1e-9
    for bad in (0.0, -0.1, 2.5):
        with pytest.raises(DomainError):
            phi(bad)


def test_suggest_epsilon_single_cap():
    xd = np.array([0.0, 0.0, 1.0])
    c = cap([0.0, 0.0, -1.0], 0.4)
    arr = ConstraintArrangement([c])
    assert abs(suggest_epsilon(arr, xd) - 0.9 * c.distance(xd)) <= 1e-12


def test_suggest_epsilon_seven_cones(cones7):
    xd = cones7.target
    arr = cones7.arrangement
    eps = suggest_epsilon(arr, xd)
    assert eps <= 0.9 * phi(1.0) + 1e-12          # 0.2636 consistency bound
    delta = arr.delta_measured()
    assert 0.015 < min(phi(delta), arr.union_margin(xd))


@pytest.mark.parametrize("name", ["cones7", "star4", "star1", "star1_feasible"])
def test_union_margin_is_the_smallest_signed_margin(request, name):
    arr = request.getfixturevalue(name).arrangement
    pts = geo.sample_uniform_many(arr.dimension, 200, np.random.default_rng(8))
    for x in pts:
        assert arr.union_margin(x) == arr.signed_margins(x).min()


def _reference_band(arr, x, eps):
    """The band rule read from the exact signed margins of every region."""
    margins = arr.signed_margins(x)
    if (margins < -1e-6).any():
        return InsideUnsafe
    hits = np.flatnonzero(margins <= eps)
    if hits.size > 1:
        return MultipleActiveConstraints
    return (None, None) if hits.size == 0 else (int(hits[0]), max(float(margins[hits[0]]), 0.0))


@pytest.mark.parametrize("name, law", [("cones7", None), ("star4", None),
                                       ("star1_feasible", None), ("cones7", "star")],
                         ids=["cones7", "star4", "star1_feasible", "cones7-star-law"])
def test_band_matches_exact_margins(request, name, law):
    # states up to two band widths from each region's boundary, on both sides,
    # and uniform states: the one band search agrees with the exact margins
    sc = request.getfixturevalue(name)
    arr, eps = sc.arrangement, sc.resolved_epsilon()
    ctrl = sc.build_controller()
    if law == "star":
        # the star law steers toward kernel antipodes: drop the cap about -x_d
        arr = ConstraintArrangement([s for s in arr.sets if s.axis.dot(sc.target) > -0.5])
        ctrl = StarPiecewiseController(arr, StarControllerParams(
            k1=sc.k1, kappa=1.0, epsilon=eps, x_d=sc.target))
    rng = np.random.default_rng(19)
    width = geo.angle_from_distance(eps)
    states = [geo.sample_uniform_many(arr.dimension, 40, rng)]
    for region in arr.sets:
        for b in region.boundary_samples(30, rng):
            v = geo.tangent_basis(b) @ rng.normal(size=b.size - 1)
            states.append(geo.rotate_toward(b, v / np.linalg.norm(v),
                                            rng.uniform(0.0, 2.0 * width))[None, :])
    seen = set()
    for x in np.vstack(states):
        expected = _reference_band(arr, x, eps)
        if isinstance(expected, type):
            with pytest.raises(expected):
                arr.band(x, eps)
            with pytest.raises(expected):
                ctrl.control(x)
            seen.add(expected.__name__)
            continue
        i, d_i = arr.band(x, eps)
        assert i == expected[0] and ctrl.control(x)[1] == i
        seen.add("far" if i is None else "band")
        if i is not None:
            if arr.sets[i].exact_bound:
                assert abs(d_i - expected[1]) <= 1e-15
            else:
                assert d_i == expected[1]
    assert {"far", "band", "InsideUnsafe"} <= seen


def test_suggest_epsilon_target_inside():
    xd = np.array([0.0, 0.0, 1.0])
    arr = ConstraintArrangement([cap(xd, 0.3)])
    with pytest.raises(TargetInsideUnsafe):
        suggest_epsilon(arr, xd)


# ---------------------------------------------------------------------------
# shadow regions
# ---------------------------------------------------------------------------

def _single_cap_setup():
    xd = np.array([0.0, 0.0, 1.0])
    axis = geo.rotate_toward(xd, [1.0, 0.0, 0.0], 1.2)
    arr = ConstraintArrangement([cap(axis, 0.3)])
    return xd, axis, arr


def test_region_membership_examples():
    xd, axis, arr = _single_cap_setup()
    eps = 0.05
    w = np.array([1.0, 0.0, 0.0])
    # inside the dilation, beyond the distance threshold
    inside_band = geo.rotate_toward(xd, w, 1.2 + 0.3 + 0.5 * geo.angle_from_distance(eps))
    assert region_membership(inside_band, 0, arr, xd, eps)
    # between the target and the region, closer than the threshold
    near_target = geo.rotate_toward(xd, w, 0.3)
    assert not region_membership(near_target, 0, arr, xd, eps)
    assert not region_membership(xd, 0, arr, xd, eps)
    # far enough from the target, but the sight line misses the dilated set
    off_sector = geo.rotate_toward(xd, np.array([0.0, 1.0, 0.0]), 1.2)
    assert not region_membership(off_sector, 0, arr, xd, eps)
    # region interiors are excluded even though they pass the ray test
    assert not region_membership(axis, 0, arr, xd, eps)


def test_dilation_threshold_angle_arithmetic():
    xd, axis, arr = _single_cap_setup()
    eps = 0.05
    thr = dilation_threshold(arr, 0, xd, eps)
    expected = 1.0 - np.cos(1.2 - 0.3 - geo.angle_from_distance(eps))
    assert abs(thr - expected) <= 1e-12


def _overlaps_point_by_point(arr, x_d, eps, samples, seed):
    """(overlaps, witness) from region_membership at each of the check's samples."""
    pts = geo.sample_uniform_many(arr.dimension, samples, np.random.default_rng(seed))
    both = [p for p in pts
            if sum(region_membership(p, i, arr, x_d, eps) for i in range(len(arr))) >= 2]
    return len(both), (both[0] if both else None)


def test_region_disjointness_ok_and_witness(star4):
    xd = np.array([0.0, 0.0, 1.0])
    w = np.array([1.0, 0.0, 0.0])
    # opposite sides of the target: shadows point away from each other
    a1 = geo.rotate_toward(xd, w, 1.1)
    a2 = geo.rotate_toward(xd, -w, 1.1)
    arr = ConstraintArrangement([cap(a1, 0.25), cap(a2, 0.25)])
    rep = validate_region_disjointness(arr, xd, 0.02, samples=20_000, seed=3)
    assert rep.ok and rep.overlaps == 0
    # second cap placed inside the first cap's shadow: overlap detected
    a3 = geo.rotate_toward(xd, w, 1.9)
    arr2 = ConstraintArrangement([cap(a1, 0.25), cap(a3, 0.2)])
    rep2 = validate_region_disjointness(arr2, xd, 0.02, samples=20_000, seed=3)
    assert not rep2.ok
    assert rep2.witness is not None
    assert region_membership(rep2.witness, 0, arr2, xd, 0.02)
    assert region_membership(rep2.witness, 1, arr2, xd, 0.02)
    # the prefilter drops only non-members: overlaps and witness agree with a
    # point-by-point walk.  A region paired with itself overlaps exactly on
    # its shadow's members; the exceptional cap's shadow is seen from -x_d.
    exceptional = cap(geo.rotate_toward(-xd, w, 0.54), 0.5)
    s0, s1 = star4.arrangement.sets[:2]
    for arr_c, target, eps, n, members in (
            (arr2, xd, 0.02, 2000, True),
            (ConstraintArrangement([exceptional, exceptional]), xd, 0.05, 200, True),
            (ConstraintArrangement([s0, s1]), star4.target, 0.05, 200, False),
            (ConstraintArrangement([s0, s0]), star4.target, 0.05, 200, True)):
        rep_c = validate_region_disjointness(arr_c, target, eps, samples=n, seed=3)
        overlaps, witness = _overlaps_point_by_point(arr_c, target, eps, n, 3)
        assert rep_c.overlaps == overlaps and (overlaps > 0) == members
        assert np.array_equal(rep_c.witness, witness) if overlaps else rep_c.witness is None
    # single set: vacuously disjoint
    rep3 = validate_region_disjointness(ConstraintArrangement([cap(a1, 0.25)]),
                                        xd, 0.02, samples=100)
    assert rep3.ok


def test_shadow_ray_test_query_budget(star4, monkeypatch):
    # a membership answer needs the refined query at the sample plus at most
    # 4 per short window (at most 3 windows), never a crossing search
    refined, per_row = [0], []
    max_boundary_dot, ray_hits = ProjectedStarShape.max_boundary_dot, _Shadow.ray_hits_dilation

    def counted_dot(self, *args, **kwargs):
        refined[0] += 1
        return max_boundary_dot(self, *args, **kwargs)

    def counted_ray_hits(self, *args):
        before = refined[0]
        answer = ray_hits(self, *args)
        per_row.append(refined[0] - before)
        return answer

    monkeypatch.setattr(ProjectedStarShape, "max_boundary_dot", counted_dot)
    monkeypatch.setattr(_Shadow, "ray_hits_dilation", counted_ray_hits)
    arr = ConstraintArrangement(star4.arrangement.sets[:2])
    validate_region_disjointness(arr, star4.target, 0.05, samples=200, seed=3)
    assert per_row and max(per_row) <= 1 + 3 * 4, max(per_row)


def test_exceptional_index_uses_antipode_base():
    # a cap whose dilation swallows -x_d is the exceptional constraint
    xd = np.array([0.0, 0.0, 1.0])
    w = np.array([1.0, 0.0, 0.0])
    axis = geo.rotate_toward(-xd, w, 0.54)
    arr = ConstraintArrangement([cap(axis, 0.5)])
    eps = 0.05
    assert arr.sets[0].distance(-xd) <= eps      # exceptional index
    # points just outside the cap, seen from -x_d, belong to its region
    x = geo.rotate_toward(-xd, w, 0.54 + 0.5 + 0.15)
    assert arr.sets[0].distance(x) <= eps and not arr.sets[0].contains_interior(x)
    assert region_membership(x, 0, arr, xd, eps)
    # the antipode itself lies in the exceptional region (outside the cap)
    assert region_membership(-xd, 0, arr, xd, eps)


def _cap_shadow_walk(c, x_d, eps, x):
    """(member, certain) for x in cap c's shadow, by walking the ray from the
    base through x on a grid of 1e-4 in t and reading the cap's signed margin,
    sign(g) (1 - cos g) with g = angle(., axis) - xi, at each grid point.

    The margin is 1-Lipschitz along the unit-speed ray, so two hits mean a
    window of at least 1e-4 and every window longer than 2e-4 has two; the
    walk is not certain of a ray with one hit or one that comes within 1e-4
    of the dilation without a hit.
    """
    g = c.axis.coords
    exceptional = c.signed_margin(-x_d) <= eps
    base = -x_d if exceptional else x_d
    if c.signed_margin(x) < -constraints.INTERIOR_TOL:
        return False, True
    if not exceptional:
        gap = np.arccos(np.clip(x_d @ g, -1.0, 1.0)) - c.xi - np.arccos(1.0 - eps)
        if 1.0 - x @ x_d < 1.0 - np.cos(max(0.0, gap)):
            return False, True
    t_x = np.arccos(np.clip(x @ base, -1.0, 1.0))
    w = x - (x @ base) * base
    w /= np.linalg.norm(w)
    ts = np.arange(t_x, np.pi, 1e-4)
    gaps = np.arccos(np.clip((np.outer(np.cos(ts), base) + np.outer(np.sin(ts), w)) @ g,
                             -1.0, 1.0)) - c.xi
    margins = np.sign(gaps) * (1.0 - np.cos(gaps))
    hits = int((margins <= eps).sum())
    return hits >= 2, hits >= 2 or (hits == 0 and margins.min() > eps + 1e-4)


def test_cap_shadow_membership_matches_walk_oracle():
    rng = np.random.default_rng(21)
    cases = []
    for n in (2, 3, 2, 3, 2, 3):
        xd = geo.sample_uniform_many(n, 1, rng)[0]
        cases.append((xd, cap(geo.sample_uniform_many(n, 1, rng)[0], rng.uniform(0.2, 1.0)),
                      rng.uniform(0.01, 0.1)))
    xd, w = np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])
    # the dilation holds -x_d; then one whose reach xi + arccos(1 - eps) passes pi
    cases.append((xd, cap(geo.rotate_toward(-xd, w, 0.54), 0.5), 0.05))
    cases.append((xd, cap(geo.rotate_toward(xd, w, 1.2), 2.5), 0.9))
    for x_d, c, eps in cases:
        arr = ConstraintArrangement([c])
        pts = geo.sample_uniform_many(x_d.size - 1, 400, rng)
        members = _Shadow(arr, 0, x_d, eps).members(pts)
        assert members.tolist() == [region_membership(p, 0, arr, x_d, eps) for p in pts]
        walks = np.array([_cap_shadow_walk(c, x_d, eps, p) for p in pts])
        certain = walks[:, 1]
        assert certain.mean() > 0.9
        assert np.array_equal(members[certain], walks[certain, 0])
        assert members[certain].any() and not members[certain].all()


# ---------------------------------------------------------------------------
# configuration-level numeric properties
# ---------------------------------------------------------------------------

def test_band_disjointness_under_phi_budget(cones7):
    # epsilon below phi(delta) keeps the dilated regions pairwise disjoint
    arr = cones7.arrangement
    eps = cones7.resolved_epsilon()
    assert eps < phi(arr.delta_measured())
    rng = np.random.default_rng(11)
    pts = geo.sample_uniform_many(3, 100_000, rng)
    axes = np.array([s.axis.coords for s in arr.sets])
    gaps = np.arccos(np.clip(pts @ axes.T, -1, 1)) - np.array([s.xi for s in arr.sets])
    dists = np.where(gaps > 0, 1.0 - np.cos(gaps), 0.0)
    in_band = (dists <= eps).sum(axis=1)
    assert int((in_band >= 2).sum()) == 0


def test_reverse_geodesic_never_enters(star4):
    # spot check on one star region; the full suite runs in acceptance
    s = star4.arrangement.sets[0]
    g = star4.arrangement.kernels[0]
    rng = np.random.default_rng(13)
    boundary = s.boundary_samples(50, rng)
    lams = np.linspace(0.0, 1.0, 33)
    for x in boundary:
        pts = geo.slerp_many(geo.normalize(x), g.antipode(), lams)
        for p in pts[1:]:
            assert not s.contains_interior(p, tol=1e-9)
