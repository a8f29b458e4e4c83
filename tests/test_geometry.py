"""Sphere geometry kernel: projections, distances, slerp, sampling."""

import numpy as np
import pytest

from sphere_nav import geometry as geo
from sphere_nav.errors import AntipodalEndpoints, NearZeroVector

E1 = np.array([1.0, 0.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0, 0.0])


def test_project_to_tangent_examples():
    tv = geo.project_to_tangent(E1, E1)
    assert np.allclose(tv.vec, 0.0, atol=1e-15)
    tv = geo.project_to_tangent(E1, E2)
    assert np.allclose(tv.vec, E2, atol=1e-15)
    x = geo.normalize(E1 + E2)
    tv = geo.project_to_tangent(x, E1)
    assert np.allclose(tv.vec, [0.5, -0.5, 0.0, 0.0], atol=1e-12)


def test_projection_tangency_random():
    rng = np.random.default_rng(0)
    for _ in range(300):
        x = geo.sample_uniform_many(3, 1, rng)[0]
        a = 10.0 * rng.normal(size=4)
        tv = geo.project_to_tangent(x, a)
        assert abs(tv.vec @ x) <= 1e-10
    # P(x) x = 0
    for _ in range(50):
        x = geo.sample_uniform_many(4, 1, rng)[0]
        assert np.linalg.norm(geo.project_to_tangent(x, x).vec) <= 1e-12


def test_spherical_distance_examples():
    assert geo.spherical_distance(E1, E1) == 0.0
    assert geo.spherical_distance(E1, -E1) == 2.0
    assert geo.spherical_distance(E1, E2) == 1.0


def test_spherical_distance_symmetry():
    rng = np.random.default_rng(1)
    x, y = geo.sample_uniform_many(2, 2, rng)
    assert geo.spherical_distance(x, y) == geo.spherical_distance(y, x)


def test_slerp_endpoints_exact():
    a = geo.sample_uniform(3, 7)
    b = geo.sample_uniform(3, 8)
    assert np.array_equal(geo.slerp(a, b, 0.0).coords, a.coords)
    assert np.array_equal(geo.slerp(a, b, 1.0).coords, b.coords)


def test_slerp_values():
    mid = geo.slerp(E1, E2, 0.5)
    assert np.allclose(mid.coords[:2], np.sqrt(2.0) / 2.0, atol=1e-15)
    third = geo.slerp(E1, E2, 1.0 / 3.0)
    # theta = pi/2: weights sin(pi/3), sin(pi/6)
    assert np.allclose(third.coords[:2], [np.sin(np.pi / 3), np.sin(np.pi / 6)],
                       atol=1e-15)
    assert abs(np.linalg.norm(third.coords) - 1.0) <= 1e-12


def test_slerp_antipodal_raises():
    with pytest.raises(AntipodalEndpoints):
        geo.slerp(E1, -E1, 0.5)
    with pytest.raises(AntipodalEndpoints):
        geo.arc(E1, -E1)


def test_slerp_small_angle_fallback():
    b = geo.normalize(E1 + 1e-10 * E2)
    p = geo.slerp(E1, b, 0.5)
    assert abs(np.linalg.norm(p.coords) - 1.0) <= 1e-12
    assert p.coords @ E1 > 1.0 - 1e-15


def test_slerp_path_length_matches_angle():
    a = geo.sample_uniform(3, 2)
    b = geo.sample_uniform(3, 3)
    seg = geo.arc(a, b)
    lams = np.linspace(0.0, 1.0, 4001)
    pts = seg.points(lams)
    chords = np.arccos(np.clip((pts[:-1] * pts[1:]).sum(axis=1), -1.0, 1.0))
    assert abs(chords.sum() - seg.theta) <= 1e-6


def test_geodesic_acceleration_is_radial():
    a = geo.sample_uniform(2, 4)
    b = geo.sample_uniform(2, 5)
    seg = geo.arc(a, b)
    h = 1e-3
    for lam in (0.2, 0.5, 0.8):
        p0 = geo.slerp(a, b, lam - h).coords
        p1 = geo.slerp(a, b, lam).coords
        p2 = geo.slerp(a, b, lam + h).coords
        acc = (p2 - 2 * p1 + p0) / h ** 2
        tang = acc - (p1 @ acc) * p1
        assert np.linalg.norm(tang) <= 1e-5 * seg.theta ** 2


def test_arc_metric_triangle_inequality():
    rng = np.random.default_rng(6)
    pts = geo.sample_uniform_many(3, 3000, rng).reshape(1000, 3, 4)
    for x, y, z in pts:
        axy = np.arccos(np.clip(1.0 - geo.spherical_distance(x, y), -1, 1))
        ayz = np.arccos(np.clip(1.0 - geo.spherical_distance(y, z), -1, 1))
        axz = np.arccos(np.clip(1.0 - geo.spherical_distance(x, z), -1, 1))
        assert axz <= axy + ayz + 1e-9


def test_distance_to_arc():
    a = geo.sample_uniform(3, 11)
    b = geo.sample_uniform(3, 12)
    seg = geo.arc(a, b)
    on_arc = geo.slerp(a, b, 0.42)
    assert geo.distance_to_arc(on_arc, seg) <= 1e-9
    assert geo.distance_to_arc(a, seg) <= 1e-12
    # a point orthogonal to the arc plane is at distance exactly 1
    e1, e2 = np.eye(4)[0], np.eye(4)[1]
    seg2 = geo.arc(e1, e2)
    assert abs(geo.distance_to_arc(np.eye(4)[2], seg2) - 1.0) <= 1e-12

    # the closed form against the minimum m over an N-point slerp grid, which
    # overstates the distance by at most (theta/N)^2/2: generic, short and
    # nearly antipodal arcs; random, on-arc and past-an-endpoint points
    rng = np.random.default_rng(13)
    n_grid = 20001
    lams = np.linspace(0.0, 1.0, n_grid)
    for n in (2, 3, 5):
        for theta in (None, 1e-4, 1e-7, np.pi - 1e-3):
            for _ in range(4):
                a = geo.sample_uniform_many(n, 1, rng)[0]
                if theta is None:
                    b = geo.sample_uniform_many(n, 1, rng)[0]
                else:
                    t = geo.project_to_tangent(a, rng.normal(size=n + 1)).vec
                    b = geo.rotate_toward(a, t / np.linalg.norm(t), theta)
                    b /= np.linalg.norm(b)
                seg = geo.arc(a, b)
                t_ab = geo.project_to_tangent(a, b).vec
                xs = list(geo.sample_uniform_many(n, 4, rng))
                xs += [geo.slerp(a, b, lam).coords for lam in (0.0, 0.37, 1.0)]
                xs.append(geo.normalize(a - 0.3 * t_ab / np.linalg.norm(t_ab)
                                        + 0.2 * rng.normal(size=n + 1)).coords)
                m_all = 1.0 - (seg.points(lams) @ np.array(xs).T).max(axis=0)
                gap = (seg.theta / n_grid) ** 2 / 2.0
                for x, m in zip(xs, m_all):
                    d = geo.distance_to_arc(x, seg)
                    assert m - gap - 1e-14 <= d <= m + 1e-14, (n, theta, d - m)
        # a degenerate arc has only its endpoint
        a, x = geo.sample_uniform_many(n, 2, rng)
        assert abs(geo.distance_to_arc(x, geo.arc(a, a)) - (1.0 - x @ a)) <= 1e-15


def test_circle_windows_match_the_dot_test():
    # on 4,096 points of each circle, "in a window" is the dot test
    # c.x(t) >= cos_reach wherever the two sides differ by more than 1e-12
    rng = np.random.default_rng(23)
    t = np.arange(4096) * (2.0 * np.pi / 4096) - np.pi
    for n in (2, 3):
        for _ in range(25):
            q = np.linalg.qr(rng.normal(size=(n + 1, n + 1)))[0]
            a, b, e = q[:, 0], q[:, 1], q[:, 2]
            centers = geo.sample_uniform_many(n, 6, rng)
            cos_reach = np.cos(rng.uniform(0.0, np.pi, 6))
            # a cap holding the sphere, a centre orthogonal to the circle
            # (R = 0) under a cap that misses it and one that holds it, and a
            # cap the circle touches
            touch = 0.6 * (np.cos(1.0) * a + np.sin(1.0) * b) + 0.8 * e
            centers = np.vstack([centers, centers[0], e, e, touch])
            cos_reach = np.concatenate([cos_reach, [-np.inf, np.cos(0.3), np.cos(2.0),
                                                    np.hypot(touch @ a, touch @ b)]])
            ca, cb = centers @ a, centers @ b
            with np.errstate(all="raise"):
                phi, alpha = geo.circle_windows(ca, cb, cos_reach)
            gap = np.abs(np.mod(t[:, None] - phi + np.pi, 2.0 * np.pi) - np.pi)
            inside = (gap <= alpha) & (np.hypot(ca, cb) > cos_reach)
            dots = np.outer(np.cos(t), ca) + np.outer(np.sin(t), cb)
            clear = np.abs(dots - cos_reach) > 1e-12
            assert np.array_equal(inside[clear], (dots >= cos_reach)[clear])
            assert alpha[6] == np.pi and alpha[8] == np.pi and alpha[7] == 0.0
            assert not inside[:, 9].any()


def test_normalize():
    p = geo.normalize([3.0, 4.0, 0.0, 0.0])
    assert np.allclose(p.coords, [0.6, 0.8, 0.0, 0.0])
    u = geo.sample_uniform(2, 9)
    assert np.allclose(geo.normalize(u.coords).coords, u.coords)
    with pytest.raises(NearZeroVector):
        geo.normalize([0.0, 0.0, 0.0])


def test_sample_uniform():
    p = geo.sample_uniform(5, 123)
    assert abs(np.linalg.norm(p.coords) - 1.0) <= 1e-12
    q = geo.sample_uniform(5, 123)
    assert np.array_equal(p.coords, q.coords)
    rng = np.random.default_rng(77)
    pts = geo.sample_uniform_many(2, 10_000, rng)
    assert np.all(np.abs(pts.mean(axis=0)) < 0.05)


def test_unit_point_rejects_non_unit():
    for coords in ([1.0, 1.0, 0.0], [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0]):
        with pytest.raises(ValueError):
            geo.UnitPoint(np.array(coords))
    p = geo.UnitPoint(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        p.coords[0] = 2.0  # frozen storage
