"""Feedback laws: navigation value, both controllers, and the gain heuristic."""

import numpy as np
import pytest

from sphere_nav import geometry as geo
from sphere_nav.constraints import BAND_SLACK, ConicCap, ConstraintArrangement
from sphere_nav.controllers import (
    KAPPA_ARC_GRID,
    ConicControllerParams,
    ConicGradientController,
    StarControllerParams,
    StarPiecewiseController,
    alignment_descent_vector,
    conic_control_fd,
    smoothstep,
    suggest_kappa,
)
from sphere_nav.errors import (
    DomainError,
    InsideUnsafe,
    KernelAntipodalToTarget,
    TooCloseToBoundary,
)
from sphere_nav.geometry import UnitPoint

XD = np.array([1.0, 0.0, 0.0, 0.0])


def two_cap_setup(k1=1.0, eps=0.015):
    axes = [np.array([0.0, 1.0, 0.0, 0.0]), np.array([0.0, -0.6, 0.8, 0.0])]
    arr = ConstraintArrangement([ConicCap(UnitPoint(a), np.pi / 6) for a in axes])
    params = ConicControllerParams(k1=k1, epsilon=eps, x_d=UnitPoint(XD))
    return arr, params


def proj(x, v):
    return v - (x @ v) * x


# ---------------------------------------------------------------------------
# smoothstep
# ---------------------------------------------------------------------------

def test_smoothstep_endpoints_and_midpoint():
    eps = 0.3
    v0, d0 = smoothstep(0.0, eps)
    assert v0 == 0.0 and abs(d0 - 3.0 / eps) <= 1e-14
    v1, d1 = smoothstep(eps, eps)
    assert abs(v1 - 1.0) <= 1e-15 and d1 == 0.0
    vm, dm = smoothstep(eps / 2, eps)
    assert abs(vm - 7.0 / 8.0) <= 1e-15
    assert abs(dm - 3.0 / (4.0 * eps)) <= 1e-15


def test_smoothstep_monotone_and_domain():
    eps = 0.1
    ps = np.linspace(0.0, eps, 101)
    vals = [smoothstep(p, eps)[0] for p in ps]
    assert np.all(np.diff(vals) > 0)
    for bad in (-0.01, eps + 0.01):
        with pytest.raises(DomainError):
            smoothstep(bad, eps)


# ---------------------------------------------------------------------------
# navigation value
# ---------------------------------------------------------------------------

def test_navigation_value_examples():
    arr, params = two_cap_setup()
    ctrl = ConicGradientController(arr, params)
    assert ctrl.navigation_value(XD) == 0.0
    # on the unsafe boundary the value saturates at k1
    g = arr.sets[0].axis.coords
    w = geo.tangent_basis(g)[:, 0]
    boundary = geo.rotate_toward(g, w, np.pi / 6)
    assert abs(ctrl.navigation_value(boundary) - params.k1) <= 1e-9
    # far field with d_target = 1: W = k1/2
    x = np.array([0.0, 0.0, 0.0, 1.0])
    x = geo.rotate_toward(x, np.array([0.0, -0.8, -0.6, 0.0]), 0.4)  # keep clear
    x = geo.normalize(x).coords
    d = 1.0 - x @ XD
    w_val = ctrl.navigation_value(x)
    assert abs(w_val - params.k1 * d / (d + 1.0)) <= 1e-12


def test_navigation_value_rejects_interior():
    arr, params = two_cap_setup()
    with pytest.raises(InsideUnsafe):
        ConicGradientController(arr, params).navigation_value(arr.sets[0].axis.coords)


# ---------------------------------------------------------------------------
# conic-gradient law
# ---------------------------------------------------------------------------

def test_conic_control_equilibrium_at_target():
    arr, params = two_cap_setup()
    u = ConicGradientController(arr, params).control(XD)[0]
    assert np.linalg.norm(proj(XD, u)) <= 1e-15
    assert abs(np.linalg.norm(u) - params.k1) <= 1e-15  # k1/(1+0)^2 along x_d


def test_conic_control_continuous_at_band_edge():
    arr, params = two_cap_setup()
    ctrl = ConicGradientController(arr, params)
    g = arr.sets[0].axis.coords
    w = proj(g, XD)
    w /= np.linalg.norm(w)
    edge_angle = np.pi / 6 + geo.angle_from_distance(params.epsilon)
    for side in (-1e-7, 1e-7):
        a = geo.rotate_toward(g, w, edge_angle + side)
        b = geo.rotate_toward(g, w, edge_angle - side)
        du = ctrl.control(a)[0] - ctrl.control(b)[0]
        assert np.linalg.norm(du) <= 1e-4


def test_conic_control_points_away_from_cap_near_boundary():
    arr, params = two_cap_setup()
    ctrl = ConicGradientController(arr, params)
    g = arr.sets[0].axis.coords
    rng = np.random.default_rng(2)
    for _ in range(50):
        w = rng.normal(size=4)
        w = proj(g, w)
        w /= np.linalg.norm(w)
        x = geo.rotate_toward(g, w, np.pi / 6 + 1e-4)
        u = ctrl.control(x)[0]
        assert proj(x, u) @ proj(x, -g) > 0.0


def test_conic_control_matches_fd_gradient():
    arr, params = two_cap_setup()
    ctrl = ConicGradientController(arr, params)
    rng = np.random.default_rng(3)
    tested = 0
    while tested < 300:
        x = geo.sample_uniform_many(3, 1, rng)[0]
        if ctrl.signed_union_margin(x) <= 1e-3:
            continue
        ua = proj(x, ctrl.control(x)[0])
        uf = proj(x, conic_control_fd(x, arr, params))
        assert np.linalg.norm(ua - uf) <= 1e-4 * max(np.linalg.norm(uf), 1e-12)
        if ctrl.control(x)[1] is None and np.linalg.norm(uf) > 1e-6:
            # far field: the descent direction is the projected target pull
            pxd = proj(x, XD)
            cosang = (uf @ pxd) / (np.linalg.norm(uf) * np.linalg.norm(pxd))
            assert np.arccos(np.clip(cosang, -1, 1)) <= 1e-6
        tested += 1


def test_conic_fd_gradient_vanishes_at_target():
    arr, params = two_cap_setup()
    uf = conic_control_fd(XD, arr, params)
    assert np.linalg.norm(proj(XD, uf)) <= 1e-6


def test_conic_control_fd_boundary_guard():
    arr, params = two_cap_setup()
    g = arr.sets[0].axis.coords
    x = geo.rotate_toward(g, geo.tangent_basis(g)[:, 0], np.pi / 6 + 1e-9)
    with pytest.raises(TooCloseToBoundary):
        conic_control_fd(x, arr, params)


def test_conic_law_rejects_star_sets(star4):
    params = ConicControllerParams(k1=1.0, epsilon=0.01,
                                   x_d=UnitPoint(np.array([0.0, 0.0, 1.0])))
    with pytest.raises(DomainError):
        ConicGradientController(star4.arrangement, params)


# ---------------------------------------------------------------------------
# star-piecewise law
# ---------------------------------------------------------------------------

def test_star_control_examples():
    arr, _ = two_cap_setup()
    params = StarControllerParams(k1=1.0, kappa=1.0, epsilon=0.015,
                                  x_d=UnitPoint(XD))
    ctrl = StarPiecewiseController(arr, params)
    g = arr.sets[0].axis.coords
    w = geo.tangent_basis(g)[:, 0]
    # on the region boundary: pure repulsion -(k1/kappa) g
    x = geo.rotate_toward(g, w, np.pi / 6)
    assert np.allclose(ctrl.control(x)[0], -g, atol=1e-9)
    # mid band: equal blend of target pull and kernel push
    mid = geo.rotate_toward(g, w, np.pi / 6 +
                            geo.angle_from_distance(params.epsilon / 2))
    assert np.allclose(ctrl.control(mid)[0], 0.5 * XD - 0.5 * g,
                       atol=1e-9)
    # far field: k1 x_d
    far = np.array([0.0, 0.0, 0.0, 1.0])
    assert np.allclose(ctrl.control(far)[0], XD)


def test_star_control_continuity_at_band_edge():
    arr, _ = two_cap_setup()
    params = StarControllerParams(k1=1.3, kappa=0.7, epsilon=0.02,
                                  x_d=UnitPoint(XD))
    ctrl = StarPiecewiseController(arr, params)
    g = arr.sets[0].axis.coords
    rng = np.random.default_rng(5)
    edge_angle = np.pi / 6 + geo.angle_from_distance(params.epsilon)
    for _ in range(300):
        w = proj(g, rng.normal(size=4))
        w /= np.linalg.norm(w)
        a = geo.rotate_toward(g, w, edge_angle + 1e-6)
        b = geo.rotate_toward(g, w, edge_angle - 1e-6)
        du = ctrl.control(a)[0] - ctrl.control(b)[0]
        assert np.linalg.norm(du) <= 1e-4


def test_control_stays_in_two_vector_span():
    arr, _ = two_cap_setup()
    params = StarControllerParams(k1=1.0, kappa=2.0, epsilon=0.015,
                                  x_d=UnitPoint(XD))
    cparams = ConicControllerParams(k1=1.0, epsilon=0.015, x_d=UnitPoint(XD))
    ctrl_s = StarPiecewiseController(arr, params)
    ctrl_c = ConicGradientController(arr, cparams)
    rng = np.random.default_rng(6)
    tested = 0
    while tested < 200:
        x = geo.sample_uniform_many(3, 1, rng)[0]
        if ctrl_c.signed_union_margin(x) < 0.0:
            continue
        i = ctrl_c.control(x)[1]
        span = [XD] if i is None else [XD, arr.sets[i].axis.coords]
        B = np.linalg.qr(np.column_stack(span))[0][:, :len(span)]
        for u in (ctrl_s.control(x)[0], ctrl_c.control(x)[0]):
            resid = u - B @ (B.T @ u)
            assert np.linalg.norm(resid) <= 1e-12
        tested += 1


def test_star_law_inside_unsafe_raises():
    arr, _ = two_cap_setup()
    params = StarControllerParams(k1=1.0, kappa=1.0, epsilon=0.015,
                                  x_d=UnitPoint(XD))
    with pytest.raises(InsideUnsafe):
        StarPiecewiseController(arr, params).control(arr.sets[0].axis.coords)


# ---------------------------------------------------------------------------
# alignment vector identities (small sample; the full suite is acceptance)
# ---------------------------------------------------------------------------

def test_alignment_vector_identities():
    rng = np.random.default_rng(7)
    g = geo.sample_uniform_many(3, 1, rng)[0]
    for _ in range(500):
        x = geo.sample_uniform_many(3, 1, rng)[0]
        if abs(x @ g) > 1.0 - 1e-6:
            continue
        w = alignment_descent_vector(x, XD, g)
        assert abs(w @ proj(x, g)) <= 1e-10
        # positivity away from the degenerate arcs
        arcs = []
        for a, b in ((g, -XD), (-g, -XD), (g, XD), (-g, XD)):
            if a @ b > -1 + 1e-9:
                arcs.append(geo.arc(geo.normalize(a), geo.normalize(b)))
        arc_dist = min(geo.distance_to_arc(x, s) for s in arcs)
        if arc_dist > 1e-3:
            assert w @ proj(x, XD) > 0.0


# ---------------------------------------------------------------------------
# kappa suggestion
# ---------------------------------------------------------------------------

def test_suggest_kappa_inactive_when_arc_misses_band():
    # reference arc from x_d to -g stays far from the cap around g
    xd = np.array([0.0, 0.0, 1.0])
    g = geo.rotate_toward(xd, np.array([1.0, 0.0, 0.0]), 1.0)
    arr = ConstraintArrangement([ConicCap(UnitPoint(g), 0.3)])
    ks = suggest_kappa(arr, xd, 0.05)
    assert ks.kappa_bar == 0.0
    assert ks.recommended == pytest.approx(1e-3)


def test_suggest_kappa_grazing_band_gives_zero():
    # kernel offset from the cap axis so the reference arc clips the band edge
    xd = np.array([0.0, 0.0, 1.0])
    axis = geo.rotate_toward(xd, np.array([1.0, 0.0, 0.0]), 1.2)
    capset = ConicCap(UnitPoint(axis), 0.3)
    eps = 0.05
    # place the kernel so that G(x_d, -g) grazes the dilation boundary
    w = np.array([0.0, 1.0, 0.0])
    g = geo.normalize(geo.rotate_toward(axis, w, 0.02)).coords
    arr = ConstraintArrangement([capset], kernels=[UnitPoint(g)])
    ks = suggest_kappa(arr, xd, eps)
    if ks.per_set[0].kappa == 0.0:
        assert ks.kappa_bar == 0.0
    else:
        # if the arc does enter the band, the bound must be finite and small
        assert np.isfinite(ks.kappa_bar)


def test_suggest_kappa_consistent_with_unit_gain(star4):
    ks = suggest_kappa(star4.arrangement, star4.target,
                       star4.resolved_epsilon())
    assert ks.recommended <= 1.0  # the bundled run uses kappa = 1


@pytest.mark.parametrize("name", ["star4", "star1"])
def test_suggest_kappa_bounding_screen_drops_no_kept_point(name, request, monkeypatch):
    # a bounding reach of pi screens nothing: the same suggestion from every point
    sc = request.getfixturevalue(name)
    arr = sc.arrangement
    rng = np.random.default_rng(5)
    targets = [sc.target.coords] + list(geo.sample_uniform_many(sc.dimension, 3, rng))
    cases = []
    for xd in targets:
        for eps in (0.02, 0.3):
            try:
                cases.append(((xd, eps), suggest_kappa(arr, xd, eps)))
            except KernelAntipodalToTarget:
                pass
    assert any(np.isfinite(p.mu1) for _, ks in cases for p in ks.per_set)
    monkeypatch.setattr(arr, "bound_reaches", np.full(len(arr), np.pi))
    for (xd, eps), ks in cases:
        assert repr(suggest_kappa(arr, xd, eps)) == repr(ks)


@pytest.mark.parametrize("name", ["star4", "star1"])
def test_suggest_kappa_refines_exactly_the_kept_points(name, request, monkeypatch):
    # the refined arc points are those a row of the band screen that the
    # region owns keeps by the dot test, and no more than a screen whose
    # reaches are 2e-6 wider keeps
    sc = request.getfixturevalue(name)
    arr = sc.arrangement
    region_type = type(arr.sets[0])
    refined = []
    distance = region_type.distance

    def counted(self, x):
        refined.append(x.tobytes())
        return distance(self, x)

    monkeypatch.setattr(region_type, "distance", counted)
    rng = np.random.default_rng(5)
    lams = np.linspace(0.0, 1.0, KAPPA_ARC_GRID + 1)
    checked = 0
    for xd in [sc.target.coords] + list(geo.sample_uniform_many(sc.dimension, 3, rng)):
        for eps in (0.02, 0.3):
            refined.clear()
            try:
                suggest_kappa(arr, xd, eps)
            except KernelAntipodalToTarget:
                continue
            centers, cos_reach, owner = arr.band_screen(eps)
            reach = arr.cell_reaches + np.arccos(1.0 - eps - BAND_SLACK) + 2e-6
            cos_wide = np.where(reach < np.pi, np.cos(reach), -np.inf)
            kept, wide = [], 0
            for i, g in enumerate(arr.kernels):
                pts = geo.slerp_many(xd, g.antipode(), lams)
                dots = pts @ centers[owner == i].T
                hit = (dots >= cos_reach[owner == i]).any(axis=1)
                kept += [p.tobytes() for p in pts[hit]]
                wide += int((dots >= cos_wide[owner == i]).any(axis=1).sum())
            assert refined == kept and len(refined) <= wide
            checked += len(kept) > 0
    assert checked >= 2
