"""Closed-loop integration, monitors, spectra, and the attitude adapter."""

import itertools
import math

import mpmath as mp
import numpy as np
import pytest

from sphere_nav import geometry as geo
from sphere_nav import simulate
from sphere_nav.charts import RadialTableChart, cell_boxes
from sphere_nav.constraints import (
    ConicCap,
    ConstraintArrangement,
)
from sphere_nav.controllers import (
    ConicControllerParams,
    ConicGradientController,
    StarControllerParams,
    StarPiecewiseController,
)
from sphere_nav.errors import (
    DegenerateProjection,
    DimensionMismatch,
    InsideUnsafe,
    MultipleActiveConstraints,
    NonSmoothNeighborhood,
)
from sphere_nav.geometry import UnitPoint
from sphere_nav.scenario import draw_initial_conditions, effective_seed
from sphere_nav.simulate import (
    SimConfig,
    attitude_kinematics_matrix,
    check_vdot_positive,
    closed_loop_field,
    integrate,
    integrate_quaternion,
    jacobian_fd,
    lyapunov_alignment,
    monitor_safety,
    quaternion_adapter,
)

XD = np.array([1.0, 0.0, 0.0, 0.0])


def conic_setup(k1=1.0, eps=0.015):
    axes = [np.array([0.0, 1.0, 0.0, 0.0]), np.array([0.0, -0.6, 0.8, 0.0])]
    arr = ConstraintArrangement([ConicCap(UnitPoint(a), np.pi / 6) for a in axes])
    params = ConicControllerParams(k1=k1, epsilon=eps, x_d=UnitPoint(XD))
    return arr, ConicGradientController(arr, params)


def star_setup(k1=1.0, kappa=1.0, eps=0.015):
    axes = [np.array([0.0, 1.0, 0.0, 0.0])]
    arr = ConstraintArrangement([ConicCap(UnitPoint(a), np.pi / 6) for a in axes])
    params = StarControllerParams(k1=k1, kappa=kappa, epsilon=eps,
                                  x_d=UnitPoint(XD))
    return arr, StarPiecewiseController(arr, params)


def proj(x, v):
    return v - (x @ v) * x


# ---------------------------------------------------------------------------
# field and integrator basics
# ---------------------------------------------------------------------------

def test_field_vanishes_at_target_and_antipode():
    _, ctrl = conic_setup()
    assert np.linalg.norm(closed_loop_field(XD, ctrl).vec) <= 1e-12
    assert np.linalg.norm(closed_loop_field(-XD, ctrl).vec) <= 1e-12


def test_field_on_boundary_is_kernel_repulsion():
    arr, ctrl = star_setup(kappa=2.0)
    g = arr.sets[0].axis.coords
    w = geo.tangent_basis(g)[:, 0]
    x = geo.rotate_toward(g, w, np.pi / 6)
    f = closed_loop_field(x, ctrl).vec
    assert np.allclose(f, -0.5 * proj(x, g), atol=1e-9)


def test_integrate_immediate_convergence():
    _, ctrl = conic_setup()
    traj = integrate(XD, ctrl, SimConfig(dt=1e-3, T=1.0))
    assert traj.verdict == "converged"
    assert len(traj) == 1


def test_integrate_stalls_at_antipode_on_star_law():
    _, ctrl = star_setup()
    traj = integrate(-XD, ctrl, SimConfig(dt=1e-3, T=0.5))
    assert traj.verdict == "max_time"
    assert geo.spherical_distance(traj.final_state, -XD) <= 1e-12


def test_integrate_stays_at_antipode_on_conic_law():
    _, ctrl = conic_setup()
    traj = integrate(-XD, ctrl, SimConfig(dt=1e-3, T=0.5))
    assert traj.verdict == "max_time"
    assert geo.spherical_distance(traj.final_state, -XD) <= 1e-12


def test_integrate_aborts_from_unsafe_start():
    arr, ctrl = conic_setup()
    traj = integrate(arr.sets[0].axis.coords, ctrl, SimConfig(dt=1e-3, T=1.0))
    assert traj.verdict == "aborted"
    assert "unsafe" in traj.note


def test_safety_monitor_catches_disabled_repulsion():
    # pure attraction with an obstacle between start and target must cross it
    arr, _ = conic_setup()

    class PureAttraction:
        arr = None
        x_d = XD
        params = None

        def control(self, x):
            return XD, None

        def signed_union_margin(self, x):
            return float(min(s.signed_margin(x) for s in arr.sets))

    g = arr.sets[0].axis.coords
    x0 = geo.normalize(-0.2 * XD + 1.1 * g).coords
    traj = integrate(x0, PureAttraction(), SimConfig(dt=1e-3, T=3.0))
    assert monitor_safety(traj) < 0.0


# ---------------------------------------------------------------------------
# alignment diagnostic
# ---------------------------------------------------------------------------

def test_lyapunov_alignment_on_reference_arcs():
    rng = np.random.default_rng(1)
    g = geo.sample_uniform_many(3, 1, rng)[0]
    for lam in (0.25, 0.6, 1.0):
        on_v = geo.slerp(XD, g, lam)          # between target and kernel
        if abs(on_v.dot(g)) > 1 - 1e-10:
            continue
        assert lyapunov_alignment(on_v, XD, g) == pytest.approx(1.0, abs=1e-10)
        on_z = geo.slerp(-XD, g, lam)         # between antipode and kernel
        if abs(on_z.dot(g)) > 1 - 1e-10:
            continue
        assert lyapunov_alignment(on_z, XD, g) == pytest.approx(-1.0, abs=1e-10)


def test_lyapunov_alignment_perpendicular_and_degenerate():
    g = np.array([0.0, 0.0, 0.0, 1.0])
    # P(g)x orthogonal to P(g)x_d
    x = np.array([0.0, 1.0, 0.0, 0.0])
    assert lyapunov_alignment(x, XD, g) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DegenerateProjection):
        lyapunov_alignment(g, XD, g)


def test_vdot_monitor_scope_and_positivity(star4_run):
    # the default boundary margin (1e-2) blankets this scenario's whole band
    # (eps = 0.01); tighten it so the monitor actually sees band segments
    ctrl = star4_run.controller
    total = 0
    for traj in star4_run.trajectories:
        rep = check_vdot_positive(traj, ctrl, boundary_margin=2e-3)
        assert rep.ok, rep.violations[:3]
        total += rep.checked
    assert total > 0  # the monitor saw in-band segments


# ---------------------------------------------------------------------------
# finite-difference spectra
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k1", [0.5, 1.0, 2.0])
def test_jacobian_at_target(k1):
    _, ctrl = conic_setup(k1=k1)
    spec = jacobian_fd(XD, ctrl)
    expected = -k1 * (np.eye(4) + np.outer(XD, XD))
    assert np.abs(spec.matrix - expected).max() <= 1e-4
    eig = np.sort(spec.eig_ambient.real)
    assert np.allclose(eig, [-2 * k1, -k1, -k1, -k1], atol=1e-4)
    assert np.allclose(np.sort(spec.eig_tangent.real), [-k1] * 3, atol=1e-4)


@pytest.mark.parametrize("k1", [0.5, 1.0, 2.0])
def test_jacobian_at_antipode_far_field_linearization(k1):
    """The navigation-gradient far field linearizes to (k1/9)(I + x_d x_d^T).

    With u = k1 x_d/(1 + d)^2 and d(-x_d) = 2, the field's Jacobian at the
    antipode is (k1/9)(I + x_d x_d^T): eigenvalues 2k1/9 and k1/9.  This is
    the value the finite-difference probe must reproduce.
    """
    _, ctrl = conic_setup(k1=k1)
    spec = jacobian_fd(-XD, ctrl)
    expected = (k1 / 9.0) * (np.eye(4) + np.outer(XD, XD))
    assert np.abs(spec.matrix - expected).max() <= 1e-4
    eig = np.sort(spec.eig_ambient.real)
    assert np.allclose(eig, [k1 / 9] * 3 + [2 * k1 / 9], atol=1e-4)


def test_jacobian_star_far_field_structure():
    # constant far-field input: J = -x u^T - (x.u) I exactly
    _, ctrl = star_setup(k1=1.3)
    rng = np.random.default_rng(4)
    tested = 0
    while tested < 20:
        x = geo.sample_uniform_many(3, 1, rng)[0]
        if ctrl.arr.union_margin(x) < 0.1 or abs(x @ XD) > 0.9:
            continue
        spec = jacobian_fd(x, ctrl)
        u = 1.3 * XD
        expected = -np.outer(x, u) - (x @ u) * np.eye(4)
        assert np.abs(spec.matrix - expected).max() <= 1e-4
        tested += 1


def test_jacobian_guard_near_band_edge():
    arr, ctrl = conic_setup()
    g = arr.sets[0].axis.coords
    w = geo.tangent_basis(g)[:, 0]
    edge = geo.rotate_toward(g, w, np.pi / 6 +
                             geo.angle_from_distance(ctrl.params.epsilon))
    with pytest.raises(NonSmoothNeighborhood):
        jacobian_fd(edge, ctrl)


# ---------------------------------------------------------------------------
# quaternion adapter
# ---------------------------------------------------------------------------

def test_attitude_matrix_identities():
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = geo.sample_uniform_many(3, 1, rng)[0]
        A = attitude_kinematics_matrix(x)
        assert np.allclose(A.T @ A, np.eye(3), atol=1e-12)
        assert np.allclose(A @ A.T, np.eye(4) - np.outer(x, x), atol=1e-12)


def test_quaternion_adapter_examples():
    x = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.allclose(quaternion_adapter(x, np.eye(4)[1]), [2.0, 0.0, 0.0])
    # input along x itself maps to zero angular velocity
    rng = np.random.default_rng(6)
    y = geo.sample_uniform_many(3, 1, rng)[0]
    assert np.allclose(quaternion_adapter(y, 3.0 * y), 0.0, atol=1e-12)
    with pytest.raises(DimensionMismatch):
        quaternion_adapter(np.array([1.0, 0.0, 0.0]), np.zeros(3))


def test_quaternion_roundtrip_identity():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        x = geo.sample_uniform_many(3, 1, rng)[0]
        u = rng.normal(size=4)
        A = attitude_kinematics_matrix(x)
        lhs = 0.5 * (A @ quaternion_adapter(x, u))
        assert np.allclose(lhs, proj(x, u), atol=1e-12)


def test_quaternion_integration_matches_plain(cones7, cones7_run):
    cfg = cones7.sim
    worst = 0.0
    for x0, ref in zip(cones7_run.ics, cones7_run.trajectories):
        qt = integrate_quaternion(x0, cones7_run.controller, cfg)
        assert qt.verdict == ref.verdict
        assert len(qt) == len(ref)
        worst = max(worst, float(np.abs(qt.x - ref.x).max()))
    assert worst <= 1e-9


def test_quaternion_rate_bound(star1_feasible_run):
    run = star1_feasible_run
    params = run.controller.params
    bound = 2.0 * params.k1 * (1.0 + 1.0 / params.kappa) + 1e-9
    traj = run.trajectories[0]
    for k in range(0, len(traj), 7):
        omega = quaternion_adapter(traj.x[k], traj.u[k])
        assert np.all(np.isfinite(omega))
        assert np.linalg.norm(omega) <= bound


# ---------------------------------------------------------------------------
# trajectory-level properties over the bundled runs
# ---------------------------------------------------------------------------

def test_manifold_invariance(cones7_run, star4_run, star1_run):
    for run in (cones7_run, star4_run, star1_run):
        for traj in run.trajectories:
            norms = np.linalg.norm(traj.x, axis=1)
            assert np.abs(norms - 1.0).max() <= 1e-10


def test_trajectory_record_schema(star4_run):
    traj = star4_run.trajectories[0]
    assert np.all(np.diff(traj.t) > 0)
    records = traj.records
    assert len(records) == len(traj)
    for rec in records:
        assert rec.active_i is None or rec.active_i >= 0
        if rec.active_i is None:
            assert rec.V_active is None
        else:
            assert rec.V_active is None or -1.0 <= rec.V_active <= 1.0
    # verdict consistent with the final record
    last = records[-1]
    if traj.verdict == "converged":
        assert last.d_target < 1e-8


def test_forward_invariance_random_ic_sweep(cones7, star4, star1_feasible):
    # short-horizon sweeps over extra random feasible starts
    budgets = ((cones7, 60), (star4, 25), (star1_feasible, 12))
    for sc, count in budgets:
        ctrl = sc.build_controller()
        cfg = SimConfig(dt=1e-3, T=5.0, log_stride=5)
        rng = np.random.default_rng(99)
        done = 0
        while done < count:
            x0 = geo.sample_uniform_many(sc.dimension, 1, rng)[0]
            if float(sc.arrangement.signed_margins(x0).min()) < 0.0:
                continue
            traj = integrate(x0, ctrl, cfg)
            assert traj.verdict in ("converged", "max_time")
            assert monitor_safety(traj) >= -1e-9
            done += 1


def test_far_field_descent_monotone(star4_run):
    for traj in star4_run.trajectories:
        d = traj.d_target
        margins = traj.d_unsafe
        eps = star4_run.controller.params.epsilon
        for k in range(len(traj) - 1):
            both_far = margins[k] >= eps and margins[k + 1] >= eps
            not_at_poles = (d[k] > 1e-8) and (d[k] < 2 - 1e-8)
            if both_far and not_at_poles:
                assert d[k + 1] < d[k] + 1e-12


def test_no_return_to_region_boundary(star4_run, star1_run):
    for run in (star4_run, star1_run):
        for traj in run.trajectories:
            touched = traj.d_unsafe < 1e-9
            if not touched.any():
                continue
            last_touch = int(np.nonzero(touched)[0].max())
            after = traj.d_unsafe[last_touch + 1:]
            left = after > 1e-6
            if left.any():
                first_left = int(np.nonzero(left)[0].min())
                assert np.all(after[first_left:] >= 1e-9)


def test_step_size_robustness(cones7, star1_feasible):
    for sc, n_ics in ((cones7, 2), (star1_feasible, 1)):
        ctrl = sc.build_controller()
        ics = draw_initial_conditions(sc, effective_seed(sc))[:n_ics]
        for x0 in ics:
            cfg1 = sc.sim
            cfg2 = SimConfig(dt=cfg1.dt / 2, T=cfg1.T,
                             log_stride=2 * cfg1.log_stride)
            t1 = integrate(x0, ctrl, cfg1)
            t2 = integrate(x0, ctrl, cfg2)
            assert t1.verdict == t2.verdict
            assert np.linalg.norm(t1.final_state - t2.final_state) <= 1e-6


def test_log_stride_does_not_change_states(star1_feasible):
    # a log row is the state's own law evaluation and the star law keeps no
    # state between evaluations, so every stride integrates the same states
    ctrl = star1_feasible.build_controller()
    x0 = draw_initial_conditions(star1_feasible, effective_seed(star1_feasible))[0]
    every = integrate(x0, ctrl, SimConfig(dt=1e-3, T=1.0, log_stride=1))
    tenth = integrate(x0, ctrl, SimConfig(dt=1e-3, T=1.0, log_stride=10))
    shared = np.isin(every.t, tenth.t)
    assert shared.sum() == len(tenth) > 1
    assert np.array_equal(every.x[shared], tenth.x)


# ---------------------------------------------------------------------------
# exact far-field flow
# ---------------------------------------------------------------------------

def _never_jump(monkeypatch):
    monkeypatch.setattr(simulate._FarField, "plan",
                        lambda self, x, dt, steps_left: (0, None))


def _record_jumps(monkeypatch):
    """Anchor states of the far-field jumps the integrator takes."""
    anchors = []
    plan = simulate._FarField.plan

    def recording(self, x, dt, steps_left):
        m, flow = plan(self, x, dt, steps_left)
        if m:
            anchors.append(x.copy())
        return m, flow

    monkeypatch.setattr(simulate._FarField, "plan", recording)
    return anchors


def _rows_of(traj, states):
    return [int(np.nonzero((traj.x == s).all(axis=1))[0][0]) for s in states]


def test_far_field_flow_matches_rk4(monkeypatch, cones7_run, star4_run):
    # the bundled runs jump across band-free stretches; plain RK4 on the same
    # grid must agree up to its truncation error
    _never_jump(monkeypatch)
    for run, n_ics in ((cones7_run, 3), (star4_run, 2)):
        for x0, fast in zip(run.ics[:n_ics], run.trajectories):
            ref = integrate(x0, run.controller, run.scenario.sim)
            assert fast.verdict == ref.verdict
            assert len(fast) == len(ref)
            assert np.array_equal(fast.active, ref.active)
            assert np.abs(fast.x - ref.x).max() <= 1e-12


def test_far_field_flow_matches_rk4_on_star_cells(monkeypatch, star1_feasible_run):
    # the cell screen lets s3_star1_eps005 runs jump across the star region's
    # far field; plain RK4 on the same grid must agree up to its truncation
    # error
    run = star1_feasible_run
    _never_jump(monkeypatch)
    for x0, fast in zip(run.ics[:2], run.trajectories):
        ref = integrate(x0, run.controller, run.scenario.sim)
        assert fast.verdict == ref.verdict
        assert len(fast) == len(ref)
        assert np.array_equal(fast.active, ref.active)
        assert np.abs(fast.x - ref.x).max() <= 1e-12


def _theta(y):
    c = float(y @ XD)
    return math.atan2(float(np.linalg.norm(y - c * XD)), c)


def _mp_far_field_angle(law, k1, th0, t):
    """theta(t) of the far field from theta0, at the working mpmath precision."""
    # the star law's closed form; v = ln tan(theta/2) falls at rate k1 there,
    # and at a rate within [k1/9, k1] under the conic law
    fast = 2 * mp.atan(mp.tan(th0 / 2) * mp.exp(-k1 * t))
    if law == "star":
        return fast
    slow = 2 * mp.atan(mp.tan(th0 / 2) * mp.exp(-k1 * t / 9))

    def F(th):
        return 5 * mp.log(mp.tan(th / 2)) - 4 * mp.log(mp.sin(th)) + mp.cos(th)

    return mp.findroot(lambda th: F(th0) - F(th) - k1 * t, (fast, slow),
                       solver="anderson")


@pytest.mark.parametrize("law", ["conic", "star"])
def test_far_field_clock_matches_mpmath(law):
    k1 = 1.3
    if law == "conic":
        _, ctrl = conic_setup(k1=k1)
    else:
        _, ctrl = star_setup(k1=k1)
    far = simulate._FarField(ctrl)
    w = np.array([0.0, 0.0, 0.6, 0.8])   # clear of every cap's band
    for theta0 in (1e-3, 0.5, 2.0, math.pi - 1e-3):
        x0 = math.cos(theta0) * XD + math.sin(theta0) * w
        m, flow = far.plan(x0, 1e-3, 10**9)
        assert m > 0
        for t in (1e-3, 0.37, 2.0, 6.5):
            with mp.workdps(50):
                ref = _mp_far_field_angle(law, k1, mp.mpf(_theta(x0)), mp.mpf(t))
            assert abs(_theta(flow(t)) - float(ref)) <= 1e-14, (theta0, t)


def test_far_field_jumps_do_not_depend_on_log_stride(monkeypatch, cones7):
    # an s3_cones7 start whose path jumps, visits a band and jumps again
    anchors = _record_jumps(monkeypatch)
    ctrl = cones7.build_controller()
    x0 = geo.normalize(np.array([-0.3005, 0.7491, 0.4624, 0.3670])).coords
    every = integrate(x0, ctrl, SimConfig(dt=1e-3, T=60.0, log_stride=1))
    band = np.nonzero(every.active >= 0)[0]
    jumps = _rows_of(every, anchors)
    assert band.size and min(jumps) < band[0] and max(jumps) > band[-1]
    tenth = integrate(x0, ctrl, SimConfig(dt=1e-3, T=60.0, log_stride=10))
    shared = np.isin(every.t, tenth.t)
    assert shared.sum() == len(tenth)
    assert np.array_equal(every.x[shared], tenth.x)
    assert np.array_equal(every.active[shared], tenth.active)


def test_far_field_jump_stops_at_grazed_band(monkeypatch):
    # the geodesic from x0 dips into the band of one cap for +-1e-4 rad
    # around the grid state at t = 1, less than one step (8.6e-4 rad) wide
    k1, eps, xi, delta = 1.0, 0.015, 0.3, 1e-4
    theta0, w = 2.0, np.array([0.0, 1.0, 0.0, 0.0])
    x0 = math.cos(theta0) * XD + math.sin(theta0) * w
    phi = 2.0 * math.atan(math.tan(0.5 * theta0) * math.exp(-k1 * 1.0))
    R = math.cos(xi + math.acos(1.0 - eps)) / math.cos(delta)
    axis = R * (math.cos(phi) * XD + math.sin(phi) * w) \
        + math.sqrt(1.0 - R * R) * np.array([0.0, 0.0, 1.0, 0.0])
    arr = ConstraintArrangement([ConicCap(UnitPoint(axis), xi)])
    ctrl = StarPiecewiseController(arr, StarControllerParams(
        k1=k1, kappa=1.0, epsilon=eps, x_d=UnitPoint(XD)))
    cfg = SimConfig(dt=1e-3, T=3.0, log_stride=1)
    anchors = _record_jumps(monkeypatch)
    fast = integrate(x0, ctrl, cfg)
    jumps = _rows_of(fast, anchors)
    _never_jump(monkeypatch)
    ref = integrate(x0, ctrl, cfg)
    band = np.nonzero(ref.active >= 0)[0]
    assert band.tolist() == [1000]
    assert min(jumps) < band[0] < max(jumps)
    assert len(fast) == len(ref)
    assert np.array_equal(fast.active, ref.active)
    assert np.abs(fast.x - ref.x).max() <= 1e-12


def test_runs_screen_no_cells_per_state(monkeypatch, cones7, star1_feasible):
    # the band search and the far-field planner read no cell screen per state,
    # and the conic law never queries a cap: its bounding cap is exact
    def refuse(*args, **kwargs):
        raise RuntimeError("per-state query")

    monkeypatch.setattr(ConicCap, "distance_warm", refuse)
    # inputs whose runs enter a band
    for sc, j in ((star1_feasible, 0), (cones7, 2)):
        x0 = draw_initial_conditions(sc, effective_seed(sc))[j]
        traj = integrate(x0, sc.build_controller(), sc.sim)
        assert traj.verdict == "converged" and traj.safe and (traj.active >= 0).any()


def _cell_boundary_points(region, n: int = 12) -> np.ndarray:
    """(cells, points, n+1): boundary points spread over each chart cell of a
    star region, cells in the order of its `cell_caps`."""
    chart, body = region.chart, region.body
    if isinstance(chart, RadialTableChart):
        m = chart.values.size
        t = np.linspace(0.0, 1.0, n + 1)
        s = chart.points(np.repeat(np.arange(m), t.size), np.tile(t, m))
    else:
        # a cell's triangle is the 3 corners of its w-box that lie on the simplex
        sign, lo, hi = cell_boxes(body.k)
        pick = np.array(list(itertools.product((False, True), repeat=body.k)))
        box = np.where(pick, hi[:, None, :], lo[:, None, :])
        tri = box[np.abs(box.sum(axis=2) - 1.0) < 1e-12].reshape(len(box), body.k, body.k)
        bary = np.array([(i, n - i) for i in range(n + 1)] if body.k == 2 else
                        [(i, j, n - i - j) for i in range(n + 1) for j in range(n + 1 - i)]) / n
        w = np.einsum("bv,cvk->cbk", bary, tri)
        s = chart.s_of((sign[:, None, :] * np.sqrt(w)).reshape(-1, body.k))
    p = body.lift(s)
    return (p / np.linalg.norm(p, axis=1, keepdims=True)).reshape(len(region.cell_reaches), -1, p.shape[1])


@pytest.mark.parametrize("name", ["cones7", "star4", "star1_feasible"])
def test_band_screen_keeps_every_band_and_gates_the_far_field(request, name):
    # states up to two band widths from each region's boundary: the screen
    # keeps every region whose boundary is within eps through a row it owns,
    # a region that holds a state is the band the band search returns (or the
    # search refuses the state), and the far-field planner refuses to jump
    # exactly where the screen keeps some row
    sc = request.getfixturevalue(name)
    arr, eps = sc.arrangement, sc.resolved_epsilon()
    centers, cos_reach, owner = arr.band_screen(eps)
    assert np.array_equal(np.unique(owner), np.arange(len(arr)))
    ctrl = sc.build_controller()
    far = simulate._FarField(ctrl)
    rng = np.random.default_rng(12)
    width = geo.angle_from_distance(eps)
    in_band = 0
    for region in arr.sets:
        for b in region.boundary_samples(40, rng):
            v = geo.tangent_basis(b) @ rng.normal(size=b.size - 1)
            x = geo.rotate_toward(b, v / np.linalg.norm(v),
                                  rng.uniform(0.0, 2.0 * width))
            rows = centers @ x >= cos_reach * np.linalg.norm(x)
            margins = arr.signed_margins(x)
            near = np.abs(margins) <= eps
            assert np.isin(np.flatnonzero(near), owner[rows]).all()
            held = {i for i, s in enumerate(arr.sets) if s.contains(x)}
            try:
                assert held <= {arr.band(x, eps)[0]}
            except (InsideUnsafe, MultipleActiveConstraints):
                pass
            in_band += near.any()
            # on a 1e-12 grid no sampled state is within two steps of an entry
            assert (far.plan(x, 1e-12, 10**12)[0] == 0) == rows.any()
    assert in_band > 0
    # each star cell's own row keeps the states just under eps from its
    # boundary piece, pushed straight away from the row's centre
    for i, region in enumerate(arr.sets):
        if isinstance(region, ConicCap):
            continue
        c, cr = centers[owner == i], cos_reach[owner == i]
        p = _cell_boundary_points(region)
        away = p * np.einsum("cbk,ck->cb", p, c)[:, :, None] - c[:, None, :]
        away /= np.maximum(np.linalg.norm(away, axis=2, keepdims=True), 1e-300)
        x = np.cos(width * (1 - 1e-9)) * p + np.sin(width * (1 - 1e-9)) * away
        assert (np.einsum("cbk,ck->cb", x, c) >= cr[:, None] - 1e-12).all()


@pytest.mark.parametrize("name", ["cones7", "star4", "star1_feasible"])
def test_screen_entry_matches_a_walk_down_the_geodesic(request, name):
    # from states near each region and anywhere, walk theta down from theta0
    # on a 1e-5 grid with the band screen's dot test: a row holds the entry
    # theta* to 1e-12, no grid state in (theta* + 1e-9, theta0] is held, and
    # theta* is -inf exactly when no grid state of the circle is
    sc = request.getfixturevalue(name)
    arr, eps, xd = sc.arrangement, sc.resolved_epsilon(), sc.target.coords
    centers, cos_reach, _ = arr.band_screen(eps)
    rng = np.random.default_rng(31)
    width = geo.angle_from_distance(eps)
    states = [geo.rotate_toward(b, v / np.linalg.norm(v), rng.uniform(0.0, 4.0 * width))
              for region in arr.sets for b in region.boundary_samples(6, rng)
              for v in [geo.tangent_basis(b) @ rng.normal(size=b.size - 1)]]
    steps = np.arange(8192) * 1e-5
    entries = 0
    for x in [*states, *geo.sample_uniform_many(sc.dimension, 6, rng)]:
        c = float(x @ xd)
        w = x - c * xd
        w /= np.linalg.norm(w)
        theta0 = math.atan2(float(x @ w), c)
        entry = arr.screen_entry(xd, w, theta0, eps)
        # a row farther than cos_reach from the circle's plane holds none of it
        rows = np.hypot(centers @ xd, centers @ w) > cos_reach - 1e-9
        first = None
        for start in np.arange(0.0, 2.0 * np.pi, steps.size * 1e-5):
            th = theta0 - start - steps
            th = th[th >= theta0 - 2.0 * np.pi]
            pts = np.outer(np.cos(th), xd) + np.outer(np.sin(th), w)
            held = (pts @ centers[rows].T >= cos_reach[rows]).any(axis=1)
            if held.any():
                first = th[np.argmax(held)]
                break
        assert (entry == -np.inf) == (first is None)
        if first is not None:
            assert theta0 - 2.0 * np.pi < entry <= theta0 and first <= entry + 1e-9
            x_entry = math.cos(entry) * xd + math.sin(entry) * w
            assert (centers @ x_entry - cos_reach).max() >= -1e-12
            entries += 1
    assert entries >= len(states) // 2


@pytest.mark.parametrize("name", ["star4", "star1_feasible"])
def test_facet_bounds_cover_each_cell(request, name):
    # the second bound of a star query: at states near a region and across
    # it, no sampled point of a chart cell dots above the cell's facet bound
    sc = request.getfixturevalue(name)
    rng = np.random.default_rng(7)
    checked = 0
    for region in sc.arrangement.sets:
        p = _cell_boundary_points(region)
        cells = np.arange(len(p))
        for b in region.boundary_samples(12, rng):
            v = geo.tangent_basis(b) @ rng.normal(size=b.size - 1)
            x = geo.rotate_toward(b, v / np.linalg.norm(v), rng.uniform(0.0, 0.6))
            bound = region._facet_bound(region._facet_units @ x, cells)
            sampled = np.einsum("cbk,k->cb", p, x).max(axis=1)
            assert (sampled <= bound + 1e-12).all()
            checked += 1
    assert checked >= 12


def test_band_screen_dilated_cap_covering_the_sphere():
    # reach + arccos(1 - eps - slack) >= pi: every state is screened in, the
    # antipode of the centre too (whose dot with the centre may round below
    # -1), and the planner never jumps
    rng = np.random.default_rng(3)
    pts = geo.sample_uniform_many(3, 50, rng)
    for axis in geo.sample_uniform_many(3, 10, rng):
        arr = ConstraintArrangement([ConicCap(UnitPoint(axis), 2.9)])
        ctrl = StarPiecewiseController(arr, StarControllerParams(
            k1=1.0, kappa=1.0, epsilon=0.05, x_d=UnitPoint(XD)))
        centers, cos_reach, _ = arr.band_screen(0.05)
        far = simulate._FarField(ctrl)
        for x in np.vstack([-axis, pts]):
            assert (centers @ x >= cos_reach * np.linalg.norm(x)).all()
            assert far.plan(x, 1e-3, 1000)[0] == 0
