"""Acceptance suite: one test per acceptance criterion, evaluated at its
stated tolerance.  Each test prints a single PASS/FAIL line with the measured
numbers before asserting.

Two checks compare against values derived here from the documented laws
rather than read from the program:

* criterion 3: the bundled ``s3_star1`` configuration sets the band width
  above the target's clearance from the region.  The paper's stability
  guarantee needs the target outside the band, so this batch checks what the
  method still promises and what the configuration predicts: the validator
  rejects the band width, the target is not an equilibrium of the star law,
  every run stays safe, and every run parks at the balance point of the law
  on the great circle through the target and the kernel point.  That point
  is found by a root search of the documented law along the arc, using only
  the region's distance query.  Convergence is checked on the admissible
  ``s3_star1_eps005`` variant.
* criterion 4 (antipode half): the far field of the conic law is the
  negative gradient of W = k1 d/(d + 1), so u = k1 x_d/(1 + d)^2; the
  reference Jacobian at -x_d is derived in closed form from that law and is
  (k1/9)(I + x_d x_d^T).
"""

import numpy as np

from sphere_nav import geometry as geo
from sphere_nav.constraints import ConicCap, ConstraintArrangement
from sphere_nav.controllers import (
    ConicControllerParams,
    ConicGradientController,
    alignment_descent_vector,
    conic_control_fd,
)
from sphere_nav.geometry import UnitPoint
from sphere_nav.scenario import validate_scenario
from sphere_nav.simulate import check_vdot_positive, jacobian_fd

from test_constraints import cap_distance_oracle, disc_shape

XD4 = np.array([1.0, 0.0, 0.0, 0.0])


def report(criterion: str, ok: bool, detail: str):
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


# ---------------------------------------------------------------------------
# 1. conic S^3 batch
# ---------------------------------------------------------------------------

def test_criterion_1_conic_s3_batch(cones7_run):
    run = cones7_run
    reached = [t.converged and float(t.d_target[-1]) < 1e-6
               and t.time_converged <= 60.0 for t in run.trajectories]
    margins = [t.min_margin for t in run.trajectories]
    ok = (all(reached) and len(reached) == 10
          and min(margins) >= -1e-9 and run.elapsed < 30.0)
    assert report(
        "1", ok,
        f"{sum(reached)}/10 reached d<1e-6 within 60 s; min margin "
        f"{min(margins):.2e}; wall-clock {run.elapsed:.1f} s (< 30 s)")


# ---------------------------------------------------------------------------
# 2. star S^2 batch
# ---------------------------------------------------------------------------

def test_criterion_2_star_s2_batch(star4_run):
    run = star4_run
    conv = [t.converged for t in run.trajectories]
    margins = [t.min_margin for t in run.trajectories]
    ok = all(conv) and len(conv) == 9 and min(margins) >= -1e-9
    assert report(
        "2", ok,
        f"{sum(conv)}/9 converged; min margin {min(margins):.2e}")


# ---------------------------------------------------------------------------
# 3. star S^3 batch (stated parameters; see the module docstring)
# ---------------------------------------------------------------------------

def _star_law(sc, kappa, x):
    """The documented star-piecewise input for the scenario's single region.

    u = k1 [ w x_d - (1/kappa)(1 - w) g_0 ] with w = min(d/eps, 1), where d
    is the region's distance query; w = 1 is the far field u = k1 x_d.
    """
    g = sc.arrangement.kernels[0].coords
    w = min(sc.arrangement.sets[0].distance(x) / sc.resolved_epsilon(), 1.0)
    return sc.k1 * (w * sc.target.coords - (1.0 / kappa) * (1.0 - w) * g)


def _star_balance_point(sc, kappa):
    """Zero of the star law on the arc from x_d directed away from g_0.

    Inside band 0 the input is a combination of x_d and g_0, so the great
    circle through them is invariant and every equilibrium lies on it.  With
    x(t) = cos(t) x_d + sin(t) e, where e is the unit tangent at x_d that
    points away from g_0, the field along the circle is (x'(t) . u) x'(t).
    Its component is positive at t = 0 when x_d lies in the band (pure
    kernel repulsion pushes away from g_0) and equals -k1 sin(t) once the
    band is left, so bisection on [0, pi/2] brackets the balance point.
    """
    g = sc.arrangement.kernels[0].coords
    xd = sc.target.coords
    e = -(g - (g @ xd) * xd)
    e /= np.linalg.norm(e)

    def tangential(t):
        x = np.cos(t) * xd + np.sin(t) * e
        return float((np.cos(t) * e - np.sin(t) * xd)
                     @ _star_law(sc, kappa, x))

    lo, hi = 0.0, np.pi / 2
    assert tangential(lo) > 0.0 > tangential(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if tangential(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return np.cos(lo) * xd + np.sin(lo) * e


def test_criterion_3_star_s3_batch(star1, star1_run):
    """Inadmissible band: rejected, target not an equilibrium, runs park safely.

    With eps above the target's clearance, x_d lies inside band 0, so the
    paper promises no convergence.  What holds instead: validation reports
    the band width as inadmissible, P(x_d)u(x_d) != 0, every run stays safe
    and none aborts, and every run ends at the law's balance point x* (see
    _star_balance_point), computed without the integrator.
    """
    sc, run = star1, star1_run
    rep = validate_scenario(sc, samples=100)
    rejected = (any("not admissible" in f for f in rep.failures)
                and rep.eps_bar < rep.epsilon == sc.resolved_epsilon())

    xd = sc.target.coords
    u_d = _star_law(sc, sc.resolved_kappa(), xd)
    drift = float(np.linalg.norm(u_d - (xd @ u_d) * xd))

    margins = [t.min_margin for t in run.trajectories]
    aborted = sum(t.verdict == "aborted" for t in run.trajectories)
    x_star = _star_balance_point(sc, sc.resolved_kappa())
    offsets = [float(np.linalg.norm(t.final_state - x_star))
               for t in run.trajectories]
    ok = (rejected and drift > 0.0 and len(run.trajectories) == 10
          and min(margins) >= -1e-9 and aborted == 0 and max(offsets) <= 1e-6)
    assert report(
        "3", ok,
        f"band width {rep.epsilon:.3g} vs target clearance {rep.eps_bar:.3e} "
        f"({'rejected' if rejected else 'not rejected'} by validation); "
        f"|P(x_d)u(x_d)| = {drift:.4f}; "
        f"{sum(m >= -1e-9 for m in margins)}/10 safe, {aborted} aborted; "
        f"final states within {max(offsets):.1e} of the balance point at "
        f"d_target {1.0 - float(x_star @ xd):.4e}")


def test_criterion_3_feasible_band_variant(star1_feasible_run):
    run = star1_feasible_run
    conv = [t.converged for t in run.trajectories]
    margins = [t.min_margin for t in run.trajectories]
    ok = all(conv) and len(conv) == 10 and min(margins) >= -1e-9
    assert report(
        "3 (feasible-band variant)", ok,
        f"{sum(conv)}/10 converged; min margin {min(margins):.2e}")


# ---------------------------------------------------------------------------
# 4. closed-loop spectra
# ---------------------------------------------------------------------------

def _plain_cap_controller(k1: float):
    axes = [np.array([0.0, 1.0, 0.0, 0.0]), np.array([0.0, -0.6, 0.8, 0.0])]
    arr = ConstraintArrangement([ConicCap(UnitPoint(a), np.pi / 6) for a in axes])
    params = ConicControllerParams(k1=k1, epsilon=0.015, x_d=UnitPoint(XD4))
    return arr, ConicGradientController(arr, params)


def test_criterion_4_target_spectrum():
    worst = 0.0
    for k1 in (0.5, 1.0, 2.0):
        _, ctrl = _plain_cap_controller(k1)
        spec = jacobian_fd(XD4, ctrl)
        expected = -k1 * (np.eye(4) + np.outer(XD4, XD4))
        worst = max(worst, float(np.abs(spec.matrix - expected).max()))
    ok = worst <= 1e-4
    assert report("4 (target)", ok,
                  f"max entrywise deviation from -k1(I + x_d x_d^T): {worst:.2e}")


def _far_field_jacobian_at_antipode(k1: float, x_d: np.ndarray) -> np.ndarray:
    """Closed-form Jacobian of the field P(y)u(y) at y = -x_d in the far field.

    Far from every cap beta = 1, so u = -grad W with W = k1 d/(d + 1),
    d = 1 - y.x_d; grad d = -x_d gives u = c(d) x_d, c(d) = k1/(d + 1)^2.
    The field is f(y) = c(d) (x_d - (y.x_d) y).  At y = -x_d the bracket
    vanishes, so only its derivative survives: d/dy [x_d - (y.x_d) y] =
    -y x_d^T - (y.x_d) I = I + x_d x_d^T there.  Hence J = c(2) (I + x_d x_d^T)
    = (k1/9)(I + x_d x_d^T).
    """
    d = 1.0 - float(-x_d @ x_d)
    c = k1 / (d + 1.0) ** 2
    return c * (np.eye(x_d.size) + np.outer(x_d, x_d))


def test_criterion_4_antipode_spectrum():
    """The FD Jacobian at -x_d matches the far-field law's closed form."""
    worst = 0.0
    for k1 in (0.5, 1.0, 2.0):
        _, ctrl = _plain_cap_controller(k1)
        spec = jacobian_fd(-XD4, ctrl)
        expected = _far_field_jacobian_at_antipode(k1, XD4)
        worst = max(worst, float(np.abs(spec.matrix - expected).max()))
    ok = worst <= 1e-4
    assert report("4 (antipode)", ok,
                  f"max entrywise deviation from the closed-form far-field "
                  f"Jacobian (k1/9)(I + x_d x_d^T): {worst:.2e}")


# ---------------------------------------------------------------------------
# 5. gradient-law equivalence
# ---------------------------------------------------------------------------

def test_criterion_5_gradient_equivalence(cones7):
    worst = 0.0
    rng = np.random.default_rng(50)
    setups = []
    params7 = ConicControllerParams(k1=cones7.k1,
                                    epsilon=cones7.resolved_epsilon(),
                                    x_d=cones7.target)
    setups.append((cones7.arrangement, params7,
                   ConicGradientController(cones7.arrangement, params7)))
    arr2, ctrl2 = _plain_cap_controller(2.0)
    setups.append((arr2, ctrl2.params, ctrl2))
    for arr, params, ctrl in setups:
        tested = 0
        while tested < 1000:
            x = geo.sample_uniform_many(3, 1, rng)[0]
            if ctrl.signed_union_margin(x) <= 1e-3:
                continue
            ua = ctrl.control(x)[0]
            uf = conic_control_fd(x, arr, params)
            pa = ua - (x @ ua) * x
            pf = uf - (x @ uf) * x
            rel = np.linalg.norm(pa - pf) / max(np.linalg.norm(pf), 1e-30)
            worst = max(worst, rel)
            tested += 1
    ok = worst < 1e-4
    assert report("5", ok,
                  f"worst projected relative error over 1000 points x 2 "
                  f"arrangements: {worst:.2e}")


# ---------------------------------------------------------------------------
# 6. alignment-vector identity suite
# ---------------------------------------------------------------------------

def test_criterion_6_alignment_identities(star4, star1):
    rng = np.random.default_rng(60)
    worst_orth = 0.0
    min_pos = np.inf
    checked_pos = 0
    cases = [(star4.target.coords, g.coords, 2)
             for g in star4.arrangement.kernels]
    cases += [(star1.target.coords, g.coords, 3)
              for g in star1.arrangement.kernels]
    for xd, g, n in cases:
        arcs = []
        for a, b in ((g, -xd), (-g, -xd), (g, xd), (-g, xd)):
            if a @ b > -1 + 1e-9:
                lams = np.linspace(0.0, 1.0, 2048)
                arcs.append(geo.slerp_many(UnitPoint(a), UnitPoint(b), lams))
        arc_pts = np.vstack(arcs)
        pts = geo.sample_uniform_many(n, 10_000, rng)
        for x in pts:
            if abs(x @ g) > 1 - 1e-9:
                continue
            w = alignment_descent_vector(x, xd, g)
            pg = g - (x @ g) * x
            worst_orth = max(worst_orth, abs(float(w @ pg)))
            arc_d = 1.0 - float((arc_pts @ x).max())
            if arc_d > 1e-3:
                pxd = xd - (x @ xd) * x
                val = float(w @ pxd)
                min_pos = min(min_pos, val)
                checked_pos += 1
    ok = worst_orth < 1e-10 and min_pos > 0.0
    assert report(
        "6", ok,
        f"max |w.P(x)g| = {worst_orth:.2e} over 5x10^4 points; min "
        f"w.P(x)x_d = {min_pos:.2e} over {checked_pos} off-arc points")


# ---------------------------------------------------------------------------
# 7. geodesic oracles
# ---------------------------------------------------------------------------

def test_criterion_7_reverse_geodesic_and_projected_chords(cones7, star4, star1):
    rng = np.random.default_rng(70)
    lams = np.linspace(0.0, 1.0, 65)
    violations = 0
    checked = 0
    for sc in (cones7, star4, star1):
        arr = sc.arrangement
        for s, g in zip(arr.sets, arr.kernels):
            boundary = s.boundary_samples(200, rng)
            for x in boundary:
                xb = geo.normalize(x)
                if xb.dot(-g.coords) <= -1 + 1e-12:
                    continue
                pts = geo.slerp_many(xb, g.antipode(), lams)
                for p in pts:
                    checked += 1
                    if s.contains_interior(p, tol=1e-9):
                        violations += 1
    chord_worst = 0.0
    bodies = [star1.arrangement.sets[0], star4.arrangement.sets[0]]
    for shape in bodies:
        amb = shape.cache_ambient
        for _ in range(100):
            i, j = rng.choice(amb.shape[0], size=2, replace=False)
            a, b = amb[i], amb[j]
            ga, gb = geo.normalize(a), geo.normalize(b)
            if ga.dot(gb) <= -1 + 1e-9:
                continue
            seg = geo.arc(ga, gb)
            for lam in np.linspace(0.0, 1.0, 50):
                p = geo.normalize((1 - lam) * a + lam * b)
                chord_worst = max(chord_worst, geo.distance_to_arc(p, seg))
    ok = violations == 0 and chord_worst < 1e-9
    assert report(
        "7", ok,
        f"reverse-geodesic interior entries: {violations}/{checked}; worst "
        f"projected-chord deviation {chord_worst:.2e} over 2x100 chords")


# ---------------------------------------------------------------------------
# 8. band-angle monotonicity monitor
# ---------------------------------------------------------------------------

def test_criterion_8_vdot_monitor(star4_run, star1_run, star1_feasible_run):
    # a boundary margin below each scenario's band width keeps its band rows
    # in scope, so every scenario contributes checked slopes; it stays at the
    # default 1e-2 where that is already below the band width
    checked = []
    total_violations = 0
    for run in (star4_run, star1_run, star1_feasible_run):
        margin = min(1e-2, 0.2 * run.controller.params.epsilon)
        checked.append(0)
        for traj in run.trajectories:
            rep = check_vdot_positive(traj, run.controller, boundary_margin=margin)
            checked[-1] += rep.checked
            total_violations += len(rep.violations)
    ok = total_violations == 0 and min(checked) > 0
    assert report(
        "8", ok,
        f"{total_violations} violations over {sum(checked)} in-scope "
        f"segment slopes {checked} (s2_star4, s3_star1, s3_star1_eps005; "
        f"slope floor -1e-6)")


# ---------------------------------------------------------------------------
# 9. distance-oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_9_distance_oracles():
    rng = np.random.default_rng(90)
    worst_raw = worst_refined = 0.0
    tested = 0
    while tested < 1000:
        g = geo.sample_uniform_many(2, 1, rng)[0]
        c = ConicCap(UnitPoint(g), rng.uniform(0.3, 1.0))
        x = geo.sample_uniform_many(2, 1, rng)[0]
        if c.contains(x):
            continue
        analytic = c.distance(x)
        worst_raw = max(worst_raw,
                        abs(analytic - cap_distance_oracle(x, c, rng)))
        worst_refined = max(worst_refined,
                            abs(analytic - cap_distance_oracle(x, c, rng,
                                                               refine=30)))
        tested += 1
    worst_star = 0.0
    for center_seed, radius in ((21, 0.15), (22, 0.3), (23, 0.5)):
        center = geo.sample_uniform(3, center_seed).coords
        shape = disc_shape(center, radius, resolution=2048)
        equivalent = ConicCap(UnitPoint(center), np.arctan(radius))
        for _ in range(100):
            x = geo.sample_uniform_many(3, 1, rng)[0]
            worst_star = max(worst_star,
                             abs(shape.distance(x) - equivalent.distance(x)))
    ok = worst_raw <= 1e-3 and worst_refined <= 1e-6 and worst_star <= 1e-4
    assert report(
        "9", ok,
        f"cap vs sampling: raw {worst_raw:.2e} (<=1e-3), refined "
        f"{worst_refined:.2e} (<=1e-6); star vs cap on degenerate bodies: "
        f"{worst_star:.2e} (<=1e-4)")
