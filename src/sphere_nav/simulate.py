"""Closed-loop integration of x' = P(x) u(x) on S^n, with monitors.

Runs advance on a fixed time grid (dt), which keeps them reproducible byte
for byte.  Early termination fires when d_s(x, x_d) < 1e-8.

Near bands the integrator takes classical 4th-order steps with per-step
renormalization: the field is only locally Lipschitz at the band edges, so
high-order adaptivity buys little.  Away from every band both laws move the
state along the geodesic to x_d on a clock of theta = angle(x, x_d) alone
(the laws' `far_field_clock`), and the integrator follows that exact flow
instead, across the discontinuities of the right-hand side rather than
through them: from a grid state where the law returns no band it jumps
ahead to one step before the last grid time preceding the first point where
the geodesic enters an eps-dilated cell cap of some region (the rows of the
arrangement's `band_screen`, entered where `screen_entry` solves) or
reaches the convergence angle (or to T, if that comes first), and RK4 takes
over there, so no RK4 stage of a skipped step could have met a band.  Each
state on such a stretch is computed from the stretch's first state, so no
state depends on which others are computed.

A trajectory records, per logged step: the state, the raw control, the
distance to the target, the signed distance to the unsafe union (negative
means penetration), the active constraint index, and the band-angle cosine
diagnostic for the active constraint.  A log row is the state's own law
evaluation, which is also the first RK4 stage of the step from that state,
so every state is evaluated once and the states do not depend on the log
stride.  An aborted run's last row has u = 0 and no band.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from .controllers import ConicGradientController, StarPiecewiseController
from .errors import (
    DegenerateProjection,
    DimensionMismatch,
    InsideUnsafe,
    MultipleActiveConstraints,
    NonSmoothNeighborhood,
)
from .geometry import UnitPoint, coords_of

CONVERGENCE_TOL = 1e-8    # d_s(x, x_d) below this terminates a run
SAFETY_FLOOR = -1e-9      # accepted runs keep the signed margin above this
THETA_CONVERGED = math.acos(1.0 - CONVERGENCE_TOL)

Controller = ConicGradientController | StarPiecewiseController


@dataclass(frozen=True)
class SimConfig:
    dt: float = 1e-3
    T: float = 30.0
    log_stride: int = 1

    def __post_init__(self):
        if not 0 < self.dt <= self.T < float("inf"):  # NaN fails too
            raise ValueError("need finite dt and T with 0 < dt <= T")
        if self.log_stride < 1:
            raise ValueError("log stride must be >= 1")


@dataclass(frozen=True)
class TrajectoryRecord:
    t: float
    x: np.ndarray
    u: np.ndarray
    d_target: float
    d_unsafe: float
    active_i: int | None
    V_active: float | None


class Trajectory:
    """Time-ordered log of a single closed-loop run."""

    def __init__(self, t, x, u, d_target, d_unsafe, active, v_active,
                 verdict: str, note: str = ""):
        self.t = np.asarray(t, dtype=float)
        self.x = np.asarray(x, dtype=float)
        self.u = np.asarray(u, dtype=float)
        self.d_target = np.asarray(d_target, dtype=float)
        self.d_unsafe = np.asarray(d_unsafe, dtype=float)
        self.active = np.asarray(active, dtype=int)     # -1 means no band
        self.v_active = np.asarray(v_active, dtype=float)  # nan means no band
        self.verdict = verdict
        self.note = note

    def __len__(self) -> int:
        return self.t.size

    @property
    def records(self) -> list[TrajectoryRecord]:
        out = []
        for k in range(len(self)):
            a = int(self.active[k])
            out.append(TrajectoryRecord(
                t=float(self.t[k]), x=self.x[k], u=self.u[k],
                d_target=float(self.d_target[k]),
                d_unsafe=float(self.d_unsafe[k]),
                active_i=None if a < 0 else a,
                V_active=None if np.isnan(self.v_active[k]) else float(self.v_active[k]),
            ))
        return out

    @property
    def final_state(self) -> np.ndarray:
        return self.x[-1]

    @property
    def converged(self) -> bool:
        return self.verdict == "converged"

    @property
    def min_margin(self) -> float:
        return float(self.d_unsafe.min()) if len(self) else float("nan")

    @property
    def safe(self) -> bool:
        return self.min_margin >= SAFETY_FLOOR

    @property
    def time_converged(self) -> float | None:
        if not self.converged:
            return None
        return float(self.t[-1])


def closed_loop_field(x, controller: Controller) -> geo.TangentVector:
    """Tangential closed-loop velocity P(x) u(x), attached at x."""
    xc = coords_of(x)
    u, _ = controller.control(xc)
    return geo.project_to_tangent(xc, u)


def lyapunov_alignment(x, x_d, g) -> float:
    """Cosine of the angle between P(g)(x - g) and P(g)(x_d - g).

    Equals +1 exactly on the arcs through the target, -1 on the arcs through
    its antipode; the band dynamics strictly increase it in between.
    """
    xc, xd, gc = coords_of(x), coords_of(x_d), coords_of(g)
    px = xc - (gc @ xc) * gc
    pxd = xd - (gc @ xd) * gc
    npx = float(np.linalg.norm(px))
    npxd = float(np.linalg.norm(pxd))
    if npx < 1e-10 or npxd < 1e-10:
        raise DegenerateProjection(
            "state or target projects to zero in the kernel tangent plane")
    return float(pxd @ px) / (npx * npxd)


class _FarField:
    """The exact far-field flow of a law, along the geodesic to x_d.

    Where the law returns no band, x(v) = -tanh(v) x_d + sech(v) w with w the
    unit direction of x - (x.x_d) x_d and v = ln tan(theta/2), and the run
    takes tau(v0) - tau(v) to go from v0 to v, tau being the law's
    `far_field_clock`.  The flow leaves the far field no earlier than where
    the geodesic enters the eps-dilated cap of a cell: exactly the band for a
    cap region, and a cover of the band near the cell's piece of boundary
    for a star region (the geodesic meets the boundary before the interior).
    The caps are the rows of the arrangement's `band_screen`, and
    `screen_entry` alone solves for the entry: a state inside a row enters it
    at its own angle, so it plans no step.
    """

    def __init__(self, controller: Controller):
        self.clock = controller.far_field_clock
        self.x_d = controller.x_d
        self.arr, self.eps = controller.arr, controller.params.epsilon

    def plan(self, x: np.ndarray, dt: float, steps_left: int):
        """(m, flow): RK4 may resume m grid steps on, at flow(m * dt).

        m is one step short of the last grid time before the geodesic enters
        a dilated cell cap or the convergence angle, and at most steps_left;
        it is 0 when x lies in a dilated cell cap, where the entry solve
        returns x's own angle.  One closed-form entry solve covers all caps.
        flow(tau) is the state tau after x, computed from x alone.
        """
        c = float(x @ self.x_d)
        r = x - c * self.x_d
        s = float(np.linalg.norm(r))
        if s == 0.0:
            # the law found no band and the far field vanishes: a fixed point
            return steps_left, lambda tau: x.copy()
        w = r / s
        theta0 = math.atan2(s, c)
        v0 = math.log(s / (1.0 + c)) if c >= 0.0 else math.log((1.0 - c) / s)
        theta = max(THETA_CONVERGED, self.arr.screen_entry(self.x_d, w, theta0, self.eps))
        x_d, clock = self.x_d, self.clock
        tau0 = clock(v0)[0]
        t_stop = tau0 - clock(math.log(math.tan(0.5 * theta)))[0]
        m = min(steps_left, math.ceil(t_stop / dt) - 2)
        if m < 1:
            return 0, None

        def flow(tau):
            # Newton on tau(v) = tau0 - tau from v0: tau is convex and
            # increasing, so the iterates fall monotonically to the root
            v = v0
            for _ in range(100):
                value, slope = clock(v)
                step = (value - (tau0 - tau)) / slope
                v -= step
                if abs(step) <= 1e-15 * max(1.0, abs(v)):
                    break
            e = math.exp(-abs(v))
            y = -math.tanh(v) * x_d + (2.0 * e / (1.0 + e * e)) * w
            return y / np.linalg.norm(y)

        return m, flow


def integrate(x0, controller: Controller, cfg: SimConfig) -> Trajectory:
    """Run from x0 on the dt grid until convergence, T, or an abort condition.

    From a grid state where the law returns no band the run follows the
    law's exact far-field flow (when the law has a `far_field_clock`) up to
    one step short of the next dilated cell cap, the convergence angle or T,
    evaluating the law only at the logged rows; everywhere else it takes
    classical RK4 steps.
    """
    x = coords_of(x0).astype(float).copy()
    x /= np.linalg.norm(x)
    dt = cfg.dt
    n_steps = int(round(cfg.T / dt))
    far = _FarField(controller) \
        if getattr(controller, "far_field_clock", None) is not None else None

    ts, xs, us = [], [], []
    dts_, duns, acts, vs = [], [], [], []

    def log(t, x, u, i):
        v = np.nan
        if i is not None:
            try:
                v = lyapunov_alignment(x, controller.x_d, controller.arr.kernels[i])
            except DegenerateProjection:
                pass
        ts.append(t); xs.append(x.copy()); us.append(u.copy())
        dts_.append(1.0 - float(x @ controller.x_d))
        duns.append(controller.signed_union_margin(x))
        acts.append(-1 if i is None else i); vs.append(v)

    def finish(verdict, note=""):
        return Trajectory(ts, xs, us, dts_, duns, acts, vs, verdict, note)

    if controller.signed_union_margin(x) < -1e-12:
        log(0.0, x, np.zeros_like(x), None)
        return finish("aborted", "start inside the unsafe region")

    def f(y):
        # stage points are radially projected before evaluating the law, so
        # every control query sees an on-sphere state
        y = y / np.linalg.norm(y)
        u, i = controller.control(y)
        return u - (y @ u) * y, u, i

    t, k = 0.0, 0
    try:
        while True:
            # the state's one law evaluation: its log row and the first stage
            k1, u, i = f(x)
            done = 1.0 - float(x @ controller.x_d) < CONVERGENCE_TOL
            if k % cfg.log_stride == 0 or done or k == n_steps:
                log(t, x, u, i)
            if done:
                return finish("converged")
            if k == n_steps:
                return finish("max_time")
            if i is None and far is not None:
                m, flow = far.plan(x, dt, n_steps - k)
                if m:
                    for j in range(k + 1, k + m):
                        if j % cfg.log_stride == 0:
                            y = flow((j - k) * dt)
                            log(j * dt, y, *f(y)[1:])
                    x = flow(m * dt)
                    k += m
                    t = k * dt
                    continue
            k2 = f(x + 0.5 * dt * k1)[0]
            k3 = f(x + 0.5 * dt * k2)[0]
            k4 = f(x + dt * k3)[0]
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            x /= np.linalg.norm(x)
            k += 1
            t = k * dt
            if not np.isfinite(x @ controller.x_d):
                return finish("aborted", "non-finite state")
    except InsideUnsafe as exc:
        log(t, x, np.zeros_like(x), None)
        return finish("aborted", f"entered the unsafe interior: {exc}")
    except MultipleActiveConstraints as exc:
        log(t, x, np.zeros_like(x), None)
        return finish("aborted", f"band uniqueness violated: {exc}")


def monitor_safety(traj: Trajectory) -> float:
    """Smallest signed margin to the unsafe union along the run."""
    if len(traj) == 0:
        raise ValueError("empty trajectory")
    return traj.min_margin


# ---------------------------------------------------------------------------
# band-angle monotonicity monitor
# ---------------------------------------------------------------------------

@dataclass
class VdotViolation:
    t: float
    index: int
    slope: float
    x: np.ndarray


@dataclass
class VdotReport:
    ok: bool
    checked: int
    violations: list[VdotViolation] = field(default_factory=list)


def check_vdot_positive(traj: Trajectory, controller: Controller,
                        boundary_margin: float = 1e-2,
                        arc_margin: float = 1e-2,
                        slope_floor: float = -1e-6) -> VdotReport:
    """Finite-difference slope of the band-angle cosine on in-scope segments.

    Scope: consecutive records sharing the same active constraint, both
    farther than `boundary_margin` from the region and farther than
    `arc_margin` from the four degenerate reference arcs (kernel and its
    antipode joined to the target and its antipode), measured in closed form.
    """
    x_d = UnitPoint(controller.x_d)
    z_d = x_d.antipode()
    arcs = [[geo.arc(a, b) for a, b in ((g, z_d), (g.antipode(), z_d),
                                        (g, x_d), (g.antipode(), x_d))
             if a.dot(b) > -1.0 + geo.ANTIPODE_DOT_TOL]
            for g in controller.arr.kernels]

    checked = 0
    violations: list[VdotViolation] = []
    active = traj.active
    for k in range(len(traj) - 1):
        i = int(active[k])
        if i < 0 or int(active[k + 1]) != i:
            continue
        if np.isnan(traj.v_active[k]) or np.isnan(traj.v_active[k + 1]):
            continue
        if traj.d_unsafe[k] <= boundary_margin or traj.d_unsafe[k + 1] <= boundary_margin:
            continue
        if min(geo.distance_to_arc(y, seg)
               for y in traj.x[k:k + 2] for seg in arcs[i]) <= arc_margin:
            continue
        dt = float(traj.t[k + 1] - traj.t[k])
        if dt <= 0:
            continue
        slope = (float(traj.v_active[k + 1]) - float(traj.v_active[k])) / dt
        checked += 1
        if slope <= slope_floor:
            violations.append(VdotViolation(float(traj.t[k]), i, slope,
                                            traj.x[k]))
    return VdotReport(ok=not violations, checked=checked, violations=violations)


# ---------------------------------------------------------------------------
# finite-difference Jacobian and spectra
# ---------------------------------------------------------------------------

@dataclass
class JacobianSpectrum:
    matrix: np.ndarray
    eig_ambient: np.ndarray
    eig_tangent: np.ndarray


def jacobian_fd(x, controller: Controller, step: float = 1e-5) -> JacobianSpectrum:
    """Central-difference Jacobian of the ambient closed-loop field at x.

    Refuses points within ~10 steps of a band edge or the region boundary
    (the law has a curvature kink there and the stencil would straddle it).
    Eigenvalues are reported both for the ambient matrix and restricted to
    the tangent subspace at x.
    """
    xc = coords_of(x).astype(float)
    d = np.maximum(controller.arr.signed_margins(xc), 0.0)
    eps = controller.params.epsilon
    guard = 10.0 * step
    if np.any(np.abs(d - eps) < guard) or np.any(d < guard):
        raise NonSmoothNeighborhood(
            "state is within the finite-difference guard of a control kink")

    def ffield(y):
        u, _ = controller.control(y)
        return u - (y @ u) * y

    m = xc.size
    J = np.zeros((m, m))
    for j in range(m):
        xp = xc.copy(); xp[j] += step
        xm = xc.copy(); xm[j] -= step
        J[:, j] = (ffield(xp) - ffield(xm)) / (2.0 * step)
    eig_ambient = np.sort_complex(np.linalg.eigvals(J))
    B = geo.tangent_basis(xc)
    eig_tangent = np.sort_complex(np.linalg.eigvals(B.T @ J @ B))
    return JacobianSpectrum(J, eig_ambient, eig_tangent)


# ---------------------------------------------------------------------------
# quaternion attitude adapter (S^3 only)
# ---------------------------------------------------------------------------

def attitude_kinematics_matrix(x) -> np.ndarray:
    """A(x) with x = (eta, q): first row -q^T, then eta*I3 + [q]_x.

    Satisfies A^T A = I3 and A A^T = P(x) on S^3, so x' = (1/2) A omega
    reproduces the tangential closed loop exactly.
    """
    xc = coords_of(x)
    if xc.size != 4:
        raise DimensionMismatch("attitude kinematics requires a point on S^3")
    eta, q = xc[0], xc[1:]
    skew = np.array([[0.0, -q[2], q[1]],
                     [q[2], 0.0, -q[0]],
                     [-q[1], q[0], 0.0]])
    return np.vstack([-q, eta * np.eye(3) + skew])


def quaternion_adapter(x, u) -> np.ndarray:
    """Angular-velocity command omega = 2 A(x)^T u realizing P(x) u."""
    A = attitude_kinematics_matrix(x)
    return 2.0 * (A.T @ coords_of(u))


class _QuaternionField:
    """Wraps a controller so the integrator steps x' = (1/2) A(x) omega."""

    def __init__(self, controller: Controller):
        self._inner = controller

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def control(self, x):
        # called on unit states; A A^T there equals the tangent projector, so
        # the integrator's own projection perturbs this by roundoff only
        xc = coords_of(x)
        A = attitude_kinematics_matrix(xc)
        u, i = self._inner.control(xc)
        omega = 2.0 * (A.T @ u)
        return 0.5 * (A @ omega), i


def integrate_quaternion(x0, controller: Controller, cfg: SimConfig) -> Trajectory:
    """Integrate the S^3 loop through the angular-velocity parameterization.

    In the bands the field (1/2) A A^T u equals P(x) u up to roundoff, and
    the far field follows the inner law's exact flow (its
    `far_field_clock`, forwarded by the wrapper), so the run stays within
    roundoff of :func:`integrate`, which the tests pin at 1e-9.
    """
    if coords_of(x0).size != 4:
        raise DimensionMismatch("quaternion integration requires S^3")
    return integrate(x0, _QuaternionField(controller), cfg)
