"""Closed-loop integration of x' = P(x) u(x) on S^n, with monitors.

The integrator is a fixed-step classical 4th-order scheme with per-step
renormalization: the field is only locally Lipschitz at the band edges, so
high-order adaptivity buys little, and a fixed step keeps runs reproducible
byte for byte.  Early termination fires when d_s(x, x_d) < 1e-8.

A trajectory records, per logged step: the state, the raw control, the
distance to the target, the signed distance to the unsafe union (negative
means penetration), the active constraint index, and the band-angle cosine
diagnostic for the active constraint.  A log row is the state's own law
evaluation, which is also the first RK4 stage of the step from that state,
so every state is evaluated once and the states do not depend on the log
stride.  An aborted run's last row has u = 0 and no band.
"""

from __future__ import annotations

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


def integrate(x0, controller: Controller, cfg: SimConfig) -> Trajectory:
    """Fixed-step RK4 run from x0 until convergence, T, or an abort condition."""
    x = coords_of(x0).astype(float).copy()
    x /= np.linalg.norm(x)
    dt = cfg.dt
    n_steps = int(round(cfg.T / dt))
    # each run starts from a clean ascent cache, so a trajectory is a pure
    # function of (x0, controller configuration, cfg)
    reset = getattr(controller, "reset_eval_cache", None)
    if reset is not None:
        reset()

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
                        slope_floor: float = -1e-6,
                        arc_grid: int = 2048) -> VdotReport:
    """Finite-difference slope of the band-angle cosine on in-scope segments.

    Scope: consecutive records sharing the same active constraint, both
    farther than `boundary_margin` from the region and farther than
    `arc_margin` from the four degenerate reference arcs (kernel and its
    antipode joined to the target and its antipode).
    """
    x_d = UnitPoint(controller.x_d)
    arc_pts: dict[int, np.ndarray] = {}

    def arcs_for(i: int) -> np.ndarray:
        if i not in arc_pts:
            g = controller.arr.kernels[i]
            lams = np.linspace(0.0, 1.0, arc_grid)
            mats = []
            for a, b in ((g, x_d.antipode()), (g.antipode(), x_d.antipode()),
                         (g, x_d), (g.antipode(), x_d)):
                if a.dot(b) <= -1.0 + 1e-12:
                    continue
                mats.append(geo.slerp_many(a, b, lams))
            arc_pts[i] = np.vstack(mats)
        return arc_pts[i]

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
        pts = arcs_for(i)
        d_arc0 = 1.0 - float((pts @ traj.x[k]).max())
        d_arc1 = 1.0 - float((pts @ traj.x[k + 1]).max())
        if d_arc0 <= arc_margin or d_arc1 <= arc_margin:
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
    d = controller.distance_profile(xc)
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

    Algebraically identical to :func:`integrate`; the two stay within
    roundoff of each other, which the tests pin at 1e-9.
    """
    if coords_of(x0).size != 4:
        raise DimensionMismatch("quaternion integration requires S^3")
    return integrate(x0, _QuaternionField(controller), cfg)
