"""Feedback laws for safe stabilization on the sphere.

Two laws are provided.  The conic-gradient law is the negative ambient
gradient of the navigation value

    W(x) = k1 * d_t / (d_t + beta(x)),      d_t = d_s(x, x_d),

where beta blends to zero through a cubic smoothstep of the distance to the
nearest cap.  The star-piecewise law is

    u = k1 * [ (d_i/eps) x_d - (1/kappa)(1 - d_i/eps) g_i ]

inside the band of width eps around constraint i, and k1 * x_d elsewhere;
g_i is the validated kernel point of constraint i.

Each law's `control(x)` returns the input u and the active band index (None
in the far field) from the arrangement's one band search (`band`), and is a
pure function of (state, arrangement, parameters).  That search screens with
the bounding caps, reads a cap's margin from its bound (`exact_bound`),
queries a star region's refined distance only where its bounding cap is
within eps, and applies the penetration and uniqueness rules for both laws.
Each law's `signed_union_margin(x)` is the smallest signed margin over the
regions, which `simulate.integrate` logs and checks at every logged row: the
conic law reads it from the bounding caps, the star law from the
arrangement's `union_margin`, which the parser, the validator and the
diagnostics read as well.  Both laws evaluate on ambient points near (not
exactly on) the sphere so that central finite differences of W are well
defined; the analytic conic law is the exact gradient of that ambient
extension, which the FD oracle checks.

Away from every band both laws steer the state along the geodesic to x_d at
a speed that depends only on theta = angle(x, x_d): the conic law gives
theta' = -k1 sin(theta)/(2 - cos(theta))^2 and the star law theta' =
-k1 sin(theta).  Each law states that flow as its `far_field_clock(v)` in
v = ln tan(theta/2): the far field takes tau(v0) - tau(v) to carry a state
from v0 to v, with k1 tau(v) = 5v + 4 ln cosh v - tanh v for the conic law
and k1 tau(v) = v for the star law.  `simulate.integrate` uses it to cross
band-free stretches in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .constraints import BAND_SLACK, ConstraintArrangement
from .errors import (
    DomainError,
    KernelAntipodalToTarget,
    TooCloseToBoundary,
)
from .geometry import UnitPoint, coords_of

KAPPA_ARC_GRID = 2048     # steps along each reference arc in suggest_kappa


def smoothstep(p: float, eps: float) -> tuple[float, float]:
    """Cubic blend (p^3 - 3 eps p^2 + 3 eps^2 p)/eps^3 and its derivative.

    Strictly increasing on [0, eps] with value 0 -> 1, derivative
    3(p - eps)^2 / eps^3, and vanishing first and second derivative at eps.
    """
    if not -1e-15 <= p <= eps + 1e-15:
        raise DomainError(f"smoothstep argument {p} outside [0, {eps}]")
    p = min(max(p, 0.0), eps)
    value = (p ** 3 - 3.0 * eps * p ** 2 + 3.0 * eps ** 2 * p) / eps ** 3
    deriv = 3.0 * (p - eps) ** 2 / eps ** 3
    return value, deriv


@dataclass(frozen=True)
class ConicControllerParams:
    k1: float
    epsilon: float
    x_d: UnitPoint

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.k1, self.epsilon)):
            raise DomainError("gain and band width must be positive and finite")
        if not isinstance(self.x_d, UnitPoint):
            object.__setattr__(self, "x_d", UnitPoint(coords_of(self.x_d)))


@dataclass(frozen=True)
class StarControllerParams:
    k1: float
    kappa: float
    epsilon: float
    x_d: UnitPoint

    def __post_init__(self):
        if not all(0 < v < np.inf for v in (self.k1, self.kappa, self.epsilon)):
            raise DomainError("gains and band width must be positive and finite")
        if not isinstance(self.x_d, UnitPoint):
            object.__setattr__(self, "x_d", UnitPoint(coords_of(self.x_d)))


class ConicGradientController:
    """Negative-gradient law for arrangements made solely of spherical caps."""

    def __init__(self, arr: ConstraintArrangement, params: ConicControllerParams):
        if not all(s.exact_bound for s in arr.sets):
            raise DomainError(
                "the conic-gradient law is restricted to cap arrangements; "
                "use the star-piecewise law for projected star shapes")
        self.arr = arr
        self.params = params
        self.x_d = params.x_d.coords

    def _band(self, x: np.ndarray):
        """(beta, beta_prime_scaled, active index) at x; far field gives (1, 0, None)."""
        i, d_i = self.arr.band(x, self.params.epsilon)
        if i is None:
            return 1.0, 0.0, None
        beta, dbeta = smoothstep(d_i, self.params.epsilon)
        theta = float(np.arccos(np.clip(self.arr.bound_centers[i] @ x, -1.0, 1.0)))
        # chain factor from grad_x [1 - cos(theta - xi)] along -g_i
        chain = np.sin(theta - self.arr.bound_reaches[i]) / max(np.sin(theta), 1e-300)
        return beta, dbeta * chain, i

    def navigation_value(self, x) -> float:
        xc = coords_of(x)
        beta, _, _ = self._band(xc)
        d_t = 1.0 - float(xc @ self.x_d)
        return self.params.k1 * d_t / (d_t + beta)

    def control(self, x) -> tuple[np.ndarray, int | None]:
        """(u, active band index); the index is None in the far field."""
        xc = coords_of(x)
        k1 = self.params.k1
        beta, beta_p, i = self._band(xc)
        d_t = 1.0 - float(xc @ self.x_d)
        if i is None:
            return (k1 / (1.0 + d_t) ** 2) * self.x_d, None
        scale = k1 / (beta + d_t) ** 2
        return scale * (beta * self.x_d - d_t * beta_p * self.arr.bound_centers[i]), i

    def signed_union_margin(self, x) -> float:
        return float(self.arr.bound_margins(coords_of(x)).min())

    def far_field_clock(self, v: float) -> tuple[float, float]:
        """(tau(v), tau'(v)) with k1 tau(v) = 5v + 4 ln cosh v - tanh v.

        With v = ln tan(theta/2), cos(theta) = -tanh(v), the far field
        theta' = -k1 sin(theta)/(2 - cos(theta))^2 reads v' = -k1/(2 + tanh v)^2,
        so tau'(v) = (2 + tanh v)^2 / k1 lies in [1/k1, 9/k1] and tau is convex.
        """
        a = abs(v)
        th = math.tanh(v)
        ln_cosh = a + math.log1p(math.exp(-2.0 * a)) - math.log(2.0)
        k1 = self.params.k1
        return (5.0 * v + 4.0 * ln_cosh - th) / k1, (2.0 + th) ** 2 / k1


class StarPiecewiseController:
    """Piecewise attractive/repulsive law for star-shaped (or cap) regions."""

    def __init__(self, arr: ConstraintArrangement, params: StarControllerParams):
        self.arr = arr
        self.params = params
        self.x_d = params.x_d.coords
        for g in arr.kernels:
            if g.dot(params.x_d) <= -1.0 + 1e-12:
                raise KernelAntipodalToTarget(
                    "kernel point antipodal to the target")
        self.kernels = np.array([g.coords for g in arr.kernels])

    def control(self, x) -> tuple[np.ndarray, int | None]:
        """(u, active band index); the index is None in the far field."""
        xc = coords_of(x)
        k1 = self.params.k1
        i, d_i = self.arr.band(xc, self.params.epsilon)
        if i is None:
            return k1 * self.x_d, None
        w = d_i / self.params.epsilon
        return k1 * (w * self.x_d - (1.0 / self.params.kappa) * (1.0 - w)
                     * self.kernels[i]), i

    def far_field_clock(self, v: float) -> tuple[float, float]:
        """(tau(v), tau'(v)) with k1 tau(v) = v: theta' = -k1 sin(theta) reads v' = -k1."""
        k1 = self.params.k1
        return v / k1, 1.0 / k1

    def signed_union_margin(self, x) -> float:
        """Smallest signed margin over the regions (`union_margin`)."""
        return self.arr.union_margin(x)


# ---------------------------------------------------------------------------
# finite-difference oracle
# ---------------------------------------------------------------------------

def conic_control_fd(x, arr: ConstraintArrangement,
                     params: ConicControllerParams,
                     step: float = 1e-6) -> np.ndarray:
    """Central-difference negative gradient of W; the oracle for the conic law."""
    ctrl = ConicGradientController(arr, params)
    xc = coords_of(x).copy()
    if ctrl.signed_union_margin(xc) <= step:
        raise TooCloseToBoundary(
            "finite-difference stencil would reach the unsafe boundary")
    grad = np.zeros_like(xc)
    for j in range(xc.size):
        xp = xc.copy(); xp[j] += step
        xm = xc.copy(); xm[j] -= step
        grad[j] = (ctrl.navigation_value(xp) - ctrl.navigation_value(xm)) / (2 * step)
    return -grad


def alignment_descent_vector(x, x_d, g) -> np.ndarray:
    """w(x) = ||P(g)x||^2 P(g)x_d - (x_d . P(g)x) P(g)x.

    Orthogonal to P(x)g everywhere, and positively aligned with P(x)x_d away
    from the degenerate arcs; this drives the band-angle monotonicity.
    """
    xc, xd, gc = coords_of(x), coords_of(x_d), coords_of(g)
    px = xc - (gc @ xc) * gc
    pxd = xd - (gc @ xd) * gc
    return float(px @ px) * pxd - float(pxd @ px) * px


@dataclass
class KappaPerSet:
    index: int
    kappa: float
    mu1: float
    mu2: float


@dataclass
class KappaSuggestion:
    kappa_bar: float
    recommended: float
    per_set: list[KappaPerSet]


def suggest_kappa(arr: ConstraintArrangement, x_d, epsilon: float) -> KappaSuggestion:
    """Repulsion-gain bound from the reference arcs target -> kernel antipode.

    For each constraint, samples the arc from x_d to -g_i and refines the
    distance at the samples the band screen keeps (`_arc_kept`).  Over the
    portion of the arc inside the band (if any): mu1 is the smallest distance
    to the region, mu2 the smallest tangential speed toward the target; the
    per-set bound is max(0, eps - mu1)/(mu1 * mu2).  Arcs that miss the band
    contribute zero.  The recommendation is 1.1 * max_i bound, floored at 1e-3.
    """
    xd = UnitPoint(coords_of(x_d))
    lams = np.linspace(0.0, 1.0, KAPPA_ARC_GRID + 1)
    centers, cos_reach, owner = arr.band_screen(epsilon)
    # a cell cap lies in its region's bounding cap: only points in that cap,
    # dilated like the band screen (+1e-6 over arccos rounding), can be kept
    reach = arr.bound_reaches + math.acos(max(1.0 - epsilon - BAND_SLACK, -1.0)) + 1e-6
    cos_near = np.where(reach < np.pi, np.cos(reach), -np.inf)
    per: list[KappaPerSet] = []
    for i, s in enumerate(arr.sets):
        g = arr.kernels[i]
        if g.dot(xd) <= -1.0 + 1e-12:
            raise KernelAntipodalToTarget(f"kernel {i} is antipodal to the target")
        pts = geo.slerp_many(xd, g.antipode(), lams)
        d = np.full(len(pts), np.inf)
        near = np.flatnonzero(pts @ arr.bound_centers[i] >= cos_near[i])
        if near.size:
            rows = owner == i
            near = near[_arc_kept(centers[rows], cos_reach[rows], xd.coords, -g.coords)[near]]
        for j in near:
            d[j] = s.distance(pts[j])
        mask = d <= epsilon
        if not mask.any():
            per.append(KappaPerSet(i, 0.0, float("nan"), float("nan")))
            continue
        mu1 = float(d[mask].min())
        tang = np.sqrt(np.maximum(0.0, 1.0 - (pts[mask] @ xd.coords) ** 2))
        mu2 = float(tang.min())
        if mu1 <= 0.0 or mu2 <= 1e-12:
            kappa_i = float("inf")
        else:
            kappa_i = max(0.0, epsilon - mu1) / (mu1 * mu2)
        per.append(KappaPerSet(i, kappa_i, mu1, mu2))
    kappa_bar = max((p.kappa for p in per), default=0.0)
    recommended = max(1.1 * kappa_bar, 1e-3)
    return KappaSuggestion(kappa_bar, recommended, per)


def _arc_kept(centers: np.ndarray, cos_reach: np.ndarray, a: np.ndarray,
              b: np.ndarray) -> np.ndarray:
    """Do the points t_j = j theta / KAPPA_ARC_GRID of the arc from a to b lie
    in a window (`geometry.circle_windows`, widened by 1e-6 over arccos
    rounding) of some cap centers . x >= cos_reach?  With lo in [0, 2 pi), a
    window [lo, lo + 2 alpha] meets [0, pi] as itself and 2 pi back."""
    c = float(a @ b)
    e = b - c * a
    e /= np.linalg.norm(e)
    ca, cb = centers @ a, centers @ e
    meets = np.hypot(ca, cb) > cos_reach
    phi, alpha = geo.circle_windows(ca[meets], cb[meets], cos_reach[meets])
    alpha += 1e-6
    lo = np.mod(phi - alpha, 2.0 * np.pi)
    lo, width = np.concatenate([lo, lo - 2.0 * np.pi]), np.tile(2.0 * alpha, 2)
    m, scale = KAPPA_ARC_GRID + 1, KAPPA_ARC_GRID / math.acos(min(max(c, -1.0), 1.0))
    first = np.clip(np.ceil(lo * scale), 0, m).astype(np.intp)
    last = np.maximum(np.clip(np.floor((lo + width) * scale) + 1, 0, m).astype(np.intp), first)
    return np.cumsum(np.bincount(first, minlength=m + 1) - np.bincount(last, minlength=m + 1))[:m] > 0
