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
in the far field) from one band search, and is a pure function of (state,
arrangement, parameters).  The conic law reads its margins from the
arrangement's bounding caps (`bound_margins`, exact for caps).  The star law
queries a region's refined distance only where the arrangement's
`kept_regions` keeps the state for it or the region contains it.  Both
laws evaluate on ambient points near (not exactly on) the sphere so that
central finite differences of W are well defined; the analytic conic law is
the exact gradient of that ambient extension, which the FD oracle checks.

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
from .constraints import ConicCap, ConstraintArrangement
from .errors import (
    DomainError,
    InsideUnsafe,
    KernelAntipodalToTarget,
    MultipleActiveConstraints,
    TooCloseToBoundary,
)
from .geometry import UnitPoint, coords_of

DEEP_PENETRATION = 1e-6   # beyond this signed penetration the state is rejected
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
        if not all(isinstance(s, ConicCap) for s in arr.sets):
            raise DomainError(
                "the conic-gradient law is restricted to cap arrangements; "
                "use the star-piecewise law for projected star shapes")
        self.arr = arr
        self.params = params
        self.x_d = params.x_d.coords

    def _band(self, x: np.ndarray):
        """(beta, beta_prime_scaled, active index) at x; far field gives (1, 0, None)."""
        sm = self.arr.bound_margins(x)
        i = int(np.argmin(sm))
        if sm[i] < -DEEP_PENETRATION:
            raise InsideUnsafe(f"state penetrates constraint {i} by {-sm[i]:.3e}")
        eps = self.params.epsilon
        active = np.nonzero(sm <= eps)[0]
        if active.size > 1:
            raise MultipleActiveConstraints(
                "state lies in more than one constraint band")
        if active.size == 0:
            return 1.0, 0.0, None
        i = int(active[0])
        d_i = max(float(sm[i]), 0.0)
        beta, dbeta = smoothstep(d_i, eps)
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
        self._cos_bound = np.cos(arr.bound_reaches)

    def _candidates(self, x: np.ndarray) -> list[int]:
        """Regions whose eps-band may hold x: those with a cell of the
        arrangement's band screen holding x, and those that contain x."""
        kept = self.arr.kept_regions(x[None, :], self.params.epsilon)[0]
        # a state deep inside a star region is farther than eps from its cells
        inside = ~kept & (self.arr.bound_centers @ x >= self._cos_bound * np.linalg.norm(x))
        for i in np.flatnonzero(inside):
            kept[i] = self.arr.sets[i].contains(x)
        return np.flatnonzero(kept).tolist()

    def _band(self, x: np.ndarray):
        """(d_i, i) for the active band, or (None, None) in the far field."""
        eps = self.params.epsilon
        hits = []
        for i in self._candidates(x):
            # exact wherever it is within eps, which is all the band needs
            sm = self.arr.sets[i].distance_warm(x, eps)[0]
            if sm < -DEEP_PENETRATION:
                raise InsideUnsafe(f"state penetrates constraint {i} by {-sm:.3e}")
            if sm <= eps:
                hits.append((i, max(sm, 0.0)))
        if len(hits) > 1:
            raise MultipleActiveConstraints(
                "state lies in more than one constraint band")
        if not hits:
            return None, None
        i, d_i = hits[0]
        return d_i, i

    def control(self, x) -> tuple[np.ndarray, int | None]:
        """(u, active band index); the index is None in the far field."""
        xc = coords_of(x)
        k1 = self.params.k1
        d_i, i = self._band(xc)
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
        """Smallest signed margin over the regions."""
        xc = coords_of(x)
        # regions by their lower bound; once it reaches the best margin, stop
        lower = np.maximum(self.arr.bound_margins(xc), 0.0)
        best = np.inf
        for i in np.argsort(lower, kind="stable").tolist():
            if lower[i] >= best:
                break
            best = min(best, self.arr.sets[i].distance_warm(xc, None)[0])
        return float(best)


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
    distance at the samples the band screen keeps.  Over the portion
    of the arc inside the band (if any): mu1 is the smallest distance to the
    region, mu2 the smallest tangential speed toward the target; the per-set
    bound is max(0, eps - mu1)/(mu1 * mu2).  Arcs that miss the band
    contribute zero.  The recommendation is 1.1 * max_i bound, floored at 1e-3.
    """
    xd = UnitPoint(coords_of(x_d))
    lams = np.linspace(0.0, 1.0, KAPPA_ARC_GRID + 1)
    per: list[KappaPerSet] = []
    for i, s in enumerate(arr.sets):
        g = arr.kernels[i]
        if g.dot(xd) <= -1.0 + 1e-12:
            raise KernelAntipodalToTarget(f"kernel {i} is antipodal to the target")
        pts = geo.slerp_many(xd, g.antipode(), lams)
        # refine exactly the arc points the band screen keeps for region i;
        # it drops only points farther than eps from the boundary
        d = np.full(len(pts), np.inf)
        for j in np.flatnonzero(arr.kept_regions(pts, epsilon)[:, i]):
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
