"""Unsafe-region models on S^n and the validators that certify a configuration.

Two kinds of region are supported:

* spherical caps, ``{x : x.g >= cos(xi)}``, with fully analytic queries;
* star-shaped regions obtained by radially projecting an n-dimensional
  Euclidean star body (living in an affine hyperplane that avoids the
  origin) onto the sphere.

Both answer the same queries, so no caller branches on the region type:
``contains``, ``contains_interior`` (rows: ``contains_many``,
``contains_interior_many``), ``signed_margin``, ``distance``,
``distance_warm(x, warm) -> (signed margin, warm)``, ``distances_coarse``
(rows; exact for caps), ``nearest_boundary``, ``boundary_samples``,
``bounding`` and ``kernel_on_sphere``.

Spherical distances to a region are ``d_s(x, U) = 1 - sup_{u in U} x.u``;
for exterior points the supremum is attained on the boundary, so star
regions answer distance queries by maximizing the dot product over the
projected boundary: a cached coarse scan seeds a local resampling ascent
that runs until successive estimates differ by less than 1e-7.  Profile
extremal directions (the spike axes of power-sum bodies) are always
included as ascent seeds, so narrow arms between cache samples are not
missed.  All queries are read-only after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import (
    DomainError,
    NotStarShaped,
    OriginInsideBody,
    TargetInsideUnsafe,
)
from .geometry import UnitPoint, coords_of

BOUNDARY_CLOSURE_TOL = 1e-9   # boundary points report as contained
INTERIOR_TOL = 1e-12          # strictly-inside test threshold
REFINE_STOP = 1e-7            # successive-estimate gap that ends refinement


# ---------------------------------------------------------------------------
# spherical caps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConicCap:
    """Closed spherical cap of half-angle xi about the unit axis g."""

    axis: UnitPoint
    xi: float

    def __post_init__(self):
        if not 0.0 <= self.xi < np.pi:
            raise DomainError(f"cap half-angle must be in [0, pi), got {self.xi}")
        if isinstance(self.axis, UnitPoint):
            return
        object.__setattr__(self, "axis", UnitPoint(coords_of(self.axis)))

    @property
    def kernel_on_sphere(self) -> UnitPoint:
        return self.axis

    def _angle(self, x) -> float:
        return float(np.arccos(np.clip(coords_of(x) @ self.axis.coords, -1.0, 1.0)))

    def contains(self, x, tol: float = 1e-12) -> bool:
        return float(coords_of(x) @ self.axis.coords) >= np.cos(self.xi) - tol

    def contains_interior(self, x, tol: float = INTERIOR_TOL) -> bool:
        return self.signed_margin(x) < -tol

    def contains_many(self, pts: np.ndarray, tol: float = 1e-12) -> np.ndarray:
        """Row version of `contains`."""
        return pts @ self.axis.coords >= np.cos(self.xi) - tol

    def contains_interior_many(self, pts: np.ndarray,
                               tol: float = INTERIOR_TOL) -> np.ndarray:
        """Row version of `contains_interior`."""
        gap = np.arccos(np.clip(pts @ self.axis.coords, -1.0, 1.0)) - self.xi
        return np.sign(gap) * (1.0 - np.cos(gap)) < -tol

    def signed_margin(self, x) -> float:
        """Spherical distance to the cap, negative when x is inside."""
        gap = self._angle(x) - self.xi
        return float(np.sign(gap) * (1.0 - np.cos(gap)))

    def distance(self, x) -> float:
        return max(0.0, self.signed_margin(x))

    def distance_warm(self, x, warm):
        """(signed margin, warm); caps need no ascent state."""
        return self.signed_margin(x), warm

    def distances_raw(self, dots: np.ndarray) -> np.ndarray:
        """Vectorized unsigned distance from axis-dot values."""
        gap = np.arccos(np.clip(dots, -1.0, 1.0)) - self.xi
        return np.where(gap > 0.0, 1.0 - np.cos(gap), 0.0)

    def distances_coarse(self, pts: np.ndarray) -> np.ndarray:
        """Exact unsigned distances for rows of pts."""
        return self.distances_raw(pts @ self.axis.coords)

    def nearest_boundary(self, x) -> np.ndarray:
        """Boundary point of the cap closest to x (any one, on ties)."""
        xc = coords_of(x)
        g = self.axis.coords
        w = xc - (xc @ g) * g
        nrm = np.linalg.norm(w)
        if nrm < 1e-12:
            w = geo.tangent_basis(g)[:, 0]
        else:
            w = w / nrm
        return geo.rotate_toward(g, w, self.xi)

    def boundary_samples(self, count: int, rng: np.random.Generator) -> np.ndarray:
        g = self.axis.coords
        dirs = rng.normal(size=(count, g.size))
        dirs -= np.outer(dirs @ g, g)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return np.cos(self.xi) * g + np.sin(self.xi) * dirs

    def bounding(self) -> tuple[np.ndarray, float]:
        """(center, angular reach): every region point is within reach of center."""
        return self.axis.coords, self.xi


# ---------------------------------------------------------------------------
# Euclidean star bodies and their radial profiles
# ---------------------------------------------------------------------------

class PowerSumProfile:
    """Sublevel body sum_i |s_i|^e_i <= level in hyperplane coordinates s.

    Coordinates are taken about the body anchor; the radius about the kernel
    point is solved along rays (closed form when the kernel sits at the
    anchor and all exponents agree, bisection otherwise).
    """

    def __init__(self, exponents, level: float):
        self.exponents = np.asarray(exponents, dtype=float)
        self.level = float(level)
        if self.level <= 0 or np.any(self.exponents <= 0):
            raise DomainError("power-sum profile needs positive exponents and level")
        self._equal_e = float(self.exponents[0]) if np.all(
            self.exponents == self.exponents[0]) else None

    def implicit(self, s: np.ndarray) -> np.ndarray:
        s = np.atleast_2d(s)
        return (np.abs(s) ** self.exponents).sum(axis=1) - self.level

    def radius_fn(self, kernel_s: np.ndarray):
        """Direction rows -> boundary radius about kernel_s, dispatched once."""
        if self.exponents.size != kernel_s.size:
            raise DomainError("power-sum profile needs one exponent per body coordinate")
        if self._equal_e is not None and float(kernel_s @ kernel_s) < 1e-28:
            e = self._equal_e
            inv_e = 1.0 / e
            level = self.level

            def rho(dirs):
                pw = np.maximum((np.abs(dirs) ** e).sum(axis=1), 1e-300)
                return (level / pw) ** inv_e
            return rho
        return lambda dirs: _radial_bisection(self.implicit, kernel_s, dirs)

    def max_radius(self) -> float:
        """Exact sup of the boundary radius over all directions.

        For equal exponents e the direction sum min(1, k^(1 - e/2)) is
        attained on a coordinate axis (e < 2) or the diagonal (e > 2).
        """
        k = self.exponents.size
        if self._equal_e is not None:
            e = self._equal_e
            low = min(1.0, k ** (1.0 - e / 2.0))
            return (self.level / low) ** (1.0 / e)
        # conservative scan for mixed exponents
        dirs = _direction_grid(k, 8192)
        pw = (np.abs(dirs) ** self.exponents).sum(axis=1)
        return 1.25 * float(((self.level / pw.min()) ** (1.0 / self.exponents.min())))

    def extremal_dirs(self, k: int) -> np.ndarray:
        """Kink directions of the boundary (the spike axes), used as ascent seeds."""
        eye = np.eye(k)
        return np.vstack([eye, -eye])


class RadialTableProfile:
    """Tabulated radius about the kernel for planar (k = 2) bodies.

    ``values[j]`` is the boundary radius at angle ``2*pi*j/len(values)``;
    intermediate angles interpolate linearly and periodically.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 8:
            raise DomainError("radial table needs a flat list of >= 8 radii")
        if np.any(self.values <= 0):
            raise DomainError("radial table values must be positive")

    def radius_fn(self, kernel_s: np.ndarray):
        """Direction rows -> tabulated radius; the table is already about the kernel."""
        if kernel_s.size != 2:
            raise DomainError("radial-table profiles are planar (k = 2)")
        return self._radius

    def _radius(self, dirs: np.ndarray) -> np.ndarray:
        phi = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 2.0 * np.pi)
        m = self.values.size
        pos = phi * m / (2.0 * np.pi)
        j = np.floor(pos).astype(int) % m
        frac = pos - np.floor(pos)
        return (1.0 - frac) * self.values[j] + frac * self.values[(j + 1) % m]

    def max_radius(self) -> float:
        return float(self.values.max())

    def extremal_dirs(self, k: int) -> np.ndarray:
        # table knots are already covered by any cache at >= table resolution
        j = np.argmax(self.values)
        phi = 2.0 * np.pi * j / self.values.size
        return np.array([[np.cos(phi), np.sin(phi)]])


def _radial_bisection(implicit, kernel_s: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Solve implicit(kernel + t*dir) = 0 along each ray by bisection."""
    m = dirs.shape[0]
    lo = np.zeros(m)
    hi = np.full(m, 1e-3)
    for _ in range(80):
        vals = implicit(kernel_s + hi[:, None] * dirs)
        inside = vals <= 0.0
        if not inside.any():
            break
        lo[inside] = hi[inside]
        hi[inside] *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        inside = implicit(kernel_s + mid[:, None] * dirs) <= 0.0
        lo = np.where(inside, mid, lo)
        hi = np.where(inside, hi, mid)
    return 0.5 * (lo + hi)


@dataclass
class EuclideanStarBody:
    """Star-shaped body in an affine hyperplane of R^(n+1).

    The body occupies ``{anchor + basis @ s}`` with ``s`` ranging over the
    profile's sublevel set; ``kernel_point`` must lie in the same hyperplane
    and every ray from it crosses the boundary exactly once.
    """

    anchor: np.ndarray
    basis: np.ndarray          # (n+1, k) orthonormal columns, k = n
    kernel_point: np.ndarray
    profile: PowerSumProfile | RadialTableProfile

    def __post_init__(self):
        self.anchor = np.asarray(self.anchor, dtype=float)
        self.basis = np.asarray(self.basis, dtype=float)
        self.kernel_point = np.asarray(self.kernel_point, dtype=float)
        m, k = self.basis.shape
        if m != self.anchor.size or k != m - 1:
            raise DomainError("basis must have shape (n+1, n)")
        if np.linalg.norm(self.basis.T @ self.basis - np.eye(k)) > 1e-10:
            raise DomainError("basis columns must be orthonormal")
        off = self.kernel_point - self.anchor
        if np.linalg.norm(off - self.basis @ (self.basis.T @ off)) > 1e-9:
            raise DomainError("kernel point must lie in the body hyperplane")
        self.kernel_s = self.basis.T @ off
        # direction rows -> boundary radius about the kernel
        self.radius = self.profile.radius_fn(self.kernel_s)

    @property
    def k(self) -> int:
        return self.basis.shape[1]

    @property
    def normal(self) -> np.ndarray:
        q, _ = np.linalg.qr(np.column_stack([self.basis, self.anchor]))
        n = q[:, -1]
        return n if n @ self.anchor >= 0 else -n

    def lift(self, s: np.ndarray) -> np.ndarray:
        return self.anchor + np.atleast_2d(s) @ self.basis.T

    def boundary_body(self, dirs: np.ndarray) -> np.ndarray:
        dirs = np.atleast_2d(dirs)
        return self.kernel_s + self.radius(dirs)[:, None] * dirs

    def contains_s(self, s: np.ndarray, slack: float = 0.0) -> np.ndarray:
        s = np.atleast_2d(s)
        rel = s - self.kernel_s
        r = np.linalg.norm(rel, axis=1)
        unit0 = np.zeros(self.k)
        unit0[0] = 1.0
        dirs = np.where(r[:, None] > 1e-15, rel / np.where(r > 1e-15, r, 1.0)[:, None],
                        unit0)
        return r <= self.radius(dirs) + slack


def complete_basis(normal: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to `normal`.

    Standard basis vectors are Gram-Schmidt projected in index order; the
    result is reproducible across runs, which the tabulated profiles rely on.
    """
    n = np.asarray(normal, dtype=float)
    return geo.tangent_basis(n / np.linalg.norm(n))


def _direction_grid(k: int, count: int) -> np.ndarray:
    """Deterministic covering of the unit direction sphere in R^k."""
    if k == 2:
        phi = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        return np.column_stack([np.cos(phi), np.sin(phi)])
    if k == 3:
        # Fibonacci lattice
        i = np.arange(count) + 0.5
        z = 1.0 - 2.0 * i / count
        r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        phi = np.pi * (1.0 + np.sqrt(5.0)) * i
        return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    rng = np.random.default_rng(count)
    d = rng.normal(size=(count, k))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# projected star shapes on the sphere
# ---------------------------------------------------------------------------

class ProjectedStarShape:
    """Radial projection of a Euclidean star body onto S^n.

    Construction caches the projected boundary (a direction grid plus the
    profile's extremal directions); use :func:`build_projected_star`, which
    also runs the geometric sanity checks.
    """

    def __init__(self, body: EuclideanStarBody, resolution: int):
        self.body = body
        self.resolution = int(resolution)
        self.kernel_on_sphere: UnitPoint = geo.normalize(body.kernel_point)
        self._normal = body.normal
        self._offset = float(self._normal @ body.anchor)
        self._anchor = body.anchor
        self._basisT = np.ascontiguousarray(body.basis.T)
        self._kernel_s = body.kernel_s
        self._rho = body.radius
        self._seed_dirs = body.profile.extremal_dirs(body.k)
        self._bound_center = self.kernel_on_sphere.coords
        self._bound_angle = self._reach_angle()

        dirs = np.vstack([_direction_grid(body.k, self.resolution), self._seed_dirs])
        amb = body.lift(body.boundary_body(dirs))
        norms = np.linalg.norm(amb, axis=1)
        if norms.min() <= 1e-6:
            raise OriginInsideBody("projected boundary passes through the origin")
        self.cache_dirs = dirs
        self.cache_ambient = amb
        self.cache_sphere = amb / norms[:, None]

    def _reach_angle(self) -> float:
        """Sound bound on the angle between any region point and the kernel image.

        Every region point is kernel + r*w with r <= the profile's exact
        maximum radius and w an in-plane unit direction; the worst angle over
        a dense (r, kernel.w) grid bounds the true reach.
        """
        rho_max = self.body.profile.max_radius()
        kp = self.body.kernel_point
        knorm = float(np.linalg.norm(kp))
        c2 = float(np.linalg.norm(self._basisT @ kp))
        rs = np.linspace(0.0, rho_max, 257)
        ss = np.linspace(-c2, c2, 257)
        R, S = np.meshgrid(rs, ss)
        num = knorm ** 2 + R * S
        den = knorm * np.sqrt(np.maximum(knorm ** 2 + 2 * R * S + R ** 2, 1e-300))
        cosang = num / den
        worst = float(np.arccos(np.clip(cosang.min(), -1.0, 1.0)))
        return min(np.pi, worst + 1e-3)

    # -- membership ---------------------------------------------------------

    def _ray_body_coords(self, x: np.ndarray):
        """Body coordinates of the ray {t x, t > 0} hit on the body hyperplane."""
        denom = float(x @ self._normal)
        if abs(denom) < 1e-15:
            return None
        t = self._offset / denom
        if t <= 0.0:
            return None
        return self._basisT @ (t * x - self._anchor)

    def _radial_excess(self, x: np.ndarray):
        """(r - rho, hit norm) for the ray through x, or None when it misses."""
        s = self._ray_body_coords(x)
        if s is None:
            return None
        rel = s - self._kernel_s
        r = float(np.linalg.norm(rel))
        if r < 1e-15:
            return -float(self._rho(self._seed_dirs[:1])[0]), 1.0
        rho = float(self._rho(rel[None, :] / r)[0])
        hit = self._anchor + self._basisT.T @ s
        return r - rho, float(np.linalg.norm(hit))

    def contains(self, x, tol: float = BOUNDARY_CLOSURE_TOL) -> bool:
        out = self._radial_excess(coords_of(x))
        if out is None:
            return False
        excess, hit_norm = out
        # tol is a spherical-distance closure; the matching radial slack at
        # the hit point scales with the angular slack times the lever arm
        return excess <= np.sqrt(max(2.0 * tol, 0.0)) * hit_norm * 4.0 + 1e-12

    def _radial_excess_many(self, pts: np.ndarray):
        """Row version of `_radial_excess`: (ray hits, r, rho, hit norm)."""
        denom = pts @ self._normal
        ok = np.abs(denom) >= 1e-15
        t = np.where(ok, self._offset / np.where(ok, denom, 1.0), -1.0)
        ok &= t > 0.0
        hits = t[:, None] * pts
        s = (hits - self._anchor) @ self._basisT.T
        rel = s - self._kernel_s
        r = np.sqrt((rel * rel).sum(axis=1))
        # a ray through the kernel itself takes the first seed direction
        away = r > 1e-15
        dirs = np.where(away[:, None], rel / np.where(away, r, 1.0)[:, None],
                        self._seed_dirs[0])
        return ok, r, self._rho(dirs), np.sqrt((hits * hits).sum(axis=1))

    def contains_many(self, pts: np.ndarray,
                      tol: float = BOUNDARY_CLOSURE_TOL) -> np.ndarray:
        """Row version of `contains`."""
        ok, r, rho, hit_norm = self._radial_excess_many(pts)
        slack = np.sqrt(max(2.0 * tol, 0.0)) * hit_norm * 4.0 + 1e-12
        return ok & (r <= rho + slack)

    def contains_interior_many(self, pts: np.ndarray,
                               tol: float = INTERIOR_TOL) -> np.ndarray:
        """Row version of `contains_interior`."""
        ok, r, rho, hit_norm = self._radial_excess_many(pts)
        return ok & (r - rho < -(np.sqrt(max(2.0 * tol, 0.0)) * hit_norm + 1e-12))

    def distances_coarse(self, pts: np.ndarray) -> np.ndarray:
        """Cache-resolution distances for rows of pts (zero where contained)."""
        # row blocks keep the (rows x cache) dot table near 1 MB
        best = np.empty(pts.shape[0])
        for a in range(0, pts.shape[0], 64):
            best[a:a + 64] = (pts[a:a + 64] @ self.cache_sphere.T).max(axis=1)
        d = 1.0 - best
        d[self.contains_many(pts)] = 0.0
        return d

    def contains_interior(self, x, tol: float = INTERIOR_TOL) -> bool:
        out = self._radial_excess(coords_of(x))
        if out is None:
            return False
        excess, hit_norm = out
        return excess < -(np.sqrt(max(2.0 * tol, 0.0)) * hit_norm + 1e-12)

    # -- boundary-dot maximization (distance queries) ------------------------

    def _objective(self, x: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        rho = self._rho(dirs)
        pts = self._anchor + (self._kernel_s + rho[:, None] * dirs) @ self._basisT
        return (pts @ x) / np.sqrt((pts * pts).sum(axis=1))

    def _chart(self, d: np.ndarray) -> np.ndarray:
        """Tangent chart directions of the direction sphere at d, shape (k-1, k)."""
        if d.size == 2:
            return np.array([[-d[1], d[0]]])
        t1, t2 = _plane_tangents(d)
        return np.vstack([t1, t2])

    def _lift_chart(self, d: np.ndarray, T: np.ndarray, pts2: np.ndarray) -> np.ndarray:
        cand = d[None, :] + pts2 @ T
        return cand / np.sqrt((cand * cand).sum(axis=1))[:, None]

    def _polish(self, x: np.ndarray, d0: np.ndarray, rounds: int = 10,
                h: float = 1e-3, bail_if_flat: bool = False):
        """Newton polish of the boundary-dot objective on the direction chart.

        Quadratic fits on a small stencil give superlinear convergence on the
        smooth parts of the boundary; `bail_if_flat` returns after the first
        non-improving round (warm starts at a kink maximum resolve in one).
        """
        d = d0 / np.linalg.norm(d0)
        m = d.size - 1
        if m == 1:
            stencil = np.array([[0.0], [1.0], [-1.0], [0.5], [-0.5]])
        else:
            stencil = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0],
                                [0.0, 1.0], [0.0, -1.0], [1.0, 1.0]])
        best = float(self._objective(x, d[None, :])[0])
        for _ in range(rounds):
            T = self._chart(d)
            cand = self._lift_chart(d, T, h * stencil)
            vals = self._objective(x, cand)
            j = int(np.argmax(vals))
            f0 = float(vals[0])
            if m == 1:
                g = (vals[1] - vals[2]) / (2 * h)
                H = (vals[1] - 2 * f0 + vals[2]) / h ** 2
                step = np.array([-g / H]) if H < -1e-18 else None
            else:
                gx = (vals[1] - vals[2]) / (2 * h)
                gy = (vals[3] - vals[4]) / (2 * h)
                hxx = (vals[1] - 2 * f0 + vals[2]) / h ** 2
                hyy = (vals[3] - 2 * f0 + vals[4]) / h ** 2
                hxy = (vals[5] - vals[1] - vals[3] + f0) / h ** 2
                det = hxx * hyy - hxy * hxy
                if det > 1e-18 and hxx < 0:
                    step = np.array([-(hyy * gx - hxy * gy) / det,
                                     -(hxx * gy - hxy * gx) / det])
                else:
                    step = None
            if step is None or not np.all(np.isfinite(step)):
                if bail_if_flat:
                    break
                h *= 0.1
                if h < 1e-8:
                    break
                continue
            nrm = float(np.sqrt(step @ step))
            if nrm > 0.1:
                step *= 0.1 / nrm
            d_new = d + step @ T
            d_new /= np.sqrt(d_new @ d_new)
            val_new = float(self._objective(x, d_new[None, :])[0])
            moved = max(val_new, float(vals[j]))
            if moved <= best + 1e-15:
                if bail_if_flat:
                    break
                h *= 0.1
                if h < 1e-8:
                    break
                continue
            d = d_new if val_new >= float(vals[j]) else cand[j]
            best = moved
            if nrm < 1e-9:
                break
        return best, d

    def _ascend(self, x: np.ndarray, d0: np.ndarray, step: float,
                min_step: float = 1e-9, max_iter: int = 60):
        """Shrinking-stencil ascent; robust at profile kinks, used as fallback."""
        d = d0 / np.linalg.norm(d0)
        best = float(self._objective(x, d[None, :])[0])
        m = d.size - 1
        if m == 1:
            offsets = np.array([[-1.0], [-0.35], [0.35], [1.0]])
        else:
            g = np.array([-1.0, 0.0, 1.0])
            offsets = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
            offsets = offsets[np.any(offsets != 0.0, axis=1)]
        for _ in range(max_iter):
            T = self._chart(d)
            cand = self._lift_chart(d, T, step * offsets)
            vals = self._objective(x, cand)
            j = int(np.argmax(vals))
            if vals[j] > best:
                d = cand[j]
                best = float(vals[j])
            else:
                step *= 0.35
                if step < min_step:
                    break
        return best, d

    def _refine_from(self, x: np.ndarray, d0: np.ndarray):
        """Polish then, if the quadratic stalls early, finish with the ascent."""
        best, d = self._polish(x, d0)
        best2, d2 = self._ascend(x, d, 3e-4, min_step=1e-8, max_iter=25)
        return (best2, d2) if best2 > best else (best, d)

    def _seed_candidates(self, x: np.ndarray, dots: np.ndarray,
                         count: int = 3, slack: float = 0.05) -> list[np.ndarray]:
        """Cache directions competitive with the coarse maximum, deduped by basin."""
        order = np.argsort(dots)[::-1]
        top = float(dots[order[0]])
        picked: list[np.ndarray] = []
        for idx in order[:64]:
            if dots[idx] < top - slack and picked:
                break
            d = self.cache_dirs[idx]
            if not picked or all(float(d @ p) < 0.95 for p in picked):
                picked.append(d)
            if len(picked) >= count:
                break
        return picked

    def max_boundary_dot(self, x, warm: np.ndarray | None = None):
        """(best dot, best direction); the distance is 1 - best dot.

        The coarse cache (which includes the profile's spike directions)
        certifies the warm fast path: a warm-started polish is accepted only
        when it reaches the coarse maximum, otherwise the cold seeds run.
        """
        xc = coords_of(x)
        dots = self.cache_sphere @ xc
        i0 = int(np.argmax(dots))
        coarse_best, coarse_dir = float(dots[i0]), self.cache_dirs[i0]
        if warm is not None:
            val, d = self._polish(xc, warm, h=1e-4, bail_if_flat=True)
            if val >= coarse_best - 1e-12:
                return val, d
        best, bdir = coarse_best, coarse_dir
        for d0 in self._seed_candidates(xc, dots):
            val, d = self._refine_from(xc, d0)
            if val > best:
                best, bdir = val, d
        return best, bdir

    def distance(self, x) -> float:
        """d_s(x, U); zero inside, refined boundary maximum outside."""
        if self.contains(x):
            return 0.0
        best, _ = self.max_boundary_dot(x)
        return 1.0 - best

    def distance_warm(self, x: np.ndarray, warm: np.ndarray | None):
        """(signed margin, argmax direction) with a warm-started ascent.

        An accepted warm polish skips the cold seeds, so the value can differ
        from the cold query's; it never falls below the coarse cache maximum.
        """
        best, bdir = self.max_boundary_dot(x, warm=warm)
        m = 1.0 - best
        return (-m if self.contains(x) else m), bdir

    def signed_margin(self, x) -> float:
        """Distance to the boundary, negative when inside the region."""
        best, _ = self.max_boundary_dot(x)
        m = 1.0 - best
        return -m if self.contains(x) else m

    def nearest_boundary(self, x) -> np.ndarray:
        """Refined nearest boundary point (the first of equal maxima)."""
        xc = coords_of(x)
        dots = self.cache_sphere @ xc
        best, bdir = -np.inf, None
        for d0 in self._seed_candidates(xc, dots):
            val, d = self._refine_from(xc, d0)
            if val > best:
                best, bdir = val, d
        amb = self.body.lift(self.body.boundary_body(bdir[None, :]))[0]
        return amb / np.linalg.norm(amb)

    def boundary_samples(self, count: int, rng: np.random.Generator) -> np.ndarray:
        sphere = self.cache_sphere
        idx = rng.choice(sphere.shape[0], size=min(count, sphere.shape[0]),
                         replace=False)
        return sphere[idx]

    def bounding(self) -> tuple[np.ndarray, float]:
        """(center, angular reach): every region point is within reach of center."""
        return self._bound_center, self._bound_angle


def _plane_tangents(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    k = d.size
    ref = np.zeros(k)
    ref[int(np.argmin(np.abs(d)))] = 1.0
    t1 = ref - (ref @ d) * d
    t1 /= np.sqrt(t1 @ t1)
    if k == 3:
        t2 = np.array([d[1] * t1[2] - d[2] * t1[1],
                       d[2] * t1[0] - d[0] * t1[2],
                       d[0] * t1[1] - d[1] * t1[0]])
    else:
        t2 = t1  # unused for k == 2
    return t1, t2


def build_projected_star(body: EuclideanStarBody, resolution: int) -> ProjectedStarShape:
    """Project a Euclidean star body onto the sphere and certify the build.

    Raises OriginInsideBody when a kernel-to-boundary segment meets the
    origin, NotStarShaped when a sampled segment leaves the body, and runs a
    light projected-chords-land-on-geodesics self check.
    """
    shape = ProjectedStarShape(body, resolution)

    # kernel-to-boundary segments: origin clearance (exact point-to-segment
    # distances) and star-shapedness (sampled along the segments)
    kernel_amb = body.kernel_point
    bd_amb = shape.cache_ambient
    rel = bd_amb - kernel_amb
    denom = np.maximum((rel * rel).sum(axis=1), 1e-300)
    tstar = np.clip(-(rel @ kernel_amb) / denom, 0.0, 1.0)
    closest = kernel_amb + tstar[:, None] * rel
    if np.sqrt((closest * closest).sum(axis=1)).min() <= 1e-6:
        raise OriginInsideBody("a kernel-to-boundary segment passes the origin")
    lams = np.linspace(0.0, 1.0, 33)
    sub = bd_amb[:: max(1, bd_amb.shape[0] // 256)]
    seg = (1.0 - lams)[None, :, None] * kernel_amb[None, None, :] \
        + lams[None, :, None] * sub[:, None, :]
    seg_s = (seg.reshape(-1, kernel_amb.size) - body.anchor) @ body.basis
    inside = body.contains_s(seg_s, slack=1e-9 * (1.0 + body.profile.max_radius()))
    if not bool(np.all(inside)):
        raise NotStarShaped("kernel-to-boundary segment leaves the body")

    _projection_self_test(shape, np.random.default_rng(0))
    return shape


def _projection_self_test(shape: ProjectedStarShape, rng: np.random.Generator,
                          chords: int = 40, lam_points: int = 20,
                          tol: float = 1e-9):
    """Projected boundary chords must land on the connecting geodesics."""
    amb = shape.cache_ambient
    n = amb.shape[0]
    for _ in range(chords):
        i, j = rng.choice(n, size=2, replace=False)
        a, b = amb[i], amb[j]
        ga = geo.normalize(a)
        gb = geo.normalize(b)
        if ga.dot(gb) <= -1.0 + 1e-9:
            continue
        segment = geo.GreatCircleArc(ga, gb)
        for lam in np.linspace(0.0, 1.0, lam_points):
            p = geo.normalize((1.0 - lam) * a + lam * b)
            if geo.distance_to_arc(p, segment) > tol:
                raise NotStarShaped(
                    "projected chord left the connecting geodesic; "
                    "the body construction is inconsistent")


ConstraintSet = ConicCap | ProjectedStarShape


# ---------------------------------------------------------------------------
# constraint arrangements
# ---------------------------------------------------------------------------

class ConstraintArrangement:
    """Immutable collection of unsafe regions with one kernel point per set."""

    def __init__(self, sets, kernels=None, delta_declared: float | None = None):
        self.sets: list[ConstraintSet] = list(sets)
        kernels = [None] * len(self.sets) if kernels is None else list(kernels)
        if len(kernels) != len(self.sets):
            raise DomainError("one kernel per constraint set is required")
        # a None kernel is the region's own kernel point
        self.kernels: list[UnitPoint] = [
            s.kernel_on_sphere if k is None
            else k if isinstance(k, UnitPoint) else UnitPoint(coords_of(k))
            for s, k in zip(self.sets, kernels)
        ]
        self.delta_declared = delta_declared
        self._delta_measured: float | None = None

    def __len__(self) -> int:
        return len(self.sets)

    @property
    def dimension(self) -> int:
        return self.kernels[0].n if self.kernels else 0

    def distances(self, x) -> np.ndarray:
        xc = coords_of(x)
        return np.array([s.distance(xc) for s in self.sets])

    def signed_margins(self, x) -> np.ndarray:
        xc = coords_of(x)
        return np.array([s.signed_margin(xc) for s in self.sets])

    def delta_measured(self, samples: int = 400, seed: int = 0) -> float:
        if self._delta_measured is None:
            self._delta_measured = pairwise_separation(self, samples=samples,
                                                       seed=seed)
        return self._delta_measured


# ---------------------------------------------------------------------------
# scalar configuration rules
# ---------------------------------------------------------------------------

def phi(delta: float) -> float:
    """Band-width budget that keeps dilated regions disjoint: 1 - sqrt((2-d)/2)."""
    if not 0.0 < delta <= 2.0:
        raise DomainError(f"phi is defined on (0, 2], got {delta}")
    return 1.0 - np.sqrt((2.0 - delta) / 2.0)


def suggest_epsilon(arr: ConstraintArrangement, x_d,
                    samples: int = 400, seed: int = 0) -> float:
    """0.9 * min(phi(delta_measured), d_s(x_d, U)); requires x_d strictly safe."""
    margins = arr.signed_margins(x_d)
    if float(margins.min()) <= 0.0:
        raise TargetInsideUnsafe("target point is not strictly outside the unsafe union")
    eps_bar = float(margins.min())
    delta = arr.delta_measured(samples=samples, seed=seed)
    bound = eps_bar
    if np.isfinite(delta):
        if delta <= 0.0:
            raise DomainError("arrangement has touching regions; separation is non-positive")
        bound = min(bound, phi(min(delta, 2.0)))
    return 0.9 * bound


# ---------------------------------------------------------------------------
# pairwise separation
# ---------------------------------------------------------------------------

def pairwise_separation(arr: ConstraintArrangement, samples: int = 400,
                        seed: int = 0) -> float:
    """min over i != j of d_s(U_i, U_j), by cross-sampling plus alternating refinement.

    Sampling over boundary pairs can only over-estimate the true minimum;
    the alternating nearest-boundary passes tighten the estimate until it is
    stable well below 1e-4.  Returns +inf for fewer than two sets.
    """
    m = len(arr.sets)
    if m < 2:
        return float("inf")
    rng = np.random.default_rng(seed)
    best = float("inf")
    for i in range(m):
        for j in range(i + 1, m):
            a_set, b_set = arr.sets[i], arr.sets[j]
            pa = a_set.boundary_samples(samples, rng)
            pb = b_set.boundary_samples(samples, rng)
            dots = pa @ pb.T
            ia, ib = np.unravel_index(np.argmax(dots), dots.shape)
            a, b = pa[ia], pb[ib]
            d = 1.0 - float(a @ b)
            for _ in range(80):
                a = a_set.nearest_boundary(b)
                b = b_set.nearest_boundary(a)
                d_new = 1.0 - float(a @ b)
                if d - d_new < 1e-13:
                    d = min(d, d_new)
                    break
                d = d_new
            best = min(best, d)
    return max(best, 0.0)


# ---------------------------------------------------------------------------
# kernel validation
# ---------------------------------------------------------------------------

@dataclass
class KernelFailure:
    code: str
    lam: float | None = None
    at: np.ndarray | None = None

    def __repr__(self):
        extra = "" if self.lam is None else f"(lam={self.lam:.4f})"
        return f"{self.code}{extra}"


@dataclass
class KernelReport:
    ok: bool
    failures: list[KernelFailure]
    interior_margin: float
    antipode_margin: float
    sigma_worst: float
    reverse_worst: float


def _note_first_failure(failures: list[KernelFailure], code: str,
                        lams: np.ndarray, pts: np.ndarray, ok: np.ndarray):
    """Record the first geodesic point that fails its test, once per code."""
    if ok.all() or any(f.code == code for f in failures):
        return
    j = int(np.argmin(ok))
    failures.append(KernelFailure(code, lam=float(lams[j]), at=pts[j]))


def validate_kernel(s: ConstraintSet, g, samples: int = 200,
                    grid: int = 64, seed: int = 0,
                    tol: float = 1e-9) -> KernelReport:
    """Certify g as a usable kernel point of the region.

    Checks: (a) g lies strictly inside; (b) -g lies outside; (c) geodesics
    from g to sampled boundary points stay inside (kernel membership);
    (d) geodesics from boundary points to -g never enter the interior.
    Membership along the geodesics uses the exact ray/inequality tests; the
    reported margins refine the softest points found.
    """
    gc = coords_of(g)
    failures: list[KernelFailure] = []

    # distance from g to the region boundary, positive only when g is inside
    interior_margin = -s.signed_margin(gc)
    if not (interior_margin > INTERIOR_TOL and s.contains(gc)):
        failures.append(KernelFailure("NotInInterior"))

    anti_margin = s.signed_margin(-gc)
    if s.contains(-gc) or anti_margin <= 0.0:
        failures.append(KernelFailure("AntipodeInside"))

    rng = np.random.default_rng(seed)
    boundary = s.boundary_samples(samples, rng)
    lams = np.linspace(0.0, 1.0, grid + 1)
    sigma_worst = reverse_worst = float("inf")
    gp = UnitPoint(gc)

    for x in boundary:
        xb = geo.normalize(x)
        # (c) forward geodesic g -> x must stay in the region
        if gp.dot(xb) > -1.0 + 1e-12:
            pts = geo.slerp_many(gp, xb, lams)
            _note_first_failure(failures, "GeodesicEscapes", lams, pts,
                                s.contains_many(pts, tol))
            sigma_worst = min(sigma_worst, -s.signed_margin(pts[grid // 2]))
        # (d) reverse geodesic x -> -g must avoid the interior
        if xb.dot(-gc) > -1.0 + 1e-12:
            pts = geo.slerp_many(xb, UnitPoint(-gc), lams)
            _note_first_failure(failures, "ReverseGeodesicEnters", lams, pts,
                                ~s.contains_interior_many(pts, tol))
            reverse_worst = min(reverse_worst, s.signed_margin(pts[1]))

    return KernelReport(ok=not failures, failures=failures,
                        interior_margin=float(interior_margin),
                        antipode_margin=float(anti_margin),
                        sigma_worst=sigma_worst, reverse_worst=reverse_worst)


# ---------------------------------------------------------------------------
# shadow regions and their disjointness
# ---------------------------------------------------------------------------

def dilation_threshold(arr: ConstraintArrangement, i: int, x_d, eps: float) -> float:
    """d_s(x_d, D_eps(U_i)), via angle arithmetic on the undilated distance."""
    d = float(arr.sets[i].distance(coords_of(x_d)))
    ang = geo.angle_from_distance(d) - geo.angle_from_distance(eps)
    return geo.distance_from_angle(max(0.0, ang))


def is_attracting_index(arr: ConstraintArrangement, i: int, x_d, eps: float) -> bool:
    """True when -x_d lies outside the dilated region (the generic case)."""
    return arr.sets[i].distance(-coords_of(x_d)) > eps


def _ray_hits_dilation(s: ConstraintSet, base: np.ndarray, w: np.ndarray,
                       t_lo: float, eps: float):
    """First t in [t_lo, pi) where the great-circle ray enters D_eps(U).

    Marches in steps of 1e-3 and returns the crossing parameter
    (bisection-refined) or None.  A bounding prefilter skips rays whose full
    circle stays clear of the dilation.
    """
    step = 1e-3
    center, radius = s.bounding()
    reach = min(np.pi, radius + geo.angle_from_distance(eps))
    rc = float(np.hypot(center @ base, center @ w))
    circle_gap = np.arccos(np.clip(rc, -1.0, 1.0))
    if circle_gap > reach + 1e-9:
        return None
    phi0 = float(np.arctan2(center @ w, center @ base))
    if rc < np.cos(reach):
        return None
    half = float(np.arccos(np.clip(np.cos(reach) / max(rc, 1e-15), -1.0, 1.0)))
    windows = []
    for base_phi in (phi0, phi0 + 2.0 * np.pi, phi0 - 2.0 * np.pi):
        lo = max(t_lo, base_phi - half)
        hi = min(np.pi, base_phi + half)
        if hi > lo:
            windows.append((lo, hi))
    if not windows:
        return None

    def dist_at(ts: np.ndarray) -> np.ndarray:
        pts = np.outer(np.cos(ts), base) + np.outer(np.sin(ts), w)
        if pts.shape[0] <= 4:
            return np.array([s.distance(p) for p in pts])
        # marching pass: cache-resolution distances (the cache includes the
        # profile spikes, so the blur is the smooth-boundary sampling gap)
        return s.distances_coarse(pts)

    if float(dist_at(np.array([t_lo]))[0]) <= eps:
        return t_lo
    for lo, hi in windows:
        ts = np.arange(lo, hi + step, step)
        ds = dist_at(ts)
        hits = np.nonzero(ds <= eps)[0]
        if hits.size == 0:
            continue
        k = int(hits[0])
        if k == 0:
            return float(ts[0])
        a, b = float(ts[k - 1]), float(ts[k])
        for _ in range(50):
            mid = 0.5 * (a + b)
            if float(dist_at(np.array([mid]))[0]) <= eps:
                b = mid
            else:
                a = mid
        return b
    return None


def region_membership(x, i: int, arr: ConstraintArrangement, x_d,
                      eps: float) -> bool:
    """Is x inside the shadow region of constraint i as seen from the target?

    For constraints whose dilation excludes -x_d: x must avoid the region
    interior, be at least as far from the target as the dilated set, and the
    great-circle ray from the target through x must meet the dilated set at
    or beyond x.  For the (at most one) exceptional constraint the same ray
    test runs from -x_d without the distance threshold.
    """
    xc = coords_of(x)
    s = arr.sets[i]
    if s.contains_interior(xc):
        return False
    xd = coords_of(x_d)
    attract = is_attracting_index(arr, i, xd, eps)
    base = xd if attract else -xd
    if attract:
        thr = dilation_threshold(arr, i, xd, eps)
        if geo.spherical_distance(xc, xd) < thr - 1e-12:
            return False
    t_x = float(np.arccos(np.clip(xc @ base, -1.0, 1.0)))
    if t_x < 1e-9:
        # x coincides with the base point; only reachable in the exceptional case
        return not attract
    if t_x > np.pi - 1e-9:
        return False
    w = xc - (xc @ base) * base
    w = w / np.linalg.norm(w)
    hit = _ray_hits_dilation(s, base, w, t_x - 1e-12, eps)
    return hit is not None


@dataclass
class DisjointnessReport:
    ok: bool
    witness: np.ndarray | None
    checked: int
    overlaps: int


def validate_region_disjointness(arr: ConstraintArrangement, x_d, eps: float,
                                 samples: int = 200_000,
                                 seed: int = 0) -> DisjointnessReport:
    """Monte-Carlo check that the per-constraint shadow regions never overlap."""
    if len(arr.sets) < 2:
        return DisjointnessReport(True, None, 0, 0)
    xd = coords_of(x_d)
    rng = np.random.default_rng(seed)
    pts = geo.sample_uniform_many(arr.dimension, samples, rng)

    membership = np.zeros((samples, len(arr.sets)), dtype=bool)
    for i, s in enumerate(arr.sets):
        attract = is_attracting_index(arr, i, xd, eps)
        base = xd if attract else -xd
        cand = np.ones(samples, dtype=bool)
        if attract:
            thr = dilation_threshold(arr, i, xd, eps)
            cand &= (1.0 - pts @ xd) >= thr - 1e-12
        # cheap circle-proximity prefilter against the bounding cap
        center, radius = s.bounding()
        reach = min(np.pi, radius + geo.angle_from_distance(eps)) + 1e-9
        cb = pts @ base
        w = pts - np.outer(cb, base)
        wn = np.linalg.norm(w, axis=1)
        good = wn > 1e-12
        cand &= good
        proj = np.hypot(np.full(samples, float(center @ base)),
                        (w @ center) / np.where(good, wn, 1.0))
        prox = np.full(samples, np.inf)
        prox[good] = np.arccos(np.clip(proj[good], -1.0, 1.0))
        cand &= prox <= reach
        for idx in np.nonzero(cand)[0]:
            membership[idx, i] = region_membership(pts[idx], i, arr, xd, eps)

    counts = membership.sum(axis=1)
    overlap_idx = np.nonzero(counts >= 2)[0]
    if overlap_idx.size:
        return DisjointnessReport(False, pts[overlap_idx[0]], samples,
                                  int(overlap_idx.size))
    return DisjointnessReport(True, None, samples, 0)
