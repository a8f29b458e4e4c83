"""Unsafe-region models on S^n and the validators that certify a configuration.

Two kinds of region are supported:

* spherical caps, ``{x : x.g >= cos(xi)}``, with fully analytic queries;
* star-shaped regions obtained by radially projecting an n-dimensional
  Euclidean star body (living in an affine hyperplane that avoids the
  origin) onto the sphere.

Both answer the same queries, so no caller branches on the region type:
``contains``, ``contains_interior``, ``signed_margin``, ``distance``,
``distance_warm(x, within) -> (signed margin, argmax or None)`` (outside,
where the margin certainly exceeds ``within``, a value above it),
``distances_coarse`` (rows; exact for caps, 1 - the best chart-vertex dot
for star regions, never below the exact distance), ``nearest_boundary``,
``boundary_samples`` (chart vertices for star regions), ``bounding``,
``cell_caps``, ``kernel_on_sphere`` and ``star_shaped_about``.

Spherical distances to a region are ``d_s(x, U) = 1 - sup_{u in U} x.u``;
for exterior points the supremum is attained on the boundary, so star
regions answer distance queries by maximizing the dot product over the
projected boundary.  The boundary is charted into cells (`charts.py`), each
with a sound bounding cap from the corners of a box that holds it: a
power-sum body's 2^k simplex patches cut at edge midpoints, or a radial
table's segments.  A query takes the best chart vertex as its incumbent,
keeps the cells whose cap bound beats it, then those whose second-order
facet bound still does, and solves locally only there; a caller that needs
the margin only where it is within some width gets a bound, and no solve,
where every bound is farther.  Every query is a pure function of x.  Star
regions exist on S^2 and S^3; a build refuses a body whose hyperplane passes
within 1e-6 of the origin and, where a radius is solved along rays, checks
that each ray from the kernel crosses the body boundary once; the kernel
check runs the same crossing test (`crosses_once`) from any other proposed
kernel point.  An arrangement reads each region's ``bounding`` cap and its
cell caps once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import geometry as geo
from .charts import PowerSumChart, RadialTableChart
from .errors import (
    DomainError,
    NotStarShaped,
    OriginInsideBody,
    TargetInsideUnsafe,
)
from .geometry import UnitPoint, coords_of

BOUNDARY_CLOSURE_TOL = 1e-9   # boundary points report as contained
INTERIOR_TOL = 1e-12          # strictly-inside test threshold
CROSSING_DIRS = 4096          # ray directions of the single-crossing test
CROSSING_POINTS = 64          # points before, and past, each ray's boundary point
CELL_PAD = 1e-12              # roundoff pad on every cell reach
BAND_SLACK = 1e-9             # distance slack of the band screen
SEPARATION_SAMPLES = 400      # boundary samples per region in pairwise_separation


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

    def signed_margin(self, x) -> float:
        """Spherical distance to the cap, negative when x is inside."""
        gap = self._angle(x) - self.xi
        return float(np.sign(gap) * (1.0 - np.cos(gap)))

    def distance(self, x) -> float:
        return max(0.0, self.signed_margin(x))

    def distance_warm(self, x, within=None):
        """(signed margin, None); the margin is exact, whatever `within`."""
        return self.signed_margin(x), None

    def distances_coarse(self, pts: np.ndarray) -> np.ndarray:
        """Exact unsigned distances for rows of pts."""
        gap = np.arccos(np.clip(pts @ self.axis.coords, -1.0, 1.0)) - self.xi
        return np.where(gap > 0.0, 1.0 - np.cos(gap), 0.0)

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

    def cell_caps(self) -> tuple[np.ndarray, np.ndarray]:
        """(centers, reaches) of caps covering the boundary: the cap itself."""
        return self.axis.coords[None, :], np.array([self.xi])

    def star_shaped_about(self, g: np.ndarray) -> bool:
        """True: a great circle meets the boundary circle at most twice, so
        the cap is star-shaped about every interior g whose antipode lies
        outside, whatever its half-angle."""
        return True


# ---------------------------------------------------------------------------
# Euclidean star bodies and their radial profiles
# ---------------------------------------------------------------------------

class PowerSumProfile:
    """Sublevel body sum_i |s_i|^e_i <= level in hyperplane coordinates s.

    Coordinates are taken about the body anchor; the radius about the kernel
    point is solved along rays (closed form when the kernel sits at the
    anchor and all exponents agree, checked bisection otherwise).
    """

    def __init__(self, exponents, level: float):
        self.exponents = np.asarray(exponents, dtype=float)
        self.level = float(level)
        e = self.exponents
        if not (0 < self.level < np.inf and np.all((0 < e) & (e < np.inf))):
            raise DomainError("power-sum profile needs positive exponents and level, "
                              "all finite")
        self._equal_e = float(self.exponents[0]) if np.all(
            self.exponents == self.exponents[0]) else None

    def implicit(self, s: np.ndarray) -> np.ndarray:
        s = np.atleast_2d(s)
        return (np.abs(s) ** self.exponents).sum(axis=1) - self.level

    def contains(self, s: np.ndarray, kernel_s: np.ndarray) -> np.ndarray:
        """Rows of body coordinates s -> in the body; the kernel plays no part."""
        return self.implicit(s) <= 0.0

    def radius_fn(self, kernel_s: np.ndarray):
        """Direction rows -> boundary radius about kernel_s, dispatched once."""
        if self.exponents.size != kernel_s.size:
            raise DomainError("power-sum profile needs one exponent per body coordinate")
        # module-level functions under partial, so regions pickle to workers
        if self._equal_e is not None and float(kernel_s @ kernel_s) < 1e-28:
            return partial(_power_sum_radius, self._equal_e, 1.0 / self._equal_e,
                           self.level)
        radius = partial(_radial_bisection, self.implicit, kernel_s)
        if not crosses_once(partial(self.contains, kernel_s=kernel_s), kernel_s, kernel_s,
                            radius, self.chart(kernel_s)):
            raise NotStarShaped("a ray from the kernel does not cross the body "
                                "boundary exactly once")
        return radius

    def chart(self, kernel_s: np.ndarray) -> PowerSumChart:
        """The simplex chart of the boundary; it is taken about the anchor."""
        return PowerSumChart(self.exponents, self.level)


class RadialTableProfile:
    """Tabulated radius about the kernel for planar (k = 2) bodies.

    ``values[j]`` is the boundary radius at angle ``2*pi*j/len(values)``;
    intermediate angles interpolate linearly and periodically.
    """

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 8:
            raise DomainError("radial table needs a flat list of >= 8 radii")
        if not np.all((0 < self.values) & (self.values < np.inf)):
            raise DomainError("radial table values must be positive and finite")

    def radius_fn(self, kernel_s: np.ndarray):
        """Direction rows -> tabulated radius; the table is already about the kernel."""
        if kernel_s.size != 2:
            raise DomainError("radial-table profiles are planar (k = 2)")
        return self._radius

    def contains(self, s: np.ndarray, kernel_s: np.ndarray) -> np.ndarray:
        """Rows of body coordinates s -> in the body, whose radius the table
        gives about the kernel."""
        rel = s - kernel_s
        r = np.linalg.norm(rel, axis=1)
        return r <= self._radius(rel / np.maximum(r, 1e-300)[:, None])

    def _radius(self, dirs: np.ndarray) -> np.ndarray:
        phi = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 2.0 * np.pi)
        m = self.values.size
        pos = phi * m / (2.0 * np.pi)
        j = np.floor(pos).astype(int) % m
        frac = pos - np.floor(pos)
        return (1.0 - frac) * self.values[j] + frac * self.values[(j + 1) % m]

    def chart(self, kernel_s: np.ndarray) -> RadialTableChart:
        """The segment chart of the boundary; the table is about the kernel."""
        return RadialTableChart(self.values, kernel_s)


def _power_sum_radius(e: float, inv_e: float, level: float,
                      dirs: np.ndarray) -> np.ndarray:
    """Closed-form radius of sum_i |s_i|^e <= level about its centre."""
    pw = np.maximum((np.abs(dirs) ** e).sum(axis=1), 1e-300)
    return (level / pw) ** inv_e


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
    and every ray from it crosses the boundary exactly once.  k is 2 or 3.
    """

    anchor: np.ndarray
    basis: np.ndarray          # (n+1, k) orthonormal columns, k = n in {2, 3}
    kernel_point: np.ndarray
    profile: PowerSumProfile | RadialTableProfile

    def __post_init__(self):
        self.anchor = np.asarray(self.anchor, dtype=float)
        self.basis = np.asarray(self.basis, dtype=float)
        self.kernel_point = np.asarray(self.kernel_point, dtype=float)
        m, k = self.basis.shape
        if m != self.anchor.size or k != m - 1:
            raise DomainError("basis must have shape (n+1, n)")
        if k not in (2, 3):
            raise DomainError(f"star bodies are supported on S^2 and S^3, not S^{k}")
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


def complete_basis(normal: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to `normal`.

    Standard basis vectors are Gram-Schmidt projected in index order; the
    result is reproducible across runs, which the tabulated profiles rely on.
    """
    n = np.asarray(normal, dtype=float)
    return geo.tangent_basis(n / np.linalg.norm(n))


def crosses_once(inside, center: np.ndarray, kernel_s: np.ndarray, radius, chart) -> bool:
    """Does each ray from `center` cross the boundary of a body once?

    The body has boundary radius `radius` along direction rows from
    `kernel_s`, its chart's vertices lie on its boundary and the corners of
    its chart cells bound its reach; `inside` maps rows of body coordinates
    to booleans.  The rays run through the boundary points on a grid of
    directions from the kernel and through the chart vertices, which hold a
    spiky body's tips.  On each, the points before its boundary point must be
    inside and those past it, out to the reach, outside; the boundary point
    itself is not tested.
    """
    dirs = _direction_grid(kernel_s.size, CROSSING_DIRS)
    rel = np.vstack([kernel_s + radius(dirs)[:, None] * dirs, chart.vertices()]) - center
    reach = float(np.linalg.norm(chart.corners() - center, axis=-1).max())
    lam = np.arange(CROSSING_POINTS) / CROSSING_POINTS   # [0, 1)
    # blocks of rays keep the point tables near 2 MB
    for a in range(0, len(rel), 512):
        rho = np.linalg.norm(rel[a:a + 512], axis=1)[:, None]
        unit = rel[a:a + 512] / rho
        past = rho + (1.0 - lam) * (reach - rho)

        def on_rays(r: np.ndarray) -> np.ndarray:
            pts = (center + r[:, :, None] * unit[:, None, :]).reshape(-1, center.size)
            return inside(pts).reshape(r.shape)

        if not on_rays(lam * rho).all() or \
                (on_rays(past) & (past > rho + 1e-9 * (1.0 + reach))).any():
            return False
    return True


def _direction_grid(k: int, count: int) -> np.ndarray:
    """Deterministic covering of the unit direction circle (k = 2) or sphere (k = 3)."""
    if k == 2:
        phi = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        return np.column_stack([np.cos(phi), np.sin(phi)])
    # Fibonacci lattice
    i = np.arange(count) + 0.5
    z = 1.0 - 2.0 * i / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


# ---------------------------------------------------------------------------
# projected star shapes on the sphere
# ---------------------------------------------------------------------------

class ProjectedStarShape:
    """Radial projection of a Euclidean star body onto S^n.

    Construction charts the boundary into cells with sound bounding caps and
    projects the chart vertices, which every query, the coarse distances and
    the boundary samples read; use :func:`build_projected_star`, which also
    runs the geometric sanity checks.
    """

    def __init__(self, body: EuclideanStarBody):
        self.body = body
        self.kernel_on_sphere: UnitPoint = geo.normalize(body.kernel_point)
        self._normal = body.normal
        self._offset = float(self._normal @ body.anchor)
        self._anchor = body.anchor
        self._basisT = np.ascontiguousarray(body.basis.T)
        self._kernel_s = body.kernel_s
        self._rho = body.radius
        self._axis0 = np.eye(body.k)[0]
        self._a = self._basisT @ body.anchor
        self._h2 = float(body.anchor @ body.anchor - self._a @ self._a)
        self.chart = body.profile.chart(body.kernel_s)
        # the chart lies in the body hyperplane, clear of the origin
        vert = body.lift(self.chart.vertices())
        self._vertices = vert / np.linalg.norm(vert, axis=1, keepdims=True)

        # a cell's box is convex and its hyperplane misses the origin, so while
        # the reach stays below pi/2 the box's corners bound its angle to a centre
        corners = self.chart.corners()
        box = corners.min(axis=1), corners.max(axis=1)
        corners = corners @ body.basis.T + body.anchor
        corners /= np.sqrt(np.einsum("cij,cij->ci", corners, corners))[:, :, None]
        centers = corners.sum(axis=1)
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        cos_far = np.einsum("cij,cj->ci", corners, centers).min(axis=1)
        del corners     # the largest table of a build; the facets come next
        self.cell_reaches = np.arccos(np.clip(cos_far, -1.0, 1.0)) + CELL_PAD
        if self.cell_reaches.max() >= 0.5 * np.pi:
            raise DomainError("a chart cell of the star body spans pi/2 or more")
        self._cos_r, self._sin_r = np.cos(self.cell_reaches), np.sin(self.cell_reaches)
        self._facet_bounds(*box)
        # one product with x reads every table of a query: the chart vertices,
        # the facet corners, the cell centres, x.anchor and basis^T x
        tables = [self._vertices, self._facet_units, centers, self._anchor[None, :], self._basisT]
        self._probe = np.vstack(tables)
        self._rows = np.cumsum([len(t) for t in tables])
        nv, nf, nc = self._rows[:3]
        self._vertices, self._facet_units = self._probe[:nv], self._probe[nv:nf]
        self.cell_centers = self._probe[nf:nc]
        g = self.kernel_on_sphere.coords
        self._bound_reach = min(np.pi, float(
            (np.arccos(np.clip(centers @ g, -1.0, 1.0)) + self.cell_reaches).max()))

    def _facet_bounds(self, lo: np.ndarray, hi: np.ndarray):
        """The second bound of a query: a cell's boundary dot is at most the
        largest cos(max(0, arccos(top + slack) - eta)) over its facet pieces,
        top being the best dot at a piece's corners.

        On a geodesic arc of length L the dot x.y = R cos(theta - phi), R <= 1,
        rises at most 1 - cos(L/2) above its larger end, so over a piece's arc
        (k = 2) or triangle (k = 3: an arc from a corner to a point of the
        shortest side, at most the half perimeter long) it rises at most
        `slack` above the best corner.  A point of the piece's part of the
        boundary lies within the chart's deviation of a point of the piece,
        both in the cell's box, where |P| is at least the box's distance from
        the origin: at most `eta` away in angle.  `lo` and `hi` are the
        corners of the cells' boxes.
        """
        points, facets, deviation = self.chart.facets()
        self._facets = facets.astype(np.int16 if len(points) < 2 ** 15 else np.intp)
        lifted = self.body.lift(points)
        units = self._facet_units = lifted / np.linalg.norm(lifted, axis=1, keepdims=True)
        k = facets.shape[2]
        sides = np.stack([np.arccos(np.clip(np.einsum("cpi,cpi->cp", units[facets[:, :, i]],
                                                      units[facets[:, :, j]]), -1.0, 1.0))
                          for i in range(k) for j in range(i + 1, k)], axis=2)

        def rise(length):
            return 1.0 - np.cos(0.5 * np.minimum(length, np.pi))

        self._facet_slack = rise(sides.min(axis=2)) + CELL_PAD
        if k == 3:
            self._facet_slack += rise(0.5 * sides.sum(axis=2))
        # |P(s)|^2 = h2 + |a + s|^2, least over the box where -a is nearest
        near = np.clip(-self._a, lo, hi)
        clear = np.sqrt(self._h2 + ((near + self._a) ** 2).sum(axis=1))
        self._facet_eta = deviation / clear[:, None] + CELL_PAD

    def _facet_bound(self, facet_dots: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """The facet bound of each of `cells`, from the dots of x with the facet
        corners (`_facet_bounds`)."""
        top = facet_dots[self._facets[cells]].max(axis=2)
        return np.cos(np.maximum(np.arccos(np.minimum(top + self._facet_slack[cells], 1.0))
                                 - self._facet_eta[cells], 0.0)).max(axis=1)

    # -- membership ---------------------------------------------------------

    def _radial_excess(self, x: np.ndarray):
        """(r - rho, hit norm) for the ray {t x, t > 0} through x, or None when
        it misses the body hyperplane; it hits at s = t basis^T x - a, with
        |P(s)|^2 = h2 + |a + s|^2."""
        denom = float(x @ self._normal)
        if abs(denom) < 1e-15:
            return None
        t = self._offset / denom
        if t <= 0.0:
            return None
        bx = self._basisT @ x
        rel = t * bx - self._a - self._kernel_s
        r = math.sqrt(rel @ rel)
        if r < 1e-15:
            return -float(self._rho(self._axis0[None, :])[0]), 1.0
        rho = float(self._rho(rel[None, :] / r)[0])
        return r - rho, math.sqrt(self._h2 + t * t * (bx @ bx))

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
        # a ray through the kernel itself takes the first axis direction
        away = r > 1e-15
        dirs = np.where(away[:, None], rel / np.where(away, r, 1.0)[:, None],
                        self._axis0)
        return ok, r, self._rho(dirs), np.sqrt((hits * hits).sum(axis=1))

    def distances_coarse(self, pts: np.ndarray) -> np.ndarray:
        """1 - the best chart-vertex dot for rows of pts (zero where contained);
        never below the exact distance, since the vertices lie on the boundary."""
        # row blocks keep the (rows x vertices) dot table near 2 MB
        best = np.empty(pts.shape[0])
        for a in range(0, pts.shape[0], 64):
            best[a:a + 64] = (pts[a:a + 64] @ self._vertices.T).max(axis=1)
        d = 1.0 - best
        # `contains`, row by row
        ok, r, rho, hit_norm = self._radial_excess_many(pts)
        d[ok & (r <= rho + (np.sqrt(2.0 * BOUNDARY_CLOSURE_TOL) * hit_norm * 4.0 + 1e-12))] = 0.0
        return d

    def contains_interior(self, x, tol: float = INTERIOR_TOL) -> bool:
        out = self._radial_excess(coords_of(x))
        if out is None:
            return False
        excess, hit_norm = out
        return excess < -(np.sqrt(max(2.0 * tol, 0.0)) * hit_norm + 1e-12)

    # -- boundary-dot maximization (distance queries) ------------------------

    def max_boundary_dot(self, x, floor: float = -np.inf):
        """(best dot, its boundary point on the sphere); the distance is 1 - best dot.

        The best chart vertex is the incumbent.  A bound pass keeps the cells
        whose cap bound cos(max(0, angle(x, centre) - reach)) beats it, a
        second keeps those of them whose facet bound (`_facet_bound`) still
        does, and the chart's local solves run only there.  Where the
        incumbent and every bound lie below `floor`, it returns the largest
        of them, which the maximum does not exceed, and no point.  A pure
        function of x.
        """
        xc = coords_of(x)
        scale = math.sqrt(xc @ xc)
        xn = xc / scale
        nv, nf, nc, na = self._rows[:4]
        probe = self._probe @ xn
        dots, cc = probe[:nv], probe[nf:nc]
        best = min(1.0, float(dots.max()))
        # angle - reach < arccos(best), compared as cosines
        kept = cc > self._cos_r * best - self._sin_r * math.sqrt(1.0 - best * best) - 1e-12
        if best < 0.0:      # reaches are below pi/2: a cap can reach the antipode
            kept |= self.cell_reaches >= np.pi - math.acos(best)
        cells = np.flatnonzero(kept)
        bounds = self._facet_bound(probe[nv:nf], cells)
        if max(best, bounds.max(initial=-1.0)) * scale < floor:
            return max(best, bounds.max(initial=-1.0)) * scale, None
        keep = bounds > best
        q = (float(probe[nc]), probe[na:], self._h2, self._a)
        best, s = self.chart.refine(q, dots, cells[keep], bounds[keep])
        p = self._anchor + self._basisT.T @ s
        return best * scale, p / math.sqrt(p @ p)

    def distance(self, x) -> float:
        """d_s(x, U); zero inside, the boundary maximum outside."""
        if self.contains(x):
            return 0.0
        return 1.0 - self.max_boundary_dot(x)[0]

    def distance_warm(self, x: np.ndarray, within=None):
        """(signed margin, nearest boundary point).  Outside the region, where
        the margin certainly exceeds `within`, it is a lower bound above
        `within` and the point is None (`max_boundary_dot`'s floor)."""
        if self.contains(x):
            best, point = self.max_boundary_dot(x)
            return best - 1.0, point
        best, point = self.max_boundary_dot(x, -np.inf if within is None else 1.0 - within)
        return 1.0 - best, point

    def signed_margin(self, x) -> float:
        """Distance to the boundary, negative when inside the region."""
        return self.distance_warm(x, None)[0]

    def nearest_boundary(self, x) -> np.ndarray:
        """Nearest boundary point (the first of equal maxima)."""
        return self.max_boundary_dot(x)[1]

    def boundary_samples(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Up to `count` distinct projected chart vertices."""
        vert = self._vertices
        return vert[rng.choice(len(vert), size=min(count, len(vert)), replace=False)]

    def bounding(self) -> tuple[np.ndarray, float]:
        """(center, angular reach): the kernel image, and the largest reach of a
        cell measured from it."""
        return self.kernel_on_sphere.coords, self._bound_reach

    def cell_caps(self) -> tuple[np.ndarray, np.ndarray]:
        """(centers, reaches) of the chart cells' caps, which cover the boundary."""
        return self.cell_centers, self.cell_reaches

    def star_shaped_about(self, g: np.ndarray) -> bool:
        """Is the region star-shaped about its interior point g?

        Radial projection maps the segments of the body's hyperplane to
        geodesic arcs, so it is exactly when the body is star-shaped about p,
        where the ray through g meets the hyperplane.  About its own kernel
        image the build certified that, or it holds analytically; about any
        other g it takes the crossing test from p, on the membership of the
        body (the region's, without a radius solve per point).
        """
        if np.array_equal(g, self.kernel_on_sphere.coords):
            return True
        p = self._offset / float(g @ self._normal) * (self._basisT @ g) - self._a
        return crosses_once(partial(self.body.profile.contains, kernel_s=self._kernel_s), p,
                            self._kernel_s, self._rho, self.chart)


def build_projected_star(body: EuclideanStarBody) -> ProjectedStarShape:
    """Project a Euclidean star body onto the sphere and certify the build.

    Raises OriginInsideBody, before the chart is built, when the body's
    hyperplane passes within 1e-6 of the origin: every point of the hyperplane,
    so every boundary point and kernel-to-boundary segment, lies at least
    |normal . anchor| from it.  Star-shapedness is checked where a profile
    solves its radius (NotStarShaped); segments in the body's hyperplane, which
    misses the origin, project onto geodesics.
    """
    if abs(float(body.normal @ body.anchor)) <= 1e-6:
        raise OriginInsideBody("the body's hyperplane passes within 1e-6 of the origin")
    return ProjectedStarShape(body)


ConstraintSet = ConicCap | ProjectedStarShape


# ---------------------------------------------------------------------------
# constraint arrangements
# ---------------------------------------------------------------------------

class ConstraintArrangement:
    """Immutable collection of unsafe regions with one kernel point per set.

    Region i lies within angle ``bound_reaches[i]`` of ``bound_centers[i]``
    (its bounding cap; a cap is its own).  Its boundary lies in the caps of
    its cells, the rows of ``cell_centers`` and ``cell_reaches`` whose
    ``cell_owner`` is i (a cap is one cell).  The conic law and the shadow
    check read the bounding caps; the star law, `suggest_kappa` and the
    far-field planner read the cells through `kept_regions` and
    `screen_entry`.
    """

    def __init__(self, sets, kernels=None, delta_declared: float | None = None):
        self.sets: list[ConstraintSet] = list(sets)
        if not self.sets:
            raise DomainError("an arrangement needs at least one region")
        kernels = [None] * len(self.sets) if kernels is None else list(kernels)
        if len(kernels) != len(self.sets):
            raise DomainError("one kernel per constraint set is required")
        bounds = [s.bounding() for s in self.sets]
        self.bound_centers = np.array([c for c, _ in bounds])
        self.bound_reaches = np.array([r for _, r in bounds])
        cells = [s.cell_caps() for s in self.sets]
        # one region's rows are its own arrays, not a copy
        self.cell_centers, self.cell_reaches = cells[0] if len(cells) == 1 else \
            (np.vstack([c for c, _ in cells]), np.concatenate([r for _, r in cells]))
        self.cell_owner = np.repeat(np.arange(len(cells)), [len(r) for _, r in cells])
        self._first_cell = np.searchsorted(self.cell_owner, np.arange(len(cells)))
        # a None kernel is the region's own kernel point
        self.kernels: list[UnitPoint] = [
            s.kernel_on_sphere if k is None
            else k if isinstance(k, UnitPoint) else UnitPoint(coords_of(k))
            for s, k in zip(self.sets, kernels)
        ]
        self.delta_declared = delta_declared
        self._delta_measured: dict[int, float] = {}
        self._screens: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.sets)

    @property
    def dimension(self) -> int:
        return self.kernels[0].n

    def distances(self, x) -> np.ndarray:
        xc = coords_of(x)
        return np.array([s.distance(xc) for s in self.sets])

    def signed_margins(self, x) -> np.ndarray:
        xc = coords_of(x)
        return np.array([s.signed_margin(xc) for s in self.sets])

    def bound_margins(self, x: np.ndarray) -> np.ndarray:
        """sign(g)(1 - cos g) per region, g = angle(x, bound_centers) - bound_reaches.

        The exact signed margin of a cap, a lower bound on a star region's; raw
        dots with x, so off-sphere stencil points read the ambient extension.
        """
        gaps = (np.arccos(np.clip(self.bound_centers @ x, -1.0, 1.0))
                - self.bound_reaches)
        return np.sign(gaps) * (1.0 - np.cos(gaps))

    def band_screen(self, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(centers, cos_reach, owner), one row per cell: x lies within eps of
        region i's boundary only if centers[j] @ x >= cos_reach[j] ||x|| for a
        row j with owner[j] == i.  cos_reach is cos(cell_reaches + arccos(1 -
        eps - BAND_SLACK)), or -inf where that angle reaches pi.
        """
        if eps not in self._screens:
            reach = self.cell_reaches + math.acos(max(1.0 - eps - BAND_SLACK, -1.0))
            self._screens[eps] = (self.cell_centers,
                                  np.where(reach < np.pi, np.cos(reach), -np.inf),
                                  self.cell_owner)
        return self._screens[eps]

    def kept_regions(self, pts: np.ndarray, eps: float) -> np.ndarray:
        """(points, regions) booleans: row x lies within eps of region i's
        boundary only where a row of `band_screen` that i owns keeps x."""
        centers, cos_reach, _ = self.band_screen(eps)
        kept = np.empty((len(pts), len(self)), dtype=bool)
        # row blocks keep the (points x cells) table near 1 MB
        table = np.empty((min(len(pts), 64), len(centers)))
        for a in range(0, len(pts), 64):
            block = pts[a:a + 64]
            dots = np.matmul(block, centers.T, out=table[:len(block)])
            dots /= np.sqrt(np.einsum("ij,ij->i", block, block))[:, None]
            kept[a:a + 64] = np.logical_or.reduceat(dots >= cos_reach, self._first_cell, axis=1)
        return kept

    def screen_entry(self, x_d: np.ndarray, w: np.ndarray, theta0: float,
                     eps: float) -> float:
        """The largest theta <= theta0 at which cos(theta) x_d + sin(theta) w
        lies in a row of `band_screen(eps)`, or -inf where none is met."""
        centers, cos_reach, _ = self.band_screen(eps)
        # x(theta).c = R cos(theta - phi) reaches cos_reach, with theta falling
        # from theta0; the row holds [lo, lo + 2 alpha] mod 2 pi
        a, b = centers @ x_d, centers @ w
        R = np.hypot(a, b)
        meets = R > cos_reach
        if not meets.any():
            return -np.inf
        alpha = np.arccos(np.clip(cos_reach[meets] / R[meets], -1.0, 1.0))
        lo = np.arctan2(b[meets], a[meets]) - alpha
        lo += 2.0 * np.pi * np.floor((theta0 - lo) / (2.0 * np.pi))
        return float(np.minimum(lo + 2.0 * alpha, theta0).max())

    def delta_measured(self, seed: int = 0) -> float:
        """pairwise_separation, cached per seed."""
        if seed not in self._delta_measured:
            self._delta_measured[seed] = pairwise_separation(self, seed=seed)
        return self._delta_measured[seed]


# ---------------------------------------------------------------------------
# scalar configuration rules
# ---------------------------------------------------------------------------

def phi(delta: float) -> float:
    """Band-width budget that keeps dilated regions disjoint: 1 - sqrt((2-d)/2)."""
    if not 0.0 < delta <= 2.0:
        raise DomainError(f"phi is defined on (0, 2], got {delta}")
    return 1.0 - np.sqrt((2.0 - delta) / 2.0)


def suggest_epsilon(arr: ConstraintArrangement, x_d, seed: int = 0) -> float:
    """0.9 * min(phi(delta_measured), d_s(x_d, U)); requires x_d strictly safe."""
    margins = arr.signed_margins(x_d)
    if float(margins.min()) <= 0.0:
        raise TargetInsideUnsafe("target point is not strictly outside the unsafe union")
    eps_bar = float(margins.min())
    delta = arr.delta_measured(seed=seed)
    bound = eps_bar
    if np.isfinite(delta):
        if delta <= 0.0:
            raise DomainError("arrangement has touching regions; separation is non-positive")
        bound = min(bound, phi(min(delta, 2.0)))
    return 0.9 * bound


# ---------------------------------------------------------------------------
# pairwise separation
# ---------------------------------------------------------------------------

def pairwise_separation(arr: ConstraintArrangement, seed: int = 0) -> float:
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
            pa = a_set.boundary_samples(SEPARATION_SAMPLES, rng)
            pb = b_set.boundary_samples(SEPARATION_SAMPLES, rng)
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


@dataclass
class KernelReport:
    ok: bool
    failures: list[KernelFailure]
    interior_margin: float
    antipode_margin: float


def validate_kernel(s: ConstraintSet, g) -> KernelReport:
    """Certify g as a usable kernel point of the region.

    Checks: (a) g lies strictly inside; (b) -g lies outside; (c) geodesics
    from g to the boundary stay inside (kernel membership); (d) geodesics
    from the boundary on to -g never enter the interior.  Given (a) and (b),
    (c) and (d) both hold exactly when the region is star-shaped about g
    (`star_shaped_about`), and fail together: a ray from an interior point
    that crosses the boundary more than once crosses it at least three
    times, so it leaves and re-enters.  Nothing is drawn at random.
    """
    gc = coords_of(g)
    failures: list[KernelFailure] = []

    # distance from g to the region boundary, positive only when g is inside
    interior_margin = -s.signed_margin(gc)
    interior = interior_margin > INTERIOR_TOL and s.contains(gc)
    if not interior:
        failures.append(KernelFailure("NotInInterior"))

    anti_margin = s.signed_margin(-gc)
    if s.contains(-gc) or anti_margin <= 0.0:
        failures.append(KernelFailure("AntipodeInside"))

    if interior and not s.star_shaped_about(gc):
        failures += [KernelFailure("GeodesicEscapes"), KernelFailure("ReverseGeodesicEnters")]

    return KernelReport(ok=not failures, failures=failures,
                        interior_margin=float(interior_margin),
                        antipode_margin=float(anti_margin))


# ---------------------------------------------------------------------------
# shadow regions and their disjointness
# ---------------------------------------------------------------------------

def dilation_threshold(arr: ConstraintArrangement, i: int, x_d, eps: float) -> float:
    """d_s(x_d, D_eps(U_i)), via angle arithmetic on the undilated distance."""
    d = float(arr.sets[i].distance(coords_of(x_d)))
    ang = geo.angle_from_distance(d) - geo.angle_from_distance(eps)
    return geo.distance_from_angle(max(0.0, ang))


class _Shadow:
    """The constants of constraint i's shadow region, computed once per check.

    ``base`` is the target x_d, or -x_d for the (at most one) exceptional
    constraint whose dilation holds -x_d; only the generic ones have a
    distance ``threshold``.  The dilation lies within ``reach`` of ``center``.
    """

    def __init__(self, arr: ConstraintArrangement, i: int, xd: np.ndarray,
                 eps: float):
        self.region = s = arr.sets[i]
        self.eps = eps
        attract = s.distance(-xd) > eps
        self.base = xd if attract else -xd
        self.threshold = dilation_threshold(arr, i, xd, eps) if attract else None
        self.center = arr.bound_centers[i]
        self.reach = min(np.pi, arr.bound_reaches[i] + geo.angle_from_distance(eps))

    def candidates(self, pts: np.ndarray) -> np.ndarray:
        """Rows that may be members; every row it drops fails `contains`."""
        cb = pts @ self.base
        w = pts - np.outer(cb, self.base)
        wn = np.linalg.norm(w, axis=1)
        cand = wn > 1e-12
        if self.threshold is not None:
            cand &= (1.0 - cb) >= self.threshold - 1e-12
        # the great circle through the base and the row passes near the centre
        proj = np.hypot(float(self.center @ self.base),
                        (w @ self.center) / np.where(cand, wn, 1.0))
        return cand & (np.arccos(np.clip(proj, -1.0, 1.0)) <= self.reach + 1e-9)

    def contains(self, xc: np.ndarray) -> bool:
        """The exact membership test of `region_membership`."""
        if self.region.contains_interior(xc):
            return False
        if self.threshold is not None and \
                geo.spherical_distance(xc, self.base) < self.threshold - 1e-12:
            return False
        t_x = float(np.arccos(np.clip(xc @ self.base, -1.0, 1.0)))
        if t_x < 1e-9:
            # x coincides with the base point; only reachable in the exceptional case
            return self.threshold is None
        if t_x > np.pi - 1e-9:
            return False
        w = xc - (xc @ self.base) * self.base
        w = w / np.linalg.norm(w)
        return self.ray_hits_dilation(w, t_x - 1e-12)

    def ray_hits_dilation(self, w: np.ndarray, t_lo: float) -> bool:
        """Does the great-circle ray from the base meet D_eps(U) at some t in [t_lo, pi)?

        Only the windows where the circle passes within ``reach`` of the
        bounding centre can meet it; none opens when the whole circle stays
        clear.  The exact distance at t_lo is tested first, then each window
        is marched in steps of 1e-3 on coarse distances.  Those are never
        below the exact ones, so the march can miss a crossing of D_eps(U)
        thinner than the step or than the coarse overstatement: a yes is
        sound, a no is not proof.
        """
        step = 1e-3
        s, base, center, eps = self.region, self.base, self.center, self.eps
        rc = float(np.hypot(center @ base, center @ w))
        phi0 = float(np.arctan2(center @ w, center @ base))
        half = float(np.arccos(np.clip(np.cos(self.reach) / max(rc, 1e-15), -1.0, 1.0)))
        windows = [(max(t_lo, c - half), min(np.pi, c + half))
                   for c in (phi0, phi0 + 2.0 * np.pi, phi0 - 2.0 * np.pi)]
        windows = [(lo, hi) for lo, hi in windows if hi > lo]
        if not windows:
            return False

        def on_ray(ts: np.ndarray) -> np.ndarray:
            return np.outer(np.cos(ts), base) + np.outer(np.sin(ts), w)

        if s.distance(on_ray(np.array([t_lo]))[0]) <= eps:
            return True
        return any(bool((s.distances_coarse(on_ray(np.arange(lo, hi + step, step))) <= eps).any())
                   for lo, hi in windows)


def region_membership(x, i: int, arr: ConstraintArrangement, x_d,
                      eps: float) -> bool:
    """Is x inside the shadow region of constraint i as seen from the target?

    For constraints whose dilation excludes -x_d: x must avoid the region
    interior, be at least as far from the target as the dilated set, and the
    great-circle ray from the target through x must meet the dilated set at
    or beyond x.  For the (at most one) exceptional constraint the same ray
    test runs from -x_d without the distance threshold.
    """
    return _Shadow(arr, i, coords_of(x_d), eps).contains(coords_of(x))


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
    for i in range(len(arr.sets)):
        shadow = _Shadow(arr, i, xd, eps)
        for idx in np.nonzero(shadow.candidates(pts))[0]:
            membership[idx, i] = shadow.contains(pts[idx])

    counts = membership.sum(axis=1)
    overlap_idx = np.nonzero(counts >= 2)[0]
    if overlap_idx.size:
        return DisjointnessReport(False, pts[overlap_idx[0]], samples,
                                  int(overlap_idx.size))
    return DisjointnessReport(True, None, samples, 0)
