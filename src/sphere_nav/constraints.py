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
``boundary_samples`` (chart vertices for star regions), ``bounding``,
``cell_caps``, ``kernel_on_sphere``, ``star_shaped_about`` and ``exact_bound``.
Star regions also answer ``distances_coarse`` (rows; 1 - the best chart-vertex
dot, never below the exact distance), which only their shadow march reads.

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
where every bound is farther.  Every query is a pure function of x.  A star
region's membership asks the body: the point where the ray through x meets
the body hyperplane, moved radially about the kernel by the closure slack,
goes to the profile's own test.  Star regions exist on S^2 and S^3; a build
refuses a body whose hyperplane passes within 1e-6 of the origin and, unless
the body is star-shaped about its kernel by symmetry or by construction,
checks that each ray from the kernel crosses the body boundary once; the
kernel check runs the same crossing test (`crosses_once`) from any other
proposed kernel point.  An arrangement reads each region's ``bounding`` cap
and its cell caps once, and answers the smallest signed margin over its
regions (`union_margin`) and both laws' one band search (`band`); both read
a region that is its own bounding cap (``exact_bound``) from that cap alone.
The validators read such regions in closed form too (`pairwise_separation`,
`_Shadow.members`); no separation is sampled or seeded, and only star
shadows are marched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .charts import PowerSumChart, RadialTableChart
from .errors import (
    DomainError,
    InsideUnsafe,
    MultipleActiveConstraints,
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
DEEP_PENETRATION = 1e-6       # beyond this signed penetration a state is rejected


# ---------------------------------------------------------------------------
# spherical caps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConicCap:
    """Closed spherical cap of half-angle xi about the unit axis g."""

    axis: UnitPoint
    xi: float
    # the region is its own bounding cap, so `bound_margins` is its exact signed margin
    exact_bound = True

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

    Coordinates are taken about the body anchor.  Membership is the sublevel
    test alone, for any kernel.  The body is star-shaped about the anchor
    when all exponents agree; about any other kernel `certify` runs the
    crossing test, whose boundary points are bisected along rays (`radii`).
    """

    def __init__(self, exponents, level: float):
        self.exponents = np.asarray(exponents, dtype=float)
        self.level = float(level)
        e = self.exponents
        if not (0 < self.level < np.inf and np.all((0 < e) & (e < np.inf))):
            raise DomainError("power-sum profile needs positive exponents and level, "
                              "all finite")

    def implicit(self, s: np.ndarray) -> np.ndarray:
        s = np.atleast_2d(s)
        return (np.abs(s) ** self.exponents).sum(axis=1) - self.level

    def contains(self, s: np.ndarray, kernel_s: np.ndarray) -> np.ndarray:
        """Rows of body coordinates s -> in the body; the kernel plays no part."""
        return self.implicit(s) <= 0.0

    def radii(self, kernel_s: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Boundary radius about kernel_s along direction rows, by bisection;
        only the crossing test places boundary points with it."""
        return _radial_bisection(self.implicit, kernel_s, dirs)

    def certify(self, kernel_s: np.ndarray):
        """Raise unless each ray from kernel_s crosses the boundary once."""
        if self.exponents.size != kernel_s.size:
            raise DomainError("power-sum profile needs one exponent per body coordinate")
        # t^e scales every term alike: star-shaped about the anchor
        if np.all(self.exponents == self.exponents[0]) and float(kernel_s @ kernel_s) < 1e-28:
            return
        if not crosses_once(self, kernel_s, kernel_s, self.chart(kernel_s)):
            raise NotStarShaped("a ray from the kernel does not cross the body "
                                "boundary exactly once")

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

    def certify(self, kernel_s: np.ndarray):
        """A table gives one radius a direction about the kernel: star-shaped
        by construction, once the body is planar."""
        if kernel_s.size != 2:
            raise DomainError("radial-table profiles are planar (k = 2)")

    def contains(self, s: np.ndarray, kernel_s: np.ndarray) -> np.ndarray:
        """Rows of body coordinates s -> in the body, whose radius the table
        gives about the kernel."""
        rel = s - kernel_s
        r = np.linalg.norm(rel, axis=1)
        return r <= self.radii(kernel_s, rel / np.maximum(r, 1e-300)[:, None])

    def radii(self, kernel_s: np.ndarray, dirs: np.ndarray) -> np.ndarray:
        """Tabulated radius along direction rows; the table is about the kernel."""
        phi = np.mod(np.arctan2(dirs[:, 1], dirs[:, 0]), 2.0 * np.pi)
        m = self.values.size
        pos = phi * m / (2.0 * np.pi)
        j = np.floor(pos).astype(int) % m
        frac = pos - np.floor(pos)
        return (1.0 - frac) * self.values[j] + frac * self.values[(j + 1) % m]

    def chart(self, kernel_s: np.ndarray) -> RadialTableChart:
        """The segment chart of the boundary; the table is about the kernel."""
        return RadialTableChart(self.values, kernel_s)


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
        self.profile.certify(self.kernel_s)

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


def crosses_once(profile, center: np.ndarray, kernel_s: np.ndarray, chart) -> bool:
    """Does each ray from `center` cross the boundary of a profile's body once?

    The vertices of the profile's chart lie on the boundary and the corners
    of its cells bound its reach.  The rays run through the boundary points,
    placed with the profile's `radii`, on a grid of directions from the
    kernel and through the chart vertices, which hold a spiky body's tips.
    On each, the points before its boundary point must be inside and those
    past it, out to the reach, outside; the boundary point itself is not
    tested.
    """
    dirs = _direction_grid(kernel_s.size, CROSSING_DIRS)
    rel = np.vstack([kernel_s + profile.radii(kernel_s, dirs)[:, None] * dirs,
                     chart.vertices()]) - center
    reach = float(np.linalg.norm(chart.corners() - center, axis=-1).max())
    lam = np.arange(CROSSING_POINTS) / CROSSING_POINTS   # [0, 1)
    # blocks of rays keep the point tables near 2 MB
    for a in range(0, len(rel), 512):
        rho = np.linalg.norm(rel[a:a + 512], axis=1)[:, None]
        unit = rel[a:a + 512] / rho
        past = rho + (1.0 - lam) * (reach - rho)

        def on_rays(r: np.ndarray) -> np.ndarray:
            pts = (center + r[:, :, None] * unit[:, None, :]).reshape(-1, center.size)
            return profile.contains(pts, kernel_s).reshape(r.shape)

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
    projects the chart vertices, which every query, the coarse distances, the
    boundary samples and a star pair's separation read; use
    :func:`build_projected_star`, which also runs the geometric sanity checks.
    """

    exact_bound = False     # `bound_margins` is only a lower bound on its margin

    def __init__(self, body: EuclideanStarBody):
        self.body = body
        self.kernel_on_sphere: UnitPoint = geo.normalize(body.kernel_point)
        self._normal = body.normal
        self._offset = float(self._normal @ body.anchor)
        self._anchor = body.anchor
        self._basisT = np.ascontiguousarray(body.basis.T)
        self._kernel_s = body.kernel_s
        self._profile = body.profile
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
    # The body decides.  tol is a spherical-distance closure, whose radial
    # slack at the hit point s is the angular slack times the lever |P(s)|;
    # s moves radially about the kernel by it and the profile tests the
    # result, which for a body star-shaped about its kernel is r - rho <= slack.

    def _moved_hit_inside(self, x: np.ndarray, lever: float) -> bool:
        """Is the hit point s = t basis^T x - a of the ray {t x, t > 0} in the
        body once moved away from the kernel by lever |P(s)| + 1e-12 (toward it,
        not past it, for a negative lever; off the kernel along the first
        axis)?  No where the ray misses the hyperplane; |P(s)|^2 = h2 + |a + s|^2."""
        denom = float(x @ self._normal)
        if abs(denom) < 1e-15:
            return False
        t = self._offset / denom
        if t <= 0.0:
            return False
        bx = self._basisT @ x
        rel = t * bx - self._a - self._kernel_s
        r = math.sqrt(rel @ rel)
        moved = r + lever * math.sqrt(self._h2 + t * t * (bx @ bx)) + math.copysign(1e-12, lever)
        if r < 1e-15:
            rel, r = self._axis0, 1.0
        s = self._kernel_s + (max(moved, 0.0) / r) * rel
        return bool(self._profile.contains(s[None, :], self._kernel_s)[0])

    def _moved_hits_inside(self, pts: np.ndarray, lever: float) -> np.ndarray:
        """Row version of `_moved_hit_inside`."""
        denom = pts @ self._normal
        ok = np.abs(denom) >= 1e-15
        t = np.where(ok, self._offset / np.where(ok, denom, 1.0), -1.0)
        ok &= t > 0.0
        hits = t[:, None] * pts
        rel = (hits - self._anchor) @ self._basisT.T - self._kernel_s
        r = np.sqrt((rel * rel).sum(axis=1))
        moved = np.maximum(r + lever * np.sqrt((hits * hits).sum(axis=1))
                           + math.copysign(1e-12, lever), 0.0)
        away = r > 1e-15
        dirs = np.where(away[:, None], rel / np.where(away, r, 1.0)[:, None], self._axis0)
        return ok & self._profile.contains(self._kernel_s + moved[:, None] * dirs,
                                           self._kernel_s)

    def contains(self, x, tol: float = BOUNDARY_CLOSURE_TOL) -> bool:
        return self._moved_hit_inside(coords_of(x), -4.0 * math.sqrt(max(2.0 * tol, 0.0)))

    def contains_interior(self, x, tol: float = INTERIOR_TOL) -> bool:
        return self._moved_hit_inside(coords_of(x), math.sqrt(max(2.0 * tol, 0.0)))

    def distances_coarse(self, pts: np.ndarray) -> np.ndarray:
        """1 - the best chart-vertex dot for rows of pts (zero where contained);
        never below the exact distance, since the vertices lie on the boundary."""
        # row blocks keep the (rows x vertices) dot table near 2 MB
        best = np.empty(pts.shape[0])
        for a in range(0, pts.shape[0], 64):
            best[a:a + 64] = (pts[a:a + 64] @ self._vertices.T).max(axis=1)
        d = 1.0 - best
        d[self._moved_hits_inside(pts, -4.0 * math.sqrt(2.0 * BOUNDARY_CLOSURE_TOL))] = 0.0
        return d

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
        other g it takes the crossing test from p, on the body's membership.
        """
        if np.array_equal(g, self.kernel_on_sphere.coords):
            return True
        p = self._offset / float(g @ self._normal) * (self._basisT @ g) - self._a
        return crosses_once(self._profile, p, self._kernel_s, self.chart)


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
    ``cell_owner`` is i (a cap is one cell).  Both laws' band search
    (`band`), `union_margin` and the shadow check read the bounding caps;
    the far-field planner (`screen_entry`) and `suggest_kappa` read where a
    great circle crosses the cells' rows of `band_screen`, through
    `geometry.circle_windows`.
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
        # a None kernel is the region's own kernel point
        self.kernels: list[UnitPoint] = [
            s.kernel_on_sphere if k is None
            else k if isinstance(k, UnitPoint) else UnitPoint(coords_of(k))
            for s, k in zip(self.sets, kernels)
        ]
        self.delta_declared = delta_declared
        self._delta_measured: float | None = None
        self._screens: dict[float, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def __len__(self) -> int:
        return len(self.sets)

    @property
    def dimension(self) -> int:
        return self.kernels[0].n

    def signed_margins(self, x) -> np.ndarray:
        xc = coords_of(x)
        return np.array([s.signed_margin(xc) for s in self.sets])

    def _margin(self, i: int, x: np.ndarray, bound: float, within) -> float:
        """Region i's `distance_warm(x, within)` margin; `bound` where exact."""
        return float(bound) if self.sets[i].exact_bound else self.sets[i].distance_warm(x, within)[0]

    def union_margin(self, x) -> float:
        """The smallest signed margin, signed_margins(x).min() while at most one
        region holds x.  Regions are visited in the order of max(bound_margins,
        0), a lower bound on each margin that is not negative, until it
        reaches the best margin found."""
        xc = coords_of(x)
        bounds = self.bound_margins(xc)
        lower = np.maximum(bounds, 0.0)
        best = np.inf
        for i in np.argsort(lower, kind="stable").tolist():
            if lower[i] >= best:
                break
            best = min(best, self._margin(i, xc, bounds[i], None))
        return float(best)

    def band(self, x: np.ndarray, eps: float):
        """(i, max(margin_i, 0)) for the eps-band holding x, (None, None) in the
        far field; only regions with bound_margins <= eps are read.  Raises
        InsideUnsafe below -DEEP_PENETRATION, MultipleActiveConstraints for two."""
        bounds = self.bound_margins(x)
        hits = []
        for i in np.flatnonzero(bounds <= eps).tolist():
            sm = self._margin(i, x, bounds[i], eps)
            if sm < -DEEP_PENETRATION:
                raise InsideUnsafe(f"state penetrates constraint {i} by {-sm:.3e}")
            if sm <= eps:
                hits.append((i, max(sm, 0.0)))
        if len(hits) > 1:
            raise MultipleActiveConstraints("state lies in more than one constraint band")
        return hits[0] if hits else (None, None)

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

    def screen_entry(self, x_d: np.ndarray, w: np.ndarray, theta0: float,
                     eps: float) -> float:
        """The largest theta <= theta0 at which cos(theta) x_d + sin(theta) w
        lies in a row of `band_screen(eps)`, or -inf where none is met; only
        the rows the circle meets are solved (`geometry.circle_windows`)."""
        centers, cos_reach, _ = self.band_screen(eps)
        a, b = centers @ x_d, centers @ w
        meets = np.hypot(a, b) > cos_reach
        if not meets.any():
            return -np.inf
        phi, alpha = geo.circle_windows(a[meets], b[meets], cos_reach[meets])
        lo = phi - alpha
        lo += 2.0 * np.pi * np.floor((theta0 - lo) / (2.0 * np.pi))
        return float(np.minimum(lo + 2.0 * alpha, theta0).max())

    def delta_measured(self) -> float:
        """pairwise_separation, computed on the first call and kept."""
        if self._delta_measured is None:
            self._delta_measured = pairwise_separation(self)
        return self._delta_measured


# ---------------------------------------------------------------------------
# scalar configuration rules
# ---------------------------------------------------------------------------

def phi(delta: float) -> float:
    """Band-width budget that keeps dilated regions disjoint: 1 - sqrt((2-d)/2)."""
    if not 0.0 < delta <= 2.0:
        raise DomainError(f"phi is defined on (0, 2], got {delta}")
    return 1.0 - np.sqrt((2.0 - delta) / 2.0)


def suggest_epsilon(arr: ConstraintArrangement, x_d) -> float:
    """0.9 * min(phi(delta_measured), d_s(x_d, U)); requires x_d strictly safe.
    A function of the geometry and x_d alone."""
    eps_bar = arr.union_margin(x_d)
    if eps_bar <= 0.0:
        raise TargetInsideUnsafe("target point is not strictly outside the unsafe union")
    delta = arr.delta_measured()
    bound = eps_bar
    if np.isfinite(delta):
        if delta <= 0.0:
            raise DomainError("arrangement has touching regions; separation is non-positive")
        bound = min(bound, phi(min(delta, 2.0)))
    return 0.9 * bound


# ---------------------------------------------------------------------------
# pairwise separation
# ---------------------------------------------------------------------------

def pairwise_separation(arr: ConstraintArrangement) -> float:
    """min over i != j of d_s(U_i, U_j); +inf for fewer than two sets.

    A function of the geometry alone.  An ``exact_bound`` region is its
    bounding cap (centre c, reach r).  Two are apart by exactly 1 - cos(max(0,
    angle(c_i, c_j) - r_i - r_j)); one and any region U by exactly 1 -
    cos(max(0, arccos(1 - d_s(c, U)) - r)), as the cap's point closest to U
    lies on the geodesic from c: zero where U holds c or lies within r of it.
    Two star regions are apart by `_star_separation`.
    """
    m = len(arr.sets)
    if m < 2:
        return float("inf")
    centers, reaches = arr.bound_centers, arr.bound_reaches
    gaps = (np.arccos(np.clip(centers @ centers.T, -1.0, 1.0))
            - reaches[:, None] - reaches[None, :])
    best = float("inf")
    for i in range(m):
        for j in range(i + 1, m):
            a_set, b_set = arr.sets[i], arr.sets[j]
            if a_set.exact_bound and b_set.exact_bound:
                gap = float(gaps[i, j])
            elif a_set.exact_bound or b_set.exact_bound:
                k, other = (i, b_set) if a_set.exact_bound else (j, a_set)
                gap = geo.angle_from_distance(other.distance(centers[k])) - reaches[k]
            else:
                best = min(best, _star_separation(a_set, b_set))
                continue
            best = min(best, 1.0 - math.cos(max(0.0, gap)))
    return max(best, 0.0)


def _star_separation(a_set: ProjectedStarShape, b_set: ProjectedStarShape) -> float:
    """d_s between the boundaries of two star regions (positive for nested
    ones): nearest-boundary passes (`max_boundary_dot`) alternate from their
    closest pair of chart vertices until stable well below 1e-4.  Row blocks
    keep the (vertices x vertices) dot table near 2 MB."""
    pa, pb = a_set._vertices, b_set._vertices
    top, a, b = -np.inf, None, None
    for r in range(0, len(pa), 64):
        dots = pa[r:r + 64] @ pb.T
        ia, ib = np.unravel_index(np.argmax(dots), dots.shape)
        if dots[ia, ib] > top:
            top, a, b = dots[ia, ib], pa[r + ia], pb[ib]
    d = 1.0 - float(a @ b)
    for _ in range(80):
        a = a_set.max_boundary_dot(b)[1]
        b = b_set.max_boundary_dot(a)[1]
        d_new = 1.0 - float(a @ b)
        if d - d_new < 1e-13:
            return min(d, d_new)
        d = d_new
    return d


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
    distance ``threshold``.  The region lies within ``bound`` of ``center``,
    its dilation within ``reach``.
    """

    def __init__(self, arr: ConstraintArrangement, i: int, xd: np.ndarray,
                 eps: float):
        self.region = s = arr.sets[i]
        self.eps = eps
        attract = s.distance(-xd) > eps
        self.base = xd if attract else -xd
        self.threshold = dilation_threshold(arr, i, xd, eps) if attract else None
        self.center, self.bound = arr.bound_centers[i], arr.bound_reaches[i]
        self.reach = min(np.pi, self.bound + geo.angle_from_distance(eps))

    def members(self, pts: np.ndarray) -> np.ndarray:
        """Shadow membership of each row of pts, the rule of `region_membership`.

        A row must lie outside the region's interior, past the threshold and
        short of the far pole, and its ray from the base needs a window in
        [t_x - 1e-12, pi) where it lies within ``reach`` of the centre
        (`geometry.circle_windows`, solved for all rows at once).  D_eps of
        an ``exact_bound`` region is the cap of ``reach``, so an open window
        decides; any other region's row goes on to `ray_hits_dilation`.
        """
        cb = pts @ self.base
        t_x = np.arccos(np.clip(cb, -1.0, 1.0))
        pole = t_x < 1e-9       # the base point: only the exceptional shadow holds it
        keep = t_x <= np.pi - 1e-9
        if self.threshold is not None:
            keep &= ~pole & ((1.0 - cb) >= self.threshold - 1e-12)
        # x(t) = cos t base + sin t w, on the rows of (phi, phi + 2 pi, phi - 2 pi)
        w = pts - np.outer(cb, self.base)
        wn = np.sqrt(np.einsum("ij,ij->i", w, w))
        cw = (w @ self.center) / np.maximum(wn, 1e-300)
        phi, half = geo.circle_windows(float(self.center @ self.base), cw, math.cos(self.reach))
        mids = phi + np.array([0.0, 2.0 * np.pi, -2.0 * np.pi])[:, None]
        lo, hi = np.maximum(t_x - 1e-12, mids - half), np.minimum(np.pi, mids + half)
        opens = hi > lo
        keep &= pole | opens.any(axis=0)
        if self.region.exact_bound:
            gap = np.arccos(np.clip(pts @ self.center, -1.0, 1.0)) - self.bound
            return keep & ~((gap < 0.0) & (1.0 - np.cos(gap) > INTERIOR_TOL))
        out = np.zeros(len(pts), dtype=bool)
        for j in np.flatnonzero(keep).tolist():
            if not self.region.contains_interior(pts[j]):
                out[j] = pole[j] or self.ray_hits_dilation(
                    w[j] / wn[j], t_x[j] - 1e-12,
                    [(lo[k, j], hi[k, j]) for k in np.flatnonzero(opens[:, j]).tolist()])
        return out

    def ray_hits_dilation(self, w: np.ndarray, t_lo: float, windows) -> bool:
        """Does the great-circle ray from the base along the unit tangent w meet
        D_eps(U) at some t in [t_lo, pi)?

        Star regions only.  It can meet it only in `windows`, the (lo, hi)
        pieces of [t_lo, pi) within ``reach`` of the centre (`members`).  The
        exact distance at t_lo is tested first, then each window is marched in
        steps of 1e-3 on coarse distances.  Those are never below the exact
        ones, so the march can miss a crossing of D_eps(U) thinner than the
        step or than the coarse overstatement: a yes is sound, a no is not proof.
        """
        step = 1e-3
        s, base, eps = self.region, self.base, self.eps

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
    test runs from -x_d without the distance threshold (`_Shadow.members`).
    """
    return bool(_Shadow(arr, i, coords_of(x_d), eps).members(coords_of(x)[None, :])[0])


@dataclass
class DisjointnessReport:
    ok: bool
    witness: np.ndarray | None
    checked: int
    overlaps: int


def validate_region_disjointness(arr: ConstraintArrangement, x_d, eps: float,
                                 samples: int, seed: int = 0) -> DisjointnessReport:
    """Monte-Carlo check that the per-constraint shadow regions never overlap;
    each shadow answers for all samples at once (`_Shadow.members`)."""
    if len(arr.sets) < 2:
        return DisjointnessReport(True, None, 0, 0)
    xd = coords_of(x_d)
    rng = np.random.default_rng(seed)
    pts = geo.sample_uniform_many(arr.dimension, samples, rng)
    membership = np.column_stack([_Shadow(arr, i, xd, eps).members(pts)
                                  for i in range(len(arr.sets))])

    counts = membership.sum(axis=1)
    overlap_idx = np.nonzero(counts >= 2)[0]
    if overlap_idx.size:
        return DisjointnessReport(False, pts[overlap_idx[0]], samples,
                                  int(overlap_idx.size))
    return DisjointnessReport(True, None, samples, 0)
