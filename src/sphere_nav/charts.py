"""Boundary charts of Euclidean star bodies, for star-region distance queries.

A chart cuts a body's boundary into cells, each inside a box whose corners
(`corners`) bound it and close to the flat simplex spanned by its boundary
corners (`facets`), and carries a grid of boundary vertices (`vertices`) and
the body's tips (`tips_s`).  `refine` maximizes the boundary dot
x.P(s)/|P(s)| from the best vertex over the cells a caller's bound keeps.
A power-sum body is 2^k simplex patches, each cut at edge midpoints; a
radial table is charted by its segments.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

CELL_LEVEL = 4                # edge-midpoint subdivisions of each power-sum chart patch
VERTEX_LEVEL = 5              # the same for the vertex grid of the local solves
NEWTON_ROUNDS = 60            # most rounds of a local boundary solve
ESCAPE_BUDGET = 16            # most extra solves from non-maximal stationary points
SEGMENT_SAMPLES = 64          # samples per radial-table segment in its local solve


def _boundary_dots(q, s: np.ndarray) -> np.ndarray:
    """x.P(s)/|P(s)| for body-coordinate rows s, where P(s) = anchor + basis s.

    q = (x.anchor, basis^T x, h2, a) with a = basis^T anchor and
    h2 = |anchor|^2 - |a|^2, so |P(s)|^2 = h2 + |a + s|^2.
    """
    c0, b, h2, a = q
    m = s + a
    return (c0 + s @ b) / np.sqrt(h2 + (m * m).sum(axis=1))


def _simplex_grid(k: int, n: int):
    """(points, cells) of the regular grid with n steps per edge on the simplex
    Delta^(k-1), k = 2 or 3; n = 2^level is what `level` rounds of edge-midpoint
    subdivision give.  cells holds k point indices per row."""
    if k == 2:
        pts = [(i, n - i) for i in range(n + 1)]
        cells = [(i, i + 1) for i in range(n)]
    else:
        pts = [(i, j, n - i - j) for i in range(n + 1) for j in range(n + 1 - i)]
        idx = {p[:2]: t for t, p in enumerate(pts)}
        cells = [(idx[i, j], idx[i + 1, j], idx[i, j + 1])
                 for i in range(n) for j in range(n - i)]
        cells += [(idx[i + 1, j], idx[i, j + 1], idx[i + 1, j + 1])
                  for i in range(n - 1) for j in range(n - 1 - i)]
    return np.array(pts, dtype=float) / n, np.array(cells)


@functools.lru_cache(maxsize=None)
def cell_boxes(k: int):
    """(sign, lo, hi): each cell's sign pattern and w-box, patch by patch."""
    signs = np.array(list(itertools.product((1, -1), repeat=k)))
    coarse, tri = _simplex_grid(k, 2 ** CELL_LEVEL)
    return (np.repeat(signs, len(tri), axis=0).astype(float),
            np.tile(coarse[tri].min(axis=1), (len(signs), 1)),
            np.tile(coarse[tri].max(axis=1), (len(signs), 1)))


@functools.lru_cache(maxsize=None)
def _facet_grid(k: int):
    """(points, facets): the simplex grid with twice the cells' steps per edge,
    and each cell's 2^(k-1) halves (k = 2) or quarters (k = 3) of its edge
    midpoint subdivision as rows of point indices, (cells of a patch, piece,
    corner), cells in the order of `cell_boxes` within a patch."""
    n = 2 ** CELL_LEVEL
    coarse, tri = _simplex_grid(k, n)
    fine, _ = _simplex_grid(k, 2 * n)

    def key(lattice):
        return lattice[..., 0] * (2 * n + 1) + lattice[..., 1]

    lookup = np.empty((2 * n + 1) ** 2, dtype=int)
    lookup[key(np.rint(fine * 2 * n).astype(int))] = np.arange(len(fine))
    c = list(np.rint(coarse * n).astype(int)[tri].transpose(1, 0, 2))   # corners
    if k == 2:
        pieces = [(2 * c[0], c[0] + c[1]), (c[0] + c[1], 2 * c[1])]
    else:
        ab, bc, ca = c[0] + c[1], c[1] + c[2], c[2] + c[0]
        pieces = [(2 * c[0], ab, ca), (ab, 2 * c[1], bc), (ca, bc, 2 * c[2]), (ab, bc, ca)]
    return fine, lookup[key(np.stack([np.stack(p, axis=1) for p in pieces], axis=1))]


@functools.lru_cache(maxsize=None)
def _patch_grids(k: int):
    """The body-independent tables of the 2^k simplex patches, built once per k:
    the vertex grid in u (a tip or ridge point shared by patches is one
    vertex), each vertex's grid neighbours across patches and the vertices
    near each cell."""
    signs = np.array(list(itertools.product((1, -1), repeat=k)))
    _, lo, hi = cell_boxes(k)
    vert_u, nbrs = _vertex_grid(signs)
    v, c = _near_pairs(signs, vert_u, nbrs, lo, hi)
    return vert_u, nbrs, _table(c, v, len(lo))


def _vertex_grid(signs: np.ndarray):
    """(u, neighbours) of the 2^VERTEX_LEVEL-per-edge grid on the patches; the
    neighbours of vertex i are column i, so a gather reduces along axis 0."""
    k, n = signs.shape[1], 2 ** VERTEX_LEVEL
    fine, ftri = _simplex_grid(k, n)
    signed = (signs[:, None, :] * np.rint(fine * n).astype(int)).reshape(-1, k)
    key = ((signed + n) * (2 * n + 1) ** np.arange(k)).sum(axis=1)
    order = np.argsort(key, kind="stable")
    new = np.r_[True, np.diff(key[order]) != 0]
    first, ids = order[new], np.empty_like(order)
    ids[order] = np.cumsum(new) - 1
    # spaced evenly in u, where the local solves run, not in w
    vert_u = signed[first] / np.linalg.norm(signed[first], axis=1, keepdims=True)
    ids = ids.reshape(len(signs), -1)
    pairs = np.vstack([ids[:, ftri[:, [a, b]]].reshape(-1, 2)
                       for a, b in itertools.combinations(range(k), 2)])
    edge = np.sort(np.r_[pairs[:, 0] * len(first) + pairs[:, 1],
                         pairs[:, 1] * len(first) + pairs[:, 0]])
    edge = edge[np.r_[True, np.diff(edge) != 0]]
    return vert_u, np.ascontiguousarray(_table(*np.divmod(edge, len(first)), len(first)).T)


def _near_pairs(signs, vert_u, nbrs, cell_lo, cell_hi):
    """(vertex, cell) pairs that are near: the cell lies on a patch of the
    vertex's signs and its w-box meets the w-box of the vertex's grid
    neighbours, widened by a quarter each side."""
    w = (vert_u * vert_u)[nbrs]
    lo, hi = w.min(axis=0), w.max(axis=0)
    lo, hi = lo - 0.25 * (hi - lo) - 1e-9, hi + 0.25 * (hi - lo) + 1e-9
    per = len(cell_lo) // len(signs)
    near = []
    for p, sign in enumerate(signs):
        verts = np.flatnonzero((vert_u * sign >= 0.0).all(axis=1))
        meet = np.ones((verts.size, per), dtype=bool)
        for j in range(signs.shape[1]):
            meet &= (lo[verts, None, j] <= cell_hi[p * per:(p + 1) * per, j]) & \
                (hi[verts, None, j] >= cell_lo[p * per:(p + 1) * per, j])
        v, c = np.nonzero(meet)
        near.append(np.column_stack([verts[v], c + p * per]).astype(np.int16))
    return np.vstack(near).T


def _table(key: np.ndarray, value: np.ndarray, n: int) -> np.ndarray:
    """(n, most values of a key): row i holds the values of key i, padded with
    its first; every key in range(n) has one."""
    order = np.lexsort((value, key))
    key, value = key[order], value[order]
    count = np.bincount(key, minlength=n)
    start = (np.cumsum(count) - count).astype(np.int32)
    table = np.repeat(value[start][:, None], count.max(), axis=1)
    table[key, np.arange(key.size, dtype=np.int32) - np.repeat(start, count)] = value
    return table


class PowerSumChart:
    """The boundary sum_i |s_i|^e_i = L as 2^k patches s_i = sigma_i (L w_i)^(1/e_i).

    w runs over the simplex; spike tips are its vertices, ridge arcs its edges
    and the smooth faces its interior.  Each patch is cut into the regular grid
    of 2^CELL_LEVEL steps per edge.  On a patch s_i depends on w_i alone and
    is monotone, so a cell lies in the s-box spanned by its w-box.  The vertex
    grid is 2^VERTEX_LEVEL steps per edge, with each point's grid neighbours
    across patches.

    Local solves run in u = sigma sqrt(w) on the unit sphere S^(k-1), where
    s_i = sign(u_i) L^(1/e_i) |u_i|^(2/e_i): one chart for all patches,
    smooth where 2/e_i is an odd integer or at least 2, in which spike tips
    and ridge maxima are stationary points.
    """

    def __init__(self, exponents: np.ndarray, level: float):
        self.exponents = exponents
        self.power = 2.0 / exponents
        self.scale = level ** (1.0 / exponents)
        self._pw, self._sc = self.power.tolist(), self.scale.tolist()
        self.vert_u, self.vert_nbrs, self.cell_verts = _patch_grids(exponents.size)
        self.tips_s = self.s_of(self.vert_u[np.abs(self.vert_u).max(axis=1) == 1.0])

    def corners(self) -> np.ndarray:
        """(cell, corner, coordinate): the 2^k corners of each cell's s-box."""
        sign, lo, hi = cell_boxes(self.exponents.size)
        corner = np.array(list(itertools.product((False, True), repeat=self.exponents.size)))
        box = np.where(corner, hi[:, None, :], lo[:, None, :])
        return sign[:, None, :] * self.scale * box ** (1.0 / self.exponents)

    def vertices(self) -> np.ndarray:
        return self.s_of(self.vert_u)

    def facets(self):
        """(points, simplices, deviation): the pieces of each cell's edge
        midpoint subdivision as simplices with corners on the boundary, (cell,
        piece, corner) indices into `points`, and per piece a bound on the
        distance from its part of the boundary to the point of its simplex
        with the same barycentric weights in w.

        A piece's corners take two values lo_i < hi_i of each w_i, so on its
        simplex s_i is the secant of sigma_i (L w_i)^(1/e_i) over [lo_i, hi_i],
        and the boundary's s_i departs from it by at most that power's largest
        gap to its secant, at the w_i where the slopes agree.
        """
        k = self.exponents.size
        grid, pieces = _facet_grid(k)
        patches = np.array(list(itertools.product((1, -1), repeat=k)))
        gamma = 1.0 / self.exponents
        points = (patches[:, None, :] * self.scale * grid ** gamma).reshape(-1, k)
        simplices = (np.arange(len(patches))[:, None, None, None] * len(grid)
                     + pieces).reshape(-1, *pieces.shape[1:])
        w = grid[pieces]
        lo, hi = w.min(axis=2), w.max(axis=2)
        g_lo, g_hi = self.scale * lo ** gamma, self.scale * hi ** gamma
        slope = (g_hi - g_lo) / (hi - lo)
        with np.errstate(divide="ignore", invalid="ignore"):
            w = np.clip((slope / (self.scale * gamma)) ** (1.0 / (gamma - 1.0)), lo, hi)
        gap = np.where(gamma == 1.0, 0.0, np.abs(self.scale * w ** gamma - g_lo - slope * (w - lo)))
        deviation = np.linalg.norm(gap, axis=-1) * (1.0 + 1e-12)
        return points, simplices, np.tile(deviation, (len(patches), 1))

    def s_of(self, u: np.ndarray) -> np.ndarray:
        return np.sign(u) * self.scale * np.abs(u) ** self.power

    def _ascend(self, q, u, ends: list):
        """(value, u, escapes) of a saddle-free Newton ascent on S^(k-1) from u.

        Each step divides the gradient's component along each eigenvector of
        the Hessian in u, reduced to the tangent space with -lam (lam =
        u . grad) added for the sphere's curvature, by that eigenvalue's
        modulus (Newton's step where the Hessian is negative definite); it is
        at most 0.25 long and halved until the value does not fall.  In s the
        Hessian of the boundary dot is -(b m^T + m b^T)/|P|^3 - r3 I +
        3 r3 m m^T/|P|^2, m = a + s; in u it is D that D plus diag(s_i'' g_i),
        D = diag(s_i').  The ascent ends at a maximum once the predicted gain
        is below roundoff, or early within 1e-2 of `ends`, the points where
        earlier ascents ended (a heuristic: it takes them for the maxima of
        its basin).  At a stationary point that is not a maximum (a grid
        vertex on a ridge or a tip can start on one) it returns both signs of
        the eigenvectors of non-negative curvature as escapes.  Plain floats,
        unrolled for k = 3 (a circle, k = 2, is the plane w = 0 of the same
        formulas): a numpy step, or a loop over the coordinates, costs
        several times more.
        """
        c0, b, h2, a = q
        k = len(u)
        if k == 2:
            # the circle u2 = 0 of a third coordinate that never moves
            (b0, b1), (a0, a1), b2, a2 = b, a, 0.0, 0.0
            (p0, p1), (c_0, c_1), p2, c_2 = self._pw, self._sc, 1.0, 0.0
            u0, u1, u2 = float(u[0]), float(u[1]), 0.0
        else:
            (b0, b1, b2), (a0, a1, a2) = b, a
            (p0, p1, p2), (c_0, c_1, c_2) = self._pw, self._sc
            u0, u1, u2 = (float(t) for t in u)
        sqrt, copysign = math.sqrt, math.copysign

        def value(y0, y1, y2):
            s0 = copysign(c_0 * abs(y0) ** p0, y0)
            s1 = copysign(c_1 * abs(y1) ** p1, y1)
            s2 = copysign(c_2 * abs(y2) ** p2, y2)
            m0, m1, m2 = a0 + s0, a1 + s1, a2 + s2
            return (c0 + b0 * s0 + b1 * s1 + b2 * s2) / sqrt(h2 + m0 * m0 + m1 * m1 + m2 * m2)

        f = value(u0, u1, u2)
        for _ in range(NEWTON_ROUNDS):
            x0, x1, x2 = abs(u0) or 1e-300, abs(u1) or 1e-300, abs(u2) or 1e-300
            t0, t1, t2 = c_0 * x0 ** (p0 - 1.0), c_1 * x1 ** (p1 - 1.0), c_2 * x2 ** (p2 - 1.0)
            s0, s1, s2 = copysign(t0 * x0, u0), copysign(t1 * x1, u1), copysign(t2 * x2, u2)
            e0, e1, e2 = p0 * t0, p1 * t1, p2 * t2            # s_i'
            m0, m1, m2 = a0 + s0, a1 + s1, a2 + s2
            inv2 = 1.0 / (h2 + m0 * m0 + m1 * m1 + m2 * m2)
            inv = sqrt(inv2)
            r3 = (c0 + b0 * s0 + b1 * s1 + b2 * s2) * inv * inv2
            g0, g1, g2 = b0 * inv - r3 * m0, b1 * inv - r3 * m1, b2 * inv - r3 * m2
            G0, G1, G2 = e0 * g0, e1 * g1, e2 * g2
            lam = u0 * G0 + u1 * G1 + u2 * G2
            # diag(s_i'' g_i) - lam, s_i'' = (p_i - 1) s_i' / u_i
            k0 = ((p0 - 1.0) * e0 / u0 * g0 if u0 else 0.0) - lam
            k1 = ((p1 - 1.0) * e1 / u1 * g1 if u1 else 0.0) - lam
            k2 = ((p2 - 1.0) * e2 / u2 * g2 if u2 else 0.0) - lam
            if k == 2:
                y0, y1, y2 = -u1, u0, 0.0            # the one tangent
            else:
                # the axis of the smallest |u_i| made orthogonal to u, and u cross it
                ax = (abs(u0), abs(u1), abs(u2))
                i = ax.index(min(ax))
                ui = (u0, u1, u2)[i]
                y0, y1, y2 = -ui * u0, -ui * u1, -ui * u2
                if i == 0:
                    y0 += 1.0
                elif i == 1:
                    y1 += 1.0
                else:
                    y2 += 1.0
                n = sqrt(y0 * y0 + y1 * y1 + y2 * y2)
                y0, y1, y2 = y0 / n, y1 / n, y2 / n
            z0, z1, z2 = u1 * y2 - u2 * y1, u2 * y0 - u0 * y2, u0 * y1 - u1 * y0
            dy0, dy1, dy2 = e0 * y0, e1 * y1, e2 * y2
            dz0, dz1, dz2 = e0 * z0, e1 * z1, e2 * z2
            my, mz = m0 * dy0 + m1 * dy1 + m2 * dy2, m0 * dz0 + m1 * dz1 + m2 * dz2
            by, bz = b0 * dy0 + b1 * dy1 + b2 * dy2, b0 * dz0 + b1 * dz1 + b2 * dz2
            hyy = (inv2 * (3.0 * r3 * my * my - 2.0 * inv * by * my)
                   - r3 * (dy0 * dy0 + dy1 * dy1 + dy2 * dy2)
                   + y0 * y0 * k0 + y1 * y1 * k1 + y2 * y2 * k2)
            floor = 1e-12 * (1.0 + abs(lam))
            if k == 2:
                h0, dirs, curv = hyy, [(y0, y1)], [hyy]
                sy = y0 * G0 + y1 * G1
                ty = sy / max(abs(h0), floor)
                gain, d0, d1, d2 = sy * ty, ty * y0, ty * y1, 0.0
            else:
                hyz = (inv2 * (3.0 * r3 * my * mz - inv * (by * mz + my * bz))
                       - r3 * (dy0 * dz0 + dy1 * dz1 + dy2 * dz2)
                       + y0 * z0 * k0 + y1 * z1 * k1 + y2 * z2 * k2)
                hzz = (inv2 * (3.0 * r3 * mz * mz - 2.0 * inv * bz * mz)
                       - r3 * (dz0 * dz0 + dz1 * dz1 + dz2 * dz2)
                       + z0 * z0 * k0 + z1 * z1 * k1 + z2 * z2 * k2)
                th = 0.5 * math.atan2(2.0 * hyz, hyy - hzz)
                c, sn = math.cos(th), math.sin(th)
                h0 = hyy * c * c + 2.0 * hyz * c * sn + hzz * sn * sn
                h1 = hyy * sn * sn - 2.0 * hyz * c * sn + hzz * c * c
                v = (c * y0 + sn * z0, c * y1 + sn * z1, c * y2 + sn * z2)
                w = (c * z0 - sn * y0, c * z1 - sn * y1, c * z2 - sn * y2)
                dirs, curv = [v, w], [h0, h1]
                sv, sw = v[0] * G0 + v[1] * G1 + v[2] * G2, w[0] * G0 + w[1] * G1 + w[2] * G2
                tv, tw = sv / max(abs(h0), floor), sw / max(abs(h1), floor)
                gain = sv * tv + sw * tw
                d0, d1, d2 = tv * v[0] + tw * w[0], tv * v[1] + tw * w[1], tv * v[2] + tw * w[2]
            if gain <= 2e-16:
                if all(h < 0.0 for h in curv):
                    break
                return f, np.array((u0, u1, u2)[:k]), [np.array(d) * sg for d, h in zip(dirs, curv)
                                                        if h >= 0.0 for sg in (1.0, -1.0)]
            length = sqrt(d0 * d0 + d1 * d1 + d2 * d2)
            if length > 0.25:
                d0, d1, d2 = d0 * 0.25 / length, d1 * 0.25 / length, d2 * 0.25 / length
            for _ in range(30):
                v0, v1, v2 = u0 + d0, u1 + d1, u2 + d2
                n = 1.0 / sqrt(v0 * v0 + v1 * v1 + v2 * v2)
                v0, v1, v2 = v0 * n, v1 * n, v2 * n
                fv = value(v0, v1, v2)
                if fv >= f:
                    break
                d0, d1, d2 = 0.5 * d0, 0.5 * d1, 0.5 * d2
            else:
                break
            moved = max(abs(v0 - u0), abs(v1 - u1), abs(v2 - u2))
            u0, u1, u2, f = v0, v1, v2, fv
            if moved <= 1e-13 or any(abs(v0 - w0) < 1e-2 and abs(v1 - w1) < 1e-2
                                     and abs(v2 - w2) < 1e-2 for w0, w1, w2 in ends):
                break
        return f, np.array((u0, u1, u2)[:k]), []

    def refine(self, q, dots: np.ndarray, cells: np.ndarray, bounds: np.ndarray):
        """(best dot, its body coordinates): the best vertex (by `dots`) is the
        incumbent, and ascents run from the discrete local maxima of the vertex
        grid near one of `cells`, best first, while the largest of `bounds`
        over those cells near the start beats the best value found; an ascent
        that stops at a stationary point that is not a maximum goes on from
        0.05 along each escape."""
        fan = np.full(len(dots), -np.inf)
        np.maximum.at(fan, self.cell_verts[cells].ravel(),
                      np.repeat(bounds, self.cell_verts.shape[1]))
        cand = np.flatnonzero(fan > -np.inf)
        cand = cand[dots[cand] >= dots[self.vert_nbrs[:, cand]].max(axis=0)]
        cand = cand[np.argsort(-dots[cand], kind="stable")]
        top = int(np.argmax(dots))
        qf = (q[0], q[1].tolist(), q[2], q[3].tolist())
        best, best_u, ends = float(dots[top]), self.vert_u[top], []
        todo = list(zip(self.vert_u[cand].tolist(), fan[cand].tolist()))
        for _ in range(ESCAPE_BUDGET + len(todo)):
            if not todo:
                break
            start, lid = todo.pop(0)
            if lid <= best:
                continue
            val, u, escapes = self._ascend(qf, start, ends)
            if not escapes:
                ends.append(u.tolist() + [0.0] * (3 - len(u)))
            if val > best:
                best, best_u = val, u
            for d in escapes:
                v = u + 0.05 * d
                todo.append((v / np.linalg.norm(v), lid))
        return best, self.s_of(best_u)


class RadialTableChart:
    """A radial table about the kernel, charted by its segments, one cell each.

    On a segment the radius runs linearly in the angle between its knots'
    values, so the boundary piece lies in the annular sector [r_lo, r_hi] x
    [phi_a, phi_b], and that sector in the trapezoid with corners r_lo e(phi)
    and (r_hi / cos h) e(phi) at both knot angles, h being half the segment
    angle.  The knots are the vertices.
    """

    def __init__(self, values: np.ndarray, kernel_s: np.ndarray):
        self.values, self.kernel_s = values, kernel_s
        self.step = 2.0 * np.pi / values.size
        self.tips_s = self.vertices()[[int(np.argmax(values))]]

    def corners(self) -> np.ndarray:
        """(cell, corner, coordinate): the 4 corners of each segment's trapezoid."""
        values = self.values
        phi = self.step * np.arange(values.size)
        knots = np.column_stack([np.cos(phi), np.sin(phi)])
        nxt = np.roll(values, -1)
        ends = np.stack([knots, np.roll(knots, -1, axis=0)], axis=1)    # (cell, end, 2)
        lo = np.minimum(values, nxt)[:, None, None] * ends
        hi = (np.maximum(values, nxt) / math.cos(0.5 * self.step))[:, None, None] * ends
        return self.kernel_s + np.concatenate([lo, hi], axis=1)

    def vertices(self) -> np.ndarray:
        return self.points(np.arange(self.values.size), np.zeros(self.values.size))

    def facets(self):
        """(points, simplices, deviation): each segment's chord between its
        knots, one piece a cell, and the largest distance from a corner of its
        trapezoid to the chord, which bounds the distance from any point of
        the segment (the distance to a chord is convex, so over the trapezoid
        it peaks at a corner)."""
        m = self.values.size
        points = self.vertices()
        simplices = np.column_stack([np.arange(m), (np.arange(m) + 1) % m])
        a, b = points[simplices[:, 0]], points[simplices[:, 1]]
        rel, ab = self.corners() - a[:, None, :], (b - a)[:, None, :]
        t = np.clip((rel * ab).sum(axis=2) / (ab * ab).sum(axis=2), 0.0, 1.0)
        gap = np.linalg.norm(rel - t[:, :, None] * ab, axis=2).max(axis=1)
        return points, simplices[:, None, :], gap[:, None] * (1.0 + 1e-12)

    def points(self, cells: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Body points at fraction t along the segments `cells`."""
        phi = self.step * (cells + t)
        r = (1.0 - t) * self.values[cells] + t * self.values[(cells + 1) % self.values.size]
        return self.kernel_s + r[:, None] * np.column_stack([np.cos(phi), np.sin(phi)])

    def refine(self, q, dots: np.ndarray, cells: np.ndarray, bounds: np.ndarray):
        """(best dot, its body coordinates) over the best knot (by `dots`) and,
        on each segment of `cells`, the best of SEGMENT_SAMPLES steps and the
        vertex of the parabola through it and its neighbours."""
        n = SEGMENT_SAMPLES
        t = np.tile(np.arange(n + 1) / n, cells.size)
        f = _boundary_dots(q, self.points(np.repeat(cells, n + 1), t)).reshape(-1, n + 1)
        rows, j = np.arange(cells.size), np.clip(f.argmax(axis=1), 1, n - 1)
        lo, mid, hi = f[rows, j - 1], f[rows, j], f[rows, j + 1]
        curv = np.minimum(lo - 2.0 * mid + hi, -1e-300)
        top = np.clip(j + np.clip(0.5 * (lo - hi) / curv, -1.0, 1.0), 0, n) / n
        pts = np.vstack([self.points(np.array([int(np.argmax(dots))]), np.zeros(1)),
                         self.points(cells, top),
                         self.points(cells, f.argmax(axis=1) / n)])
        vals = _boundary_dots(q, pts)
        i = int(np.argmax(vals))
        return float(vals[i]), pts[i]
