"""Geometry kernel for the unit n-sphere embedded in R^(n+1).

Points are (n+1)-vectors of unit Euclidean norm, n >= 2.  The spherical
distance used throughout is d_s(x, y) = 1 - x.y, which is metric-equivalent
to the arc angle via arccos(1 - d).  Every function here is pure; values are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AntipodalEndpoints, NearZeroVector

UNIT_NORM_TOL = 1e-12      # |norm - 1| allowed at construction
TANGENCY_TOL = 1e-10       # |x.v| allowed for tangent vectors
SLERP_SMALL_ANGLE = 1e-8   # below this angle slerp falls back to normalized lerp
ANTIPODE_DOT_TOL = 1e-12   # a.b <= -1 + tol means the arc is undefined


def coords_of(p) -> np.ndarray:
    """Ambient coordinates of a point given as UnitPoint or array-like."""
    if isinstance(p, UnitPoint):
        return p.coords
    return np.asarray(p, dtype=float)


@dataclass(frozen=True)
class UnitPoint:
    """A point on S^n, stored as its ambient (n+1)-vector with ||coords|| = 1."""

    coords: np.ndarray

    def __post_init__(self):
        c = np.array(self.coords, dtype=float)
        if c.ndim != 1 or c.size < 3:
            raise ValueError("expected a flat (n+1)-vector with n >= 2")
        nrm = float(np.linalg.norm(c))
        if not abs(nrm - 1.0) <= UNIT_NORM_TOL:  # a NaN or infinite coordinate fails too
            raise ValueError(f"not unit: ||p|| = {nrm!r}")
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @property
    def n(self) -> int:
        return self.coords.size - 1

    def __array__(self, dtype=None, copy=None):
        if dtype is None:
            return self.coords
        return self.coords.astype(dtype)

    def dot(self, other) -> float:
        return float(self.coords @ coords_of(other))

    def antipode(self) -> "UnitPoint":
        return UnitPoint(-self.coords)

    def __repr__(self):
        return f"UnitPoint({np.array2string(self.coords, precision=6)})"


@dataclass(frozen=True)
class TangentVector:
    """An ambient vector attached at `base` and orthogonal to it."""

    base: UnitPoint
    vec: np.ndarray

    def __post_init__(self):
        v = np.array(self.vec, dtype=float)
        if abs(float(v @ self.base.coords)) > TANGENCY_TOL:
            raise ValueError("vector is not tangent at the base point")
        v.flags.writeable = False
        object.__setattr__(self, "vec", v)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))


def normalize(p) -> UnitPoint:
    """Radially project p onto the sphere, p -> p/||p||."""
    v = coords_of(p)
    nrm = float(np.linalg.norm(v))
    if nrm <= 1e-12:
        raise NearZeroVector(f"cannot normalize, ||p|| = {nrm!r}")
    return UnitPoint(v / nrm)


def project_to_tangent(x, a) -> TangentVector:
    """Orthogonal projection (I - xx^T)a of an ambient vector onto T_x(S^n)."""
    xc = coords_of(x)
    ac = coords_of(a)
    vec = ac - (xc @ ac) * xc
    # one re-projection pass keeps |x.v| at roundoff even for large ||a||
    vec = vec - (xc @ vec) * xc
    return TangentVector(UnitPoint(xc), vec)


def spherical_distance(x, y) -> float:
    """d_s(x, y) = 1 - x.y; 0 at coincidence, 2 at the antipode."""
    return 1.0 - float(coords_of(x) @ coords_of(y))


def angle_from_distance(d: float) -> float:
    """Arc angle corresponding to a spherical distance value."""
    return float(np.arccos(np.clip(1.0 - d, -1.0, 1.0)))


def distance_from_angle(theta: float) -> float:
    """Spherical distance corresponding to an arc angle."""
    return 1.0 - float(np.cos(theta))


def slerp(a, b, lam: float) -> UnitPoint:
    """Point at parameter lam on the minimal great-circle arc from a to b.

    The one-row case of `slerp_many`, except that lam = 0 and lam = 1
    return the endpoints exactly.
    """
    p = slerp_many(a, b, np.array([lam]))[0]
    return UnitPoint(coords_of(a) if lam == 0.0 else coords_of(b) if lam == 1.0 else p)


def slerp_many(a, b, lams: np.ndarray) -> np.ndarray:
    """Rows of the result are the arc points at `lams`.

    For angles below SLERP_SMALL_ANGLE the spherical weights are replaced by
    a normalized linear interpolation, which agrees to O(theta^2).
    """
    ac = coords_of(a)
    bc = coords_of(b)
    dot = float(ac @ bc)
    if dot <= -1.0 + ANTIPODE_DOT_TOL:
        raise AntipodalEndpoints("slerp endpoints are antipodal")
    lams = np.asarray(lams, dtype=float)
    theta = float(np.arccos(np.clip(dot, -1.0, 1.0)))
    if theta < SLERP_SMALL_ANGLE:
        pts = np.outer(1.0 - lams, ac) + np.outer(lams, bc)
    else:
        s = np.sin(theta)
        pts = (np.outer(np.sin((1.0 - lams) * theta), ac)
               + np.outer(np.sin(lams * theta), bc)) / s
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    return pts


@dataclass(frozen=True)
class GreatCircleArc:
    """Minimal geodesic segment between two non-antipodal points."""

    a: UnitPoint
    b: UnitPoint

    def __post_init__(self):
        if self.a.dot(self.b) <= -1.0 + ANTIPODE_DOT_TOL:
            raise AntipodalEndpoints("arc endpoints are antipodal")

    @property
    def theta(self) -> float:
        return float(np.arccos(np.clip(self.a.dot(self.b), -1.0, 1.0)))

    def points(self, lams: np.ndarray) -> np.ndarray:
        return slerp_many(self.a, self.b, lams)


def arc(a, b) -> GreatCircleArc:
    ac = coords_of(a)
    bc = coords_of(b)
    return GreatCircleArc(UnitPoint(ac), UnitPoint(bc))


def distance_to_arc(x, segment: GreatCircleArc) -> float:
    """min over the arc of d_s(x, .), in closed form (exact to roundoff).

    The arc is cos(t) a + sin(t) e for t in [0, theta], with e the unit
    tangent at a toward b, and x.(arc point) = hypot(x.a, x.e) cos(t - phi)
    with phi = atan2(x.e, x.a).  The maximum is hypot(x.a, x.e) when phi
    lies in [0, theta] and the better endpoint otherwise; a degenerate arc
    (a = b to roundoff) has only its endpoints.
    """
    xc = coords_of(x)
    a = segment.a.coords
    b = segment.b.coords
    xa = float(xc @ a)
    xb = float(xc @ b)
    c = float(a @ b)
    # b - c a, summed so that nearly antipodal endpoints lose no digits,
    # then cleared of the part along a that the rounding of c leaves
    w = (a + b) - (1.0 + c) * a
    w -= (a @ w) * a
    s = math.sqrt(float(w @ w))
    if s > 1e-15:
        xe = float(xc @ w) / s
        if 0.0 <= math.atan2(xe, xa) <= math.atan2(s, c):
            return 1.0 - math.hypot(xa, xe)
    return 1.0 - max(xa, xb)


def circle_windows(ca, cb, cos_reach):
    """(phi, alpha) from c.a, c.b: the circle cos(t) a + sin(t) b lies in the
    cap {x : c.x >= cos_reach} exactly where |t - phi| <= alpha (mod 2 pi),
    since c.x(t) = R cos(t - phi), R = hypot(c.a, c.b), and meets it only
    where R > cos_reach.  R = 0 (c orthogonal to the circle) reads as 1e-15."""
    R = np.hypot(ca, cb)
    return (np.arctan2(cb, ca),
            np.arccos(np.clip(cos_reach / np.maximum(R, 1e-15), -1.0, 1.0)))


def tangent_basis(x) -> np.ndarray:
    """Deterministic orthonormal basis of T_x(S^n), shape (n+1, n)."""
    xc = coords_of(x)
    m = xc.size
    cols = [xc]
    for j in range(m):
        e = np.zeros(m)
        e[j] = 1.0
        v = e - sum((e @ c) * c for c in cols)
        nrm = np.linalg.norm(v)
        if nrm > 1e-8:
            cols.append(v / nrm)
        if len(cols) == m:
            break
    return np.column_stack(cols[1:])


def rotate_toward(g, w, angle: float) -> np.ndarray:
    """Point at `angle` from g along the unit tangent direction w."""
    return np.cos(angle) * coords_of(g) + np.sin(angle) * coords_of(w)


def sample_uniform(n: int, seed: int) -> UnitPoint:
    """Deterministic uniform draw on S^n from a Gaussian direction."""
    if n < 2:
        raise ValueError("sphere dimension must be >= 2")
    rng = np.random.default_rng(seed)
    return normalize(rng.normal(size=n + 1))


def sample_uniform_many(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=(count, n + 1))
    return v / np.linalg.norm(v, axis=1, keepdims=True)
