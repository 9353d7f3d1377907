"""Geodesic polygons and angle-residue identities.

A polygon is an ordered cycle of geodesic sides; vertices are regular points
or poles.  At a regular vertex the internal angle is the counterclockwise
angle from the outgoing tangent to the reversed incoming tangent.  At a pole
vertex both incident sides are critical rays and the internal angle is the
difference of their ray arguments in the adapted coordinate.

With those conventions the internal angles v_j, the vertex residues rho_j
(zero at regular vertices) and the residues enclosed by the boundary satisfy

    sum_j (pi - (rho_j + 1) v_j) = 2 pi (2 - m_f - 2 genus + sum enclosed)

on a surface part with m_f free boundary components; on the sphere with a
disc part this reduces to sum_j (pi - (rho_j+1) v_j) = 2 pi (1 + sum enclosed).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .connection import (STANDARD, FuchsianConnection, LoopPath, SpherePoint,
                         winding_number)
from .engine import (IntegratorOptions, Trajectory, canonical_K, delta_zeta,
                     metric_density, self_intersections, trace)
from .localchart import AdaptedChart

JUNCTION_TOL = 1e-8
POLE_GAP_TOL = 0.2
TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PolygonVertex:
    location: SpherePoint
    kind: str = "regular"            # "regular" | "pole"
    rho: float = 0.0                 # vertex residue; 0 at regular vertices

    def __post_init__(self):
        if self.kind not in ("regular", "pole"):
            raise ValueError(f"unknown vertex kind {self.kind!r}")
        if self.kind == "pole" and self.rho <= -1.0:
            raise errors.VertexResidueTooLow(f"vertex residue {self.rho} <= -1")


@dataclass(frozen=True)
class Side:
    """A geodesic side: sampled support plus exact endpoint tangents."""
    points: tuple                    # complex positions, standard chart
    t_start: complex                 # tangent leaving points[0]
    t_end: complex                   # tangent arriving at points[-1]

    @property
    def start(self) -> complex:
        return self.points[0]

    @property
    def end(self) -> complex:
        return self.points[-1]


def side_from_trajectory(traj: Trajectory) -> Side:
    zs, vs = traj.std_columns()
    return Side(tuple(zs), vs[0], vs[-1])


def side_from_points(points) -> Side:
    """A side along the polyline ``points``, its end chords as tangents."""
    pts = tuple(complex(p) for p in points)
    return Side(pts, pts[1] - pts[0], pts[-1] - pts[-2])


@dataclass
class GeodesicPolygon:
    """Positively oriented cycle: vertex j sits at the start of side j, and
    side j runs from vertex j to vertex j+1 (cyclically)."""
    sides: list
    vertices: list

    def __post_init__(self):
        n = len(self.sides)
        if n != len(self.vertices) or n < 1:
            raise ValueError("need one vertex per side")
        for j, s in enumerate(self.sides):
            nxt = self.sides[(j + 1) % n]
            vx = self.vertices[(j + 1) % n]
            # sides incident to a pole vertex stop short of the pole (launch
            # radius / approach floor), so only regular junctions are strict
            tol = POLE_GAP_TOL if vx.kind == "pole" else JUNCTION_TOL
            if abs(s.end - nxt.start) > tol:
                raise ValueError(
                    f"side {j} ends {abs(s.end - nxt.start):g} away from side {j+1}")

    def boundary(self) -> np.ndarray:
        pts = []
        for s in self.sides:
            pts.extend(s.points[:-1])
        pts.append(self.sides[0].points[0])
        return np.asarray(pts, dtype=complex)

    def angles(self, charts: dict | None = None) -> list:
        """Internal angle at each vertex; ``charts`` optionally maps a vertex
        index to an AdaptedChart used for pole-vertex measurement."""
        out = []
        n = len(self.sides)
        for j, vx in enumerate(self.vertices):
            incoming = self.sides[(j - 1) % n]
            outgoing = self.sides[j]
            chart = (charts or {}).get(j)
            out.append(measure_internal_angle(incoming, outgoing, vx, chart))
        return out


def measure_internal_angle(incoming: Side, outgoing: Side,
                           vertex: PolygonVertex,
                           chart: AdaptedChart | None = None) -> float:
    """Internal angle in (0, 2*pi] at a shared vertex of two sides."""
    if vertex.kind == "regular":
        p = vertex.location.z
        if abs(incoming.end - p) > JUNCTION_TOL or abs(outgoing.start - p) > JUNCTION_TOL:
            raise errors.NotIncident("sides do not meet at the vertex")
        ang = cmath.phase(-incoming.t_end / outgoing.t_start) % TWO_PI
        return ang if ang > 0 else TWO_PI

    delta_in = _ray_argument(incoming, vertex, chart, arriving=True)
    delta_out = _ray_argument(outgoing, vertex, chart, arriving=False)
    ang = (delta_in - delta_out) % TWO_PI
    # measurements below noise level mean both rays coincide: a full turn
    return ang if ang > 1e-6 else TWO_PI


def _ray_argument(side: Side, vertex: PolygonVertex,
                  chart: AdaptedChart | None, arriving: bool) -> float:
    """Argument of the critical ray along which a side meets a pole vertex,
    measured in the adapted coordinate when a chart is supplied, otherwise in
    the translated ambient coordinate."""
    pts = np.asarray(side.points, dtype=complex)
    if arriving:
        pts = pts[::-1]            # pts[0] is now the pole end
    if vertex.location.infinite:
        if chart is None:
            raise errors.NotIncident("pole vertex at infinity needs an adapted chart")
        pts = 1.0 / pts            # sides are stored in the standard chart
    center = chart.center if chart is not None else vertex.location.z
    if abs(pts[0] - center) > POLE_GAP_TOL:
        raise errors.NotIncident(
            f"side endpoint {abs(pts[0]-center):g} away from the pole")
    zeta = np.concatenate(([pts[0]], pts[1:])) - center
    cutoff = max(3e-1, 10 * np.abs(zeta[np.abs(zeta) > 0]).min())
    if chart is not None:
        cutoff = min(cutoff, 0.9 * chart.radius)
    near = zeta[(np.abs(zeta) < cutoff) & (np.abs(zeta) > 0)][:40]
    if chart is not None:
        near = np.array([chart.to_w(center + z) for z in near])
    args = np.unwrap(np.angle(near))
    if args.size == 0:
        raise errors.NotIncident("side has no points near the pole")
    if args.size > 3 and float(np.max(args) - np.min(args)) > 0.1:
        raise errors.NotCriticalAtPole(
            f"approach argument varies by {np.max(args)-np.min(args):g}")
    return float(args[0] % TWO_PI)


# -- identity residuals --------------------------------------------------------

def check_chart_polygon(rho: float, polygon: GeodesicPolygon) -> float:
    """Residual of the pole-chart identity
    sum_{j>=1} (pi - v_j) = pi + v_0 (rho + 1),
    for a polygon whose vertex 0 is a pole of residue ``rho`` and all other
    vertices are regular; angles are measured in the ambient coordinate."""
    v0x = polygon.vertices[0]
    if v0x.kind != "pole":
        raise errors.PoleNotVertexZero("vertex 0 must be the pole")
    angles = polygon.angles()
    lhs = sum(math.pi - v for v in angles[1:])
    rhs = math.pi + angles[0] * (float(rho) + 1.0)
    return abs(lhs - rhs)


def check_p1_formula(conn: FuchsianConnection, polygon: GeodesicPolygon,
                     enclosed=None, charts: dict | None = None) -> float:
    """Residual of the sphere identity
    sum_j (pi - (rho_j+1) v_j) = 2 pi (1 + sum of enclosed residues).

    ``enclosed`` lists the enclosed poles explicitly (SpherePoint); when
    omitted they are found by winding number of the boundary."""
    angles = polygon.angles(charts)
    lhs = sum(math.pi - (vx.rho + 1.0) * v
              for vx, v in zip(polygon.vertices, angles))
    if enclosed is not None:
        total = sum(conn.residue_at(p) for p in enclosed)
    else:
        total = _enclosed_residue_sum(conn, polygon)
    return abs(lhs - TWO_PI * (1.0 + total))


def _enclosed_residue_sum(conn: FuchsianConnection, polygon: GeodesicPolygon) -> float:
    pts = polygon.boundary()
    loop = LoopPath(tuple(pts))
    vertex_locs = [vx.location for vx in polygon.vertices]
    total = 0.0
    for pos, res in conn.chart_poles("standard"):
        if any((not l.infinite) and abs(l.z - pos) < 1e-9 for l in vertex_locs):
            continue
        total += winding_number(loop, pos) * res
    return total


@dataclass(frozen=True)
class PartTopology:
    m_f: int                       # free boundary components
    genus_filling: int = 0
    enclosed_residues: tuple = ()

    def __post_init__(self):
        if self.m_f < 1 or self.genus_filling < 0:
            raise ValueError("need m_f >= 1 and genus >= 0")


def check_general_formula(topology: PartTopology, vertices) -> float:
    """Residual of
    sum_j (pi - (rho_j+1) v_j) = 2 pi (2 - m_f - 2 genus + sum enclosed);
    ``vertices`` is a list of (rho_j, v_j) pairs."""
    lhs = sum(math.pi - (rho + 1.0) * v for rho, v in vertices)
    rhs = TWO_PI * (2.0 - topology.m_f - 2.0 * topology.genus_filling
                    + sum(topology.enclosed_residues))
    return abs(lhs - rhs)


# -- pure-chart polygon generator ---------------------------------------------

def chart_polygon(rho: float, v0: float, radii) -> GeodesicPolygon:
    """Build a polygon in the single-pole model chart f = rho/z: two critical
    rays at arguments 0 and v0 joined by a chain of geodesic arcs through the
    given vertex radii.

    Geodesics of the model are straight segments in W = z^{rho+1}, so sides
    and tangents are exact; angle measurement supplies the numerical noise.
    """
    if not 0.0 < v0 < TWO_PI:
        raise ValueError("need v0 in (0, 2*pi)")
    s = rho + 1.0
    radii = list(radii)
    m = len(radii)
    if m < 2:
        raise ValueError("need at least two chain radii")
    phis = [v0 * k / (m - 1) for k in range(m)]
    if any(s * (b - a) >= math.pi * 0.999 for a, b in zip(phis[:-1], phis[1:])):
        raise ValueError("chain spacing too wide for single arcs: add radii")
    # vertices on the chain, with continuous W = z^{rho+1} arguments
    zs = [r * cmath.exp(1j * p) for r, p in zip(radii, phis)]
    Ws = [r ** s * cmath.exp(1j * s * p) for r, p in zip(radii, phis)]

    sides = [_radial_side(rho, 0.0, radii[0], outward=True)]
    for (za, Wa), (zb, Wb) in zip(zip(zs, Ws), zip(zs[1:], Ws[1:])):
        sides.append(_arc_side(rho, za, Wa, zb, Wb))
    sides.append(_radial_side(rho, v0, radii[-1], outward=False))

    vertices = [PolygonVertex(SpherePoint.of(0.0), "pole", rho)]
    vertices += [PolygonVertex(SpherePoint.of(z)) for z in zs]
    return GeodesicPolygon(sides, vertices)


def _radial_side(rho, phi, r, outward, n=64, eps=1e-9):
    ts = np.linspace(eps, r, n) if outward else np.linspace(r, eps, n)
    pts = ts * cmath.exp(1j * phi)
    tangent = cmath.exp(1j * phi) * (1.0 if outward else -1.0)
    return Side(tuple(pts), tangent, tangent)


def _arc_side(rho, za, Wa, zb, Wb, n=128):
    """Geodesic arc: the straight W-segment from Wa to Wb mapped back by the
    continuous branch of W^{1/(rho+1)} pinned at za."""
    s = rho + 1.0
    taus = np.linspace(0.0, 1.0, n)
    Ws = Wa + taus * (Wb - Wa)
    theta = np.unwrap(np.angle(Ws))
    theta += s * cmath.phase(za) - theta[0]
    zs = np.exp((np.log(np.abs(Ws)) + 1j * theta) / s)
    t_start = (Wb - Wa) * zs[0] / (s * Wa)
    t_end = (Wb - Wa) * zs[-1] / (s * Wb)
    return Side(tuple(zs), t_start, t_end)


# -- unique connecting arc -----------------------------------------------------

def connect_unique(conn: FuchsianConnection, z0: complex, z1: complex,
                   opts: IntegratorOptions | None = None,
                   miss_tol: float = 1e-7) -> Trajectory:
    """A simple geodesic arc from z0 to z1, aimed by its homotopy class.

    A geodesic is a straight line in the developing coordinate zeta =
    int e^K dz, run at the velocity c = v e^K, so the geodesic in the class
    of a path from z0 to z1 has c parallel to the path's Delta zeta
    (``delta_zeta``), which depends on the class only.  Its launch has unit
    speed in the direction arg(Delta zeta e^(-K(z0))), K canonical at z0,
    and its trace runs to t_end = |Delta zeta| / metric_density(z0), where
    it reaches z1 if the class holds a geodesic.  The classes are aimed one
    at a time (``_aims``): the straight segment [z0, z1] first, so that
    where its class holds a simple arc it wins over every other, then the
    paths that wind round one finite pole by the principal turn from z0 to
    z1 about it plus or minus 2 pi, in the order of |Delta zeta|, the length
    of their geodesics.  The first arc that ends within miss_tol max(1,
    |z1|) of z1 and does not cross itself is returned.  A class whose path
    passes within PATH_CLEARANCE of a pole, or whose Delta zeta is 0 or not
    finite, is skipped.  Where no aim lands, NotFound names each class
    tried and its miss.
    """
    z0, z1 = complex(z0), complex(z1)
    if abs(z0 - z1) < 1e-12:
        raise ValueError("need distinct endpoints")
    opts = opts or IntegratorOptions()
    tol = miss_tol * max(1.0, abs(z1))
    arg0, density = canonical_K(conn, z0).imag, metric_density(conn, z0)
    tried = []
    for label, dzeta in _aims(conn, z0, z1):
        if dzeta == 0 or not cmath.isfinite(dzeta):
            continue
        heading = cmath.phase(dzeta) - arg0
        arc = trace(conn, (z0, cmath.exp(1j * heading)), abs(dzeta) / density,
                    opts)
        miss = abs(arc.support_std()[-1] - z1)
        if miss > tol:
            tried.append(f"{label} misses by {miss:.3g}")
        elif self_intersections(arc, max_count=1):
            tried.append(f"{label} crosses itself")
        else:
            return arc
    raise errors.NotFound(f"no simple arc ends within {tol:g} of z1: "
                          + "; ".join(tried))


def _aims(conn, z0, z1):
    """(label, Delta zeta) of each class ``connect_unique`` aims in, in its
    order: "segment" for [z0, z1], then "poleJ:X" for the path that
    runs straight from z0 to the circle round the j-th finite pole p of
    radius r, turns X full turns on it and runs straight to z1; a class
    whose path passes within PATH_CLEARANCE of a pole is left out.  The
    radius is half the least distance from p to z0, z1 and the other poles,
    so the disc holds no other pole and Delta zeta is the same at every
    smaller radius; the circle is a polygon of at most pi/4 per side."""
    try:
        yield "segment", delta_zeta(conn, (z0, z1))
    except errors.PathThroughPole:
        pass
    poles = [p for p, _ in conn.chart_poles(STANDARD)]
    classes = []
    for j, p in enumerate(poles):
        r = 0.5 * min([abs(z0 - p), abs(z1 - p)]
                      + [abs(q - p) for q in poles if q != p])
        start = cmath.phase(z0 - p)
        principal = cmath.phase((z1 - p) / (z0 - p))
        for turn in (principal - TWO_PI, principal + TWO_PI):
            n = math.ceil(abs(turn) / (math.pi / 4.0))
            circle = [p + r * cmath.exp(1j * (start + turn * k / n))
                      for k in range(n + 1)]
            try:
                dzeta = delta_zeta(conn, (z0, *circle, z1))
            except errors.PathThroughPole:
                continue
            classes.append((f"pole{j}:{turn / TWO_PI:+.3f}", dzeta))
    yield from sorted(classes, key=lambda c: abs(c[1]))
