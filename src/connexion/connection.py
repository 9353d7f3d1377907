"""Fuchsian connections on the Riemann sphere.

A connection is stored as its pole set: finite locations plus the point at
infinity, each with a residue.  The local representation in the standard
chart is the rational function

    f(z) = sum_j  rho_j / (z - p_j)          (finite poles only),

and in the infinity chart (w = 1/z)

    f_inf(w) = -f(1/w)/w^2 - 2/w,

which is again a simple-pole rational function whose pole at w = 0 carries
the residue of the pole at infinity.  The sphere forces

    sum of all residues = -2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

from . import errors

RESIDUE_SUM = -2.0
SUM_TOL = 1e-12
POLE_EVAL_TOL = 1e-12
LOOP_CLEARANCE = 1e-9
SWITCH_RADIUS = 10.0   # |z| past which a trace moves to the w = 1/z chart

STANDARD = "standard"
INFINITY = "infinity"


@dataclass(frozen=True)
class SpherePoint:
    """A point of the sphere: a finite complex coordinate or infinity."""

    z: complex = 0j
    infinite: bool = False

    def __post_init__(self):
        if not self.infinite:
            if not (math.isfinite(self.z.real) and math.isfinite(self.z.imag)):
                raise ValueError("finite SpherePoint needs finite coordinates")

    @staticmethod
    def inf() -> "SpherePoint":
        return SpherePoint(0j, infinite=True)

    @staticmethod
    def of(z: complex) -> "SpherePoint":
        return SpherePoint(complex(z))

    def __repr__(self):
        return "inf" if self.infinite else f"{self.z!r}"


@dataclass(frozen=True)
class PoleSpec:
    location: SpherePoint
    residue: float


@dataclass(frozen=True)
class LoopPath:
    """Closed polyline in the finite plane, avoiding all poles, oriented by
    the order of its vertices."""

    vertices: tuple

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise ValueError("a loop needs at least 3 vertices")
        if abs(self.vertices[0] - self.vertices[-1]) > 1e-12:
            raise ValueError("loop must be closed (first == last vertex)")


@dataclass(frozen=True)
class FuchsianConnection:
    """Immutable pole set; all operations on it are pure."""

    poles: tuple  # of PoleSpec, infinity pole explicit

    atlas = cached_property(lambda self: {})   # filled by localchart.pole_chart
    _charts = cached_property(lambda self: {})  # filled by chart_poles

    @cached_property
    def finite_poles(self) -> tuple:
        """The finite poles, in ``poles`` order."""
        return tuple(p for p in self.poles if not p.location.infinite)

    @property
    def infinity_residue(self) -> float:
        for p in self.poles:
            if p.location.infinite:
                return p.residue
        return RESIDUE_SUM - sum(p.residue for p in self.finite_poles)

    def residue_at(self, loc: SpherePoint) -> float:
        if loc.infinite:
            return self.infinity_residue
        for p in self.finite_poles:
            if abs(p.location.z - loc.z) <= POLE_EVAL_TOL:
                return p.residue
        raise KeyError(f"no pole at {loc}")

    def chart_poles(self, chart: str) -> tuple:
        """(coordinate, residue) pairs of the simple poles of the local
        representation in the given chart, built once per chart."""
        if chart in self._charts:
            return self._charts[chart]
        if chart == STANDARD:
            out = [(p.location.z, p.residue) for p in self.finite_poles]
        elif chart == INFINITY:
            out = [(0j, self.infinity_residue)]
            for p in self.finite_poles:
                if p.location.z != 0:
                    out.append((1.0 / p.location.z, p.residue))
        else:
            raise ValueError(f"unknown chart {chart!r}")
        self._charts[chart] = tuple(out)
        return self._charts[chart]


def build_connection(poles) -> FuchsianConnection:
    """Validate a pole list and return a connection.

    Residues must be real: a complex residue is refused here, and every
    residue is stored as a float.  If the pole at infinity is absent its
    residue is implied by the sum identity; it is always materialized
    explicitly.
    """
    specs = [p if isinstance(p, PoleSpec) else PoleSpec(*p) for p in poles]
    if not specs:
        # a connection with no poles at all cannot satisfy the sum identity
        raise errors.SumMismatch("a pole-free connection is impossible on the sphere")

    reals = []
    for p in specs:
        r = complex(p.residue)
        if abs(r.imag) > SUM_TOL:
            raise errors.NonRealResidue(f"residue {p.residue} is not real")
        reals.append(PoleSpec(p.location, r.real))
    finite = [p for p in reals if not p.location.infinite]
    at_inf = [p for p in reals if p.location.infinite]
    if len(at_inf) > 1:
        raise errors.DuplicatePole("infinity listed twice")
    for i, p in enumerate(finite):
        for q in finite[i + 1:]:
            if abs(p.location.z - q.location.z) <= POLE_EVAL_TOL:
                raise errors.DuplicatePole(f"poles coincide at {p.location}")

    finite_sum = sum(p.residue for p in finite)
    if at_inf:
        inf_res = at_inf[0].residue
        total = finite_sum + inf_res
        if abs(total - RESIDUE_SUM) > SUM_TOL:
            raise errors.SumMismatch(
                f"residues sum to {total}, the sphere requires {RESIDUE_SUM}")
    else:
        inf_res = RESIDUE_SUM - finite_sum

    all_poles = finite + [PoleSpec(SpherePoint.inf(), inf_res)]
    return FuchsianConnection(tuple(all_poles))


def local_rep(conn: FuchsianConnection, chart: str, point: complex) -> complex:
    """Value of f in the requested chart at the given chart coordinate."""
    point = complex(point)
    acc = 0j
    for pos, res in conn.chart_poles(chart):
        d = point - pos
        if abs(d) <= POLE_EVAL_TOL:
            raise errors.EvalAtPole(f"evaluation at pole {pos} in {chart} chart")
        acc += res / d
    return acc


def winding_number(loop: LoopPath, point: complex) -> int:
    """Winding of a closed polyline around a point, by continuous
    argument summation (robust equivalent of jittered ray casting)."""
    total = 0.0
    vs = loop.vertices
    for a, b in zip(vs[:-1], vs[1:]):
        da, db = a - point, b - point
        if abs(da) <= LOOP_CLEARANCE or abs(db) <= LOOP_CLEARANCE:
            raise errors.LoopThroughPole(f"loop vertex at distance <= {LOOP_CLEARANCE} from {point}")
        # edge may still pass close to the point: check segment distance
        seg = b - a
        if abs(seg) > 0:
            t = max(0.0, min(1.0, ((point - a).real * seg.real + (point - a).imag * seg.imag)
                             / (abs(seg) ** 2)))
            if abs(a + t * seg - point) <= LOOP_CLEARANCE:
                raise errors.LoopThroughPole(f"loop edge within {LOOP_CLEARANCE} of {point}")
        total += cmath.phase(db / da)
    n = total / (2.0 * math.pi)
    k = round(n)
    if abs(n - k) > 1e-6:
        raise errors.LoopThroughPole("argument sum far from an integer multiple of 2*pi")
    return int(k)


def monodromy_of_loop(conn: FuchsianConnection, loop: LoopPath) -> complex:
    """exp(2*pi*i * sum_j winding_j * rho_j), of unit modulus."""
    acc = 0j
    for pos, res in conn.chart_poles(STANDARD):
        w = winding_number(loop, pos)
        if w:
            acc += w * res
    return cmath.exp(2j * math.pi * acc)


def from_k_differential(numerator_roots, denominator_roots,
                        k: int) -> FuchsianConnection:
    """Connection adapted to q = prod (z - a_i)^{m_i} dz^k.

    The induced 1-form is (1/k) dq/q, so each finite root contributes residue
    m_i/k (negative m_i for poles of q); the residue at infinity follows from
    the sum identity and equals -(deg q)/k - 2.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    roots = [(complex(a), int(m)) for a, m in numerator_roots]
    roots += [(complex(a), -abs(int(m))) for a, m in denominator_roots]
    for a, m in roots:
        if m == 0:
            raise errors.InvalidOrder(f"root {a} has order zero")
    for i, (a, _) in enumerate(roots):
        for b, _ in roots[i + 1:]:
            if abs(a - b) <= POLE_EVAL_TOL:
                raise errors.DuplicateRoot(f"repeated root {a}")
    poles = [PoleSpec(SpherePoint.of(a), m / k) for a, m in roots]
    return build_connection(poles)


# -- serialization (schema shared with the CLI) --------------------------------

def connection_to_dict(conn: FuchsianConnection) -> dict:
    out = []
    for p in conn.poles:
        if p.location.infinite:
            out.append({"inf": True, "residue": p.residue})
        else:
            out.append({"re": p.location.z.real, "im": p.location.z.imag,
                        "residue": p.residue})
    return {"poles": out}


def connection_from_dict(data: dict) -> FuchsianConnection:
    poles = []
    for item in data["poles"]:
        res = float(item["residue"])
        if item.get("inf"):
            poles.append(PoleSpec(SpherePoint.inf(), res))
        else:
            poles.append(PoleSpec(SpherePoint.of(complex(float(item["re"]),
                                                         float(item.get("im", 0.0)))), res))
    return build_connection(poles)
