"""Local theory around a Fuchsian pole with real residue.

Around a pole with non-resonant residue rho (any rho > -1, and rho < -1
except the integers) there is an adapted coordinate w in which the
connection form is exactly rho dw/w.  In that coordinate the geodesics have
the closed form

    z(t) = e^{i alpha} (a t + b)^{1/(rho+1)}        (rho != -1)
    z(t) = r e^{i (a t + b)}                         (rho == -1)

so W = w^{rho+1} moves on a straight line.  For rho > -1 all the local
metric geometry (critical rays, chart diameter, crossing predicates) is
explicit.  For rho < -1 the pole sits at |W| = infinity: a geodesic whose
W-line has passed its closest approach to 0 has |w| decreasing from then on,
so once it is inside the chart it stays there and tends to the pole
(``AdaptedChart.falls_in``).  The adapted coordinate is constructed as a
truncated power series with a constructive radius: the radius is shrunk
until the pulled-back connection form matches rho dw/w on a test grid.
A connection's atlas holds its pole charts: ``pole_chart`` builds a chart,
or records its refusal, on the first request, and every caller reads it.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import errors
from .connection import (INFINITY, STANDARD, SWITCH_RADIUS,
                         FuchsianConnection, SpherePoint)

RESIDUAL_TOL = 1e-8
CRITICAL_TOL = 1e-9
DEFAULT_N = 24
FALL_ETA = 0.05    # descent margin of the fall certificate:
                   # Re(w'/w) < -FALL_ETA |w'/w|


# -- power-series helpers (coefficient lists, index = power) -------------------

def _ser_eval(coeffs, z):
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _ser_diff(coeffs):
    return [j * c for j, c in enumerate(coeffs)][1:] or [0j]


def _ser_exp(f):
    """exp of a series with f[0] = 0, same truncation order."""
    n = len(f)
    c = [0j] * n
    c[0] = 1.0 + 0j
    for j in range(1, n):
        s = 0j
        for m in range(1, j + 1):
            s += m * f[m] * c[j - m]
        c[j] = s / j
    return c


def _ser_log1(g):
    """log of a series with g[0] = 1, same truncation order."""
    n = len(g)
    dg = [j * c for j, c in enumerate(g)]  # z * g'
    # L' * g = g'  =>  solve for L coefficients: j*L_j = dg_j - sum_{m<j} m L_m g_{j-m}
    L = [0j] * n
    for j in range(1, n):
        s = dg[j]
        for m in range(1, j):
            s -= m * L[m] * g[j - m]
        L[j] = s / j
    return L


# -- adapted chart -------------------------------------------------------------

@dataclass(frozen=True)
class AdaptedChart:
    pole: SpherePoint
    rho: float
    radius: float              # in the ambient chart coordinate, around center
    series: tuple              # coefficients of K(zeta); w = zeta * K(zeta)
    ambient: str               # which sphere chart the series lives in
    center: complex            # pole coordinate in the ambient chart
    residual: float            # pullback residual achieved at `radius`

    @property
    def order(self) -> int:
        return len(self.series) - 1

    def w_coeffs(self):
        return (0j,) + self.series

    def to_w(self, u: complex) -> complex:
        """Adapted coordinate of an ambient chart point."""
        zeta = u - self.center
        if not abs(zeta) < self.radius:
            raise errors.OutOfDomain(f"|u - center| = {abs(zeta)} >= radius {self.radius}")
        return zeta * _ser_eval(self.series, zeta)

    @cached_property
    def _dw_coeffs(self):
        return _ser_diff(self.w_coeffs())

    def dw(self, u: complex) -> complex:
        """d(w)/d(ambient coordinate)."""
        return _ser_eval(self._dw_coeffs, u - self.center)

    def push_state(self, u: complex, v: complex):
        """(position, velocity) in the adapted coordinate."""
        return self.to_w(u), self.dw(u) * v

    def report(self) -> dict:
        return {"radius": self.radius, "order": self.order,
                "residual": self.residual}

    def inscribed_w(self) -> float:
        """Radius w_in of the w-disc inscribed in the image of
        |zeta| < 0.9 radius, the circle the residual is checked on: the
        minimum of |w| over 64 points of that circle."""
        zeta = 0.9 * self.radius * np.exp(2j * np.pi * np.arange(64) / 64)
        return float(np.min(np.abs(zeta * np.polyval(self.series[::-1], zeta))))

    def falls_in(self, w_in: float, u: complex, v: complex):
        """Fall certificate of a rho < -1 chart for the ambient state (u, v).

        The state passes when |w| < w_in and Re(w'/w) < -FALL_ETA |w'/w|:
        it lies in the validated region and |w| decreases, so its W-line is
        past its closest approach and the geodesic tends to the pole without
        leaving the disc.  Returns the figures next to their thresholds,
        ``{"abs_w": (|w|, w_in), "descent": (Re(w'/w)/|w'/w|, -FALL_ETA)}``,
        or None.  The series is evaluated only within 0.9 radius.
        """
        if not abs(u - self.center) < 0.9 * self.radius:
            return None
        w, dw = self.push_state(u, v)
        q = dw / w
        if abs(w) < w_in and q.real < -FALL_ETA * abs(q):
            return {"abs_w": (abs(w), w_in),
                    "descent": (q.real / abs(q), -FALL_ETA)}
        return None


def pole_disc(conn: FuchsianConnection, pole: SpherePoint):
    """The pole's sphere chart, its coordinate there and r0, the radius
    ``adapted_chart`` starts from and so a bound on the chart's radius."""
    ambient, center = (INFINITY, 0j) if pole.infinite else (STANDARD, pole.z)
    dists = [d for pos, _ in conn.chart_poles(ambient)
             if (d := abs(pos - center)) > 1e-12]
    return ambient, center, min(dists) / 2.0 if dists else SWITCH_RADIUS / 2.0


def pole_chart(conn: FuchsianConnection, pole: SpherePoint):
    """The pole's atlas entry, built on the first request: (chart, w_in =
    chart.inscribed_w()), or None if ``adapted_chart`` refuses the pole."""
    if pole not in conn.atlas:
        try:
            chart = adapted_chart(conn, pole)
            conn.atlas[pole] = chart, chart.inscribed_w()
        except (errors.ResonantOrLow, errors.SeriesDivergence):
            conn.atlas[pole] = None
    return conn.atlas[pole]


def adapted_chart(conn: FuchsianConnection, pole: SpherePoint) -> AdaptedChart:
    """Series construction of the pole-centered coordinate with form rho dw/w.

    The holomorphic part of the local representation is expanded around the
    pole to order DEFAULT_N, exponentiated into e^F = sum c_j zeta^j, and

        w = zeta * ( sum_j c_j zeta^j / (j + rho + 1) )^{1/(rho+1)},

    with w/zeta pinned to the positive real value |1/(rho+1)|^{1/(rho+1)}
    at zeta = 0.  The divisors j + rho + 1 vanish only for the resonant
    residues rho = -1, -2, ..., which are refused; so are residues so close
    to -1 that the pin is not a normal float (``SeriesDivergence``).  The
    radius starts at half the distance to the nearest other pole and is
    shrunk geometrically until the pullback residual passes on a grid.
    """
    ambient, center, r0 = pole_disc(conn, pole)
    rho = conn.residue_at(pole)
    if rho <= -1.0 and abs(rho - round(rho)) <= 1e-9:
        raise errors.ResonantOrLow(f"residue {rho} is resonant: no adapted chart")

    others = [(pos, res) for pos, res in conn.chart_poles(ambient)
              if abs(pos - center) > 1e-12]

    # Taylor of the holomorphic part f_hol(zeta) = sum_j rho_j / (zeta - q_j)
    f_hol = [0j] * (DEFAULT_N + 1)
    for pos, res in others:
        q = pos - center
        inv = 1.0 / q
        p = -inv
        for m in range(DEFAULT_N + 1):
            f_hol[m] += res * p
            p *= inv
    F = [0j] * (DEFAULT_N + 1)
    for m in range(1, DEFAULT_N + 1):
        F[m] = f_hol[m - 1] / m
    c = _ser_exp(F)

    G = [cj / (j + rho + 1.0) for j, cj in enumerate(c)]
    G0 = G[0]  # = 1/(rho+1), real, negative for rho < -1
    L = _ser_log1([g / G0 for g in G])
    K = _ser_exp([l / (rho + 1.0) for l in L])
    # the pin overflows or underflows for rho close to -1
    try:
        K0 = abs(G0) ** (1.0 / (rho + 1.0))
    except OverflowError:
        K0 = math.inf
    if not sys.float_info.min <= K0 < math.inf:
        raise errors.SeriesDivergence(
            f"constant |1/(rho+1)|^(1/(rho+1)) = {K0} for residue {rho} "
            "is not a normal float")
    K = [K0 * k for k in K]
    wc = [0j] + K
    dw = _ser_diff(wc)
    ddw = _ser_diff(dw)
    poles = conn.chart_poles(ambient)

    r = r0
    for _ in range(60):
        resid = _pullback_residual(rho, center, poles, wc, dw, ddw, r)
        if resid <= RESIDUAL_TOL:
            return AdaptedChart(pole, rho, r, tuple(K), ambient, center, resid)
        r *= 0.8
    raise errors.SeriesDivergence(
        f"pullback residual did not reach {RESIDUAL_TOL} at any radius <= {r0}")


def _pullback_residual(rho, center, poles, wc, dw, ddw, r):
    """max over a circle grid of | f(zeta) - rho w'/w - w''/w' |, for the
    chart w with coefficients ``wc`` and derivatives ``dw``, ``ddw``."""
    worst = 0.0
    for k in range(16):
        zeta = 0.9 * r * cmath.exp(2j * math.pi * (k + 0.37) / 16)
        u = center + zeta
        f = 0j
        for pos, res in poles:
            f += res / (u - pos)
        w = _ser_eval(wc, zeta)
        w1 = _ser_eval(dw, zeta)
        w2 = _ser_eval(ddw, zeta)
        if w == 0 or w1 == 0:
            return math.inf
        worst = max(worst, abs(f - rho * w1 / w - w2 / w1))
    return worst


# -- closed-form geodesics -----------------------------------------------------

@dataclass(frozen=True)
class LocalGeodesicParams:
    rho: float
    r: float
    alpha: float      # direction angle in [0, 2*pi)
    a: complex        # positive real for rho != -1, complex for rho == -1
    b: complex


@dataclass(frozen=True)
class DirectionInterval:
    """Direction-angle set between beta1 < beta2 in [0, 2*pi): the plain arc
    when it is shorter than pi/(rho+1), otherwise the complementary pair
    wrapping through 0 (whose total length must then be below pi/(rho+1))."""
    rho: float
    beta1: float
    beta2: float

    def __post_init__(self):
        if not 0.0 <= self.beta1 < self.beta2 < 2.0 * math.pi:
            raise ValueError("need 0 <= beta1 < beta2 < 2*pi")
        b1, b2 = self.beta1, self.beta2
        if min(b2 - b1, 2.0 * math.pi + b1 - b2) >= math.pi / (self.rho + 1.0):
            raise ValueError("neither arc is shorter than pi/(rho+1)")

    def arcs(self):
        """Closed angle arcs [lo, hi] making up the set."""
        b1, b2 = self.beta1, self.beta2
        if b2 - b1 < math.pi / (self.rho + 1.0):
            return [(b1, b2)]
        return [(0.0, b1), (b2, 2.0 * math.pi)]

    @property
    def length(self) -> float:
        return sum(hi - lo for lo, hi in self.arcs())

    def contains(self, angle: float) -> bool:
        angle = angle % (2.0 * math.pi)
        return any(lo - 1e-12 <= angle <= hi + 1e-12 for lo, hi in self.arcs())


def local_params(rho: float, r: float, z0: complex, v0: complex) -> LocalGeodesicParams:
    """Parameters (alpha, a, b) with chi(a t + b) passing through (z0, v0).

    Correctness is defined by the reproduction property
    chi(b) = z0 and a * chi'(b) = v0.
    """
    z0 = complex(z0)
    v0 = complex(v0)
    if z0 == 0:
        raise errors.AtPole("z0 = 0")
    if v0 == 0:
        raise errors.ZeroVelocity("v0 = 0")
    if rho == -1.0:
        a = v0 / (1j * z0)
        b = -1j * cmath.log(z0 / r)
        return LocalGeodesicParams(rho, r, 0.0, a, b)
    s = rho + 1.0
    a = s * abs(z0) ** rho * abs(v0)
    b = a * z0 / (s * v0)           # branch-free; |b| = |z0|^{rho+1} follows
    alpha = (cmath.phase(z0) - cmath.phase(b) / s) % (2.0 * math.pi)
    return LocalGeodesicParams(rho, r, alpha, a, b)


def chi(rho: float, alpha: float, r: float, w: complex) -> complex:
    """The model geodesic map, principal branch."""
    if rho == -1.0:
        return r * cmath.exp(1j * complex(w))
    if w == 0 and rho + 1.0 < 0:
        raise errors.OutOfDomain("w = 0 with negative exponent")
    return cmath.exp(1j * alpha) * complex(w) ** (1.0 / (rho + 1.0))


def closed_form_path(params: LocalGeodesicParams, ts) -> np.ndarray:
    """chi(a t + b) along increasing times with branch continuity.

    The argument of the line W(t) = a t + b is unwrapped so the fractional
    power never jumps branches mid-path.
    """
    ts = np.asarray(ts, dtype=float)
    W = params.a * ts + params.b
    if params.rho == -1.0:
        return params.r * np.exp(1j * W)
    theta = np.unwrap(np.angle(W))
    # pin to the principal branch at t = ts[0]
    theta += np.angle(W[0]) - theta[0]
    s = params.rho + 1.0
    logz = (np.log(np.abs(W)) + 1j * theta) / s
    return np.exp(1j * params.alpha) * np.exp(logz)


def is_critical(params: LocalGeodesicParams) -> bool:
    """Critical geodesics run along a radius straight into the pole; their b
    is real (up to CRITICAL_TOL scaled by |b|)."""
    return abs(params.b.imag) <= CRITICAL_TOL * max(1.0, abs(params.b))


def critical_length(rho: float, r: float) -> float:
    """Metric length of any radius of the chart."""
    if rho <= -1.0 or r <= 0:
        raise ValueError("need rho > -1 and r > 0")
    return r ** (rho + 1.0) / (rho + 1.0)


def diameter_bound(rho: float, r: float) -> float:
    """Any two chart points are joined through the pole by two radial
    segments, so their distance is below twice the critical length."""
    return 2.0 * critical_length(rho, r)


def must_cross(rho: float, alpha1: float, alpha2: float) -> bool:
    """Whether two noncritical geodesics with these directions are forced to
    meet inside the chart: angular gap strictly inside (0, pi/(rho+1))."""
    if rho <= -1.0:
        raise ValueError("need rho > -1")
    d = abs(alpha1 - alpha2) % (2.0 * math.pi)
    gap = min(d, 2.0 * math.pi - d)
    return 0.0 < gap < math.pi / (rho + 1.0)


def self_intersection_radius(rho: float, r: float) -> float:
    """Metric radius delta0 of the pole neighborhood that forces noncritical
    geodesics to self-intersect, for rho in (-1, -1/2).

    A noncritical geodesic whose straightened line passes within tau of the
    origin turns through beta(tau)/(rho+1) with beta(tau) =
    pi - 2 asin(tau / r^{rho+1}); self-intersection needs a full turn, so
    the threshold tau0 solves beta(tau0) = 2 pi (rho+1).
    """
    if not (-1.0 < rho < -0.5):
        raise errors.OutOfRange(f"rho = {rho} outside (-1, -1/2)")
    if r <= 0:
        raise ValueError("need r > 0")
    R = r ** (rho + 1.0)
    target = 2.0 * math.pi * (rho + 1.0)

    def beta(tau):
        return math.pi - 2.0 * math.asin(min(tau / R, 1.0))

    lo, hi = 0.0, R
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if beta(mid) > target:
            lo = mid
        else:
            hi = mid
    tau0 = lo
    # tau is distance in the straightened plane; the matching metric distance
    # from the pole is the length of the radial segment reaching it
    s_min = tau0 ** (1.0 / (rho + 1.0))
    return critical_length(rho, s_min)


def entry_direction(chart: AdaptedChart, segment) -> float:
    """Direction angle alpha of a geodesic state inside the chart.

    ``segment`` is (position, velocity) in the chart's ambient coordinate.
    """
    u, vel = segment
    try:
        w, vw = chart.push_state(complex(u), complex(vel))
    except errors.OutOfDomain as exc:
        raise errors.SegmentOutsideChart(str(exc)) from exc
    rho = chart.rho
    if rho == -1.0:
        return cmath.phase(vw / (1j * w)) % (2.0 * math.pi)
    A = (rho + 1.0) * w ** rho * vw
    return cmath.phase(A) / (rho + 1.0) % (2.0 * math.pi)
