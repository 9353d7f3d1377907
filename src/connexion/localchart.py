"""Local theory around a Fuchsian pole with real residue.

Around a pole with non-resonant residue rho (any rho except -2, -3, ...)
there is an adapted coordinate w in which the connection form is exactly
rho dw/w.  The form fixes w up to a constant factor; the chart takes
w/zeta = 1 at the pole, zeta the ambient offset from it.  In that coordinate
the geodesics have the closed form

    z(t) = e^{i alpha} (a t + b)^{1/(rho+1)}        (rho != -1)
    z(t) = r e^{i (a t + b)}                         (rho == -1)

so W = w^{rho+1} moves on a straight line.  For rho > -1 all the local
metric geometry (critical rays, chart diameter, crossing predicates) is
explicit: a geodesic moving inward on a critical ray reaches the pole at a
known time (``AdaptedChart.lands_in``), and one moving outward leaves the
certificates' disc at a known time and state (``AdaptedChart.leaves``).
For rho < -1 the pole sits at |W| = infinity: a geodesic whose W-line has
passed its closest approach to 0 has |w| decreasing from then on, so once
inside the chart it tends to the pole (``AdaptedChart.falls_in``).
``AdaptedChart`` holds every use of the W-line model: the certificates'
disc and entry points (``disc``, ``certificate``, ``leaves``), the one
solve that places a point by its w (``at_w``), and a critical W-line's
state at a modulus |w| or a time, in either direction (``ray_state``,
``w_line``).  The adapted coordinate is a truncated power series with a
constructive radius: the radius is shrunk until the pulled-back connection
form matches rho dw/w on a test grid.  A
connection's atlas holds its pole charts: ``pole_chart`` builds a chart, or
records its refusal, on the first request, and every caller reads it.
"""

from __future__ import annotations

import cmath
import math
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

    @cached_property
    def disc(self) -> float:
        """Radius of the certificates' disc: 0.9 radius for a fall (rho < -1),
        where the residual is checked, 0.5 for a landing, where the series
        holds to rounding."""
        return (0.9 if self.rho < -1.0 else 0.5) * self.radius

    @cached_property
    def w_in(self) -> float:
        """The least |w| of 64 points of the circle of ``disc``, which may
        exceed the radius inscribed in its image.  A fall (rho < -1) needs
        |w| below it; a disc exit (rho > -1) is placed at it, and so may lie
        past the disc's edge (by up to 1.14e-5 of it in the saddle corpus)."""
        zeta = self.disc * np.exp(2j * np.pi * np.arange(64) / 64)
        return float(np.min(np.abs(zeta * np.polyval(self.series[::-1], zeta))))

    def certificate(self, u: complex, v: complex, left: float):
        """The certificate of the ambient state (u, v), with the pole: the
        fall's (``falls_in``) for a residue < -1, else the landing's
        (``lands_in``) for a hit within the time ``left``; or None."""
        if self.rho < -1.0:
            cert = self.falls_in(u, v)
        elif (cert := self.lands_in(u, v)) and cert["dt_hit"] > left:
            cert = None
        return {"pole": self.pole, **cert} if cert else None

    def _inside(self, u: complex, v: complex):
        """(w, w' v, w' v / w) of the state (u, v) if u lies in the disc,
        else None: the opening of ``falls_in``, ``lands_in`` and
        ``leaves``."""
        if not abs(u - self.center) < self.disc:
            return None
        w, vw = self.push_state(u, v)
        return w, vw, vw / w

    def falls_in(self, u: complex, v: complex):
        """Fall certificate of a rho < -1 chart for the ambient state (u, v).

        The state passes when it lies in the disc, |w| < w_in and
        Re(w'/w) < -FALL_ETA |w'/w|: it lies in the validated region and |w|
        decreases, so its W-line is past its closest approach and the
        geodesic tends to the pole without leaving the disc.  Returns the
        figures next to their thresholds, ``{"abs_w": (|w|, w_in),
        "descent": (Re(w'/w)/|w'/w|, -FALL_ETA)}``, or None.
        """
        if (st := self._inside(u, v)) is None:
            return None
        w, _, q = st
        if abs(w) < self.w_in and q.real < -FALL_ETA * abs(q):
            return {"abs_w": (abs(w), self.w_in),
                    "descent": (q.real / abs(q), -FALL_ETA)}
        return None

    def lands_in(self, u: complex, v: complex):
        """Landing certificate of a rho > -1 chart for the state (u, v).

        W = w^(rho+1) moves on the line W + W' t, W' = (rho+1) W w'/w, which
        passes the pole at the distance tau = |W| |sin arg(w'/w)|.  The state
        passes when it lies in the disc, moves inward, Re(w'/w) < 0, and
        tau <= CRITICAL_TOL |W|: it runs along a critical ray into the
        pole.  Returns the figure next to its threshold and the time to the
        pole, the closest approach of the W-line, ``{"critical": (tau/|W|,
        CRITICAL_TOL), "dt_hit": -Re(w'/w) / ((rho+1) |w'/w|^2)}``, or None.
        """
        if (st := self._inside(u, v)) is None:
            return None
        q = st[2]
        tau = abs(q.imag) / abs(q)
        if q.real < 0.0 and tau <= CRITICAL_TOL:
            return {"critical": (tau, CRITICAL_TOL),
                    "dt_hit": -q.real / ((self.rho + 1.0) * abs(q) ** 2)}
        return None

    def leaves(self, u: complex, v: complex, left: float):
        """Disc exit of a rho > -1 chart for the state (u, v): ``lands_in``
        mirrored.  The state passes when it lies in the disc with |w| <
        w_in, moves outward, Re(w'/w) > 0, with tau <= CRITICAL_TOL |W|,
        and reaches |w| = w_in within the time ``left``.  Returns the figure
        next to its threshold, ``{"critical": (tau/|W|, CRITICAL_TOL)}``,
        and the exit state (dt, u1, v1) of ``ray_state``; or None."""
        if (st := self._inside(u, v)) is None:
            return None
        w, vw, q = st
        tau = abs(q.imag) / abs(q)
        if abs(w) < self.w_in and q.real > 0.0 and tau <= CRITICAL_TOL:
            edge = self.ray_state(w, vw, self.w_in)
            if edge[0] < left:
                return {"critical": (tau, CRITICAL_TOL)}, edge
        return None

    def at_w(self, w1: complex):
        """(u1, w'(u1)) for the ambient point u1 with to_w(u1) = w1: Newton's
        method on to_w from the series reversed to third order, zeta = w1
        (1 - k1 w1 + (2 k1^2 - k2) w1^2), until the step is below the
        rounding of u1, not of u1 - center, which u1 does not resolve where
        |center| >> |zeta|.  w'(u1) is the last step's, at its iterate."""
        k1, k2 = self.series[1:3]
        u1 = self.center + w1 * (1.0 - k1 * w1 + (2.0 * k1 * k1 - k2) * w1 * w1)
        for _ in range(30):
            dw = self.dw(u1)
            step = (self.to_w(u1) - w1) / dw
            u1 -= step
            if abs(step) <= 4.0 * 2.0 ** -52 * abs(u1):
                break
        return u1, dw

    def ray_state(self, w: complex, vw: complex, m: float):
        """(dt, u1, v1) for the state (w, w' v) of a point on a critical ray,
        moving inward or outward (``lands_in``, ``leaves``): the ray's point
        u1 at |w(u1)| = m, the time the state reaches it in and its velocity
        there.  |W| moves at |W'| = (rho+1) |W w' v / w|."""
        s, shrink = self.rho + 1.0, m / abs(w)
        return (abs(shrink ** s - 1.0) * abs(w / vw) / s,
                *self._on_ray(w, vw, shrink))

    def w_line(self, u: complex, v: complex, dt: float):
        """(u1, v1), the state dt after (u, v) on a critical ray, dt of
        either sign: W moves on W (1 + (rho+1) (w'v/w) dt), so w(u1) =
        w |1 + (rho+1) (w'v/w) dt|^(1/(rho+1)), clamped at the rounding of
        the pole."""
        w, vw = self.push_state(u, v)
        s = self.rho + 1.0
        return self._on_ray(w, vw, max(abs(1.0 + dt * s * vw / w),
                                       2.0 ** -52) ** (1.0 / s))

    def _on_ray(self, w: complex, vw: complex, shrink: float):
        """(u1, v1): the point u1 at w(u1) = w shrink (``at_w``) and the
        velocity there of the state (w, w' v), as w' v scales by
        shrink^-rho."""
        u1, dw1 = self.at_w(w * shrink)
        return u1, vw * shrink ** -self.rho / dw1


def pole_disc(conn: FuchsianConnection, pole: SpherePoint):
    """The pole's sphere chart, its coordinate there and r0, the radius
    ``adapted_chart`` starts from and so a bound on the chart's radius."""
    ambient, center = (INFINITY, 0j) if pole.infinite else (STANDARD, pole.z)
    dists = [d for pos, _ in conn.chart_poles(ambient)
             if (d := abs(pos - center)) > 1e-12]
    return ambient, center, min(dists) / 2.0 if dists else SWITCH_RADIUS / 2.0


def pole_chart(conn: FuchsianConnection, pole: SpherePoint):
    """The pole's adapted chart, built on the first request and kept in the
    connection's atlas, or None if ``adapted_chart`` refuses the pole."""
    if pole not in conn.atlas:
        try:
            conn.atlas[pole] = adapted_chart(conn, pole)
        except (errors.ResonantOrLow, errors.SeriesDivergence):
            conn.atlas[pole] = None
    return conn.atlas[pole]


def adapted_chart(conn: FuchsianConnection, pole: SpherePoint) -> AdaptedChart:
    """Series construction of the pole-centered coordinate with form rho dw/w.

    The holomorphic part of the local representation is expanded around the
    pole to order DEFAULT_N, exponentiated into e^F = sum c_j zeta^j
    (c_0 = 1), and with H = sum_{j>=1} c_j zeta^j / (j + rho + 1)

        w = zeta * exp(M),   M = log(1 + (rho+1) H) / (rho+1),

    so that w/zeta = 1 at zeta = 0; at rho = -1 the same series gives
    M = H.  The form fixes w only up to a constant factor, and every use of
    the chart is free of it except ``omega._critical_launch``'s speed.  The
    divisors j + rho + 1 vanish only for the resonant residues
    rho = -2, -3, ..., which are refused.  The radius starts at half the
    distance to the nearest other pole and is shrunk geometrically until the
    pullback residual passes on a grid.
    """
    ambient, center, r0 = pole_disc(conn, pole)
    rho = conn.residue_at(pole)
    if rho < -1.5 and abs(rho - round(rho)) <= 1e-9:
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
    c = _ser_exp([0j] + [f_hol[m - 1] / m for m in range(1, DEFAULT_N + 1)])

    # M' (1 + (rho+1) H) = H':  j M_j = j H_j - (rho+1) sum_{m<j} m M_m H_{j-m}
    s = rho + 1.0
    H = [0j] + [c[j] / (j + s) for j in range(1, DEFAULT_N + 1)]
    M = [0j] * (DEFAULT_N + 1)
    for j in range(1, DEFAULT_N + 1):
        acc = 0j
        for m in range(1, j):
            acc += m * M[m] * H[j - m]
        M[j] = H[j] - s * acc / j
    K = _ser_exp(M)
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
        if not self.rho > -1.0:
            raise ValueError("need rho > -1")
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
    """Parameters (alpha, a, b) of the closed form z(t) = chi(a t + b) of the
    module docstring through (z0, v0).

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


def closed_form_path(params: LocalGeodesicParams, ts) -> np.ndarray:
    """chi(a t + b) along increasing times with branch continuity.

    The argument of the line W(t) = a t + b is unwrapped so the fractional
    power never jumps branches mid-path.
    """
    ts = np.asarray(ts, dtype=float)
    W = params.a * ts + params.b
    if params.rho == -1.0:
        return params.r * np.exp(1j * W)
    # unwrap keeps the first angle: the principal branch at t = ts[0]
    theta = np.unwrap(np.angle(W))
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
    the threshold solves beta(tau0) = 2 pi (rho+1):
    tau0 = r^{rho+1} cos(pi (rho+1)).  tau is distance in the straightened
    plane; the matching metric distance from the pole is the length of the
    radial segment reaching it, tau0 / (rho+1) (``critical_length``).
    """
    if not (-1.0 < rho < -0.5):
        raise errors.OutOfRange(f"rho = {rho} outside (-1, -1/2)")
    if r <= 0:
        raise ValueError("need r > 0")
    s = rho + 1.0
    return r ** s * math.cos(math.pi * s) / s


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
