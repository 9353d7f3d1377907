"""Numerical geodesic tracing.

The geodesic equation in a chart is  z'' + f(z) z'^2 = 0,  f = sum rho/(z - p).
With K a primitive of f dz it integrates once: c = z' exp(K(z)) is constant,
so a geodesic solves the first-order law  z' = c exp(-K(z)),  which ``trace``
integrates with an embedded Dormand-Prince 5(4) pair.  The stepper state is
z alone: c is fixed at launch, and K is continued from the step's start point
to each stage point along the chord (``_dK``).  The velocity v = z' of each
row is the step's last stage slope k7 = c exp(-K(z1)), which is the next
step's first slope (first same as last), so c = v exp(K) holds by
construction, up to rounding.  A step is rejected when its error norm on z
exceeds 1, when its chord passes within ``PATH_CLEARANCE`` of a pole (measured
only for poles that can be that close, ``_pole_gap``), or when it is not
finite (a stage point on a pole included).

The residues are real, so a geodesic moves at constant speed in the flat
metric |dz| prod_j |z - p_j|^{rho_j}: its arclength is s_g = speed * t, with
the speed metric_density(z) |v| taken once at the start state (standard
chart).

Two charts cover the sphere: the standard one and w = 1/z; trajectories
escaping past ``SWITCH_RADIUS`` continue in the infinity chart.  The
tolerances ``RTOL``, ``ATOL``, ``POLE_FLOOR`` and the first step ``H0`` are
fixed; ``IntegratorOptions`` holds only a trace's budgets.

A ``Trajectory`` is stored as columns: t, s_g, and z, v and K in the chart
each row was integrated in, with the chart kept as the row indices where it
switches.  Standard-chart z and v are derived once per trajectory length, for
the infinity-chart rows only.  ``Trajectory.samples`` builds TrajectorySample
objects on each read, for tests and external callers; the package itself
never reads it.  ``state_at`` takes one integrator step from the row before a
time T to the state a re-trace to T ends in; the period search refines with it.

``tracing`` is the step loop as a generator: it pauses each time t passes a
time the caller sends and resumes from its own state (z, K, h, chart, budget
counters).  A pause clamps no step, so a paused trajectory is a prefix of the
finished one, switches and events included; ``trace`` runs it without pauses.

With ``certify=True`` a trace also stops, with termination
``"pole_certified"``, as soon as an accepted state passes the fall
certificate of a residue < -1 pole (``AdaptedChart.falls_in``); its samples
are then the first samples of the trace without the flag.  A pole's chart is
read from the atlas (``localchart.pole_chart``) within 0.9 r0 of the pole.

The stepper is written out for speed, and its results are bit-identical to
the textbook form: the Butcher-tableau loop over the stages, each stage point
z + (h*a) k added left to right, its slope k1 exp(-dK) with dK summed pole by
pole as in ``_dK``, the seventh stage point taken as the solution, and the
error estimate's weighted sum started from the integer 0, as ``sum()`` does.
Floating-point addition is not associative, so an edit to ``_dp_step`` must
keep that operation order.  ``tests/test_engine.py`` checks ``_dp_step``
against the loop.
"""

from __future__ import annotations

import bisect
import cmath
import math
import time as _time
from dataclasses import dataclass

import numpy as np

from . import errors
from .connection import (FuchsianConnection, INFINITY, STANDARD,
                         SWITCH_RADIUS, SpherePoint)
from .localchart import pole_chart, pole_disc

RTOL = 1e-12
ATOL = 1e-14
POLE_FLOOR = 1e-6
H0 = 1e-3
PATH_CLEARANCE = 1e-9
H_MAX = 5.0


@dataclass(frozen=True)
class GeodesicState:
    chart: str
    z: complex
    v: complex
    k_phase: complex = 0j

    def __post_init__(self):
        if self.v == 0:
            raise errors.ZeroVelocity("v = 0 does not parametrize a geodesic")

    @property
    def c(self) -> complex:
        return self.v * cmath.exp(self.k_phase)


@dataclass(frozen=True)
class TrajectorySample:
    t: float
    state: GeodesicState
    s_g: float

    @property
    def c(self) -> complex:
        return self.state.c

    @property
    def z_std(self) -> complex:
        if self.state.chart == STANDARD:
            return self.state.z
        return _invert(self.state.z, self.state.v)[0]

    @property
    def v_std(self) -> complex:
        if self.state.chart == STANDARD:
            return self.state.v
        return _invert(self.state.z, self.state.v)[1]


@dataclass
class IntegratorOptions:
    max_steps: int = 1_000_000
    max_seconds: float | None = None


class Trajectory:
    """A traced geodesic, stored as columns (module docstring).

    Row k holds ``t[k]``, ``z[k]``, ``v[k]``, ``K[k]`` and ``s_g[k]``; rows
    are in ``chart0`` up to the first index in ``switches``, and the chart
    flips at each one.  ``Trajectory(conn, samples)`` turns a list of
    TrajectorySample into columns, keeping its s_g.
    """

    def __init__(self, conn: FuchsianConnection, samples=None, events=None,
                 termination: str = "t_max"):
        self.conn = conn
        self.events = [] if events is None else events   # (t, kind, payload)
        self.termination = termination
        samples = list(samples or ())
        states = [s.state for s in samples]
        self.t = [s.t for s in samples]
        self.z = [st.z for st in states]
        self.v = [st.v for st in states]
        self.K = [st.k_phase for st in states]
        self.s_g = [s.s_g for s in samples]
        self.chart0 = states[0].chart if states else STANDARD
        self.switches = [k for k in range(1, len(states))
                         if states[k].chart != states[k - 1].chart]
        self._std = None

    def __len__(self) -> int:
        return len(self.t)

    @property
    def times(self):
        return self.t

    @property
    def t_end(self) -> float:
        return self.t[-1]

    def _chart(self, k: int) -> str:
        flipped = bisect.bisect_right(self.switches, k) % 2
        return (STANDARD, INFINITY)[(self.chart0 == INFINITY) ^ flipped]

    @property
    def samples(self):
        return [TrajectorySample(t, GeodesicState(self._chart(k), z, v, K), s)
                for k, (t, z, v, K, s) in enumerate(
                    zip(self.t, self.z, self.v, self.K, self.s_g))]

    def std_columns(self):
        """(z, v) in the standard chart, derived once per row count and
        shared (do not modify them); the native columns if all are standard."""
        if self._std is None or self._std[0] != len(self.t):
            zs, vs = self.z, self.v
            bounds = [0, *self.switches, len(zs)]
            # the rows from bounds[j] to bounds[j + 1] are in the infinity chart
            for j in range(self.chart0 == STANDARD, len(bounds) - 1, 2):
                if zs is self.z:
                    zs, vs = list(zs), list(vs)
                for k in range(bounds[j], bounds[j + 1]):
                    zs[k], vs[k] = _invert(zs[k], vs[k])
            self._std = len(self.t), zs, vs
        return self._std[1:]

    def support_std(self):
        return self.std_columns()[0]

    def _interval(self, t: float) -> int:
        ts = self.t
        if not (ts[0] - 1e-12 <= t <= ts[-1] + 1e-12):
            raise ValueError(f"t={t} outside trajectory span [{ts[0]}, {ts[-1]}]")
        i = bisect.bisect_right(ts, t) - 1
        return max(0, min(i, len(ts) - 2))

    def interpolate(self, t: float):
        """Cubic-Hermite position and velocity (standard chart) at time t."""
        i = self._interval(t)
        chart = self._chart(i)
        z0, v0 = self.z[i], self.v[i]
        z1, v1 = self.z[i + 1], self.v[i + 1]
        if self._chart(i + 1) != chart:   # row i+1 follows a chart switch
            z1, v1 = _invert(z1, v1)
        h = self.t[i + 1] - self.t[i]
        th = (t - self.t[i]) / h if h else 0.0
        z, v = _hermite(z0, v0, z1, v1, h, th)
        if chart == INFINITY:
            z, v = _invert(z, v)
        return z, v


def _invert(z, v):
    """(z, v) carried through the chart change w = 1/z (its own inverse)."""
    return 1.0 / z, -v / z ** 2


def _hermite(z0, v0, z1, v1, h, th):
    """Cubic Hermite on [0,1]; returns value and d/dt."""
    h00 = (1 + 2 * th) * (1 - th) ** 2
    h10 = th * (1 - th) ** 2
    h01 = th * th * (3 - 2 * th)
    h11 = th * th * (th - 1)
    z = h00 * z0 + h10 * h * v0 + h01 * z1 + h11 * h * v1
    d00 = 6 * th * (th - 1)
    d10 = (1 - th) * (1 - 3 * th)
    d01 = -d00
    d11 = th * (3 * th - 2)
    v = (d00 * z0 / h + d10 * v0 + d01 * z1 / h + d11 * v1) if h else v0
    return z, v


# -- local representation and primitive continuation ---------------------------

def _dK(poles, a, b):
    """K(b) - K(a) continued along the chord [a, b].  On a chord that misses
    the pole p, arg(z - p) turns by less than pi, so each pole's term is a
    principal logarithm."""
    acc = 0j
    for pos, res in poles:
        acc += res * cmath.log((b - pos) / (a - pos))
    return acc


def _chord_gap(a, b, pos):
    """Distance from ``pos`` to the chord [a, b]."""
    seg = b - a
    da = a - pos
    L2 = abs(seg) ** 2
    tp = -(da.real * seg.real + da.imag * seg.imag) / L2 if L2 > 0 else 0.0
    if 0.0 < tp < 1.0:
        return abs(a + tp * seg - pos)
    return min(abs(da), abs(b - pos))


def _pole_gap(poles, a, b):
    """Least distance from the chord [a, b] to a pole within |b - a| +
    4 POLE_FLOOR of b (inf if none): every chord point lies within |b - a| of
    b, so no other pole comes within 4 POLE_FLOOR, of which 3 POLE_FLOOR cover
    the rounding of the distances (a few ulps of coordinates < 1e9)."""
    reach = abs(b - a) + 4.0 * POLE_FLOOR
    gap = math.inf
    for pos, _ in poles:
        if abs(b - pos) <= reach:
            gap = min(gap, _chord_gap(a, b, pos))
    return gap


def canonical_K(conn: FuchsianConnection, z: complex) -> complex:
    """Principal-branch K(z) = sum rho_j Log(z - p_j); its real part is the
    single-valued log of the metric density."""
    acc = 0j
    for pos, res in conn.chart_poles(STANDARD):
        acc += res * cmath.log(z - pos)
    return acc


def continue_K(conn: FuchsianConnection, path) -> list:
    """K along a polyline (standard chart), branch chosen by continuity."""
    pts = [complex(p) for p in path]
    poles = conn.chart_poles(STANDARD)
    out = [canonical_K(conn, pts[0])]
    for a, b in zip(pts[:-1], pts[1:]):
        if _pole_gap(poles, a, b) <= PATH_CLEARANCE:
            raise errors.PathThroughPole(f"path within {PATH_CLEARANCE} of a pole")
        out.append(out[-1] + _dK(poles, a, b))
    return out


def metric_density(conn: FuchsianConnection, z: complex) -> float:
    """prod_j |z - p_j|^{rho_j} in the standard chart."""
    acc = 0.0
    for pos, res in conn.chart_poles(STANDARD):
        acc += res * math.log(abs(z - pos))
    return math.exp(acc)


# -- Dormand-Prince 5(4) -------------------------------------------------------
# The tableau, zero entries left out; the stages keep the loop's operation
# order (module docstring).

_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                                -5103 / 18656)
# the seventh stage row equals the fifth-order weights (b2 = b7 = 0)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (71 / 57600, -71 / 16695, 71 / 1920,
                                -17253 / 339200, 22 / 525, -1 / 40)


def _dp_step(poles, z, k1, h):
    """One step of z' = c exp(-K(z)) from z, where k1 = c exp(-K(z)).

    Returns (z1, dK, k7, ez): the fifth-order z1, which is also the seventh
    stage point, dK = K(z1) - K(z), the slope k7 = c exp(-K(z1)) and the
    embedded error estimate.  Stage s has the slope k1 exp(-dK_s), with K
    continued from z to the stage point by ``_dK``.
    """
    a1 = h * _A21
    d = _dK(poles, z, z + a1 * k1)
    k2 = k1 * cmath.exp(-d)
    a1, a2 = h * _A31, h * _A32
    d = _dK(poles, z, z + a1 * k1 + a2 * k2)
    k3 = k1 * cmath.exp(-d)
    a1, a2, a3 = h * _A41, h * _A42, h * _A43
    d = _dK(poles, z, z + a1 * k1 + a2 * k2 + a3 * k3)
    k4 = k1 * cmath.exp(-d)
    a1, a2, a3, a4 = h * _A51, h * _A52, h * _A53, h * _A54
    d = _dK(poles, z, z + a1 * k1 + a2 * k2 + a3 * k3 + a4 * k4)
    k5 = k1 * cmath.exp(-d)
    a1, a2, a3, a4, a5 = h * _A61, h * _A62, h * _A63, h * _A64, h * _A65
    d = _dK(poles, z, z + a1 * k1 + a2 * k2 + a3 * k3 + a4 * k4 + a5 * k5)
    k6 = k1 * cmath.exp(-d)
    a1, a3, a4, a5, a6 = h * _B1, h * _B3, h * _B4, h * _B5, h * _B6
    z1 = z + a1 * k1 + a3 * k3 + a4 * k4 + a5 * k5 + a6 * k6
    d = _dK(poles, z, z1)
    k7 = k1 * cmath.exp(-d)
    ez = h * (0 + _E1 * k1 + _E3 * k3 + _E4 * k4 + _E5 * k5 + _E6 * k6
              + _E7 * k7)
    return z1, d, k7, ez


# -- the tracer ----------------------------------------------------------------

def trace(conn: FuchsianConnection, initial, t_max: float,
          opts: IntegratorOptions | None = None, *,
          certify: bool = False) -> Trajectory:
    """Integrate the geodesic through ``initial`` up to time ``t_max``.

    ``opts`` sets the budgets; the tolerances are the module constants.
    With ``certify`` the trace ends early once it is certified to fall into
    a pole of residue < -1.  It runs ``tracing`` without a pause.
    """
    run = tracing(conn, initial, t_max, opts, certify=certify)
    next(run)
    try:
        run.send(math.inf)   # no time passes inf: runs to the end
    except StopIteration as done:
        return done.value


def tracing(conn: FuchsianConnection, initial, t_max: float,
            opts: IntegratorOptions | None = None, *, certify: bool = False):
    """``trace`` as a generator that pauses (module docstring): the first
    ``next`` checks the start and yields the one-row trajectory; each
    ``send(pause)`` yields the same trajectory once an accepted step takes
    t past ``pause``, and the generator returns it where ``trace`` ends.
    Time spent paused counts against ``max_seconds``."""
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    opts = opts or IntegratorOptions()

    if isinstance(initial, GeodesicState):
        chart, z, v, K = initial.chart, initial.z, initial.v, initial.k_phase
    else:
        chart, z, v, K = STANDARD, complex(initial[0]), complex(initial[1]), None
    if v == 0:
        raise errors.ZeroVelocity("v = 0 does not parametrize a geodesic")
    for pos, _res in conn.chart_poles(chart):
        if abs(z - pos) <= POLE_FLOOR:
            raise errors.StartAtPole(f"initial position within pole floor of {pos}")
    K = canonical_K(conn, z) if K is None else K

    traj = Trajectory(conn)
    traj.chart0 = chart
    t = 0.0
    ts, zs, vs, Ks, sg = [t], [z], [v], [K], [0.0]
    traj.t, traj.z, traj.v, traj.K, traj.s_g = ts, zs, vs, Ks, sg
    # the metric speed, constant along the geodesic; not |c|, because a
    # GeodesicState may carry any branch of K (saddle launches have K = 0)
    z_std, v_std = (z, v) if chart == STANDARD else _invert(z, v)
    speed = metric_density(conn, z_std) * abs(v_std)

    max_steps, max_seconds = opts.max_steps, opts.max_seconds
    h = min(H0, t_max)
    steps = 0
    started = _time.monotonic()
    exit_radius = None
    falls = [(p.location, *pole_disc(conn, p.location)) for p in conn.poles
             if certify and p.residue < -1.0]
    pause = yield traj

    while t < t_max:
        if steps >= max_steps:
            traj.termination = "max_steps"
            break
        if max_seconds is not None and _time.monotonic() - started > max_seconds:
            traj.termination = "time_budget"
            break
        if exit_radius is None:
            # the chart's poles and the radius past which the trace leaves
            # the chart, set at the start and after a switch
            poles = conn.chart_poles(chart)
            exit_radius = (SWITCH_RADIUS if chart == STANDARD
                           else 1.5 / SWITCH_RADIUS)
        steps += 1
        h = min(h, t_max - t, H_MAX)
        if h < 1e-14 * max(1.0, abs(t)):
            traj.termination = "step_collapse"
            traj.events.append((t, "step_collapse", {"h": h}))
            break

        # v is the slope at z (first same as last: the last stage slope of
        # the previous step)
        try:
            z1, dK, v1, ez = _dp_step(poles, z, v, h)
        except (ValueError, OverflowError):   # a stage point on a pole
            z1 = ez = complex(math.nan)
        err = abs(ez) / (ATOL + RTOL * max(abs(z), abs(z1)))
        if not err <= 1.0 or not math.isfinite(abs(z1)):
            h *= max(0.2, 0.9 * err ** -0.2) if 1.0 < err < math.inf else 0.1
            continue

        # the step chord must clear every pole; one that comes within the
        # pole floor ends the step at the floor
        gap = _pole_gap(poles, z, z1)
        if gap <= PATH_CLEARANCE:
            h *= 0.5
            continue
        hit = _pole_hit(poles, z, v, h) if gap < POLE_FLOOR else None
        if hit is not None:
            h, z1, dK, v1 = hit

        t += h
        z, v, K = z1, v1, K + dK
        ts.append(t)
        zs.append(z)
        vs.append(v)
        Ks.append(K)
        sg.append(speed * t)

        if hit is not None:
            pole = _nearest_pole(conn, chart, z)
            traj.events.append((t, "pole_approach", {"pole": pole}))
            traj.termination = "pole_approach"
            break

        cert = _certified_fall(conn, falls, chart, z, v) if falls else None
        if cert is not None:
            traj.events.append((t, "pole_certified", cert))
            traj.termination = "pole_certified"
            break

        # chart switching with hysteresis; the next row is in the new chart
        if abs(z) > exit_radius:
            # keep c = v exp(K) continuous: K_new = K + log(v / v_new)
            K = K + cmath.log(-z ** 2)
            z, v = _invert(z, v)
            chart = INFINITY if chart == STANDARD else STANDARD
            exit_radius = None
            traj.switches.append(len(ts))
            traj.events.append((t, "chart_switch", {"to": chart}))

        h *= min(5.0, max(0.2, 0.9 * err ** -0.2)) if err > 0 else 5.0
        if t > pause:
            pause = yield traj

    # a trace that ran to t_max keeps the termination "t_max"
    traj.events.append((ts[-1], "terminated", {"reason": traj.termination}))
    return traj


def _pole_hit(poles, z0, v0, h):
    """Entry of the step arc into a pole floor: (sub-step, z, dK, v) or None.
    Called only for steps whose chord comes within the floor of a pole.

    Refinement re-runs the integrator step at partial sizes so the located
    state keeps the step's accuracy (a Hermite fit degrades near the pole).
    A partial step with a stage point on a pole counts as inside the floor.
    """
    def dist(hh):
        try:
            za, dK, va, _ = _dp_step(poles, z0, v0, hh)
        except (ValueError, OverflowError):
            return 0.0, None
        return min(abs(za - pos) for pos, _ in poles), (za, dK, va)

    # locate a sub-step strictly inside the floor (handles fly-by minima)
    n = 64
    inside = None
    for k in range(1, n + 1):
        d, _ = dist(h * k / n)
        if d < POLE_FLOOR:
            inside = k
            break
    if inside is None:
        return None
    lo, hi = h * (inside - 1) / n, h * inside / n
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        d, _ = dist(mid)
        if d < POLE_FLOOR:
            hi = mid
        else:
            lo = mid
    return (lo, *dist(lo)[1])


def state_at(traj: Trajectory, T: float):
    """Standard-chart (z, v) at time T: one integrator step, as in
    ``_pole_hit``, of size T - t_k from row k, the last row with t_k <= T,
    in the chart the trace went on in.  A re-trace to T ends in the same
    state unless the trace rejected a step just before T.  None where a
    trace would shrink the step or stop: error norm > 1, a non-finite
    result, or a chord within ``POLE_FLOOR`` of a pole."""
    k = max(0, bisect.bisect_right(traj.t, T) - 1)
    chart, z, v = traj._chart(k + 1), traj.z[k], traj.v[k]
    if chart != traj._chart(k):   # the trace switched charts after row k
        z, v = _invert(z, v)
    poles = traj.conn.chart_poles(chart)
    try:
        z1, _, v1, ez = _dp_step(poles, z, v, T - traj.t[k])
    except (ValueError, OverflowError):   # a stage point on a pole
        return None
    err = abs(ez) / (ATOL + RTOL * max(abs(z), abs(z1)))
    if not (err <= 1.0 and math.isfinite(abs(z1))
            and _pole_gap(poles, z, z1) >= POLE_FLOOR):
        return None
    return (z1, v1) if chart == STANDARD else _invert(z1, v1)


def _certified_fall(conn, falls, chart, z, v):
    """Payload of the first fall certificate the state (z, v) of ``chart``
    passes, or None; ``falls_in`` passes only within 0.9 radius <= 0.9 r0."""
    for pole, ambient, center, r0 in falls:
        u, vu = (z, v) if ambient == chart else _invert(z, v)
        entry = pole_chart(conn, pole) if abs(u - center) < 0.9 * r0 else None
        cert = entry and entry[0].falls_in(entry[1], u, vu)
        if cert:
            return {"pole": pole, **cert}
    return None


def _nearest_pole(conn, chart, u) -> SpherePoint:
    best, bd = None, math.inf
    for pos, _res in conn.chart_poles(chart):
        d = abs(u - pos)
        if d < bd:
            bd, best = d, pos
    if chart == INFINITY:
        return SpherePoint.inf() if best == 0 else SpherePoint.of(1.0 / best)
    return SpherePoint.of(best)


# -- derived quantities --------------------------------------------------------

def first_integral(traj: Trajectory):
    """(c at t=0, max relative drift of v*exp(K) over the samples).

    ``trace`` holds c fixed by construction (module docstring), so on its
    trajectories the drift reads only rounding: a check of the v and K
    columns, not a measure of the integration error."""
    if not len(traj):
        raise ValueError("empty trajectory")
    c0 = traj.v[0] * cmath.exp(traj.K[0])
    scale = abs(c0)
    drift = max(abs(v * cmath.exp(K) - c0) for v, K in zip(traj.v, traj.K)) / scale
    return c0, drift


# -- self-intersections --------------------------------------------------------

@dataclass(frozen=True)
class IntersectionRecord:
    t_i: float
    t_j: float
    point: complex
    transversal: bool


def _boxes(pts):
    a, b = pts[:-1], pts[1:]
    return (np.minimum(a.real, b.real), np.maximum(a.real, b.real),
            np.minimum(a.imag, b.imag), np.maximum(a.imag, b.imag))


def segment_crossings(p, q):
    """Crossing segment pairs of the polylines ``p`` and ``q``.

    Returns arrays ``(i, j, s, u, den)`` in lexicographic ``(i, j)`` order:
    segment i of ``p`` meets segment j of ``q`` at
    ``p[i] + s (p[i+1] - p[i]) = q[j] + u (q[j+1] - q[j])`` with s and u in
    [0, 1], and ``den`` is the cross product of the two directions.
    Parallel pairs (``den == 0``) are never reported.  Candidates are
    filtered by bounding-box overlap, 512 rows of ``p`` at a time.
    """
    p = np.asarray(p, dtype=complex)
    q = np.asarray(q, dtype=complex)
    pxmin, pxmax, pymin, pymax = _boxes(p)
    qxmin, qxmax, qymin, qymax = _boxes(q)
    parts = [(np.empty(0, int),) * 2 + (np.empty(0),) * 3]
    for i0 in range(0, len(p) - 1, 512):
        rows = slice(i0, i0 + 512)
        # x-overlap on the whole block, y-overlap on its survivors only
        i, j = np.nonzero((pxmin[rows, None] <= qxmax)
                          & (pxmax[rows, None] >= qxmin))
        i += i0
        yo = (pymin[i] <= qymax[j]) & (pymax[i] >= qymin[j])
        i, j = i[yo], j[yo]
        d1, d2 = p[i + 1] - p[i], q[j + 1] - q[j]
        den = d1.real * d2.imag - d1.imag * d2.real
        nz = den != 0
        i, j, d1, d2, den = i[nz], j[nz], d1[nz], d2[nz], den[nz]
        r = q[j] - p[i]
        s = (r.real * d2.imag - r.imag * d2.real) / den
        u = (r.real * d1.imag - r.imag * d1.real) / den
        hit = (0.0 <= s) & (s <= 1.0) & (0.0 <= u) & (u <= 1.0)
        parts.append((i[hit], j[hit], s[hit], u[hit], den[hit]))
    return tuple(np.concatenate(x) for x in zip(*parts))


def _decimate(pts, ts, max_segments):
    """Thin a polyline to at most max_segments, keeping both endpoints."""
    n = len(pts) - 1
    if n <= max_segments:
        return pts, ts
    stride = -(-n // max_segments)
    idx = list(range(0, n, stride)) + [n]
    return [pts[i] for i in idx], [ts[i] for i in idx]


def _forward_crossings(pts):
    """Crossing segment pairs (i, j, s, u) of one polyline with j > i + 1, in
    lexicographic order.  Rows are scanned 512 at a time against the
    segments from i0 + 2 on, and lazily: a caller that stops early leaves
    the later blocks unscanned."""
    for i0 in range(0, len(pts) - 1, 512):
        i, j, s, u, _ = segment_crossings(pts[i0:i0 + 513], pts[i0 + 2:])
        i += i0
        j += i0 + 2
        keep = j > i + 1
        yield from zip(*(x[keep].tolist() for x in (i, j, s, u)))


def self_intersections(traj: Trajectory, max_count: int = 64) -> list:
    """Transversal self-crossings of the sampled trajectory, refined on the
    Hermite interpolant to ~1e-12."""
    if len(traj) < 3:
        return []
    pts, ts = _decimate(traj.support_std(), traj.times, 4000)
    out = []
    for i, j, s, u in _forward_crossings(np.asarray(pts, dtype=complex)):
        t1 = ts[i] + s * (ts[i + 1] - ts[i])
        t2 = ts[j] + u * (ts[j + 1] - ts[j])
        rec = _refine_crossing(traj, traj, t1, t2)
        if rec is None:
            continue
        t1, t2, pt, transversal = rec
        if t2 - t1 < 1e-9:
            continue
        out.append(IntersectionRecord(t1, t2, pt, transversal))
        if len(out) >= max_count:
            break
    out.sort(key=lambda r: (r.t_i, r.t_j))
    return out


def cross_intersections(a: Trajectory, b: Trajectory, max_count: int = 64) -> list:
    """Crossings between two trajectories, in segment order."""
    ta, tb = a.times, b.times
    out = []
    hits = segment_crossings(a.support_std(), b.support_std())
    for i, j, s, u in zip(*(x.tolist() for x in hits[:4])):
        t1 = ta[i] + s * (ta[i + 1] - ta[i])
        t2 = tb[j] + u * (tb[j + 1] - tb[j])
        rec = _refine_crossing(a, b, t1, t2)
        if rec is not None:
            out.append(IntersectionRecord(*rec))
            if len(out) >= max_count:
                break
    return out


def _refine_crossing(ta: Trajectory, tb: Trajectory, t1, t2):
    """Newton refinement of gamma_a(t1) = gamma_b(t2), at most 30 steps."""
    lo1, hi1 = ta.t[0], ta.t_end
    lo2, hi2 = tb.t[0], tb.t_end
    for _ in range(30):
        z1, v1 = ta.interpolate(t1)
        z2, v2 = tb.interpolate(t2)
        F = z1 - z2
        den = v1.real * (-v2.imag) - v1.imag * (-v2.real)
        if den == 0:
            return None
        dt1 = (-F.real * (-v2.imag) + F.imag * (-v2.real)) / den
        dt2 = (-v1.real * F.imag + v1.imag * F.real) / den
        t1 += dt1
        t2 += dt2
        t1 = min(max(t1, lo1), hi1)
        t2 = min(max(t2, lo2), hi2)
        if abs(dt1) + abs(dt2) < 1e-13:
            break
    z1, v1 = ta.interpolate(t1)
    z2, v2 = tb.interpolate(t2)
    if abs(z1 - z2) > 1e-9 * max(1.0, abs(z1)):
        return None
    cross = abs((v1 / abs(v1)).real * (v2 / abs(v2)).imag
                - (v1 / abs(v1)).imag * (v2 / abs(v2)).real)
    return t1, t2, 0.5 * (z1 + z2), cross >= 1e-3


# -- export --------------------------------------------------------------------

CSV_HEADER = "t,re_z,im_z,re_v,im_v,s_g"


def trajectory_to_csv(traj: Trajectory) -> str:
    """Rows in the standard chart, floats at 17 significant digits."""
    lines = [CSV_HEADER]
    for t, z, v, s_g in zip(traj.t, *traj.std_columns(), traj.s_g):
        lines.append(f"{t:.17g},{z.real:.17g},{z.imag:.17g},"
                     f"{v.real:.17g},{v.imag:.17g},{s_g:.17g}")
    return "\n".join(lines) + "\n"
