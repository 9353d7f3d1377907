"""Numerical geodesic tracing.

The geodesic equation in a chart is  z'' + f(z) z'^2 = 0,  f = sum rho/(z - p).
With K a primitive of f dz it integrates once: c = z' exp(K(z)) is constant,
so a geodesic solves the first-order law  z' = c exp(-K(z)),  which ``trace``
integrates with Dormand and Prince's eighth-order DOP853 step (Hairer,
Norsett & Wanner, Solving ODEs I, II.5 and II.10).  The stepper state is z
alone: c is fixed at launch, and K is continued from the step's start point
to each stage point along the chord (``_dK``).  The velocity v = z' of each
row is the slope k13 = c exp(-K(z1)) at the step's end, which is the next
step's first slope (first same as last), so c = v exp(K) holds by
construction, up to rounding.  The error estimate combines the fifth- and
third-order embedded errors e5 and e3 as |h| |e5|^2 / sqrt(|e5|^2 +
0.01 |e3|^2), over the scale ATOL + RTOL max(|z|, |z1|); the next step is
h times 0.9 err^(-1/8), kept within [0.2, 5].  A step is rejected when its
error norm exceeds 1, when its chord passes within ``PATH_CLEARANCE`` of a
pole (measured only for poles that can be that close, ``_pole_gap``), or when
it is not finite (a stage point on a pole included).

The residues are real, so a geodesic moves at constant speed in the flat
metric |dz| prod_j |z - p_j|^{rho_j}: its arclength is s_g = speed * t, with
the speed metric_density(z) |v| taken once at the start state (standard
chart).  That metric is |e^K dz|, and along a geodesic d zeta / dt = e^K z' =
c for the developing coordinate zeta = int e^K dz: every geodesic is a
straight line in zeta run at the velocity c.  ``delta_zeta`` gives zeta's
increment along a polyline by Gauss-Legendre quadrature (``ZETA_NODES`` per
piece, each segment halved towards a pole it passes close to); the shooting
search aims with it and the ring probe measures widths with it.

Two charts cover the sphere: the standard one and w = 1/z; trajectories
escaping past ``SWITCH_RADIUS`` continue in the infinity chart.  The
tolerances ``RTOL``, ``ATOL``, ``POLE_FLOOR`` and the first step ``H0`` are
fixed; ``IntegratorOptions`` holds only a trace's budgets.

A ``Trajectory`` is stored as columns: t, s_g, and z, v and K in the chart
each row was integrated in, with the chart kept as the row indices where it
switches.  Standard-chart z and v are derived once per trajectory length, for
the infinity-chart rows only, as lists for the scalar loops; the crossing
scans read the standard-chart z as one complex array
(``Trajectory.support_array``), also built once per length, so a trajectory
that several scans read (a classification's section and self-crossing scans)
is converted once.  ``Trajectory.samples`` builds TrajectorySample
objects on each read, for tests and external callers; the package itself
never reads it.  ``Trajectory.interpolate`` is the quintic Hermite through z,
v and z'' = -f(z) v^2 at both rows of a step, so it needs no stored stage
slopes and works on any trajectory whose rows lie on a geodesic.
``state_at`` takes one integrator step from the row before a time T to the
state a re-trace to T ends in; the period search refines with it.

``segment_crossings`` (two polylines) and ``self_intersections`` (one, with
itself) share one crossing kernel, ``_crossings``, whose work follows the
number of chord pairs that lie close, not the n m pairs: it groups the
segments into runs of ``RUN``, keeps the run pairs whose bounding boxes
overlap, tests the segment boxes only within those, and solves the pairs
whose boxes overlap for the crossing parameters.  A polyline of at most
``RUN`` segments (a section, a short trace) is one run, whose box prunes
little while the run boxes cost a fixed time per polyline, so against one
both sides take runs of one segment: the run pairs are then the segment
pairs, n m <= ``RUN`` n box tests.
Its boolean masks hold at most ``SLICE`` elements each, so no temporary
grows with the input.

``tracing`` is the step loop as a generator: it pauses each time t passes a
time the caller sends and resumes from its own state (z, K, h, chart, budget
counters).  A pause clamps no step, so a paused trajectory is a prefix of the
finished one, switches and events included; ``trace`` runs it without pauses.

``trace_many`` steps the starts of one connection in lockstep numpy lanes,
each with its own h and chart; pads of residue 0 far off give both charts'
pole tables one width.  A lane returns to the scalar loop (``_stepping``)
from its last accepted state when its chord enters a pole floor, and once
fewer than ``LANES_MIN`` lanes are left, the measured crossover below which
the scalar loop is faster (and the least batch that uses lanes).  numpy
rounds complex logarithms and divisions otherwise than CPython and the lanes
sum the stages in another order, so a lane may take other steps than
``trace``: its end state agrees to a tolerance, not bit for bit.

With ``certify=True`` a trace also stops, with termination
``"pole_certified"``, as soon as an accepted state passes the fall
certificate of a residue < -1 pole (``AdaptedChart.falls_in``); its samples
are then the first samples of the trace without the flag.  A pole's chart is
read from the atlas (``localchart.pole_chart``) within 0.9 r0 of the pole.

The stepper is written out for speed, and its results are bit-identical to
the textbook form: the Butcher-tableau loop over the stages, each stage point
and the solution z + (h*a) k added left to right, each slope k1 exp(-dK) with
dK summed pole by pole as in ``_dK``, and each error sum added left to right
from its first term.  Floating-point addition is not associative, so an edit
to ``_dp_step`` must keep that operation order.  ``tests/test_engine.py``
checks ``_dp_step`` against the loop over scipy's DOP853 tableau, and the
literals against that tableau.
"""

from __future__ import annotations

import bisect
import cmath
import functools
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
LANES_MIN = 16
# Segments per run of the crossing kernel's coarse filter (``_crossings``),
# a power of two (``_boxes`` halves): on the benchmark's crossing scenes 8
# and 16 measured alike, 32 a fifth to a quarter slower, 64 twice as slow.
RUN = 16
# Elements per boolean mask of the kernel, run pairs or segment pairs: the
# kernel's temporaries stay this size however long the polylines are.
SLICE = 1 << 16
# Gauss-Legendre nodes per piece of ``delta_zeta``, and the most a piece may
# be as long as its distance to the nearest pole.  On the 240 seeded random
# problems of connect_unique's tests (1.2 long segments, one 0.026 from a
# pole) 48 nodes on pieces of reach 4 agree with 96 on pieces of reach 1/2
# to 2.5e-15 relative, and 219 of the segments stay whole; on whole
# segments the error reaches 5.6%.
ZETA_NODES = 48
ZETA_REACH = 4.0


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
    TrajectorySample into columns, keeping its s_g.  The standard-chart
    columns (``std_columns``) and the array of standard-chart z
    (``support_array``) are cached per row count, so a trajectory that grows
    (a paused ``tracing`` run) gets fresh ones.
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
        self._std = self._support = None

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

    def support_array(self):
        """``support_std`` as a complex ndarray, built once per row count and
        shared (do not modify it): the crossing scans read their chords
        from it."""
        if self._support is None or len(self._support) != len(self.t):
            self._support = np.array(self.support_std(), dtype=complex)
        return self._support

    def _interval(self, t: float) -> int:
        ts = self.t
        if not (ts[0] - 1e-12 <= t <= ts[-1] + 1e-12):
            raise ValueError(f"t={t} outside trajectory span [{ts[0]}, {ts[-1]}]")
        i = bisect.bisect_right(ts, t) - 1
        return max(0, min(i, len(ts) - 2))

    def interpolate(self, t: float):
        """Quintic-Hermite position and velocity (standard chart) at time t,
        from z, v and z'' = -f(z) v^2 at both rows, with f the sum of
        rho / (z - p) over the poles of row i's chart."""
        i = self._interval(t)
        chart = self._chart(i)
        z0, v0 = self.z[i], self.v[i]
        z1, v1 = self.z[i + 1], self.v[i + 1]
        if self._chart(i + 1) != chart:   # row i+1 follows a chart switch
            z1, v1 = _invert(z1, v1)
        f0 = f1 = 0j
        for pos, res in self.conn.chart_poles(chart):
            f0 += res / (z0 - pos)
            f1 += res / (z1 - pos)
        h = self.t[i + 1] - self.t[i]
        th = (t - self.t[i]) / h if h else 0.0
        z, v = _hermite(z0, v0, -f0 * v0 * v0, z1, v1, -f1 * v1 * v1, h, th)
        if chart == INFINITY:
            z, v = _invert(z, v)
        return z, v

    def nearest_time(self, k: int, target: complex) -> float:
        """The time in the step into row k where the interpolant comes
        nearest ``target`` (standard chart): three Newton steps from the
        chord's nearest point."""
        lo, hi = self.t[k - 1], self.t[k]
        a, b = self.support_std()[k - 1:k + 1]
        seg = b - a
        s = ((target - a) * seg.conjugate()).real / abs(seg) ** 2 if seg else 0.0
        t = lo + min(max(s, 0.0), 1.0) * (hi - lo)
        for _ in range(3):
            z, v = self.interpolate(t)
            t = min(max(t - ((z - target) * v.conjugate()).real / abs(v) ** 2,
                        lo), hi)
        return t


def _invert(z, v):
    """(z, v) carried through the chart change w = 1/z (its own inverse)."""
    return 1.0 / z, -v / z ** 2


def _hermite(z0, v0, a0, z1, v1, a1, h, th):
    """Quintic Hermite on [0,1] through z, z' and z'' at both ends; returns
    value and d/dt.  Its error is at most h^6 max|z^(6)| / 46080."""
    if not h:
        return z0, v0
    # z0 + p1 th + p2 th^2 + c3 th^3 + c4 th^4 + c5 th^5, with c3, c4, c5
    # matching the end values
    p1, p2 = h * v0, 0.5 * h * h * a0
    dz = z1 - z0 - p1 - p2
    dv = h * (v1 - v0) - 2.0 * p2
    da = h * h * (a1 - a0)
    c3 = 10.0 * dz - 4.0 * dv + 0.5 * da
    c4 = -15.0 * dz + 7.0 * dv - da
    c5 = 6.0 * dz - 3.0 * dv + 0.5 * da
    z = z0 + th * (p1 + th * (p2 + th * (c3 + th * (c4 + th * c5))))
    v = v0 + th * (2.0 * p2
                   + th * (3.0 * c3 + th * (4.0 * c4 + th * 5.0 * c5))) / h
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


def delta_zeta(conn: FuchsianConnection, path) -> complex:
    """Delta zeta = int e^K dz along a polyline (standard chart): the
    developing map's increment, with K canonical at the first point and
    continued as ``continue_K`` continues it (which raises PathThroughPole
    for a segment within PATH_CLEARANCE of a pole).  A segment longer than
    ZETA_REACH times its distance to the nearest pole is halved, and so on
    (``_zeta_pieces``): a pass at distance d from a pole costs O(log(L/d))
    pieces.  Each piece [a, b] takes the ZETA_NODES-point Gauss-Legendre
    rule, written as (b - a) e^K(a) (1 + sum_i w_i (e^dK_i - 1)) with dK_i =
    K(node) - K(a) one principal logarithm per pole (``_dK``): the weights
    sum to 1, so a piece on which K is constant gives (b - a) e^K(a)
    exactly."""
    pts = [complex(p) for p in path]
    poles = conn.chart_poles(STANDARD)
    s, w = _gauss_legendre(ZETA_NODES)
    total = 0j
    for a0, b0, K0 in zip(pts, pts[1:], continue_K(conn, pts)):
        for a, b in _zeta_pieces(poles, a0, b0):
            Ka = K0 + _dK(poles, a0, a) if a != a0 else K0
            zs = a + s * (b - a)
            dks = np.zeros(ZETA_NODES, complex)
            for pos, res in poles:
                dks += res * np.log((zs - pos) / (a - pos))
            mean = 1.0 + complex(np.dot(w, np.expm1(dks)))
            total += (b - a) * cmath.exp(Ka) * mean
    return total


def _zeta_pieces(poles, a, b):
    """[a, b] halved until each piece is at most ZETA_REACH times as long as
    its distance to the nearest pole, in order along the segment."""
    gap = min((_chord_gap(a, b, pos) for pos, _ in poles), default=math.inf)
    if abs(b - a) <= ZETA_REACH * gap:
        return [(a, b)]
    mid = 0.5 * (a + b)
    return _zeta_pieces(poles, a, mid) + _zeta_pieces(poles, mid, b)


@functools.cache
def _gauss_legendre(n):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1]:
    Newton's method on P_n from the three-term recurrence
    k P_k = (2k - 1) x P_{k-1} - (k - 1) P_{k-2}, from Tricomi's estimate of
    each root (no LAPACK call and no numpy.polynomial import)."""
    xs, ws = [], []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(100):
            p0, p1 = 1.0, x
            for k in range(2, n + 1):
                p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            dx = p1 / dp
            x -= dx
            if abs(dx) <= 1e-16:
                break
        xs.append(x)
        ws.append(2.0 / ((1.0 - x * x) * dp * dp))
    # on [0, 1]: x -> (1 - x) / 2 keeps the nodes ascending
    return (0.5 - 0.5 * np.array(xs)), 0.5 * np.array(ws)


# -- Dormand-Prince 8(5,3) -----------------------------------------------------
# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5 and II.10): the
# nonzero entries of each stage row, with the columns (0-based stages) in the
# comment; the doubles of scipy's ``_ivp/dop853_coefficients.py``, each in its
# shortest decimal spelling.  The stages keep the loop's operation order
# (module docstring).

_A2 = 0.05260015195876773
_A3 = 0.0197250569845379, 0.0591751709536137                           # 0 1
_A4 = 0.02958758547680685, 0.08876275643042054                         # 0 2
_A5 = 0.2413651341592667, -0.8845494793282861, 0.924834003261792       # 0 2 3
_A6 = 0.037037037037037035, 0.17082860872947386, 0.12546768756682242   # 0 3 4
_A7 = (0.037109375, 0.17025221101954405, 0.06021653898045596,          # 0 3-5
       -0.017578125)
_A8 = (0.03709200011850479, 0.17038392571223998, 0.10726203044637328,  # 0 3-6
       -0.015319437748624402, 0.008273789163814023)
_A9 = (0.6241109587160757, -3.3608926294469414, -0.868219346841726,    # 0 3-7
       27.59209969944671, 20.154067550477894, -43.48988418106996)
_A10 = (0.47766253643826434, -2.4881146199716677, -0.590290826836843,  # 0 3-8
        21.230051448181193, 15.279233632882423, -33.28821096898486,
        -0.020331201708508627)
_A11 = (-0.9371424300859873, 5.186372428844064, 1.0914373489967295,    # 0 3-9
        -8.149787010746927, -18.52006565999696, 22.739487099350505,
        2.4936055526796523, -3.0467644718982196)
_A12 = (2.273310147516538, -10.53449546673725, -2.0008720582248625,    # 0 3-10
        -17.9589318631188, 27.94888452941996, -2.8589982771350235,
        -8.87285693353063, 12.360567175794303, 0.6433927460157636)
# the eighth-order weights and the fifth- and third-order error weights,
# all in the columns 0 5-11
_B = (0.054293734116568765, 4.450312892752409, 1.8915178993145003,
      -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
      0.20136540080403034, 0.04471061572777259)
_E5 = (0.01312004499419488, -1.2251564463762044, -0.4957589496572502,
       1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
       0.08192320648511571, -0.022355307863886294)
_E3 = (-0.18980075407240762, 4.450312892752409, 1.8915178993145003,
       -5.801203960010585, -0.4226823213237919, -0.1521609496625161,
       0.20136540080403034, 0.02265179219836082)


def _dp_step(poles, z, k1, h):
    """One DOP853 step of z' = c exp(-K(z)) from z, where k1 = c exp(-K(z)).

    Returns (z1, dK, k13, err): the eighth-order z1, dK = K(z1) - K(z), the
    slope k13 = c exp(-K(z1)) and the combined error estimate
    |h| |e5|^2 / sqrt(|e5|^2 + 0.01 |e3|^2).  Stage s has the slope
    k1 exp(-dK_s), with K continued from z to the stage point by ``_dK``.
    """
    ex = cmath.exp
    k2 = k1 * ex(-_dK(poles, z, z + h * _A2 * k1))
    a0, a1 = _A3
    k3 = k1 * ex(-_dK(poles, z, z + h * a0 * k1 + h * a1 * k2))
    a0, a2 = _A4
    k4 = k1 * ex(-_dK(poles, z, z + h * a0 * k1 + h * a2 * k3))
    a0, a2, a3 = _A5
    k5 = k1 * ex(-_dK(poles, z, z + h * a0 * k1 + h * a2 * k3 + h * a3 * k4))
    a0, a3, a4 = _A6
    k6 = k1 * ex(-_dK(poles, z, z + h * a0 * k1 + h * a3 * k4 + h * a4 * k5))
    a0, a3, a4, a5 = _A7
    k7 = k1 * ex(-_dK(poles, z, z + h * a0 * k1 + h * a3 * k4 + h * a4 * k5
                      + h * a5 * k6))
    a0, a3, a4, a5, a6 = _A8
    k8 = k1 * ex(-_dK(poles, z, z + h * a0 * k1 + h * a3 * k4 + h * a4 * k5
                      + h * a5 * k6 + h * a6 * k7))
    a0, a3, a4, a5, a6, a7 = _A9
    k9 = k1 * ex(-_dK(poles, z, z + h * a0 * k1 + h * a3 * k4 + h * a4 * k5
                      + h * a5 * k6 + h * a6 * k7 + h * a7 * k8))
    a0, a3, a4, a5, a6, a7, a8 = _A10
    k10 = k1 * ex(-_dK(poles, z, z + h * a0 * k1 + h * a3 * k4 + h * a4 * k5
                       + h * a5 * k6 + h * a6 * k7 + h * a7 * k8 + h * a8 * k9))
    a0, a3, a4, a5, a6, a7, a8, a9 = _A11
    k11 = k1 * ex(-_dK(poles, z, z + h * a0 * k1 + h * a3 * k4 + h * a4 * k5
                       + h * a5 * k6 + h * a6 * k7 + h * a7 * k8 + h * a8 * k9
                       + h * a9 * k10))
    a0, a3, a4, a5, a6, a7, a8, a9, a10 = _A12
    k12 = k1 * ex(-_dK(poles, z, z + h * a0 * k1 + h * a3 * k4 + h * a4 * k5
                       + h * a5 * k6 + h * a6 * k7 + h * a7 * k8 + h * a8 * k9
                       + h * a9 * k10 + h * a10 * k11))
    a0, a5, a6, a7, a8, a9, a10, a11 = _B
    z1 = (z + h * a0 * k1 + h * a5 * k6 + h * a6 * k7 + h * a7 * k8
          + h * a8 * k9 + h * a9 * k10 + h * a10 * k11 + h * a11 * k12)
    d = _dK(poles, z, z1)
    a0, a5, a6, a7, a8, a9, a10, a11 = _E5
    e5 = abs(a0 * k1 + a5 * k6 + a6 * k7 + a7 * k8 + a8 * k9 + a9 * k10
             + a10 * k11 + a11 * k12)
    a0, a5, a6, a7, a8, a9, a10, a11 = _E3
    e3 = abs(a0 * k1 + a5 * k6 + a6 * k7 + a7 * k8 + a8 * k9 + a9 * k10
             + a10 * k11 + a11 * k12)
    den = e5 * e5 + 0.01 * (e3 * e3)
    err = abs(h) * (e5 * e5) / math.sqrt(den) if den else 0.0
    return z1, d, k1 * ex(-d), err


@functools.cache
def _lane_tableau():
    """The rows above over (z, h k1, ..., h k12), each on k1 and the slopes
    just before its own: stage points 2-12, the solution, the error sums."""
    out = np.zeros((14, 13))
    out[:12, 0] = 1.0
    for r, a in enumerate(((_A2,), _A3, _A4, _A5, _A6, _A7, _A8, _A9, _A10,
                           _A11, _A12, _B, _E5, _E3)):
        s = min(r, 11)
        out[r, [1, *range(s + 3 - len(a), s + 2)]] = a
    return out


def _lane_step(P, R, z, k1, h):
    """``_dp_step`` of each lane i from z[i], k1[i] with size h[i], among the
    poles P[:, i] of residues R[:, i]: arrays (z1, dK, k13, err), non-finite
    where a stage point is on a pole.  log r, r = (zs - p) / (z - p), is
    log|r| + i arg r: numpy's complex ``log`` is several times slower."""
    tab = _lane_tableau()
    H = np.empty((13, len(z)), complex)     # z, then h k1 ... h k12
    Hr = H.view(float)                      # each row as (re, im) pairs
    H[0] = z
    hk1 = np.multiply(h, k1, out=H[1])
    za, nR = 1.0 / (z - P), -R
    L = np.empty(P.shape, complex)

    def log_r(zs):
        r = (zs - P) * za
        np.log(np.abs(r), out=L.real)
        np.arctan2(r.imag, r.real, out=L.imag)
        return L

    for s in range(1, 12):
        zs = tab[s - 1, :s + 1].dot(Hr[:s + 1]).view(complex)
        np.multiply(hk1, np.exp((nR * log_r(zs)).sum(0)), out=H[s + 1])
    z1 = tab[11].dot(Hr).view(complex)
    dK = (R * log_r(z1)).sum(0)
    # the error sums of h k are h times those of k, so |h| drops out
    e5, e3 = np.abs(tab[12:].dot(Hr).view(complex))
    den = e5 * e5 + 0.01 * (e3 * e3)
    err = np.where(den != 0, e5 * e5 / np.sqrt(den), 0.0)
    return z1, dK, k1 * np.exp(-dK), err


# -- the tracer ----------------------------------------------------------------

def trace(conn: FuchsianConnection, initial, t_max: float,
          opts: IntegratorOptions | None = None, *,
          certify: bool = False) -> Trajectory:
    """Integrate the geodesic through ``initial`` up to time ``t_max``.

    ``opts`` sets the budgets; the tolerances are the module constants.
    With ``certify`` the trace ends early once it is certified to fall into
    a pole of residue < -1.  It runs ``tracing`` without a pause.
    """
    return _run_out(tracing(conn, initial, t_max, opts, certify=certify))


def _run_out(run):
    """The trajectory a ``tracing`` run returns when nothing pauses it."""
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
    traj, state = _start(conn, initial, t_max)
    return (yield from _stepping(conn, traj, state, t_max, opts, certify))


def _start(conn: FuchsianConnection, initial, t_max: float):
    """The checked start of a trace: its one-row trajectory and the loop
    state (t, z, v, K, chart, h, steps, speed) that ``_stepping`` takes."""
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    if isinstance(initial, GeodesicState):
        chart, z, v, K = initial.chart, initial.z, initial.v, initial.k_phase
    else:
        chart, z, v, K = STANDARD, complex(initial[0]), complex(initial[1]), None
    check_start(conn, chart, z, v)
    K = canonical_K(conn, z) if K is None else K

    traj = Trajectory(conn)
    traj.chart0 = chart
    traj.t, traj.z, traj.v, traj.K, traj.s_g = [0.0], [z], [v], [K], [0.0]
    # the metric speed, constant along the geodesic; not |c|, because a
    # GeodesicState may carry any branch of K (saddle launches have K = 0)
    z_std, v_std = (z, v) if chart == STANDARD else _invert(z, v)
    speed = metric_density(conn, z_std) * abs(v_std)
    return traj, (0.0, z, v, K, chart, min(H0, t_max), 0, speed)


def check_start(conn: FuchsianConnection, chart: str, z, v):
    """Refuse a start no trace can take: ZeroVelocity for v = 0, and
    StartAtPole for z within the pole floor of a pole of its chart."""
    if v == 0:
        raise errors.ZeroVelocity("v = 0 does not parametrize a geodesic")
    for pos, _res in conn.chart_poles(chart):
        if abs(z - pos) <= POLE_FLOOR:
            raise errors.StartAtPole(f"initial position within pole floor of {pos}")


def _stepping(conn, traj, state, t_max, opts, certify=False):
    """The step loop of ``tracing`` from a loop state whose rows ``traj``
    holds: a start from ``_start`` or a lane that ``trace_many`` hands back."""
    opts = opts or IntegratorOptions()
    t, z, v, K, chart, h, steps, speed = state
    ts, zs, vs, Ks, sg = traj.t, traj.z, traj.v, traj.K, traj.s_g
    max_steps, max_seconds = opts.max_steps, opts.max_seconds
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
            z1, dK, v1, err = _dp_step(poles, z, v, h)
        except (ValueError, OverflowError):   # a stage point on a pole
            z1, err = complex(math.nan), math.nan
        err /= ATOL + RTOL * max(abs(z), abs(z1))
        if not err <= 1.0 or not math.isfinite(abs(z1)):
            h *= max(0.2, 0.9 * err ** -0.125) if 1.0 < err < math.inf else 0.1
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

        h *= min(5.0, max(0.2, 0.9 * err ** -0.125)) if err > 0 else 5.0
        if t > pause:
            pause = yield traj

    # a trace that ran to t_max keeps the termination "t_max"
    traj.events.append((ts[-1], "terminated", {"reason": traj.termination}))
    return traj


def trace_many(conn: FuchsianConnection, starts, t_max: float,
               opts: IntegratorOptions | None = None) -> list:
    """``trace`` of each start: in lanes (module docstring), or start by start
    in ``trace``'s loop for fewer than ``LANES_MIN`` starts or a time budget."""
    opts = opts or IntegratorOptions()
    begun = [_start(conn, s, t_max) for s in starts]
    if len(begun) >= LANES_MIN and opts.max_seconds is None:
        states = _lanes(conn, begun, t_max, opts.max_steps)
        begun = [(traj, st) for (traj, _), st in zip(begun, states)]
    return [traj if state is None
            else _run_out(_stepping(conn, traj, state, t_max, opts))
            for traj, state in begun]


def _lanes(conn, begun, t_max, max_steps):
    """The lockstep loop over the pairs of ``_start``: writes the lanes' rows,
    switches and events into their trajectories and returns per lane the
    state it hands back to ``_stepping``, or None where it finished."""
    charts = (STANDARD, INFINITY)
    tables = [conn.chart_poles(c) for c in charts]
    m = max(map(len, tables))
    # a column per chart, padded with residue-0 poles far off
    P = np.array([[p for p, _ in tb] + [1e150] * (m - len(tb))
                  for tb in tables], complex).T
    R = np.array([[r for _, r in tb] + [0.0] * (m - len(tb)) for tb in tables]).T
    t, z, v, K, ch, h, steps, speed = map(np.array, zip(*(s for _, s in begun)))
    ch = (ch == INFINITY).astype(int)
    lane, rows = np.arange(len(begun)), np.ones(len(begun), int)
    trajs, out = [traj for traj, _ in begun], [None] * len(begun)
    logs = [], [], [], [], []     # lane, t, z, v, K of each accepted row

    def hand_back(js):
        for j in js:
            out[lane[j]] = (float(t[j]), complex(z[j]), complex(v[j]),
                            complex(K[j]), charts[ch[j]], float(h[j]),
                            int(steps[j]), float(speed[lane[j]]))

    with np.errstate(all="ignore"):
        while True:
            hc = np.minimum(np.minimum(h, t_max - t), H_MAX)
            end = ((t >= t_max) | (steps >= max_steps)
                   | (hc < 1e-14 * np.maximum(1.0, np.abs(t))))
            for j in np.flatnonzero(end):   # as the scalar loop orders them
                tr, tj = trajs[lane[j]], float(t[j])
                tr.termination = ("t_max" if tj >= t_max else "max_steps"
                                  if steps[j] >= max_steps else "step_collapse")
                if tr.termination == "step_collapse":
                    tr.events.append((tj, "step_collapse", {"h": float(hc[j])}))
                tr.events.append((tj, "terminated", {"reason": tr.termination}))
            if np.count_nonzero(~end) < LANES_MIN:
                hand_back(np.flatnonzero(~end))
                break
            lane, t, z, v, K, ch, h, steps = (
                x[~end] for x in (lane, t, z, v, K, ch, hc, steps + 1))

            Pl = P[:, ch]
            z1, dK, v1, err = _lane_step(Pl, R[:, ch], z, v, h)
            err /= ATOL + RTOL * np.maximum(np.abs(z), np.abs(z1))
            ok = (err <= 1.0) & np.isfinite(np.abs(z1))
            fac = np.where(ok | ((1.0 < err) & (err < math.inf)),
                           np.clip(0.9 * err ** -0.125, 0.2, 5.0), 0.1)
            # _chord_gap to each pole: a chord within PATH_CLEARANCE halves the
            # step, and one that enters the pole floor goes to the scalar loop
            seg, da = z1 - z, z - Pl
            tp = -(da.real * seg.real + da.imag * seg.imag) / np.abs(seg) ** 2
            gap = np.where((0.0 < tp) & (tp < 1.0), np.abs(da + tp * seg),
                           np.minimum(np.abs(da), np.abs(z1 - Pl))).min(0)
            floor = ok & (PATH_CLEARANCE < gap) & (gap < POLE_FLOOR)
            acc = ok & (gap >= POLE_FLOOR)
            fac[ok & (gap <= PATH_CLEARANCE)], fac[floor] = 0.5, 1.0

            t, z, v, K = (np.where(acc, a, b) for a, b in (
                (t + h, t), (z1, z), (v1, v), (K + dK, K)))
            for col, x in zip(logs, (lane, t, z, v, K)):
                col.append(x[acc])
            rows[lane[acc]] += 1
            h = h * fac
            # chart switches, as in the scalar loop
            sw = acc & (np.abs(z) > np.where(ch, 1.5 / SWITCH_RADIUS,
                                             SWITCH_RADIUS))
            if sw.any():
                zw = z[sw]
                K[sw] += np.log(-zw ** 2)
                z[sw], v[sw] = 1.0 / zw, -v[sw] / zw ** 2
                ch[sw] ^= 1
                for j in np.flatnonzero(sw):
                    trajs[lane[j]].switches.append(int(rows[lane[j]]))
                    trajs[lane[j]].events.append(
                        (float(t[j]), "chart_switch", {"to": charts[ch[j]]}))
            if floor.any():
                steps = steps - floor      # the scalar loop retakes the step
                hand_back(np.flatnonzero(floor))
                lane, t, z, v, K, ch, h, steps = (
                    x[~floor] for x in (lane, t, z, v, K, ch, h, steps))

    # each lane's rows, in step order, one column at a time
    order = np.argsort(np.concatenate([[0], *logs[0]])[1:], kind="stable")
    ends = np.cumsum(rows - 1).tolist()
    for k, name in enumerate(("t", "z", "v", "K"), 1):
        col = np.concatenate([[0.0], *logs[k]])[1:][order]
        logs[k].clear()
        for i, (tr, lo, hi) in enumerate(zip(trajs, [0, *ends], ends)):
            getattr(tr, name).extend(col[lo:hi].tolist())
            if k == 1:
                tr.s_g.extend((speed[i] * col[lo:hi]).tolist())
    return out


def _pole_hit(poles, z0, v0, h):
    """Entry of the step arc into a pole floor: (sub-step, z, dK, v) or None.
    Called only for steps whose chord comes within the floor of a pole.

    Refinement re-runs the integrator step at partial sizes so the located
    state keeps the step's accuracy (a Hermite fit degrades near the pole).
    A partial step with a stage point on a pole counts as inside the floor.
    The bisection stops once the midpoint rounds to an end, where it would
    no longer move, and the state returned is the one computed at lo.
    """
    def dist(hh):
        try:
            za, dK, va, _ = _dp_step(poles, z0, v0, hh)
        except (ValueError, OverflowError):
            return 0.0, None
        return min(abs(za - pos) for pos, _ in poles), (za, dK, va)

    # locate a sub-step strictly inside the floor (handles fly-by minima)
    n = 64
    at_lo = None
    for k in range(1, n + 1):
        d, state = dist(h * k / n)
        if d < POLE_FLOOR:
            break
        at_lo = state
    else:
        return None
    lo, hi = h * (k - 1) / n, h * k / n
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        d, state = dist(mid)
        if d < POLE_FLOOR:
            hi = mid
        else:
            lo, at_lo = mid, state
    return (lo, *(at_lo or dist(lo)[1]))


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
        z1, _, v1, err = _dp_step(poles, z, v, T - traj.t[k])
    except (ValueError, OverflowError):   # a stage point on a pole
        return None
    err /= ATOL + RTOL * max(abs(z), abs(z1))
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


def _boxes(pts, run):
    """Bounding boxes (x min, x max, y min, y max) of the segments of
    ``pts``, shape (4, runs, run), and of the runs of ``run`` segments, four
    arrays of shape (runs,).  NaN boxes pad the last run: they overlap
    nothing.  The run boxes are fmin and fmax over halves, which skip a NaN,
    so a non-finite point hides only its own segments; runs of one segment
    are their segment boxes."""
    n = len(pts) - 1
    x, y = pts.real, pts.imag
    segs = np.full((4, n + -n % run), math.nan)
    np.minimum(x[:-1], x[1:], out=segs[0, :n])
    np.maximum(x[:-1], x[1:], out=segs[1, :n])
    np.minimum(y[:-1], y[1:], out=segs[2, :n])
    np.maximum(y[:-1], y[1:], out=segs[3, :n])
    runs = []
    for f, r in zip((np.fmin, np.fmax) * 2, segs):
        while len(r) > segs.shape[1] // run:     # run is a power of two
            r = f(r[0::2], r[1::2])
        runs.append(r)
    return segs.reshape(4, -1, run), runs


def _overlap(a, b):
    """Whether the boxes a and b (broadcast) overlap."""
    return (a[0] <= b[1]) & (a[1] >= b[0]) & (a[2] <= b[3]) & (a[3] >= b[2])


def _solve(p, q, i, j):
    """The candidate pairs (i, j) whose segments cross, with s, u and den."""
    d1, d2 = p[i + 1] - p[i], q[j + 1] - q[j]
    den = d1.real * d2.imag - d1.imag * d2.real
    nz = den != 0
    i, j, d1, d2, den = i[nz], j[nz], d1[nz], d2[nz], den[nz]
    r = q[j] - p[i]
    s = (r.real * d2.imag - r.imag * d2.real) / den
    u = (r.real * d1.imag - r.imag * d1.real) / den
    hit = (0.0 <= s) & (s <= 1.0) & (0.0 <= u) & (u <= 1.0)
    return i[hit], j[hit], s[hit], u[hit], den[hit]


def _crossings(p, q, forward):
    """``segment_crossings``; with ``forward`` (q is p) only the pairs with
    j > i + 1."""
    parts = [(np.empty(0, int),) * 2 + (np.empty(0),) * 3]
    if len(p) < 2 or len(q) < 2:
        return parts[0]
    # a polyline of at most RUN segments is one run, whose box prunes
    # little: both sides then take runs of one segment (module docstring)
    run = RUN if min(len(p), len(q)) > RUN + 1 else 1
    pseg, prun = _boxes(p, run)
    qseg, qrun = (pseg, prun) if forward else _boxes(q, run)
    # run pairs whose boxes overlap, SLICE run pairs at a time; forward
    # keeps the upper triangle
    nq = len(qrun[0])
    rows = max(1, SLICE // nq)
    I, J = [], []
    for r0 in range(0, len(prun[0]), rows):
        hit = _overlap([x[r0:r0 + rows, None] for x in prun], qrun)
        if forward:
            hit &= np.arange(nq) >= np.arange(r0, r0 + len(hit))[:, None]
        ri, rj = np.nonzero(hit)
        I.append(ri + r0)
        J.append(rj)
    I, J = np.concatenate(I), np.concatenate(J)
    # segment pairs of those runs whose boxes overlap, SLICE pairs at a time;
    # runs of one segment are already segment pairs
    step = max(1, SLICE // (run * run))
    for k0 in range(0, len(I), step):
        i, j = I[k0:k0 + step], J[k0:k0 + step]
        if run > 1:
            k, ii, jj = np.nonzero(_overlap([x[i, :, None] for x in pseg],
                                            [x[j, None, :] for x in qseg]))
            i, j = i[k] * run + ii, j[k] * run + jj
        if forward:
            keep = j > i + 1
            i, j = i[keep], j[keep]
        parts.append(_solve(p, q, i, j))
    out = tuple(np.concatenate(x) for x in zip(*parts))
    order = np.lexsort((out[1], out[0]))
    return tuple(x[order] for x in out)


def segment_crossings(p, q):
    """Crossing segment pairs of the polylines ``p`` and ``q``.

    Returns arrays ``(i, j, s, u, den)`` in lexicographic ``(i, j)`` order:
    segment i of ``p`` meets segment j of ``q`` at
    ``p[i] + s (p[i+1] - p[i]) = q[j] + u (q[j+1] - q[j])`` with s and u in
    [0, 1], and ``den`` is the cross product of the two directions.
    Parallel pairs (``den == 0``) are never reported.  The filter is
    output-sensitive: the segments are grouped into runs of ``RUN`` (of one
    segment where either polyline has at most ``RUN``), only the run pairs
    whose bounding boxes overlap are expanded, and only the segment pairs of
    those whose boxes overlap are solved.
    """
    return _crossings(np.asarray(p, dtype=complex), np.asarray(q, dtype=complex),
                      forward=False)


def _decimate(pts, ts, max_segments):
    """Thin a polyline (an array) and its times to at most max_segments,
    keeping both endpoints."""
    n = len(pts) - 1
    if n <= max_segments:
        return pts, ts
    stride = -(-n // max_segments)
    idx = list(range(0, n, stride)) + [n]
    return pts[idx], [ts[i] for i in idx]


def self_intersections(traj: Trajectory, max_count: int = 64) -> list:
    """Transversal self-crossings of the sampled trajectory, refined on the
    Hermite interpolant to ~1e-12, the first ``max_count`` in segment order.
    The chords (at most 4000, ``_decimate``) go through the kernel of
    ``segment_crossings`` once, against themselves, on the upper triangle
    of run pairs and the segment pairs j > i + 1 of it."""
    if len(traj) < 3:
        return []
    pts, ts = _decimate(traj.support_array(), traj.times, 4000)
    out = []
    hits = _crossings(pts, pts, forward=True)
    for i, j, s, u in zip(*(x.tolist() for x in hits[:4])):
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
    hits = segment_crossings(a.support_array(), b.support_array())
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
