"""Long-horizon tracing and heuristic classification of omega-limit sets.

For real residues a forward-maximal geodesic can (1) fall into a pole,
(2) close up periodically, (3) accumulate on a transversally Cantor-like
set, (4) accumulate on a saddle-connection graph, or (5) fill a region.
Only (1) and (2) are decidable from finite data.  A fall into a pole of
residue > -1 is seen when the trace reaches the pole floor; a fall into a
non-resonant residue < -1 pole takes infinite time and is certified by the
local model (``AdaptedChart.falls_in``), with the ``_tail_convergence``
heuristic left for resonant poles and traces the certificate does not reach
within budget.  The classification of the remaining behaviours is of simple
geodesics, so a trace that crosses itself is ``Undetermined`` before any
further detector runs.  On a simple trace the remaining verdicts are
evidence grades built from crossing statistics on a transversal section.
Two further tags — accumulation on a periodic orbit the geodesic never
joins, and accumulation on a saddle graph while staying simple — are
expected to be empirically absent for real residues; the exclusion audit
batch-checks exactly that.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .connection import (FuchsianConnection, PoleSpec, SpherePoint,
                         build_connection)
from .engine import (GeodesicState, IntegratorOptions, Trajectory,
                     _chord_gap, canonical_K, check_start, continue_K,
                     delta_zeta, metric_density, segment_crossings,
                     self_intersections, state_at, trace, trace_many, tracing)
from .localchart import pole_chart

RECURRENCE_TOL = 1e-8
TWO_PI = 2.0 * math.pi


@dataclass
class ClassifyBudget:
    t_max: float = 200.0
    max_steps: int = 1_000_000
    max_seconds: float | None = None

    def options(self) -> IntegratorOptions:
        return IntegratorOptions(max_steps=self.max_steps,
                                 max_seconds=self.max_seconds)


@dataclass(frozen=True)
class OmegaVerdict:
    tag: str
    details: dict = field(default_factory=dict)

    TAGS = ("ConvergesToPole", "Periodic", "CantorLikeEvidence",
            "FillsRegionEvidence", "FillsAllEvidence",
            "AccumulatesOnForeignPeriodic", "AccumulatesOnSaddleGraph",
            "Undetermined")

    def __post_init__(self):
        if self.tag not in self.TAGS:
            raise ValueError(f"unknown verdict tag {self.tag!r}")

    def __str__(self):
        if self.tag == "ConvergesToPole":
            return f"ConvergesToPole({self.details.get('pole')})"
        if self.tag == "Periodic":
            return f"Periodic(T={self.details.get('period'):.9g})"
        return self.tag


# -- periodicity ---------------------------------------------------------------

def detect_period(traj: Trajectory):
    """Smallest recurrence time T with |z(T)-z0| + |vhat(T)-vhat0| below
    RECURRENCE_TOL.

    A row is a candidate when the chord into it passes within 0.05 scale of
    z0, however far apart the rows are.  Each candidate starts at the time
    where the interpolant comes nearest z0 (``Trajectory.nearest_time``),
    and is refined with states one partial integrator step past the stored
    row before the candidate time (``engine.state_at``), which carry the
    step's accuracy rather than the dense output's.
    """
    zs, vs = traj.std_columns()
    z0, v0 = zs[0], vs[0]
    vh0 = v0 / abs(v0)
    scale = max(abs(z0), 1.0)
    window = 0.0
    for k in range(1, len(traj)):
        t = traj.t[k]
        if t < 1e-6 or t <= window:
            continue
        if _chord_gap(zs[k - 1], zs[k], z0) > 0.05 * scale:
            continue
        T = _refine_period(traj, traj.nearest_time(k, z0), z0, vh0)
        if T is not None:
            return T
        # skip the rest of this close-approach window before trying again
        window = t + 0.1 * t
    return None


def _refine_period(traj: Trajectory, T0: float, z0, vh0):
    """Newton-like refinement of a recurrence time: project the offset of
    the state at T (``state_at``) onto the flow direction and step T; the
    last step is taken too."""
    T = T0
    for _ in range(8):
        end = state_at(traj, T)
        if end is None:
            return None
        z, v = end
        delta = (z - z0).real * v.real + (z - z0).imag * v.imag
        dT = -delta / (abs(v) ** 2)
        mism = abs(z - z0) + abs(v / abs(v) - vh0)
        if T + dT <= 1e-6:
            return None
        if mism < RECURRENCE_TOL and abs(dT) < RECURRENCE_TOL:
            return T + dT
        T += dT
        if abs(dT) < 1e-15 * T:
            return None if mism >= RECURRENCE_TOL else T
    return None


# -- transversal sections ------------------------------------------------------

@dataclass
class TransversalSection:
    p0: complex
    p1: complex

    @property
    def length(self) -> float:
        return abs(self.p1 - self.p0)


def section_crossings(traj: Trajectory, section: TransversalSection) -> list:
    """Parameters along the section where the trajectory crosses it
    transversally: chords that cross it at an angle whose sine is at least
    1e-3, each crossing corrected by one Newton step on the interpolant."""
    pts = traj.support_array()
    seg = np.array([section.p0, section.p1], dtype=complex)
    i, _, s, u, den = segment_crossings(pts, seg)
    sin_angle = np.abs(den) / (np.abs(pts[i + 1] - pts[i]) * abs(seg[1] - seg[0]))
    keep = (s < 1.0) & (sin_angle >= 1e-3)
    d, ts, out = section.p1 - section.p0, traj.t, []
    for k, s, u in zip(*(x[keep].tolist() for x in (i, s, u))):
        z, v = traj.interpolate(ts[k] + s * (ts[k + 1] - ts[k]))
        # z + v dt = p0 + (u + du) d, solved for du where v is transversal
        r = z - section.p0 - u * d
        cross = v.real * d.imag - v.imag * d.real
        if abs(cross) > 1e-3 * abs(v) * abs(d):
            u += (v.real * r.imag - v.imag * r.real) / cross
        out.append(u)
    return sorted(out)


def transversal_analysis(traj: Trajectory, section: TransversalSection) -> dict:
    """Gap statistics of the trajectory's crossings of a transversal section
    (``crossing_statistics`` of ``section_crossings``)."""
    xs = section_crossings(traj, section)
    if len(xs) < 20:
        raise errors.TooFewCrossings(f"{len(xs)} crossings < 20")
    return crossing_statistics(xs)


def crossing_statistics(xs: np.ndarray) -> dict:
    xs = np.sort(np.asarray(xs, dtype=float))
    n = xs.size
    gaps = np.diff(xs)
    pos = gaps[gaps > 0]
    resolution = float(pos.min()) if pos.size else 0.0
    spread = float(xs[-1] - xs[0])
    median_gap = float(np.median(gaps)) if gaps.size else 0.0

    if spread <= 10 * max(resolution, 1e-15):
        # all crossings in one tight cluster: a single isolated point
        return {"crossings": xs, "gaps": gaps, "median_gap": median_gap,
                "isolated_point": True, "dense_interval": False,
                "dimension": 0.0, "n": n}

    # isolated point: both neighbor gaps far above the median
    big = gaps > 10.0 * max(median_gap, resolution)
    isolated = bool(big[0] or big[-1] or np.any(big[:-1] & big[1:]))

    # dense subinterval: some window where nearly all boxes are occupied
    k = max(8, int(math.sqrt(n)))
    edges = np.linspace(xs[0], xs[-1], k + 1)
    occ = np.unique(np.clip(np.searchsorted(edges, xs, "right") - 1, 0, k - 1))
    dense = occ.size >= 0.95 * k

    dim = box_dimension(xs)
    return {"crossings": xs, "gaps": gaps, "median_gap": median_gap,
            "isolated_point": isolated, "dense_interval": dense,
            "dimension": dim, "n": n}


def box_dimension(xs: np.ndarray) -> float:
    """Box-counting dimension estimate from a log-log occupancy fit."""
    xs = np.sort(np.asarray(xs, dtype=float))
    lo, hi = xs[0], xs[-1]
    span = hi - lo
    if span <= 0:
        return 0.0
    logs, counts = [], []
    for k in range(2, 12):
        eps = span / 2 ** k
        idx = np.unique(np.floor((xs - lo) / eps).astype(int))
        if idx.size >= xs.size:     # resolution exhausted
            break
        logs.append(math.log(1.0 / eps))
        counts.append(math.log(idx.size))
    if len(logs) < 3:
        return 0.0
    slope = np.polyfit(logs, counts, 1)[0]
    return float(slope)


# -- main classifier -----------------------------------------------------------

def classify(conn: FuchsianConnection, initial,
             budget: ClassifyBudget | None = None) -> OmegaVerdict:
    budget = budget or ClassifyBudget()
    traj = trace(conn, initial, budget.t_max, budget.options(), certify=True)

    if traj.termination == "pole_approach":
        pole = next(p["pole"] for t, k, p in traj.events if k == "pole_approach")
        return OmegaVerdict("ConvergesToPole",
                            {"pole": pole, "t_hit": traj.t_end, "traj": traj})
    if traj.termination == "pole_certified":
        t, _, cert = next(e for e in traj.events if e[1] == "pole_certified")
        return OmegaVerdict("ConvergesToPole",
                            {**cert, "t_hit": None, "certified": True,
                             "t_cert": t, "traj": traj})

    T = detect_period(traj)
    if T is not None:
        return OmegaVerdict("Periodic", {"period": T, "traj": traj})

    pole = _tail_convergence(traj)
    if pole is not None:
        return OmegaVerdict("ConvergesToPole",
                            {"pole": pole, "t_hit": None, "certified": False,
                             "traj": traj})

    simple = not self_intersections(traj, max_count=1)
    if simple:
        foreign = _foreign_accumulation(traj)
        if foreign is not None:
            return foreign
        try:
            stats = transversal_analysis(traj, _best_section(traj))
        except errors.TooFewCrossings:
            stats = None
        if stats is not None and stats["dense_interval"]:
            return OmegaVerdict("FillsRegionEvidence",
                                {"stats": stats, "traj": traj})
        if stats is not None and not stats["isolated_point"]:
            return OmegaVerdict("CantorLikeEvidence",
                                {"stats": stats, "traj": traj})
    return OmegaVerdict("Undetermined",
                        {"termination": traj.termination, "t_end": traj.t_end,
                         "simple": simple, "traj": traj})


def _tail_convergence(traj: Trajectory):
    """Convergence toward a pole the integrator never reaches within t_max.

    Poles with residue <= -1 sit at infinite metric distance, so a geodesic
    falling into one never reaches the pole floor.  ``classify`` certifies
    such falls for non-resonant residues < -1; this heuristic covers the
    poles of residue -1, which the certificate does not screen, the
    resonant poles (rho = -2, -3, ...) and the traces not certified within
    budget, from a monotonically shrinking chart distance over the tail.
    """
    if len(traj) < 40:
        return None
    tail = traj.support_std()[int(0.75 * len(traj)):]
    for p in traj.conn.poles:
        if p.residue > -1.0:
            continue
        if p.location.infinite:
            ds = [1.0 / max(abs(z), 1e-300) for z in tail]
        else:
            ds = [abs(z - p.location.z) for z in tail]
        if ds[-1] < 0.1 and ds[-1] < 0.8 * ds[0] and \
                all(b <= a * 1.001 for a, b in zip(ds[:-1], ds[1:])):
            return p.location
    return None


def _foreign_accumulation(traj: Trajectory):
    """Detector for the two empirically-excluded behaviors of a simple
    trace: the tail (the last quarter of the time span) becomes nearly
    periodic while the full trajectory never recurs (foreign periodic
    orbit), or the tail keeps shuttling between pole neighborhoods along
    near-critical directions without joining them (saddle graph).  Both are
    measured on the chords and the interpolant, not at the rows, so the row
    spacing does not enter; a trace shorter than 10 time units has too short
    a tail to test."""
    ts = traj.times
    if ts[-1] - ts[0] < 10.0:
        return None
    # times never decrease: the tail is the rows from the first t >= start
    k0 = bisect.bisect_left(ts, ts[0] + 0.75 * (ts[-1] - ts[0]))
    zs, vs = traj.std_columns()
    z_t, n = zs[k0], len(ts)
    vh = vs[k0] / abs(vs[k0])
    near = 0.05 * max(abs(z_t), 1.0)
    # a return: a chord that comes back near z_t once the tail has left it
    away = next((k for k in range(k0, n) if abs(zs[k] - z_t) > near), n)
    best = math.inf
    for k in range(away + 1, n):
        if _chord_gap(zs[k - 1], zs[k], z_t) <= near:
            z, v = traj.interpolate(traj.nearest_time(k, z_t))
            best = min(best, abs(z - z_t) + abs(v / abs(v) - vh))
    if best < 1e-6:
        # tail recurs tightly but the global period detector said no:
        # candidate accumulation on a periodic orbit it never joins
        return OmegaVerdict("AccumulatesOnForeignPeriodic",
                            {"tail_recurrence": best, "traj": traj})
    # saddle-graph accumulation: repeated deep near-pole passes with
    # alternating poles
    poles = [pos for pos, _ in traj.conn.chart_poles("standard")]
    if poles:
        visits = []
        for a, b in zip(zs[k0:], zs[k0 + 1:]):
            # the pole nearest the chord, the first one on ties
            d, k = min((_chord_gap(a, b, p), k) for k, p in enumerate(poles))
            if d < 1e-3:
                if not visits or visits[-1] != k:
                    visits.append(k)
        if len(visits) >= 8 and len(set(visits)) >= 2:
            return OmegaVerdict("AccumulatesOnSaddleGraph",
                                {"pole_visits": visits, "traj": traj})
    return None


def _best_section(traj: Trajectory):
    """A short segment transverse to the trajectory at its most-revisited
    sample, normal to the local velocity."""
    pts = traj.support_array()
    # the sample whose neighborhood is visited most often, the last on ties;
    # counted 8,192 distances (or one row) at a time, to keep temporaries small
    stride = max(1, pts.size // 400)
    sub = pts[::stride]
    block = max(1, 8_192 // pts.size)
    counts = np.concatenate([
        np.count_nonzero(np.abs(pts - sub[j:j + block, None]) < 0.2, axis=1)
        for j in range(0, sub.size, block)])
    k = (sub.size - 1 - int(np.argmax(counts[::-1]))) * stride
    z = pts[k]
    v = traj.std_columns()[1][k]
    nrm = 1j * v / abs(v)
    delta = 0.3
    return TransversalSection(z - delta * nrm, z + delta * nrm)


# -- ring domains --------------------------------------------------------------

@dataclass
class RingDomainReport:
    leaf_offsets: list
    leaf_lengths: list
    leaf_points: list
    width: float
    boundary: list         # description of why probing stopped on each side

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_lengths)


def ring_domain_probe(conn: FuchsianConnection, periodic: Trajectory,
                      max_leaves_per_side: int = 12,
                      budget: ClassifyBudget | None = None) -> RingDomainReport:
    """March transversally from a periodic leaf in steps of 0.05, re-seeding
    periodic traces until periodicity fails; measures the metric width
    spanned and each leaf's metric length.

    Leaves are straight lines of one direction c / |c| in the developing
    coordinate zeta = int e^K dz, c = v e^K, so the leaf through ``seed``
    starts in the direction of c e^(-K(seed)), with K continued from the
    seed leaf's start along the normal segment, and the width is
    |Im(conj(c) Delta zeta)| / |c| over the span of the leaves
    (``delta_zeta``).  A ring leaf has the seed leaf's length L0, so a leaf
    launched at unit velocity from ``seed`` has the period tau = L0 /
    metric_density(seed); its trace stops at its first period
    (``_paused_period``), and at the latest at ``budget.t_max``, or at 6 tau
    without a budget."""
    T0 = detect_period(periodic)
    if T0 is None:
        raise errors.SeedNotPeriodic("seed trajectory is not periodic")
    opts = budget.options() if budget else None
    z0, v0 = periodic.interpolate(periodic.t[0])
    vh0 = v0 / abs(v0)
    nrm = 1j * vh0

    offsets = [0.0]
    # a leaf's length is its period at the trace's constant metric speed,
    # which is |c| only when the trace starts on the canonical branch of K
    lengths = [periodic.s_g[-1] / periodic.t_end * T0]
    points = [z0]
    boundary = []
    for sign in (+1.0, -1.0):
        stopped = None
        prev, dK = z0, 0j           # dK = K(prev) - K(z0) along the normal
        for k in range(1, max_leaves_per_side + 1):
            off = sign * k * 0.05
            seed = z0 + off * nrm
            try:
                Ka, Kb = continue_K(conn, (prev, seed))
            except errors.PathThroughPole:
                stopped = ("pole", off)
                break
            prev, dK = seed, dK + (Kb - Ka)
            speed = metric_density(conn, seed)
            tau = lengths[0] / speed
            run = tracing(conn, (seed, vh0 * cmath.exp(-1j * dK.imag)),
                          budget.t_max if budget else 6.0 * tau, opts)
            try:
                T, tr = _paused_period(run, 1.1 * tau)
                pole = tr.termination == "pole_approach"
            except errors.StartAtPole:
                pole = True
            if pole or T is None:
                stopped = ("pole" if pole else "aperiodic", off)
                break
            offsets.append(off)
            lengths.append(speed * T)
            points.append(seed)
        boundary.append({"side": sign, "stopped": stopped})

    # Delta zeta from z0 out to each side through the leaf seeds, 0.05 apart,
    # with K canonical at z0, the branch c_hat is taken on
    order = np.argsort(offsets)
    offsets, seeds = [offsets[i] for i in order], [points[i] for i in order]
    mid = offsets.index(0.0)
    span = delta_zeta(conn, seeds[mid:]) - delta_zeta(conn, seeds[mid::-1])
    c_hat = vh0 * cmath.exp(1j * canonical_K(conn, z0).imag)
    width = abs((c_hat.conjugate() * span).imag)
    return RingDomainReport(offsets, [lengths[i] for i in order], seeds,
                            width, boundary)


def _paused_period(run, pause):
    """(``detect_period``, trajectory) of the ``tracing`` run, paused at
    ``pause`` and then at twice the last pause until a period comes before
    the last row: it then refines on the rows the finished trace has."""
    next(run)
    try:
        while True:
            tr = run.send(pause)
            T = detect_period(tr)
            if T is not None and T < tr.t[-1]:
                return T, tr
            pause *= 2.0
    except StopIteration as done:
        return detect_period(done.value), done.value


# -- saddle connections --------------------------------------------------------

@dataclass(frozen=True)
class SaddleConnection:
    start_pole: SpherePoint
    end_pole: SpherePoint
    launch_angle: float          # critical-ray argument in the adapted chart
    trajectory: Trajectory
    length: float


def saddle_connection_search(conn: FuchsianConnection, n_grid: int = 64,
                             t_max: float = 40.0) -> list:
    """Launch reversed critical rays from each finite pole with residue > -1
    on an angular grid, at 0.05 of its adapted-chart radius, and keep the
    launches that land in another pole's funnel, shortest first.  All
    launches are traced together (``trace_many``), with rows only for those
    that may land."""
    launches = []
    for p in conn.poles:
        if p.residue <= -1.0 or p.location.infinite:
            continue
        chart = pole_chart(conn, p.location)
        if chart is None:
            continue
        for k in range(n_grid):
            phi = TWO_PI * k / n_grid
            launch = _critical_launch(conn, chart, 0.05 * chart.radius, phi)
            if launch is not None:
                launches.append((p.location, phi, *launch))
    found = []
    trajs = trace_many(conn, [launch[2] for launch in launches], t_max,
                       pole_rows_only=True)
    for (start, phi, _, stub), tr in zip(launches, trajs):
        if tr.termination != "pole_approach":
            continue
        end = next(pl["pole"] for t, kk, pl in tr.events
                   if kk == "pole_approach")
        if (not end.infinite) and abs(end.z - start.z) < 1e-9:
            continue            # returned to its own pole
        length = tr.s_g[-1] + stub + _end_stub(conn, end, tr)
        found.append(SaddleConnection(start, end, phi, tr, length))
    return sorted(found, key=lambda sc: sc.length)


def _end_stub(conn, end, tr):
    """The metric length of the critical ray from the trace's last row to
    the end pole, in closed form (``_ray_stub``) where that pole is finite,
    has residue > -1 and has a chart; else 0."""
    chart = None
    if not end.infinite and conn.residue_at(end) > -1.0:
        chart = pole_chart(conn, end)
    if chart is None:
        return 0.0
    u = tr.support_std()[-1]
    return _ray_stub(conn, chart, u, chart.to_w(u), chart.dw(u))


def _critical_launch(conn, chart, r0, phi):
    """(state, stub): the state on the critical ray with adapted-coordinate
    argument phi at ambient radius r0, moving away from the pole, or None
    where no trace can start; and the metric length of the ray from the pole
    to it (``_ray_stub``).  The launch has unit speed in K0 w, with
    K0 = |rho+1|^(-1/(rho+1)); K0 overflows for rho close to -1, and such a
    pole gets no launch.  The speed sets how far each launch reaches by
    t_max, and so which connections the search finds."""
    s = chart.rho + 1.0
    try:
        K0 = abs(1.0 / s) ** (1.0 / s)
    except OverflowError:
        return None
    # Newton on theta, zeta = r0 e^(i theta), for arg w = phi: d arg w / d
    # theta = Re(zeta w'/w); w/zeta = 1 at the pole, so start at phi
    theta = phi
    for _ in range(30):
        zeta = r0 * cmath.exp(1j * theta)
        u = chart.center + zeta
        w, dw = chart.to_w(u), chart.dw(u)
        err = (cmath.phase(w) - phi + math.pi) % TWO_PI - math.pi
        if abs(err) < 1e-13 or dw == 0:
            break
        theta -= err / (zeta * dw / w).real
    if dw == 0:
        return None
    vw = w / abs(w)                 # outward critical direction in w
    state = GeodesicState(chart.ambient, u, vw / (K0 * dw))
    try:
        check_start(conn, state.chart, u, state.v)
    except errors.StartAtPole:
        return None
    return state, _ray_stub(conn, chart, u, w, dw)


def _ray_stub(conn, chart, u, w, dw):
    """The metric length of the critical ray from a finite pole of residue
    > -1 to u on it, w and dw its chart's to_w(u) and dw(u): in w the metric
    is C |w|^rho |dw|, C from the metric density at u, so that length is
    C |w|^(rho+1) / (rho+1)."""
    return metric_density(conn, u) * abs(w) / ((chart.rho + 1.0) * abs(dw))


# -- exclusion audit -----------------------------------------------------------

def random_connection(rng) -> FuchsianConnection:
    """A small random configuration with real residues."""
    n = int(rng.integers(2, 4))
    while True:
        locs = rng.normal(0.0, 1.5, n) + 1j * rng.normal(0.0, 1.5, n)
        if all(abs(a - b) > 0.3 for i, a in enumerate(locs)
               for b in locs[i + 1:]):
            break
    res = rng.uniform(-1.8, 1.0, n)
    return build_connection([PoleSpec(SpherePoint.of(l), float(r))
                             for l, r in zip(locs, res)])


def exclusion_audit(n_configs: int = 200, seed: int = 0,
                    budget: ClassifyBudget | None = None):
    """Classify one trajectory per random real-residue configuration and
    count accumulation-on-foreign-periodic / accumulation-on-saddle-graph
    verdicts among trajectories simple within budget; both counts are
    expected to be zero; ``verdicts`` lists them in configuration order."""
    budget = budget or ClassifyBudget(t_max=60.0, max_steps=60_000)
    rng = np.random.default_rng(seed)
    lines = []
    anomalies = []
    verdicts = []
    counts: dict = {}
    certified = 0
    for i in range(n_configs):
        conn = random_connection(rng)
        while True:
            z0 = complex(*rng.normal(0.0, 2.0, 2))
            if all(abs(z0 - pos) > 0.05 for pos, _ in conn.chart_poles("standard")):
                break
        v0 = cmath.exp(1j * rng.uniform(0.0, TWO_PI))
        verdict = classify(conn, (z0, v0), budget)
        verdicts.append(verdict)
        counts[verdict.tag] = counts.get(verdict.tag, 0) + 1
        certified += bool(verdict.details.get("certified"))
        line = f"config={i} seed={seed} verdict={verdict}"
        if verdict.tag in ("AccumulatesOnForeignPeriodic",
                           "AccumulatesOnSaddleGraph"):
            anomalies.append((i, conn, z0, v0, verdict))
            line += " ANOMALY"
        lines.append(line)
    summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    lines.append(f"total={n_configs} anomalies={len(anomalies)} "
                 f"certified={certified} {summary}")
    return {"lines": lines, "anomalies": anomalies, "counts": counts,
            "verdicts": verdicts, "text": "\n".join(lines) + "\n"}
