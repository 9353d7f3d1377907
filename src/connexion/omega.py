"""Long-horizon tracing and heuristic classification of omega-limit sets.

For real residues a forward-maximal geodesic can (1) fall into a pole,
(2) close up periodically, (3) accumulate on a transversally Cantor-like
set, (4) accumulate on a saddle-connection graph, or (5) fill a region.
Only (1) and (2) are decidable from finite data.  A fall into a pole of
residue > -1 is seen when the trace reaches the pole floor; a fall into a
non-resonant residue < -1 pole takes infinite time and is certified by the
local model (``AdaptedChart.falls_in``), with the ``_tail_convergence``
heuristic left for resonant poles and traces the certificate does not reach
within budget.  The remaining verdicts are evidence grades built from
crossing statistics on a transversal section.
Two further tags — accumulation on a periodic orbit the geodesic never
joins, and accumulation on a saddle graph while staying simple — are
expected to be empirically absent for real residues; the exclusion audit
batch-checks exactly that.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from . import errors
from .connection import (FuchsianConnection, PoleSpec, SpherePoint,
                         build_connection, is_real_residues)
from .engine import (GeodesicState, IntegratorOptions, Trajectory,
                     first_integral, g_length, metric_density,
                     segment_crossings, self_intersections, trace)
from .localchart import adapted_chart

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


@dataclass(frozen=True)
class DirectionClass:
    """Direction of a geodesic: arg of the first integral, compared modulo
    the subgroup generated by the residue periods 2*pi*rho_j."""
    angle: float
    residues: tuple

    @staticmethod
    def of(traj: Trajectory) -> "DirectionClass":
        c0, _ = first_integral(traj)
        res = tuple(sorted(set(round(p.rho, 12) for p in traj.conn.poles)))
        return DirectionClass(cmath.phase(c0) % TWO_PI, res)

    def matches(self, other: "DirectionClass", tol: float = 1e-9,
                max_coeff: int = 6) -> bool:
        diff = (self.angle - other.angle) % TWO_PI
        gens = [TWO_PI * r for r in self.residues]
        combos = [0.0]
        for g in gens[:3]:          # small integer combinations
            combos = [c + n * g for c in combos
                      for n in range(-max_coeff, max_coeff + 1)]
        for c in combos:
            d = (diff - c) % TWO_PI
            if min(d, TWO_PI - d) <= tol:
                return True
        return False


# -- periodicity ---------------------------------------------------------------

def detect_period(traj: Trajectory, tol: float = RECURRENCE_TOL):
    """Smallest recurrence time T with |z(T)-z0| + |vhat(T)-vhat0| < tol.

    Candidates come from the stored samples; each candidate is then refined
    by re-integrating up to the candidate time, because the recurrence falls
    between samples, where the cubic dense output is less accurate than the
    recurrence tolerance.
    """
    first = traj.samples[0]
    z0, v0 = first.z_std, first.v_std
    vh0 = v0 / abs(v0)
    scale = max(abs(z0), 1.0)
    window = 0.0
    for s in traj.samples[1:]:
        t = s.t
        if t < 1e-6 or t <= window:
            continue
        z, v = s.z_std, s.v_std
        if abs(z - z0) + abs(v / abs(v) - vh0) > 0.05 * scale:
            continue
        T = _refine_period(traj, t, z0, vh0, tol)
        if T is not None:
            return T
        # skip the rest of this close-approach window before trying again
        window = t + 0.1 * t
    return None


def _refine_period(traj: Trajectory, T0: float, z0, vh0, tol):
    """Newton-like refinement of a recurrence time by exact re-integration:
    project the endpoint offset onto the flow direction and step T."""
    state0 = traj.samples[0].state
    T = T0
    for _ in range(8):
        sub = trace(traj.conn, state0, T,
                    IntegratorOptions(max_steps=len(traj.samples) * 40 + 1000))
        if sub.termination != "t_max":
            return None
        end = sub.samples[-1]
        z, v = end.z_std, end.v_std
        delta = (z - z0).real * v.real + (z - z0).imag * v.imag
        dT = -delta / (abs(v) ** 2)
        mism = abs(z - z0) + abs(v / abs(v) - vh0)
        if mism < tol and abs(dT) < tol:
            return T
        if T + dT <= 1e-6:
            return None
        T += dT
        if abs(dT) < 1e-15 * T:
            return None if mism >= tol else T
    return None


# -- transversal sections ------------------------------------------------------

@dataclass
class TransversalSection:
    p0: complex
    p1: complex
    crossings: list = field(default_factory=list)   # parameters in [0, 1]

    @property
    def length(self) -> float:
        return abs(self.p1 - self.p0)


def section_crossings(traj: Trajectory, section: TransversalSection,
                      min_angle: float = 1e-3) -> list:
    """Parameters along the section where the sampled trajectory crosses it
    transversally."""
    pts = np.asarray(traj.support_std())
    seg = np.array([section.p0, section.p1], dtype=complex)
    i, _, s, u, den = segment_crossings(pts, seg)
    sin_angle = np.abs(den) / (np.abs(pts[i + 1] - pts[i]) * abs(seg[1] - seg[0]))
    return sorted(u[(s < 1.0) & (sin_angle >= min_angle)].tolist())


def transversal_analysis(traj, section: TransversalSection) -> dict:
    """Gap statistics of the crossing set on a transversal section.

    ``traj`` may be None when the section already carries its crossings
    (synthetic inputs); otherwise crossings are computed first.
    """
    xs = list(section.crossings)
    if traj is not None and not xs:
        xs = section_crossings(traj, section)
        section.crossings = xs
    if len(xs) < 20:
        raise errors.TooFewCrossings(f"{len(xs)} crossings < 20")
    xs = np.sort(np.asarray(xs, dtype=float))
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

    crossings = self_intersections(traj, max_count=4)
    simple = len(crossings) == 0

    foreign = _foreign_accumulation(traj, simple)
    if foreign is not None:
        return foreign

    section = _best_section(traj)
    if section is not None:
        try:
            stats = transversal_analysis(traj, section)
        except errors.TooFewCrossings:
            stats = None
        if stats is not None and simple:
            if stats["dense_interval"]:
                return OmegaVerdict("FillsRegionEvidence",
                                    {"stats": stats, "traj": traj})
            if not stats["isolated_point"]:
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
    resonant poles (rho = -1, -2, ...) and the traces not certified within
    budget, from a monotonically shrinking chart distance over the tail.
    """
    samples = traj.samples
    if len(samples) < 40:
        return None
    tail = samples[int(0.75 * len(samples)):]
    for p in traj.conn.poles:
        if p.residue.real > -1.0:
            continue
        if p.location.infinite:
            ds = [1.0 / max(abs(s.z_std), 1e-300) for s in tail]
        else:
            ds = [abs(s.z_std - p.location.z) for s in tail]
        if ds[-1] < 0.1 and ds[-1] < 0.8 * ds[0] and \
                all(b <= a * 1.001 for a, b in zip(ds[:-1], ds[1:])):
            return p.location
    return None


def _foreign_accumulation(traj: Trajectory, simple: bool):
    """Detector for the two empirically-excluded behaviors: the tail becomes
    nearly periodic while the full trajectory never recurs (foreign periodic
    orbit), or the tail keeps shuttling between pole neighborhoods along
    near-critical directions without joining them (saddle graph)."""
    ts = traj.times
    if len(ts) < 200:
        return None
    tail_start = ts[0] + 0.75 * (ts[-1] - ts[0])
    tail = [s for s in traj.samples if s.t >= tail_start]
    if len(tail) < 50:
        return None
    z_t = tail[0].z_std
    v_t = tail[0].v_std
    vh = v_t / abs(v_t)
    best = math.inf
    for s in tail[5:]:
        d = abs(s.z_std - z_t) + abs(s.v_std / abs(s.v_std) - vh)
        best = min(best, d)
    if best < 1e-6 and simple:
        # tail recurs tightly but the global period detector said no:
        # candidate accumulation on a periodic orbit it never joins
        return OmegaVerdict("AccumulatesOnForeignPeriodic",
                            {"tail_recurrence": best, "traj": traj})
    # saddle-graph accumulation: repeated deep near-pole passes with
    # alternating poles while remaining simple
    poles = [pos for pos, _ in traj.conn.chart_poles("standard")]
    if simple and poles:
        visits = []
        for s in tail:
            ds = [abs(s.z_std - p) for p in poles]
            k = int(np.argmin(ds))
            if ds[k] < 1e-3:
                if not visits or visits[-1] != k:
                    visits.append(k)
        if len(visits) >= 8 and len(set(visits)) >= 2:
            return OmegaVerdict("AccumulatesOnSaddleGraph",
                                {"pole_visits": visits, "traj": traj})
    return None


def _best_section(traj: Trajectory):
    """A short segment transverse to the trajectory at its most-revisited
    sample, normal to the local velocity."""
    pts = np.asarray(traj.support_std())
    if pts.size < 50:
        return None
    # pick the sample whose neighborhood is visited most often
    sub = pts[:: max(1, pts.size // 400)]
    counts = [(np.sum(np.abs(pts - p) < 0.2), i) for i, p in enumerate(sub)]
    _, i_best = max(counts)
    k = i_best * max(1, pts.size // 400)
    z = pts[k]
    v = traj.samples[k].v_std
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
                      step: float = 0.05, max_leaves_per_side: int = 12,
                      budget: ClassifyBudget | None = None) -> RingDomainReport:
    """March transversally from a periodic leaf, re-seeding periodic traces
    until periodicity fails; measures the metric width spanned and each
    leaf's metric length."""
    if not is_real_residues(conn):
        raise errors.NonRealResidues("ring domains need real residues")
    T0 = detect_period(periodic)
    if T0 is None:
        raise errors.SeedNotPeriodic("seed trajectory is not periodic")
    budget = budget or ClassifyBudget(t_max=6.0 * T0)
    z0, v0 = periodic.interpolate(periodic.samples[0].t)
    vh0 = v0 / abs(v0)
    nrm = 1j * vh0

    offsets = [0.0]
    lengths = [abs(first_integral(periodic)[0]) * T0]
    points = [z0]
    boundary = []
    for sign in (+1.0, -1.0):
        stopped = None
        for k in range(1, max_leaves_per_side + 1):
            off = sign * k * step
            seed = z0 + off * nrm
            try:
                tr = trace(conn, (seed, vh0), budget.t_max, budget.options())
            except errors.StartAtPole:
                stopped = ("pole", off)
                break
            if tr.termination == "pole_approach":
                stopped = ("pole", off)
                break
            T = detect_period(tr)
            if T is None:
                stopped = ("aperiodic", off)
                break
            offsets.append(off)
            lengths.append(abs(first_integral(tr)[0]) * T)
            points.append(seed)
        boundary.append({"side": sign, "stopped": stopped})

    lo = min(offsets)
    hi = max(offsets)
    width = _segment_length(conn, z0, nrm, lo, hi, 2001)
    order = np.argsort(offsets)
    return RingDomainReport([offsets[i] for i in order],
                            [lengths[i] for i in order],
                            [points[i] for i in order], width, boundary)


def _segment_length(conn, z0, direction, lo, hi, n):
    """Metric length of the straight segment z0 + [lo, hi] * direction, by the
    trapezoid rule on n equally spaced points."""
    ss = np.linspace(lo, hi, n)
    vals = np.array([metric_density(conn, z0 + s * direction) for s in ss])
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(vals, ss))


# -- saddle connections --------------------------------------------------------

@dataclass(frozen=True)
class SaddleConnection:
    start_pole: SpherePoint
    end_pole: SpherePoint
    launch_angle: float          # critical-ray argument in the adapted chart
    trajectory: Trajectory
    length: float


def saddle_connection_search(conn: FuchsianConnection, n_grid: int = 64,
                             launch_radius_frac: float = 0.05,
                             t_max: float = 40.0) -> list:
    """Launch reversed critical rays from each pole with residue > -1 on an
    angular grid and keep the launches that land in another pole's funnel."""
    found = []
    opts = IntegratorOptions()
    for p in conn.poles:
        rho = p.residue.real
        if rho <= -1.0 or p.location.infinite:
            continue
        try:
            chart = adapted_chart(conn, p.location)
        except (errors.ResonantOrLow, errors.SeriesDivergence):
            continue
        r0 = launch_radius_frac * chart.radius
        # metric length of the radial stub between the pole and the launch
        # circle, the same for every critical ray
        stub = _segment_length(conn, chart.center, 1.0, 1e-9, r0, 400)
        for k in range(n_grid):
            phi = TWO_PI * k / n_grid
            state = _critical_launch(chart, r0, phi)
            if state is None:
                continue
            try:
                tr = trace(conn, state, t_max, opts)
            except errors.StartAtPole:
                continue
            if tr.termination != "pole_approach":
                continue
            end = next(pl["pole"] for t, kk, pl in tr.events
                       if kk == "pole_approach")
            if (not end.infinite) and abs(end.z - p.location.z) < 1e-9:
                continue            # returned to its own pole
            found.append(SaddleConnection(p.location, end, phi, tr,
                                          tr.samples[-1].s_g + stub))
    return _dedup_saddles(found)


def _critical_launch(chart, r0, phi):
    """State on the critical ray with adapted-coordinate argument phi at
    ambient radius r0, moving away from the pole."""
    # find the ambient point whose adapted coordinate has argument phi
    target = phi
    # w(zeta) = zeta*K(zeta) with K(0) real positive, so start at arg phi
    zeta = r0 * cmath.exp(1j * target)
    for _ in range(30):
        w = chart.to_w(chart.center + zeta)
        err = (cmath.phase(w) - target + math.pi) % TWO_PI - math.pi
        if abs(err) < 1e-13:
            break
        zeta *= cmath.exp(-1j * err)
    u = chart.center + zeta
    w = chart.to_w(u)
    vw = w / abs(w)                 # outward critical direction in w
    dv = chart.dw(u)
    if dv == 0:
        return None
    return GeodesicState("standard" if chart.ambient == "standard" else "infinity",
                         u, vw / dv)


def _dedup_saddles(found):
    out = []
    found = sorted(found, key=lambda sc: sc.length)
    for sc in found:
        dup = any(sc.start_pole == o.start_pole and sc.end_pole == o.end_pole
                  and abs(sc.launch_angle - o.launch_angle) < 1e-3
                  for o in out)
        if not dup:
            out.append(sc)
    return out


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
    expected to be zero."""
    budget = budget or ClassifyBudget(t_max=60.0, max_steps=60_000)
    rng = np.random.default_rng(seed)
    lines = []
    anomalies = []
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
            "text": "\n".join(lines) + "\n"}
