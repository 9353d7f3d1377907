"""The four workloads: inputs built from a seed, the timed operations of one
pass, and the checks on their outputs.

Every check compares against a mathematical fact (closed forms, exact
periods, analytic crossing sets, determinism), never against outputs
recorded from an earlier version, so a correct change to the tracer keeps
every check passing.  Every integration runs with ``max_seconds=None``: no
verdict may depend on how fast the machine is.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from connexion import cli, engine, localchart, omega, polygons
from connexion.connection import SpherePoint, build_connection
from connexion.engine import (GeodesicState, IntegratorOptions, Trajectory,
                              TrajectorySample)
from connexion.omega import ClassifyBudget, TransversalSection

TWO_PI = 2.0 * math.pi
DRIFT_GATE = 1e-9           # first-integral drift allowed on long traces
OPTS = IntegratorOptions(max_seconds=None)
AUDIT_CONFIGS = 200
AUDIT_BUDGET = ClassifyBudget(t_max=60.0, max_steps=60_000, max_seconds=None)
ANOMALIES = ("AccumulatesOnForeignPeriodic", "AccumulatesOnSaddleGraph")


@dataclass
class Op:
    """One timed call into the package and the check on its result.

    ``check`` returns a list of failure messages and may record figures in
    ``Workload.figures``; ``digest`` returns bytes that must be identical
    in every pass of a run.
    """
    label: str
    kind: str
    fn: object
    check: object
    digest: object = None


@dataclass
class Workload:
    name: str
    ops: list
    figures: dict = field(default_factory=dict)

    def note_max(self, key, value):
        self.figures[key] = max(self.figures.get(key, 0.0), value)


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
    return h.hexdigest()


def _no_time_budget(traj, where):
    if traj.termination == "time_budget":
        return [f"{where}: trace ended in time_budget"]
    return []


def _drift(w: Workload, traj, where):
    drift = engine.first_integral(traj)[1]
    w.note_max("c_drift_max", drift)
    if not drift <= DRIFT_GATE:
        return [f"{where}: c drift {drift:.3g} > {DRIFT_GATE:g}"]
    return []


# -- closed-form connections ---------------------------------------------------

def circle_connection():
    """Residue -1 at 0 and at infinity: geodesics are z0*exp(v0 t/z0)."""
    return build_connection([(SpherePoint.of(0.0), -1.0),
                             (SpherePoint.inf(), -1.0)])


def single_pole(rho):
    return build_connection([(SpherePoint.of(0.0), rho)])


THREE_POLES = ((0j, -0.5), (1.5 + 0.5j, -0.3), (-0.7 + 1.2j, -0.6))


# -- trace_long ----------------------------------------------------------------

CIRCLE_PERIODS = 40


def build_trace_long(seed: int, tmp: Path) -> Workload:
    """The scenes are fixed up to a rotation drawn from the seed (and a scale
    for the scale-free circle).  Both map geodesics onto geodesics, so the
    work barely depends on the seed while the inputs still do."""
    rng = np.random.default_rng(seed)
    w = Workload("trace_long", [])
    circle = circle_connection()
    rot3 = cmath.exp(1j * rng.uniform(0.0, TWO_PI))
    three = build_connection([(SpherePoint.of(rot3 * p), r) for p, r in THREE_POLES])
    dive = single_pole(-0.9)

    # circle |z| = r: with v0 = i z0 the first integral is c = i, the
    # angular speed is 1 and the period is exactly 2*pi
    r = rng.uniform(0.8, 1.25)
    z0 = r * cmath.exp(1j * rng.uniform(0.0, TWO_PI))
    circle_ic = (z0, 1j * z0)

    def check_circle(traj):
        bad = _no_time_budget(traj, "circle") + _drift(w, traj, "circle")
        ts = np.asarray(traj.times)
        zs = np.asarray(traj.support_std())
        err = float(np.max(np.abs(zs - z0 * np.exp(1j * ts))))
        if not err <= 1e-6 * r:
            bad.append(f"circle: distance to the closed form {err:.3g}")
        period = omega.detect_period(traj)
        if period is None or not abs(period - TWO_PI) <= 1e-6:
            bad.append(f"circle: period {period} is not 2*pi")
        else:
            w.note_max("circle_period_err", abs(period - TWO_PI))
        return bad

    # generic scene: three poles with residues in (-1, 0)
    three_ic = (rot3 * (0.8 + 0.9j), rot3 * cmath.exp(0.3j))

    def check_three(traj):
        return _no_time_budget(traj, "three_pole") + _drift(w, traj, "three_pole")

    # the selfcross scene rotated about its rho = -0.9 pole; the single-pole
    # model is exact, so the trace must follow the closed form
    rot = cmath.exp(1j * rng.uniform(0.0, TWO_PI))
    dive_ic = (rot, rot * complex(-math.sqrt(3.0) / 2.0, -0.5))
    dive_params = localchart.local_params(-0.9, 1.0, *dive_ic)

    def check_dive(traj):
        bad = _no_time_budget(traj, "selfcross") + _drift(w, traj, "selfcross")
        zs = np.asarray(traj.support_std())
        exact = localchart.closed_form_path(dive_params, traj.times)
        rel = float(np.max(np.abs(zs - exact) / np.maximum(1.0, np.abs(exact))))
        if not rel <= 1e-6:
            bad.append(f"selfcross: relative distance to the closed form {rel:.3g}")
        return bad

    # a geodesic of the three-pole scene (residue -0.6 at infinity) that
    # goes out past the w = 1/z switch radius and comes back
    switch_ic = (rot3 * 3.0, rot3 * cmath.exp(0.1j))

    def check_switch(traj):
        bad = _no_time_budget(traj, "switch") + _drift(w, traj, "switch")
        to = [p["to"] for _, kind, p in traj.events if kind == "chart_switch"]
        if "infinity" not in to or "standard" not in to:
            bad.append(f"switch: chart switches {to} do not go both ways")
        return bad

    def csv_digest(traj):
        return _sha(engine.trajectory_to_csv(traj))

    for label, conn, ic, t_max, check in (
            ("circle", circle, circle_ic, CIRCLE_PERIODS * TWO_PI, check_circle),
            ("three_pole", three, three_ic, 60.0, check_three),
            ("selfcross", dive, dive_ic, 40.0, check_dive),
            ("switch", three, switch_ic, 200.0, check_switch)):
        w.ops.append(Op(label, "trace",
                        lambda conn=conn, ic=ic, t_max=t_max:
                        engine.trace(conn, ic, t_max, OPTS),
                        check, csv_digest))
    return w


# -- audit ---------------------------------------------------------------------

def audit_configs(seed: int, n: int):
    """The configurations and initial states ``omega.exclusion_audit(n, seed)``
    draws, in the same order."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        conn = omega.random_connection(rng)
        while True:
            z0 = complex(*rng.normal(0.0, 2.0, 2))
            if all(abs(z0 - pos) > 0.05 for pos, _ in conn.chart_poles("standard")):
                break
        v0 = cmath.exp(1j * rng.uniform(0.0, TWO_PI))
        out.append((conn, z0, v0))
    return out


def build_audit(seed: int, tmp: Path) -> Workload:
    w = Workload("audit", [])
    w.figures["verdicts"] = {}

    def check(verdict, i):
        w.figures["verdicts"][i] = verdict.tag
        w.figures["total"] = float(len(w.figures["verdicts"]))
        bad = _no_time_budget(verdict.details["traj"], f"config {i}")
        if verdict.tag in ANOMALIES:
            bad.append(f"config {i}: anomaly {verdict.tag}")
        return bad

    for i, (conn, z0, v0) in enumerate(audit_configs(seed, AUDIT_CONFIGS)):
        w.ops.append(Op(f"config{i}", "classify",
                        lambda conn=conn, ic=(z0, v0):
                        omega.classify(conn, ic, AUDIT_BUDGET),
                        lambda v, i=i: check(v, i),
                        lambda v: _sha(v)))
    return w


# -- shoot ---------------------------------------------------------------------

def _simple_polyline(pts) -> bool:
    """No two non-adjacent segments of the polyline cross (brute force).
    Segments within 1e-9 rad of parallel are skipped: their line crossing
    is ill-conditioned, and a straight arc is made of them."""
    p = np.asarray(pts, dtype=complex)
    a0, a1 = p[:-1, None], p[1:, None]
    b0, b1 = p[None, :-1], p[None, 1:]

    def cross(u, v):
        return u.real * v.imag - u.imag * v.real

    d1, d2 = a1 - a0, b1 - b0
    den = cross(d1, d2)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = cross(b0 - a0, d2) / den
        u = cross(b0 - a0, d1) / den
    transversal = np.abs(den) > 1e-9 * np.abs(d1) * np.abs(d2)
    hit = transversal & (s >= 0) & (s <= 1) & (u >= 0) & (u <= 1)
    i, j = np.nonzero(hit)
    return not np.any(np.abs(i - j) > 1)


def build_shoot(seed: int, tmp: Path) -> Workload:
    rng = np.random.default_rng(seed)
    w = Workload("shoot", [])
    miss_tol = 1e-7

    def connect_op(label, conn, z0, z1, straight):
        def check(arc):
            bad = _no_time_budget(arc, label) + _drift(w, arc, label)
            miss = abs(arc.samples[-1].z_std - z1)
            if not miss <= miss_tol * max(1.0, abs(z1)):
                bad.append(f"{label}: arc ends {miss:.3g} from its target")
            pts = np.asarray(arc.support_std())
            if not _simple_polyline(pts):
                bad.append(f"{label}: arc is not simple")
            if straight:
                d = z1 - z0
                off = np.abs(((pts - z0) * np.conj(d)).imag) / abs(d)
                if not float(off.max()) <= 1e-6:
                    bad.append(f"{label}: flat geodesic leaves the segment "
                               f"by {float(off.max()):.3g}")
            return bad
        return Op(label, "connect",
                  lambda: polygons.connect_unique(conn, z0, z1, opts=OPTS,
                                                  miss_tol=miss_tol),
                  check, lambda arc: _sha(engine.trajectory_to_csv(arc)))

    flat = build_connection([(SpherePoint.inf(), -2.0)])
    z1 = 2.0 * cmath.exp(1j * rng.uniform(0.0, TWO_PI))
    w.ops.append(connect_op("connect_flat", flat, 0j, z1, True))
    phi = rng.uniform(0.0, TWO_PI)
    w.ops.append(connect_op("connect_curved", single_pole(0.5), cmath.exp(1j * phi),
                            cmath.exp(1j * (phi + math.pi / 2.0)), False))

    # symmetric two-gon: residue 1/2 at +-p; the straight segment between the
    # poles is a saddle connection of metric length pi |p|^2 / 2, which the
    # search reaches at t = 3.8.  The search launches on a grid of angles, so
    # p keeps the segment on that grid.
    p = 1.0 if rng.random() < 0.5 else 1j
    twogon = build_connection([(SpherePoint.of(-p), 0.5), (SpherePoint.of(p), 0.5)])
    seg_len = math.pi * abs(p) ** 2 / 2.0

    def check_saddles(found):
        bad = []
        for a, b in ((-p, p), (p, -p)):
            hits = [s for s in found if not s.end_pole.infinite
                    and abs(s.start_pole.z - a) < 1e-9 and abs(s.end_pole.z - b) < 1e-9]
            if not hits:
                bad.append(f"saddle: no connection {a:.3g} -> {b:.3g}")
            elif not min(abs(s.length - seg_len) for s in hits) <= 1e-3 * seg_len:
                bad.append(f"saddle: length of {a:.3g} -> {b:.3g} is not pi|p|^2/2")
        for s in found:
            bad += _no_time_budget(s.trajectory, "saddle")
        return bad

    w.ops.append(Op("saddle", "saddle",
                    lambda: omega.saddle_connection_search(twogon, n_grid=64,
                                                           t_max=10.0),
                    check_saddles,
                    lambda found: _sha(*[(s.start_pole, s.end_pole, s.launch_angle,
                                          s.length) for s in found])))

    # ring domain of the circle connection: every leaf |z| = r has metric
    # length 2*pi, and the width between radii r1 < r2 is log(r2 / r1)
    circle = circle_connection()
    r = rng.uniform(0.95, 1.05)
    e = cmath.exp(1j * rng.uniform(0.0, TWO_PI))
    ring_budget = ClassifyBudget(t_max=6.0 * TWO_PI * r, max_steps=1_000_000,
                                 max_seconds=None)

    def ring():
        leaf = engine.trace(circle, (r * e, 1j * e), 30.0, OPTS)
        return omega.ring_domain_probe(circle, leaf, max_leaves_per_side=5,
                                       budget=ring_budget)

    def check_ring(rep):
        bad = []
        err = max(abs(x - TWO_PI) for x in rep.leaf_lengths)
        radii = [abs(z) for z in rep.leaf_points]
        werr = abs(rep.width - math.log(max(radii) / min(radii)))
        w.note_max("ring_leaf_err", err)
        w.note_max("ring_width_err", werr)
        if rep.n_leaves < 3:
            bad.append(f"ring: only {rep.n_leaves} leaves")
        if not err <= 1e-6:
            bad.append(f"ring: leaf length off 2*pi by {err:.3g}")
        if not werr <= 1e-6:
            bad.append(f"ring: width off log(r2/r1) by {werr:.3g}")
        return bad

    w.ops.append(Op("ring", "ring", ring, check_ring,
                    lambda rep: _sha(rep.leaf_offsets, rep.leaf_lengths, rep.width)))

    # portrait of the two-gon through the CLI; the digest check makes its
    # SVG bytes identical in every pass
    scene = {"connection": {"poles": [
                {"re": -p.real, "im": -p.imag, "residue": 0.5},
                {"re": p.real, "im": p.imag, "residue": 0.5}]},
             "t_max": 30.0, "portrait": {"grid": 5},
             "window": {"re": 0.0, "im": 0.0, "half_width": 3.0, "size": 640}}
    config = tmp / f"portrait-{seed}.json"
    config.write_text(json.dumps(scene))
    svg = tmp / f"portrait-{seed}.svg"
    os.environ["CONNEXION_THREADS"] = str(min(2, os.cpu_count() or 1))

    def portrait():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main(["portrait", "--config", str(config), "--svg", str(svg),
                      "--seed", str(seed)], standalone_mode=False)
        return out.getvalue(), svg.read_bytes()

    def check_portrait(result):
        text = result[0]
        if "(25 trajectories)" not in text:
            return [f"portrait: {text.strip()!r}"]
        return []

    w.ops.append(Op("portrait", "portrait", portrait, check_portrait,
                    lambda r: _sha(r[1])))
    return w


# -- crossings -----------------------------------------------------------------

def _closed_form_trajectory(conn, ts, zs, vs, ks) -> Trajectory:
    samples = []
    c0 = vs[0] * np.exp(ks[0])
    for t, z, v, k in zip(ts.tolist(), zs.tolist(), vs.tolist(), ks.tolist()):
        samples.append(TrajectorySample(t, GeodesicState("standard", z, v, k),
                                        abs(c0) * (t - ts[0])))
    return Trajectory(conn=conn, samples=samples,
                      events=[(float(ts[-1]), "terminated", {"reason": "t_max"})])


def _spiral(conn, z0, a, T, n):
    """z = z0 exp(a t) on [0, T]: a geodesic of the circle connection."""
    ts = np.linspace(0.0, T, n)
    zeta = cmath.log(z0) + a * ts          # log z, continuous
    zs = np.exp(zeta)
    return _closed_form_trajectory(conn, ts, zs, a * zs, -zeta)


def _spiral_crossings(za, a, Ta, zb, b, Tb, margin):
    """Analytic crossings of two spirals z = z0 exp(a t): straight lines in
    log z on the cylinder, one candidate per sheet k.  Returns None when a
    crossing lies within ``margin`` of a window end."""
    la, lb = cmath.log(za), cmath.log(zb)
    m = np.array([[a.real, -b.real], [a.imag, -b.imag]])
    out = []
    kmax = int((abs(a.imag) * Ta + abs(b.imag) * Tb) / TWO_PI) + 3
    for k in range(-kmax, kmax + 1):
        rhs = lb - la + 2j * math.pi * k
        t, s = np.linalg.solve(m, [rhs.real, rhs.imag])
        if -margin < t < Ta + margin and -margin < s < Tb + margin:
            if min(t, Ta - t, s, Tb - s) < margin:
                return None
            out.append((float(t), float(s), za * cmath.exp(a * t)))
    return sorted(out)


def build_crossings(seed: int, tmp: Path) -> Workload:
    rng = np.random.default_rng(seed)
    w = Workload("crossings", [])
    circle = circle_connection()

    # cross_intersections: an outgoing and an incoming log-spiral
    while True:
        za = cmath.exp(complex(-0.8, rng.uniform(0.0, TWO_PI)))
        a = complex(rng.uniform(0.04, 0.06), 1.0)
        zb = cmath.exp(complex(0.8, rng.uniform(0.0, TWO_PI)))
        b = complex(-rng.uniform(0.04, 0.06), rng.uniform(1.2, 1.4))
        T = 32.0
        expect = _spiral_crossings(za, a, T, zb, b, T, 1e-3)
        if expect is not None:
            break
    n = 1000
    ta = _spiral(circle, za, a, T, n)
    tb = _spiral(circle, zb, b, T, n)
    # crossings are refined on the cubic Hermite interpolant: allow ten times
    # its error bound h^4 max|z''''| / 384, over the sine of the crossing
    # angle, and over the slowest speed for the crossing times
    h = T / (n - 1)
    z_max = max(abs(za) * math.exp(a.real * T), abs(zb))
    z_min = min(abs(za), abs(zb) * math.exp(b.real * T))
    sin_angle = abs(math.sin(cmath.phase(b / a)))
    cross_tol = (10.0 * h ** 4 * max(abs(a), abs(b)) ** 4 * z_max / 384.0
                 / sin_angle / min(1.0, min(abs(a), abs(b)) * z_min))

    def check_cross(recs):
        got = sorted((r.t_i, r.t_j, r.point) for r in recs)
        if len(got) != len(expect):
            return [f"cross: {len(got)} crossings, expected {len(expect)}"]
        err = max(max(abs(g[0] - e[0]), abs(g[1] - e[1]), abs(g[2] - e[2]))
                  for g, e in zip(got, expect))
        w.note_max("cross_err", err)
        return [] if err <= cross_tol else [f"cross: crossing off by {err:.3g}"]

    w.ops.append(Op("cross", "cross",
                    lambda: engine.cross_intersections(ta, tb), check_cross,
                    lambda recs: _sha(*[(r.t_i, r.t_j, r.point) for r in recs])))

    # self_intersections: a straightened line W = t + i d near a rho = -0.9
    # pole.  z = W^(1/s), s = rho + 1, revisits a point where the two values
    # of arg W are theta_c -+ phi with 2 phi / s = 2 pi k: phi_k = pi k s.
    rho, s = -0.9, 0.1
    d = 0.3
    tau = d * rng.uniform(4.0, 8.0)       # arg W sweeps pi/2 -+ atan(tau/d)
    alpha = rng.uniform(0.0, TWO_PI)
    params = localchart.LocalGeodesicParams(rho, 1.0, alpha, 1.0 + 0j, 1j * d)
    ts = np.linspace(-tau, tau, 6000)
    zs = localchart.closed_form_path(params, ts)
    W = ts + 1j * d
    loop = _closed_form_trajectory(
        single_pole(rho), ts, zs, zs / (s * W),
        rho * (np.log(np.abs(W)) + 1j * np.angle(W)) / s)
    phis = [math.pi * k * s for k in range(1, 5) if math.pi * k * s < math.atan(tau / d)]
    loop_expect = [(d / math.cos(ph)) ** (1.0 / s)
                   * cmath.exp(1j * (alpha + (math.pi / 2.0 + ph) / s)) for ph in phis]

    def check_self(recs):
        if len(recs) != len(loop_expect):
            return [f"self: {len(recs)} self-crossings, expected {len(loop_expect)}"]
        got = sorted(recs, key=lambda r: abs(r.t_j - r.t_i))
        err = max(abs(r.point - e) / abs(e) for r, e in zip(got, loop_expect))
        w.note_max("self_err", err)
        return [] if err <= 1e-6 else [f"self: crossing off by {err:.3g} (relative)"]

    w.ops.append(Op("self", "self",
                    lambda: engine.self_intersections(loop), check_self,
                    lambda recs: _sha(*[(r.t_i, r.t_j, r.point) for r in recs])))

    # section_crossings / transversal_analysis: a slow log-spiral crossing a
    # radial section once per turn, at radii exp(alpha t_k)
    beta = rng.uniform(0.0, TWO_PI)
    sp_a = complex(rng.uniform(0.004, 0.006), 1.0)
    turns, per_turn = 100, 500
    T = TWO_PI * turns
    n = turns * per_turn + 1
    spiral = _spiral(circle, 1.0 + 0j, sp_a, T, n)
    t_first = beta % TWO_PI
    radii = [math.exp(sp_a.real * (t_first + TWO_PI * k)) for k in range(turns)]
    half = math.exp(sp_a.real * math.pi)          # half a turn, radially
    r_in, r_out = radii[10] * half, radii[70] * half
    u_expect = [(r - r_in) / (r_out - r_in) for r in radii if r_in < r < r_out]
    dth = T / (n - 1)
    u_tol = 2.0 * r_out * (1.0 - math.cos(dth / 2.0)) / (r_out - r_in) + 1e-12

    def section():
        e = cmath.exp(1j * beta)
        return TransversalSection(r_in * e, r_out * e)

    def check_u(us, label):
        us = list(us)
        if len(us) != len(u_expect):
            return [f"{label}: {len(us)} crossings, expected {len(u_expect)}"]
        err = max(abs(x - y) for x, y in zip(sorted(us), u_expect))
        w.note_max("section_err", err)
        return [] if err <= u_tol else [f"{label}: crossing off by {err:.3g}"]

    w.ops.append(Op("section", "section",
                    lambda: omega.section_crossings(spiral, section()),
                    lambda us: check_u(us, "section"), lambda us: _sha(us)))
    w.ops.append(Op("transversal", "transversal",
                    lambda: omega.transversal_analysis(spiral, section()),
                    lambda st: check_u(st["crossings"], "transversal"),
                    lambda st: _sha(st["crossings"].tobytes(), st["dimension"])))
    return w


BUILDERS = {"trace_long": build_trace_long, "audit": build_audit,
            "shoot": build_shoot, "crossings": build_crossings}
