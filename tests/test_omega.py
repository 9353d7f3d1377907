"""Omega-limit classification, period detection, transversal statistics,
ring domains, saddle connections."""

import cmath
import math
import re

import numpy as np
import pytest

from connexion import (ClassifyBudget, SpherePoint, build_connection,
                       box_dimension, classify, crossing_statistics,
                       detect_period, ring_domain_probe,
                       saddle_connection_search, trace, transversal_analysis)
from connexion import errors, omega
from connexion.engine import (GeodesicState, IntegratorOptions, Trajectory,
                              TrajectorySample, canonical_K, continue_K,
                              delta_zeta)
from connexion.localchart import FALL_ETA, AdaptedChart, pole_chart
from connexion.omega import (TransversalSection, _best_section,
                             _critical_launch, _foreign_accumulation,
                             _tail_convergence,
                             exclusion_audit, random_connection,
                             section_crossings)

from conftest import audit_draws, hexed, saddle_connections, single_pole


def cantor_points(depth: int) -> np.ndarray:
    """Endpoints of the middle-thirds construction after `depth` levels."""
    xs = [0.0, 1.0]
    for _ in range(depth):
        xs = [x / 3.0 for x in xs] + [2.0 / 3.0 + x / 3.0 for x in xs]
    return np.unique(np.asarray(xs))


class TestPeriodDetection:
    def test_circle_period(self, circle_conn):
        traj = trace(circle_conn, (1.0, 1j), 30.0)
        T = detect_period(traj)
        assert T is not None
        assert abs(T - 2 * math.pi) < 1e-6

    def test_straight_line_not_periodic(self, trivial_conn):
        traj = trace(trivial_conn, (0.0, 1.0), 30.0)
        assert detect_period(traj) is None


class TestClassify:
    def test_circle_is_periodic(self, circle_conn):
        v = classify(circle_conn, (1.0, 1j), ClassifyBudget(t_max=50.0))
        assert v.tag == "Periodic"
        assert abs(v.details["period"] - 2 * math.pi) < 1e-6

    def test_spiral_converges_to_infinity(self, circle_conn):
        v = classify(circle_conn, (1.0, 1.0 + 1.0j), ClassifyBudget(t_max=50.0))
        assert v.tag == "ConvergesToPole"
        assert "inf" in str(v)

    def test_inward_spiral_converges_to_zero(self, circle_conn):
        v = classify(circle_conn, (1.0, -1.0 + 1.0j), ClassifyBudget(t_max=50.0))
        assert v.tag == "ConvergesToPole"

    def test_critical_ray_converges_to_finite_pole(self):
        conn = single_pole(0.5)
        v = classify(conn, (1.0, -1.0), ClassifyBudget(t_max=10.0))
        assert v.tag == "ConvergesToPole"
        assert v.details["pole"] == SpherePoint.of(0.0)

    def test_flat_line_converges_to_infinity(self, trivial_conn):
        v = classify(trivial_conn, (0.0, 1.0), ClassifyBudget(t_max=100.0))
        assert v.tag == "ConvergesToPole"
        assert "inf" in str(v)

    @pytest.mark.parametrize("config, simple", [(13, True), (23, False)])
    def test_simple_detectors_run_only_on_simple_traces(self, monkeypatch,
                                                        config, simple):
        # seed 0's audit draws 13 and 23 end Undetermined at t_max = 60; 23
        # crosses itself, so it is Undetermined before any detector of
        # simple traces runs, while 13 runs each of them once
        detectors = ("_foreign_accumulation", "_best_section",
                     "transversal_analysis")
        calls = []
        for name in detectors:
            def counted(*args, _run=getattr(omega, name), _name=name):
                calls.append(_name)
                return _run(*args)
            monkeypatch.setattr(omega, name, counted)
        conn, initial = audit_draws(0, config + 1)[config]
        v = classify(conn, initial, ClassifyBudget(t_max=60.0, max_steps=60_000))
        assert v.tag == "Undetermined"
        assert set(v.details) == {"termination", "t_end", "simple", "traj"}
        assert v.details["simple"] is simple
        assert calls == (list(detectors) if simple else [])


class TestTransversalStatistics:
    def test_cantor_flags_and_dimension(self):
        xs = cantor_points(12)
        stats = crossing_statistics(xs)
        assert not stats["isolated_point"]
        assert not stats["dense_interval"]
        dim = box_dimension(xs)
        assert abs(dim - math.log(2) / math.log(3)) < 0.05

    def test_uniform_is_dense_with_dimension_one(self):
        rng = np.random.default_rng(7)
        xs = np.sort(rng.uniform(0.0, 1.0, 5000))
        stats = crossing_statistics(xs)
        assert stats["dense_interval"]
        assert abs(box_dimension(xs) - 1.0) < 0.05

    def test_isolated_cluster_flagged(self):
        xs = np.sort(np.concatenate([
            0.5 + 1e-7 * np.arange(50), [0.05], [0.95]]))
        stats = crossing_statistics(xs)
        assert stats["isolated_point"]

    def test_too_few_crossings_rejected(self, circle_conn):
        traj = trace(circle_conn, (1.0, 1j), 3.0)
        section = TransversalSection(2.0 + 0j, 3.0 + 0j)   # never crossed
        with pytest.raises(errors.TooFewCrossings):
            transversal_analysis(traj, section)

    def test_section_crossings_of_circle(self, circle_conn):
        # span just short of two periods: crossings at t = 0 and t = 2*pi
        traj = trace(circle_conn, (1.0, 1j), 4 * math.pi - 0.1)
        section = TransversalSection(0.5 + 0j, 1.5 + 0j)
        hits = section_crossings(traj, section)
        assert len(hits) == 2
        # both crossings at radius 1: parameter 0.5 along the section
        assert all(abs(h - 0.5) < 1e-3 for h in hits)


class TestRingDomain:
    def test_circle_family(self, circle_conn):
        seed = trace(circle_conn, (1.0, 1j), 30.0)
        rep = ring_domain_probe(circle_conn, seed)
        assert rep.n_leaves >= 5
        # every leaf of the |z| = const family has length 2*pi
        assert max(abs(l - 2 * math.pi) for l in rep.leaf_lengths) < 1e-6
        # width between extreme radii is log(r2/r1) in the 1/|z| metric
        radii = [abs(p) for p in rep.leaf_points]
        expect = math.log(max(radii) / min(radii))
        assert abs(rep.width - expect) < 1e-6

    def test_inward_side_stops_at_the_pole(self, circle_conn):
        # the inward leaves close in on the pole at 0, and the 20th seed,
        # offset 1.0, lies on it: that side stops there, after 19 leaves
        seed = trace(circle_conn, (1.0, 1j), 30.0)
        rep = ring_domain_probe(circle_conn, seed, max_leaves_per_side=25)
        assert [b["stopped"] for b in rep.boundary] == [("pole", 1.0), None]
        assert rep.n_leaves == 45
        radii = [abs(p) for p in rep.leaf_points]
        assert rep.width == pytest.approx(math.log(max(radii) / min(radii)),
                                          abs=1e-12)

    def test_seed_leaf_length_off_the_canonical_branch(self, circle_conn):
        # K = 0 at z = 2 is not the canonical branch K = -log 2: |c| = 2 is
        # twice the metric speed, so |c| T would give 4 pi
        periodic = trace(circle_conn, GeodesicState("standard", 2.0, 2j, 0j), 30.0)
        rep = ring_domain_probe(circle_conn, periodic, max_leaves_per_side=2)
        assert rep.leaf_lengths[rep.leaf_offsets.index(0.0)] \
            == pytest.approx(2 * math.pi, abs=1e-9)
        assert max(abs(l - 2 * math.pi) for l in rep.leaf_lengths) < 1e-9

    def test_non_periodic_seed_rejected(self, circle_conn):
        seed = trace(circle_conn, (1.0, 1.0 + 1.0j), 10.0)
        with pytest.raises(errors.SeedNotPeriodic):
            ring_domain_probe(circle_conn, seed)

    def test_default_cap_is_in_each_leafs_own_time(self, circle_conn):
        # the seed runs at |v| = 20, so its period is 2 pi / 20; the leaves
        # run at unit velocity and need 2 pi r, far past six seed periods
        seed = trace(circle_conn, (1.0, 20j), 1.5)
        rep = ring_domain_probe(circle_conn, seed, max_leaves_per_side=3)
        assert rep.n_leaves == 7
        assert [b["stopped"] for b in rep.boundary] == [None, None]
        assert max(abs(l - 2 * math.pi) for l in rep.leaf_lengths) < 1e-9

    def test_off_axis_leaves_are_parallel_in_zeta(self):
        # residue -1/2 at 0 and at 0.6: the leaves are not concentric, so a
        # leaf launched in the seed's direction vh0 is not periodic.  Each
        # leaf starts along c e^(-K(seed)) and has the seed's length 2 pi;
        # the width is the zeta-distance between the outer leaves
        conn = build_connection([(SpherePoint.of(0.0), -0.5),
                                 (SpherePoint.of(0.6), -0.5),
                                 (SpherePoint.inf(), -1.0)])
        z0 = 1.2 + 1.6j
        heading = cmath.exp(-1j * canonical_K(conn, z0).imag)
        seed = trace(conn, (z0, 1j * heading), 30.0)
        assert detect_period(seed) == pytest.approx(11.6156, abs=1e-4)
        rep = ring_domain_probe(conn, seed, max_leaves_per_side=12)
        assert rep.n_leaves == 25
        assert max(abs(l - 2 * math.pi) for l in rep.leaf_lengths) <= 1e-10
        # c at z0 on the branch of K canonical at the innermost leaf
        lo, hi = rep.leaf_points[0], rep.leaf_points[-1]
        K0 = continue_K(conn, (lo, z0))[1]
        c_hat = 1j * heading * cmath.exp(1j * K0.imag)
        width = abs((c_hat.conjugate() * delta_zeta(conn, (lo, hi))).imag)
        assert rep.width == pytest.approx(width, abs=1e-12)
        assert rep.width == pytest.approx(0.6728555, abs=1e-7)

    @pytest.mark.parametrize("case", ["inner", "switch", "outer",
                                      "off_canonical"])
    def test_paused_periods_are_full_horizon_periods(self, circle_conn,
                                                     monkeypatch, case):
        # each leaf's period, found on a trace paused near its first
        # recurrence, is the bits detect_period finds on the trace run to
        # the same horizon; circles past SWITCH_RADIUS run in w = 1/z
        rng = np.random.default_rng(17)
        radius = {"inner": rng.uniform(0.5, 2.0),
                  "switch": rng.uniform(9.9, 10.1),
                  "outer": rng.uniform(15.0, 30.0)}.get(case)
        if radius is None:
            seed = trace(circle_conn, GeodesicState("standard", 2.0, 2j, 0j),
                         30.0)
        else:
            z0 = radius * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))
            speed = rng.uniform(0.5, 3.0)
            seed = trace(circle_conn, (z0, 1j * speed * z0),
                         2.5 * 2 * math.pi / speed)
        runs, found = [], []

        def starting(conn, initial, t_max, opts, _run=omega.tracing):
            runs.append((initial, t_max, opts))
            return _run(conn, initial, t_max, opts)

        def pausing(run, pause, _paused=omega._paused_period):
            found.append(_paused(run, pause))
            return found[-1]
        monkeypatch.setattr(omega, "tracing", starting)
        monkeypatch.setattr(omega, "_paused_period", pausing)
        rep = ring_domain_probe(circle_conn, seed, max_leaves_per_side=3)
        assert rep.n_leaves == 7 and len(runs) == len(found) == 6
        charts = set()
        for (initial, t_max, opts), (period, paused) in zip(runs, found):
            full = trace(circle_conn, initial, t_max, opts)
            assert full.termination == "t_max" and len(paused) < len(full)
            assert hexed(period) == hexed(detect_period(full))
            charts.update(paused._chart(k) for k in range(len(paused)))
        assert ("infinity" in charts) == (case in ("switch", "outer"))


class TestSaddleConnections:
    def test_real_segment_pair(self):
        conn = build_connection([(SpherePoint.of(-1.0), 0.5),
                                 (SpherePoint.of(1.0), 0.5)])
        sads = saddle_connection_search(conn, n_grid=8, t_max=20.0)
        ends = {(s.start_pole.z, s.end_pole.z) for s in sads
                if not s.end_pole.infinite}
        assert (-1 + 0j, 1 + 0j) in ends
        assert (1 + 0j, -1 + 0j) in ends
        seg = next(s for s in sads if s.start_pole.z == -1)
        # metric length of [-1, 1] under |z-1|^{1/2}|z+1|^{1/2}|dz| is pi/2
        assert abs(seg.length - math.pi / 2.0) < 1e-3

    @pytest.mark.parametrize("rho", [0.5, -0.5])
    def test_launch_arclength_is_segment_length(self, rho):
        # a launch starts with K = 0, so |c| is not its metric speed.  On
        # [-1, 1] the density is (1 - x^2)^rho, with primitive
        # F(x) = (x sqrt(1 - x^2) + asin x) / 2 for rho = 1/2 and asin x
        # for rho = -1/2: the segment has length pi/2 and pi.  The length of
        # a saddle connection adds to the trace's s_g the two stubs between
        # the poles and the trace's ends, both from the adapted charts in
        # closed form, for either sign of rho
        conn = build_connection([(SpherePoint.of(-1.0), rho),
                                 (SpherePoint.of(1.0), rho)])
        sads = saddle_connection_search(conn, n_grid=4, t_max=5.0)
        seg = next(s for s in sads if s.start_pole.z == -1
                   and not s.end_pole.infinite and s.end_pole.z == 1)
        samples = seg.trajectory.samples
        assert samples[0].state.k_phase == 0

        def F(x):
            if rho < 0:
                return math.asin(x)
            return (x * math.sqrt(1.0 - x * x) + math.asin(x)) / 2.0

        x0 = samples[0].z_std.real
        for s in samples[1:]:
            assert s.z_std.imag == 0.0
            assert s.s_g == pytest.approx(F(s.z_std.real) - F(x0), rel=1e-9)
        x_end = samples[-1].z_std.real
        assert 1.0 - x_end < 2e-6
        # the end stub, past the floor 1e-6 from the pole, is about 1e-9
        # long for rho = 1/2 and sqrt(2e-6) = 1.4e-3 for rho = -1/2
        exact = math.pi / 2.0 if rho > 0 else math.pi
        assert seg.length == pytest.approx(exact, rel=1e-10)

    def test_near_resonant_pole_is_skipped(self):
        # the launch speed's K0 = |rho+1|^{-1/(rho+1)} overflows at
        # rho = -0.995; the search skips that pole instead of raising
        # OverflowError
        conn = build_connection([(SpherePoint.of(0.0), -0.995),
                                 (SpherePoint.of(1.0), 0.5)])
        sads = saddle_connection_search(conn, n_grid=4, t_max=5.0)
        assert all(s.start_pole == SpherePoint.of(1.0) for s in sads)

    def test_launch_placement(self, monkeypatch):
        # every launch of the saddle corpus's searches lies on the circle
        # |u - center| = r0 at adapted argument phi.  Newton's method places
        # it, stub included, in at most four evaluations of w and w', three
        # on average: 8 and 6 calls, against 12 and 10 for the fixed-point
        # turn it replaced
        calls = []
        for name in ("to_w", "dw"):
            def counted(self, u, _f=getattr(AdaptedChart, name)):
                calls.append(name)
                return _f(self, u)
            monkeypatch.setattr(AdaptedChart, name, counted)
        per_launch = []
        for conn in saddle_connections():
            for p in conn.poles:
                if p.location.infinite or p.residue <= -1.0:
                    continue
                chart = pole_chart(conn, p.location)
                r0 = 0.05 * chart.radius
                for k in range(64):
                    phi = 2.0 * math.pi * k / 64
                    calls.clear()
                    (state, _) = _critical_launch(conn, chart, r0, phi)
                    per_launch.append(len(calls))
                    u = state.z
                    err = cmath.phase(chart.to_w(u) * cmath.exp(-1j * phi))
                    assert abs(err) <= 1e-13
                    # to 1e-14 and the rounding of u = center + zeta
                    assert (abs(abs(u - chart.center) - r0)
                            <= 1e-14 * r0 + 2.0 ** -52 * abs(u))
        assert max(per_launch) <= 8
        assert sum(per_launch) <= 6.2 * len(per_launch)


AUDIT_BUDGET = ClassifyBudget(t_max=60.0, max_steps=60_000)


class TestCertifiedConvergence:
    def test_certified_trace_is_prefix_of_full_trace(self):
        draws = audit_draws(7, 20)
        n_cert = 0
        for conn, ic in draws:
            full = trace(conn, ic, 60.0, AUDIT_BUDGET.options())
            cert = trace(conn, ic, 60.0, AUDIT_BUDGET.options(), certify=True)
            assert cert.samples == full.samples[:len(cert.samples)]
            if cert.termination == "pole_certified":
                n_cert += 1
                assert len(cert.samples) < len(full.samples)
            else:
                assert cert.termination == full.termination
                assert len(cert.samples) == len(full.samples)
        assert n_cert > 0

    def test_certified_pole_agrees_with_tail_heuristic(self):
        both = 0
        for conn, ic in audit_draws(0, 40):
            verdict = classify(conn, ic, AUDIT_BUDGET)
            if not verdict.details.get("certified"):
                continue
            full = trace(conn, ic, 60.0, AUDIT_BUDGET.options())
            pole = _tail_convergence(full)
            if pole is not None:
                both += 1
                assert pole == verdict.details["pole"]
        assert both > 0

    def test_evidence_trail(self):
        seen = set()
        for conn, ic in audit_draws(0, 40):
            v = classify(conn, ic, AUDIT_BUDGET)
            if v.tag != "ConvergesToPole" or v.details["t_hit"] is not None:
                continue
            d = v.details
            seen.add(d["certified"])
            assert str(v) == f"ConvergesToPole({d['pole']})"
            if not d["certified"]:
                continue
            assert d["t_cert"] == d["traj"].t_end
            abs_w, w_in = d["abs_w"]
            descent, bound = d["descent"]
            assert abs_w < w_in
            assert bound == -FALL_ETA and -1.0 <= descent < bound
        assert seen == {True, False}


class TestExclusionAudit:
    def test_small_audit_shape(self):
        rep = exclusion_audit(n_configs=5, seed=3)
        assert len(rep["lines"]) == 6
        assert rep["anomalies"] == []
        assert sum(rep["counts"].values()) == 5
        assert rep["text"].endswith("\n")
        certified = int(re.search(r" certified=(\d+) ", rep["lines"][-1])[1])
        assert 0 <= certified <= rep["counts"].get("ConvergesToPole", 0)

    def test_random_connection_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            conn = random_connection(rng)
            assert abs(sum(p.residue for p in conn.poles) + 2.0) < 1e-12


# -- per-sample references for the columnar detectors --------------------------
# The detectors written over TrajectorySample objects, with chords and the
# interpolant where they measure the curve between rows; the columnar ones
# must give the same bits.

def _ref_chord_distance(a, b, p):
    seg = b - a
    s = ((p - a) * seg.conjugate()).real / abs(seg) ** 2 if seg else 0.0
    return abs(a + min(max(s, 0.0), 1.0) * seg - p)


def _ref_detect_period(traj, tol=1e-8):
    samples = traj.samples
    z0, v0 = samples[0].z_std, samples[0].v_std
    vh0 = v0 / abs(v0)
    scale = max(abs(z0), 1.0)
    window = 0.0
    for prev, s in zip(samples, samples[1:]):
        if s.t < 1e-6 or s.t <= window:
            continue
        if _ref_chord_distance(prev.z_std, s.z_std, z0) > 0.05 * scale:
            continue
        T = _ref_refine_period(traj, samples, _ref_nearest_time(traj, prev, s, z0),
                               z0, vh0, tol)
        if T is not None:
            return T
        window = s.t + 0.1 * s.t
    return None


def _ref_refine_period(traj, samples, T0, z0, vh0, tol):
    T = T0
    if T <= 0.0:   # the start state: no step back from it, so no period
        return None
    for _ in range(8):
        sub = trace(traj.conn, samples[0].state, T,
                    IntegratorOptions(max_steps=len(samples) * 40 + 1000))
        if sub.termination != "t_max":
            return None
        end = sub.samples[-1]
        z, v = end.z_std, end.v_std
        delta = (z - z0).real * v.real + (z - z0).imag * v.imag
        dT = -delta / (abs(v) ** 2)
        mism = abs(z - z0) + abs(v / abs(v) - vh0)
        if T + dT <= 1e-6:
            return None
        if mism < tol and abs(dT) < tol:
            return T + dT
        T += dT
        if abs(dT) < 1e-15 * T:
            return None if mism >= tol else T
    return None


def _ref_tail_convergence(traj):
    samples = traj.samples
    if len(samples) < 40:
        return None
    tail = samples[int(0.75 * len(samples)):]
    for p in traj.conn.poles:
        if p.residue > -1.0:
            continue
        if p.location.infinite:
            ds = [1.0 / max(abs(s.z_std), 1e-300) for s in tail]
        else:
            ds = [abs(s.z_std - p.location.z) for s in tail]
        if ds[-1] < 0.1 and ds[-1] < 0.8 * ds[0] and \
                all(b <= a * 1.001 for a, b in zip(ds[:-1], ds[1:])):
            return p.location
    return None


def _ref_nearest_time(traj, a, b, target):
    """Three Newton steps on the interpolant over the chord from sample a to
    sample b, from the chord's nearest point to ``target``."""
    seg = b.z_std - a.z_std
    s = ((target - a.z_std) * seg.conjugate()).real / abs(seg) ** 2 if seg else 0.0
    t = a.t + min(max(s, 0.0), 1.0) * (b.t - a.t)
    for _ in range(3):
        z, v = traj.interpolate(t)
        t = min(max(t - ((z - target) * v.conjugate()).real / abs(v) ** 2, a.t), b.t)
    return t


def _ref_foreign_accumulation(traj):
    samples = traj.samples
    ts = [s.t for s in samples]
    if ts[-1] - ts[0] < 10.0:
        return None
    tail_start = ts[0] + 0.75 * (ts[-1] - ts[0])
    tail = [s for s in samples if s.t >= tail_start]
    z_t = tail[0].z_std
    vh = tail[0].v_std / abs(tail[0].v_std)
    near = 0.05 * max(abs(z_t), 1.0)
    left = [k for k, s in enumerate(tail) if abs(s.z_std - z_t) > near]
    best = math.inf
    for a, b in (zip(tail[left[0]:], tail[left[0] + 1:]) if left else ()):
        if _ref_chord_distance(a.z_std, b.z_std, z_t) <= near:
            z, v = traj.interpolate(_ref_nearest_time(traj, a, b, z_t))
            best = min(best, abs(z - z_t) + abs(v / abs(v) - vh))
    if best < 1e-6:
        return "AccumulatesOnForeignPeriodic", {"tail_recurrence": best}
    poles = [pos for pos, _ in traj.conn.chart_poles("standard")]
    if poles:
        visits = []
        for a, b in zip(tail, tail[1:]):
            ds = [_ref_chord_distance(a.z_std, b.z_std, p) for p in poles]
            k = int(np.argmin(ds))
            if ds[k] < 1e-3 and (not visits or visits[-1] != k):
                visits.append(k)
        if len(visits) >= 8 and len(set(visits)) >= 2:
            return "AccumulatesOnSaddleGraph", {"pole_visits": visits}
    return None


def _ref_best_section(traj):
    samples = traj.samples
    pts = np.asarray([s.z_std for s in samples])
    stride = max(1, pts.size // 400)
    counts = [(np.sum(np.abs(pts - p) < 0.2), i)
              for i, p in enumerate(pts[::stride])]
    k = max(counts)[1] * stride
    nrm = 1j * samples[k].v_std / abs(samples[k].v_std)
    return pts[k] - 0.3 * nrm, pts[k] + 0.3 * nrm


def _verdict(v):
    if v is None:
        return None
    return hexed((v.tag, {k: x for k, x in v.details.items() if k != "traj"}))


@pytest.fixture(scope="module")
def shuttles():
    """Trajectories built from samples on which _foreign_accumulation fires:
    a circle sampled 40 times a turn, whose tail recurs to rounding, and a
    path sampled off the period that shuttles between the poles at +-1, and
    a zigzag between +-1.05 whose rows stay 0.05 from those poles while its
    chords pass 5e-4 from them."""
    circle = build_connection([(SpherePoint.of(0.0), -1.0),
                               (SpherePoint.inf(), -1.0)])
    ts = [k * 2 * math.pi / 40 for k in range(401)]
    recurring = [TrajectorySample(t, GeodesicState(
        "standard", cmath.exp(1j * t), 1j * cmath.exp(1j * t), -1j * t), t)
        for t in ts]
    twogon = build_connection([(SpherePoint.of(-1.0), 0.5),
                               (SpherePoint.of(1.0), 0.5)])
    ts = [0.0317 * k for k in range(4000)]
    shuttle = [TrajectorySample(t, GeodesicState(
        "standard", (1 - 5e-4) * math.cos(t) + 0.01j * math.sin(t),
        -(1 - 5e-4) * math.sin(t) + 0.01j * math.cos(t)), t) for t in ts]
    xs = [(0.0, 1.05, 0.0, -1.05)[k % 4] + (2e-4 + 2e-6 * k) * 1j
          for k in range(201)]
    zigzag = [TrajectorySample(float(k), GeodesicState(
        "standard", xs[k], 0.5 * (xs[min(k + 1, 200)] - xs[max(k - 1, 0)])), 0.0)
        for k in range(1, 200)]
    return {"recurring": Trajectory(conn=circle, samples=recurring),
            "shuttle": Trajectory(conn=twogon, samples=shuttle),
            "zigzag": Trajectory(conn=twogon, samples=zigzag)}


class TestColumnarDetectors:
    NAMES = ("switch", "certified", "fall", "pole_approach", "from_infinity",
             "circle", "outer_circle")

    @pytest.mark.parametrize("name", NAMES)
    def test_detect_period(self, column_traces, name):
        traj = column_traces[name]
        assert hexed(detect_period(traj)) == hexed(_ref_detect_period(traj))

    @pytest.mark.parametrize("name", ("circle", "outer_circle"))
    def test_detect_period_finds_the_circle(self, column_traces, name):
        # the outer circle is traced in w = 1/z: the re-traces that refine
        # its period must start from the same infinity-chart state
        assert detect_period(column_traces[name]) \
            == pytest.approx(2 * math.pi, abs=1e-6)

    @pytest.mark.parametrize("name", NAMES)
    def test_tail_convergence(self, column_traces, name):
        traj = column_traces[name]
        assert _tail_convergence(traj) == _ref_tail_convergence(traj)

    def test_tail_convergence_sees_the_fall(self, column_traces):
        assert _tail_convergence(column_traces["fall"]) == SpherePoint.of(0.0)

    @pytest.mark.parametrize("name", NAMES + ("recurring", "shuttle", "zigzag"))
    def test_foreign_accumulation(self, column_traces, shuttles, name):
        traj = {**column_traces, **shuttles}[name]
        assert _verdict(_foreign_accumulation(traj)) \
            == hexed(_ref_foreign_accumulation(traj))

    def test_foreign_accumulation_fires_on_the_shuttles(self, shuttles):
        # so that the comparisons above cover both of its verdicts
        for name, tag in (("recurring", "AccumulatesOnForeignPeriodic"),
                          ("shuttle", "AccumulatesOnSaddleGraph"),
                          ("zigzag", "AccumulatesOnSaddleGraph")):
            assert _foreign_accumulation(shuttles[name]).tag == tag

    @pytest.mark.parametrize("name", NAMES)
    def test_best_section(self, column_traces, name):
        traj = column_traces[name]
        sec = _best_section(traj)
        got = None if sec is None else (sec.p0, sec.p1)
        assert hexed(got) == hexed(_ref_best_section(traj))
