"""Geodesic integration: conservation, chart switching, arclength, CSV,
intersections."""

import bisect
import cmath
import inspect
import io
import math
import time
from collections import Counter

import numpy as np
import pytest

from connexion import (SpherePoint, build_connection, continue_K,
                       first_integral, metric_density, self_intersections,
                       trace, trajectory_to_csv)
from connexion import engine, errors
from connexion.connection import SWITCH_RADIUS
from connexion.engine import (CSV_HEADER, GeodesicState, Trajectory,
                              TrajectorySample, cross_intersections,
                              segment_crossings)
from connexion.localchart import pole_chart, pole_disc
from connexion.omega import TransversalSection, section_crossings

from conftest import (SWITCH_POLES, TWOGON, audit_draws, hexed, saddle_launches,
                      single_pole)


class TestBasicTracing:
    def test_straight_line_in_flat_plane(self, trivial_conn):
        traj = trace(trivial_conn, (0.0, 1.0 + 0.5j), 5.0)
        for s in traj.samples:
            expect = (1.0 + 0.5j) * s.t
            assert abs(s.z_std - expect) < 1e-9

    def test_unit_circle_orbit(self, circle_conn):
        traj = trace(circle_conn, (1.0, 1j), 2 * math.pi)
        radii = [abs(s.z_std) for s in traj.samples]
        assert max(abs(r - 1.0) for r in radii) < 1e-9
        assert abs(traj.samples[-1].z_std - 1.0) < 1e-7

    def test_zero_velocity_rejected(self, trivial_conn):
        with pytest.raises(errors.ZeroVelocity):
            trace(trivial_conn, (0.0, 0.0), 1.0)

    def test_start_at_pole_rejected(self):
        conn = single_pole(0.5)
        with pytest.raises(errors.StartAtPole):
            trace(conn, (1e-8, 1.0), 1.0)

    def test_critical_ray_hits_pole_floor(self):
        # rho = 0.5 from z0 = 1 straight in: z(t) = (1 - 3t/2)^{2/3},
        # so the pole is reached at t = 2/3
        conn = single_pole(0.5)
        traj = trace(conn, (1.0, -1.0), 2.0)
        assert traj.termination == "pole_approach"
        assert traj.t_end == pytest.approx(2.0 / 3.0, abs=1e-6)

    @pytest.mark.parametrize("t_max", [0.0, -1.0, math.nan])
    def test_horizon_must_be_positive(self, circle_conn, t_max):
        with pytest.raises(ValueError):
            trace(circle_conn, (1.0, 1j), t_max)

    def test_infinite_horizon_under_step_cap(self, circle_conn):
        traj = trace(circle_conn, (1.0, 1j), math.inf,
                     engine.IntegratorOptions(max_steps=10))
        assert traj.termination == "max_steps"
        assert len(traj) == 11

    def test_stage_point_on_a_pole_rejects_the_step(self):
        # the first step's second stage point, z0 + (H0/5) v0, is the pole
        # itself; the step is rejected and the trace goes on into the pole
        traj = trace(single_pole(0.5), (-(engine.H0 * (1 / 5)), 1.0), 1.0)
        assert traj.termination == "pole_approach"

    def test_step_past_the_floor_is_accepted(self, monkeypatch):
        # residue -1/2 at 0: W = z^(1/2) runs on the line W = t + i tau, so
        # the geodesic passes 0 at d = tau^2 = 1.0001e-6, bending towards
        # it.  The step of 0.1 tau across the closest approach has its chord
        # 9.976e-7 from 0, inside the floor, while the arc, and so every
        # sub-step _pole_hit probes, stays outside: the step is accepted
        # whole and the trace runs on
        tau = math.sqrt(1.0001e-6)
        h = 0.1 * tau
        W = -h / 2 + 1j * tau
        conn = single_pole(-0.5)
        traj, state = engine._start(conn, (W * W, 2.0 * W), 1.0)
        hits = []

        def recording(*args, _hit=engine._pole_hit):
            hits.append(_hit(*args))
            return hits[-1]
        monkeypatch.setattr(engine, "_pole_hit", recording)
        traj = engine._stepping(conn, traj, state[:5] + (h,) + state[6:], 1.0,
                                None)
        assert hits[0] is None
        assert engine._pole_gap(((0j, -0.5),), *traj.z[:2]) < engine.POLE_FLOOR
        assert traj.t[1] == h and abs(traj.z[1] - W.conjugate() ** 2) < 1e-18
        assert traj.termination == "t_max"
        assert min(map(abs, traj.z)) > engine.POLE_FLOOR

    def test_passes_close_to_weak_pole(self):
        # the first-same-as-last core keeps c = v exp(K) to rounding while
        # the trace passes 1e-4 from a rho = -1e-6 pole at t ~ 1, and the
        # step does not collapse there
        conn = build_connection([(SpherePoint.of(0.0), -1e-6)])
        traj = trace(conn, (-1.0 + 1e-4j, 1.0), 3.0)
        assert traj.termination == "t_max"
        assert first_integral(traj)[1] < 1e-11


class TestFirstIntegral:
    def test_drift_small_on_circle(self, circle_conn):
        traj = trace(circle_conn, (1.0, 1j), 20.0)
        _, drift = first_integral(traj)
        assert drift < 1e-9

    def test_drift_small_across_chart_switch(self):
        # an escaping geodesic continues through the w = 1/z chart
        conn = build_connection([(SpherePoint.of(0.0), -0.5),
                                 (SpherePoint.inf(), -1.5)])
        traj = trace(conn, (1.0, 1.0 + 0.2j), 40.0)
        assert any(s.state.chart == "infinity" for s in traj.samples)
        _, drift = first_integral(traj)
        assert drift < 1e-9

    def test_continue_K_picks_up_residue_winding(self):
        # one full positive loop around a residue-rho pole adds 2*pi*i*rho
        conn = single_pole(0.5)
        theta = np.linspace(0.0, 2 * math.pi, 200)
        path = [cmath.exp(1j * t) for t in theta]
        ks = continue_K(conn, path)
        gained = ks[-1] - ks[0]
        # K also carries the infinity-residue part of f; isolate the winding
        # by comparing against the same path traversed backwards
        back = continue_K(conn, path[::-1])
        assert gained == pytest.approx(2j * math.pi * 0.5, abs=1e-9)
        assert (back[-1] - back[0]) == pytest.approx(-2j * math.pi * 0.5,
                                                     abs=1e-9)


class TestAccuracy:
    def test_positions_match_a_second_order_solve(self):
        # first_integral reads only rounding on a trace (c is held fixed),
        # so the positions are checked against scipy's DOP853 on the real
        # system z'' = -f(z) z'^2, at every row of the ACCEPTANCE 02 draws
        # that run to t_max without a chart switch
        from scipy.integrate import solve_ivp
        checked = 0
        for conn, (z0, v0) in audit_draws(11, 20):
            traj = trace(conn, (z0, v0), 50.0)
            if traj.termination != "t_max" or traj.switches:
                continue
            poles = conn.chart_poles("standard")

            def rhs(t, y):
                z, v = complex(y[0], y[1]), complex(y[2], y[3])
                f = 0j
                for pos, res in poles:
                    f += res / (z - pos)
                a = -f * v * v
                return [v.real, v.imag, a.real, a.imag]

            v0 = complex(v0)
            sol = solve_ivp(rhs, (0.0, traj.t_end),
                            [z0.real, z0.imag, v0.real, v0.imag],
                            method="DOP853", rtol=1e-13, atol=1e-15,
                            t_eval=traj.t)
            zs = np.array(traj.z)
            err = np.abs(zs - (sol.y[0] + 1j * sol.y[1]))
            assert np.all(err <= 1e-10 * np.maximum(1.0, np.abs(zs)))
            checked += 1
        assert checked >= 10


class TestMetric:
    def test_density_is_product_of_powers(self):
        conn = build_connection([(SpherePoint.of(0.0), 0.5),
                                 (SpherePoint.of(2.0), -0.25)])
        z = 1.0 + 1.0j
        expect = abs(z) ** 0.5 * abs(z - 2.0) ** -0.25
        assert metric_density(conn, z) == pytest.approx(expect, rel=1e-12)

    def test_circle_arclength(self, circle_conn):
        # density 1/|z| on the unit circle: one period has length 2*pi
        traj = trace(circle_conn, (1.0, 1j), 2 * math.pi)
        assert traj.samples[-1].s_g == pytest.approx(2 * math.pi, abs=1e-7)
        half = trace(circle_conn, (1.0, 1j), math.pi)
        assert half.samples[-1].s_g == pytest.approx(math.pi, abs=1e-12)

    def test_arclength_monotone(self, circle_conn):
        traj = trace(circle_conn, (1.0, 1.0 + 1.0j), 10.0)
        sg = [s.s_g for s in traj.samples]
        assert all(b >= a for a, b in zip(sg[:-1], sg[1:]))

    @staticmethod
    def assert_constant_speed(traj):
        """s_g / t equals the metric speed measured at every sample."""
        for s in traj.samples[1:]:
            speed = metric_density(traj.conn, s.z_std) * abs(s.v_std)
            assert s.s_g / s.t == pytest.approx(speed, rel=1e-9)

    def test_arclength_is_speed_times_t_across_chart_switches(self):
        # the switch scene of the benchmark: three poles, residue -0.6 at
        # infinity, and a geodesic out past the switch radius and back
        conn = build_connection([(SpherePoint.of(0.0), -0.5),
                                 (SpherePoint.of(1.5 + 0.5j), -0.3),
                                 (SpherePoint.of(-0.7 + 1.2j), -0.6)])
        traj = trace(conn, (3.0, cmath.exp(0.1j)), 200.0)
        to = [p["to"] for _, kind, p in traj.events if kind == "chart_switch"]
        assert "infinity" in to and "standard" in to
        self.assert_constant_speed(traj)
        # a trace started in the infinity chart takes its speed there too
        start = next(s.state for s in traj.samples
                     if s.state.chart == "infinity")
        self.assert_constant_speed(trace(conn, start, 20.0))


class TestDeltaZeta:
    """The developing map's increment int e^K dz against closed forms."""

    def test_flat_plane_gives_the_segment(self, trivial_conn):
        # e^K = 1 with no finite pole: the rule's weights sum to 1 exactly
        z0, z1 = 0.3 + 0.7j, -1.1 + 2.9j
        assert engine.delta_zeta(trivial_conn, (z0, z1)) == z1 - z0

    @pytest.mark.parametrize("r1, r2, phi", [(0.5, 2.0, 0.3), (3.0, 0.2, -2.5)])
    def test_radial_segment_on_the_circle(self, circle_conn, r1, r2, phi):
        # e^K = 1/z, so the radial segment gives log(r2 / r1)
        e = cmath.exp(1j * phi)
        dz = engine.delta_zeta(circle_conn, (r1 * e, r2 * e))
        assert abs(dz - math.log(r2 / r1)) <= 1e-14

    def test_half_residue_pole(self):
        # e^K = z^(1/2), principal at 1: the integral is (2/3)(i^(3/2) - 1)
        dz = engine.delta_zeta(single_pole(0.5), (1.0, 1j))
        assert abs(dz - (2.0 / 3.0) * (1j ** 1.5 - 1.0)) <= 1e-13

    def test_polyline_continues_the_branch(self, circle_conn):
        # once round the unit circle's inscribed square: int dz/z = 2 pi i
        square = [1.0, 1j, -1.0, -1j, 1.0]
        dz = engine.delta_zeta(circle_conn, square)
        assert abs(dz - 2j * math.pi) <= 1e-13

    def test_geodesic_is_a_straight_line(self):
        # d zeta / dt = c along a geodesic; a trace's chords clear every
        # pole, so its row polyline is homotopic to it and gives c t_end
        conn = build_connection(SWITCH_POLES)
        traj = trace(conn, (0.5 + 0.5j, cmath.exp(0.4j)), 3.0)
        assert traj.termination == "t_max" and not traj.switches
        c = traj.v[0] * cmath.exp(traj.K[0])
        dz = engine.delta_zeta(conn, traj.z)
        assert abs(dz - c * traj.t_end) <= 1e-12 * abs(c) * traj.t_end

    @pytest.mark.parametrize("d", [0.3, 1e-3, 1e-8])
    @pytest.mark.parametrize("rho", [-1.0, 0.5])
    def test_close_pass_is_graded(self, rho, d):
        # [-1 + id, 1 + id] over a pole at 0: e^K = z^rho, principal in the
        # upper half plane, so the integral is log(b / a) or (b^(3/2) -
        # a^(3/2)) / (3/2); pieces halve towards the pole, O(log(1/d)) of them
        a, b = -1.0 + 1j * d, 1.0 + 1j * d
        conn = single_pole(rho)
        want = cmath.log(b / a) if rho == -1.0 else (b ** 1.5 - a ** 1.5) / 1.5
        assert abs(engine.delta_zeta(conn, (a, b)) - want) <= 1e-14 * abs(want)
        pieces = engine._zeta_pieces(conn.chart_poles("standard"), a, b)
        assert [x for x, _ in pieces[1:]] == [y for _, y in pieces[:-1]]
        assert (pieces[0][0], pieces[-1][1]) == (a, b)
        assert len(pieces) <= 2.0 * math.log2(2.0 / d) + 2.0
        assert all(abs(y - x) <= engine.ZETA_REACH * abs(0.5 * (x + y))
                   for x, y in pieces)

    def test_segment_through_a_pole_is_refused(self):
        with pytest.raises(errors.PathThroughPole):
            engine.delta_zeta(single_pole(0.5), (-1.0, 1.0))

    @pytest.mark.parametrize("n", [1, 2, 7, engine.ZETA_NODES])
    def test_nodes_match_numpy(self, n):
        x, w = np.polynomial.legendre.leggauss(n)
        s, ws = engine._gauss_legendre(n)
        assert np.max(np.abs(s - (1.0 + x) / 2.0)) <= 1e-15
        assert np.max(np.abs(ws - w / 2.0)) <= 1e-14


class TestInterpolation:
    def test_matches_closed_form_on_circle(self, circle_conn):
        traj = trace(circle_conn, (1.0, 1j), 2 * math.pi)
        for t in np.linspace(0.1, 6.0, 17):
            z, v = traj.interpolate(float(t))
            assert abs(z - cmath.exp(1j * t)) < 1e-6
            assert abs(v - 1j * cmath.exp(1j * t)) < 1e-5

    def test_mid_step_accuracy(self, circle_conn):
        # at every mid-step: the circle against its closed form, and the
        # benchmark's three-pole and switch geodesics against a partial step
        # (state_at), relative to max(1, |z|); the bounds are the cubic
        # Hermite's errors on the denser rows of a 5(4) trace
        z0 = 1.1 * cmath.exp(0.3j)
        circle = trace(circle_conn, (z0, 1j * z0), 80 * math.pi)
        mids = [0.5 * (a + b) for a, b in zip(circle.t, circle.t[1:])]
        assert max(abs(circle.interpolate(t)[0] - z0 * cmath.exp(1j * t))
                   for t in mids) <= 1e-9
        conn = build_connection(SWITCH_POLES)
        for start, t_max, bound in (((0.8 + 0.9j, cmath.exp(0.3j)), 60.0, 3.4e-9),
                                    ((3.0, cmath.exp(0.1j)), 200.0, 8.1e-9)):
            traj = trace(conn, start, t_max)
            errs = []
            for a, b in zip(traj.t, traj.t[1:]):
                ref = engine.state_at(traj, 0.5 * (a + b))
                if ref is not None:
                    z = traj.interpolate(0.5 * (a + b))[0]
                    errs.append(abs(z - ref[0]) / max(1.0, abs(ref[0])))
            assert len(errs) >= 0.99 * (len(traj) - 1)
            assert max(errs) <= bound

    def test_outside_span_raises(self, circle_conn):
        traj = trace(circle_conn, (1.0, 1j), 1.0)
        with pytest.raises(ValueError):
            traj.interpolate(2.0)


class TestCsv:
    def test_header_exact(self, circle_conn):
        traj = trace(circle_conn, (1.0, 1j), 1.0)
        text = trajectory_to_csv(traj)
        assert text.splitlines()[0] == "t,re_z,im_z,re_v,im_v,s_g"
        assert CSV_HEADER == "t,re_z,im_z,re_v,im_v,s_g"

    def test_rows_round_trip_at_17_digits(self, circle_conn):
        traj = trace(circle_conn, (1.0, 1j), 1.0)
        rows = np.genfromtxt(io.StringIO(trajectory_to_csv(traj)),
                             delimiter=",", names=True)
        for row, s in zip(rows, traj.samples):
            assert row["t"] == s.t
            assert complex(row["re_z"], row["im_z"]) == s.z_std
            assert complex(row["re_v"], row["im_v"]) == s.v_std
            assert row["s_g"] == s.s_g


class TestIntersections:
    def test_straight_line_has_none(self, trivial_conn):
        traj = trace(trivial_conn, (0.0, 1.0), 5.0)
        assert self_intersections(traj) == []

    def test_loop_near_low_residue_pole(self):
        # rho in (-1, -1/2): a noncritical geodesic diving deep enough loops
        conn = single_pole(-0.9)
        v0 = cmath.exp(1j * (math.pi - math.asin(0.5)))  # Im b = 0.5
        traj = trace(conn, (1.0, v0), 50.0)
        recs = self_intersections(traj)
        assert len(recs) == 3
        assert all(r.transversal for r in recs)
        assert all(r.t_i < r.t_j for r in recs)

    def test_cross_intersections_of_two_lines(self, trivial_conn):
        a = trace(trivial_conn, (-1.0, 1.0), 2.0)
        b = trace(trivial_conn, (-1j, 1j), 2.0)
        recs = cross_intersections(a, b)
        assert len(recs) == 1
        assert abs(recs[0].point) < 1e-9

    def test_deeper_dive_turns_more(self):
        # smaller impact parameter -> more turning before leaving, and the
        # tightly wound sampling must not blow up the candidate-pair scan
        conn = single_pole(-0.9)
        v0 = cmath.exp(1j * (math.pi - math.asin(0.3)))
        traj = trace(conn, (1.0, v0), 50.0)
        recs = self_intersections(traj)
        assert len(recs) >= 3


def _brute_crossings(p, q):
    """Scalar reference for segment_crossings: every pair, in (i, j) order."""
    out = []
    for i in range(len(p) - 1):
        for j in range(len(q) - 1):
            d1, d2 = p[i + 1] - p[i], q[j + 1] - q[j]
            den = d1.real * d2.imag - d1.imag * d2.real
            if den == 0:
                continue
            r = q[j] - p[i]
            s = (r.real * d2.imag - r.imag * d2.real) / den
            u = (r.real * d1.imag - r.imag * d1.real) / den
            if 0.0 <= s <= 1.0 and 0.0 <= u <= 1.0:
                out.append((i, j, s, u, den))
    return out


def _polyline_trajectory(conn, pts):
    samples = [TrajectorySample(float(k), GeodesicState("standard", z, 1.0), 0.0)
               for k, z in enumerate(pts)]
    return Trajectory(conn=conn, samples=samples)


class TestSegmentCrossings:
    def test_matches_brute_force_on_random_polylines(self):
        rng = np.random.default_rng(5)
        # 1199 and 303 segments, neither a whole number of runs
        p = [complex(z) for z in np.cumsum(rng.normal(0, 0.3, 1200)
                                           + 1j * rng.normal(0, 0.3, 1200))]
        q = [complex(z) for z in np.cumsum(rng.normal(0, 0.5, 300)
                                           + 1j * rng.normal(0, 0.5, 300))]
        # segment 300 of q repeats segment 0 of p, segment 302 is a shifted
        # parallel copy of it: both pairs are parallel and never reported
        q += [p[0], p[1], p[0] + 0.5 * (p[1] - p[0]) + 1e-3j,
              p[1] + 0.5 * (p[1] - p[0]) + 1e-3j]
        want = _brute_crossings(p, q)
        got = list(zip(*(x.tolist() for x in segment_crossings(p, q))))
        assert len(want) > 50
        assert got == want
        assert not any(i == 0 and j in (300, 302) for i, j, *_ in got)

    @staticmethod
    def _agree(p, q):
        got = list(zip(*(x.tolist() for x in segment_crossings(p, q))))
        assert got == _brute_crossings(p, q)
        return got

    def test_crossings_at_both_ends_of_a_run(self):
        # a zigzag along the real axis; vertical strokes through the first
        # and the last segment of each run of p, and through none else
        R = engine.RUN
        p = [complex(k, (-1) ** k) for k in range(3 * R + 1)]
        q = []
        for r in range(3):
            for k in (r * R, r * R + R - 1):
                q += [complex(k + 0.5, 5.0), complex(k + 0.5, -5.0), np.nan]
        got = self._agree(p, q)
        assert sorted({i for i, *_ in got}) == [0, R - 1, R, 2 * R - 1,
                                                2 * R, 3 * R - 1]

    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 31, 33, 47])
    def test_segment_counts_off_whole_runs(self, n):
        # a star through the origin against a circle: every segment of each
        # crosses the other, whatever the counts modulo RUN
        p = [complex(k % 2 * 2.0 - 1.0, 0.1 * k) for k in range(n + 1)]
        q = [cmath.exp(2j * math.pi * k / 50) for k in range(51)]
        assert len(self._agree(p, q)) > 0
        assert len(self._agree(q, p)) > 0

    def test_segment_lengths_spread_over_decades(self):
        # the loop past a rho = -0.9 pole: chords from 1e-9 to 1 long
        conn = single_pole(-0.9)
        v0 = cmath.exp(1j * (math.pi - math.asin(0.5)))
        pts = trace(conn, (1.0, v0), 50.0).support_std()
        lengths = np.abs(np.diff(pts))
        assert lengths.max() > 1e3 * lengths.min()
        assert len(self._agree(pts, pts)) > 100

    def test_nan_point_hides_only_its_own_segments(self):
        # one NaN point in the middle of a run of p: its two segments drop
        # out, and every other crossing of the run stays
        rng = np.random.default_rng(3)
        p = [complex(z) for z in np.cumsum(rng.normal(0, 0.4, 200)
                                           + 1j * rng.normal(0, 0.4, 200))]
        q = p[::-1][:150]
        want = self._agree(p, q)
        k = engine.RUN + engine.RUN // 2
        p[k] = complex(math.nan, math.nan)
        got = self._agree(p, q)
        assert got == [g for g in want if g[0] not in (k - 1, k)]
        assert any(g[0] // engine.RUN == k // engine.RUN for g in got)

    @pytest.mark.parametrize("slice_", [1, 700, 773])
    def test_long_walks_across_slices(self, monkeypatch, slice_):
        # two 600-segment random walks from the origin, which overlap: with
        # SLICE this small the 38 x 38 run pairs are tested a few rows at a
        # time, and the overlapping ones expanded 1 to 3 at a time
        rng = np.random.default_rng(9)
        p, q = (np.cumsum(rng.normal(0, 0.3, 601) + 1j * rng.normal(0, 0.3, 601))
                for _ in range(2))
        full = segment_crossings(p, q)
        monkeypatch.setattr(engine, "SLICE", slice_)
        got = self._agree(p.tolist(), q.tolist())
        assert len(got) > 100
        assert got == list(zip(*(x.tolist() for x in full)))

    @pytest.mark.parametrize("n", [1, engine.RUN - 1, engine.RUN, engine.RUN + 1])
    def test_short_side_against_a_long_polyline(self, n):
        # a zigzag of n segments across the box of a 600-segment random walk,
        # in both argument orders, and with a NaN point on the walk: a side
        # of at most RUN segments puts both sides in runs of one segment
        rng = np.random.default_rng(19)
        walk = [complex(z) for z in np.cumsum(rng.normal(0, 0.3, 601)
                                              + 1j * rng.normal(0, 0.3, 601))]
        xs, ys = [z.real for z in walk], [z.imag for z in walk]
        zig = [complex(min(xs) + (max(xs) - min(xs)) * k / n,
                       (min(ys), max(ys))[k % 2]) for k in range(n + 1)]
        want = self._agree(zig, walk)
        assert len(want) > 5 and len(self._agree(walk, zig)) == len(want)
        k = next(j for _, j, *_ in want[len(want) // 2:] if j > 0) + 1
        hidden = walk[:k] + [complex(math.nan, math.nan)] + walk[k + 1:]
        got = self._agree(zig, hidden)
        assert got == [g for g in want if g[1] not in (k - 1, k)]
        assert len(got) < len(want)
        assert len(self._agree(hidden, zig)) == len(got)

    @pytest.mark.parametrize("rows", [engine.RUN + 1, engine.RUN + 2])
    def test_self_intersections_of_a_short_trace(self, trivial_conn, rows):
        # two turns of a drifting circle: RUN + 1 rows (runs of one segment)
        # or one row more (runs of RUN)
        t = np.linspace(0.0, 4 * math.pi, rows)
        pts = (np.exp(1j * t) + 0.1 * t).tolist()
        vel = (1j * np.exp(1j * t) + 0.1).tolist()
        traj = Trajectory(conn=trivial_conn, samples=[
            TrajectorySample(a, GeodesicState("standard", z, v), 0.0)
            for a, z, v in zip(t.tolist(), pts, vel)])
        got = engine._crossings(np.array(pts), np.array(pts), forward=True)
        want = [g for g in _brute_crossings(pts, pts) if g[1] > g[0] + 1]
        assert want and list(zip(*(x.tolist() for x in got))) == want
        recs = self_intersections(traj)
        assert recs and recs == _self_reference(traj, 64)

    def test_parallel_segments_never_cross(self):
        p = [0j, 1 + 0j]
        for q in ([0.5 + 0j, 1.5 + 0j], [0.2 + 0j, 0.8 + 0j], [0.5j, 1 + 0.5j]):
            assert all(x.size == 0 for x in segment_crossings(p, q))

    def test_short_polylines(self):
        for p, q in (([], [0j, 1 + 0j]), ([1j], [0j, 1 + 0j]), ([0j, 1j], [2j])):
            assert all(x.size == 0 for x in segment_crossings(p, q))

    def test_section_through_sample_vertex_counted_once(self, trivial_conn):
        traj = _polyline_trajectory(trivial_conn, [-1 - 0.5j, 0.25 + 0j, 1 + 1j])
        hits = section_crossings(traj, TransversalSection(-1 + 0j, 1 + 0j))
        assert hits == [0.625]
        assert type(hits[0]) is float

    def test_section_matches_brute_force(self, trivial_conn):
        # the chord crossings of the brute-force scan, each moved by one
        # Newton step on the interpolant (a 2 x 2 solve here)
        rng = np.random.default_rng(7)
        pts = [complex(z) for z in np.cumsum(rng.normal(0, 0.2, 2000)
                                             + 1j * rng.normal(0, 0.2, 2000))]
        traj = _polyline_trajectory(trivial_conn, pts)
        sec = TransversalSection(pts[0] - 2 - 1j, pts[0] + 2 + 1j)
        d = sec.p1 - sec.p0
        want, moved = [], 0
        for i, _, s, u, den in _brute_crossings(pts, [sec.p0, sec.p1]):
            if s < 1.0 and abs(den) / (abs(pts[i + 1] - pts[i]) * abs(d)) >= 1e-3:
                z, v = traj.interpolate(i + s)
                r = z - sec.p0 - u * d
                m = np.array([[v.real, -d.real], [v.imag, -d.imag]])
                if abs(np.linalg.det(m)) > 1e-3 * abs(v) * abs(d):
                    u += np.linalg.solve(m, [-r.real, -r.imag])[1]
                    moved += 1
                want.append(u)
        assert len(want) > 5 and moved > 5
        assert section_crossings(traj, sec) == pytest.approx(sorted(want),
                                                            rel=0, abs=1e-12)

    def test_max_count_keeps_segment_order(self, circle_conn):
        # three turns of the unit circle cross the radial ray z = 0.5 e^t at
        # z = 1 once per turn, at t = 3 pi / 2 + 2 pi k
        circle = trace(circle_conn, (1j, -1.0), 6 * math.pi)
        ray = trace(circle_conn, (0.5, 0.5), 1.0)
        full = cross_intersections(circle, ray)
        assert [round((r.t_i - 1.5 * math.pi) / (2 * math.pi), 9) for r in full] \
            == [0.0, 1.0, 2.0]
        for k in (1, 2):
            assert cross_intersections(circle, ray, max_count=k) == full[:k]

    def test_self_max_count_takes_first_pairs(self):
        conn = single_pole(-0.9)
        v0 = cmath.exp(1j * (math.pi - math.asin(0.5)))
        traj = trace(conn, (1.0, v0), 50.0)
        full = self_intersections(traj)
        assert len(full) == 3
        assert self_intersections(traj, max_count=2) == full[:2]


class TestOneChordSide:
    """Against a polyline of one chord, such as a section, the kernel
    solves only the chords whose ends do not both lie strictly on one side
    of its line: the crossings brute force finds, in either argument order
    and with the chord either way round, which may round differently."""

    @staticmethod
    def _agree(pts, a, b):
        orders = ((pts, [a, b]), ([a, b], pts), (pts, [b, a]), ([b, a], pts))
        return [TestSegmentCrossings._agree(p, q) for p, q in orders][0]

    def test_points_within_rounding_of_the_line(self):
        # points on the line through a and b, each moved by an ulp, some
        # past its ends, between points far off it on either side
        a, b = 0.3 + 0.1j, 2.1 + 1.3j
        on = [a + t * (b - a) for t in np.linspace(-0.5, 1.5, 41)]
        pts = []
        for k, z in enumerate(on):
            step = (-1) ** k * math.inf
            pts += [complex(np.nextafter(z.real, step), z.imag),
                    complex(z.real, np.nextafter(z.imag, -step)),
                    z + (3 - 6 * (k % 3 == 0)) * 1j * (b - a)]
        assert len(self._agree(pts, a, b)) > 20

    def test_vertex_on_the_line(self):
        # vertices exactly on the real axis: inside the section, at both of
        # its ends and past them; each crossing is reported on both chords
        pts = [1 - 1j, 1 + 0j, 1.5 + 1j, 0j, -1j, 2 + 0j, 1j, 3 + 0j, 3 - 1j]
        got = self._agree(pts, 0j, 2 + 0j)
        assert [i for i, *_ in got] == [0, 1, 2, 3, 4, 5]

    def test_chord_along_the_line(self):
        # chord 1 lies on the section's line (den == 0): never reported;
        # its neighbours meet the section at their ends
        pts = [0.5 - 1j, 0.5 + 0j, 1.5 + 0j, 1.5 + 1j, 4 + 0j, 5 + 0j]
        got = self._agree(pts, 0j, 2 + 0j)
        assert [(i, s) for i, _, s, *_ in got] == [(0, 1.0), (2, 0.0)]

    def test_nan_points(self):
        # NaN points hide their own chords; a NaN section meets nothing
        rng = np.random.default_rng(23)
        pts = [complex(z) for z in rng.normal(0, 1, 400) + 1j * rng.normal(0, 1, 400)]
        want = self._agree(pts, -1 - 0.5j, 1 + 0.5j)
        hidden = {7, 150, 151, 399}
        for k in hidden:
            pts[k] = complex(math.nan, 0.0)
        got = self._agree(pts, -1 - 0.5j, 1 + 0.5j)
        assert got == [g for g in want if not {g[0], g[0] + 1} & hidden]
        assert len(got) < len(want)
        assert self._agree(pts, complex(math.nan, math.nan), 1 + 0.5j) == []

    @pytest.mark.parametrize("slice_", [8, 64, 72])
    def test_crossings_at_block_boundaries(self, monkeypatch, slice_):
        # a zigzag across the section, every chord crossing it, scanned
        # SLICE // 8 points at a time: the chords that span two blocks too
        pts = [complex(0.01 * k, (-1) ** k) for k in range(101)]
        monkeypatch.setattr(engine, "SLICE", slice_)
        got = self._agree(pts, -0.5 + 0j, 2 + 0j)
        assert [i for i, *_ in got] == list(range(100))


def _forward_agree(pts):
    """The forward scan of ``pts`` against every pair j > i + 1 of the
    brute-force scan."""
    got = engine._crossings(np.array(pts, dtype=complex),
                            np.array(pts, dtype=complex), forward=True)
    got = list(zip(*(x.tolist() for x in got)))
    assert got == [g for g in _brute_crossings(pts, pts) if g[1] > g[0] + 1]
    return got


class TestTurningPrune:
    """A forward scan drops the run pairs whose stretch of chords turns by
    less than pi - 1e-3: each such stretch is monotone along the mean of its
    directions, so none of its pairs j > i + 1 can meet."""

    def test_spiral_with_many_turns(self):
        # a drifting, widening circle: 12 turns of 64 chords, each turn
        # crossing the last; the runs turn by 1.5 rad, a run and the next
        # by 3.0, so only pairs further apart are expanded
        t = np.linspace(0.0, 24 * math.pi, 12 * 64 + 1)
        pts = ((1.0 + t / 40.0) * np.exp(1j * t) + 0.15 * t).tolist()
        assert len(_forward_agree(pts)) > 20

    @pytest.mark.parametrize("short", [0.0, 5e-4])
    def test_half_turn_cut_at_pi(self, monkeypatch, short):
        # 3 runs of unit chords: the first nearly straight, the second a
        # U-turn of 3.0 rad, the third nearly straight back.  Runs 0 and 1
        # turn by pi - short, within the margin of pi, so their 16 quarter
        # boxes are tested, and the 16 segment boxes of the one quarter pair
        # that overlaps, at the U-turn; runs 1 and 2 turn by pi - 2e-3 and
        # are dropped, and so is each run with itself; runs 0 and 2 lie apart
        R = engine.RUN
        S0, S1, S2 = 0.05, 3.0, 0.05
        turns = ([S0 / (R - 1)] * (R - 1) + [math.pi - short - S0 - S1]
                 + [S1 / (R - 1)] * (R - 1) + [math.pi - 2e-3 - S1 - S2]
                 + [S2 / (R - 1)] * (R - 1))
        heading = np.concatenate(([0.0], np.cumsum(turns)))
        pts = np.concatenate(([0j], np.cumsum(np.exp(1j * heading)))).tolist()
        tested = []

        def overlap(a, b, _overlap=engine._overlap):
            mask = _overlap(a, b)
            tested.append(mask.size)
            return mask
        monkeypatch.setattr(engine, "_overlap", overlap)
        assert _forward_agree(pts) == []
        assert tested == [3 * 3, 4 * 4, (R // 4) ** 2]

    def test_dense_loop_past_a_pole(self):
        # the loop past a rho = -0.9 pole: chords from 1e-9 to 1 long
        conn = single_pole(-0.9)
        v0 = cmath.exp(1j * (math.pi - math.asin(0.5)))
        pts = trace(conn, (1.0, v0), 50.0).support_std()
        lengths = np.abs(np.diff(pts))
        assert lengths.max() > 1e3 * lengths.min()
        assert len(_forward_agree(pts)) == 3

    def test_repeated_and_nan_points(self):
        # a gentle arc with a repeated point, whose neighbours i and i + 2
        # meet there (s = 1, u = 0); a NaN point; then the loops of a
        # prolate cycloid, which cross themselves, with a repeated point in
        # each loop.  A zero-length or NaN chord counts as a turn of pi
        arc = [complex(k, 0.002 * k * k) for k in range(40)]
        arc[20:20] = [arc[20]]
        t = np.linspace(0.0, 6 * math.pi, 120)
        loops = (45.0 + t - 2.0 * np.sin(t) + 1j * (1.0 - 2.0 * np.cos(t))).tolist()
        for k in (30, 70, 110):
            loops[k:k] = [loops[k]]
        pts = arc + [complex(math.nan, math.nan)] + loops
        got = _forward_agree(pts)
        assert (19, 21, 1.0, 0.0) in [g[:4] for g in got]
        assert sum(i > 41 for i, *_ in got) >= 3

    def test_chord_a_few_ulps_long(self):
        # chord 1 is 2 ulps of its ends long and the stretch turns by 1.67
        # rad only, yet the rounding of _solve meets chords 0 and 2 at its
        # ends (s = 1, u = 0): a chord within 1e-12 |p| of zero length turns
        # by pi, like a zero-length one
        pts = [-0.8662995179861326 + 0.2504260683210296j,
               0.13370048201386742 + 0.2504260683210296j,
               0.13370048201386747 + 0.2504260683210296j,
               0.035683025206919836 - 0.7447586271808144j]
        assert [g[:4] for g in _forward_agree(pts)] == [(0, 2, 1.0, 0.0)]


@pytest.mark.parametrize("n", [3999, 4000, 4001, 8000, 12007])
def test_decimate_slices_as_the_index_form(n):
    # _decimate keeps every stride-th row and the last, stride = ceil(n /
    # 4000): the index lists it used to build
    pts = np.exp(1j * np.arange(n + 1.0))
    ts = [0.5 * k for k in range(n + 1)]
    stride = -(-n // 4000)
    idx = list(range(0, n, stride)) + [n]
    got_pts, got_ts = engine._decimate(pts, ts, 4000)
    assert len(got_ts) - 1 <= 4000
    assert got_pts.tolist() == pts[idx].tolist()
    assert got_ts == [ts[i] for i in idx]


# DOP853 (Hairer, Norsett & Wanner, Solving ODEs I, II.5 and II.10), read
# from scipy's coefficient module
_DOP_COLUMNS = {2: (0,), 3: (0, 1), 4: (0, 2), 5: (0, 2, 3), 6: (0, 3, 4),
                7: (0, 3, 4, 5), 8: (0, *range(3, 7)), 9: (0, *range(3, 8)),
                10: (0, *range(3, 9)), 11: (0, *range(3, 10)),
                12: (0, *range(3, 11))}


def _dop853():
    from scipy.integrate._ivp import dop853_coefficients as dop
    return dop


def _tableau_step(poles, z, k1, h):
    """Reference DOP853 step of z' = c exp(-K(z)): the generic loop over
    scipy's tableau, with K continued from z to each stage point, and
    scipy's error norm for one complex component."""
    dop = _dop853()

    def dK(b):
        acc = 0j
        for pos, res in poles:
            acc += res * cmath.log((b - pos) / (z - pos))
        return acc

    def weighted(w):
        terms = [float(e) * kk for e, kk in zip(w, k) if e]
        acc = terms[0]
        for x in terms[1:]:
            acc += x
        return acc

    k = [k1]
    for i in range(1, dop.N_STAGES):
        az = z
        for j in range(i):
            if dop.A[i, j]:
                az += h * float(dop.A[i, j]) * k[j]
        k.append(k1 * cmath.exp(-dK(az)))
    z1 = z
    for j in range(dop.N_STAGES):
        if dop.B[j]:
            z1 += h * float(dop.B[j]) * k[j]
    d = dK(z1)
    e5, e3 = abs(weighted(dop.E5)), abs(weighted(dop.E3))
    den = e5 * e5 + 0.01 * (e3 * e3)
    err = abs(h) * (e5 * e5) / math.sqrt(den) if den else 0.0
    return z1, d, k1 * cmath.exp(-d), err


def _self_reference(traj, max_count):
    """The full symmetric scan: every pair of segments in both orders, pairs
    with j <= i + 1 skipped."""
    pts, ts = engine._decimate(traj.support_array(), traj.times, 4000)
    out = []
    hits = segment_crossings(pts, pts)
    for i, j, s, u in zip(*(x.tolist() for x in hits[:4])):
        if j <= i + 1:
            continue
        rec = engine._refine_crossing(traj, traj, ts[i] + s * (ts[i + 1] - ts[i]),
                                      ts[j] + u * (ts[j + 1] - ts[j]))
        if rec is None or rec[1] - rec[0] < 1e-9:
            continue
        out.append(engine.IntersectionRecord(*rec))
        if len(out) >= max_count:
            break
    out.sort(key=lambda r: (r.t_i, r.t_j))
    return out


def _full_bisection(poles, z0, v0, h):
    """``engine._pole_hit`` as it was: 60 bisection steps whether or not the
    midpoint still moves, then one more integrator step at lo."""
    def dist(hh):
        try:
            za, dK, va, _ = engine._dp_step(poles, z0, v0, hh)
        except (ValueError, OverflowError):
            return 0.0, None
        return min(abs(za - pos) for pos, _ in poles), (za, dK, va)

    inside = next((k for k in range(1, 65)
                   if dist(h * k / 64)[0] < engine.POLE_FLOOR), None)
    if inside is None:
        return None
    lo, hi = h * (inside - 1) / 64, h * inside / 64
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if dist(mid)[0] < engine.POLE_FLOOR:
            hi = mid
        else:
            lo = mid
    return (lo, *dist(lo)[1])


class TestFastPath:
    def test_literals_are_the_dop853_tableau(self):
        dop = _dop853()
        for i, used in _DOP_COLUMNS.items():
            row = getattr(engine, f"_A{i}")
            row = row if isinstance(row, tuple) else (row,)
            want = [float(dop.A[i - 1, j]) for j in range(i - 1)]
            got = [0.0] * (i - 1)
            for j, a in zip(used, row, strict=True):
                got[j] = a
            assert hexed(got) == hexed(want)
        used = (0, *range(5, 12))
        for name, full in (("_B", dop.B), ("_E5", dop.E5[:12]),
                           ("_E3", dop.E3[:12])):
            got = [0.0] * 12
            for j, a in zip(used, getattr(engine, name), strict=True):
                got[j] = a
            assert hexed(got) == hexed([float(x) for x in full])
        # no error weight on the thirteenth (first same as last) slope
        assert dop.E5[12] == dop.E3[12] == 0.0

    def test_dp_step_matches_tableau_loop(self):
        # every pole count the generated step serves: the flat plane's
        # standard chart has none, the infinity chart of six poles seven
        rng = np.random.default_rng(11)
        conns = [build_connection([(SpherePoint.inf(), -2.0)])]
        for n_poles in (1, 2, 3, 4, 5, 6):
            for _ in range(5):
                pos = rng.normal(0, 1.5, n_poles) + 1j * rng.normal(0, 1.5, n_poles)
                conns.append(build_connection(
                    [(SpherePoint.of(complex(p)), float(r))
                     for p, r in zip(pos, rng.uniform(-0.95, 0.9, n_poles))]))
        counts = set()
        for conn in conns:
            for chart in ("standard", "infinity"):
                poles = conn.chart_poles(chart)
                counts.add(len(poles))
                for _ in range(20):
                    z = complex(*rng.normal(0, 2.0, 2))
                    v = complex(*rng.normal(0, 1.0, 2))
                    h = float(10.0 ** rng.uniform(-5, 0))
                    assert engine._dp_step(poles, z, v, h) \
                        == _tableau_step(poles, z, v, h)
        assert counts == set(range(8))
        # the second stage point, z + (h a21) k1, on the first pole: the
        # exception the tracer takes for a stage point on a pole
        poles = build_connection([(SpherePoint.of(engine._A2), 0.5),
                                  (SpherePoint.of(1j), -0.7)]).chart_poles("standard")
        raised = []
        for step in (engine._dp_step, _tableau_step):
            with pytest.raises((ValueError, OverflowError)) as info:
                step(poles, 0j, 1.0 + 0j, 1.0)
            raised.append(info.type)
        assert raised[0] is raised[1]

    def test_self_intersections_match_full_scan(self, trivial_conn):
        rng = np.random.default_rng(13)
        R = engine.RUN
        for n in (40, 700, 1500):
            # a random walk with centred-difference velocities: its Hermite
            # interpolant follows the polyline, so crossings refine
            steps = rng.normal(0, 0.3, n) + 1j * rng.normal(0, 0.3, n)
            for k in range(R - 1, n - 3, 16 * R):
                # segments k and k + 2 cross, k the last of its run
                steps[k + 1:k + 4] = 2.0, -1.0 + 1j, -2j
            pts = np.cumsum(steps)
            full = segment_crossings(pts, pts)
            keep = full[1] > full[0] + 1
            got = engine._crossings(pts, pts, forward=True)
            assert [x.tolist() for x in got] == [x[keep].tolist() for x in full]
            assert {(k, k + 2) for k in range(R - 1, n - 3, 16 * R)} \
                <= set(zip(got[0].tolist(), got[1].tolist()))
            vel = np.gradient(pts)
            traj = Trajectory(conn=trivial_conn, samples=[
                TrajectorySample(float(k), GeodesicState("standard", complex(z),
                                                         complex(v)), 0.0)
                for k, (z, v) in enumerate(zip(pts, vel))])
            # the last count is no cap: every crossing is refined
            for max_count in (1, 4, 64, n * n):
                want = _self_reference(traj, max_count)
                assert want
                assert self_intersections(traj, max_count=max_count) == want
        assert len(want) > 1000

    def test_pole_hit_lands_like_the_full_bisection(self, monkeypatch):
        # every floor entry of a few traces: the same bits as 60 bisection
        # steps and a fresh step at lo, from fewer integrator steps
        calls = []

        def recording(*args, _hit=engine._pole_hit):
            calls.append(args)
            return _hit(*args)
        monkeypatch.setattr(engine, "_pole_hit", recording)
        trace(single_pole(0.5), (1.0, -1.0), 2.0)
        trace(single_pole(0.5), (-(engine.H0 * (1 / 5)), 1.0), 1.0)
        trace(single_pole(-0.5), (1.0, -1.0 + 1e-7j), 3.0)
        for conn, ic in audit_draws(0, 40):
            trace(conn, ic, 60.0)
        monkeypatch.undo()
        assert len(calls) >= 5
        for args in calls:
            steps = []

            def counting(*a, _step=engine._dp_step):
                steps.append(a)
                return _step(*a)
            monkeypatch.setattr(engine, "_dp_step", counting)
            got, n_got = engine._pole_hit(*args), len(steps)
            want, n_want = _full_bisection(*args), len(steps) - n_got
            monkeypatch.undo()
            assert hexed(got) == hexed(want)
            assert n_got < n_want

    def test_split_chord_continues_K_like_continue_K(self, monkeypatch):
        # loose tolerances let one step jump past a weak pole: its chord
        # subtends more than pi/2 there, so K is continued on split chords
        conn = build_connection([(SpherePoint.of(0.0), -1e-6),
                                 (SpherePoint.of(2 + 1j), -0.5)])
        for name in ("RTOL", "ATOL"):
            monkeypatch.setattr(engine, name, 1e-6)
        traj = trace(conn, (-1 + 1e-3j, 1.0), 3.0)
        zs = traj.support_std()
        assert traj.termination == "t_max"
        assert any(abs(cmath.phase(b / a)) >= math.pi / 2 for a, b in zip(zs, zs[1:]))
        assert [s.state.k_phase for s in traj.samples] == continue_K(conn, zs)



@pytest.fixture(scope="module")
def bench_traces(column_traces):
    """The benchmark's circle, three-pole and switch geodesics (unrotated;
    the circle and three-pole traces shortened), with their starts."""
    circle = build_connection([(SpherePoint.of(0.0), -1.0),
                               (SpherePoint.inf(), -1.0)])
    z0 = 1.1 * cmath.exp(0.3j)
    three = column_traces["switch"].conn
    starts = {"circle": (circle, (z0, 1j * z0), 8 * math.pi),
              "three_pole": (three, (0.8 + 0.9j, cmath.exp(0.3j)), 30.0)}
    out = {name: (trace(*args), args[1]) for name, args in starts.items()}
    out["switch"] = (column_traces["switch"], (3.0, cmath.exp(0.1j)))
    return out


def _state_at_like_retrace(traj, start, T):
    """Check ``state_at`` at T against the last row of a re-trace to T from
    ``start``: within 1e-12 relative, and bit for bit when the re-trace's
    rows before T are the stored rows.  Returns whether they were."""
    ref = trace(traj.conn, start, T)
    assert ref.termination == "t_max" and ref.t[-1] == T
    z_ref, v_ref = (col[-1] for col in ref.std_columns())
    z, v = engine.state_at(traj, T)
    tol = 1e-12 * max(1.0, abs(z_ref))
    assert abs(z - z_ref) <= tol and abs(v - v_ref) <= tol
    # the re-trace's last step starts at its row rows - 1: the same state
    # only if that is the stored row state_at steps from
    rows = len(ref) - 1
    same = ((ref.t[:rows], ref.z[:rows], ref.v[:rows])
            == (traj.t[:rows], traj.z[:rows], traj.v[:rows])
            and bisect.bisect_right(traj.t, T) == rows)
    if same:
        assert hexed((z, v)) == hexed((z_ref, v_ref))
    return same


class TestPartialStep:
    """``state_at`` against the last row of a re-trace to the same time."""

    def test_matches_retrace(self, bench_traces):
        rng = np.random.default_rng(12)
        exact = 0
        for name, n in (("circle", 67), ("three_pole", 67), ("switch", 66)):
            traj, start = bench_traces[name]
            times = list(rng.uniform(0.0, traj.t_end, n))
            # two times in each step that ends in a chart switch
            times[:2 * len(traj.switches)] = [
                rng.uniform(traj.t[k - 1], traj.t[k])
                for k in traj.switches for _ in range(2)]
            exact += sum(_state_at_like_retrace(traj, start, T) for T in times)
        assert len(bench_traces["switch"][0].switches) == 6 and exact > 150

    def test_switch_after_the_last_row(self, bench_traces):
        # a trace that ends on the row past the switch radius records the
        # switch at len(traj); the step after it is taken in the new chart
        full, start = bench_traces["switch"]
        k = full.switches[0]
        cut = trace(full.conn, start, full.t[k - 1])
        assert cut.switches == [len(cut)]
        for T in np.linspace(full.t[k - 1], full.t[k], 5)[1:]:
            _state_at_like_retrace(cut, start, float(T))

    def test_none_past_a_pole_floor(self, column_traces):
        # the re-trace would stop at the floor: no state past it, however
        # short the step
        traj = column_traces["pole_approach"]
        assert traj.termination == "pole_approach"
        for dt in (1e-12, 1e-3):
            assert engine.state_at(traj, traj.t_end + dt) is None


# -- growing trajectories ------------------------------------------------------

def _long_traces(column_traces):
    """The benchmark's four long geodesics (unrotated) and a trace that ends
    with a fall certificate: (connection, start, t_max, certify)."""
    circle = column_traces["circle"].conn
    three = column_traces["switch"].conn
    z0 = 1.1 * cmath.exp(0.3j)
    fall = column_traces["certified"].conn
    return {"circle": (circle, (z0, 1j * z0), 80 * math.pi, False),
            "three_pole": (three, (0.8 + 0.9j, cmath.exp(0.3j)), 60.0, False),
            "selfcross": (single_pole(-0.9),
                          (1.0, complex(-math.sqrt(3.0) / 2.0, -0.5)), 40.0,
                          False),
            "switch": (three, (3.0, cmath.exp(0.1j)), 200.0, False),
            "certified": (fall, (-0.8 + 0.1j, 1.0 + 0.25j), 20.0, True)}


def _record(traj):
    """Copies of everything a trajectory holds."""
    return {"t": list(traj.t), "z": list(traj.z), "v": list(traj.v),
            "K": list(traj.K), "s_g": list(traj.s_g), "chart0": traj.chart0,
            "switches": list(traj.switches), "events": list(traj.events),
            "termination": traj.termination}


def _grown(full, counts):
    """One trajectory that grows through the first n rows of ``full``, for
    each n of ``counts`` in turn: yields it at each n."""
    traj = Trajectory(full.conn)
    traj.chart0 = full.chart0
    for n in counts:
        for name in ("t", "z", "v", "K", "s_g"):
            col = getattr(traj, name)
            col += getattr(full, name)[len(col):n]
        traj.switches[:] = [k for k in full.switches if k <= n]
        yield traj


class TestPausedTrace:
    """The caches of a ``Trajectory`` read part way, whose columns then
    grow."""

    def test_cached_standard_columns_follow_the_rows(self, column_traces):
        # the switch geodesic has rows in w = 1/z by t = 50: the standard
        # columns derived at 50 must grow with the trajectory
        conn, start, t_max, _ = _long_traces(column_traces)["switch"]
        full = trace(conn, start, t_max)
        std = full.std_columns()
        counts = [bisect.bisect_right(full.t, T) + 1 for T in (50.0, 150.0)]
        grown = _grown(full, counts)
        traj = next(grown)
        assert traj.switches and len(traj.std_columns()[0]) == len(traj)
        n = len(traj)
        next(grown)
        assert len(traj) > n
        assert traj.std_columns() == tuple(c[:len(traj)] for c in std)

    def test_cached_array_follows_the_rows(self, column_traces):
        # the chord array built at a row count must grow with the
        # trajectory, and a section scan of the prefix must see what a trace
        # to the same time sees
        conn, start, t_max, _ = _long_traces(column_traces)["switch"]
        sec = TransversalSection(-3.0 + 0.5j, 3.0 + 0.5j)
        full = trace(conn, start, t_max)
        counts = []
        for traj in _grown(full, [bisect.bisect_right(full.t, T) + 1
                                  for T in (50.0, 100.0, 150.0)]):
            arr = traj.support_array()
            assert hexed(arr) == hexed(np.array(traj.support_std()))
            assert traj.support_array() is arr
            xs = section_crossings(traj, sec)
            assert xs == section_crossings(trace(conn, start, traj.t[-1]), sec)
            counts.append(len(xs))
        assert traj.switches and 0 < counts[0] < counts[-1]


# -- the generated step loop ------------------------------------------------------

def _reference_stepping(conn, traj, state, t_max, opts, certify=False):
    """``engine._stepping`` as it was before its step loop was generated: one
    step call per step, ``_pole_gap`` on every accepted chord and
    ``_certified_fall`` on every accepted row of a certified trace."""
    opts = opts or engine.IntegratorOptions()
    t, z, v, K, chart, h, steps, speed = state
    ts, zs, vs, Ks, sg = traj.t, traj.z, traj.v, traj.K, traj.s_g
    max_steps, max_seconds = opts.max_steps, opts.max_seconds
    started = time.monotonic()
    exit_radius = None
    falls = [(p.location, *pole_disc(conn, p.location)) for p in conn.poles
             if certify and p.residue < -1.0]

    while t < t_max:
        if steps >= max_steps:
            traj.termination = "max_steps"
            break
        if max_seconds is not None and time.monotonic() - started > max_seconds:
            traj.termination = "time_budget"
            break
        if exit_radius is None:
            poles = conn.chart_poles(chart)
            exit_radius = (SWITCH_RADIUS if chart == "standard"
                           else 1.5 / SWITCH_RADIUS)
        steps += 1
        h = min(h, t_max - t, engine.H_MAX)
        if h < 1e-14 * max(1.0, abs(t)):
            traj.termination = "step_collapse"
            traj.events.append((t, "step_collapse", {"h": h}))
            break
        try:
            z1, dK, v1, err = engine._dp_step(poles, z, v, h)
        except (ValueError, OverflowError):
            z1, err = complex(math.nan), math.nan
        err /= engine.ATOL + engine.RTOL * max(abs(z), abs(z1))
        if not err <= 1.0 or not math.isfinite(abs(z1)):
            h *= max(0.2, 0.9 * err ** -0.125) if 1.0 < err < math.inf else 0.1
            continue
        gap = engine._pole_gap(poles, z, z1)
        if gap <= engine.PATH_CLEARANCE:
            h *= 0.5
            continue
        hit = engine._pole_hit(poles, z, v, h) if gap < engine.POLE_FLOOR else None
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
            pole = engine._nearest_pole(conn, chart, z)
            traj.events.append((t, "pole_approach", {"pole": pole}))
            traj.termination = "pole_approach"
            break
        cert = _reference_fall(conn, falls, chart, z, v) if falls else None
        if cert is not None:
            traj.events.append((t, "pole_certified", cert))
            traj.termination = "pole_certified"
            break
        if abs(z) > exit_radius:
            K = K + cmath.log(-z ** 2)
            z, v = engine._invert(z, v)
            chart = "infinity" if chart == "standard" else "standard"
            exit_radius = None
            traj.switches.append(len(ts))
            traj.events.append((t, "chart_switch", {"to": chart}))
        h *= min(5.0, max(0.2, 0.9 * err ** -0.125)) if err > 0 else 5.0
    traj.events.append((ts[-1], "terminated", {"reason": traj.termination}))
    return traj


def _reference_fall(conn, falls, chart, z, v):
    """``engine._certified_fall`` as it was before the fall screen: the first
    disc, in order, whose centre the state lies within 0.9 r0 of and whose
    certificate it passes."""
    for pole, ambient, center, r0 in falls:
        u, vu = (z, v) if ambient == chart else engine._invert(z, v)
        fall = pole_chart(conn, pole) if abs(u - center) < 0.9 * r0 else None
        cert = fall and fall.falls_in(u, vu)
        if cert:
            return {"pole": pole, **cert}
    return None


def _clone(traj):
    """A trajectory with copies of ``traj``'s columns, switches and events."""
    out = Trajectory(traj.conn)
    for name in ("t", "z", "v", "K", "s_g", "switches", "events"):
        setattr(out, name, list(getattr(traj, name)))
    out.chart0, out.termination = traj.chart0, traj.termination
    return out


def _assert_loops_agree(conn, traj, state, t_max, opts=None, certify=False):
    """The generated loop and the reference from the same rows and state:
    every column, the switches, the events and the termination, bit for
    bit.  Returns the trajectory."""
    ref = _reference_stepping(conn, _clone(traj), state, t_max, opts, certify)
    got = engine._stepping(conn, traj, state, t_max, opts, certify)
    assert hexed(_record(got)) == hexed(_record(ref))
    return got


def _agree_from_start(conn, initial, t_max, opts=None, certify=False):
    return _assert_loops_agree(conn, *engine._start(conn, initial, t_max),
                               t_max, opts, certify)


class TestStepLoop:
    """The step loop generated per pole count against the loop it replaced."""

    @pytest.mark.parametrize("name", ["circle", "three_pole", "selfcross",
                                      "switch", "certified"])
    def test_long_traces(self, column_traces, name):
        conn, start, t_max, certify = _long_traces(column_traces)[name]
        traj = _agree_from_start(conn, start, t_max, certify=certify)
        assert traj.termination == ("pole_certified" if certify else "t_max")

    def test_pole_floor_ends(self):
        cases = [(single_pole(0.5), (1.0, -1.0), 2.0),
                 (single_pole(0.5), (-(engine.H0 * (1 / 5)), 1.0), 1.0),
                 (single_pole(-0.5), (1.0, -1.0 + 1e-7j), 3.0)]
        # the second start again, with the rho = 0.5 pole the last of n = 2
        # to 7: the screen must test each pole's own z1 - p_j, whatever else
        # the step names
        for n in range(2, 8):
            far = [SpherePoint.of(4.0 * cmath.exp(2j * math.pi * k / n + 0.3j))
                   for k in range(n - 1)]
            conn = build_connection([(p, -0.2) for p in far]
                                    + [(SpherePoint.of(0.0), 0.5)])
            assert conn.chart_poles("standard")[-1] == (0j, 0.5)
            cases.append((conn, cases[1][1], 1.0))
        for conn, start, t_max in cases:
            traj = _agree_from_start(conn, start, t_max)
            assert traj.termination == "pole_approach"
            assert traj.events[-2][2]["pole"] == SpherePoint.of(0.0)

    def test_loops_are_plain_functions(self):
        # the driver and the generated loop run to their end and return
        assert not inspect.isgeneratorfunction(engine._stepping)
        assert not inspect.isgeneratorfunction(engine._step_loop(3))

    def test_flat_plane(self, trivial_conn):
        # the loop of no poles, out past the switch radius into the chart
        # of the pole at infinity
        traj = _agree_from_start(trivial_conn, (0.3, 1.0 + 0.5j), 50.0)
        assert traj.switches and traj.termination == "t_max"

    def test_step_cap(self, column_traces):
        conn, start, t_max, _ = _long_traces(column_traces)["switch"]
        for cap in (1, 57, 300):
            traj = _agree_from_start(conn, start, t_max,
                                     engine.IntegratorOptions(max_steps=cap))
            assert traj.termination == "max_steps" and len(traj) <= cap + 1

    def test_classify_traces(self):
        # classify's traces: certified, under ClassifyBudget's step cap
        opts = engine.IntegratorOptions(max_steps=60_000)
        ends = Counter(_agree_from_start(conn, ic, 60.0, opts, True).termination
                       for conn, ic in audit_draws(0, 40))
        assert set(ends) == {"t_max", "pole_approach", "pole_certified"}

    def test_lanes_handed_back(self, monkeypatch):
        # the rows and state each lane of the saddle launches returns to the
        # scalar loop with
        conn = build_connection(TWOGON)
        handed = []

        def stepping(conn, traj, state, *args, _run=engine._stepping, **kw):
            handed.append((_clone(traj), state, args))
            return _run(conn, traj, state, *args, **kw)
        monkeypatch.setattr(engine, "_stepping", stepping)
        engine.trace_many(conn, saddle_launches(conn), 10.0)
        monkeypatch.undo()
        assert len(handed) > 2
        ends = Counter(_assert_loops_agree(conn, traj, state, *args).termination
                       for traj, state, args in handed)
        assert ends["pole_approach"] >= 2 and ends["t_max"] > 0


# -- columnar storage -----------------------------------------------------------
# References written over TrajectorySample objects, as the consumers were
# before the trajectory became columns; the columnar ones must give the same
# bits.

def _ref_accel(conn, chart, z, v):
    f = 0j
    for pos, res in conn.chart_poles(chart):
        f += res / (z - pos)
    return -f * v * v


def _ref_interpolate(conn, samples, t):
    ts = [s.t for s in samples]
    i = max(0, min(bisect.bisect_right(ts, t) - 1, len(ts) - 2))
    a, b = samples[i], samples[i + 1]
    chart = a.state.chart
    z0, v0 = a.state.z, a.state.v
    if b.state.chart == chart:
        z1, v1 = b.state.z, b.state.v
    else:
        z1 = 1.0 / b.state.z
        v1 = -b.state.v / b.state.z ** 2
    # z'' = -f(z) v^2 at both rows, f from the poles of row a's chart
    h = b.t - a.t
    th = (t - a.t) / h if h else 0.0
    z, v = engine._hermite(z0, v0, _ref_accel(conn, chart, z0, v0), z1, v1,
                           _ref_accel(conn, chart, z1, v1), h, th)
    if chart == "infinity":
        z, v = 1.0 / z, -v / z ** 2
    return z, v


def _ref_first_integral(samples):
    c0 = samples[0].c
    return c0, max(abs(s.c - c0) for s in samples) / abs(c0)


def _ref_csv(samples):
    lines = [CSV_HEADER]
    for s in samples:
        z, v = s.z_std, s.v_std
        lines.append(",".join(f"{x:.17g}" for x in
                              (s.t, z.real, z.imag, v.real, v.imag, s.s_g)))
    return "\n".join(lines) + "\n"


COLUMN_TRACES = ("switch", "certified", "fall", "pole_approach",
                 "from_infinity", "circle", "outer_circle")


class TestColumns:
    @pytest.mark.parametrize("name", COLUMN_TRACES)
    def test_consumers_match_per_sample_references(self, column_traces, name):
        traj = column_traces[name]
        samples = traj.samples
        assert len(traj) == len(samples)
        assert hexed(traj.times) == hexed([s.t for s in samples])
        assert traj.t_end == samples[-1].t
        zs, vs = traj.std_columns()
        assert hexed(traj.support_std()) == hexed([s.z_std for s in samples])
        assert hexed(zs) == hexed([s.z_std for s in samples])
        assert hexed(vs) == hexed([s.v_std for s in samples])
        assert hexed(first_integral(traj)) == hexed(_ref_first_integral(samples))
        # lines, not the whole text: a failing text diff takes minutes
        assert trajectory_to_csv(traj).splitlines() == _ref_csv(samples).splitlines()
        # interpolate at and between sample times, around every chart switch
        # and over the whole span
        ks = set(range(0, len(samples) - 1, max(1, len(samples) // 120)))
        for k in traj.switches:
            ks |= {k - 2, k - 1, k}
        for k in sorted(k for k in ks if 0 <= k < len(samples) - 1):
            for t in (samples[k].t, 0.5 * (samples[k].t + samples[k + 1].t)):
                assert hexed(traj.interpolate(t)) \
                    == hexed(_ref_interpolate(traj.conn, samples, t))

    @pytest.mark.parametrize("name", COLUMN_TRACES)
    def test_support_array_is_the_standard_support(self, column_traces, name):
        traj = column_traces[name]
        arr = traj.support_array()
        assert arr.dtype == complex and arr.shape == (len(traj),)
        # the infinity chart's 1.0 / z of a real z is a float: the array
        # holds it as a complex
        assert hexed(arr) == hexed([complex(s.z_std) for s in traj.samples])

    @pytest.mark.parametrize("name", COLUMN_TRACES)
    def test_chart_switches_follow_the_events(self, column_traces, name):
        # the rows after each chart_switch event are in the new chart
        traj = column_traces[name]
        charts = [s.state.chart for s in traj.samples]
        flips = [k for k in range(1, len(charts)) if charts[k] != charts[k - 1]]
        logged = [(traj.times.index(t) + 1, p["to"])
                  for t, kind, p in traj.events if kind == "chart_switch"]
        assert [(k, charts[k]) for k in flips] == logged
        assert charts[0] == ("infinity" if name in ("from_infinity", "outer_circle")
                             else "standard")
        # each standard-chart move is at most the step's arc length, about
        # h max|v| over the step's ends, also across the switches (a row
        # left uninverted jumps to 1/z, 8 times that at the switch radius)
        zs, vs = traj.std_columns()
        ts = traj.times
        assert all(abs(zs[k + 1] - zs[k])
                   <= 1.01 * (ts[k + 1] - ts[k]) * max(abs(vs[k]), abs(vs[k + 1]))
                   for k in range(len(ts) - 1))
        if name in ("switch", "from_infinity"):
            assert logged

    @pytest.mark.parametrize("name", COLUMN_TRACES)
    def test_columns_round_trip_through_samples(self, column_traces, name):
        traj = column_traces[name]
        again = Trajectory(conn=traj.conn, samples=traj.samples,
                           events=traj.events)
        for col in ("t", "z", "v", "K", "s_g", "switches"):
            assert hexed(getattr(again, col)) == hexed(getattr(traj, col))
        assert again.chart0 == traj.chart0
        assert trajectory_to_csv(again).splitlines() \
            == trajectory_to_csv(traj).splitlines()

    def test_hand_built_samples_keep_their_arclength(self, column_traces):
        # s_g here is not speed * t, and the charts change row by row; the
        # samples come back as given and the CSV carries the given s_g
        # 550 rows from a standard-chart row 13 rows before the first
        # switch, across the first two switches
        start = column_traces["switch"].switches[0] - 13
        src = column_traces["switch"].samples[start:start + 550]
        hand = [TrajectorySample(s.t, s.state, math.sqrt(k) + 0.25 * s.t)
                for k, s in enumerate(src)]
        hand[3] = TrajectorySample(hand[3].t, GeodesicState(
            "infinity", *engine._invert(hand[3].z_std, hand[3].v_std),
            hand[3].state.k_phase), hand[3].s_g)
        traj = Trajectory(conn=column_traces["switch"].conn, samples=hand)
        assert traj.samples == hand
        assert traj.chart0 == "standard"
        assert traj.switches[:2] == [3, 4]
        assert trajectory_to_csv(traj).splitlines() == _ref_csv(hand).splitlines()
        assert hexed(first_integral(traj)) == hexed(_ref_first_integral(hand))
