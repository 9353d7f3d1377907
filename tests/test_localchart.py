"""Pole-local geometry: adapted charts, closed-form geodesics, crossing and
self-intersection thresholds."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connexion import (DirectionInterval, SpherePoint, build_connection,
                       adapted_chart, closed_form_path, critical_length,
                       diameter_bound, entry_direction, is_critical,
                       local_params, must_cross, self_intersection_radius,
                       trace)
from connexion import errors
from connexion.engine import POLE_FLOOR
from connexion.localchart import (CRITICAL_TOL, DEFAULT_N, FALL_ETA,
                                  RESIDUAL_TOL, AdaptedChart, _ser_diff,
                                  _ser_eval, pole_chart)

from conftest import saddle_connections, single_pole


class TestAdaptedChart:
    def test_single_pole_chart_is_scaled_identity(self):
        # for f = rho/z the adapted coordinate is w = z times a constant,
        # and the chart takes the constant w/zeta = 1
        conn = single_pole(0.5)
        chart = adapted_chart(conn, SpherePoint.of(0.0))
        for u in (0.01, 0.2j, 0.1 - 0.1j):
            if abs(u) < chart.radius:
                assert chart.to_w(u) == u

    def test_residual_below_tolerance(self):
        conn = build_connection([(SpherePoint.of(0.0), 0.5),
                                 (SpherePoint.of(1.0), -0.25)])
        chart = adapted_chart(conn, SpherePoint.of(0.0))
        assert chart.residual <= 1e-8
        assert 0 < chart.radius <= 0.5

    def test_dw_is_the_derivative_series(self):
        # dw evaluates the derivative series built once per chart; it must
        # equal the series derived from w_coeffs() at every call
        conn = build_connection([(SpherePoint.of(0.0), -1.5),
                                 (SpherePoint.of(1.0), 0.3)])
        chart = adapted_chart(conn, SpherePoint.of(0.0))
        dw = _ser_diff(list(chart.w_coeffs()))
        rng = np.random.default_rng(17)
        r = chart.radius * np.sqrt(rng.uniform(0.0, 1.0, 200))
        for u in chart.center + r * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, 200)):
            u = complex(u)
            assert chart.dw(u) == _ser_eval(dw, u - chart.center)

    def test_residue_minus_one_chart(self, circle_conn):
        # rho = -1 is not resonant: with only the pole at infinity besides,
        # the chart is w = zeta, exactly
        chart = adapted_chart(circle_conn, SpherePoint.of(0.0))
        assert chart.residual == 0.0
        assert all(c == 0 for c in chart.series[1:])
        assert chart.to_w(0.3 - 0.2j) == 0.3 - 0.2j

    def test_chart_fields(self):
        # the chart records its radius, its series to order DEFAULT_N and
        # the residual it passed at that radius
        chart = adapted_chart(single_pole(1.0), SpherePoint.of(0.0))
        assert chart.radius > 0.0
        assert len(chart.series) - 1 == DEFAULT_N
        assert 0.0 <= chart.residual <= RESIDUAL_TOL

    def test_residue_below_minus_one_with_second_pole(self):
        conn = build_connection([(SpherePoint.of(0.0), -1.5),
                                 (SpherePoint.of(1.0), 0.3)])
        chart = adapted_chart(conn, SpherePoint.of(0.0))
        assert chart.residual <= 1e-8
        assert 0 < chart.radius <= 0.5
        # the chart takes w/zeta = 1 at the pole
        assert chart.series[0] == 1

    def test_resonant_residue_rejected(self):
        with pytest.raises(errors.ResonantOrLow):
            adapted_chart(single_pole(-2.0), SpherePoint.of(0.0))

    @pytest.mark.parametrize("rho", [-0.995, -1.0028])
    def test_near_resonant_residue_charted(self, rho):
        # |1/(rho+1)|^{1/(rho+1)} overflows at -0.995 and underflows to 0
        # at -1.0028; the chart carries no such constant and builds
        chart = adapted_chart(single_pole(rho), SpherePoint.of(0.0))
        assert chart.residual <= 1e-8


def test_at_w_places_each_target(monkeypatch):
    # on every chart of the saddle corpus, two of them more than ten radii
    # from the origin, at_w places the launch (|w| = 0.05 radius), the disc
    # exit (|w| = w_in) and the landing (|w| = POLE_FLOOR) on their w to
    # 1e-14 relative and the rounding of u = center + zeta, in at most 3, 6
    # and 1 Newton steps: its start, the series reversed to third order, is
    # exact to rounding at the floor.  w' comes from the last step's
    # iterate, within the rounding of u of w'(u)
    steps = []
    monkeypatch.setattr(AdaptedChart, "dw", lambda self, u, _f=AdaptedChart.dw:
                        steps.append(u) or _f(self, u))
    worst, far = {}, 0
    for conn in saddle_connections():
        for p in conn.poles:
            chart = pole_chart(conn, p.location)
            if chart is None:
                continue
            far += abs(chart.center) > 10.0 * chart.radius
            for m, most in ((0.05 * chart.radius, 3), (chart.w_in, 6),
                            (POLE_FLOOR, 1)):
                for k in range(16):
                    w1 = m * cmath.exp(2j * math.pi * k / 16)
                    steps.clear()
                    u, dw = chart.at_w(w1)
                    worst[most] = max(worst.get(most, 0), len(steps))
                    assert abs(chart.dw(u) - dw) <= 1e-13 * abs(dw)
                    assert (abs(chart.to_w(u) - w1)
                            <= 1e-14 * m + 2.0 ** -52 * abs(u) * abs(dw))
    assert far >= 2
    assert all(n <= most for most, n in worst.items())


def two_pole_chart(rho, q, rho_q):
    """The chart at 0 of residue rho, with a second pole of residue rho_q
    at q."""
    conn = build_connection([(SpherePoint.of(0.0), rho),
                             (SpherePoint.of(q), rho_q)])
    return conn, adapted_chart(conn, SpherePoint.of(0.0))


class TestChartAtMinusOne:
    """Charts at and near rho = -1: they build, reach as far as the
    rho = -1 chart, and straighten the geodesics."""

    @given(st.one_of(st.just(-1.0), st.floats(min_value=-1.01, max_value=-0.99)),
           st.floats(min_value=0.3, max_value=2.0),
           st.floats(min_value=0.0, max_value=2 * math.pi),
           st.floats(min_value=-0.8, max_value=1.0),
           st.floats(min_value=0.0, max_value=2 * math.pi),
           st.floats(min_value=0.0, max_value=2 * math.pi))
    @settings(max_examples=60, deadline=None)
    def test_chart_straightens_geodesics(self, rho, d, th, rho_q, th0, phi):
        q = d * cmath.exp(1j * th)
        conn, chart = two_pole_chart(rho, q, rho_q)
        assert chart.residual <= 1e-8
        assert chart.radius >= 0.8 * two_pole_chart(-1.0, q, rho_q)[1].radius
        # the metric is C |w|^rho |dw|, and a trace keeps its metric speed:
        # W moves on a straight line at constant speed
        z0 = 0.5 * chart.radius * cmath.exp(1j * th0)
        speeds = []
        for s in trace(conn, (z0, cmath.exp(1j * phi)), 2.0).samples:
            if abs(s.z_std) < 0.9 * chart.radius:
                w, dw = chart.push_state(s.z_std, s.v_std)
                speeds.append(abs(w) ** rho * abs(dw))
        assert len(speeds) > 1
        assert max(abs(x / speeds[0] - 1.0) for x in speeds) <= 1e-8

    def test_entry_direction_matches_local_params(self):
        conn, chart = two_pole_chart(-1.0, 1.0 + 0.5j, 0.4)
        for u, v in ((0.1, 0.3j), (-0.05 + 0.1j, 1.0 - 0.2j), (0.2j, -1.0)):
            par = local_params(-1.0, 1.0, *chart.push_state(u, v))
            assert entry_direction(chart, (u, v)) == \
                pytest.approx(cmath.phase(par.a) % (2 * math.pi), abs=1e-12)


def first_certified_index(traj, chart, w_in):
    """Index of the first sample after the start that lies in the disc
    |w| < w_in and moves inward with margin, or None."""
    for i, s in enumerate(traj.samples[1:], 1):
        u = s.z_std - chart.center
        if abs(u) >= 0.9 * chart.radius:
            continue
        w, dw = chart.push_state(s.z_std, s.v_std)
        q = dw / w
        if abs(w) < w_in and q.real < -FALL_ETA * abs(q):
            return i
    return None


class TestFallCertificate:
    @pytest.mark.parametrize("z0, v0, t_max", [
        (6.0, -1.0 + 0.2j, 30.0),                     # inward from outside
        (2.0, cmath.exp(1j * (math.pi / 2 - 0.02)), 30.0),  # outward, turns
        (1.0, 1.0, 1.5),                              # radially outward
    ])
    def test_exact_chart_certifies_first_inward_sample(self, z0, v0, t_max):
        # one pole of residue -1.5: w = z exactly, so the disc is
        # |z| < 0.9 radius and |w| decreases exactly when Re(v/z) < 0
        conn = single_pole(-1.5)
        chart = adapted_chart(conn, SpherePoint.of(0.0))
        w_in = chart.w_in
        assert chart.residual == 0.0
        assert w_in == pytest.approx(0.9 * chart.radius, rel=1e-12)
        full = trace(conn, (z0, v0), t_max)
        cert = trace(conn, (z0, v0), t_max, certify=True)
        k = first_certified_index(full, chart, w_in)
        if k is None:
            assert cert.termination == full.termination != "pole_certified"
            assert cert.samples == full.samples
            return
        assert cert.termination == "pole_certified"
        assert cert.samples == full.samples[:k + 1]
        t, kind, payload = cert.events[-2]
        assert (t, kind) == (cert.t_end, "pole_certified")
        assert payload["pole"] == SpherePoint.of(0.0)
        z, v = cert.samples[-1].z_std, cert.samples[-1].v_std
        assert payload["abs_w"] == (pytest.approx(abs(z)), w_in)
        assert payload["descent"] == (
            pytest.approx((v / z).real / abs(v / z)), -FALL_ETA)

    def test_outward_state_is_certified_only_after_turning(self):
        conn = single_pole(-1.5)
        z0, v0 = 2.0, cmath.exp(1j * (math.pi / 2 - 0.02))
        cert = trace(conn, (z0, v0), 30.0, certify=True)
        full = trace(conn, (z0, v0), 30.0)
        turn = max(full.samples, key=lambda s: abs(s.z_std)).t
        assert cert.termination == "pole_certified"
        assert cert.t_end > turn

    def test_second_pole_chart_certifies_first_sample_in_disc(self):
        conn = build_connection([(SpherePoint.of(0.0), -1.5),
                                 (SpherePoint.of(1.0), 0.3)])
        chart = adapted_chart(conn, SpherePoint.of(0.0))
        w_in = chart.w_in
        ic = (-0.8 + 0.1j, 1.0 + 0.25j)
        full = trace(conn, ic, 20.0)
        cert = trace(conn, ic, 20.0, certify=True)
        k = first_certified_index(full, chart, w_in)
        assert k is not None
        # the first in-chart sample lies outside the inscribed w-disc
        first_in = next(i for i, s in enumerate(full.samples)
                        if abs(s.z_std) < 0.9 * chart.radius)
        assert first_in < k
        assert cert.termination == "pole_certified"
        assert cert.samples == full.samples[:k + 1]


class TestLandingCertificate:
    """``AdaptedChart.lands_in`` at the pole 1 of the two-gon of residue
    1/2 at -1 and 1: its chart's series is real, so a state on the real
    axis moving along it lies exactly on a critical ray."""

    @pytest.fixture(scope="class")
    def twogon(self):
        conn = build_connection([(SpherePoint.of(-1.0), 0.5),
                                 (SpherePoint.of(1.0), 0.5)])
        return conn, adapted_chart(conn, SpherePoint.of(1.0))

    def test_critical_state_lands_at_the_hit_time(self, twogon):
        # the hit time is the trace's time to the pole floor, less the
        # stretch of the ray inside the floor, 1e-9 of it here
        conn, chart = twogon
        u = 1.0 - 0.3 * chart.radius
        cert = chart.lands_in(u, 1.0)
        assert cert["critical"] == (0.0, CRITICAL_TOL)
        w, vw = chart.push_state(u, 1.0)
        assert cert["dt_hit"] == pytest.approx(abs(w / vw) / 1.5, rel=1e-15)
        end = trace(conn, (u, 1.0), 10.0)
        assert end.termination == "pole_approach"
        assert end.t_end == pytest.approx(cert["dt_hit"], rel=1e-8)

    def test_state_off_the_line_does_not_land(self, twogon):
        # 1e-6 off the critical line is far above CRITICAL_TOL; 1e-10 is
        # within it, and the figure reads it
        _, chart = twogon
        u = 1.0 - 0.3 * chart.radius
        assert chart.lands_in(u, cmath.exp(1e-6j)) is None
        tau, tol = chart.lands_in(u, cmath.exp(1e-10j))["critical"]
        assert tau == pytest.approx(1e-10, rel=1e-3) and tol == CRITICAL_TOL

    def test_outward_state_does_not_land(self, twogon):
        _, chart = twogon
        assert chart.lands_in(1.0 - 0.3 * chart.radius, -1.0) is None

    def test_only_within_half_the_radius(self, twogon):
        # the series holds to rounding only within 0.5 radius: on the
        # critical ray no landing at 0.6 radius, and one at 0.49
        _, chart = twogon
        assert chart.lands_in(1.0 - 0.6 * chart.radius, 1.0) is None
        assert chart.lands_in(1.0 - 0.49 * chart.radius, 1.0) is not None


class TestLocalParams:
    @given(st.floats(min_value=-0.95, max_value=3.0),
           st.floats(min_value=0.1, max_value=0.9),
           st.floats(min_value=-math.pi, max_value=math.pi),
           st.floats(min_value=0.0, max_value=2 * math.pi),
           st.floats(min_value=0.3, max_value=2.0))
    @settings(max_examples=150, deadline=None)
    def test_reproduction_property(self, rho, r0, th0, phi, speed):
        """chi(a t + b) passes through (z0, v0) at t = 0."""
        z0 = r0 * cmath.exp(1j * th0)
        v0 = speed * cmath.exp(1j * phi)
        par = local_params(rho, 1.0, z0, v0)
        ts = np.array([0.0, 1e-6])
        zs = closed_form_path(par, ts)
        assert abs(zs[0] - z0) < 1e-9 * max(1.0, abs(z0))
        v_num = (zs[1] - zs[0]) / 1e-6
        assert abs(v_num - v0) < 1e-4 * max(1.0, abs(v0))

    def test_rho_minus_one_circle(self):
        par = local_params(-1.0, 2.0, 1.0, 1j)
        ts = np.linspace(0.0, 2 * math.pi, 50)
        zs = closed_form_path(par, ts)
        assert np.max(np.abs(np.abs(zs) - 1.0)) < 1e-12
        assert abs(zs[-1] - 1.0) < 1e-9

    def test_start_at_pole_rejected(self):
        with pytest.raises(errors.AtPole):
            local_params(0.5, 1.0, 0.0, 1.0)


class TestCriticality:
    def test_radial_velocity_is_critical(self):
        z0 = 0.5 * cmath.exp(0.7j)
        par = local_params(0.5, 1.0, z0, -z0 / abs(z0))
        assert is_critical(par)

    def test_tangential_velocity_is_not(self):
        z0 = 0.5 * cmath.exp(0.7j)
        par = local_params(0.5, 1.0, z0, 1j * z0 / abs(z0))
        assert not is_critical(par)

    def test_critical_length_formula(self):
        assert critical_length(0.5, 1.0) == pytest.approx(2.0 / 3.0)
        assert critical_length(1.0, 2.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            critical_length(-1.0, 1.0)

    def test_diameter_is_twice_critical_length(self):
        assert diameter_bound(0.5, 1.0) == 2 * critical_length(0.5, 1.0)


class TestMustCross:
    def test_gap_inside_open_interval(self):
        # pi/(rho+1) = pi/1.5 for rho = 0.5
        assert must_cross(0.5, 0.0, 1.0)
        assert not must_cross(0.5, 0.0, 0.0)            # zero gap
        assert not must_cross(0.5, 0.0, math.pi / 1.5)  # boundary
        assert not must_cross(0.5, 0.0, 3.0)            # too wide

    def test_gap_measured_modulo_2pi(self):
        assert must_cross(0.5, 0.1, 2 * math.pi - 0.1)


class TestSelfIntersectionRadius:
    def test_matches_closed_form(self):
        # beta(tau) = pi - 2 asin(tau/R) = 2 pi (rho+1)
        # -> tau0 = R cos(pi (rho+1)), delta0 = tau0 / (rho+1)
        for rho, r in ((-0.9, 1.0), (-0.75, 1.0), (-0.6, 2.0)):
            R = r ** (rho + 1.0)
            tau0 = R * math.cos(math.pi * (rho + 1.0))
            expect = tau0 / (rho + 1.0)
            assert self_intersection_radius(rho, r) == \
                pytest.approx(expect, rel=1e-9)

    def test_out_of_range_rho_rejected(self):
        with pytest.raises(errors.OutOfRange):
            self_intersection_radius(0.5, 1.0)
        with pytest.raises(errors.OutOfRange):
            self_intersection_radius(-0.5, 1.0)


class TestDirectionInterval:
    def test_short_arc(self):
        iv = DirectionInterval(0.5, 1.0, 1.5)
        assert iv.arcs() == [(1.0, 1.5)]
        assert iv.length == pytest.approx(0.5)
        assert iv.contains(1.2)
        assert not iv.contains(0.5)

    def test_wrapping_complement(self):
        # long arc between beta1, beta2: the set wraps through 0
        iv = DirectionInterval(0.5, 0.5, 2 * math.pi - 0.5)
        assert iv.arcs() == [(0.0, 0.5), (2 * math.pi - 0.5, 2 * math.pi)]
        assert iv.contains(0.1) and iv.contains(6.0)
        assert not iv.contains(math.pi)

    def test_precondition_guard(self):
        # neither arc shorter than pi/(rho+1): not a valid direction set
        with pytest.raises(ValueError):
            DirectionInterval(0.5, 1.0, 4.0)

    @pytest.mark.parametrize("rho", [-1.0, -1.5, math.nan])
    def test_rho_at_or_below_minus_one_refused(self, rho):
        # pi/(rho+1) is no angle there: refused as critical_length does
        with pytest.raises(ValueError, match=r"need rho > -1"):
            DirectionInterval(rho, 1.0, 1.5)


class TestEntryDirection:
    def test_direction_of_outgoing_critical_ray(self):
        # an outgoing radial geodesic has direction angle equal to the ray
        # argument; the incoming one is shifted by pi/(rho+1)
        conn = single_pole(0.5)
        chart = adapted_chart(conn, SpherePoint.of(0.0))
        z0 = 0.2 * cmath.exp(0.4j)
        out_dir = entry_direction(chart, (z0, z0 / abs(z0)))
        in_dir = entry_direction(chart, (z0, -z0 / abs(z0)))
        assert out_dir == pytest.approx(0.4, abs=1e-8)
        assert (in_dir - out_dir) % (2 * math.pi) == \
            pytest.approx(2 * math.pi - math.pi / 1.5, abs=1e-8)
