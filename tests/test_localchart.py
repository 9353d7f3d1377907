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
from connexion.localchart import FALL_ETA, _ser_diff, _ser_eval

from conftest import single_pole


class TestAdaptedChart:
    def test_single_pole_chart_is_scaled_identity(self):
        # for f = rho/z the adapted coordinate is w = z / (rho+1)^{1/(rho+1)}
        conn = single_pole(0.5)
        chart = adapted_chart(conn, SpherePoint.of(0.0))
        scale = (1.0 / 1.5) ** (1.0 / 1.5)
        for u in (0.01, 0.2j, 0.1 - 0.1j):
            if abs(u) < chart.radius:
                assert chart.to_w(u) == pytest.approx(scale * u, rel=1e-10)

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

    def test_low_residue_rejected(self, circle_conn):
        with pytest.raises(errors.ResonantOrLow):
            adapted_chart(circle_conn, SpherePoint.of(0.0))

    def test_report_keys(self):
        chart = adapted_chart(single_pole(1.0), SpherePoint.of(0.0))
        rep = chart.report()
        assert {"radius", "order", "residual"} <= set(rep)

    def test_residue_below_minus_one_with_second_pole(self):
        conn = build_connection([(SpherePoint.of(0.0), -1.5),
                                 (SpherePoint.of(1.0), 0.3)])
        chart = adapted_chart(conn, SpherePoint.of(0.0))
        assert chart.residual <= 1e-8
        assert 0 < chart.radius <= 0.5
        # w/zeta is pinned to the positive real |1/(rho+1)|^{1/(rho+1)}
        assert chart.series[0] == pytest.approx(2.0 ** -2.0, rel=1e-14)

    def test_resonant_residue_rejected(self):
        with pytest.raises(errors.ResonantOrLow):
            adapted_chart(single_pole(-2.0), SpherePoint.of(0.0))

    @pytest.mark.parametrize("rho", [-0.995, -1.0028])
    def test_pin_out_of_float_range_rejected(self, rho):
        # |1/(rho+1)|^{1/(rho+1)} overflows at -0.995 and underflows to 0
        # at -1.0028; both are refused before any residual round
        with pytest.raises(errors.SeriesDivergence, match="normal float"):
            adapted_chart(single_pole(rho), SpherePoint.of(0.0))


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
        # one pole of residue -1.5: w = z / 4 exactly, so the disc is
        # |z| < 0.9 radius and |w| decreases exactly when Re(v/z) < 0
        conn = single_pole(-1.5)
        chart = adapted_chart(conn, SpherePoint.of(0.0))
        w_in = chart.inscribed_w()
        assert chart.residual == 0.0
        assert w_in == pytest.approx(0.9 * chart.radius / 4.0, rel=1e-12)
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
        assert payload["abs_w"] == (pytest.approx(abs(z) / 4.0), w_in)
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
        w_in = chart.inscribed_w()
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
