"""Connection construction, residue bookkeeping, monodromy, serialization."""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connexion import (FuchsianConnection, LoopPath, PoleSpec, SpherePoint,
                       build_connection, connection_from_dict,
                       connection_to_dict, from_k_differential, local_rep,
                       monodromy_of_loop, trace, winding_number)
from connexion import errors


def square_loop(center=0j, half=1.0, positive=True):
    c = complex(center)
    vs = (c + half + half * 1j, c - half + half * 1j,
          c - half - half * 1j, c + half - half * 1j, c + half + half * 1j)
    return LoopPath(vs if positive else vs[::-1])


class TestResidueSumGate:
    def test_explicit_sum_must_be_minus_two(self):
        with pytest.raises(errors.SumMismatch):
            build_connection([(SpherePoint.of(0.0), -0.9),
                              (SpherePoint.inf(), -1.0)])

    def test_violation_above_tolerance_rejected(self):
        with pytest.raises(errors.SumMismatch):
            build_connection([(SpherePoint.of(0.0), -1.0 + 1e-11),
                              (SpherePoint.inf(), -1.0)])

    def test_violation_below_tolerance_accepted(self):
        conn = build_connection([(SpherePoint.of(0.0), -1.0 + 1e-13),
                                 (SpherePoint.inf(), -1.0)])
        assert len(conn.poles) == 2

    def test_implied_infinity_completion_exact(self):
        conn = build_connection([(SpherePoint.of(1.0), 0.25),
                                 (SpherePoint.of(-1.0), 0.75)])
        assert conn.infinity_residue == -3.0 + 0j
        assert sum(p.residue for p in conn.poles) == -2.0 + 0j

    def test_empty_pole_list_rejected(self):
        with pytest.raises(errors.SumMismatch):
            build_connection([])

    def test_duplicate_finite_pole_rejected(self):
        with pytest.raises(errors.DuplicatePole):
            build_connection([(SpherePoint.of(1.0), 0.5),
                              (SpherePoint.of(1.0), 0.5)])

    def test_non_real_residue_rejected_by_default(self):
        with pytest.raises(errors.NonRealResidue):
            build_connection([(SpherePoint.of(0.0), 0.5 + 0.1j)])


class TestChartPoles:
    def test_infinity_chart_pole_positions(self):
        conn = build_connection([(SpherePoint.of(2.0), 0.5),
                                 (SpherePoint.of(-4.0), 0.25)])
        wmap = dict(conn.chart_poles("infinity"))
        assert wmap[0.5 + 0j] == pytest.approx(0.5)      # w = 1/2
        assert wmap[-0.25 + 0j] == pytest.approx(0.25)   # w = -1/4
        assert wmap[0j].real == pytest.approx(-2.75)     # pole at infinity

    def test_local_rep_is_sum_of_simple_poles(self):
        conn = build_connection([(SpherePoint.of(1.0), 0.5),
                                 (SpherePoint.of(-1j), -0.75)])
        z = 0.3 + 0.2j
        expect = 0.5 / (z - 1.0) + (-0.75) / (z + 1j)
        assert local_rep(conn, "standard", z) == pytest.approx(expect)

    def test_eval_at_pole_raises(self):
        conn = build_connection([(SpherePoint.of(1.0), 0.0)])
        with pytest.raises(errors.EvalAtPole):
            local_rep(conn, "standard", 1.0)

    def test_direct_construction_keeps_the_finite_poles(self):
        # a connection built without build_connection has the same pole
        # tables, so the unit circle around its residue -1 pole closes
        poles = (PoleSpec(SpherePoint.of(0.0), -1.0),
                 PoleSpec(SpherePoint.inf(), -1.0))
        direct, built = FuchsianConnection(poles), build_connection(poles)
        for chart in ("standard", "infinity"):
            assert direct.chart_poles(chart) == built.chart_poles(chart)
        a = trace(direct, (1.0, 1j), 2 * math.pi)
        b = trace(built, (1.0, 1j), 2 * math.pi)
        assert (a.t, a.z, a.v, a.K) == (b.t, b.z, b.v, b.K)
        assert abs(a.z[-1] - 1.0) < 1e-9


class TestWinding:
    def test_square_around_origin(self):
        assert winding_number(square_loop(), 0j) == 1
        assert winding_number(square_loop(positive=False), 0j) == -1

    def test_point_outside(self):
        assert winding_number(square_loop(), 3.0 + 0j) == 0

    def test_loop_through_point_raises(self):
        with pytest.raises(errors.LoopThroughPole):
            winding_number(square_loop(), 1.0 + 0j)

    @given(st.integers(min_value=1, max_value=6),
           st.floats(min_value=-0.6, max_value=0.6),
           st.floats(min_value=-0.6, max_value=0.6))
    @settings(max_examples=40, deadline=None)
    def test_refinement_invariance(self, k, px, py):
        """Subdividing edges never changes the winding number."""
        loop = square_loop()
        point = complex(px, py)
        fine = []
        for a, b in zip(loop.vertices[:-1], loop.vertices[1:]):
            for j in range(k):
                fine.append(a + (b - a) * j / k)
        fine.append(loop.vertices[-1])
        assert winding_number(LoopPath(tuple(fine)), point) == \
            winding_number(loop, point)


class TestMonodromy:
    def test_unit_modulus_for_real_residues(self):
        conn = build_connection([(SpherePoint.of(0.0), 0.3),
                                 (SpherePoint.of(3.0), -0.8)])
        m = monodromy_of_loop(conn, square_loop())
        assert abs(abs(m) - 1.0) < 1e-12
        assert m == pytest.approx(cmath.exp(2j * math.pi * 0.3))

    def test_loop_around_both_finite_poles(self):
        conn = build_connection([(SpherePoint.of(0.5), 0.25),
                                 (SpherePoint.of(-0.5), 0.5)])
        m = monodromy_of_loop(conn, square_loop(half=2.0))
        assert m == pytest.approx(cmath.exp(2j * math.pi * 0.75))


class TestKDifferential:
    def test_linear_quadratic_differential(self):
        # q = z dz^2: zero of order 1, k = 2 -> residue 1/2 at the origin
        conn = from_k_differential([(0.0, 1)], [], 2)
        assert conn.residue_at(SpherePoint.of(0.0)) == pytest.approx(0.5)
        assert conn.infinity_residue == pytest.approx(-2.5)

    def test_denominator_roots_count_negative(self):
        conn = from_k_differential([], [(1.0, 2)], 2)
        assert conn.residue_at(SpherePoint.of(1.0)) == pytest.approx(-1.0)
        assert conn.infinity_residue == pytest.approx(-1.0)

    def test_zero_order_rejected(self):
        with pytest.raises(errors.InvalidOrder):
            from_k_differential([(0.0, 0)], [], 2)

    def test_repeated_root_rejected(self):
        with pytest.raises(errors.DuplicateRoot):
            from_k_differential([(0.0, 1), (0.0, 2)], [], 1)


class TestSerialization:
    def test_round_trip(self):
        conn = build_connection([(SpherePoint.of(1.0 + 2.0j), 0.5),
                                 (SpherePoint.of(-1.0), -0.25)])
        again = connection_from_dict(connection_to_dict(conn))
        assert connection_to_dict(again) == connection_to_dict(conn)

    def test_from_dict_infinity_spelling(self):
        conn = connection_from_dict(
            {"poles": [{"re": 0.0, "im": 0.0, "residue": -1.0},
                       {"inf": True, "residue": -1.0}]})
        assert conn.infinity_residue == -1.0 + 0j


class TestRealResidues:
    def test_residues_are_stored_as_float(self):
        conns = [
            build_connection([(SpherePoint.of(0.0), 1),
                              (SpherePoint.of(1.0), 0.5 + 0j),
                              (SpherePoint.inf(), -3.5)]),
            build_connection([(SpherePoint.of(2.0), -0.25)]),
            from_k_differential([(0.0, 1)], [(1.0, 1)], 3),
            connection_from_dict({"poles": [{"re": 0.0, "residue": 0.5},
                                            {"inf": True, "residue": -2.5}]}),
        ]
        for conn in conns:
            assert all(type(p.residue) is float for p in conn.poles)
            assert type(conn.infinity_residue) is float
            assert all(type(r) is float
                       for _, r in conn.chart_poles("infinity"))
