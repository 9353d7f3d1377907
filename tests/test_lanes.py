"""Lockstep lanes (``engine.trace_many``) against the scalar ``trace``.

numpy's complex arithmetic need not round like CPython's, and the lanes sum
a step's stages in another order, so a lane may take other steps than the
scalar trace: the lanes are pinned to it at the ends of the traces, to a
tolerance, and not row by row.  A batch too small for lanes runs the scalar
loop and returns trace's columns exactly.
"""

import cmath
import math

import pytest

from connexion import (SpherePoint, build_connection, first_integral, trace)
from connexion import engine, errors, omega
from connexion.engine import LANES_MIN, IntegratorOptions, trace_many
from connexion.localchart import pole_chart

from conftest import SWITCH_POLES, hexed, single_pole

TWOGON = [(SpherePoint.of(-1.0), 0.5), (SpherePoint.of(1.0), 0.5)]


def saddle_launches(conn, n_grid=64):
    """The critical launches of ``saddle_connection_search``."""
    out = []
    for pos, _ in conn.chart_poles("standard"):
        chart = pole_chart(conn, SpherePoint.of(pos))[0]
        for k in range(n_grid):
            out.append(omega._critical_launch(conn, chart, 0.05 * chart.radius,
                                              2.0 * math.pi * k / n_grid)[0])
    return out


def grid(z0, n=72):
    return [(z0, cmath.exp(2j * math.pi * k / n)) for k in range(n)]


def end_state(traj):
    zs, vs = traj.std_columns()
    return zs[-1], vs[-1]


def assert_lanes_match(conn, starts, t_max):
    """Each lane ends as the scalar trace does: the same termination and
    number of chart switches, the end position and time within
    1e-10 max(1, |z|), and c held to 1e-12.  The end velocity is compared
    too, except at a pole floor: there v ~ |z - p|^-rho, and a rounding
    change delta in z moves v by rho delta / 1e-6 relative."""
    lanes = trace_many(conn, starts, t_max)
    assert len(lanes) == len(starts)
    for start, got in zip(starts, lanes):
        ref = trace(conn, start, t_max)
        assert got.termination == ref.termination
        assert len(got.switches) == len(ref.switches)
        assert [e[1:] for e in got.events if e[1] == "chart_switch"] == \
            [e[1:] for e in ref.events if e[1] == "chart_switch"]
        (zg, vg), (zr, vr) = end_state(got), end_state(ref)
        tol = 1e-10 * max(1.0, abs(zr))
        assert abs(zg - zr) <= tol
        if ref.termination != "pole_approach":
            assert abs(vg - vr) <= 1e-10 * max(1.0, abs(vr))
        assert abs(got.t_end - ref.t_end) <= tol
        assert got.events[-1] == (got.t_end, "terminated",
                                  {"reason": got.termination})
        assert got.s_g[-1] == pytest.approx(ref.s_g[-1], rel=1e-10)
        assert first_integral(got)[1] <= 1e-12
    return lanes


def test_saddle_launches():
    conn = build_connection(TWOGON)
    lanes = assert_lanes_match(conn, saddle_launches(conn), 10.0)
    assert len(lanes) == 128
    # the two real-segment saddle connections end at the other pole's floor
    hits = [tr for tr in lanes if tr.termination == "pole_approach"]
    assert len(hits) >= 2


@pytest.mark.parametrize("pair", ["flat", "curved"])
def test_shooting_grids(trivial_conn, pair):
    # the 72-direction grids of connect_unique, to its horizon
    conn, z0, z1 = {"flat": (trivial_conn, 0j, 2.0 * cmath.exp(0.7j)),
                    "curved": (single_pole(0.5), 1.0, 1j)}[pair]
    assert_lanes_match(conn, grid(z0), 8.0 * abs(z1 - z0) + 8.0)


def test_chart_switches_both_ways():
    conn = build_connection(SWITCH_POLES)
    starts = [(3.0, cmath.exp(0.1j + 2j * math.pi * k / 32)) for k in range(32)]
    lanes = assert_lanes_match(conn, starts, 60.0)
    to = {e[2]["to"] for tr in lanes for e in tr.events if e[1] == "chart_switch"}
    assert to == {"infinity", "standard"}
    assert any(len(tr.switches) >= 2 for tr in lanes)


def test_pole_floor_hits():
    # starts on the real axis of the two-gon move along it into a pole; the
    # others pass the poles
    conn = build_connection(TWOGON)
    starts = [(x / 10.0, sign) for x in range(-7, 8, 2) for sign in (1.0, -1.0)]
    starts += grid(0.3 + 0.4j, 16)
    lanes = assert_lanes_match(conn, starts, 10.0)
    assert sum(tr.termination == "pole_approach" for tr in lanes) >= 16


def test_batch_is_deterministic():
    conn = build_connection(SWITCH_POLES)
    starts = grid(0.5 + 0.5j, 40)

    def columns(trajs):
        return hexed([(tr.t, tr.z, tr.v, tr.K, tr.s_g, tr.switches,
                       [(e[0], e[1]) for e in tr.events]) for tr in trajs])
    assert columns(trace_many(conn, starts, 20.0)) == \
        columns(trace_many(conn, starts, 20.0))


def scalar_columns(traj):
    return (traj.t, traj.z, traj.v, traj.K, traj.s_g, traj.switches,
            traj.events, traj.termination)


@pytest.mark.parametrize("opts", [None, IntegratorOptions(max_seconds=60.0)])
def test_small_or_budgeted_batch_runs_trace(opts):
    # fewer than LANES_MIN starts, or a wall-clock budget: trace's loop
    conn = build_connection(SWITCH_POLES)
    n = LANES_MIN - 1 if opts is None else LANES_MIN + 4
    starts = grid(3.0, n)
    for start, got in zip(starts, trace_many(conn, starts, 60.0, opts)):
        assert scalar_columns(got) == scalar_columns(trace(conn, start, 60.0,
                                                           opts))


def test_step_budget_ends_lanes():
    conn = build_connection(SWITCH_POLES)
    opts = IntegratorOptions(max_steps=5)
    for tr in trace_many(conn, grid(3.0, 20), 60.0, opts):
        assert tr.termination == "max_steps" and len(tr) <= 6


def test_refused_start_is_refused():
    conn = single_pole(0.5)
    with pytest.raises(errors.StartAtPole):
        trace_many(conn, grid(1.0, 20) + [(0.0, 1.0)], 1.0)
    with pytest.raises(errors.ZeroVelocity):
        trace_many(conn, grid(1.0, 20) + [(1.0, 0.0)], 1.0)


def test_lanes_hand_back_to_the_scalar_loop(monkeypatch):
    # the last lanes and the lanes whose chord enters a pole floor finish in
    # trace's loop, from the state they reached
    conn = build_connection(TWOGON)
    handed = []

    def stepping(conn, traj, state, *args, _run=engine._stepping):
        handed.append(state[0])
        return _run(conn, traj, state, *args)
    monkeypatch.setattr(engine, "_stepping", stepping)
    lanes = trace_many(conn, saddle_launches(conn), 10.0)
    hits = sum(tr.termination == "pole_approach" for tr in lanes)
    assert hits < len(handed) < hits + LANES_MIN
    assert all(t > 0.0 for t in handed)
