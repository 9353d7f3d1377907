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

from connexion import build_connection, first_integral, trace
from connexion import engine, errors, omega
from connexion.engine import LANES_MIN, GeodesicState, trace_many
from connexion.localchart import CRITICAL_TOL, pole_chart

from conftest import SWITCH_POLES, TWOGON, hexed, saddle_launches, single_pole

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
    # 72-direction fans from two shooting problems' starts, to
    # t = 8 |z1 - z0| + 8
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


def test_small_batch_runs_trace():
    # fewer than LANES_MIN starts: the lanes hand every one back before a
    # step, and trace's loop returns trace's columns bit for bit
    conn = build_connection(SWITCH_POLES)
    starts = grid(3.0, LANES_MIN - 1)
    for start, got in zip(starts, trace_many(conn, starts, 60.0)):
        assert scalar_columns(got) == scalar_columns(trace(conn, start, 60.0))


def test_step_budget_ends_lanes():
    # every lane reaches the budget in the same round and ends in the lanes
    conn = build_connection(SWITCH_POLES)
    begun = [engine._start(conn, s, 60.0) for s in grid(3.0, 20)]
    assert engine._lanes(conn, begun, 60.0, 5, False) == [None] * 20
    for tr, _ in begun:
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

    def stepping(conn, traj, state, *args, _run=engine._stepping, **kw):
        handed.append(state[0])
        return _run(conn, traj, state, *args, **kw)
    monkeypatch.setattr(engine, "_stepping", stepping)
    lanes = trace_many(conn, saddle_launches(conn), 10.0)
    hits = sum(tr.termination == "pole_approach" for tr in lanes)
    assert hits < len(handed) < hits + LANES_MIN
    assert all(t > 0.0 for t in handed)


def rows(traj):
    return hexed((traj.t, traj.z, traj.v, traj.K, traj.s_g, traj.switches))


def keep_every_row(mp):
    """Patch ``engine._lanes`` through the MonkeyPatch ``mp`` so that a
    ``landings`` batch keeps the rows of every lane."""
    def lanes(conn, begun, t_max, max_steps, rows_only, _run=engine._lanes):
        return _run(conn, begun, t_max, max_steps, False)
    mp.setattr(engine, "_lanes", lanes)


@pytest.mark.parametrize("case", ["floor", "switches"])
def test_pole_rows_only_keeps_the_handed_back_rows(monkeypatch, case):
    # in a landings batch the lanes that finish in the batch keep only their
    # start row; every trace keeps its termination and events, and the ones
    # handed back to the scalar loop keep every row, bit for bit, against
    # the same batch with every lane's rows kept
    conn, starts = {
        "floor": (TWOGON, [(x / 10.0, sign) for x in range(-7, 8, 2)
                           for sign in (1.0, -1.0)] + grid(0.3 + 0.4j, 16)),
        "switches": (SWITCH_POLES, grid(3.0, 32))}[case]
    conn = build_connection(conn)
    with monkeypatch.context() as mp:
        keep_every_row(mp)
        full = trace_many(conn, starts, 30.0, landings=True)
    handed = []

    def stepping(conn, traj, state, *args, _run=engine._stepping, **kw):
        handed.append(traj)
        return _run(conn, traj, state, *args, **kw)
    monkeypatch.setattr(engine, "_stepping", stepping)
    lean = trace_many(conn, starts, 30.0, landings=True)
    assert 0 < len(handed) < len(lean)
    for got, ref in zip(lean, full):
        assert got.termination == ref.termination
        assert hexed(got.events) == hexed(ref.events)
        if any(got is tr for tr in handed):
            assert rows(got) == rows(ref)
        else:
            assert rows(got) == hexed(([ref.t[0]], [ref.z[0]], [ref.v[0]],
                                       [ref.K[0]], [ref.s_g[0]], []))
    if case == "floor":
        assert any(tr.termination == "pole_approach" for tr in handed)
    else:
        assert any(ref.switches for got, ref in zip(lean, full)
                   if len(got) == 1)


def test_saddle_search_keeps_the_same_connections(monkeypatch):
    # the saddle search asks for rows only where a launch may land; with
    # every row it finds the same connections
    conn = build_connection(TWOGON)

    def found():
        return hexed([(s.start_pole.z, s.end_pole.z, s.launch_angle, s.length,
                       s.trajectory.t, s.trajectory.z, s.trajectory.events)
                      for s in omega.saddle_connection_search(conn, 64, 10.0)])
    lean = found()
    keep_every_row(monkeypatch)
    assert found() == lean and len(lean) >= 2


def test_lanes_and_scalar_loop_land_alike(monkeypatch):
    # a landings batch checks the state each lane hands back, so the saddle
    # search lands the same connections with every launch in the scalar
    # loop, on the same floor rows to rounding
    conn = build_connection(TWOGON)

    def landed():
        return [(s.start_pole, s.end_pole, s.launch_angle, s.length,
                 s.trajectory.z[-1], s.trajectory.events[-2])
                for s in omega.saddle_connection_search(conn, 64, 10.0)]
    lanes = landed()
    monkeypatch.setattr(engine, "LANES_MIN", 10 ** 6)
    scalar = landed()
    assert len(lanes) == len(scalar) == 2
    for a, b in zip(lanes, scalar):
        assert a[:3] == b[:3]
        assert a[3] == pytest.approx(b[3], rel=1e-12)
        assert abs(a[4] - b[4]) <= 1e-15
        assert "critical" in a[5][2] and "critical" in b[5][2]


def test_handed_back_states_are_screened(monkeypatch):
    # sixteen starts on the two-gon's real axis run along critical rays
    # into its poles.  Lanes hand some of them back just before a step into
    # the pole floor; the landing screen of the state handed back lands
    # them, where the scalar loop's next step would end in _pole_hit
    conn = build_connection(TWOGON)
    hits = []

    def counting(*args, _hit=engine._pole_hit):
        hits.append(args)
        return _hit(*args)
    monkeypatch.setattr(engine, "_pole_hit", counting)
    starts = [(x / 10.0, sign) for x in range(-7, 8, 2) for sign in (1.0, -1.0)]
    assert len(starts) >= LANES_MIN
    ends = [tr.events[-2] for tr in trace_many(conn, starts, 30.0,
                                                landings=True)]
    assert hits == []
    assert all(kind == "pole_approach" and "critical" in payload
               for _, kind, payload in ends)


def test_critical_launches_leave_their_disc_in_one_row(monkeypatch):
    # in a landings batch every critical launch of the two-gon gets, before
    # the lanes start, one closed-form row on its ray at |w| = w_in, the
    # w-disc inscribed in its pole's certificate disc, and a disc_exit
    # event naming the pole with the figure
    conn = build_connection(TWOGON)
    launches = saddle_launches(conn)
    keep_every_row(monkeypatch)
    for start, tr in zip(launches, trace_many(conn, launches, 10.0,
                                              landings=True)):
        t, kind, payload = tr.events[0]
        chart = pole_chart(conn, payload["pole"])
        assert (kind, t) == ("disc_exit", tr.t[1])
        assert payload["critical"][0] <= CRITICAL_TOL
        w = chart.to_w(start.z)
        assert chart.to_w(tr.z[1]) == pytest.approx(chart.w_in * w / abs(w),
                                                    rel=1e-14)
        assert abs(start.z - chart.center) < chart.disc
        assert first_integral(tr)[1] <= 1e-12


@pytest.mark.parametrize("turn", [cmath.exp(1e-6j), -1.0])
def test_off_line_or_inward_start_does_not_exit(turn):
    # a start in the disc whose w'v/w is off the critical line by
    # tau/|W| = 1e-6 is stepped from its own row; one that moves inward
    # lands.  Neither gets an exit row
    conn = build_connection(TWOGON)
    chart = pole_chart(conn, conn.poles[0].location)
    u, dw = chart.at_w(0.05 * chart.radius * cmath.exp(1j))
    start = GeodesicState("standard", u, turn * cmath.exp(1j) / dw)
    tr = trace_many(conn, [start], 10.0, landings=True)[0]
    assert all(kind != "disc_exit" for _, kind, _ in tr.events)
    assert abs(tr.z[1] - chart.center) < 0.1 * chart.radius
