"""Hot paths do only the work that can change their result.

The tracer takes eighth-order steps, so a circle period takes a few dozen
rows.

A trajectory is stored as columns; ``Trajectory.samples`` builds
TrajectorySample and GeodesicState objects only for tests and external
callers.  Here their constructors count calls while the tracer, the
classifier, the shooting search, the CSV export and the SVG renderer run:
none of them may build one, apart from a start state the caller builds.

The tracer's pole pass measures a chord's exact distance only to a pole
that can lie within the pole floor of it, and a pole's adapted chart is
built once per connection, and only when a caller needs it.  Counting
wrappers around ``engine._chord_gap`` and ``localchart.adapted_chart``
check both.

The period search refines a recurrence time by partial steps from the
stored rows, the ring probe stops each leaf trace at its first recurrence,
and the shooting search aims one launch along the developing map and traces
it once, to the time at which it reaches its target: wrappers around the
``trace``, the pausable ``tracing`` and the lockstep ``trace_many`` that
``omega`` and ``polygons`` call count the traces they start, one per start
of a batch.

The crossing kernel tests bounding boxes of runs of segments first and of
segments only within the run pairs whose boxes overlap, and against a
polyline of at most ``RUN`` segments, such as a section, the segment boxes
directly: wrappers around ``engine._overlap`` and ``engine._solve`` count
the box pairs it tests and the segment pairs it solves, which stay far below
n m where crossings are few, and at n for a section.  The scans read a
trajectory's chords from one array, ``Trajectory.support_array``, and a
wrapper that keeps the arrays it hands out sees one per classification.
"""

import cmath
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from connexion import (SpherePoint, build_connection, classify, detect_period,
                       render_scene, trace, trajectory_to_csv)
from connexion import cli, engine, localchart, omega, polygons
from connexion.engine import (PATH_CLEARANCE, POLE_FLOOR, GeodesicState,
                              Trajectory, TrajectorySample)
from connexion.localchart import pole_chart, pole_disc
from connexion.omega import ClassifyBudget, ring_domain_probe
from connexion.polygons import connect_unique

from conftest import SWITCH_POLES, audit_draws, single_pole


@pytest.fixture
def built(monkeypatch):
    """Counts of GeodesicState and TrajectorySample constructions."""
    counts = Counter()
    for cls in (GeodesicState, TrajectorySample):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kw):
            counts[_name] += 1
            _init(self, *args, **kw)
        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def test_counter_sees_the_samples_view(built, circle_conn):
    traj = trace(circle_conn, (1.0, 1j), 2.0)
    assert not built
    traj.samples
    assert built == {"GeodesicState": len(traj), "TrajectorySample": len(traj)}


def test_trace_and_csv(built, circle_conn):
    trajectory_to_csv(trace(circle_conn, (1.0, 1j), 20.0))
    assert not built


def test_circle_period_takes_few_rows(circle_conn):
    # the eighth-order step at RTOL = 1e-12: one turn of the unit circle in
    # 40 rows, where a fifth-order pair stores 424
    assert len(trace(circle_conn, (1.0, 1j), 2 * math.pi)) < 60


def test_caller_start_state_is_the_only_one(built, circle_conn):
    # detect_period steps from the stored rows and builds no state
    traj = trace(circle_conn, GeodesicState("standard", 2.0, 2j, 0j), 20.0)
    assert detect_period(traj) is not None
    assert built == {"GeodesicState": 1}


def test_classify_audit_draws(built):
    # the first ten draws of seed 0 are all certified falls; the first 40
    # also reach detect_period, the tail heuristic and the section analysis
    budget = ClassifyBudget(t_max=60.0, max_steps=60_000)
    verdicts = [classify(conn, ic, budget) for conn, ic in audit_draws(0, 40)]
    assert {v.tag for v in verdicts} == {"ConvergesToPole", "Undetermined"}
    assert any(v.details.get("certified") is False for v in verdicts)
    assert not built


def test_connect_unique(built, trivial_conn):
    connect_unique(trivial_conn, 0j, 2.0 * cmath.exp(0.7j))
    assert not built


def test_render_scene(built, circle_conn):
    conn = build_connection(SWITCH_POLES)
    trajs = [trace(conn, (3.0, cmath.exp(0.1j)), 60.0),
             trace(conn, (0.5 + 0.5j, 1.0), 10.0)]
    assert "polyline" in render_scene(conn, trajs)
    assert not built


# -- the pole pass ---------------------------------------------------------------

@pytest.fixture
def chord_gaps(monkeypatch):
    """The (a, b, pole) of each exact chord distance the tracer measures."""
    seen = []

    def counting(a, b, pos, _gap=engine._chord_gap):
        seen.append((a, b, pos))
        return _gap(a, b, pos)
    monkeypatch.setattr(engine, "_chord_gap", counting)
    return seen


def test_circle_measures_no_chord_distance(chord_gaps, circle_conn):
    trace(circle_conn, (1.0, 1j), 20.0)
    assert chord_gaps == []


def test_grazing_trace_measures_only_the_grazing_step(chord_gaps):
    # a straight line past a rho = -1e-6 pole at distance 1e-4: one step
    # ends within its own length (+ 4 POLE_FLOOR) of the pole
    traj = trace(single_pole(-1e-6), (-1.0 + 1e-4j, 1.0), 3.0)
    zs = traj.z
    grazing = [(a, b) for a, b in zip(zs, zs[1:])
               if abs(b) <= abs(b - a) + 4.0 * POLE_FLOOR]
    assert traj.termination == "t_max" and len(grazing) == 1
    assert chord_gaps == [(a, b, 0j) for a, b in grazing]


_UNIT = st.floats(min_value=0.0, max_value=1.0)
_COORD = st.floats(min_value=-10.0, max_value=10.0)


@given(a=st.tuples(_COORD, _COORD),
       length=st.floats(min_value=1e-9, max_value=5.0),
       heading=st.floats(min_value=0.0, max_value=2.0 * math.pi),
       s=st.one_of(st.just(0.0), st.just(1.0), _UNIT),
       log_d=st.one_of(st.floats(min_value=-10.0, max_value=-5.0),
                       st.floats(min_value=-3.0, max_value=1.0)),
       side=st.floats(min_value=0.0, max_value=2.0 * math.pi),
       far=st.tuples(_COORD, _COORD))
@settings(max_examples=300, deadline=None)
def test_bounded_pass_decides_like_every_pole(a, length, heading, s, log_d,
                                              side, far):
    # a pole 1e-10 to 1e-5 (or 1e-3 to 10) from the point s of the chord
    # [a, b], and one more anywhere: the bounded pass must reject the step
    # and end it at the floor exactly when the exact distances say so
    a = complex(*a)
    b = a + length * cmath.exp(1j * heading)
    near = a + s * (b - a) + 10.0 ** log_d * cmath.exp(1j * side)
    poles = [(near, -0.5), (complex(*far), 0.3)]
    exact = min(engine._chord_gap(a, b, pos) for pos, _ in poles)
    bounded = engine._pole_gap(poles, a, b)
    assert (bounded <= PATH_CLEARANCE) == (exact <= PATH_CLEARANCE)
    assert (bounded < POLE_FLOOR) == (exact < POLE_FLOOR)


# -- the pole atlas ------------------------------------------------------------

@pytest.fixture
def chart_builds(monkeypatch):
    """The poles ``adapted_chart`` is asked to build a chart for."""
    built = []

    def counting(conn, pole, _build=localchart.adapted_chart):
        built.append(pole)
        return _build(conn, pole)
    monkeypatch.setattr(localchart, "adapted_chart", counting)
    return built


def _came_within_reach(conn, traj):
    """The residue < -1 poles within 0.9 r0 of a row the certificate is
    checked on (not the first, nor a pole-floor end), in the pole's chart."""
    out = set()
    end = len(traj) - (traj.termination == "pole_approach")
    for p in conn.poles:
        if p.residue < -1.0:
            ambient, center, r0 = pole_disc(conn, p.location)
            zs = traj.support_std()[1:end]
            us = [1.0 / z if ambient == "infinity" else z for z in zs]
            if any(abs(u - center) < 0.9 * r0 for u in us):
                out.add(p.location)
    return out


def test_classify_builds_only_the_charts_it_reaches(chart_builds):
    budget = ClassifyBudget(t_max=60.0, max_steps=60_000)
    unreached = 0
    for conn, ic in audit_draws(0, 40):
        chart_builds.clear()
        verdict = classify(conn, ic, budget)
        reached = _came_within_reach(conn, verdict.details["traj"])
        assert sorted(chart_builds, key=repr) == sorted(reached, key=repr)
        unreached += any(p.residue < -1.0 for p in conn.poles) and not reached
    assert unreached > 0


def test_verify_saddles_builds_each_chart_once(chart_builds):
    assert all(ok for _, ok, _ in cli._verify_saddles(0))
    assert chart_builds == [SpherePoint.of(-1.0), SpherePoint.of(1.0)]


def test_refused_pole_is_attempted_once(chart_builds):
    # rho = -2 is resonant: no chart, and the refusal is kept in the atlas
    conn = single_pole(-2.0)
    for _ in range(2):
        trace(conn, (1.0, -1.0 + 0.1j), 5.0, certify=True)
    assert chart_builds == [SpherePoint.of(0.0)]
    assert conn.atlas == {SpherePoint.of(0.0): None}
    assert pole_chart(conn, SpherePoint.of(0.0)) is None
    assert chart_builds == [SpherePoint.of(0.0)]


# -- refinement without re-integration -------------------------------------------

@pytest.fixture
def traces(monkeypatch):
    """The t_max of each trace that omega and polygons start, through
    ``trace``, through the pausable ``tracing`` it runs, or as one start of
    a ``trace_many`` batch."""
    seen = []
    for mod in (omega, polygons):
        for name in ("trace", "tracing", "trace_many"):
            if not hasattr(mod, name):
                continue

            def counting(conn, initial, t_max, *args,
                         _run=getattr(mod, name), _many=name == "trace_many",
                         **kw):
                seen.extend([t_max] * (len(initial) if _many else 1))
                return _run(conn, initial, t_max, *args, **kw)
            monkeypatch.setattr(mod, name, counting)
    return seen


def test_traces_counts_both_entry_points(traces, circle_conn):
    run = omega.tracing(circle_conn, (1.0, 1j), 5.0)
    next(run)
    omega.trace(circle_conn, (1.0, 1j), 3.0)
    polygons.trace(circle_conn, (1.0, 1j), 2.0)
    assert traces == [5.0, 3.0, 2.0]


def test_traces_counts_each_start_of_a_batch(traces, circle_conn):
    omega.trace_many(circle_conn, [(1.0, 1j), (2.0, 2j)], 1.0)
    assert traces == [1.0, 1.0]


def test_period_and_ring_retrace_nothing(traces, circle_conn, monkeypatch):
    seed = trace(circle_conn, (1.0, 1j), 30.0)
    assert detect_period(seed) == pytest.approx(2 * math.pi, abs=1e-6)
    assert traces == []
    leaves = {}

    def recording(traj, _detect=omega.detect_period):
        leaves[id(traj)] = traj
        return _detect(traj)
    monkeypatch.setattr(omega, "detect_period", recording)
    budget = ClassifyBudget(t_max=12 * math.pi, max_steps=1_000_000)
    rep = ring_domain_probe(circle_conn, seed, max_leaves_per_side=5,
                            budget=budget)
    # one integration per leaf beside the seed, capped by the budget, and
    # none after it: each leaf stops short of two of its periods
    assert rep.n_leaves == 11
    assert traces == [budget.t_max] * 10
    leaves = [tr for tr in leaves.values() if tr is not seed]
    assert len(leaves) == 10
    for leaf in leaves:
        period = detect_period(leaf)
        two = trace(circle_conn, (leaf.z[0], leaf.v[0]), 2.0 * period)
        assert len(leaf) < len(two)


@pytest.mark.parametrize("pair", ["flat", "curved"])
def test_connect_unique_traces(traces, trivial_conn, pair):
    # one aimed trace, to t = |Delta zeta| / metric_density(z0), and no grid
    conn, z0, z1 = {"flat": (trivial_conn, 0j, 2.0 * cmath.exp(0.7j)),
                    "curved": (single_pole(0.5), 1.0, 1j)}[pair]
    connect_unique(conn, z0, z1)
    dzeta = engine.delta_zeta(conn, (z0, z1))
    assert traces == [abs(dzeta) / engine.metric_density(conn, z0)]


# -- the crossing kernel ---------------------------------------------------------

@pytest.fixture
def kernel_work(monkeypatch):
    """Box pairs the crossing kernel tests, run pairs and segment pairs
    alike, and segment pairs it solves."""
    work = Counter()

    def overlap(a, b, _overlap=engine._overlap):
        mask = _overlap(a, b)
        work["tested"] += mask.size
        return mask

    def solve(p, q, i, j, _solve=engine._solve):
        work["solved"] += len(i)
        return _solve(p, q, i, j)
    monkeypatch.setattr(engine, "_overlap", overlap)
    monkeypatch.setattr(engine, "_solve", solve)
    return work


def test_dense_loop_kernel_work(kernel_work):
    # the benchmark's self-crossing scene: 6000 closed-form rows of a line
    # W = t + 0.3i straightened near a rho = -0.9 pole, z = W^(1/0.1),
    # which winds round the pole and crosses itself 4 times; the kernel
    # sees 2999 chords after _decimate
    rho, d = -0.9, 0.3
    ts = np.linspace(-1.8, 1.8, 6000)
    params = localchart.LocalGeodesicParams(rho, 1.0, 0.4, 1.0 + 0j, 1j * d)
    zs = localchart.closed_form_path(params, ts)
    W = ts + 1j * d
    loop = Trajectory(conn=single_pole(rho), samples=[
        TrajectorySample(t, GeodesicState("standard", z, v, k), 0.0)
        for t, z, v, k in zip(ts.tolist(), zs.tolist(),
                              (zs / ((rho + 1.0) * W)).tolist(),
                              (rho / (rho + 1.0) * np.log(W)).tolist())])
    assert len(engine.self_intersections(loop)) == 4
    nm = 2999 * 2999
    assert kernel_work["tested"] < nm // 30
    assert 0 < kernel_work["solved"] < nm // 500


def test_audit_config_kernel_work(kernel_work):
    # seed-1000 audit draw 98: 675 rows that wander to t = 60 without a
    # verdict; the self-crossing scan and the section scans together
    conn, ic = audit_draws(1000, 99)[98]
    verdict = classify(conn, ic, ClassifyBudget(t_max=60.0, max_steps=60_000,
                                                max_seconds=None))
    n = len(verdict.details["traj"]) - 1
    assert verdict.tag == "Undetermined" and n == 674
    assert kernel_work["tested"] < n * n // 2
    assert 0 < kernel_work["solved"] < n * n // 500


def test_section_scan_tests_each_chord_once(kernel_work, circle_conn):
    # a slow log-spiral of the circle connection crosses a radial section
    # once per turn: one box test per chord, none per run
    spiral = trace(circle_conn, (1.0, complex(0.005, 1.0)), 40 * math.pi)
    n = len(spiral) - 1
    xs = omega.section_crossings(spiral, omega.TransversalSection(0.5, 2.0))
    assert len(xs) == 20
    assert 0 < kernel_work["tested"] <= n
    assert kernel_work["solved"] < n // 10


def test_classify_builds_one_chord_array(monkeypatch):
    # the self-crossing scan, the choice of section and the section scan of
    # one classification read the same array
    handed = []

    def keeping(traj, _support=Trajectory.support_array):
        handed.append(_support(traj))
        return handed[-1]
    monkeypatch.setattr(Trajectory, "support_array", keeping)
    conn, ic = audit_draws(1000, 99)[98]
    verdict = classify(conn, ic, ClassifyBudget(t_max=60.0, max_steps=60_000))
    assert verdict.tag == "Undetermined"
    assert len(handed) == 3 and all(a is handed[0] for a in handed)
