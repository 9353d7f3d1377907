"""Hot paths do only the work that can change their result.

The tracer takes eighth-order steps, so a circle period takes a few dozen
rows.

A trajectory is stored as columns; ``Trajectory.samples`` builds
TrajectorySample and GeodesicState objects only for tests and external
callers.  Here their constructors count calls while the tracer, the
classifier, the shooting search, the CSV export and the SVG renderer run:
none of them may build one, apart from a start state the caller builds.

The tracer measures chord distances to the poles only on steps that pass
the step loop's screen, and a connection's first certified trace builds
the chart of each of its residue < -1 poles, once; no other trace builds
one.  Counting wrappers around ``engine._chord_gap`` and
``localchart.adapted_chart`` check both.  The step loop screens each step
before it calls the pole pass or the fall certificate: a wrapper around
``engine._pole_gap`` sees no call on a circle, and one around
``engine._certified_fall`` sees exactly the rows of 40 classifications that
lie within 0.9 radius of a residue < -1 pole's chart, each with that pole,
on the first pass over them as on the second.
The DOP853 step and the step loop are generated once per pole count, not
once per connection: wrappers around ``engine._stepper`` and
``engine._step_loop`` see at most one of each per pole count over 40
classifications, and none on a second pass.

The saddle search lands its launches on the end pole's critical line in
closed form: a wrapper around ``engine._pole_hit`` sees no call on the
two-gon.

The period search refines a recurrence time by partial steps from the
stored rows, the ring probe traces each leaf once, to 1.1 times the period
a ring leaf has, and the shooting search aims one launch along the
developing map and traces it once, to the time at which it reaches its
target: wrappers around the ``trace`` and the lockstep ``trace_many`` that
``omega`` and ``polygons`` call count the traces they start, one per start
of a batch.

The crossing kernel tests bounding boxes of runs of segments first, of
quarter runs only within the run pairs whose boxes overlap, and of segments
only within the quarter pairs whose boxes overlap; against a polyline of at
most ``RUN`` segments it tests the segment boxes directly, and against a
section, one chord, no box at all, only which side of its line each point
lies on: wrappers around ``engine._overlap`` and ``engine._solve`` count the
box pairs it tests and the segment pairs it solves, which stay far below
n m where crossings are few, and at the chords that straddle a section's
line.  A self-crossing scan
expands only the run pairs whose chords turn by pi or more.  The scans read a
trajectory's chords from one array, ``Trajectory.support_array``, and a
wrapper that keeps the arrays it hands out sees one per classification.
"""

import cmath
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from connexion import (SpherePoint, build_connection, classify, detect_period,
                       render_scene, trace, trajectory_to_csv)
from connexion import cli, engine, localchart, omega, polygons
from connexion.engine import (PATH_CLEARANCE, POLE_FLOOR, GeodesicState,
                              Trajectory, TrajectorySample)
from connexion.localchart import pole_chart
from connexion.omega import ClassifyBudget, ring_domain_probe
from connexion.polygons import connect_unique

from conftest import SWITCH_POLES, TWOGON, audit_draws, hexed, single_pole


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


def test_circle_never_calls_the_pole_pass(monkeypatch, circle_conn):
    # every step of the unit circle ends farther from the pole at 0 than its
    # own length: the loop's screen passes no step to ``_pole_gap``
    calls = []

    def counting(*args, _gap=engine._pole_gap):
        calls.append(args)
        return _gap(*args)
    monkeypatch.setattr(engine, "_pole_gap", counting)
    assert len(trace(circle_conn, (1.0, 1j), 20.0)) > 50
    assert calls == []


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
@example(a=(0.0, 0.0), length=3.0, heading=0.0, s=0.0, log_d=0.0, side=0.0,
         far=(0.0, 0.0))
@settings(max_examples=300, deadline=None)
def test_pole_pass_sees_every_chord_near_a_pole(a, length, heading, s, log_d,
                                                side, far):
    # a pole 1e-10 to 1e-5 (or 1e-3 to 10) from the point s of the chord
    # [a, b], and one more anywhere: ``_pole_gap`` is the exact least
    # distance, and the step loop's screen passes every step whose chord
    # comes within the floor of a pole on to it.  Poles of residue 0 leave
    # the step straight, so the loop's step from a is the chord.
    a = complex(*a)
    h = 0.5
    k1 = length * cmath.exp(1j * heading) / h
    b = engine._stepper(0)((), a, k1, h)[0]
    near = a + s * (b - a) + 10.0 ** log_d * cmath.exp(1j * side)
    poles = [(near, 0.0), (complex(*far), 0.0)]
    assert engine._pole_gap(poles, a, b) == min(
        engine._chord_gap(a, b, pos) for pos, _ in poles)
    # a stage point on the far pole would end the step before the screen
    if engine._chord_gap(a, b, poles[1][0]) <= PATH_CLEARANCE:
        poles = poles[:1]
    # so does a stage point on the near pole (in the example, the pole at 1
    # on the chord [0, 3], DOP853's stage c6 = 1/3): the step is not finite
    try:
        engine._stepper(len(poles))(poles, a, k1, h)
        on_stage = False
    except ValueError:
        on_stage = True
    measured = []

    def recording(poles, z, z1):
        measured.append((z, z1))
        return math.inf
    traj = Trajectory(None)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_pole_gap", recording)
        end = engine._step_loop(len(poles))(
            "standard", poles, traj, (0.0, a, k1, 0j, h, 0), h,
            (1, None, 0.0), [])[0]
    if on_stage:
        # the loop refuses the step unmeasured, and its one step is spent
        assert end == "max_steps"
        assert traj.z == [] and measured == []
        return
    assert traj.z == [b]
    assert measured == [(a, b)] or engine._pole_gap(poles, a, b) >= POLE_FLOOR


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


def _rows_within_reach(conn, traj):
    """(row, pole) for each row the fall certificate is checked on (not the
    first, nor a pole-floor end): a row within 0.9 radius of the chart of a
    residue < -1 pole that the atlas holds, in the chart's sphere chart,
    from the row's own chart as the tracer converts it."""
    out = []
    end = len(traj) - (traj.termination == "pole_approach")
    charts = [conn.atlas[p.location] for p in conn.poles
              if p.residue < -1.0 and conn.atlas[p.location] is not None]
    for k in range(1, end):
        z = traj.z[k]
        for chart in charts:
            u = z if chart.ambient == traj._chart(k) else 1.0 / z
            if abs(u - chart.center) < 0.9 * chart.radius:
                out.append((k, chart.pole))
    return out


def test_first_certified_trace_builds_each_fall_chart(chart_builds):
    # a connection's first certified trace builds the chart of each of its
    # residue < -1 poles, reached or not, once; a plain trace, a batch of
    # traces and a second classification build none
    budget = ClassifyBudget(t_max=60.0, max_steps=60_000)
    unreached = 0
    for conn, ic in audit_draws(0, 40):
        trace(conn, ic, 20.0)
        engine.trace_many(conn, [ic] * engine.LANES_MIN, 5.0)
        assert chart_builds == []
        falls = [p.location for p in conn.poles if p.residue < -1.0]
        traj = classify(conn, ic, budget).details["traj"]
        assert chart_builds == falls
        classify(conn, ic, budget)
        trace(conn, ic, 20.0)
        assert chart_builds == falls
        chart_builds.clear()
        reached = {pole for _, pole in _rows_within_reach(conn, traj)}
        unreached += len(set(falls) - reached)
    assert unreached > 0


def test_classify_checks_falls_only_within_reach(monkeypatch):
    # the fall certificate is tried on exactly the rows within 0.9 radius of
    # a residue < -1 pole's chart, for that pole, none if the chart was
    # refused, not on every row of a certified trace; a certificate that
    # passes ends the trace at its disc.  The charts are built when the
    # first certified trace starts, so a second pass over the same
    # connections tries the same rows, and the traces are the same bit for
    # bit
    checked = []

    def counting(chart, other, z, v, left, _fall=engine._certified_fall):
        checked.append((z, chart.pole))
        return _fall(chart, other, z, v, left)
    monkeypatch.setattr(engine, "_certified_fall", counting)
    budget = ClassifyBudget(t_max=60.0, max_steps=60_000)
    draws = audit_draws(0, 40)
    first, tries = {}, []
    for warm in (False, True):
        rows = tried = certified = 0
        for n, (conn, ic) in enumerate(draws):
            checked.clear()
            traj = classify(conn, ic, budget).details["traj"]
            within = [(traj.z[k], pole)
                      for k, pole in _rows_within_reach(conn, traj)]
            if traj.termination == "pole_certified":
                within = within[:within.index((traj.z[-1],
                                               traj.events[-2][2]["pole"])) + 1]
                certified += 1
            assert checked == within
            rows += len(traj) if any(p.residue < -1.0 for p in conn.poles) else 0
            tried += len(checked)
            if warm:
                assert hexed(traj.z) == first[n]
            first[n] = hexed(traj.z)
        assert 0 < tried < rows / 2 and certified > 0
        tries.append(tried)
    assert tries[1] == tries[0]


def test_saddle_search_lands_without_a_pole_hit(monkeypatch):
    # the two-gon's two connections land on the end pole's critical line in
    # closed form: no bisection into the pole floor, and one last row on
    # the real ray, POLE_FLOOR from the pole
    hits = []

    def counting(*args, _hit=engine._pole_hit):
        hits.append(args)
        return _hit(*args)
    monkeypatch.setattr(engine, "_pole_hit", counting)
    found = omega.saddle_connection_search(build_connection(TWOGON), 64, 10.0)
    assert hits == [] and len(found) == 2
    for s in found:
        t, kind, payload = s.trajectory.events[-2]
        assert kind == "pole_approach" and "critical" in payload
        last = s.trajectory.z[-1]
        assert abs(last.imag) <= 1e-15
        assert abs(last - s.end_pole.z) == pytest.approx(POLE_FLOOR, rel=1e-12)


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


@pytest.fixture
def generated(monkeypatch):
    """The steps ``engine._stepper`` and the loops ``engine._step_loop``
    hand out, from empty caches, each with the arguments that first fetched
    it."""
    seen = {"_stepper": {}, "_step_loop": {}}
    for name, out in seen.items():
        getattr(engine, name).cache_clear()

        def counting(*args, _gen=getattr(engine, name), _out=out):
            fn = _gen(*args)
            _out.setdefault(fn, args)
            return fn
        monkeypatch.setattr(engine, name, counting)
    return seen


def test_classify_generates_one_step_per_pole_count(generated):
    draws = audit_draws(0, 40)
    budget = ClassifyBudget(t_max=60.0, max_steps=60_000)
    counts = {len(conn.chart_poles(chart)) for conn, _ in draws
              for chart in ("standard", "infinity")}
    for conn, ic in draws:
        classify(conn, ic, budget)
    built = {name: dict(fns) for name, fns in generated.items()}
    for fns in built.values():
        assert 0 < len(fns) <= len(counts)
        assert len({args for args in fns.values()}) == len(fns)
    for conn, ic in draws:
        classify(conn, ic, budget)
    assert generated == built


# -- refinement without re-integration -------------------------------------------

@pytest.fixture
def traces(monkeypatch):
    """The t_max of each trace that omega and polygons start, through
    ``trace`` or as one start of a ``trace_many`` batch."""
    seen = []
    for mod in (omega, polygons):
        for name in ("trace", "trace_many"):
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
    omega.trace(circle_conn, (1.0, 1j), 3.0)
    polygons.trace(circle_conn, (1.0, 1j), 2.0)
    assert traces == [3.0, 2.0]


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
    # one integration per leaf beside the seed, to 1.1 times the period of
    # a ring leaf through its start (the seed's length over the metric
    # density there), capped by the budget, and none after it: each leaf
    # stops short of two of its periods
    assert rep.n_leaves == 11
    leaves = [tr for tr in leaves.values() if tr is not seed]
    assert len(leaves) == 10
    L0 = rep.leaf_lengths[rep.leaf_offsets.index(0.0)]
    taus = [L0 / engine.metric_density(circle_conn, leaf.z[0])
            for leaf in leaves]
    assert traces == [min(1.1 * tau, budget.t_max) for tau in taus]
    for leaf in leaves:
        period = detect_period(leaf)
        two = trace(circle_conn, (leaf.z[0], leaf.v[0]), 2.0 * period)
        assert len(leaf) < len(two)


@pytest.mark.parametrize("pair", ["flat", "curved"])
def test_connect_unique_traces(traces, trivial_conn, pair):
    # one aimed trace, to t = |Delta zeta| / metric_density(z0): the
    # straight segment's class lands, so no other class is aimed
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
    # every pair of run boxes (188^2), then the quarter boxes only of the
    # run pairs whose chords turn by pi or more (7 here) and the segment
    # boxes of the quarter pairs that overlap (8): 35,584 box tests in all,
    # against 37,136 straight from runs to segments and 133,136 without the
    # turning test; the bound allows 16 run pairs expanded to segments
    runs = -(-2999 // engine.RUN)
    assert kernel_work["tested"] <= runs * runs + 16 * engine.RUN ** 2
    assert 0 < kernel_work["solved"] < nm // 500


def test_audit_config_kernel_work(kernel_work):
    # seed-1000 audit draw 98: 675 rows that wander to t = 60 without a
    # verdict; the self-crossing scan and the section scans together.  Its
    # long chords make runs of 16 overlap widely: expanded through quarter
    # runs this takes 35,449 box tests, straight to segments 130,361
    conn, ic = audit_draws(1000, 99)[98]
    verdict = classify(conn, ic, ClassifyBudget(t_max=60.0, max_steps=60_000,
                                                max_seconds=None))
    n = len(verdict.details["traj"]) - 1
    assert verdict.tag == "Undetermined" and n == 674
    assert kernel_work["tested"] < n * n // 10
    assert 0 < kernel_work["solved"] < n * n // 500


def test_section_scan_tests_each_chord_once(kernel_work, circle_conn):
    # a slow log-spiral of the circle connection crosses a radial section
    # once per turn, and the section's line twice: no box test, and only
    # the chords whose ends straddle the line solved
    spiral = trace(circle_conn, (1.0, complex(0.005, 1.0)), 40 * math.pi)
    n = len(spiral) - 1
    xs = omega.section_crossings(spiral, omega.TransversalSection(0.5, 2.0))
    assert len(xs) == 20
    side = np.sign(spiral.support_array().imag)
    straddling = np.count_nonzero(side[:-1] * side[1:] <= 0)
    assert kernel_work["tested"] == 0
    assert 40 <= kernel_work["solved"] <= straddling < n // 10


def test_classify_builds_one_chord_array(monkeypatch):
    # the self-crossing scan, the choice of section and the section scan of
    # one classification read the same array (seed 0 config 13); a trace
    # that crosses itself (seed 1000 config 98) stops after the first
    handed = []

    def keeping(traj, _support=Trajectory.support_array):
        handed.append(_support(traj))
        return handed[-1]
    monkeypatch.setattr(Trajectory, "support_array", keeping)
    for seed, config, reads in ((0, 13, 3), (1000, 98, 1)):
        handed.clear()
        conn, ic = audit_draws(seed, config + 1)[config]
        verdict = classify(conn, ic,
                           ClassifyBudget(t_max=60.0, max_steps=60_000))
        assert verdict.tag == "Undetermined"
        assert len(handed) == reads and all(a is handed[0] for a in handed)
