"""Shared fixtures: canonical connections, scene paths, audit draws and the
traces the columnar-storage tests compare."""

import cmath
import math
import pathlib

import numpy as np
import pytest

from connexion import (GeodesicState, SpherePoint, build_connection, errors,
                       polygons, trace)
from connexion.localchart import pole_chart
from connexion.omega import _critical_launch, random_connection

SCENES = pathlib.Path(__file__).resolve().parents[1] / "scenes"


@pytest.fixture
def scenes_dir() -> pathlib.Path:
    return SCENES


@pytest.fixture
def circle_conn():
    """Residue -1 at 0 and at infinity: geodesics are log-spirals and circles."""
    return build_connection([(SpherePoint.of(0.0), -1.0),
                             (SpherePoint.inf(), -1.0)])


@pytest.fixture
def trivial_conn():
    """Only the forced pole at infinity: the flat plane, straight geodesics."""
    return build_connection([(SpherePoint.inf(), -2.0)])


def single_pole(rho: float):
    """One finite pole of residue rho at the origin (rest at infinity)."""
    return build_connection([(SpherePoint.of(0.0), rho)])


def audit_draws(seed, n):
    """The configurations and initial states exclusion_audit(n, seed) draws."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        conn = random_connection(rng)
        while True:
            z0 = complex(*rng.normal(0.0, 2.0, 2))
            if all(abs(z0 - pos) > 0.05 for pos, _ in conn.chart_poles("standard")):
                break
        out.append((conn, (z0, np.exp(1j * rng.uniform(0.0, 2 * math.pi)))))
    return out


def hexed(x):
    """``x`` with every float spelt by float.hex, so == compares bits."""
    if isinstance(x, (complex, np.complexfloating)):
        return (float(x.real).hex(), float(x.imag).hex())
    if isinstance(x, (float, np.floating)):
        return float(x).hex()
    if isinstance(x, (list, tuple, np.ndarray)):
        return [hexed(y) for y in x]
    if isinstance(x, dict):
        return {k: hexed(v) for k, v in x.items()}
    return x


TWOGON = [(SpherePoint.of(-1.0), 0.5), (SpherePoint.of(1.0), 0.5)]


def saddle_launches(conn, n_grid=64):
    """The critical launches of ``saddle_connection_search``."""
    out = []
    for pos, _ in conn.chart_poles("standard"):
        chart = pole_chart(conn, SpherePoint.of(pos))
        for k in range(n_grid):
            out.append(_critical_launch(conn, chart, 0.05 * chart.radius,
                                        2.0 * math.pi * k / n_grid)[0])
    return out


def saddle_connections() -> list:
    """The connections of the saddle corpus (``test_corpus.py``): the first
    twelve ``random_connection`` draws of ``default_rng(11)`` with two
    finite poles of residue > -1, the two-gons at -1, 1 with residue 0.5,
    -0.3, -0.5, -0.7 and -0.9 at both, and the bench two-gon (residue 0.5
    at -p, p) at p = 1 and p = i."""
    rng, out = np.random.default_rng(11), []
    while len(out) < 12:
        conn = random_connection(rng)
        if sum(not p.location.infinite and p.residue > -1.0
               for p in conn.poles) >= 2:
            out.append(conn)
    out += [build_connection([(SpherePoint.of(-1.0), rho),
                              (SpherePoint.of(1.0), rho)])
            for rho in (0.5, -0.3, -0.5, -0.7, -0.9)]
    out += [build_connection([(SpherePoint.of(-p), 0.5), (SpherePoint.of(p), 0.5)])
            for p in (1.0, 1j)]
    return out


def shooting_problems(n):
    """The first n seeded random_connection problems with |z1 - z0| = 1.2,
    drawn in one pass: (conn, z0, z1)."""
    rng = np.random.default_rng(5)
    for _ in range(n):
        conn = random_connection(rng)
        while True:
            z0 = complex(*rng.normal(0.0, 1.0, 2))
            if all(abs(z0 - pos) > 0.1 for pos, _ in conn.chart_poles("standard")):
                break
        z1 = z0 + 1.2 * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        yield conn, z0, z1


def shooting_runs(n=240):
    """``connect_unique`` on each of the first n shooting problems: (index,
    problem, the arc or the ConnexionError raised, whether the launch grid
    ran).  The grid runs where ``polygons.trace_many`` is called."""
    with pytest.MonkeyPatch.context() as mp:
        ran = []

        def grid(*args, _many=polygons.trace_many, **kw):
            ran.append(True)
            return _many(*args, **kw)
        mp.setattr(polygons, "trace_many", grid)
        for k, problem in enumerate(shooting_problems(n)):
            ran.clear()
            try:
                out = polygons.connect_unique(*problem)
            except errors.ConnexionError as exc:
                out = exc
            yield k, problem, out, bool(ran)


SWITCH_POLES = [(SpherePoint.of(0.0), -0.5), (SpherePoint.of(1.5 + 0.5j), -0.3),
                (SpherePoint.of(-0.7 + 1.2j), -0.6)]


@pytest.fixture(scope="session")
def column_traces():
    """Traces whose columns are checked against their per-sample view:
    the benchmark's switch scene (out past the switch radius and back), a
    fall into a rho = -1.5 pole with and without its certificate, a trace
    ending at a pole floor, a restart from an infinity-chart state, the unit
    circle, and the circle |z| = 20 traced wholly in the infinity chart."""
    switch_conn = build_connection(SWITCH_POLES)
    switch = trace(switch_conn, (3.0, cmath.exp(0.1j)), 200.0)
    start = next(s.state for s in switch.samples if s.state.chart == "infinity")
    circle = build_connection([(SpherePoint.of(0.0), -1.0),
                               (SpherePoint.inf(), -1.0)])
    fall_conn = build_connection([(SpherePoint.of(0.0), -1.5),
                                  (SpherePoint.of(1.0), 0.3)])
    fall_ic = (-0.8 + 0.1j, 1.0 + 0.25j)
    return {
        "switch": switch,
        "certified": trace(fall_conn, fall_ic, 20.0, certify=True),
        "fall": trace(fall_conn, fall_ic, 20.0),
        "pole_approach": trace(single_pole(0.5), (1.0, -1.0), 2.0),
        "from_infinity": trace(switch_conn, start, 40.0),
        "circle": trace(circle, (1.0, 1j), 30.0),
        "outer_circle": trace(circle, GeodesicState("infinity", 0.05, -0.05j), 30.0),
    }
