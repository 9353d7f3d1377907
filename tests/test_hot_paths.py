"""Hot paths build no per-sample objects.

A trajectory is stored as columns; ``Trajectory.samples`` builds
TrajectorySample and GeodesicState objects only for tests and external
callers.  Here their constructors count calls while the tracer, the
classifier, the shooting search, the CSV export and the SVG renderer run:
none of them may build one, apart from a start state the caller builds.
"""

import cmath
from collections import Counter

import pytest

from connexion import (SpherePoint, build_connection, classify, detect_period,
                       render_scene, trace, trajectory_to_csv)
from connexion.engine import GeodesicState, TrajectorySample
from connexion.omega import ClassifyBudget
from connexion.polygons import connect_unique

from conftest import SWITCH_POLES, audit_draws


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


def test_caller_start_state_is_the_only_one(built, circle_conn):
    # detect_period re-traces from the caller's start state, not a copy
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
