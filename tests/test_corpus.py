"""The checked-in corpora under ``tests/data``.

The verdict corpus: ``exclusion_audit(200, seed)`` at seeds 0, 1 and 1000,
one line per configuration.  Each line is the audit's own line plus the
verdict's source: the fall certificate, the pole floor, the tail
heuristic, the period detector, or another detector.  The last line is the
audit's summary.

The crossing corpus: the crossing kernel's outputs on the traces of the
same audit runs, one line per configuration whose verdict is not
``ConvergesToPole``: the seed and configuration, then the count and the
sha256 of ``self_intersections(traj)`` and of ``section_crossings(traj,
_best_section(traj))``, floats by ``repr``.  A change to the kernel that
claims the same outputs bit for bit keeps every line.

The saddle corpus: ``saddle_connection_search`` on the 19 connections of
``conftest.saddle_connections`` at three (n_grid, t_max) settings, one
line per connection found: the search's index and settings, the start and
end poles, the launch angle (``repr``), the trajectory's row count and the
length to 10 significant digits.  The lines of one search are sorted by
(start, end, angle), so mirror pairs of equal length keep their order.

The shooting corpus: ``connect_unique`` on the 240 problems of
``conftest.shooting_problems``, one line per problem: its index, the
outcome (the arc's termination, or the class of the error raised), the
arc's t_end to 10 significant digits, and the homotopy class whose aim
connected: ``segment`` for the straight segment's, or ``poleJ:X`` for the
path that winds X full turns round the J-th finite pole (``-`` where none
did).
``test_polygons.py::TestConnectUnique::test_connects_seeded_problems``
diffs it in the loop that checks the arcs, so the searches run once.

A change that moves any corpus on purpose rewrites them all with

    PYTHONPATH=src python tests/test_corpus.py

which prints the lines it moved, the same diff the test prints on failure,
and lists them in its CHANGES.md entry.  For the saddle corpus it prints
the count of lines that moved in ``rows=`` only, then the diff of the lines
whose connection or length moved, in full (``saddle_review``): a change to
the tracer's steps moves every row count and would bury the lengths.
"""

import difflib
import hashlib
import pathlib
import re

import pytest

from connexion.engine import self_intersections
from connexion.omega import (_best_section, exclusion_audit,
                             saddle_connection_search, section_crossings)

from conftest import saddle_connections, shooting_runs

DATA = pathlib.Path(__file__).resolve().parent / "data"
SEEDS = (0, 1, 1000)
SADDLE_SETTINGS = ((64, 40.0), (8, 20.0), (64, 10.0))


def source(verdict) -> str:
    if verdict.tag == "Periodic":
        return "period_detector"
    if verdict.tag == "ConvergesToPole":
        if verdict.details.get("certified"):
            return "certificate"
        return "pole_floor" if verdict.details["t_hit"] is not None \
            else "tail_heuristic"
    return "other"


def _digest(items) -> str:
    return hashlib.sha256("\n".join(map(repr, items)).encode()).hexdigest()


def crossing_line(seed: int, config: int, traj) -> str:
    selfs = [(r.t_i, r.t_j, r.point, r.transversal)
             for r in self_intersections(traj)]
    xs = section_crossings(traj, _best_section(traj))
    return (f"seed={seed} config={config} self={len(selfs)} "
            f"self_sha={_digest(selfs)} section={len(xs)} "
            f"section_sha={_digest(xs)}")


def corpora(seed: int) -> tuple:
    """The audit corpus lines of ``seed`` and the crossing corpus lines of
    the same audit's traces."""
    rep = exclusion_audit(200, seed)
    audit = [f"{line} source={source(v)}"
             for line, v in zip(rep["lines"], rep["verdicts"])] + rep["lines"][-1:]
    crossings = [crossing_line(seed, k, v.details["traj"])
                 for k, v in enumerate(rep["verdicts"])
                 if v.tag != "ConvergesToPole"]
    return audit, crossings


def saddle_corpus() -> list:
    lines, k = [], 0
    for conn in saddle_connections():
        for n_grid, t_max in SADDLE_SETTINGS:
            found = sorted(saddle_connection_search(conn, n_grid, t_max),
                           key=lambda s: (repr(s.start_pole), repr(s.end_pole),
                                          s.launch_angle))
            lines += [f"search={k} n_grid={n_grid} t_max={t_max} "
                      f"start={s.start_pole!r} end={s.end_pole!r} "
                      f"angle={s.launch_angle!r} rows={len(s.trajectory)} "
                      f"length={s.length:.10g}" for s in found]
            k += 1
    return lines


def shooting_line(k: int, outcome, aim) -> str:
    """The shooting corpus line of problem k: ``outcome`` is the arc or the
    error ``connect_unique`` raised, ``aim`` the label of the class whose
    aim connected (``polygons._aims``), or None."""
    if isinstance(outcome, Exception):
        return f"problem={k} outcome={type(outcome).__name__} t_end=- aim=-"
    return (f"problem={k} outcome={outcome.termination} "
            f"t_end={outcome.t_end:.10g} aim={aim}")


def moved(name: str, got: list, prefix: str = "") -> list:
    """The unified diff, without context, from the lines of the checked-in
    corpus ``name`` that start with ``prefix`` to the lines ``got``."""
    want = [line for line in (DATA / name).read_text().splitlines()
            if line.startswith(prefix)]
    return list(difflib.unified_diff(want, got, name, "computed",
                                     lineterm="", n=0))


def saddle_review(got: list) -> list:
    """The moves of the saddle corpus to the lines ``got``, for review: a
    count of the lines that moved in ``rows=`` only, then each line whose
    connection or length moved, in full, as a diff without context."""
    want = (DATA / "saddles.txt").read_text().splitlines()
    keys = [[re.sub(r" rows=\d+", "", line) for line in lines]
            for lines in (want, got)]
    rows_only, out = 0, []
    for tag, i1, i2, j1, j2 in difflib.SequenceMatcher(
            None, *keys, autojunk=False).get_opcodes():
        if tag == "equal":
            rows_only += sum(a != b for a, b in zip(want[i1:i2], got[j1:j2]))
        else:
            out += [f"-{line}" for line in want[i1:i2]]
            out += [f"+{line}" for line in got[j1:j2]]
    return [f"saddles.txt: {rows_only} lines moved in rows= only", *out]


@pytest.mark.parametrize("seed", SEEDS)
def test_audit_matches_corpus(seed):
    audit, crossings = corpora(seed)
    diff = (moved(f"audit_{seed}.txt", audit)
            + moved("crossings.txt", crossings, f"seed={seed} "))
    assert not diff, "\n".join(diff)


def test_saddles_match_corpus():
    diff = moved("saddles.txt", saddle_corpus())
    assert not diff, "\n".join(diff)


if __name__ == "__main__":
    written = {"crossings.txt": []}
    for seed in SEEDS:
        written[f"audit_{seed}.txt"], crossings = corpora(seed)
        written["crossings.txt"] += crossings
    written["saddles.txt"] = saddle_corpus()
    written["shooting.txt"] = [shooting_line(k, out, aim)
                               for k, _, out, aim in shooting_runs()]
    for name, got in written.items():
        if (DATA / name).exists():
            for line in (saddle_review(got) if name == "saddles.txt"
                         else moved(name, got)):
                print(line)
        (DATA / name).write_text("\n".join(got) + "\n")
