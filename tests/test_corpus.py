"""The checked-in corpora under ``tests/data``.

The verdict corpus: ``exclusion_audit(200, seed)`` at seeds 0, 1 and 1000,
one line per configuration.  Each line is the audit's own line plus the
verdict's source: the fall certificate, the pole floor, the tail
heuristic, the period detector, or another detector.  The last line is the
audit's summary.

The saddle corpus: ``saddle_connection_search`` on the 19 connections of
``conftest.saddle_connections`` at three (n_grid, t_max) settings, one
line per connection found: the search's index and settings, the start and
end poles, the launch angle (``repr``), the trajectory's row count and the
length to 10 significant digits.  The lines of one search are sorted by
(start, end, angle), so mirror pairs of equal length keep their order.

A change that moves either corpus on purpose rewrites both with

    PYTHONPATH=src python tests/test_corpus.py

which prints the lines it moved, the same diff the test prints on failure,
and lists them in its CHANGES.md entry.
"""

import difflib
import pathlib

import pytest

from connexion.omega import exclusion_audit, saddle_connection_search

from conftest import saddle_connections

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


def corpus(seed: int) -> list:
    rep = exclusion_audit(200, seed)
    return [f"{line} source={source(v)}"
            for line, v in zip(rep["lines"], rep["verdicts"])] + rep["lines"][-1:]


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


def moved(name: str, got: list) -> list:
    """The unified diff, without context, from the checked-in corpus
    ``name`` to the lines ``got``."""
    want = (DATA / name).read_text().splitlines()
    return list(difflib.unified_diff(want, got, name, "computed",
                                     lineterm="", n=0))


@pytest.mark.parametrize("seed", SEEDS)
def test_audit_matches_corpus(seed):
    diff = moved(f"audit_{seed}.txt", corpus(seed))
    assert not diff, "\n".join(diff)


def test_saddles_match_corpus():
    diff = moved("saddles.txt", saddle_corpus())
    assert not diff, "\n".join(diff)


if __name__ == "__main__":
    written = {f"audit_{seed}.txt": corpus(seed) for seed in SEEDS}
    written["saddles.txt"] = saddle_corpus()
    for name, got in written.items():
        if (DATA / name).exists():
            for line in moved(name, got):
                print(line)
        (DATA / name).write_text("\n".join(got) + "\n")
