"""The verdict corpus: ``exclusion_audit(200, seed)`` at seeds 0, 1 and 1000,
one line per configuration, checked in under ``tests/data``.

Each line is the audit's own line plus the verdict's source: the fall
certificate, the pole floor, the tail heuristic, the period detector, or
another detector.  The last line is the audit's summary.  A change that
moves verdicts on purpose rewrites the corpus with

    PYTHONPATH=src python tests/test_corpus.py

and lists the moved lines in its CHANGES.md entry.
"""

import difflib
import pathlib

import pytest

from connexion.omega import exclusion_audit

DATA = pathlib.Path(__file__).resolve().parent / "data"
SEEDS = (0, 1, 1000)


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


@pytest.mark.parametrize("seed", SEEDS)
def test_audit_matches_corpus(seed):
    want = (DATA / f"audit_{seed}.txt").read_text().splitlines()
    got = corpus(seed)
    moved = list(difflib.unified_diff(want, got, "corpus", "audit", lineterm="",
                                      n=0))
    assert not moved, "\n".join(moved)


if __name__ == "__main__":
    for seed in SEEDS:
        (DATA / f"audit_{seed}.txt").write_text("\n".join(corpus(seed)) + "\n")
