"""The verdict corpus: ``exclusion_audit(200, seed)`` at seeds 0, 1 and 1000,
one line per configuration, checked in under ``tests/data``.

Each line is the audit's own line plus the verdict's source: the fall
certificate, the pole floor, the tail heuristic, the period detector, or
another detector.  The last line is the audit's summary.  A change that
moves verdicts on purpose rewrites the corpus with

    PYTHONPATH=src python tests/test_corpus.py

which prints the lines it moved, the same diff the test prints on failure,
and lists them in its CHANGES.md entry.
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


def moved(seed: int, got: list) -> list:
    """The unified diff, without context, from the checked-in corpus of
    ``seed`` to the lines ``got``."""
    name = f"audit_{seed}.txt"
    want = (DATA / name).read_text().splitlines()
    return list(difflib.unified_diff(want, got, name, "exclusion_audit",
                                     lineterm="", n=0))


@pytest.mark.parametrize("seed", SEEDS)
def test_audit_matches_corpus(seed):
    diff = moved(seed, corpus(seed))
    assert not diff, "\n".join(diff)


if __name__ == "__main__":
    for seed in SEEDS:
        got = corpus(seed)
        for line in moved(seed, got):
            print(line)
        (DATA / f"audit_{seed}.txt").write_text("\n".join(got) + "\n")
