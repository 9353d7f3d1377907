"""The names the traced benchmark reads from the package.

A traced run (``perfbench/run.py --trace 1``) reports one
``omega.verdict.<tag>`` count per tag of ``OmegaVerdict.TAGS``, and wraps
each ``(module, function)`` of ``perfbench/spans.py``'s ``TRACED`` in a span.
Its report must carry exactly the ``per_layer`` names of BENCHMARK.json, so
a verdict tag renamed or dropped, or a traced function gone, breaks it.
"""

import importlib
import importlib.util
import json
import pathlib

from connexion.omega import OmegaVerdict

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verdict_tags_are_the_benchmark_names():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    verdicts = {m["name"] for m in bench["per_layer"]
                if m["name"].startswith("omega.verdict.")}
    assert {f"omega.verdict.{t}" for t in OmegaVerdict.TAGS} == verdicts


def test_traced_functions_exist():
    for mod, fn, _ in _spans().TRACED:
        assert callable(getattr(importlib.import_module(f"connexion.{mod}"),
                                fn, None)), f"connexion.{mod}.{fn}"
