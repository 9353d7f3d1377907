"""Census of the settable values of the public API.

Every defaulted parameter of an exported function, of a public method of an
exported class and of a plain class's constructor, and every dataclass field
with a default, is a value a caller may vary and tests and the bench must
then cover.  The list below is the whole census: a new option shows up as an
edit to it.  Functions the package does not export, such as
``engine.trace_many`` and its ``pole_rows_only``, are outside it.
"""

import dataclasses
import inspect

import connexion
from connexion import ClassifyBudget, IntegratorOptions

SETTABLE = [
    "ClassifyBudget.max_seconds",
    "ClassifyBudget.max_steps",
    "ClassifyBudget.t_max",
    "GeodesicPolygon.angles(charts=)",
    "GeodesicState.k_phase",
    "IntegratorOptions.max_seconds",
    "IntegratorOptions.max_steps",
    "LoopPath.positive",
    "OmegaVerdict.details",
    "PartTopology.enclosed_residues",
    "PartTopology.genus_filling",
    "PolygonVertex.kind",
    "PolygonVertex.rho",
    "RenderWindow.center",
    "RenderWindow.half_width",
    "RenderWindow.size",
    "SpherePoint.infinite",
    "SpherePoint.z",
    "Trajectory(events=)",
    "Trajectory(samples=)",
    "Trajectory(termination=)",
    "check_p1_formula(charts=)",
    "check_p1_formula(enclosed=)",
    "classify(budget=)",
    "connect_unique(miss_tol=)",
    "connect_unique(opts=)",
    "exclusion_audit(budget=)",
    "exclusion_audit(n_configs=)",
    "exclusion_audit(seed=)",
    "measure_internal_angle(chart=)",
    "render_scene(window=)",
    "ring_domain_probe(budget=)",
    "ring_domain_probe(max_leaves_per_side=)",
    "saddle_connection_search(n_grid=)",
    "saddle_connection_search(t_max=)",
    "self_intersections(max_count=)",
    "side_from_points(t_end=)",
    "side_from_points(t_start=)",
    "trace(certify=)",
    "trace(opts=)",
]


def _defaulted(prefix, fn):
    return [f"{prefix}({p.name}=)"
            for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty]


def census():
    exported = {name: obj for name, obj in vars(connexion).items()
                if not name.startswith("_")
                and (inspect.isfunction(obj) or inspect.isclass(obj))}
    exported.update(IntegratorOptions=IntegratorOptions,
                    ClassifyBudget=ClassifyBudget)
    out = []
    for name, obj in exported.items():
        if inspect.isfunction(obj):
            out += _defaulted(name, obj)
            continue
        if dataclasses.is_dataclass(obj):
            out += [f"{name}.{f.name}" for f in dataclasses.fields(obj)
                    if f.default is not dataclasses.MISSING
                    or f.default_factory is not dataclasses.MISSING]
        else:
            out += _defaulted(name, obj.__init__)
        for attr, member in vars(obj).items():
            if isinstance(member, (staticmethod, classmethod)):
                member = member.__func__
            if not attr.startswith("_") and inspect.isfunction(member):
                out += _defaulted(f"{name}.{attr}", member)
    return sorted(out)


def test_settable_values_match_the_census():
    assert census() == sorted(SETTABLE)
