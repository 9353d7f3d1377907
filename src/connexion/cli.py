"""Command-line front end.

Subcommands: validate | trace | classify | portrait | verify.
Exit codes: 0 success, 2 configuration error, 3 runtime numerical failure,
4 verification failure.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import sys

import click
import numpy as np

from . import errors
from .omega import ClassifyBudget, classify, saddle_connection_search
from .connection import SpherePoint, build_connection, connection_from_dict
from .engine import (POLE_FLOOR, IntegratorOptions, _gauss_legendre, trace,
                     trajectory_to_csv)
from .localchart import (closed_form_path, critical_length, local_params,
                         pole_chart)
from .polygons import (GeodesicPolygon, PolygonVertex, chart_polygon,
                       check_chart_polygon, check_p1_formula,
                       side_from_trajectory)
from .svg import RenderWindow, render_scene

EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4


# -- configuration -------------------------------------------------------------

def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        _config_fail(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        _config_fail(f"malformed config at line {exc.lineno}, column {exc.colno}: "
                     f"{exc.msg}")


def _config_fail(msg: str):
    click.echo(f"config error: {msg}", err=True)
    sys.exit(EXIT_CONFIG)


# The keys the CLI reads.  A dict is an object, a one-item list a list of
# such objects, float (int) takes a JSON number (integer) > 0, math.isfinite
# any finite number and bool true or false; a boolean or a string is never
# a number.
SCENE_KEYS = {
    "connection": {"poles": [{"re": math.isfinite, "im": math.isfinite,
                              "residue": math.isfinite, "inf": bool}]},
    "initial": [{"re": math.isfinite, "im": math.isfinite,
                 "v_re": math.isfinite, "v_im": math.isfinite}],
    "t_max": float,
    "budget": {"t_max": float, "steps": int},
    "window": {"re": math.isfinite, "im": math.isfinite, "half_width": float,
               "size": int},
    "portrait": {"grid": int},
}


def _check_scene(value, keys, name=""):
    """Refuse a key that ``keys`` (a SCENE_KEYS entry) lacks, or a value it
    does not take."""
    if isinstance(keys, list):
        if not isinstance(value, list):
            _config_fail(f"{name} must be a list")
        for i, item in enumerate(value):
            _check_scene(item, keys[0], f"{name}[{i}]")
    elif isinstance(keys, dict):
        if not isinstance(value, dict):
            _config_fail(f"{name or 'the scene'} must be an object")
        for key, item in value.items():
            path = f"{name}.{key}" if name else key
            if key not in keys:
                _config_fail(f"unknown key {path}")
            _check_scene(item, keys[key], path)
    elif keys is bool:
        if not isinstance(value, bool):
            _config_fail(f"{name} must be true or false, not {value!r}")
    else:
        number = (int,) if keys is int else (int, float)
        try:
            ok = (isinstance(value, number) and not isinstance(value, bool)
                  and keys(value) > 0)
        except OverflowError:
            ok = False
        if not ok:
            kind = {float: "a number > 0", int: "an integer > 0"}.get(
                keys, "a finite number")
            _config_fail(f"{name} must be {kind}, not {value!r}")


def build_scene(cfg: dict):
    if isinstance(cfg, dict) and "integrator" in cfg:
        _config_fail("the integrator section is not supported: the "
                     "integrator tolerances are fixed (engine.RTOL and others)")
    _check_scene(cfg, SCENE_KEYS)
    if "connection" not in cfg or "poles" not in cfg.get("connection", {}):
        _config_fail("missing connection.poles")
    try:
        conn = connection_from_dict(cfg["connection"])
    except (errors.ConnexionError, KeyError, TypeError, ValueError) as exc:
        _config_fail(f"{exc} (the sphere requires the residues to sum to -2)"
                     if isinstance(exc, errors.SumMismatch) else str(exc))
    initials = []
    for item in cfg.get("initial", []):
        try:
            z = complex(float(item["re"]), float(item.get("im", 0.0)))
            v = complex(float(item["v_re"]), float(item.get("v_im", 0.0)))
        except KeyError as exc:
            _config_fail(f"bad initial condition {item!r}: {exc}")
        initials.append((z, v))
    return conn, initials


def integrator_options(budget_steps: int | None) -> IntegratorOptions:
    """The default budgets, with ``--budget-steps`` as the step cap if given."""
    if budget_steps is None:
        return IntegratorOptions()
    return IntegratorOptions(max_steps=budget_steps)


def render_window(cfg: dict) -> RenderWindow:
    w = cfg.get("window", {})
    return RenderWindow(center=complex(float(w.get("re", 0.0)),
                                       float(w.get("im", 0.0))),
                        half_width=float(w.get("half_width", 3.0)),
                        size=int(w.get("size", 640)))


# -- commands ------------------------------------------------------------------

@click.group()
def main():
    """Geodesics of Fuchsian connections with real residues on the sphere."""


_config_opt = click.option("--config", "config_path", required=True,
                           type=click.Path(), help="Scene configuration (JSON).")
_seed_opt = click.option("--seed", type=int, default=0, show_default=True,
                         help="Random seed of the portrait launch directions "
                              "and the verify teichmuller polygons.")
_budget_opt = click.option("--budget-steps", type=click.IntRange(min=1),
                           help="Cap on integrator step attempts, accepted "
                                "or rejected.")


@main.command()
@_config_opt
def validate(config_path):
    """Validate a scene configuration."""
    cfg = load_config(config_path)
    conn, initials = build_scene(cfg)
    total = sum(p.residue for p in conn.poles)
    click.echo(f"ok: {len(conn.finite_poles)} finite pole(s), "
               f"residue at infinity {conn.infinity_residue:g}, "
               f"total {total:g}")
    click.echo(f"ok: {len(initials)} initial condition(s)")


@main.command(name="trace")
@_config_opt
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="CSV output path.")
@click.option("--svg", "svg_path", type=click.Path(), default=None,
              help="SVG output path.")
@_budget_opt
def trace_cmd(config_path, out_path, svg_path, budget_steps):
    """Trace the configured geodesics; write CSV and/or SVG."""
    cfg = load_config(config_path)
    conn, initials = build_scene(cfg)
    if not initials:
        _config_fail("no initial conditions")
    t_max = float(cfg.get("t_max", 50.0))
    opts = integrator_options(budget_steps)
    trajectories = []
    for z, v in initials:
        try:
            traj = trace(conn, (z, v), t_max, opts)
        except errors.ConnexionError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)
        if traj.termination in ("step_collapse", "max_steps") \
                and traj.t_end < 0.01 * t_max:
            click.echo(f"numerical failure: {traj.termination} at t={traj.t_end:g}",
                       err=True)
            sys.exit(EXIT_NUMERICAL)
        trajectories.append(traj)
    if out_path:
        for i, traj in enumerate(trajectories):
            path = out_path if len(trajectories) == 1 else \
                _indexed_path(out_path, i)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(trajectory_to_csv(traj))
            click.echo(f"wrote CSV: {path}")
    if svg_path:
        doc = render_scene(conn, trajectories, render_window(cfg))
        with open(svg_path, "w", encoding="utf-8") as fh:
            fh.write(doc)
        click.echo(f"wrote SVG: {svg_path}")
    for i, traj in enumerate(trajectories):
        click.echo(f"trace {i}: termination={traj.termination} "
                   f"t_end={traj.t_end:.9g} samples={len(traj)}")


def _indexed_path(path, i):
    root, ext = os.path.splitext(path)
    return f"{root}-{i}{ext}"


@main.command(name="classify")
@_config_opt
@_budget_opt
def classify_cmd(config_path, budget_steps):
    """Classify the omega-limit set of each configured geodesic."""
    cfg = load_config(config_path)
    conn, initials = build_scene(cfg)
    if not initials:
        _config_fail("no initial conditions")
    bcfg = cfg.get("budget", {})
    budget = ClassifyBudget(
        t_max=float(bcfg.get("t_max", 200.0)),
        max_steps=budget_steps or int(bcfg.get("steps", 1_000_000)))
    for i, (z, v) in enumerate(initials):
        try:
            verdict = classify(conn, (z, v), budget)
        except errors.ConnexionError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)
        click.echo(f"initial {i}: {verdict}")


@main.command()
@_config_opt
@click.option("--svg", "svg_path", type=click.Path(), required=True)
@_seed_opt
@_budget_opt
def portrait(config_path, svg_path, seed, budget_steps):
    """Phase portrait over a grid of initial conditions."""
    cfg = load_config(config_path)
    conn, _ = build_scene(cfg)
    window = render_window(cfg)
    pcfg = cfg.get("portrait", {})
    n = int(pcfg.get("grid", 5))
    t_max = float(cfg.get("t_max", 30.0))
    opts = integrator_options(budget_steps)
    rng = np.random.default_rng(seed)
    span = np.linspace(-0.8, 0.8, n) * window.half_width
    seeds = []
    for re in span:
        for im in span:
            z = window.center + complex(re, im)
            if any(abs(z - pos) < 10 * POLE_FLOOR
                   for pos, _ in conn.chart_poles("standard")):
                continue
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            seeds.append((z, cmath.exp(1j * theta)))

    trajectories = []
    for seed_state in seeds:
        try:
            trajectories.append(trace(conn, seed_state, t_max, opts))
        except errors.ConnexionError:
            continue
    if not trajectories:
        click.echo("numerical failure: no trajectory completed", err=True)
        sys.exit(EXIT_NUMERICAL)
    with open(svg_path, "w", encoding="utf-8") as fh:
        fh.write(render_scene(conn, trajectories, window))
    click.echo(f"wrote SVG: {svg_path} ({len(trajectories)} trajectories)")


@main.command()
@click.argument("which", type=click.Choice(["local", "teichmuller", "saddles"]))
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Optional scene, only validated; the suites always run "
                   "on their built-in connections.")
@_seed_opt
def verify(which, config_path, seed):
    """Run a verification suite; exit 4 on any failing check."""
    if config_path is not None:
        build_scene(load_config(config_path))   # config errors still exit 2
    checks = {"local": _verify_local,
              "teichmuller": _verify_teichmuller,
              "saddles": _verify_saddles}[which](seed)
    failed = 0
    for name, ok, detail in checks:
        click.echo(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    if failed:
        click.echo(f"{failed} check(s) failed", err=True)
        sys.exit(EXIT_VERIFY)
    click.echo("all checks passed")


def _verify_local(seed):
    out = []
    for rho in (-0.5, 0.5, 1.0, 2.5):
        conn = build_connection([(SpherePoint.of(0.0), rho)])
        z0, v0 = 0.4 + 0.1j, 0.3 + 0.7j
        par = local_params(rho, 1.0, z0, v0)
        traj = trace(conn, (z0, v0), 0.6)
        ts = np.array(traj.times)
        zs = traj.support_array()
        zc = closed_form_path(par, ts)
        err = float(np.max(np.abs(zs - zc)))
        out.append((f"closed-form rho={rho}", err <= 1e-8, f"sup err {err:.3g}"))
        clen = critical_length(rho, 1.0)
        # int_0^1 s^rho ds = int_0^1 2 u^(2 rho + 1) du (s = u^2), smooth in u;
        # the Gauss-Legendre rule on [0, 1], whose weights sum to 1
        u, w = _gauss_legendre(16)
        quad = 2.0 * float(np.sum(w * u ** (2.0 * rho + 1.0)))
        ok = abs(quad - clen) <= 1e-6 * max(1.0, clen)
        out.append((f"critical-length rho={rho}", ok,
                    f"formula {clen:.9g} quadrature {quad:.9g}"))
    return out


def _verify_teichmuller(seed):
    out = []
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(50):
        rho = float(rng.uniform(-0.5, 3.0))
        v0 = float(rng.uniform(0.2, min(2 * math.pi - 0.2,
                                        1.8 * math.pi / (rho + 1.0))))
        m = max(3, int(v0 * (rho + 1.0) / 2.5) + 2)
        worst = max(worst, check_chart_polygon(
            rho, chart_polygon(rho, v0, rng.uniform(0.7, 1.3, 3 * m))))
    out.append(("chart-polygon identity x50", worst <= 1e-6,
                f"max residual {worst:.3g}"))

    conn = build_connection([(SpherePoint.of(0.0), -1.0),
                             (SpherePoint.inf(), -1.0)])
    traj = trace(conn, (1.0, 1j), 2.0 * math.pi)
    poly = GeodesicPolygon([side_from_trajectory(traj)],
                           [PolygonVertex(SpherePoint.of(1.0))])
    res = check_p1_formula(conn, poly)
    out.append(("periodic-circle identity", res <= 1e-9, f"residual {res:.3g}"))
    return out


def _verify_saddles(seed):
    out = []
    conn = build_connection([(SpherePoint.of(-1.0), 0.5),
                             (SpherePoint.of(1.0), 0.5)])
    sads = saddle_connection_search(conn, n_grid=8, t_max=20.0)
    pair = {(s.start_pole.z, s.end_pole.z if not s.end_pole.infinite else None)
            for s in sads}
    ok = ((-1 + 0j), (1 + 0j)) in pair and ((1 + 0j), (-1 + 0j)) in pair
    out.append(("real-segment saddle connection", ok,
                f"found {len(sads)} connection(s)"))
    if ok:
        a = next(s for s in sads if s.start_pole.z == -1)
        b = next(s for s in sads if s.start_pole.z == 1)
        poly = GeodesicPolygon(
            [side_from_trajectory(a.trajectory),
             side_from_trajectory(b.trajectory)],
            [PolygonVertex(SpherePoint.of(-1.0), "pole", 0.5),
             PolygonVertex(SpherePoint.of(1.0), "pole", 0.5)])
        charts = {0: pole_chart(conn, SpherePoint.of(-1.0)),
                  1: pole_chart(conn, SpherePoint.of(1.0))}
        res = check_p1_formula(conn, poly, enclosed=[SpherePoint.inf()],
                               charts=charts)
        out.append(("two-gon identity", res <= 1e-3, f"residual {res:.3g}"))
    return out


if __name__ == "__main__":
    main()
