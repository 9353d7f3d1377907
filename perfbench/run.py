"""Layered benchmark of connexion.

Run from the repository root:

    python3 perfbench/run.py                       # every workload
    python3 perfbench/run.py --workload audit --seed 3 --seconds 20 --trace 0

One process drives the public API; the only other processes are the fresh
interpreters that time set-up (and, with ``--workload all``, one process per
workload).  Operations are timed by the CPU time of the process, scaled to a
machine of nominal speed by a reference kernel timed around them (see
calib.py); the unscaled and wall-clock figures are printed too.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs every operation untraced and traced, back to back, and reports the
per-layer metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext
from pathlib import Path

import calib
import spans as spans_mod

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
WORKLOADS = ("trace_long", "audit", "shoot", "crossings")
HELD_OUT_SEED = 1000          # keep out of tuning; use it to confirm a claimed gain
SETUP_REPEATS = 5
MIN_PASSES = 2                # the digest check compares passes
TERMINATIONS = ("t_max", "pole_approach", "max_steps", "step_collapse",
                "time_budget")


def import_package():
    """Import connexion from this checkout's src/, and nowhere else."""
    if not (SRC / "connexion" / "__init__.py").is_file():
        sys.exit(f"perfbench: no connexion package under {SRC}")
    sys.path.insert(0, str(SRC))
    import connexion
    if SRC.resolve() not in Path(connexion.__file__).resolve().parents:
        sys.exit(f"perfbench: imported connexion from {connexion.__file__}")


# -- set-up: fresh interpreter -> import connexion.cli and inputs built ---------

def setup_child(workload: str, seed: int):
    t0 = time.perf_counter()
    import_package()
    import connexion.cli  # noqa: F401
    t1 = time.perf_counter()
    import workloads
    TMP.mkdir(exist_ok=True)
    workloads.BUILDERS[workload](seed, TMP)
    t2 = time.perf_counter()
    # CPU time of the main thread since the interpreter started; the threads
    # numpy's BLAS starts, and spins at times, are left out
    ru = resource.getrusage(resource.RUSAGE_THREAD)
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1,
                      "cpu_s": ru.ru_utime + ru.ru_stime}))


def _spawn(workload, seed, importtime=False):
    """Run one set-up child; returns its wall time, report and standard
    error."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(Path(__file__).resolve()), "--setup-child",
        "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
    return wall, json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def scipy_import_us(importtime_log: str) -> float:
    """Sum of the self times of scipy modules in an ``-X importtime`` log."""
    total = 0
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _cum, name = line[len("import time:"):].split("|", 2)
        name = name.strip()
        if (name == "scipy" or name.startswith("scipy.")) and self_us.strip().isdigit():
            total += int(self_us)
    return float(total)


def measure_setup(workload, seed, speed):
    """CPU and wall times of fresh set-up interpreters; one more interpreter
    measures scipy's share of the import."""
    starts, cpus, walls, imports = [], [], [], []
    for _ in range(SETUP_REPEATS):
        speed.tick()
        starts.append(time.perf_counter())
        wall, rep, _ = _spawn(workload, seed)
        cpus.append(rep["cpu_s"])
        walls.append(wall)
        imports.append(rep["import_s"])
    out = {"starts": starts, "cpus": cpus,
           "setup_cpu_s": statistics.median(cpus),
           "setup_wall_s": statistics.median(walls),
           "cli_import_s": statistics.median(imports)}
    _, rep, log = _spawn(workload, seed, importtime=True)
    out["scipy_s"] = scipy_import_us(log) / 1e6
    out["scipy_share"] = out["scipy_s"] / rep["import_s"]
    return out


# -- passes ----------------------------------------------------------------------

def run_op(op, tracer, digests, failures):
    """Time one op, then check its result outside the timed region, so
    results need not be kept.  Returns its (start, CPU, wall) times, or None
    if it raised.  The CPU time counts every thread of the process."""
    try:
        with tracer.recording("bench") if tracer is not None else nullcontext():
            c0, t0 = time.process_time(), time.perf_counter()
            result = op.fn()
            dt = (t0, time.process_time() - c0, time.perf_counter() - t0)
    except Exception:   # an op that raises is counted as failed, not fatal
        failures.append(f"{op.label}: {traceback.format_exc(limit=3)}")
        return None
    try:
        bad = op.check(result)
        if op.digest is not None:
            d = op.digest(result)
            if digests.setdefault(op.label, d) != d:
                bad.append(f"{op.label}: output differs from its first run")
    except Exception:
        bad = [f"{op.label} check: {traceback.format_exc(limit=3)}"]
    if bad:
        failures.append("; ".join(bad))
    return dt


def run_pass(w, tracer, digests, failures, speed, index=0):
    """Every op of the workload once.  With a tracer, every op runs twice
    back to back, untraced and traced, so the tracing overhead is measured on
    pairs that share the machine's state.  Which of the two goes first
    alternates from op to op and from pass to pass.  The speed kernel runs
    between ops, never inside one."""
    plain, traced = {}, {}
    started = time.perf_counter()
    for i, op in enumerate(w.ops):
        speed.tick()
        order = (None, tracer) if (i + index) % 2 == 0 else (tracer, None)
        for tr in (order if tracer is not None else (None,)):
            dt = run_op(op, tr, digests, failures)
            if dt is not None:
                (plain if tr is None else traced)[op.label] = dt
    return {"durations": plain, "traced": traced,
            "elapsed": time.perf_counter() - started}


def tail(values):
    """Highest percentile with at least ten samples beyond it, as
    (value, percentile, n); the maximum when there are 20 samples or fewer."""
    v = sorted(values)
    n = len(v)
    if n > 20:
        return v[n - 11], 100.0 * (n - 10) / n, n
    return v[-1], 100.0, n


# -- per-layer metrics from spans ---------------------------------------------

def layer_metrics(tracer, n_traced, w):
    from connexion.omega import OmegaVerdict
    spans = tracer.spans
    own = spans_mod.self_times(spans)
    per = 1.0 / n_traced
    by_name = defaultdict(float)
    calls = Counter()
    for s in spans:
        by_name[s.name] += own[id(s)]
        calls[s.name] += 1
    m = {}
    for mod, fn, _ in spans_mod.TRACED:
        m[f"{mod}.{fn}.self_s"] = (by_name[f"{mod}.{fn}"] * per, "s")
    for mod in ("engine", "omega", "polygons", "localchart", "svg", "cli", "bench"):
        m[f"{mod}.self_s"] = (sum(v for k, v in by_name.items()
                                  if k.split(".")[0] == mod) * per, "s")
    traces = [s for s in spans if s.name == "engine.trace"]
    steps = sum(s.info["steps"] for s in traces)
    t_span = sum(s.info["t_span"] for s in traces)
    trace_self = sum(own[id(s)] for s in traces)
    pole = [s for s in traces if s.info["term"] == "pole_approach"]
    pole_steps = sum(s.info["steps"] for s in pole)
    m["engine.trace.calls"] = (len(traces) * per, "count")
    m["engine.trace.steps"] = (steps * per, "count")
    m["engine.trace.us_per_step"] = (1e6 * trace_self / steps if steps else 0.0, "us")
    m["engine.trace.steps_per_tu"] = (steps / t_span if t_span else 0.0, "1/t")
    m["engine.trace.pole_us_per_step"] = (
        1e6 * sum(own[id(s)] for s in pole) / pole_steps if pole_steps else 0.0, "us")
    m["engine.trace.chart_switches"] = (sum(s.info["switches"] for s in traces) * per,
                                        "count")
    terms = Counter(s.info["term"] for s in traces)
    for cause in TERMINATIONS:
        m[f"engine.trace.term.{cause}"] = (terms[cause] * per, "count")
    m["engine.c_drift_max"] = (w.figures.get("c_drift_max", 0.0), "rel")
    for caller in ("omega.detect_period", "polygons.connect_unique"):
        n = sum(1 for s in traces if s.parent is not None and s.parent.name == caller)
        m[f"{caller}.trace_calls"] = (n * per, "count")
    m["localchart.adapted_chart.calls"] = (calls["localchart.adapted_chart"] * per, "count")
    tags = Counter(s.info["tag"] for s in spans if s.name == "omega.classify")
    for tag in OmegaVerdict.TAGS:
        m[f"omega.verdict.{tag}"] = (tags[tag] * per, "count")
    wall = sum(s.end - s.start for s in spans if s.parent is None)
    m["trace.wall_s"] = (wall * per, "s")
    m["trace.accounted_frac"] = (
        sum(own[id(s)] for s in spans if s.name != "bench") / wall if wall else 0.0,
        "frac")
    return m


# -- one workload ----------------------------------------------------------------

def run_workload(name, seed, seconds, trace):
    import workloads

    speed = calib.Speed()
    setup = measure_setup(name, seed, speed)
    w = workloads.BUILDERS[name](seed, TMP)
    tracer = spans_mod.Tracer() if trace else None
    digests, failures, passes = {}, [], []
    start = time.perf_counter()
    while True:
        p = run_pass(w, tracer, digests, failures, speed, len(passes))
        passes.append(p)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + p["elapsed"] > seconds:
            break

    speed.tick(force=True)            # brackets the last op

    attempted = len(w.ops) * len(passes) * (2 if trace else 1)
    failed = len(failures)
    per_op = defaultdict(list)
    for p in passes:
        for label, dt in p["durations"].items():
            per_op[label].append(dt)
    # Other tenants slow the CPU down by tens of percent, for seconds to
    # minutes, so each CPU time is scaled to a machine of nominal speed by
    # the speed kernel run around it (see calib.py).  An op's time is the
    # median of its scaled times over the passes.
    op_times = {label: statistics.median(c * speed.scale(t) for t, c, _ in v)
                for label, v in per_op.items()}
    by_kind = defaultdict(list)
    for op in w.ops:
        if op.label in op_times:
            by_kind[op.kind].append(op_times[op.label])
    tail_v, tail_q, tail_n = (tail(by_kind["classify"]) if by_kind["classify"]
                              else (0.0, 0.0, 0))

    e2e = {
        "setup_s": (statistics.median(c * speed.scale(t) for t, c in
                                      zip(setup["starts"], setup["cpus"])), "s"),
        "pass_s": (sum(op_times.values()), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
    }
    verdicts = w.figures.get("verdicts", {})
    # Figures reported by name but not bounded end to end: some exist on one
    # workload only, the audit's tail rests on its ten slowest seeded
    # configurations, so it moves more between seeds than any bound allows,
    # and unscaled times move with the load other programs put on the machine.
    named = {
        "cpu_s": (sum(statistics.median(c for _, c, _ in v)
                      for v in per_op.values()), "s"),
        "wall_s": (sum(statistics.median(wall for _, _, wall in v)
                       for v in per_op.values()), "s"),
        "setup_cpu_s": (setup["setup_cpu_s"], "s"),
        "setup_wall_s": (setup["setup_wall_s"], "s"),
        "speed.kernel_ms": (1e3 * statistics.median(speed.samples), "ms"),
        "classify_p50_ms": (1e3 * statistics.median(by_kind["classify"])
                            if by_kind["classify"] else 0.0, "ms"),
        "classify_tail_ms": (1e3 * tail_v, "ms"),
        "undetermined_frac": (sum(t == "Undetermined" for t in verdicts.values())
                              / len(verdicts) if verdicts else 0.0, "frac"),
        "connect_s": (sum(by_kind["connect"]), "s"),
        "saddle_s": (sum(by_kind["saddle"]), "s"),
        "ring_s": (sum(by_kind["ring"]), "s"),
        "portrait_s": (sum(by_kind["portrait"]), "s"),
    }
    info = {"passes": len(passes), "traced": bool(trace),
            "tail": f"p{tail_q:.4g} of {tail_n} configs" if tail_n else "",
            "setup": setup,
            "figures": {key: v for key, v in w.figures.items()
                        if isinstance(v, float)}}
    layers = None
    if trace:
        layers = layer_metrics(tracer, len(passes), w)
        both = [(p["durations"][label][1], dt[1]) for p in passes
                for label, dt in p["traced"].items() if label in p["durations"]]
        layers["trace.overhead_frac"] = (
            sum(t for _, t in both) / sum(u for u, _ in both) - 1.0, "frac")
        layers["cli.import_s"] = (setup["cli_import_s"], "s")
        layers["cli.import.scipy_s"] = (setup["scipy_s"], "s")
        layers["cli.import.scipy_share"] = (setup["scipy_share"], "frac")
        layers["src.lines"] = (float(src_lines()), "count")
        layers.update(named)
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "e2e": e2e, "named": named, "layers": layers, "info": info}


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((SRC / "connexion").rglob("*.py")))


def report(name, seed, r):
    info = r["info"]
    head = (f"# {name}: seed={seed} held_out_seed={HELD_OUT_SEED} "
            f"src_lines={src_lines()} "
            f"scipy_import_share={info['setup']['scipy_share']:.3f} "
            f"passes={info['passes']} traced={info['traced']}")
    if info["tail"]:
        head += f" classify_tail={info['tail']}"
    print(head)
    rows = dict(r["e2e"])
    rows["failed_frac"] = (r["failed"] / r["attempted"], "frac")
    rows.update({k: v for k, v in r["named"].items() if v[0]})
    rows.update(r["layers"] or {})
    for key, (value, unit) in rows.items():
        print(f"{name:<10} {key:<40} {value:>14.6g} {unit}")
    for key, value in sorted(info["figures"].items()):
        print(f"{name:<10} check.{key:<34} {value:>14.3g}")
    for msg in r["failures"][:20]:
        print(f"FAILED {name}: {msg}", file=sys.stderr)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_child:
        setup_child(args.workload, args.seed)
        return
    if args.workload == "all":
        # one process per workload, so that each peak_rss_mb is its own
        codes = [subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                 "--workload", name, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        sys.exit(max(codes))
    import_package()
    TMP.mkdir(exist_ok=True)
    try:
        r = run_workload(args.workload, args.seed, args.seconds, args.trace)
        report(args.workload, args.seed, r)
        metrics = r["layers"] if args.trace else r["e2e"]
        print(json.dumps({
            "correct": r["failed"] == 0, "attempted": r["attempted"],
            "failed": r["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}), flush=True)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)


if __name__ == "__main__":
    main()
