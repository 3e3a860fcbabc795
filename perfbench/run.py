"""mfgsolver benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The package is imported from ./src, so
nothing needs installing. With --trace 0 the run times whole passes of the
workload for about S seconds, scales them to a reference machine speed
(speed.py) and prints the end-to-end metrics; with
--trace 1 it alternates untimed-hook and fully traced passes and prints
the per-layer metrics, the tracing overhead among them. Every operation
is checked for correctness, and the last line of standard output is the
JSON result. A copy of the result, with the exact counters of every pass
and the environment, goes to .bench_results/.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".bench_results"
SCRATCH = ROOT / ".bench_tmp"

# One BLAS thread: on a 2-core box two OpenBLAS threads were no faster at
# the largest KKT dimension (652), and one thread keeps timings steadier.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 7

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}

FAIL_CLASSES = ("NonDescent", "LineSearchStall", "NotConverged",
                "BoundaryViolation", "SingularMatrix", "unverified", "other")

PER_LAYER = {
    "gnep.iterations": "count",
    "gnep.ms_per_iter": "ms",
    "gnep.kkt_map.calls": "count",
    "gnep.kkt_map.s": "s",
    "gnep.kkt_map.calls_per_iter": "calls/iter",
    "gnep.kkt_jacobian.s": "s",
    "gnep.direction.self_s": "s",
    "gnep.linesearch.self_s": "s",
    "gnep.linesearch.backtracks": "count",
    "gnep.linesearch.accept_ratio": "ratio",
    "gnep.verify.s": "s",
    "gnep.verified_frac": "ratio",
    **{f"gnep.fail.{name}": "count" for name in FAIL_CLASSES},
    "irl.iterations": "count",
    "irl.us_per_iter": "us",
    "irl.setup.s": "s",
    "irl.verify.s": "s",
    "numerics.log_sum_exp.s": "s",
    "mdp.value_iteration.s": "s",
    "mdp.policy_evaluation.s": "s",
    "mdp.feature_expectation.s": "s",
    "estimation.simulate.s": "s",
    "estimation.estimators.s": "s",
    "estimation.sim_short_steps_per_s": "1/s",
    "estimation.sim_long_steps_per_s": "1/s",
    "cli.io.s": "s",
    "cli.write_json.s": "s",
    "cli.roundtrip.s": "s",
    **{f"layer.{name}.self_s": "s" for name in
       ("model", "numerics", "mdp", "gnep", "irl", "estimation", "cli", "bench")},
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_est_s": "s",
    "trace.unaccounted_s": "s",
    "trace.hook_calls": "count",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# Environment

def commit():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Passes

class Pass:
    """One pass: its wall time, checked operations, raw output and trace.
    `part` is "run" for a timed pass, "extra" for the once-per-run work,
    and "run+extra" for the two together, as the traced run measures them."""

    def __init__(self, part, wall, ops, raw, tracer):
        self.part, self.wall, self.ops, self.raw, self.tracer = part, wall, ops, raw, tracer
        self.factor = None   # speed factor from the probe, if the pass ran under one

    def counters(self):
        counters = dict(self.tracer.forward_counters())
        counters.update(self.raw.get("counters", {}))
        return counters


def run_pass(workload, tracer, part="run", scaled=False):
    """Time one call of workload.run (or .extra) under `tracer`, then check
    its operations outside the timed region. With `scaled`, a speed probe
    samples the machine during the pass; its handler time is not counted."""
    import speed
    from workloads import Op

    clock = time.perf_counter
    probe = speed.SpeedProbe() if scaled else contextlib.nullcontext()
    with tracer, probe:
        start = clock()
        try:
            raw = getattr(workload, part)()
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            raw = {"crash": f"{type(exc).__name__}: {exc}"}
        wall = clock() - start
    if "crash" in raw:
        ops = [Op(part, False, raw["crash"])]
    else:
        ops = workload.check(raw) if part == "run" else workload.check_extra(raw)
    p = Pass(part, wall, ops, raw, tracer)
    if scaled:
        p.wall -= probe.spent
        p.factor = speed.factor(probe.samples) if probe.samples else 1.0
    return p


def setup_probe(args, workdir):
    """Time import plus construction in this fresh process, then the
    machine's speed right after."""
    start = time.perf_counter()
    import workloads

    workloads.WORKLOADS[args.workload](args.seed, workdir)
    elapsed = time.perf_counter() - start
    import speed

    print(elapsed, speed.factor(speed.loop_times(50)))
    return 0


def setup_seconds(args):
    """Median import-plus-construction time over fresh processes, each
    scaled to the reference speed; also the raw (time, factor) pairs."""
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--trace", "0"],
            capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        probes.append([float(v) for v in proc.stdout.split()[-2:]])
    return statistics.median(t * f for t, f in probes), probes


def count_tracer():
    from tracing import COUNT_HOOKS, Tracer, missing_hooks

    missing = missing_hooks(COUNT_HOOKS)
    if missing:
        print(f"perfbench: warning: hooks {missing} not found; their counters are null",
              file=sys.stderr)
    return Tracer([h for h in COUNT_HOOKS if h not in missing], timed=False)


# ---------------------------------------------------------------------------
# Metrics

def layer_metrics(p):
    """Per-layer metrics of one traced pass (run plus extra)."""
    tr = p.tracer
    c = p.counters()
    its = c["gnep.iterations"] or 0
    trials = c["gnep.linesearch.trials"] or 0
    accepted = trials - (c["gnep.linesearch.backtracks"] or 0)
    gnep_loop = tr.incl("gnep.solve_gnep") - tr.edge("gnep.solve_gnep", "gnep.verify_mfe").incl
    irl_its = c.get("irl.iterations") or 0
    irl_loop = tr.incl("irl.solve_irl") - tr.edge("irl.solve_irl", "irl.smoothness_constants").incl
    forward = [op.forward for op in p.ops if op.forward]
    fails = {name: 0 for name in FAIL_CLASSES}
    for outcome in forward:
        if outcome != "verified":
            fails[outcome if outcome in fails else "other"] += 1
    layers = tr.layer_self()
    m = {
        "gnep.iterations": its,
        "gnep.ms_per_iter": 1e3 * gnep_loop / its if its else 0.0,
        "gnep.kkt_map.calls": c["gnep.kkt_map.calls"],
        "gnep.kkt_map.s": tr.incl("gnep.kkt_map"),
        "gnep.kkt_map.calls_per_iter": c["gnep.kkt_map.calls"] / its if its else 0.0,
        "gnep.kkt_jacobian.s": tr.incl("gnep.kkt_jacobian"),
        "gnep.direction.self_s": tr.self_time("gnep.newton_direction"),
        "gnep.linesearch.self_s": tr.self_time("gnep.armijo_step"),
        "gnep.linesearch.backtracks": c["gnep.linesearch.backtracks"],
        "gnep.linesearch.accept_ratio": accepted / trials if trials else 0.0,
        "gnep.verify.s": tr.incl("gnep.verify_mfe"),
        "gnep.verified_frac": forward.count("verified") / len(forward) if forward else 0.0,
        **{f"gnep.fail.{name}": n for name, n in fails.items()},
        "irl.iterations": irl_its,
        "irl.us_per_iter": 1e6 * irl_loop / irl_its if irl_its else 0.0,
        "irl.setup.s": tr.incl("irl.smoothness_constants"),
        "irl.verify.s": tr.incl("irl.verify_irl"),
        "numerics.log_sum_exp.s": tr.incl("numerics.log_sum_exp"),
        "mdp.value_iteration.s": tr.incl("mdp.value_iteration"),
        "mdp.policy_evaluation.s": tr.incl("mdp.policy_evaluation"),
        "mdp.feature_expectation.s": tr.incl("mdp.feature_expectation"),
        "estimation.simulate.s": tr.incl("estimation.simulate"),
        "estimation.estimators.s": (tr.incl("estimation.estimate_mean_field")
                                    + tr.incl("estimation.estimate_feature_expectation")),
        "cli.io.s": layers["cli"],
        "cli.write_json.s": tr.incl("cli.write_json"),
        **{f"layer.{name}.self_s": t for name, t in layers.items()},
        "layer.bench.self_s": p.wall - tr.top_level_time(),
        "trace.hook_calls": sum(s.calls for s in tr.stats.values()),
    }
    return m


def traced_metrics(workload, untraced, traced):
    """Average the per-pass layer metrics and add the untraced figures."""
    from tracing import wrapper_cost

    per_pass = [layer_metrics(p) for p in traced]
    m = {name: statistics.fmean(pm[name] for pm in per_pass) for name in per_pass[0]}
    u_wall = statistics.fmean(p.wall for p in untraced)
    t_wall = statistics.fmean(p.wall for p in traced)
    package_self = sum(m[f"layer.{name}.self_s"] for name in
                       ("model", "numerics", "mdp", "gnep", "irl", "estimation", "cli"))
    m["trace.wall_s"] = t_wall
    m["trace.untraced_wall_s"] = u_wall
    m["trace.overhead_s"] = t_wall - u_wall
    m["trace.overhead_est_s"] = m["trace.hook_calls"] * wrapper_cost()
    m["trace.unaccounted_s"] = u_wall - package_self
    # Figures the tracer cannot split: timed from inside the untraced passes.
    m["estimation.sim_short_steps_per_s"] = m["estimation.sim_long_steps_per_s"] = 0.0
    m["cli.roundtrip.s"] = 0.0
    times = [p.raw["times"] for p in untraced if "times" in p.raw]
    if times:
        for shape in ("short", "long"):
            n, T = getattr(workload, shape.upper())
            m[f"estimation.sim_{shape}_steps_per_s"] = n * T / statistics.median(
                t[f"sim_{shape}_s"] for t in times)
        m["cli.roundtrip.s"] = statistics.median(t["roundtrip_s"] for t in times)
    return m


# ---------------------------------------------------------------------------

def wants_more(walls, seconds, minimum):
    """Another pass while fewer than `minimum` ran or the next is expected
    to end within `seconds` of measuring."""
    return len(walls) < minimum or sum(walls) + statistics.fmean(walls) <= seconds


def measure(args, workload):
    """Run the passes; returns (metrics, passes, report extras)."""
    from tracing import TRACE_HOOKS, Tracer

    extras = {}
    if args.trace == 0:
        setup_s, extras["setup_probes_s_factor"] = setup_seconds(args)
        passes = []
        while wants_more([p.wall for p in passes], args.seconds, 2):
            passes.append(run_pass(workload, count_tracer(), scaled=workload.scaled))
        extras["raw_wall_s"] = statistics.median(p.wall for p in passes)
        metrics = {"setup_s": setup_s,
                   "wall_s": statistics.median(p.wall * (p.factor or 1.0) for p in passes)}
        extra = run_pass(workload, count_tracer(), "extra")
        if extra.ops:
            extras["extra_wall_s"] = extra.wall
            passes.append(extra)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return metrics, passes, extras

    untraced, traced = [], []
    while wants_more([u.wall + t.wall for u, t in zip(untraced, traced)], args.seconds, 1):
        # One untraced and one traced pass, each including the extra work.
        for group, make in ((untraced, count_tracer), (traced, lambda: Tracer(TRACE_HOOKS))):
            p = run_pass(workload, make())
            q = run_pass(workload, p.tracer, "extra")
            p.part, p.wall, p.ops = "run+extra", p.wall + q.wall, p.ops + q.ops
            group.append(p)
    return traced_metrics(workload, untraced, traced), untraced + traced, extras


def summarize(args, metrics, units, passes, extras, env):
    ops = [op for p in passes for op in p.ops]
    failed = [op for op in ops if not op.ok]
    # Exact counters per kind of pass; every pass of a kind must agree.
    distinct = {}
    for p in passes:
        seen = distinct.setdefault(p.part, [])
        if p.counters() not in seen:
            seen.append(p.counters())
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "pass_wall_s": [p.wall for p in passes],
        "pass_factor": [p.factor for p in passes],
        "counters": distinct,
        "counters_stable": all(len(seen) == 1 for seen in distinct.values()),
        "attempted": len(ops),
        "failed": len(failed),
        "failures": [f"{op.kind}: {op.detail}" for op in failed],
        "outcomes": {k: sum(op.forward == k for op in ops)
                     for k in sorted({op.forward for op in ops if op.forward})},
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        **extras,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes)} passes, {len(ops)} operations, {len(failed)} failed")
    for line in report["failures"]:
        print(f"  FAILED {line}")
    print(f"  counters: {json.dumps(distinct)}")
    if not report["counters_stable"]:
        print("  WARNING: exact counters differ between passes of one kind")
    print(f"  outcomes: {json.dumps(report['outcomes'])}")
    print(f"  environment: {json.dumps(env)}")
    print(f"  report: {out.relative_to(ROOT)}")
    return {
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": report["metrics"],
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "mfgsolver" / "__init__.py").is_file():
        return fail(f"no package source at {SRC}; run from a repository checkout")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)

    workdir = SCRATCH / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            return setup_probe(args, workdir)
        import workloads
        from tracing import TRACE_HOOKS, missing_hooks

        if args.workload not in workloads.WORKLOADS:
            return fail(f"unknown workload {args.workload!r}; "
                        f"choose from {sorted(workloads.WORKLOADS)}")
        if args.trace == 1 and missing_hooks(TRACE_HOOKS):
            names = ", ".join(f"mfgsolver.{h}" for h in missing_hooks(TRACE_HOOKS))
            return fail(f"traced functions not found: {names}", 3)
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        metrics, passes, extras = measure(args, workload)
        units = END_TO_END if args.trace == 0 else PER_LAYER
        result = summarize(args, metrics, units, passes, extras, environment(args.seed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
