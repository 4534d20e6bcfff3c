#!/usr/bin/env python3
"""Layered benchmark of the rauzy package.

Run from the repository root:

    python3 perfbench/run.py --workload draw|verify|cover --seed N --seconds S --trace 0|1

One client runs the workload's fixed op list in a closed loop, one op at a
time on one CPU, repeating the list while another full pass fits in
--seconds (at least one pass).  Every op's output is checked.

An op's cost is the CPU time (user + system) of the processes doing it,
divided by the CPU time of a fixed probe loop run on the same CPU just
before and after it (see probe.py); its unit is "probe".  pass_cpu_rel is
the cost of the first pass, whose first op is cold; op_cpu_rel_mean is the
mean cost of all later ops.  The CPU seconds themselves (pass_cpu_s,
op_cpu_s_p50, the cold first_op_cpu_s), the probe times and the wall times
are printed and kept in the run record.  BLAS and OpenMP pools are held to
one thread: two BLAS threads made the verify op slower in wall time
(13.0-14.8 s against 12.1 s) and spent 2-3 s of CPU spinning.  A change
that only spreads work over more cores shows in the wall times, not in
these metrics.

With --trace 0 the end-to-end metrics of BENCHMARK.json are measured with
tracing off; with --trace 1 the same ops run with spans around the package's
public functions (see tracer.py) and the per-layer metrics are reported.
LAYERS.md maps each per-layer metric to the end-to-end metric and workload
it should move.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The full record (environment, per-op times and checks,
output digests) is written to .bench_work/results/, and a traced run's
spans to .bench_work/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback

from probe import cost, probe_cpu_s
from tracer import Tracer, check_self_time_arithmetic, leftovers, per_span_cost, self_times
from workloads import WORKLOADS, Context, OpResult, run_child, write_inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
# thread pools held to one thread each (see the module docstring)
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPEATS = 5
SETUP_CODE = """\
import sys
import rauzy.cli
from rauzy.adic import SubstitutionSet
from rauzy.core import load_substitution_file
for path in sys.argv[1:]:
    SubstitutionSet(load_substitution_file(path)).spectral()
"""


def parse_args(argv):
    p = argparse.ArgumentParser(description="layered benchmark of the rauzy package")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


# ---------------------------------------------------------------------------
# environment record


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package sources, which names the code measured even
    where the checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def environment(seed: int, nproc: int) -> dict:
    from importlib.metadata import version

    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": nproc,
        "cpu": cpu_model(),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "seed": seed,
        "commit": git_commit(),
        "src_sha256": source_digest(),
    }


# ---------------------------------------------------------------------------
# set-up and the op loop


def measure_setup(ctx: Context, subs, repeats: int) -> tuple[list[float], list[float], bool]:
    """CPU and wall seconds of fresh interpreters that import rauzy.cli,
    load the substitution files and compute their spectral data.  One
    untimed run first compiles bytecode and warms the file cache."""
    argv = [ctx.python, "-c", SETUP_CODE, *(ctx.files[s] for s in subs)]
    cpu, wall, ok = [], [], True
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        code, _, _, cpu_s = run_child(argv, ctx, os.path.join(ctx.work, "setup.log"))
        elapsed = time.perf_counter() - t0
        ok = ok and code == 0
        if i:
            cpu.append(cpu_s)
            wall.append(elapsed)
    return cpu, wall, ok


def load_sets(ctx: Context, subs) -> None:
    from rauzy.adic import SubstitutionSet
    from rauzy.core import load_substitution_file

    for name in subs:
        sset = SubstitutionSet(load_substitution_file(ctx.files[name]))
        sset.spectral()
        ctx.sets[name] = sset


def run_op(op, ctx: Context, k: int) -> OpResult:
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        return op(ctx, k)
    except Exception:  # a failing op is counted, and the run goes on
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        return OpResult(f"op {k}", wall, cpu, False, [traceback.format_exc()], {})


def run_passes(ctx: Context, ops, seconds: float, tracer: Tracer | None = None):
    """Passes over the op list while another fits in `seconds` of wall time.
    Returns the op results and each pass's wall time.  Untraced, the probe
    runs before each op, between its segments and after the last op, and
    the results come with each op's cost in probe units."""
    results: list[OpResult] = []
    pass_times: list[float] = []
    first_probe: list[int] = []  # index in ctx.probes of the probe before each op
    if tracer is None:
        ctx.probes = []
    while True:
        elapsed = 0.0
        for op in ops:
            k = len(results)
            if tracer is None:
                ctx.probe()
                first_probe.append(len(ctx.probes) - 1)
                result = run_op(op, ctx, k)
            else:
                tracer.op = k
                idx = tracer.begin("op")
                try:
                    result = run_op(op, ctx, k)
                finally:
                    tracer.end(idx)
            results.append(result)
            elapsed += result.seconds
        pass_times.append(elapsed)
        if sum(pass_times) + pass_times[-1] > seconds:
            break
    if tracer is not None:
        return results, pass_times, []
    ctx.probe()
    first_probe.append(len(ctx.probes) - 1)
    costs = []
    for k, r in enumerate(results):
        around = ctx.probes[first_probe[k] : first_probe[k + 1] + 1]
        if len(r.segments) == len(around) - 1:
            costs.append(cost(r.segments, around))
        else:  # a failed op: its CPU time between the probes around it
            costs.append(cost([r.cpu_s], [around[0], around[-1]]))
    return results, pass_times, costs


# ---------------------------------------------------------------------------
# the two kinds of run


def untraced_run(ctx: Context, workload, seed: int, seconds: float):
    # one CPU for the ops, their child processes and the probes, so that each
    # probe meets the same neighbours as the op beside it; the last CPU, as
    # the first takes most device interrupts
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    setup_cpu, setup_wall, setup_ok = measure_setup(ctx, workload.subs, SETUP_REPEATS)
    if workload.in_process:
        sys.path.insert(0, SRC)
        load_sets(ctx, workload.subs)
    probe_cpu_s()  # warm-up
    results, pass_times, rel = run_passes(ctx, workload.ops(seed), seconds)
    if workload.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = max(r.rss_kb for r in results)
    cpu = [r.cpu_s for r in results]
    wall = [r.seconds for r in results]
    first_pass = len(workload.ops(seed))
    metrics = {
        "setup_s": statistics.median(setup_cpu),
        "pass_cpu_rel": sum(rel[:first_pass]),
        "op_cpu_rel_mean": statistics.mean(rel[1:]),
        "peak_rss_mb": rss_kb / 1024,
    }
    problems = [] if setup_ok else ["a set-up interpreter exited non-zero"]
    extra = {
        "pass_cpu_s": sum(cpu[:first_pass]),
        "op_cpu_s_p50": statistics.median(cpu[1:]),
        "first_op_cpu_s": cpu[0],
        "first_op_cpu_rel": rel[0],
        "op_cpu_rel": rel,
        "probe_cpu_s": ctx.probes,
        "setup_cpu_s_samples": setup_cpu,
        "ops_after_first": len(results) - 1,
        "wall": {
            "setup_s": statistics.median(setup_wall),
            "pass_s": pass_times[0],
            "first_op_s": wall[0],
            "op_s_p50": statistics.median(wall[1:]),
        },
    }
    return results, metrics, problems, extra


def traced_run(ctx: Context, workload, seed: int, seconds: float):
    measure_setup(ctx, workload.subs, 0)  # compiles bytecode
    tracer = Tracer()
    tracer.install_kdtree()
    setup = tracer.begin("setup")
    imp = tracer.begin("cli.import")
    sys.path.insert(0, SRC)
    import rauzy.cli  # noqa: F401  (timed: the import is a layer)

    tracer.end(imp)
    missing = tracer.install_functions()
    if workload.in_process:
        load_sets(ctx, workload.subs)
    tracer.end(setup)
    ctx.traced = True
    try:
        results, pass_times, _ = run_passes(ctx, workload.ops(seed), seconds, tracer)
    finally:
        tracer.uninstall()
    problems = []
    left = leftovers()
    if left:
        problems.append(f"wrappers left after the traced run: {left}")
    if not check_self_time_arithmetic():
        problems.append("self-time arithmetic failed on the synthetic span tree")
    problems += check_transparency(ctx, workload, seed)
    tracer.dump(os.path.join(ctx.work, f"trace-{workload.name}-seed{seed}.json"))
    metrics = layer_metrics(tracer, pass_times)
    layers = {name: {"calls": c, "busy_s": b} for name, (c, b) in tracer.layer_totals().items()}
    extra = {"pass_s": pass_times, "missing_targets": missing, "layers": layers}
    return results, metrics, problems, extra


def check_transparency(ctx: Context, workload, seed: int) -> list[str]:
    """Run a small op of the workload untraced and traced; outputs and
    check results must agree, and no wrapper may remain afterwards."""
    op = workload.mini_op(seed)
    ctx.traced = False
    plain = run_op(op, ctx, 0)
    probe = Tracer()
    probe.install_kdtree()
    probe.install_functions()
    ctx.traced = True
    try:
        traced = run_op(op, ctx, 0)
    finally:
        probe.uninstall()
    problems = []
    if not plain.ok:
        problems.append(f"untraced check op failed: {plain.problems}")
    if (plain.ok, plain.digests) != (traced.ok, traced.digests):
        problems.append(f"traced op differs from untraced: {plain.digests} vs {traced.digests}")
    if not probe.spans:
        problems.append("the traced check op recorded no spans")
    left = leftovers()
    if left:
        problems.append(f"wrappers left after the check op: {left}")
    return problems


def layer_metrics(tracer: Tracer, pass_times: list[float]) -> dict[str, float]:
    """Every per-layer value the trace yields, keyed by metric name.

    A layer's busy time is given as a share of the traced run (set-up and
    ops): a layer the workload never reaches is busy for exactly 0 s on every
    run, and no per-layer time is meant to read the same on every run.  The
    seconds are in the run record under "layers".
    """
    out: dict[str, float] = dict(tracer.counts)
    top = sum(s.end - s.start for s in tracer.spans if s.parent < 0)
    for name, (calls, busy) in tracer.layer_totals().items():
        out[f"{name}.calls"] = calls
        out[f"{name}.busy_share"] = busy / top
    out["cli.import_s"] = tracer.first_duration("cli.import")
    out["fractal.project_word.first_call_s"] = tracer.first_duration("fractal.project_word")
    c = tracer.counts
    stepped = c.get("fractal.gifs_attractor.stepped", 0)
    out["fractal.gifs_attractor.keep_ratio"] = c.get("fractal.gifs_attractor.kept", 0) / stepped if stepped else 0.0
    queried = c.get("fractal.coverage_estimate.query_points", 0)
    out["fractal.coverage_estimate.hit_ratio"] = (
        c.get("fractal.coverage_estimate.covered", 0) / queried if queried else 0.0
    )
    own = self_times(tracer.spans)
    named = sum(t for s, t in zip(tracer.spans, own) if s.name not in ("setup", "op"))
    out["trace.named_share"] = named / top
    out["trace.wall_s"] = pass_times[0]
    out["trace.spans"] = len(tracer.spans)
    out["trace.overhead_s"] = per_span_cost() * len(tracer.spans)
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    # on SIGTERM, unwind so a running child is killed and reaped (run_child)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "rauzy", "__init__.py")):
        print(f"error: no rauzy package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]

    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = "1"
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    ctx = Context(root=ROOT, work=WORK, python=sys.executable, env=child_env, files=write_inputs(WORK))
    workload = WORKLOADS[args.workload]
    env = environment(args.seed, nproc)

    run = traced_run if args.trace else untraced_run
    results, values, problems, extra = run(ctx, workload, args.seed, args.seconds)

    metrics = {}
    for m in declared:
        if m["name"] in values:
            metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
        elif args.trace:
            metrics[m["name"]] = {"value": 0.0, "unit": m["unit"]}  # layer not reached
        else:
            problems.append(f"metric {m['name']} was not measured")
    failed = sum(not r.ok for r in results)
    correct = failed == 0 and not problems

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "ops": [vars(r) for r in results],
        "problems": problems,
        "metrics": metrics,
        **extra,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, "results", name), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    print("environment: " + json.dumps(env))
    for k, r in enumerate(results):
        status = "ok" if r.ok else "FAILED " + "; ".join(r.problems)
        print(f"op {k} {r.label}: {r.cpu_s:.3f} s CPU, {r.seconds:.3f} s wall, {status} {json.dumps(r.digests)}")
    if "first_op_cpu_s" in extra:
        for name in ("pass_cpu_s", "op_cpu_s_p50", "first_op_cpu_s"):
            print(f"{args.workload} {name}: {extra[name]:.6g} s")
        print(f"{args.workload} first_op_cpu_rel (cold): {extra['first_op_cpu_rel']:.6g} probe")
        print(f"{args.workload} probe_cpu_s_p50: {statistics.median(extra['probe_cpu_s']):.6g} s")
    for name, value in extra.get("wall", {}).items():
        print(f"{args.workload} wall {name}: {value:.6g} s")
    for problem in problems:
        print(f"problem: {problem}")
    for name, layer in extra.get("layers", {}).items():
        print(f"{args.workload} layer {name}: {layer['calls']} calls, {layer['busy_s']:.6g} s busy")
    for key, m in metrics.items():
        print(f"{args.workload} {key}: {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} error_rate: {failed / len(results):.6g} ({failed} of {len(results)} ops failed)")
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
