"""The benchmark's inputs, its three workloads and their output checks.

Every op runs on files and sequence specs the benchmark generates; the
program never sees the seed in any other form.

- draw: the user's picture pipeline as two fresh CLI processes per op,
  `fractal --points 1000000 --format both` then `render` of that CSV.  CSV
  write and read dominate; GIFS, k-d trees and coverage do no work.
- verify: the paper's verification facts as in-process library calls, on a
  d=3 pair (GIFS depth 24 thins past the point budget) and a d=4 pair
  (depth 20 stays unthinned with a 3-D stable space).  Identity sweep, GIFS,
  k-d tree builds and full nearest-neighbour queries dominate.
- cover: lattice coverage of the 200k-point cloud of `(1)`, radius 2, step
  0.02, ten times per pass.  k-d tree queries against one fixed tree
  dominate.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from probe import probe_cpu_s

SUBS = {
    "tribo": """\
alphabet: abc

[sub one]
a -> ab
b -> ac
c -> a

[sub two]
a -> ab
b -> ca
c -> a
""",
    # same incidence matrix for both blocks: letters permuted inside images
    "quad": """\
alphabet: abcd

[sub one]
a -> ab
b -> ac
c -> ad
d -> a

[sub two]
a -> ba
b -> ac
c -> da
d -> a
""",
}

# A run must end within 180 s; children still running past this are killed.
RUN_DEADLINE_S = 170


@dataclass
class Context:
    """What an op needs: where to write, how to start the program, the
    loaded substitution sets (in-process workloads only)."""

    root: str
    work: str
    python: str
    env: dict
    files: dict[str, str]
    sets: dict = field(default_factory=dict)
    traced: bool = False
    deadline: float = field(default_factory=lambda: time.monotonic() + RUN_DEADLINE_S)
    probes: list[float] | None = None  # probe CPU seconds, when probing

    def probe(self) -> None:
        if self.probes is not None:
            self.probes.append(probe_cpu_s())


class OpClock:
    """Wall and CPU time of an op's segments.  Between two segments the
    context's probe runs, outside both sums."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.wall = 0.0
        self.segments: list[float] = []  # CPU seconds of each segment
        self._start()

    def _start(self) -> None:
        self._t0, self._c0 = time.perf_counter(), time.process_time()

    def split(self, child_cpu_s: float | None = None) -> None:
        """End a segment and start the next after a probe.  A segment whose
        work a child process did passes the child's CPU seconds."""
        self.stop(child_cpu_s)
        self.ctx.probe()
        self._start()

    def stop(self, child_cpu_s: float | None = None) -> None:
        self.wall += time.perf_counter() - self._t0
        own = time.process_time() - self._c0
        self.segments.append(own if child_cpu_s is None else child_cpu_s)


@dataclass
class OpResult:
    label: str
    seconds: float  # wall time
    cpu_s: float  # user + system CPU time of the processes doing the op
    ok: bool
    problems: list[str]
    digests: dict[str, str]
    rss_kb: int = 0
    segments: list[float] = field(default_factory=list)  # CPU seconds between probes; [] on failure


def write_inputs(work: str) -> dict[str, str]:
    files = {}
    for name, text in SUBS.items():
        path = os.path.join(work, f"{name}.subs")
        with open(path, "w", encoding="ascii") as f:
            f.write(text)
        files[name] = path
    return files


def run_child(argv: list[str], ctx: Context, log_path: str) -> tuple[int, str, int, float]:
    """Run one child process to completion; returns (exit code, its
    combined output, its peak RSS in KiB, its CPU seconds).  The child is
    killed at the run's deadline and always reaped."""
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, cwd=ctx.root, env=ctx.env, stdout=log, stderr=subprocess.STDOUT)
    timer = threading.Timer(max(ctx.deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, "r", encoding="utf-8", errors="replace") as f:
        text = f.read()
    os.remove(log_path)
    return proc.returncode, text, usage.ru_maxrss, usage.ru_utime + usage.ru_stime


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _digest(summary) -> str:
    return hashlib.sha256(json.dumps(summary, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# draw


def _rauzy_cli(ctx: Context, argv: list[str], log_path: str) -> tuple[int, str, int, float]:
    """One `rauzy` command: a fresh process, or rauzy.cli.main in-process
    when tracing."""
    if not ctx.traced:
        return run_child([ctx.python, "-m", "rauzy", *argv], ctx, log_path)
    import rauzy.cli

    out = io.StringIO()
    c0 = time.process_time()
    with contextlib.redirect_stdout(out):
        try:
            code = rauzy.cli.main(argv)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 2
    return code, out.getvalue(), 0, time.process_time() - c0


def draw_op(ctx: Context, k: int, seq: str, points: int = 1_000_000) -> OpResult:
    base = os.path.join(ctx.work, f"draw-{k}")
    csv, ppm, rendered = base + ".csv", base + ".ppm", base + "-render.ppm"
    fractal_argv = ["fractal", "--subs", ctx.files["tribo"], "--seq", seq]
    fractal_argv += ["--points", str(points), "--format", "both", "--out", csv]
    render_argv = ["render", "--in", csv, "--out", rendered]
    clock = OpClock(ctx)
    code1, out1, rss1, cpu1 = _rauzy_cli(ctx, fractal_argv, base + ".log")
    clock.split(cpu1)
    code2, out2, rss2, cpu2 = _rauzy_cli(ctx, render_argv, base + ".log")
    clock.stop(cpu2)

    problems = []
    if code1 != 0 or code2 != 0:
        problems.append(f"exit codes {code1}, {code2}: {out1[-300:]} {out2[-300:]}")
    if "within-bound: yes" not in out1:
        problems.append("fractal did not report within-bound: yes")
    digests = {}
    if os.path.exists(csv):
        with open(csv, "rb") as f:
            rows = sum(block.count(b"\n") for block in iter(lambda: f.read(1 << 20), b"")) - 1
        if rows != points:
            problems.append(f"CSV has {rows} rows, expected {points}")
        digests["csv"] = sha256_file(csv)
    else:
        problems.append("no CSV written")
    if os.path.exists(ppm) and os.path.exists(rendered):
        digests["ppm"] = sha256_file(ppm)
        if sha256_file(rendered) != digests["ppm"]:
            problems.append("rendered PPM differs from the PPM fractal wrote")
    else:
        problems.append("a PPM is missing")
    for path in (csv, ppm, rendered):
        if os.path.exists(path):
            os.remove(path)
    label = f"draw {seq}"
    return OpResult(label, clock.wall, cpu1 + cpu2, not problems, problems, digests, max(rss1, rss2), clock.segments)


# ---------------------------------------------------------------------------
# verify and cover (in-process library calls)


def verify_op(
    ctx: Context,
    k: int,
    subs: str,
    seq: str,
    depth: int,
    prefixes: int = 1_000_000,
    points: int = 200_000,
) -> OpResult:
    from rauzy import adic, fractal

    sset = ctx.sets[subs]
    clock = OpClock(ctx)
    sequence = adic.parse_sequence_spec(seq, len(sset))
    ident = fractal.verify_all_prefix_identities(sequence, sset, prefixes)
    clock.split()
    comp = fractal.compare_constructions(sequence, sset, points, depth)
    clock.split()
    seteq = fractal.set_equation_check(sequence, sset, points)
    clock.stop()

    bound = comp.gifs_meta["error_bound"]
    problems = []
    if not ident.all_exact or ident.checked != prefixes:
        problems.append(f"prefix identities: all_exact={ident.all_exact} checked={ident.checked}")
    if not seteq.max_residual <= 1e-9:
        problems.append(f"set-equation residual {seteq.max_residual!r} > 1e-9")
    if not comp.overall <= bound:
        problems.append(f"compare overall {comp.overall!r} > GIFS error bound {bound!r}")
    summary = {
        "levels": ident.levels,
        "overall": repr(comp.overall),
        "per_letter": {str(i): repr(v) for i, v in comp.per_letter.items()},
        "error_bound": repr(bound),
        "thinned": bool(comp.gifs_meta.get("thinned")),
        "residual": repr(seteq.max_residual),
    }
    label = f"verify {subs} {seq} depth {depth}"
    digests = {"summary": _digest(summary)}
    return OpResult(label, clock.wall, sum(clock.segments), not problems, problems, digests, 0, clock.segments)


def cover_op(
    ctx: Context,
    k: int,
    seq: str,
    points: int = 200_000,
    radius: float = 2.0,
    step: float = 0.02,
) -> OpResult:
    """Coverage of one projection cloud.

    The benchmark's ops cover `(1)` only: coverage work follows the shape of
    the cloud, and over `random:<seed>` sequences it varied from 5.9 to
    11.1 s per op (9.1 to 12.1 s with the outer eight levels fixed to
    substitution 1), so a seeded sequence would make the seed, not the code,
    set the timings.  The grid step is 0.02 (40,401 grid points, about 3 s
    of CPU) rather than criterion 10's 0.01 (160,801 points, about 10 s):
    the per-point work is the same, and shorter ops put the probes that
    scale each op's time closer together (see probe.py).
    """
    from rauzy import adic, fractal, spectral

    sset = ctx.sets["tribo"]
    clock = OpClock(ctx)
    sequence = adic.parse_sequence_spec(seq, len(sset))
    approx = fractal.project_prefixes(sequence, sset, points)
    report = fractal.coverage_estimate(approx, spectral.gamma_generators(sset.spectral()), radius, step)
    clock.stop()

    problems = []
    if not report.fraction >= 0.99:
        problems.append(f"coverage fraction {report.fraction} < 0.99")
    summary = {"covered": report.covered, "total": report.total}
    digests = {"summary": _digest(summary)}
    return OpResult(f"cover {seq}", clock.wall, clock.segments[0], not problems, problems, digests, 0, clock.segments)


# ---------------------------------------------------------------------------
# workload table


@dataclass(frozen=True)
class Workload:
    name: str
    subs: tuple[str, ...]  # substitution files set-up loads
    in_process: bool  # ops call the library in the benchmark's own process
    ops: Callable  # seed -> the fixed op list of one pass, each op(ctx, k) -> OpResult
    mini_op: Callable  # seed -> a small op of the same kind, traced and untraced to compare


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "draw",
            ("tribo",),
            in_process=False,
            ops=lambda seed: [partial(draw_op, seq=s) for s in ("(1)", "1122(1122)", f"random:{seed}")],
            mini_op=lambda seed: partial(draw_op, seq=f"random:{seed}", points=20_000),
        ),
        Workload(
            "verify",
            ("tribo", "quad"),
            in_process=True,
            # the d=4 op twice, so the later ops give a median of two
            ops=lambda seed: [
                partial(verify_op, subs="tribo", seq=f"random:{seed}", depth=24),
                partial(verify_op, subs="quad", seq=f"random:{seed}", depth=20),
                partial(verify_op, subs="quad", seq=f"random:{seed}", depth=20),
            ],
            mini_op=lambda seed: partial(
                verify_op, subs="quad", seq=f"random:{seed}", depth=12, prefixes=50_000, points=20_000
            ),
        ),
        Workload(
            "cover",
            ("tribo",),
            in_process=True,
            # ten short ops rather than three at step 0.01, so each is
            # bracketed by probes a few seconds apart; the seed is not used,
            # see cover_op
            ops=lambda seed: [partial(cover_op, seq="(1)")] * 10,
            mini_op=lambda seed: partial(cover_op, seq="(1)", points=20_000, radius=1.0, step=0.05),
        ),
    )
}
