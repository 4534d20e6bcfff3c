"""The probe that scales op times to the speed the host gives the benchmark.

On a shared VM the CPU time of unchanged work drifts with what other guests
run on the same physical cores.  Measured on a 2-vCPU Xeon VM, a fixed 20 ms
pure-Python loop timed for ten minutes: its mean over 15-second windows
moved between 16 and 25 ms, and its spread (interquartile range / median)
was 0.11 across 5-second windows and 0.12 across 60-second ones, so neither
longer runs nor medians within a run remove the drift.  The same loop timed
in a second process on the other vCPU tracked the drift, but slowed the ops
beside it by 17% on average over four paired runs.

So the benchmark runs on one CPU and times this probe there before each op,
between the timed segments of an op and after the last op.  A segment's
cost is its CPU time divided by the mean of the probes just before and just
after it; the unit is "probe".  This removes drift that the probe and the
ops share, and adds the probe's own jitter.  Spreads of the first pass over
the seeds of one set of runs, in CPU seconds and in probe units:

    set              runs   draw           verify         cover
    noisy hour       5-6    0.153 / 0.069  0.185 / 0.110  0.132 / 0.018
    quiet hour       10     0.065 / 0.154  0.104 / 0.050  0.034 / 0.056
    an hour later    10     0.088 / 0.081  0.173 / 0.068  0.153 / 0.061

(The noisy-hour cover runs used an earlier variant that did not pin the
CPU.)  The largest spread seen in probe units is 0.154; in CPU seconds it
is 0.26 here, and 0.31 on another host of the same kind.
"""

from __future__ import annotations

import time

PROBE_LOOP = 2_000_000  # about 0.2 s of CPU on the VM above


def probe_cpu_s() -> float:
    """CPU seconds of a fixed pure-Python loop that runs no rauzy code."""
    c0 = time.process_time()
    acc = 0
    for i in range(PROBE_LOOP):
        acc += i * i % 7
    return time.process_time() - c0


def cost(segments: list[float], probes: list[float]) -> float:
    """Cost in probe units of an op whose i-th segment took segments[i] CPU
    seconds between the probes probes[i] and probes[i + 1]."""
    return sum(cpu / ((probes[i] + probes[i + 1]) / 2) for i, cpu in enumerate(segments))
