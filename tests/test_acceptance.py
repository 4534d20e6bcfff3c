"""Release gate: twelve end-to-end checks with pinned tolerances.

Each test is one numbered criterion; the -v report line is its pass/fail
verdict.  Tolerances and scales are stated inline and are not to be loosened
to make a failing build pass.
"""

import os
import subprocess
import sys
import time

import numpy as np

from rauzy.adic import DirectiveSequence, factor_gap_check, limit_point_prefix
from rauzy.fractal import (
    RauzyApprox,
    compare_constructions,
    continuity_experiment,
    coverage_estimate,
    gifs_step,
    hausdorff,
    norm_ball,
    project_prefixes,
    set_equation_check,
    subtile_hausdorff,
    verify_all_prefix_identities,
)
from rauzy.spectral import gamma_generators

CONST_1 = DirectiveSequence.periodic((), (0,))
CONST_2 = DirectiveSequence.periodic((), (1,))


def test_criterion_01_telescoping_identity_exact(tribo_set):
    # 100 random sequences, every prefix up to 10^4, exact integer equality
    start = time.perf_counter()
    for seed in range(1, 101):
        seq = DirectiveSequence.random(seed, 2)
        rep = verify_all_prefix_identities(seq, tribo_set, 10_000)
        assert rep.all_exact, f"seed {seed}: count identity failed"
        assert rep.checked == 10_000
    elapsed = time.perf_counter() - start
    print(f"\n  100 seeds x 10^4 prefixes exact in {elapsed:.2f}s")
    assert elapsed < 30.0


def test_criterion_02_spectral_constants(tribo_sd):
    # independent oracle: bisection on x^3 - x^2 - x - 1 over [1, 2]
    f = lambda x: x * x * x - x * x - x - 1.0
    lo, hi = 1.0, 2.0
    for _ in range(100):
        mid = (lo + hi) / 2
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    oracle = (lo + hi) / 2
    beta = tribo_sd.beta
    assert abs(f(beta)) <= 1e-9
    assert abs(beta - oracle) <= 1e-9
    assert abs(beta - 1.8392867552141612) <= 1e-9
    want = beta ** -0.5
    for mod in tribo_sd.stable_moduli:
        assert abs(mod - want) <= 1e-6
    print(f"\n  beta={beta:.16f} moduli={[f'{m:.10f}' for m in tribo_sd.stable_moduli]}")


def test_criterion_03_projection_bounded(tribo_set):
    start = time.perf_counter()
    worst = 0.0
    for seq in (CONST_1, CONST_2, DirectiveSequence.random(42, 2)):
        norm, bound = norm_ball(tribo_set, project_prefixes(seq, tribo_set, 100_000))
        assert norm < bound, f"{seq.describe()}: {norm} not under {bound}"
        worst = max(worst, norm / bound)
    elapsed = time.perf_counter() - start
    print(f"\n  3 x 10^5 prefixes, worst norm/bound ratio {worst:.4f}, {elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_04_set_equation_matched_clouds(tribo_set):
    # the pushed shifted cloud and the direct cloud must agree to float noise
    worst = 0.0
    for seq in (CONST_1, CONST_2, DirectiveSequence.random(42, 2)):
        rep = set_equation_check(seq, tribo_set, 42_000)
        assert rep.n_target <= 100_000
        assert rep.max_residual <= 1e-9, f"{seq.describe()}: {rep.max_residual}"
        worst = max(worst, rep.max_residual)
    print(f"\n  worst residual {worst:.3e} over 3 sequences (targets ~7.7e4 points)")


def test_criterion_05_contraction_on_set_pairs(tribo_set, tribo_sd):
    lam = tribo_sd.lam
    assert lam <= 0.74
    rng = np.random.default_rng(12345)
    worst = 0.0
    for trial in range(200):
        sub = tribo_set.subs[trial % 2]
        pts = {
            i: rng.normal(scale=0.5, size=(rng.integers(2, 40), 2)) for i in (1, 2, 3)
        }
        qts = {
            i: rng.normal(scale=0.5, size=(rng.integers(2, 40), 2)) for i in (1, 2, 3)
        }
        a = RauzyApprox(points=pts, d=3)
        b = RauzyApprox(points=qts, d=3)
        before = max(r.distance for r in subtile_hausdorff(tribo_sd, a, b).values())
        fa = gifs_step(sub, tribo_sd, a)
        fb = gifs_step(sub, tribo_sd, b)
        for i, r in subtile_hausdorff(tribo_sd, fa, fb).items():
            assert r.distance <= lam * before + 1e-9, f"trial {trial} subtile {i}"
            worst = max(worst, r.distance / before)
    print(f"\n  200 pairs, worst per-subtile ratio {worst:.6f} vs lambda {lam:.6f}")


def test_criterion_06_constructions_agree(tribo_set):
    sequences = [CONST_1, CONST_2, DirectiveSequence.random(3, 2), DirectiveSequence.random(5, 2)]
    start = time.perf_counter()
    gaps = []
    for seq in sequences:
        rep = compare_constructions(seq, tribo_set, 100_000, 12)
        gaps.append((seq.describe(), rep.overall))
        assert rep.overall <= 0.05, f"{seq.describe()}: d_H {rep.overall}"
    elapsed = time.perf_counter() - start
    print("\n  " + "  ".join(f"{name}:{gap:.4f}" for name, gap in gaps) + f"  ({elapsed:.1f}s)")
    assert elapsed < 120.0


def test_criterion_07_continuity_in_the_sequence(tribo_set, tribo_sd):
    rep = continuity_experiment(
        tribo_set, CONST_1, CONST_2, agree_lengths=list(range(2, 11)), n_points=30_000
    )
    assert rep.violations <= 0.05 * len(rep.rows), f"{rep.violations} increases"
    assert rep.ratio is not None
    assert rep.ratio <= tribo_sd.lam + 0.1
    print(f"\n  fitted ratio {rep.ratio:.4f} <= {tribo_sd.lam + 0.1:.4f}, violations {rep.violations}")


def test_criterion_08_factors_recur(tribo_set):
    for seq in (CONST_1, CONST_2, DirectiveSequence.random(42, 2)):
        word = limit_point_prefix(seq, tribo_set, 100_000)
        for flen in range(1, 6):
            rep = factor_gap_check(word, flen)
            assert rep.max_gap <= len(word) / 2, (
                f"{seq.describe()} len-{flen}: gap {rep.max_gap}"
            )
    print("\n  all factors of length 1..5 recur with gap <= |u|/2 on 3 sequences")


def test_criterion_09_hausdorff_oracle_equality():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        a = rng.normal(size=(int(rng.integers(1, 501)), 2))
        b = rng.normal(size=(int(rng.integers(1, 501)), 2))
        grid = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(-1))
        brute = max(grid.min(axis=1).max(), grid.min(axis=0).max())
        assert hausdorff(a, b).distance == brute
    # metric axioms on a second fuzz round
    for _ in range(20):
        a = rng.normal(size=(30, 2))
        b = rng.normal(size=(40, 2))
        c = rng.normal(size=(25, 2))
        dab, dba = hausdorff(a, b).distance, hausdorff(b, a).distance
        assert dab == dba
        assert hausdorff(a, a).distance == 0.0
        assert hausdorff(a, c).distance <= dab + hausdorff(b, c).distance + 1e-12
    print("\n  50 brute-force pairs exactly equal; axioms hold on 20 triples")


def test_criterion_10_lattice_translates_cover(tribo_set, tribo_sd):
    approx = project_prefixes(CONST_1, tribo_set, 200_000)
    gamma = gamma_generators(tribo_sd)
    rep = coverage_estimate(approx, gamma, 2.0, 0.01)
    assert rep.fraction >= 0.99, f"covered only {rep.fraction:.4f}"
    print(f"\n  covered {rep.fraction:.4f} of {rep.total} grid points (radius 2, step 0.01)")


def _run_cli(*argv):
    env = os.environ.copy()
    env.pop("RAUZY_POINT_BUDGET", None)
    return subprocess.run(
        [sys.executable, "-m", "rauzy", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_criterion_11_byte_identical_reruns(tribo_path, tmp_path):
    blobs = []
    for tag in ("one", "two"):
        out = str(tmp_path / f"{tag}.csv")
        proc = _run_cli(
            "fractal", "--subs", tribo_path, "--seq", "random", "--seed", "7",
            "--points", "100000", "--out", out, "--format", "both",
            "--width", "400", "--height", "400",
        )
        assert proc.returncode == 0, proc.stderr
        with open(out, "rb") as f:
            csv = f.read()
        with open(out[:-4] + ".ppm", "rb") as f:
            ppm = f.read()
        blobs.append((csv, ppm))
    assert blobs[0][0] == blobs[1][0], "CSV outputs differ between reruns"
    assert blobs[0][1] == blobs[1][1], "PPM outputs differ between reruns"
    print(f"\n  rerun byte-identical: csv {len(blobs[0][0])} bytes, ppm {len(blobs[0][1])} bytes")


SHOWCASE_SEQUENCES = [
    "(1)",
    "222211111111111121(1)",
    "2222111111111111212(1)",
    "1122(1122)",
]


def test_criterion_12_showcase_sequences_render(tribo_path, tmp_path):
    for idx, spec in enumerate(SHOWCASE_SEQUENCES):
        out = str(tmp_path / f"show{idx}.csv")
        proc = _run_cli(
            "fractal", "--subs", tribo_path, "--seq", spec, "--points", "60000",
            "--out", out, "--format", "both", "--width", "400", "--height", "300",
        )
        assert proc.returncode == 0, f"{spec}: {proc.stderr}"
        assert "within-bound: yes" in proc.stdout
        with open(out[:-4] + ".ppm", "rb") as f:
            data = f.read()
        header = b"P6\n400 300\n255\n"
        raster = np.frombuffer(data[len(header):], dtype=np.uint8).reshape(-1, 3)
        shades = {tuple(c) for c in np.unique(raster, axis=0)}
        shades.discard((255, 255, 255))
        assert len(shades) == 3, f"{spec}: {len(shades)} colors"
        assert os.path.getsize(out) > 0
    print("\n  4 showcase sequences rendered, 3 subtile colors each, bounds hold")
