"""Command line front end.

Exit codes: 0 success, 1 failed verification (check/compare with a bound),
2 malformed input, 3 domain refusal (non-Pisot, non-primitive, and the
like), 4 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .adic import (
    DirectiveSequence,
    SubstitutionSet,
    balance,
    factor_gap_check,
    is_primitive_sequence,
    limit_point_prefix,
    parse_sequence_spec,
    splitmix64,
)
from .core import (
    ConvergenceError,
    DomainError,
    IndeterminateError,
    ParseError,
    ResourceError,
    abelianize,
    load_substitution_file,
    primitivity_exponent,
)
from .emit import read_points_csv, render_ppm, write_points_csv
from .fractal import (
    _MIN_BUDGET,
    compare_constructions,
    continuity_experiment,
    coverage_estimate,
    gifs_attractor,
    gifs_step,
    hausdorff,
    project_prefixes,
    project_word,
    telescoped_counts,
    telescoping_decomposition,
    verify_all_prefix_identities,
)
from .spectral import (
    adapted_norms,
    char_poly,
    gamma_generators,
    is_irreducible_charpoly,
    is_pisot,
    to_adapted,
)


def _load_set(path: str) -> SubstitutionSet:
    try:
        subs = load_substitution_file(path)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror or e}") from None
    return SubstitutionSet(subs)


def _sequence(args, sset: SubstitutionSet) -> DirectiveSequence:
    spec = args.seq
    seed = getattr(args, "seed", None)
    if seed is not None:
        if spec == "random":
            spec = f"random:{seed}"
        else:
            raise ParseError("--seed only applies together with --seq random")
    return parse_sequence_spec(spec, len(sset))


def _sibling(path: str, ext: str) -> str:
    for known in (".csv", ".ppm"):
        if path.endswith(known):
            return path[: -len(known)] + ext
    return path + ext


def _check_flags(args) -> None:
    """Reject bad flags before any input is read or any cloud built."""
    if getattr(args, "chain", 0) < 0:
        raise ParseError("--chain must be nonnegative")
    if getattr(args, "budget", None) is not None and args.budget < _MIN_BUDGET:
        raise ParseError(f"--budget must be at least {_MIN_BUDGET}")
    if hasattr(args, "len"):
        if args.len < 1:
            raise ParseError("--len must be at least 1")
        if not 1 <= args.k_max <= args.len:
            raise ParseError("--k-max must lie in 1..--len")
        if not 0 <= args.factor_len <= args.len // 2:
            raise ParseError("--factor-len must lie in 0..--len//2")
    if getattr(args, "points", 1) < 1:
        raise ParseError("--points must be at least 1")
    if getattr(args, "depth", 1) < 1:
        raise ParseError("--depth must be at least 1")
    if hasattr(args, "step"):
        if not 0 < args.step < np.inf:
            raise ParseError("--step must be positive and finite")
        if not 0 <= args.radius < np.inf:
            raise ParseError("--radius must be nonnegative and finite")
        if args.eps is not None and not 0 < args.eps < np.inf:
            raise ParseError("--eps must be positive and finite")
    if hasattr(args, "stride"):
        if args.stride < 1:
            raise ParseError("--stride must be at least 1")
        if not 0 <= args.n_min <= args.n_max:
            raise ParseError("--n-min must lie in 0..--n-max")
    if getattr(args, "out", None) and hasattr(args, "width"):
        if args.width < 16 or args.height < 16:
            raise ParseError("width and height must be at least 16")
        if not 0 <= args.margin < 0.5:
            raise ParseError("margin must lie in [0, 0.5)")


def _write_outputs(args, approx) -> None:
    if not getattr(args, "out", None):
        return
    fmt = args.format
    if fmt in ("csv", "both"):
        path = args.out if fmt == "csv" else _sibling(args.out, ".csv")
        write_points_csv(approx, path)
        print(f"wrote {path}")
    if fmt in ("ppm", "both"):
        path = args.out if fmt == "ppm" else _sibling(args.out, ".ppm")
        data = render_ppm(approx, args.width, args.height, margin=args.margin)
        with open(path, "wb") as f:
            f.write(data)
        print(f"wrote {path}")


def _fmt_matrix(m) -> str:
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in m.rows) + "]"


def cmd_info(args) -> int:
    sset = _load_set(args.subs)
    al = sset.alphabet
    print(f"alphabet: {al.symbols}")
    for sub in sset.subs:
        print(f"substitution {sub.name}: {sub.describe()}")
    if sset.shared_matrix is None:
        print("same-matrix: no")
        for name, m in zip(sset.names(), sset.matrices):
            print(f"matrix {name}: {_fmt_matrix(m)}")
        return 0
    m = sset.shared_matrix
    print("same-matrix: yes")
    print(f"matrix: {_fmt_matrix(m)}")
    poly = char_poly(m)
    print(f"char-poly: {poly}")
    print(f"det: {m.det()}")
    try:
        print(f"irreducible: {'yes' if is_irreducible_charpoly(poly) else 'no'}")
    except DomainError:
        print("irreducible: unchecked (degree > 4)")
    exp = primitivity_exponent(m)
    if exp is None:
        print("primitive: no")
        return 0
    print(f"primitive: yes (exponent {exp})")
    sd = sset.spectral()
    print(f"beta: {sd.beta:.16g}")
    print("stable-moduli: " + ", ".join(f"{x:.16g}" for x in sd.stable_moduli))
    print(f"lambda: {sd.lam:.16g}" if sd.lam is not None else "lambda: n/a")
    try:
        print(f"pisot: {'yes' if is_pisot(m) else 'no'}")
    except IndeterminateError as e:
        print(f"pisot: indeterminate ({e})")
    print(f"unimodular: {'yes' if m.det() in (1, -1) else 'no'}")
    return 0


def _print_cloud_summary(approx) -> None:
    per = ", ".join(f"{i}:{len(approx.points[i])}" for i in sorted(approx.points))
    print(f"points: {approx.total()} ({per})")
    meta = approx.meta
    if "max_adapted_norm" in meta and "norm_bound" in meta:
        print(
            f"max-adapted-norm: {meta['max_adapted_norm']:.6f} "
            f"bound: {meta['norm_bound']:.6f} "
            f"within-bound: {'yes' if meta['max_adapted_norm'] <= meta['norm_bound'] else 'NO'}"
        )
    if "error_bound" in meta:
        print(f"error-bound: {meta['error_bound']:.6g} (ratio {meta['ratio']:.6f}, depth {meta['depth']})")
    if meta.get("thinned"):
        print(f"thinned: yes (extra loss {meta['thinning_loss']:.6g})")


def cmd_fractal(args) -> int:
    sset = _load_set(args.subs)
    seq = _sequence(args, sset)
    approx = project_prefixes(seq, sset, args.points, chain_index=args.chain, budget=args.budget)
    print(f"sequence: {seq.describe()}")
    _print_cloud_summary(approx)
    _write_outputs(args, approx)
    return 0


def cmd_gifs(args) -> int:
    sset = _load_set(args.subs)
    seq = _sequence(args, sset)
    approx = gifs_attractor(seq, sset, args.depth, budget=args.budget)
    print(f"sequence: {seq.describe()}")
    _print_cloud_summary(approx)
    _write_outputs(args, approx)
    return 0


def cmd_compare(args) -> int:
    sset = _load_set(args.subs)
    seq = _sequence(args, sset)
    report = compare_constructions(
        seq, sset, args.points, args.depth, chain_index=args.chain, budget=args.budget
    )
    print(f"sequence: {seq.describe()}")
    for i in sorted(report.per_letter):
        print(f"subtile {i}: hausdorff {report.per_letter[i]:.6f}")
    print(f"overall: {report.overall:.6f}")
    print(f"gifs-error-bound: {report.gifs_meta['error_bound']:.6g}")
    if args.tol is not None:
        ok = report.overall <= args.tol
        print(f"tolerance {args.tol}: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


def cmd_continuity(args) -> int:
    sset = _load_set(args.subs)
    base = parse_sequence_spec(args.base, len(sset))
    variant = parse_sequence_spec(args.variant, len(sset))
    lengths = list(range(args.n_min, args.n_max + 1, args.stride))
    report = continuity_experiment(
        sset, base, variant, lengths, n_points=args.points, chain_index=args.chain
    )
    print(f"base: {base.describe()}  variant: {variant.describe()}")
    for n, dist in report.rows:
        print(f"agree {n:3d}: hausdorff {dist:.8f}")
    print(f"lambda: {report.lam:.6f}")
    if report.ratio is not None:
        print(f"fitted-ratio: {report.ratio:.6f}")
    else:
        print("fitted-ratio: n/a (too few rows above resolution)")
    if report.resolution_limited:
        print("note: some rows at or below cloud resolution were excluded from the fit")
    print(f"non-decreasing rows: {report.violations}")
    return 0


def cmd_balance(args) -> int:
    sset = _load_set(args.subs)
    seq = _sequence(args, sset)
    word = limit_point_prefix(seq, sset, args.len, chain_index=args.chain)
    d = sset.d
    print(f"sequence: {seq.describe()}  word-length: {len(word)}")
    running = 0
    for k in range(1, args.k_max + 1):
        rep = balance(word, k, d=d)
        running = max(running, rep.c)
        per = ", ".join(f"{i}:{rep.per_letter[i]}" for i in sorted(rep.per_letter))
        print(f"k={k}: c={rep.c} (per letter {per})")
    print(f"max-c-over-windows: {running}")
    if args.factor_len:
        gap = factor_gap_check(word, args.factor_len)
        print(
            f"factor-gaps len={gap.factor_len}: {gap.factor_count} factors, "
            f"max-gap {gap.max_gap} ({gap.max_gap / len(word):.4f} of word)"
        )
    return 0


def cmd_cover(args) -> int:
    sset = _load_set(args.subs)
    seq = _sequence(args, sset)
    sd = sset.spectral()
    approx = project_prefixes(seq, sset, args.points, chain_index=args.chain, budget=args.budget)
    gamma = gamma_generators(sd)
    report = coverage_estimate(approx, gamma, args.radius, args.step, eps=args.eps)
    print(f"sequence: {seq.describe()}")
    print(
        f"coverage: {report.fraction:.4f} ({report.covered}/{report.total} grid points, "
        f"radius {report.window_radius}, step {report.grid_step}, eps {report.eps})"
    )
    return 0


def cmd_render(args) -> int:
    try:
        approx = read_points_csv(args.infile)
    except OSError as e:
        raise ParseError(f"cannot read {args.infile}: {e.strerror or e}") from None
    data = render_ppm(approx, args.width, args.height, margin=args.margin)
    with open(args.out, "wb") as f:
        f.write(data)
    print(f"wrote {args.out} ({args.width}x{args.height}, {approx.total()} points)")
    return 0


def _random_word(sset: SubstitutionSet, seed: int, length: int) -> bytes:
    d = sset.d
    return bytes(1 + splitmix64(seed, i) % d for i in range(length))


def cmd_check(args) -> int:
    sset = _load_set(args.subs)
    seq = _sequence(args, sset)
    fault = args.inject_fault
    failures = 0

    def report(name: str, ok: bool, measured, threshold) -> None:
        nonlocal failures
        if not ok:
            failures += 1
        print(f"check {name}: {'PASS' if ok else 'FAIL'} measured={measured} threshold={threshold}")

    # abelianization is a morphism invariant under every substitution
    bad = 0
    for s_idx, sub in enumerate(sset.subs):
        m = sub.incidence_matrix()
        for trial in range(50):
            w = _random_word(sset, seed=s_idx * 1000 + trial, length=1 + trial % 40)
            if abelianize(sub.apply(w), sset.d) != m.times_vec(abelianize(w, sset.d)):
                bad += 1
    report("abelianization-morphism", bad == 0, f"{bad}-mismatches", "0-mismatches")

    # telescoping count identity, single words and all prefixes
    word = limit_point_prefix(seq, sset, 2000, chain_index=args.chain)
    bad = 0
    for t in (1, 7, 64, 500, 1999):
        parts = telescoping_decomposition(seq, sset, word[:t], chain_index=args.chain)
        if telescoped_counts(sset, parts) != abelianize(word[:t], sset.d):
            bad += 1
    rep = verify_all_prefix_identities(seq, sset, 2000, chain_index=args.chain)
    if not rep.all_exact:
        bad += 1
    report("telescoping-identity", bad == 0, f"{bad}-mismatches-to-2000", "0-mismatches")

    sd = sset.spectral()
    # projection commutes with the matrix action
    rng_pts = np.array(
        [[splitmix64(7, i * sd.d + j) % 201 - 100 for j in range(sd.d)] for i in range(1000)],
        dtype=float,
    )
    mf = np.asarray(sset.shared_matrix.rows, dtype=float)
    lhs = rng_pts @ mf.T @ sd.proj_coords.T
    rhs = rng_pts @ sd.proj_coords.T @ sd.m_s.T
    resid = float(np.max(np.linalg.norm(lhs - rhs, axis=1)))
    report("projection-commutes", resid < 1e-9, f"{resid:.3e}", "1e-09")

    # contraction ratio of the adapted norm
    claimed = sd.lam / 2 if fault == "ratio" else sd.lam
    dirs = np.array(
        [[splitmix64(11, i * sd.d + j) / 2**64 - 0.5 for j in range(sd.d - 1)] for i in range(10_000)]
    )
    dirs = dirs[np.linalg.norm(dirs, axis=1) > 1e-9]
    before = adapted_norms(sd, dirs)
    after = adapted_norms(sd, dirs @ sd.m_s.T)
    worst = float((after / before).max())
    report("contraction", worst <= claimed * (1 + 1e-12), f"{worst:.9f}", f"{claimed:.9f}")

    # set equation on matched clouds
    sub0 = sset[seq[0]]
    u1 = limit_point_prefix(seq.shift(1), sset, 2000, chain_index=args.chain)
    source = project_word(sd, u1)
    target = project_word(sd, sub0.apply(u1))
    stepped = gifs_step(sub0, sd, source)
    if fault == "translation":
        stepped.points[1] = stepped.points[1] + 0.01
    resid = max(
        hausdorff(to_adapted(sd, stepped.points[i]), to_adapted(sd, target.points[i])).distance
        for i in range(1, sd.d + 1)
    )
    report("set-equation", resid < 1e-9, f"{resid:.3e}", "1e-09")

    # projected stepped line stays inside the norm ball
    approx = project_prefixes(seq, sset, 20_000, chain_index=args.chain)
    ok = approx.meta["max_adapted_norm"] <= approx.meta["norm_bound"]
    report(
        "bounded-projection",
        ok,
        f"{approx.meta['max_adapted_norm']:.4f}",
        f"{approx.meta['norm_bound']:.4f}",
    )

    prim = is_primitive_sequence(seq, sset)
    report(
        "primitivity",
        prim is not None,
        "none-within-horizon" if prim is None else f"positive-after-{prim + 1}-factors",
        "horizon-64",
    )

    print(f"checks: {'all passed' if failures == 0 else f'{failures} FAILED'}")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rauzy",
        description="Rauzy fractals of substitution sequences sharing one Pisot matrix",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_common(sp, seq_default="(1)"):
        sp.add_argument("--subs", required=True, help="substitution file")
        sp.add_argument("--seq", default=seq_default, help="directive sequence spec")
        sp.add_argument("--seed", type=int, default=None, help="seed for --seq random")
        sp.add_argument("--chain", type=int, default=0, help="limit-point chain index")
        sp.add_argument("--budget", type=int, default=None, help="override the point budget")

    def add_image(sp):
        sp.add_argument("--out", help="output path")
        sp.add_argument(
            "--format",
            choices=["csv", "ppm", "both"],
            default="csv",
            help="what to write at --out (both derives sibling filenames)",
        )
        sp.add_argument("--width", type=int, default=800)
        sp.add_argument("--height", type=int, default=800)
        sp.add_argument("--margin", type=float, default=0.05)

    sp = sub.add_parser("info", help="matrix, eigenvalues, and classification")
    sp.add_argument("--subs", required=True)
    sp.set_defaults(func=cmd_info)

    sp = sub.add_parser("fractal", help="projection construction")
    add_common(sp)
    sp.add_argument("--points", type=int, default=100_000, help="number of stepped-line points")
    add_image(sp)
    sp.set_defaults(func=cmd_fractal)

    sp = sub.add_parser("gifs", help="iterated set-equation construction")
    add_common(sp)
    sp.add_argument("--depth", type=int, default=18, help="number of set-equation iterations")
    add_image(sp)
    sp.set_defaults(func=cmd_gifs)

    sp = sub.add_parser("compare", help="Hausdorff distance between the two constructions")
    add_common(sp)
    sp.add_argument("--points", type=int, default=100_000)
    sp.add_argument("--depth", type=int, default=14)
    sp.add_argument("--tol", type=float, default=None, help="fail (exit 1) above this distance")
    sp.set_defaults(func=cmd_compare)

    sp = sub.add_parser("continuity", help="distance decay for sequences agreeing on n levels")
    sp.add_argument("--subs", required=True)
    sp.add_argument("--base", required=True, help="base sequence spec")
    sp.add_argument("--variant", required=True, help="tail sequence spec")
    sp.add_argument("--n-min", type=int, default=1)
    sp.add_argument("--n-max", type=int, default=12)
    sp.add_argument("--stride", type=int, default=1)
    sp.add_argument("--points", type=int, default=30_000)
    sp.add_argument("--chain", type=int, default=0)
    sp.set_defaults(func=cmd_continuity)

    sp = sub.add_parser("balance", help="letter-count spread over sliding windows")
    add_common(sp)
    sp.add_argument("--len", type=int, default=20_000, help="word length to analyze")
    sp.add_argument("--k-max", type=int, default=12, help="largest window length")
    sp.add_argument("--factor-len", type=int, default=0, help="also report recurrence gaps")
    sp.set_defaults(func=cmd_balance)

    sp = sub.add_parser("cover", help="lattice-translate coverage of a window")
    add_common(sp)
    sp.add_argument("--points", type=int, default=200_000)
    sp.add_argument("--radius", type=float, default=2.0)
    sp.add_argument("--step", type=float, default=0.05)
    sp.add_argument("--eps", type=float, default=None)
    sp.set_defaults(func=cmd_cover)

    sp = sub.add_parser("check", help="run the invariant suite")
    add_common(sp, seq_default="(1)")
    sp.add_argument(
        "--inject-fault",
        choices=["ratio", "translation"],
        default=None,
        help="deliberately break one invariant to prove the suite catches it",
    )
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("render", help="rasterize a points CSV to PPM")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--width", type=int, default=800)
    sp.add_argument("--height", type=int, default=800)
    sp.add_argument("--margin", type=float, default=0.05)
    sp.set_defaults(func=cmd_render)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ResourceError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except (DomainError, ConvergenceError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
