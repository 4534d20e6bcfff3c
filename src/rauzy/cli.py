"""Command line front end.

Exit codes: 0 success, 1 failed verification (check/compare with a bound),
2 malformed input, 3 domain refusal (non-Pisot, non-primitive, and the
like), 4 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .adic import (
    DirectiveSequence,
    SubstitutionSet,
    balances,
    factor_gap_check,
    limit_point_prefix,
    parse_sequence_spec,
    require_factor_cap,
)
from .core import (
    ConvergenceError,
    DomainError,
    ParseError,
    ResourceError,
    load_substitution_file,
)
from .emit import MAX_PIXELS, read_points_csv, render_ppm, write_points_csv
from .fractal import (
    _MIN_BUDGET,
    compare_constructions,
    continuity_experiment,
    coverage_estimate,
    coverage_grid_steps,
    gifs_attractor,
    invariant_checks,
    norm_ball,
    point_budget,
    project_prefixes,
)
from .spectral import char_poly, charpoly_irreducible, gamma_generators


def _load_set(path: str) -> SubstitutionSet:
    try:
        subs = load_substitution_file(path)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror or e}") from None
    return SubstitutionSet(subs)


def _sequence(args, sset: SubstitutionSet) -> DirectiveSequence:
    spec = args.seq
    if args.seed is not None:
        if spec == "random":
            spec = f"random:{args.seed}"
        else:
            raise ParseError("--seed only applies together with --seq random")
    return parse_sequence_spec(spec, len(sset))


def _sibling(path: str, ext: str) -> str:
    for known in (".csv", ".ppm"):
        if path.endswith(known):
            return path[: -len(known)] + ext
    return path + ext


# work is linear in the GIFS depth and in the number of continuity rows
MAX_DEPTH = 1000
MAX_CONTINUITY_ROWS = 1000
# the commands that build a cloud, and so read RAUZY_POINT_BUDGET when no
# --budget is given
_BUDGETED = ("fractal", "gifs", "compare", "continuity", "cover", "check")


def _check_flags(args) -> None:
    """Reject bad flags before any input is read or any cloud built: exit 2,
    then exit 4 for an image over the pixel cap, a `--depth` over MAX_DEPTH,
    more than MAX_CONTINUITY_ROWS continuity rows or a `--factor-len` whose
    factors would pass `require_factor_cap`."""
    if getattr(args, "chain", 0) < 0:
        raise ParseError("--chain must be nonnegative")
    if getattr(args, "budget", None) is not None and args.budget < _MIN_BUDGET:
        raise ParseError(f"--budget must be at least {_MIN_BUDGET}")
    if args.cmd in _BUDGETED and getattr(args, "budget", None) is None:
        point_budget()  # a malformed RAUZY_POINT_BUDGET is refused with the flags
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
    if getattr(args, "tol", None) is not None and not 0 <= args.tol < np.inf:
        raise ParseError("--tol must be nonnegative and finite")
    if hasattr(args, "stride"):
        if args.stride < 1:
            raise ParseError("--stride must be at least 1")
        if not 0 <= args.n_min <= args.n_max:
            raise ParseError("--n-min must lie in 0..--n-max")
    if hasattr(args, "width"):
        if args.width < 16 or args.height < 16:
            raise ParseError("width and height must be at least 16")
        if not 0 <= args.margin < 0.5:
            raise ParseError("margin must lie in [0, 0.5)")
    for path in _output_paths(args).values():
        if not path or os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise ParseError(f"cannot write {path!r}: not a file name in an existing directory")
    if getattr(args, "out", None) is not None and hasattr(args, "width"):
        if args.width * args.height > MAX_PIXELS:
            size = f"{args.width}x{args.height}"
            raise ResourceError(f"a {size} image exceeds the cap of {MAX_PIXELS} pixels")
    if getattr(args, "depth", 1) > MAX_DEPTH:
        raise ResourceError(f"--depth {args.depth} exceeds the cap of {MAX_DEPTH}")
    if hasattr(args, "stride"):
        rows = (args.n_max - args.n_min) // args.stride + 1
        if rows > MAX_CONTINUITY_ROWS:
            raise ResourceError(f"{rows} continuity rows exceed the cap of {MAX_CONTINUITY_ROWS}")
    if getattr(args, "factor_len", 0):
        require_factor_cap(args.len, args.factor_len)


def _output_paths(args) -> dict[str, str]:
    """The files a run writes, by format: none without `--out`; `render`
    writes its PPM at `--out`, the picture commands what `--format` names
    (`both` derives sibling filenames)."""
    out = getattr(args, "out", None)
    if out is None:
        return {}
    fmt = getattr(args, "format", "ppm")
    if fmt == "both":
        return {"csv": _sibling(out, ".csv"), "ppm": _sibling(out, ".ppm")}
    return {fmt: out}


def _write_outputs(args, approx) -> None:
    for fmt, path in _output_paths(args).items():
        try:
            if fmt == "csv":
                write_points_csv(approx, path)
            else:
                render_ppm(approx, args.width, args.height, margin=args.margin, path=path)
        except OSError as e:  # a full disk or a permission: exit 4
            raise ResourceError(f"cannot write {path}: {e.strerror or e}") from None
        print(f"wrote {path}")


def _fmt_matrix(m) -> str:
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]" for row in m.rows) + "]"


def cmd_info(args) -> int:
    sset = _load_set(args.subs)
    sd = None
    if sset.shared_matrix is not None:
        try:  # before anything is printed: over the letter cap it is exit 4
            sd = sset.spectral()
        except DomainError:  # not primitive
            pass
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
    poly = sd.char if sd is not None else char_poly(m)
    print(f"char-poly: {poly}")
    print(f"det: {m.det()}")
    irreducible = charpoly_irreducible(poly, sd)
    print("irreducible: " + {True: "yes", False: "no", None: "unchecked (degree > 4)"}[irreducible])
    if sd is None:
        print("primitive: no")
        return 0
    print(f"primitive: yes (exponent {sd.primitivity_exp})")
    print(f"beta: {sd.beta:.16g}")
    print("stable-moduli: " + ", ".join(f"{x:.16g}" for x in sd.stable_moduli))
    print(f"lambda: {sd.lam:.16g}" if sd.lam is not None else "lambda: n/a")
    if sd.pisot is None:
        print(f"pisot: indeterminate ({sd.pisot_doubt})")
    else:
        print(f"pisot: {'yes' if sd.pisot else 'no'}")
    print(f"unimodular: {'yes' if m.det() in (1, -1) else 'no'}")
    return 0


def _report_cloud(args, sset, seq, approx) -> int:
    """What `fractal` and `gifs` print for the cloud they built, and the
    files --out asks for."""
    print(f"sequence: {seq.describe()}")
    per = ", ".join(f"{i}:{len(approx.points[i])}" for i in sorted(approx.points))
    print(f"points: {approx.total()} ({per})")
    norm, bound = norm_ball(sset, approx)
    print(f"max-adapted-norm: {norm:.6f} bound: {bound:.6f} within-bound: {'yes' if norm <= bound else 'NO'}")
    meta = approx.meta
    if "error_bound" in meta:
        print(f"error-bound: {meta['error_bound']:.6g} (ratio {meta['ratio']:.6f}, depth {meta['depth']})")
    if meta.get("thinned"):
        print(f"thinned: yes (extra loss {meta['thinning_loss']:.6g})")
    _write_outputs(args, approx)
    return 0


def cmd_fractal(args) -> int:
    sset = _load_set(args.subs)
    seq = _sequence(args, sset)
    approx = project_prefixes(seq, sset, args.points, chain_index=args.chain, budget=args.budget)
    return _report_cloud(args, sset, seq, approx)


def cmd_gifs(args) -> int:
    sset = _load_set(args.subs)
    seq = _sequence(args, sset)
    approx = gifs_attractor(seq, sset, args.depth, budget=args.budget)
    return _report_cloud(args, sset, seq, approx)


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
    for rep in balances(word, range(1, args.k_max + 1), d=d):
        running = max(running, rep.c)
        per = ", ".join(f"{i}:{rep.per_letter[i]}" for i in sorted(rep.per_letter))
        print(f"k={rep.k}: c={rep.c} (per letter {per})")
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
    coverage_grid_steps(args.radius, args.step, sset.d - 1)  # refuse an over-cap grid before the cloud
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
    try:
        render_ppm(approx, args.width, args.height, margin=args.margin, path=args.out)
    except OSError as e:
        raise ResourceError(f"cannot write {args.out}: {e.strerror or e}") from None
    print(f"wrote {args.out} ({args.width}x{args.height}, {approx.total()} points)")
    return 0


def cmd_check(args) -> int:
    sset = _load_set(args.subs)
    seq = _sequence(args, sset)
    checks = invariant_checks(seq, sset, chain_index=args.chain, fault=args.inject_fault)
    for c in checks:
        print(f"check {c.name}: {'PASS' if c.ok else 'FAIL'} measured={c.measured} threshold={c.threshold}")
    failures = sum(not c.ok for c in checks)
    print(f"checks: {'all passed' if failures == 0 else f'{failures} FAILED'}")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="rauzy",
        description="Rauzy fractals of substitution sequences sharing one Pisot matrix",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_common(sp):
        sp.add_argument("--subs", required=True, help="substitution file")
        sp.add_argument("--seq", default="(1)", help="directive sequence spec")
        sp.add_argument("--seed", type=int, default=None, help="seed for --seq random")
        sp.add_argument("--chain", type=int, default=0, help="limit-point chain index")

    def add_budget(sp):
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
    add_budget(sp)
    sp.add_argument("--points", type=int, default=100_000, help="number of stepped-line points")
    add_image(sp)
    sp.set_defaults(func=cmd_fractal)

    sp = sub.add_parser("gifs", help="iterated set-equation construction")
    add_common(sp)
    add_budget(sp)
    sp.add_argument("--depth", type=int, default=18, help="number of set-equation iterations")
    add_image(sp)
    sp.set_defaults(func=cmd_gifs)

    sp = sub.add_parser("compare", help="Hausdorff distance between the two constructions")
    add_common(sp)
    add_budget(sp)
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
    add_budget(sp)
    sp.add_argument("--points", type=int, default=200_000)
    sp.add_argument("--radius", type=float, default=2.0)
    sp.add_argument("--step", type=float, default=0.05)
    sp.add_argument("--eps", type=float, default=None)
    sp.set_defaults(func=cmd_cover)

    sp = sub.add_parser("check", help="run the invariant suite")
    add_common(sp)
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
