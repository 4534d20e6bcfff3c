"""Rauzy fractals of substitution sequences sharing one Pisot matrix.

Two independent constructions (stepped-line projection and iterated set
equations), exact combinatorial identities behind them, and the numeric
checks that tie everything together at finite resolution.
"""

from .adic import (
    BalanceReport,
    DirectiveSequence,
    FactorGapReport,
    SubstitutionSet,
    balance,
    factor_gap_check,
    first_letter_map,
    is_primitive_sequence,
    limit_letter_chains,
    limit_point_prefix,
    parse_sequence_spec,
    splitmix64,
    splitmix64_array,
    splitmix64_unit,
)
from .core import (
    Alphabet,
    ConvergenceError,
    DomainError,
    IndeterminateError,
    IntMatrix,
    ParseError,
    PrefixSuffixEntry,
    RauzyError,
    ResourceError,
    Substitution,
    abelianize,
    load_substitution_file,
    parse_substitution_set,
    prefix_suffix_table,
    primitivity_exponent,
    wielandt_bound,
)
from .emit import default_colors, read_points_csv, render_ppm, write_points_csv
from .fractal import (
    CompareReport,
    ContinuityReport,
    CoverageReport,
    GifsEdge,
    HausdorffResult,
    PrefixIdentityReport,
    RauzyApprox,
    SetEquationReport,
    SteppedLine,
    build_gifs_edges,
    compare_constructions,
    continuity_experiment,
    coverage_estimate,
    gifs_attractor,
    gifs_step,
    hausdorff,
    point_budget,
    prefix_bound_constant,
    project_prefixes,
    project_word,
    set_equation_check,
    stepped_line,
    subtile_hausdorff,
    telescoped_counts,
    telescoping_decomposition,
    verify_all_prefix_identities,
)
from .spectral import (
    CharPoly,
    GammaLattice,
    SpectralData,
    adapted_norm,
    adapted_norms,
    char_poly,
    gamma_generators,
    is_irreducible_charpoly,
    is_pisot,
    perron_data,
    project,
    require_unimodular_pisot,
    to_adapted,
)

__version__ = "0.1.0"
