"""Orthonormal polynomial bases of de Branges-Rovnyak spaces H(b).

The space is driven by a rational quotient phi = b/a with poles on the unit
circle; norms and inner products of polynomials reduce to finite sums over
phi's Taylor coefficients.  The package provides a brute-force oracle (dense
Gram solves, optionally in software high precision), the known closed-form
bases with their detectors, the three-term recurrence solver for a single
simple pole, and a structured solver that exploits the banded-plus-low-rank
shape of the row-reduced Gram systems.
"""

from .backends import resolve_precision
from .catalog import (
    CatalogEntry,
    RationalFunction,
    blaschke_entry,
    blaschke_symbol,
    catalog,
    power_entry,
    power_symbol,
    sarason_symbol,
    validate_entry,
)
from .closed_forms import (
    FM_NORM_LIMIT,
    FM_NORM_RATIO,
    PreconditionViolated,
    RationalABForm,
    compose_basis,
    detect_rational_ab,
    fm_coefficient,
    fm_norm_b,
    fm_polynomial,
    monomial_orthogonality_witness,
    power_basis,
    rational_ab_basis,
)
from .gram import (
    GramMatrix,
    gram_matrix,
    hb_norm_squared,
    kernel_truncation_check,
    monomial_inner,
    orthonormality_defect,
    poly_inner,
    toeplitz_conj_apply,
)
from .oracle import (
    NumericalBreakdown,
    OrthoBasis,
    OrthoPoly,
    orthobasis,
    orthopoly,
    rotate_basis,
)
from .recurrence import (
    CaseBoundary,
    RecurrenceData,
    SingularBorder,
    build_recurrence,
    coefficients_via_recurrence,
    recurrence_residual,
    reduced_matrix_check,
)
from .structure import (
    StructureReport,
    StructureRefuted,
    apply_shift_reduction,
    bench_solvers,
    detect_structure,
    structured_solve,
)
from .symbol import (
    CompositionOrderError,
    PoleTerm,
    SmirnovSymbol,
    SymbolError,
    TaylorStream,
    compose_monomial,
    format_symbol,
    parse_symbol,
    rotate_symbol,
    taylor_coefficients,
)

__all__ = [
    "CatalogEntry",
    "CaseBoundary",
    "CompositionOrderError",
    "FM_NORM_LIMIT",
    "FM_NORM_RATIO",
    "GramMatrix",
    "NumericalBreakdown",
    "OrthoBasis",
    "OrthoPoly",
    "PoleTerm",
    "PreconditionViolated",
    "RationalABForm",
    "RationalFunction",
    "RecurrenceData",
    "SingularBorder",
    "SmirnovSymbol",
    "StructureRefuted",
    "StructureReport",
    "SymbolError",
    "TaylorStream",
    "apply_shift_reduction",
    "bench_solvers",
    "blaschke_entry",
    "blaschke_symbol",
    "build_recurrence",
    "catalog",
    "coefficients_via_recurrence",
    "compose_basis",
    "compose_monomial",
    "detect_rational_ab",
    "detect_structure",
    "fm_coefficient",
    "fm_norm_b",
    "fm_polynomial",
    "format_symbol",
    "gram_matrix",
    "hb_norm_squared",
    "kernel_truncation_check",
    "monomial_inner",
    "monomial_orthogonality_witness",
    "orthobasis",
    "orthonormality_defect",
    "orthopoly",
    "parse_symbol",
    "poly_inner",
    "power_basis",
    "power_entry",
    "power_symbol",
    "rational_ab_basis",
    "recurrence_residual",
    "reduced_matrix_check",
    "resolve_precision",
    "rotate_basis",
    "rotate_symbol",
    "sarason_symbol",
    "structured_solve",
    "taylor_coefficients",
    "toeplitz_conj_apply",
    "validate_entry",
]

__version__ = "0.1.0"
