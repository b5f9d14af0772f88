"""The library surface: every name in ``hbortho.__all__``, the parameter names
of each callable, the fields of each dataclass and the base of each exception.

Adding or removing a name, a parameter or a field is a change to the library's
interface, made here on purpose (``test_cli.test_parser_surface`` does the same
for the command line).
"""

import dataclasses
import inspect

import hbortho

SURFACE = {
    "CaseBoundary": (ArithmeticError,),
    "CatalogEntry": ("name", "b", "a", "phi", "parameters"),
    "FM_NORM_LIMIT": float,
    "FM_NORM_RATIO": float,
    "NumericalBreakdown": (ArithmeticError,),
    "OrthoBasis": ("polys", "symbol", "precision", "residual"),
    "OrthoPoly": ("degree", "coefficients", "hp_coefficients"),
    "PoleTerm": ("pole", "order", "coefficient"),
    "PreconditionViolated": (ValueError,),
    "RationalABForm": ("A", "B"),
    "RationalFunction": ("numer", "denom"),
    "RecurrenceData": (
        "A", "B", "rho", "t0", "t1", "t2", "t3", "t4", "disc", "disc_ratio",
        "case_tag", "roots", "double_root",
    ),
    "SingularBorder": (ArithmeticError,),
    "SmirnovSymbol": ("constant_term", "pole_terms"),
    "StructureRefuted": (ArithmeticError,),
    "StructureReport": (
        "pole_order", "reduction_power", "size", "band_width", "low_rank_rows",
        "low_rank_rank", "diagonal_degrees", "diagonal_tables", "residual", "scale",
        "confirmed",
    ),
    "SymbolError": (ValueError,),
    "TaylorStream": ("fn", "label"),
    "apply_shift_reduction": ("mat", "d"),
    "bench_solvers": ("phi", "sizes", "repeats"),
    "blaschke_entry": ("c",),
    "blaschke_symbol": ("c",),
    "build_recurrence": ("A", "B"),
    "catalog": (),
    "coefficients_via_recurrence": ("data", "n", "precision"),
    "compose_basis": ("base", "N"),
    "compose_monomial": ("phi", "N"),
    "detect_rational_ab": ("phi",),
    "detect_structure": ("phi", "n"),
    "fm_coefficient": ("k",),
    "fm_norm_b": ("n",),
    "fm_polynomial": ("n",),
    "format_symbol": ("phi",),
    "gram_matrix": ("phi", "n"),
    "hb_norm_squared": ("phi", "p"),
    "kernel_truncation_check": ("entry", "w", "p", "K"),
    "monomial_orthogonality_witness": ("phi", "bound"),
    "orthobasis": ("phi", "n", "precision"),
    "orthonormality_defect": ("phi", "polys"),
    "orthopoly": ("phi", "n", "precision"),
    "parse_symbol": ("text",),
    "poly_inner": ("phi", "p", "q"),
    "power_basis": ("N", "n"),
    "power_entry": ("N",),
    "power_symbol": ("N",),
    "rational_ab_basis": ("form", "n"),
    "recurrence_residual": ("data", "coeffs"),
    "reduced_matrix_check": ("A", "B", "n"),
    "rotate_basis": ("basis", "gamma"),
    "rotate_symbol": ("phi", "gamma"),
    "sarason_symbol": (),
    "structured_solve": ("phi", "n"),
    "toeplitz_conj_apply": ("phi", "p"),
    "validate_entry": ("entry",),
}


def describe(obj):
    """Bases of an exception, fields of a dataclass, parameter names of any
    other callable, and the type of a constant."""
    if isinstance(obj, type) and issubclass(obj, Exception):
        return obj.__bases__
    if dataclasses.is_dataclass(obj):
        return tuple(f.name for f in dataclasses.fields(obj))
    if callable(obj):
        return tuple(inspect.signature(obj).parameters)
    return type(obj)


def test_all_names():
    assert sorted(hbortho.__all__) == sorted(SURFACE)


def test_each_name():
    assert {name: describe(getattr(hbortho, name)) for name in hbortho.__all__} == SURFACE
