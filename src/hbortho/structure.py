"""Banded-plus-low-rank structure of the reduced orthogonality systems.

For a symbol with a single pole of order m at 1, left-multiplying the
orthogonality system by (I - B)^{2m} (B = backward shift, ones on the first
superdiagonal; one application replaces row R_j by R_j - R_{j+1} and leaves
the last row alone) empirically produces

    (I - B)^{2m} S  =  T + N,

with T upper triangular and (2m+1)-banded whose diagonals are low-degree
polynomials in the row index, and N supported on the last 2m+1 rows.  This
module measures that structure (never assumes it).  The structured solver
serves every degree n >= 0 once a calibration at a fixed small size
confirms it; a refuted calibration is its only refusal.  It factors the band
in the symbol's rational form: with phi = beta / alpha and
alpha = (1 - z)^m, the Gram matrix is M = T(conj alpha)^{-1} K
T(conj alpha)^{-H} with K Hermitian and banded of half-bandwidth m, and one
banded Cholesky factorization of K gives p_n in O(n m^2) arithmetic, against
O(n^2) for the dense Schur factorization.  The closed-form family
conj(A) B = -(1 + |A|^2) goes through the same factor.

``S`` here always means the matrix of the equations <p_n, z^k>, i.e. the
transpose (= entrywise conjugate) of the Hermitian Gram matrix; for real
symbol data the two coincide.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import ztbtrs

from . import gram as gram_mod
from . import oracle as oracle_mod
from .gram import system_residual
from .oracle import NumericalBreakdown, OrthoPoly
from .symbol import SmirnovSymbol

#: relative tolerance defining "conforming" entries during detection
DETECT_TOL = 1e-9

#: calibration padding: structure is checked at degree 4m + CALIBRATION_PAD
CALIBRATION_PAD = 8

#: largest gap between the dense and structured p_n that ``bench_solvers`` accepts
AGREEMENT_TOL = 1e-7


class StructureRefuted(ArithmeticError):
    """Calibration failed: the banded-plus-low-rank pattern does not hold."""


def apply_shift_reduction(mat: np.ndarray, d: int) -> np.ndarray:
    """(I - B)^d applied on the left of a copy of ``mat``, via d elementary
    difference passes, which are numerically preferable to the explicit
    binomial-weighted combination once d grows."""
    out = np.array(mat, dtype=complex)
    if d < 0 or d > out.shape[0] - 1:
        raise ValueError("d must satisfy 0 <= d <= n")
    for _ in range(d):
        out[:-1] -= out[1:]  # numpy buffers the overlap: each row minus the old next row
    return out


@dataclass(frozen=True)
class StructureReport:
    """Measured reduction structure for one symbol at one size.

    ``diagonal_degrees[off]`` is the exact finite-difference degree of the
    band diagonal at offset ``off`` (-1 for an identically zero diagonal,
    None when the diagonal is not polynomial at all).  ``residual`` is the
    largest entry outside the claimed pattern, reported raw and never
    thresholded away; ``scale`` is the magnitude reference (max |entry| of
    the reduced matrix).
    """

    pole_order: int
    reduction_power: int
    size: int
    band_width: int
    low_rank_rows: int
    low_rank_rank: int
    diagonal_degrees: tuple
    diagonal_tables: tuple
    residual: float
    scale: float
    confirmed: bool

    def summary(self) -> str:
        status = "CONFIRMED" if self.confirmed else "REFUTED"
        return (
            f"m={self.pole_order} n={self.size}: {status} "
            f"band_width={self.band_width} (expected {2 * self.pole_order + 1}), "
            f"degrees={self.diagonal_degrees} "
            f"(expected <= {2 * (self.pole_order - 1)}), "
            f"trailing rows={self.low_rank_rows}, rank={self.low_rank_rank}, "
            f"residual={self.residual:.3e} (scale {self.scale:.3e})"
        )


def _pole_order_at_one(phi: SmirnovSymbol) -> int:
    if not isinstance(phi, SmirnovSymbol) or not phi.pole_terms:
        raise ValueError("structure detection needs a symbol with poles")
    for t in phi.pole_terms:
        if abs(t.pole - 1.0) > 1e-12:
            raise ValueError(
                "structure detection requires the single pole at 1; rotate first"
            )
    return max(t.order for t in phi.pole_terms)


def _diagonal_degree(values: np.ndarray, tol_abs: float):
    """Exact finite-difference degree of a sampled diagonal.

    Returns (degree, newton_table); degree None means "not polynomial within
    the sampled range", degree -1 an identically-zero diagonal.
    """
    scale = float(np.max(np.abs(values))) if len(values) else 0.0
    if scale <= tol_abs:
        return -1, (0j,)
    table = [values[0]]
    arr = values
    step_tol = max(1e-7 * scale, tol_abs)
    degree = None
    for d in range(len(values) - 1):
        arr = np.diff(arr)
        if len(arr) == 0 or np.max(np.abs(arr)) <= step_tol:
            degree = d
            break
        table.append(arr[0])
    if degree is None:
        return None, tuple(table)
    return degree, tuple(table[: degree + 1])


def _newton_eval(table, k_values: np.ndarray) -> np.ndarray:
    """Evaluate a Newton forward-difference table at integer points."""
    out = np.zeros(len(k_values), dtype=complex)
    binom = np.ones(len(k_values))
    kv = np.asarray(k_values, dtype=float)
    for d, coeff in enumerate(table):
        if d > 0:
            binom = binom * (kv - (d - 1)) / d
        out += coeff * binom
    return out


def detect_structure(phi: SmirnovSymbol, n: int) -> StructureReport:
    """Measure the banded-plus-low-rank pattern of (I-B)^{2m} S at size n.

    The report either confirms the pattern for this instance (band width at
    most 2m+1, diagonal degrees at most 2(m-1), perturbation confined to the
    last 2m+1 rows) or refutes it; nothing downstream may assume the pattern
    without this check.
    """
    m = _pole_order_at_one(phi)
    if n < 4 * m + 2:
        raise ValueError(f"need n >= {4 * m + 2} for pole order {m}")
    d = 2 * m
    reduced = apply_shift_reduction(np.conj(gram_mod.gram_matrix(phi, n)), d)
    n1 = n + 1
    conforming = n1 - (d + 1)  # rows 0 .. n-2m-1
    scale = float(np.max(np.abs(reduced)))
    tol_abs = DETECT_TOL * scale

    degrees = []
    tables = []
    max_off = 0
    for off in range(d + 1):
        vals = reduced[np.arange(conforming), np.arange(conforming) + off]
        deg, table = _diagonal_degree(vals, tol_abs)
        degrees.append(deg)
        tables.append(table)
        if deg is not None and deg >= 0:
            max_off = off
    band_width = max_off + 1

    # extend the fitted band over all rows, subtract, and look at what is left
    banded = np.zeros_like(reduced)
    for off, (deg, table) in enumerate(zip(degrees, tables)):
        if deg is None or deg < 0:
            continue
        rows = np.arange(n1 - off)
        banded[rows, rows + off] = _newton_eval(table, rows)
    perturbation = reduced - banded

    row_peaks = np.max(np.abs(perturbation), axis=1)
    nonconforming = np.nonzero(row_peaks > tol_abs)[0]
    if len(nonconforming):
        low_rank_rows = int(n1 - nonconforming.min())
        trailing_ok = bool(nonconforming.min() >= n1 - (d + 1))
    else:
        low_rank_rows = 0
        trailing_ok = True
    residual = float(np.max(row_peaks[:conforming])) if conforming else 0.0
    rank = int(np.linalg.matrix_rank(perturbation, tol=max(tol_abs, 1e-12)))

    confirmed = (
        trailing_ok
        and band_width <= d + 1
        and all(deg is not None and deg <= 2 * (m - 1) for deg in degrees)
        and residual <= tol_abs
    )
    return StructureReport(
        pole_order=m,
        reduction_power=d,
        size=n,
        band_width=band_width,
        low_rank_rows=low_rank_rows,
        low_rank_rank=rank,
        diagonal_degrees=tuple(degrees),
        diagonal_tables=tuple(tables),
        residual=residual,
        scale=scale,
        confirmed=confirmed,
    )


# ---------------------------------------------------------------------------
# structured solver
# ---------------------------------------------------------------------------

def structured_solve(phi: SmirnovSymbol, n: int) -> OrthoPoly:
    """Degree-n orthonormal polynomial through one banded Cholesky factorization.

    Pipeline: calibrate the reduced band at size 4m + CALIBRATION_PAD, whatever
    n is (a refuted calibration raises :class:`StructureRefuted`, the only
    refusal), then factor in the rational form phi = beta / alpha
    (``gram.rational_form``).  With a = conj alpha and b = conj beta,
    M = I + G G^H = T(a)^{-1} K T(a)^{-H}, where

        K = T(a) T(a)^H + T(b) T(b)^H

    (``gram.k_band``) is Hermitian and banded with half-bandwidth
    D = deg alpha = m.  LAPACK's banded Cholesky gives K = R R^H, so
    M = C C^H with C = T(a)^{-1} R, and p_n is row n of C^{-1} = R^{-1} T(a):
    c = x^T T(a) where R^T x = e_n.  Since a_0 = 1, c_n = x_n = 1/R[n,n] is
    real positive and no normalizer is needed.  Work is O(n m^2) for any
    n >= 0.  cond(K) does not grow with n; all the growth of cond(M) sits in
    T(a)^{-1}, which is never formed or solved with.
    """
    m = _pole_order_at_one(phi)
    if n < 0:
        raise ValueError("degree n must be >= 0")
    calibration = detect_structure(phi, 4 * m + CALIBRATION_PAD)
    if not calibration.confirmed:
        raise StructureRefuted(calibration.summary())

    a, b = gram_mod.rational_form(phi)
    n1 = n + 1
    try:
        r = cholesky_banded(gram_mod.k_band(a, b, n1), lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(f"banded Cholesky of K failed: {exc}") from exc
    e_n = np.zeros((n1, 1), dtype=complex)
    e_n[n] = 1.0
    x, info = ztbtrs(r, e_n, uplo="L", trans="T")
    c = np.convolve(x[::-1, 0], a)[:n1][::-1]
    if info or not np.isfinite(c).all():
        raise NumericalBreakdown("banded solve returned non-finite values")
    poly = OrthoPoly(n, c)
    rel = system_residual(phi, c)
    if rel > 1e-6:
        raise NumericalBreakdown(f"structured solve residual {rel:.3e} too large")
    return poly


def bench_solvers(phi: SmirnovSymbol, sizes, repeats: int = 1):
    """Wall-time and residual comparison of the dense oracle vs structured path.

    Returns one record per size; raises if the two solutions disagree beyond
    ``AGREEMENT_TOL`` where both run.  Timings cover assembly plus solve for
    each path (calibration included on the structured side); with
    ``repeats > 1`` the best of the repeats is reported for each side.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    records = []
    for n in sizes:
        t_dense = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            dense = oracle_mod.orthopoly(phi, n, precision="f64")
            t_dense = min(t_dense, time.perf_counter() - t0)

        t_fast = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fast = structured_solve(phi, n)
            t_fast = min(t_fast, time.perf_counter() - t0)

        diff = float(np.max(np.abs(dense.coefficients - fast.coefficients)))
        if not diff <= AGREEMENT_TOL:  # NaN fails
            raise ArithmeticError(
                f"solver disagreement {diff:.3e} at n={n} exceeds {AGREEMENT_TOL}"
            )
        records.append(
            {
                "n": n,
                "dense_seconds": t_dense,
                "structured_seconds": t_fast,
                "speedup": t_dense / t_fast if t_fast > 0 else float("inf"),
                "max_coeff_diff": diff,
                "dense_residual": system_residual(phi, dense.coefficients),
                "structured_residual": system_residual(phi, fast.coefficients),
            }
        )
    return records
