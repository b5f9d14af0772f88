"""Banded-plus-low-rank structure of the reduced orthogonality systems.

For a symbol with a single pole of order m at 1, left-multiplying the
orthogonality system by (I - B)^{2m} (B = backward shift, ones on the first
superdiagonal; one application replaces row R_j by R_j - R_{j+1} and leaves
the last row alone) empirically produces

    (I - B)^{2m} S  =  T + N,

with T upper triangular and (2m+1)-banded whose diagonals are low-degree
polynomials in the row index, and N supported on the last 2m+1 rows.  This
module measures that structure (never assumes it), and exploits it to solve
for orthonormal polynomials in roughly O(n m^2) arithmetic after an O(n^2)
boundary-row assembly, versus the O(n^3) dense factorization.

``S`` here always means the matrix of the equations <p_n, z^k>, i.e. the
transpose (= entrywise conjugate) of the Hermitian Gram matrix; for real
symbol data the two coincide.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve

from . import gram as gram_mod
from . import oracle as oracle_mod
from .backends import solve_small
from .closed_forms import detect_rational_ab, rational_ab_basis
from .gram import system_residual
from .oracle import NumericalBreakdown, OrthoPoly
from .symbol import SmirnovSymbol

#: relative tolerance defining "conforming" entries during detection
DETECT_TOL = 1e-9

#: calibration padding: structure is checked at degree 4m + CALIBRATION_PAD
CALIBRATION_PAD = 8


class StructureRefuted(ArithmeticError):
    """Calibration failed: the banded-plus-low-rank pattern does not hold."""


def apply_shift_reduction(mat, d: int) -> np.ndarray:
    """(I - B)^d applied on the left, via d elementary difference passes.

    ``mat`` may be a GramMatrix (its equation-system matrix is used) or any
    2-d array.  Repeated passes are numerically preferable to the explicit
    binomial-weighted combination once d grows.
    """
    if isinstance(mat, gram_mod.GramMatrix):
        out = mat.system_matrix()
    else:
        out = np.array(mat, dtype=complex)
    if d < 0 or d > out.shape[0] - 1:
        raise ValueError("d must satisfy 0 <= d <= n")
    for _ in range(d):
        out = np.vstack([out[:-1] - out[1:], out[-1:]])
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
    reduced = apply_shift_reduction(gram_mod.gram_matrix(phi, n), d)
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

def _system_row(coeffs: np.ndarray, r: int, n: int) -> np.ndarray:
    """Row r of S (the equation <., z^r>) assembled by one correlation.

    S_{r,j} = delta_{r,j} + sum_d phi_{r-d} conj(phi_{j-d}), a convolution of
    the reversed prefix phi_r..phi_0 with conj(phi).
    """
    a = coeffs[: r + 1][::-1]
    b = np.conj(coeffs[: n + 1])
    if n > 512:
        row = fftconvolve(a, b)[: n + 1]
    else:
        row = np.convolve(a, b)[: n + 1]
    row[r] += 1.0
    return row


class _ReducedSystem:
    """The reduced system in bordered form.

    Band rows 0..n-2m-1 come from the calibrated diagonal polynomials;
    boundary rows are assembled exactly from the Gram rows.  The homogeneous
    border basis W (coefficients of c_k on the border c_0..c_{2m-1}) grows
    like the dominant recurrence mode, so it is stored together with a
    running scalar log-scale; coefficients whose true size underflows double
    precision come out as exact zeros.

    For m >= 2 the dominant modes come in conjugate pairs and the boundary
    contractions suffer oscillatory cancellation, so the border algebra runs
    in extended precision there (the final coefficients are float64 either
    way).
    """

    def __init__(self, phi: SmirnovSymbol, n: int, calibration: StructureReport):
        m = calibration.pole_order
        d = 2 * m
        n1 = n + 1
        band_rows = n1 - (d + 1)
        coeffs = phi.taylor(n1)
        work_dtype = complex if m == 1 else np.clongdouble

        kk = np.arange(band_rows)
        band = np.empty((d + 1, band_rows), dtype=complex)
        for off, table in enumerate(calibration.diagonal_tables):
            band[off] = _newton_eval(table, kk)
        if band_rows and np.min(np.abs(band[d])) < 1e-12 * calibration.scale:
            raise StructureRefuted("leading band diagonal vanishes")

        # reduced boundary row k combines the system rows k .. min(k+d, n)
        rows = [_system_row(coeffs, r, n) for r in range(band_rows, n1)]
        boundary = np.zeros((d + 1, n1), dtype=complex)
        for k in range(band_rows, n1):
            acc = np.zeros(n1, dtype=complex)
            for i in range(min(d, n - k) + 1):
                acc += (-1) ** i * math.comb(d, i) * rows[k + i - band_rows]
            boundary[k - band_rows] = acc

        # homogeneous border propagation with shared scalar rescaling; the
        # growth per step is bounded by the band ratios, so the overflow
        # guard only needs to run every `stride` steps
        width = d
        band_w = band.astype(work_dtype)
        w = np.zeros((n, width), dtype=work_dtype)
        logscale = np.zeros(n)
        w[:width] = np.eye(width)
        s_cur = 0.0
        ratios = (np.sum(np.abs(band[:d]), axis=0) + np.abs(band[d])) / np.abs(band[d])
        step_log = math.log10(float(np.max(ratios)) + 2.0)
        stride = max(1, int(80.0 / step_log))
        for k in range(band_rows):
            w[k + d] = -(band_w[:d, k] @ w[k : k + d]) / band_w[d, k]
            logscale[k + d] = s_cur
            if (k % stride) == stride - 1:
                peak = float(np.max(np.abs(w[k + 1 : k + d + 1])))
                if peak > 1e80:
                    g = math.log(peak)
                    w[k + 1 : k + d + 1] /= np.asarray(peak, dtype=np.longdouble)
                    logscale[k + 1 : k + d + 1] += g
                    s_cur += g

        self.n = n
        self.m = m
        self.d = d
        self.band_rows = band_rows
        self.band = band
        self.boundary = boundary
        self.s_max = float(logscale.max()) if n else 0.0
        weights = np.exp(logscale - self.s_max).astype(np.longdouble)
        self.scaled_w = w * weights[:, None]
        # boundary equations restricted to the border unknowns and c_n
        small = np.empty((d + 1, width + 1), dtype=work_dtype)
        small[:, :width] = boundary[:, :n].astype(work_dtype) @ self.scaled_w
        small[:, width] = boundary[:, n].astype(work_dtype)
        self.small = small
        self.work_dtype = work_dtype

    def solve_t_normalized(self) -> np.ndarray:
        """Solution of the reduced system at normalizer t = 1.

        The right-hand side lives only on the boundary rows, so the solve is
        a single small dense system on (scaled border, c_n) followed by the
        basis contraction.  Columns are equilibrated first: the stored basis
        magnitude varies over the inter-event growth range, and at large n
        the subdominant border directions underflow outright, making the raw
        columns collinear; equilibration plus a least-squares fallback drops
        exactly the directions whose effect on the coefficients is already
        zero.
        """
        n, d, width = self.n, self.d, self.d
        rhs = np.empty(d + 1, dtype=self.work_dtype)
        for k in range(self.band_rows, n + 1):
            rhs[k - self.band_rows] = (-1) ** (n - k) * math.comb(d, n - k)

        colscale = np.max(np.abs(self.small), axis=0)
        colscale[colscale == 0] = 1.0
        balanced = self.small / colscale
        if self.work_dtype is np.clongdouble:
            try:
                sol = solve_small(balanced, rhs)
            except np.linalg.LinAlgError as exc:
                raise NumericalBreakdown("border system is singular") from exc
        else:
            try:
                sol = np.linalg.solve(balanced, rhs)
                if not np.isfinite(sol).all():
                    raise np.linalg.LinAlgError("non-finite solution")
            except np.linalg.LinAlgError:
                sol, _, rank, _ = np.linalg.lstsq(balanced, rhs, rcond=None)
                if rank == 0:
                    raise NumericalBreakdown("border system collapsed to rank zero")
        sol = sol / colscale
        u = np.empty(n + 1, dtype=complex)
        u[:n] = (self.scaled_w @ sol[:width]).astype(complex)
        u[n] = complex(sol[width])
        return u


def structured_solve(
    phi: SmirnovSymbol, n: int, calibration: StructureReport | None = None
) -> OrthoPoly:
    """Degree-n orthonormal polynomial through the reduced banded system.

    Pipeline: calibrate the band structure at a small size, extend the fitted
    diagonal polynomials to all rows, assemble the 2m+1 boundary rows of the
    reduced system exactly, and solve by bordered block elimination with the
    first 2m coefficients plus (c_n, t) as border unknowns: the band rows
    express every interior coefficient as a linear function of the border,
    the boundary rows then close a small dense system, and the solution is
    normalized exactly like the dense oracle.  Arithmetic is O(n m^2) plus an
    O(m n^2) vectorized boundary-row assembly, against O(n^3) for the dense
    factorization.
    """
    m = _pole_order_at_one(phi)
    if n < 4 * m + 2:
        raise ValueError(f"need n >= {4 * m + 2} for pole order {m}")

    # the collapsed family (top band identically zero) has an explicit basis
    form = detect_rational_ab(phi)
    if form is not None:
        return rational_ab_basis(form, n).polys[n]

    if calibration is None:
        calibration = detect_structure(phi, 4 * m + CALIBRATION_PAD)
    if not calibration.confirmed:
        raise StructureRefuted(calibration.summary())

    system = _ReducedSystem(phi, n, calibration)
    u = system.solve_t_normalized()
    if not np.isfinite(u).all():
        raise NumericalBreakdown("border solve returned non-finite values")
    un = u[n]
    if abs(un.imag) > 1e-10 * max(np.max(np.abs(u)), 1e-300) or un.real <= 0:
        raise NumericalBreakdown(
            f"normalizing entry {un} is not real positive at working precision"
        )
    c = u / math.sqrt(un.real)
    poly = OrthoPoly(n, c)
    rel = system_residual(phi, c)
    if rel > 1e-6:
        raise NumericalBreakdown(f"structured solve residual {rel:.3e} too large")
    return poly


def bench_solvers(phi: SmirnovSymbol, sizes, agreement_tol: float = 1e-7, repeats: int = 1):
    """Wall-time and residual comparison of the dense oracle vs structured path.

    Returns one record per size; raises if the two solutions disagree beyond
    ``agreement_tol`` where both run.  Timings cover assembly plus solve for
    each path (calibration included on the structured side); with
    ``repeats > 1`` the best of the repeats is reported for each side.
    """
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
        if diff > agreement_tol:
            raise ArithmeticError(
                f"solver disagreement {diff:.3e} at n={n} exceeds {agreement_tol}"
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
