"""Brute-force orthonormal polynomials from one Cholesky factor of the Gram matrix.

Write a polynomial as the coefficient row c, so <p, q> = c M conj(d)^T with M
the Gram matrix of the monomials.  For M = C C^H with C lower triangular and a
positive diagonal, the rows of Q = C^{-1} satisfy Q M Q^H = I, row k has
degree k and its leading entry 1/C[k,k] is real positive: row k of C^{-1} is
the orthonormal polynomial p_k (Gram-Schmidt on the monomials, done by a
factorization instead of sequential projections, which lose orthogonality
catastrophically at these condition numbers).

Every request factors M once, with ``gram.schur_factor``: O(n^2) work from
the Taylor coefficients, without forming M.  A single p_n is one triangular
solve with C^T, a whole basis is the triangular inverse, taken as C^{-T} so
that each p_k is the same solve.  The residual max |Q M Q^H - I| is never
computed from C: f64 takes it from M = I + G G^H, hp from the Gram entries.

The "hp" routes run the same factorization on mpmath numbers; the back
substitution and the basis residual are mpmath ``fdot`` loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.linalg import solve_triangular

from . import gram as gram_mod
from .backends import AUTO_F64_TOL, auto_precision, cond_bound, requested_precision, workprec
from .symbol import SmirnovSymbol, SymbolLike, rotate_symbol

#: relative pivot threshold that flags a double-precision factorization as unusable
PIVOT_BREAKDOWN_RATIO = 1e-13


class NumericalBreakdown(ArithmeticError):
    """A factorization pivot is not finite or collapsed; f64 can retry in "hp"."""


@dataclass(frozen=True)
class OrthoPoly:
    """Orthonormal polynomial with positive real leading coefficient."""

    degree: int
    coefficients: np.ndarray
    hp_coefficients: tuple | None = None

    @property
    def leading(self) -> float:
        return float(self.coefficients[-1].real)


@dataclass(frozen=True)
class OrthoBasis:
    """Orthonormal polynomials for degrees 0..n under one symbol."""

    polys: tuple[OrthoPoly, ...]
    symbol: SymbolLike
    precision: str
    residual: float

    @property
    def degree(self) -> int:
        return len(self.polys) - 1


def orthopoly(phi: SymbolLike, n: int, precision: str | None = None) -> OrthoPoly:
    """Orthonormal polynomial of exact degree n for the symbol ``phi``.

    ``precision`` (or ``HB_PRECISION``) "f64" or "hp" picks the backend; with
    neither, the conditioning picks it and an f64 result is verified (see
    ``backends``).
    """
    return _solve(phi, n, precision, _orthopoly_f64, _orthopoly_hp)


def _solve(phi: SymbolLike, n: int, precision: str | None, f64_route, hp_route):
    """Run one request on the backend that ``precision`` selects.

    A requested backend runs as asked, except that an f64 breakdown falls
    back to hp when the request came from ``HB_PRECISION``.  An automatic
    request runs in f64 when ``cond_bound`` allows it and keeps the result
    only if its residual (a basis's own, else ``gram.system_residual``) is at
    most ``AUTO_F64_TOL``; otherwise it runs in hp.  A raw stream, which the
    hp path cannot serve, always tries f64 and raises ``NumericalBreakdown``
    if the result fails.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    tag = requested_precision(precision)
    if tag == "hp":
        return hp_route(phi, n)
    if tag == "f64":
        try:
            return f64_route(phi, n)
        except NumericalBreakdown:
            if precision is not None:
                raise
            return hp_route(phi, n)
    bound = cond_bound(phi, n)
    escalates = isinstance(phi, SmirnovSymbol)
    if escalates and auto_precision(bound) == "hp":
        return hp_route(phi, n)
    try:
        result = f64_route(phi, n)
    except NumericalBreakdown as exc:
        failure = str(exc)
    else:
        if isinstance(result, OrthoBasis):
            defect = result.residual
        else:
            defect = gram_mod.system_residual(phi, result.coefficients)
        if defect <= AUTO_F64_TOL:
            return result
        failure = f"f64 residual {defect:.3g} exceeds {AUTO_F64_TOL:g}"
    if not escalates:
        raise NumericalBreakdown(
            f"{failure} (cond_bound {bound:.3g}); the hp path needs a SmirnovSymbol"
        )
    return hp_route(phi, n)


def _factor(coeffs: np.ndarray, pivot_floor: float = 0.0) -> np.ndarray:
    try:
        return gram_mod.schur_factor(coeffs, pivot_floor)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(str(exc)) from exc


def _orthopoly_f64(phi: SymbolLike, n: int) -> OrthoPoly:
    lower = _factor(np.asarray(phi.taylor(n + 1), dtype=complex), PIVOT_BREAKDOWN_RATIO)
    e_n = np.zeros(n + 1)
    e_n[n] = 1.0
    # row n of C^{-1}, i.e. the solution of C^T x = e_n
    return OrthoPoly(n, solve_triangular(lower, e_n, lower=True, trans="T", check_finite=False))


def _orthopoly_hp(phi: SymbolLike, n: int) -> OrthoPoly:
    with workprec():
        return _inverse_row_mp(_factor(_taylor_mp(phi, n)).T.tolist(), n)


def _taylor_mp(phi: SymbolLike, n: int) -> np.ndarray:
    """phi_0 .. phi_n as an object array of mpc (inside workprec); streams raise TypeError."""
    if not isinstance(phi, SmirnovSymbol):
        raise TypeError("the high-precision path needs a SmirnovSymbol")
    return np.array(phi.taylor_mp(n + 1), dtype=object)


def _inverse_row_mp(upper: list[list[mpmath.mpc]], k: int) -> OrthoPoly:
    """p_k: row k of C^{-1}, by back substitution on C^T x = e_k (``upper`` = C^T, as rows)."""
    x = [mpmath.mpc(0)] * (k + 1)
    for i in range(k, -1, -1):
        acc = mpmath.fdot(upper[i][i + 1 : k + 1], x[i + 1 :])
        x[i] = ((1 if i == k else 0) - acc) / upper[i][i]
    f64 = np.array([complex(c) for c in x], dtype=complex)
    return OrthoPoly(k, f64, hp_coefficients=tuple(mpmath.mpc(c) for c in x))


def orthobasis(phi: SymbolLike, n: int, precision: str | None = None) -> OrthoBasis:
    """All orthonormal polynomials p_0 .. p_n, with the orthonormality defect.

    The backend is chosen, and an automatic f64 result verified, as in
    ``orthopoly``.
    """
    return _solve(phi, n, precision, _orthobasis_f64, _orthobasis_hp)


def _orthobasis_f64(phi: SymbolLike, n: int) -> OrthoBasis:
    coeffs = np.asarray(phi.taylor(n + 1), dtype=complex)
    lower = _factor(coeffs, PIVOT_BREAKDOWN_RATIO)
    # rows of C^{-1} as the solutions of C^T x = e_k, like orthopoly: these keep
    # the per-degree accuracy that forward substitution on the columns loses
    q = solve_triangular(lower, np.eye(n + 1), lower=True, trans="T", check_finite=False).T
    polys = tuple(OrthoPoly(k, q[k, : k + 1]) for k in range(n + 1))
    return OrthoBasis(polys, phi, "f64", gram_mod.gram_defect(coeffs, q))


def _orthobasis_hp(phi: SymbolLike, n: int) -> OrthoBasis:
    with workprec():
        coeffs = _taylor_mp(phi, n)
        upper = _factor(coeffs).T.tolist()
        polys = tuple(_inverse_row_mp(upper, k) for k in range(n + 1))
        rows = [p.hp_coefficients for p in polys]
        residual = float(_residual_hp(gram_mod.gram_entries(coeffs).tolist(), rows))
    return OrthoBasis(polys, phi, "hp", residual)


def _residual_hp(m, rows) -> mpmath.mpf:
    """max |Q M Q^H - I| over the lower triangle, from the Gram entries."""
    worst = mpmath.mpf(0)
    for i, p in enumerate(rows):
        # w = p M[:i+1, :i+1]; column s of M is conj(row s) by Hermitian symmetry
        w = [mpmath.fdot(p, m[s][: i + 1], conjugate=True) for s in range(i + 1)]
        for j, q in enumerate(rows[: i + 1]):
            val = mpmath.fdot(w[: j + 1], q, conjugate=True)
            worst = max(worst, abs(val - (1 if i == j else 0)))
    return worst


def rotate_basis(basis: OrthoBasis, gamma: float) -> OrthoBasis:
    """Transport a basis to the rotated symbol z -> phi(e^{i gamma} z).

    The transported polynomials are e^{-i n gamma} p_n(e^{i gamma} z); the
    prefactor is exactly what keeps the leading coefficients positive.
    """
    polys = []
    for p in basis.polys:
        n = p.degree
        phases = np.exp(1j * gamma * (np.arange(n + 1) - n))
        hp = None
        if p.hp_coefficients is not None:
            with workprec():
                g = mpmath.mpf(gamma)
                hp = tuple(
                    c * mpmath.exp(mpmath.mpc(0, 1) * g * (k - n))
                    for k, c in enumerate(p.hp_coefficients)
                )
        polys.append(OrthoPoly(n, p.coefficients * phases, hp_coefficients=hp))
    if isinstance(basis.symbol, SmirnovSymbol):
        new_symbol: SymbolLike = rotate_symbol(basis.symbol, gamma)
    else:
        new_symbol = basis.symbol.rotated(gamma)
    return OrthoBasis(tuple(polys), new_symbol, basis.precision, basis.residual)
