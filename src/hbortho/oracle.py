"""Brute-force orthonormal polynomials from one Cholesky factor of the Gram matrix.

Write a polynomial as the coefficient row c, so <p, q> = c M conj(d)^T with M
the Gram matrix of the monomials.  For M = C C^H with C lower triangular and a
positive diagonal, the rows of Q = C^{-1} satisfy Q M Q^H = I, row k has
degree k and its leading entry 1/C[k,k] is real positive: row k of C^{-1} is
the orthonormal polynomial p_k (Gram-Schmidt on the monomials, done by a
factorization instead of sequential projections, which lose orthogonality
catastrophically at these condition numbers).

Every f64 request factors M once with ``gram.schur_factor`` (O(n^2) from the
Taylor coefficients, C packed): p_n is one BLAS ``ztpsv`` solve with C^T, a
basis the triangular inverse C^{-T} of the unpacked C.  The "hp" routes factor
the band K = T(a) M T(a)^H of the rational form instead (``gram.k_band`` of
``gram.rational_form(phi, hp=True)``), whose condition number does not grow
with n: an mpmath banded Cholesky K = R R^H in O(n D^2) gives C = T(a)^{-1} R,
and p_k = x^T T(a) from R^T x = e_k.  Both arithmetics take the residual
max |Q M Q^H - I| of a basis from M = I + G G^H on phi's Taylor data.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import ztpsv

from . import gram as gram_mod
from .backends import AUTO_F64_TOL, F64_EPS, VALID_TAGS, cond_bound, workprec
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

    ``precision`` "f64" or "hp" picks the backend; without it the
    conditioning picks it and an f64 result is verified (see ``backends``).
    """
    return _solve(phi, n, precision, _orthopoly_f64, _orthopoly_hp)


def _solve(phi: SymbolLike, n: int, precision: str | None, f64_route, hp_route):
    """Run one request on the backend that ``precision`` selects.

    A requested backend runs as asked.  An automatic request runs in f64 when
    ``cond_bound`` allows it and keeps the result only if its residual (a
    basis's own, else ``gram.system_residual``) is at most ``AUTO_F64_TOL``;
    otherwise it runs in hp.  A raw stream, which the hp path cannot serve,
    always tries f64 and raises ``NumericalBreakdown`` if the result fails.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    if precision == "hp":
        return hp_route(phi, n)
    if precision == "f64":
        return f64_route(phi, n)
    if precision is not None:
        raise ValueError(f"unknown precision tag {precision!r}; expected one of {VALID_TAGS}")
    escalates = isinstance(phi, SmirnovSymbol)
    bound = cond_bound(phi, n)
    if escalates and not F64_EPS * bound <= AUTO_F64_TOL:  # a NaN bound goes to hp
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


def _factor(coeffs: np.ndarray) -> np.ndarray:
    try:
        return gram_mod.schur_factor(coeffs, PIVOT_BREAKDOWN_RATIO)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(str(exc)) from exc


def _orthopoly_f64(phi: SymbolLike, n: int) -> OrthoPoly:
    packed = _factor(np.asarray(phi.taylor(n + 1), dtype=complex))
    e_n = np.zeros(n + 1, dtype=complex)
    e_n[n] = 1.0
    # row n of C^{-1}, i.e. the solution of C^T x = e_n, on the packed factor
    return OrthoPoly(n, ztpsv(n + 1, packed, e_n, lower=1, trans=1, overwrite_x=1))


def _orthopoly_hp(phi: SymbolLike, n: int) -> OrthoPoly:
    with workprec():
        return _band_row_mp(*_band_factor_mp(phi, n + 1), n)


def _band_factor_mp(phi: SymbolLike, n1: int) -> tuple[np.ndarray, np.ndarray]:
    """(conj alpha, R) with K = R R^H in ``gram.k_band``'s lower band storage, K of
    size n1: a banded Cholesky in mpmath (inside workprec; LAPACK takes no mpc)."""
    if not isinstance(phi, SmirnovSymbol):
        raise TypeError("the high-precision path needs a SmirnovSymbol")
    a, b = gram_mod.rational_form(phi, hp=True)
    r = gram_mod.k_band(a, b, n1)
    for j in range(n1):  # scale column j of K, then take its outer product off the rest
        pivot = r[0, j].real
        if not pivot > 0:
            raise NumericalBreakdown(f"pivot {j} of the banded Cholesky of K is {pivot}")
        col = r[:, j] = r[:, j] / mpmath.sqrt(pivot)
        for off in range(1, min(len(a), n1 - j)):
            r[: len(a) - off, j + off] -= col[off:] * np.conj(col[off])
    return a, r


def _band_row_mp(a: np.ndarray, r: np.ndarray, k: int) -> OrthoPoly:
    """p_k = x^T T(a), row k of C^{-1} = R^{-1} T(a), with R^T x = e_k by back
    substitution on the band (see ``structure.structured_solve``)."""
    x = [mpmath.mpc(0)] * (k + len(a))  # x_i = 0 past i = k
    for i in range(k, -1, -1):
        x[i] = (int(i == k) - mpmath.fdot(r[1:, i], x[i + 1 : i + len(a)])) / r[0, i]
    c = np.convolve(np.array(x[k::-1], dtype=object), a)[: k + 1][::-1]
    return OrthoPoly(k, np.array([complex(v) for v in c]), hp_coefficients=tuple(c))


def orthobasis(phi: SymbolLike, n: int, precision: str | None = None) -> OrthoBasis:
    """All orthonormal polynomials p_0 .. p_n, with the orthonormality defect.

    The backend is chosen, and an automatic f64 result verified, as in
    ``orthopoly``.
    """
    return _solve(phi, n, precision, _orthobasis_f64, _orthobasis_hp)


def _orthobasis_f64(phi: SymbolLike, n: int) -> OrthoBasis:
    coeffs = np.asarray(phi.taylor(n + 1), dtype=complex)
    lower = gram_mod.unpack_lower(_factor(coeffs))
    # rows of C^{-1} as the solutions of C^T x = e_k, like orthopoly: these keep
    # the per-degree accuracy that forward substitution on the columns loses
    q = solve_triangular(lower, np.eye(n + 1), lower=True, trans="T", check_finite=False).T
    polys = tuple(OrthoPoly(k, q[k, : k + 1]) for k in range(n + 1))
    return OrthoBasis(polys, phi, "f64", gram_mod.gram_defect(coeffs, q))


def _orthobasis_hp(phi: SymbolLike, n: int) -> OrthoBasis:
    with workprec():
        a, r = _band_factor_mp(phi, n + 1)  # K's leading blocks do not depend on n
        polys = tuple(_band_row_mp(a, r, k) for k in range(n + 1))
        residual = float(_residual_hp(phi.taylor_mp(n + 1), [p.hp_coefficients for p in polys]))
    return OrthoBasis(polys, phi, "hp", residual)


def _residual_hp(coeffs, rows) -> mpmath.mpf:
    """max |Q Q^H + (Q G)(Q G)^H - I| over the lower triangle: ``gram.gram_defect``
    on phi's Taylor data, in mpmath sums.  Row i of Q G is T p_i, with
    (T p)_m = sum_{s >= m} p_s conj(phi_{s-m}); rows i and j meet up to min(i, j)."""
    conj = [mpmath.conj(c) for c in coeffs]
    t_rows = [[mpmath.fdot(p[m:], conj[: len(p) - m]) for m in range(len(p))] for p in rows]
    worst = mpmath.mpf(0)
    for i, (p, tp) in enumerate(zip(rows, t_rows)):
        for j in range(i + 1):
            val = mpmath.fdot(p[: j + 1], rows[j], conjugate=True)
            val += mpmath.fdot(tp[: j + 1], t_rows[j], conjugate=True)
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
