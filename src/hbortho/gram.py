"""Inner products of polynomials in H(b), computed from the symbol's Taylor data.

Convention (used everywhere in this package, stated once): the inner product
conjugates its *second* argument, so for monomials with j <= k

    <z^j, z^k>  =  delta_{j,k} + sum_{s=0}^{j} conj(phi_s) phi_{k-j+s},

and the Hermitian extension <z^j, z^k> = conj(<z^k, z^j>) covers j > k.  The
finite sum comes from pairing the conjugate-Toeplitz images of the monomials,
since ||f||^2 in H(b) equals ||f||_2^2 + ||T f||_2^2 with T the conjugate
symbol Toeplitz action.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import toeplitz
from scipy.signal import fftconvolve

from .catalog import CatalogEntry
from .symbol import SymbolLike


def monomial_inner(phi: SymbolLike, j: int, k: int) -> complex:
    """<z^j, z^k> in H(b) for the given symbol."""
    if j < 0 or k < 0:
        raise ValueError("monomial exponents must be >= 0")
    if j > k:
        return complex(np.conj(monomial_inner(phi, k, j)))
    coeffs = phi.taylor(k + 1)
    value = np.dot(np.conj(coeffs[: j + 1]), coeffs[k - j : k + 1])
    if j == k:
        value += 1.0
    return complex(value)


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian positive-definite matrix of monomial inner products."""

    entries: np.ndarray  # (n+1, n+1) complex128, entries[j, k] = <z^j, z^k>
    symbol: SymbolLike

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def system_matrix(self) -> np.ndarray:
        """Matrix of the orthogonality equations: row k is <., z^k>.

        Row k, column j holds <z^j, z^k>, i.e. the transpose (= conjugate,
        by Hermitian symmetry) of ``entries``.
        """
        return np.conj(self.entries)

    def quadratic_form(self, p: np.ndarray, q: np.ndarray | None = None) -> complex:
        """<p, q> evaluated through the matrix; q defaults to p."""
        if q is None:
            q = p
        pv, qv = (np.pad(np.asarray(v, dtype=complex), (0, self.size - len(v))) for v in (p, q))
        return complex(pv @ (self.entries @ np.conj(qv)))


def gram_matrix(phi: SymbolLike, n: int) -> GramMatrix:
    """Assemble the (n+1) x (n+1) Gram matrix of z^0 .. z^n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return GramMatrix(gram_entries(np.asarray(phi.taylor(n + 1), dtype=complex)), phi)


def gram_entries(coeffs: np.ndarray) -> np.ndarray:
    """Gram entries <z^j, z^k> from the Taylor coefficients phi_0 .. phi_n.

    The element type of ``coeffs`` is the arithmetic: complex128, or an
    object array of ``mpmath.mpc`` (call inside workprec).  Work is O(n^2):
    along the diagonal at offset d the lemma sum telescopes, so each diagonal
    is a single cumulative sum of conj(phi_s) phi_{s+d}.  Summation order
    within a diagonal is fixed, which keeps results bit-identical no matter
    how assembly is scheduled.
    """
    n1 = len(coeffs)
    m = np.zeros((n1, n1), dtype=coeffs.dtype)
    conj_coeffs = np.conj(coeffs)
    for d in range(n1):
        diag = np.cumsum(conj_coeffs[: n1 - d] * coeffs[d:])
        idx = np.arange(n1 - d)
        m[idx, idx + d] = diag
        if d == 0:
            m[idx, idx] += 1.0
        else:
            m[idx + d, idx] = np.conj(diag)
    return m


def schur_factor(coeffs: np.ndarray, pivot_floor: float = 0.0) -> np.ndarray:
    """Lower Cholesky factor C of the Gram matrix M = C C^H of z^0 .. z^n, in O(n^2).

    M = I + G G^H with G the lower Toeplitz matrix of g = conj(phi_0 .. phi_n),
    which commutes with the down-shift Z, so M - Z M Z^H = e_0 e_0^H + g g^H.
    The generalized Schur algorithm (Kailath & Sayed, SIAM Review 37, 1995)
    rotates the generator [u, v] so that v vanishes in row k; the rotated u is
    column k of C, and Z times it is the next u.  The element type of
    ``coeffs`` is the arithmetic: complex128, or an object array of
    ``mpmath.mpc`` (call inside workprec).  Raises ``numpy.linalg.LinAlgError``
    on a coefficient or pivot that is not finite, a zero pivot, or a pivot
    C[k,k]^2 below ``pivot_floor`` times the largest one.
    """
    n1 = len(coeffs)
    if not np.abs(coeffs).max() < np.inf:
        raise np.linalg.LinAlgError("Taylor coefficients are not finite")
    rows = np.zeros((n1, n1), dtype=coeffs.dtype)  # row k is column k of C
    u = np.zeros(n1, dtype=coeffs.dtype)
    u[0] = 1
    v = np.conj(coeffs)
    pivots = []
    for k in range(n1):
        w = v[k:]
        a, b = u.item(0), w.item(0)  # python complex in f64, so scalar work is cheap
        abs_a, abs_b = abs(a), abs(b)
        scale = abs_a + abs_b
        if not 0 < scale < np.inf:
            raise np.linalg.LinAlgError(f"pivot {k} of the Schur factorization is {scale}")
        pivot = scale * ((abs_a / scale) ** 2 + (abs_b / scale) ** 2) ** 0.5
        c, s = a / pivot, b / pivot
        col = rows[k, k:]
        np.multiply(c.conjugate(), u, out=col)
        col += s.conjugate() * w
        col[0] = pivot
        w *= c
        w -= s * u
        u = col[:-1]
        pivots.append(pivot)
    if (min(pivots) / max(pivots)) ** 2 < pivot_floor:
        raise np.linalg.LinAlgError("pivot collapse in the Schur factorization")
    return rows.T


def gram_defect(coeffs: np.ndarray, rows: np.ndarray) -> float:
    """max |Q M Q^H - I| for the coefficient rows Q of a polynomial family,
    as Q Q^H + (Q G)(Q G)^H with M = I + G G^H (see ``schur_factor``)."""
    t_rows = rows @ toeplitz(np.conj(coeffs), np.zeros(len(coeffs)))
    gram = rows @ np.conj(rows.T) + t_rows @ np.conj(t_rows.T)
    return float(np.max(np.abs(gram - np.eye(len(rows)))))


def toeplitz_conj_apply(phi: SymbolLike, p: np.ndarray) -> np.ndarray:
    """Apply the conjugate-symbol Toeplitz operator to a polynomial.

    (T p)_m = sum_{k >= m} p_k conj(phi_{k-m}); the degree never increases.
    """
    p = np.asarray(p, dtype=complex)
    if p.ndim != 1 or len(p) == 0:
        raise ValueError("p must be a nonempty 1-d coefficient array")
    deg1 = len(p)
    cc = np.conj(phi.taylor(deg1))
    return np.convolve(p[::-1], cc)[:deg1][::-1]


def system_residual(phi: SymbolLike, c: np.ndarray) -> float:
    """Relative residual of the orthogonality system at the normalized c.

    max|conj(M) c - e_n / Re c_n| / (max|conj(M) c| + 1): row k of conj(M) c
    is <p, z^k>, 0 below degree n and 1/c_n at n.  conj(M) = I + L L^H with
    L the lower Toeplitz matrix of phi, so this is two convolutions: direct
    up to 512 coefficients, by FFT above, where the direct sums cost more.
    A BLAS matvec with M is not used: right after the factorization it took
    7 ms at n = 64 with two OpenBLAS threads (2-vCPU x86 VM), against 0.1 ms
    for the convolutions.
    """
    c = np.asarray(c, dtype=complex)
    n1 = len(c)
    coeffs = phi.taylor(n1)
    convolve = fftconvolve if n1 > 512 else np.convolve
    lh_c = convolve(c[::-1], np.conj(coeffs))[:n1][::-1]
    mc = c + convolve(coeffs, lh_c)[:n1]
    target = np.zeros(n1, dtype=complex)
    target[-1] = 1.0 / c[-1].real
    return float(np.max(np.abs(mc - target)) / (np.max(np.abs(mc)) + 1.0))


def hb_norm_squared(phi: SymbolLike, p: np.ndarray) -> float:
    """||p||^2 in H(b) = ||p||_2^2 + ||T p||_2^2."""
    p = np.asarray(p, dtype=complex)
    tp = toeplitz_conj_apply(phi, p)
    return float(np.sum(np.abs(p) ** 2) + np.sum(np.abs(tp) ** 2))


def poly_inner(phi: SymbolLike, p: np.ndarray, q: np.ndarray) -> complex:
    """<p, q> in H(b) via the Toeplitz route (independent of gram_matrix)."""
    width = max(len(p), len(q))
    pv, qv = (np.pad(np.asarray(v, dtype=complex), (0, width - len(v))) for v in (p, q))
    tp = toeplitz_conj_apply(phi, pv)
    tq = toeplitz_conj_apply(phi, qv)
    return complex(np.dot(pv, np.conj(qv)) + np.dot(tp, np.conj(tq)))


def kernel_truncation_check(
    entry: CatalogEntry, w: complex, p: np.ndarray, K: int
) -> float:
    """|<p, k_w^(K)> - p(w)| for the degree-K truncated reproducing kernel.

    k_w(z) = (1 - conj(b(w)) b(z)) / (1 - conj(w) z) for the entry's rational
    b; the truncation keeps its Taylor coefficients up to z^K.  The returned
    defect decays geometrically in K for |w| < 1.
    """
    w = complex(w)
    if abs(w) >= 1:
        raise ValueError("evaluation point must lie inside the open disc")
    p = np.asarray(p, dtype=complex)
    if K < len(p) - 1:
        raise ValueError("truncation order must be at least deg p")
    b_series = entry.b.taylor(K + 1)
    bw = entry.b(w)
    g = -np.conj(bw) * b_series
    g[0] += 1.0
    geo = np.power(np.conj(w), np.arange(K + 1))
    kernel = np.convolve(g, geo)[: K + 1]
    pw = 0j
    for c in reversed(p):
        pw = pw * w + c
    return abs(poly_inner(entry.phi, p, kernel) - pw)


def orthonormality_defect(phi: SymbolLike, polys: list[np.ndarray]) -> float:
    """max_{i,j} |<p_i, p_j> - delta_{i,j}| over a family of polynomials."""
    n = max(len(p) for p in polys) - 1
    rows = np.zeros((len(polys), n + 1), dtype=complex)
    for i, p in enumerate(polys):
        rows[i, : len(p)] = p
    return gram_defect(phi.taylor(n + 1), rows)
