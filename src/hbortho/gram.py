"""Inner products of polynomials in H(b), computed from the symbol's Taylor data.

Convention (used everywhere in this package, stated once): the inner product
conjugates its *second* argument, so for monomials with j <= k

    <z^j, z^k>  =  delta_{j,k} + sum_{s=0}^{j} conj(phi_s) phi_{k-j+s},

and the Hermitian extension <z^j, z^k> = conj(<z^k, z^j>) covers j > k.  The
finite sum comes from pairing the conjugate-Toeplitz images of the monomials,
since ||f||^2 in H(b) equals ||f||_2^2 + ||T f||_2^2 with T the conjugate
symbol Toeplitz action.  M is factored here in float64 (``schur_factor``); the
band K of the rational form (``rational_form``, ``k_band``) is built in either
arithmetic, for the structured solver (f64) and the oracle's hp route.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.linalg import toeplitz
from scipy.linalg.blas import zaxpy, zscal

from .backends import to_mpc
from .catalog import CatalogEntry
from .symbol import SmirnovSymbol, SymbolLike


def gram_matrix(phi: SymbolLike, n: int) -> np.ndarray:
    """The (n+1) x (n+1) Gram matrix of z^0 .. z^n, entry [j, k] = <z^j, z^k>; its
    conjugate (= transpose) is the matrix of the orthogonality equations <., z^k>.
    O(n^2): each diagonal is one cumulative sum of conj(phi_s) phi_{s+d}, summed
    in a fixed order, so results are bit-identical however assembly is scheduled."""
    if n < 0:
        raise ValueError("n must be >= 0")
    coeffs = np.asarray(phi.taylor(n + 1), dtype=complex)
    n1 = n + 1
    m = np.zeros((n1, n1), dtype=complex)
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
    """Lower Cholesky factor C of the Gram matrix M = C C^H of z^0 .. z^n, in O(n^2),
    packed: column k of C from its diagonal down, for k = 0 .. n, in one array of
    length (n+1)(n+2)/2 (LAPACK's lower packed layout; ``unpack_lower`` gives C).

    M = I + G G^H with G the lower Toeplitz matrix of g = conj(phi_0 .. phi_n),
    which commutes with the down-shift Z, so M - Z M Z^H = e_0 e_0^H + g g^H.
    The generalized Schur algorithm (Kailath & Sayed, SIAM Review 37, 1995)
    rotates the generator [u, v] so that v vanishes in row k; the rotated u is
    column k of C, and Z times it is the next u, by BLAS calls on complex128
    ``coeffs``.  Raises ``numpy.linalg.LinAlgError`` on a coefficient or pivot
    that is not finite, a zero pivot, or a pivot C[k,k]^2 below ``pivot_floor``
    times the largest one.
    """
    n1 = len(coeffs)
    if not np.abs(coeffs).max() < np.inf:
        raise np.linalg.LinAlgError("Taylor coefficients are not finite")
    buf = np.empty(n1 + n1 * (n1 + 1) // 2, dtype=complex)
    buf.fill(0)  # touch every page here: lazily zeroed pages fault inside the loop
    buf[0] = 1  # the first u, e_0, ahead of the factor; each later u is in the last column
    v = np.conj(coeffs)
    pivots = []
    u_at, col_at = 0, n1
    for k in range(n1):
        m = n1 - k
        a, b = buf.item(u_at), v.item(k)  # python complex, so scalar work is cheap
        abs_a, abs_b = abs(a), abs(b)
        scale = abs_a + abs_b
        if not 0 < scale < np.inf:
            raise np.linalg.LinAlgError(f"pivot {k} of the Schur factorization is {scale}")
        pivot = scale * ((abs_a / scale) ** 2 + (abs_b / scale) ** 2) ** 0.5
        _rotate_blas(a / pivot, b / pivot, buf, u_at, col_at, v, k, m)
        buf[col_at] = pivot
        u_at, col_at = col_at, col_at + m
        pivots.append(pivot)
    if (min(pivots) / max(pivots)) ** 2 < pivot_floor:
        raise np.linalg.LinAlgError("pivot collapse in the Schur factorization")
    return buf[n1:]


def _rotate_blas(c, s, buf, u_at, col_at, v, k, m) -> None:
    """col = conj(c) u + conj(s) w on the zeroed col, then w = c w - s u, in place:
    u and col are the m entries of ``buf`` from u_at and col_at, w those of v from
    k.  Three zaxpy and one zscal on complex128, addressed by offsets (no views)."""
    zaxpy(v, buf, m, s.conjugate(), k, 1, col_at, 1)
    zaxpy(buf, buf, m, c.conjugate(), u_at, 1, col_at, 1)
    zscal(c, v, m, k)
    zaxpy(buf, v, m, -s, u_at, 1, k, 1)


def unpack_lower(packed: np.ndarray) -> np.ndarray:
    """The square lower triangular C of a factor packed as ``schur_factor`` returns it."""
    n1 = (math.isqrt(8 * len(packed) + 1) - 1) // 2
    upper = np.zeros((n1, n1), dtype=packed.dtype)  # row k is column k of C
    upper[np.triu_indices(n1)] = packed
    return upper.T


def rational_form(phi: SmirnovSymbol, hp: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Conjugated coefficients (conj alpha, conj beta) of phi = beta / alpha in
    lowest terms, each of length D + 1 with D = deg alpha; complex128, or
    object arrays of ``mpmath.mpc`` if ``hp`` (call inside workprec).

    alpha = prod_zeta (1 - conj(zeta) z)^{m_zeta}, m_zeta the highest pole
    order at zeta, so alpha_0 = 1; beta = alpha phi is a polynomial of degree
    at most D, the first D + 1 coefficients of the product of the series.
    Then G = T(conj alpha)^{-1} T(conj beta) in M = I + G G^H (see
    ``schur_factor``), with T(.) the lower Toeplitz matrix of a sequence.
    """
    orders: dict[complex, int] = {}
    for t in phi.pole_terms:
        orders[t.pole] = max(orders.get(t.pole, 0), t.order)
    alpha = np.array([mpmath.mpc(1)], dtype=object) if hp else np.ones(1, dtype=complex)
    for pole, order in orders.items():
        root = np.conj(to_mpc(pole) if hp else pole)
        for _ in range(order):
            alpha = np.convolve(alpha, [1.0, -root])
    taylor = phi.taylor_mp if hp else phi.taylor
    beta = np.convolve(alpha, taylor(len(alpha)))[: len(alpha)]
    return np.conj(alpha), np.conj(beta)


def k_band(a: np.ndarray, b: np.ndarray, n1: int) -> np.ndarray:
    """K = T(a) T(a)^H + T(b) T(b)^H = T(a) M T(a)^H of size n1, for (a, b) from
    ``rational_form``, in their arithmetic and in LAPACK's lower band storage
    k[off, j] = K[j + off, j]; K is Hermitian with half-bandwidth len(a) - 1."""
    d = len(a) - 1
    k = np.empty((d + 1, n1), dtype=a.dtype)
    for off in range(d + 1):
        # sum_{s <= j} a_{s+off} conj(a_s) + (same for b) grows while s <= d - off, then
        # stays; the head is clipped to the n1 columns that K has when n1 <= d
        head = np.cumsum(a[off:] * np.conj(a[: d + 1 - off]) + b[off:] * np.conj(b[: d + 1 - off]))
        head = head[:n1]
        k[off, : len(head)] = head
        k[off, len(head) :] = head[-1]
    return k


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
    if p.ndim != 1 or len(p) == 0 or not np.isfinite(p).all():
        raise ValueError("p must be a nonempty, finite 1-d coefficient array")
    deg1 = len(p)
    cc = np.conj(phi.taylor(deg1))
    return np.convolve(p[::-1], cc)[:deg1][::-1]


#: length of c from which ``system_residual`` convolves by FFT: the two
#: methods cost the same at about 300-340 coefficients (equal lengths, one BLAS
#: thread, 2-vCPU x86 VM), and from 352 on the FFT is 15-45% faster
FFT_MIN_LENGTH = 352


def system_residual(phi: SymbolLike, c: np.ndarray) -> float:
    """Relative residual of the orthogonality system at the normalized c.

    max|conj(M) c - e_n / Re c_n| / (max|conj(M) c| + 1): row k of conj(M) c
    is <p, z^k>, 0 below degree n and 1/c_n at n.  conj(M) = I + L L^H with
    L the lower Toeplitz matrix of phi, so this is two convolutions: direct
    below ``FFT_MIN_LENGTH`` coefficients, by FFT (``numpy.fft``) from there
    on, where the direct sums cost more.
    A BLAS matvec with M is not used: right after the factorization it took
    7 ms at n = 64 with two OpenBLAS threads (2-vCPU x86 VM), against 0.1 ms
    for the convolutions.
    """
    c = np.asarray(c, dtype=complex)
    n1 = len(c)
    coeffs = phi.taylor(n1)
    convolve = _fft_convolve if n1 >= FFT_MIN_LENGTH else np.convolve
    lh_c = convolve(c[::-1], np.conj(coeffs))[:n1][::-1]
    mc = c + convolve(coeffs, lh_c)[:n1]
    target = np.zeros(n1, dtype=complex)
    target[-1] = 1.0 / c[-1].real
    return float(np.max(np.abs(mc - target)) / (np.max(np.abs(mc)) + 1.0))


def _fft_convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full linear convolution of two complex sequences through ``numpy.fft``."""
    size = len(x) + len(y) - 1
    nfft = _fft_length(size)
    return np.fft.ifft(np.fft.fft(x, nfft) * np.fft.fft(y, nfft))[:size]


def _fft_length(size: int) -> int:
    """The smaller of the least 2^k and the least 3·2^j that hold ``size``:
    at 4097 × 4097 the 3·2^j length took the convolution from 1.55 to 0.81 ms
    (one BLAS thread, 2-vCPU x86 VM)."""
    return min(1 << (size - 1).bit_length(), 3 << ((size - 1) // 3).bit_length())


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
