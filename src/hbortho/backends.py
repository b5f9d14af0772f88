"""Precision backends for the numerical kernels.

* ``"f64"`` -- IEEE double precision through numpy/scipy, the fast path.
* ``"hp"``  -- software floating point through mpmath, 160 bits of mantissa.

"hp" runs the same code as "f64" wherever numpy allows it: the oracle's one
Schur factorization of the Gram matrix (O(n^2), ``gram.schur_factor``), the
Gram assembly and the closed forms of the recurrence take their arithmetic
from their numbers (complex128, or ``mpmath.mpc`` in object arrays), and
``solve_small`` solves border systems of any element type.

An explicit tag, or else ``HB_PRECISION`` ("f64" or "hp"), selects the
backend.  Without either the request is *automatic* and its conditioning, not
its degree, decides.  The Gram matrix is M = I + L L^H (L the Toeplitz matrix
of phi_0 .. phi_n), so lambda_min(M) >= 1 and cond(M) <= ``cond_bound`` =
1 + (sum_k |phi_k|)^2.  A Cholesky solve loses about eps * cond(M) (Higham,
*Accuracy and Stability of Numerical Algorithms*, 2nd ed., ch. 10), so an
automatic request runs in f64 when eps * cond_bound <= ``AUTO_F64_TOL`` and
in hp above; the oracle checks each such f64 result against the same
tolerance and recomputes it in hp if the check fails.
"""

from __future__ import annotations

import math
import os

import mpmath
import numpy as np

HP_PREC_BITS = 160

VALID_TAGS = ("f64", "hp")

F64_EPS = float(np.finfo(np.float64).eps)

#: an automatic request runs in f64 only when eps * cond_bound is at most this
#: (cond_bound <= 4.5e7), and its f64 residual must be at most this as well
AUTO_F64_TOL = 1e-8


def cond_bound(phi, n: int) -> float:
    """O(n) upper bound 1 + (sum_{k<=n} |phi_k|)^2 on cond(M) of the
    (n+1) x (n+1) Gram matrix: ||L||_2^2 <= ||L||_1 ||L||_inf for the Toeplitz L."""
    with np.errstate(over="ignore"):  # a sum past the float range is the bound inf
        total = float(np.sum(np.abs(phi.taylor(n + 1))))
    return 1.0 + total * total  # a float ** 2 would raise OverflowError, not give inf


def requested_precision(tag: str | None) -> str | None:
    """The backend asked for by ``tag`` or else ``HB_PRECISION``; None if automatic."""
    if tag is None:
        tag = os.environ.get("HB_PRECISION")
    if tag is not None and tag not in VALID_TAGS:
        raise ValueError(f"unknown precision tag {tag!r}; expected one of {VALID_TAGS}")
    return tag


def auto_precision(cond: float) -> str:
    """Backend of an automatic request whose Gram matrix has cond(M) <= cond."""
    return "f64" if F64_EPS * cond <= AUTO_F64_TOL else "hp"


def resolve_precision(tag: str | None, cond: float = math.inf) -> str:
    """Concrete backend for ``tag``; automatic for cond(M) <= ``cond`` (unknown: "hp")."""
    return requested_precision(tag) or auto_precision(cond)


def workprec():
    """mpmath working-precision context for the "hp" backend."""
    return mpmath.workprec(HP_PREC_BITS)


def solve_small(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a x = b by Gaussian elimination with partial pivoting, in the
    arithmetic of the arrays' element type (numpy.linalg takes neither
    clongdouble nor mpmath numbers).

    Meant for the few-by-few border systems; there is no singularity
    threshold, only an exact zero pivot raises ``numpy.linalg.LinAlgError``.
    """
    m = a.copy()
    rhs = b.copy()
    size = m.shape[0]
    for col in range(size):
        piv = col + int(np.argmax(np.abs(m[col:, col])))
        if m[piv, col] == 0:
            raise np.linalg.LinAlgError("exact zero pivot")
        if piv != col:
            m[[col, piv]] = m[[piv, col]]
            rhs[[col, piv]] = rhs[[piv, col]]
        for r in range(col + 1, size):
            f = m[r, col] / m[col, col]
            if f != 0:
                m[r, col:] -= f * m[col, col:]
                rhs[r] -= f * rhs[col]
    x = np.zeros(size, dtype=m.dtype)
    for r in range(size - 1, -1, -1):
        x[r] = (rhs[r] - m[r, r + 1 :] @ x[r + 1 :]) / m[r, r]
    return x


def to_mpc(z) -> mpmath.mpc:
    z = complex(z)
    return mpmath.mpc(z.real, z.imag)
