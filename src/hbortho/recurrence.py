"""Closed-form orthonormal polynomials for phi = A + B/(1-z) via recurrence.

For this family the orthogonality equations row-reduce to a three-term
recurrence on the coefficients of p_n:

    conj(t0) c_{k+1} + (t1 - t0) c_k + t0 c_{k-1} = 0,   k = 1 .. n-2,

with t0 = 1 + |A|^2 + A conj(B) and t1 = -conj(t0) - |B|^2.  The remaining
three equations (two trailing rows plus one aggregated row) pin down c_0, c_1
and c_n together with the positive normalizing variable t = 1/c_n.

The characteristic quadratic  q(z) = conj(t0) z^2 + (t1-t0) z + t0  drives a
case split: t0 = 0 collapses the recurrence to the shifted-monomial family.
Since conj(t0) = conj(A) B + 1 + |A|^2, that case is exactly the relation of
``RationalABForm.satisfies_theorem``, and its p_n, two nonzero coefficients,
is written down directly in O(n).  In hp that closed form serves only pairs
whose relation is exact in binary; a pair that meets it to rounding goes to
the hp oracle.  Otherwise q has two roots with product t0/conj(t0).  Its
middle coefficient is real and its discriminant works out to

    disc = (2 Re t0 + |B|^2)^2 - 4 |t0|^2  >=  4 |B|^2  >  0,

so for genuine (A, B) the roots are always simple, one strictly inside and
one strictly outside the unit circle.  A small discriminant ratio therefore
never means a double root: it means |B| is small next to t0, where the roots
nearly meet and the border system loses its accuracy, so a ratio below
``BOUNDARY_BAND`` raises :class:`CaseBoundary` and the pair goes to the
oracle.  ``build_recurrence`` never classifies a pair as double-root; the
double-root formulas stay for synthetic data that satisfies their identities.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import mpmath
import numpy as np

from . import oracle as oracle_mod
from .backends import VALID_TAGS, solve_small, to_mpc, workprec
from .closed_forms import RationalABForm, _shifted_monomials
from .gram import gram_matrix, hb_norm_squared
from .oracle import OrthoPoly

log = logging.getLogger(__name__)

#: |disc| / (|t0|+|t1|)^2 below this is ambiguous; defer to the oracle there
BOUNDARY_BAND = 1e-6

#: largest deviation of the replayed reduction, relative to its magnitude scale
REPLAY_TOL = 1e-9

CASE_DEGENERATE = "degenerate-linear"
CASE_SIMPLE = "simple-roots"
CASE_DOUBLE = "double-root"


class CaseBoundary(ArithmeticError):
    """Discriminant sits in the ambiguous band; use the dense oracle instead."""


class SingularBorder(ArithmeticError):
    """The small border system is numerically singular; escalate precision."""


@dataclass(frozen=True)
class RecurrenceData:
    """Scalars of the reduced system for phi = A + B/(1-z).

    ``rho`` is the squared-norm constant 1 + |A+B|^2; t0, t1 are the
    recurrence weights; t2 = rho - conj(t0) is the aggregated-row constant
    and t3, t4 the two surviving entries of the aggregated row.  ``roots``
    holds the characteristic roots ordered by modulus (then phase).
    """

    A: complex
    B: complex
    rho: float
    t0: complex
    t1: complex
    t2: complex
    t3: complex
    t4: complex
    disc: float
    disc_ratio: float
    case_tag: str
    roots: tuple[complex, complex] | None
    double_root: complex | None

    @property
    def in_boundary_band(self) -> bool:
        return self.case_tag == CASE_SIMPLE and self.disc_ratio < BOUNDARY_BAND

    def characteristic(self) -> tuple[complex, complex, complex]:
        """Coefficients (z^2, z^1, z^0) of the characteristic quadratic."""
        return (np.conj(self.t0), self.t1 - self.t0, self.t0)


class _Scalars(NamedTuple):
    """rho, t0 .. t4 (see RecurrenceData) in one arithmetic."""

    rho: float
    t0: complex
    t1: complex
    t2: complex
    t3: complex
    t4: complex


def _scalars(A, B) -> _Scalars:
    """The reduction scalars in the arithmetic of A and B (complex or mpc)."""
    rho = 1 + abs(A + B) ** 2
    t0 = 1 + abs(A) ** 2 + A * np.conj(B)
    t1 = -np.conj(t0) - abs(B) ** 2
    t2 = rho - np.conj(t0)
    bb = abs(B) ** 2
    t3 = rho + t0 * t2 / bb
    t4 = -np.conj(t0) * t2 / bb
    return _Scalars(rho, t0, t1, t2, t3, t4)


class _Arithmetic(NamedTuple):
    """The operations the closed forms take from their number type."""

    sqrt: Callable  # complex square root
    arg: Callable  # phase, to order roots of equal modulus
    solve: Callable  # small dense solve; numpy.linalg.LinAlgError if singular


_F64 = _Arithmetic(
    cmath.sqrt,
    cmath.phase,
    lambda a, b: np.linalg.solve(np.array(a, dtype=complex), np.array(b, dtype=complex)),
)
_HP = _Arithmetic(
    mpmath.sqrt,
    mpmath.arg,
    lambda a, b: solve_small(np.array(a, dtype=object), np.array(b, dtype=object)),
)


def build_recurrence(A: complex, B: complex) -> RecurrenceData:
    """Compute all reduction scalars for phi = A + B/(1-z) and classify."""
    A = complex(A)
    B = complex(B)
    if not (cmath.isfinite(A) and cmath.isfinite(B)):
        raise ValueError(f"A = {A} and B = {B} must be finite")
    if B == 0:
        raise ValueError("B must be nonzero")
    scalars = _scalars(A, B)
    t0, t1 = scalars.t0, scalars.t1
    disc_c = (t1 - t0) ** 2 - 4.0 * t0 * np.conj(t0)
    disc = float(disc_c.real)  # imaginary part is roundoff: the middle coefficient is real
    scale_sq = (abs(t0) + abs(t1)) ** 2
    disc_ratio = abs(disc) / scale_sq if scale_sq > 0 else 0.0

    roots = None
    if RationalABForm(A, B).satisfies_theorem:  # conj(t0) is the relation's left side
        case = CASE_DEGENERATE
    else:
        case, roots = CASE_SIMPLE, _quadratic_roots(np.conj(t0), t1 - t0, t0, _F64)
    return RecurrenceData(A, B, *scalars, disc, disc_ratio, case, roots, None)


def _relation_is_exact(A: complex, B: complex) -> bool:
    """conj(A) B + 1 + |A|^2 == 0 exactly, in rational arithmetic on the binary
    values (``satisfies_theorem`` allows a 1e-12 relative slack)."""
    ar, ai, br, bi = (Fraction(x) for x in (A.real, A.imag, B.real, B.imag))
    return ar * br + ai * bi + 1 + ar * ar + ai * ai == 0 and ar * bi == ai * br


def _quadratic_roots(a, b, c, arith: _Arithmetic) -> tuple[complex, complex]:
    """Roots of a z^2 + b z + c, cancellation-free, ordered small to large."""
    sq = arith.sqrt(b * b - 4.0 * a * c)
    if abs(-b + sq) >= abs(-b - sq):
        big = (-b + sq) / (2.0 * a)
    else:
        big = (-b - sq) / (2.0 * a)
    small = c / (a * big)
    pair = sorted((small, big), key=lambda z: (abs(z), arith.arg(z)))
    return (pair[0], pair[1])


def coefficients_via_recurrence(
    data: RecurrenceData, n: int, precision: str = "f64"
) -> OrthoPoly:
    """Orthonormal polynomial of degree n from the closed-form recurrence.

    Degrees 0 and 1 sit below the recurrence machinery and fall through to
    the dense oracle, as does an hp request for a degenerate pair whose
    relation holds only to rounding.  ``precision`` "hp" evaluates the same
    closed forms in mpmath arithmetic, from scalars recomputed out of A and
    B.  Raises :class:`CaseBoundary` inside the ambiguous discriminant band
    and :class:`SingularBorder` when the bordered system cannot be solved
    reliably (retry with precision="hp").
    """
    if precision not in VALID_TAGS:
        raise ValueError(f"unknown precision tag {precision!r}; expected one of {VALID_TAGS}")
    if n < 2 or data.case_tag == CASE_DEGENERATE:
        form = RationalABForm(data.A, data.B)
        if n >= 2 and (precision == "f64" or _relation_is_exact(data.A, data.B)):
            return _shifted_monomials(form, (n,), hp=precision == "hp")[0]
        # off the relation by rounding, the symbol is off the family by as much
        return oracle_mod.orthopoly(form.symbol(), n, precision=precision)
    if data.in_boundary_band:
        raise CaseBoundary(
            f"discriminant ratio {data.disc_ratio:.3e} is inside the ambiguous band"
        )
    closed_form = _simple_roots if data.case_tag == CASE_SIMPLE else _double_root
    if precision == "hp":
        with workprec():
            coeffs = closed_form(_scalars(to_mpc(data.A), to_mpc(data.B)), n, _HP)
            f64 = np.array([complex(c) for c in coeffs], dtype=complex)
        return OrthoPoly(n, f64, hp_coefficients=tuple(coeffs))
    # mpmath exponents do not overflow; double-precision root powers can
    if data.case_tag == CASE_SIMPLE and (n - 1) * math.log10(max(abs(data.roots[1]), 1.0)) > 280:
        raise SingularBorder(
            "root powers exceed the double-precision range; use hp or the oracle"
        )
    poly = OrthoPoly(n, np.array(closed_form(data, n, _F64), dtype=complex))
    _validate(data, poly)
    return poly


def _simple_roots(s, n: int, arith: _Arithmetic) -> list:
    """Coefficients c_0 .. c_n in the simple-roots case, for the scalars ``s``
    (a RecurrenceData or _Scalars) in the arithmetic ``arith``."""
    t0, t1 = s.t0, s.t1
    t0c = np.conj(t0)
    l1, l2 = _quadratic_roots(t0c, t1 - t0, t0, arith)

    def v(j: int):
        return l2**j - l1**j

    v1 = v(1)
    prod = l1 * l2
    border = [
        [prod * (v(n - 2) * (t0 - t1) - v(n - 3) * t0) / v1,
         (v(n - 2) * t0 + (t1 - t0) * v(n - 1)) / v1,
         t0c],
        [-t0 * prod * v(n - 2) / v1, t0 * v(n - 1) / v1, t1],
        [s.t3, s.t4, 0.0],
    ]
    u0, u1, un = _solve_border(border, [1.0, -1.0, 0.0], arith)
    t = _branch([u0, u1, un], arith)
    c0, c1 = t * u0, t * u1
    return [(c1 * v(k) - c0 * prod * v(k - 1)) / v1 for k in range(n)] + [t * un]


def _double_root(s, n: int, arith: _Arithmetic) -> list:
    """Coefficients c_0 .. c_n in the double-root case, as ``_simple_roots``."""
    if abs(s.t4) == 0:
        raise SingularBorder("aggregated row vanished; double-root data inconsistent")
    mod_t0 = abs(s.t0)
    lam = s.t0 / mod_t0
    lamc = np.conj(lam)
    r = s.t3 / s.t4
    border = [
        [((n - 1) * lam + n * r) * lam ** (n - 1), 1.0],
        [((2 - n) - lamc * r * (n - 1)) * lam**n, lam - 2.0],
    ]
    u0, un = _solve_border(border, [lam / mod_t0, -1.0 / mod_t0], arith)
    t = _branch([u0, un], arith)
    c0 = t * u0
    c1 = -r * c0
    return [((1 - k) * c0 + k * lamc * c1) * lam**k for k in range(n)] + [t * un]


def _solve_border(border, rhs, arith: _Arithmetic):
    try:
        return arith.solve(border, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularBorder(str(exc)) from exc


def _branch(u, arith: _Arithmetic):
    """The positive normalizer t with c_n t = t^2 u_n = 1, u_n = u[-1].

    Of the two candidates +-1/sqrt(u_n), only the positive one makes
    c_n = t u_n positive; u_n must be real positive for either to exist.
    """
    un = u[-1]
    scale = math.sqrt(sum(abs(x) ** 2 for x in u))
    if abs(un.imag) > 1e-12 * scale or un.real <= 0:
        raise SingularBorder(
            f"normalizing entry {un} is not real positive at working precision"
        )
    return 1 / arith.sqrt(un.real).real


def _validate(data: RecurrenceData, poly: OrthoPoly) -> None:
    c = poly.coefficients
    n = poly.degree
    top = float(np.max(np.abs(c)))
    res = recurrence_residual(data, c)
    if not res <= 1e-9 * top < np.inf:  # NaN or inf fails before the norm check
        raise SingularBorder(f"recurrence residual {res:.3e} too large")
    phi = RationalABForm(data.A, data.B).symbol()
    norm_sq = hb_norm_squared(phi, c)
    if not abs(norm_sq - 1.0) <= 1e-7:
        raise SingularBorder(f"norm^2 of the result is {norm_sq}, not 1")
    if not c[n].real > 0:
        raise SingularBorder("leading coefficient is not positive")


def recurrence_residual(data: RecurrenceData, coeffs: np.ndarray) -> float:
    """max_k |conj(t0) c_{k+1} + (t1-t0) c_k + t0 c_{k-1}|, 1 <= k <= n-2."""
    c = np.asarray(coeffs, dtype=complex)
    n = len(c) - 1
    if n < 3:
        return 0.0
    t0c = np.conj(data.t0)
    mid = data.t1 - data.t0
    vals = t0c * c[2:n] + mid * c[1 : n - 1] + data.t0 * c[0 : n - 2]
    return float(np.max(np.abs(vals)))


# ---------------------------------------------------------------------------
# Row-reduction replay
# ---------------------------------------------------------------------------

def reduced_matrix_check(A: complex, B: complex, n: int) -> bool:
    """Replay the elementary row reduction and compare with the closed pattern.

    Assembles the augmented orthogonality system for p_n (rows are the
    equations <p_n, z^k>, the extra column carries the coefficient of the
    normalizing variable t), performs the four reduction stages

      1. R_j <- R_j - R_{j+1} for j = 0..n-1,
      2. R_n <- R_n + sum_{j<n} R_j,
      3. R_j <- R_j - R_{j+1} for j = 0..n-2,
      4. R_n <- R_n + (t2/|B|^2) sum_{j<n} R_j,

    and checks the result entrywise: banded rows (t0, t1-t0, conj(t0)) with
    zero elsewhere, the two boundary rows, and the aggregated last row
    (t3, t4, 0, ..., 0).  Returns False (with a logged diagnostic) on any
    deviation above ``REPLAY_TOL`` times the magnitude scale of the reduced matrix.
    """
    if n < 4:
        raise ValueError("the replay needs n >= 4")
    if not (cmath.isfinite(A) and cmath.isfinite(B)):
        log.warning("reduction replay for A=%s B=%s: input is not finite", A, B)
        return False
    data = build_recurrence(A, B)
    phi = RationalABForm(data.A, data.B).symbol()
    sys = np.conj(gram_matrix(phi, n))  # row k = equation <p_n, z^k>
    aug = np.zeros(n + 1, dtype=complex)
    aug[n] = 1.0  # coefficient of t
    r = np.hstack([sys, aug[:, None]])

    r = np.vstack([r[:-1] - r[1:], r[-1:]])          # stage 1
    r[-1] = r[-1] + r[:-1].sum(axis=0)               # stage 2
    r[:-2] = r[:-2] - r[1:-1]                        # stage 3
    r[-1] = r[-1] + (data.t2 / abs(B) ** 2) * r[:-1].sum(axis=0)  # stage 4

    expected = np.zeros_like(r)
    band = (data.t0, data.t1 - data.t0, np.conj(data.t0))
    for k in range(n - 1):
        for off, val in enumerate(band):
            expected[k, k + off] = val
    expected[n - 2, -1] = 1.0          # t column of the upper boundary row
    expected[n - 1, n - 1] = data.t0
    expected[n - 1, n] = data.t1
    expected[n - 1, -1] = -1.0
    expected[n, 0] = data.t3
    expected[n, 1] = data.t4

    scale = float(np.max(np.abs(r)))
    deviation = np.abs(r - expected)
    worst = float(deviation.max())
    if not worst <= REPLAY_TOL * scale:  # NaN fails
        i, j = np.unravel_index(int(deviation.argmax()), deviation.shape)
        log.warning(
            "reduction replay mismatch for A=%s B=%s n=%d: entry (%d, %d) "
            "is %s, expected %s (scale %.3e)",
            A, B, n, i, j, r[i, j], expected[i, j], scale,
        )
        return False
    return True
