"""Closed-form orthonormal bases and the detectors that recognize them.

Covered families:

* ``phi = A + B/(1-z)`` with ``conj(A) B = -(1 + |A|^2)``: the orthogonal
  family is 1, z-1, z(z-1), z^2(z-1), ... with norms sqrt(1 + 1/|A|^2) and
  |A| + 1/|A|.
* ``b = (1 + z^N)/2``: the ``b = (1+z)/2`` family transported by z -> z^N
  (the invariance of H(b) under composition with z^N).
* re-indexing transport of any basis under z -> z^N.

Also included: the classical orthogonal family of the local Dirichlet space
(Fricain--Mashreghi polynomials), whose coefficients are odd-indexed
Fibonacci numbers, used as an independent cross-check of the norm machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import mpmath
import numpy as np

from . import gram as gram_mod
from .backends import to_mpc, workprec
from .oracle import OrthoBasis, OrthoPoly
from .symbol import PoleTerm, SmirnovSymbol, SymbolLike, compose_monomial

#: tolerance scale for the algebraic relation conj(A) B = -(1+|A|^2)
RELATION_TOL = 1e-12

#: |<z^j, z^k>| above which ``monomial_orthogonality_witness`` counts a pair
WITNESS_TOL = 1e-9


class PreconditionViolated(ValueError):
    """A closed-form constructor was called outside its validity region."""


@dataclass(frozen=True)
class RationalABForm:
    """Single simple pole at 1: phi = A + B/(1-z)."""

    A: complex
    B: complex

    @property
    def satisfies_theorem(self) -> bool:
        """Whether conj(A) B = -(1 + |A|^2) holds within tolerance.

        The relation forces A != 0 (a purely singular B/(1-z) never has an
        orthogonal shifted-monomial family).
        """
        lhs = np.conj(self.A) * self.B + 1.0 + abs(self.A) ** 2
        scale = 1.0 + abs(self.A) ** 2 + abs(self.A * self.B)
        return abs(lhs) <= RELATION_TOL * scale

    def symbol(self) -> SmirnovSymbol:
        return SmirnovSymbol(self.A, (PoleTerm(1.0, 1, self.B),))


def _simple_pole_at_one(phi: SmirnovSymbol) -> RationalABForm | None:
    """phi as A + B/(1-z) when its only pole term is simple and sits at 1."""
    if len(phi.pole_terms) != 1:
        return None
    term = phi.pole_terms[0]
    if term.order != 1 or abs(term.pole - 1.0) > 1e-12:
        return None
    return RationalABForm(phi.constant_term, term.coefficient)


def detect_rational_ab(phi: SymbolLike) -> RationalABForm | None:
    """Recognize symbols whose orthonormal family is the shifted-monomial one.

    Requires exactly one pole, simple, located at 1 (rotate the symbol first
    if its pole sits elsewhere), and the algebraic relation on (A, B); a
    ``TaylorStream`` has no pole terms and gives None.
    """
    form = _simple_pole_at_one(phi) if isinstance(phi, SmirnovSymbol) else None
    return form if form is not None and form.satisfies_theorem else None


def rational_ab_basis(form: RationalABForm, n: int) -> OrthoBasis:
    """Normalized basis 1/||1||, z^{k-1}(z-1)/||.|| up to degree n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    polys = tuple(_shifted_monomials(form, range(n + 1), hp=False))
    return OrthoBasis(polys, form.symbol(), "closed-form", 0.0)


def _shifted_monomials(form: RationalABForm, degrees, hp: bool) -> list[OrthoPoly]:
    """p_n = 1/||1|| at n = 0, else z^{n-1}(z-1)/(|A| + 1/|A|), for each n in
    ``degrees``, in O(n) each; in mpmath arithmetic if ``hp``, which is exact
    to the working precision only when the relation holds exactly."""
    if not form.satisfies_theorem:
        raise PreconditionViolated("the shifted-monomial family requires conj(A) B = -(1+|A|^2)")
    # all arithmetic inside: mpmath rounds even a negation to the working precision
    with workprec():
        a = abs(to_mpc(form.A)) if hp else abs(form.A)
        sqrt, zero = (mpmath.sqrt, mpmath.mpc(0)) if hp else (math.sqrt, 0.0)
        lead = zero + 1 / (a + 1 / a)
        head, tail = [zero + 1 / sqrt(1 + 1 / a**2)], [-lead, lead]
    polys = []
    for n in degrees:
        coeffs = [zero] * (n - 1) + tail if n else head
        hp_coefficients = tuple(coeffs) if hp else None
        polys.append(OrthoPoly(n, np.array(coeffs, dtype=complex), hp_coefficients=hp_coefficients))
    return polys


def power_basis(N: int, n: int) -> OrthoBasis:
    """Orthonormal basis for b = (1 + z^N)/2 up to degree n: the basis of
    b = (1+z)/2 transported by z -> z^N, so degrees below N are monomials over
    sqrt(2) and degree Nk+i (k >= 1) is z^{N(k-1)+i} (z^N - 1)/2."""
    if N < 1:
        raise ValueError("N must be >= 1")
    composed = compose_basis(rational_ab_basis(RationalABForm(-1, 2), n // N), N)
    return replace(composed, polys=composed.polys[: n + 1])


def compose_basis(base: OrthoBasis, N: int) -> OrthoBasis:
    """Transport a basis under z -> z^N by coefficient re-indexing.

    The polynomial of composed degree Nl+i is z^i p_l(z^N): coefficient k of
    p_l lands at power Nk+i.  Covers degrees 0 .. N(deg base)+N-1.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N == 1:
        return base
    polys = []
    for l, p in enumerate(base.polys):
        for i in range(N):  # degrees N l + i come in increasing order
            deg = N * l + i
            coeffs = np.zeros(deg + 1, dtype=complex)
            coeffs[i::N] = p.coefficients
            hp = None
            if p.hp_coefficients is not None:
                hp = [mpmath.mpc(0)] * (deg + 1)
                hp[i::N] = p.hp_coefficients
                hp = tuple(hp)
            polys.append(OrthoPoly(deg, coeffs, hp_coefficients=hp))
    if isinstance(base.symbol, SmirnovSymbol):
        new_symbol: SymbolLike = compose_monomial(base.symbol, N)
    else:
        new_symbol = base.symbol.composed_monomial(N)
    return OrthoBasis(tuple(polys), new_symbol, base.precision, base.residual)


# ---------------------------------------------------------------------------
# Local Dirichlet space cross-check family
# ---------------------------------------------------------------------------

_SQRT5 = math.sqrt(5.0)
_GOLDEN = (1.0 + _SQRT5) / 2.0
_GOLDEN_CONJ = (1.0 - _SQRT5) / 2.0

#: growth ratio of the cross-check norms: (3 + sqrt 5)/2
FM_NORM_RATIO = (3.0 + _SQRT5) / 2.0

#: limit of ||Q_n|| / ratio^n: 2 * 5^(1/4) / 5
FM_NORM_LIMIT = 2.0 * 5.0**0.25 / 5.0


def fm_coefficient(k: int) -> float:
    """a_k = (phi^{2k+1} - psi^{2k+1}) / sqrt(5): odd-indexed Fibonacci numbers.

    The classical family defines a_k for k >= 1; extending the same Binet
    expression to k = 0 gives a_0 = 1, which is exactly the value the basis
    expansion below requires.
    """
    if k < 0:
        raise ValueError("index must be >= 0")
    return (_GOLDEN ** (2 * k + 1) - _GOLDEN_CONJ ** (2 * k + 1)) / _SQRT5


def fm_polynomial(n: int) -> np.ndarray:
    """Q_0 = 1 and Q_n = 1 + (z-1)(a_0 + a_1 z + ... + a_{n-1} z^{n-1})."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return np.array([1.0 + 0j])
    a = np.array([fm_coefficient(k) for k in range(n)])
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0 - a[0]
    coeffs[1:n] = a[:-1] - a[1:]
    coeffs[n] = a[-1]
    return coeffs


def fm_norm_b(n: int) -> float:
    """||Q_n|| in H(b) for b = (1+z)/2, via two independent evaluations.

    Direct route: ||Q_n||^2 = 2 + 4 sum_{k<n} a_k^2 from the expansion
    Q_n = sqrt(2) p_0 + 2 sum a_{k-1} p_k in the orthonormal basis.
    Closed route: the geometric-series evaluation of the same sum,

        sum_{k<n} a_k^2 = (3+s)/10 * (1-alpha^n)/(1-alpha)
                        + (3-s)/10 * (1-beta^n)/(1-beta) + 2n/5,

    with s = sqrt 5, alpha = (7+3s)/2, beta = (7-3s)/2.  Both are computed
    and asserted equal before the value is returned.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    direct = 2.0 + 4.0 * sum(fm_coefficient(k) ** 2 for k in range(n))
    alpha = (7.0 + 3.0 * _SQRT5) / 2.0
    beta = (7.0 - 3.0 * _SQRT5) / 2.0
    geo = (
        (3.0 + _SQRT5) / 10.0 * (1.0 - alpha**n) / (1.0 - alpha)
        + (3.0 - _SQRT5) / 10.0 * (1.0 - beta**n) / (1.0 - beta)
        + 0.4 * n
    )
    closed = 2.0 + 4.0 * geo
    if abs(direct - closed) > 1e-10 * max(abs(direct), abs(closed)):
        raise ArithmeticError(
            f"norm evaluations disagree at n={n}: {direct} vs {closed}"
        )
    return math.sqrt(direct)


def monomial_orthogonality_witness(phi: SymbolLike, bound: int) -> tuple[int, int] | None:
    """Smallest (j, k), j < k <= bound, with |<z^j, z^k>| > ``WITNESS_TOL``.

    Monomials can only be mutually orthogonal when the space is the plain
    Hardy space, so for any nontrivial symbol a witness pair exists; ``None``
    is consistent with phi being a monomial (or zero) up to the bound.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    above = np.triu(np.abs(gram_mod.gram_matrix(phi, bound)) > WITNESS_TOL, 1)
    pairs = np.argwhere(above)  # row-major: smallest j, then smallest k
    return (int(pairs[0, 0]), int(pairs[0, 1])) if len(pairs) else None
