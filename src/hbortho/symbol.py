"""Rational symbols with unit-circle poles and their Taylor coefficient streams.

A symbol is stored in partial-fraction form

    phi(z) = A + sum_over_terms  B / (1 - conj(zeta) z)**d,

with every pole ``zeta`` on the unit circle.  Poles strictly inside the disc
cannot occur for this class of quotients, and poles strictly outside give the
unweighted Hardy space, so both are rejected at construction time.

All downstream computations consume only the Taylor coefficients phi_0,
phi_1, ...; :class:`TaylorStream` is the raw coefficient-level interface that
also covers symbols (e.g. polynomial ones) that the partial-fraction form
cannot express.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import mpmath
import numpy as np

from .backends import to_mpc

#: construction-time tolerance on | |zeta| - 1 | for pole locations
POLE_MODULUS_TOL = 1e-14


class SymbolError(ValueError):
    """Invalid symbol data (pole off the circle, zero coefficient, ...)."""


@dataclass(frozen=True)
class PoleTerm:
    """One summand B / (1 - conj(pole) z)**order with |pole| = 1."""

    pole: complex
    order: int
    coefficient: complex


@dataclass(frozen=True)
class SmirnovSymbol:
    """Partial-fraction representation of a rational Smirnov quotient."""

    constant_term: complex = 0j
    pole_terms: tuple[PoleTerm, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "constant_term", complex(self.constant_term))
        if not cmath.isfinite(self.constant_term):
            raise SymbolError(f"constant term {self.constant_term} is not finite")
        terms = []
        seen = set()
        for t in self.pole_terms:
            pole = complex(t.pole)
            if not abs(abs(pole) - 1.0) <= POLE_MODULUS_TOL:  # NaN fails
                raise SymbolError(f"pole {pole} is not on the unit circle")
            if t.order < 1:
                raise SymbolError(f"pole order must be >= 1, got {t.order}")
            coeff = complex(t.coefficient)
            if coeff == 0:
                raise SymbolError("pole term with zero coefficient")
            if not cmath.isfinite(coeff):
                raise SymbolError(f"pole coefficient {coeff} is not finite")
            key = (pole, int(t.order))
            if key in seen:
                raise SymbolError(f"duplicate pole term {key}")
            seen.add(key)
            terms.append(PoleTerm(pole, int(t.order), coeff))
        object.__setattr__(self, "pole_terms", tuple(terms))

    def taylor_coefficient(self, n: int) -> complex:
        """phi_n, using the binomial expansion of each (1 - conj(zeta) z)**-d."""
        if n < 0:
            raise ValueError("coefficient index must be >= 0")
        value = self.constant_term if n == 0 else 0j
        for t in self.pole_terms:
            value += t.coefficient * math.comb(n + t.order - 1, t.order - 1) * np.conj(t.pole) ** n
        return complex(value)

    def taylor(self, count: int) -> np.ndarray:
        """First ``count`` Taylor coefficients as a complex128 array."""
        if count < 1:
            raise ValueError("count must be >= 1")
        idx = np.arange(count)
        out = np.zeros(count, dtype=complex)
        out[0] = self.constant_term
        for t in self.pole_terms:
            binom = np.ones(count)
            for i in range(1, t.order):
                binom *= (idx + i) / i
            out += t.coefficient * binom * np.power(np.conj(t.pole), idx)
        return out

    def taylor_mp(self, count: int) -> list[mpmath.mpc]:
        """High-precision Taylor coefficients (call inside a workprec block)."""
        const = to_mpc(self.constant_term)
        out = [const if n == 0 else mpmath.mpc(0) for n in range(count)]
        for t in self.pole_terms:
            coeff = to_mpc(t.coefficient)
            zbar = mpmath.conj(to_mpc(t.pole))
            power = mpmath.mpc(1)
            for n in range(count):
                out[n] += coeff * mpmath.binomial(n + t.order - 1, t.order - 1) * power
                power *= zbar
        return out

    def stream(self) -> "TaylorStream":
        return TaylorStream(self.taylor_coefficient, label=format_symbol(self))


class TaylorStream:
    """Lazy stream of Taylor coefficients phi_0, phi_1, ...

    Wraps any ``n -> complex`` function; this is the escape hatch for symbols
    without a partial-fraction form, such as monomials.  The cache is
    grow-only, so concurrent readers are safe.
    """

    def __init__(self, fn: Callable[[int], complex], label: str = "stream"):
        self._fn = fn
        self._cache: list[complex] = []
        self.label = label

    def coefficient(self, n: int) -> complex:
        if n < 0:
            raise ValueError("coefficient index must be >= 0")
        while len(self._cache) <= n:
            self._cache.append(complex(self._fn(len(self._cache))))
        return self._cache[n]

    def taylor(self, count: int) -> np.ndarray:
        if count < 1:
            raise ValueError("count must be >= 1")
        self.coefficient(count - 1)
        return np.asarray(self._cache[:count], dtype=complex)

    def rotated(self, gamma: float) -> "TaylorStream":
        return TaylorStream(
            lambda n: cmath.exp(1j * n * gamma) * self.coefficient(n),
            label=f"rot({self.label}, {gamma})",
        )

    def composed_monomial(self, N: int) -> "TaylorStream":
        if N < 1:
            raise ValueError("N must be >= 1")
        return TaylorStream(
            lambda n: self.coefficient(n // N) if n % N == 0 else 0j,
            label=f"comp({self.label}, {N})",
        )


SymbolLike = SmirnovSymbol | TaylorStream


def rotate_symbol(phi: SmirnovSymbol, gamma: float) -> SmirnovSymbol:
    """Symbol of z -> phi(e^{i gamma} z).

    Each pole zeta moves to zeta e^{-i gamma} and the Taylor coefficients pick
    up the phases phi_k -> e^{i k gamma} phi_k; partial-fraction coefficients
    are unchanged.
    """
    rot = cmath.exp(-1j * gamma)
    terms = tuple(
        PoleTerm(_unit(t.pole * rot), t.order, t.coefficient) for t in phi.pole_terms
    )
    return SmirnovSymbol(phi.constant_term, terms)


def compose_monomial(phi: SmirnovSymbol, N: int) -> SmirnovSymbol:
    """Symbol of z -> phi(z^N) in partial-fraction form, for every pole order:

        B/(1 - conj(zeta) z^N)^m = sum_{omega^N = zeta} sum_{s <= m} B c_s/(1 - conj(omega) z)^s,

    with the exact weights c_s of ``_root_weights``, the same at every root by
    the symmetry z -> omega z (c_1 = 1/N for m = 1).  Terms that share
    (omega, s) are summed, and a sum that is exactly 0 is dropped.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N == 1:
        return phi
    terms: dict[tuple[complex, int], complex] = {}
    for t in phi.pole_terms:
        theta, b = cmath.phase(t.pole), t.coefficient
        weights = _root_weights(N, t.order)
        for j in range(N):
            omega = _exact_axis_point(_unit(cmath.exp(1j * (theta + 2 * math.pi * j) / N)))
            for s, w in enumerate(weights, start=1):
                # b * 1 can flip the sign of a zero part of b, so 1/den only divides
                c = (b * w.numerator if w.numerator != 1 else b) / w.denominator
                terms[omega, s] = terms[omega, s] + c if (omega, s) in terms else c
    kept = tuple(PoleTerm(z, s, c) for (z, s), c in terms.items() if c != 0)
    return SmirnovSymbol(phi.constant_term, kept)


def _root_weights(N: int, m: int) -> list[Fraction]:
    """Exact c_1 .. c_m of 1/(1 - z^N)^m = sum_s c_s/(1 - z)^s + (terms regular at 1):
    c_s is the t^(m-s) coefficient of h(t)^-m, h(t) = (1 - (1-t)^N)/t, by the
    power recurrence for g = h^-m from g_0 = h_0^-m."""
    h = [Fraction((-1) ** i * math.comb(N, i + 1)) for i in range(m)]
    g = [h[0] ** -m]
    for k in range(1, m):
        g.append(sum(((1 - m) * i - k) * h[i] * g[k - i] for i in range(1, k + 1)) / (k * h[0]))
    return g[::-1]


def _exact_axis_point(z: complex) -> complex:
    # a root within rounding of +-1 or +-i is stored as that point exactly (the
    # N-th roots of an exact pole 1 include -1, +-i), so power-N keeps exact poles
    if abs(z.imag) <= POLE_MODULUS_TOL:
        return complex(round(z.real))
    if abs(z.real) <= POLE_MODULUS_TOL:
        return complex(0.0, round(z.imag))
    return z


def _unit(z: complex) -> complex:
    # renormalise so the pole-modulus invariant survives repeated transports
    return z / abs(z)


# ---------------------------------------------------------------------------
# text format used by the CLI:  "A ; (B, zeta, d) ; (B, zeta, d) ..."
# with complex numbers written as  re+imi  (e.g.  -1, 2, 0.5-0.5i)
# ---------------------------------------------------------------------------

_TERM_RE = re.compile(r"^\(([^,]+),([^,]+),([^,)]+)\)$")


def parse_complex(text: str) -> complex:
    s = text.strip().replace(" ", "")
    if not s:
        raise SymbolError("empty complex literal")
    try:
        z = complex(s.replace("i", "j"))
    except ValueError as exc:
        raise SymbolError(f"cannot parse complex number {text!r}") from exc
    if not cmath.isfinite(z):
        raise SymbolError(f"complex number {text!r} is not finite")
    return z


def format_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def parse_symbol(text: str) -> SmirnovSymbol:
    """Parse the ``A ; (B, zeta, d) ; ...`` CLI symbol format."""
    parts = [p.strip() for p in text.split(";")]
    if not parts or not parts[0]:
        raise SymbolError("symbol text must start with the constant term")
    const = parse_complex(parts[0])
    terms = []
    for part in parts[1:]:
        if not part:
            continue
        m = _TERM_RE.match(part.replace(" ", ""))
        if m is None:
            raise SymbolError(f"malformed pole term {part!r}; expected (B, zeta, d)")
        coeff = parse_complex(m.group(1))
        pole = parse_complex(m.group(2))
        order = int(m.group(3))
        terms.append(PoleTerm(pole, order, coeff))
    return SmirnovSymbol(const, tuple(terms))


def format_symbol(phi: SmirnovSymbol) -> str:
    parts = [format_complex(phi.constant_term)]
    parts += [
        f"({format_complex(t.coefficient)},{format_complex(t.pole)},{t.order})"
        for t in phi.pole_terms
    ]
    return " ; ".join(parts)
