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
    without a partial-fraction form (monomials, stream-level compositions of
    higher-order poles).  The cache is grow-only, so concurrent readers are
    safe.
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


class CompositionOrderError(SymbolError):
    """Raised when a closed-form monomial composition is not available."""


def compose_monomial(phi: SmirnovSymbol, N: int) -> SmirnovSymbol:
    """Symbol of z -> phi(z^N) in partial-fraction form.

    Only simple poles carry a closed-form expansion here:

        B / (1 - conj(zeta) z^N)  =  sum_{omega^N = zeta} (B/N) / (1 - conj(omega) z),

    obtained from the residues of the N poles; coefficients of higher-order
    poles would require derivatives of the residue data, so those symbols are
    rejected -- ``phi.stream().composed_monomial(N)`` covers them at the
    coefficient level.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N == 1:
        return phi
    terms: list[PoleTerm] = []
    for t in phi.pole_terms:
        if t.order != 1:
            raise CompositionOrderError(
                "monomial composition keeps a partial-fraction form only for "
                "simple poles; use stream().composed_monomial(N) instead"
            )
        theta = cmath.phase(t.pole)
        for j in range(N):
            omega = _unit(cmath.exp(1j * (theta + 2 * math.pi * j) / N))
            terms.append(PoleTerm(omega, 1, t.coefficient / N))
    return SmirnovSymbol(phi.constant_term, tuple(terms))


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
