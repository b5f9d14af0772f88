"""Catalog of (b, a, phi) triples with known structure.

Each entry carries the bounded symbol ``b``, its Pythagorean mate ``a``
(outer, a(0) > 0, |a|^2 + |b|^2 = 1 on the circle) and the quotient
``phi = b/a`` in partial-fraction form.  Entries are code-defined because the
pairs carry exact structural data that must not drift through file round
trips.  Recovering (b, a) from an arbitrary quotient is a spectral
factorization problem and is deliberately not attempted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import ztbtrs

from .symbol import PoleTerm, SmirnovSymbol, compose_monomial


@dataclass(frozen=True)
class RationalFunction:
    """Quotient of two polynomials, coefficients indexed by power of z."""

    numer: tuple[complex, ...]
    denom: tuple[complex, ...] = (1.0 + 0j,)

    def __post_init__(self):
        object.__setattr__(self, "numer", tuple(complex(c) for c in self.numer))
        object.__setattr__(self, "denom", tuple(complex(c) for c in self.denom))
        if not self.denom or self.denom[0] == 0:
            raise ValueError("denominator must have a nonzero constant term")

    def __call__(self, z: complex) -> complex:
        num = 0j
        for c in reversed(self.numer):
            num = num * z + c
        den = 0j
        for c in reversed(self.denom):
            den = den * z + c
        return num / den

    def taylor(self, count: int) -> np.ndarray:
        """Power-series coefficients y_0 .. y_{count-1} of numer/denom.

        T(denom) y = numer with T(.) the lower Toeplitz matrix of a sequence,
        solved as one banded triangular system (LAPACK ztbtrs) in
        O(count * deg denom).
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        numer = np.zeros((count, 1), dtype=complex)
        numer[: len(self.numer), 0] = self.numer[:count]
        band = np.array(self.denom[:count])[:, None].repeat(count, axis=1)
        return ztbtrs(band, numer, uplo="L")[0][:, 0]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    b: RationalFunction
    a: RationalFunction
    phi: SmirnovSymbol
    parameters: dict = field(default_factory=dict)


def sarason_symbol() -> SmirnovSymbol:
    """phi = -1 + 2/(1-z), the quotient of b = (1+z)/2, a = (1-z)/2."""
    return SmirnovSymbol(-1.0, (PoleTerm(1.0, 1, 2.0),))


def power_symbol(N: int) -> SmirnovSymbol:
    """phi = -1 + 2/(1-z^N) as N simple poles at the N-th roots of unity."""
    return compose_monomial(sarason_symbol(), N)


def power_entry(N: int) -> CatalogEntry:
    numer_b = [0j] * (N + 1)
    numer_b[0] = 0.5
    numer_b[N] = 0.5
    numer_a = [0j] * (N + 1)
    numer_a[0] = 0.5
    numer_a[N] = -0.5
    return CatalogEntry(
        name=f"power-{N}" if N > 1 else "sarason-half",
        b=RationalFunction(tuple(numer_b)),
        a=RationalFunction(tuple(numer_a)),
        phi=power_symbol(N),
        parameters={"N": N},
    )


def blaschke_symbol(c: float) -> SmirnovSymbol:
    """Quotient for b = (1 + W)/2 with W(z) = (z-c)/(1-cz), c in (-1, 1).

    Works out to ((1-c)/(1+c)) * (-1 + 2/(1-z)); the family scales the basic
    single-pole quotient by a constant, which destroys the two-term basis
    except at c = 0.
    """
    if not -1.0 < c < 1.0:
        raise ValueError("Blaschke zero must lie in (-1, 1)")
    kappa = (1.0 - c) / (1.0 + c)
    return SmirnovSymbol(-kappa, (PoleTerm(1.0, 1, 2.0 * kappa),))


def blaschke_entry(c: float) -> CatalogEntry:
    # b = (1-c)(1+z)/(2(1-cz)),  a = (1+c)(1-z)/(2(1-cz))
    half_b = (1.0 - c) / 2.0
    half_a = (1.0 + c) / 2.0
    return CatalogEntry(
        name="blaschke-c",
        b=RationalFunction((half_b, half_b), (1.0, -c)),
        a=RationalFunction((half_a, -half_a), (1.0, -c)),
        phi=blaschke_symbol(c),
        parameters={"c": c},
    )


def catalog() -> list[CatalogEntry]:
    """The fixed catalog used by the tests, the CLI and the verify suite."""
    return [
        power_entry(1),
        power_entry(2),
        power_entry(3),
        blaschke_entry(0.5),
    ]


#: ``validate_entry`` accepts |a|^2 + |b|^2 within VALIDATE_TOL of 1 at
#: VALIDATE_SAMPLES equispaced circle points
VALIDATE_TOL = 1e-10
VALIDATE_SAMPLES = 64


def validate_entry(entry: CatalogEntry) -> float:
    """Max deviation of |a|^2 + |b|^2 from 1 over equispaced circle samples.

    Raises if the deviation exceeds ``VALIDATE_TOL`` or a(0) is not real positive.
    """
    deviations = []
    for k in range(VALIDATE_SAMPLES):
        z = np.exp(2j * np.pi * k / VALIDATE_SAMPLES)
        deviations.append(abs(abs(entry.a(z)) ** 2 + abs(entry.b(z)) ** 2 - 1.0))
    worst = float(np.max(deviations))  # np.max keeps a NaN sample, where max() can drop it
    if not worst <= VALIDATE_TOL:  # NaN fails
        raise ValueError(f"{entry.name}: |a|^2+|b|^2 deviates from 1 by {worst:.3e}")
    a0 = entry.a(0.0)
    if not (abs(a0.imag) < 1e-14 and a0.real > 0):
        raise ValueError(f"{entry.name}: a(0) = {a0} is not real positive")
    return worst
