import numpy as np
import pytest

from conftest import eval_symbol
from hbortho import (
    CatalogEntry,
    RationalFunction,
    SmirnovSymbol,
    blaschke_entry,
    blaschke_symbol,
    power_entry,
    power_symbol,
    sarason_symbol,
    validate_entry,
)


def long_division_taylor(f: RationalFunction, count: int) -> np.ndarray:
    """Power-series coefficients of numer/denom by O(count^2) long division."""
    num = np.zeros(count, dtype=complex)
    num[: min(count, len(f.numer))] = f.numer[:count]
    den = np.zeros(count, dtype=complex)
    den[: min(count, len(f.denom))] = f.denom[:count]
    out = np.zeros(count, dtype=complex)
    for n in range(count):
        acc = num[n]
        for k in range(1, n + 1):
            acc -= den[k] * out[n - k]
        out[n] = acc / den[0]
    return out


def test_rational_function_taylor():
    geo = RationalFunction((1.0,), (1.0, -1.0))
    assert np.allclose(geo.taylor(5), np.ones(5))


def test_taylor_matches_long_division():
    # the catalog's blaschke-c: b and a share the denominator 1 - z/2;
    # the last one has the degree-2 denominator (1 - 0.5z)(1 + 0.3iz)
    entry = blaschke_entry(0.5)
    quad = RationalFunction((0.3, 1j, -0.2), tuple(np.convolve([1.0, -0.5], [1.0, 0.3j])))
    for f in (entry.b, entry.a, quad):
        ref = long_division_taylor(f, 60)
        assert np.max(np.abs(f.taylor(60) - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("count", [1, 2, 3])
def test_taylor_shorter_than_numerator(count):
    # power-3's b = (1 + z^3)/2 has four numerator terms
    f = power_entry(3).b
    ref = long_division_taylor(f, count)
    assert len(f.taylor(count)) == count
    assert np.max(np.abs(f.taylor(count) - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_taylor_rejects_empty_count():
    with pytest.raises(ValueError, match="count must be >= 1"):
        RationalFunction((1.0,), (1.0, -0.5)).taylor(0)


def test_rational_function_eval():
    f = RationalFunction((0.5, 0.5), (1.0, -0.5))
    z = 0.2 + 0.1j
    assert abs(f(z) - (0.5 + 0.5 * z) / (1 - 0.5 * z)) < 1e-15


def test_nan_entry_fails():
    entry = CatalogEntry("x", RationalFunction((float("nan"),)), RationalFunction((1.0,)), SmirnovSymbol())
    with pytest.raises(ValueError, match="deviates"):
        validate_entry(entry)


def test_entries_are_pythagorean(entries):
    for entry in entries:
        worst = validate_entry(entry)
        assert worst <= 1e-10


def test_quotient_matches_pair(entries):
    # phi really is b/a on a circle of interior sample points
    for entry in entries:
        for k in range(8):
            z = 0.3 * np.exp(2j * np.pi * k / 8)
            quotient = entry.b(z) / entry.a(z)
            assert abs(quotient - eval_symbol(entry.phi, z)) < 1e-10, entry.name


def test_names(entries):
    assert [e.name for e in entries] == [
        "sarason-half",
        "power-2",
        "power-3",
        "blaschke-c",
    ]


def test_power_three_stream():
    # partial fractions of 2/(1-z^3): three simple poles at the cube roots
    phi = power_symbol(3)
    assert len(phi.pole_terms) == 3
    assert all(abs(t.coefficient - 2.0 / 3.0) < 1e-14 for t in phi.pole_terms)
    assert np.allclose(phi.taylor(7), [1, 0, 0, 2, 0, 0, 2], atol=1e-12)


def test_blaschke_zero_is_half_sum():
    phi = blaschke_symbol(0.0)
    ref = sarason_symbol()
    assert abs(phi.constant_term - ref.constant_term) < 1e-15
    assert abs(phi.pole_terms[0].coefficient - ref.pole_terms[0].coefficient) < 1e-15


def test_blaschke_entry_half():
    entry = blaschke_entry(0.5)
    assert entry.parameters["c"] == 0.5
    # b = (1-c)(1+z)/(2(1-cz)) at z = 0: (1-c)/2
    assert abs(entry.b(0.0) - 0.25) < 1e-15
    assert abs(entry.a(0.0) - 0.75) < 1e-15


def test_blaschke_zero_out_of_range():
    with pytest.raises(ValueError):
        blaschke_symbol(1.0)


def test_power_entry_polynomials():
    entry = power_entry(2)
    assert np.allclose(entry.b.numer, [0.5, 0, 0.5])
    assert np.allclose(entry.a.numer, [0.5, 0, -0.5])
