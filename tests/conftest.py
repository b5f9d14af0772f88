import numpy as np
import pytest

from hbortho import PoleTerm, SmirnovSymbol, catalog

TWO_POLES = SmirnovSymbol(0.3 - 0.1j, (PoleTerm(1.0, 1, 1.0), PoleTerm(-1.0, 2, 0.5j)))


@pytest.fixture(scope="session")
def entries():
    return catalog()


def random_admissible_ab(rng, lo=0.5, hi=2.0):
    """Random (A, B) with conj(A) B = -(1 + |A|^2), |A| in [lo, hi]."""
    a = rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.uniform())
    b = -(1.0 + abs(a) ** 2) / np.conj(a)
    return complex(a), complex(b)


def random_generic_ab(rng, bound=3.0, min_b=0.2):
    """Random (A, B) in the given box with |B| bounded away from zero."""
    while True:
        a = complex(rng.uniform(-bound, bound), rng.uniform(-bound, bound))
        b = complex(rng.uniform(-bound, bound), rng.uniform(-bound, bound))
        if abs(b) >= min_b:
            return a, b


def max_basis_diff(basis_a, basis_b, upto=None):
    """Largest coefficientwise deviation between two bases."""
    polys_a = basis_a.polys if hasattr(basis_a, "polys") else basis_a
    polys_b = basis_b.polys if hasattr(basis_b, "polys") else basis_b
    if upto is not None:
        polys_a = polys_a[: upto + 1]
        polys_b = polys_b[: upto + 1]
    worst = 0.0
    for pa, pb in zip(polys_a, polys_b):
        ca = pa.coefficients if hasattr(pa, "coefficients") else np.asarray(pa)
        cb = pb.coefficients if hasattr(pb, "coefficients") else np.asarray(pb)
        width = max(len(ca), len(cb))
        va = np.zeros(width, dtype=complex)
        va[: len(ca)] = ca
        vb = np.zeros(width, dtype=complex)
        vb[: len(cb)] = cb
        worst = max(worst, float(np.max(np.abs(va - vb))))
    return worst


def eval_symbol(phi, z):
    """Evaluate a partial-fraction symbol pointwise (test-side helper)."""
    value = phi.constant_term
    for t in phi.pole_terms:
        value += t.coefficient / (1.0 - np.conj(t.pole) * z) ** t.order
    return value
