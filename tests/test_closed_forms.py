import cmath
import math

import mpmath
import numpy as np
import pytest

from conftest import max_basis_diff, random_admissible_ab
from hbortho import (
    FM_NORM_LIMIT,
    FM_NORM_RATIO,
    PoleTerm,
    PreconditionViolated,
    RationalABForm,
    SmirnovSymbol,
    TaylorStream,
    blaschke_symbol,
    compose_basis,
    compose_monomial,
    detect_rational_ab,
    fm_coefficient,
    fm_norm_b,
    fm_polynomial,
    hb_norm_squared,
    monomial_orthogonality_witness,
    orthobasis,
    orthonormality_defect,
    power_basis,
    power_symbol,
    rational_ab_basis,
    sarason_symbol,
)

SQRT2 = math.sqrt(2.0)


def hand_power_coefficients(N: int, n: int) -> list[np.ndarray]:
    """Coefficients of the b = (1 + z^N)/2 basis written out by hand: degree
    d < N is z^d/sqrt(2), degree d >= N is (z^d - z^{d-N})/2."""
    out = []
    for d in range(n + 1):
        coeffs = np.zeros(d + 1, dtype=complex)
        if d < N:
            coeffs[d] = 1.0 / math.sqrt(2.0)
        else:
            coeffs[d] = 0.5
            coeffs[d - N] = -0.5
        out.append(coeffs)
    return out


def assert_bitwise_hand_power(basis, N: int):
    reference = hand_power_coefficients(N, basis.degree)
    assert [p.degree for p in basis.polys] == list(range(basis.degree + 1))
    for p, ref in zip(basis.polys, reference, strict=True):
        assert p.coefficients.tobytes() == ref.tobytes()


class TestDetector:
    def test_half_sum_detected(self):
        form = detect_rational_ab(sarason_symbol())
        assert form is not None
        assert form.A == -1.0 and form.B == 2.0
        assert form.satisfies_theorem

    def test_pure_pole_rejected(self):
        # A = 0 can never satisfy the relation
        phi = SmirnovSymbol(0.0, (PoleTerm(1.0, 1, 1.0),))
        assert detect_rational_ab(phi) is None

    def test_scaled_family_rejected(self):
        assert detect_rational_ab(blaschke_symbol(0.5)) is None

    def test_requires_pole_at_one(self):
        phi = SmirnovSymbol(-1.0, (PoleTerm(1j, 1, 2.0),))
        assert detect_rational_ab(phi) is None

    def test_stream_is_not_detected(self):
        assert detect_rational_ab(TaylorStream(lambda n: 1.0)) is None

    def test_random_admissible_detected(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            A, B = random_admissible_ab(rng)
            phi = SmirnovSymbol(A, (PoleTerm(1.0, 1, B),))
            assert detect_rational_ab(phi) is not None


class TestShiftedMonomialBasis:
    def test_half_sum_family(self):
        basis = rational_ab_basis(RationalABForm(-1.0, 2.0), 3)
        assert np.allclose(basis.polys[0].coefficients, [1 / SQRT2])
        assert np.allclose(basis.polys[1].coefficients, [-0.5, 0.5])
        assert np.allclose(basis.polys[2].coefficients, [0, -0.5, 0.5])
        assert np.allclose(basis.polys[3].coefficients, [0, 0, -0.5, 0.5])

    def test_imaginary_pair_norms(self):
        # A = i forces B = -2i; the unnormalized family has norms sqrt(2), 2
        A, B = 1j, -2j
        form = RationalABForm(A, B)
        assert form.satisfies_theorem
        phi = form.symbol()
        assert abs(hb_norm_squared(phi, np.array([1.0])) - 2.0) < 1e-12
        q = np.array([0, 0, -1.0, 1.0])
        assert abs(hb_norm_squared(phi, q) - 4.0) < 1e-12

    def test_norm_equals_coefficient_magnitude(self):
        # A = 2, B = -5/2: the tail norm is |A| + 1/|A| = 5/2 = |B|
        form = RationalABForm(2.0, -2.5)
        assert form.satisfies_theorem
        q = np.array([0, -1.0, 1.0])
        norm = math.sqrt(hb_norm_squared(form.symbol(), q))
        assert abs(norm - 2.5) < 1e-12
        assert abs(norm - abs(form.B)) < 1e-12

    def test_precondition_enforced(self):
        with pytest.raises(PreconditionViolated):
            rational_ab_basis(RationalABForm(1.0, 1.0), 3)

    def test_norm_property_random(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            A, B = random_admissible_ab(rng)
            phi = SmirnovSymbol(A, (PoleTerm(1.0, 1, B),))
            a = abs(A)
            got0 = hb_norm_squared(phi, np.array([1.0]))
            assert abs(got0 - (1 + 1 / a**2)) <= 1e-10 * (1 + got0)
            n = int(rng.integers(1, 12))
            q = np.zeros(n + 1, dtype=complex)
            q[n] = 1.0
            q[n - 1] = -1.0
            gotn = hb_norm_squared(phi, q)
            assert abs(gotn - (a + 1 / a) ** 2) <= 1e-10 * (1 + gotn)

    def test_matches_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            A, B = random_admissible_ab(rng)
            form = RationalABForm(A, B)
            closed = rational_ab_basis(form, 10)
            ref = orthobasis(form.symbol(), 10, precision="f64")
            assert max_basis_diff(closed, ref) < 1e-9


class TestPowerBasis:
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    def test_matches_hand_formula(self, N):
        for n in range(41):
            basis = power_basis(N, n)
            assert basis.degree == n
            assert_bitwise_hand_power(basis, N)
            assert basis.symbol == power_symbol(N)
            assert (basis.precision, basis.residual) == ("closed-form", 0.0)

    def test_n1_equals_base_family(self):
        assert (
            max_basis_diff(power_basis(1, 8), rational_ab_basis(RationalABForm(-1, 2), 8))
            < 1e-15
        )

    def test_n2_explicit(self):
        basis = power_basis(2, 3)
        assert np.allclose(basis.polys[0].coefficients, [1 / SQRT2])
        assert np.allclose(basis.polys[1].coefficients, [0, 1 / SQRT2])
        assert np.allclose(basis.polys[2].coefficients, [-0.5, 0, 0.5])
        assert np.allclose(basis.polys[3].coefficients, [0, -0.5, 0, 0.5])

    def test_orthonormal_numerically(self):
        basis = power_basis(2, 9)
        defect = orthonormality_defect(
            power_symbol(2), [p.coefficients for p in basis.polys]
        )
        assert defect < 1e-12

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            power_basis(2, -1)
        with pytest.raises(ValueError):
            rational_ab_basis(RationalABForm(-1, 2), -1)

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_matches_oracle(self, N):
        closed = power_basis(N, 24)
        ref = orthobasis(power_symbol(N), 24, precision="f64")
        assert max_basis_diff(closed, ref) < 1e-9


class TestComposeBasis:
    def test_identity(self):
        base = power_basis(1, 6)
        assert compose_basis(base, 1) is base

    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
    def test_base_family_gives_power_family(self, N):
        for degree in range(40 // N + 1):  # composed degrees up to 40 at least
            base = rational_ab_basis(RationalABForm(-1.0, 2.0), degree)
            assert_bitwise_hand_power(compose_basis(base, N), N)

    def test_oracle_cross_check(self):
        phi = SmirnovSymbol(0.0, (PoleTerm(1.0, 1, 1.0),))
        base = orthobasis(phi, 8, precision="f64")
        composed = compose_basis(base, 2)
        ref = orthobasis(composed.symbol, 16, precision="f64")
        assert max_basis_diff(composed, ref, upto=16) < 1e-9

    def test_degrees_are_complete(self):
        base = orthobasis(blaschke_symbol(0.5), 5, precision="f64")
        composed = compose_basis(base, 3)
        assert [p.degree for p in composed.polys] == list(range(18))

    def test_keeps_high_precision(self):
        base = orthobasis(sarason_symbol(), 6, precision="hp")
        composed = compose_basis(base, 2)
        assert composed.precision == "hp"
        with mpmath.workprec(160):
            for p in composed.polys:
                l, i = divmod(p.degree, 2)
                hp = base.polys[l].hp_coefficients
                assert len(p.hp_coefficients) == p.degree + 1
                assert p.hp_coefficients[i::2] == hp
                assert all(c == 0 for k, c in enumerate(p.hp_coefficients) if k % 2 != i)
                assert np.array_equal(p.coefficients, [complex(c) for c in p.hp_coefficients])

    def test_higher_order_pole_composes_as_symbol(self):
        # an order-2 pole keeps its partial-fraction form under z -> z^3
        phi = SmirnovSymbol(1.0, (PoleTerm(1.0, 1, 1.0), PoleTerm(-1.0, 2, 0.5)))
        composed = compose_basis(orthobasis(phi, 10, precision="f64"), 3)
        assert isinstance(composed.symbol, SmirnovSymbol)
        gap = np.abs(composed.symbol.taylor(31)[::3] - phi.taylor(11))
        assert np.max(gap) <= 1e-14 * np.max(np.abs(phi.taylor(11)))
        polys = [p.coefficients for p in composed.polys]
        assert orthonormality_defect(composed.symbol, polys) <= 1e-12

    @pytest.mark.parametrize(
        "phi",
        [
            SmirnovSymbol(1.0, (PoleTerm(1.0, 1, 1.0), PoleTerm(-1.0, 2, 0.5))),
            SmirnovSymbol(1.0, (PoleTerm(1.0, 1, 1.0), PoleTerm(cmath.exp(0.7j), 3, 0.5 - 0.25j))),
        ],
        ids=["order-2", "order-3"],
    )
    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_higher_order_transport_matches_composed_symbol(self, phi, N):
        # the transported basis of phi is the basis of phi(z^N), in f64 and in hp
        top = 18 // N * N - 1  # composed degrees 0..top come from base degrees < 18 // N
        for precision in ("f64", "hp"):
            composed = compose_basis(orthobasis(phi, 18 // N - 1, precision=precision), N)
            ref = orthobasis(compose_monomial(phi, N), top, precision=precision)
            assert [p.degree for p in composed.polys] == list(range(top + 1))
            for p, q in zip(composed.polys, ref.polys):
                assert np.max(np.abs(p.coefficients - q.coefficients)) <= 1e-12 * np.max(np.abs(q.coefficients))
            if precision == "hp":
                with mpmath.workprec(160):
                    for p, q in zip(composed.polys, ref.polys):
                        top_q = max(abs(c) for c in q.hp_coefficients)
                        gap = max(abs(a - b) for a, b in zip(p.hp_coefficients, q.hp_coefficients))
                        assert gap <= mpmath.mpf("1e-12") * top_q


class TestDirichletFamily:
    def test_q0(self):
        assert np.allclose(fm_polynomial(0), [1.0])

    def test_coefficients_are_odd_fibonacci(self):
        # 1, 2, 5, 13, 34, ... with integer values exactly
        fib = [1, 1]
        while len(fib) < 44:
            fib.append(fib[-1] + fib[-2])
        for k in range(20):
            val = fm_coefficient(k)
            # integrality holds to working precision, so relative to the value
            assert abs(val - round(val)) < 1e-9 * max(1.0, abs(val))
            assert round(val) == fib[2 * k]  # F_1, F_3, F_5, ...

    def test_expansion_in_orthonormal_family(self):
        # Q_n = sqrt(2) p_0 + 2 sum a_{k-1} p_k
        basis = rational_ab_basis(RationalABForm(-1.0, 2.0), 12)
        for n in (1, 4, 9, 12):
            assembled = np.zeros(n + 1, dtype=complex)
            assembled[: 1] += SQRT2 * basis.polys[0].coefficients
            for k in range(1, n + 1):
                assembled[: k + 1] += (
                    2.0 * fm_coefficient(k - 1) * basis.polys[k].coefficients
                )
            assert np.allclose(assembled, fm_polynomial(n), atol=1e-9)

    def test_norm_at_zero(self):
        assert abs(fm_norm_b(0) - SQRT2) < 1e-14

    def test_norms_increase(self):
        values = [fm_norm_b(n) for n in range(12)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_squared_step_ratio(self):
        r24 = fm_norm_b(25) ** 2 / fm_norm_b(24) ** 2
        assert abs(r24 - FM_NORM_RATIO**2) / FM_NORM_RATIO**2 < 0.01

    def test_asymptotic_constant(self):
        n = 30
        ratio = fm_norm_b(n) / FM_NORM_RATIO**n
        assert abs(ratio - FM_NORM_LIMIT) / FM_NORM_LIMIT < 0.01

    def test_cross_check_against_norm_formula(self):
        phi = sarason_symbol()
        for n in range(21):
            direct = fm_norm_b(n) ** 2
            via_formula = hb_norm_squared(phi, fm_polynomial(n))
            assert abs(direct - via_formula) <= 1e-9 * direct


class TestWitness:
    def test_half_sum_first_pair(self):
        assert monomial_orthogonality_witness(sarason_symbol(), 8) == (0, 1)

    def test_monomial_stream_none(self):
        stream = TaylorStream(lambda n: 0.3 if n == 2 else 0.0, label="0.3 z^2")
        assert monomial_orthogonality_witness(stream, 8) is None

    def test_zero_symbol_none(self):
        assert monomial_orthogonality_witness(SmirnovSymbol(), 8) is None

    def test_catalog_symbols_witnessed(self, entries):
        for entry in entries:
            pair = monomial_orthogonality_witness(entry.phi, 8)
            assert pair is not None, entry.name
            j, k = pair
            assert 0 <= j < k <= 8


class TestMasterProperty:
    def test_closed_forms_match_oracle(self):
        rng = np.random.default_rng(17)
        cases = [rational_ab_basis(RationalABForm(*random_admissible_ab(rng)), 32)]
        cases += [power_basis(N, 32) for N in (2, 3, 4)]
        for closed in cases:
            ref = orthobasis(closed.symbol, 32, precision="f64")
            assert max_basis_diff(closed, ref) < 1e-9
