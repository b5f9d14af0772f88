import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import eval_symbol
from hbortho import (
    PoleTerm,
    SmirnovSymbol,
    SymbolError,
    TaylorStream,
    compose_monomial,
    format_symbol,
    orthopoly,
    parse_symbol,
    power_symbol,
    rotate_symbol,
    sarason_symbol,
)
from hbortho.symbol import _root_weights, _unit, parse_complex


def single_pole(A, B, zeta=1.0, order=1):
    return SmirnovSymbol(A, (PoleTerm(zeta, order, B),))


unit_complex = st.floats(0, 2 * math.pi, allow_nan=False).map(
    lambda t: complex(math.cos(t), math.sin(t))
)
small_complex = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=3.0, allow_nan=False, allow_infinity=False
)


class TestTaylor:
    def test_half_sum_quotient(self):
        # phi = -1 + 2/(1-z): phi_0 = 1, phi_n = 2 afterwards
        assert np.allclose(sarason_symbol().taylor(3), [1, 2, 2])

    def test_constant(self):
        assert np.allclose(SmirnovSymbol(0.5).taylor(3), [0.5, 0, 0])

    def test_double_pole(self):
        # 1/(1-z)^2 = sum (n+1) z^n
        phi = single_pole(0.0, 1.0, order=2)
        assert np.allclose(phi.taylor(4), [1, 2, 3, 4])

    def test_matches_scalar_path(self):
        phi = SmirnovSymbol(
            0.3 - 0.1j,
            (PoleTerm(1j, 2, 1.5), PoleTerm(-1.0, 1, 0.5 + 0.5j)),
        )
        arr = phi.taylor(40)
        scalars = [phi.taylor_coefficient(n) for n in range(40)]
        assert np.allclose(arr, scalars, atol=1e-12)

    def test_matches_pointwise_evaluation(self):
        phi = SmirnovSymbol(0.2, (PoleTerm(1.0, 1, 1.0), PoleTerm(-1.0, 2, 0.25)))
        z = 0.3 + 0.2j
        series = sum(c * z**k for k, c in enumerate(phi.taylor(200)))
        assert abs(series - eval_symbol(phi, z)) < 1e-12

    def test_count_validation(self):
        with pytest.raises(ValueError):
            sarason_symbol().taylor(0)


class TestValidation:
    def test_pole_off_circle(self):
        with pytest.raises(SymbolError):
            single_pole(0.0, 1.0, zeta=0.9)

    def test_zero_coefficient(self):
        with pytest.raises(SymbolError):
            single_pole(0.0, 0.0)

    def test_duplicate_term(self):
        with pytest.raises(SymbolError):
            SmirnovSymbol(0.0, (PoleTerm(1.0, 1, 1.0), PoleTerm(1.0, 1, 2.0)))

    def test_same_pole_different_orders_allowed(self):
        phi = SmirnovSymbol(0.0, (PoleTerm(1.0, 1, 1.0), PoleTerm(1.0, 2, 2.0)))
        assert len(phi.pole_terms) == 2

    def test_nan_pole(self):
        with pytest.raises(SymbolError, match="unit circle"):
            single_pole(0.0, 1.0, zeta=complex("nan"))

    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf"), complex(1, float("-inf"))])
    @pytest.mark.parametrize("where", ["constant", "coefficient"])
    def test_non_finite_data(self, bad, where):
        with pytest.raises(SymbolError, match="not finite"):
            single_pole(bad, 1.0) if where == "constant" else single_pole(0.0, bad)


class TestRotation:
    def test_moves_pole_to_one(self):
        phi = single_pole(0.0, 1.0, zeta=1j)
        rotated = rotate_symbol(phi, math.pi / 2)
        assert abs(rotated.pole_terms[0].pole - 1.0) < 1e-14

    def test_identity(self):
        phi = sarason_symbol()
        assert rotate_symbol(phi, 0.0) == phi

    def test_alternating_stream(self):
        # phi = 2/(1-z) rotated by pi becomes 2/(1+z): stream 2, -2, 2, -2, ...
        phi = single_pole(0.0, 2.0)
        rotated = rotate_symbol(phi, math.pi)
        expected = [2.0 * (-1) ** k for k in range(8)]
        assert np.allclose(rotated.taylor(8), expected, atol=1e-13)

    def test_phase_identity_long(self):
        phi = SmirnovSymbol(0.5, (PoleTerm(1j, 2, 1.0), PoleTerm(-1.0, 1, 2.0)))
        gamma = 0.7
        base = phi.taylor(256)
        rotated = rotate_symbol(phi, gamma).taylor(256)
        phases = np.exp(1j * gamma * np.arange(256))
        assert np.max(np.abs(rotated - phases * base)) < 1e-10

    @settings(max_examples=30, deadline=None)
    @given(
        gamma=st.floats(-math.pi, math.pi, allow_nan=False),
        zeta=unit_complex,
        coeff=small_complex,
    )
    def test_phase_identity_property(self, gamma, zeta, coeff):
        phi = single_pole(0.25, coeff, zeta=zeta)
        base = phi.taylor(64)
        rotated = rotate_symbol(phi, gamma).taylor(64)
        phases = np.exp(1j * gamma * np.arange(64))
        assert np.max(np.abs(rotated - phases * base)) < 1e-10

    def test_stream_rotation(self):
        stream = sarason_symbol().stream()
        rotated = stream.rotated(math.pi)
        assert abs(rotated.coefficient(1) - (-2.0)) < 1e-14


class TestComposition:
    def test_identity(self):
        phi = sarason_symbol()
        assert compose_monomial(phi, 1) == phi

    def test_interleaved_stream(self):
        composed = compose_monomial(sarason_symbol(), 2)
        assert np.allclose(composed.taylor(6), [1, 0, 2, 0, 2, 0])

    def test_partial_fractions_n2(self):
        # 1/(1-z^2) = (1/2)/(1-z) + (1/2)/(1+z)
        composed = compose_monomial(single_pole(0.0, 1.0), 2)
        poles = sorted((t.pole for t in composed.pole_terms), key=lambda z: z.real)
        assert np.allclose(poles, [-1.0, 1.0], atol=1e-14)
        assert all(abs(t.coefficient - 0.5) < 1e-14 for t in composed.pole_terms)
        direct = single_pole(0.0, 1.0).stream().composed_monomial(2)
        assert np.allclose(composed.taylor(20), direct.taylor(20), atol=1e-12)

    @pytest.mark.parametrize("N", [1, 2, 3, 5])
    def test_partial_fractions_match_reindexed_stream(self, N):
        # the closed-form expansion must agree with the raw re-indexing
        for phi in (sarason_symbol(), single_pole(0.5j, 1.0 - 0.5j, zeta=1j)):
            composed = compose_monomial(phi, N)
            reindexed = phi.stream().composed_monomial(N)
            assert np.allclose(
                composed.taylor(200), reindexed.taylor(200), atol=1e-10
            )

    def test_higher_order_composes(self):
        # 1/(1-z^2)^2 = sum over z = +-1 of (1/4)/(1 -+ z) + (1/4)/(1 -+ z)^2
        phi = single_pole(0.0, 1.0, order=2)
        composed = compose_monomial(phi, 2)
        assert sorted((t.pole.real, t.order, t.coefficient) for t in composed.pole_terms) == [
            (-1.0, 1, 0.25), (-1.0, 2, 0.25), (1.0, 1, 0.25), (1.0, 2, 0.25)
        ]
        # the stream-level route still works, and agrees
        stream = phi.stream().composed_monomial(2)
        assert np.allclose(stream.taylor(6), [1, 0, 2, 0, 3, 0])
        assert np.allclose(composed.taylor(6), stream.taylor(6), atol=1e-15)

    @pytest.mark.parametrize(
        "N, m, weights",
        [(2, 2, ("1/4", "1/4")), (2, 3, ("3/16", "3/16", "1/8")), (3, 2, ("2/9", "1/9")), (5, 1, ("1/5",))],
    )
    def test_root_weights_are_exact(self, N, m, weights):
        # c_1 .. c_m of 1/(1 - z^N)^m at the root 1, in rational arithmetic
        assert _root_weights(N, m) == [Fraction(w) for w in weights]

    def test_order_one_is_the_residue_formula(self):
        # order-1 terms are B/N at the N roots, bit for bit (signed zeros included),
        # the roots computed from the pole's phase; only a root on an axis is exact
        rng = np.random.default_rng(29)
        symbols = [
            SmirnovSymbol(-1.0, (PoleTerm(cmath.exp(0.3j), 1, b),))
            for b in (complex(2, -0.0), complex(-0.0, -1), complex(0.0, 1))
        ]
        for _ in range(300):
            poles = np.exp(1j * rng.uniform(-math.pi, math.pi, int(rng.integers(1, 4))))
            terms = tuple(PoleTerm(zeta, 1, complex(*rng.normal(size=2))) for zeta in poles)
            symbols.append(SmirnovSymbol(complex(*rng.normal(size=2)), terms))
        for phi in symbols:
            for N in (2, 3, 5):
                expected = [
                    (_unit(cmath.exp(1j * (cmath.phase(t.pole) + 2 * math.pi * j) / N)), t.coefficient / N)
                    for t in phi.pole_terms
                    for j in range(N)
                ]
                got = compose_monomial(phi, N).pole_terms
                assert [repr((t.pole, t.coefficient)) for t in got] == [repr(e) for e in expected]
                assert all(t.order == 1 for t in got)

    def test_roots_on_the_axes_are_exact(self):
        assert [t.pole for t in power_symbol(2).pole_terms] == [1, -1]
        assert [t.pole for t in power_symbol(4).pole_terms] == [1, 1j, -1, -1j]
        # so hp p_5 of power-2 is the real (z^5 - z^3)/2
        p5 = orthopoly(power_symbol(2), 5, precision="hp").hp_coefficients
        assert all(mpmath.im(c) == 0 for c in p5)

    def test_taylor_data_is_the_reindexed_base(self):
        # 60 symbols, 1-2 poles anywhere of orders 1-3, at 400 coefficients
        rng = np.random.default_rng(2901)
        worst = 0.0
        for _ in range(60):
            terms = tuple(
                PoleTerm(cmath.exp(1j * rng.uniform(-math.pi, math.pi)), int(rng.integers(1, 4)),
                         complex(*rng.normal(size=2)))
                for _ in range(int(rng.integers(1, 3)))
            )
            phi = SmirnovSymbol(complex(*rng.normal(size=2)), terms)
            N = int(rng.integers(2, 5))
            composed = compose_monomial(phi, N).taylor(400)
            reindexed = np.zeros(400, dtype=complex)
            reindexed[::N] = phi.taylor(len(reindexed[::N]))
            worst = max(worst, np.max(np.abs(composed - reindexed)) / np.max(np.abs(reindexed)))
        assert worst <= 1e-12

    def test_shared_terms_merge_and_cancel(self):
        # two terms at one pole give (omega, s) twice; opposite sums are dropped
        phi = SmirnovSymbol(0.0, (PoleTerm(1.0, 1, 0.25), PoleTerm(1.0, 2, -1.0)))
        composed = compose_monomial(phi, 2)
        # 0.25/(1-z^2) - 1/(1-z^2)^2: order-1 weights 1/8 - 1/4, order-2 weights -1/4
        assert sorted((t.pole.real, t.order, t.coefficient) for t in composed.pole_terms) == [
            (-1.0, 1, -0.125), (-1.0, 2, -0.25), (1.0, 1, -0.125), (1.0, 2, -0.25)
        ]
        cancel = SmirnovSymbol(0.0, (PoleTerm(1.0, 1, 0.5), PoleTerm(1.0, 2, -1.0)))
        assert [t.order for t in compose_monomial(cancel, 2).pole_terms] == [2, 2]


class TestBinomialExpansion:
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_series_times_denominator(self, order):
        # multiplying the stream by (1 - conj(zeta) z)^order must give back
        # the constant B followed by zeros
        zeta = cmath.exp(0.77j)
        B = 1.3 - 0.4j
        phi = single_pole(0.0, B, zeta=zeta, order=order)
        series = phi.taylor(30)
        denom = np.zeros(order + 1, dtype=complex)
        for i in range(order + 1):
            denom[i] = math.comb(order, i) * (-np.conj(zeta)) ** i
        product = np.convolve(series, denom)[:30]
        expected = np.zeros(30, dtype=complex)
        expected[0] = B
        assert np.max(np.abs(product - expected)) < 1e-10


class TestStream:
    def test_wraps_arbitrary_coefficients(self):
        stream = TaylorStream(lambda n: 0.3 if n == 2 else 0.0, label="monomial")
        assert stream.coefficient(2) == 0.3
        assert np.allclose(stream.taylor(4), [0, 0, 0.3, 0])

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            sarason_symbol().stream().coefficient(-1)


class TestTextFormat:
    def test_round_trip(self):
        phi = SmirnovSymbol(
            -1.0 + 0.5j, (PoleTerm(1j, 2, 2.0), PoleTerm(-1.0, 1, 0.25 - 1j))
        )
        again = parse_symbol(format_symbol(phi))
        assert again == phi

    def test_parse_example(self):
        phi = parse_symbol("-1;(2,1,1)")
        assert phi == sarason_symbol()

    def test_parse_rejects_off_circle_pole(self):
        with pytest.raises(SymbolError):
            parse_symbol("0;(1,0.5,1)")

    def test_parse_rejects_garbage(self):
        with pytest.raises(SymbolError):
            parse_symbol("0;(1,1)")
        with pytest.raises(SymbolError):
            parse_symbol("")

    @pytest.mark.parametrize("text", ["0;(1,nan,1)", "0;(nan,1,1)", "nan;(1,1,1)", "0;(1e400,1,1)"])
    def test_parse_rejects_non_finite(self, text):
        with pytest.raises(SymbolError, match="not finite"):
            parse_symbol(text)

    @pytest.mark.parametrize("text", ["1e400", "-1e400", "nan", "1+1e400i"])
    def test_complex_rejects_non_finite(self, text):
        with pytest.raises(SymbolError, match="not finite"):
            parse_complex(text)

    def test_complex_with_i_suffix(self):
        phi = parse_symbol("0.5-0.5i;(1,0+1i,1)")
        assert phi.constant_term == 0.5 - 0.5j
        assert phi.pole_terms[0].pole == 1j
