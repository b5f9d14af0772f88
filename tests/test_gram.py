import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TWO_POLES, random_admissible_ab
from hbortho import (
    CatalogEntry,
    PoleTerm,
    RationalFunction,
    SmirnovSymbol,
    TaylorStream,
    blaschke_entry,
    gram_matrix,
    hb_norm_squared,
    kernel_truncation_check,
    poly_inner,
    sarason_symbol,
    structured_solve,
    toeplitz_conj_apply,
)
from hbortho.backends import F64_EPS, cond_bound
from hbortho.gram import (
    FFT_MIN_LENGTH,
    _fft_convolve,
    _fft_length,
    rational_form,
    schur_factor,
    system_residual,
    unpack_lower,
)
from hbortho.oracle import _band_factor_mp


def quadratic_form(gm, p, q=None):
    """<p, q> evaluated through the Gram matrix; q defaults to p."""
    if q is None:
        q = p
    pv, qv = (np.pad(np.asarray(v, dtype=complex), (0, gm.shape[0] - len(v))) for v in (p, q))
    return complex(pv @ (gm @ np.conj(qv)))


def brute_inner(phi, j, k):
    """Direct summation of the defining formula, no shared code paths."""
    if j > k:
        return np.conj(brute_inner(phi, k, j))
    coeffs = [phi.taylor_coefficient(s) for s in range(k + 1)]
    total = 1.0 if j == k else 0.0
    for s in range(j + 1):
        total += np.conj(coeffs[s]) * coeffs[k - j + s]
    return total


class TestMonomialInner:
    def test_half_sum_values(self):
        phi = sarason_symbol()
        assert abs(gram_matrix(phi, 0)[0, 0] - 2) < 1e-14
        assert abs(gram_matrix(phi, 1)[0, 1] - 2) < 1e-14
        assert abs(gram_matrix(phi, 1)[1, 1] - 6) < 1e-14

    def test_zero_symbol(self):
        phi = SmirnovSymbol()
        for j in range(4):
            for k in range(4):
                assert gram_matrix(phi, max(j, k))[j, k] == (1.0 if j == k else 0.0)

    def test_single_pole_off_diagonal_formula(self):
        # j < k: conj(A) B + |B|^2 (1+j), independent of k
        rng = np.random.default_rng(3)
        A = complex(rng.normal(), rng.normal())
        B = complex(rng.normal(), rng.normal())
        phi = SmirnovSymbol(A, (PoleTerm(1.0, 1, B),))
        for j in range(5):
            for k in range(j + 1, 8):
                expected = np.conj(A) * B + abs(B) ** 2 * (1 + j)
                assert abs(gram_matrix(phi, max(j, k))[j, k] - expected) < 1e-12

    def test_hermitian_pair(self):
        phi = SmirnovSymbol(0.5j, (PoleTerm(1j, 1, 1.0 - 0.3j),))
        assert abs(
            gram_matrix(phi, 5)[2, 5] - np.conj(gram_matrix(phi, 5)[5, 2])
        ) < 1e-14

    def test_against_brute_force(self):
        phi = SmirnovSymbol(0.1 - 0.2j, (PoleTerm(-1.0, 2, 0.7j), PoleTerm(1.0, 1, 1.0)))
        for j in range(6):
            for k in range(6):
                assert abs(gram_matrix(phi, max(j, k))[j, k] - brute_inner(phi, j, k)) < 1e-12


class TestGramMatrix:
    def test_zero_symbol_identity(self):
        gm = gram_matrix(SmirnovSymbol(), 3)
        assert np.allclose(gm, np.eye(4))

    def test_half_sum_two_by_two(self):
        gm = gram_matrix(sarason_symbol(), 1)
        assert np.allclose(gm, [[2, 2], [2, 6]])

    def test_matches_entrywise(self):
        phi = SmirnovSymbol(0.4, (PoleTerm(1j, 2, 0.8 - 0.1j),))
        gm = gram_matrix(phi, 10)
        for j in range(11):
            for k in range(11):
                assert abs(gm[j, k] - brute_inner(phi, j, k)) < 1e-12

    def test_row_shift_identity(self):
        # single simple pole at 1: <z^j, z^{k+1}> = <z^j, z^k> for j < k
        phi = SmirnovSymbol(1.5 - 0.5j, (PoleTerm(1.0, 1, -0.7 + 0.2j),))
        m = gram_matrix(phi, 65)
        for j in range(0, 64):
            for k in range(j + 1, 65):
                assert abs(m[j, k + 1] - m[j, k]) < 1e-11

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_hermitian_positive_definite(self, entries, n):
        for entry in entries:
            gm = gram_matrix(entry.phi, n)
            assert np.allclose(gm, np.conj(gm.T))
            pivots = np.real(np.diag(np.linalg.cholesky(gm))) ** 2
            assert pivots.min() > 0
            assert np.all(np.real(np.diag(gm)) >= 1.0 - 1e-12)

    def test_quadratic_form_consistency(self, entries):
        rng = np.random.default_rng(11)
        for entry in entries:
            gm = gram_matrix(entry.phi, 32)
            for _ in range(100):
                deg = int(rng.integers(0, 33))
                p = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
                direct = hb_norm_squared(entry.phi, p)
                form = quadratic_form(gm, p).real
                assert abs(direct - form) <= 1e-10 * (1 + abs(direct))


def random_pole_symbol(rng, max_poles=3, max_order=3):
    """Random symbol with 1..max_poles distinct poles, each of order 1..max_order."""
    count = int(rng.integers(1, max_poles + 1))
    angles = 2 * np.pi * (rng.uniform() + np.arange(count) / count)
    terms = tuple(
        PoleTerm(complex(np.exp(1j * angle)), int(rng.integers(1, max_order + 1)),
                 complex(rng.normal(), rng.normal()))
        for angle in angles
    )
    return SmirnovSymbol(complex(rng.normal(), rng.normal()), terms)


def lower_from_band(band, n1):
    """The n1 x n1 lower triangular matrix held in LAPACK's lower band storage."""
    out = np.full((n1, n1), mpmath.mpc(0), dtype=object)
    for off in range(band.shape[0]):
        for j in range(n1 - off):
            out[j + off, j] = band[off, j]
    return out


class TestSchurFactor:
    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_matches_cholesky(self, entries, n):
        rng = np.random.default_rng(n)
        symbols = [e.phi for e in entries] + [random_pole_symbol(rng) for _ in range(60)]
        for phi in symbols:
            ref = np.linalg.cholesky(gram_matrix(phi, n))
            got = unpack_lower(schur_factor(phi.taylor(n + 1)))
            assert np.all(np.diag(got).imag == 0) and np.all(np.diag(got).real > 0)
            err = np.max(np.abs(got - ref))
            assert err <= F64_EPS * cond_bound(phi, n) * np.max(np.abs(ref)), phi

    def test_unpack_lower(self):
        expected = [[1, 0, 0, 0], [2, 5, 0, 0], [3, 6, 8, 0], [4, 7, 9, 10]]
        assert np.array_equal(unpack_lower(np.arange(1, 11, dtype=complex)), expected)

    def test_hp_band_factor_reproduces_k(self, entries):
        # R R^H = K = T(a) T(a)^H + T(b) T(b)^H at n = 24, K formed densely here
        n1 = 25
        with mpmath.workprec(160):
            for phi in [e.phi for e in entries] + [TWO_POLES]:
                a, r = _band_factor_mp(phi, n1)
                b = rational_form(phi, hp=True)[1]
                ta, tb, lower = (
                    lower_from_band(band, n1)
                    for band in (np.tile(a[:, None], n1), np.tile(b[:, None], n1), r)
                )
                k = ta @ np.conj(ta.T) + tb @ np.conj(tb.T)
                diff = lower @ np.conj(lower.T) - k
                assert max(abs(x) for x in diff.ravel()) < mpmath.mpf("1e-40"), phi

    def test_pivot_floor(self):
        coeffs = TWO_POLES.taylor(65)
        pivots = np.diag(unpack_lower(schur_factor(coeffs))).real ** 2
        ratio = pivots.min() / pivots.max()
        schur_factor(coeffs, 0.5 * ratio)
        with pytest.raises(np.linalg.LinAlgError, match="pivot collapse"):
            schur_factor(coeffs, 2 * ratio)

    def test_non_finite_coefficients(self):
        coeffs = np.ones(8, dtype=complex)
        coeffs[5] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            schur_factor(coeffs)

    def test_coefficients_near_float_max(self):
        # their sum is past the float range; the finiteness check must not overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lower = unpack_lower(schur_factor(np.full(41, 1e308 + 0j)))
        assert np.isfinite(lower).all()


class TestToeplitzAction:
    def test_constant(self):
        phi = sarason_symbol()
        assert np.allclose(toeplitz_conj_apply(phi, np.array([1.0])), [1.0])

    def test_monomial_square(self):
        # coefficients of the image of z^2: (conj phi_2, conj phi_1, conj phi_0)
        phi = sarason_symbol()
        out = toeplitz_conj_apply(phi, np.array([0, 0, 1.0]))
        assert np.allclose(out, [2, 2, 1])

    def test_linearity(self):
        phi = sarason_symbol()
        out = toeplitz_conj_apply(phi, np.array([-1.0, 1.0]))  # z - 1
        assert np.allclose(out, [1, 1])

    def test_degree_never_increases(self):
        phi = SmirnovSymbol(0.0, (PoleTerm(1.0, 2, 1.0),))
        out = toeplitz_conj_apply(phi, np.array([1.0, 2.0, 3.0]))
        assert len(out) == 3


class TestNormFormula:
    def test_half_sum_unit_vector(self):
        phi = sarason_symbol()
        assert abs(hb_norm_squared(phi, np.array([-0.5, 0.5])) - 1.0) < 1e-14

    def test_hardy_monomials(self):
        phi = SmirnovSymbol()
        for k in range(5):
            p = np.zeros(k + 1)
            p[k] = 1.0
            assert abs(hb_norm_squared(phi, p) - 1.0) < 1e-15

    def test_admissible_pair_norms(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            A, B = random_admissible_ab(rng)
            phi = SmirnovSymbol(A, (PoleTerm(1.0, 1, B),))
            n = int(rng.integers(2, 9))
            q = np.zeros(n + 1, dtype=complex)
            q[n] = 1.0
            q[n - 1] = -1.0
            expected = (abs(A) + 1 / abs(A)) ** 2
            assert abs(hb_norm_squared(phi, q) - expected) < 1e-10 * (1 + expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_polynomial_rejected(self, bad):
        phi, p, one = sarason_symbol(), np.array([1.0, bad]), np.array([1.0])
        calls = (toeplitz_conj_apply, hb_norm_squared, lambda f, q: poly_inner(f, one, q))
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call(phi, p)

    def test_poly_inner_matches_quadratic_form(self):
        phi = SmirnovSymbol(0.3, (PoleTerm(1.0, 1, 1.2), PoleTerm(-1.0, 1, 0.3j)))
        rng = np.random.default_rng(7)
        gm = gram_matrix(phi, 12)
        for _ in range(20):
            p = rng.normal(size=7) + 1j * rng.normal(size=7)
            q = rng.normal(size=13) + 1j * rng.normal(size=13)
            assert abs(poly_inner(phi, p, q) - quadratic_form(gm, p, q)) < 1e-10

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_norm_nonnegative_and_at_least_h2(self, data):
        coeffs = data.draw(
            st.lists(
                st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
                min_size=1,
                max_size=8,
            )
        )
        p = np.array(coeffs, dtype=complex)
        phi = sarason_symbol()
        # the space norm dominates the plain coefficient norm
        assert hb_norm_squared(phi, p) >= float(np.sum(np.abs(p) ** 2)) - 1e-12


class TestKernelTruncation:
    def test_constant_at_origin(self, entries):
        defect = kernel_truncation_check(entries[0], 0.0, np.array([1.0]), 60)
        assert defect < 1e-8

    def test_linear_at_origin(self, entries):
        defect = kernel_truncation_check(entries[0], 0.0, np.array([0.0, 1.0]), 60)
        assert defect < 1e-8

    def test_decay_in_truncation_order(self, entries):
        p = np.array([0.3, -1.0, 0.5])
        defects = [
            kernel_truncation_check(entries[3], 0.4, p, K) for K in (10, 30, 60)
        ]
        assert defects[2] < defects[0]
        assert defects[2] < 1e-8

    def test_hardy_case_is_exact(self):
        # b = 0 reduces to the plain geometric kernel; truncation at K >= deg p
        # reproduces point evaluation up to the |w|^(K+1) tail, here exactly
        entry = CatalogEntry(
            name="hardy",
            b=RationalFunction((0.0,)),
            a=RationalFunction((1.0,)),
            phi=SmirnovSymbol(),
        )
        p = np.array([1.0, 2.0, -0.5])
        defect = kernel_truncation_check(entry, 0.5, p, 10)
        assert defect < 1e-13

    def test_rejects_boundary_point(self, entries):
        with pytest.raises(ValueError):
            kernel_truncation_check(entries[0], 1.0, np.array([1.0]), 10)


class TestMonomialStreamEdge:
    def test_pure_monomial_stream_orthogonal(self):
        # a monomial multiplier never couples distinct monomials
        stream = TaylorStream(lambda n: 0.3 if n == 2 else 0.0, label="0.3 z^2")
        for j in range(5):
            for k in range(j + 1, 6):
                assert abs(gram_matrix(stream, max(j, k))[j, k]) < 1e-15


def direct_residual(phi, c):
    """``system_residual`` with both convolutions summed directly."""
    n1 = len(c)
    coeffs = phi.taylor(n1)
    lh_c = np.convolve(c[::-1], np.conj(coeffs))[:n1][::-1]
    mc = c + np.convolve(coeffs, lh_c)[:n1]
    target = np.zeros(n1, dtype=complex)
    target[-1] = 1.0 / c[-1].real
    return float(np.max(np.abs(mc - target)) / (np.max(np.abs(mc)) + 1.0))


class TestFftConvolve:
    # equal lengths 353 and 2049 pad to 3·2^j, 385 and 1024 to 2^k
    @pytest.mark.parametrize("n", [353, 385, 513, 777, 1024, 2049, 4097])
    @pytest.mark.parametrize("m", [1, 300, None])  # None: equal lengths
    def test_matches_direct(self, n, m):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        y = rng.normal(size=m or n) + 1j * rng.normal(size=m or n)
        ref = np.convolve(x, y)
        for out in (_fft_convolve(x, y), _fft_convolve(y, x)):
            assert out.shape == ref.shape
            assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_padding(self):
        sizes = [1, 2, 3, 4, 5, 7, 9, 13, 705, 769, 1025, 1553, 4097, 6145, 8193]
        padded = [1, 2, 3, 4, 6, 8, 12, 16, 768, 1024, 1536, 2048, 6144, 8192, 12288]
        assert [_fft_length(size) for size in sizes] == padded

    def test_system_residual_at_crossover(self):
        phi = blaschke_entry(0.5).phi
        noise = np.random.default_rng(5).normal(size=(FFT_MIN_LENGTH, 2)) @ [1, 1j]
        assert abs(system_residual(phi, noise) - direct_residual(phi, noise)) <= 1e-15

    def test_system_residual_above_512(self):
        phi = blaschke_entry(0.5).phi
        rng = np.random.default_rng(3)
        noise = rng.normal(size=1025) + 1j * rng.normal(size=1025)
        assert abs(system_residual(phi, noise) - direct_residual(phi, noise)) <= 1e-15
        # at p_n both read rounding noise, which depends on the summation order
        c = structured_solve(phi, 1024).coefficients
        assert max(system_residual(phi, c), direct_residual(phi, c)) <= 1e-13
