import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.linalg import solve_triangular

from conftest import TWO_POLES, max_basis_diff
from hbortho import (
    NumericalBreakdown,
    PoleTerm,
    SmirnovSymbol,
    TaylorStream,
    blaschke_symbol,
    compose_monomial,
    gram_matrix,
    orthobasis,
    orthonormality_defect,
    orthopoly,
    rotate_basis,
    rotate_symbol,
    sarason_symbol,
)
from hbortho import backends
from hbortho import gram as gram_mod
from hbortho import oracle as oracle_mod
from hbortho.backends import AUTO_F64_TOL, F64_EPS, cond_bound
from hbortho.oracle import OrthoBasis, OrthoPoly

def exact_unit_pole_solution():
    """Degree-2 solution for phi = 1/(1-z) by exact rational elimination.

    The moment matrix for phi_k = 1 (all k) is [[2,1,1],[1,3,2],[1,2,4]]; the
    normalized solution of M u = e_2 has u = (-1, -3, 5)/13, so the
    orthonormal coefficients are (-1, -3, 5)/sqrt(65).
    """
    m = [
        [Fraction(2), Fraction(1), Fraction(1)],
        [Fraction(1), Fraction(3), Fraction(2)],
        [Fraction(1), Fraction(2), Fraction(4)],
    ]
    rhs = [Fraction(0), Fraction(0), Fraction(1)]
    # gaussian elimination over the rationals
    for col in range(3):
        piv = next(r for r in range(col, 3) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        for r in range(col + 1, 3):
            f = m[r][col] / m[col][col]
            rhs[r] -= f * rhs[col]
            for c in range(col, 3):
                m[r][c] -= f * m[col][c]
    u = [Fraction(0)] * 3
    for r in (2, 1, 0):
        acc = rhs[r] - sum(m[r][c] * u[c] for c in range(r + 1, 3))
        u[r] = acc / m[r][r]
    scale = math.sqrt(float(u[2]))
    return np.array([float(v) / scale for v in u])


class TestOrthopoly:
    def test_hardy_monomial(self):
        p = orthopoly(SmirnovSymbol(), 5, precision="f64")
        expected = np.zeros(6)
        expected[5] = 1.0
        assert np.allclose(p.coefficients, expected)

    def test_half_sum_degree_zero(self):
        p = orthopoly(sarason_symbol(), 0, precision="f64")
        assert abs(p.coefficients[0] - 1 / math.sqrt(2)) < 1e-14

    def test_half_sum_degree_three(self):
        p = orthopoly(sarason_symbol(), 3, precision="f64")
        assert np.allclose(p.coefficients, [0, 0, -0.5, 0.5], atol=1e-12)

    def test_unit_pole_degree_two_frozen(self):
        phi = SmirnovSymbol(0.0, (PoleTerm(1.0, 1, 1.0),))
        p = orthopoly(phi, 2, precision="f64")
        assert np.allclose(p.coefficients, exact_unit_pole_solution(), atol=1e-12)
        # orthogonality against lower monomials through the inner product
        gm = gram_matrix(phi, 2)
        sys_action = p.coefficients @ np.conj(gm)
        assert np.max(np.abs(sys_action[:2])) < 1e-13

    def test_leading_coefficient_positive(self):
        phi = blaschke_symbol(0.5)
        for n in range(8):
            p = orthopoly(phi, n, precision="f64")
            assert p.leading > 0

    def test_degree_validation(self):
        with pytest.raises(ValueError):
            orthopoly(sarason_symbol(), -1)

    def test_system_residual_matches_gram_entries(self):
        for phi in (sarason_symbol(), TWO_POLES):
            p = orthopoly(phi, 30, precision="f64")
            c = p.coefficients * (1 + 1e-7)  # residual far above rounding
            mc = np.conj(gram_matrix(phi, 30)) @ c
            target = np.zeros(31)
            target[30] = 1 / c[30].real
            ref = np.max(np.abs(mc - target)) / (np.max(np.abs(mc)) + 1)
            got = gram_mod.system_residual(phi, c)
            assert abs(got - ref) <= 1e-6 * ref

    def test_breakdown_on_absurd_stream(self):
        # an exponentially growing coefficient stream wrecks the conditioning
        stream = TaylorStream(lambda n: 10.0 ** (2 * n), label="blowup")
        with pytest.raises(NumericalBreakdown):
            orthopoly(stream, 24, precision="f64")

    @pytest.mark.parametrize("precision", [None, "f64"])
    def test_overflow_is_breakdown(self, precision):
        # finite coefficients whose Gram products would overflow double precision
        stream = TaylorStream(lambda n: 10.0 ** (5 * n), label="overflow")
        with pytest.raises(NumericalBreakdown):
            orthopoly(stream, 40, precision=precision)

    @pytest.mark.parametrize("precision", [None, "f64"])
    def test_overflow_is_breakdown_for_basis(self, precision):
        stream = TaylorStream(lambda n: 10.0 ** (5 * n), label="overflow")
        with pytest.raises(NumericalBreakdown):
            orthobasis(stream, 40, precision=precision)

    @pytest.mark.parametrize("solve", [orthopoly, orthobasis])
    def test_near_float_max_is_breakdown_without_warning(self, solve):
        # phi_39 = phi_40 = 1e308: coefficient sums pass the float range
        stream = TaylorStream(lambda n: 10.0 ** min(8 * n, 308), label="near float max")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalBreakdown):
                solve(stream, 40)


class TestOrthobasis:
    def test_half_sum_family(self):
        basis = orthobasis(sarason_symbol(), 4, precision="f64")
        assert abs(basis.polys[0].coefficients[0] - 1 / math.sqrt(2)) < 1e-13
        for n in range(1, 5):
            expected = np.zeros(n + 1)
            expected[n] = 0.5
            expected[n - 1] = -0.5
            assert np.allclose(basis.polys[n].coefficients, expected, atol=1e-12)

    def test_hardy_monomials(self):
        basis = orthobasis(SmirnovSymbol(), 8, precision="f64")
        for n, p in enumerate(basis.polys):
            expected = np.zeros(n + 1)
            expected[n] = 1.0
            assert np.allclose(p.coefficients, expected)

    def test_blaschke_residual(self):
        basis = orthobasis(blaschke_symbol(0.5), 6, precision="f64")
        assert basis.residual < 1e-10

    @pytest.mark.parametrize("precision,bound", [("f64", 1e-9), ("hp", 1e-25)])
    def test_self_consistency(self, entries, precision, bound):
        for entry in entries:
            basis = orthobasis(entry.phi, 48, precision=precision)
            assert basis.residual <= bound, entry.name

    def test_uniqueness_under_solver_change(self, entries):
        # same system solved through an unrelated factorization path
        for entry in entries:
            basis = orthobasis(entry.phi, 20, precision="f64")
            gm = gram_matrix(entry.phi, 20)
            for n in (7, 20):
                rhs = np.zeros(n + 1, dtype=complex)
                rhs[n] = 1.0
                u = np.conj(np.linalg.solve(gm[: n + 1, : n + 1], rhs))
                alt = u / np.sqrt(u[n].real)
                ref = basis.polys[n].coefficients
                assert np.max(np.abs(alt - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_defect_matches_residual(self):
        basis = orthobasis(blaschke_symbol(0.3), 10, precision="f64")
        defect = orthonormality_defect(
            basis.symbol, [p.coefficients for p in basis.polys]
        )
        assert abs(defect - basis.residual) < 1e-12
        # against Q M Q^H from the Gram entries, on rows 1e-7 off so that the
        # defect sits far above rounding
        for phi in (blaschke_symbol(0.3), TWO_POLES):
            basis = orthobasis(phi, 24, precision="f64")
            rows = np.zeros((25, 25), dtype=complex)
            for k, p in enumerate(basis.polys):
                rows[k, : k + 1] = p.coefficients * (1 + 1e-7 * (k % 3 - 1))
            gram = rows @ gram_matrix(phi, 24) @ np.conj(rows.T)
            ref = np.max(np.abs(gram - np.eye(25)))
            got = orthonormality_defect(phi, list(rows))
            assert ref > 1e-8
            assert abs(got - ref) <= 1e-6 * ref


def lu_reference_basis(phi, n):
    """p_0..p_n in mpmath: Gram entries from the defining sum, one LU solve per degree."""
    c = phi.taylor_mp(n + 1)
    gram = mpmath.matrix(n + 1, n + 1)
    for j in range(n + 1):
        for k in range(j, n + 1):
            val = mpmath.fsum(mpmath.conj(c[s]) * c[k - j + s] for s in range(j + 1))
            gram[j, k] = val + (1 if j == k else 0)
            gram[k, j] = mpmath.conj(gram[j, k])
    polys = []
    for k in range(n + 1):
        # <p, z^i> = 0 for i < k:  conj(M_k) u = e_k, then scale to unit norm
        system = mpmath.matrix([[mpmath.conj(gram[i, j]) for j in range(k + 1)]
                                for i in range(k + 1)])
        rhs = mpmath.matrix([1 if i == k else 0 for i in range(k + 1)])
        u = mpmath.lu_solve(system, rhs)
        polys.append([u[i] / mpmath.sqrt(mpmath.re(u[k])) for i in range(k + 1)])
    return polys


class TestOneFactor:
    def test_basis_factors_once(self, monkeypatch):
        calls = []
        real = gram_mod.schur_factor

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        def never(*args, **kwargs):
            raise AssertionError("the f64 routes do not assemble the Gram matrix")

        monkeypatch.setattr(gram_mod, "schur_factor", counting)
        monkeypatch.setattr(gram_mod, "gram_matrix", never)
        orthobasis(blaschke_symbol(0.5), 40, precision="f64")
        assert calls == [(41,)]
        orthopoly(blaschke_symbol(0.5), 40, precision="f64")
        assert len(calls) == 2

    @pytest.mark.parametrize("precision,n", [("f64", 24), ("hp", 12)])
    def test_basis_rows_match_single_polys(self, entries, precision, n):
        for phi in [e.phi for e in entries] + [TWO_POLES]:
            basis = orthobasis(phi, n, precision=precision)
            for k, p in enumerate(basis.polys):
                single = orthopoly(phi, k, precision=precision)
                ref = single.coefficients
                assert p.degree == k
                assert np.max(np.abs(p.coefficients - ref)) <= 1e-10 * np.max(np.abs(ref))
                if precision == "hp":
                    with mpmath.workprec(160):
                        diff = max(
                            abs(x - y)
                            for x, y in zip(p.hp_coefficients, single.hp_coefficients)
                        )
                    assert diff < mpmath.mpf("1e-40")

    def test_hp_basis_matches_lu_reference(self, entries):
        for phi in [e.phi for e in entries] + [TWO_POLES]:
            basis = orthobasis(phi, 10, precision="hp")
            with mpmath.workprec(160):
                ref = lu_reference_basis(phi, 10)
                for p, r in zip(basis.polys, ref):
                    diff = max(abs(x - y) for x, y in zip(p.hp_coefficients, r))
                    assert diff < mpmath.mpf("1e-30")


class TestHighPrecision:
    M3 = SmirnovSymbol(1.0, (PoleTerm(1.0, 1, 1.0), PoleTerm(1.0, 2, 1.0), PoleTerm(1.0, 3, 0.5)))

    def test_m3_at_512_keeps_its_digits(self, monkeypatch):
        # each coefficient against its own magnitude: the small ones are where a
        # factorization of the dense M, conditioned by n, loses its digits
        p = orthopoly(self.M3, 512, precision="hp")
        monkeypatch.setattr(backends, "HP_PREC_BITS", 320)
        ref = orthopoly(self.M3, 512, precision="hp")
        with mpmath.workprec(320):
            for x, y in zip(p.hp_coefficients, ref.hp_coefficients, strict=True):
                assert abs(x - y) <= mpmath.mpf("1e-30") * abs(y)

    def test_singular_k_is_breakdown(self, monkeypatch):
        # conj(alpha)_0 = 0 and conj(beta) = 0 make K singular: the first hp pivot is 0
        real = gram_mod.rational_form

        def singular(phi, hp=False):
            alpha, beta = real(phi, hp=hp)
            alpha[0] = 0 * alpha[0]
            return alpha, 0 * beta

        monkeypatch.setattr(gram_mod, "rational_form", singular)
        with pytest.raises(NumericalBreakdown, match="pivot 0"):
            orthopoly(self.M3, 20, precision="hp")

    def test_basis_residual_detects_a_scaled_row(self):
        for phi in (blaschke_symbol(0.5), TWO_POLES):
            basis = orthobasis(phi, 16, precision="hp")
            rows = [p.hp_coefficients for p in basis.polys]
            assert basis.residual <= 1e-40
            with mpmath.workprec(160):
                rows[9] = [c * (1 + mpmath.mpf("1e-30")) for c in rows[9]]
                assert oracle_mod._residual_hp(phi.taylor_mp(17), rows) >= 1e-31


class TestPackedSolve:
    def test_matches_unpacked_solve(self, entries):
        for phi in [e.phi for e in entries] + [TWO_POLES]:
            for n in (8, 64, 128):
                lower = gram_mod.unpack_lower(gram_mod.schur_factor(phi.taylor(n + 1)))
                e_n = np.zeros(n + 1)
                e_n[n] = 1.0
                ref = solve_triangular(lower, e_n, lower=True, trans="T")
                got = orthopoly(phi, n, precision="f64").coefficients
                assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref)), (phi, n)

    def test_memory_peak(self):
        # the packed factor is half of an (n+1)^2 complex matrix, and the solve adds O(n)
        n = 1024
        orthopoly(blaschke_symbol(0.5), n, precision="f64")
        tracemalloc.start()
        try:
            orthopoly(blaschke_symbol(0.5), n, precision="f64")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.55 * (n + 1) ** 2 * 16


class TestPrecisionPolicy:
    def test_auto_switches_by_conditioning(self):
        phi = sarason_symbol()  # catalog m = 1: cond_bound(phi, 64) = 1 + 129^2
        assert F64_EPS * cond_bound(phi, 64) <= AUTO_F64_TOL
        auto = orthopoly(phi, 64)
        assert auto.hp_coefficients is None
        assert np.array_equal(auto.coefficients, orthopoly(phi, 64, precision="f64").coefficients)
        basis = orthobasis(phi, 64)
        assert basis.precision == "f64"
        assert max_basis_diff(basis, orthobasis(phi, 64, precision="f64")) == 0.0
        # order 3 at degree 10 is already past the switch: phi_k ~ 15 k^2
        phi = SmirnovSymbol(0.0, (PoleTerm(1.0, 3, 30.0),))
        assert F64_EPS * cond_bound(phi, 10) > AUTO_F64_TOL
        assert orthopoly(phi, 10).hp_coefficients is not None
        assert orthobasis(phi, 10).precision == "hp"

    def test_invalid_tag(self):
        with pytest.raises(ValueError):
            orthopoly(sarason_symbol(), 4, precision="quad")

    def test_hp_needs_structured_symbol(self):
        stream = TaylorStream(lambda n: 1.0, label="plain")
        with pytest.raises(TypeError):
            orthopoly(stream, 3, precision="hp")

    def test_hp_coefficients_recorded(self):
        p = orthopoly(sarason_symbol(), 3, precision="hp")
        assert p.hp_coefficients is not None
        assert abs(complex(p.hp_coefficients[3]) - 0.5) < 1e-30


def spoiled_poly(phi, n, route=oracle_mod._orthopoly_f64):
    """An f64 orthopoly route whose result is 1e-6 off."""
    return OrthoPoly(n, route(phi, n).coefficients * (1 + 1e-6))


def spoiled_basis(phi, n, route=oracle_mod._orthobasis_f64):
    """An f64 orthobasis route whose rows are 1e-6 off, with their true defect."""
    rows = [p.coefficients * (1 + 1e-6) for p in route(phi, n).polys]
    polys = tuple(OrthoPoly(k, c) for k, c in enumerate(rows))
    return OrthoBasis(polys, phi, "f64", orthonormality_defect(phi, rows))


SPOILED = {"orthopoly": ("_orthopoly_f64", spoiled_poly), "orthobasis": ("_orthobasis_f64", spoiled_basis)}
ENTRY_POINTS = {"orthopoly": orthopoly, "orthobasis": orthobasis}


def polys(result):
    return getattr(result, "polys", (result,))


def same(a, b):
    """Bit-identical coefficients, polynomial by polynomial."""
    pairs = zip(polys(a), polys(b), strict=True)
    return all(np.array_equal(p.coefficients, q.coefficients) for p, q in pairs)


@pytest.mark.parametrize("entry_point", sorted(ENTRY_POINTS))
class TestAutomaticVerification:
    """An automatic f64 result is kept only if its residual is at most 1e-8."""

    def spoil(self, monkeypatch, entry_point):
        route, spoiled = SPOILED[entry_point]
        monkeypatch.setattr(oracle_mod, route, spoiled)
        return ENTRY_POINTS[entry_point]

    def test_stream_returns_verified_f64(self, entry_point):
        # the stream of 2/(1-z) - 1; degree 40 used to be sent to hp, which raised TypeError
        stream = TaylorStream(lambda k: 1.0 if k == 0 else 2.0, label="sarason")
        solve = ENTRY_POINTS[entry_point]
        assert same(solve(stream, 40), solve(sarason_symbol(), 40, precision="f64"))

    def test_failed_check_escalates_to_hp(self, monkeypatch, entry_point):
        solve = self.spoil(monkeypatch, entry_point)
        assert same(solve(sarason_symbol(), 12), solve(sarason_symbol(), 12, precision="hp"))

    def test_requested_f64_is_returned_unchecked(self, monkeypatch, entry_point):
        spoiled = SPOILED[entry_point][1](sarason_symbol(), 12)
        solve = self.spoil(monkeypatch, entry_point)
        assert same(solve(sarason_symbol(), 12, precision="f64"), spoiled)

    def test_failed_check_on_stream_raises(self, monkeypatch, entry_point):
        solve = self.spoil(monkeypatch, entry_point)
        with pytest.raises(NumericalBreakdown, match=r"residual .* exceeds 1e-08 \(cond_bound"):
            solve(sarason_symbol().stream(), 12)

    def test_breakdown_on_stream_raises(self, entry_point):
        stream = TaylorStream(lambda n: 10.0 ** (2 * n), label="blowup")
        with pytest.raises(NumericalBreakdown, match="cond_bound"):
            ENTRY_POINTS[entry_point](stream, 24)


class TestRotationTransport:
    def test_identity(self):
        basis = orthobasis(sarason_symbol(), 5, precision="f64")
        moved = rotate_basis(basis, 0.0)
        assert max_basis_diff(basis, moved) < 1e-15

    def test_half_sum_pi(self):
        # transported family for the pole at -1: z^{n-1}(z+1)/2
        basis = orthobasis(sarason_symbol(), 5, precision="f64")
        moved = rotate_basis(basis, math.pi)
        for n in range(1, 6):
            expected = np.zeros(n + 1)
            expected[n] = 0.5
            expected[n - 1] = 0.5
            assert np.allclose(moved.polys[n].coefficients, expected, atol=1e-12)
        direct = orthobasis(moved.symbol, 5, precision="f64")
        assert max_basis_diff(moved, direct) < 1e-10

    def test_stream_basis(self):
        # a stream is rotated as a stream, not through rotate_symbol
        phi = blaschke_symbol(0.5)
        moved = rotate_basis(orthobasis(phi.stream(), 10, precision="f64"), 1.0)
        assert isinstance(moved.symbol, TaylorStream)
        assert orthonormality_defect(moved.symbol, [p.coefficients for p in moved.polys]) <= 1e-12
        direct = orthobasis(rotate_symbol(phi, 1.0), 10, precision="f64")
        assert max_basis_diff(moved, direct) < 1e-12

    def test_group_property(self):
        basis = orthobasis(blaschke_symbol(0.4), 6, precision="f64")
        round_trip = rotate_basis(rotate_basis(basis, 1.1), -1.1)
        assert max_basis_diff(basis, round_trip) < 1e-12

    @pytest.mark.parametrize("gamma", [math.pi / 3, math.pi, 1.0])
    def test_equivariance(self, gamma):
        for phi in (sarason_symbol(), blaschke_symbol(0.5)):
            basis = orthobasis(phi, 24, precision="f64")
            transported = rotate_basis(basis, gamma)
            direct = orthobasis(rotate_symbol(phi, gamma), 24, precision="f64")
            assert max_basis_diff(transported, direct) < 1e-9


    @pytest.mark.parametrize("gamma", [math.pi / 3, math.pi])
    def test_equivariance_hp(self, gamma):
        # rotate_symbol stores the rotated poles in f64, so the direct hp basis
        # belongs to a symbol one rounding away from the transported one: the
        # bases agree to 1e-15 (7.2e-18 measured), not to the hp 1e-40
        for phi in (sarason_symbol(), blaschke_symbol(0.5)):
            moved = rotate_basis(orthobasis(phi, 12, precision="hp"), gamma)
            direct = orthobasis(moved.symbol, 12, precision="hp")
            for p, q in zip(moved.polys, direct.polys, strict=True):
                assert p.hp_coefficients is not None
                diff = max(abs(x - y) for x, y in zip(p.hp_coefficients, q.hp_coefficients))
                assert diff <= 1e-15


class TestCompositionLaw:
    def test_shift_classes_are_orthogonal(self):
        # under the composed symbol, dilated polynomials with different
        # monomial shifts are mutually orthogonal whatever their degrees
        from hbortho import poly_inner

        phi = blaschke_symbol(0.5)
        N = 3
        composed = compose_monomial(phi, N)
        base = orthobasis(phi, 5, precision="f64")
        rng = np.random.default_rng(23)
        for _ in range(10):
            la, lb = rng.integers(0, 6, size=2)
            ia, ib = rng.integers(0, N, size=2)
            if ia == ib:
                continue
            fa = np.zeros(N * la + ia + 1, dtype=complex)
            fa[np.arange(la + 1) * N + ia] = base.polys[la].coefficients
            fb = np.zeros(N * lb + ib + 1, dtype=complex)
            fb[np.arange(lb + 1) * N + ib] = base.polys[lb].coefficients
            assert abs(poly_inner(composed, fa, fb)) < 1e-10

    @pytest.mark.parametrize("N", [2, 3])
    def test_reindexed_basis(self, N):
        # composed-symbol polynomials are shifted dilations of the originals
        for phi in (sarason_symbol(), blaschke_symbol(0.5)):
            base = orthobasis(phi, 8, precision="f64")
            composed_symbol = compose_monomial(phi, N)
            direct = orthobasis(composed_symbol, 8 * N + N - 1, precision="f64")
            for l in range(9):
                for i in range(N):
                    deg = N * l + i
                    expected = np.zeros(deg + 1, dtype=complex)
                    expected[np.arange(l + 1) * N + i] = base.polys[l].coefficients
                    got = direct.polys[deg].coefficients
                    assert np.max(np.abs(got - expected)) < 1e-9
