import cmath
import dataclasses
import math

import numpy as np
import pytest

from conftest import random_generic_ab
from hbortho import (
    NumericalBreakdown,
    OrthoPoly,
    PoleTerm,
    RationalABForm,
    SmirnovSymbol,
    StructureRefuted,
    apply_shift_reduction,
    bench_solvers,
    build_recurrence,
    detect_structure,
    gram,
    gram_matrix,
    orthopoly,
    rational_ab_basis,
    sarason_symbol,
    structure,
    structured_solve,
)
from hbortho.structure import system_residual


def shift_reduction_binomial(mat, d: int) -> np.ndarray:
    """Same reduction as binomial-weighted row combinations.

    Row k of the result is sum_i (-1)^i C(d, i) R_{k+i}, truncated at the
    last row; an independent route for the difference passes.
    """
    src = np.asarray(mat, dtype=complex)
    n1 = src.shape[0]
    out = np.zeros_like(src)
    for k in range(n1):
        for i in range(min(d, n1 - 1 - k) + 1):
            out[k] += (-1) ** i * math.comb(d, i) * src[k + i]
    return out


def double_pole_symbol(r0, r1, r2):
    terms = []
    if r1 != 0:
        terms.append(PoleTerm(1.0, 1, r1))
    if r2 != 0:
        terms.append(PoleTerm(1.0, 2, r2))
    return SmirnovSymbol(r0, tuple(terms))


def unit_pole():
    return SmirnovSymbol(0.0, (PoleTerm(1.0, 1, 1.0),))


def random_at_one(rng, order):
    """A + sum_{d <= order} B_d / (1 - z)^d with |A| <= 2, 0.25 <= |B_d| <= 2."""
    const = cmath.rect(rng.uniform(0.0, 2.0), rng.uniform(0.0, 2 * math.pi))
    terms = tuple(
        PoleTerm(1.0, d, cmath.rect(rng.uniform(0.25, 2.0), rng.uniform(0.0, 2 * math.pi)))
        for d in range(1, order + 1)
    )
    return SmirnovSymbol(const, terms)


def rel_coeff_error(c, ref):
    return float(np.max(np.abs(c - ref)) / np.max(np.abs(ref)))


def band_constants(r0, r1, r2):
    """The five reduced-band values for the order-2 family, derived by exact
    symbolic finite differencing of the inner-product formula (verified to be
    independent of the row index)."""
    v0 = 1.0 + r0 * (r0 + r1 + r2)
    v1 = -(4.0 + 4 * r0**2 + 4 * r0 * r1 + 2 * r0 * r2 + r1**2 + r1 * r2)
    v2 = 6.0 + 6 * r0**2 + 6 * r0 * r1 + 2 * r0 * r2 + 2 * r1**2 + 2 * r1 * r2 + r2**2
    return (v0, v1, v2, v1, v0)


class TestShiftReduction:
    def test_zero_passes(self):
        equations = np.conj(gram_matrix(sarason_symbol(), 6))
        out = apply_shift_reduction(equations, 0)
        assert np.allclose(out, equations)

    def test_single_pass_is_row_difference(self):
        rng = np.random.default_rng(0)
        mat = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        out = apply_shift_reduction(mat, 1)
        expected = mat.copy()
        expected[:-1] -= mat[1:]
        assert np.allclose(out, expected)

    def test_half_sum_two_passes_banded(self):
        gm = gram_matrix(sarason_symbol(), 8)
        out = apply_shift_reduction(np.conj(gm), 2)
        for k in range(6):  # rows 0..n-3
            for j in range(9):
                if j < k or j > k + 2:
                    assert abs(out[k, j]) < 1e-12

    def test_double_pole_four_passes(self):
        phi = double_pole_symbol(0.0, 0.0, 1.0)
        gm = gram_matrix(phi, 16)
        out = apply_shift_reduction(np.conj(gm), 4)
        scale = np.max(np.abs(out))
        for k in range(12):  # rows 0..n-5 pentadiagonal
            for j in range(17):
                if j < k or j > k + 4:
                    assert abs(out[k, j]) < 1e-12 * scale

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_passes_equal_binomial_combination(self, d):
        rng = np.random.default_rng(d)
        for _ in range(3):
            n = int(rng.integers(8, 33))
            mat = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a = apply_shift_reduction(mat, d)
            b = shift_reduction_binomial(mat, d)
            scale = np.max(np.abs(mat))
            assert np.max(np.abs(a - b)) <= 1e-12 * scale

    def test_d_out_of_range(self):
        with pytest.raises(ValueError):
            apply_shift_reduction(np.eye(4), 4)


class TestSimplePoleBands:
    def test_band_values_exact(self):
        # reduced rows carry (t0, t1 - t0, conj t0) for any simple pole at 1
        rng = np.random.default_rng(31)
        n = 12
        for _ in range(50):
            A, B = random_generic_ab(rng)
            data = build_recurrence(A, B)
            gm = gram_matrix(SmirnovSymbol(A, (PoleTerm(1.0, 1, B),)), n)
            out = apply_shift_reduction(np.conj(gm), 2)
            scale = np.max(np.abs(out))
            band = (data.t0, data.t1 - data.t0, np.conj(data.t0))
            for k in range(n - 2):
                for off, val in enumerate(band):
                    assert abs(out[k, k + off] - val) <= 1e-10 * scale
                for j in range(n + 1):
                    if j < k or j > k + 2:
                        assert abs(out[k, j]) <= 1e-10 * scale


class TestDoublePoleBands:
    @pytest.mark.parametrize("triple", [(1.0, 1.0, 1.0), (0.5, -0.3, 1.2), (0.0, 0.0, 1.0)])
    def test_constant_diagonals(self, triple):
        phi = double_pole_symbol(*triple)
        n = 20
        out = apply_shift_reduction(np.conj(gram_matrix(phi, n)), 4)
        scale = np.max(np.abs(out))
        expected = band_constants(*triple)
        for k in range(n - 4):
            for off in range(5):
                assert abs(out[k, k + off] - expected[off]) <= 1e-9 * scale

    def test_report_fields(self):
        phi = double_pole_symbol(1.0, 1.0, 1.0)
        rep = detect_structure(phi, 24)
        assert rep.pole_order == 2
        assert rep.reduction_power == 4
        assert rep.band_width == 5
        assert rep.low_rank_rows <= 5
        assert all(deg is not None and deg <= 2 for deg in rep.diagonal_degrees)
        assert rep.confirmed
        assert rep.residual <= 1e-9 * rep.scale
        assert "CONFIRMED" in rep.summary()

    def test_complex_coefficients_confirmed(self):
        phi = SmirnovSymbol(
            0.3 + 0.4j,
            (PoleTerm(1.0, 1, -0.2 + 0.1j), PoleTerm(1.0, 2, 1.1 - 0.5j)),
        )
        rep = detect_structure(phi, 24)
        assert rep.confirmed
        fast = structured_solve(phi, 20)
        ref = orthopoly(phi, 20, precision="f64")
        assert np.max(np.abs(fast.coefficients - ref.coefficients)) < 1e-8


class TestDetectStructure:
    def test_simple_pole_report(self):
        rep = detect_structure(unit_pole(), 14)
        assert rep.pole_order == 1
        assert rep.band_width == 3
        assert rep.diagonal_degrees == (0, 0, 0)
        assert rep.low_rank_rows <= 3
        assert rep.confirmed

    def test_order_three_probe(self):
        phi = SmirnovSymbol(0.0, (PoleTerm(1.0, 3, 1.0),))
        rep = detect_structure(phi, 40)
        assert rep.pole_order == 3
        assert rep.reduction_power == 6
        assert len(rep.diagonal_degrees) == 7
        assert rep.residual >= 0.0
        assert rep.scale > 0.0

    def test_requires_pole_at_one(self):
        phi = SmirnovSymbol(0.0, (PoleTerm(1j, 1, 1.0),))
        with pytest.raises(ValueError):
            detect_structure(phi, 12)

    def test_requires_enough_rows(self):
        with pytest.raises(ValueError):
            detect_structure(unit_pole(), 5)

    def test_polynomial_diagonal_fit(self):
        # the reduced diagonals of every pole-at-1 symbol measured are constant,
        # so only a synthetic diagonal reaches the Newton steps past degree 0
        def poly(k):
            return (2 - 1j) + (0.5 + 3j) * k - 0.25j * k**2

        degree, table = structure._diagonal_degree(poly(np.arange(30)), 1e-12)
        assert degree == 2 and len(table) == 3
        k = np.arange(40)
        err = np.max(np.abs(structure._newton_eval(table, k) - poly(k)))
        assert err <= 1e-12 * np.max(np.abs(poly(k)))

    def test_rank_matches_numpy(self):
        phi = double_pole_symbol(1.0, 1.0, 1.0)
        rep = detect_structure(phi, 24)
        assert 0 < rep.low_rank_rank <= rep.low_rank_rows

    def test_calibration_reach(self):
        # the calibration size 4m + 8 confirms pole-at-1 symbols of orders 1-4
        # whose coefficients and constant term span 1e-6 to 1e6, or the constant is 0
        rng = np.random.default_rng(28)

        def value():
            return complex(10.0 ** rng.uniform(-6, 6) * np.exp(2j * np.pi * rng.uniform()))

        for _ in range(300):
            m = int(rng.integers(1, 5))
            const = 0.0 if rng.uniform() < 0.2 else value()
            phi = SmirnovSymbol(const, tuple(PoleTerm(1.0, d, value()) for d in range(1, m + 1)))
            assert detect_structure(phi, 4 * m + structure.CALIBRATION_PAD).confirmed, phi


class TestStructuredSolve:
    def test_unit_pole_n24(self):
        fast = structured_solve(unit_pole(), 24)
        ref = orthopoly(unit_pole(), 24, precision="f64")
        assert np.max(np.abs(fast.coefficients - ref.coefficients)) < 1e-8

    def test_double_pole_n20(self):
        phi = double_pole_symbol(1.0, 1.0, 1.0)
        fast = structured_solve(phi, 20)
        ref = orthopoly(phi, 20, precision="f64")
        assert np.max(np.abs(fast.coefficients - ref.coefficients)) < 1e-8

    def test_degenerate_family_closed_form(self):
        fast = structured_solve(sarason_symbol(), 10)
        expected = np.zeros(11)
        expected[10] = 0.5
        expected[9] = -0.5
        assert np.allclose(fast.coefficients, expected, atol=1e-12)

    def test_blaschke_n64(self):
        from hbortho import blaschke_symbol

        phi = blaschke_symbol(0.5)
        fast = structured_solve(phi, 64)
        ref = orthopoly(phi, 64, precision="f64")
        assert np.max(np.abs(fast.coefficients - ref.coefficients)) < 1e-8

    def test_large_n_underflow_region(self):
        # true low-order coefficients sit far below double range: the banded
        # back substitution must underflow to exact zeros there, not garbage
        fast = structured_solve(unit_pole(), 1024)
        assert np.isfinite(fast.coefficients).all()
        assert fast.coefficients[-1].real > 0
        assert system_residual(unit_pole(), fast.coefficients) < 1e-9

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            structured_solve(unit_pole(), -1)

    def test_rotated_pole_rejected(self):
        phi = SmirnovSymbol(0.0, (PoleTerm(-1.0, 1, 1.0),))
        with pytest.raises(ValueError):
            structured_solve(phi, 24)

    def test_singular_k_is_breakdown(self, monkeypatch):
        # conj(alpha)_0 = 0 and conj(beta) = 0 make K singular: zero first pivot
        phi = double_pole_symbol(1.0, 1.0, 1.0)
        alpha, beta = gram.rational_form(phi)
        alpha[0] = 0.0
        monkeypatch.setattr(gram, "rational_form", lambda _: (alpha, np.zeros_like(beta)))
        with pytest.raises(NumericalBreakdown, match="Cholesky"):
            structured_solve(phi, 20)

    def test_non_finite_solve_is_breakdown(self, monkeypatch):
        monkeypatch.setattr(structure, "ztbtrs", lambda r, e, **kw: (np.full_like(e, np.nan), 0))
        with pytest.raises(NumericalBreakdown, match="non-finite"):
            structured_solve(double_pole_symbol(1.0, 1.0, 1.0), 20)

    def test_large_residual_is_breakdown(self, monkeypatch):
        monkeypatch.setattr(structure, "system_residual", lambda phi, c: 1e-5)
        with pytest.raises(NumericalBreakdown, match="residual"):
            structured_solve(double_pole_symbol(1.0, 1.0, 1.0), 20)

    def test_refuted_calibration_raises(self, monkeypatch):
        rep = detect_structure(unit_pole(), 12)
        broken = dataclasses.replace(rep, confirmed=False)
        monkeypatch.setattr(structure, "detect_structure", lambda phi, n: broken)
        with pytest.raises(StructureRefuted):
            structured_solve(unit_pole(), 24)


class TestBandedSolve:
    def test_order_two_returns_and_matches_dense(self):
        # order-2 symbols used to break down at n = 21..192
        rng = np.random.default_rng(2)
        for _ in range(40):
            phi = random_at_one(rng, 2)
            n = int(rng.integers(10, 200))
            fast = structured_solve(phi, n)
            ref = orthopoly(phi, n, precision="f64")
            assert rel_coeff_error(fast.coefficients, ref.coefficients) <= 1e-10, n

    @pytest.mark.parametrize(
        "const, coeff, n",
        [
            (-0.7749094371064291 + 1.3425621168416924j, -1.212675706870235 - 1.4225386264620994j, 2048),
            (0.10778137018515711 + 0.15476996936000104j, 0.592816842339148 - 1.5236072029261882j, 4096),
        ],
    )
    def test_order_one_spikes(self, const, coeff, n):
        # order-1 symbols whose residual used to reach 1e-8
        phi = SmirnovSymbol(const, (PoleTerm(1.0, 1, coeff),))
        assert system_residual(phi, structured_solve(phi, n).coefficients) <= 1e-12

    @pytest.mark.parametrize("order, tol", [(1, 1e-13), (2, 1e-13), (3, 1e-11)])
    def test_accuracy_against_hp(self, order, tol):
        # every n >= 0 is served, also below 4m + 2.  The error tracks
        # eps * cond(K): the second order-2 draw has cond(K) ~ 1e4 and reaches
        # 1.4e-13 at n = 9 (f64 Schur: 4.7e-16), so order 2 allows 1e-12 there
        below = 1e-12 if order == 2 else tol
        rng = np.random.default_rng(60 + order)
        for _ in range(10):
            phi = random_at_one(rng, order)
            n = int(rng.integers(4 * order + 2, 49))
            for size in [*range(4 * order + 2), n]:
                fast = structured_solve(phi, size)
                ref = orthopoly(phi, size, precision="hp")
                bound = tol if size == n else below
                assert rel_coeff_error(fast.coefficients, ref.coefficients) <= bound, size

    def test_collapsed_order_two_family(self):
        # A + B1/(1-z) + B2/(1-z)^2 with conj(A)(B1 + B2) = -(1 + |A|^2): the
        # calibrated leading band diagonal 1 + conj(A)(A + B1 + B2) vanishes,
        # which the banded factor of K never divides by
        rng = np.random.default_rng(70)
        for _ in range(20):
            const = cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(0.0, 2 * math.pi))
            total = -(1.0 + abs(const) ** 2) / np.conj(const)
            b2 = cmath.rect(rng.uniform(0.25, 2.0), rng.uniform(0.0, 2 * math.pi))
            phi = SmirnovSymbol(const, (PoleTerm(1.0, 1, total - b2), PoleTerm(1.0, 2, b2)))
            n = int(rng.integers(10, 49))
            fast = structured_solve(phi, n)
            ref = orthopoly(phi, n, precision="hp")
            assert rel_coeff_error(fast.coefficients, ref.coefficients) <= 1e-13, n

    def test_closed_form_family_through_banded_factor(self):
        # conj(A) B = -(1 + |A|^2): the banded p_n is the shifted-monomial one
        rng = np.random.default_rng(71)
        for _ in range(20):
            const = cmath.rect(10.0 ** rng.uniform(-2.0, 2.0), rng.uniform(0.0, 2 * math.pi))
            form = RationalABForm(const, -(1.0 + abs(const) ** 2) / np.conj(const))
            n = int(rng.integers(0, 601))
            fast = structured_solve(form.symbol(), n)
            ref = rational_ab_basis(form, n).polys[n]
            assert rel_coeff_error(fast.coefficients, ref.coefficients) <= 1e-14, n

    def test_rational_form(self):
        # phi = beta / alpha: alpha phi agrees with beta, and vanishes past degree D
        phi = SmirnovSymbol(0.5j, (PoleTerm(1.0, 1, 2.0), PoleTerm(1.0, 3, -1.0), PoleTerm(1j, 2, 0.3)))
        alpha, beta = (np.conj(v) for v in gram.rational_form(phi))
        assert len(alpha) == 6 and alpha[0] == 1
        product = np.convolve(alpha, phi.taylor(40))[:40]
        assert np.max(np.abs(product[:6] - beta)) <= 1e-14
        assert np.max(np.abs(product[6:])) <= 1e-11


class TestFastKernels:
    @pytest.mark.parametrize("n", [30, 600])  # direct and FFT convolutions
    def test_system_residual_matches_dense(self, n):
        phi = double_pole_symbol(0.2, 1.0, 0.5)
        gm = gram_matrix(phi, n)
        rng = np.random.default_rng(14)
        c = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        mc = np.conj(gm) @ c
        target = np.zeros(n + 1)
        target[n] = 1 / c[n].real
        ref = np.max(np.abs(mc - target)) / (np.max(np.abs(mc)) + 1)
        assert abs(system_residual(phi, c) - ref) <= 1e-9 * ref


class TestBench:
    def test_smoke_small(self):
        records = bench_solvers(unit_pole(), [16])
        rec = records[0]
        assert rec["max_coeff_diff"] <= 1e-7
        assert rec["dense_residual"] < 1e-10
        assert rec["structured_residual"] < 1e-10

    def test_nan_disagreement_raises(self, monkeypatch):
        def nan_solve(phi, n):
            return OrthoPoly(n, np.full(n + 1, complex("nan")))

        monkeypatch.setattr(structure, "structured_solve", nan_solve)
        with pytest.raises(ArithmeticError, match="disagreement"):
            bench_solvers(unit_pole(), [16])

    def test_agreement_enforced(self):
        records = bench_solvers(double_pole_symbol(1.0, 1.0, 1.0), [24, 48])
        for rec in records:
            assert rec["max_coeff_diff"] <= 1e-7

    def test_double_pole_residual_quality_at_512(self):
        # the structured path must stay within an order of magnitude of the
        # dense factorization's residual even at depth
        phi = double_pole_symbol(1.0, 1.0, 1.0)
        records = bench_solvers(phi, [512])
        rec = records[0]
        assert rec["structured_residual"] <= 10.0 * rec["dense_residual"]

    def test_faster_at_1024(self):
        records = bench_solvers(unit_pole(), [1024], repeats=2)
        assert records[0]["speedup"] > 1.0
