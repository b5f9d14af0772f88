import dataclasses
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_admissible_ab, random_generic_ab
from hbortho import (
    CaseBoundary,
    SingularBorder,
    PoleTerm,
    SmirnovSymbol,
    blaschke_symbol,
    build_recurrence,
    coefficients_via_recurrence,
    detect_rational_ab,
    orthopoly,
    recurrence_residual,
    reduced_matrix_check,
)
from hbortho import recurrence
from hbortho.backends import to_mpc
from hbortho.recurrence import (
    CASE_DEGENERATE,
    CASE_DOUBLE,
    CASE_SIMPLE,
    _F64,
    _HP,
    _double_root,
    _scalars,
    _simple_roots,
)

finite_complex = st.complex_numbers(
    max_magnitude=6.0, allow_nan=False, allow_infinity=False
)


def ab_symbol(A, B):
    return SmirnovSymbol(A, (PoleTerm(1.0, 1, B),))


class TestClassification:
    def test_half_sum_is_degenerate(self):
        data = build_recurrence(-1.0, 2.0)
        assert data.case_tag == CASE_DEGENERATE
        assert abs(data.t0) < 1e-12

    def test_unit_pole_quadratic(self):
        data = build_recurrence(0.0, 1.0)
        assert data.case_tag == CASE_SIMPLE
        assert abs(data.t0 - 1.0) < 1e-15
        assert abs(data.t1 + 2.0) < 1e-15
        # characteristic z^2 - 3z + 1, roots (3 -+ sqrt 5)/2
        a, b, c = data.characteristic()
        assert np.allclose([a, b, c], [1.0, -3.0, 1.0])
        r = sorted(abs(z) for z in data.roots)
        assert abs(r[0] - (3 - math.sqrt(5)) / 2) < 1e-12
        assert abs(r[1] - (3 + math.sqrt(5)) / 2) < 1e-12

    def test_scalar_identities(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            A, B = random_generic_ab(rng)
            data = build_recurrence(A, B)
            assert abs(data.t1 + np.conj(data.t0) + abs(B) ** 2) < 1e-12
            assert abs(data.t2 - (data.rho - np.conj(data.t0))) < 1e-12
            if data.case_tag == CASE_SIMPLE:
                l1, l2 = data.roots
                assert abs(l1 * l2 - data.t0 / np.conj(data.t0)) < 1e-10
                assert abs(l1) <= 1.0 + 1e-12 <= abs(l2) + 2e-12

    def test_middle_coefficient_real(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            A, B = random_generic_ab(rng)
            data = build_recurrence(A, B)
            mid = data.t1 - data.t0
            assert abs(mid.imag) < 1e-12 * (1 + abs(mid))

    @settings(max_examples=80, deadline=None)
    @given(A=finite_complex, B=finite_complex)
    def test_discriminant_floor(self, A, B):
        # disc = (2 Re t0 + |B|^2)^2 - 4 |t0|^2 >= 4 |B|^2: a genuine double
        # root is impossible for this family, whatever (A, B) one picks
        if abs(B) < 1e-3:
            return
        data = build_recurrence(A, B)
        assert data.disc >= 4.0 * abs(B) ** 2 * (1.0 - 1e-9)

    def test_real_pair_discriminant_closed_form(self):
        # for real A, B the discriminant is B^2 ((2A+B)^2 + 4): root-finding a
        # double root over the reals has no solution
        rng = np.random.default_rng(6)
        for _ in range(50):
            A = rng.uniform(-4, 4)
            B = rng.uniform(-4, 4)
            if abs(B) < 1e-3:
                continue
            data = build_recurrence(A, B)
            expected = B**2 * ((2 * A + B) ** 2 + 4.0)
            assert abs(data.disc - expected) <= 1e-9 * expected

    @pytest.mark.parametrize("rel, degenerate", [(0.0, True), (1e-13, True), (1e-11, False)])
    def test_degenerate_iff_detected(self, rel, degenerate):
        # one relation test: the recurrence's degenerate case is the closed-form detector's
        rng = np.random.default_rng(14)
        for _ in range(25):
            A, B = random_admissible_ab(rng)
            B *= 1.0 + rel * np.exp(2j * np.pi * rng.uniform())
            found = detect_rational_ab(ab_symbol(A, B)) is not None
            assert found is degenerate
            assert (build_recurrence(A, B).case_tag == CASE_DEGENERATE) is found

    def test_b_zero_rejected(self):
        with pytest.raises(ValueError):
            build_recurrence(1.0, 0.0)

    @pytest.mark.parametrize("A, B", [(complex("nan"), 1.0), (0.0, float("inf")), (float("-inf"), 1j)])
    def test_non_finite_rejected(self, A, B):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                build_recurrence(A, B)
            assert not reduced_matrix_check(A, B, 6)


class TestCoefficients:
    def test_degenerate_family(self):
        data = build_recurrence(-1.0, 2.0)
        p = coefficients_via_recurrence(data, 5)
        expected = np.zeros(6)
        expected[5] = 0.5
        expected[4] = -0.5
        assert np.allclose(p.coefficients, expected, atol=1e-12)

    def test_degenerate_family_memory(self):
        # p_n has two nonzero coefficients; nothing of the basis below it is built
        data = build_recurrence(1.0, -2.0)
        tracemalloc.start()
        try:
            p = coefficients_via_recurrence(data, 8000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert np.flatnonzero(p.coefficients).tolist() == [7999, 8000]

    # exact in binary: (1, -2), (1j, -2j), (2, -2.5); the seeded pairs and the
    # 1e-13 perturbation meet the relation only to rounding or to that slack
    @pytest.mark.parametrize("A, B", [
        (1.0, -2.0), (1j, -2j), (2.0, -2.5), (1.0, -2.0 * (1 + 1e-13)),
        *(random_admissible_ab(np.random.default_rng(seed)) for seed in range(3)),
    ])
    def test_degenerate_family_hp(self, A, B):
        data = build_recurrence(A, B)
        assert data.case_tag == CASE_DEGENERATE
        for n in range(6, 21):
            p = coefficients_via_recurrence(data, n, precision="hp")
            ref = orthopoly(ab_symbol(A, B), n, precision="hp")
            assert p.hp_coefficients is not None
            with mpmath.workprec(160):
                diff = max(abs(x - y) for x, y in zip(p.hp_coefficients, ref.hp_coefficients))
                assert diff < mpmath.mpf("1e-40")

    def test_degenerate_hp_route(self, monkeypatch):
        # the closed form serves f64, and hp only where the relation is exact in binary
        routed = []
        monkeypatch.setattr(
            recurrence.oracle_mod, "orthopoly", lambda phi, n, precision: routed.append(precision)
        )
        rounded = random_admissible_ab(np.random.default_rng(0))
        for A, B in [(1.0, -2.0), (1j, -2j), (2.0, -2.5), rounded]:
            coefficients_via_recurrence(build_recurrence(A, B), 7, precision="hp")
        coefficients_via_recurrence(build_recurrence(*rounded), 7)
        assert routed == ["hp"]

    def test_nan_coefficient_is_singular_border(self, monkeypatch):
        # a NaN below the leading coefficient fails the residual check
        real = recurrence._simple_roots

        def poisoned(*args):
            coeffs = real(*args)
            coeffs[1] = complex("nan")
            return coeffs

        monkeypatch.setattr(recurrence, "_simple_roots", poisoned)
        with pytest.raises(SingularBorder, match="residual"):
            coefficients_via_recurrence(build_recurrence(0.0, 1.0), 8)

    @pytest.mark.parametrize("bad", [complex("nan"), complex("inf")])
    def test_non_finite_at_degree_two_is_singular_border(self, monkeypatch, bad):
        # below degree 3 the recurrence residual is 0; the coefficient size check
        # still raises before the norm check, which rejects a non-finite polynomial
        real = recurrence._simple_roots

        def poisoned(*args):
            coeffs = real(*args)
            coeffs[0] = bad
            return coeffs

        monkeypatch.setattr(recurrence, "_simple_roots", poisoned)
        with pytest.raises(SingularBorder, match="residual"):
            coefficients_via_recurrence(build_recurrence(0.0, 1.0), 2)

    @pytest.mark.parametrize("n", list(range(2, 13)))
    def test_unit_pole_matches_oracle(self, n):
        data = build_recurrence(0.0, 1.0)
        fast = coefficients_via_recurrence(data, n)
        ref = orthopoly(ab_symbol(0.0, 1.0), n, precision="f64")
        assert np.max(np.abs(fast.coefficients - ref.coefficients)) < 1e-9

    def test_low_degree_falls_through(self):
        data = build_recurrence(0.0, 1.0)
        for n in (0, 1):
            fast = coefficients_via_recurrence(data, n)
            ref = orthopoly(ab_symbol(0.0, 1.0), n, precision="f64")
            assert np.max(np.abs(fast.coefficients - ref.coefficients)) < 1e-12

    def test_random_pairs_match_oracle(self):
        rng = np.random.default_rng(42)
        done = 0
        while done < 30:
            A, B = random_generic_ab(rng)
            data = build_recurrence(A, B)
            if data.in_boundary_band:
                continue
            n = int(rng.integers(2, 41))
            fast = coefficients_via_recurrence(data, n)
            ref = orthopoly(ab_symbol(A, B), n, precision="f64")
            assert np.max(np.abs(fast.coefficients - ref.coefficients)) < 1e-9
            res = recurrence_residual(data, fast.coefficients)
            assert res <= 1e-10 * np.max(np.abs(fast.coefficients))
            done += 1

    def test_not_a_monomial(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            A, B = random_generic_ab(rng)
            data = build_recurrence(A, B)
            if data.case_tag != CASE_SIMPLE or data.in_boundary_band:
                continue
            p = coefficients_via_recurrence(data, 9)
            low = np.max(np.abs(p.coefficients[:2]))
            assert low > 1e-12 * np.max(np.abs(p.coefficients))

    def test_root_label_symmetry(self):
        data = build_recurrence(0.5 + 0.5j, 1.5 - 0.25j)
        assert data.case_tag == CASE_SIMPLE
        swapped = dataclasses.replace(data, roots=(data.roots[1], data.roots[0]))
        a = coefficients_via_recurrence(data, 11)
        b = coefficients_via_recurrence(swapped, 11)
        assert np.max(np.abs(a.coefficients - b.coefficients)) < 1e-10

    def test_boundary_band_raises(self):
        # tiny B relative to t0 squeezes the discriminant ratio into the band
        data = build_recurrence(2.0, 1e-3)
        assert data.in_boundary_band
        with pytest.raises(CaseBoundary):
            coefficients_via_recurrence(data, 8)

    @pytest.mark.parametrize("B", [1e-5, 1e-6, 1e-7])
    def test_small_b_is_boundary_not_double_root(self, B):
        # disc >= 4|B|^2 > 0, so a ratio (here about |B|^2/2) below the band
        # means nearly merged roots, never a double root: the oracle serves it
        data = build_recurrence(1.0, B)
        assert data.case_tag == CASE_SIMPLE and data.disc_ratio < 1e-9
        assert data.in_boundary_band
        with pytest.raises(CaseBoundary):
            coefficients_via_recurrence(data, 12)

    def test_hp_matches_hp_oracle(self):
        # the first two border systems are ill-conditioned enough that a
        # solver with a singularity threshold refuses them
        cases = [
            (-1.3387574374594724 - 1.364749998023552j, 1.6243679292880695 + 1.7090751949222618j, 40),
            (-1.7150651975498534 - 1.3751970927896493j, 1.8913296420449566 + 1.6530052267100661j, 55),
        ]
        rng = np.random.default_rng(77)
        while len(cases) < 12:
            A, B = random_generic_ab(rng, bound=2.0, min_b=0.4)
            if not build_recurrence(A, B).in_boundary_band:
                cases.append((A, B, int(rng.integers(4, 49))))
        for A, B, n in cases:
            fast = coefficients_via_recurrence(build_recurrence(A, B), n, precision="hp")
            ref = orthopoly(ab_symbol(A, B), n, precision="hp")
            with mpmath.workprec(160):
                diff = max(
                    abs(x - y)
                    for x, y in zip(fast.hp_coefficients, ref.hp_coefficients)
                )
                assert diff < mpmath.mpf("1e-40")

    def test_unknown_precision_tag(self):
        with pytest.raises(ValueError):
            coefficients_via_recurrence(build_recurrence(0.5, 1.0), 6, precision="mp")

    @pytest.mark.parametrize("arith", [_F64, _HP], ids=["f64", "hp"])
    def test_zero_pivot_is_singular_border(self, arith):
        # an aggregated row of exact zeros makes the border system singular
        A, B = 0.5 + 0.5j, 1.5 - 0.25j
        with mpmath.workprec(160):
            if arith is _HP:
                A, B = to_mpc(A), to_mpc(B)
            s = _scalars(A, B)
            with pytest.raises(SingularBorder):
                _simple_roots(s._replace(t3=0 * s.t3, t4=0 * s.t4), 9, arith)

    @pytest.mark.parametrize("n", [0, 1])
    def test_low_degree_keeps_hp(self, n):
        # degrees below the recurrence fall through to the oracle, in hp too
        data = build_recurrence(0.5, 1.0)
        p = coefficients_via_recurrence(data, n, precision="hp")
        ref = orthopoly(ab_symbol(0.5, 1.0), n, precision="hp")
        assert p.hp_coefficients is not None
        with mpmath.workprec(160):
            diff = max(abs(x - y) for x, y in zip(p.hp_coefficients, ref.hp_coefficients))
            assert diff < mpmath.mpf("1e-40")


class TestDoubleRootBranch:
    """No admissible (A, B) reaches the double-root case (discriminant floor),
    so the branch is exercised on synthetic data that satisfies the same
    internal identities: t1 - t0 = -2 conj(t0) lam and t0 = conj(t0) lam^2."""

    def synthetic(self, theta=2.0, mod_t0=2.0, rho=3.0):
        lam = complex(math.cos(theta), math.sin(theta))
        t0 = mod_t0 * lam
        t1 = t0 - 2.0 * np.conj(t0) * lam
        bb = -(t1 + np.conj(t0)).real  # |B|^2 from the defining identity
        assert bb > 0
        t2 = rho - np.conj(t0)
        t3 = rho + t0 * t2 / bb
        t4 = -np.conj(t0) * t2 / bb
        return dataclasses.replace(
            build_recurrence(0.0, math.sqrt(bb)),
            A=0j,
            B=complex(math.sqrt(bb)),
            rho=rho,
            t0=t0,
            t1=t1,
            t2=t2,
            t3=t3,
            t4=t4,
            disc=0.0,
            disc_ratio=0.0,
            case_tag=CASE_DOUBLE,
            roots=None,
            double_root=lam,
        )

    def test_internal_consistency(self):
        data = self.synthetic()
        # full validation cannot hold: there is no underlying symbol
        with pytest.raises(SingularBorder):
            coefficients_via_recurrence(data, 9)

    def test_formulas_satisfy_recurrence(self):
        data = self.synthetic()
        n = 9
        c = np.array(_double_root(data, n, _F64))
        # three-term recurrence on the interior coefficients
        res = recurrence_residual(data, c)
        assert res < 1e-10 * np.max(np.abs(c))
        # aggregated-row identity and positive leading coefficient
        assert abs(data.t3 * c[0] + data.t4 * c[1]) < 1e-10 * np.max(np.abs(c))
        assert c[n].real > 0 and abs(c[n].imag) < 1e-12
        # boundary rows at t = 1/c_n
        lam = data.double_root
        t = 1.0 / c[n].real
        row_upper = data.t0 * c[n - 2] + (data.t1 - data.t0) * c[n - 1] + np.conj(
            data.t0
        ) * c[n]
        assert abs(row_upper - t) < 1e-9 * max(1.0, abs(t))
        row_lower = data.t0 * c[n - 1] + data.t1 * c[n]
        assert abs(row_lower + t) < 1e-9 * max(1.0, abs(t))
        assert abs(lam) == pytest.approx(1.0, abs=1e-12)


class TestReductionReplay:
    def test_unit_pole(self):
        assert reduced_matrix_check(0.0, 1.0, 8)

    def test_degenerate_band_vanishes(self):
        assert reduced_matrix_check(-1.0, 2.0, 6)

    def test_random_pairs(self):
        rng = np.random.default_rng(123)
        for _ in range(15):
            A, B = random_generic_ab(rng)
            assert reduced_matrix_check(A, B, 10)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            reduced_matrix_check(0.0, 1.0, 3)

    def test_nan_fails(self):
        with np.errstate(all="ignore"):
            assert not reduced_matrix_check(complex("nan"), 1.0, 6)


class TestBlaschkeFamily:
    @pytest.mark.parametrize("c", [-0.9, -0.5, 0.0, 0.3, 0.9])
    def test_degenerate_iff_centered(self, c):
        phi = blaschke_symbol(c)
        data = build_recurrence(phi.constant_term, phi.pole_terms[0].coefficient)
        if c == 0.0:
            assert data.case_tag == CASE_DEGENERATE
        else:
            assert data.case_tag == CASE_SIMPLE

    def test_matches_oracle(self):
        phi = blaschke_symbol(0.5)
        data = build_recurrence(phi.constant_term, phi.pole_terms[0].coefficient)
        for n in (2, 7, 13):
            fast = coefficients_via_recurrence(data, n)
            ref = orthopoly(phi, n, precision="f64")
            assert np.max(np.abs(fast.coefficients - ref.coefficients)) < 1e-9
