"""Acceptance suite: one test per acceptance criterion, pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import math
import time

import numpy as np
import pytest

from conftest import max_basis_diff, random_admissible_ab, random_generic_ab
from hbortho import (
    FM_NORM_LIMIT,
    FM_NORM_RATIO,
    PoleTerm,
    RationalABForm,
    SmirnovSymbol,
    apply_shift_reduction,
    bench_solvers,
    blaschke_symbol,
    build_recurrence,
    catalog,
    coefficients_via_recurrence,
    compose_basis,
    compose_monomial,
    detect_structure,
    fm_norm_b,
    fm_polynomial,
    gram_matrix,
    hb_norm_squared,
    monomial_orthogonality_witness,
    orthobasis,
    orthopoly,
    power_basis,
    power_symbol,
    rational_ab_basis,
    recurrence_residual,
    reduced_matrix_check,
    rotate_basis,
    rotate_symbol,
    sarason_symbol,
    structured_solve,
)
from hbortho.structure import _newton_eval


def report(num, ok, detail):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_half_sum_family():
    """Oracle reproduces the explicit two-term family up to degree 32."""
    t0 = time.perf_counter()
    basis = orthobasis(sarason_symbol(), 32, precision="f64")
    closed = rational_ab_basis(RationalABForm(-1.0, 2.0), 32)
    diff = max_basis_diff(basis, closed)
    elapsed = time.perf_counter() - t0
    report(
        1,
        diff <= 1e-10 and elapsed < 1.0,
        f"max coeff diff {diff:.2e} (tol 1e-10), runtime {elapsed:.3f}s (< 1s)",
    )


def test_criterion_02_admissible_pairs():
    """Shifted-monomial closed form vs oracle plus the two norm values."""
    rng = np.random.default_rng(202)
    worst_basis = 0.0
    worst_norm = 0.0
    for _ in range(20):
        A, B = random_admissible_ab(rng)
        form = RationalABForm(A, B)
        phi = form.symbol()
        closed = rational_ab_basis(form, 10)
        ref = orthobasis(phi, 10, precision="f64")
        worst_basis = max(worst_basis, max_basis_diff(closed, ref))
        a = abs(A)
        norm0 = math.sqrt(hb_norm_squared(phi, np.array([1.0])))
        worst_norm = max(
            worst_norm, abs(norm0 - math.sqrt(1 + 1 / a**2)) / (1 + norm0)
        )
        n = int(rng.integers(1, 11))
        q = np.zeros(n + 1, dtype=complex)
        q[n] = 1.0
        q[n - 1] = -1.0
        normn = math.sqrt(hb_norm_squared(phi, q))
        worst_norm = max(worst_norm, abs(normn - (a + 1 / a)) / (1 + normn))
    report(
        2,
        worst_basis <= 1e-9 and worst_norm <= 1e-10,
        f"20 pairs: basis diff {worst_basis:.2e} (tol 1e-9), "
        f"norm deviation {worst_norm:.2e} (tol 1e-10)",
    )


def test_criterion_03_power_families():
    """Explicit basis for the degree-N half-sum symbols vs oracle."""
    worst = 0.0
    for N in (1, 2, 3, 4):
        closed = power_basis(N, 24)
        ref = orthobasis(power_symbol(N), 24, precision="f64")
        worst = max(worst, max_basis_diff(closed, ref))
    report(3, worst <= 1e-9, f"N in 1..4, degrees <= 24: max diff {worst:.2e} (tol 1e-9)")


def test_criterion_04_composition_law():
    """Re-indexing transport under z -> z^N vs oracle on the composed symbol."""
    unit_pole = SmirnovSymbol(0.0, (PoleTerm(1.0, 1, 1.0),))
    worst = 0.0
    for phi in (unit_pole, blaschke_symbol(0.5)):
        for N in (2, 3):
            base_deg = (18 + 1 + N - 1) // N  # composed degrees cover 0..18
            base = orthobasis(phi, base_deg, precision="f64")
            composed = compose_basis(base, N)
            ref = orthobasis(compose_monomial(phi, N), 18, precision="f64")
            worst = max(worst, max_basis_diff(composed, ref, upto=18))
    report(4, worst <= 1e-9, f"N in {{2,3}}, degrees <= 18: max diff {worst:.2e} (tol 1e-9)")


def test_criterion_05_rotation_equivariance():
    """Phase transport of a basis vs the oracle on the rotated symbol."""
    worst = 0.0
    for phi in (sarason_symbol(), blaschke_symbol(0.5)):
        for gamma in (math.pi / 3, math.pi):
            basis = orthobasis(phi, 16, precision="f64")
            transported = rotate_basis(basis, gamma)
            direct = orthobasis(rotate_symbol(phi, gamma), 16, precision="f64")
            worst = max(worst, max_basis_diff(transported, direct))
    report(5, worst <= 1e-9, f"gamma in {{pi/3, pi}}: max diff {worst:.2e} (tol 1e-9)")


def test_criterion_06_recurrence_solver():
    """Closed recurrence vs oracle over 100 random coefficient pairs."""
    rng = np.random.default_rng(606)
    t0 = time.perf_counter()
    worst_diff = 0.0
    worst_res = 0.0
    done = 0
    while done < 100:
        A, B = random_generic_ab(rng, bound=3.0, min_b=0.05)
        data = build_recurrence(A, B)
        if data.in_boundary_band:
            continue
        n = int(rng.integers(2, 41))
        fast = coefficients_via_recurrence(data, n)
        ref = orthopoly(SmirnovSymbol(A, (PoleTerm(1.0, 1, B),)), n, precision="f64")
        worst_diff = max(
            worst_diff, float(np.max(np.abs(fast.coefficients - ref.coefficients)))
        )
        top = float(np.max(np.abs(fast.coefficients)))
        res = recurrence_residual(data, fast.coefficients)
        worst_res = max(worst_res, res / top)
        done += 1
    elapsed = time.perf_counter() - t0
    report(
        6,
        worst_diff <= 1e-9 and worst_res <= 1e-10 and elapsed < 30.0,
        f"100 pairs, n <= 40: max diff {worst_diff:.2e} (tol 1e-9), "
        f"residual/max|c| {worst_res:.2e} (tol 1e-10), runtime {elapsed:.2f}s (< 30s)",
    )


def test_criterion_07_reduction_replay():
    """Elementary row operations reproduce the reduced band pattern."""
    rng = np.random.default_rng(707)
    failures = 0
    for _ in range(50):
        A, B = random_generic_ab(rng, bound=3.0, min_b=0.05)
        if not reduced_matrix_check(A, B, 12):
            failures += 1
    report(7, failures == 0, f"50 pairs at n=12: {failures} replay mismatches (tol 1e-9 of scale)")


def test_criterion_08_double_pole_structure():
    """Pentadiagonal plus trailing-row structure for order-2 poles.

    The diagonal equals 1 + r0 (r0+r1+r2) -- the sum of the identity band's
    contribution and the correlation constant -- and the first superdiagonal
    equals the constant -(4 + 4 r0^2 + 4 r0 r1 + 2 r0 r2 + r1^2 + r1 r2),
    both derived by exact symbolic finite differencing of the inner-product
    sums and independent of the row index.
    """
    rng = np.random.default_rng(808)
    n = 24
    worst_out = 0.0
    worst_diag = 0.0
    worst_super = 0.0
    for _ in range(20):
        r0, r1, r2 = rng.uniform(-2, 2, size=3)
        if abs(r2) < 0.1:
            r2 = 1.0
        terms = []
        if r1 != 0:
            terms.append(PoleTerm(1.0, 1, r1))
        terms.append(PoleTerm(1.0, 2, r2))
        phi = SmirnovSymbol(r0, tuple(terms))
        reduced = apply_shift_reduction(np.conj(gram_matrix(phi, n)), 4)
        scale = float(np.max(np.abs(reduced)))
        for k in range(n - 4):
            for j in range(n + 1):
                if j < k or j > k + 4:
                    worst_out = max(worst_out, abs(reduced[k, j]) / scale)
        diag_expect = 1.0 + r0 * (r0 + r1 + r2)
        super_expect = -(4 + 4 * r0**2 + 4 * r0 * r1 + 2 * r0 * r2 + r1**2 + r1 * r2)
        for k in range(n - 4):
            worst_diag = max(worst_diag, abs(reduced[k, k] - diag_expect) / scale)
            worst_super = max(
                worst_super, abs(reduced[k, k + 1] - super_expect) / scale
            )
    ok = worst_out <= 1e-10 and worst_diag <= 1e-10 and worst_super <= 1e-10
    report(
        8,
        ok,
        f"20 real triples at n=24: off-pattern {worst_out:.2e}, diagonal "
        f"{worst_diag:.2e}, superdiagonal {worst_super:.2e} (all tol 1e-10 of scale)",
    )


def test_criterion_09_order_three_probe():
    """The order-3 reduction report is produced with raw residual accounting."""
    phi = SmirnovSymbol(0.0, (PoleTerm(1.0, 3, 1.0),))
    rep = detect_structure(phi, 40)
    # independent residual recomputation from the report's own fit tables
    reduced = apply_shift_reduction(np.conj(gram_matrix(phi, 40)), 6)
    banded = np.zeros_like(reduced)
    for off, (deg, table) in enumerate(zip(rep.diagonal_degrees, rep.diagonal_tables)):
        if deg is None or deg < 0:
            continue
        rows = np.arange(reduced.shape[0] - off)
        banded[rows, rows + off] = _newton_eval(table, rows)
    conforming = reduced.shape[0] - 7
    recomputed = float(np.max(np.abs((reduced - banded)[:conforming])))
    ok = (
        rep.pole_order == 3
        and rep.reduction_power == 6
        and len(rep.diagonal_degrees) == 7
        and abs(recomputed - rep.residual) <= 1e-12 * max(rep.scale, 1.0)
    )
    report(
        9,
        ok,
        f"m=3, n=40 report emitted; {rep.summary()}",
    )


def test_criterion_10_dirichlet_crosscheck():
    """Binet sum, closed geometric form and the norm formula agree."""
    phi = sarason_symbol()
    worst = 0.0
    for n in range(21):
        # fm_norm_b itself asserts the Binet sum against the geometric form
        direct = fm_norm_b(n) ** 2
        via_formula = hb_norm_squared(phi, fm_polynomial(n))
        worst = max(worst, abs(direct - via_formula) / direct)
    ratio = fm_norm_b(30) / FM_NORM_RATIO**30
    ratio_dev = abs(ratio - FM_NORM_LIMIT) / FM_NORM_LIMIT
    report(
        10,
        worst <= 1e-9 and ratio_dev <= 0.01,
        f"three-way norm agreement {worst:.2e} (tol 1e-9); growth-constant "
        f"deviation {ratio_dev:.2%} at n=30 (tol 1%)",
    )


def test_criterion_11_monomial_witness():
    """Every nontrivial catalog symbol has a non-orthogonal monomial pair."""
    missing = []
    pairs = {}
    for entry in catalog():
        pair = monomial_orthogonality_witness(entry.phi, 8)
        if pair is None:
            missing.append(entry.name)
        else:
            pairs[entry.name] = pair
    report(
        11,
        not missing,
        f"witness pairs within j < k <= 8: {pairs}" if not missing else f"missing: {missing}",
    )


def test_criterion_12_structured_performance():
    """Structured solver equals the dense oracle and wins at scale."""
    phi = SmirnovSymbol(0.0, (PoleTerm(1.0, 1, 1.0),))
    fast64 = structured_solve(phi, 64)
    ref64 = orthopoly(phi, 64, precision="f64")
    diff64 = float(np.max(np.abs(fast64.coefficients - ref64.coefficients)))

    records = bench_solvers(phi, [2048], repeats=3)
    speedup = records[0]["speedup"]
    if speedup < 10.0:
        print(
            f"[criterion 12] note: measured speedup {speedup:.1f}x is below the "
            "10x target (hard floor is 3x)"
        )
    report(
        12,
        diff64 <= 1e-8 and speedup >= 3.0,
        f"n=64 agreement {diff64:.2e} (tol 1e-8); n=2048 speedup {speedup:.1f}x "
        f"(target 10x, hard floor 3x; dense {records[0]['dense_seconds']:.3f}s vs "
        f"structured {records[0]['structured_seconds']:.3f}s)",
    )
