"""Command line interface.

Subcommands: basis, gram, recurrence, structure, bench, catalog, verify.
JSON is the canonical output format (complex numbers as {"re": ..., "im":
...} with full round-trip precision); bench tables are CSV.  Exit codes:
0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import closed_forms, recurrence, structure
from . import oracle as oracle_mod
from .catalog import catalog, validate_entry
from .gram import gram_matrix, hb_norm_squared, kernel_truncation_check
from .symbol import PoleTerm, SmirnovSymbol, SymbolError, format_symbol, parse_complex, parse_symbol


def _c(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def _dump(obj, path: str | None) -> None:
    _write_text(json.dumps(obj, indent=2) + "\n", path)


def _write_text(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


#: ``json.dumps(payload, indent=2)`` of one basis polynomial and of one
#: coefficient, for the payload ``_cmd_basis`` writes
_POLY_JSON = '  {\n    "degree": %d,\n    "coefficients": [\n%s\n    ],\n    "residual": %s\n  }'
_COEFF_JSON = '      {\n        "re": %s,\n        "im": %s\n      }'


def _re_im(basis) -> np.ndarray:
    """re, im of every coefficient of p_0, p_1, ..., p_n, interleaved."""
    return np.concatenate([p.coefficients for p in basis.polys]).view(np.float64)


def _basis_json(basis) -> str:
    """``json.dumps(payload, indent=2)`` of the basis payload, written from
    templates: the pure-Python encoder that ``indent`` selects cost 3-7 times
    the f64 solve at n = 28 and 15-23 times at n = 128."""
    values = _re_im(basis)
    # json writes the non-finite floats as NaN, Infinity and -Infinity
    texts = list(map(float.__repr__ if np.isfinite(values).all() else json.dumps, values.tolist()))
    residual = json.dumps(basis.residual)
    polys = []
    start = 0
    for p in basis.polys:
        count = len(p.coefficients)
        coeffs = ",\n".join([_COEFF_JSON] * count) % tuple(texts[start : start + 2 * count])
        polys.append(_POLY_JSON % (p.degree, coeffs, residual))
        start += 2 * count
    return "[\n" + ",\n".join(polys) + "\n]\n"


def _basis_csv(basis) -> str:
    floats = iter(_re_im(basis).tolist())
    lines = ["degree,power,re,im"]
    for p in basis.polys:
        for k in range(len(p.coefficients)):
            lines.append(f"{p.degree},{k},{next(floats)!r},{next(floats)!r}")
    return "\n".join(lines) + "\n"


def _cmd_basis(args) -> int:
    phi = parse_symbol(args.symbol)
    basis = oracle_mod.orthobasis(phi, args.n, precision=args.precision)
    write = _basis_json if args.out == "json" else _basis_csv
    _write_text(write(basis), args.output)
    return 0


def _cmd_gram(args) -> int:
    phi = parse_symbol(args.symbol)
    gm = gram_matrix(phi, args.n)
    if args.out == "json":
        payload = {
            "n": args.n,
            "entries": [[_c(z) for z in row] for row in gm.entries],
        }
        _dump(payload, args.output)
    else:
        # each row as re,im pairs
        lines = [",".join(map(repr, row)) for row in gm.entries.view(np.float64).tolist()]
        _write_text("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_recurrence(args) -> int:
    A = parse_complex(args.A)
    B = parse_complex(args.B)
    data = recurrence.build_recurrence(A, B)
    report: dict = {
        "A": _c(A),
        "B": _c(B),
        "n": args.n,
        "case": data.case_tag,
        "discriminant_ratio": data.disc_ratio,
    }
    status = 0
    try:
        poly = recurrence.coefficients_via_recurrence(data, args.n, precision=args.precision)
        report["coefficients"] = [_c(z) for z in poly.coefficients]
        report["recurrence_residual"] = recurrence.recurrence_residual(
            data, poly.coefficients
        )
    except recurrence.CaseBoundary as exc:
        report["error"] = str(exc)
        status = 1
    if args.verify and status == 0:
        phi = closed_forms.RationalABForm(A, B).symbol()
        reference = oracle_mod.orthopoly(phi, args.n, precision="f64")
        diff = float(np.max(np.abs(reference.coefficients - poly.coefficients)))
        replay_ok = (
            recurrence.reduced_matrix_check(A, B, args.n) if args.n >= 4 else True
        )
        report["verify"] = {
            "oracle_max_diff": diff,
            "reduction_replay": replay_ok,
        }
        if diff > 1e-9 or not replay_ok:
            status = 1
    _dump(report, args.output)
    return status


def _cmd_structure(args) -> int:
    phi = parse_symbol(args.symbol)
    report = structure.detect_structure(phi, args.n)
    if args.report == "text":
        _write_text(report.summary() + "\n", args.output)
    else:
        payload = {
            "pole_order": report.pole_order,
            "reduction_power": report.reduction_power,
            "n": report.size,
            "band_width": report.band_width,
            "low_rank_rows": report.low_rank_rows,
            "low_rank_rank": report.low_rank_rank,
            "diagonal_degrees": list(report.diagonal_degrees),
            "residual": report.residual,
            "scale": report.scale,
            "confirmed": report.confirmed,
        }
        _dump(payload, args.output)
    return 0


def _cmd_bench(args) -> int:
    phi = parse_symbol(args.symbol)
    sizes = [int(s) for s in args.sizes.split(",") if s]
    records = structure.bench_solvers(phi, sizes, repeats=args.repeats)
    header = (
        "n,dense_seconds,structured_seconds,speedup,"
        "max_coeff_diff,dense_residual,structured_residual"
    )
    lines = [header]
    for r in records:
        lines.append(
            f"{r['n']},{r['dense_seconds']!r},{r['structured_seconds']!r},"
            f"{r['speedup']!r},{r['max_coeff_diff']!r},"
            f"{r['dense_residual']!r},{r['structured_residual']!r}"
        )
    _write_text("\n".join(lines) + "\n", args.output)
    return 0


def _closed_form_tag(entry) -> str:
    if closed_forms.detect_rational_ab(entry.phi) is not None:
        return "shifted-monomial family"
    if "N" in entry.parameters and entry.parameters["N"] > 1:
        return "composed shifted-monomial family"
    terms = entry.phi.pole_terms
    if len(terms) == 1 and terms[0].order == 1 and abs(terms[0].pole - 1) < 1e-12:
        return "three-term recurrence"
    return "oracle only"


def _cmd_catalog(args) -> int:
    payload = []
    for entry in catalog():
        payload.append(
            {
                "name": entry.name,
                "phi": format_symbol(entry.phi),
                "parameters": entry.parameters,
                "closed_form": _closed_form_tag(entry),
            }
        )
    _dump(payload, args.output)
    return 0


def _cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    checks: list[tuple[str, bool, str]] = []

    def run(name: str, fn):
        try:
            detail = fn()
            checks.append((name, True, detail or ""))
        except Exception as exc:  # noqa: BLE001 - verification collects all failures
            checks.append((name, False, f"{type(exc).__name__}: {exc}"))

    entries = catalog()

    for entry in entries:
        def check_entry(entry=entry):
            validate_entry(entry)
            basis = oracle_mod.orthobasis(entry.phi, 12, precision="f64")
            if basis.residual > 1e-9:
                raise ArithmeticError(f"residual {basis.residual:.3e}")
            return f"residual {basis.residual:.2e}"

        run(f"oracle-basis[{entry.name}]", check_entry)

    def check_sarason():
        form = closed_forms.detect_rational_ab(entries[0].phi)
        assert form is not None, "detector missed the half-sum symbol"
        closed = closed_forms.rational_ab_basis(form, 16)
        ref = oracle_mod.orthobasis(entries[0].phi, 16, precision="f64")
        diff = _basis_diff(closed, ref)
        if diff > 1e-10:
            raise ArithmeticError(f"max diff {diff:.3e}")
        return f"max diff {diff:.2e}"

    run("closed-form[sarason-half]", check_sarason)

    for N in (2, 3):
        def check_power(N=N):
            closed = closed_forms.power_basis(N, 12)
            ref = oracle_mod.orthobasis(closed.symbol, 12, precision="f64")
            diff = _basis_diff(closed, ref)
            if diff > 1e-9:
                raise ArithmeticError(f"max diff {diff:.3e}")
            return f"max diff {diff:.2e}"

        run(f"closed-form[power-{N}]", check_power)

    def check_blaschke():
        phi = entries[3].phi
        data = recurrence.build_recurrence(
            phi.constant_term, phi.pole_terms[0].coefficient
        )
        worst = 0.0
        for n in (6, 11):
            fast = recurrence.coefficients_via_recurrence(data, n)
            ref = oracle_mod.orthopoly(phi, n, precision="f64")
            worst = max(worst, float(np.max(np.abs(fast.coefficients - ref.coefficients))))
        if worst > 1e-9:
            raise ArithmeticError(f"max diff {worst:.3e}")
        return f"max diff {worst:.2e}"

    run("recurrence[blaschke-c]", check_blaschke)

    def check_random_recurrence():
        worst = 0.0
        for _ in range(20):
            A = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            B = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(B) < 0.25:
                continue
            data = recurrence.build_recurrence(A, B)
            if data.in_boundary_band:
                continue
            n = int(rng.integers(4, 14))
            fast = recurrence.coefficients_via_recurrence(data, n)
            phi = closed_forms.RationalABForm(A, B).symbol()
            ref = oracle_mod.orthopoly(phi, n, precision="f64")
            worst = max(worst, float(np.max(np.abs(fast.coefficients - ref.coefficients))))
            if not recurrence.reduced_matrix_check(A, B, 8):
                raise ArithmeticError("reduction replay failed")
        if worst > 1e-9:
            raise ArithmeticError(f"max diff {worst:.3e}")
        return f"max diff {worst:.2e}"

    run("recurrence[random-draws]", check_random_recurrence)

    def check_structured_m1():
        phi = closed_forms.RationalABForm(0.0, 1.0).symbol()
        fast = structure.structured_solve(phi, 24)
        ref = oracle_mod.orthopoly(phi, 24, precision="f64")
        diff = float(np.max(np.abs(fast.coefficients - ref.coefficients)))
        if diff > 1e-8:
            raise ArithmeticError(f"max diff {diff:.3e}")
        return f"max diff {diff:.2e}"

    run("structured-solve[m=1]", check_structured_m1)

    def check_structured_m2():
        phi = SmirnovSymbol(1.0, (PoleTerm(1.0, 1, 1.0), PoleTerm(1.0, 2, 1.0)))
        fast = structure.structured_solve(phi, 20)
        ref = oracle_mod.orthopoly(phi, 20, precision="f64")
        diff = float(np.max(np.abs(fast.coefficients - ref.coefficients)))
        if diff > 1e-8:
            raise ArithmeticError(f"max diff {diff:.3e}")
        return f"max diff {diff:.2e}"

    run("structured-solve[m=2]", check_structured_m2)

    def check_kernel():
        defect = kernel_truncation_check(entries[0], 0.0, np.array([1.0 + 0j]), 60)
        if defect > 1e-8:
            raise ArithmeticError(f"defect {defect:.3e}")
        return f"defect {defect:.2e}"

    run("kernel-truncation[sarason-half]", check_kernel)

    def check_fm():
        worst = 0.0
        for n in range(13):
            direct = closed_forms.fm_norm_b(n)
            via_gram = hb_norm_squared(entries[0].phi, closed_forms.fm_polynomial(n))
            worst = max(worst, abs(direct**2 - via_gram) / direct**2)
        if worst > 1e-9:
            raise ArithmeticError(f"relative diff {worst:.3e}")
        return f"relative diff {worst:.2e}"

    run("dirichlet-crosscheck", check_fm)

    failures = 0
    for name, ok, detail in checks:
        tag = "ok" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"[{tag}] {name}{suffix}")
        failures += 0 if ok else 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


def _basis_diff(a, b) -> float:
    worst = 0.0
    for pa, pb in zip(a.polys, b.polys):
        worst = max(worst, float(np.max(np.abs(pa.coefficients - pb.coefficients))))
    return worst


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process (about 1.4 ms a build).

    Nothing may mutate it: ``parse_args`` returns a fresh ``Namespace`` each
    call, so requests share no state through it."""
    parser = argparse.ArgumentParser(
        prog="hbortho",
        description="Orthonormal polynomial bases of H(b) spaces with rational symbols",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="orthonormal basis via the dense oracle")
    p.add_argument("--symbol", required=True, help='symbol text, e.g. "-1;(2,1,1)"')
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--precision", choices=["f64", "hp"], default=None,
        help="backend (default: HB_PRECISION if set, else f64 when the conditioning bound "
        "allows it, verified to residual 1e-8 and recomputed in hp if it fails)",
    )
    p.add_argument("--out", choices=["json", "csv"], default="json")
    p.add_argument("--output", default=None, help="path (default: stdout)")
    p.set_defaults(fn=_cmd_basis)

    p = sub.add_parser("gram", help="Gram matrix of monomial inner products")
    p.add_argument("--symbol", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", choices=["json", "csv"], default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_gram)

    p = sub.add_parser("recurrence", help="closed-form solver for A + B/(1-z)")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--precision", choices=["f64", "hp"], default="f64")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_recurrence)

    p = sub.add_parser("structure", help="measure the reduced banded structure")
    p.add_argument("--symbol", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--report", choices=["json", "text"], default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_structure)

    p = sub.add_parser("bench", help="dense vs structured solver timings")
    p.add_argument("--symbol", required=True)
    p.add_argument("--sizes", required=True, help="comma separated, e.g. 64,256,1024")
    p.add_argument("--repeats", type=int, default=1, help="best of this many timings")
    p.add_argument("--out", choices=["csv"], default="csv")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("catalog", help="list built-in symbols and their closed forms")
    p.add_argument("--output", default=None)
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("verify", help="run the full cross-check suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SymbolError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
