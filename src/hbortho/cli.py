"""Command line interface.

Subcommands: basis, gram, recurrence, structure, bench, catalog, verify.
JSON is the canonical output format (complex numbers as {"re": ..., "im":
...} with full round-trip precision); bench tables are CSV.  Exit codes:
0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from . import closed_forms, recurrence, structure
from . import oracle as oracle_mod
from .backends import workprec
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
    entries = gram_matrix(phi, args.n)
    if args.out == "json":
        payload = {
            "n": args.n,
            "entries": [[_c(z) for z in row] for row in entries],
        }
        _dump(payload, args.output)
    else:
        # each row as re,im pairs
        lines = [",".join(map(repr, row)) for row in entries.view(np.float64).tolist()]
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
        report["recurrence_residual"] = recurrence.recurrence_residual(data, poly.coefficients)
    except recurrence.CaseBoundary as exc:
        report["error"] = str(exc)
        status = 1
    if args.verify and status == 0:
        # an hp result is checked in hp, against the hp oracle
        phi = closed_forms.RationalABForm(A, B).symbol()
        reference = oracle_mod.orthopoly(phi, args.n, precision=args.precision)
        if args.precision == "hp":
            with workprec():
                gaps = [abs(p - q) for p, q in zip(poly.hp_coefficients, reference.hp_coefficients)]
            diff, tol = float(np.max(np.array(gaps, dtype=float))), 1e-40
        else:
            diff, tol = _max_diff([(reference, poly)]), 1e-9
        replay_ok = args.n < 4 or recurrence.reduced_matrix_check(A, B, args.n)
        report["verify"] = {"oracle_max_diff": diff, "reduction_replay": replay_ok}
        if not (diff <= tol and replay_ok):  # a NaN diff fails
            status = 1
    _dump(report, args.output)
    return status


def _cmd_structure(args) -> int:
    phi = parse_symbol(args.symbol)
    report = structure.detect_structure(phi, args.n)
    if args.report == "text":
        _write_text(report.summary() + "\n", args.output)
    else:
        fields = dataclasses.asdict(report)
        del fields["diagonal_tables"]
        _dump({"n" if k == "size" else k: v for k, v in fields.items()}, args.output)
    return 0


def _cmd_bench(args) -> int:
    phi = parse_symbol(args.symbol)
    sizes = [int(s) for s in args.sizes.split(",") if s]
    if not sizes:
        raise ValueError("--sizes lists no size")
    records = structure.bench_solvers(phi, sizes, repeats=args.repeats)
    lines = [",".join(records[0])]
    lines += [",".join(map(repr, r.values())) for r in records]
    _write_text("\n".join(lines) + "\n", args.output)
    return 0


def _closed_form_tag(entry) -> str:
    form = closed_forms._simple_pole_at_one(entry.phi)
    if form is not None and form.satisfies_theorem:
        return "shifted-monomial family"
    if "N" in entry.parameters and entry.parameters["N"] > 1:
        return "composed shifted-monomial family"
    return "oracle only" if form is None else "three-term recurrence"


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
    """Cross-check the closed forms, the recurrence, the structured solver and
    the norm machinery against the dense f64 oracle and each other.

    A row is (name, check); check() returns (what, value, tol) and passes when
    value <= tol, so a NaN value fails, as does a check that raises.  Rows run
    in order; only recurrence[random-draws] draws from the seeded generator.
    """
    rng = np.random.default_rng(args.seed)
    entries = catalog()
    half_sum = entries[0].phi
    m1 = closed_forms.RationalABForm(0.0, 1.0).symbol()
    m2 = SmirnovSymbol(1.0, (PoleTerm(1.0, 1, 1.0), PoleTerm(1.0, 2, 1.0)))
    rows = [(f"oracle-basis[{e.name}]", functools.partial(_check_catalog, e)) for e in entries]
    rows += [
        ("closed-form[sarason-half]", lambda: _check_half_sum(half_sum)),
        ("closed-form[power-2]", lambda: _check_closed_basis(closed_forms.power_basis(2, 12))),
        ("closed-form[power-3]", lambda: _check_closed_basis(closed_forms.power_basis(3, 12))),
        ("recurrence[blaschke-c]", lambda: _check_recurrence(entries[3].phi)),
        ("recurrence[random-draws]", lambda: _check_random_recurrence(rng)),
        ("structured-solve[m=1]", lambda: _check_structured(m1, 24)),
        ("structured-solve[m=2]", lambda: _check_structured(m2, 20)),
        ("kernel-truncation[sarason-half]", lambda: _check_kernel(entries[0])),
        ("dirichlet-crosscheck", lambda: _check_dirichlet(half_sum)),
    ]
    passed = 0
    for name, check in rows:
        try:
            what, value, tol = check()
            if not value <= tol:
                raise ArithmeticError(f"{what} {value:.3e}")
            print(f"[ok] {name} ({what} {value:.2e})")
            passed += 1
        except Exception as exc:  # noqa: BLE001 - verification reports every failure
            print(f"[FAIL] {name} ({type(exc).__name__}: {exc})")
    print(f"{passed}/{len(rows)} checks passed")
    return 0 if passed == len(rows) else 1


def _max_diff(pairs) -> float:
    """Largest |coefficient difference| over (polynomial, polynomial) pairs;
    0.0 for no pairs, NaN if any difference is NaN."""
    diffs = [np.max(np.abs(p.coefficients - q.coefficients)) for p, q in pairs]
    return float(np.max(diffs, initial=0.0))


def _check_catalog(entry):
    validate_entry(entry)
    return "residual", oracle_mod.orthobasis(entry.phi, 12, precision="f64").residual, 1e-9


def _check_closed_basis(closed, tol: float = 1e-9):
    reference = oracle_mod.orthobasis(closed.symbol, len(closed.polys) - 1, precision="f64")
    return "max diff", _max_diff(zip(closed.polys, reference.polys)), tol


def _check_half_sum(phi):
    form = closed_forms.detect_rational_ab(phi)
    if form is None:
        raise AssertionError("detector missed the half-sum symbol")
    return _check_closed_basis(closed_forms.rational_ab_basis(form, 16), 1e-10)


def _check_recurrence(phi):
    data = recurrence.build_recurrence(phi.constant_term, phi.pole_terms[0].coefficient)
    pairs = [
        (recurrence.coefficients_via_recurrence(data, n), oracle_mod.orthopoly(phi, n, precision="f64"))
        for n in (6, 11)
    ]
    return "max diff", _max_diff(pairs), 1e-9


def _check_random_recurrence(rng):
    """20 draws of A + B/(1-z), skipping |B| < 0.25 and the ambiguous band;
    each kept draw also replays the row reduction at n = 8."""
    pairs = []
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
        pairs.append((fast, oracle_mod.orthopoly(phi, n, precision="f64")))
        if not recurrence.reduced_matrix_check(A, B, 8):
            raise ArithmeticError("reduction replay failed")
    return "max diff", _max_diff(pairs), 1e-9


def _check_structured(phi, n: int):
    pair = (structure.structured_solve(phi, n), oracle_mod.orthopoly(phi, n, precision="f64"))
    return "max diff", _max_diff([pair]), 1e-8


def _check_kernel(entry):
    return "defect", kernel_truncation_check(entry, 0.0, np.array([1.0 + 0j]), 60), 1e-8


def _check_dirichlet(phi):
    """||Q_n||^2 of the local Dirichlet family: closed form against the Gram norm."""
    rel = []
    for n in range(13):
        direct = closed_forms.fm_norm_b(n)
        rel.append(abs(direct**2 - hb_norm_squared(phi, closed_forms.fm_polynomial(n))) / direct**2)
    return "relative diff", float(np.max(rel)), 1e-9


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
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None, help="path (default: stdout)")
    symbol_n = argparse.ArgumentParser(add_help=False, parents=[output])
    symbol_n.add_argument("--symbol", required=True, help='symbol text, e.g. "-1;(2,1,1)"')
    symbol_n.add_argument("--n", type=int, required=True)

    p = sub.add_parser("basis", parents=[symbol_n], help="orthonormal basis via the dense oracle")
    p.add_argument(
        "--precision", choices=["f64", "hp"], default=None,
        help="backend (default: f64 when the conditioning bound allows it, verified to "
        "residual 1e-8 and recomputed in hp if it fails; hp otherwise)",
    )
    p.add_argument("--out", choices=["json", "csv"], default="json")
    p.set_defaults(fn=_cmd_basis)

    p = sub.add_parser("gram", parents=[symbol_n], help="Gram matrix of monomial inner products")
    p.add_argument("--out", choices=["json", "csv"], default="json")
    p.set_defaults(fn=_cmd_gram)

    p = sub.add_parser("recurrence", parents=[output], help="closed-form solver for A + B/(1-z)")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--precision", choices=["f64", "hp"], default="f64")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(fn=_cmd_recurrence)

    p = sub.add_parser("structure", parents=[symbol_n], help="measure the reduced banded structure")
    p.add_argument("--report", choices=["json", "text"], default="json")
    p.set_defaults(fn=_cmd_structure)

    p = sub.add_parser("bench", parents=[output], help="dense vs structured solver timings")
    p.add_argument("--symbol", required=True)
    p.add_argument("--sizes", required=True, help="comma separated, e.g. 64,256,1024")
    p.add_argument("--repeats", type=int, default=1, help="best of this many timings (>= 1)")
    p.add_argument("--out", choices=["csv"], default="csv")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("catalog", parents=[output], help="list built-in symbols and their closed forms")
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
