import argparse
import json
import re
import shlex
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from hbortho import OrthoBasis, OrthoPoly, orthobasis, parse_symbol
from hbortho import cli, recurrence
from hbortho.backends import workprec
from hbortho.cli import _basis_json, build_parser, main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasisCommand:
    def test_half_sum_json(self, capsys):
        code, out, _ = run_cli(
            capsys, ["basis", "--symbol=-1;(2,1,1)", "--n", "5", "--precision", "f64"]
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 6
        p3 = payload[3]
        assert p3["degree"] == 3
        coeffs = [c["re"] + 1j * c["im"] for c in p3["coefficients"]]
        assert np.allclose(coeffs, [0, 0, -0.5, 0.5], atol=1e-12)
        assert payload[0]["residual"] < 1e-12

    def test_deterministic_output(self, capsys):
        argv = ["basis", "--symbol", "0;(1,1,1)", "--n", "6", "--precision", "f64"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["basis", "--symbol", "0;(1,1,1)", "--n", "2", "--precision", "f64",
             "--out", "csv"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "degree,power,re,im"
        assert len(lines) == 1 + 1 + 2 + 3

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "basis.json"
        code, out, _ = run_cli(
            capsys,
            ["basis", "--symbol=-1;(2,1,1)", "--n", "2", "--precision", "f64",
             "--output", str(path)],
        )
        assert code == 0
        assert out == ""
        payload = json.loads(path.read_text())
        assert len(payload) == 3

    def test_automatic_precision_above_degree_32(self, capsys):
        argv = ["basis", "--symbol", "0;(1,1,1)", "--n", "40"]
        _, out1, _ = run_cli(capsys, argv)
        _, out2, _ = run_cli(capsys, argv)
        assert out1 == out2
        auto = json.loads(out1)
        assert all(p["residual"] <= 1e-8 for p in auto)
        _, out_hp, _ = run_cli(capsys, argv + ["--precision", "hp"])
        for pa, ph in zip(auto, json.loads(out_hp), strict=True):
            ca = np.array([c["re"] + 1j * c["im"] for c in pa["coefficients"]])
            ch = np.array([c["re"] + 1j * c["im"] for c in ph["coefficients"]])
            assert np.max(np.abs(ca - ch)) <= 1e-10 * np.max(np.abs(ch))


def dict_payload(basis):
    """The payload the basis writer replaces, for ``json.dumps(..., indent=2)``."""
    return [
        {
            "degree": p.degree,
            "coefficients": [{"re": complex(z).real, "im": complex(z).imag} for z in p.coefficients],
            "residual": basis.residual,
        }
        for p in basis.polys
    ]


def bits(values):
    return np.array(values, dtype=np.float64).view(np.uint64)


class TestBasisWriter:
    @pytest.mark.parametrize("precision", [None, "f64"])
    def test_matches_json_dumps(self, precision):
        phi = parse_symbol("0;(1,1,1);(0.5,-1,1)")
        for n in (0, 16, 28, 39, 64, 128):
            basis = orthobasis(phi, n, precision=precision)
            assert _basis_json(basis) == json.dumps(dict_payload(basis), indent=2) + "\n"

    def test_readme_example(self, capsys):
        _, out, _ = run_cli(capsys, ["basis", "--symbol=-1;(2,1,1)", "--n", "8"])
        basis = orthobasis(parse_symbol("-1;(2,1,1)"), 8)
        assert out == json.dumps(dict_payload(basis), indent=2) + "\n"

    def test_special_floats(self):
        nan, inf = float("nan"), float("inf")
        polys = (
            OrthoPoly(0, np.array([complex(nan, inf)])),
            OrthoPoly(1, np.array([complex(-inf, -0.0), complex(5e-324, 1e308)])),
            OrthoPoly(2, np.array([complex(-0.0, nan), 0.1 + 0.2j, complex(1e308, -5e-324)])),
        )
        basis = OrthoBasis(polys, parse_symbol("0;(1,1,1)"), "f64", nan)
        text = _basis_json(basis)
        assert text == json.dumps(dict_payload(basis), indent=2) + "\n"
        assert "NaN" in text and "-Infinity" in text and "-0.0" in text and "5e-324" in text


class TestCsvCells:
    """Every CSV cell is a float repr equal, bit for bit, to the JSON value."""

    def test_basis(self, capsys):
        argv = ["basis", "--symbol", "0;(1,1,1);(0.5,-1,1)", "--n", "12"]
        _, out_json, _ = run_cli(capsys, argv)
        _, out_csv, _ = run_cli(capsys, argv + ["--out", "csv"])
        rows = [line.split(",") for line in out_csv.splitlines()[1:]]
        expected = [
            (p["degree"], k, z["re"], z["im"])
            for p in json.loads(out_json)
            for k, z in enumerate(p["coefficients"])
        ]
        assert [(int(d), int(k)) for d, k, _, _ in rows] == [(d, k) for d, k, _, _ in expected]
        assert np.array_equal(
            bits([float(c) for row in rows for c in row[2:]]),
            bits([v for _, _, re, im in expected for v in (re, im)]),
        )

    def test_gram(self, capsys):
        argv = ["gram", "--symbol", "0;(1,1,1)", "--n", "6"]
        _, out_json, _ = run_cli(capsys, argv)
        _, out_csv, _ = run_cli(capsys, argv + ["--out", "csv"])
        cells = [float(c) for line in out_csv.splitlines() for c in line.split(",")]
        entries = json.loads(out_json)["entries"]
        expected = [v for row in entries for z in row for v in (z["re"], z["im"])]
        assert np.array_equal(bits(cells), bits(expected))


class TestParserCache:
    def test_one_parser(self):
        assert build_parser() is build_parser()

    def test_back_to_back_calls(self, capsys):
        argv = ["basis", "--symbol", "0;(1,1,1)", "--n", "6"]
        _, first, _ = run_cli(capsys, argv)
        _, csv, _ = run_cli(capsys, argv + ["--out", "csv", "--precision", "hp"])
        _, again, _ = run_cli(capsys, argv)
        _, f64, _ = run_cli(capsys, argv + ["--precision", "f64"])
        assert csv.startswith("degree,power,re,im\n")
        assert again == first == f64
        assert build_parser().parse_args(argv).precision is None


class TestGramCommand:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, ["gram", "--symbol=-1;(2,1,1)", "--n", "1"])
        assert code == 0
        payload = json.loads(out)
        entries = payload["entries"]
        values = [[c["re"] + 1j * c["im"] for c in row] for row in entries]
        assert np.allclose(values, [[2, 2], [2, 6]])

    def test_csv_pairs(self, capsys):
        code, out, _ = run_cli(
            capsys, ["gram", "--symbol", "0;(1,1,1)", "--n", "1", "--out", "csv"]
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().splitlines()]
        assert len(rows) == 2 and len(rows[0]) == 4  # re,im pairs per column


class TestRecurrenceCommand:
    def test_verified_run(self, capsys):
        code, out, _ = run_cli(
            capsys, ["recurrence", "--A", "0", "--B", "1", "--n", "8", "--verify"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "simple-roots"
        assert payload["recurrence_residual"] < 1e-10
        assert payload["verify"]["oracle_max_diff"] < 1e-9
        assert payload["verify"]["reduction_replay"] is True

    def test_verify_example_low_degree(self, capsys):
        code, out, _ = run_cli(
            capsys, ["recurrence", "--A", "0", "--B", "1", "--n", "3", "--verify"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verify"]["oracle_max_diff"] < 1e-10

    def test_hp_verified_in_hp(self, capsys):
        argv = ["recurrence", "--A", "0.3", "--B", "1.2", "--n", "20", "--precision", "hp", "--verify"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert json.loads(out)["verify"]["oracle_max_diff"] < 1e-40

    def test_hp_verify_catches_hp_error(self, capsys, monkeypatch):
        # an error of 1e-30 is invisible in float64 and must fail the hp check
        real = recurrence.coefficients_via_recurrence

        def off(data, n, precision):
            poly = real(data, n, precision=precision)
            with workprec():
                hp = tuple(c + mpmath.mpf("1e-30") for c in poly.hp_coefficients)
            return OrthoPoly(n, poly.coefficients, hp_coefficients=hp)

        monkeypatch.setattr(recurrence, "coefficients_via_recurrence", off)
        argv = ["recurrence", "--A", "0.3", "--B", "1.2", "--n", "20", "--precision", "hp", "--verify"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 1
        assert 1e-31 < json.loads(out)["verify"]["oracle_max_diff"] < 1e-29

    def test_boundary_band_reports_failure(self, capsys):
        code, out, _ = run_cli(
            capsys, ["recurrence", "--A", "2", "--B", "0.001", "--n", "8"]
        )
        assert code == 1
        payload = json.loads(out)
        assert "error" in payload

    def test_small_b_reports_failure(self, capsys):
        # a ratio below the band is ambiguous too, not a double root
        code, out, _ = run_cli(capsys, ["recurrence", "--A", "1", "--B", "1e-7", "--n", "12", "--verify"])
        assert code == 1
        payload = json.loads(out)
        assert payload["case"] == "simple-roots" and "error" in payload and "verify" not in payload


class TestStructureCommand:
    def test_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, ["structure", "--symbol", "0;(1,1,1)", "--n", "14"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pole_order"] == 1
        assert payload["band_width"] == 3
        assert payload["confirmed"] is True

    def test_invalid_symbol_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["structure", "--symbol", "0;(0,1,1);(1,1,2)", "--n", "24",
             "--report", "text"],
        )
        assert code == 2
        assert "error" in err

    def test_text_report_valid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["structure", "--symbol", "1;(1,1,1);(1,1,2)", "--n", "24",
             "--report", "text"],
        )
        assert code == 0
        assert "CONFIRMED" in out


class TestBenchCommand:
    def test_small_sizes_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, ["bench", "--symbol", "0;(1,1,1)", "--sizes", "16,24"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,dense_seconds,structured_seconds")
        assert len(lines) == 3

    def test_order_two_symbol(self, capsys):
        code, out, _ = run_cli(
            capsys, ["bench", "--symbol", "1;(1,1,1);(1,1,2)", "--sizes", "64,256,1024"]
        )
        assert code == 0
        header, *rows = out.strip().splitlines()
        column = header.split(",").index("max_coeff_diff")
        assert len(rows) == 3
        assert all(float(row.split(",")[column]) <= 1e-7 for row in rows)

    def test_closed_form_family(self, capsys):
        # the half-sum family goes through the banded factor like any symbol
        code, out, _ = run_cli(
            capsys, ["bench", "--symbol=-1;(2,1,1)", "--sizes", "16,64,512"]
        )
        assert code == 0
        header, *rows = out.strip().splitlines()
        column = header.split(",").index("max_coeff_diff")
        assert len(rows) == 3
        assert all(float(row.split(",")[column]) <= 1e-12 for row in rows)

    def test_repeats(self, capsys, monkeypatch):
        from hbortho import structure

        seen = []
        real = structure.bench_solvers

        def spy(phi, sizes, **kwargs):
            seen.append(kwargs)
            return real(phi, sizes, **kwargs)

        monkeypatch.setattr(structure, "bench_solvers", spy)
        code, out, _ = run_cli(
            capsys,
            ["bench", "--symbol", "0;(1,1,1)", "--sizes", "16", "--repeats", "2"],
        )
        assert code == 0
        assert seen == [{"repeats": 2}]
        assert len(out.strip().splitlines()) == 2

    def test_zero_repeats_is_usage_error(self, capsys):
        argv = ["bench", "--symbol", "0;(1,1,1)", "--sizes", "16", "--repeats", "0"]
        code, out, err = run_cli(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "repeats" in err

    def test_no_sizes_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, ["bench", "--symbol", "0;(1,1,1)", "--sizes", ","])
        assert code == 2 and out == ""
        assert "--sizes" in err


class TestCatalogCommand:
    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, ["catalog"])
        assert code == 0
        payload = json.loads(out)
        names = [row["name"] for row in payload]
        assert names == ["sarason-half", "power-2", "power-3", "blaschke-c"]
        tags = {row["name"]: row["closed_form"] for row in payload}
        assert tags["sarason-half"] == "shifted-monomial family"
        assert tags["power-2"] == "composed shifted-monomial family"
        assert tags["blaschke-c"] == "three-term recurrence"


#: the names ``verify`` prints, in order
VERIFY_CHECKS = [
    "oracle-basis[sarason-half]", "oracle-basis[power-2]", "oracle-basis[power-3]",
    "oracle-basis[blaschke-c]", "closed-form[sarason-half]", "closed-form[power-2]",
    "closed-form[power-3]", "recurrence[blaschke-c]", "recurrence[random-draws]",
    "structured-solve[m=1]", "structured-solve[m=2]", "kernel-truncation[sarason-half]",
    "dirichlet-crosscheck",
]


class TestVerifyCommand:
    def test_seed_42(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--seed", "42"])
        assert code == 0
        *lines, total = out.splitlines()
        assert total == "13/13 checks passed"
        assert len(lines) == len(VERIFY_CHECKS)
        detail = r"\((residual|max diff|defect|relative diff) \d\.\d\de[+-]\d\d\)"
        for name, line in zip(VERIFY_CHECKS, lines):
            assert re.fullmatch(rf"\[ok\] {re.escape(name)} {detail}", line), line

    def test_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, ["verify", "--seed", "7"])
        _, out2, _ = run_cli(capsys, ["verify", "--seed", "7"])
        assert out1 == out2

    @pytest.mark.parametrize(
        "defect, detail",
        [(1.0, "ArithmeticError: defect 1.000e+00"), (float("nan"), "ArithmeticError: defect nan"),
         (ValueError("boom"), "ValueError: boom")],
        ids=["above-tol", "nan", "raises"],
    )
    def test_failed_check(self, capsys, monkeypatch, defect, detail):
        def check(*args):
            if isinstance(defect, Exception):
                raise defect
            return defect

        monkeypatch.setattr(cli, "kernel_truncation_check", check)
        code, out, _ = run_cli(capsys, ["verify"])
        lines = out.splitlines()
        assert code == 1
        assert f"[FAIL] kernel-truncation[sarason-half] ({detail})" in lines
        assert sum(line.startswith("[ok] ") for line in lines) == 12
        assert lines[-1] == "12/13 checks passed"


class TestUsageErrors:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["basis", "--n", "3"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["basis", "--symbol", "0;(1,nan,1)", "--n", "8"],
            ["basis", "--symbol", "0;(nan,1,1)", "--n", "8"],
            ["basis", "--symbol", "nan;(1,1,1)", "--n", "8"],
            ["structure", "--symbol", "0;(1,nan,1)", "--n", "12"],
            ["recurrence", "--A", "nan", "--B", "1", "--n", "6"],
            ["recurrence", "--A", "0", "--B", "1e400", "--n", "6"],
        ],
        ids=lambda argv: " ".join(argv[:3]),
    )
    def test_non_finite_input(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "not finite" in err

    def test_bad_symbol_text(self, capsys):
        code, _, err = run_cli(capsys, ["basis", "--symbol", "zzz", "--n", "3"])
        assert code == 2
        assert "error" in err


def test_parser_surface():
    """Every subcommand and each of its options; adding or removing one is a
    change to the command line interface, made here on purpose."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: sorted(o for a in p._actions for o in a.option_strings) for name, p in sub.choices.items()
    }
    common = ["--help", "-h"]
    assert sorted(o for a in parser._actions for o in a.option_strings) == common
    assert surface == {
        "basis": sorted(common + ["--symbol", "--n", "--precision", "--out", "--output"]),
        "gram": sorted(common + ["--symbol", "--n", "--out", "--output"]),
        "recurrence": sorted(common + ["--A", "--B", "--n", "--precision", "--verify", "--output"]),
        "structure": sorted(common + ["--symbol", "--n", "--report", "--output"]),
        "bench": sorted(common + ["--symbol", "--sizes", "--repeats", "--out", "--output"]),
        "catalog": sorted(common + ["--output"]),
        "verify": sorted(common + ["--seed"]),
    }


def readme_cli_lines():
    """The ``hbortho ...`` lines of the README's CLI block, comments stripped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    return [
        line.split("#", 1)[0].strip()
        for line in block.splitlines()
        if line.startswith("hbortho ")
    ]


def test_readme_covers_every_command():
    commands = {line.split()[1] for line in readme_cli_lines()}
    assert commands == {"basis", "gram", "recurrence", "structure", "bench", "catalog", "verify"}


@pytest.mark.parametrize("line", readme_cli_lines(), ids=lambda line: line.split()[1])
def test_readme_example_runs(capsys, line):
    argv = shlex.split(line)
    code, _, err = run_cli(capsys, argv[1:])
    assert code == 0, err
