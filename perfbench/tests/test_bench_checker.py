import dataclasses
import json

import numpy as np
import pytest

import checker
import workloads
from hbortho import orthopoly, structured_solve
from hbortho.structure import system_residual


def _request(label, n, cls, tmp_path, seed=0):
    return workloads._request(np.random.default_rng(seed), 0, label, n, cls, str(tmp_path))


def test_residual_matches_program_definition():
    rng = np.random.default_rng(1)
    for cls in ("o1", "o2", "m2", "m3", "stream"):
        spec = workloads._spec(rng, cls)
        phi = spec.build()
        for n in (3, 40, 300):
            c = orthopoly(phi, n, precision="f64").coefficients
            # away from roundoff the two implementations agree to many digits
            c = c * (1 + 1e-6 * rng.standard_normal(n + 1))
            ours = checker.relative_residual(spec.taylor(n + 1), c)
            theirs = system_residual(phi, c)
            assert ours == pytest.approx(theirs, rel=1e-6)


def test_accepts_a_correct_result(tmp_path):
    req = _request("structured", 256, "o1", tmp_path)
    verdict = checker.check(req, structured_solve(req.phi, req.n))
    assert verdict.ok and verdict.residual < 1e-12


@pytest.mark.parametrize(
    "corrupt, reason",
    [
        (lambda c: c + 1e-6 * np.abs(c).max() * (np.arange(len(c)) == 0), "accuracy"),
        (lambda c: -c, "leading"),
        (lambda c: np.where(np.arange(len(c)) == 3, np.nan, c), "nonfinite"),
        (lambda c: c[:-1], "malformed"),
    ],
)
def test_rejects_a_corrupted_result(tmp_path, corrupt, reason):
    req = _request("orthopoly", 64, "m1", tmp_path)
    good = orthopoly(req.phi, req.n, precision="f64")
    bad = dataclasses.replace(good, coefficients=corrupt(good.coefficients))
    assert checker.check(req, bad).reason == reason


def test_rejects_a_corrupted_basis_member(tmp_path):
    req = _request("orthobasis", 12, "m1", tmp_path)
    basis = workloads.execute(req)
    polys = list(basis.polys)
    polys[5] = dataclasses.replace(polys[5], coefficients=polys[5].coefficients * 1.01)
    assert checker.check(req, basis).ok
    assert checker.check(req, dataclasses.replace(basis, polys=tuple(polys))).reason == "accuracy"


def test_raised_and_nonzero_exit_are_failures(tmp_path):
    req = _request("structured", 64, "o1", tmp_path)
    assert checker.check(req, workloads.Raised("NumericalBreakdown")).reason == "raised:NumericalBreakdown"
    cli = _request("cli-catalog", None, "none", tmp_path)
    assert checker.check(cli, workloads.CliOutcome(1, "")).reason == "exit:1"


def test_cli_basis_file_is_checked(tmp_path):
    req = _request("cli-basis", 10, "r2", tmp_path)
    outcome = workloads.execute(req)
    with open(req.output) as fh:
        payload = json.load(fh)
    assert checker.check(req, outcome).ok  # reads and removes the file
    payload[4]["coefficients"][0]["re"] += 1e-3
    with open(req.output, "w") as fh:
        json.dump(payload, fh)
    assert checker.check(req, outcome).reason == "accuracy"


def test_verify_must_pass_every_check(tmp_path):
    req = _request("cli-verify", None, "none", tmp_path)
    assert checker.check(req, workloads.CliOutcome(0, "[ok] a\n12/12 checks passed\n")).ok
    assert checker.check(req, workloads.CliOutcome(0, "[FAIL] a\n11/12 checks passed\n")).reason == "verify"


@pytest.mark.parametrize("label, n, cls", [
    ("cli-basis", 33, "catalog"), ("cli-basis-f64", 20, "r1"), ("cli-recurrence", None, "o1"),
    ("cli-structure", 32, "o2"), ("cli-catalog", None, "none"), ("cli-verify", None, "none"),
])
def test_every_cli_command_verifies(tmp_path, label, n, cls):
    req = _request(label, n, cls, tmp_path)
    assert checker.check(req, workloads.execute(req)).ok
