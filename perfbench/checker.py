"""One output checker for every workload, independent of the program's code.

A result is verified when every polynomial it returns has finite
coefficients, the stated degree, a real positive leading coefficient and a
relative residual of at most ``TOL`` in the orthogonality system.  The
residual is the one ``structure.system_residual`` defines,

    max |S c - e_n / c_n|  /  (max |S c| + 1),     S c = c + T T^H c,

with T the lower-triangular Toeplitz matrix of phi's Taylor coefficients,
but both the coefficients and the Toeplitz products are computed here from
the benchmark's own symbol description.  A failure is returned as a reason,
never raised.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass

import numpy as np

from workloads import CATALOG_NAMES, CliOutcome, Raised, Request

#: the stated accuracy: largest relative residual a verified polynomial may have
TOL = 1e-8

#: largest |Im c_n| / max |c_k| still read as a real leading coefficient
REAL_TOL = 1e-10

_VERIFY_LINE = re.compile(r"^(\d+)/(\d+) checks passed$")


@dataclass(frozen=True)
class Verdict:
    reason: str | None  # None when the result is verified
    residual: float | None = None  # worst relative residual, when polynomials came back
    out_bytes: int = 0  # bytes the CLI printed or wrote

    @property
    def ok(self) -> bool:
        return self.reason is None


def relative_residual(phi: np.ndarray, c: np.ndarray) -> float:
    """Relative residual of the orthogonality system for coefficients c."""
    n1 = len(c)
    size = 1 << (2 * n1 - 1).bit_length()
    phi = phi[:n1]
    # (T^H c)_j = sum_k conj(phi_k) c_{j+k}: conj(phi) convolved with c reversed
    th_c = np.fft.ifft(np.fft.fft(np.conj(phi), size) * np.fft.fft(c[::-1], size))[:n1][::-1]
    sc = c + np.fft.ifft(np.fft.fft(phi, size) * np.fft.fft(th_c, size))[:n1]
    target = np.zeros(n1, dtype=complex)
    target[-1] = 1.0 / c[-1].real
    return float(np.max(np.abs(sc - target)) / (np.max(np.abs(sc)) + 1.0))


def check_polys(phi: np.ndarray, polys) -> tuple[str | None, float | None]:
    """Check a family of (degree, coefficients); returns (reason, worst residual)."""
    worst = 0.0
    for degree, coeffs in polys:
        c = np.asarray(coeffs, dtype=complex)
        if c.ndim != 1 or len(c) != degree + 1:
            return "malformed", None
        if not np.isfinite(c).all():
            return "nonfinite", None
        lead = c[-1]
        if not (lead.real > 0 and abs(lead.imag) <= REAL_TOL * np.max(np.abs(c))):
            return "leading", None
        res = relative_residual(phi, c)
        if not res <= TOL:  # also catches nan
            return "accuracy", res
        worst = max(worst, res)
    return None, worst


def check(req: Request, outcome) -> Verdict:
    """Verdict on one request's outcome (see the module docstring)."""
    if isinstance(outcome, Raised):
        return Verdict(f"raised:{outcome.error}")
    if isinstance(outcome, CliOutcome):
        return _check_cli(req, outcome)
    phi = req.spec.taylor(req.n + 1)
    if req.label == "orthobasis":
        polys = [(p.degree, p.coefficients) for p in outcome.polys]
        if len(polys) != req.n + 1:
            return Verdict("malformed")
    else:
        polys = [(outcome.degree, outcome.coefficients)]
        if outcome.degree != req.n:
            return Verdict("malformed")
    reason, worst = check_polys(phi, polys)
    return Verdict(reason, worst)


def _check_cli(req: Request, outcome: CliOutcome) -> Verdict:
    text = outcome.stdout
    if req.output is not None and os.path.exists(req.output):
        with open(req.output) as fh:
            text += fh.read()
        os.remove(req.output)
    size = len(text.encode())
    if outcome.code != 0:
        return Verdict(f"exit:{outcome.code}", out_bytes=size)
    if req.label == "cli-verify":
        lines = text.strip().splitlines()
        m = _VERIFY_LINE.match(lines[-1]) if lines else None
        ok = m is not None and m.group(1) == m.group(2)
        return Verdict(None if ok else "verify", out_bytes=size)
    try:
        payload = json.loads(text)
        reason, worst = _check_payload(req, payload)
    except (ValueError, KeyError, TypeError, IndexError):
        reason, worst = "malformed", None
    return Verdict(reason, worst, size)


def _coeffs(items) -> list[complex]:
    return [complex(z["re"], z["im"]) for z in items]


def _check_payload(req: Request, payload):
    if req.label == "cli-catalog":
        names = tuple(entry["name"] for entry in payload)
        return (None if names == CATALOG_NAMES else "catalog"), None
    if req.label == "cli-structure":
        m = req.spec.max_order
        ok = (
            payload["n"] == req.n
            and payload["pole_order"] == m
            and payload["reduction_power"] == 2 * m
            and 1 <= payload["band_width"] <= req.n + 1
            and isinstance(payload["confirmed"], bool)
            and np.isfinite(payload["residual"])
        )
        return (None if ok else "structure"), None
    if req.label == "cli-recurrence":
        if "verify" not in payload:
            return "malformed", None
        return check_polys(req.spec.taylor(req.n + 1), [(req.n, _coeffs(payload["coefficients"]))])
    # basis: one entry per degree 0..n
    if [p["degree"] for p in payload] != list(range(req.n + 1)):
        return "malformed", None
    phi = req.spec.taylor(req.n + 1)
    return check_polys(phi, [(p["degree"], _coeffs(p["coefficients"])) for p in payload])
