import json
import math
import sys

import numpy as np
import pytest

import run
import tracer
import workloads
from checker import Verdict, check

SMALL = (
    ("structured", 64, "o1"),
    ("structured", 64, "o3"),
    ("orthopoly", 64, "m2"),
    ("orthopoly", 48, "stream"),
    ("orthobasis", 10, "m1"),
    ("cli-basis", 34, "r1"),
    ("cli-recurrence", None, "o1"),
    ("cli-structure", 32, "o1"),
    ("cli-verify", None, "none"),
)


def _requests(tmp_path):
    rng = np.random.default_rng(5)
    return [workloads._request(rng, i, *spec, str(tmp_path)) for i, spec in enumerate(SMALL)]


def _traced(requests):
    t = tracer.Tracer()
    t.install()
    try:
        done = run.run_pass([requests], deadline=math.inf, tracer=t)
    finally:
        t.uninstall()
    return t, done


def _summary(t):
    return tracer.summarize(t.spans, import_s={}, out_bytes=0, untraced_ok_per_s=1.0, traced_ok_per_s=1.0)


def test_install_wraps_every_binding_and_uninstall_restores():
    gram, cli, oracle, symbol = (sys.modules[f"hbortho.{m}"] for m in ("gram", "cli", "oracle", "symbol"))
    package = sys.modules["hbortho"]
    before = (gram.gram_matrix, package.orthopoly, symbol.SmirnovSymbol.taylor, oracle._orthopoly_hp)
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.gram_matrix is gram.gram_matrix is not before[0]
        assert package.orthopoly is oracle.orthopoly is not before[1]
        assert symbol.SmirnovSymbol.taylor is not before[2]
        assert oracle._orthopoly_hp is not before[3]
        assert gram.gram_matrix.__wrapped__ is before[0]
    finally:
        t.uninstall()
    assert (gram.gram_matrix, package.orthopoly, symbol.SmirnovSymbol.taylor, oracle._orthopoly_hp) == before
    assert cli.gram_matrix is before[0]


def test_self_times_add_up_to_traced_wall(tmp_path):
    t, done = _traced(_requests(tmp_path))
    m = _summary(t)
    assert set(m) == set(tracer.PER_LAYER)
    layers = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layers + m["bench.unattributed_s"] == pytest.approx(m["bench.traced_wall_s"], rel=1e-9)
    assert m["bench.traced_wall_s"] <= done.busy_s
    for layer in ("symbol", "gram", "oracle", "recurrence", "structure", "cli"):
        assert m[f"{layer}.calls"] > 0, layer
    assert m["oracle.hp_self_s"] > 0 and m["oracle.f64_self_s"] > 0


def test_only_requests_are_traced(tmp_path):
    requests = _requests(tmp_path)
    t, _ = _traced(requests)
    assert {s.rid for s in t.spans} == {r.rid for r in requests}
    assert sum(s.name == tracer.REQUEST for s in t.spans) == len(requests)
    # the checker runs with the wrappers installed but records nothing
    req = workloads._request(np.random.default_rng(0), 99, "orthopoly", 32, "m1", str(tmp_path))
    outcome = workloads.execute(req)
    count = len(t.spans)
    t.install()
    try:
        assert check(req, outcome).ok
        sys.modules["hbortho.structure"].system_residual(req.phi, outcome.coefficients)
    finally:
        t.uninstall()
    assert len(t.spans) == count


def test_work_counts_repeat_exactly(tmp_path):
    first = _summary(_traced(_requests(tmp_path))[0])
    second = _summary(_traced(_requests(tmp_path))[0])
    for name in ("gram.assemble_entries", "gram.factor_flops", "symbol.coeffs", "structure.calls",
                 "gram.calls", "oracle.calls", "cli.calls", "structure.breakdowns"):
        assert first[name] == second[name], name
    # 65^2 + 49^2 + 11^2 from the dense requests, plus calibration and CLI Gram matrices
    assert first["gram.assemble_entries"] >= 65**2 + 49**2 + 11**2


def test_self_time_subtracts_direct_children():
    spans = [
        tracer.Span("bench.request", 0.0, 10.0, -1, 0, None, 0),
        tracer.Span("oracle.orthopoly", 1.0, 9.0, 0, 0, None, 0),
        tracer.Span("gram.gram_matrix", 2.0, 5.0, 1, 0, None, 0),
        tracer.Span("symbol.SmirnovSymbol.taylor", 2.5, 3.0, 2, 0, None, 0),
        tracer.Span("gram.solve_system_cholesky", 6.0, 8.0, 1, 0, "LinAlgError", 0),
    ]
    assert tracer.self_times(spans) == [2.0, 3.0, 2.5, 0.5, 2.0]
    m = tracer.summarize(spans, import_s={}, out_bytes=0, untraced_ok_per_s=2.0, traced_ok_per_s=1.0)
    assert m["gram.errors"] == 1 and m["oracle.errors"] == 0 and m["gram.factor_refusals"] == 1
    assert m["bench.trace_overhead"] == 0.5


def test_tail_has_ten_samples_beyond_it():
    p, value, beyond = run.tail([float(i) for i in range(200)])
    assert p == run.TAIL_PERCENTILE and beyond >= 10
    p, value, beyond = run.tail([float(i) for i in range(60)])
    assert p < run.TAIL_PERCENTILE and beyond >= 10


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {w.name: w.why for w in workloads.WORKLOADS.values()}
    assert run.WORKLOADS == tuple(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracer.PER_LAYER | run.KNOWN_DEFECTS


def test_correct_means_every_request_verified():
    done = run.Pass()
    done.latencies = [0.01, 0.02]
    done.verdicts = [Verdict(None, 1e-12), Verdict("accuracy", 1e-3)]
    result = json.loads(run.result_line(done, {"ok_per_s": 1.0}, {"ok_per_s": ("1/s", "higher")}))
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)
    done.verdicts = done.verdicts[:1]
    done.latencies = done.latencies[:1]
    assert json.loads(run.result_line(done, {"ok_per_s": 1.0}, {"ok_per_s": ("1/s", "higher")}))["correct"]


def test_refuses_to_run_with_hb_precision(monkeypatch, capsys):
    monkeypatch.setenv("HB_PRECISION", "hp")
    assert run.main(["--workload", "pn-dense", "--seed", "1"]) == 2
    assert "HB_PRECISION" in capsys.readouterr().err
