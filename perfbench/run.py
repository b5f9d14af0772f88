"""Seeded request benchmark for hbortho.

    python3 perfbench/run.py --workload pn-structured --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the root of a source checkout; the package is loaded from ``src/``.
Workloads (see ``workloads.py``): ``pn-structured``, ``pn-dense`` and
``cli-session``, each a closed loop with one client in this process.  BLAS is
pinned to one thread and ``HB_PRECISION`` must be unset.

``--trace 0`` runs whole rounds of requests until ``--seconds`` of request
time have passed and prints the end-to-end metrics.  Their times are scaled
to a reference host speed (``hostspeed.py``): a fixed kernel is timed next
to the requests and set-ups, so that the host's changes of speed cancel out;
the report prints the wall-clock figures beside them.  ``--trace 1`` runs the
workload's fixed number of rounds twice, untraced and then traced, and
prints the per-layer metrics, so their work counts repeat exactly for a
seed.  Every run first sets up three times (here and in two child
processes) and reports the median, scaled like the requests, as ``setup_s``.

Every request's output is checked outside the timed region (``checker.py``);
a failure is counted, never retried.  The workloads hold only requests the
program is expected to get right, so ``correct`` means that every output was
verified.  Requests the program is known to get wrong (breakdowns of the
structured solver at pole order >= 2, its sporadic loss of accuracy at large
n, f64 oracle residuals above 1e-8) form
each workload's *probe*: it runs after the timed pass, untimed, and its
failures are reported on their own lines and, with ``--trace 1``, as the
``known_defects.*`` metrics, never in ``failed``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import ctypes
import os

_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in _BLAS_ENV:
    os.environ[_name] = "1"  # before numpy loads (hostspeed imports it); child processes inherit it

#: glibc's mmap threshold, held fixed: by default it rises to the size of the
#: largest array freed so far, so peak memory depended on the order of requests
MMAP_THRESHOLD = 256 * 1024
os.environ["MALLOC_MMAP_THRESHOLD_"] = str(MMAP_THRESHOLD)  # child processes
try:
    ctypes.CDLL(None).mallopt(-3, MMAP_THRESHOLD)  # this process; -3 is M_MMAP_THRESHOLD
except (OSError, AttributeError):  # not glibc
    pass

import argparse
import gc
import importlib
import importlib.util
import itertools
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import hostspeed
from tracer import LAYERS, PER_LAYER, Span, Tracer, largest_self, summarize

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("pn-structured", "pn-dense", "cli-session")
WORK_DIR = ROOT / ".bench_build" / "perfbench"

#: set-ups per run (this process plus child processes); setup_s is their median
SETUP_SAMPLES = 3

#: percentile reported as req_tail_ms; every run has at least ten samples beyond it
TAIL_PERCENTILE = 90

#: percentile of the verified residuals reported as digits_p10: the worst one
#: alone depends on the rarest symbol a run happens to draw
DIGITS_PERCENTILE = 90

#: a timed run also needs this many requests, so the tail has ten beyond it
MIN_REQUESTS = 100

#: a kernel sample is taken before a request once this much request time has passed since the last
SAMPLE_EVERY_S = 0.08

#: a run stops starting new rounds after this many seconds of wall time
WALL_LIMIT_S = 140.0

#: end-to-end metrics: name -> (unit, better)
END_TO_END = {
    "ok_per_s": ("1/s", "higher"),
    "req_p50_ms": ("ms", "lower"),
    "req_tail_ms": ("ms", "lower"),
    "digits_p10": ("digits", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: per-layer metrics of the known-defect probe: name -> (unit, better)
KNOWN_DEFECTS = {
    "known_defects.failed": ("count", "lower"),
    "known_defects.fail_share": ("ratio", "lower"),
}


def load_program(src: Path) -> dict:
    """Import hbortho from ``src`` one layer at a time, in dependency order.

    The package ``__init__`` imports every module, so it runs last, once the
    layers are loaded; each layer's time includes the third-party modules it
    is the first to import.  Returns seconds per layer.
    """
    init = src / "hbortho" / "__init__.py"
    spec = importlib.util.spec_from_file_location("hbortho", init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules["hbortho"] = package
    seconds = {}
    for layer in LAYERS:
        t0 = perf_counter()
        importlib.import_module(f"hbortho.{layer}")
        seconds[layer] = perf_counter() - t0
    t0 = perf_counter()
    spec.loader.exec_module(package)
    seconds["package"] = perf_counter() - t0
    return seconds


def set_up(workload_name: str, seed: int, outdir: str) -> dict:
    """Import, generate the requests and warm up once per method; timed."""
    t0 = perf_counter()
    import_s = load_program(ROOT / "src")
    t1 = perf_counter()
    import workloads
    from checker import check

    workload = workloads.WORKLOADS[workload_name]
    rounds = workloads.stream(workload, seed, outdir)
    rounds = itertools.chain([next(rounds)], rounds)  # the first round is made during set-up
    t2 = perf_counter()
    for req in workloads.warmup_requests(workload, seed, outdir):
        check(req, workloads.execute(req))
    t3 = perf_counter()
    return {
        "setup_s": t3 - t0,
        "import_s": import_s,
        "total_import_s": t1 - t0,
        "generate_s": t2 - t1,
        "warmup_s": t3 - t2,
        "rounds": rounds,
        "outdir": outdir,
    }


def child_set_up(workload: str, seed: int) -> dict:
    """One set-up in a fresh interpreter (``--setup-only``)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "openblas_threads": _openblas_threads(),
        "commit": _commit(),
    }


def _openblas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line})
    found = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for fn in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                found[Path(path).name] = getter()
                break
    return found


def _commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


class Pass:
    """Outcomes of one pass over whole rounds of requests."""

    def __init__(self):
        self.latencies: list[float] = []
        self.verdicts: list = []
        self.labels: list[str] = []  # request kind and size, for the per-kind report
        self.kernel: list[tuple[int, float]] = []  # (next request, seconds): see hostspeed.factors
        self.rounds = 0

    @property
    def attempted(self) -> int:
        return len(self.verdicts)

    @property
    def ok(self) -> int:
        return sum(v.ok for v in self.verdicts)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def scaled(self) -> list[float]:
        """Latencies scaled to the reference host speed."""
        factors = hostspeed.factors(self.kernel, self.attempted)
        return [lat * f for lat, f in zip(self.latencies, factors)]

    @property
    def ok_per_s(self) -> float:
        return self.ok / sum(self.scaled)


def run_pass(rounds, *, deadline: float, seconds: float = math.inf, min_requests: int = 0,
             tracer: Tracer | None = None, done: Pass | None = None) -> Pass:
    """Closed loop over whole rounds until ``seconds`` of request time have
    passed and ``min_requests`` were sent; outcomes are added to ``done``.
    Only the program call is timed, checking is not.  The host-speed kernel
    runs between requests, at the start, at least every SAMPLE_EVERY_S of
    request time and at the end."""
    import workloads
    from checker import check

    if done is None:
        done = Pass()
    since_sample = math.inf
    for batch in rounds:
        if done.busy_s >= seconds and done.attempted >= min_requests:
            break
        if perf_counter() > deadline:
            print(f"warning: wall-time limit reached after {done.rounds} rounds", file=sys.stderr)
            break
        gc.collect()
        for req in batch:
            if since_sample >= SAMPLE_EVERY_S:
                done.kernel.append((done.attempted, hostspeed.sample()))
                since_sample = 0.0
            t0 = perf_counter()
            outcome = tracer.run_request(req.rid, workloads.execute, req) if tracer else workloads.execute(req)
            done.latencies.append(perf_counter() - t0)
            since_sample += done.latencies[-1]
            done.verdicts.append(check(req, outcome))
            done.labels.append(req.label if req.n is None or req.label == "cli-recurrence" else f"{req.label}/{req.n}")
        done.rounds += 1
    done.kernel.append((done.attempted, hostspeed.sample()))
    return done


def _percentile(values: list[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1] if len(values) > 1 else values[0]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond): TAIL_PERCENTILE, or lower if a
    short run has fewer than ten samples beyond it."""
    n = len(latencies)
    p = TAIL_PERCENTILE
    while p > 50 and n * (100 - p) / 100 < 10:
        p -= 5
    value = _percentile(latencies, p)
    beyond = sum(1 for x in latencies if x > value)
    return p, value, beyond


def end_to_end(done: Pass, setup_samples: list[float], setup_wall: list[float]) -> tuple[dict, list[str]]:
    """The END_TO_END metrics and a human-readable line for each."""
    ok = done.ok
    verified = [v.residual for v in done.verdicts if v.ok and v.residual is not None]
    worst = max(verified, default=float("nan"))
    scaled = done.scaled
    p, tail_s, beyond = tail(scaled)
    wall_p50, wall_tail = statistics.median(done.latencies), tail(done.latencies)[1]
    speed = statistics.median(hostspeed.factors(done.kernel, done.attempted))
    values = {
        "ok_per_s": done.ok_per_s,
        "req_p50_ms": 1000 * statistics.median(scaled),
        "req_tail_ms": 1000 * tail_s,
        "digits_p10": -math.log10(max(_percentile(verified, DIGITS_PERCENTILE), 1e-17)) if verified else 0.0,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    n = done.attempted
    notes = {
        "ok_per_s": f"{ok} verified of {n} in {done.busy_s:.2f} s of request time, {done.rounds} rounds; "
                    f"fail_rate = {(n - ok) / n:.4f}; wall {ok / done.busy_s:.4g}; "
                    f"median scale {speed:.3f} from {len(done.kernel)} kernel samples",
        "req_p50_ms": f"median of {n} requests; wall {1000 * wall_p50:.4g}",
        "req_tail_ms": f"p{p} of {n} requests, {beyond} beyond it; wall {1000 * wall_tail:.4g}",
        "digits_p10": f"p{DIGITS_PERCENTILE} relative residual over {len(verified)} verified polynomial results; "
                     f"worst {worst:.3e}, min_digits {-math.log10(max(worst, 1e-17)):.3f}",
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setup_samples)
                   + "; wall " + ", ".join(f"{s:.3f}" for s in setup_wall),
        "peak_rss_mb": "ru_maxrss of this process",
    }
    lines = [f"  {k:<12} = {values[k]:<14.6g} {END_TO_END[k][0]:<7} ({notes[k]})" for k in END_TO_END]
    return values, lines


def by_kind(done: Pass) -> list[str]:
    """One line per request kind: count, latency quartiles and failures by reason."""
    lines = []
    for label in sorted(set(done.labels)):
        mine = [i for i, l in enumerate(done.labels) if l == label]
        ms = sorted(1000 * done.latencies[i] for i in mine)
        reasons: dict = {}
        for i in mine:
            if not done.verdicts[i].ok:
                reasons[done.verdicts[i].reason] = reasons.get(done.verdicts[i].reason, 0) + 1
        failed = ", ".join(f"{r} {c}" for r, c in sorted(reasons.items())) or "none"
        lines.append(f"  {label:<20} {len(mine):5d} requests, ms p25/p50/p75 "
                     f"{ms[len(ms) // 4]:.1f}/{ms[len(ms) // 2]:.1f}/{ms[3 * len(ms) // 4]:.1f}, failed: {failed}")
    return lines


def run_probe(workload, seed: int, outdir: str) -> tuple[dict, list[str]]:
    """Run the workload's known-defect probe once, untimed and untraced."""
    import workloads
    from checker import check

    reqs = workloads.probe_requests(workload, seed, outdir)
    verdicts = [check(req, workloads.execute(req)) for req in reqs]
    failed = sum(not v.ok for v in verdicts)
    reasons: dict = {}
    for req, v in zip(reqs, verdicts):
        if not v.ok:
            key = f"{req.label}/{req.n} {v.reason}"
            reasons[key] = reasons.get(key, 0) + 1
    values = {
        "known_defects.failed": failed,
        "known_defects.fail_share": failed / len(reqs) if reqs else 0.0,
    }
    detail = ", ".join(f"{k} x{c}" for k, c in sorted(reasons.items())) or "none"
    lines = [f"known-defect probe (untimed, not in attempted/failed): {failed} of {len(reqs)} fail: {detail}"]
    return values, lines


def result_line(done: Pass, metrics: dict, units: dict) -> str:
    return json.dumps(
        {
            "correct": done.attempted > 0 and done.ok == done.attempted,
            "attempted": done.attempted,
            "failed": done.attempted - done.ok,
            "metrics": {k: {"value": metrics[k], "unit": units[k][0]} for k in units},
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn (each in its own process)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if "HB_PRECISION" in os.environ:
        print("error: HB_PRECISION is set; it changes the CLI precision policy. Unset it.", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "hbortho" / "__init__.py").is_file():
        print(f"error: no hbortho sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    if args.workload == "all":
        return _run_all(args)
    start = perf_counter()
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    outdir = tempfile.mkdtemp(dir=WORK_DIR)
    try:
        setup = set_up(args.workload, args.seed, outdir)
        if args.setup_only:
            print(json.dumps({k: v for k, v in setup.items() if k not in ("rounds", "outdir")}))
            return 0
        return _run(args, setup, start)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def _run_all(args) -> int:
    """Each workload in its own process; their reports, then one summary line."""
    results = {}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=600, cwd=ROOT)
        print(proc.stdout, end="", flush=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


def _run(args, setup: dict, start: float) -> int:
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    # each set-up is scaled by kernel samples taken next to it: after this
    # process's own (numpy is not loaded before it), around each child's
    after = hostspeed.now()
    setup_scaled = [setup["setup_s"] * hostspeed.REFERENCE_S / after]
    children = []
    for _ in range(SETUP_SAMPLES - 1):
        before = hostspeed.now()
        children.append(child_set_up(args.workload, args.seed))
        after = hostspeed.now()
        setup_scaled.append(children[-1]["setup_s"] * hostspeed.REFERENCE_S * 2 / (before + after))
    samples = [setup] + children
    env = environment()
    print("env " + json.dumps(env))
    print(
        f"set-up: import {setup['total_import_s']:.3f} s, generate {setup['generate_s']:.3f} s, "
        f"warm-up {setup['warmup_s']:.3f} s (this process); "
        f"rounds of {workload.round_size} requests, the first made during set-up and the rest between rounds"
    )
    deadline = start + WALL_LIMIT_S
    rounds = setup["rounds"]

    if not args.trace:
        done = run_pass(rounds, deadline=deadline, seconds=args.seconds, min_requests=MIN_REQUESTS)
        values, lines = end_to_end(done, setup_scaled, [s["setup_s"] for s in samples])
        print(f"workload {args.workload} seed {args.seed}: {done.attempted} attempted, "
              f"{done.attempted - done.ok} failed")
        print("\n".join(by_kind(done) + lines))
        print("\n".join(run_probe(workload, args.seed, setup["outdir"])[1]))
        print(result_line(done, values, END_TO_END))
        return 0

    # the two passes alternate round by round, so drift over the life of the
    # process cancels in the overhead ratio; the traced pass gets freshly
    # generated (identical) requests, so no symbol carries a warm cache
    fresh = workloads.generate(workload, args.seed, workload.trace_rounds, setup["outdir"])
    plain, traced, tracer = Pass(), Pass(), Tracer()
    for untraced_round, traced_round in zip(rounds, fresh):
        run_pass([untraced_round], deadline=deadline, done=plain)
        tracer.install()
        try:
            run_pass([traced_round], deadline=deadline, tracer=tracer, done=traced)
        finally:
            tracer.uninstall()
    import_s = {layer: statistics.median(s["import_s"][layer] for s in samples) for layer in LAYERS}
    out_bytes = sum(v.out_bytes for v in traced.verdicts)
    values = summarize(tracer.spans, import_s=import_s, out_bytes=out_bytes,
                       untraced_ok_per_s=plain.ok_per_s, traced_ok_per_s=traced.ok_per_s)
    trace_file = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(trace_file, "w") as fh:
        json.dump({"env": env, "workload": args.workload, "seed": args.seed, "metrics": values,
                   "span_fields": list(Span._fields),
                   "spans": [list(s) for s in tracer.spans]}, fh)
    probe_values, probe_lines = run_probe(workload, args.seed, setup["outdir"])
    values.update(probe_values)
    layer, self_s = largest_self(values)
    print(f"workload {args.workload} seed {args.seed} traced: {traced.rounds} rounds, {traced.attempted} requests, "
          f"{traced.attempted - traced.ok} failed; {len(tracer.spans)} spans -> {trace_file}")
    print("\n".join(by_kind(traced)))
    for name, (unit, _) in (PER_LAYER | KNOWN_DEFECTS).items():
        print(f"  {name:<28} = {values[name]:<14.6g} {unit}")
    print(f"largest self time: {layer} ({self_s:.3f} s of {values['bench.traced_wall_s']:.3f} s traced)")
    print("\n".join(probe_lines))
    print(result_line(traced, values, PER_LAYER | KNOWN_DEFECTS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
