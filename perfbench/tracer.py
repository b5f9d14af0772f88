"""Outside-in tracer: spans around every call into the program's public functions.

``Tracer.install`` replaces each public function of the eight layer modules
with a wrapper in every ``hbortho`` namespace that binds it (the package
re-exports and names taken with ``from .gram import ...`` included), and does
the same for the ``taylor``/``taylor_mp`` methods of the symbol classes and
for the oracle's four private precision routes, so that hp and f64 oracle
time can be told apart.  Spans (name, start, end, parent span, request id,
exception, work count) are kept in memory; a span's self time is its
duration minus the durations of its direct children.  Wrappers record only
while a request runs under ``Tracer.run_request``, so the checker's calls
into the program are never counted.
"""

from __future__ import annotations

import functools
import sys
import types
from time import perf_counter
from typing import NamedTuple

#: the program's layers, in import (dependency) order
LAYERS = ("symbol", "catalog", "gram", "oracle", "closed_forms", "recurrence", "structure", "cli")

#: private oracle routes that are wrapped as well, with the precision each serves
ORACLE_ROUTES = {
    "_orthopoly_f64": "f64",
    "_orthobasis_f64": "f64",
    "_orthopoly_hp": "hp",
    "_orthobasis_hp": "hp",
}

#: symbol-class methods that are wrapped (the Taylor coefficient streams)
METHODS = (("SmirnovSymbol", ("taylor", "taylor_mp")), ("TaylorStream", ("taylor",)))

REQUEST = "bench.request"


def _arg(args, kwargs, pos: int, key: str):
    return kwargs[key] if key in kwargs else args[pos]


#: exact work counts recorded at the layer boundary: f(args, kwargs, result)
WORK = {
    "gram.gram_matrix": lambda a, k, r: (_arg(a, k, 1, "n") + 1) ** 2,
    "gram.gram_matrix_mp": lambda a, k, r: (_arg(a, k, 1, "n") + 1) ** 2,
    "gram.solve_system_cholesky": lambda a, k, r: _arg(a, k, 0, "entries").shape[0] ** 3 / 3,
    "symbol.SmirnovSymbol.taylor": lambda a, k, r: _arg(a, k, 1, "count"),
    "symbol.SmirnovSymbol.taylor_mp": lambda a, k, r: _arg(a, k, 1, "count"),
    "symbol.TaylorStream.taylor": lambda a, k, r: _arg(a, k, 1, "count"),
    "closed_forms.detect_rational_ab": lambda a, k, r: int(r is not None),
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span; -1 for a request span
    rid: int
    error: str | None  # exception type name, if the call raised
    work: float  # see WORK; 0 where nothing is counted


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list = []
        self._active = False
        self._rid = -1

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"hbortho.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                    and (not attr.startswith("_") or (layer == "oracle" and attr in ORACLE_ROUTES))
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, mod in list(sys.modules.items()):
            if name == "hbortho" or name.startswith("hbortho."):
                for attr, obj in list(vars(mod).items()):
                    if isinstance(obj, types.FunctionType) and obj in wrappers:
                        self._patch(mod, attr, wrappers[obj])
        symbol = sys.modules["hbortho.symbol"]
        for cls_name, methods in METHODS:
            cls = getattr(symbol, cls_name)
            for m in methods:
                self._patch(cls, m, self._wrap(f"symbol.{cls_name}.{m}", vars(cls)[m]))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            return self._call(name, work, fn, args, kwargs)

        return wrapper

    # -- recording ---------------------------------------------------------

    def run_request(self, rid: int, fn, *args):
        """Call fn(*args) as request ``rid``, recording spans while it runs."""
        self._rid = rid
        self._active = True
        try:
            return self._call(REQUEST, None, fn, args, {})
        finally:
            self._active = False

    def _call(self, name, work, fn, args, kwargs):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        result = error = None
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = perf_counter()
            self._stack.pop()
            count = work(args, kwargs, result) if work else 0
            self.spans[idx] = Span(name, start, end, parent, self._rid, error, count)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: name -> (unit, better) for every per-layer metric, in report order
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.errors"] = ("count", "lower")
    PER_LAYER[f"{_layer}.import_s"] = ("s", "lower")
PER_LAYER.update(
    {
        "structure.solve_self_s": ("s", "lower"),
        "structure.residual_s": ("s", "lower"),
        "structure.calibrate_s": ("s", "lower"),
        "structure.ok_ratio": ("ratio", "higher"),
        "structure.breakdowns": ("count", "lower"),
        "structure.refused": ("count", "lower"),
        "closed_forms.hits": ("count", "higher"),
        "closed_forms.basis_s": ("s", "lower"),
        "gram.assemble_s": ("s", "lower"),
        "gram.assemble_entries": ("count", "lower"),
        "gram.factor_s": ("s", "lower"),
        "gram.factor_flops": ("flop", "lower"),
        "gram.factor_refusals": ("count", "lower"),
        "gram.assemble_mp_s": ("s", "lower"),
        "oracle.f64_self_s": ("s", "lower"),
        "oracle.hp_self_s": ("s", "lower"),
        "oracle.hp_share": ("ratio", "lower"),
        "symbol.taylor_s": ("s", "lower"),
        "symbol.taylor_mp_s": ("s", "lower"),
        "symbol.coeffs": ("count", "lower"),
        "symbol.parse_s": ("s", "lower"),
        "recurrence.solve_s": ("s", "lower"),
        "recurrence.replay_s": ("s", "lower"),
        "recurrence.singular_border": ("count", "lower"),
        "cli.out_bytes": ("byte", "lower"),
        "bench.traced_wall_s": ("s", "lower"),
        "bench.unattributed_s": ("s", "lower"),
        "bench.trace_overhead": ("ratio", "higher"),
    }
)


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def summarize(spans, *, import_s: dict, out_bytes: int, untraced_ok_per_s: float, traced_ok_per_s: float) -> dict:
    """Every PER_LAYER metric from the spans of one traced pass."""
    own = self_times(spans)
    child_raised = [False] * len(spans)
    for s in spans:
        if s.parent >= 0 and s.error:
            child_raised[s.parent] = True

    def inclusive(names, under=None) -> float:
        """Summed duration of outermost spans named in ``names``."""
        return sum(
            s.end - s.start
            for s in spans
            if s.name in names
            and (s.parent < 0 or spans[s.parent].name not in names)
            and (under is None or (s.parent >= 0 and spans[s.parent].name == under))
        )

    def count(name, error=None) -> int:
        return sum(1 for s in spans if s.name == name and (error is None or s.error == error))

    def work(*names) -> float:
        return sum(s.work for s in spans if s.name in names)

    def self_of(*names) -> float:
        return sum(t for s, t in zip(spans, own) if s.name in names)

    out = {}
    for layer in LAYERS:
        mine = [i for i, s in enumerate(spans) if s.name.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = len(mine)
        out[f"{layer}.self_s"] = sum(own[i] for i in mine)
        # an exception counts once, in the layer whose own code raised it
        out[f"{layer}.errors"] = sum(1 for i in mine if spans[i].error and not child_raised[i])
        out[f"{layer}.import_s"] = import_s.get(layer, 0.0)

    solves = count("structure.structured_solve")
    returned = sum(1 for s in spans if s.name == "structure.structured_solve" and not s.error)
    wall = sum(s.end - s.start for s in spans if s.name == REQUEST)
    hp_routes = [f"oracle.{r}" for r, p in ORACLE_ROUTES.items() if p == "hp"]
    f64_routes = [f"oracle.{r}" for r, p in ORACLE_ROUTES.items() if p == "f64"]
    taylor = ("symbol.SmirnovSymbol.taylor", "symbol.TaylorStream.taylor")
    out.update(
        {
            "structure.solve_self_s": self_of("structure.structured_solve"),
            "structure.residual_s": inclusive({"structure.system_residual"}),
            "structure.calibrate_s": inclusive({"structure.detect_structure"}, under="structure.structured_solve"),
            "structure.ok_ratio": returned / solves if solves else 0.0,
            "structure.breakdowns": count("structure.structured_solve", "NumericalBreakdown"),
            "structure.refused": count("structure.structured_solve", "StructureRefuted"),
            "closed_forms.hits": int(work("closed_forms.detect_rational_ab")),
            "closed_forms.basis_s": inclusive({"closed_forms.rational_ab_basis", "closed_forms.power_basis", "closed_forms.compose_basis"}),
            "gram.assemble_s": inclusive({"gram.gram_matrix"}),
            "gram.assemble_entries": int(work("gram.gram_matrix", "gram.gram_matrix_mp")),
            "gram.factor_s": inclusive({"gram.solve_system_cholesky"}),
            "gram.factor_flops": work("gram.solve_system_cholesky"),
            "gram.factor_refusals": count("gram.solve_system_cholesky", "LinAlgError"),
            "gram.assemble_mp_s": inclusive({"gram.gram_matrix_mp"}),
            "oracle.f64_self_s": self_of(*f64_routes),
            "oracle.hp_self_s": self_of(*hp_routes),
            "oracle.hp_share": inclusive(set(hp_routes)) / wall if wall else 0.0,
            "symbol.taylor_s": inclusive(set(taylor)),
            "symbol.taylor_mp_s": inclusive({"symbol.SmirnovSymbol.taylor_mp"}),
            "symbol.coeffs": int(work(*taylor, "symbol.SmirnovSymbol.taylor_mp")),
            "symbol.parse_s": inclusive({"symbol.parse_symbol", "symbol.parse_complex"}),
            "recurrence.solve_s": inclusive({"recurrence.coefficients_via_recurrence"}),
            "recurrence.replay_s": inclusive({"recurrence.reduced_matrix_check"}),
            "recurrence.singular_border": count("recurrence.coefficients_via_recurrence", "SingularBorder"),
            "cli.out_bytes": out_bytes,
            "bench.traced_wall_s": wall,
            "bench.unattributed_s": self_of(REQUEST),
            "bench.trace_overhead": traced_ok_per_s / untraced_ok_per_s if untraced_ok_per_s else 0.0,
        }
    )
    return out


def largest_self(metrics: dict) -> tuple[str, float]:
    """The layer with the largest self time in a summary."""
    layer = max(LAYERS, key=lambda l: metrics[f"{l}.self_s"])
    return layer, metrics[f"{layer}.self_s"]

