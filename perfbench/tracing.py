"""In-process tracer for one traced CLI request (loaded by child.py only).

Two stdlib mechanisms run together:

* cProfile over the whole request, import included.  Its per-function self
  times are grouped by layer: each module of ``src/opalg`` is a layer, plus
  ``fractions`` (the Fraction backend), ``stdlib`` (all other Python code) and
  ``trace`` (this file's wrappers).  Time in C functions, in ``<frozen abc>``
  and in dataclass-generated methods (``<string>``) is charged to whichever
  function called them, so the layer self times partition the profiled wall.
  High-frequency kernel edges (``vec_iadd``, the tensor/operator contractions,
  Fraction arithmetic) come out of the same table as call counts and self
  times.
* Span wrappers around entry points that cross modules (suites -> check
  functions, catalog construction, algfile parse/render, report render).
  Each call from another module is kept as an individual span; every
  ``scan_tuples`` call is aggregated by arity instead.

Nothing in ``src/`` is edited: wrappers replace module attributes in this
process only.
"""

from __future__ import annotations

import cProfile
import fractions
import os
import pstats
import sys
import time

# Entry points wrapped in spans: public callables of these modules, plus the
# identity checks of core.  Kernels, scalars, oracles and sampling stay out.
SPAN_MODULES = ("suites", "searches", "catalog", "algfile", "lie", "jordan", "bunch", "findings")
CORE_SPANS = ("check_", "tensors_equal_report", "operators_equal_report")
RENDER = ("render_algebra_file", "algebra_file_to_dict", "algebra_file_digest")

FRACTION_OPS = {"forward", "reverse", "__neg__", "__pos__", "__abs__", "__pow__", "__rpow__"}
CONTRACTIONS = {
    "Operator.column", "Operator.apply", "Operator.__matmul__",
    "BilinearStructure.value", "BilinearStructure.apply",
    "BilinearStructure.apply_first", "BilinearStructure.apply_second",
    "TrilinearStructure.value", "TrilinearStructure.apply",
    "TrilinearStructure.apply_first", "TrilinearStructure.apply_middle",
    "TrilinearStructure.apply_last", "TrilinearStructure.apply_first_middle",
    "TrilinearStructure.apply_first_last", "TrilinearStructure.apply_middle_last",
}


def _layer_of_module(name: str) -> str:
    """'opalg.core' -> 'core'; anything outside the package -> 'stdlib'."""
    if name == "opalg":
        return "opalg"
    if name.startswith("opalg."):
        return name.split(".", 1)[1]
    return "stdlib"


class Tracer:
    def __init__(self, root: str):
        self.src = os.path.realpath(os.path.join(root, "src", "opalg")) + os.sep
        self.own = {os.path.realpath(__file__), os.path.realpath(sys.argv[0])}
        self.fractions_file = os.path.realpath(fractions.__file__)
        self.profile = cProfile.Profile()
        self.spans = []  # [name, caller layer, start, duration, parent index, category]
        self.stack = []
        self.active = {}  # metric category -> depth of open spans counted in it
        self.scans = {}  # arity -> [calls, tuples, seconds]
        self.calls = {}  # "caller->callee function" -> count, for cross-module calls

    def start(self) -> None:
        self.t0 = time.perf_counter()
        self.profile.enable()

    # -- span wrappers ---------------------------------------------------

    def instrument(self) -> None:
        modules = {n: m for n, m in list(sys.modules.items()) if n == "opalg" or n.startswith("opalg.")}
        wrapped = {}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    continue
                origin = getattr(obj, "__module__", None) or ""
                if isinstance(obj, type) or not callable(obj) or not origin.startswith("opalg."):
                    continue
                home = _layer_of_module(origin)
                name = getattr(obj, "__name__", attr)
                if name == "scan_tuples":
                    wrapped[id(obj)] = self._scan_wrapper(obj)
                elif name.startswith("_"):
                    continue
                elif home in SPAN_MODULES or (home == "core" and name.startswith(CORE_SPANS)):
                    wrapped[id(obj)] = self._span_wrapper(obj, home, f"{home}.{name}")
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    setattr(module, attr, wrapped[id(obj)])
        report_cls = modules["opalg.suites"].RunReport
        for method in ("to_json", "to_text"):
            setattr(report_cls, method, self._span_wrapper(getattr(report_cls, method), "suites", f"suites.RunReport.{method}"))

    def _category(self, name, home, caller):
        if name in ("suites.RunReport.to_json", "suites.RunReport.to_text"):
            return "suites.report_render"
        if name == "suites.run_suite":
            return "suites.run_suite"
        if home == "algfile":
            if name == "algfile.parse_algebra_file":
                return "algfile.parse"
            if name.split(".", 1)[1] in RENDER:
                return "algfile.render"
            return None
        if home == "core" and caller == "catalog":
            return "catalog.validation"
        if home == "catalog":
            return "catalog.build"
        if home in ("lie", "jordan", "bunch"):
            return f"{home}.check"
        return None

    def _span_wrapper(self, fn, home, name):
        spans, stack, active, calls = self.spans, self.stack, self.active, self.calls
        category_of = self._category
        perf = time.perf_counter
        getframe = sys._getframe

        def span(*args, **kwargs):
            caller = _layer_of_module(getframe(1).f_globals.get("__name__", ""))
            if caller == home:
                return fn(*args, **kwargs)
            key = f"{caller}->{name}"
            calls[key] = calls.get(key, 0) + 1
            category = category_of(name, home, caller)
            if category is not None and active.get(category, 0):
                category = None  # nested inside a span of the same kind: counted once
            index = len(spans)
            record = [name, caller, perf(), 0.0, stack[-1] if stack else -1, category]
            spans.append(record)
            stack.append(index)
            if category is not None:
                active[category] = active.get(category, 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                record[3] = perf() - record[2]
                stack.pop()
                if category is not None:
                    active[category] -= 1

        return span

    def _scan_wrapper(self, fn):
        scans = self.scans
        perf = time.perf_counter

        def scan_tuples(name, dim, arity, *args, **kwargs):
            started = perf()
            report = fn(name, dim, arity, *args, **kwargs)
            entry = scans.setdefault(str(arity), [0, 0, 0.0])
            entry[0] += 1
            entry[1] += report.tuples_evaluated
            entry[2] += perf() - started
            return report

        return scan_tuples

    # -- profile aggregation --------------------------------------------

    def _layer_of_file(self, filename: str):
        """Layer of a profiled frame's file, or None for frames charged to their caller."""
        if filename == "~" or filename == "<string>" or filename.startswith("<frozen abc"):
            return None
        path = os.path.realpath(filename) if not filename.startswith("<") else filename
        if path.startswith(self.src):
            stem = os.path.splitext(path[len(self.src):])[0]
            return "opalg" if stem == "__init__" else stem
        if path == self.fractions_file:
            return "fractions"
        if path in self.own:
            return "trace"
        return "stdlib"

    def _qualnames(self) -> dict:
        core = sys.modules["opalg.core"]
        out = {}
        for cls in (core.Operator, core.BilinearStructure, core.TrilinearStructure):
            for attr, fn in vars(cls).items():
                code = getattr(fn, "__code__", None)
                if code is not None:
                    out[(code.co_filename, code.co_firstlineno, code.co_name)] = f"{cls.__name__}.{attr}"
        return out

    def finish(self) -> dict:
        self.profile.disable()
        wall = time.perf_counter() - self.t0
        stats = pstats.Stats(self.profile).stats
        layer = {key: self._layer_of_file(key[0]) for key in stats}

        shares = {}

        def owners(key, visiting=()):
            """Opaque functions that this charged-to-caller frame's time belongs to."""
            if key in shares:
                return shares[key]
            callers = stats[key][4]
            total = sum(edge[3] for edge in callers.values())
            result = {}
            for caller, edge in callers.items():
                weight = edge[3] / total if total else 1.0 / len(callers)
                if caller not in stats or caller in visiting:
                    continue
                if layer[caller] is not None:
                    result[caller] = result.get(caller, 0.0) + weight
                else:
                    for owner, share in owners(caller, visiting + (key,)).items():
                        result[owner] = result.get(owner, 0.0) + weight * share
            shares[key] = result
            return result

        self_time = {key: stats[key][2] for key in stats if layer[key] is not None}
        unowned = 0.0
        for key, (_cc, _nc, _tt, _ct, callers) in stats.items():
            if layer[key] is not None:
                continue
            for caller, edge in callers.items():
                if caller in stats and layer[caller] is not None:
                    self_time[caller] += edge[2]
                elif caller in stats:
                    for owner, share in owners(caller).items():
                        self_time[owner] += edge[2] * share
                else:
                    unowned += edge[2]

        by_layer = {}
        for key, seconds in self_time.items():
            by_layer[layer[key]] = by_layer.get(layer[key], 0.0) + seconds
        by_layer["stdlib"] = by_layer.get("stdlib", 0.0) + unowned

        qual = self._qualnames()
        core_file = os.path.join(self.src, "core.py")
        fraction_ops = vec_calls = contract_calls = full_apply = 0
        vec_self = contract_self = 0.0
        for key, value in stats.items():
            nc = value[1]
            if layer[key] == "fractions" and key[2] in FRACTION_OPS:
                fraction_ops += nc
            if layer[key] != "core" or os.path.realpath(key[0]) != core_file:
                continue
            if key[2] == "vec_iadd":
                vec_calls += nc
                vec_self += self_time[key]
            name = qual.get(key)
            if name in CONTRACTIONS:
                contract_calls += nc
                contract_self += self_time[key]
            if name == "TrilinearStructure.apply":
                full_apply += nc

        entry = {}
        for record in self.spans:
            if record[5] is not None:
                entry[record[5]] = entry.get(record[5], 0.0) + record[3]
        return {
            "wall_s": wall,
            "self_s": by_layer,
            "fraction_ops": fraction_ops,
            "vec_iadd": [vec_calls, vec_self],
            "contract": [contract_calls, contract_self],
            "trilinear_full_apply": full_apply,
            "scan": self.scans,
            "entry_s": entry,
            "calls": self.calls,
            "spans": [[r[0], r[1], r[2] - self.t0, r[3], r[4]] for r in self.spans],
        }
