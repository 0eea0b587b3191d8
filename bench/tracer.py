"""Per-layer spans and counts, recorded from outside the program.

``Tracer.install()`` replaces each traced function of msym by a wrapper in
every msym namespace that binds it: ``realmodels``, ``mcheck`` and ``cli``
import names with ``from .x import y``, so patching the defining module alone
would miss their calls.  Methods are patched on their class.  ``uninstall()``
puts every original back.

A span records its name, op id, parent span, thread, start and end.  Spans
opened on a thread with no open span of its own (the ``mcheck.sweep`` pool
threads) take the op thread's innermost open span as parent.  Spans stay in
memory and are summarised or written out after the run.
"""

from __future__ import annotations

import sys
import threading
from array import array
from collections import defaultdict
from time import perf_counter_ns

MARK = "__msym_bench_span__"

# span name -> (module, attribute) of each function it covers
FUNCTIONS = {
    "cli.main": [("msym.cli", "main")],
    "mcheck.check": [("msym.mcheck", "check")],
    "mcheck.sweep": [("msym.mcheck", "sweep")],
    "realmodels.build_Y": [("msym.realmodels", "build_Y")],
    "realmodels.build_B": [("msym.realmodels", "build_B")],
    "homology.glue": [("msym.homology", "glue")],
    "homology.product": [("msym.homology", "product")],
    "homology.boundary_matrix": [("msym.homology", "boundary_matrix")],
    "homology.betti": [("msym.homology", "betti")],
    "genfun.poincare_sym": [("msym.genfun", "poincare_sym")],
    "genfun.betti_sum_sym": [("msym.genfun", "betti_sum_sym")],
    "genfun.closed_forms": [("msym.genfun", "closed_form_sym2"), ("msym.genfun", "closed_form_sym3"),
                            ("msym.genfun", "betti_sum_large_n")],
    "fibration.run_property_suite": [("msym.fibration", "run_property_suite")],
    "fibration.t_map": [("msym.fibration", "t_map")],
    "fibration.t_inverse": [("msym.fibration", "t_inverse")],
    "fibration.theta": [("msym.fibration", "theta")],
    "fibration.enumerate": [("msym.fibration", "enumerate_diagonal_section_intersections"),
                            ("msym.fibration", "enumerate_diagonal_fiber_boundary_intersections")],
}
# span name -> (module, class, attribute) of each method it covers
METHODS = {
    "homology.complex_init": ("msym.homology", "ChainComplexF2", "__init__"),
    "homology.from_json": ("msym.homology", "ChainComplexF2", "from_json"),
    "homology.rank": ("msym.homology", "BitMatrixF2", "rank"),
}

COUNTERS = ("realmodels.model_cells", "homology.cells_validated", "homology.cells_used",
            "homology.matrix_bits", "homology.from_json.errors", "genfun.poly_degree_sum",
            "mcheck.errors", "fibration.samples")

_FIELDS = 7  # span id, name id, op, parent, thread, start ns, end ns


def _cells(cx) -> list:
    return [cx.n_cells(d) for d in range(cx.dim + 1)]


def msym_namespaces() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "msym" or name.startswith("msym.")]


def installed_wrappers() -> list:
    """Names in msym namespaces and classes that are currently span wrappers."""
    found = []
    for mod in msym_namespaces():
        for key, value in vars(mod).items():
            if getattr(value, MARK, None):
                found.append(f"{mod.__name__}.{key}")
            if isinstance(value, type):
                for attr, raw in vars(value).items():
                    if getattr(getattr(raw, "__func__", raw), MARK, None):
                        found.append(f"{mod.__name__}.{key}.{attr}")
    return found


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.spans = array("q")
        self.counts = defaultdict(int)
        self.op_sizes = defaultdict(lambda: {"cells_per_dim": [], "matrix_shapes": []})
        self.op = -1
        self._next = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_stack: list = []
        self._op_thread = None
        self._threads: dict = {}
        self._used: dict = {}  # id -> complex passed to betti during the current op
        self._saved: list = []

    # --- span bookkeeping ---------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._op_thread and self._op_stack:
            parent = self._op_stack[-1]
        else:
            parent = -1
        with self._lock:
            sid = self._next
            self._next += 1
        stack.append(sid)
        return sid, parent

    def _close(self, sid: int, parent: int, name_id: int, start: int, end: int):
        self._stack().pop()
        ident = threading.get_ident()
        with self._lock:
            thread = self._threads.setdefault(ident, len(self._threads))
            self.spans.extend((sid, name_id, self.op, parent, thread, start, end))

    def add(self, counter: str, value: int):
        with self._lock:
            self.counts[counter] += value

    def begin_op(self, op: int):
        """Open the root span of one op on the calling thread."""
        self.op = op
        self._op_thread = threading.get_ident()
        self._op_stack = self._stack()
        self._used = {}
        self._root = (self._open(), perf_counter_ns())

    def end_op(self):
        (sid, parent), start = self._root
        self._close(sid, parent, self._name_id("op"), start, perf_counter_ns())
        for cx in self._used.values():
            self.counts["homology.cells_used"] += sum(_cells(cx))
        self._used = {}

    def span(self, name: str, fn, after=None, on_error=None):
        """Wrap fn in a span; ``after(result, args)`` records counts."""
        name_id = self._name_id(name)

        def wrapper(*args, **kwargs):
            sid, parent = self._open()
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(sid, parent, name_id, start, perf_counter_ns())
                if on_error is not None:
                    on_error(exc)
                raise
            self._close(sid, parent, name_id, start, perf_counter_ns())
            if after is not None:
                after(result, args)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        setattr(wrapper, MARK, name)
        return wrapper

    # --- counts recorded at layer boundaries ----------------------------------

    def _after_init(self, _result, args):
        self.add("homology.cells_validated", sum(_cells(args[0])))

    def _after_betti(self, _result, args):
        with self._lock:
            self._used[id(args[0])] = args[0]
            self.op_sizes[self.op]["cells_per_dim"].append(_cells(args[0]))

    def _after_boundary_matrix(self, result, _args):
        rows, cols = result.shape
        with self._lock:
            self.counts["homology.matrix_bits"] += rows * cols
            self.op_sizes[self.op]["matrix_shapes"].append([rows, cols])

    def _after_model(self, result, _args):
        self.add("realmodels.model_cells", sum(_cells(result)))

    def _after_poly(self, result, _args):
        self.add("genfun.poly_degree_sum", result.degree)

    def _after_suite(self, result, _args):
        self.add("fibration.samples", result.samples)

    def _hooks(self, name: str) -> dict:
        return {
            "homology.complex_init": {"after": self._after_init},
            "homology.betti": {"after": self._after_betti},
            "homology.boundary_matrix": {"after": self._after_boundary_matrix},
            "realmodels.build_Y": {"after": self._after_model},
            "realmodels.build_B": {"after": self._after_model},
            "genfun.poincare_sym": {"after": self._after_poly},
            "fibration.run_property_suite": {"after": self._after_suite},
            "homology.from_json": {"on_error": lambda exc: self.add("homology.from_json.errors", 1)},
            "mcheck.check": {"on_error": lambda exc: self.add("mcheck.errors", 1)},
        }.get(name, {})

    # --- installing and removing the wrappers --------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        spaces = msym_namespaces()
        for name, sites in FUNCTIONS.items():
            for modname, attr in sites:
                original = getattr(sys.modules[modname], attr)
                wrapper = self.span(name, original, **self._hooks(name))
                bound = 0
                for mod in spaces:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapper)
                            bound += 1
                if not bound:
                    raise RuntimeError(f"{modname}.{attr} is bound nowhere")
        for name, (modname, clsname, attr) in METHODS.items():
            cls = getattr(sys.modules[modname], clsname)
            raw = vars(cls)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.span(name, raw.__func__, **self._hooks(name)))
            else:
                wrapped = self.span(name, raw, **self._hooks(name))
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved = []

    # --- summaries -----------------------------------------------------------

    def rows(self) -> list:
        s = self.spans
        return [tuple(s[i:i + _FIELDS]) for i in range(0, len(s), _FIELDS)]

    def layer_totals(self) -> dict:
        """name -> {calls, total_ns, self_ns}; self time is the span's duration
        minus the union of its child spans' intervals."""
        rows = self.rows()
        children = defaultdict(list)
        for sid, _name, _op, parent, _thread, start, end in rows:
            if parent >= 0:
                children[parent].append((start, end))
        out = defaultdict(lambda: {"calls": 0, "total_ns": 0, "self_ns": 0})
        for sid, name, _op, _parent, _thread, start, end in rows:
            covered, reach = 0, start
            for cs, ce in sorted(children.get(sid, ())):
                cs, ce = max(cs, reach), min(ce, end)
                if ce > cs:
                    covered += ce - cs
                    reach = ce
            agg = out[self.names[name]]
            agg["calls"] += 1
            agg["total_ns"] += end - start
            agg["self_ns"] += end - start - covered
        return dict(out)

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\top\tparent\tthread\tstart_ns\tend_ns\n")
            for sid, name, op, parent, thread, start, end in self.rows():
                fh.write(f"{sid}\t{self.names[name]}\t{op}\t{parent}\t{thread}\t{start}\t{end}\n")
