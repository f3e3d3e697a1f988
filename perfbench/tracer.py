"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the `veneroni` modules from outside
the package: each wrapped call records a span (name, start, end, parent)
and, for some layers, a work count.  Spans are kept in memory as compact
arrays and summarised at the end into per-name call counts, inclusive
seconds and self seconds.  Nothing under `src/` knows about the tracer;
`uninstall` restores every attribute it replaced.

A function imported by name into another module (for example
`from .projgeo import restrict_to_span` in `maps`) is patched in every
module namespace that holds it, so calls are seen wherever they are looked
up.  Scalar field operations are deliberately not wrapped: one span per
field operation would distort the run, so their cost shows up as the self
time of the `Poly` operations that perform them.
"""

import functools
import sys
import time
from array import array
from collections import Counter

# Check names as reported, mapped to the functions `run_suite` calls for them.
CHECK_FUNCTIONS = {
    "genericity": "check_genericity",
    "determinantal": "check_determinantal",
    "linear-system-dimension": "check_dimension",
    "basis-property": "check_basis",
    "b-matrix": "check_b_matrix",
    "composition": "verify_composition",
    "round-trip": "verify_roundtrip_sample",
    "base-locus": "verify_base_locus",
    "transversal-sample": "check_transversal_sample",
    "multiplicity": "check_multiplicity",
    "class-matrix": "check_class_matrix",
    "dual-dimension": "check_dual_dimension",
    "demos": "check_demos",
}

MAPS_FUNCTIONS = (
    "build_forward_map",
    "compute_Q",
    "vanishes_on_flat",
    "solve_b_matrix",
    "build_inverse_map",
    "linear_system_dimension",
)

PROJGEO_FUNCTIONS = ("random_general_flats", "genericity_check", "transversal_through")

CLI_FUNCTIONS = ("cmd_build", "cmd_verify", "map_to_dict", "map_from_dict", "dump_json")

DET_STRATEGIES = ("minor_dp", "bareiss")

COUNT_NAMES = (
    "exactla.rref.cells",
    "exactla.rank_mod_p.cells",
    "mpoly.mul.out_terms",
    "mpoly.evaluate.calls",
)


def _veneroni_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "veneroni" or name.startswith("veneroni."))
    ]


def installed_wrappers():
    """Names of tracer wrappers still reachable from veneroni's modules."""
    from veneroni.mpoly import Poly

    found = [f"mpoly.Poly.{a}" for a, v in vars(Poly).items() if hasattr(v, "perfbench_traced")]
    for mod in _veneroni_modules():
        found += [
            f"{mod.__name__}.{a}" for a, v in vars(mod).items() if hasattr(v, "perfbench_traced")
        ]
    return found


def _cells(args, result):
    """Sigma rows x cols of the matrix passed first."""
    rows = args[0]
    return len(rows) * (len(rows[0]) if rows else 0)


def _out_terms(args, result):
    return 0 if result is NotImplemented else len(result.terms)


def _det_name(args, kwargs):
    strategy = args[1] if len(args) > 1 else kwargs.get("strategy", "minor_dp")
    return f"exactla.det_poly_matrix.{strategy}"


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        # One entry per span, in order of entry; a span's id is its index.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.counts = Counter()
        self._stack = []  # ids of the open spans
        self._open = Counter()  # open spans per name, to skip recursive re-entry
        self.calls = Counter()
        self.incl = Counter()
        self.self_s = Counter()
        self._child = {}  # open span id -> seconds covered by its children
        self._patches = []

    # ---- recording ------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name, fn, count=None):
        """Wrap fn so each call records a span; name may depend on the args."""
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            stack = tracer._stack
            sid = tracer._enter(span_name, stack[-1] if stack else -1)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._finish(sid, span_name, start, end)
            if count is not None:
                tracer.counts[span_name + "." + count[0]] += count[1](args, result)
            return result

        wrapper.perfbench_traced = True
        return wrapper

    def _enter(self, name, parent):
        sid = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(parent)
        self._child[sid] = 0.0
        self._open[name] += 1
        return sid

    def _finish(self, sid, name, start, end):
        self.span_start[sid] = start
        self.span_end[sid] = end
        dur = end - start
        child = self._child.pop(sid)
        parent = self.span_parent[sid]
        if parent >= 0:
            self._child[parent] += dur
        self._open[name] -= 1
        self.calls[name] += 1
        self.self_s[name] += dur - child
        if not self._open[name]:  # outermost call of a recursion
            self.incl[name] += dur

    def counter(self, name, fn):
        """Wrap fn so its calls are counted without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.perfbench_traced = True
        return wrapper

    # ---- patching -------------------------------------------------------

    def _patch_everywhere(self, original, wrapper):
        """Replace `original` wherever a veneroni module namespace holds it."""
        for mod in _veneroni_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, attr, wrapper):
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self):
        """Wrap the traced functions of every layer; see the module docstring."""
        from veneroni import checks, cli, exactla, maps, projgeo
        from veneroni.mpoly import Poly

        if self._patches:
            raise RuntimeError("tracer is already installed")
        for check, fn_name in CHECK_FUNCTIONS.items():
            fn = getattr(checks, fn_name)
            self._patch_everywhere(fn, self.span(f"checks.{check}", fn))
        for fn_name in MAPS_FUNCTIONS:
            fn = getattr(maps, fn_name)
            self._patch_everywhere(fn, self.span(f"maps.{fn_name}", fn))
        for fn_name in PROJGEO_FUNCTIONS:
            fn = getattr(projgeo, fn_name)
            self._patch_everywhere(fn, self.span(f"projgeo.{fn_name}", fn))
        for fn_name in CLI_FUNCTIONS:
            fn = getattr(cli, fn_name)
            self._patch_everywhere(fn, self.span(f"cli.{fn_name}", fn))
        fn = exactla.det_poly_matrix
        self._patch_everywhere(fn, self.span(_det_name, fn))
        for fn_name in ("rref", "rank_mod_p"):
            fn = getattr(exactla, fn_name)
            self._patch_everywhere(
                fn, self.span(f"exactla.{fn_name}", fn, count=("cells", _cells))
            )
        fn = exactla.solve
        self._patch_everywhere(fn, self.span("exactla.solve", fn))
        self._patch_method(
            Poly,
            "__mul__",
            self.span("mpoly.mul", Poly.__mul__, count=("out_terms", _out_terms)),
        )
        self._patch_method(Poly, "substitute", self.span("mpoly.substitute", Poly.substitute))
        self._patch_method(Poly, "exact_div", self.span("mpoly.exact_div", Poly.exact_div))
        self._patch_method(Poly, "evaluate", self.counter("mpoly.evaluate.calls", Poly.evaluate))

    def uninstall(self):
        """Put back every replaced attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ---- results --------------------------------------------------------

    def metrics(self):
        """{metric: value}: .calls, .s and .self_s per timed name, then counts."""
        out = {}
        for name in timed_span_names():
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.incl[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in COUNT_NAMES:
            out[name] = self.counts[name]
        return out

    def span_records(self):
        """All spans as (name, start, end, parent) rows in order of entry;
        parent is the row index of the enclosing span, or -1 at top level."""
        return [
            (self.names[nid], start, end, parent)
            for nid, start, end, parent in zip(
                self.span_name, self.span_start, self.span_end, self.span_parent
            )
        ]


def timed_span_names():
    """Every name the tracer times, in report order."""
    names = [f"checks.{c}" for c in CHECK_FUNCTIONS]
    names += [f"maps.{f}" for f in MAPS_FUNCTIONS]
    names += [f"exactla.det_poly_matrix.{s}" for s in DET_STRATEGIES]
    names += ["exactla.rref", "exactla.rank_mod_p", "exactla.solve"]
    names += ["mpoly.mul", "mpoly.substitute", "mpoly.exact_div"]
    names += [f"projgeo.{f}" for f in PROJGEO_FUNCTIONS]
    names += [f"cli.{f}" for f in CLI_FUNCTIONS]
    return names
