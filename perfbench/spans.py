"""Span tracing around the public functions of each hypercourant layer.

The wrappers live in the benchmark, not in the engine.  `Tracer.install`
replaces every binding of a traced function with a timing wrapper: module
globals in every hypercourant module, class attributes, and function default
arguments such as `courant_bracket(..., bracket=dorfman)`.  Wrapping only the
defining module would miss every call made through `from .courant import
dorfman` and the like, so install fails if any binding is left over.

Each span records its call count, total time and self time.  Self time is the
span's duration minus the part covered by its child spans, so the self times
of all spans add up to the wall time of the root spans.  Tracing costs time;
end-to-end figures always come from untraced jobs.
"""

from __future__ import annotations

import sys
import time
import types

# span name -> (module, attribute path)
TARGETS = {
    "scalar.poly_mul": ("hypercourant.scalar", "Polynomial.__mul__"),
    "scalar.poly_add": ("hypercourant.scalar", "Polynomial.__add__"),
    "scalar.field_add": ("hypercourant.scalar", "ScalarField.__add__"),
    "scalar.field_mul": ("hypercourant.scalar", "ScalarField.__mul__"),
    "scalar.poly_gcd": ("hypercourant.scalar", "poly_gcd"),
    "scalar.divexact": ("hypercourant.scalar", "Polynomial.divexact"),
    "scalar.evaluate": ("hypercourant.scalar", "ScalarField.evaluate"),
    "cartan.lie_bracket": ("hypercourant.cartan", "lie_bracket"),
    "cartan.lie_derivative": ("hypercourant.cartan", "lie_derivative"),
    "cartan.interior_product": ("hypercourant.cartan", "interior_product"),
    "cartan.exterior_derivative": ("hypercourant.cartan", "exterior_derivative"),
    "courant.dorfman": ("hypercourant.courant", "dorfman"),
    "courant.pairing": ("hypercourant.courant", "pairing"),
    "endo.apply": ("hypercourant.endo", "GEndo.apply"),
    "endo.compose": ("hypercourant.endo", "GEndo.compose"),
    "endo.certify": ("hypercourant.endo", "HKTriple.certify"),
    "nijenhuis.connection": ("hypercourant.nijenhuis", "connection"),
    "nijenhuis.concomitant_statuses": ("hypercourant.nijenhuis", "concomitant_statuses"),
    "nijenhuis.theorem_report": ("hypercourant.nijenhuis", "theorem_report"),
    "nijenhuis.check_connection_laws": ("hypercourant.nijenhuis", "check_connection_laws"),
    "nijenhuis.check_identities": ("hypercourant.nijenhuis", "check_identities"),
    "report.check": ("hypercourant.report", "check"),
    "report.witness_for": ("hypercourant.report", "witness_for"),
    "report.find_nonzero_point": ("hypercourant.report", "find_nonzero_point"),
    "parse.parse_structure": ("hypercourant.runfile", "parse_structure"),
    "runfile.emit": ("hypercourant.runfile", "emit"),
}

# spans reported with .calls and .self_s
TIMED = (
    "scalar.poly_mul", "scalar.poly_add", "scalar.field_add", "scalar.field_mul",
    "scalar.poly_gcd", "scalar.divexact", "scalar.evaluate",
    "cartan.lie_bracket", "cartan.lie_derivative", "cartan.interior_product",
    "cartan.exterior_derivative", "courant.dorfman", "courant.pairing",
    "endo.apply", "endo.compose", "nijenhuis.connection", "report.find_nonzero_point",
)

# spans reported with .total_s
TOTALED = (
    "endo.certify", "nijenhuis.concomitant_statuses", "nijenhuis.theorem_report",
    "nijenhuis.check_connection_laws", "nijenhuis.check_identities",
    "parse.parse_structure", "runfile.emit",
)

# span -> (counter, span whose calls inside it are counted)
INNER = {
    "nijenhuis.concomitant_statuses": ("residuals_tested", "report.witness_for"),
    "report.find_nonzero_point": ("evaluations", "scalar.evaluate"),
}


class Span:
    __slots__ = ("calls", "total", "self_time", "inner")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.inner = 0


class Tracer:
    """In-memory spans and counters for one job, read out when it ends."""

    def __init__(self):
        self.spans = {name: Span() for name in TARGETS}
        self.spans["trace.root"] = Span()
        # child-time accumulator of every open span; the bottom entry
        # collects the root spans
        self._stack = [[0.0]]
        self._gcd_seen = set()
        self.gcd_repeats = 0
        self.term_pairs = 0
        self.peak_terms = 0
        self.check_failed = 0

    def root(self, fn, *args, **kwargs):
        """Run fn as a root span; its self time is the unattributed time."""
        return self._wrap("trace.root", fn)(*args, **kwargs)

    def _wrap(self, name, fn, before=None, after=None):
        span = self.spans[name]
        stack = self._stack
        clock = time.perf_counter
        source = self.spans[INNER[name][1]] if name in INNER else None

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            mark = source.calls if source is not None else 0
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                span.calls += 1
                span.total += dur
                span.self_time += dur - frame[0]
                if source is not None:
                    span.inner += source.calls - mark
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        return traced

    # -- counters taken in the wrappers -------------------------------------

    def _before_mul(self, args):
        a, b = args
        self.term_pairs += len(a.terms) * len(b.terms)

    def _after_mul(self, result):
        if len(result.terms) > self.peak_terms:
            self.peak_terms = len(result.terms)

    def _before_gcd(self, args):
        # associates over Q share their monic form, so a repeat is a pair of
        # monic forms already seen, in either order
        key = tuple(sorted(hash(_monic_terms(p)) for p in args))
        if key in self._gcd_seen:
            self.gcd_repeats += 1
        else:
            self._gcd_seen.add(key)

    def _after_check(self, result):
        if not result.passed:
            self.check_failed += 1

    # -- installation --------------------------------------------------------

    def install(self):
        """Wrap every binding of every target."""
        hooks = {
            "scalar.poly_mul": (self._before_mul, self._after_mul),
            "scalar.poly_gcd": (self._before_gcd, None),
            "report.check": (None, self._after_check),
        }
        wrappers = {}  # id(original) -> (original, wrapper)
        for name, (module_name, path) in TARGETS.items():
            owner, attr = _resolve(module_name, path)
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrappers[id(fn)] = (fn, self._wrap(name, fn, *hooks.get(name, (None, None))))
        for owner in _namespaces():
            for key, value in list(vars(owner).items()):
                new = _swap(value, wrappers)
                if new is not None:
                    setattr(owner, key, new)
                fn = _function(value)
                if fn is not None:
                    _patch_defaults(fn, wrappers)
        left = _stale_bindings(wrappers)
        if left:
            raise RuntimeError(f"trace: bindings left unwrapped: {', '.join(left)}")

    # -- read-out ------------------------------------------------------------

    def metrics(self) -> dict:
        s = self.spans
        out = {}
        for name in TIMED:
            out[f"{name}.calls"] = s[name].calls
            out[f"{name}.self_s"] = s[name].self_time
        for name in TOTALED:
            out[f"{name}.total_s"] = s[name].total
        out["scalar.poly_mul.term_pairs"] = self.term_pairs
        out["scalar.poly_mul.peak_terms"] = self.peak_terms
        gcd_calls = s["scalar.poly_gcd"].calls
        out["scalar.poly_gcd.repeat_ratio"] = self.gcd_repeats / gcd_calls if gcd_calls else 0.0
        out["nijenhuis.concomitant_statuses.self_s"] = s["nijenhuis.concomitant_statuses"].self_time
        out["nijenhuis.concomitant_statuses.residuals_tested"] = s[
            "nijenhuis.concomitant_statuses"
        ].inner
        out["report.check.calls"] = s["report.check"].calls
        out["report.check.failed"] = self.check_failed
        # a search that returns has found its witness; one that fails raises
        # and fails the job
        search = s["report.find_nonzero_point"]
        out["report.find_nonzero_point.evaluations"] = search.inner
        out["report.witness_yield"] = search.calls / search.inner if search.inner else 0.0
        out["trace.unattributed_s"] = s["trace.root"].self_time
        return out

    def self_time_sum(self) -> float:
        """Self times of all spans; equals the total of the root spans."""
        return sum(span.self_time for span in self.spans.values())


def _monic_terms(p) -> tuple:
    if not p.terms:
        return ()
    lead = p.terms[0][1]
    return tuple((m, c / lead) for m, c in p.terms)


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _namespaces() -> list:
    """Every hypercourant module and every class defined in one."""
    out = []
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == "hypercourant" or name.startswith("hypercourant.")):
            continue
        out.append(module)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == name:
                out.append(value)
    return out


def _function(value):
    if isinstance(value, (classmethod, staticmethod)):
        value = value.__func__
    return value if isinstance(value, types.FunctionType) else None


def _swap(value, wrappers):
    """The wrapped replacement for a binding, or None if it is not a target."""
    if isinstance(value, classmethod):
        inner = _swap(value.__func__, wrappers)
        return classmethod(inner) if inner is not None else None
    hit = wrappers.get(id(value))
    if hit is not None and hit[0] is value:
        return hit[1]
    return None


def _patch_defaults(fn, wrappers):
    if fn.__defaults__:
        new = [_swap(d, wrappers) for d in fn.__defaults__]
        fn.__defaults__ = tuple(d if v is None else v for v, d in zip(new, fn.__defaults__))
    for key, d in list((fn.__kwdefaults__ or {}).items()):
        v = _swap(d, wrappers)
        if v is not None:
            fn.__kwdefaults__[key] = v


def _stale_bindings(wrappers) -> list:
    left = []
    for owner in _namespaces():
        for key, value in vars(owner).items():
            if _swap(value, wrappers) is not None:
                left.append(f"{owner.__name__}.{key}")
            fn = _function(value)
            if fn is not None:
                defaults = (fn.__defaults__ or ()) + tuple((fn.__kwdefaults__ or {}).values())
                if any(_swap(d, wrappers) is not None for d in defaults):
                    left.append(f"{owner.__name__}.{key} (default argument)")
    return left
