"""Per-layer tracing of ``cgk`` from outside the package.

``Tracer.install`` wraps every public function of the library modules,
plus ``cli.run`` and the ``Scalar`` constructor, at every name that binds
it in any ``cgk`` module (``cgk.invariants.compose`` as well as
``cgk.diffop.compose``), so no call goes unseen.  Each wrapped name keeps
a count, its total time and its self time (its time minus the time of
the wrapped calls made inside it).  Coarse calls also leave a span with
its parent, kept in memory and written out as JSON when the run ends.
The benchmark's own modules are rebound as well, since they call into
``cgk`` through names they imported.  ``uninstall`` restores the
original bindings.
"""

import importlib
import inspect
import json
import time

LIBRARY = ("scalars", "algebra", "verma", "singular", "diffop", "reps", "invariants")
MODULES = LIBRARY + ("cli",)

# Calls slow and rare enough to keep a span for every one of them; every
# other wrapped name is aggregated only.
SPANNED = frozenset({
    "cli.run",
    "reps.rep_check",
    "invariants.invariant_operator",
    "invariants.intertwining_check",
    "singular.singular_closed",
    "singular.verify_singular",
    "singular.search_singular",
    "verma.level_basis",
})


def _terms_of_diffop(op):
    return sum(len(poly.terms) for poly in op.terms.values())


# Extra counters: wrapped name -> (counter name, size of the result).
RESULT_COUNTERS = {"diffop.compose": ("out_terms", _terms_of_diffop)}


class Tracer:
    """Wraps ``cgk`` in place; ``callers`` are further modules (the
    benchmark's own) whose bindings of ``cgk`` functions are wrapped too."""

    def __init__(self, callers=()):
        self.modules = {m: importlib.import_module("cgk." + m) for m in MODULES}
        self.callers = tuple(callers)
        self.stats = {}       # name -> {"calls", "total_s", "self_s", ...}
        self.spans = []       # (id, parent id, name, start, end)
        self._next_id = 0
        self._child = []      # per open call: time spent in wrapped children
        self._open_spans = []
        self._saved = []      # (owner, attribute, original)

    def reset(self):
        self.stats = {}
        self.spans = []
        self._next_id = 0

    def _targets(self):
        """(name, function) pairs to wrap, and the Scalar class."""
        out = []
        for short, mod in self.modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")
                        and (short in LIBRARY or attr == "run")):
                    out.append(("%s.%s" % (short, attr), obj))
        scalar = self.modules["scalars"].Scalar
        return out, scalar

    def wrap_case(self, name, fn):
        """A benchmark case as a root span, so each case's spans share one
        ancestor (its time minus the program's is the benchmark's own)."""
        return self._wrap("case " + name, fn, spanned=True)

    def _wrap(self, name, fn, spanned=None):
        child = self._child
        open_spans = self._open_spans
        spanned = name in SPANNED if spanned is None else spanned
        counter = RESULT_COUNTERS.get(name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            child.append(0.0)
            if spanned:
                span_id = tracer._next_id
                tracer._next_id += 1
                parent = open_spans[-1] if open_spans else None
                open_spans.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = child.pop()
                if child:
                    child[-1] += elapsed
                entry = tracer.stats.get(name)
                if entry is None:
                    entry = tracer.stats[name] = {"calls": 0, "total_s": 0.0,
                                                  "self_s": 0.0}
                entry["calls"] += 1
                entry["total_s"] += elapsed
                entry["self_s"] += elapsed - inner
                if spanned:
                    open_spans.pop()
                    tracer.spans.append((span_id, parent, name, start, start + elapsed))
            if counter is not None:
                key, size = counter
                entry[key] = entry.get(key, 0) + size(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        functions, scalar = self._targets()
        for name, fn in functions:
            wrapped = self._wrap(name, fn)
            for mod in tuple(self.modules.values()) + self.callers:
                for attr, obj in list(vars(mod).items()):
                    if obj is fn:
                        self._saved.append((mod, attr, obj))
                        setattr(mod, attr, wrapped)
        init = scalar.__init__
        self._saved.append((scalar, "__init__", init))
        scalar.__init__ = self._wrap("scalars.Scalar", init)

    def uninstall(self):
        while self._saved:
            owner, attr, obj = self._saved.pop()
            setattr(owner, attr, obj)

    def write_spans(self, path, extra=None):
        """Write the spans (id, parent, name, start, end) and the stats."""
        spans = sorted(self.spans, key=lambda s: s[0])
        payload = dict(extra or {})
        payload["spans"] = [
            {"id": i, "parent": p, "name": n, "start_s": s, "end_s": e}
            for i, p, n, s, e in spans
        ]
        payload["stats"] = self.stats
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
