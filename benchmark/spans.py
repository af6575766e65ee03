"""Span recording around the public functions of the `mbrh` modules.

The benchmark traces the program from outside: `install` wraps a
function and puts the wrapper into every loaded `mbrh.*` namespace that
holds the original, so a name imported with `from .x import f` is traced
as well as `x.f`.  Spans are kept in memory under a lock (the stamp loop
calls `sie_solve` from pool threads) and written out once at the end.
"""

import functools
import json
import sys
import threading
import time


PACKAGE = "mbrh"


class Recorder:
    """In-memory span store: (name, start, end, parent, ok, info) tuples."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.spans = []

    def wrap(self, name, fn, info=None):
        """Wrap fn; info(args, kwargs, result) adds a dict to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            stack.append(name)
            ok, out = False, None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = time.perf_counter()
                stack.pop()
                extra = info(args, kwargs, out) if (ok and info) else None
                with self._lock:
                    self.spans.append((name, t0, t1, parent, ok, extra))

        return traced

    def write(self, path):
        with self._lock:
            rows = [list(s) for s in self.spans]
        with open(path, "w") as fh:
            json.dump(rows, fh)


def _find(module, func):
    """`func` of mbrh.<module>, or, where a refactor moved it, of the
    loaded mbrh module that defines it now; None if no module has it."""
    home = sys.modules.get(f"{PACKAGE}.{module}")
    if home is not None and callable(getattr(home, func, None)):
        return getattr(home, func)
    for name, m in sorted(_namespaces()):
        obj = vars(m).get(func)
        if callable(obj) and getattr(obj, "__module__", None) == name:
            return obj
    return None


def _namespaces():
    return [(name, m) for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def install(recorder, targets):
    """Wrap each (module, function, info) target in every namespace.

    The span name is "<module>.<function>" even when the function now
    lives elsewhere.  Returns the number of namespace slots replaced per
    target; 0 means no loaded module has the function.
    """
    replaced = {}
    for module, func, info in targets:
        label = f"{module}.{func}"
        orig = _find(module, func)
        replaced[label] = 0
        if orig is None:
            continue
        wrapper = recorder.wrap(label, orig, info)
        for _, m in _namespaces():
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapper)
                    replaced[label] += 1
    return replaced


def _steps(args, kwargs, out):
    s_grid = args[1] if len(args) > 1 else kwargs["s_grid"]
    return {"steps": len(s_grid) - 1}


def _z_points(args, kwargs, out):
    z = args[2] if len(args) > 2 else kwargs["z"]
    return {"points": int(getattr(z, "size", 1))}


def _poles(args, kwargs, out):
    return {"poles": len(out)}


def _cond(args, kwargs, out):
    return {"cond": float(out.diagnostics["cond"])}


def _history(args, kwargs, out):
    mb = (out.E.nbytes + out.rho.nbytes + out.N.nbytes) / 2 ** 20
    return {"history_mb": mb, "steps": len(out.t_grid) - 1}


# (module, function, info) wrapped in a traced run; module names are
# relative to the mbrh package
TARGETS = [
    ("cli", "load_scenario", None),
    ("cli", "emit_results", None),
    ("cli", "parallel_map", None),
    ("rhsolver", "sie_solve", _cond),
    ("rhsolver", "_build_cauchy_plus", None),
    ("spectral", "jost_phi", None),
    ("spectral", "jost_w", None),
    ("spectral", "magnus_propagate", _steps),
    ("spectral", "locate_a_zeros", _poles),
    ("spectral", "continued_a", _z_points),
    ("jump", "k_solve", None),
    ("jump", "jump_mixed", None),
    ("lax", "cauchy_transform_F", None),
    ("broadening", "pv_cauchy_pwlin", None),
    ("direct", "bloch_rotation", None),
    ("direct", "integrate_direct", _history),
]
