"""In-memory span tracer over sombrero's public functions.

The tracer never edits the package: it rebinds names in the namespaces
where callers look them up.  `cli` finds `verify_solution` in its own
globals, `eigensolver` finds `eval_potential` in its own globals, the
benchmark finds `groundstate` on the `sombrero` package, and methods
such as `TrialSplit.h_at` are found on their class.  `install` swaps in
a timing wrapper at every such binding and `uninstall` puts the
originals back.  A name is wrapped only if it exists, so functions that
a later version removes drop out of the trace instead of breaking it.

Spans are `Span` tuples kept in a list and written out by the caller at
the end.  Self time is the span's duration minus the time its direct
child spans cover.
"""

import importlib
import inspect
import sys
import time
import warnings
from collections import namedtuple

import numpy as np

LAYERS = ("potential", "trial", "solvers", "wavefunction", "eigensolver", "cli")

Span = namedtuple("Span", "case id parent layer name t0 t1 self_s error attrs")


def _public_callables(module):
    """(owner, name, descriptor, layer-qualified name) for every public
    function and every public plain method or classmethod of a public
    class that the module itself defines."""
    out = []
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            out.append((module, name, obj, name))
        elif inspect.isclass(obj):
            for attr, desc in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(desc) or isinstance(desc, classmethod):
                    out.append((obj, attr, desc, f"{name}.{attr}"))
    return out


class Tracer:
    """Records spans and counters while installed; one calling thread only."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.case = None
        self._stack = []  # frames: [id, child_seconds, layer, name, attrs]
        self._next_id = 0
        self._patches = []
        self._targets = self._build_targets()

    def _build_targets(self):
        warning_cls = getattr(self.package, "GridExtentWarning", None)
        targets = []
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"{self.package.__name__}.{layer}")
            except ImportError:
                continue
            for owner, name, desc, qualname in _public_callables(module):
                func = desc.__func__ if isinstance(desc, classmethod) else desc
                if qualname == "discretize":
                    func = _counting_warnings(func, warning_cls, self)
                wrapper = self._wrap(layer, qualname, func)
                if isinstance(desc, classmethod):
                    wrapper = classmethod(wrapper)
                targets.append((owner, name, desc, wrapper))
        return targets

    # -- install / uninstall -------------------------------------------------

    def install(self):
        """Rebind every wrapped name wherever a sombrero module holds it."""
        if self._patches:
            return
        by_function = {
            id(desc): wrapper
            for owner, _, desc, wrapper in self._targets
            if inspect.ismodule(owner)
        }
        prefix = self.package.__name__
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
                continue
            for name, value in list(vars(module).items()):
                wrapper = by_function.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, name, value))
                    setattr(module, name, wrapper)
        for owner, name, desc, wrapper in self._targets:
            if inspect.isclass(owner):
                self._patches.append((owner, name, desc))
                setattr(owner, name, wrapper)

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def open(self, layer, name, attrs):
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, 0.0, layer, name, attrs]
        self._stack.append(frame)
        return frame, parent, time.perf_counter()

    def close(self, token, error=None):
        frame, parent, t0 = token
        t1 = time.perf_counter()
        self._stack.pop()
        duration = t1 - t0
        if self._stack:
            self._stack[-1][1] += duration
        span_id, child_seconds, layer, name, attrs = frame
        self.spans.append(Span(self.case, span_id, parent, layer, name, t0, t1, duration - child_seconds, error, attrs))

    def enclosing(self, name):
        """Attributes of the innermost open span with this name, or None."""
        for frame in reversed(self._stack):
            if frame[3] == name:
                return frame[4]
        return None

    def _wrap(self, layer, qualname, func):
        tracer = self
        before = _BEFORE.get(qualname)
        after = _AFTER.get(qualname)

        def traced(*args, **kwargs):
            attrs = {}
            if before is not None:
                args, kwargs = before(tracer, attrs, args, kwargs)
            token = tracer.open(layer, qualname, attrs)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                tracer.close(token, type(exc).__name__)
                raise
            if after is not None:
                after(tracer, attrs, result)
            tracer.close(token)
            return result

        traced.__name__ = getattr(func, "__name__", qualname)
        traced.__qualname__ = getattr(func, "__qualname__", qualname)
        traced.__doc__ = getattr(func, "__doc__", None)
        return traced


def _counting_warnings(func, warning_cls, tracer):
    """Count GridExtentWarning inside discretize, then re-emit every
    warning so that the caller's own filters still see it."""

    def inner(*args, **kwargs):
        caught = []
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                return func(*args, **kwargs)
        finally:
            attrs = tracer.enclosing("discretize")
            if attrs is not None:
                attrs["extent_warnings"] = sum(
                    1
                    for w in caught
                    if (warning_cls is not None and issubclass(w.category, warning_cls))
                    or w.category.__name__ == "GridExtentWarning"
                )
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)

    return inner


# -- per-function hooks: counters measured where the work happens ------------


def _before_discretize(tracer, attrs, args, kwargs):
    grid = kwargs.get("grid", args[2] if len(args) > 2 else None)
    if grid is not None:
        attrs["n"] = int(grid.n_points)
        solve = tracer.enclosing("groundstate")
        if solve is not None:
            solve.setdefault("r_max", set()).add(float(grid.r_max))
    return args, kwargs


def _before_eval_potential(tracer, attrs, args, kwargs):
    r = kwargs.get("r", kwargs.get("r_sq", args[1] if len(args) > 1 else None))
    attrs["points"] = int(np.size(r))
    return args, kwargs


def _before_find_roots(tracer, attrs, args, kwargs):
    attrs["f_evals"] = 0

    def wrap(f):
        def counted(x):
            attrs["f_evals"] += 1
            return f(x)

        return counted

    if args:
        args = (wrap(args[0]),) + tuple(args[1:])
    elif "f" in kwargs:
        kwargs = dict(kwargs, f=wrap(kwargs["f"]))
    return args, kwargs


def _after_find_roots(tracer, attrs, result):
    attrs["roots"] = len(result)


def _after_solve_eta(tracer, attrs, result):
    attrs["no_root"] = int(len(result) == 0)


def _after_groundstate(tracer, attrs, result):
    pair = getattr(result, "richardson_pair", None)
    if pair is not None:
        attrs["pair"] = (float(pair[0]), float(pair[1]))
        attrs["energy"] = float(result.energy)


_BEFORE = {
    "discretize": _before_discretize,
    "eval_potential": _before_eval_potential,
    "eval_potential_sq": _before_eval_potential,
    "find_bracketed_roots": _before_find_roots,
}
_AFTER = {
    "find_bracketed_roots": _after_find_roots,
    "solve_eta": _after_solve_eta,
    "groundstate": _after_groundstate,
}
