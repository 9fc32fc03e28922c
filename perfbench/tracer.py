"""Outside-in span tracer for the brspec package.

The tracer never edits the package source.  It finds the layer boundaries
by inspection: every function attribute of a ``brspec`` submodule whose
``__module__`` is a *different* ``brspec`` submodule is a call from one
layer into another (``from .assemble import assemble_operator`` binds such
an attribute), so replacing that attribute with a timing wrapper records a
span for each call made through it.  A few named calls inside one module
are wrapped in their own module's namespace as well (``NAMED_CALLS``).

Spans are kept in memory, one stack per thread, so calls made from the
sweep threads of ``critical-scan`` nest correctly.  A span opened on a
thread whose stack is empty takes as parent the span open on the thread
that installed the tracer (the span that caused it); self time subtracts
only children on the same thread, because children on other threads run
concurrently with their parent.

A name that a later refactor removes is skipped: its metric is absent,
the tracer does not fail.
"""

import contextlib
import functools
import importlib
import inspect
import pkgutil
import threading
import time

import numpy as np

PACKAGE = "brspec"

# calls made inside one module that are layer steps of their own
NAMED_CALLS = {
    "assemble": ("subtraction_integrals", "subtraction_integral_adaptive",
                 "assemble_potential"),
    "spectra": ("minimize_pk",),
}


def _iterations(args, result):
    """minimize_pk returns (E, f, trace); its iterations are the gradient tests."""
    trace = result[2] if isinstance(result, tuple) and len(result) > 2 else None
    norms = getattr(trace, "gradient_norms", None)
    return len(norms) if norms is not None else 0


def _points(args, result):
    """Kernel evaluators take (channel or l, p, q, ...): count the (p, q) pairs."""
    try:
        return int(np.broadcast(args[1], args[2]).size)
    except (IndexError, ValueError, TypeError):
        return 0


def is_kernel(layer, func):
    """Kernel evaluators of the channels layer (the multiplier kernels are apart)."""
    return layer == "channels" and "kernel" in func and "multiplier" not in func


def _counter(layer, func):
    if func == "minimize_pk":
        return _iterations
    if is_kernel(layer, func):
        return _points
    return None


class Span:
    __slots__ = ("name", "thread", "start", "end", "parent", "count")

    def __init__(self, name, thread, start, parent):
        self.name = name
        self.thread = thread
        self.start = start
        self.end = None
        self.parent = parent
        self.count = 0


class Tracer:
    """Wraps the package's layer boundaries while installed; spans stay in memory."""

    def __init__(self):
        self.spans = []
        self._stacks = {}
        self._root_thread = None
        self._patches = []

    # -- boundaries -------------------------------------------------------

    def boundaries(self):
        """(module, attribute, function) triples to wrap, found by inspection."""
        pkg = importlib.import_module(PACKAGE)
        found = []
        for info in pkgutil.iter_modules(pkg.__path__):
            mod = importlib.import_module(f"{PACKAGE}.{info.name}")
            for attr, obj in sorted(vars(mod).items()):
                owner = getattr(obj, "__module__", "") or ""
                if (inspect.isfunction(obj) and owner.startswith(PACKAGE + ".")
                        and owner != mod.__name__):
                    found.append((mod, attr, obj))
            for attr in NAMED_CALLS.get(info.name, ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj):
                    found.append((mod, attr, obj))
        return found

    def boundary_names(self):
        """The (layer, function) pairs that install() wraps."""
        return {(fn.__module__.rsplit(".", 1)[-1], fn.__name__)
                for _, _, fn in self.boundaries()}

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        self._root_thread = threading.get_ident()
        for mod, attr, fn in self.boundaries():
            layer = fn.__module__.rsplit(".", 1)[-1]
            name = f"{layer}.{fn.__name__}"
            setattr(mod, attr, self._wrap(fn, name, _counter(layer, fn.__name__)))
            self._patches.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans --------------------------------------------------------------

    def open(self, name):
        thread = threading.get_ident()
        stack = self._stacks.setdefault(thread, [])
        if stack:
            parent = stack[-1]
        else:
            # slicing reads the other thread's top atomically under the GIL
            tail = self._stacks.get(self._root_thread, [])[-1:]
            parent = tail[0] if tail else None
        span = Span(name, thread, time.perf_counter(), parent)
        stack.append(span)
        self.spans.append(span)          # list.append is atomic under the GIL
        return span

    def close(self, span):
        span.end = time.perf_counter()
        self._stacks[span.thread].pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, around a call it makes."""
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if counter is not None:
                span.count = counter(args, result)
            return result

        return traced

    def reset(self):
        self.spans = []
        self._stacks = {}


def self_times(spans):
    """Self seconds of each span: its duration minus same-thread children's."""
    own = {id(s): s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None and s.parent.thread == s.thread:
            own[id(s.parent)] -= s.end - s.start
    return own


def has_ancestor(span, name):
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def layer_metrics(spans, commands, known):
    """Per-layer metrics of one traced pass, and span totals by name.

    ``known`` holds the (layer, function) boundaries the tracer wrapped; a
    metric none of whose functions is among them is left out.
    """
    own = self_times(spans)
    by_name = {}
    for s in spans:
        agg = by_name.setdefault(s.name, {"s": 0.0, "calls": 0, "count": 0})
        agg["s"] += own[id(s)]
        agg["calls"] += 1
        agg["count"] += s.count

    m = {}

    def put(metric, pred, field="s"):
        if any(pred(l, f) for l, f in known):
            m[metric] = sum(v[field] for k, v in by_name.items()
                            if pred(*k.split(".", 1)))

    def fn(layer, func):
        return lambda l, f: (l, f) == (layer, func)

    def layer(name):
        return lambda l, f: l == name

    put("spectra.minimize_pk.s", fn("spectra", "minimize_pk"))
    put("spectra.minimize_pk.calls", fn("spectra", "minimize_pk"), "calls")
    put("spectra.minimize_pk.iterations", fn("spectra", "minimize_pk"), "count")
    put("spectra.dense_spectrum.s", fn("spectra", "dense_spectrum"))
    put("spectra.dense_spectrum.calls", fn("spectra", "dense_spectrum"), "calls")
    put("channels.kernel.s", is_kernel)
    put("channels.kernel.calls", is_kernel, "calls")
    put("channels.kernel.points", is_kernel, "count")
    put("channels.multiplier_channel_kernel.s", fn("channels", "multiplier_channel_kernel"))
    put("assemble.assemble_operator.calls", fn("assemble", "assemble_operator"), "calls")
    put("assemble.assemble_potential.s", fn("assemble", "assemble_potential"))
    put("assemble.subtraction_integrals.s", fn("assemble", "subtraction_integrals"))
    put("assemble.fallback_rows", fn("assemble", "subtraction_integral_adaptive"), "calls")
    put("assemble.fallback.s", fn("assemble", "subtraction_integral_adaptive"))
    put("experiments.critical_coupling_scan.s", fn("experiments", "critical_coupling_scan"))
    if ("experiments", "critical_coupling_scan") in known:
        m["experiments.critical_coupling_scan.assemblies"] = sum(
            1 for s in spans if s.name == "assemble.assemble_operator"
            and has_ancestor(s, "experiments.critical_coupling_scan"))
    for func in ("kato_check", "tix_check", "scaling_limit", "commutator_decay"):
        put(f"experiments.{func}.s", fn("experiments", func))
    put("extension.s", layer("extension"))
    put("extension.calls", layer("extension"), "calls")
    put("grids.build.s", lambda l, f: l == "grids" and f.startswith("build"))
    put("grids.operator_norm_h12.s", fn("grids", "operator_norm_h12"))
    put("dirac.s", layer("dirac"))
    for command in commands:
        m[f"cli.{command}.s"] = by_name.get(f"cli.{command}", {"s": 0.0})["s"]
    return m, by_name
