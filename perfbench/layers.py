"""Outside-in per-layer attribution: wrap each layer's public entry points.

The traced run replaces every entry point listed in :data:`ENTRIES` with a
thin wrapper that pushes a frame on one call stack, times the call with
``time.perf_counter`` and, on return, charges the layer its *self time*:
the wrapped duration minus the time spent in nested wrapped calls.  Nothing
inside ``src/`` is edited; the wrappers live only in this process.

Module-level functions are rebound wherever they are bound, not only where
they are defined: ``allreduce_*`` and ``pcg_solve*`` are imported by name
into ``repro.mas.model``, ``classify_line`` into eleven modules, and a
wrapper installed only on the defining module would see none of those
calls.  :meth:`Tracer.install` scans every loaded ``repro`` module for
attributes that are the original function object and rebinds each one.
Methods are patched on their class, so every instance and every bound
method looked up after installation goes through the wrapper.

Kernel bodies (``KernelSpec.run_body``) are split by the dispatcher entry
that issued them: bodies issued by ``scalar_reduction`` or
``kernels_region`` are reductions, everything else is a stencil.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Dispatcher entries whose kernel bodies count as reductions.
REDUCTION_ENTRIES = frozenset(
    {"RankRuntime.scalar_reduction", "RankRuntime.kernels_region"}
)

KERNEL_ENTRY = "KernelSpec.run_body"
STENCIL_LAYER = "mas.kernel.stencil"
REDUCTION_LAYER = "mas.kernel.reduction"

_DISPATCH = "repro.runtime.dispatcher"
_METRICS = "repro.obs.metrics"

#: (layer, module, qualified name, kind).  ``kind`` is "func" (rebound in
#: every module that binds it), "method", "property" or "cm" (a method
#: returning a context manager whose enter/exit are timed too).
ENTRIES: tuple[tuple[str, str, str, str], ...] = (
    ("mas.model", "repro.mas.model", "MasModel.step", "method"),
    *(
        ("runtime.dispatcher", _DISPATCH, f"RankRuntime.{m}", "method")
        for m in (
            "loop", "scalar_reduction", "array_reduction", "atomic_loop",
            "kernels_region", "routine_loop", "sync", "set_clock",
            "register_array", "update_host", "update_device", "host_access",
        )
    ),
    ("runtime.dispatcher", _DISPATCH, "RankRuntime.region", "cm"),
    ("runtime.dispatcher", _DISPATCH, "RankRuntime.stats", "property"),
    ("mas.kernel", "repro.runtime.kernel", KERNEL_ENTRY, "method"),
    *(
        ("mas.pcg", "repro.mas.pcg", f, "func")
        for f in (
            "pcg_solve", "pcg_solve_ca", "pcg_solve_pipelined",
            "pcg_solve_batched", "pcg_solve_ca_batched",
            "pcg_solve_pipelined_batched", "jacobi_preconditioner",
            "jacobi_spectral_bounds", "chebyshev_preconditioner",
        )
    ),
    *(
        ("mpi.halo", "repro.mpi.halo", f"HaloExchanger.{m}", "method")
        for m in (
            "ensure_buffers", "exchange", "exchange_many", "exchange_begin",
            "exchange_begin_many", "exchange_finish",
        )
    ),
    *(
        ("mpi.collectives", "repro.mpi.collectives", f, "func")
        for f in (
            "barrier", "allreduce_sum", "allreduce_min", "allreduce_max",
            "allreduce_many", "allreduce_many_begin", "allreduce_many_finish",
        )
    ),
    *(
        ("obs.metrics", _METRICS, q, "method")
        for q in (
            "MetricsRegistry.counter", "MetricsRegistry.gauge",
            "MetricsRegistry.histogram", "MetricFamily.labels",
            "MetricFamily.inc", "MetricFamily.set", "MetricFamily.observe",
            "Counter.inc", "Gauge.set", "Gauge.inc", "Gauge.dec",
            "Histogram.observe",
        )
    ),
    ("obs.tracing", "repro.obs.tracing", "Tracer.span", "cm"),
    ("fortran.lexer", "repro.fortran.lexer", "classify_line", "func"),
    ("fortran.lexer", "repro.fortran.lexer", "subroutine_name", "func"),
    ("fortran.lexer", "repro.fortran.lexer", "called_name", "func"),
    ("fortran.frontend", "repro.fortran.frontend.resolve", "build_index", "func"),
    ("analysis.interproc", "repro.analysis.interproc", "summarize", "func"),
    ("analysis.rules", "repro.analysis.fortran_lint", "analyze_codebase", "func"),
)


@dataclass
class Entry:
    """One wrapped entry point and its call count."""

    name: str
    layer: str
    calls: int = 0
    #: Modules (or the class) where the wrapper was bound.
    sites: list[str] = field(default_factory=list)
    #: Optional hook run on each return value (e.g. PCG iteration counts).
    observe: Callable[[Any], None] | None = None


class Tracer:
    """Self-time accumulator over a single stack of wrapped calls."""

    def __init__(self) -> None:
        self.entries: dict[str, Entry] = {}
        #: Frames are [child_seconds, entry]; the root frame has no entry.
        self._stack: list[list] = [[0.0, None]]
        self.self_s: dict[str, float] = {}
        #: Entries into a layer from a different layer (nested calls of one
        #: layer into itself count once).
        self.layer_calls: dict[str, int] = {}
        #: Free-form counters bumped by entry observers.
        self.counts: dict[str, float] = {}
        self._undo: list[Callable[[], None]] = []

    # -- timing -------------------------------------------------------------

    def _call(self, entry: Entry, fn: Callable, args: tuple, kwargs: dict) -> Any:
        stack = self._stack
        parent = stack[-1]
        frame = [0.0, entry]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            d = time.perf_counter() - t0
            stack.pop()
            parent[0] += d
            layer = entry.layer
            parent_entry = parent[1]
            if entry.name == KERNEL_ENTRY:
                reduction = (
                    parent_entry is not None
                    and parent_entry.name in REDUCTION_ENTRIES
                )
                layer = REDUCTION_LAYER if reduction else STENCIL_LAYER
            self.self_s[layer] = self.self_s.get(layer, 0.0) + d - frame[0]
            entry.calls += 1
            if parent_entry is None or parent_entry.layer != entry.layer:
                self.layer_calls[entry.layer] = (
                    self.layer_calls.get(entry.layer, 0) + 1
                )
        if entry.observe is not None:
            entry.observe(result)
        return result

    def _wrap(self, entry: Entry, fn: Callable) -> Callable:
        call = self._call

        def wrapper(*args, **kwargs):
            return call(entry, fn, args, kwargs)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        wrapper.__name__ = getattr(fn, "__name__", entry.name)
        return wrapper

    def _wrap_cm(self, entry: Entry, fn: Callable) -> Callable:
        call = self._call
        enter = Entry(f"{entry.name}.__enter__", entry.layer)
        exit_ = Entry(f"{entry.name}.__exit__", entry.layer)
        self.entries[enter.name] = enter
        self.entries[exit_.name] = exit_

        def wrapper(*args, **kwargs):
            cm = call(entry, fn, args, kwargs)
            return _TimedContext(call, enter, exit_, cm)

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self, observers: dict[str, Callable[[Any], None]] | None = None) -> None:
        """Wrap every entry point in :data:`ENTRIES` that exists.

        Entry points a refactor has removed are skipped; the workloads'
        expected-entry check then reports them if they mattered.
        """
        observers = observers or {}
        for layer, module, qualname, kind in ENTRIES:
            mod = importlib.import_module(module)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            if attr not in vars(owner):
                continue
            entry = Entry(qualname, layer, observe=observers.get(qualname))
            self.entries[qualname] = entry
            if kind == "func":
                self._rebind_everywhere(entry, getattr(mod, attr))
                continue
            orig = vars(owner)[attr]
            if kind == "property":
                new = property(self._wrap(entry, orig.fget))
            elif kind == "cm":
                new = self._wrap_cm(entry, orig)
            else:
                new = self._wrap(entry, orig)
            setattr(owner, attr, new)
            entry.sites.append(f"{module}.{owner_name}")
            self._undo.append(lambda o=owner, a=attr, v=orig: setattr(o, a, v))

    def _rebind_everywhere(self, entry: Entry, orig: Callable) -> None:
        wrapper = self._wrap(entry, orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    entry.sites.append(f"{mod_name}.{attr}")
                    self._undo.append(
                        lambda m=mod, a=attr, v=orig: setattr(m, a, v)
                    )

    def uninstall(self) -> None:
        """Restore every original binding."""
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()

    # -- readout --------------------------------------------------------------

    def bump(self, key: str, amount: float = 1.0) -> None:
        """Add to a free-form counter (used by entry observers)."""
        self.counts[key] = self.counts.get(key, 0.0) + amount

    def snapshot(self) -> dict[str, dict]:
        """Copy of the accumulators, for differencing around timed ops."""
        return {
            "self_s": dict(self.self_s),
            "layer_calls": dict(self.layer_calls),
            "counts": dict(self.counts),
            "entry_calls": {n: e.calls for n, e in self.entries.items()},
        }


class _TimedContext:
    """Context-manager proxy timing ``__enter__``/``__exit__`` as calls in
    the layer of the entry that created it."""

    __slots__ = ("_call", "_enter", "_exit", "_cm")

    def __init__(self, call: Callable, enter: Entry, exit_: Entry, cm: Any) -> None:
        self._call = call
        self._enter = enter
        self._exit = exit_
        self._cm = cm

    def __enter__(self) -> Any:
        return self._call(self._enter, self._cm.__enter__, (), {})

    def __exit__(self, *exc: object) -> Any:
        return self._call(self._exit, self._cm.__exit__, exc, {})


def diff(after: dict[str, dict], before: dict[str, dict]) -> dict[str, dict]:
    """Per-key difference of two :meth:`Tracer.snapshot` results."""
    return {
        group: {
            k: v - before[group].get(k, 0) for k, v in values.items()
        }
        for group, values in after.items()
    }
