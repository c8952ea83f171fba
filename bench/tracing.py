"""In-memory span tracing of the hamtg layers, installed from outside the package.

``installed(tracer)`` replaces each layer function of the ``hamtg`` modules,
at every module-level name that binds it (``lab`` and ``solver`` import
their collaborators with ``from ... import``), and the ``Gf2Basis`` methods
on the class, by wrappers that record a span (name, start, end, parent).
Leaving the context restores every original binding.  Recursive and nested
calls go through the wrappers too, so each span is parented to the span
that was open when it started and self time is exact.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator, Optional

LAYER_MODULES = ("gf2", "timegraph", "permvec", "canonical", "liftbasis", "solver", "lab")

# Public helpers called once per element inside other layers' inner loops.
# A span each would cost more than the work it measures, so their time is
# part of the caller's self time.
LEAF_HELPERS = frozenset(
    {
        "gf2.bit_indices",
        "timegraph.edge_space_size",
        "timegraph.check_edge",
        "timegraph.edge_index",
        "timegraph.edge_from_index",
        "timegraph.identity",
        "timegraph.check_permutation",
        "timegraph.incident_edges",
        "timegraph.incident_mask",
        "timegraph.is_incident",
        "liftbasis.lift_perm",
        "liftbasis.unlift_perm",
        "liftbasis.lift_edge",
        "liftbasis.unlift_edge",
    }
)

GF2BASIS_METHODS = ("insert", "insert_raw", "contains", "coords", "coords_raw")


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def reset(self) -> None:
        self.spans = []
        self.counters = {}

    def wrap(
        self,
        name: str,
        fn: Callable,
        before: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            state = before(tracer, args, kwargs) if before is not None else None
            stack = tracer._stack
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            tracer.spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(tracer, args, kwargs, result, state)
            return result

        return functools.update_wrapper(wrapper, fn)


# ---------------------------------------------------------------------------
# counters recorded at the layer boundaries


def _arg(args: tuple, kwargs: dict, pos: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _solve_after(tr: Tracer, args, kwargs, res, state) -> None:
    tr.count("gf2.solve_system.inconsistent", 0 if res.consistent else 1)
    tr.count("gf2.solve_system.rank_sum", res.rank)


def _insert_raw_after(tr: Tracer, args, kwargs, res, state) -> None:
    tr.count("gf2.Gf2Basis.insert_raw.extended", 1 if res.extended else 0)


def _assemble_after(tr: Tracer, args, kwargs, system, state) -> None:
    tr.count("solver.assemble_system.rows", len(system.rows))
    tr.count("solver.assemble_system.raw_rows", system.raw_rows)


def _build_basis_before(tr: Tracer, args, kwargs) -> None:
    # A hit is inferred from the order's cache file existing before the call.
    n = _arg(args, kwargs, 0, "n")
    cache_dir = _arg(args, kwargs, 1, "cache_dir")
    if cache_dir is None:
        cache_dir = os.environ.get("HAMTG_CACHE_DIR") or None
    hit = cache_dir is not None and (Path(cache_dir) / f"pair_basis_n{n}.json").exists()
    tr.count("liftbasis.build_basis.cache_hit" if hit else "liftbasis.build_basis.cache_miss")


HOOKS = {
    "gf2.solve_system": (None, _solve_after),
    "gf2.Gf2Basis.insert_raw": (None, _insert_raw_after),
    "solver.assemble_system": (None, _assemble_after),
    "liftbasis.build_basis": (_build_basis_before, None),
}


# ---------------------------------------------------------------------------
# installing and removing the wrappers


def layer_functions() -> dict[str, Callable]:
    """Traced name -> original function, for every public layer function."""
    import hamtg.gf2

    out: dict[str, Callable] = {}
    for short in LAYER_MODULES:
        mod = importlib.import_module(f"hamtg.{short}")
        for attr, obj in vars(mod).items():
            name = f"{short}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not attr.startswith("_")
                and name not in LEAF_HELPERS
            ):
                out[name] = obj
    for meth in GF2BASIS_METHODS:
        out[f"gf2.Gf2Basis.{meth}"] = vars(hamtg.gf2.Gf2Basis)[meth]
    return out


def _hamtg_modules() -> list:
    return [
        mod
        for key, mod in sorted(sys.modules.items())
        if mod is not None and (key == "hamtg" or key.startswith("hamtg."))
    ]


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Bind traced wrappers everywhere the originals are bound; restore on exit."""
    import hamtg.gf2

    originals = layer_functions()
    wrapper_of: dict[int, Callable] = {}
    for name, fn in originals.items():
        before, after = HOOKS.get(name, (None, None))
        wrapper_of[id(fn)] = tracer.wrap(name, fn, before, after)
    patches: list[tuple[object, str, object]] = []
    try:
        for mod in _hamtg_modules():
            for attr, val in list(vars(mod).items()):
                w = wrapper_of.get(id(val))
                if w is not None:
                    patches.append((mod, attr, val))
                    setattr(mod, attr, w)
        cls = hamtg.gf2.Gf2Basis
        for meth in GF2BASIS_METHODS:
            orig = vars(cls)[meth]
            patches.append((cls, meth, orig))
            setattr(cls, meth, wrapper_of[id(orig)])
        yield
    finally:
        for obj, attr, orig in reversed(patches):
            setattr(obj, attr, orig)


# ---------------------------------------------------------------------------
# reading the spans


def span_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per name: calls, inclusive seconds (outermost spans of that name) and self seconds."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    stats: dict[str, dict[str, float]] = {}
    for idx, (name, t0, t1, parent) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["self_s"] += (t1 - t0) - child_time[idx]
        # inclusive time counts a recursive call once, at its outermost span
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            st["s"] += t1 - t0
    return stats


def coverage(spans: list[list]) -> float:
    """Share of the root spans' time that their child spans cover."""
    root_time = 0.0
    covered = 0.0
    for name, t0, t1, parent in spans:
        if parent < 0:
            root_time += t1 - t0
        elif spans[parent][3] < 0:
            covered += t1 - t0
    return covered / root_time if root_time > 0 else 0.0
