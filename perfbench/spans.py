"""Span tracing of kirchlab's public functions, installed from outside the package.

While a ``Tracer`` is active, each traced function is replaced, in every
``kirchlab`` module namespace that binds it, by a wrapper that records one
span per call: name, start, end, CPU time and the enclosing traced span.
Spans stay in memory; ``write`` saves them once the traced run is over.  On
exit every original binding is restored, so untraced work runs the program
exactly as shipped.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from dataclasses import dataclass

# (module, function) pairs traced; names a later version of the package no
# longer has are skipped.  expr.eval_at is left out on purpose: it recurses
# once per expression node per grid node, and wrapping it would cost more
# than the evaluation it measures.
TRACED = (
    ("cli", "main"), ("cli", "parse_config"),
    ("expr", "eval_field"),
    ("grid", "write_field"), ("grid", "read_field"),
    ("linalg", "cg_solve"), ("linalg", "pencil_eigensolve"),
    ("linalg", "assemble_weighted_laplacian"),
    ("kirchhoff", "fixed_point_scan"), ("kirchhoff", "solve_frozen"),
    ("kirchhoff", "fixed_point_map"), ("kirchhoff", "newton_solve"),
    ("kirchhoff", "linearized_solve"),
    ("eigen", "eigen_curve"), ("eigen", "principal_eigenpair"),
    ("eigen", "eigen_weight"), ("eigen", "is_admissible"),
    ("certify", "certify"), ("certify", "pointwise_certified_ratio"),
)


def _grid_nodes(args, result) -> dict:
    return {"nodes": result.grid.n_nodes}


def _bytes_of(position: int):
    def extra(args, result) -> dict:
        return {"bytes": os.path.getsize(args[position])}
    return extra


# Work counted at the call boundary, computed from arguments, results and
# file sizes after the call returns.
EXTRAS = {
    "expr.eval_field": _grid_nodes,
    "grid.write_field": _bytes_of(1),
    "grid.read_field": _bytes_of(0),
}


@dataclass
class Span:
    name: str
    parent: int       # index of the enclosing span, -1 at top level
    start: float
    end: float = 0.0
    cpu: float = 0.0  # process CPU seconds, all threads
    failed: bool = False
    extra: dict | None = None


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "kirchlab" or name.startswith("kirchlab."))]


class Tracer:
    """Context manager that traces the functions in ``TRACED``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, extra = self.spans, self._stack, EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else -1, time.perf_counter())
            cpu0 = time.process_time()
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                span.cpu = time.process_time() - cpu0
                stack.pop()
            if extra is not None:
                span.extra = extra(args, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        modules = _package_modules()
        for module_name, fn_name in TRACED:
            # kirchlab.certify is the certify function, which shadows the
            # module of that name, so modules are looked up in sys.modules.
            module = sys.modules.get(f"kirchlab.{module_name}")
            fn = getattr(module, fn_name, None) if module is not None else None
            if not callable(fn):
                continue
            wrapper = self._wrap(f"{module_name}.{fn_name}", fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._restore.append((m, attr, fn))
                        setattr(m, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for m, attr, fn in reversed(self._restore):
            setattr(m, attr, fn)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(vars(span)) + "\n")


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    cpu_s: float = 0.0
    failures: int = 0
    nodes: int = 0
    bytes: int = 0


def aggregate(spans: list) -> dict:
    """Per-function totals.  Self time is a span's duration minus that of its
    direct children; calls are synchronous, so children never overlap."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    stats: dict[str, Stat] = {}
    for span, children in zip(spans, child_time):
        st = stats.setdefault(span.name, Stat())
        duration = span.end - span.start
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - children
        st.cpu_s += span.cpu
        st.failures += span.failed
        for key, value in (span.extra or {}).items():
            setattr(st, key, getattr(st, key) + value)
    return stats
