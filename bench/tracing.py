"""Spans and counts around tradenet's public calls, installed from outside.

``instrument(tracer)`` replaces each function in ``TRACED`` wherever a
loaded ``tradenet`` module refers to it, so calls made inside the package
(``load_network`` calling ``load_flows``, ``MethodSpec.apply`` calling
``pwp``, ``cmd_matrix`` calling ``write_matrix_csv``) are recorded too.  The
package itself is not changed.  Spans stay in memory until ``take``.
"""

from __future__ import annotations

import functools
import math
import sys
import time
import warnings
from contextlib import contextmanager

import numpy as np

# span name -> (module, attribute); the name's first part is the layer
TRACED = {
    "ingestion.load_countries": ("tradenet.ingestion", "load_countries"),
    "ingestion.load_flows": ("tradenet.ingestion", "load_flows"),
    "model.build_network": ("tradenet.model", "build_network"),
    "weights.build_direct_matrix": ("tradenet.weights", "build_direct_matrix"),
    "engine.pwp": ("tradenet.engine", "pwp"),
    "engine.heat_kernel": ("tradenet.engine", "heat_kernel"),
    "engine.micmac": ("tradenet.engine", "micmac"),
    "engine.column_normalize": ("tradenet.engine", "column_normalize"),
    "engine.pagerank_limit": ("tradenet.engine", "pagerank_limit"),
    "analytics.rank": ("tradenet.analytics", "rank"),
    "analytics.plane": ("tradenet.analytics", "plane"),
    "cli.write_matrix_csv": ("tradenet.cli", "write_matrix_csv"),
}


class Tracer:
    """Spans (name, start, end, parent) and named counts of one operation at a time."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    def take(self) -> dict:
        """This operation's spans and counts; the tracer starts empty again."""
        op = {"spans": self.spans, "counts": self.counts}
        self.spans, self.counts = [], {}
        return op


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name, each span minus the time its children cover."""
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    totals: dict[str, float] = {}
    for s in spans:
        totals[s["name"]] = totals.get(s["name"], 0.0) + own[s["id"]]
    return totals


def _squarings(direct, lam: float, shift: bool) -> int:
    """Squarings the scaling step needs: ceil(log2(||lam*(D - shift*I)||_1 / 0.5))."""
    values = np.asarray(getattr(direct, "values", direct), dtype=float)
    if shift:
        values = values - np.identity(len(values))
    norm = float(np.abs(lam * values).sum(axis=0).max()) if values.size else 0.0
    return 0 if norm <= 0.5 else math.ceil(math.log2(norm / 0.5))


def _wrap(tracer: Tracer, name: str, fn):
    layer = name.split(".")[0]

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if layer == "engine":
            tracer.count("engine.calls")
            if name in ("engine.pwp", "engine.heat_kernel"):
                lam = args[1] if len(args) > 1 else kwargs.get("lam", 1.0)
                squarings = _squarings(args[0], lam, shift=name == "engine.heat_kernel")
                tracer.count("engine.squarings.computed", squarings)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with tracer.span(name):
                    result = fn(*args, **kwargs)
        except Exception:
            if layer == "engine":
                tracer.count("engine.failed")
            raise
        for w in caught:  # pass them on to the caller's filters
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        if name == "ingestion.load_flows":
            tracer.count("ingestion.flows_kept", len(result))
        elif name == "model.build_network":
            tracer.count("model.flows", len(result.flows))
        elif name == "weights.build_direct_matrix":
            tracer.count("weights.consistency_warnings", len(caught))
            tracer.count("weights.nonzeros", np.count_nonzero(result.values))
        return result

    return traced


def instrument(tracer: Tracer) -> None:
    """Route every reference to a ``TRACED`` function in ``tradenet`` through a span."""
    import tradenet.cli  # noqa: F401  (loads every tradenet module)

    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "tradenet"]
    for name, (module, attribute) in TRACED.items():
        original = getattr(sys.modules[module], attribute)
        traced = _wrap(tracer, name, original)
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is original]:
                setattr(mod, key, traced)
