"""Outside-in tracing: wrappers installed on the program's namespaces.

The program has no tracing of its own.  ``Tracer.installed()`` replaces each
listed function with a timing wrapper in every namespace that binds it (the
defining module, every module that imported it by name and the package
root), and each listed method on its class.  Leaving
the block restores the originals.

Every wrapped call adds to its function's call count and self time (its
duration minus that of the wrapped calls it made).  A call that crosses from
one module into another also records a span ``(name, start, end, span_id,
parent_id, item)``, except for the hot functions in ``COUNTER_ONLY``, which
run millions of times per pass and only count, so that memory stays bounded.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from typing import Dict, List, Optional, Tuple

# (metric name, module, attribute path).  A dotted attribute is a method,
# wrapped on its class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("geom.orient2d", "geom", "orient2d"),
    ("transforms.apply", "transforms", "PlaneMap.apply"),
    ("bodies.convex_hull", "bodies", "convex_hull"),
    ("bodies.hull_of_union", "bodies", "hull_of_union"),
    ("bodies.contains_point", "bodies", "contains_point"),
    ("bodies.includes", "bodies", "includes"),
    ("bodies.support_margin", "bodies", "support_margin"),
    ("bodies.support_grid", "bodies", "support_grid"),
    ("bodies.support_value", "bodies", "support_value"),
    ("bodies.transform_body", "bodies", "transform_body"),
    ("bodies.farthest_dist", "bodies", "farthest_dist"),
    ("bodies.abundance", "bodies", "abundance"),
    ("bodies.DiskIntersection.boundary", "bodies", "DiskIntersection.boundary"),
    ("theorem.witness_search", "theorem", "witness_search"),
    ("theorem.rational_disk_enumeration", "theorem", "rational_disk_enumeration"),
    ("theorem.edge_free_approx", "theorem", "edge_free_approx"),
    ("convexgeo.closure_points", "convexgeo", "closure_points"),
    ("convexgeo.closure_circles", "convexgeo", "closure_circles"),
    ("convexgeo.ClosureSystem.closure", "convexgeo", "ClosureSystem.closure"),
    ("convexgeo.verify_closure_axioms", "convexgeo", "verify_closure_axioms"),
    ("convexgeo.verify_anti_exchange", "convexgeo", "verify_anti_exchange"),
    ("convexgeo.closed_set_lattice", "convexgeo", "closed_set_lattice"),
    ("convexgeo.is_join_distributive", "convexgeo", "is_join_distributive"),
    ("harness.generate_instance", "harness", "generate_instance"),
    ("harness.run_theorem_instance", "harness", "run_theorem_instance"),
    ("serial.body_from_json", "serial", "body_from_json"),
)

# Called per direction, per vertex or per subset: count them, record no spans.
COUNTER_ONLY = frozenset(
    {
        "geom.orient2d",
        "transforms.apply",
        "bodies.convex_hull",
        "bodies.contains_point",
        "bodies.support_value",
        "bodies.support_grid",
        "bodies.farthest_dist",
        "bodies.DiskIntersection.boundary",
        "convexgeo.ClosureSystem.closure",
        "convexgeo.closure_points",
        "convexgeo.closure_circles",
    }
)

# On sweep these are also split by the body kind of the current item.
KIND_SPLIT = frozenset(
    {"theorem.witness_search", "bodies.includes", "bodies.support_margin", "bodies.contains_point"}
)
KINDS = ("polygon", "disk", "disk_intersection")

PACKAGE = "planeconvex"


class Tracer:
    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.layer = [t[0].split(".", 1)[0] for t in TARGETS]
        self._index = {n: i for i, n in enumerate(self.names)}
        self._originals: List[Tuple[object, str, object]] = []
        # Per-item context, set by the benchmark loop.
        self.item: Optional[str] = None
        self.kind: Optional[str] = None
        self.record_spans = False
        self.reset()

    def reset(self) -> None:
        """Zero every count; wrappers bind these lists, so only when uninstalled."""
        if self._originals:
            raise RuntimeError("reset while installed")
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.kind_calls: Dict[Tuple[int, str], int] = {}
        self.kind_self: Dict[Tuple[int, str], float] = {}
        # Calls of a function made while another given function is innermost.
        self.child_calls: Dict[Tuple[int, int], int] = {}
        self.spans: List[tuple] = []
        self._stack: List[list] = []  # frames: [idx, start, child_time, enclosing span]
        self._next_span = 0
        self._item_span: Optional[int] = None

    # -- item spans, opened by the benchmark loop around each item ---------

    def begin_item(self, item: str, kind: Optional[str]) -> None:
        """Open the root span of one item; ``kind`` selects the split."""
        self.item, self.kind = item, kind
        self._item_span = self._new_span() if self.record_spans else None
        self._item_start = time.perf_counter()

    def end_item(self, name: str) -> None:
        if self._item_span is not None:
            self.spans.append((name, self._item_start, time.perf_counter(), self._item_span, None, self.item))
        self.item = self.kind = self._item_span = None

    def _new_span(self) -> int:
        self._next_span += 1
        return self._next_span

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, idx: int, fn):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        hot = self.names[idx] in COUNTER_ONLY
        split = self.names[idx] in KIND_SPLIT
        layer = self.layer[idx]
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            # Spans nest under the nearest enclosing span, or the item's.
            enclosing = parent[3] if parent is not None else self._item_span
            span_id = None
            if not hot and self.record_spans and (
                parent is None or self.layer[parent[0]] != layer
            ):
                span_id = self._new_span()
            frame = [idx, 0.0, 0.0, span_id if span_id is not None else enclosing]
            stack.append(frame)
            t0 = frame[1] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[2]
                calls[idx] += 1
                self_s[idx] += own
                if parent is not None:
                    parent[2] += dur
                    key = (parent[0], idx)
                    self.child_calls[key] = self.child_calls.get(key, 0) + 1
                if split and self.kind is not None:
                    k = (idx, self.kind)
                    self.kind_calls[k] = self.kind_calls.get(k, 0) + 1
                    self.kind_self[k] = self.kind_self.get(k, 0.0) + own
                if span_id is not None:
                    self.spans.append((self.names[idx], t0, t1, span_id, enclosing, self.item))

        return wrapper

    def _namespaces(self):
        return [m for name, m in sys.modules.items() if name == PACKAGE or name.startswith(PACKAGE + ".")]

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        namespaces = self._namespaces()
        for idx, (_, module, attr) in enumerate(TARGETS):
            mod = sys.modules[f"{PACKAGE}.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                fn = owner.__dict__[meth]
                self._originals.append((owner, meth, fn))
                setattr(owner, meth, self._wrap(idx, fn))
                continue
            fn = getattr(mod, attr)
            wrapper = self._wrap(idx, fn)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is fn:
                        self._originals.append((ns, key, fn))
                        setattr(ns, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._originals):
            setattr(owner, key, fn)
        self._originals.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ------------------------------------------------------------

    def index(self, name: str) -> int:
        return self._index[name]

    def calls_under(self, child: str, parent: str) -> int:
        return self.child_calls.get((self.index(parent), self.index(child)), 0)

    def write_spans(self, path) -> None:
        """Write the spans held in memory, one JSON array per line."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
