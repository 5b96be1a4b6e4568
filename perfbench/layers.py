"""Layer-by-layer wall-clock spans, recorded from outside the program.

The benchmark never edits the program to time it.  :class:`Tracer`
replaces the public entry points of each layer (module functions,
class methods, and the resolved backend instance's primitives) with
wrappers that record one span per call: name, start, end, parent span
and op id.  Spans stay in memory and are written out once, at exit.

A layer's *self time* is its spans' duration minus the part of that
interval covered by child spans.  Within one thread children nest
strictly inside their parent and never overlap, so the self times of an
op's span tree add up exactly (integer nanoseconds) to the op's root
span: :func:`tiling_errors` checks that this holds.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence

#: The nine primitives of ``repro.backend.base.Backend``.
BACKEND_PRIMITIVES = (
    "map_elementwise",
    "frontier_compact",
    "scatter_reduce",
    "scatter_hit",
    "segmented_reduce",
    "segmented_mex",
    "active_max",
    "active_extrema",
    "conflict_losers",
)

# Span fields (a list per span, so the wrapper can fill in the end).
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Records spans around patched entry points; see the module doc."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._tls = threading.local()
        self._undo: List[Callable[[], None]] = []
        self._ops = itertools.count()

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def wrap(self, name, fn: Callable, *, op: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call.

        ``name`` is a string or ``name(args) -> str``.  ``op`` marks an
        op root: ``op(args)`` gives the op id (``None`` draws the next
        integer) unless the call is already inside an op, whose id it
        inherits like every other span.
        """
        spans = self.spans
        stack_of = self._stack
        clock = time.perf_counter_ns
        ops = self._ops

        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else None
            op_id = parent[OP] if parent is not None else None
            if op is not None and op_id is None:
                op_id = op(args)
                if op_id is None:
                    op_id = next(ops)
            span = [name if isinstance(name, str) else name(args), clock(), 0, parent, op_id]
            spans.append(span)
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def patch_function(self, module, attr: str, name, **kw) -> None:
        """Wrap ``module.attr`` and every ``repro`` module-level alias of
        it (``from x import f`` copies the reference)."""
        replace_everywhere(self, getattr(module, attr), self.wrap(name, getattr(module, attr), **kw))

    def patch_attr(self, owner, attr: str, name, **kw) -> None:
        """Wrap a method on a class, or a bound method on one instance."""
        had_own = attr in vars(owner)
        original = vars(owner)[attr] if had_own else None
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

        def undo() -> None:
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        self._undo.append(undo)

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start_ns, end_ns, parent
        line index (-1 for none), op id."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                parent = index[id(s[PARENT])] if s[PARENT] is not None else -1
                fh.write(json.dumps([s[NAME], s[START], s[END], parent, s[OP]]) + "\n")


def replace_everywhere(tracer: Optional[Tracer], old, new) -> None:
    """Point every ``repro`` module attribute that is ``old`` at ``new``
    (undone by ``tracer.uninstall()`` when a tracer is given)."""
    for mod in list(sys.modules.values()):
        modname = getattr(mod, "__name__", "") or ""
        if not (modname == "repro" or modname.startswith("repro.")):
            continue
        namespace = vars(mod)
        for key, value in list(namespace.items()):
            if value is old:
                namespace[key] = new
                if tracer is not None:
                    tracer._undo.append(lambda ns=namespace, k=key: ns.__setitem__(k, old))


def install(tracer: Tracer, backends: Sequence[str]) -> None:
    """Wrap the public entry points of every layer the workloads use."""
    from repro import backend as be
    from repro import log as runlog
    from repro import metrics
    from repro.core import registry, validate
    from repro.gpusim import cluster, cost_model
    from repro.graph import partition
    from repro.graphblas import ops as gb_ops
    from repro.gunrock import operators as gr_ops
    from repro.harness import cache, datasets, runner
    from repro.serve import cache as serve_cache
    from repro.serve import server

    tracer.patch_function(datasets, "load", "datasets.load")
    tracer.patch_function(datasets, "generate", "datasets.generate")
    tracer.patch_function(cache, "load_npz", "datasets.disk_read")
    tracer.patch_function(runner, "run_grid", "runner.run_grid")
    tracer.patch_function(validate, "is_valid_coloring", "runner.validate")
    tracer.patch_function(
        registry, "run_algorithm", lambda a: "core." + a[0].split("@")[0], op=lambda a: None
    )
    for fn in gr_ops.__all__:
        if fn != "GunrockContext":
            tracer.patch_function(gr_ops, fn, "gunrock." + fn)
    for fn in gb_ops.__all__:
        tracer.patch_function(gb_ops, fn, "graphblas." + fn)
    for attr in sorted(vars(cost_model.CostModel)):
        if attr.startswith("charge_"):
            tracer.patch_attr(cost_model.CostModel, attr, "gpusim.charge")
    tracer.patch_attr(cluster.ClusterCostModel, "barrier", "gpusim.barrier")
    tracer.patch_function(partition, "partition_graph", "partition")
    for fn in ("inc", "set_gauge", "observe", "observe_result"):
        tracer.patch_function(metrics, fn, "metrics.emit")
    tracer.patch_function(
        runlog, "emit", lambda a: "log.emit" if runlog.active() is not None else "log.dropped"
    )
    tracer.patch_function(
        server, "_load_and_fingerprint", "serve.load_and_fingerprint", op=lambda a: a[0].request_id
    )
    tracer.patch_function(
        server, "_blocking_attempt", "serve.attempt", op=lambda a: a[0].request.request_id
    )
    tracer.patch_function(serve_cache, "graph_fingerprint", "serve.fingerprint")
    for name in backends:
        instance = be.resolve(name)
        for prim in BACKEND_PRIMITIVES:
            tracer.patch_attr(instance, prim, "backend." + prim)


# -- analysis ------------------------------------------------------------------


def _children(spans: List[list]) -> Dict[int, List[list]]:
    kids: Dict[int, List[list]] = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            kids[id(s[PARENT])].append(s)
    return kids


def _covered(span: list, kids: List[list]) -> int:
    """Nanoseconds of ``span`` covered by the union of its children."""
    total = 0
    cursor = span[START]
    for k in sorted(kids, key=lambda k: k[START]):
        lo = max(k[START], cursor)
        hi = min(k[END], span[END])
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: List[list]) -> Dict[int, int]:
    """``id(span) -> self time`` in nanoseconds."""
    kids = _children(spans)
    return {
        id(s): (s[END] - s[START]) - _covered(s, kids.get(id(s), ()))
        for s in spans
    }


def tiling_errors(spans: List[list], selfs: Dict[int, int]) -> List[str]:
    """Op roots whose span tree does not tile the root's wall time.

    An op root is a span whose op id differs from its parent's (or that
    has no parent).  Its subtree's self times must sum exactly to its
    duration; a child sticking out of its parent, or two overlapping
    siblings, breaks the sum.
    """
    kids = _children(spans)
    errors = []
    for s in spans:
        parent = s[PARENT]
        if parent is not None and parent[OP] == s[OP]:
            continue
        total = 0
        todo = [s]
        while todo:
            node = todo.pop()
            total += selfs[id(node)]
            todo.extend(kids.get(id(node), ()))
        if total != s[END] - s[START]:
            errors.append(
                f"span {s[NAME]} (op {s[OP]}): self times sum to {total} ns, "
                f"duration is {s[END] - s[START]} ns"
            )
    return errors


def layer_totals(spans: List[list], selfs: Dict[int, int]) -> Dict[str, float]:
    """Per-layer call counts and self/inclusive milliseconds."""
    calls: Dict[str, int] = defaultdict(int)
    self_ns: Dict[str, int] = defaultdict(int)
    serve_ns: Dict[str, int] = defaultdict(int)
    for s in spans:
        name = s[NAME]
        calls[name] += 1
        self_ns[name] += selfs[id(s)]
        parent = s[PARENT]
        if parent is not None and parent[NAME] == "serve.load_and_fingerprint":
            # The serve thread pool's own calls, timed inclusively.
            serve_ns[name] += s[END] - s[START]
        elif name == "serve.attempt":
            serve_ns[name] += s[END] - s[START]

    def ms(names) -> float:
        return sum(self_ns[n] for n in names) / 1e6

    out: Dict[str, float] = {
        "datasets.load.calls": calls["datasets.load"],
        "datasets.load.ms": ms(("datasets.load", "datasets.generate", "datasets.disk_read")),
        "datasets.generated": calls["datasets.generate"],
        "datasets.disk_hits": calls["datasets.disk_read"],
        "runner.self.ms": ms(("runner.run_grid",)),
        "runner.validate.ms": ms(("runner.validate",)),
        "gunrock.ops.ms": ms([n for n in self_ns if n.startswith("gunrock.")]),
        "graphblas.ops.ms": ms([n for n in self_ns if n.startswith("graphblas.")]),
        "gpusim.charge.calls": calls["gpusim.charge"],
        "gpusim.charge.ms": ms(("gpusim.charge",)),
        "gpusim.barrier.calls": calls["gpusim.barrier"],
        "gpusim.barrier.ms": ms(("gpusim.barrier",)),
        "partition.calls": calls["partition"],
        "partition.ms": ms(("partition",)),
        "metrics.emit.calls": calls["metrics.emit"],
        "metrics.emit.ms": ms(("metrics.emit",)),
        "log.events": calls["log.emit"],
        "log.emit.ms": ms(("log.emit", "log.dropped")),
        "serve.load.ms": serve_ns["datasets.load"] / 1e6,
        "serve.fingerprint.ms": serve_ns["serve.fingerprint"] / 1e6,
        "serve.compute.ms": serve_ns["serve.attempt"] / 1e6,
    }
    for prim in BACKEND_PRIMITIVES:
        out[f"backend.{prim}.calls"] = calls["backend." + prim]
        out[f"backend.{prim}.ms"] = ms(("backend." + prim,))
    for name in self_ns:
        if name.startswith("core."):
            out[name + ".ms"] = ms((name,))
    return out


def op_starts(spans: List[list]) -> Dict[object, int]:
    """Earliest span start per op id (the serve queue-wait endpoint)."""
    first: Dict[object, int] = {}
    for s in spans:
        op = s[OP]
        if op is not None and (op not in first or s[START] < first[op]):
            first[op] = s[START]
    return first
