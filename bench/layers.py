"""Per-layer tracing from outside the library.

``Tracer.install`` replaces every module binding of the wrapped public
functions (``from ... import`` copies a name, so ``separatrix.full_topology``
is patched as well as ``topology.full_topology``) by a wrapper that records a
span (name, start, end, parent, op) and per-function counts taken from
arguments and return values.  ``Tracer.remove`` restores the originals.
Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict

# layer -> public functions wrapped in it; metric names use the layer name
# without its leading underscore, since a metric name starts with a letter
WRAPPED = {
    "cli": ("main",),
    "separatrix": ("region_scan", "k_star"),
    "topology": ("full_topology", "classify", "oracle_critical_points"),
    "eigen": ("solve_oriented", "real_roots", "c_eigenpairs", "incremental_rank_one"),
    "potential": ("canonicalize_params", "orient"),
    "_optim": ("newton_refine", "find_critical_classes", "dedupe_classes"),
    "tensors": ("harmonic_decompose",),
}

BRANCH_FAMILIES = ("pole", "walcher", "background", "axis", "disk", "pi2", "pi6")
KSTAR_BRANCHES = ("left", "right", "cusp")
DEGENERATE_KINDS = ("degenerate_saddle", "monkey_saddle")


def metric_prefix(layer: str, fn: str) -> str:
    return f"{layer.lstrip('_')}.{fn}"


FUNCTIONS = tuple(metric_prefix(layer, fn) for layer, fns in WRAPPED.items() for fn in fns)


def self_times(spans) -> dict[int, float]:
    """Self time of each span: its duration minus the durations of its children.

    ``spans`` holds (span_id, name, start, end, parent_id, ...) tuples.  The
    spans come from one thread, so children are nested in their parent and
    follow one another.
    """
    out = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] is not None:
            out[s[4]] -= s[3] - s[2]
    return out


class Tracer:
    """Spans and counts at the boundaries of the wrapped library functions."""

    def __init__(self):
        self.spans: list[tuple] = []        # (id, name, start, end, parent, op, failed)
        self.stack: list[int] = []
        self.op: int | None = None
        self.counts: Counter = Counter()
        self._patched: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else None
            tracer.spans.append(None)       # reserve the id; filled in below
            tracer.stack.append(sid)
            failed = True
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[sid] = (sid, name, start, end, parent, tracer.op, failed)
            tracer._count(name, args, kwargs, out)
            return out

        return wrapper

    def install(self) -> None:
        wrappers = {}           # id(original) -> (original, wrapper)
        for layer, fns in WRAPPED.items():
            mod = sys.modules[f"octupolar.{layer}"]
            for fn in fns:
                orig = getattr(mod, fn)
                wrappers[id(orig)] = (orig, self._wrap(metric_prefix(layer, fn), orig))
        for modname, mod in list(sys.modules.items()):
            if modname != "octupolar" and not modname.startswith("octupolar."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in wrappers:
                    setattr(mod, attr, wrappers[id(val)][1])
                    self._patched.append((mod, attr, val))

    def remove(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- counts from arguments and return values -----------------------------

    def _count(self, name: str, args, kwargs, out) -> None:
        c = self.counts
        if name == "optim.newton_refine":
            x = kwargs.get("x", args[1] if len(args) > 1 else None)
            c["newton_rows"] += len(x)
        elif name == "eigen.solve_oriented":
            for pair in out.pairs:
                c["branch." + pair.branch.split("-")[0]] += 1
            c["pairs"] += len(out.pairs)
        elif name == "topology.classify":
            c["classified"] += 1
            c["degenerate"] += out.kind in DEGENERATE_KINDS
        elif name == "separatrix.k_star":
            c["kstar." + out.branch] += 1
        elif name == "eigen.c_eigenpairs":
            c["ceigen_starts"] += kwargs.get("starts", args[1] if len(args) > 1 else 64)
            c["ceigen_found"] += len(out)

    # -- reduction -----------------------------------------------------------

    def layer_metrics(self, ok_ops: set) -> dict[str, tuple[float, str]]:
        """Per-function calls/self_s/failed plus the ratios, as (value, unit).

        ``ok_ops`` holds the ids of the ops that succeeded; calls_per_op is
        counted over them, since a failing op stops part way.
        """
        selfs = self_times(self.spans)
        calls, failed, self_s = Counter(), Counter(), defaultdict(float)
        solves_in_ok_ops = 0
        for s in self.spans:
            calls[s[1]] += 1
            failed[s[1]] += s[6]
            self_s[s[1]] += selfs[s[0]]
            solves_in_ok_ops += s[1] == "eigen.solve_oriented" and s[5] in ok_ops
        m = {}
        for name in FUNCTIONS:
            m[f"{name}.calls"] = (calls[name], "count")
            m[f"{name}.self_s"] = (self_s[name], "s")
            m[f"{name}.failed"] = (failed[name], "count")
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        ok_refine = calls["optim.newton_refine"] - failed["optim.newton_refine"]
        m["optim.newton_refine.rows_per_call"] = (ratio(c["newton_rows"], ok_refine), "rows/call")
        m["eigen.solve_oriented.calls_per_op"] = (ratio(solves_in_ok_ops, len(ok_ops)), "calls/op")
        for fam in BRANCH_FAMILIES:
            m[f"eigen.solve_oriented.branch_mix.{fam}"] = (ratio(c["branch." + fam], c["pairs"]), "share")
        m["topology.classify.degenerate_share"] = (ratio(c["degenerate"], c["classified"]), "share")
        ks = sum(c["kstar." + b] for b in KSTAR_BRANCHES)
        for b in KSTAR_BRANCHES:
            m[f"separatrix.k_star.branch_mix.{b}"] = (ratio(c["kstar." + b], ks), "share")
        m["eigen.c_eigenpairs.distinct_per_start"] = (
            ratio(c["ceigen_found"], c["ceigen_starts"]), "triples/start")
        return m

    def write_spans(self, path: str) -> None:
        """Spans as gzipped JSON lines: id, name, start, end, parent, op, failed."""
        with gzip.open(path, "wt") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")
