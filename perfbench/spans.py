"""Spans around the public functions of each moprox layer, from outside.

``Tracer`` replaces each traced function, in the namespace its caller looks
it up in, by a wrapper that records one span per call: name, start, end,
parent span and solve id. Spans stay in memory until the run writes them.
The originals are put back when the ``with`` block ends, so campaigns run
outside it never see a wrapper.

A span's name is ``<layer>.<function>``; its layer is the part before the
first dot. ``layer_totals`` turns spans into per-layer self time: a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import json
from time import perf_counter


def traced_functions():
    """(owner, attribute, span name) for every function the tracer wraps.

    Owners are the modules and classes the callers look the names up in:
    the benchmark calls ``moprox.bench.run_campaign``, run_campaign calls
    ``solve`` from ``moprox.bench``, solve calls its helpers from
    ``moprox.solvers``, and problems and prox kinds are reached as methods.
    """
    from moprox import bench, problems, prox, solvers

    targets = [
        (bench, "run_campaign", "bench.run_campaign"),
        (bench, "solve", "solvers.solve"),
        (solvers, "bb_stepsizes", "bb.bb_stepsizes"),
        (solvers, "frank_wolfe_solve", "direction.frank_wolfe_solve"),
        (solvers, "armijo_search", "linesearch.armijo_search"),
        (solvers, "max_feasible_step", "linesearch.max_feasible_step"),
    ]
    for method in ("jacobian", "evaluate_F", "smooth_values", "g_values"):
        targets.append((problems.MCOProblem, method, f"problems.{method}"))
    for kind in (prox.Zero, prox.WeightedL1, prox.BoxIndicator, prox.SimplexIndicator):
        for method in ("prox", "contains"):
            if method in vars(kind):
                targets.append((kind, method, f"prox.{kind.__name__}.{method}"))
    return targets


class Tracer:
    """Context manager that installs the span wrappers and removes them."""

    SOLVE_SPAN = "solvers.solve"

    def __init__(self):
        self.names = []
        self.parents = []
        self.solve_ids = []
        self.starts = []
        self.ends = []
        self._stack = []
        self._solve = [-1, -1]  # [current solve id, last solve id]
        self._originals = []

    def _wrap(self, name, fn):
        names, parents, solve_ids = self.names, self.parents, self.solve_ids
        starts, ends, stack, solve = self.starts, self.ends, self._stack, self._solve
        opens_solve = name == self.SOLVE_SPAN

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            if opens_solve:
                solve[1] += 1
                solve[0] = solve[1]
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            solve_ids.append(solve[0])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
                if opens_solve:
                    solve[0] = -1

        return traced

    def __enter__(self):
        try:
            for owner, attr, name in traced_functions():
                original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                self._originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def write(self, path, meta):
        """Write the spans, columnar, with ``meta``, as gzip-compressed JSON."""
        doc = dict(meta)
        doc["spans"] = {
            "name": self.names,
            "parent": self.parents,
            "solve": self.solve_ids,
            "start": self.starts,
            "end": self.ends,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def layer_totals(names, parents, starts, ends):
    """{layer: {"self_s", "total_s", "calls"}} from a list of spans.

    ``self_s`` sums each span's duration minus its direct children's, so the
    layers' self times add up to the root spans' durations. ``total_s`` sums
    whole durations, which is the time spent in the layer's calls as long as
    the layer does not call itself.
    """
    child = [0.0] * len(names)
    for i, parent in enumerate(parents):
        if parent >= 0:
            child[parent] += ends[i] - starts[i]
    totals = {}
    for i, name in enumerate(names):
        layer = name.split(".", 1)[0]
        duration = ends[i] - starts[i]
        entry = totals.setdefault(layer, {"self_s": 0.0, "total_s": 0.0, "calls": 0})
        entry["self_s"] += duration - child[i]
        entry["total_s"] += duration
        entry["calls"] += 1
    return totals
