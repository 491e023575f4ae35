"""Spans at the layer boundaries of oddcrit, for traced benchmark runs only.

A traced run replaces each boundary callable by a timing wrapper where its
caller looks the name up (a module global or a class attribute) and puts the
original back afterwards; nothing inside ``src/`` is edited.  Spans are kept
in memory as (name, start, end, parent span, graph id, weight) and written out
when the run ends.  ``weight`` carries the exact work count of a span: the
subsets examined by a criticality verdict, or the order of a matrix handed to
the eigensolver.
"""
from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

ROOT_SPAN = "bench.graph"


def _subsets(args, result):
    return result.subsets_examined


def _matrix_order(args, result):
    return len(args[0])


#: (module, attribute path, span name, weight) -- the first six are names the
#: package's own modules look up; the rest are the benchmark's direct calls
#: (spectral.distance_matrix is also looked up by the Q_D builder, so its
#: spans nest inside spectral.radius on Theorem 1.6)
BOUNDARIES = (
    ("oddcrit.theorems", "evaluate_theorem", "theorems.eval", None),
    ("oddcrit.theorems", "is_k_critical", "factors.crit", _subsets),
    ("oddcrit.theorems", "spectral_radius", "spectral.radius", None),
    ("oddcrit.cli", "is_k_critical", "factors.crit", _subsets),
    ("oddcrit.cli", "parse_graph_auto", "graphs.parse", None),
    ("oddcrit.graphs", "Graph.is_k_connected", "graphs.kconn", None),
    ("oddcrit.theorems", "counterexample_sweep", "theorems.sweep", None),
    ("oddcrit.theorems", "SweepReport.to_json", "theorems.report", None),
    ("oddcrit.cli", "main", "cli.main", None),
    ("oddcrit.graphs", "parse_graph6_corpus", "graphs.parse", None),
    ("oddcrit.spectral", "distance_matrix", "spectral.dmat", None),
    ("oddcrit.spectral", "distance_signless_laplacian_matrix", "spectral.dmat", None),
    ("oddcrit.spectral", "eigenvalues", "spectral.eig", _matrix_order),
    ("oddcrit.spectral", "check_interlacing", "spectral.interlace", None),
    ("oddcrit.partitions", "quotient", "partitions.quotient", None),
    ("oddcrit.partitions", "QuotientMatrix.eigenvalues", "partitions.roots", None),
    ("oddcrit.partitions", "QuotientMatrix.largest_root_closed_form", "partitions.roots", None),
    ("oddcrit.partitions", "perron_vector", "partitions.perron", None),
)


def _owner(module: str, path: str):
    obj = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        obj = getattr(obj, name)
    return obj, attr


class Tracer:
    """Collects spans; ``installed()`` puts the boundary wrappers in place.

    Every span belongs to the root span of the graph run that caused it
    (spans open in a root's interval nest under it, since one graph is
    decided at a time).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.graph_id = None
        self._stack: list[int] = []

    def _wrap(self, fn, name, weigh):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.graph_id, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if weigh is not None:
                    span[5] = weigh(args, result)
                return result
            finally:
                stack.pop()
                span[2] = time.perf_counter()

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, path, name, weigh in BOUNDARIES:
                owner, attr = _owner(module, path)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, weigh))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def root(self, graph_id, fn, item):
        """Run one graph's step inside its root span."""
        self.graph_id = graph_id
        return self._wrap(fn, ROOT_SPAN, None)(item)


def summarize(spans):
    """Per span name: calls, total (outermost spans only), self time, weight.

    A span's self time is its duration minus the time its child spans cover.
    A span nested in a span of the same name (a wrapped builder calling a
    wrapped builder) adds to self time and calls but not again to the total.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, _, weight) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "weight": 0})
        row["calls"] += 1
        row["self"] += end - start - child[i]
        row["weight"] += weight
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["total"] += end - start
    return out


def fastest_runs(spans):
    """The spans of each graph's fastest run, with parents renumbered.

    Per-layer times taken from these runs are timed like the end-to-end
    figures, which use each graph's fastest run (see ``run.graph_times``).
    """
    root_of: list[int] = []
    best: dict = {}
    for i, (name, start, end, parent, graph_id, _) in enumerate(spans):
        root_of.append(i if parent < 0 else root_of[parent])
        if parent < 0 and name == ROOT_SPAN and (graph_id not in best or end - start < best[graph_id][0]):
            best[graph_id] = (end - start, i)
    keep = {i for _, i in best.values()}
    index: dict[int, int] = {}
    out = []
    for i, span in enumerate(spans):
        if root_of[i] in keep:
            index[i] = len(out)
            out.append([*span[:3], index.get(span[3], -1), *span[4:]])
    return out


def counts_by_graph(spans):
    """Exact work counts of every graph run: {graph_id: [counts of each run]}.

    The counts of one run map each span name below its root span to
    [calls, weight].
    """
    runs: dict[int, dict] = {}
    root_of = [0] * len(spans)
    per: dict = {}
    for i, (name, _, _, parent, graph_id, weight) in enumerate(spans):
        if parent < 0:
            root_of[i] = i if name == ROOT_SPAN else -1
            if name == ROOT_SPAN:
                runs[i] = {}
                per.setdefault(graph_id, []).append(runs[i])
            continue
        root_of[i] = root_of[parent]
        if root_of[i] < 0:
            continue
        row = runs[root_of[i]].setdefault(name, [0, 0])
        row[0] += 1
        row[1] += weight
    return per


def write_spans(spans, path) -> None:
    with open(path, "w") as fh:
        fh.write("index\tname\tstart_s\tend_s\tparent\tgraph_id\tweight\n")
        for i, (name, start, end, parent, graph_id, weight) in enumerate(spans):
            fh.write(f"{i}\t{name}\t{start!r}\t{end!r}\t{parent}\t{graph_id}\t{weight}\n")
