"""The benchmark's four workloads: seeded inputs, one graph's step, its check.

Every input graph gets a seeded random vertex relabelling, because real
inputs arrive with arbitrary labels.  Expected verdicts do not depend on
labels; they sit in ``workloads.json`` keyed by instance and by the class of
the added edge, computed under canonical labels, where the package's
label-identity test for the extremal graph is right.

Checks compare each output with references that do not come from oddcrit:
networkx for components and graph6 parsing, scipy shortest paths and
``numpy.linalg.eigvalsh`` for spectra.  A check returns ``(problems,
conclusion)``: problems are ``(kind, message)`` pairs, and ``conclusion`` is the
theorem conclusion the program gave, if any.  Checks never call a name that a
traced run wraps.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import networkx as nx
import numpy as np
from scipy.sparse.csgraph import shortest_path

from oddcrit import cli, graphs, partitions, spectral, theorems
from oddcrit.graphs import ExtremalParams, Graph

SPEC = json.loads(Path(__file__).with_name("workloads.json").read_text())

#: builder and (join cell size, parts) of each family; the first part is the big clique
_FAMILIES = {
    "gprime": (graphs.extremal_gprime, lambda p: (p.delta, p.gprime_parts())),
    "g2": (graphs.proof_graph_g2, lambda p: (p.s, p.g2_parts())),
    "g3": (graphs.proof_graph_g3, lambda p: (p.s, p.g3_parts())),
}


@dataclass
class Item:
    """One input graph of a workload."""

    gid: str
    group: str
    graph: Graph
    args: tuple
    expect: dict = field(default_factory=dict)
    cls: str = ""


def relabel(g: Graph, rng: random.Random) -> tuple[Graph, list[int]]:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, ((perm[u], perm[v]) for u, v in g.edges())), perm


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def reference_distance(h: nx.Graph) -> np.ndarray:
    adjacency = nx.to_scipy_sparse_array(h, nodelist=range(h.number_of_nodes()))
    return shortest_path(adjacency, unweighted=True, directed=False)


def reference_radius(d: np.ndarray, kind: str) -> float:
    m = d + np.diag(d.sum(axis=1)) if kind == "distance_signless_laplacian" else d
    return float(np.linalg.eigvalsh(m)[-1])


def violates(h: nx.Graph, witness, b: int, k: int) -> bool:
    """o(G - S) > b(|S| - k), counted with networkx."""
    rest = h.copy()
    rest.remove_nodes_from(witness)
    odd = sum(1 for comp in nx.connected_components(rest) if len(comp) % 2)
    return len(witness) >= k and odd > b * (len(witness) - k)


def _instance_key(inst: dict) -> str:
    return "/".join(str(inst[key]) for key in ("theorem", "n", "b", "k", "delta"))


def gprime_supergraphs(inst: dict, rng: random.Random, quick: bool):
    """(class, graph id, relabelled graph) for G' and its one-edge supergraphs.

    The class of an added edge is 'BS' (big clique to singleton) or 'SS'
    (singleton to singleton), the only non-edges of G'; every supergraph of
    one class is isomorphic to every other.  A ``sample`` is stratified by
    class (at least one of each), so every seed draws the same class mix.
    """
    p = ExtremalParams(inst["n"], inst["b"], inst["k"], inst["delta"])
    base = graphs.extremal_gprime(p)
    big, _ = p.gprime_parts()
    key = _instance_key(inst)

    def side(v: int) -> str:
        return "B" if p.delta <= v < p.delta + big else "S"

    by_class: dict[str, list] = {}
    for u, v in base.non_edges():
        by_class.setdefault("".join(sorted(side(u) + side(v))), []).append((u, v))
    total = sum(len(pairs) for pairs in by_class.values())
    chosen = [("base", None)] if inst.get("include_base") else []
    for cls, pairs in sorted(by_class.items()):
        if "sample" in inst:
            pairs = rng.sample(pairs, max(1, round(inst["sample"] * len(pairs) / total)))
        chosen += [(cls, edge) for edge in pairs]
    if quick:
        firsts: dict[str, Any] = {}
        for cls, edge in chosen:
            firsts.setdefault(cls, edge)
        chosen = list(firsts.items())
    out = []
    for cls, edge in chosen:
        g = base if edge is None else base.with_edge(*edge)
        gid = f"{key}:base" if edge is None else f"{key}:{cls}:{edge[0]}-{edge[1]}"
        out.append((cls, gid, relabel(g, rng)[0]))
    return out


def _member(fam: str, n: int, b: int, k: int, delta: int, s: int):
    params = ExtremalParams(n, b, k, delta, s)
    builder, layout = _FAMILIES[fam]
    return builder(params), layout(params)


class CritSweep:
    """Theorem 1.1 sweeps of G' and a sample of its supergraphs, brute force on each.

    Full 2^n subset scans in ``factors`` do nearly all the work, and Theorem
    1.1 is a size condition, so ``spectral`` does none.  b=1 and b=3 stop at
    different settled sizes: the b=3 graphs set graph_p50_ms and the b=1
    graphs set graph_tail_ms, so an engine that helps one and hurts the
    other shows.  The relabelled base is misjudged today (see known_defects).
    """

    name = "crit-sweep"

    def build(self, rng, quick, workdir):
        spec = SPEC[self.name]
        items = []
        for inst in spec["instances"]:
            key = _instance_key(inst)
            for cls, gid, g in gprime_supergraphs(inst, rng, quick):
                items.append(Item(gid, f"{key}:{cls}", g, (inst,), spec["expected"][key][cls], cls))
        return items

    def step(self, item):
        inst = item.args[0]
        report = theorems.counterexample_sweep(
            [(item.gid, item.graph)], inst["b"], inst["k"], inst["delta"], inst["theorem"]
        )
        return report.to_json()

    def check(self, item, out):
        inst, expect = item.args[0], item.expect
        record = json.loads(out)["records"][0]
        problems = []
        if record["conclusion"] != expect["conclusion"]:
            problems.append(("conclusion", f"conclusion {record['conclusion']}, expected {expect['conclusion']}"))
        if record["brute_force_verdict"] != expect["critical"]:
            problems.append(("verdict", f"brute force {record['brute_force_verdict']}, expected {expect['critical']}"))
        if record["falsification"]:
            problems.append(("falsification", "reported as a falsification"))
        witness = record["witness"]
        if witness is not None and not violates(to_networkx(item.graph), witness, inst["b"], inst["k"]):
            problems.append(("witness", f"witness {witness} does not violate the criterion"))
        return problems, record["conclusion"]


class Witness:
    """`oddcrit check-critical` in-process on non-critical grid members.

    The same ``factors`` scan as crit-sweep, used differently: every graph is
    non-critical, so the scan stops at the first witness and its cost follows
    the labels; ten relabellings per member average that out.  The CLI and
    graph6 parsing carry a visible share of graph_p50_ms.
    """

    name = "witness"

    def build(self, rng, quick, workdir):
        spec = SPEC[self.name]
        members = spec["members"][: spec["quick_members"]] if quick else spec["members"]
        workdir.mkdir(parents=True, exist_ok=True)
        items = []
        for fam, n, b, k, delta, s in members:
            member = f"{fam}({n},{b},{k},{delta},{s})"
            for copy in range(1 if quick else spec["relabellings_per_member"]):
                g = relabel(_member(fam, n, b, k, delta, s)[0], rng)[0]
                path = workdir / f"{fam}-{n}-{b}-{k}-{delta}-{s}-{copy}.g6"
                path.write_text(graphs.write_graph6(g) + "\n")
                items.append(Item(f"{member}#{copy}", member, g, (str(path), b, k), spec["expected"]))
        return items

    def step(self, item):
        path, b, k = item.args
        out = io.StringIO()
        argv = ["check-critical", "--input", path, "--b", str(b), "--k", str(k), "--cap", str(item.graph.n)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(self, item, out):
        code, text = out
        _, b, k = item.args
        problems = []
        if code != item.expect["exit_code"]:
            problems.append(("verdict", f"exit code {code}, expected {item.expect['exit_code']}"))
        payload = json.loads(text)
        if payload["critical"] != item.expect["critical"]:
            problems.append(("verdict", f"critical={payload['critical']}, expected {item.expect['critical']}"))
        witness = payload.get("witness")
        if witness is None or not violates(to_networkx(item.graph), witness, b, k):
            problems.append(("witness", f"witness {witness} does not violate the criterion"))
        return problems, None


class DistTheorems:
    """Theorems 1.5 and 1.6 evaluated at their admissible orders.

    These orders are above the enumeration cap, so no brute force runs:
    distance matrices and power iteration (twice per graph, since the
    extremal radius is recomputed), ``is_k_connected`` and ``theorems`` do the
    work.  The supergraphs are sampled so that the median graph is a
    63-vertex one and the tail a 271-vertex one, and so that one pass is
    short enough for every graph to run about ten times in a run.
    """

    name = "dist-theorems"

    def __init__(self):
        self._radius: dict[str, float] = {}

    def build(self, rng, quick, workdir):
        spec = SPEC[self.name]
        items = []
        for inst in spec["instances"]:
            key = _instance_key(inst)
            for cls, gid, g in gprime_supergraphs(inst, rng, quick):
                text = graphs.write_graph6(g) + "\n"
                items.append(Item(gid, f"{key}:{cls}", g, (inst, text), spec["expected"][key][cls], cls))
        return items

    def step(self, item):
        inst, text = item.args
        (g,) = graphs.parse_graph6_corpus(text)
        verdict = theorems.evaluate_theorem(g, inst["theorem"], inst["b"], inst["k"], inst["delta"])
        return verdict.as_dict()

    def _reference(self, group: str, graph6, kind: str) -> float:
        """eigvalsh radius of the first graph of a group, parsed by networkx.

        Graphs of one group are isomorphic, so they share this radius.
        """
        if group not in self._radius:
            h = nx.from_graph6_bytes(graph6().strip().encode())
            self._radius[group] = reference_radius(reference_distance(h), kind)
        return self._radius[group]

    def check(self, item, out):
        inst, text = item.args
        kind = "distance_signless_laplacian" if inst["theorem"] == "1.6" else "distance"
        problems = []
        if out["conclusion"] != item.expect["conclusion"]:
            problems.append(("conclusion", f"conclusion {out['conclusion']}, expected {item.expect['conclusion']}"))
        if not out["hypotheses_met"]:
            problems.append(("hypotheses", f"hypotheses {out['hypotheses']} not all met"))
        params = ExtremalParams(inst["n"], inst["b"], inst["k"], inst["delta"])
        references = (
            ("condition_lhs", self._reference(item.group, lambda: text, kind)),
            ("condition_rhs", self._reference(
                _instance_key(inst), lambda: graphs.write_graph6(graphs.extremal_gprime(params)), kind
            )),
        )
        for field_name, expect in references:
            if not abs(out[field_name] - expect) <= 1e-8:
                problems.append(("radius", f"{field_name} {out[field_name]!r}, eigvalsh gives {expect!r}"))
        return problems, out["conclusion"]


class Spectra:
    """Jacobi spectra with interlacing on random graphs; quotients of families.

    The only workload that gives the Jacobi solver and ``partitions`` work.
    Random graphs, because family graphs have highly degenerate spectra that
    Jacobi finishes several times faster; one order, so graph_p50_ms does not
    hinge on which orders a seed drew.  Interlacing is checked against a
    principal submatrix of D: D(G - v) does not interlace in general.
    """

    name = "spectra"

    def build(self, rng, quick, workdir):
        spec = SPEC[self.name]
        orders = spec["quick_random_orders"] if quick else spec["random_orders"] * spec["random_per_order"]
        families = spec["families"][: spec["quick_families"]] if quick else spec["families"]
        items = []
        for i, n in enumerate(orders):
            g = random_connected_graph(rng, n, spec["extra_edge_probability"])
            items.append(Item(f"random:{n}#{i}", f"random:{n}", g, ("random", rng.randrange(n))))
        for fam, n, b, k, delta, s in families:
            g, (join, parts) = _member(fam, n, b, k, delta, s)
            g, perm = relabel(g, rng)
            # the join cell, the big clique, the rest: equitable for every family
            sizes = (join, parts[0], n - join - parts[0])
            starts = (0, join, join + parts[0])
            cells = [[perm[v] for v in range(a, a + size)] for a, size in zip(starts, sizes)]
            member = f"{fam}({n},{b},{k},{delta},{s})"
            items.append(Item(member, "family", g, ("family", partitions.partition_of(cells))))
        return items

    def step(self, item):
        g, (mode, arg) = item.graph, item.args
        d = spectral.distance_matrix(g)
        if mode == "random":
            q = spectral.distance_signless_laplacian_matrix(g)
            keep = [v for v in range(g.n) if v != arg]
            sub = d[np.ix_(keep, keep)]
            e_d, e_q, e_sub = (spectral.eigenvalues(m).values for m in (d, q, sub))
            return e_d, e_q, e_sub, spectral.check_interlacing(e_d, e_sub)
        quo = partitions.quotient(d, arg)
        roots = tuple(float(x) for x in quo.eigenvalues())
        return roots, quo.largest_root_closed_form(), tuple(partitions.perron_vector(d))

    def check(self, item, out):
        g, (mode, arg) = item.graph, item.args
        d = reference_distance(to_networkx(g))
        problems = []
        if mode == "random":
            keep = [v for v in range(g.n) if v != arg]
            refs = (d, d + np.diag(d.sum(axis=1)), d[np.ix_(keep, keep)])
            for label, values, ref in zip(("D", "Q_D", "D sub"), out[:3], refs):
                expect = np.linalg.eigvalsh(ref)[::-1]
                if len(values) != len(expect) or not np.abs(np.array(values) - expect).max() <= 1e-9:
                    problems.append(("spectrum", f"Jacobi spectrum of {label} is off eigvalsh by more than 1e-9"))
            if out[3] is not True:
                problems.append(("interlacing", "Cauchy interlacing reported as failing"))
            return problems, None
        roots, closed, perron = out
        radius = spectral.spectral_radius(g, "distance")
        exact = float(np.linalg.eigvalsh(d)[-1])
        for label, value in (("quotient eigenvalue", roots[0]), ("closed-form root", closed)):
            if not (abs(value - radius) <= 1e-8 and abs(value - exact) <= 1e-8):
                problems.append(("quotient", f"{label} {value!r}, spectral_radius {radius!r}, eigvalsh {exact!r}"))
        x = np.array(perron)
        if not (x.min() > 0 and np.abs(d @ x - exact * x).max() <= 1e-8 * exact):
            problems.append(("perron", "Perron vector is not a positive eigenvector of D"))
        return problems, None


def random_connected_graph(rng: random.Random, n: int, extra: float) -> Graph:
    """Random spanning tree plus Bernoulli extra edges: connected by construction."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.add(tuple(sorted((order[i], order[j]))))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < extra:
                edges.add((u, v))
    return Graph(n, edges)


WORKLOADS = {w.name: w for w in (CritSweep, Witness, DistTheorems, Spectra)}
