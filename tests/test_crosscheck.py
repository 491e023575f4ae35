"""Every bitset kernel against networkx, on random graphs with n <= 12.

Connectivity is also checked at real orders (n = 20-60 and the one-edge
supergraphs of G' that the distance theorems reach).
"""
import random
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from networkx.algorithms.connectivity import (
    build_auxiliary_node_connectivity,
    local_node_connectivity,
)
from networkx.algorithms.flow import build_residual_network

from oddcrit.errors import DisconnectedGraphError
from oddcrit.factors import _clique_cover_size, _quotient, is_k_critical
from oddcrit.graphs import (
    ExtremalParams,
    Graph,
    _odd_components,
    _twin_classes,
    extremal_gprime,
    family,
    join,
    make_complete,
)
from oddcrit.spectral import distance_matrix, spectral_radius
from oddcrit.theorems import one_edge_supergraphs
from conftest import relabelled
from oracles import reference_matrix


@st.composite
def graphs_and_sets(draw, min_n=1):
    n = draw(st.integers(min_n, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    density = draw(st.sampled_from([0.15, 0.35, 0.6, 0.9]))
    edges = [pair for pair in pairs if draw(st.floats(0, 1)) < density]
    removed = draw(st.sets(st.integers(0, n - 1), max_size=n))
    return Graph(n, edges), sorted(removed)


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def nx_odd_components(h: nx.Graph, removed) -> int:
    rest = h.subgraph(set(h) - set(removed))
    return sum(len(c) % 2 for c in nx.connected_components(rest))


@given(graphs_and_sets())
def test_components_and_odd_components(case):
    g, removed = case
    h = to_nx(g)
    assert g.odd_components_after_removal(()) == nx_odd_components(h, ())
    assert g.is_connected() == nx.is_connected(h)
    assert g.odd_components_after_removal(removed) == nx_odd_components(h, removed)


@given(graphs_and_sets())
def test_bounded_odd_component_count_is_on_the_side_of_the_exact_one(case):
    # the scan's early exits never move the count across its bound; with no
    # bound the count is exact
    g, removed = case
    adj = g.adjacency_rows
    alive = ((1 << g.n) - 1) & ~sum(1 << v for v in removed)
    exact = _odd_components(adj, alive)
    assert exact == nx_odd_components(to_nx(g), removed)
    for bound in range(g.n + 1):
        assert (_odd_components(adj, alive, bound) > bound) == (exact > bound)


@given(graphs_and_sets())
def test_clique_cover_bounds_independence_number(case):
    g, _ = case
    alpha = max(len(c) for c in nx.find_cliques(nx.complement(to_nx(g))))
    adj = g.adjacency_rows
    assert alpha <= _clique_cover_size(adj, _quotient(adj, _twin_classes(adj))) <= g.n


@given(graphs_and_sets(min_n=2))
def test_connectivity(case):
    g, _ = case
    kappa = nx.node_connectivity(to_nx(g))
    assert g.vertex_connectivity() == kappa
    for k in range(1, g.n + 1):
        assert g.is_k_connected(k) == (g.n > k and kappa >= k)


def assert_connectivity_matches(g: Graph, kappa: int):
    assert g.vertex_connectivity() == kappa
    for k in range(1, g.min_degree() + 2):
        assert g.is_k_connected(k) == (kappa >= k)


def seeded_graph(seed: int) -> Graph:
    """n = 20-60: sparse, dense, or two dense halves glued by a few edges."""
    rng = random.Random(seed)
    n = rng.randint(20, 60)
    shape = ("sparse", "dense", "glued")[seed % 3]
    if shape == "glued":
        half = n // 2
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if (u < half) == (v < half) and rng.random() < 0.7]
        edges += [(rng.randrange(half), rng.randrange(half, n)) for _ in range(rng.randint(1, 6))]
        return Graph(n, set(edges))
    p = rng.uniform(0.08, 0.2) if shape == "sparse" else rng.uniform(0.5, 0.9)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


@pytest.mark.parametrize("seed", range(12))
def test_connectivity_at_real_orders(seed):
    g = seeded_graph(seed)
    assert_connectivity_matches(g, nx.node_connectivity(to_nx(g)))


def nx_connectivity_around(h: nx.Graph, v) -> int:
    """kappa of a non-complete graph from networkx local connectivities around v.

    A minimum cut S either misses v, and then separates v from some
    non-neighbour, or holds v, and then separates two non-adjacent
    neighbours of v (Esfahanian and Hakimi 1984).  Any v is exact; a vertex
    with few non-neighbours and a clique neighbourhood needs few flows.
    """
    pairs = [(v, w) for w in nx.non_neighbors(h, v)]
    pairs += [(x, y) for x, y in combinations(h[v], 2) if not h.has_edge(x, y)]
    aux = build_auxiliary_node_connectivity(h)
    residual = build_residual_network(aux, "capacity")
    return min(
        local_node_connectivity(h, x, y, auxiliary=aux, residual=residual) for x, y in pairs
    )


@pytest.mark.parametrize("n, b, k, delta", [(47, 1, 1, 3), (63, 1, 1, 3), (271, 3, 1, 3)])
def test_connectivity_of_relabelled_gprime_supergraphs(n, b, k, delta):
    # an edge between the last two singletons; flows start at a big-clique vertex
    base = extremal_gprime(ExtremalParams(n, b, k, delta))
    rng = random.Random(n)
    g = relabelled(base.with_edge(n - 2, n - 1), rng)
    h = to_nx(g)
    big = next(v for v in h if h.degree(v) == n - 1 - (b * delta - b * k + 1))
    kappa = nx_connectivity_around(h, big)
    assert kappa == delta
    assert_connectivity_matches(g, kappa)


def exhaustive_odd_factor(nbrs: dict, b: int):
    """Edges giving every vertex of ``nbrs`` an odd degree <= b, or None.

    Depth-first: the even-degree vertex with the fewest usable edges takes
    one more, until no degree is even.
    """
    degree = dict.fromkeys(nbrs, 0)
    chosen: list = []

    def usable(v):
        return [w for w in nbrs[v] if degree[w] < b and (v, w) not in chosen and (w, v) not in chosen]

    def search() -> bool:
        even = [v for v in nbrs if degree[v] % 2 == 0]
        if not even:
            return True
        options = {v: usable(v) for v in even}
        v = min(even, key=lambda u: len(options[u]))
        for w in options[v]:
            chosen.append((v, w))
            degree[v] += 1
            degree[w] += 1
            if search():
                return True
            chosen.pop()
            degree[v] -= 1
            degree[w] -= 1
        return False

    return chosen if search() else None


def odd_factor_without(h: nx.Graph, classes, x, b: int):
    """Edges of a spanning subgraph of h - x with every degree odd and <= b.

    ``classes`` are the classes of true twins of h (equal closed
    neighbourhoods), which stay twins in h - x.  Their members other than x
    are paired off by their own edges while a class keeps more than three;
    the few vertices left are searched exhaustively.  None means only that
    this search found nothing.
    """
    factor = []
    rest = set()
    for c in classes:
        members = [v for v in c if v != x]
        while len(members) > 3:
            factor.append((members.pop(), members.pop()))
        rest.update(members)
    found = exhaustive_odd_factor({v: [w for w in h[v] if w in rest] for v in rest}, b)
    return None if found is None else factor + found


def is_odd_factor(h: nx.Graph, edges, b: int) -> bool:
    degree = dict.fromkeys(h, 0)
    for u, v in edges:
        assert h.has_edge(u, v)
        degree[u] += 1
        degree[v] += 1
    return len({frozenset(e) for e in edges}) == len(edges) and all(
        d % 2 == 1 and d <= b for d in degree.values()
    )


@pytest.mark.parametrize("n, b, k, delta", [(47, 1, 1, 3), (63, 1, 1, 3), (271, 3, 1, 3)])
def test_exact_verdicts_above_the_cap(n, b, k, delta):
    # G' at the minimal orders of Theorems 1.5 and 1.6, relabelled: the base
    # is not k-critical, and networkx finds more odd components after
    # deleting the witness than the criterion allows
    base = extremal_gprime(ExtremalParams(n, b, k, delta))
    rng = random.Random(n)
    g = relabelled(base, rng)
    verdict = is_k_critical(g, b, k, cap=n)
    assert verdict.critical is False
    size = len(verdict.witness)
    assert nx_odd_components(to_nx(g), verdict.witness) > b * (size - k) >= 0
    # a singleton joined to the big clique (vertex delta) or to another
    # singleton: critical, and for k = 1 every h - x has an odd factor
    # (a perfect matching when b = 1)
    for u in (delta, n - 2):
        g = relabelled(base.with_edge(u, n - 1), rng)
        assert is_k_critical(g, b, k, cap=n).critical
        h = to_nx(g)
        closed: dict = {}
        for v in h:
            closed.setdefault(frozenset(h[v]) | {v}, []).append(v)
        for x in h:
            factor = odd_factor_without(h, list(closed.values()), x, b)
            rest = nx.restricted_view(h, [x], [])
            assert factor is not None and is_odd_factor(rest, factor, b)
            if b == 1:
                assert nx.is_perfect_matching(rest, set(factor))


@given(graphs_and_sets())
def test_distance_matrix(case):
    g, _ = case
    h = to_nx(g)
    if not nx.is_connected(h):
        with pytest.raises(DisconnectedGraphError):
            distance_matrix(g)
        return
    d = distance_matrix(g)
    for u, lengths in nx.shortest_path_length(h):
        for v, length in lengths.items():
            assert d[u, v] == length


@pytest.mark.parametrize("n, b, k, delta", [(47, 1, 1, 3), (63, 1, 1, 3), (271, 3, 1, 3)])
def test_twin_quotient_radii_of_relabelled_gprime_supergraphs(n, b, k, delta):
    # mu1 and eta1 against scipy distances and a full eigvalsh; the added edge
    # joins a singleton to the big clique or to another singleton
    base = extremal_gprime(ExtremalParams(n, b, k, delta))
    rng = random.Random(n)
    for u in (delta, n - 2):
        g = relabelled(base.with_edge(u, n - 1), rng)
        for kind in ("distance", "distance_signless_laplacian"):
            full = np.linalg.eigvalsh(reference_matrix(g, kind).astype(float))[-1]
            assert abs(spectral_radius(g, kind) - full) < 1e-9


@settings(max_examples=200)
@given(graphs_and_sets(min_n=2), st.sampled_from([1, 3]), st.integers(0, 2), st.randoms())
def test_criticality_witness_and_relabelling(case, b, k, rnd):
    g, _ = case
    if g.n < k + 2:
        return
    verdict = is_k_critical(g, b, k)
    perm = list(range(g.n))
    rnd.shuffle(perm)
    relabelled = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    other = is_k_critical(relabelled, b, k)
    assert other.critical == verdict.critical
    h = to_nx(g)
    for graph, result in ((h, verdict), (to_nx(relabelled), other)):
        assert (result.witness is None) == result.critical
        if result.witness is not None:
            size = len(result.witness)
            assert size >= k
            assert nx_odd_components(graph, result.witness) > b * (size - k)
    if verdict.critical and g.n <= 9:
        # recount the criterion for every S when that is cheap
        for size in range(k, g.n + 1):
            for removed in combinations(range(g.n), size):
                assert nx_odd_components(h, removed) <= b * (size - k)


def dominated_graphs() -> list[Graph]:
    """Graphs whose highest-degree vertices are adjacent to every other vertex.

    Join families, their one-edge supergraphs, and seeded G(m, p) graphs
    under a planted head (a clique or an independent set joined to all of
    them), each as built and relabelled.
    """
    rng = random.Random(20)
    graphs = []
    for x, parts in [(1, [3, 1, 1]), (2, [4, 1, 1, 1]), (3, [5, 2, 2]), (2, [2, 2, 2]),
                     (4, [3, 1, 1, 1, 1, 1])]:
        base = family(x, parts)
        graphs += [base] + [g for _, g in one_edge_supergraphs(base)]
    for head in (2, 3, 4):
        for p in (0.0, 0.2, 0.5, 0.8):
            m = rng.randint(head + 1, 10)
            rest = Graph(m, [(u, v) for u in range(m) for v in range(u + 1, m) if rng.random() < p])
            graphs += [join(make_complete(head), rest), join(Graph(head), rest)]
    return graphs + [relabelled(g, rng) for g in graphs]


def test_connectivity_when_the_head_dominates():
    # Even's test settles every later vertex at once when v_1..v_k, the k
    # highest-degree vertices, are adjacent to all of them
    settled = 0
    for g in dominated_graphs():
        kappa = nx.node_connectivity(to_nx(g))
        rows = g.adjacency_rows
        order = sorted(range(g.n), key=lambda v: -rows[v].bit_count())
        for k in range(2, g.min_degree() + 2):
            assert g.is_k_connected(k) == (g.n > k and kappa >= k), (g, k)
            settled += g.n > k and all(rows[h] >> v & 1 for h in order[:k] for v in order[k:])
    assert settled >= 200
