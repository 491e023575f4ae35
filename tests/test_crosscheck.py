"""Every bitset kernel against networkx, on random graphs with n <= 12."""
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from oddcrit import DisconnectedGraphError, Graph, distance_matrix, is_k_critical
from oddcrit.factors import _clique_cover_size


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
    assert g.components() == nx.number_connected_components(h)
    assert g.is_connected() == nx.is_connected(h)
    assert g.odd_components_after_removal(removed) == nx_odd_components(h, removed)


@given(graphs_and_sets())
def test_clique_cover_bounds_independence_number(case):
    g, _ = case
    alpha = max(len(c) for c in nx.find_cliques(nx.complement(to_nx(g))))
    assert alpha <= _clique_cover_size(g.adjacency_rows, g.n) <= g.n


@given(graphs_and_sets(min_n=2))
def test_connectivity(case):
    g, _ = case
    kappa = nx.node_connectivity(to_nx(g))
    assert g.vertex_connectivity() == kappa
    for k in range(1, g.n + 1):
        assert g.is_k_connected(k) == (g.n > k and kappa >= k)


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
