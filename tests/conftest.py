import random
from itertools import combinations

import pytest
from hypothesis import settings, strategies as st

from oddcrit.factors import ENUMERATION_CAP, _bounds, _find_violation
from oddcrit.graphs import (
    ExtremalParams,
    Graph,
    _twin_classes,
    extremal_gprime,
    proof_graph_g2,
    proof_graph_g3,
)

settings.register_profile("deterministic", derandomize=True, max_examples=60)
settings.load_profile("deterministic")


def build_parameter_grid(max_n: int = 60) -> list[tuple[int, int, int, int, int]]:
    """30 valid (n, b, k, delta, s) tuples with k+1 <= s <= delta-1.

    Small orders near the feasibility minimum plus a few near the 60-vertex
    scale; every tuple admits all three families.
    """
    seen = {}
    extras = [(59, 1, 1, 3, 2), (58, 1, 2, 4, 3), (57, 3, 1, 3, 2), (60, 1, 2, 4, 3)]
    for tup in extras:
        seen[tup] = None
    for b in (1, 3, 5):
        for k in (1, 2, 3):
            for delta in (k + 2, k + 3):
                for s in sorted({k + 1, delta - 1}):
                    n = max(
                        (b + 1) * delta - b * k + 2,
                        (b + 1) * s - b * k + 2,
                        s + (delta + 1 - s) * (b * s - b * k + 1) + 1,
                        delta + 2,
                    ) + 4
                    if (n - k) % 2:
                        n += 1
                    if n <= max_n:
                        seen.setdefault((n, b, k, delta, s), None)
    grid = sorted(seen, key=lambda t: (t[1], t[2], t[3], t[4], t[0]))[:30]
    assert len(grid) == 30
    return grid


@pytest.fixture(scope="session")
def parameter_grid():
    grid = build_parameter_grid()
    for n, b, k, delta, s in grid:
        params = ExtremalParams(n, b, k, delta, s)
        extremal_gprime(params)
        proof_graph_g2(params)
        proof_graph_g3(params)
    return grid


def has_odd_factor(g: Graph, b, *, cap: int = ENUMERATION_CAP) -> bool:
    """Whether G has a spanning subgraph with every degree odd and at most b.

    ``b`` is a positive odd integer.  Decided by the criticality scan at
    k = 0 (S = empty set alone forces o(G) = 0, so odd-order graphs always
    fail; the empty graph has one).
    """
    mask, _ = _find_violation(g, *_bounds(b, 0), cap=cap)
    return mask is None


def random_connected_graph(rng: random.Random, n: int, extra: float = 0.3) -> Graph:
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


def graph_from_edge_mask(n: int, mask: int) -> Graph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, (pairs[i] for i in range(len(pairs)) if mask >> i & 1))


def relabelled(g: Graph, rng: random.Random) -> Graph:
    """G under a random permutation of its vertex labels."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


@st.composite
def random_graphs(draw, orders):
    """G(n, p) with n drawn from ``orders`` and p uniform in [0, 1]."""
    n = draw(orders)
    density = draw(st.floats(0, 1))
    rnd = draw(st.randoms(use_true_random=False))
    return Graph(n, [(u, v) for v in range(n) for u in range(v) if rnd.random() < density])


@st.composite
def twin_blowups(draw, max_n=12):
    """A random base graph with every vertex blown up into a class of twins.

    Each class is a clique (true twins) or an independent set (false twins)
    of 1-4 vertices, joined to the classes of its base neighbours.  The
    labels are then permuted, and up to two noise edges toggled.
    """
    base_n = draw(st.integers(3, 5))
    base = [pair for pair in combinations(range(base_n), 2) if draw(st.booleans())]
    sizes = [draw(st.integers(1, 4)) for _ in range(base_n)]
    starts = [sum(sizes[:i]) for i in range(base_n + 1)]
    n = min(starts[-1], max_n)
    blocks = [range(starts[i], min(starts[i + 1], n)) for i in range(base_n)]
    edges = set()
    for block in blocks:
        if draw(st.booleans()):
            edges.update(combinations(block, 2))
    for i, j in base:
        edges.update((u, v) for u in blocks[i] for v in blocks[j])
    perm = draw(st.permutations(range(n)))
    edges = {tuple(sorted((perm[u], perm[v]))) for u, v in edges}
    for _ in range(draw(st.integers(0, 2))):
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        edges ^= {(min(u, v), max(u, v))}
    return Graph(n, edges)


@st.composite
def twin_free_graphs(draw, max_n=24):
    """A random connected graph with every twin class a single vertex (a path if need be)."""
    n = draw(st.integers(4, max_n))
    g = random_connected_graph(draw(st.randoms(use_true_random=False)), n, draw(st.floats(0.0, 0.6)))
    twin_free = len(_twin_classes(g.adjacency_rows)) == n
    return g if twin_free else Graph(n, [(i, i + 1) for i in range(n - 1)])
