import random
import re
from itertools import combinations, product

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oddcrit.errors import GraphFormatError, ParameterError
from oddcrit.graphs import (
    ExtremalParams,
    Graph,
    _fan_reaches,
    _k_connected,
    _pack_masks,
    _twin_classes,
    _unpack_masks,
    disjoint_union,
    extremal_gprime,
    family,
    g_star,
    is_join_family,
    join,
    make_complete,
    parse_edge_list,
    parse_graph6,
    parse_graph6_corpus,
    parse_graph_auto,
    proof_graph_g2,
    proof_graph_g3,
    write_graph6,
)
from oddcrit.theorems import exceptional_layouts_for
from conftest import random_connected_graph, random_graphs, relabelled, twin_blowups
from oracles import (
    is_join_family_components,
    k_connected_fan_per_vertex,
    parse_graph6_per_row,
    twin_classes_every_vertex,
    without_edge,
    without_vertices,
    write_graph6_per_bit,
)


#: code points outside graph6's 63..126 but ASCII whitespace, the one kind
#: a graph6 string is trimmed of: invalid ASCII bytes (the separators
#: \x1c-\x1f among them), non-ASCII characters of 2, 3 and 4 UTF-8 bytes,
#: and the non-ASCII whitespace and line breaks that ``str.strip`` and
#: ``str.splitlines`` would take
INVALID_G6 = [chr(c) for c in (*range(63), 127) if chr(c) not in " \t\n\r\x0b\x0c"] + [
    "\x80", "\u00e9", "\u00ff", "\u4e00", "\ufeff", "\U0001f600",
    "\x85", "\xa0", "\u2028", "\u2029", "\u3000"]


@st.composite
def graphs_with_a_small_cut(draw):
    """Two dense sides joined only through 1-4 cut vertices, relabelled: kappa is at most the cut."""
    sizes = [draw(st.integers(2, 7)), draw(st.integers(2, 7)), draw(st.integers(1, 4))]
    rnd = draw(st.randoms(use_true_random=False))
    side = [i for i, size in enumerate(sizes) for _ in range(size)]
    n = len(side)
    edges = [
        (u, v) for v in range(n) for u in range(v)
        if (side[u] == side[v] or 2 in (side[u], side[v])) and rnd.random() < 0.8
    ]
    return relabelled(Graph(n, edges), rnd)


@st.composite
def join_layouts(draw):
    """``(s, parts)`` of every shape: no cell, one singleton, several singletons, a lone part."""
    shape = draw(st.sampled_from(["no cell", "one singleton", "singletons", "lone part"]))
    if shape == "lone part":
        return draw(st.integers(0, 4)), [draw(st.integers(1, 5))]
    s = 0 if shape == "no cell" else draw(st.integers(1, 4))
    fewest = {"no cell": 0, "one singleton": 1, "singletons": 2}[shape]
    singles = draw(st.integers(fewest, 1 if fewest == 1 else 4))
    cliques = draw(st.lists(st.integers(2, 5), min_size=max(0, 2 - singles), max_size=3))
    return s, cliques + [1] * singles


def partitions(n, most):
    """The partitions of n into non-increasing parts of at most ``most``."""
    if n == 0:
        return [[]]
    return [[p] + rest for p in range(min(n, most), 0, -1) for rest in partitions(n - p, p)]


def layouts_of_order(n):
    """Every ``(s, parts)`` with s + sum(parts) = n and at least one part."""
    return [(s, parts) for s in range(n) for parts in partitions(n - s, n - s)]


#: the orders around the one-byte graph6 header, and random ones up to 80
GRAPH6_ORDERS = st.one_of(st.sampled_from([0, 1, 2, 62, 63, 64]), st.integers(0, 80))


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestElementaryConstructors:
    @pytest.mark.parametrize("m,edges", [(0, 0), (1, 0), (4, 6), (13, 78)])
    def test_complete_edge_counts(self, m, edges):
        g = make_complete(m)
        assert g.n == m
        assert g.edge_count() == edges

    def test_union_counts_and_components(self):
        g = disjoint_union(make_complete(1), make_complete(1))
        assert (g.n, g.edge_count()) == (2, 0)
        h = disjoint_union(make_complete(3), make_complete(2))
        assert (h.n, h.edge_count()) == (5, 4)
        # K_3 and K_2, the latter odd once one of its vertices goes
        assert [h.odd_components_after_removal(s) for s in ((), [3])] == [1, 2]

    def test_join_small(self):
        k2 = join(make_complete(1), make_complete(1))
        assert k2 == make_complete(2)
        g = join(make_complete(2), disjoint_union(make_complete(1), make_complete(1)))
        assert (g.n, g.edge_count()) == (4, 5)

    def test_join_edge_count_identity_big(self):
        # e(G v H) = e(G) + e(H) + |G||H|
        union = disjoint_union(make_complete(13), Graph(3))
        g = join(make_complete(3), union)
        assert g.edge_count() == 3 + 78 + 0 + 3 * 16 == 129

    @given(st.integers(0, 6), st.integers(0, 6), st.data())
    def test_join_union_identities(self, n1, n2, data):
        e1 = data.draw(st.integers(0, max(n1 * (n1 - 1) // 2, 1)))
        rng = random.Random(e1 * 1000 + n1 * 10 + n2)
        g = Graph(n1, rng.sample([(u, v) for u in range(n1) for v in range(u + 1, n1)],
                                 min(e1, n1 * (n1 - 1) // 2)))
        h = make_complete(n2)
        u = disjoint_union(g, h)
        j = join(g, h)
        assert u.n == j.n == n1 + n2
        assert u.edge_count() == g.edge_count() + h.edge_count()
        assert j.edge_count() == g.edge_count() + h.edge_count() + n1 * n2

    def test_family_p3(self):
        g = family(1, [1, 1])
        assert (g.n, g.edge_count()) == (3, 2)
        assert sorted(row.bit_count() for row in g.adjacency_rows) == [1, 1, 2]

    def test_family_rejects_degenerate(self):
        with pytest.raises(ParameterError, match="degenerate"):
            family(2, [])
        with pytest.raises(ParameterError):
            family(2, [3, 0])
        with pytest.raises(ParameterError):
            family(-1, [3])

    def test_k0_neutral_element(self):
        g = make_complete(4)
        assert join(make_complete(0), g) == g
        assert disjoint_union(g, make_complete(0)) == g


class TestExtremalFamilies:
    def test_gprime_19113(self):
        g = extremal_gprime(ExtremalParams(19, 1, 1, 3))
        assert g.n == 19
        assert g.edge_count() == 129
        assert g.min_degree() == 3
        assert g == family(3, [13, 1, 1, 1])

    def test_gprime_parity_gate(self):
        with pytest.raises(ParameterError, match="parity"):
            extremal_gprime(ExtremalParams(20, 1, 1, 3))

    def test_gprime_rejects_bad_parts(self):
        with pytest.raises(ParameterError, match="big clique"):
            extremal_gprime(ExtremalParams(5, 1, 1, 3))
        with pytest.raises(ParameterError, match="singleton"):
            extremal_gprime(ExtremalParams(13, 1, 3, 1))
        # boundary: no singleton cell at all is rejected rather than degraded
        with pytest.raises(ParameterError, match="singleton"):
            extremal_gprime(ExtremalParams(13, 1, 3, 2))
        with pytest.raises(ParameterError, match="odd"):
            extremal_gprime(ExtremalParams(19, 2, 1, 3))

    def test_split_messages_name_the_join_cell(self):
        with pytest.raises(ParameterError, match=re.escape("n-(b+1)*s+b*k-1")):
            proof_graph_g2(ExtremalParams(5, 1, 1, 3, s=3))
        with pytest.raises(ParameterError, match=re.escape("n-(b+1)*delta+b*k-1")):
            extremal_gprime(ExtremalParams(5, 1, 1, 3))

    def test_g2_at_s_delta_equals_gprime(self):
        p = ExtremalParams(19, 1, 1, 3, s=3)
        assert proof_graph_g2(p) == extremal_gprime(p)

    def test_g3_rejects_s_equal_delta(self):
        with pytest.raises(ParameterError, match="delta-1"):
            proof_graph_g3(ExtremalParams(19, 1, 1, 4, s=4))

    def test_g3_part_arithmetic(self):
        g = proof_graph_g3(ExtremalParams(19, 1, 1, 4, s=3))
        assert g == family(3, [10, 2, 2, 2])

    def test_family_matches_gprime_on_sample(self):
        for (n, b, k, d) in [(19, 1, 1, 3), (31, 1, 1, 2), (25, 3, 1, 3), (28, 1, 2, 4)]:
            p = ExtremalParams(n, b, k, d)
            big, singles = p.gprime_parts()
            assert family(d, [big] + [1] * singles) == extremal_gprime(p)

    def test_big_part_is_odd(self):
        # forced by n = k (mod 2) with b odd
        for (n, b, k, d) in [(19, 1, 1, 3), (31, 1, 1, 2), (25, 3, 1, 3), (28, 1, 2, 4), (33, 5, 3, 6)]:
            big, _ = ExtremalParams(n, b, k, d).gprime_parts()
            assert big % 2 == 1

    def test_gstar_degrees(self):
        g = g_star(19, 1, 1)
        assert g.n == 19
        degs = [g.adjacency_rows[v].bit_count() for v in (16, 17, 18)]
        assert sorted(degs) == [3, 4, 4]

    def test_gstar_edge_count(self):
        base = family(3, [13, 1, 1, 1])
        assert g_star(19, 1, 1).edge_count() == base.edge_count() + 1

    @pytest.mark.parametrize("s, parts", [
        (3, [13, 1, 1, 1]),  # G'(19, 1, 1, 3)
        (2, [15, 1, 1, 1, 1]),  # g2(21, 3, 1, 4, s=2)
        (3, [10, 2, 2, 2]),  # g3(19, 1, 1, 4, s=3)
        *exceptional_layouts_for("1.4", 19, 1, 1, None),
        *exceptional_layouts_for("1.4", 25, 3, 1, None),
    ])
    def test_join_family_recognised_under_any_labels(self, s, parts):
        g = family(s, parts)
        reference = nx.from_graph6_bytes(write_graph6(g).encode())
        rng = random.Random(s * 100 + len(parts))
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
            added = h.with_edge(*rng.choice(list(h.non_edges())))
            removed = without_edge(h, *rng.choice(list(h.edges())))
            assert is_join_family(h, s, parts)
            assert not is_join_family(added, s, parts)
            assert not is_join_family(removed, s, parts)
            for candidate in (h, added, removed):
                other = nx.from_graph6_bytes(write_graph6(candidate).encode())
                assert is_join_family(candidate, s, parts) == nx.is_isomorphic(other, reference)

    def test_join_family_lone_part_is_universal(self):
        # K_s v K_p is K_{s+p}, whichever way the layout splits it
        for s, parts in ((0, [5]), (2, [3]), (4, [1])):
            assert is_join_family(make_complete(5), s, parts)
        assert not is_join_family(make_complete(5), 1, [3, 1])
        assert not is_join_family(make_complete(5), 2, [2])

    @settings(max_examples=150)
    @given(join_layouts(), join_layouts(), st.randoms(use_true_random=False))
    def test_join_family_matches_component_oracle(self, layout, other, rnd):
        # a relabelled family, one edge more and one edge less, against its own layout and another
        g = relabelled(family(*layout), rnd)
        candidates = [g]
        if g.edge_count() < g.n * (g.n - 1) // 2:
            candidates.append(g.with_edge(*rnd.choice(list(g.non_edges()))))
        if g.edge_count():
            candidates.append(without_edge(g, *rnd.choice(list(g.edges()))))
        assert is_join_family(g, *layout)
        for h in candidates:
            for s, parts in (layout, other):
                assert is_join_family(h, s, parts) == is_join_family_components(h, s, parts)

    @settings(max_examples=100)
    @given(st.one_of(
        random_graphs(st.integers(0, 8)),
        st.builds(join, st.builds(make_complete, st.integers(0, 3)), random_graphs(st.integers(0, 5))),
    ))
    def test_join_family_matches_component_oracle_on_random_graphs(self, g):
        # every layout of the graph's order, so the order alone decides none
        for s, parts in layouts_of_order(g.n):
            assert is_join_family(g, s, parts) == is_join_family_components(g, s, parts)

    def test_gstar_invalid(self):
        with pytest.raises(ParameterError):
            g_star(18, 1, 1)
        with pytest.raises(ParameterError):
            g_star(5, 1, 1)


def _paper_rules(n, b, k, d=1):
    return b >= 1 and b % 2 == 1 and k >= 1 and d >= 1 and (n - k) % 2 == 0


# Each family's layout by the arithmetic and the checks it had when every
# family wrote them out itself, or None where those checks rejected the
# parameters; g* as its graph.
def _gprime_reference(n, b, k, d, s):
    big, singles = n - (b + 1) * d + b * k - 1, b * d - b * k + 1
    if _paper_rules(n, b, k, d) and big >= 1 and singles >= 1:
        return d, [big] + [1] * singles
    return None


def _g2_reference(n, b, k, d, s):
    # the G' arithmetic at join cell s
    if s is None or s < 1 or not _paper_rules(n, b, k, d):
        return None
    return _gprime_reference(n, b, k, s, s)


def _g3_reference(n, b, k, d, s):
    if s is None or not 1 <= s <= d - 1 or not _paper_rules(n, b, k, d):
        return None
    copies = b * s - b * k + 1
    big = n - s - (d + 1 - s) * copies
    if copies >= 1 and big >= 1:
        return s, [big] + [d + 1 - s] * copies
    return None


def _gstar_reference(n, b, k, d, s):
    big = n - 2 * b - k - 3
    if _paper_rules(n, b, k) and big >= 1:
        first_single = k + 2 + big
        return family(k + 2, [big] + [1] * (2 * b + 1)).with_edge(first_single, first_single + 1)
    return None


def _theorem_14_reference(n, b, k, d, s):
    big = n - b - k - 2
    if not (b >= 1 and b % 2 == 1 and k >= 1 and big >= 1):
        return None
    return [(k + 1, [big] + [1] * (b + 1))] + ([(k, [n - k - 1, 1])] if n - k - 1 >= 1 else [])


_WITH_DELTA_AND_S = list(product(range(26), (0, 1, 2, 3, 5), range(4), range(6), (None, *range(6))))
_WITHOUT_DELTA_OR_S = list(product(range(26), (0, 1, 2, 3, 5), range(4), (None,), (None,)))


@pytest.mark.parametrize("current, reference, grid", [
    (lambda n, b, k, d, s: ExtremalParams(n, b, k, d, s).layout("gprime"), _gprime_reference,
     _WITH_DELTA_AND_S),
    (lambda n, b, k, d, s: ExtremalParams(n, b, k, d, s).layout("g2"), _g2_reference,
     _WITH_DELTA_AND_S),
    (lambda n, b, k, d, s: ExtremalParams(n, b, k, d, s).layout("g3"), _g3_reference,
     _WITH_DELTA_AND_S),
    (lambda n, b, k, d, s: g_star(n, b, k), _gstar_reference, _WITHOUT_DELTA_OR_S),
    (lambda n, b, k, d, s: exceptional_layouts_for("1.4", n, b, k, None), _theorem_14_reference,
     _WITHOUT_DELTA_OR_S),
], ids=["gprime", "g2", "g3", "gstar", "theorem_1.4"])
def test_join_layout_matches_each_family_on_a_grid(current, reference, grid):
    valid = 0
    for n, b, k, d, s in grid:
        expected = reference(n, b, k, d, s)
        try:
            got = current(n, b, k, d, s)
        except ParameterError:
            got = None
        assert got == expected, (n, b, k, d, s)
        valid += expected is not None
    assert valid >= 20


@pytest.mark.parametrize("build", [
    lambda: make_complete(2.0),
    lambda: family(1, [2.0]),
    lambda: family(1.0, [2]),
    lambda: extremal_gprime(ExtremalParams(19.0, 1, 1, 3)),
    lambda: ExtremalParams(19, 1, 1, 3, 2.0).layout("g2"),
    lambda: g_star(19.0, 1, 1),
], ids=["make_complete", "family_part", "family_cell", "extremal_gprime", "g2_s", "g_star"])
def test_family_orders_must_be_integers(build):
    with pytest.raises(ParameterError, match="must be an integer"):
        build()


@pytest.mark.parametrize("call", [
    lambda g: g.with_edge(0, 2.5),
    lambda g: g.odd_components_after_removal([1.5]),
], ids=["with_edge", "odd_components_after_removal"])
def test_vertex_labels_must_be_integers(call):
    with pytest.raises(ParameterError, match=r"vertex=.* must be an integer"):
        call(make_complete(4))


class TestQueries:
    def test_min_degree_edge_count(self):
        k5 = make_complete(5)
        assert (k5.min_degree(), k5.edge_count()) == (4, 10)
        p3 = path(3)
        assert (p3.min_degree(), p3.edge_count()) == (1, 2)

    def test_min_degree_empty_graph(self):
        with pytest.raises(ParameterError):
            Graph(0).min_degree()

    def test_vertex_connectivity(self):
        assert make_complete(6).vertex_connectivity() == 5
        assert cycle(5).vertex_connectivity() == 2
        assert extremal_gprime(ExtremalParams(19, 1, 1, 3)).vertex_connectivity() == 3
        assert disjoint_union(make_complete(2), make_complete(2)).vertex_connectivity() == 0

    def test_connectivity_at_most_min_degree(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randrange(2, 9), rng.uniform(0.1, 0.9))
            assert g.vertex_connectivity() <= g.min_degree()

    def test_is_k_connected(self):
        g = extremal_gprime(ExtremalParams(19, 1, 1, 3))
        assert g.is_k_connected(3)
        assert not g.is_k_connected(4)
        assert not path(3).is_k_connected(2)

    @pytest.mark.parametrize("extra", [False, True])
    def test_fan_reroutes_through_a_released_vertex(self, extra):
        # the sources reach t = 0 by at most two disjoint paths.  The first
        # path is 1-3-4-5-0; the second must push it off 4 and 5
        # (1-3-9-10-11-0 and 2-6-7-8-5-0), which leaves 4 unused.  With the
        # extra chains, source 12 can reach 4 only, and the third search must
        # not treat 4 as still carrying 3's path
        chains = [(1, 3, 4, 5, 0), (2, 6, 7, 8, 5), (3, 9, 10, 11, 0)]
        sources = [1, 2]
        if extra:
            chains += [(12, 13, 14, 15, 16, 17, 4), (3, 18, 19, 20, 21, 22, 0)]
            sources.append(12)
        g = Graph(23 if extra else 12, [e for c in chains for e in zip(c, c[1:])])
        mask = sum(1 << v for v in sources)
        assert [_fan_reaches(g.adjacency_rows, mask, 0, k) for k in (1, 2, 3)] == [
            True, True, False]
        h = nx.Graph(list(g.edges()) + [("s", v) for v in sources])
        assert nx.node_connectivity(h, "s", 0) == 2

    def test_components_and_odd_components(self):
        assert Graph(3).odd_components_after_removal(()) == 3
        assert make_complete(4).odd_components_after_removal(()) == 0
        g = extremal_gprime(ExtremalParams(19, 1, 1, 3))
        assert g.odd_components_after_removal(range(3)) == 4
        assert g.is_connected() and g.odd_components_after_removal(()) == 1

    @pytest.mark.parametrize("label", [np.int64, np.int32, np.uint8])
    def test_numpy_integer_labels_never_build_a_wrong_graph(self, label):
        # a numpy label's shifts overflow its width: the constructor rejects
        # it, and the edits and queries take it as the int it stands for
        for edges in ([(label(0), label(70))], [(label(0), label(1)), (0, 80)], [(0, label(5))]):
            with pytest.raises(ParameterError, match="Python ints"):
                Graph(100, edges)
        g = Graph(100).with_edge(label(1), label(90))
        assert g.edge_count() == 1 and g.adjacency_rows == Graph(100, [(1, 90)]).adjacency_rows
        assert all(type(row) is int for row in g.adjacency_rows)
        assert make_complete(80).odd_components_after_removal([label(70)]) == 1
        assert make_complete(80).odd_components_after_removal([label(7), 70]) == 0

    @pytest.mark.parametrize("query", [
        lambda g: g.with_edge(-1, 1),
        lambda g: g.with_edge(1, 7),
        lambda g: g.with_edge(4, 1),
        lambda g: g.with_edge(1, -1),
        lambda g: g.odd_components_after_removal([-1]),
        lambda g: g.odd_components_after_removal([0, 4]),
    ])
    def test_labels_outside_the_vertex_range_are_rejected(self, query):
        # -1 would index row 3 from the end, and shifts by it raise ValueError
        g = Graph(4, [(3, 0)])
        with pytest.raises(ParameterError, match="outside vertex range 0..3"):
            query(g)
        assert g.adjacency_rows == (0b1000, 0, 0, 0b1)

    def test_without_vertices_relabels(self):
        g = without_vertices(path(4), [1])
        assert g.n == 3
        assert sorted(g.edges()) == [(1, 2)]

    def test_edges_and_non_edges_partition_pairs(self):
        g = cycle(5)
        assert len(list(g.edges())) + len(list(g.non_edges())) == 10

    @given(st.integers(1, 10), st.floats(0.0, 1.0), st.randoms(use_true_random=False))
    def test_twin_classes_partition_by_neighbourhood(self, n, density, rnd):
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rnd.random() < density])
        nbrs = [{u for u in range(n) if row >> u & 1} for row in g.adjacency_rows]

        def twins(u, v):
            return nbrs[u] == nbrs[v] or nbrs[u] | {u} == nbrs[v] | {v}

        partition = _twin_classes(g.adjacency_rows)
        # every vertex appears exactly once
        assert sorted(v for c in partition.values() for v in c) == list(range(n))
        # each class ascends and is keyed by its lowest member, and the classes ascend by it
        assert all(c == sorted(c) and c[0] == low for low, c in partition.items())
        assert list(partition) == sorted(partition)
        classes = list(partition.values())
        for c in classes:
            assert all(twins(u, v) for u in c for v in c)
        for c, other in combinations(classes, 2):
            assert not twins(c[0], other[0])


class TestGraphIO:
    def test_spec_example_string(self):
        g = parse_graph6("D?{")
        assert g.n == 5
        assert write_graph6(g) == "D?{"

    def test_edge_list_p3(self):
        g = parse_edge_list("0 1\n1 2")
        assert g == path(3)

    def test_edge_list_comments_and_errors(self):
        g = parse_edge_list("# a comment\n0 1\n\n1 2  # trailing\n")
        assert g == path(3)
        with pytest.raises(GraphFormatError):
            parse_edge_list("")
        with pytest.raises(GraphFormatError, match="self-loop"):
            parse_edge_list("1 1")
        with pytest.raises(GraphFormatError):
            parse_edge_list("0 x")

    def test_bad_length_reports_offset(self):
        with pytest.raises(GraphFormatError, match="offset"):
            parse_graph6("D?")  # order 5 needs 2 body bytes
        with pytest.raises(GraphFormatError, match="offset"):
            parse_graph6("D?{{")

    def test_bad_byte_rejected(self):
        with pytest.raises(GraphFormatError, match="invalid graph6 byte"):
            parse_graph6("D?*")

    def test_auto_detection(self):
        assert parse_graph_auto("0 1\n1 2") == path(3)
        assert parse_graph_auto(">>graph6<<D?{").n == 5
        assert parse_graph_auto("D?{").n == 5
        assert parse_graph_auto("\nD?{\n\n").n == 5
        assert parse_graph_auto("D?{\n# a comment, as in a corpus\n").n == 5
        # a leading comment: the first line left after comments decides
        assert parse_graph_auto("# one graph\n\n  # and a note\nD?{\n").n == 5
        assert parse_graph_auto("# a path\n0 1  # first edge\n1 2\n") == path(3)
        with pytest.raises(GraphFormatError, match="empty edge list"):
            parse_graph_auto("# nothing else\n\n# at all\n")

    def test_auto_detection_reads_one_graph6_graph(self):
        with pytest.raises(GraphFormatError, match="holds 2 graph6 lines, one graph expected"):
            parse_graph_auto("D?{\nD~{\n")

    def test_corpus_parsing(self):
        text = "# two graphs\nD?{\n" + write_graph6(make_complete(4)) + "\n"
        graphs = parse_graph6_corpus(text)
        assert [g.n for g in graphs] == [5, 4]

    @pytest.mark.parametrize("text, code, at", [
        ("\xa0D?{", 160, 0), ("D?{\u3000", 12288, 3), ("D?{\x1c", 28, 3),
        ("\x1fD?{", 31, 0), ("\x85D?{", 133, 0), (" D?{\u2028", 8232, 3),
        (">>graph6<<D?{\xa0", 160, 3),
    ])
    def test_only_ascii_whitespace_is_trimmed(self, text, code, at):
        # str.strip would take these and return the graph of D?{
        for parse in (parse_graph6, parse_graph6_corpus, parse_graph_auto):
            with pytest.raises(GraphFormatError, match=f"invalid graph6 byte {code} ") as info:
                parse(text)
            assert info.value.offset == at
        assert parse_graph6(" \t\x0b\x0cD?{\r\n") == parse_graph6("D?{")

    @pytest.mark.parametrize("end, code", [
        ("\x85", 133), ("\u2028", 8232), ("\u2029", 8233), ("\x1c", 28), ("\x1e", 30),
        ("\x0b", 11), ("\x0c", 12),
    ])
    def test_corpus_lines_end_only_at_cr_and_lf(self, end, code):
        # str.splitlines would split there and read two graphs
        for parse in (parse_graph6_corpus, parse_graph_auto):
            with pytest.raises(GraphFormatError, match=f"invalid graph6 byte {code} ") as info:
                parse(f"# a note{end}D?{{\nD?{{{end}D?{{\n")
            assert info.value.offset == 3
        graphs = parse_graph6_corpus("D?{\r\nD?{\rD?{\n\rD?{")
        assert [g.n for g in graphs] == [5] * 4

    @given(st.integers(0, 62), st.randoms(use_true_random=False))
    def test_roundtrip_small(self, n, rnd):
        g = random_connected_graph(rnd, n, 0.4) if n >= 2 else Graph(n)
        assert parse_graph6(write_graph6(g)) == g

    def test_roundtrip_multibyte(self):
        rng = random.Random(3)
        for n in (63, 70, 100):
            g = random_connected_graph(rng, n, 0.05)
            text = write_graph6(g)
            assert text.startswith("~")
            assert parse_graph6(text) == g

    @pytest.mark.parametrize("n", [1, 2, 62, 63, 64, 271, 1000])
    def test_agrees_with_networkx(self, n):
        rng = random.Random(n)
        g = random_connected_graph(rng, n, 0.1)
        text = write_graph6(g)
        h = nx.from_graph6_bytes(text.encode())
        assert parse_graph6(text) == g
        assert h.number_of_nodes() == n
        assert sorted(tuple(sorted(e)) for e in h.edges()) == sorted(g.edges())
        assert nx.to_graph6_bytes(h, header=False).decode().strip() == text

    @settings(max_examples=200)
    @given(st.sampled_from([5, 20, 62, 63, 90]), st.booleans(), st.data())
    def test_first_invalid_code_point_is_reported(self, n, header, data):
        # invalid ASCII bytes and non-ASCII code points mixed, placed in the
        # size header or the body of a string cut anywhere: the first one wins
        # over a truncated header and a wrong body length
        text = write_graph6(random_connected_graph(random.Random(n), n, 0.3))
        cut = data.draw(st.integers(1, len(text)))
        chars = list(text[:cut])
        bad = data.draw(st.lists(st.tuples(st.integers(0, cut - 1), st.sampled_from(INVALID_G6)),
                                 min_size=1, max_size=4))
        for at, c in bad:
            chars[at] = c
        first = min(at for at, _ in bad)
        with pytest.raises(GraphFormatError, match="invalid graph6 byte") as info:
            parse_graph6((">>graph6<<" if header else "") + "".join(chars))
        assert info.value.offset == first
        assert str(info.value).startswith(f"invalid graph6 byte {ord(chars[first])} ")

    @pytest.mark.parametrize("text, code, at", [
        ("~?\x7f", 127, 2), (">>graph6<<~?\x7f", 127, 2), ("~~\x7f", 127, 2),
        ("~\u00e9", 233, 1), ("D?\U0001f600{", 128512, 2), ("@\ufeff", 65279, 1),
    ])
    def test_invalid_byte_before_header_and_length(self, text, code, at):
        with pytest.raises(GraphFormatError, match=f"invalid graph6 byte {code} ") as info:
            parse_graph6(text)
        assert info.value.offset == at

    @pytest.mark.parametrize("n, at", [(5, 1), (5, 2), (63, 0), (63, 2), (271, 4), (271, 3000)])
    @pytest.mark.parametrize("bad", ["*", "\x7f", "\u00e9", "\u4e00"])
    def test_first_bad_byte_offset(self, n, at, bad):
        text = write_graph6(random_connected_graph(random.Random(n), n, 0.2))
        broken = text[:at] + bad + text[at + 1:] + bad
        with pytest.raises(GraphFormatError, match="invalid graph6 byte") as info:
            parse_graph6(broken)
        assert info.value.offset == at
        assert f"byte {ord(bad)!r} " in str(info.value)

    @given(
        st.one_of(st.sampled_from([0, 1, 2, 62, 63, 64]), st.integers(0, 80)),
        st.floats(0, 1),
        st.integers(0, 2**32 - 1),
    )
    def test_writer_matches_per_bit_writer_and_networkx(self, n, density, seed):
        # one drawn seed: a draw per vertex pair, 3,160 at n = 80, made the
        # inputs too slow to generate
        rnd = random.Random(seed)
        pairs = [(u, v) for v in range(n) for u in range(v)]
        g = Graph(n, [pair for pair in pairs if rnd.random() < density])
        text = write_graph6(g)
        assert text == write_graph6_per_bit(g)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        assert nx.to_graph6_bytes(h, header=False).decode().strip() == text
        assert parse_graph6(text) == g

    def test_edge_list_order_limit(self):
        assert parse_edge_list("0 1\n1 258046").n == 258047
        for text, line in (("0 258047", 1), ("0 1\n1 2000000000", 2), ("# big\n4000000000 0", 2)):
            with pytest.raises(GraphFormatError, match=f"line {line}: .* order above 258047"):
                parse_edge_list(text)

    def test_roundtrip_canonical_bytes(self):
        rng = random.Random(11)
        for _ in range(100):
            g = random_connected_graph(rng, rng.randrange(2, 12), rng.random())
            text = write_graph6(g)
            assert write_graph6(parse_graph6(text)) == text


class TestKernelsMatchReferences:
    """The decoder, Even's test and the twin detector against their loop versions."""

    @settings(max_examples=150)
    @given(
        st.one_of(random_graphs(GRAPH6_ORDERS), twin_blowups(max_n=20)),
        st.booleans(),
        st.randoms(use_true_random=False),
    )
    def test_parser_rows_match_per_row_decoder(self, g, header, rnd):
        written = write_graph6(g)
        # a body of random bytes also sets the padding bits past the last pair
        body = len(written) - (1 if g.n <= 62 else 4)
        noise = written[: len(written) - body] + "".join(chr(63 + rnd.randrange(64)) for _ in range(body))
        prefix = ">>graph6<<" if header else ""
        for text in (written, noise):
            rows = parse_graph6(prefix + text).adjacency_rows
            assert rows == parse_graph6_per_row(prefix + text).adjacency_rows
        assert parse_graph6(prefix + written) == g

    def test_pack_masks_undoes_unpack_masks(self):
        rng = random.Random(5)
        for n in (1, 7, 8, 9, 64, 65):
            for rows in (1, 3, n):
                masks = [rng.getrandbits(n) for _ in range(rows)]
                assert _pack_masks(_unpack_masks(masks, n)) == masks
        assert _pack_masks(_unpack_masks([], 0)) == []
        assert parse_graph6("?") == Graph(0)

    @settings(max_examples=150)
    @given(st.one_of(random_graphs(st.integers(2, 16)), twin_blowups(), graphs_with_a_small_cut()))
    def test_k_connected_matches_networkx(self, g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        kappa = nx.node_connectivity(h)
        for k in range(1, 6):
            assert g.is_k_connected(k) == (kappa >= k)
            if g.n > k:
                assert k_connected_fan_per_vertex(g.adjacency_rows, k) == (kappa >= k)

    @settings(max_examples=150)
    @given(
        st.integers(2, 4),
        st.integers(-1, 1),
        st.one_of(
            random_graphs(st.integers(2, 12)),
            st.builds(disjoint_union, random_graphs(st.integers(1, 6)), random_graphs(st.integers(1, 6))),
        ),
        st.randoms(use_true_random=False),
    )
    def test_k_connected_on_joins_with_a_universal_cell(self, k, shift, h, rnd):
        # K_s v H with s = k-1, k, k+1, relabelled: s >= k universal vertices
        # settle the test, while s = k-1 over a disconnected H has a cut of k-1
        g = relabelled(join(make_complete(k + shift), h), rnd)
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges())
        want = nx.node_connectivity(nxg) >= k
        assert g.is_k_connected(k) == want
        assert _k_connected(g.adjacency_rows, k) == want
        assert k_connected_fan_per_vertex(g.adjacency_rows, k) == want

    @given(
        st.one_of(random_graphs(st.integers(0, 12)), twin_blowups()),
        st.integers(0, 4),
        st.randoms(use_true_random=False),
    )
    def test_twin_classes_match_reference_with_isolated_vertices(self, g, isolated, rnd):
        h = relabelled(disjoint_union(g, Graph(isolated)), rnd)
        got, want = _twin_classes(h.adjacency_rows), twin_classes_every_vertex(h.adjacency_rows)
        assert list(got.items()) == list(want.items())
        # the partition each graph keeps, also once the graph it came from read its own
        assert list(h._twins.items()) == list(want.items())
        assert list(g._twins.items()) == list(twin_classes_every_vertex(g.adjacency_rows).items())
        union = disjoint_union(g, Graph(isolated))
        want = twin_classes_every_vertex(union.adjacency_rows)
        assert list(union._twins.items()) == list(want.items())

    @settings(max_examples=100)
    @given(
        st.one_of(random_graphs(st.integers(0, 10)), twin_blowups()),
        random_graphs(st.integers(0, 5)),
        st.booleans(),
        join_layouts(),
        st.randoms(use_true_random=False),
    )
    def test_kept_partition_never_goes_stale(self, g, h, warm, layout, rnd):
        # from every constructor, whether or not the graphs it is built from read their partition
        for x in (g, h) if warm else ():
            assert list(x._twins.items()) == list(_twin_classes(x.adjacency_rows).items())
        made = [
            Graph(g.n, g.edges()), join(g, h), disjoint_union(g, h), family(*layout),
            make_complete(layout[0]), parse_graph6(write_graph6(g)),
        ]
        if g.n >= 2:
            made.append(g.with_edge(*rnd.sample(range(g.n), 2)))
        if g.edge_count():
            made.append(parse_edge_list("\n".join(f"{u} {v}" for u, v in g.edges())))
        for x in made:
            # equal to an equal graph whether neither, one or both built the partition
            copy = Graph(x.n, x.edges())
            for build in (x, copy, None):
                assert x == copy and copy == x and hash(x) == hash(copy)
                if build is not None:
                    want = _twin_classes(build.adjacency_rows)
                    assert list(build._twins.items()) == list(want.items())
