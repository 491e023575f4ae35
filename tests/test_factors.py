import math
import random
import re
import time
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from oddcrit import cli, factors
from oddcrit.errors import ParameterError, ScaleLimitError
from oddcrit.factors import (
    CriticalityVerdict,
    _canonical_subsets,
    _class_unions,
    _clique_cover_size,
    _find_violation,
    _odd_class_components,
    _quotient,
    _twin_layout,
    is_k_critical,
)
from oddcrit.graphs import (
    ExtremalParams,
    Graph,
    extremal_gprime,
    g_star,
    make_complete,
    parse_graph6,
    proof_graph_g2,
    proof_graph_g3,
    write_graph6,
    _bits,
    _odd_components,
    _twin_classes,
)
from oddcrit.theorems import one_edge_supergraphs
from conftest import (
    build_parameter_grid,
    graph_from_edge_mask,
    has_odd_factor,
    random_connected_graph,
    random_graphs,
    relabelled,
    twin_blowups,
    twin_free_graphs,
)
from oracles import (
    clique_cover_size_min_scan,
    criticality_witness_extremal,
    find_odd_factor,
    find_violation_per_vertex,
    full_scan,
    is_k_critical_definitional,
)


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def factor_is_valid(g, edges, b):
    deg = [0] * g.n
    for u, v in edges:
        assert g.adjacency_rows[u] >> v & 1
        deg[u] += 1
        deg[v] += 1
    return all(d % 2 == 1 and d <= b for d in deg)


class TestBounds:
    def test_rejects_even_or_nonpositive_bounds(self):
        g = make_complete(3)
        for b, k, message in [
            (2, 0, "factor bound 2 must be a positive odd integer"),
            (0, 0, "factor bound 0 must be a positive odd integer"),
            (-1, 0, "factor bound -1 must be a positive odd integer"),
            (1, -1, "criticality order k=-1 must be >= 0"),
        ]:
            with pytest.raises(ParameterError, match=re.escape(message)):
                is_k_critical(g, b, k)
            if k == 0:
                with pytest.raises(ParameterError, match=re.escape(message)):
                    has_odd_factor(g, b)

    @pytest.mark.parametrize(
        "b, k, message",
        [
            ((1, 3, 1), 0, "factor bound (1, 3, 1) must be a positive odd integer"),
            ([1, 1, 1], 1, "factor bound [1, 1, 1] must be a positive odd integer"),
            (3.0, 0, "factor bound 3.0 must be a positive odd integer"),
            ("3", 0, "factor bound 3 must be a positive odd integer"),
            ((1, 1, 1), -1, "factor bound (1, 1, 1) must be a positive odd integer"),
            (1, 2.0, "criticality order k=2.0 must be an integer"),
        ],
        ids=["tuple", "list", "float", "str", "tuple-before-k", "float-k"],
    )
    def test_bound_must_be_one_integer(self, b, k, message):
        # a sequence of bounds is no bound: the bound b, then k, is checked
        with pytest.raises(ParameterError, match=re.escape(message)):
            is_k_critical(make_complete(3), b, k)

    @pytest.mark.parametrize(
        "call",
        [
            lambda g: is_k_critical(g, 1, 2.0),
            lambda g: is_k_critical(g, 1.0, 0),
            lambda g: is_k_critical(g, (1, 1.0, 1, 1), 0),
            lambda g: is_k_critical(g, 3, 1.5),
            lambda g: has_odd_factor(g, 3.0),
            lambda g: has_odd_factor(g, "3"),
            lambda g: Graph(3, [(0, 1.0)]),
            lambda g: Graph(3, [(1.0, 0)]),
        ],
        ids=["float-k", "float-bound", "float-in-per-vertex", "fractional-k", "float-b",
             "str-b", "float-label", "float-first-label"],
    )
    def test_non_integer_parameters_are_parameter_errors(self, call):
        with pytest.raises(ParameterError):
            call(make_complete(4))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda g: is_k_critical(g, 1, 0, max_size=2.5), "max_size=2.5"),
            (lambda g: is_k_critical(g, 1, 0, cap="22"), "cap='22'"),
            (lambda g: is_k_critical(g, 1, 0, cap=None), "cap=None"),
            (lambda g: is_k_critical(g, 1, 0, cap=2.5), "cap=2.5"),
            (lambda g: has_odd_factor(g, 1, cap=4.0), "cap=4.0"),
            (lambda g: Graph(2.0), "vertex count n=2.0"),
            (lambda g: Graph("3"), "vertex count n='3'"),
        ],
        ids=["float-max-size", "str-cap", "none-cap", "float-cap", "float-cap-odd-factor",
             "float-order", "str-order"],
    )
    def test_caps_sizes_and_orders_must_be_integers(self, call, message):
        with pytest.raises(ParameterError, match=re.escape(f"{message} must be an integer")):
            call(make_complete(4))


class TestHasOddFactor:
    def test_k2_perfect_matching(self):
        assert has_odd_factor(make_complete(2), 1)

    def test_star_obstruction(self):
        assert not has_odd_factor(star(3), 1)
        assert has_odd_factor(star(3), 3)

    def test_odd_order_never(self):
        assert not has_odd_factor(make_complete(5), 3)

    def test_empty_graph_vacuous(self):
        assert has_odd_factor(Graph(0), 1)

    def test_cap(self):
        with pytest.raises(ScaleLimitError):
            has_odd_factor(make_complete(24), 1)
        assert has_odd_factor(make_complete(24), 1, cap=24)


class TestFindOddFactor:
    def test_cycle4_matching(self):
        edges = find_odd_factor(cycle(4), 1)
        assert edges is not None and len(edges) == 2
        assert factor_is_valid(cycle(4), edges, 1)

    def test_star_none_then_all(self):
        assert find_odd_factor(star(3), 1) is None
        edges = find_odd_factor(star(3), 3)
        assert edges is not None and sorted(edges) == [(0, 1), (0, 2), (0, 3)]

    def test_scale_cap(self):
        with pytest.raises(ScaleLimitError, match="oracle scale"):
            find_odd_factor(make_complete(13), 1)
        with pytest.raises(ScaleLimitError, match="oracle scale"):
            find_odd_factor(make_complete(8), 1)  # 28 edges

    def test_even_bound_rejected(self):
        with pytest.raises(ParameterError):
            find_odd_factor(cycle(4), 2)

    def test_isolated_vertex_fails_fast(self):
        g = Graph(3, [(0, 1)])
        assert find_odd_factor(g, 3) is None


class TestOracleAgreement:
    def test_exhaustive_up_to_five_vertices(self):
        for n in range(1, 6):
            pairs = n * (n - 1) // 2
            for mask in range(1 << pairs):
                g = graph_from_edge_mask(n, mask)
                if not g.is_connected():
                    continue
                for b in (1, 3):
                    assert has_odd_factor(g, b) == (find_odd_factor(g, b) is not None)

    def test_sampled_seven_vertices(self):
        rng = random.Random(40)
        for _ in range(120):
            g = random_connected_graph(rng, 7, rng.uniform(0.1, 0.5))
            if g.edge_count() > 24:
                continue
            for b in (1, 3):
                constructive = find_odd_factor(g, b)
                assert has_odd_factor(g, b) == (constructive is not None)
                if constructive is not None:
                    assert factor_is_valid(g, constructive, b)


class TestCriticality:
    def test_triangle_is_1_critical(self):
        v = is_k_critical(make_complete(3), 1, 1)
        assert v.critical and v.witness is None

    def test_gprime_not_critical_with_join_witness(self):
        g = extremal_gprime(ExtremalParams(19, 1, 1, 3))
        v = is_k_critical(g, 1, 1)
        assert not v.critical
        assert v.witness == frozenset({0, 1, 2})
        assert g.odd_components_after_removal(v.witness) == 4 > 1 * (3 - 1)

    def test_verdict_type(self):
        # kappa = 3 > k with n - k even settles |S| = 2, and n - s settles |S| = 3
        v = is_k_critical(make_complete(4), 1, 2)
        assert isinstance(v, CriticalityVerdict)
        assert v.subsets_examined == 0

    def test_order_precondition(self):
        with pytest.raises(ParameterError, match="k\\+2"):
            is_k_critical(make_complete(2), 1, 1)

    def test_cap_guard(self):
        g = make_complete(30)
        with pytest.raises(ScaleLimitError):
            is_k_critical(g, 1, 2)

    def test_wrong_parity_never_critical(self):
        # deleting k vertices leaves odd order, so no odd factor exists
        assert not is_k_critical(make_complete(5), 1, 2).critical
        assert not is_k_critical(make_complete(4), 3, 1).critical

    def test_max_size_never_certifies(self):
        # kappa = 3 settles |S| = 1 (n - k even) and |S| = 2 without a subset
        g = extremal_gprime(ExtremalParams(19, 1, 1, 3))
        assert is_k_critical(g, 1, 1, max_size=2) == CriticalityVerdict(None, None, 0)
        found = is_k_critical(g, 1, 1, max_size=3)
        assert found.critical is False and found.witness == frozenset({0, 1, 2})
        assert found == is_k_critical(g, 1, 1)
        # even a search that covers every size leaves the verdict open
        assert is_k_critical(make_complete(3), 1, 1, max_size=2).critical is None
        with pytest.raises(ParameterError, match="k\\+2"):
            is_k_critical(make_complete(3), 1, 2, max_size=4)
        # a bound below k would search nothing and report "no witness"
        for too_small in (0, -1):
            with pytest.raises(ParameterError, match="below k=1"):
                is_k_critical(g, 1, 1, max_size=too_small)
        assert is_k_critical(g, 1, 1, max_size=1).subsets_examined == 0

    def test_full_scan_matches_pruned_scan(self):
        rng = random.Random(41)
        for k in (0, 1, 2):
            for _ in range(15):
                n = rng.randrange(k + 2, 10)
                g = random_connected_graph(rng, n, rng.uniform(0.3, 0.9))
                for b in (1, 3, 5):
                    fast = is_k_critical(g, b, k)
                    slow = full_scan(g, b, k)
                    assert (fast.critical, fast.witness) == (slow.critical, slow.witness)
                    assert fast.subsets_examined <= slow.subsets_examined
        # relabelled extremal members, where kappa > k settles whole sizes and
        # the witness is no longer the numerically first set of its size
        for n, b, k, delta, s in build_parameter_grid():
            if n > 13:
                continue
            params = ExtremalParams(n, b, k, delta, s)
            for base in (extremal_gprime(params), proof_graph_g2(params)):
                assert base.vertex_connectivity() > k and (n - k) % 2 == 0
                g = relabelled(base, rng)
                for bound in (1, 3, 5):
                    fast = is_k_critical(g, bound, k)
                    slow = full_scan(g, bound, k)
                    assert (fast.critical, fast.witness) == (slow.critical, slow.witness)
                    assert fast.subsets_examined < slow.subsets_examined

    def test_clique_cover_settles_sizes_that_n_minus_s_does_not(self):
        # G'(17,1,1,2) with singleton 15 joined to the big clique: the greedy
        # cover has 3 cliques, so o(G-S) <= 3 <= |S| - 1 settles every size from
        # 4 on, where n - s alone settles nothing below 9; kappa = 2 with n - k
        # even settles |S| = 1
        g = extremal_gprime(ExtremalParams(17, 1, 1, 2)).with_edge(2, 15)
        fast = is_k_critical(g, 1, 1)
        full = full_scan(g, 1, 1)
        assert fast.critical and full.critical
        # sizes 2 and 3 are above k, so they are scanned over unions of whole
        # twin classes: the join pair {0, 1}, the big clique without its
        # vertex 2 ({3..14}), and 2, 15 and 16
        class_sizes = (2, 12, 1, 1, 1)
        unions = sum(union_count(class_sizes, s) for s in (2, 3))
        assert unions == 8
        assert fast.subsets_examined == unions
        assert fast.subsets_examined < sum(math.comb(17, s) for s in range(1, 9))
        assert full.subsets_examined == 2 ** 17 - 2

    def test_agrees_with_definitional_route(self):
        rng = random.Random(42)
        for _ in range(30):
            k = rng.choice([1, 2])
            n = rng.choice([m for m in range(4, 9) if (m - k) % 2 == 0])
            b = rng.choice([1, 3])
            g = random_connected_graph(rng, n, rng.uniform(0.3, 0.9))
            direct = is_k_critical(g, b, k).critical
            assert direct == is_k_critical_definitional(g, b, k)

    def test_gstar_is_1_critical_small(self):
        v = is_k_critical(g_star(13, 1, 1), 1, 1)
        assert v.critical

    def test_critical_graphs_are_k_connected(self):
        rng = random.Random(43)
        found = 0
        for _ in range(60):
            n = rng.randrange(4, 9)
            k = rng.choice([1, 2])
            if (n - k) % 2:
                continue
            g = random_connected_graph(rng, n, rng.uniform(0.4, 0.95))
            if is_k_critical(g, 1, k).critical:
                found += 1
                assert g.is_k_connected(k)
        assert found >= 5

    def test_edge_addition_preserves_criticality(self):
        rng = random.Random(44)
        found = 0
        for _ in range(60):
            g = random_connected_graph(rng, rng.choice([4, 6, 8]), rng.uniform(0.4, 0.9))
            if not is_k_critical(g, 1, 2).critical:
                continue
            found += 1
            for u, v in g.non_edges():
                assert is_k_critical(g.with_edge(u, v), 1, 2).critical
        assert found >= 3


def twin_classes_by_hand(g):
    """Vertex classes with one closed or one open neighbourhood."""
    nbrs = [{u for u in range(g.n) if row >> u & 1} for row in g.adjacency_rows]
    classes = []
    for v in range(g.n):
        for c in classes:
            u = c[0]
            if nbrs[u] | {u} == nbrs[v] | {v} or nbrs[u] == nbrs[v]:
                c.append(v)
                break
        else:
            classes.append([v])
    return classes


def orbit_count(class_sizes, size):
    """Subsets of one size up to swaps inside classes: a count from each class."""
    return sum(
        1 for counts in product(*(range(m + 1) for m in class_sizes)) if sum(counts) == size
    )


def union_count(class_sizes, size):
    """Unions of whole classes of one size."""
    return sum(
        1
        for r in range(len(class_sizes) + 1)
        for chosen in combinations(class_sizes, r)
        if sum(chosen) == size
    )


#: graphs with twins, and graphs without, whose classes are single vertices
walk_graphs = st.one_of(twin_blowups(), twin_free_graphs(max_n=12))


class TestTwinOrbits:
    @settings(max_examples=40)
    @given(walk_graphs)
    def test_orbits_come_in_increasing_order(self, g):
        # prefix blocks (size k): exactly the sets taking the lowest members
        # of every class, in numeric order, against classes found by hand
        classes = twin_classes_by_hand(g)
        cls, firsts = _twin_layout(_twin_classes(g.adjacency_rows), g.n)
        full = (1 << g.n) - 1
        by_size = [[] for _ in range(g.n + 1)]
        for mask in range(1 << g.n):
            by_size[mask.bit_count()].append(mask)
        for size in range(g.n + 1):
            expected = [
                mask for mask in by_size[size]
                if all(
                    [mask >> v & 1 for v in c] == sorted((mask >> v & 1 for v in c), reverse=True)
                    for c in classes
                )
            ]
            assert list(_canonical_subsets(full, size, cls, firsts)) == expected
            assert len(expected) == orbit_count([len(c) for c in classes], size)

    @settings(max_examples=40)
    @given(walk_graphs)
    def test_whole_classes_come_in_increasing_order(self, g):
        # sizes above k: the unions of classes found by hand, in numeric
        # order, walked as masks of their tops
        classes = [sum(1 << v for v in c) for c in twin_classes_by_hand(g)]
        adj = g.adjacency_rows
        tops, members, sizes, _, ones, _ = _quotient(adj, _twin_classes(adj))
        for size in range(1, g.n + 1):
            expected = sorted(
                sum(chosen)
                for r in range(len(classes) + 1)
                for chosen in combinations(classes, r)
                if sum(c.bit_count() for c in chosen) == size
            )
            unions = list(_class_unions(tops, size, sizes, ones))
            assert [sum(1 << v for t in _bits(u) for v in members[t]) for u in unions] == expected

    def test_layout_shares_one_mask_per_class_on_a_near_empty_graph(self):
        # the edge joins the end vertices into true twins; the rest are isolated, false twins
        n = 80000
        adj = Graph(n, [(0, n - 1)]).adjacency_rows
        classes = _twin_classes(adj)
        cls, firsts = _twin_layout(classes, n)
        assert cls[0] is cls[n - 1] and cls[0] == 1 | 1 << (n - 1)
        assert cls[1] == (1 << (n - 1)) - 2 and all(c is cls[1] for c in cls[1:n - 1])
        # the lowest members' prefixes are single vertices
        assert firsts == 0b11
        # the quotient has two tops; the isolated vertices are one lone class of even size
        tops, members, sizes, odd, ones, lone = _quotient(adj, classes)
        assert tops == 1 << (n - 2) | 1 << (n - 1)
        assert sizes == {n - 1: 2, n - 2: n - 2} and members[n - 1] == [0, n - 1]
        assert (odd, ones, lone) == (0, 0, 1 << (n - 2))

    @settings(max_examples=100)
    @given(walk_graphs, st.data())
    def test_first_violation_above_k_never_splits_a_class(self, g, data):
        # on the oracle alone, with per-vertex bounds that ignore the classes;
        # n - k is even, so that size k does not fail on parity alone
        k = data.draw(st.sampled_from([k for k in (0, 1, 2) if (g.n - k) % 2 == 0]))
        fvals = tuple(data.draw(st.sampled_from([1, 3])) for _ in range(g.n))
        witness = full_scan(g, fvals, k).witness
        if witness is None or len(witness) == k:
            return
        for c in twin_classes_by_hand(g):
            assert set(c) <= witness or not set(c) & witness

    @settings(max_examples=120)
    @given(walk_graphs, st.integers(0, 2), st.sampled_from([1, 3, 5]), st.booleans(), st.data())
    def test_orbit_scan_matches_full_scan(self, g, k, b, bounded, data):
        if g.n < k + 2:
            return
        max_size = data.draw(st.integers(k, g.n - 1)) if bounded else None
        fast = is_k_critical(g, b, k, max_size=max_size)
        slow = full_scan(g, b, k, max_size=max_size)
        assert (fast.critical, fast.witness) == (slow.critical, slow.witness)
        assert fast.subsets_examined <= slow.subsets_examined


#: the parameter grid of the extremal families, built once
FAMILY_GRID = build_parameter_grid()


@st.composite
def family_supergraphs(draw):
    """A relabelled G' or g2 of the parameter grid, or one of its one-edge supergraphs."""
    base = draw(st.sampled_from([extremal_gprime, proof_graph_g2]))(
        ExtremalParams(*draw(st.sampled_from(FAMILY_GRID)))
    )
    g = draw(st.sampled_from([base] + [h for _, h in one_edge_supergraphs(base)]))
    return relabelled(g, draw(st.randoms(use_true_random=False)))


class TestQuotientScan:
    """The scan on the twin quotient against the vertex-level scan it replaced."""

    @settings(max_examples=200)
    @given(
        st.one_of(twin_blowups(), twin_free_graphs(max_n=12), family_supergraphs()),
        st.sampled_from([1, 3, 5]),
        st.integers(0, 3),
        st.sampled_from([None, 0, 1]),
    )
    def test_same_first_violation_and_subset_count(self, g, b, k, extra):
        if g.n < k + 2:
            return
        max_size = None if extra is None else k + extra
        fast = _find_violation(g, b, k, cap=g.n, max_size=max_size)
        slow = find_violation_per_vertex(g, b, k, cap=g.n, max_size=max_size)
        assert fast == slow

    @settings(max_examples=40)
    @given(twin_blowups())
    def test_odd_class_components_decide_as_the_vertex_count(self, g):
        adj = g.adjacency_rows
        tops, members, sizes, odd, ones, lone = _quotient(adj, _twin_classes(adj))
        spare = sum(sizes[t] - 1 for t in _bits(lone))
        full = (1 << g.n) - 1
        for size in range(g.n):
            for union in _class_unions(tops, size, sizes, ones):
                alive = full & ~sum(1 << v for t in _bits(union) for v in members[t])
                exact = _odd_components(adj, alive)
                rest = tops & ~union
                for bound in range(max(exact - 1, 0), exact + 2):
                    count = _odd_class_components(adj, rest, bound, odd, lone, sizes, spare)
                    assert (count > bound) == (exact > bound)

    @pytest.mark.parametrize("g, b, code, thetas", [
        # a lone class wider than b(s - k) at every size the scan reaches
        (relabelled(proof_graph_g2(ExtremalParams(57, 3, 1, 3, 2)), random.Random(1)), 3, 1, 0),
        (relabelled(proof_graph_g2(ExtremalParams(59, 1, 1, 3, 2)), random.Random(1)), 1, 1, 0),
        # critical: theta ends the scan, computed once
        (relabelled(extremal_gprime(ExtremalParams(19, 3, 1, 2)).with_edge(2, 15),
                    random.Random(2)), 3, 0, 1),
    ], ids=["g2-57-b3", "g2-59-b1", "gprime19-b3-bs"])
    def test_check_critical_computes_theta_only_when_a_size_needs_it(
        self, g, b, code, thetas, tmp_path, monkeypatch
    ):
        calls = []

        def counted(adj, quotient):
            calls.append(quotient)
            return _clique_cover_size(adj, quotient)

        monkeypatch.setattr(factors, "_clique_cover_size", counted)
        path = tmp_path / "g.g6"
        path.write_text(write_graph6(g) + "\n")
        argv = ["check-critical", "--input", str(path), "--b", str(b), "--k", "1", "--cap", str(g.n)]
        assert cli.main(argv) == code
        assert len(calls) == thetas


class TestExtremalWitness:
    @pytest.mark.parametrize(
        "tup,expected_o",
        [((19, 1, 1, 3), 4), ((31, 1, 1, 2), 3), ((25, 3, 1, 3), 8)],
    )
    def test_witness_and_component_count(self, tup, expected_o):
        n, b, k, d = tup
        p = ExtremalParams(n, b, k, d)
        witness = criticality_witness_extremal(p)
        assert witness == frozenset(range(d))
        g = extremal_gprime(p)
        o = g.odd_components_after_removal(witness)
        assert o == b * d - b * k + 2 == expected_o
        assert o > b * (d - k)

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            criticality_witness_extremal(ExtremalParams(20, 1, 1, 3))


def test_subset_enumeration_respects_size_order():
    # the first witness in (size, numeric) order is the reported one
    v = is_k_critical(Graph(2), 1, 0)  # o(G - {}) = 2 > 0
    assert not v.critical and v.witness == frozenset()
    w = is_k_critical(star(3), 1, 0)  # first violation at S = {center}
    assert not w.critical and w.witness == frozenset({0})


def test_subsets_examined_counts_full_scan():
    g = g_star(13, 1, 1)
    full = full_scan(g, 1, 1)
    assert full.critical and full.subsets_examined == 2 ** 13 - 2


def test_witness_search_memory_is_linear_in_the_order():
    # what check-critical --mode witness-only runs on the edge list "0 19999":
    # one edge and 19,998 isolated vertices, where one 20,000-bit mask per
    # vertex would take about 27 MB
    g = Graph(20000, [(0, 19999)])
    tracemalloc.start()
    try:
        verdict = is_k_critical(g, 1, 1, cap=20000, max_size=4)
        odd = g.odd_components_after_removal(verdict.witness)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (verdict.witness, odd) == (frozenset({0}), 19999)
    assert peak < 2_000_000


def test_witness_recount_time_is_linear_in_the_order():
    # the recount check-critical --mode witness-only runs on the edge list
    # "0 79999": peeling the 79,998 isolated vertices one component at a
    # time took about a second, where one popcount counts them all
    g = Graph(80000, [(0, 79999)])
    start = time.perf_counter()
    odd = g.odd_components_after_removal([0])
    assert time.perf_counter() - start < 0.1
    assert odd == 79999


def class_theta(adj):
    """Theta as the scan computes it, on the twin quotient of ``adj``."""
    return _clique_cover_size(adj, _quotient(adj, _twin_classes(adj)))


class TestCliqueCover:
    """Theta on the twin classes against the vertex-level greedy, which scans for each start."""

    @settings(max_examples=150)
    @given(random_graphs(st.integers(0, 30)))
    def test_random_graphs(self, g):
        adj = g.adjacency_rows
        assert class_theta(adj) == clique_cover_size_min_scan(adj, g.n)

    @given(twin_blowups(max_n=20))
    def test_twin_blowups(self, g):
        adj = g.adjacency_rows
        assert class_theta(adj) == clique_cover_size_min_scan(adj, g.n)

    @pytest.mark.parametrize("text, theta", [
        # ties go to the lowest label
        ("EuZW", 3),
        # a true-twin class counts its own other members, and ties go to the lowest next label
        (r"Gp\}Z{", 2),
        ("H{~yeY]", 3),
        # a lone class's next label moves on once its lowest member is covered
        ("IoVgouzXG", 4),
        # ties between classes go to the lowest next label, not to the lowest top
        (r"Jimq\c?~\h?", 5),
        # nor to a class of more members over a class of one with a lower label
        ("JVludvPfSy?", 6),
        # a lone class weighs the members it has left
        (r"XH^kJx|^XR~^}}^^oouCLTBbzxzz}JZm||~F^^pxRm\v~}vo`hP", 7),
    ])
    def test_tie_breaks_and_class_weights(self, text, theta):
        g = parse_graph6(text)
        adj = g.adjacency_rows
        assert class_theta(adj) == clique_cover_size_min_scan(adj, g.n) == theta

    def test_relabelled_family_supergraphs(self):
        rng = random.Random(17)
        for params in build_parameter_grid():
            p = ExtremalParams(*params)
            for build in (extremal_gprime, proof_graph_g2, proof_graph_g3):
                base = build(p)
                sups = [h for _, h in one_edge_supergraphs(base)]
                for g in [base] + rng.sample(sups, min(4, len(sups))):
                    h = relabelled(g, rng)
                    adj = h.adjacency_rows
                    assert class_theta(adj) == clique_cover_size_min_scan(adj, h.n)
