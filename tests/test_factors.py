import math
import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from oddcrit import (
    CriticalityVerdict,
    ExtremalParams,
    FactorSpec,
    Graph,
    ParameterError,
    ScaleLimitError,
    criticality_witness_extremal,
    extremal_gprime,
    find_odd_factor,
    g_star,
    has_odd_factor,
    is_k_critical,
    is_k_critical_definitional,
    make_complete,
    proof_graph_g2,
)
from conftest import (
    build_parameter_grid,
    graph_from_edge_mask,
    random_connected_graph,
    relabelled,
)
from oddcrit.factors import _canonical_subsets, _subsets_of_size, _twin_layout


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def factor_is_valid(g, edges, b):
    deg = [0] * g.n
    for u, v in edges:
        assert g.has_edge(u, v)
        deg[u] += 1
        deg[v] += 1
    return all(d % 2 == 1 and d <= b for d in deg)


class TestFactorSpec:
    def test_rejects_even_or_nonpositive_bounds(self):
        with pytest.raises(ParameterError):
            FactorSpec(2)
        with pytest.raises(ParameterError):
            FactorSpec(0)
        with pytest.raises(ParameterError):
            FactorSpec((1, 3, -1))
        with pytest.raises(ParameterError):
            FactorSpec(1, k=-1)

    def test_values_for(self):
        assert FactorSpec(3).values_for(4) == (3, 3, 3, 3)
        assert FactorSpec((1, 3, 1)).values_for(3) == (1, 3, 1)
        with pytest.raises(ParameterError):
            FactorSpec((1, 3)).values_for(3)


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

    def test_per_vertex_bounds(self):
        # center may take degree 3, leaves stay at 1
        assert has_odd_factor(star(3), FactorSpec((3, 1, 1, 1)))
        assert not has_odd_factor(star(3), FactorSpec((1, 1, 1, 3)))

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

    def test_factor_spec_k_must_agree(self):
        assert is_k_critical(make_complete(3), FactorSpec(1, 1), 1).critical
        assert is_k_critical(make_complete(3), FactorSpec(1, 1)).critical
        with pytest.raises(ParameterError, match="k=1, expected k=0"):
            is_k_critical(make_complete(3), FactorSpec(1, 1), 0)
        with pytest.raises(ParameterError, match="k=1, expected k=0"):
            has_odd_factor(make_complete(3), FactorSpec(1, 1))

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
                per_vertex = FactorSpec(tuple(rng.choice([1, 3, 5]) for _ in range(n)), k)
                for f in (1, 3, per_vertex):
                    fast = is_k_critical(g, f, k)
                    slow = is_k_critical(g, f, k, skip_settled_sizes=False)
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
                per_vertex = FactorSpec(tuple(rng.choice([1, 3, 5]) for _ in range(n)), k)
                for f in (b, per_vertex):
                    fast = is_k_critical(g, f, k)
                    slow = is_k_critical(g, f, k, skip_settled_sizes=False)
                    assert (fast.critical, fast.witness) == (slow.critical, slow.witness)
                    assert fast.subsets_examined < slow.subsets_examined

    def test_clique_cover_settles_sizes_that_n_minus_s_does_not(self):
        # G'(17,1,1,2) with singleton 15 joined to the big clique: the greedy
        # cover has 3 cliques, so o(G-S) <= 3 <= |S| - 1 settles every size from
        # 4 on, where n - s alone settles nothing below 9; kappa = 2 with n - k
        # even settles |S| = 1
        g = extremal_gprime(ExtremalParams(17, 1, 1, 2)).with_edge(2, 15)
        fast = is_k_critical(g, 1, 1)
        full = is_k_critical(g, 1, 1, skip_settled_sizes=False)
        assert fast.critical and full.critical
        # sizes 2 and 3 are scanned over twin orbits, one set per choice of
        # how many vertices to take from each class: the join pair {0, 1},
        # the big clique without its vertex 2 ({3..14}), and 2, 15 and 16
        class_sizes = (2, 12, 1, 1, 1)
        orbits = sum(
            1
            for counts in product(*(range(m + 1) for m in class_sizes))
            if sum(counts) in (2, 3)
        )
        assert orbits == 31
        assert fast.subsets_examined == orbits
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


def twin_classes_by_hand(g, fvals):
    """Vertex classes with one bound and one closed or one open neighbourhood."""
    nbrs = [set(g.neighbors(v)) for v in range(g.n)]
    classes = []
    for v in range(g.n):
        for c in classes:
            u = c[0]
            if fvals[u] == fvals[v] and (nbrs[u] | {u} == nbrs[v] | {v} or nbrs[u] == nbrs[v]):
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


class TestTwinOrbits:
    @settings(max_examples=40)
    @given(twin_blowups(), st.data())
    def test_orbits_come_in_increasing_order(self, g, data):
        # exactly the sets taking the lowest members of every class, in
        # numeric order, against classes found by hand
        if data.draw(st.booleans()):
            fvals = (1,) * g.n
        else:
            fvals = tuple(data.draw(st.sampled_from([1, 3])) for _ in range(g.n))
        classes = twin_classes_by_hand(g, fvals)
        layout = _twin_layout(g.adjacency_rows, fvals)
        assert bool(layout) == any(len(c) > 1 for c in classes)
        if not layout:
            return
        full = (1 << g.n) - 1
        for size in range(g.n + 1):
            expected = [
                mask for mask in _subsets_of_size(g.n, size)
                if all(
                    [mask >> v & 1 for v in c] == sorted((mask >> v & 1 for v in c), reverse=True)
                    for c in classes
                )
            ]
            assert list(_canonical_subsets(full, size, *layout)) == expected
            assert len(expected) == orbit_count([len(c) for c in classes], size)

    @settings(max_examples=120)
    @given(twin_blowups(), st.integers(0, 2), st.sampled_from(["1", "3", "class", "vertex"]),
           st.booleans(), st.data())
    def test_orbit_scan_matches_full_scan(self, g, k, bounds, bounded, data):
        if g.n < k + 2:
            return
        n = g.n
        if bounds in ("1", "3"):
            f = int(bounds)
        elif bounds == "class":
            # one bound per class of twins, so that whole classes stay
            fvals = [0] * n
            for c in twin_classes_by_hand(g, (1,) * n):
                bound = data.draw(st.sampled_from([1, 3, 5]))
                for v in c:
                    fvals[v] = bound
            f = FactorSpec(tuple(fvals), k)
        else:
            f = FactorSpec(tuple(data.draw(st.sampled_from([1, 3, 5])) for _ in range(n)), k)
        max_size = data.draw(st.integers(k, n - 1)) if bounded else None
        fast = is_k_critical(g, f, k, max_size=max_size)
        slow = is_k_critical(g, f, k, max_size=max_size, skip_settled_sizes=False)
        assert (fast.critical, fast.witness) == (slow.critical, slow.witness)
        assert fast.subsets_examined <= slow.subsets_examined

    def test_classes_are_split_by_bound(self):
        # relabelled G'(13,1,1,2) plus the edge from big-clique vertex 2 to
        # singleton 11, with bound 3 on hub 1 and big-clique vertices 3 and 4:
        # the twin classes {0, 1} and {3..10} split by bound.  Sizes 2 and 3
        # are scanned (kappa = 2 settles 1, theta = 3 settles 4 on).  Twins
        # with different bounds are not swapped; doing so could not change a
        # verdict or witness, as the first violating S above size k never
        # splits a class of twins and the bound at size k is 0, but it would
        # change the count
        rng = random.Random(13)
        perm = list(range(13))
        rng.shuffle(perm)
        base = extremal_gprime(ExtremalParams(13, 1, 1, 2)).with_edge(2, 11)
        g = Graph(13, [(perm[u], perm[v]) for u, v in base.edges()])
        fvals = [1] * 13
        for v in (1, 3, 4):
            fvals[perm[v]] = 3
        f = FactorSpec(tuple(fvals), 1)
        fast = is_k_critical(g, f)
        slow = is_k_critical(g, f, skip_settled_sizes=False)
        assert fast.critical and slow.critical and slow.subsets_examined == 2 ** 13 - 2
        split = (1, 1, 2, 6, 1, 1, 1)  # {0} {1} {3, 4} {5..10} {2} {11} {12}
        merged = (2, 8, 1, 1, 1)
        assert fast.subsets_examined == sum(orbit_count(split, s) for s in (2, 3)) == 71
        assert sum(orbit_count(merged, s) for s in (2, 3)) == 31


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
    v = is_k_critical(Graph(2), FactorSpec(1, 0))  # o(G - {}) = 2 > 0
    assert not v.critical and v.witness == frozenset()
    w = is_k_critical(star(3), FactorSpec(1, 0))  # first violation at S = {center}
    assert not w.critical and w.witness == frozenset({0})


def test_subsets_examined_counts_full_scan():
    g = g_star(13, 1, 1)
    full = is_k_critical(g, 1, 1, skip_settled_sizes=False)
    assert full.subsets_examined == 2 ** 13 - 2
