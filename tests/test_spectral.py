import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import eigh as scipy_eigh

from oddcrit.errors import ConvergenceError, DisconnectedGraphError, ParameterError
from oddcrit.graphs import (
    ExtremalParams,
    Graph,
    _twin_classes,
    _unpack_masks,
    disjoint_union,
    extremal_gprime,
    family,
    make_complete,
    proof_graph_g2,
    proof_graph_g3,
)
from oddcrit.partitions import perron_vector
from oddcrit.spectral import (
    SPECTRAL_KINDS,
    _as_symmetric_float,
    check_interlacing,
    distance_matrix,
    distance_signless_laplacian_matrix,
    eigenvalues,
    spectral_radius,
    symmetric_eigenvalues,
    wiener_gprime_closed_form,
    wiener_index,
)
from conftest import random_connected_graph, relabelled, twin_free_graphs
from oracles import reference_matrix, without_edge


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def assert_distances_match_scipy(g):
    d = distance_matrix(g)
    assert d.dtype == np.int64
    assert np.array_equal(d, reference_matrix(g, "distance"))


def reference_eigenvalues(a):
    """Descending spectrum from LAPACK's ``syev`` driver (numpy uses ``syevd``)."""
    return scipy_eigh(np.asarray(a, dtype=float), eigvals_only=True, driver="ev")[::-1]


def random_symmetric(rng, n, scale=5.0):
    a = np.array([[rng.uniform(-scale, scale) for _ in range(n)] for _ in range(n)])
    return (a + a.T) / 2.0


class TestDistanceMatrix:
    def test_complete(self):
        d = distance_matrix(make_complete(4))
        assert (d == np.ones((4, 4)) - np.eye(4)).all()

    def test_path3(self):
        d = distance_matrix(path(3))
        assert d.tolist() == [[0, 1, 2], [1, 0, 1], [2, 1, 0]]

    def test_integer_dtype(self):
        assert distance_matrix(cycle(5)).dtype == np.int64

    def test_disconnected_raises(self):
        with pytest.raises(DisconnectedGraphError, match="distance undefined"):
            distance_matrix(disjoint_union(make_complete(2), make_complete(2)))

    def test_disconnected_raises_across_words(self):
        for g in (disjoint_union(path(64), make_complete(1)), Graph(2)):
            with pytest.raises(DisconnectedGraphError, match="distance undefined"):
                distance_matrix(g)

    @pytest.mark.parametrize("g", [
        disjoint_union(make_complete(3), make_complete(3)),
        disjoint_union(make_complete(4), make_complete(1)),
        relabelled(disjoint_union(path(6), cycle(5)), random.Random(7)),
        disjoint_union(path(40), path(33)),
    ], ids=["2K3", "K4+K1", "relabelled", "P40+P33"])
    def test_disconnection_found_by_the_search(self, g):
        # 2K_3 has twin representatives in both components, and K_4 + K_1 an
        # isolated vertex; P_40 + P_33 passes six squarings before the seventh
        # adds no pair.  No connectivity pass runs before the squarings
        with pytest.raises(DisconnectedGraphError, match="distance undefined"):
            distance_matrix(g)
        for kind in ("distance", "distance_signless_laplacian"):
            with pytest.raises(DisconnectedGraphError, match="distance undefined"):
                spectral_radius(g, kind)

    @given(st.integers(1, 80), st.sampled_from([0.0, 0.03, 0.2, 0.7]), st.randoms(use_true_random=False))
    def test_matches_scipy_on_random_connected_graphs(self, n, extra, rnd):
        assert_distances_match_scipy(random_connected_graph(rnd, n, extra))

    @pytest.mark.parametrize("g", [path(120), path(300), cycle(65), make_complete(1)],
                             ids=["P120", "P300", "C65", "K1"])
    def test_matches_scipy_on_long_diameters(self, g):
        assert_distances_match_scipy(g)

    @pytest.mark.parametrize("n", [63, 64, 65, 271])
    def test_matches_scipy_across_word_boundaries(self, n):
        # several 64-bit words per bitset, and orders not a multiple of 8
        rng = random.Random(n)
        for extra in (0.0, 0.02, 0.3):
            assert_distances_match_scipy(random_connected_graph(rng, n, extra))
        assert_distances_match_scipy(relabelled(path(n), rng))
        g = random_connected_graph(rng, n, 0.1)
        expected = np.zeros((n, n), dtype=np.int64)
        for u, v in g.edges():
            expected[u, v] = expected[v, u] = 1
        a = _unpack_masks(g.adjacency_rows, n)
        assert a.dtype == np.uint8 and np.array_equal(a, expected)
        params = ExtremalParams(n, 3 if n == 271 else 1, 1, 3)
        if (params.n - params.k) % 2 == 0:
            g = extremal_gprime(params)
            u, v = next(g.non_edges())
            assert_distances_match_scipy(relabelled(g.with_edge(u, v), rng))

    def test_family_graphs_have_diameter_two(self):
        rng = random.Random(5)
        for _ in range(50):
            s = rng.randrange(1, 4)
            parts = [rng.randrange(1, 6) for _ in range(rng.randrange(1, 4))]
            d = distance_matrix(family(s, parts))
            assert set(np.unique(d)) <= {0, 1, 2}

    def test_triangle_inequality(self):
        rng = random.Random(6)
        for _ in range(10):
            d = distance_matrix(random_connected_graph(rng, 8, 0.3))
            n = d.shape[0]
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert d[i, j] <= d[i, k] + d[k, j]


def allclose_symmetry_rule(matrix):
    """The symmetry rule as two passes: isfinite, then allclose with rtol 0."""
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {a.shape}")
    if a.size and not np.isfinite(a).all():
        raise ParameterError("matrix entries must be finite")
    scale = float(np.abs(a).max()) if a.size else 0.0
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(scale, 1.0)):
        raise ParameterError("matrix is not symmetric")
    return a


def rule_outcome(rule, matrix):
    try:
        rule(matrix)
    except ParameterError as exc:
        return str(exc)
    return None


#: multiples of the tolerance by which one entry leaves its mirror image
TOLERANCE_STEPS = (0.0, 0.5, 1 - 1e-9, 1.0, 1 + 1e-9, 2.0, 1e6)


@st.composite
def near_symmetric_matrices(draw):
    """Symmetric matrices, some entries moved near the tolerance, some not finite or square."""
    n = draw(st.integers(0, 5))
    m = draw(st.one_of(st.just(n), st.integers(0, 5)))
    value = st.one_of(
        st.integers(-5, 5).map(float),
        st.floats(-1e6, 1e6),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    a = np.array(draw(st.lists(value, min_size=n * m, max_size=n * m)), dtype=float).reshape(n, m)
    if n == m:
        a = np.triu(a) + np.triu(a, 1).T
        for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            tol = 1e-12 * max(float(np.abs(a).max()), 1.0)
            step = draw(st.sampled_from(TOLERANCE_STEPS)) * draw(st.sampled_from((1, -1)))
            a[i, j] = a[j, i] + step * tol
    if a.size and draw(st.booleans()):
        a.flat[draw(st.integers(0, a.size - 1))] = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
    return a


class TestSymmetryCheck:
    @settings(max_examples=400)
    @given(near_symmetric_matrices())
    @example(np.zeros((0, 0)))
    @example(np.zeros((0, 3)))
    @example(np.zeros(3))
    @example(np.array([[0.0, 1e-12], [0.0, 0.0]]))
    @example(np.array([[0.0, 1.0000001e-12], [0.0, 0.0]]))
    @example(np.array([[1e308, 1e308], [-1e308, 0.0]]))
    @example(np.array([[np.nan, 0.0], [1.0, 0.0]]))
    def test_one_pass_matches_the_allclose_rule(self, a):
        # both rules overflow to inf on entries near the largest float
        with np.errstate(over="ignore"):
            assert rule_outcome(_as_symmetric_float, a) == rule_outcome(allclose_symmetry_rule, a)

    def test_reaches_every_outcome(self):
        outcomes = {
            rule_outcome(_as_symmetric_float, a)
            for a in (np.eye(2), np.zeros(2), [[np.inf]], [[0.0, 1.0], [0.0, 0.0]])
        }
        assert outcomes == {
            None,
            "expected a square matrix, got shape (2,)",
            "matrix entries must be finite",
            "matrix is not symmetric",
        }


class TestEigensolver:
    def test_path3_distance_spectrum(self):
        # roots of x^3 - 6x - 4 = (x + 2)(x^2 - 2x - 2)
        got = symmetric_eigenvalues(distance_matrix(path(3)))
        expected = [1 + math.sqrt(3), 1 - math.sqrt(3), -2.0]
        assert np.allclose(got, sorted(expected, reverse=True), atol=1e-10)

    def test_complete_adjacency(self):
        got = symmetric_eigenvalues(reference_matrix(make_complete(6), "adjacency"))
        assert abs(got[0] - 5) < 1e-10
        assert np.allclose(got[1:], -1, atol=1e-10)

    def test_spectrum_object(self):
        spec = eigenvalues(distance_matrix(make_complete(3)))
        assert len(spec.values) == 3
        assert abs(spec.values[0] - 2) < 1e-10

    def test_agrees_with_lapack(self):
        rng = random.Random(1)
        matrices = [
            random_symmetric(rng, n)
            for n in (1, 2, 3, 5, 8, 13, 20, 21, 34, 35, 36, 47, 60, 61)
        ]
        # degenerate spectra
        graphs = [make_complete(2), make_complete(9), make_complete(36)]
        for p in (ExtremalParams(35, 3, 1, 3, 2), ExtremalParams(36, 1, 2, 4, 3)):
            graphs += [extremal_gprime(p), proof_graph_g2(p), proof_graph_g3(p)]
        matrices += [distance_matrix(g) for g in graphs]
        # block-diagonal: exactly zero entries between the blocks
        blocks = np.zeros((23, 23))
        blocks[:10, :10] = random_symmetric(rng, 10)
        blocks[10:, 10:] = random_symmetric(rng, 13)
        matrices.append(blocks)
        for a in matrices:
            assert np.allclose(symmetric_eigenvalues(a), reference_eigenvalues(a), atol=1e-9)

    def test_diagonal_input_needs_no_sweep(self):
        diag = [3.0, -1.0, 7.5, 0.0, 2.0]
        got = symmetric_eigenvalues(np.diag(diag))
        assert got.tolist() == sorted(diag, reverse=True)

    def test_dominant_eigenpair_zero_matrix(self):
        # the radius of the zero matrix, by the solver and by the graph route
        assert symmetric_eigenvalues(np.zeros((3, 3))).tolist() == [0.0, 0.0, 0.0]
        assert symmetric_eigenvalues(np.zeros((0, 0))).shape == (0,)
        assert spectral_radius(Graph(3), "adjacency") == 0.0
        assert spectral_radius(Graph(4), "signless_laplacian") == 0.0
        assert eigenvalues(np.zeros((3, 3))).values[0] == 0.0
        # it has no Perron vector: the zero matrix is reducible
        with pytest.raises(ParameterError, match="reducible"):
            perron_vector(np.zeros((3, 3)))

    def test_max_sweeps_still_raises(self, monkeypatch):
        """A solver that does not converge raises ConvergenceError.

        There is no sweep budget any more; the failure now comes from LAPACK.
        """
        rng = random.Random(12)
        d = distance_matrix(random_connected_graph(rng, 36, 0.2))

        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        with pytest.raises(ConvergenceError, match="did not converge"):
            symmetric_eigenvalues(d)
        with pytest.raises(ConvergenceError):
            spectral_radius(make_complete(3), "distance")
        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(ConvergenceError, match="did not converge"):
            perron_vector(np.ones((2, 2)))
        monkeypatch.undo()
        assert len(symmetric_eigenvalues(d)) == 36

    def test_rel_tol_sets_the_stopping_rule(self):
        """The stopping rule is LAPACK's, fixed at working precision.

        The ``rel_tol`` knob is gone, and the solver rejects it.
        """
        rng = random.Random(13)
        a = random_symmetric(rng, 20)
        err = np.abs(symmetric_eigenvalues(a) - reference_eigenvalues(a)).max()
        assert err <= 64 * np.finfo(float).eps * np.linalg.norm(a, 2)
        with pytest.raises(TypeError):
            symmetric_eigenvalues(a, rel_tol=1e-2)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ParameterError, match="not symmetric"):
            symmetric_eigenvalues(np.array([[0.0, 1.0], [2.0, 0.0]]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ParameterError, match="finite"):
            symmetric_eigenvalues(np.array([[np.inf, 0.0], [0.0, 1.0]]))

    @given(st.integers(1, 9), st.randoms(use_true_random=False))
    def test_eigenvalue_sum_equals_trace(self, n, rnd):
        a = random_symmetric(rnd, n)
        vals = symmetric_eigenvalues(a)
        norm = max(float(np.linalg.norm(a)), 1.0)
        assert abs(vals.sum() - np.trace(a)) < 1e-8 * norm

    def test_power_iteration_matches_full(self):
        rng = random.Random(2)
        for _ in range(15):
            g = random_connected_graph(rng, rng.randrange(3, 12), rng.uniform(0.2, 0.9))
            for kind in ("distance", "distance_signless_laplacian", "adjacency"):
                full = reference_eigenvalues(reference_matrix(g, kind))[0]
                assert abs(spectral_radius(g, kind) - full) < 1e-8

    def test_spectrum_sorted_descending(self):
        rng = random.Random(3)
        vals = np.asarray(eigenvalues(random_symmetric(rng, 7)).values)
        assert (np.diff(vals) <= 1e-12).all()

    def test_radius_dominates_for_nonnegative_irreducible(self):
        rng = random.Random(4)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randrange(2, 10), rng.random())
            spec = eigenvalues(distance_matrix(g))
            assert all(spec.values[0] >= abs(v) - 1e-10 for v in spec.values)


@st.composite
def twin_blowups(draw):
    """A random base graph with every vertex blown up into a class of twins.

    Each class is a clique (true twins) or an independent set (false twins)
    of 1-6 vertices, joined to the classes of its base neighbours; the labels
    are permuted and up to three noise edges toggled.  The result may be
    disconnected.
    """
    base_n = draw(st.integers(1, 6))
    base = [pair for pair in combinations(range(base_n), 2) if draw(st.booleans())]
    sizes = [draw(st.integers(1, 6)) for _ in range(base_n)]
    starts = [sum(sizes[:i]) for i in range(base_n + 1)]
    blocks = [range(starts[i], starts[i + 1]) for i in range(base_n)]
    edges = set()
    for block in blocks:
        if draw(st.booleans()):
            edges.update(combinations(block, 2))
    for i, j in base:
        edges.update((u, v) for u in blocks[i] for v in blocks[j])
    n = starts[-1]
    perm = draw(st.permutations(range(n)))
    edges = {tuple(sorted((perm[u], perm[v]))) for u, v in edges}
    if n >= 2:
        for _ in range(draw(st.integers(0, 3))):
            u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            edges ^= {(min(u, v), max(u, v))}
    return Graph(n, edges)


class TestSpectralRadii:
    @pytest.mark.parametrize("m", [2, 5, 9, 17])
    def test_distance_radius_complete(self, m):
        assert abs(spectral_radius(make_complete(m), "distance") - (m - 1)) < 1e-9

    def test_distance_signless_laplacian_complete(self):
        # Tr = n-1 everywhere and D = J - I
        assert abs(spectral_radius(make_complete(7), "distance_signless_laplacian") - 12) < 1e-9

    def test_eta_cycle4(self):
        # circulant distance eigenvalues (4, -2, 0, -2), Tr = 4
        assert abs(spectral_radius(cycle(4), "distance_signless_laplacian") - 8) < 1e-9

    def test_adjacency_star(self):
        assert abs(spectral_radius(star(3), "adjacency") - math.sqrt(3)) < 1e-9

    def test_signless_laplacian_complete(self):
        assert abs(spectral_radius(make_complete(4), "signless_laplacian") - 6) < 1e-9

    def test_distance_kind_rejects_disconnected(self):
        g = disjoint_union(make_complete(2), make_complete(2))
        with pytest.raises(DisconnectedGraphError):
            spectral_radius(g, "distance")
        # adjacency kinds still fine
        assert abs(spectral_radius(g, "adjacency") - 1) < 1e-9

    def test_unknown_kind(self):
        with pytest.raises(ParameterError, match="kind"):
            spectral_radius(make_complete(3), "laplacian")

    def test_empty_graph(self):
        with pytest.raises(ParameterError):
            spectral_radius(Graph(0), "adjacency")

    def test_single_vertex(self):
        assert spectral_radius(make_complete(1), "distance") == 0.0

    @given(st.one_of(twin_blowups(), twin_free_graphs()), st.randoms(use_true_random=False))
    # one vertex; one true-twin class; one false-twin class, n = 4 (the empty
    # graph, disconnected); K_{3,4} and the star K_{1,5}; K_3 + 2K_1, whose
    # graph on the representatives is disconnected; and a path blown up so
    # that its shortest paths cross a false-twin class
    @example(make_complete(1), random.Random(0))
    @example(make_complete(7), random.Random(0))
    @example(Graph(4), random.Random(0))
    @example(Graph(7, [(u, v) for u in range(3) for v in range(3, 7)]), random.Random(1))
    @example(star(5), random.Random(2))
    @example(disjoint_union(make_complete(3), Graph(2)), random.Random(3))
    @example(Graph(8, [(0, 1), (0, 2), (1, 2)] + [(u, v) for u in (1, 2) for v in (3, 4, 5)]
                   + [(v, 6) for v in (3, 4, 5)] + [(6, 7)]), random.Random(4))
    def test_twin_quotient_radius_is_the_full_radius(self, g, rnd):
        # against eigvalsh of the whole matrix, and under relabelling
        h = relabelled(g, rnd)
        for kind in SPECTRAL_KINDS:
            if kind.startswith("distance") and not g.is_connected():
                for graph in (g, h):
                    with pytest.raises(DisconnectedGraphError):
                        spectral_radius(graph, kind)
                continue
            full = np.linalg.eigvalsh(reference_matrix(g, kind).astype(float))[-1]
            assert abs(spectral_radius(g, kind) - full) < 1e-9
            assert abs(spectral_radius(h, kind) - full) < 1e-9

    def test_twin_free_graph_gets_the_full_matrix(self):
        # c = n: the quotient is the matrix itself, and so is the answer
        g = path(9)
        assert _twin_classes(g.adjacency_rows) == {v: [v] for v in range(9)}
        for kind in SPECTRAL_KINDS:
            assert spectral_radius(g, kind) == symmetric_eigenvalues(reference_matrix(g, kind))[0]


class TestTransmissionsAndWiener:
    def test_complete(self):
        n = 9
        assert wiener_index(make_complete(n)) == n * (n - 1) // 2

    def test_path3(self):
        assert wiener_index(path(3)) == 4

    def test_cycle4_transmission_regular(self):
        tr = distance_signless_laplacian_matrix(cycle(4)).diagonal()
        assert tr.tolist() == [4, 4, 4, 4]
        assert wiener_index(cycle(4)) == 8

    def test_transmission_sum_is_twice_wiener(self):
        rng = random.Random(9)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randrange(2, 12), rng.random())
            tr = distance_signless_laplacian_matrix(g).diagonal()
            assert int(tr.sum()) == 2 * wiener_index(g)

    def test_closed_form_19113(self):
        assert wiener_gprime_closed_form(ExtremalParams(19, 1, 1, 3)) == 213
        assert wiener_index(extremal_gprime(ExtremalParams(19, 1, 1, 3))) == 213

    def test_closed_form_matches_direct_on_sample(self):
        samples = [
            (19, 1, 1, 3), (31, 1, 1, 2), (25, 3, 1, 3), (28, 1, 2, 4),
            (33, 5, 3, 6), (47, 1, 1, 3), (24, 1, 2, 3), (29, 3, 1, 2),
        ]
        for n, b, k, d in samples:
            p = ExtremalParams(n, b, k, d)
            assert wiener_gprime_closed_form(p) == wiener_index(extremal_gprime(p))

    def test_closed_form_invalid_parity(self):
        with pytest.raises(ParameterError):
            wiener_gprime_closed_form(ExtremalParams(20, 1, 1, 3))


class TestEdgeMonotonicity:
    def test_mu1_strictly_decreases_on_edge_addition(self):
        rng = random.Random(21)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randrange(4, 11), rng.uniform(0.2, 0.7))
            non_edges = list(g.non_edges())
            if not non_edges:
                continue
            u, v = rng.choice(non_edges)
            assert spectral_radius(g.with_edge(u, v), "distance") < spectral_radius(g, "distance") - 1e-9

    def test_eta1_strictly_increases_on_edge_deletion(self):
        rng = random.Random(22)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randrange(4, 11), rng.uniform(0.3, 0.8))
            candidates = [e for e in g.edges() if without_edge(g, *e).is_connected()]
            if not candidates:
                continue
            u, v = rng.choice(candidates)
            assert spectral_radius(without_edge(g, u, v), "distance_signless_laplacian") > (
                spectral_radius(g, "distance_signless_laplacian") + 1e-9
            )


class TestInterlacing:
    def test_random_principal_submatrices(self):
        rng = random.Random(23)
        for _ in range(25):
            n = rng.randrange(2, 9)
            a = random_symmetric(rng, n)
            outer = symmetric_eigenvalues(a)
            keep = sorted(rng.sample(range(n), rng.randrange(1, n)))
            inner = symmetric_eigenvalues(a[np.ix_(keep, keep)])
            assert check_interlacing(outer, inner)

    def test_violation_detected(self):
        assert not check_interlacing([1.0, 0.0], [2.0])

    def test_inner_longer_rejected(self):
        with pytest.raises(ParameterError):
            check_interlacing([1.0], [1.0, 0.0])

    @given(
        st.lists(st.floats(-3, 3) | st.just(np.nan), min_size=0, max_size=6),
        st.lists(st.floats(-3, 3) | st.just(np.nan), min_size=0, max_size=6),
        st.sampled_from([0.0, 1e-8, 0.5]),
    )
    def test_matches_the_pairwise_loop(self, outer, inner, tol):
        outer = sorted(outer, reverse=True)
        inner = sorted(inner, reverse=True)
        n, m = len(outer), len(inner)
        if m > n:
            with pytest.raises(ParameterError):
                check_interlacing(outer, inner, tol=tol)
            return
        expected = all(
            not (outer[i] < inner[i] - tol) and not (inner[i] < outer[n - m + i] - tol)
            for i in range(m)
        )
        assert check_interlacing(outer, inner, tol=tol) is expected


class TestFourWOverN:
    def test_lower_bound_on_random_graphs(self):
        rng = random.Random(24)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randrange(3, 12), rng.random())
            eta = spectral_radius(g, "distance_signless_laplacian")
            assert eta >= 4 * wiener_index(g) / g.n - 1e-8

    @pytest.mark.parametrize("n", range(3, 10))
    def test_equality_on_cycles(self, n):
        g = cycle(n)
        eta = spectral_radius(g, "distance_signless_laplacian")
        assert abs(eta - 4 * wiener_index(g) / n) < 1e-8

    def test_strict_on_non_transmission_regular(self):
        g = path(4)
        eta = spectral_radius(g, "distance_signless_laplacian")
        assert eta > 4 * wiener_index(g) / 4 + 1e-6

