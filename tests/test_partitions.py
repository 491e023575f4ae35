import random

import numpy as np
import pytest
from scipy.linalg import eigh as scipy_eigh

from oddcrit.errors import DisconnectedGraphError, ParameterError
from oddcrit.graphs import (
    ExtremalParams,
    Graph,
    extremal_gprime,
    family,
    make_complete,
    proof_graph_g2,
    proof_graph_g3,
)
from oddcrit.partitions import partition_of, perron_vector, quotient
from oddcrit.spectral import (
    SPECTRAL_KINDS,
    distance_matrix,
    distance_signless_laplacian_matrix,
    spectral_radius,
    symmetric_eigenvalues,
)
from oracles import reference_matrix
from partition_helpers import discrete_partition, is_equitable, join_partition


def path(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def gprime_partition(p: ExtremalParams):
    big, singles = p.gprime_parts()
    return join_partition(p.delta, [big] + [1] * singles)


def g2_partition(p: ExtremalParams):
    big, singles = p.g2_parts()
    return join_partition(p.s, [big] + [1] * singles)


def g3_partition(p: ExtremalParams):
    big, copies, copy_order = p.g3_parts()
    return join_partition(p.s, [big] + [copy_order] * copies)


# closed-form three-cell quotient entries of the families
def expected_distance_quotient(n, b, k, s):
    return [
        [s - 1, n - (b + 1) * s + b * k - 1, b * s - b * k + 1],
        [s, n - (b + 1) * s + b * k - 2, 2 * (b * s - b * k + 1)],
        [s, 2 * (n - (b + 1) * s + b * k - 1), 2 * (b * s - b * k)],
    ]


def expected_qd_quotient(n, b, k, s):
    return [
        [n + s - 2, n - (b + 1) * s + b * k - 1, b * s - b * k + 1],
        [s, 2 * n - s - 2, 2 * (b * s - b * k + 1)],
        [s, 2 * (n - (b + 1) * s + b * k - 1), 2 * (n - b * k - 1) + (2 * b - 1) * s],
    ]


def expected_distance_quotient_g3(n, b, k, d, s):
    beta = b * s - b * k + 1
    c = d + 1 - s
    big = n - s - c * beta
    return [
        [s - 1, big, beta * c],
        [s, big - 1, 2 * beta * c],
        [s, 2 * big, (d - s) + 2 * (beta - 1) * c],
    ]


def expected_qd_quotient_g3(n, b, k, d, s):
    beta = b * s - b * k + 1
    c = d + 1 - s
    big = n - s - c * beta
    return [
        [n + s - 2, big, beta * c],
        [s, 2 * n - s - 2, 2 * beta * c],
        [s, 2 * big, 2 * (n - 1 + (beta - 1) * c) - s],
    ]


class TestPartitionType:
    def test_validation(self):
        p = partition_of([(0, 1), (2,)])
        assert p.n == 3 and len(p) == 2
        with pytest.raises(ParameterError, match="disjoint"):
            partition_of([(0, 1), (1, 2)])
        with pytest.raises(ParameterError, match="cover"):
            partition_of([(0, 2)])
        with pytest.raises(ParameterError, match="nonempty"):
            partition_of([(0,), ()])

    def test_join_partition_cells(self):
        p = join_partition(3, [13, 1, 1, 1])
        assert [len(c) for c in p.cells] == [3, 13, 3]
        assert p.cells[0] == (0, 1, 2)

    def test_join_partition_g3_sizes(self):
        params = ExtremalParams(19, 1, 1, 4, s=3)
        p = g3_partition(params)
        assert [len(c) for c in p.cells] == [3, 10, 6]

    def test_join_partition_degenerate_cases(self):
        assert len(join_partition(0, [4])) == 1
        assert len(join_partition(2, [4])) == 2
        with pytest.raises(ParameterError):
            join_partition(1, [])


class TestQuotient:
    def test_single_cell_complete(self):
        d = distance_matrix(make_complete(6))
        q = quotient(d, partition_of([tuple(range(6))]))
        assert q.entries.tolist() == [[5.0]]
        assert q.largest_root_closed_form() == 5.0

    def test_closed_form_distance_quotient_gprime(self):
        p = ExtremalParams(19, 1, 1, 3)
        q = quotient(distance_matrix(extremal_gprime(p)), gprime_partition(p))
        assert np.array_equal(q.entries, np.array(expected_distance_quotient(19, 1, 1, 3), float))

    @pytest.mark.parametrize("tup", [(19, 1, 1, 4, 3), (28, 3, 2, 4, 3), (33, 5, 3, 6, 4)])
    def test_closed_form_quotients_full_set(self, tup):
        n, b, k, d, s = tup
        p = ExtremalParams(n, b, k, d, s)
        gp, g2, g3 = extremal_gprime(p), proof_graph_g2(p), proof_graph_g3(p)
        checks = [
            (distance_matrix(gp), gprime_partition(p), expected_distance_quotient(n, b, k, d)),
            (distance_matrix(g2), g2_partition(p), expected_distance_quotient(n, b, k, s)),
            (distance_matrix(g3), g3_partition(p), expected_distance_quotient_g3(n, b, k, d, s)),
            (distance_signless_laplacian_matrix(gp), gprime_partition(p), expected_qd_quotient(n, b, k, d)),
            (distance_signless_laplacian_matrix(g2), g2_partition(p), expected_qd_quotient(n, b, k, s)),
            (distance_signless_laplacian_matrix(g3), g3_partition(p), expected_qd_quotient_g3(n, b, k, d, s)),
        ]
        for matrix, part, expected in checks:
            assert is_equitable(matrix, part)
            assert np.array_equal(quotient(matrix, part).entries, np.array(expected, float))

    @pytest.mark.parametrize("seed", range(6))
    def test_entries_equal_the_blockwise_sums(self, seed):
        # one matrix product gives the blockwise means bit for bit on integers
        rng = random.Random(seed)
        n = rng.randrange(1, 26)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4])
        order = list(range(n))
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, n), rng.randrange(0, min(n - 1, 5) + 1))) if n > 1 else []
        part = partition_of([order[i:j] for i, j in zip([0] + cuts, cuts + [n])])
        for kind in ("adjacency", "signless_laplacian"):
            a = reference_matrix(g, kind)
            expected = [
                [float(a[np.ix_(ci, cj)].sum()) / len(ci) for cj in part.cells] for ci in part.cells
            ]
            assert quotient(a, part).entries.tolist() == expected

    def test_cell_index_mismatch(self):
        with pytest.raises(ParameterError, match="order"):
            quotient(distance_matrix(make_complete(4)), partition_of([(0, 1), (2,)]))


class TestEquitable:
    def test_join_partition_is_equitable(self):
        p = ExtremalParams(19, 1, 1, 3)
        assert is_equitable(distance_matrix(extremal_gprime(p)), gprime_partition(p))

    def test_discrete_partition_always_equitable(self):
        d = distance_matrix(path(5))
        assert is_equitable(d, discrete_partition(5))

    def test_unbalanced_split_not_equitable(self):
        d = distance_matrix(path(4))
        assert not is_equitable(d, partition_of([(0, 1), (2, 3)]))

    def test_float_tolerance_path(self):
        d = distance_matrix(make_complete(4)).astype(float)
        assert is_equitable(d, partition_of([(0, 1), (2, 3)]))
        d[0, 2] += 1e-6
        d[2, 0] += 1e-6
        assert not is_equitable(d, partition_of([(0, 1), (2, 3)]))


class TestQuotientSpectra:
    def test_quotient_eigenvalues_subset_of_matrix(self):
        # equitable quotients inherit their eigenvalues from the source matrix
        cases = [(19, 1, 1, 3, None), (31, 1, 1, 2, None), (28, 1, 2, 4, 3), (25, 3, 1, 3, 2)]
        for n, b, k, d, s in cases:
            p = ExtremalParams(n, b, k, d, s)
            graphs = [(extremal_gprime(p), gprime_partition(p))]
            if s is not None:
                graphs.append((proof_graph_g2(p), g2_partition(p)))
                graphs.append((proof_graph_g3(p), g3_partition(p)))
            for g, part in graphs:
                for matrix in (distance_matrix(g), distance_signless_laplacian_matrix(g)):
                    full = symmetric_eigenvalues(matrix)
                    for mu in quotient(matrix, part).eigenvalues():
                        assert np.abs(full - mu).min() < 1e-7

    def test_quotient_radius_equals_matrix_radius(self):
        p = ExtremalParams(19, 1, 1, 3)
        g = extremal_gprime(p)
        q = quotient(distance_matrix(g), gprime_partition(p))
        assert abs(q.eigenvalues()[0] - spectral_radius(g, "distance")) < 1e-7

    def test_closed_form_agrees_with_eigensolver(self):
        rng = random.Random(17)
        for n, b, k, d, s in [(19, 1, 1, 3, None), (28, 3, 2, 4, 3), (33, 5, 3, 6, 4)]:
            p = ExtremalParams(n, b, k, d, s)
            q = quotient(distance_matrix(extremal_gprime(p)), gprime_partition(p))
            assert abs(q.largest_root_closed_form() - q.eigenvalues()[0]) < 1e-9
        # 2x2 route on a random equitable-by-construction complete split
        d = distance_matrix(make_complete(6))
        q = quotient(d, partition_of([(0, 1, 2), (3, 4, 5)]))
        assert abs(q.largest_root_closed_form() - q.eigenvalues()[0]) < 1e-9
        assert rng is not None

    def test_closed_form_order_cap(self):
        d = distance_matrix(make_complete(5))
        q = quotient(d, discrete_partition(5))
        with pytest.raises(ParameterError, match="order"):
            q.largest_root_closed_form()


def family_cells(s, parts):
    """Vertex cells of family(s, parts): the join cell, then all parts of each size."""
    starts = [s + sum(parts[:i]) for i in range(len(parts))]
    by_size = {}
    for start, p in zip(starts, parts):
        by_size.setdefault(p, []).extend(range(start, start + p))
    return partition_of(([tuple(range(s))] if s else []) + list(by_size.values()))


def comparison_layouts(parameter_grid):
    """(s, parts) of G', g2, g3, the Theorem 1.4 family and the g* comparison pair."""
    layouts = set()
    for n, b, k, d, s in parameter_grid:
        p = ExtremalParams(n, b, k, d, s)
        big, singles = p.gprime_parts()
        layouts.add((d, (big,) + (1,) * singles))
        big, singles = p.g2_parts()
        layouts.add((s, (big,) + (1,) * singles))
        big, copies, order = p.g3_parts()
        layouts.add((s, (big,) + (order,) * copies))
        if n - b - k - 2 >= 1:
            layouts.add((k + 1, (n - b - k - 2,) + (1,) * (b + 1)))
        if n - 2 * b - k - 3 >= 1:
            layouts.add((k + 2, (n - 2 * b - k - 3,) + (1,) * (2 * b + 1)))
    return sorted(layouts)


# lemma-style layouts: repeated part sizes, interleaved sizes, a big part of 1
LEMMA_LAYOUTS = [
    (2, (3, 3, 2, 2, 1)),
    (1, (1, 1, 1, 1)),
    (3, (4, 4, 4)),
    (2, (2, 5, 2, 1, 5, 1)),
    (4, (7, 1)),
    (0, (6,)),
    (1, (1,)),
]


class TestFamilyQuotient:
    """A join family's radius is ``spectral_radius`` of the built family.

    Its twin quotient and the quotient over its size cells (``family_cells``)
    are both equitable, so they share the largest eigenvalue.
    """

    def test_radius_matches_eigvalsh(self, parameter_grid):
        layouts = comparison_layouts(parameter_grid) + LEMMA_LAYOUTS
        for n, b, k, d in ((47, 1, 1, 3), (63, 1, 1, 3), (271, 3, 1, 3)):
            big, singles = ExtremalParams(n, b, k, d).gprime_parts()
            layouts.append((d, (big,) + (1,) * singles))
        for s, parts in layouts:
            g = family(s, list(parts))
            for kind in SPECTRAL_KINDS:
                exact = np.linalg.eigvalsh(reference_matrix(g, kind).astype(float))[-1]
                assert abs(spectral_radius(g, kind) - exact) < 1e-9

    def test_cells_are_equitable_and_entries_exact(self, parameter_grid):
        for s, parts in comparison_layouts(parameter_grid)[::5] + LEMMA_LAYOUTS:
            g = family(s, list(parts))
            cells = family_cells(s, list(parts))
            for kind in SPECTRAL_KINDS:
                matrix = reference_matrix(g, kind)
                q = quotient(matrix, cells)
                assert is_equitable(matrix, cells)
                assert np.array_equal(q.entries, np.round(q.entries))
                assert abs(q.eigenvalues()[0] - spectral_radius(g, kind)) < 1e-9

    def test_three_cells_match_the_closed_forms(self):
        n, b, k, d = 28, 3, 2, 4
        big, singles = ExtremalParams(n, b, k, d).gprime_parts()
        g = family(d, [big] + [1] * singles)
        cells = family_cells(d, [big] + [1] * singles)
        for kind, expected in (
            ("distance", expected_distance_quotient(n, b, k, d)),
            ("distance_signless_laplacian", expected_qd_quotient(n, b, k, d)),
        ):
            q = quotient(reference_matrix(g, kind), cells)
            assert np.array_equal(q.entries, np.array(expected, float))
            assert abs(q.eigenvalues()[0] - spectral_radius(g, kind)) < 1e-9

    def test_no_join_cell(self):
        # K_3 u K_3 u K_1: adjacency radius 2; distance is undefined
        g = family(0, [3, 3, 1])
        for kind in ("adjacency", "signless_laplacian"):
            exact = np.linalg.eigvalsh(reference_matrix(g, kind).astype(float))[-1]
            assert abs(spectral_radius(g, kind) - exact) < 1e-12
        for kind, k5_radius in (("distance", 4.0), ("distance_signless_laplacian", 8.0)):
            with pytest.raises(DisconnectedGraphError):
                spectral_radius(g, kind)
            assert spectral_radius(family(0, [5]), kind) == pytest.approx(k5_radius)

    def test_rejects_bad_layouts(self):
        with pytest.raises(ParameterError, match="kind"):
            spectral_radius(family(1, [2]), "laplacian")
        for s, parts in ((-1, [2]), (1, []), (1, [2, 0])):
            with pytest.raises(ParameterError):
                family(s, parts)


class TestPerronVector:
    def test_uniform_on_complete(self):
        x = perron_vector(distance_matrix(make_complete(5)))
        assert np.allclose(x, 1 / np.sqrt(5), atol=1e-10)

    def test_cell_constant_on_gprime(self):
        p = ExtremalParams(19, 1, 1, 3)
        x = perron_vector(distance_matrix(extremal_gprime(p)))
        for cell in gprime_partition(p).cells:
            assert np.std(x[list(cell)]) < 1e-8

    def test_path3_center_differs(self):
        x = perron_vector(distance_matrix(path(3)))
        assert abs(x[0] - x[2]) < 1e-9
        assert abs(x[1] - x[0]) > 0.1

    def test_rejects_reducible(self):
        m = np.array([[1.0, 0.0], [0.0, 2.0]])
        with pytest.raises(ParameterError, match="reducible"):
            perron_vector(m)

    def test_rejects_zero_and_negative(self):
        with pytest.raises(ParameterError):
            perron_vector(np.zeros((1, 1)))
        with pytest.raises(ParameterError, match="nonnegative"):
            perron_vector(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    @pytest.mark.parametrize("n, b, k, delta, s", [(11, 1, 1, 3, 2), (19, 3, 1, 4, 2), (25, 5, 1, 4, 2)])
    def test_agrees_with_scipy_on_join_families(self, n, b, k, delta, s):
        p = ExtremalParams(n, b, k, delta, s)
        for build in (extremal_gprime, proof_graph_g2, proof_graph_g3):
            d = distance_matrix(build(p))
            x = perron_vector(d)
            ref = scipy_eigh(d.astype(float), driver="ev")[1][:, -1]
            assert min(np.abs(x - ref).max(), np.abs(x + ref).max()) < 1e-12

    def test_positive_entries(self):
        rng = random.Random(30)
        for _ in range(10):
            x = perron_vector(distance_matrix(path(rng.randrange(2, 8))))
            assert (x > 0).all()
