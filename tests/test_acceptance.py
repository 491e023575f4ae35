"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Stated runtime budgets are asserted.
"""
import math
import random
import time
from itertools import combinations

import numpy as np

from oddcrit.factors import is_k_critical
from oddcrit.graphs import (
    ExtremalParams,
    Graph,
    extremal_gprime,
    g_star,
    make_complete,
    proof_graph_g2,
    proof_graph_g3,
)
from oddcrit.partitions import perron_vector, quotient
from oddcrit.spectral import (
    check_interlacing,
    distance_matrix,
    distance_signless_laplacian_matrix,
    eigenvalues,
    spectral_radius,
    wiener_gprime_closed_form,
    wiener_index,
)
from oddcrit.theorems import (
    ASSERTS_CRITICAL,
    EXTREMAL_EXCEPTION,
    counterexample_sweep,
    evaluate_theorem,
    one_edge_supergraphs,
)
from conftest import graph_from_edge_mask, has_odd_factor, random_connected_graph
from lemma_checks import gstar_ordering_check, ordering_lemma_check
from oracles import criticality_witness_extremal, find_odd_factor, full_scan, without_edge
from partition_helpers import join_partition


class Criterion:
    """Context manager that prints the pass/fail line and enforces a budget."""

    def __init__(self, number, label, budget=None):
        self.number = number
        self.label = label
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number}: {status} ({elapsed:.2f}s) {self.label}")
        if exc_type is None and self.budget is not None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s"
            )
        return False


def family_triples(n, b, k, delta, s):
    """(graph, partition) for the three families of one grid tuple."""
    p = ExtremalParams(n, b, k, delta, s)
    big_p, singles_p = p.gprime_parts()
    big_2, singles_2 = p.g2_parts()
    big_3, copies, copy_order = p.g3_parts()
    return [
        (extremal_gprime(p), join_partition(delta, [big_p] + [1] * singles_p)),
        (proof_graph_g2(p), join_partition(s, [big_2] + [1] * singles_2)),
        (proof_graph_g3(p), join_partition(s, [big_3] + [copy_order] * copies)),
    ]


def test_criterion_1_spectral_kernel():
    with Criterion(1, "complete-graph radii and the 3-path distance radius", budget=1.0):
        for m in range(2, 41):
            km = make_complete(m)
            assert abs(spectral_radius(km, "distance") - (m - 1)) < 1e-9
            assert abs(
                spectral_radius(km, "distance_signless_laplacian") - (2 * m - 2)
            ) < 1e-9
        p3 = Graph(3, [(0, 1), (1, 2)])
        assert abs(spectral_radius(p3, "distance") - (1 + math.sqrt(3))) < 1e-9


def test_criterion_2_quotient_fidelity(parameter_grid):
    with Criterion(2, "3x3 quotient radii match direct spectral radii on the grid", budget=30.0):
        for n, b, k, delta, s in parameter_grid:
            for g, part in family_triples(n, b, k, delta, s):
                for kind, matrix in (
                    ("distance", distance_matrix(g)),
                    ("distance_signless_laplacian", distance_signless_laplacian_matrix(g)),
                ):
                    q = quotient(matrix, part)
                    root = q.largest_root_closed_form()
                    assert abs(root - q.eigenvalues()[0]) < 1e-9
                    assert abs(root - spectral_radius(g, kind)) < 1e-6


def test_criterion_3_perron_cell_constancy(parameter_grid):
    with Criterion(3, "Perron vectors constant on partition cells"):
        for n, b, k, delta, s in parameter_grid:
            for g, part in family_triples(n, b, k, delta, s):
                for matrix in (
                    distance_matrix(g),
                    distance_signless_laplacian_matrix(g),
                ):
                    x = perron_vector(matrix)
                    for cell in part.cells:
                        assert float(np.std(x[list(cell)])) < 1e-8


def test_criterion_4_edge_monotonicity():
    with Criterion(4, "mu1 falls on edge addition, eta1 rises on edge deletion (200 each)"):
        rng = random.Random(2024)
        added = 0
        while added < 200:
            g = random_connected_graph(rng, rng.randrange(4, 13), rng.uniform(0.15, 0.85))
            non_edges = list(g.non_edges())
            if not non_edges:
                continue
            u, v = rng.choice(non_edges)
            before = spectral_radius(g, "distance")
            after = spectral_radius(g.with_edge(u, v), "distance")
            assert after < before - 1e-9
            added += 1
        deleted = 0
        while deleted < 200:
            g = random_connected_graph(rng, rng.randrange(4, 13), rng.uniform(0.25, 0.9))
            keep_connected = [e for e in g.edges() if without_edge(g, *e).is_connected()]
            if not keep_connected:
                continue
            u, v = rng.choice(keep_connected)
            before = spectral_radius(g, "distance_signless_laplacian")
            after = spectral_radius(without_edge(g, u, v), "distance_signless_laplacian")
            assert after > before + 1e-9
            deleted += 1


def test_criterion_5_interlacing(parameter_grid):
    with Criterion(5, "submatrix interlacing and the clique lower bound on mu1"):
        rng = random.Random(77)
        agreement_checks = 0
        for index in range(100):
            n = rng.randrange(2, 13)
            a = np.array([[rng.uniform(-5, 5) for _ in range(n)] for _ in range(n)])
            a = (a + a.T) / 2.0
            outer = np.asarray(eigenvalues(a).values)
            for size in range(1, n):
                for keep in combinations(range(n), size):
                    sub = a[np.ix_(keep, keep)]
                    inner = np.sort(np.linalg.eigvalsh(sub))[::-1]
                    assert check_interlacing(outer, inner, tol=1e-8)
            # spot-check the package solver against the reference on one submatrix
            if n > 2:
                keep = tuple(sorted(rng.sample(range(n), n - 1)))
                sub = a[np.ix_(keep, keep)]
                ours = np.asarray(eigenvalues(sub).values)
                ref = np.sort(np.linalg.eigvalsh(sub))[::-1]
                assert np.allclose(ours, ref, atol=1e-9)
                agreement_checks += 1
        assert agreement_checks >= 50
        for n, b, k, delta, s in parameter_grid:
            p = ExtremalParams(n, b, k, delta, s)
            mu = spectral_radius(extremal_gprime(p), "distance")
            assert mu >= n - b * delta + b * k - 2 - 1e-8


def test_criterion_6_wiener_closed_form_and_4w_over_n(parameter_grid):
    with Criterion(6, "closed-form Wiener equality and the 4W/n lower bound"):
        test_graphs = []
        for n, b, k, delta, s in parameter_grid:
            p = ExtremalParams(n, b, k, delta, s)
            g = extremal_gprime(p)
            assert wiener_gprime_closed_form(p) == wiener_index(g)
            test_graphs.append(g)
        rng = random.Random(88)
        test_graphs += [
            random_connected_graph(rng, rng.randrange(3, 13), rng.random())
            for _ in range(30)
        ]
        cycles = [Graph(n, [(i, (i + 1) % n) for i in range(n)]) for n in range(3, 13)]
        completes = [make_complete(n) for n in range(2, 13)]
        for g in test_graphs + cycles + completes:
            eta = spectral_radius(g, "distance_signless_laplacian")
            assert eta >= 4 * wiener_index(g) / g.n - 1e-8
        for g in cycles + completes:
            eta = spectral_radius(g, "distance_signless_laplacian")
            assert abs(eta - 4 * wiener_index(g) / g.n) < 1e-8


def test_criterion_7_oracle_equivalence():
    with Criterion(
        7,
        "criterion route equals constructive search (exhaustive <=6, sampled 7-8)",
        budget=300.0,
    ):
        # every labeled connected graph on up to 6 vertices
        for n in range(1, 7):
            pairs = n * (n - 1) // 2
            for mask in range(1 << pairs):
                g = graph_from_edge_mask(n, mask)
                if not g.is_connected():
                    continue
                for b in (1, 3):
                    assert has_odd_factor(g, b) == (find_odd_factor(g, b) is not None)
        # 5000-graph seeded samples at 7 and 8 vertices (within oracle caps)
        rng = random.Random(99)
        for n in (7, 8):
            count = 0
            while count < 5000:
                g = random_connected_graph(rng, n, rng.uniform(0.05, 0.5))
                if g.edge_count() > 24:
                    continue
                for b in (1, 3):
                    assert has_odd_factor(g, b) == (find_odd_factor(g, b) is not None)
                count += 1


def test_criterion_8_extremal_noncriticality(parameter_grid):
    with Criterion(8, "the extremal family is never k-critical; witness confirmed"):
        for n, b, k, delta, s in parameter_grid:
            p = ExtremalParams(n, b, k, delta, s)
            g = extremal_gprime(p)
            verdict = is_k_critical(g, b, k, cap=n)
            assert not verdict.critical
            witness = verdict.witness
            o = g.odd_components_after_removal(witness)
            assert o > b * (len(witness) - k)
            canonical = criticality_witness_extremal(p)
            assert g.odd_components_after_removal(canonical) == b * delta - b * k + 2


def test_criterion_9_gstar_positive_check():
    with Criterion(9, "the one-extra-edge graph is 1-critical (full scan) and ordered", budget=60.0):
        star = g_star(19, 1, 1)
        verdict = full_scan(star, 1, 1)
        assert verdict.critical
        assert verdict.subsets_examined == 2 ** 19 - 2
        assert gstar_ordering_check(19, 1, 1)


def test_criterion_10_theorem_sweep():
    with Criterion(10, "one-edge supergraph sweep, extremal exception, ordering lemmas"):
        base = extremal_gprime(ExtremalParams(19, 1, 1, 3))
        corpus = one_edge_supergraphs(base)
        assert len(corpus) == 42
        report = counterexample_sweep(corpus, 1, 1, 3, "1.1")
        assert not report.falsifications
        asserted = [r for r in report.records if r["conclusion"] == ASSERTS_CRITICAL]
        assert asserted and all(r["brute_force_verdict"] for r in asserted)

        verdict = evaluate_theorem(
            extremal_gprime(ExtremalParams(47, 1, 1, 3)), "1.5", 1, 1, 3
        )
        assert verdict.conclusion == EXTREMAL_EXCEPTION

        rng = random.Random(123)
        for lemma, need in (("2.8", 50), ("2.9", 50), ("2.10", 50)):
            done = 0
            while done < need:
                s = rng.randrange(1, 4)
                t = rng.randrange(2, 6)
                if lemma == "2.10":
                    s = rng.randrange(1, 3)
                    t = rng.randrange(s + 1, 6)
                    p = rng.randrange(1, 3)
                    head = rng.randrange(5 * p, 5 * p + 5)
                    rest = sorted(
                        (rng.randrange(p, head + 1) for _ in range(t - 1)), reverse=True
                    )
                    parts = [head] + rest
                else:
                    parts = sorted((rng.randrange(1, 9) for _ in range(t)), reverse=True)
                    p = rng.randrange(1, parts[-1] + 1)
                outcome = ordering_lemma_check(lemma, s, parts, p)
                if outcome is None:
                    continue
                assert outcome is True, (lemma, s, parts, p)
                done += 1
