import enum
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oddcrit import spectral, theorems
from oddcrit.errors import ParameterError
from oddcrit.graphs import (
    ExtremalParams,
    Graph,
    _twin_classes,
    extremal_gprime,
    family,
    make_complete,
)
from oddcrit.spectral import spectral_radius
from oddcrit.theorems import (
    ASSERTS_CRITICAL,
    CONDITION_FAILS,
    EXTREMAL_EXCEPTION,
    INAPPLICABLE,
    THEOREM_IDS,
    counterexample_sweep,
    evaluate_theorem,
    exceptional_layouts_for,
    one_edge_supergraphs,
    order_bound,
)
from lemma_checks import (
    eta_lower_bound_check,
    gstar_ordering_check,
    interlacing_bound_check,
    ordering_lemma_check,
)
from conftest import relabelled
from oracles import report_json_via_dumps, without_edge


#: floats the writer must round and spell as json does: NaN, infinities,
#: signed zeros, subnormals, the extremes, and 13-digit decimals ending in 5,
#: which sit on the 12-digit rounding boundary
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                     1.7976931348623157e308, 0.1, 100.0, 1e16, 123456789012.5]),
    st.builds(lambda sign, m, e: float(f"{sign}{m}5e{e}"), st.sampled_from("+-"),
              st.integers(10**11, 10**12 - 1), st.integers(-330, 300)),
)
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**60), 10**60),
    _FLOATS,
    st.text(st.characters(exclude_categories=())),
    st.text("\x00\x1f\x7f\"\\/\n\té€😀", max_size=5),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS | st.sampled_from([[], (), {}]),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=25,
)



class TextSubclass(str):
    pass


class FloatSubclass(float):
    pass


INT_MEMBER = enum.IntEnum("Small", "ONE TWO").TWO


def cycle(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestOrderBounds:
    @pytest.mark.parametrize(
        "tid,b,k,d,expected",
        [
            ("1.1", 1, 1, 3, Fraction(18)),
            ("1.2", 1, 1, 3, Fraction(15)),
            ("1.3", 1, 1, 3, Fraction(18)),
            ("1.4", 1, 1, None, Fraction(14)),
            ("1.5", 1, 1, 3, Fraction(47)),
            ("1.6", 1, 1, 3, Fraction(62)),
        ],
    )
    def test_values(self, tid, b, k, d, expected):
        assert order_bound(tid, b, k, d) == expected

    def test_exact_fractions(self):
        # the decimal coefficients stay exact rationals
        assert order_bound("1.3", 3, 1, 2) == Fraction(103, 10) * 2 - 6 + Fraction(11, 10)
        assert order_bound("1.5", 1, 2, 4) == Fraction(256, 3)

    def test_unknown_theorem(self):
        with pytest.raises(ParameterError):
            order_bound("9.9", 1, 1, 3)

    def test_missing_delta(self):
        with pytest.raises(ParameterError):
            order_bound("1.5", 1, 1)

    def test_invalid_b(self):
        with pytest.raises(ParameterError):
            order_bound("1.1", 2, 1, 3)


class TestExtremalGraphFor:
    def test_distance_variant_uses_own_family(self):
        g = family(*exceptional_layouts_for("1.4", 19, 1, 1, None)[0])
        assert g == family(2, [15, 1, 1])

    def test_others_use_gprime(self):
        g = family(*exceptional_layouts_for("1.5", 19, 1, 1, 3)[0])
        assert g == extremal_gprime(ExtremalParams(19, 1, 1, 3))

    @pytest.mark.parametrize("b, k, d", [(1, 1, 3), (3, 1, 2), (1, 2, 4), (5, 1, 2), (3, 2, 3)])
    def test_size_condition_uses_the_exact_edge_count(self, b, k, d):
        n = math.ceil(order_bound("1.1", b, k, d))
        n += (n - k) % 2
        g = extremal_gprime(ExtremalParams(n, b, k, d))
        verdict = evaluate_theorem(g.with_edge(*next(g.non_edges())), "1.1", b, k, d)
        assert verdict.hypotheses_met
        assert verdict.condition_rhs == g.edge_count()

    def test_exceptional_set_for_distance_variant(self):
        ex = exceptional_layouts_for("1.4", 19, 1, 1, None)
        assert (1, [17, 1]) in ex and len(ex) == 2


_PARAMETER_CHECKED = {
    "order_bound": lambda tid, n, b, k, d: order_bound(tid, b, k, d),
    "exceptional_layouts_for": exceptional_layouts_for,
    "evaluate_theorem": lambda tid, n, b, k, d: evaluate_theorem(make_complete(n), tid, b, k, d),
}


def test_order_bound_rejects_float_parameters_after_a_cache_hit():
    order_bound("1.2", 1, 1, 3)
    for args in ((1.0, 1, 3), (1, 1.0, 3), (1, 1, 3.0)):
        with pytest.raises(ParameterError, match="must be an integer"):
            order_bound("1.2", *args)


@pytest.mark.parametrize("call", _PARAMETER_CHECKED.values(), ids=list(_PARAMETER_CHECKED))
@pytest.mark.parametrize(
    "args",
    [("9.9", 19, 1, 1, 3), ("1.4", 10, 2, 1, None), ("1.4", 19, 1, 0, None)],
    ids=["unknown_theorem", "even_b", "zero_k"],
)
def test_every_entry_point_rejects_invalid_parameters(call, args):
    with pytest.raises(ParameterError):
        call(*args)


def smallest_admissible_orders():
    """(theorem, n, b, k, delta) of 1.2-1.6 on a small grid, n the smallest order it admits.

    Orders above 300 are left out; 1.4 ignores delta, so it has one case per (b, k).
    """
    cases = {}
    for tid in ("1.2", "1.3", "1.4", "1.5", "1.6"):
        for b, k, d in itertools.product((1, 3), (1, 2), (2, 3, 4)):
            delta = None if tid == "1.4" else d
            n = math.ceil(order_bound(tid, b, k, delta))
            n += (n - k) % 2
            if n <= 300:
                cases.setdefault((tid, n, b, k, delta), None)
    return list(cases)


class TestEvaluateTheorem:
    def test_extremal_exception_self(self):
        g = extremal_gprime(ExtremalParams(47, 1, 1, 3))
        verdict = evaluate_theorem(g, "1.5", 1, 1, 3)
        assert verdict.conclusion == EXTREMAL_EXCEPTION
        assert verdict.hypotheses_met and verdict.condition_met

    def test_supergraph_asserts_critical(self):
        g = extremal_gprime(ExtremalParams(47, 1, 1, 3))
        # join two singleton-cell vertices: distance radius strictly drops
        plus = g.with_edge(45, 46)
        verdict = evaluate_theorem(plus, "1.5", 1, 1, 3)
        assert verdict.conclusion == ASSERTS_CRITICAL
        assert verdict.condition_lhs < verdict.condition_rhs - 1e-9

    def test_every_one_edge_supergraph_meets_condition_strictly(self):
        g = extremal_gprime(ExtremalParams(47, 1, 1, 3))
        mu_base = spectral_radius(g, "distance")
        for _, h in one_edge_supergraphs(g):
            assert spectral_radius(h, "distance") < mu_base - 1e-9

    def test_subgraph_condition_fails(self):
        g = extremal_gprime(ExtremalParams(47, 1, 1, 3))
        minus = without_edge(g, 3, 4)  # big-clique edge: radius strictly grows
        verdict = evaluate_theorem(minus, "1.5", 1, 1, 3)
        assert verdict.conclusion == CONDITION_FAILS

    def test_order_gate_inapplicable(self):
        verdict = evaluate_theorem(cycle(6), "1.5", 1, 1, 2)
        assert verdict.conclusion == INAPPLICABLE
        assert not verdict.hypotheses["order"]

    def test_size_variant_orientation(self):
        p = ExtremalParams(19, 1, 1, 3)
        g = extremal_gprime(p)
        assert evaluate_theorem(g, "1.1", 1, 1, 3).conclusion == EXTREMAL_EXCEPTION
        plus = g.with_edge(17, 18)
        assert evaluate_theorem(plus, "1.1", 1, 1, 3).conclusion == ASSERTS_CRITICAL
        minus = without_edge(g, 3, 4)
        assert evaluate_theorem(minus, "1.1", 1, 1, 3).conclusion == CONDITION_FAILS

    def test_each_theorem_sees_own_extremal_as_exception(self):
        cases = [
            ("1.1", 19, 1, 1, 3),
            ("1.2", 19, 1, 1, 3),
            ("1.3", 19, 1, 1, 3),
            ("1.5", 47, 1, 1, 3),
            ("1.6", 63, 1, 1, 3),
        ]
        for tid, n, b, k, d in cases:
            g = extremal_gprime(ExtremalParams(n, b, k, d))
            verdict = evaluate_theorem(g, tid, b, k, d)
            assert verdict.conclusion == EXTREMAL_EXCEPTION, (tid, verdict)
            assert abs(verdict.condition_lhs - verdict.condition_rhs) <= 1e-8

    def test_canonical_bases_tie_exactly(self):
        # both sides of the condition run spectral_radius on the same graph,
        # so no tolerance is needed at the smallest order that admits the family
        met = 0
        for tid, n, b, k, delta in smallest_admissible_orders():
            g = family(*exceptional_layouts_for(tid, n, b, k, delta)[0])
            verdict = evaluate_theorem(g, tid, b, k, delta)
            if verdict.hypotheses_met:
                met += 1
                assert verdict.condition_lhs == verdict.condition_rhs, (tid, n, b, k, delta)
                assert verdict.conclusion == EXTREMAL_EXCEPTION
        assert met == 35

    def test_relabelled_bases_tie_well_inside_the_guard(self):
        # a relabelling orders the twin classes afresh, so the eigensolves
        # round differently; the radii still agree within a quarter of the
        # guard 4*n*u*(|lhs| + |rhs|) on two relabellings of every base
        rng = random.Random(24)
        ties = 0
        for tid, n, b, k, delta in smallest_admissible_orders():
            for i, layout in enumerate(exceptional_layouts_for(tid, n, b, k, delta)):
                for _ in range(2):
                    g = relabelled(family(*layout), rng)
                    verdict = evaluate_theorem(g, tid, b, k, delta)
                    if not verdict.hypotheses_met:
                        continue
                    assert verdict.condition_met, (tid, n, b, k, delta, layout)
                    if i == 0:  # the comparison family; 1.4's other exception lies well inside
                        ties += 1
                        lhs, rhs = verdict.condition_lhs, verdict.condition_rhs
                        guard = 4 * n * 2.0**-53 * (abs(lhs) + abs(rhs))
                        assert abs(lhs - rhs) <= guard / 4, (tid, n, b, k, delta)
        assert ties == 70

    @pytest.mark.parametrize("tid, n, sign", [("1.2", 19, -1), ("1.5", 47, 1)], ids=["ge", "le"])
    def test_guard_is_the_only_slack(self, monkeypatch, tid, n, sign):
        # a radius half a guard on the wrong side of the right-hand side meets
        # the condition, two guards there do not: 1.2 is a >= condition, 1.5 a <=
        g = extremal_gprime(ExtremalParams(n, 1, 1, 3))
        rhs = evaluate_theorem(g, tid, 1, 1, 3).condition_rhs  # cached from here on
        guard = 4 * n * 2.0**-53 * 2 * rhs
        conclusions = []
        for factor in (0.5, 2):
            lhs = rhs + sign * factor * guard
            monkeypatch.setattr(theorems, "spectral_radius", lambda graph, kind: lhs)
            conclusions.append(evaluate_theorem(g, tid, 1, 1, 3).conclusion)
        assert conclusions == [EXTREMAL_EXCEPTION, CONDITION_FAILS]

    @pytest.mark.parametrize("tid, n, b, k, d", [
        ("1.2", 19, 1, 1, 3),
        ("1.3", 19, 1, 1, 3),
        ("1.4", 19, 1, 1, None),
        ("1.5", 47, 1, 1, 3),
        ("1.6", 63, 1, 1, 3),
    ])
    def test_only_the_input_graph_gets_a_matrix(self, monkeypatch, tid, n, b, k, d):
        # both sides of the condition run spectral_radius on their graph's twin
        # quotient: the comparison family once per parameter set, the input
        # once per evaluation; distances come from one Seidel run on the graph
        # induced on the c twin representatives, so no n x n matrix is built
        def refuse(*args):
            raise AssertionError("an n x n graph matrix was built")

        for name in ("distance_matrix", "distance_signless_laplacian_matrix"):
            monkeypatch.setattr(spectral, name, refuse)
        shapes, searched, solved = [], [], []
        solve, distances, radius = spectral._eigvalsh, spectral._distances, spectral_radius

        def counting(matrix):
            shapes.append(matrix.shape)
            return solve(matrix)

        def search(a):
            searched.append(len(a))
            return distances(a)

        def radius_of(h, kind):
            solved.append(h)
            return radius(h, kind)

        monkeypatch.setattr(spectral, "_eigvalsh", counting)
        monkeypatch.setattr(spectral, "_distances", search)
        monkeypatch.setattr(theorems, "spectral_radius", radius_of)
        theorems._comparison.cache_clear()
        theorems.order_bound.cache_clear()

        g = family(*exceptional_layouts_for(tid, n, b, k, d)[0])
        plus = g.with_edge(*next(g.non_edges()))
        # the family is solved on the first evaluation only
        for h, graphs in ((g, [g, g]), (plus, [plus])):
            shapes.clear()
            searched.clear()
            solved.clear()
            assert evaluate_theorem(h, tid, b, k, d).hypotheses_met
            assert solved == graphs
            orders = [len(_twin_classes(x.adjacency_rows)) for x in graphs]
            assert shapes == [(c, c) for c in orders] and max(orders) < n
            assert searched == ([] if tid in ("1.2", "1.3") else orders)
        # G'(47,1,1,3): 3 classes; plus an edge from the big clique to a singleton: 5
        if (tid, n) == ("1.5", 47):
            assert [len(_twin_classes(x.adjacency_rows)) for x in (g, plus)] == [3, 5]

    def test_cached_verdicts_equal_cold_verdicts(self):
        # per parameter set: the extremal family, a supergraph and a subgraph
        # of it at the smallest admissible order and above, and a cycle below
        # the order bound, where the family's layout may not exist
        cases = []
        for tid in THEOREM_IDS:
            for b, k, d in ((1, 1, 2), (1, 1, 3), (3, 1, 2), (1, 2, 4)):
                delta = None if tid == "1.4" else d
                low = math.ceil(order_bound(tid, b, k, delta))
                low += (low - k) % 2
                for n in (low, low + 2):
                    g = family(*exceptional_layouts_for(tid, n, b, k, delta)[0])
                    u, v = next(g.non_edges())
                    x, y = next(iter(g.edges()))
                    for h in (g, g.with_edge(u, v), without_edge(g, x, y)):
                        cases.append((h, tid, b, k, delta))
                cases.append((cycle(k + 4), tid, b, k, d))
        assert any(tid == "1.4" and h.n - b - k - 2 < 1 for h, tid, b, k, _ in cases)

        def verdicts(cold):
            out = []
            for h, tid, b, k, delta in cases:
                if cold:
                    theorems._comparison.cache_clear()
                    theorems.order_bound.cache_clear()
                out.append(evaluate_theorem(h, tid, b, k, delta))
            return out

        cold = verdicts(cold=True)
        # repr spells every float in full, and nan equals nan there
        for warm in (verdicts(cold=False), verdicts(cold=False)):
            assert list(map(repr, warm)) == list(map(repr, cold))
        assert theorems._comparison.cache_info().hits > 0
        assert {v.conclusion for v in cold} == {
            ASSERTS_CRITICAL, CONDITION_FAILS, EXTREMAL_EXCEPTION, INAPPLICABLE}

    def test_invalid_parameters_raise_on_every_call(self):
        for _ in range(2):
            for args in (("1.1", 2, 1, 3), ("1.5", 1, 1, 0)):
                with pytest.raises(ParameterError):
                    order_bound(*args)

    def test_distance_variant_exception(self):
        # both excluded families, K_2 v (K_15 u 2K_1) and K_1 v (K_17 u K_1)
        for layout in exceptional_layouts_for("1.4", 19, 1, 1, None):
            verdict = evaluate_theorem(family(*layout), "1.4", 1, 1)
            assert verdict.conclusion == EXTREMAL_EXCEPTION, layout

    def test_distance_variant_caches_ignore_delta(self):
        # theorem 1.4 ignores delta, so any delta shares one entry per cache
        g = family(2, [15, 1, 1])
        theorems._comparison.cache_clear()
        theorems.order_bound.cache_clear()
        verdicts = {repr(evaluate_theorem(g, "1.4", 1, 1, d)) for d in (None, 3, 4, 5)}
        assert len(verdicts) == 1 and EXTREMAL_EXCEPTION in verdicts.pop()
        for cache in (theorems.order_bound, theorems._comparison):
            info = cache.cache_info()
            assert (info.misses, info.currsize) == (1, 1)

    def test_b_ge_k_gate(self):
        g = extremal_gprime(ExtremalParams(62, 1, 2, 4))
        verdict = evaluate_theorem(g, "1.6", 1, 2, 4)
        assert verdict.conclusion == INAPPLICABLE
        assert not verdict.hypotheses["factor_bound_dominates"]

    def test_min_degree_gate(self):
        verdict = evaluate_theorem(make_complete(19), "1.1", 1, 1, 3)
        assert verdict.conclusion == INAPPLICABLE
        assert not verdict.hypotheses["min_degree"]

    def test_parity_gate(self):
        verdict = evaluate_theorem(make_complete(20), "1.1", 1, 1, 19)
        assert not verdict.hypotheses["parity"]


class TestSpectralBoundChecks:
    def test_gstar_ordering(self):
        assert gstar_ordering_check(19, 1, 1)
        assert gstar_ordering_check(25, 3, 1)

    @pytest.mark.parametrize(
        "n,b,k", [(13, 1, 1), (20, 1, 2), (34, 1, 2), (27, 3, 1), (40, 3, 2), (39, 5, 1)]
    )
    def test_gstar_ordering_sampled(self, n, b, k):
        assert gstar_ordering_check(n, b, k)

    def test_gstar_ordering_bad_params(self):
        with pytest.raises(ParameterError):
            gstar_ordering_check(5, 1, 1)

    @pytest.mark.parametrize("tup", [(19, 1, 1, 3), (31, 1, 1, 2), (47, 1, 1, 3)])
    def test_interlacing_bound(self, tup):
        n, b, k, d = tup
        p = ExtremalParams(n, b, k, d)
        assert interlacing_bound_check(p)
        mu = spectral_radius(extremal_gprime(p), "distance")
        assert mu >= n - b * d + b * k - 2 - 1e-8

    def test_eta_lower_bound(self):
        assert eta_lower_bound_check(ExtremalParams(31, 1, 1, 2)) is True
        assert eta_lower_bound_check(ExtremalParams(63, 1, 1, 3)) is True
        # below the order gate: inapplicable, not failure
        assert eta_lower_bound_check(ExtremalParams(29, 1, 1, 2)) is None
        assert eta_lower_bound_check(ExtremalParams(61, 1, 1, 3)) is None  # gate is 62


class TestOrderingLemmas:
    def test_flattening_increases_distance_radius(self):
        assert ordering_lemma_check("2.8", 2, [3, 3, 1], 1) is True

    def test_flattening_decreases_qd_radius(self):
        assert ordering_lemma_check("2.9", 2, [3, 3, 1]) is True

    def test_qd_equality_on_flattened_parts(self):
        assert ordering_lemma_check("2.9", 2, [5, 1, 1]) is True

    def test_block_flattening(self):
        assert ordering_lemma_check("2.10", 1, [5, 2, 1], 1) is True

    def test_hypothesis_violations_are_inapplicable(self):
        assert ordering_lemma_check("2.8", 2, [5, 1, 1], 1) is None  # n1 not < n-s-p(t-1)
        assert ordering_lemma_check("2.8", 2, [3, 3, 1], None) is None
        assert ordering_lemma_check("2.10", 3, [5, 1], 1) is None  # t < s+1
        assert ordering_lemma_check("2.10", 1, [4, 1], 1) is None  # n1 < 5p

    def test_unsorted_parts_rejected(self):
        with pytest.raises(ParameterError):
            ordering_lemma_check("2.9", 1, [1, 3])

    def test_unknown_lemma(self):
        with pytest.raises(ParameterError):
            ordering_lemma_check("2.11", 1, [3, 1])


class TestSweep:
    def test_extremal_base_confirmed_exception(self):
        p = ExtremalParams(19, 1, 1, 3)
        report = counterexample_sweep([("base", extremal_gprime(p))], 1, 1, 3, "1.1")
        (record,) = report.records
        assert record["conclusion"] == EXTREMAL_EXCEPTION
        assert record["brute_force_verdict"] is False
        assert record["witness"] == [0, 1, 2]
        assert not report.falsifications

    def test_empty_corpus(self):
        report = counterexample_sweep([], 1, 1, 3, "1.1")
        assert report.records == [] and not report.falsifications

    def test_every_record_carries_full_schema(self):
        p = ExtremalParams(13, 1, 1, 3)
        # bound 18 > 13: inapplicable, so the brute force never runs
        report = counterexample_sweep([("g", extremal_gprime(p))], 1, 1, 3, "1.1")
        (record,) = report.records
        for key in ("graph_id", "theorem_id", "hypotheses", "condition_met",
                    "condition_lhs", "condition_rhs", "conclusion",
                    "brute_force_verdict", "witness", "falsification"):
            assert key in record
        assert record["brute_force_verdict"] is None and record["witness"] is None

    def test_cap_violation_recorded_not_fatal(self):
        g = extremal_gprime(ExtremalParams(47, 1, 1, 3))
        report = counterexample_sweep([("big", g)], 1, 1, 3, "1.5", cap=22)
        (record,) = report.records
        assert record["brute_force_verdict"] is None
        assert "error" in record
        assert not report.falsifications
        assert report.unconfirmed == [record]
        assert report.as_dict()["unconfirmed_count"] == 1

    def test_one_edge_supergraphs_count(self):
        g = extremal_gprime(ExtremalParams(19, 1, 1, 3))
        supers = one_edge_supergraphs(g)
        assert len(supers) == 19 * 18 // 2 - 129 == 42
        assert all(h.edge_count() == 130 for _, h in supers)

    def test_small_sweep_confirms_criticality(self):
        # 13-vertex analogue keeps the brute force fast: use the size variant
        # bound n >= 18 fails at 13, so pick theorem 1.2 (bound 8 or 10)
        p = ExtremalParams(13, 1, 1, 2)
        corpus = [("base", extremal_gprime(p))] + one_edge_supergraphs(extremal_gprime(p))[:6]
        report = counterexample_sweep(corpus, 1, 1, 2, "1.2")
        assert not report.falsifications
        conclusions = {r["graph_id"]: r["conclusion"] for r in report.records}
        assert conclusions["base"] == EXTREMAL_EXCEPTION
        asserted = [r for r in report.records if r["conclusion"] == ASSERTS_CRITICAL]
        assert asserted and all(r["brute_force_verdict"] for r in asserted)

    @settings(max_examples=400)
    @given(st.dictionaries(st.text(max_size=4), _JSON_VALUES, max_size=5))
    def test_report_json_matches_json_dumps(self, payload):
        assert theorems.report_json(payload) == report_json_via_dumps(payload)

    @pytest.mark.parametrize("payload", [
        7, "top", pytest.param({"t": True, "f": False}, id="payload2"),
        pytest.param([1.0, (2.5,)], id="payload6"),
    ])
    def test_report_json_keys_and_top_level_values_as_json(self, payload):
        assert theorems.report_json(payload) == report_json_via_dumps(payload)

    @pytest.mark.parametrize("payload", [
        {"a": np.float64(0.5)}, {"a": [TextSubclass("é")]}, {"a": FloatSubclass(0.1)},
        {"a": INT_MEMBER}, {TextSubclass("k"): 1}, {1: "a", 20: "b"}, {0.5: 1}, {True: 1},
        {None: 0},
    ], ids=["numpy_float", "str_subclass", "float_subclass", "int_enum", "str_subclass_key",
            "int_keys", "float_key", "bool_key", "none_key"])
    def test_report_json_takes_only_the_types_reports_hold(self, payload):
        # json.dumps writes each of these; a report never holds one
        report_json_via_dumps(payload)
        with pytest.raises(TypeError):
            theorems.report_json(payload)

    @pytest.mark.parametrize("payload", [
        {"a": np.int64(3)}, {"a": [1, {"b": {1, 2}}]}, {"a": frozenset()}, {"a": np.bool_(True)},
        {(1, 2): 0}, {1: 0, "a": 1}, {"a": object()},
    ])
    def test_report_json_rejects_what_json_rejects(self, payload):
        with pytest.raises(TypeError):
            report_json_via_dumps(payload)
        with pytest.raises(TypeError):
            theorems.report_json(payload)

    def test_report_json_stable(self):
        p = ExtremalParams(13, 1, 1, 2)
        corpus = [("base", extremal_gprime(p))]
        a = counterexample_sweep(corpus, 1, 1, 2, "1.2").to_json()
        b = counterexample_sweep(corpus, 1, 1, 2, "1.2").to_json()
        assert a == b
        payload = json.loads(a)
        assert payload["falsification_count"] == 0
        assert payload["records"][0]["theorem_id"] == "1.2"
