"""Lemma checks on the extremal families that only the tests use.

Each compares spectral radii of join families, each family built by
``family`` and solved by ``spectral_radius`` as the theorem evaluators do.
"""
from __future__ import annotations

from typing import Optional, Sequence

from oddcrit.errors import ParameterError
from oddcrit.graphs import ExtremalParams, family, g_star
from oddcrit.spectral import spectral_radius
from oddcrit.theorems import exceptional_layouts_for

#: margin by which the ordering lemmas' strict inequalities must hold
_STRICT_MARGIN = 1e-9
#: radii within this of each other count as equal in Lemma 2.9
_EQUALITY = 1e-8


def gstar_ordering_check(n: int, b: int, k: int) -> bool:
    """Strict radius ordering of the one-extra-edge graph between two families.

    Checks mu1(K_{k+1} v (K_{n-b-k-2} u (b+1)K_1)) < mu1(G*) <
    mu1(K_{k+2} v (K_{n-2b-k-3} u (2b+1)K_1)), each by a margin of 1e-9.
    """
    star = g_star(n, b, k)
    wide = exceptional_layouts_for("1.4", n, b, k, None)[0]
    mu_wide = spectral_radius(family(*wide), "distance")
    mu_star = spectral_radius(star, "distance")
    mu_narrow = spectral_radius(
        family(k + 2, [n - 2 * b - k - 3] + [1] * (2 * b + 1)), "distance"
    )
    return mu_wide < mu_star - 1e-9 and mu_star < mu_narrow - 1e-9


def interlacing_bound_check(p: ExtremalParams) -> bool:
    """mu1 of the extremal family is at least n - b*delta + b*k - 2, within 1e-8.

    The join cell and the big clique together induce a complete subgraph of
    order n - b*delta + b*k - 1, and distance spectra interlace.
    """
    mu = spectral_radius(family(*p.layout("gprime")), "distance")
    return mu >= p.n - p.b * p.delta + p.b * p.k - 2 - 1e-8


def eta_lower_bound_check(p: ExtremalParams) -> Optional[bool]:
    """Whether eta1 of the extremal family exceeds 2n + 4b*delta - 4b*k + 1 by 1e-9.

    Applies only when n >= 2(b^2+2b)delta^2 + 2delta + 2b^2k^2 (the regime in
    which the 4W/n lower bound gives this); returns None when inapplicable.
    """
    s, parts = p.layout("gprime")  # validates
    n, b, k, d = p.n, p.b, p.k, p.delta
    if n < 2 * (b * b + 2 * b) * d * d + 2 * d + 2 * b * b * k * k:
        return None
    eta = spectral_radius(family(s, parts), "distance_signless_laplacian")
    return eta > 2 * n + 4 * b * d - 4 * b * k + 1 + 1e-9


def ordering_lemma_check(
    lemma_id: str,
    s: int,
    parts: Sequence[int],
    p: Optional[int] = None,
) -> Optional[bool]:
    """Radius comparisons between a join family and its flattened counterpart.

    '2.8': with n_1 >= ... >= n_t >= p >= 1 and n_1 < n - s - p(t-1), the
    distance radius strictly exceeds that of K_s v (K_{n-s-p(t-1)} u (t-1)K_p).
    '2.9': the distance-signless-Laplacian radius is >= that of
    K_s v (K_{n-s-t+1} u (t-1)K_1), with equality only for identical parts.
    '2.10': same comparison against K_s v (K_{n-s-p(t-1)} u (t-1)K_p) under
    n_1 >= 5p and t >= s+1.  Returns None when a lemma's hypotheses fail.
    """
    parts = list(parts)
    if s < 0 or not parts or any(x < 1 for x in parts):
        raise ParameterError("need s >= 0 and nonempty positive parts")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ParameterError("parts must be sorted in nonincreasing order")
    t = len(parts)
    n = s + sum(parts)

    if lemma_id == "2.8":
        if p is None or p < 1 or parts[-1] < p:
            return None
        big = n - s - p * (t - 1)
        if parts[0] >= big:
            return None
        lhs = spectral_radius(family(s, parts), "distance")
        rhs = spectral_radius(family(s, [big] + [p] * (t - 1)), "distance")
        return lhs > rhs + _STRICT_MARGIN

    if lemma_id == "2.9":
        flat = [n - s - t + 1] + [1] * (t - 1)
    elif lemma_id == "2.10":
        if p is None or p < 1 or parts[-1] < p or parts[0] < 5 * p or t < s + 1:
            return None
        flat = [n - s - p * (t - 1)] + [p] * (t - 1)
    else:
        raise ParameterError(f"unknown lemma id {lemma_id!r}")

    lhs = spectral_radius(family(s, parts), "distance_signless_laplacian")
    rhs = spectral_radius(family(s, flat), "distance_signless_laplacian")
    if sorted(parts, reverse=True) == sorted(flat, reverse=True):
        return abs(lhs - rhs) <= _EQUALITY
    return lhs > rhs + _STRICT_MARGIN
