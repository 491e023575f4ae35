"""Existence of odd factors and k-criticality by odd-component counting.

A spanning subgraph in which every degree lies in {1, 3, ..., b} (b odd) is an
odd factor with bound b.  A graph is k-critical for that property when the
factor survives the deletion of any k vertices.  Both questions reduce to an
odd-component inequality: the factor exists after deleting any k vertices iff

    o(G - S)  <=  sum_{v in S} f(v)  -  max{ sum_{v in X} f(v) : X <= S, |X| = k }

holds for every S with |S| >= k (for constant f == b the right side is
b(|S| - k)).  The checkers below enumerate S exhaustively in increasing size
with early exit, which is exact and fast enough up to ~22 vertices; a
backtracking search over edge subsets provides an independent constructive
oracle at very small scale.

Most sizes need no enumeration.  Every odd component of G - S holds a vertex
and those vertices are pairwise non-adjacent, so o(G - S) <= n - |S| and
o(G - S) <= alpha(G) <= theta, the number of cliques in any clique cover of G.
Once min(n - s, theta) <= min(f) * (s - k), no S of size s or larger can
violate the criterion, and the scan stops.  theta comes from one greedy clique
cover per scan.  Below the vertex connectivity kappa, G - S stays connected,
so o(G - S) <= 1 <= min(f) * (s - k) for k < s < kappa, and o(G - S) = 0 at
s = k when n - k is even: those sizes are skipped.  Whether s < kappa is
decided by one polynomial Menger test (G is (s+1)-connected) for each size
the scan reaches, until one fails.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence, Union

from .errors import ParameterError, ScaleLimitError
from .graphs import ExtremalParams, Graph, _bits, _component_mask, _k_connected

#: default cap on the order of graphs accepted for exhaustive subset enumeration
ENUMERATION_CAP = 22

#: size limits of the constructive odd-factor search
ORACLE_MAX_VERTICES = 12
ORACLE_MAX_EDGES = 24


@dataclass(frozen=True)
class FactorSpec:
    """Per-vertex odd degree bounds and a criticality order.

    ``f`` is either one odd positive integer (the constant [1,b] case) or a
    per-vertex sequence of odd positive integers.
    """

    f: Union[int, tuple[int, ...]]
    k: int = 0

    def __post_init__(self):
        values = (self.f,) if isinstance(self.f, int) else tuple(self.f)
        if not values:
            raise ParameterError("factor bounds must be nonempty")
        for x in values:
            if x < 1 or x % 2 == 0:
                raise ParameterError(f"factor bound {x} must be a positive odd integer")
        if self.k < 0:
            raise ParameterError(f"criticality order k={self.k} must be >= 0")
        if not isinstance(self.f, int):
            object.__setattr__(self, "f", values)

    def values_for(self, n: int) -> tuple[int, ...]:
        if isinstance(self.f, int):
            return (self.f,) * n
        if len(self.f) != n:
            raise ParameterError(
                f"per-vertex bounds cover {len(self.f)} vertices, graph has {n}"
            )
        return self.f


@dataclass(frozen=True)
class CriticalityVerdict:
    """Outcome of the odd-component criterion.

    ``witness`` is a violating vertex set S (present iff not critical);
    ``subsets_examined`` counts the subsets actually tested.  ``critical`` is
    None when a search bounded by ``max_size`` found no witness.
    """

    critical: Optional[bool]
    witness: Optional[frozenset[int]]
    subsets_examined: int


def _subsets_of_size(n: int, size: int):
    """All size-subsets of {0..n-1} as bitmasks, in increasing numeric order."""
    if size == 0:
        yield 0
        return
    v = (1 << size) - 1
    limit = 1 << n
    while v < limit:
        yield v
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r


def _odd_components_bounded(adj, alive: int, bound: int) -> int:
    """Odd components among ``alive``, scanning only until a verdict is known.

    Returns the exact count unless it can stop early: once the count exceeds
    ``bound`` (violation certain) or once the remaining vertices cannot push
    it above ``bound`` (compliance certain, returns a value <= bound).
    """
    odd = 0
    rem = alive
    while rem:
        if odd > bound:
            return odd
        if odd + rem.bit_count() <= bound:
            return odd
        comp = _component_mask(adj, rem & -rem, rem)
        rem ^= comp
        odd += comp.bit_count() & 1
    return odd


def _clique_cover_size(adj, n: int) -> int:
    """Number of cliques in a greedy clique cover of the graph with rows ``adj``.

    Each clique starts at an uncovered vertex of minimum degree and grows
    inside its uncovered neighbourhood, taking the candidate adjacent to the
    most other candidates.  Any cover bounds the independence number.
    """
    uncovered = (1 << n) - 1
    cliques = 0
    while uncovered:
        v = min(_bits(uncovered), key=lambda u: adj[u].bit_count())
        clique = 1 << v
        candidates = adj[v] & uncovered
        while candidates:
            u = max(_bits(candidates), key=lambda w: (adj[w] & candidates).bit_count())
            clique |= 1 << u
            candidates &= adj[u]
        uncovered &= ~clique
        cliques += 1
    return cliques


def _find_violation(
    g: Graph,
    fvals: Sequence[int],
    k: int,
    *,
    cap: int,
    skip_settled_sizes: bool,
    max_size: Optional[int] = None,
):
    """First S (by size, then numeric bitmask order) violating the criterion.

    Returns ``(mask, examined)``, with ``mask`` None when no S violates it.
    S ranges over k <= |S| <= n-1: deleting everything leaves no components, so
    S = V can never violate and is skipped.  When ``skip_settled_sizes`` is on,
    the scan ends at the first size s with min(n - s, theta) <= min(f) * (s - k),
    theta the greedy clique cover size: o(G-S) is at most both, and each S of
    size s has a bound of at least min(f) * (s - k), which only grows with s.
    It also skips the sizes k < s < kappa, and s = k when kappa > k and n - k
    is even: G - S is connected there, with even order at s = k.
    """
    n = g.n
    if n > cap:
        raise ScaleLimitError(
            f"graph order {n} exceeds the enumeration cap {cap}; "
            "raise the cap explicitly to run anyway"
        )
    adj = g.adjacency_rows
    full = (1 << n) - 1
    constant = len(set(fvals)) <= 1
    fmin = min(fvals) if fvals else 1
    top = n - 1 if max_size is None else min(max_size, n - 1)
    theta = _clique_cover_size(adj, n) if skip_settled_sizes else n
    # whether size < kappa, tested only for the sizes the scan reaches
    below_kappa = skip_settled_sizes
    examined = 0
    for size in range(k, top + 1):
        if skip_settled_sizes and min(n - size, theta) <= fmin * (size - k):
            break
        below_kappa = below_kappa and size + 1 < n and _k_connected(adj, size + 1)
        if below_kappa and (size > k or (n - size) % 2 == 0):
            continue
        bound = fvals[0] * (size - k) if constant else None
        for mask in _subsets_of_size(n, size):
            examined += 1
            if not constant:
                chosen = sorted((fvals[i] for i in _bits(mask)), reverse=True)
                bound = sum(chosen) - sum(chosen[:k])
            odd = _odd_components_bounded(adj, full & ~mask, bound)
            if odd > bound:
                return mask, examined
    return None, examined


def _as_spec(f, k: Optional[int]) -> FactorSpec:
    """``f`` (an odd bound, per-vertex bounds or a FactorSpec) with order ``k``.

    A FactorSpec keeps its own k; passing a different explicit ``k`` with it
    is an error.  Plain bounds take ``k``, or 0 when it is None.
    """
    if isinstance(f, FactorSpec):
        if k is not None and f.k != k:
            raise ParameterError(f"factor spec has k={f.k}, expected k={k}")
        return f
    return FactorSpec(f, 0 if k is None else k)


def has_odd_factor(g: Graph, f, *, cap: int = ENUMERATION_CAP) -> bool:
    """Whether G has a spanning subgraph with every degree odd and <= f(v).

    ``f`` is an odd integer bound, a per-vertex sequence, or a FactorSpec with
    k=0.  Decided by exhaustive subset enumeration (S = empty set alone forces
    o(G) = 0, so odd-order graphs always fail).
    """
    spec = _as_spec(f, 0)
    if g.n == 0:
        return True
    mask, _ = _find_violation(
        g, spec.values_for(g.n), 0, cap=cap, skip_settled_sizes=True
    )
    return mask is None


def is_k_critical(
    g: Graph,
    f,
    k: Optional[int] = None,
    *,
    cap: int = ENUMERATION_CAP,
    skip_settled_sizes: bool = True,
    max_size: Optional[int] = None,
) -> CriticalityVerdict:
    """Whether deleting any k vertices leaves a graph with an odd factor.

    ``f`` is an odd bound, per-vertex bounds, or a FactorSpec (whose k must
    agree with an explicit ``k``).  Exhaustive check of the odd-component
    criterion over all S with |S| >= k, in increasing size with early exit on
    the first violation; the witness of a negative verdict is the first
    violating set in (size, numeric) order.  ``skip_settled_sizes=False``
    forces the literal full scan.  ``max_size`` limits the search to
    k <= |S| <= max_size: the verdict is then non-critical with a witness, or
    ``critical=None`` when none was found; it never certifies criticality.
    """
    spec = _as_spec(f, k)
    if g.n < spec.k + 2:
        raise ParameterError(f"criticality needs n >= k+2, got n={g.n}, k={spec.k}")
    if max_size is not None and max_size < spec.k:
        raise ParameterError(f"max_size={max_size} is below k={spec.k}: no set S would be searched")
    mask, examined = _find_violation(
        g,
        spec.values_for(g.n),
        spec.k,
        cap=cap,
        skip_settled_sizes=skip_settled_sizes,
        max_size=max_size,
    )
    if mask is not None:
        return CriticalityVerdict(False, frozenset(_bits(mask)), examined)
    return CriticalityVerdict(None if max_size is not None else True, None, examined)


def is_k_critical_definitional(g: Graph, b: int, k: int, *, cap: int = ENUMERATION_CAP) -> bool:
    """Definitional route: every k-vertex deletion leaves a graph with an odd factor.

    Exponentially slower than the criterion route; used as the agreement
    cross-check at small scale.
    """
    if k < 0:
        raise ParameterError(f"criticality order k={k} must be >= 0")
    if g.n < k + 2:
        raise ParameterError(f"criticality needs n >= k+2, got n={g.n}, k={k}")
    for removal in combinations(range(g.n), k):
        if not has_odd_factor(g.without_vertices(removal), b, cap=cap):
            return False
    return True


def criticality_witness_extremal(p: ExtremalParams) -> frozenset[int]:
    """The join cell of the main extremal family as a criticality violation.

    Deleting those delta vertices leaves the big clique (odd order, forced by
    the parity constraints) plus b*delta - b*k + 1 isolated vertices, so
    o(G'-S) = b*delta - b*k + 2 > b*(delta - k): the family is never k-critical.
    """
    p.gprime_parts()  # validates
    return frozenset(range(p.delta))


def find_odd_factor(g: Graph, b: int) -> Optional[tuple[tuple[int, int], ...]]:
    """Constructive oracle: an edge set whose spanning subgraph has all degrees
    odd and <= b, or None if no such subgraph exists.

    Depth-first search over edges with degree-parity pruning; capped at
    12 vertices / 24 edges, which is all the oracle is meant for.
    """
    if b < 1 or b % 2 == 0:
        raise ParameterError(f"bound b={b} must be a positive odd integer")
    n = g.n
    edges = sorted(g.edges())
    if n > ORACLE_MAX_VERTICES or len(edges) > ORACLE_MAX_EDGES:
        raise ScaleLimitError(
            f"oracle scale: limited to n <= {ORACLE_MAX_VERTICES} and "
            f"e <= {ORACLE_MAX_EDGES}, got n={n}, e={len(edges)}"
        )
    if n == 0:
        return ()
    if any(d == 0 for d in g.degrees()):
        return None
    remaining = g.degrees()
    deg = [0] * n
    chosen: list[tuple[int, int]] = []

    def feasible(v: int) -> bool:
        # v still needs an odd final degree: an even current degree requires
        # at least one undecided incident edge (the jump to b+1 cannot occur
        # because b is odd).
        return deg[v] % 2 == 1 or remaining[v] >= 1

    def search(i: int) -> bool:
        if i == len(edges):
            return all(d % 2 == 1 for d in deg)
        u, v = edges[i]
        remaining[u] -= 1
        remaining[v] -= 1
        if deg[u] < b and deg[v] < b:
            deg[u] += 1
            deg[v] += 1
            if feasible(u) and feasible(v):
                chosen.append((u, v))
                if search(i + 1):
                    return True
                chosen.pop()
            deg[u] -= 1
            deg[v] -= 1
        if feasible(u) and feasible(v) and search(i + 1):
            return True
        remaining[u] += 1
        remaining[v] += 1
        return False

    return tuple(chosen) if search(0) else None
