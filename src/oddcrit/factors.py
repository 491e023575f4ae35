"""Existence of odd factors and k-criticality by odd-component counting.

A spanning subgraph in which every degree lies in {1, 3, ..., b} (b odd) is an
odd factor with bound b.  A graph is k-critical for that property when the
factor survives the deletion of any k vertices.  By Amahashi's criterion, G
has the factor iff o(G - T) <= b|T| for every T; applied to G - X for each
k-set X, with S = X + T, the factor exists after deleting any k vertices iff

    o(G - S)  <=  b(|S| - k)

holds for every S with |S| >= k.  The checker below enumerates S in
increasing size with early exit, which is exact.

Most sizes need no enumeration.  Every odd component of G - S holds a vertex
and those vertices are pairwise non-adjacent, so o(G - S) <= n - |S| and
o(G - S) <= alpha(G) <= theta, the number of cliques in any clique cover of G.
Once min(n - s, theta) <= b(s - k), no S of size s or larger can violate the
criterion, and the scan stops.  theta comes from one greedy clique cover per
scan.  Below the vertex connectivity kappa, G - S stays connected, so
o(G - S) <= 1 <= b(s - k) for k < s < kappa, and o(G - S) = 0 at s = k when
n - k is even: those sizes are skipped.  Whether s < kappa is decided by one
polynomial Menger test (G is (s+1)-connected) for each size the scan reaches
that the test could skip, until one fails.

Twins shrink the sizes that are left.  Vertices with one closed or one open
neighbourhood can be swapped by an automorphism, which keeps o(G - S); at
size k the bound of every S is 0, so that size is scanned one S per orbit:
the S taking the lowest-labelled members of every twin class.  Above size k
the first violating S never splits a class: if it held v but not v's twin u,
then u has all of v's neighbours in G - (S - v), so o(G - (S - v)) >=
o(G - S) - 1 while the bound drops by b >= 1, and the smaller S - v would
violate too.  Those sizes are scanned over unions of whole twin classes.
The cost is then set by the number of classes, not by n: the one-edge
supergraphs of the paper's extremal graphs have a handful of twin classes
and are decided from a few subsets each, at 47 vertices as at 271.  Graphs
without twins still cost sum C(n, s) over the open sizes, hence the default
order cap.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Optional

from .errors import ParameterError, ScaleLimitError
from .graphs import (
    Graph,
    _bits,
    _integer,
    _k_connected,
    _odd_components,
    _twin_classes,
)

#: default cap on the order of graphs accepted for exhaustive subset enumeration
ENUMERATION_CAP = 22


@dataclass(frozen=True)
class CriticalityVerdict:
    """Outcome of the odd-component criterion.

    ``witness`` is a violating vertex set S (present iff not critical);
    ``subsets_examined`` counts the subsets actually tested: none on sizes
    settled without a scan, one per twin orbit at size k and one per union of
    whole twin classes above it (see ``_find_violation``).  ``critical`` is
    None when a search bounded by ``max_size`` found no witness.
    """

    critical: Optional[bool]
    witness: Optional[frozenset[int]]
    subsets_examined: int


def _clique_cover_size(adj, n: int) -> int:
    """Number of cliques in a greedy clique cover of the graph with rows ``adj``.

    Each clique starts at an uncovered vertex of minimum degree and grows
    inside its uncovered neighbourhood, taking the candidate adjacent to the
    most other candidates.  Candidates that already form a clique would all
    be taken one by one, so they are taken at once.  Any cover bounds the
    independence number.  Degrees are those of the whole graph and never
    change, so the starts come from one stable sort by degree: the first
    uncovered vertex in it has minimum degree and the lowest label among
    those.
    """
    uncovered = (1 << n) - 1
    degree = list(map(int.bit_count, adj))
    cliques = 0
    for v in sorted(range(n), key=degree.__getitem__):
        if not uncovered >> v & 1:
            continue
        clique = 1 << v
        candidates = adj[v] & uncovered
        while candidates:
            ws = list(_bits(candidates))
            counts = [(adj[w] & candidates).bit_count() for w in ws]
            if min(counts) == len(ws) - 1:
                clique |= candidates
                break
            u = ws[counts.index(max(counts))]
            clique |= 1 << u
            candidates &= adj[u]
        uncovered &= ~clique
        cliques += 1
    return cliques


def _twin_layout(adj):
    """The twin partition (``graphs._twin_classes``) as ``(cls, prefixes, wholes)``.

    ``cls[v]`` is the mask of v's class, ``1 << v`` when v has no twin, and
    ``prefixes`` and ``wholes`` are the ``(heads, ones)`` of the two kinds
    of subsets that ``_canonical_subsets`` walks: every v heads the prefix
    of its class up to v, a single vertex when v is the lowest member, and
    the top member of every class heads the whole class, a single vertex
    for a class of one.  In a graph without twins every vertex heads a
    block of its own, in both kinds.  Each class mask is built once from
    its member list, and the layout is one list of n references to them.
    """
    cls = [0] * len(adj)
    firsts = tops = 0
    for m in _twin_classes(adj).values():
        c = sum(1 << v for v in m)
        for v in m:
            cls[v] = c
        firsts |= 1 << m[0]
        tops |= 1 << m[-1]
    return cls, ((1 << len(adj)) - 1, firsts), (tops, firsts & tops)


def _canonical_subsets(avail: int, size: int, cls, heads: int, ones: int):
    """Size-subsets of ``avail`` made of blocks from distinct twin classes, in increasing order.

    The block headed by h is the prefix of h's class up to h, which is the
    whole class when h is its top member; ``heads`` are the vertices that
    head a block, ``ones`` those whose block is h alone (see
    ``_twin_layout``).  With ``avail`` closed under taking lower members of
    a class, subsets are ordered by their largest member h first; h brings
    the rest of its block along, and the remainder is a smaller such subset
    below h and outside h's class.  The walk runs in one frame.  A level
    (the heads ``rem`` left to try, the blocks ``acc`` chosen above it, the
    ``need`` vertices still to choose from ``avail``) waits on ``stack``
    while the subsets below its current head are walked.  A generator per
    level would pass every subset through each frame, which made twin-free
    scans about 16 % slower.
    """
    if not size:
        yield 0
        return
    stack = []
    rem, acc, need = avail & heads, 0, size
    while True:
        while rem:
            low = rem & -rem
            rem ^= low
            c = cls[low.bit_length() - 1]
            block = c & ((low << 1) - 1)
            left = need - block.bit_count()
            if left == 1:
                # one more block, of a single vertex
                top = acc | block
                singles = avail & (low - 1) & ~c & ones
                while singles:
                    one = singles & -singles
                    yield top | one
                    singles ^= one
            elif left == 0:
                yield acc | block
            elif left > 0:
                rest = avail & (low - 1) & ~c
                if rest.bit_count() >= left:
                    stack.append((rem, acc, need, avail))
                    rem, acc, need, avail = rest & heads, acc | block, left, rest
        if not stack:
            return
        rem, acc, need, avail = stack.pop()


def _find_violation(
    g: Graph,
    b: int,
    k: int,
    *,
    cap: int,
    max_size: Optional[int] = None,
):
    """First S (by size, then numeric bitmask order) with o(G - S) > b(|S| - k).

    Returns ``(mask, examined)``, with ``mask`` None when no S violates it.
    S ranges over k <= |S| <= n-1: deleting everything leaves no components, so
    S = V can never violate and is skipped.  The scan ends at the first size s
    with min(n - s, theta) <= b(s - k), theta the greedy clique cover size:
    o(G-S) is at most both, and the bound b(s - k) only grows with s.  It also
    skips the sizes k < s < kappa, and s = k when kappa > k and n - k is
    even: G - S is connected there, with even order at s = k.  On every size
    it enumerates, it uses the twin classes (see ``_twin_layout``): at size k
    it tests one S per orbit of the twin swaps, the one taking the lowest
    members of every class, which is the numerically first of its orbit;
    above size k it tests the unions of whole classes, as the first
    violating S never splits a class there.  Without twins every class is a
    single vertex, and every S of the size is tested.  So the first
    violating S is among those tested.  ``examined`` counts the subsets
    tested.  Theta, the kappa tests and the classes are computed only when a
    size needs them.
    """
    n = g.n
    cap = _integer(cap, "cap")
    if n > cap:
        raise ScaleLimitError(
            f"graph order {n} exceeds the enumeration cap {cap}; "
            "raise the cap explicitly to run anyway"
        )
    adj = g.adjacency_rows
    full = (1 << n) - 1
    top = n - 1 if max_size is None else min(max_size, n - 1)
    theta = 0
    # whether size < kappa, tested only for the sizes it could skip
    below_kappa = True
    # twin classes, found at the first size the scan enumerates
    twins = None
    examined = 0
    for size in range(k, top + 1):
        bound = b * (size - k)
        if n - size <= bound:
            break
        # at size k the bound is 0, which theta >= 1 never meets
        if size > k:
            theta = theta or _clique_cover_size(adj, n)
            if theta <= bound:
                break
        if size > k or (n - size) % 2 == 0:
            below_kappa = below_kappa and size + 1 < n and _k_connected(adj, size + 1)
            if below_kappa:
                continue
        if twins is None:
            twins = _twin_layout(adj)
        cls, prefixes, wholes = twins
        for mask in _canonical_subsets(full, size, cls, *(prefixes if size == k else wholes)):
            examined += 1
            if _odd_components(adj, full & ~mask, bound) > bound:
                return mask, examined
    return None, examined


def _bounds(b, k) -> tuple[int, int]:
    """The odd factor bound ``b`` and the criticality order ``k``, checked in that order.

    Each must have ``__index__``, as for ``operator.index``: a float, a
    string or a sequence is a ParameterError, not a bound or an order.
    """
    if not hasattr(type(b), "__index__") or b < 1 or b % 2 == 0:
        raise ParameterError(f"factor bound {b} must be a positive odd integer")
    k = _integer(k, "criticality order k")
    if k < 0:
        raise ParameterError(f"criticality order k={k} must be >= 0")
    return index(b), k


def is_k_critical(
    g: Graph,
    b: int,
    k: int = 0,
    *,
    cap: int = ENUMERATION_CAP,
    max_size: Optional[int] = None,
) -> CriticalityVerdict:
    """Whether deleting any k vertices leaves a graph with an odd factor with bound b.

    ``b`` is a positive odd integer.  Exact check of o(G - S) <= b(|S| - k)
    over all S with |S| >= k, in increasing size with early exit on the first
    violation; the witness of a negative verdict is the first violating set
    in (size, numeric) order.  Sizes that cannot hold a violation are
    skipped; size k is scanned one S per orbit of the twin swaps and the
    larger sizes over unions of whole twin classes, which leaves verdict and
    witness those of the scan over every subset.  ``max_size`` limits the
    search to k <= |S| <= max_size: the verdict is then non-critical with a
    witness, or ``critical=None`` when none was found; it never certifies
    criticality.
    """
    b, k = _bounds(b, k)
    if g.n < k + 2:
        raise ParameterError(f"criticality needs n >= k+2, got n={g.n}, k={k}")
    if max_size is not None:
        max_size = _integer(max_size, "max_size")
        if max_size < k:
            raise ParameterError(f"max_size={max_size} is below k={k}: no set S would be searched")
    mask, examined = _find_violation(g, b, k, cap=cap, max_size=max_size)
    if mask is not None:
        return CriticalityVerdict(False, frozenset(_bits(mask)), examined)
    return CriticalityVerdict(None if max_size is not None else True, None, examined)
