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
scan, computed at the first size where it could stop the scan: alpha is at
least the size of any set of pairwise non-adjacent twins, so while one is
larger than b(s - k), theta is too.  Below the vertex connectivity kappa,
G - S stays connected, so o(G - S) <= 1 <= b(s - k) for k < s < kappa, and
o(G - S) = 0 at s = k when n - k is even: those sizes are skipped.  Whether
s < kappa is decided by one polynomial Menger test (G is (s+1)-connected) for
each size the scan reaches that the test could skip, until one fails.

Twins shrink the sizes that are left.  Vertices with one closed or one open
neighbourhood can be swapped by an automorphism, which keeps o(G - S); at
size k the bound of every S is 0, so that size is scanned one S per orbit:
the S taking the lowest-labelled members of every twin class.  Above size k
the first violating S never splits a class: if it held v but not v's twin u,
then u has all of v's neighbours in G - (S - v), so o(G - (S - v)) >=
o(G - S) - 1 while the bound drops by b >= 1, and the smaller S - v would
violate too.  Those sizes are scanned over unions of whole twin classes, on
the twin quotient: each class stands for itself through its top member, and
the walk, the odd-component count and theta all run over the tops, with no
step per vertex, on the graph's own partition (``Graph._twins``), which the
spectral radius reads too.  The cost is then set by the number of classes,
not by n: the one-edge supergraphs of the paper's extremal graphs have a
handful of twin classes and are decided from a few subsets each, at 47
vertices as at 271.  Graphs without twins still cost sum C(n, s) over the
open sizes, hence the default order cap.
"""
from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import index
from typing import Optional

from .errors import ParameterError, ScaleLimitError
from .graphs import (
    Graph,
    _bits,
    _component_mask,
    _integer,
    _k_connected,
    _odd_components,
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


def _quotient(adj, classes):
    """The twin quotient of the graph with rows ``adj``, indexed by the tops of its classes.

    ``classes`` is the twin partition, the graph's own ``Graph._twins``, and
    each class stands for itself through its top (largest) member.  Returns
    ``(tops, members, sizes, odd, ones, lone)``: ``tops`` is the mask of all
    tops, ``members[t]`` the ascending members of top t's class and
    ``sizes[t]`` their number; ``odd`` holds the tops of the classes of odd
    size, ``ones`` those of the classes of one vertex and ``lone`` those of
    the false-twin classes of at least 2 members, which are pairwise
    non-adjacent.  A class is a module, all adjacent or all apart from any
    vertex outside it, so ``adj[t] & tops`` is the class's row in the
    quotient; the searches on the quotient mask every row with a set of
    tops, so they read ``adj`` as it is.  Without twins every vertex is a
    top and the quotient is the graph.
    """
    members, sizes = {}, {}
    tops = odd = ones = lone = 0
    for m in classes.values():
        t = m[-1]
        bit = 1 << t
        members[t] = m
        sizes[t] = len(m)
        tops |= bit
        if len(m) & 1:
            odd |= bit
        if len(m) == 1:
            ones |= bit
        elif not adj[t] >> m[0] & 1:
            lone |= bit
    return tops, members, sizes, odd, ones, lone


def _clique_cover_size(adj, quotient) -> int:
    """Number of cliques in a greedy clique cover of the graph with rows ``adj``.

    Each clique starts at an uncovered vertex of least (degree, label) and
    grows inside its uncovered neighbourhood, taking the candidate adjacent
    to the most other candidates, the lowest label among ties; candidates
    that already form a clique are taken at once.  Any cover bounds the
    independence number.

    The greedy is replayed on the twin ``quotient`` (``_quotient``).  Twins
    share their degree, and the candidates of one class share one count.
    The covered members of a class are a prefix of its members: a clique
    that takes a vertex of a true-twin class takes the whole class, whose
    other members stay adjacent to every later candidate, and a clique takes
    at most one member of a lone class, its lowest uncovered one.  So the
    start is the class with the least (degree, next uncovered label), taken
    from a heap that a lone class re-enters while it has members left.
    Candidate classes that are pairwise adjacent are taken at once: picked
    in any order, they would give the clique all of each true-twin class
    and the lowest uncovered member of each lone class.  Otherwise the
    pick is the class with the most candidates around it, the lowest next
    label among ties: while every candidate is a class of one, its top is
    its label and the plain count of adjacent classes decides.  Once a
    larger class is among them, a candidate class weighs its uncovered
    members, and ``planes[j]`` holds the candidates whose weight has bit j
    set, so a count is one popcount per plane.  The pick then has the
    largest key, n times its count plus n - 1 minus its next label, where
    ``extra`` adds a class's own other members when they are true twins and
    the gap between its top and its next label.
    """
    tops, members, sizes, _, ones, lone = quotient
    n = len(adj)
    left = dict(sizes)
    multi = tops & ~ones
    depth = max(sizes.values(), default=0).bit_length()
    heap = [(adj[t].bit_count(), m[0], t) for t, m in members.items()]
    heapify(heap)
    live = tops
    cliques = 0
    while heap:
        _, label, t = heappop(heap)
        if not live >> t & 1 or label != members[t][sizes[t] - left[t]]:
            continue
        clique = 1 << t
        candidates = adj[t] & live
        while candidates:
            ws = list(_bits(candidates))
            keys = [(adj[w] & candidates).bit_count() for w in ws]
            if min(keys) == len(ws) - 1:
                clique |= candidates
                break
            if candidates & multi:
                planes = [candidates & ones] + [0] * (depth - 1)
                extra = {}
                for d in _bits(candidates & multi):
                    m, w = members[d], left[d]
                    extra[d] = (0 if lone >> d & 1 else n * (w - 1)) + d - m[len(m) - w]
                    for j in _bits(w):
                        planes[j] |= 1 << d
                keys = [n - 1 - w + extra.get(w, 0) for w in ws]
                for j, p in enumerate(planes):
                    if p:
                        scale = n << j
                        keys = [c + (adj[w] & p).bit_count() * scale for c, w in zip(keys, ws)]
            u = ws[keys.index(max(keys))]
            clique |= 1 << u
            candidates &= adj[u]
        cliques += 1
        live &= ~clique | lone
        for t in _bits(clique & lone):
            left[t] -= 1
            if left[t]:
                heappush(heap, (adj[t].bit_count(), members[t][sizes[t] - left[t]], t))
            else:
                live ^= 1 << t
    return cliques


def _twin_layout(classes, n: int):
    """The twin partition ``classes`` as the ``(cls, firsts)`` that ``_canonical_subsets`` walks.

    ``cls[v]`` is the mask of v's class, ``1 << v`` when v has no twin, and
    ``firsts`` the mask of the lowest members of the classes.  Each class
    mask is built once from its member list, and the layout is one list of
    n references to them.
    """
    cls = [0] * n
    firsts = 0
    for m in classes.values():
        c = sum(1 << v for v in m)
        for v in m:
            cls[v] = c
        firsts |= 1 << m[0]
    return cls, firsts


def _canonical_subsets(avail: int, size: int, cls, firsts: int):
    """Size-subsets of ``avail`` taking the lowest members of each twin class, in increasing order.

    Every v heads a block, the prefix of its class up to v, which is v alone
    when v is the lowest member (``firsts``; see ``_twin_layout``).  With
    ``avail`` closed under taking lower members of a class, subsets are
    ordered by their largest member h first; h brings the rest of its block
    along, and the remainder is a smaller such subset below h and outside
    h's class.  The walk runs in one frame.  A level (the heads ``rem`` left
    to try, the blocks ``acc`` chosen above it, the ``need`` vertices still
    to choose from ``avail``) waits on ``stack`` while the subsets below its
    current head are walked.  A generator per level would pass every subset
    through each frame, which made twin-free scans about 16 % slower.
    """
    if not size:
        yield 0
        return
    stack = []
    rem, acc, need = avail, 0, size
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
                singles = avail & (low - 1) & ~c & firsts
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
                    rem, acc, need, avail = rest, acc | block, left, rest
        if not stack:
            return
        rem, acc, need, avail = stack.pop()


def _class_unions(tops: int, size: int, sizes, ones: int):
    """Unions of whole twin classes with ``size`` vertices, as masks of their tops, in order.

    ``sizes`` maps each top to its class's size, and ``ones`` holds the tops
    of the classes of one vertex (see ``_quotient``).  The highest vertex of
    a union is the top of its highest class, so two unions compare as their
    masks of tops do, and this order is the numeric order of the unions
    themselves.  The walk is ``_canonical_subsets``'s over the tops, each
    weighing its class's size; below a head t lie at most t vertices, which
    is exact without twins.
    """
    stack = []
    rem, acc, need = tops, 0, size
    while True:
        while rem:
            low = rem & -rem
            rem ^= low
            t = low.bit_length() - 1
            left = need - sizes[t]
            if left == 1:
                # one more class, of a single vertex
                top = acc | low
                singles = tops & (low - 1) & ones
                while singles:
                    one = singles & -singles
                    yield top | one
                    singles ^= one
            elif left == 0:
                yield acc | low
            elif left > 0 and t >= left:
                stack.append((rem, acc, need))
                rem, acc, need = tops & (low - 1), acc | low, left
        if not stack:
            return
        rem, acc, need = stack.pop()


def _odd_class_components(adj, alive: int, bound: int, odd: int, lone: int, sizes, spare: int):
    """Odd components of G - S, S a union of whole twin classes and ``alive`` the other tops.

    The components are searched on the quotient (``_quotient``).  A lone
    class with no live neighbour is as many isolated vertices as it has
    members; any other component is odd iff it holds an odd number of
    odd-size classes.  As ``graphs._odd_components`` does, the count stops
    once it exceeds ``bound`` or once the classes left cannot push it above
    it: each gives at most one, but a lone class up to its size, and
    ``spare`` is what the lone classes exceed one by.
    """
    count = 0
    while alive and count <= bound < count + alive.bit_count() + spare:
        seed = alive & -alive
        comp = _component_mask(adj, seed, alive)
        alive ^= comp
        if comp == seed and seed & lone:
            count += sizes[seed.bit_length() - 1]
        else:
            count += (comp & odd).bit_count() & 1
    return count


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
    o(G-S) is at most both, and the bound b(s - k) only grows with s.  Theta
    is not computed while a lone class (pairwise non-adjacent twins) has more
    than b(s - k) members: alpha, and so theta, exceeds the bound then.  The
    scan also skips the sizes k < s < kappa, and s = k when kappa > k and
    n - k is even: G - S is connected there, with even order at s = k.  At
    size k it tests one S per orbit of the twin swaps, the one taking the
    lowest members of every class (``_canonical_subsets``), which is the
    numerically first of its orbit.  Above size k the first violating S never
    splits a class, and the scan runs on the twin quotient (``_quotient``),
    built once: it walks the unions of whole classes as masks of their tops
    (``_class_unions``), counts odd components over the classes
    (``_odd_class_components``), computes theta on the classes
    (``_clique_cover_size``) and expands only a violating union into its
    members.  Without twins every class is a single vertex, every S of the
    size is tested, and the quotient is the graph.  So the first violating S
    is among those tested.  ``examined`` counts the subsets tested.  Theta,
    the kappa tests, the size-k layout and the quotient are computed only
    when a size needs them.
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
    # the quotient, built at the first size above k that needs it
    quotient = None
    examined = 0
    for size in range(k, top + 1):
        bound = b * (size - k)
        if n - size <= bound:
            break
        # at size k the bound is 0, which theta >= 1 never meets
        if size > k:
            if quotient is None:
                quotient = _quotient(adj, g._twins)
                tops, members, sizes, odd, ones, lone = quotient
                widths = [sizes[t] for t in _bits(lone)]
                widest = max(widths, default=0)
                spare = sum(widths) - len(widths)
            if widest <= bound:
                theta = theta or _clique_cover_size(adj, quotient)
                if theta <= bound:
                    break
        if size > k or (n - size) % 2 == 0:
            below_kappa = below_kappa and size + 1 < n and _k_connected(adj, size + 1)
            if below_kappa:
                continue
        if size == k:
            for mask in _canonical_subsets(full, size, *_twin_layout(g._twins, n)):
                examined += 1
                if _odd_components(adj, full & ~mask, bound) > bound:
                    return mask, examined
            continue
        for union in _class_unions(tops, size, sizes, ones):
            examined += 1
            if _odd_class_components(adj, tops & ~union, bound, odd, lone, sizes, spare) > bound:
                return sum(1 << v for t in _bits(union) for v in members[t]), examined
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
