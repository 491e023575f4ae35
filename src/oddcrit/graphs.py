"""Simple undirected graphs and the extremal join families.

Vertices are the integers ``0..n-1``.  Adjacency is stored as one int bitmask
per vertex, which keeps component scans cheap enough for exhaustive subset
enumeration on graphs of ~20 vertices.  Graphs are immutable: edits return new
objects, so values can be shared freely between threads, and each keeps the
twin partition that every stage reads (``Graph._twins``), built once.

Join-family constructors use a canonical labeling: the join cell comes first,
then the parts in the given order.  ``is_join_family`` recognises a family
under any labeling.

Every family the paper builds is K_x v (K_{n-x-p(bx-bk+1)} u (bx-bk+1) K_p),
and ``_join_layout`` alone computes and checks its parts: G' is x = delta,
g2 is x = s, g3 is x = s with p = delta+1-s, g* adds an edge to x = k+2, and
Theorem 1.4's two families are x = k+1 and x = k; p = 1 but for g3.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import repeat
from operator import and_, index
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import GraphFormatError, ParameterError


def _integer(value, name: str) -> int:
    """``value`` by ``operator.index``; a float or a string is a ParameterError."""
    try:
        return index(value)
    except TypeError:
        raise ParameterError(f"{name}={value!r} must be an integer") from None


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _unpack_masks(masks: Sequence[int], n: int) -> np.ndarray:
    """0/1 ``uint8`` array whose row i holds bits 0..n-1 of ``masks[i]``."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
    return np.unpackbits(packed.reshape(len(masks), width), axis=1, count=n, bitorder="little")


def _pack_masks(a: np.ndarray) -> list[int]:
    """Row i of the 0/1 array ``a`` as the int with bit j set iff a[i, j] is.

    The inverse of ``_unpack_masks``; an array with rows needs a column.
    """
    packed = np.packbits(a, axis=1, bitorder="little")
    # each row's bytes as one bytes object, then one int per row
    chunks = packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()
    return list(map(int.from_bytes, chunks, repeat("little")))


def _component_mask(adj, seed: int, alive: int) -> int:
    """Bitmask of the connected component of ``seed`` inside ``alive``."""
    comp = seed
    frontier = seed
    while frontier:
        nxt = 0
        # _bits inlined: this loop carries every subset scan, and the
        # generator made a full criticality scan about 30% slower
        f = frontier
        while f:
            low = f & -f
            nxt |= adj[low.bit_length() - 1]
            f ^= low
        frontier = nxt & alive & ~comp
        comp |= frontier
    return comp


def _odd_components(adj, alive: int, bound: int = -1) -> int:
    """Odd components among ``alive``, peeled off one at a time.

    With no ``bound`` the count is exact.  With a ``bound`` >= 0 the peeling
    stops once the count exceeds it (a violation is certain) or once the
    vertices left cannot push it above it (the count returned is <= bound).
    """
    odd = 0
    while alive and (bound < 0 or odd <= bound < odd + alive.bit_count()):
        comp = _component_mask(adj, alive & -alive, alive)
        alive ^= comp
        odd += comp.bit_count() & 1
    return odd


def _twin_classes(adj) -> dict[int, list[int]]:
    """The twin partition of the graph with rows ``adj``: lowest member -> ascending members.

    A class holds the vertices with one closed neighbourhood (true twins) or
    one open neighbourhood (false twins); a vertex without twins is a class
    of its own, and every vertex is in exactly one class.  No vertex has
    twins of both kinds: if u, v are true twins and u, w false twins, then w
    is adjacent to v, so to u, yet u is not in N(w) = N(u); so a vertex with
    a true twin skips the open map.  An isolated vertex has no true twin and
    stays out of the closed map, which would otherwise hold two n-bit ints
    for each one.  Each map hashes a neighbourhood once, to its first vertex,
    which keys its class; that vertex opens the class's list, so classes come
    in the order of their lowest members.
    """
    first_closed, first_open, classes = {}, {}, {}
    for v, row in enumerate(adj):
        u = first_closed.setdefault(row | 1 << v, v) if row else v
        if u == v:
            u = first_open.setdefault(row, v)
        if u == v:
            classes[v] = [v]
        else:
            classes[u].append(v)
    return classes


def _fan_reaches(adj, sources: int, t: int, k: int) -> bool:
    """Whether k paths lead from ``sources`` to t, pairwise disjoint except at t.

    ``sources`` must not hold t.  Each path leaves ``sources`` at its first
    vertex for good; a path that re-entered ``sources`` could start later,
    so this loses nothing.  One-edge paths are taken first, then augmenting
    paths are found by breadth-first search on the vertex-split residual
    graph.  The flow is stored as ``into[v]``, the predecessor of each vertex
    that a path passes through, and ``free``, the sources no path starts at
    yet.
    """
    direct = sources & adj[t]
    count = direct.bit_count()
    if count >= k:
        return True
    into: dict[int, int] = {}
    free = sources ^ direct
    closed = sources | (1 << t)
    while count < k:
        # v_in is reached from u_out along edge uv (par_in[v] = u) or from
        # v_out against v's own used capacity (-1); v_out is reached from
        # v_in (-1), against the flow edge v -> w (w), or it is a source
        # (absent from par_out).  Entering a used vertex along its own flow
        # edge is harmless: its only exit leads back to where we came from.
        # No reached v_out carries a flow edge into t, so every edge to t is free.
        par_in: dict[int, int] = {}
        par_out: dict[int, int] = {}
        seen_in = 0
        seen_out = free
        queue = [(x, True) for x in _bits(free)]
        end = -1
        for v, is_out in queue:
            if is_out:
                if adj[v] >> t & 1:
                    end = v
                    break
                new = adj[v] & ~closed & ~seen_in
                seen_in |= new
                for w in _bits(new):
                    par_in[w] = v
                    queue.append((w, False))
                if v in into and not seen_in >> v & 1:
                    seen_in |= 1 << v
                    par_in[v] = -1
                    queue.append((v, False))
            else:
                u = into.get(v, -1)
                w, tag = (v, -1) if u < 0 else (u, v)
                if not seen_out >> w & 1:
                    seen_out |= 1 << w
                    par_out[w] = tag
                    queue.append((w, True))
        if end < 0:
            return False
        # walk back to the source: flow edges crossed backwards are
        # cancelled, the others added, cancellations first
        added = []
        cancelled = []
        v, is_out = end, True
        while True:
            if is_out:
                if v not in par_out:
                    free &= ~(1 << v)
                    break
                w = par_out[v]
                if w >= 0:
                    cancelled.append(w)
                    v = w
                is_out = False
            else:
                u = par_in[v]
                if u >= 0:
                    added.append((u, v))
                    v = u
                is_out = True
        for w in cancelled:
            del into[w]
        for u, v in added:
            into[v] = u
        count += 1
    return True


def _k_connected(adj, k: int) -> bool:
    """Whether the graph with rows ``adj`` and more than k vertices is k-connected.

    Even's test (Even 1975): with the vertices ordered v_1, v_2, ... by
    non-increasing degree, G is k-connected iff every non-adjacent pair among
    v_1..v_k is joined by k internally disjoint paths and every later v_j is
    reached by k paths from {v_1..v_{j-1}} that share only v_j.  A cut of
    fewer than k vertices either parts two of v_1..v_k, which are then
    non-adjacent, or leaves those outside it on one side; then the first
    vertex on another side has too few paths.  The s-t paths of a pair are
    paths from N(s) to t, and s cannot lie on one, as all its neighbours are
    sources.  A pair with k common neighbours and a v_j with k earlier
    neighbours need no search; the latter is tested here, before the call,
    and all at once when v_1..v_k have every later vertex as a common
    neighbour.  First of all, k universal vertices (a join K_s v H with
    s >= k) settle it: G - X keeps one for any X of fewer than k.  The
    degrees are counted once, and the stable sort on them in reverse keeps
    equal degrees in label order.
    """
    if k == 1:
        # connected: one search in place of a fan per vertex
        full = (1 << len(adj)) - 1
        return _component_mask(adj, 1, full) == full
    degree = list(map(int.bit_count, adj))
    if min(degree) < k:
        return False
    if degree.count(len(adj) - 1) >= k:
        return True
    order = sorted(range(len(adj)), key=degree.__getitem__, reverse=True)
    for i in range(1, k):
        t = order[i]
        for s in order[:i]:
            if not adj[s] >> t & 1 and not _fan_reaches(adj, adj[s], t, k):
                return False
    earlier = sum(1 << v for v in order[:k])
    if functools.reduce(and_, map(adj.__getitem__, order[:k])) | earlier == (1 << len(adj)) - 1:
        return True
    for t in order[k:]:
        if (adj[t] & earlier).bit_count() < k and not _fan_reaches(adj, earlier, t, k):
            return False
        earlier |= 1 << t
    return True


class Graph:
    """Finite simple undirected graph on vertex set {0..n-1}."""

    __slots__ = ("n", "_adj", "_partition")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        n = _integer(n, "vertex count n")
        if n < 0:
            raise ParameterError("vertex count must be nonnegative")
        adj = [0] * n
        edges = iter(edges)  # edges that are not iterable are a TypeError, not a label's
        try:
            for u, v in edges:
                if not (0 <= u < n and 0 <= v < n):
                    raise ParameterError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
                if u == v:
                    raise ParameterError(f"self-loop at vertex {u} not allowed")
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            # a numpy integer label makes rows numpy integers, whose shifts lose
            # bits or overflow; one check of the rows beats coercing each label,
            # and a label that is no integer fails the indexing or the shift
            if any(type(row) is not int for row in adj):
                raise OverflowError
        except (OverflowError, TypeError):
            raise ParameterError("vertex labels must be Python ints") from None
        self.n = n
        self._adj = tuple(adj)

    @classmethod
    def _from_rows(cls, n: int, rows) -> "Graph":
        g = object.__new__(cls)
        g.n = n
        g._adj = tuple(rows)
        return g

    # -- basic queries ------------------------------------------------------

    @property
    def adjacency_rows(self) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks (row ``v`` has bit ``u`` iff ``uv`` is an edge)."""
        return self._adj

    @property
    def _twins(self) -> dict[int, list[int]]:
        """The twin partition (``_twin_classes``), built on the first read; ``==`` ignores it.

        Threads racing on the first read build equal dicts, so no lock is needed.
        """
        if not hasattr(self, "_partition"):
            self._partition = _twin_classes(self._adj)
        return self._partition

    def _vertex(self, v: int) -> int:
        """``v`` as a vertex of this graph; ParameterError if no integer in 0..n-1."""
        v = _integer(v, "vertex")
        if not 0 <= v < self.n:
            raise ParameterError(f"vertex {v} outside vertex range 0..{self.n - 1}")
        return v

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self._adj) // 2

    def min_degree(self) -> int:
        if self.n == 0:
            raise ParameterError("minimum degree undefined for the empty graph")
        return min(map(int.bit_count, self._adj))

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as ordered pairs (u, v) with u < v, lexicographically."""
        for u in range(self.n):
            rest = self._adj[u] >> (u + 1) << (u + 1)
            for v in _bits(rest):
                yield (u, v)

    def non_edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in range(u + 1, self.n):
                if not self._adj[u] >> v & 1:
                    yield (u, v)

    # -- edit (returns a new graph) ----------------------------------------

    def with_edge(self, u: int, v: int) -> "Graph":
        u, v = self._vertex(u), self._vertex(v)
        if u == v:
            raise ParameterError("self-loop not allowed")
        rows = list(self._adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph._from_rows(self.n, rows)

    # -- connectivity and components ----------------------------------------

    def odd_components_after_removal(self, removed: Iterable[int]) -> int:
        """o(G-S): number of odd-order components left after deleting S.

        Isolated vertices are found in one pass and counted by one popcount;
        only the others are peeled off, one component at a time.
        """
        mask = 0
        for v in removed:
            mask |= 1 << self._vertex(v)
        isolated = int("0" + "".join("0" if row else "1" for row in reversed(self._adj)), 2)
        alive = ((1 << self.n) - 1) & ~mask
        return (alive & isolated).bit_count() + _odd_components(self._adj, alive & ~isolated)

    def is_connected(self) -> bool:
        return self.n > 0 and _k_connected(self._adj, 1)

    def is_k_connected(self, k: int) -> bool:
        """Whether G stays connected after deleting any fewer than k vertices.

        Decided by Even's Menger test (``_k_connected``) in polynomial time.
        """
        if k < 1:
            raise ParameterError("connectivity order k must be >= 1")
        return self.n > k and _k_connected(self._adj, k)

    def vertex_connectivity(self) -> int:
        """Minimum vertex-cut size; n-1 for complete graphs.

        Raises k from 0 while k < delta and G is (k+1)-connected, which costs
        at most delta polynomial Menger tests.
        """
        n = self.n
        if n < 2:
            raise ParameterError("vertex connectivity needs at least 2 vertices")
        delta = self.min_degree()
        if delta == n - 1:
            return n - 1
        kappa = 0
        while kappa < delta and _k_connected(self._adj, kappa + 1):
            kappa += 1
        return kappa

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, e={self.edge_count()})"


# -- elementary constructors -------------------------------------------------


def make_complete(m: int) -> Graph:
    """Complete graph K_m (K_0 is the empty graph)."""
    m = _integer(m, "order m")
    if m < 0:
        raise ParameterError("order must be nonnegative")
    full = (1 << m) - 1
    return Graph._from_rows(m, (full & ~(1 << v) for v in range(m)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """G u H with the vertices of H shifted by |G|."""
    shift = g.n
    rows = list(g._adj) + [row << shift for row in h._adj]
    return Graph._from_rows(g.n + h.n, rows)


def join(g: Graph, h: Graph) -> Graph:
    """G v H: disjoint union plus all edges between the two vertex sets."""
    shift = g.n
    hmask = ((1 << h.n) - 1) << shift
    gmask = (1 << shift) - 1
    rows = [row | hmask for row in g._adj]
    rows += [(row << shift) | gmask for row in h._adj]
    return Graph._from_rows(g.n + h.n, rows)


def family(s: int, parts: list[int]) -> Graph:
    """K_s v (K_{parts[0]} u K_{parts[1]} u ...) under canonical labeling.

    The join cell takes vertices 0..s-1, then the parts follow in order.
    """
    s = _integer(s, "join cell size s")
    parts = [_integer(p, "part order") for p in parts]
    if s < 0:
        raise ParameterError("join cell size must be nonnegative")
    if not parts:
        raise ParameterError("degenerate family: parts list must be nonempty")
    if any(p < 1 for p in parts):
        raise ParameterError(f"every part must be >= 1, got {list(parts)}")
    union = make_complete(parts[0])
    for p in parts[1:]:
        union = disjoint_union(union, make_complete(p))
    return join(make_complete(s), union)


def is_join_family(g: Graph, s: int, parts: Sequence[int]) -> bool:
    """Whether G is isomorphic to ``family(s, parts)``, whatever its labels.

    Read per class of G's twin partition.  In K_s v (K_{n_1} u ... u K_{n_t})
    with t >= 2 the cell is exactly the universal vertices, one class; each
    part of two or more is a true-twin class of degree s + n_i - 1, and the
    singletons are one class of degree s: every neighbourhood holds the cell,
    so those degrees leave no other edge.  A lone part is universal too
    (K_s v K_p = K_{s+p}), so the layout is normalised that way first.
    """
    if len(parts) == 1:
        s, parts = s + parts[0], ()
    n = g.n
    if n != s + sum(parts):
        return False
    adj = g._adj
    cell, orders = 0, []
    for r, m in g._twins.items():
        degree = adj[r].bit_count()
        if degree == n - 1:
            cell = len(m)
        elif adj[r] >> m[-1] & 1 and degree == s + len(m) - 1:
            orders.append(len(m))
        elif degree == s:
            orders += [1] * len(m)
        else:
            return False
    return cell == s and sorted(orders) == sorted(parts)


# -- the extremal families ----------------------------------------------------


def check_parameters(b: int, k: int, n: Optional[int] = None, delta: Optional[int] = None) -> None:
    """The paper's rules: b odd and positive, k and delta positive, n = k (mod 2).

    n and delta are checked only when given; each must be an integer.
    """
    b, k = _integer(b, "b"), _integer(k, "k")
    if b < 1 or b % 2 == 0:
        raise ParameterError(f"b must be a positive odd integer, got {b}")
    if k < 1:
        raise ParameterError(f"k must be a positive integer, got {k}")
    if delta is not None and _integer(delta, "delta") < 1:
        raise ParameterError(f"delta must be a positive integer, got {delta}")
    if n is not None and (_integer(n, "n") - k) % 2 != 0:
        raise ParameterError(f"parity violation: n={n} and k={k} must agree mod 2")


def _join_layout(n: int, b: int, k: int, x: int, p: int = 1, *, name: str) -> tuple[int, list[int]]:
    """``(x, parts)`` of K_x v (K_{n-x-p(bx-bk+1)} u (bx-bk+1) K_p), as ``family`` takes them.

    Every family the paper builds has this form; ``name`` spells x in the
    messages.  Both the big clique and the count of small parts must be >= 1.
    """
    n, x, p = _integer(n, "n"), _integer(x, name), _integer(p, "p")
    copies = b * x - b * k + 1
    big = n - x - p * copies
    if big < 1:
        formula = f"n-(b+1)*{name}+b*k-1" if p == 1 else f"n-{name}-{p}*(b*{name}-b*k+1)"
        raise ParameterError(f"big clique part {formula} = {big} must be >= 1")
    if copies < 1:
        small = "singleton" if p == 1 else "copy"
        raise ParameterError(f"{small} count b*{name}-b*k+1 = {copies} must be >= 1")
    return x, [big] + [p] * copies


@dataclass(frozen=True)
class ExtremalParams:
    """Parameters (n, b, k, delta[, s]) of the extremal join families.

    b is the odd factor bound, k the criticality order, delta the
    minimum-degree parameter and s an optional separator size used by the
    auxiliary families.
    """

    n: int
    b: int
    k: int
    delta: int
    s: Optional[int] = None

    def layout(self, variant: str) -> tuple[int, list[int]]:
        """``(x, parts)`` of the family 'gprime' (x = delta), 'g2' (x = s) or 'g3'.

        g3 is x = s with parts K_{delta+1-s}, so it needs s <= delta-1; the
        others have singletons.  See ``_join_layout``.
        """
        if variant not in ("gprime", "g2", "g3"):
            raise ParameterError(f"unknown extremal variant {variant!r}")
        n, b, k, d = self.n, self.b, self.k, self.delta
        check_parameters(b, k, n, d)
        if variant == "gprime":
            return _join_layout(n, b, k, d, name="delta")
        s = _integer(self.s, "s")
        if variant == "g2":
            return _join_layout(n, b, k, s, name="s")
        if s > d - 1:
            raise ParameterError(f"s = {s} must be <= delta-1 = {d - 1}")
        return _join_layout(n, b, k, s, d + 1 - s, name="s")

    def gprime_parts(self) -> tuple[int, int]:
        """(big clique order, number of singletons) for the main extremal graph."""
        parts = self.layout("gprime")[1]
        return parts[0], len(parts) - 1

    def g2_parts(self) -> tuple[int, int]:
        parts = self.layout("g2")[1]
        return parts[0], len(parts) - 1

    def g3_parts(self) -> tuple[int, int, int]:
        """(big clique order, number of copies, copy order)."""
        parts = self.layout("g3")[1]
        return parts[0], len(parts) - 1, parts[1]


def extremal_gprime(p: ExtremalParams) -> Graph:
    """K_delta v (K_{n-(b+1)delta+bk-1} u (b*delta-bk+1) K_1)."""
    return family(*p.layout("gprime"))


def proof_graph_g2(p: ExtremalParams) -> Graph:
    """K_s v (K_{n-(b+1)s+bk-1} u (bs-bk+1) K_1); coincides with the main family at s=delta."""
    return family(*p.layout("g2"))


def proof_graph_g3(p: ExtremalParams) -> Graph:
    """K_s v (K_{n-s-(delta+1-s)(bs-bk+1)} u (bs-bk+1) K_{delta+1-s}), s <= delta-1."""
    return family(*p.layout("g3"))


def g_star(n: int, b: int, k: int) -> Graph:
    """K_{k+2} v (K_{n-2b-k-3} u (2b+1) K_1) plus one edge between two singletons."""
    check_parameters(b, k, n)
    x, parts = _join_layout(n, b, k, k + 2, name="(k+2)")
    first_single = x + parts[0]
    return family(x, parts).with_edge(first_single, first_single + 1)


# -- graph6 / edge-list I/O ----------------------------------------------------

_G6_HEADER = ">>graph6<<"
#: largest order the 1- and 4-byte graph6 size headers encode
_G6_MAX_ORDER = 258047
#: the bytes graph6 allows, '?' (63) to '~' (126)
_G6_CODES = bytes(range(63, 127))
#: the whitespace trimmed around a graph6 string: ASCII's, as ``bytes.strip``
#: trims it; any other character is an invalid byte
_G6_SPACE = " \t\n\r\x0b\x0c"
#: row x holds the six bits of x - 63 for a graph6 byte x, high bit first; rows
#: outside 63..126 are never read
_G6_BITS = np.unpackbits((np.arange(256) - 63).astype(np.uint8)[:, None], axis=1)[:, 2:].astype(bool)


@functools.lru_cache(maxsize=4)
def _lower_triangle(n: int) -> np.ndarray:
    """Read-only n x n mask of the strictly lower triangle, shared between calls."""
    mask = np.tri(n, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def write_graph6(g: Graph) -> str:
    """Canonical graph6 encoding (single-byte order up to 62, 3-byte beyond)."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= _G6_MAX_ORDER:
        head = "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))
    else:
        raise GraphFormatError(f"order {n} exceeds the supported graph6 range")
    # pair (u, v), u < v, is bit v(v-1)/2 + u: the strictly lower triangle in
    # row-major order, six bits per byte, high bit first, zero-padded
    bits = _unpack_masks(g._adj, n)[_lower_triangle(n)]
    bits = np.concatenate([bits, np.zeros(-len(bits) % 6, dtype=np.uint8)])
    body = (np.packbits(bits.reshape(-1, 6), axis=1).ravel() >> 2) + 63
    return head + body.tobytes().decode("ascii")


def parse_graph6(text: str) -> Graph:
    """Parse a graph6 string (optionally prefixed with '>>graph6<<').

    The string is validated as ASCII bytes by one ``bytes.translate``; only
    an invalid one is scanned, by code point, for the first outside 63..126,
    before the header or length is read.  The body's bytes index ``_G6_BITS``
    by one ``np.take``, fill the strictly lower triangle through the cached
    mask ``_lower_triangle(n)``, and ``_pack_masks`` turns the rows into
    ints: no Python statement runs per vertex.  Only ASCII whitespace is
    trimmed around the string.
    """
    s = text.strip(_G6_SPACE)
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise GraphFormatError("empty graph6 input", offset=0)
    data = s.encode() if s.isascii() else None
    if data is None or data.translate(None, _G6_CODES):
        i = next(i for i, c in enumerate(s) if not "?" <= c <= "~")
        raise GraphFormatError(f"invalid graph6 byte {ord(s[i])}", offset=i)
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise GraphFormatError(f"graph6 orders beyond {_G6_MAX_ORDER} unsupported", offset=1)
        if len(data) < 4:
            raise GraphFormatError("truncated graph6 size header", offset=len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body_offset = 4
    else:
        n = data[0] - 63
        body_offset = 1
    size = len(data) - body_offset
    need = (n * (n - 1) // 2 + 5) // 6
    if size != need:
        raise GraphFormatError(
            f"graph6 body holds {size} bytes, order {n} needs {need}",
            offset=body_offset + min(size, need),
        )
    # six bits per byte, high bit first; pair (u, v), u < v, is bit v(v-1)/2 + u,
    # which is the row-major order of the strictly lower triangle at (v, u)
    bits = np.take(_G6_BITS, np.frombuffer(data, np.uint8, offset=body_offset), axis=0).ravel()
    adj = np.zeros((n, n), dtype=bool)
    adj[_lower_triangle(n)] = bits[: n * (n - 1) // 2]
    adj |= adj.T
    return Graph._from_rows(n, _pack_masks(adj))


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated 0-indexed 'u v' pairs, one per line.

    Lines starting with '#' are comments.  The order is max index + 1, at
    most the graph6 limit of 258047.
    """
    edges = []
    top = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer vertex in {raw!r}") from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: negative vertex index in {raw!r}")
        if u == v:
            raise GraphFormatError(f"line {lineno}: self-loop {u} {v} not allowed")
        if max(u, v) >= _G6_MAX_ORDER:
            raise GraphFormatError(
                f"line {lineno}: vertex {max(u, v)} gives an order above {_G6_MAX_ORDER}"
            )
        edges.append((u, v))
        top = max(top, u, v)
    if not edges:
        raise GraphFormatError("empty edge list: cannot infer vertex count")
    return Graph(top + 1, edges)


def parse_graph_auto(text: str) -> Graph:
    """Parse either format, auto-detected by the first byte.

    graph6 bytes are printable codes >= 63 ('?'), while edge lists start with a
    digit, so the first non-blank byte decides; where it opens a '#' comment,
    the first line left after comments decides.  graph6 input is read as a
    corpus (``parse_graph6_corpus``) that must hold one graph, so any
    whitespace but ASCII's is an invalid graph6 byte there.
    """
    s = text.lstrip()
    if not s:
        raise GraphFormatError("empty graph input")
    first = s
    if s[0] == "#":
        # with comments alone, the edge-list parser reports the empty input
        first = next(filter(None, (raw.split("#", 1)[0].strip() for raw in _g6_lines(s))), s)
    if first.startswith(_G6_HEADER) or ord(first[0]) >= 63:
        graphs = parse_graph6_corpus(text)
        if len(graphs) > 1:
            raise GraphFormatError(
                f"input holds {len(graphs)} graph6 lines, one graph expected; "
                "use verify --input for a corpus"
            )
        return graphs[0]
    return parse_edge_list(text)


def _g6_lines(text: str) -> list[str]:
    """The lines of a graph6 corpus, ended by '\\n', '\\r\\n' or '\\r' alone."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_graph6_corpus(text: str) -> list[Graph]:
    """Parse a corpus file: one graph6 string per line, '#' comments ignored.

    Lines end at '\\n', '\\r\\n' or '\\r' alone, and only ASCII whitespace
    is trimmed around a line (see ``parse_graph6``).
    """
    graphs = []
    for raw in _g6_lines(text):
        line = raw.split("#", 1)[0].strip(_G6_SPACE)
        if line:
            graphs.append(parse_graph6(line))
    return graphs
