"""Simple undirected graphs and the extremal join families.

Vertices are the integers ``0..n-1``.  Adjacency is stored as one int bitmask
per vertex, which keeps component scans cheap enough for exhaustive subset
enumeration on graphs of ~20 vertices.  Graphs are immutable: edits return new
objects, so values can be shared freely between threads.

Join-family constructors use a canonical labeling: the join cell comes first,
then the parts in the given order.  ``is_join_family`` recognises a family
under any labeling.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import GraphFormatError, ParameterError


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
    neighbours need no search.
    """
    if k == 1:
        # connected: one search in place of a fan per vertex
        full = (1 << len(adj)) - 1
        return _component_mask(adj, 1, full) == full
    if min(row.bit_count() for row in adj) < k:
        return False
    order = sorted(range(len(adj)), key=lambda v: -adj[v].bit_count())
    for i in range(1, k):
        t = order[i]
        for s in order[:i]:
            if not adj[s] >> t & 1 and not _fan_reaches(adj, adj[s], t, k):
                return False
    earlier = sum(1 << v for v in order[:k])
    for t in order[k:]:
        if not _fan_reaches(adj, earlier, t, k):
            return False
        earlier |= 1 << t
    return True


class Graph:
    """Finite simple undirected graph on vertex set {0..n-1}."""

    __slots__ = ("n", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ParameterError("vertex count must be nonnegative")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ParameterError(f"edge ({u},{v}) outside vertex range 0..{n - 1}")
            if u == v:
                raise ParameterError(f"self-loop at vertex {u} not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
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

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self._adj]

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_bits(self._adj[v]))

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self._adj) // 2

    def min_degree(self) -> int:
        if self.n == 0:
            raise ParameterError("minimum degree undefined for the empty graph")
        return min(self.degrees())

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

    def is_complete(self) -> bool:
        return self.edge_count() == self.n * (self.n - 1) // 2

    # -- edits (return new graphs) -----------------------------------------

    def with_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ParameterError("self-loop not allowed")
        rows = list(self._adj)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph._from_rows(self.n, rows)

    def without_edge(self, u: int, v: int) -> "Graph":
        rows = list(self._adj)
        rows[u] &= ~(1 << v)
        rows[v] &= ~(1 << u)
        return Graph._from_rows(self.n, rows)

    def without_vertices(self, drop: Iterable[int]) -> "Graph":
        """Induced subgraph on the kept vertices, relabeled order-preservingly."""
        dropset = set(drop)
        keep = [v for v in range(self.n) if v not in dropset]
        index = {v: i for i, v in enumerate(keep)}
        edges = [
            (index[u], index[v])
            for u, v in self.edges()
            if u not in dropset and v not in dropset
        ]
        return Graph(len(keep), edges)

    # -- connectivity and components ----------------------------------------

    def component_masks(self, removed: int = 0) -> list[int]:
        alive = ((1 << self.n) - 1) & ~removed
        comps = []
        while alive:
            comp = _component_mask(self._adj, alive & -alive, alive)
            comps.append(comp)
            alive &= ~comp
        return comps

    def components(self) -> int:
        """Number of connected components c(G)."""
        return len(self.component_masks())

    def odd_components_after_removal(self, removed: Iterable[int]) -> int:
        """o(G-S): number of odd-order components left after deleting S."""
        mask = 0
        for v in removed:
            if not 0 <= v < self.n:
                raise ParameterError(f"vertex {v} outside range 0..{self.n - 1}")
            mask |= 1 << v
        return sum(1 for comp in self.component_masks(mask) if comp.bit_count() & 1)

    def is_connected(self) -> bool:
        if self.n == 0:
            return False
        full = (1 << self.n) - 1
        return _component_mask(self._adj, 1, full) == full

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
        if self.is_complete():
            return n - 1
        delta = self.min_degree()
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

    In K_s v (K_{n_1} u ... u K_{n_t}) with t >= 2 the join cell is exactly
    the set of universal vertices, and the rest splits into t clique
    components.  A lone part is universal too (K_s v K_p = K_{s+p}), so the
    expected layout is normalised that way before the universal count and
    the sorted component orders are compared.
    """
    if len(parts) == 1:
        s, parts = s + parts[0], ()
    n = g.n
    if n != s + sum(parts):
        return False
    full = (1 << n) - 1
    adj = g._adj
    universal = sum(1 << v for v in range(n) if adj[v] | (1 << v) == full)
    if universal.bit_count() != s:
        return False
    rest = full ^ universal
    orders = []
    while rest:
        comp = _component_mask(adj, rest & -rest, rest)
        if any(adj[v] & comp != comp ^ (1 << v) for v in _bits(comp)):
            return False
        orders.append(comp.bit_count())
        rest ^= comp
    return sorted(orders) == sorted(parts)


# -- the extremal families ----------------------------------------------------


@dataclass(frozen=True)
class ExtremalParams:
    """Parameters (n, b, k, delta[, s]) of the extremal join families.

    b is the odd per-vertex factor bound, k the criticality order, delta the
    minimum-degree parameter and s an optional separator size used by the
    auxiliary families.
    """

    n: int
    b: int
    k: int
    delta: int
    s: Optional[int] = None

    def validate_common(self) -> None:
        if self.b < 1 or self.b % 2 == 0:
            raise ParameterError(f"b must be a positive odd integer, got {self.b}")
        if self.k < 1:
            raise ParameterError(f"k must be a positive integer, got {self.k}")
        if self.delta < 1:
            raise ParameterError(f"delta must be a positive integer, got {self.delta}")
        if (self.n - self.k) % 2 != 0:
            raise ParameterError(
                f"parity violation: n={self.n} and k={self.k} must agree mod 2"
            )

    def gprime_parts(self) -> tuple[int, int]:
        """(big clique order, number of singletons) for the main extremal graph."""
        self.validate_common()
        n, b, k, d = self.n, self.b, self.k, self.delta
        big = n - (b + 1) * d + b * k - 1
        singles = b * d - b * k + 1
        if big < 1:
            raise ParameterError(
                f"big clique part n-(b+1)*delta+b*k-1 = {big} must be >= 1"
            )
        if singles < 1:
            raise ParameterError(
                f"singleton count b*delta-b*k+1 = {singles} must be >= 1"
            )
        return big, singles

    def g2_parts(self) -> tuple[int, int]:
        self.validate_common()
        if self.s is None:
            raise ParameterError("separator size s is required")
        n, b, k, s = self.n, self.b, self.k, self.s
        if s < 1:
            raise ParameterError(f"s must be a positive integer, got {s}")
        big = n - (b + 1) * s + b * k - 1
        singles = b * s - b * k + 1
        if big < 1:
            raise ParameterError(f"big clique part n-(b+1)*s+b*k-1 = {big} must be >= 1")
        if singles < 1:
            raise ParameterError(f"singleton count b*s-b*k+1 = {singles} must be >= 1")
        return big, singles

    def g3_parts(self) -> tuple[int, int, int]:
        """(big clique order, number of copies, copy order)."""
        self.validate_common()
        if self.s is None:
            raise ParameterError("separator size s is required")
        n, b, k, d, s = self.n, self.b, self.k, self.delta, self.s
        if s < 1:
            raise ParameterError(f"s must be a positive integer, got {s}")
        if s > d - 1:
            raise ParameterError(f"s = {s} must be <= delta-1 = {d - 1}")
        copies = b * s - b * k + 1
        copy_order = d + 1 - s
        big = n - s - copy_order * copies
        if copies < 1:
            raise ParameterError(f"copy count b*s-b*k+1 = {copies} must be >= 1")
        if big < 1:
            raise ParameterError(
                f"big clique part n-s-(delta+1-s)(b*s-b*k+1) = {big} must be >= 1"
            )
        return big, copies, copy_order


def extremal_gprime(p: ExtremalParams) -> Graph:
    """K_delta v (K_{n-(b+1)delta+bk-1} u (b*delta-bk+1) K_1)."""
    big, singles = p.gprime_parts()
    return family(p.delta, [big] + [1] * singles)


def proof_graph_g2(p: ExtremalParams) -> Graph:
    """K_s v (K_{n-(b+1)s+bk-1} u (bs-bk+1) K_1); coincides with the main family at s=delta."""
    big, singles = p.g2_parts()
    return family(p.s, [big] + [1] * singles)


def proof_graph_g3(p: ExtremalParams) -> Graph:
    """K_s v (K_{n-s-(delta+1-s)(bs-bk+1)} u (bs-bk+1) K_{delta+1-s}), s <= delta-1."""
    big, copies, copy_order = p.g3_parts()
    return family(p.s, [big] + [copy_order] * copies)


def g_star(n: int, b: int, k: int) -> Graph:
    """K_{k+2} v (K_{n-2b-k-3} u (2b+1) K_1) plus one edge between two singletons."""
    if b < 1 or b % 2 == 0:
        raise ParameterError(f"b must be a positive odd integer, got {b}")
    if k < 1:
        raise ParameterError(f"k must be a positive integer, got {k}")
    if (n - k) % 2 != 0:
        raise ParameterError(f"parity violation: n={n} and k={k} must agree mod 2")
    big = n - 2 * b - k - 3
    if big < 1:
        raise ParameterError(f"big clique part n-2b-k-3 = {big} must be >= 1")
    base = family(k + 2, [big] + [1] * (2 * b + 1))
    first_single = k + 2 + big
    return base.with_edge(first_single, first_single + 1)


# -- graph6 / edge-list I/O ----------------------------------------------------

_G6_HEADER = ">>graph6<<"


def write_graph6(g: Graph) -> str:
    """Canonical graph6 encoding (single-byte order up to 62, 3-byte beyond)."""
    n = g.n
    if n <= 62:
        head = [n + 63]
    elif n <= 258047:
        head = [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
    else:
        raise GraphFormatError(f"order {n} exceeds the supported graph6 range")
    out = list(head)
    acc = 0
    nbits = 0
    for v in range(1, n):
        for u in range(v):
            acc = (acc << 1) | (g._adj[u] >> v & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc, nbits = 0, 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return "".join(chr(c) for c in out)


def parse_graph6(text: str) -> Graph:
    """Parse a graph6 string (optionally prefixed with '>>graph6<<')."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise GraphFormatError("empty graph6 input", offset=0)
    # code points, not bytes, so a non-ASCII character keeps its offset
    data = np.frombuffer(s.encode("utf-32-le"), dtype="<u4")
    bad = np.flatnonzero((data < 63) | (data > 126))
    if bad.size:
        i = int(bad[0])
        raise GraphFormatError(f"invalid graph6 byte {int(data[i])!r}", offset=i)
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise GraphFormatError("graph6 orders beyond 258047 unsupported", offset=1)
        if len(data) < 4:
            raise GraphFormatError("truncated graph6 size header", offset=len(data))
        n = (int(data[1] - 63) << 12) | (int(data[2] - 63) << 6) | int(data[3] - 63)
        body_offset = 4
    else:
        n = int(data[0]) - 63
        body_offset = 1
    body = data[body_offset:]
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise GraphFormatError(
            f"graph6 body holds {len(body)} bytes, order {n} needs {need}",
            offset=body_offset + min(len(body), need),
        )
    # six bits per byte, high bit first; pair (u, v), u < v, is bit v(v-1)/2 + u,
    # which is the row-major order of the strictly lower triangle at (v, u)
    bits = np.unpackbits((body - 63).astype(np.uint8)[:, None], axis=1)[:, 2:].ravel()
    adj = np.zeros((n, n), dtype=bool)
    adj[np.tri(n, k=-1, dtype=bool)] = bits[: n * (n - 1) // 2]
    adj |= adj.T
    width = (n + 7) // 8
    packed = np.packbits(adj, axis=1, bitorder="little").tobytes()
    rows = [int.from_bytes(packed[v * width:(v + 1) * width], "little") for v in range(n)]
    return Graph._from_rows(n, rows)


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated 0-indexed 'u v' pairs, one per line.

    Lines starting with '#' are comments.  The order is max index + 1.
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
        edges.append((u, v))
        top = max(top, u, v)
    if not edges:
        raise GraphFormatError("empty edge list: cannot infer vertex count")
    return Graph(top + 1, edges)


def parse_graph_auto(text: str) -> Graph:
    """Parse either format, auto-detected by the first byte.

    graph6 bytes are printable codes >= 63 ('?'), while edge lists start with a
    digit or '#' comment, so the first non-blank byte decides.
    """
    s = text.lstrip()
    if not s:
        raise GraphFormatError("empty graph input")
    if s.startswith(_G6_HEADER) or ord(s[0]) >= 63:
        return parse_graph6(s.splitlines()[0])
    return parse_edge_list(text)


def parse_graph6_corpus(text: str) -> list[Graph]:
    """Parse a corpus file: one graph6 string per line, '#' comments ignored."""
    graphs = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            graphs.append(parse_graph6(line))
    return graphs
