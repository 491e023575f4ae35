"""Independent oracles for the odd-factor and criticality checks of ``oddcrit.factors``,
and reference versions of code the package now does another way.

None of the criticality oracles uses the engine's pruning:

- ``find_odd_factor`` builds a factor edge by edge, so it does not use the
  odd-component criterion at all;
- ``is_k_critical_definitional`` applies the definition of k-criticality:
  every k-vertex deletion leaves a graph with a constructive factor;
- ``full_scan`` tests the criterion literally on every subset S in (size,
  numeric) order, with no settled sizes, twin classes or early exit inside a
  count; it shares only the graph's component search with the engine.

``without_vertices``, ``without_edge`` and ``criticality_witness_extremal``
serve only these tests.  ``write_graph6_per_bit`` and ``report_json_via_dumps``
are the earlier graph6 writer and report writer, kept as references for the
ones in the package.  So are ``parse_graph6_per_row``,
``clique_cover_size_min_scan``, ``k_connected_fan_per_vertex`` and
``twin_classes_every_vertex``: the graph6 decoder, greedy clique cover,
Even's test and twin detector as they were before their per-vertex steps
moved into builtins and numpy.  ``find_violation_per_vertex`` is the
criticality scan as it was before it moved onto the twin quotient, with
its walk ``canonical_subsets_per_vertex`` and layout
``twin_layout_per_vertex``: every subset it tests and every odd-component
count runs on vertices, and theta comes from the vertex-level greedy
``clique_cover_size_min_scan``.  ``is_join_family_components`` is the
join-family test as it was before it read the twin partition: it counts
the universal vertices and searches the components of the rest.

``reference_matrix`` builds the full matrix of each spectral kind from the
edge list and scipy's shortest paths, sharing no code with the package.
"""
from __future__ import annotations

import json
from itertools import combinations
from typing import Iterable, Optional, Sequence

import numpy as np
from scipy.sparse.csgraph import shortest_path

from oddcrit.errors import GraphFormatError, ParameterError, ScaleLimitError
from oddcrit.factors import CriticalityVerdict
from oddcrit.graphs import (
    ExtremalParams,
    Graph,
    _bits,
    _component_mask,
    _fan_reaches,
    _integer,
    _k_connected,
    _odd_components,
    _twin_classes,
)

#: size limits of the constructive odd-factor search
ORACLE_MAX_VERTICES = 12
ORACLE_MAX_EDGES = 24


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
    remaining = [row.bit_count() for row in g.adjacency_rows]
    if 0 in remaining:
        return None
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


def is_k_critical_definitional(g: Graph, b: int, k: int) -> bool:
    """Whether every deletion of k vertices leaves a graph with a constructive odd factor."""
    return all(
        find_odd_factor(without_vertices(g, removal), b) is not None
        for removal in combinations(range(g.n), k)
    )


def full_scan(g: Graph, f, k: int = 0, *, max_size: Optional[int] = None) -> CriticalityVerdict:
    """The odd-component criterion tested on every S with k <= |S| <= min(max_size, n - 1).

    ``f`` is an odd bound or one per vertex, taken as given.  Sets are
    tested in (size, numeric bitmask) order, each against
    sum_S f - max{sum_X f : X <= S, |X| = k} with o(G - S) counted in full by
    ``Graph.odd_components_after_removal``.  The verdict reads like
    ``oddcrit.factors.is_k_critical``: the first violating S as witness, every
    tested S counted, and ``critical=None`` when a search bounded by
    ``max_size`` found nothing.
    """
    n = g.n
    fvals = (f,) * n if isinstance(f, int) else tuple(f)
    top = n - 1 if max_size is None else min(max_size, n - 1)
    examined = 0
    for size in range(k, top + 1):
        for mask in range(1 << n):
            if mask.bit_count() != size:
                continue
            examined += 1
            chosen = [v for v in range(n) if mask >> v & 1]
            weights = [fvals[v] for v in chosen]
            bound = sum(weights) - max(sum(x) for x in combinations(weights, k))
            if g.odd_components_after_removal(chosen) > bound:
                return CriticalityVerdict(False, frozenset(chosen), examined)
    return CriticalityVerdict(None if max_size is not None else True, None, examined)


def without_vertices(g: Graph, drop: Iterable[int]) -> Graph:
    """Induced subgraph on the kept vertices, relabeled order-preservingly."""
    dropset = set(drop)
    keep = [v for v in range(g.n) if v not in dropset]
    index = {v: i for i, v in enumerate(keep)}
    edges = [
        (index[u], index[v])
        for u, v in g.edges()
        if u not in dropset and v not in dropset
    ]
    return Graph(len(keep), edges)


def without_edge(g: Graph, u: int, v: int) -> Graph:
    """``g`` less the edge uv (the same graph if uv is no edge)."""
    return Graph(g.n, [e for e in g.edges() if e != (min(u, v), max(u, v))])


def criticality_witness_extremal(p: ExtremalParams) -> frozenset[int]:
    """The join cell of the main extremal family as a criticality violation.

    Deleting those delta vertices leaves the big clique (odd order, forced by
    the parity constraints) plus b*delta - b*k + 1 isolated vertices, so
    o(G'-S) = b*delta - b*k + 2 > b*(delta - k): the family is never k-critical.
    """
    p.gprime_parts()  # validates
    return frozenset(range(p.delta))


def write_graph6_per_bit(g: Graph) -> str:
    """graph6 text built one vertex pair at a time."""
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
            acc = (acc << 1) | (g.adjacency_rows[v] >> u & 1)
            nbits += 1
            if nbits == 6:
                out.append(acc + 63)
                acc, nbits = 0, 0
    if nbits:
        out.append((acc << (6 - nbits)) + 63)
    return "".join(chr(c) for c in out)


def report_json_via_dumps(payload) -> str:
    """Floats rounded to 12 significant digits in a copy, then ``json.dumps``."""
    return json.dumps(_format_floats(payload), indent=2, sort_keys=True) + "\n"


def _format_floats(obj):
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {key: _format_floats(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_format_floats(val) for val in obj]
    return obj


def parse_graph6_per_row(text: str) -> Graph:
    """graph6 decoding through a strided bit copy, a fresh triangle mask and one slice per row."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphFormatError("empty graph6 input", offset=0)
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
    bits = np.unpackbits((body - 63).astype(np.uint8)[:, None], axis=1)[:, 2:].ravel()
    adj = np.zeros((n, n), dtype=bool)
    adj[np.tri(n, k=-1, dtype=bool)] = bits[: n * (n - 1) // 2]
    adj |= adj.T
    width = (n + 7) // 8
    packed = np.packbits(adj, axis=1, bitorder="little").tobytes()
    rows = [int.from_bytes(packed[v * width:(v + 1) * width], "little") for v in range(n)]
    return Graph._from_rows(n, rows)


def clique_cover_size_min_scan(adj, n: int) -> int:
    """Greedy clique cover size, each start found by a scan of every uncovered vertex."""
    uncovered = (1 << n) - 1
    degree = [row.bit_count() for row in adj]
    cliques = 0
    while uncovered:
        v = min(_bits(uncovered), key=degree.__getitem__)
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


def twin_layout_per_vertex(adj):
    """The twin partition (``graphs._twin_classes``) as ``(cls, prefixes, wholes)``.

    ``cls[v]`` is the mask of v's class, ``1 << v`` when v has no twin, and
    ``prefixes`` and ``wholes`` are the ``(heads, ones)`` of the two kinds
    of subsets that ``canonical_subsets_per_vertex`` walks: every v heads
    the prefix of its class up to v, a single vertex when v is the lowest
    member, and the top member of every class heads the whole class, a
    single vertex for a class of one.  In a graph without twins every vertex heads a
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


def canonical_subsets_per_vertex(avail: int, size: int, cls, heads: int, ones: int):
    """Size-subsets of ``avail`` made of blocks from distinct twin classes, in increasing order.

    The block headed by h is the prefix of h's class up to h, which is the
    whole class when h is its top member; ``heads`` are the vertices that
    head a block, ``ones`` those whose block is h alone (see
    ``twin_layout_per_vertex``).  With ``avail`` closed under taking lower
    members of a class, subsets are ordered by their largest member h first; h brings
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


def find_violation_per_vertex(
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
    it enumerates, it uses the twin classes (see ``twin_layout_per_vertex``):
    at size k it tests one S per orbit of the twin swaps, the one taking the lowest
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
            theta = theta or clique_cover_size_min_scan(adj, n)
            if theta <= bound:
                break
        if size > k or (n - size) % 2 == 0:
            below_kappa = below_kappa and size + 1 < n and _k_connected(adj, size + 1)
            if below_kappa:
                continue
        if twins is None:
            twins = twin_layout_per_vertex(adj)
        cls, prefixes, wholes = twins
        blocks = prefixes if size == k else wholes
        for mask in canonical_subsets_per_vertex(full, size, cls, *blocks):
            examined += 1
            if _odd_components(adj, full & ~mask, bound) > bound:
                return mask, examined
    return None, examined


def k_connected_fan_per_vertex(adj, k: int) -> bool:
    """Even's test with a fan search called for every later vertex, degrees counted per use."""
    if k == 1:
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


def twin_classes_every_vertex(adj) -> dict[int, list[int]]:
    """Twin partition, lowest member -> ascending members, with every vertex in both maps.

    A vertex without twins is a class of its own.
    """
    closed: dict = {}
    open_: dict = {}
    for v, row in enumerate(adj):
        closed.setdefault(row | 1 << v, []).append(v)
        open_.setdefault(row, []).append(v)
    twins = {c[0]: c for c in (*closed.values(), *open_.values()) if len(c) > 1}
    members = {v for c in twins.values() for v in c}
    classes = {**twins, **{v: [v] for v in range(len(adj)) if v not in members}}
    return dict(sorted(classes.items()))


def is_join_family_components(g: Graph, s: int, parts: Sequence[int]) -> bool:
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


def reference_matrix(g: Graph, kind: str) -> np.ndarray:
    """The full ``int64`` matrix of a spectral ``kind``, for a connected graph if a distance kind.

    Adjacency from ``g.edges()``, distances from scipy's ``shortest_path``,
    and the signless kinds with the row sums added on the diagonal.
    """
    m = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges():
        m[u, v] = m[v, u] = 1
    if kind.startswith("distance"):
        m = shortest_path(m, directed=False, unweighted=True).astype(np.int64)
    if kind.endswith("signless_laplacian"):
        m += np.diag(m.sum(axis=1))
    return m
