"""Dense symmetric matrices of a graph and their spectra.

Builds the adjacency, signless Laplacian, distance and distance signless
Laplacian matrices.  Every spectrum and spectral radius comes from one
LAPACK call, ``np.linalg.eigvalsh``.  Matrices with integer entries stay
integer until they enter the eigensolver.

A spectral radius comes from the c x c quotient of the matrix over the
graph's c twin classes, which needs one breadth-first search per class for
the distance kinds, not from the n x n matrix (``spectral_radius``); a
twin-free graph has c = n.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DisconnectedGraphError,
    ParameterError,
)
from .graphs import ExtremalParams, Graph, _bits, _twin_classes, _unpack_masks

SPECTRAL_KINDS = (
    "adjacency",
    "signless_laplacian",
    "distance",
    "distance_signless_laplacian",
)


@dataclass(frozen=True)
class Spectrum:
    """All real eigenvalues of a symmetric matrix, sorted descending."""

    values: tuple[float, ...]

    @property
    def radius(self) -> float:
        if not self.values:
            raise ParameterError("empty spectrum has no radius")
        return self.values[0]

    def __len__(self) -> int:
        return len(self.values)


def _as_symmetric_float(matrix) -> np.ndarray:
    a = np.array(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {a.shape}")
    if a.size:
        # the largest magnitude is finite exactly when every entry is
        scale = float(np.abs(a).max())
        if not np.isfinite(scale):
            raise ParameterError("matrix entries must be finite")
        if float(np.abs(a - a.T).max()) > 1e-12 * max(scale, 1.0):
            raise ParameterError("matrix is not symmetric")
    return a


def symmetric_eigenvalues(matrix) -> np.ndarray:
    """Full spectrum of a symmetric matrix, descending, by LAPACK ``eigvalsh``.

    A LAPACK failure to converge is raised as ConvergenceError.
    """
    a = _as_symmetric_float(matrix)
    try:
        values = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigvalsh failed: {exc}") from exc
    return values[::-1]


def eigenvalues(matrix) -> Spectrum:
    """Spectrum of a symmetric matrix (absolute accuracy ~1e-10 at desk scale)."""
    return Spectrum(tuple(float(x) for x in symmetric_eigenvalues(matrix)))


# -- matrix builders -----------------------------------------------------------


def adjacency_matrix(g: Graph) -> np.ndarray:
    return _unpack_masks(g.adjacency_rows, g.n).astype(np.int64)


def signless_laplacian_matrix(g: Graph) -> np.ndarray:
    """Q = D_deg + A with D_deg the diagonal degree matrix."""
    a = adjacency_matrix(g)
    return a + np.diag(np.array(g.degrees(), dtype=np.int64))


def _distance_rows(g: Graph, sources) -> np.ndarray:
    """Rows of the distance matrix for ``sources``, by breadth-first search.

    The searches from all sources run on bitsets and advance one level at a
    time together.  A level stops expanding as soon as the neighbours of the
    vertices walked so far cover every vertex still unseen, which on dense
    graphs is after a few of them.  d(v, u) is the number of levels at which
    u is still unseen from v, so after each level the unseen sets of all
    sources are unpacked into one 0/1 array and added to the result.  The sum
    runs in ``uint16`` (every distance is below n) up to order 65535 and is
    returned as ``int64``, so transmissions and the Wiener index stay exact.
    A level that reaches no new vertex while some stay unseen means the
    graph is disconnected.
    """
    if g.n == 0:
        raise ParameterError("distance matrix undefined for the empty graph")
    n = g.n
    full = (1 << n) - 1
    non_neighbours = [full ^ row for row in g.adjacency_rows]
    unseen = [full ^ (1 << v) for v in sources]
    frontier = [1 << v for v in sources]
    dist = np.zeros((len(unseen), n), dtype=np.uint16 if n <= 0xFFFF else np.int64)
    while any(unseen):
        dist += _unpack_masks(unseen, n)
        for i, rest in enumerate(unseen):
            if not rest:
                continue
            # _bits inlined, as in _component_mask: this walk is the hot loop
            f = frontier[i]
            while f:
                low = f & -f
                rest &= non_neighbours[low.bit_length() - 1]
                if not rest:
                    break
                f ^= low
            if rest == unseen[i]:
                raise DisconnectedGraphError("distance undefined: graph is disconnected")
            frontier[i] = unseen[i] ^ rest
            unseen[i] = rest
    return dist.astype(np.int64)


def distance_matrix(g: Graph) -> np.ndarray:
    """Shortest-path distances, one breadth-first search per vertex (``_distance_rows``)."""
    return _distance_rows(g, range(g.n))


def transmissions(g: Graph) -> np.ndarray:
    """Per-vertex transmission Tr(v): sum of distances from v to all vertices."""
    return distance_matrix(g).sum(axis=1)


def wiener_index(g: Graph) -> int:
    """W(G): sum of distances over unordered vertex pairs (exact integer)."""
    return int(distance_matrix(g).sum()) // 2


def distance_signless_laplacian_matrix(g: Graph) -> np.ndarray:
    """Q_D = D + Tr with Tr the diagonal transmission matrix."""
    d = distance_matrix(g)
    return d + np.diag(d.sum(axis=1))


_MATRIX_BUILDERS = {
    "adjacency": adjacency_matrix,
    "signless_laplacian": signless_laplacian_matrix,
    "distance": distance_matrix,
    "distance_signless_laplacian": distance_signless_laplacian_matrix,
}


def check_kind(kind: str) -> None:
    """Raise unless ``kind`` names one of the ``SPECTRAL_KINDS``."""
    if kind not in SPECTRAL_KINDS:
        raise ParameterError(f"unknown matrix kind {kind!r}, expected one of {SPECTRAL_KINDS}")


def graph_matrix(g: Graph, kind: str) -> np.ndarray:
    check_kind(kind)
    return _MATRIX_BUILDERS[kind](g)


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def spectral_radius(g: Graph, kind: str = "distance") -> float:
    """Largest eigenvalue of the requested graph matrix, from its twin quotient.

    With classes C_i and representatives r_i, the quotient B of a matrix M
    has B_ij = |C_j| M(r_i, r_j) off the diagonal and B_ii = (|C_i| - 1)
    M(r_i, m_i) for a second member m_i of C_i, read from the graph; the
    signless kinds add the row sum of M at r_i, the degree or transmission.
    The partition is equitable, so MP = PB for its characteristic matrix P,
    and a nonnegative Perron vector x of M gives B^T P^T x = rho P^T x with
    P^T x nonzero: B and M share their largest eigenvalue, whether or not the
    graph is connected.  B is similar to a symmetric matrix through
    diag(sqrt |C_i|), which is what goes to the eigensolver.
    """
    if g.n == 0:
        raise ParameterError("spectral radius undefined for the empty graph")
    check_kind(kind)
    classes = _twin_classes(g.adjacency_rows)
    # a vertex without twins is a class of its own
    alone = ((1 << g.n) - 1) ^ sum(classes)
    classes += [1 << v for v in _bits(alone)]
    reps = [_lowest(c) for c in classes]
    # the second member, or the representative itself in a class of one
    mates = [_lowest(c & (c - 1) or c) for c in classes]
    if kind in ("adjacency", "signless_laplacian"):
        rows = _unpack_masks([g.adjacency_rows[r] for r in reps], g.n).astype(np.int64)
    else:
        rows = _distance_rows(g, reps)
    sizes = np.array([c.bit_count() for c in classes], dtype=float)
    root = np.sqrt(sizes)
    b = rows[:, reps] * np.outer(root, root)
    diagonal = (sizes - 1) * rows[np.arange(len(reps)), mates]
    if kind in ("signless_laplacian", "distance_signless_laplacian"):
        diagonal += rows.sum(axis=1)
    np.fill_diagonal(b, diagonal)
    return float(symmetric_eigenvalues(b)[0])


def wiener_gprime_closed_form(p: ExtremalParams) -> int:
    """Closed-form Wiener index of the main extremal family (exact integer).

    Equals [n^2 + (2bd-2bk+1)n - (b^2+2b)d^2 + ((2b^2+2b)k-3b-2)d
    - b^2k^2 + 3bk - 2] / 2 with d the minimum-degree parameter.
    """
    p.gprime_parts()  # validates
    n, b, k, d = p.n, p.b, p.k, p.delta
    twice = (
        n * n
        + (2 * b * d - 2 * b * k + 1) * n
        - (b * b + 2 * b) * d * d
        + ((2 * b * b + 2 * b) * k - 3 * b - 2) * d
        - b * b * k * k
        + 3 * b * k
        - 2
    )
    if twice % 2 != 0:
        raise ParameterError("closed form evaluated to an odd total; invalid parameters")
    return twice // 2


def check_interlacing(outer, inner, *, tol: float = 1e-8) -> bool:
    """Whether two descending spectra interlace: l_i(A) >= l_i(B) >= l_{n-m+i}(A)."""
    outer = np.asarray(outer, dtype=float)
    inner = np.asarray(inner, dtype=float)
    n, m = len(outer), len(inner)
    if m > n:
        raise ParameterError("inner spectrum longer than outer spectrum")
    return not ((outer[:m] < inner - tol).any() or (inner < outer[n - m:] - tol).any())
