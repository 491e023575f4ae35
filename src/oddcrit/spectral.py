"""Dense symmetric matrices of a graph and their spectra.

Builds the adjacency, signless Laplacian, distance and distance signless
Laplacian matrices, and computes full spectra with a Jacobi solver.  Each
sweep visits every index pair once in the round-robin parallel ordering of
Brent & Luk (1985, SIAM J. Sci. Stat. Comput. 6:69-84): n-1 rounds of n/2
disjoint pairs, so the rotations of one round commute and are applied
together as one orthogonal similarity.  Sweeps repeat until the off-diagonal
Frobenius mass drops below 1e-12 * ||M||.  Matrices with integer entries stay
integer until they enter the eigensolver.

For nonnegative matrices a shifted power iteration serves as a fast path for
the largest eigenvalue; it must (and in the test suite does) agree with the
full decomposition to well below 1e-8.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DisconnectedGraphError,
    ParameterError,
)
from .graphs import ExtremalParams, Graph, _unpack_masks

#: relative off-diagonal mass at which the Jacobi sweeps stop
OFF_DIAGONAL_TOLERANCE = 1e-12

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
    if a.size and not np.isfinite(a).all():
        raise ParameterError("matrix entries must be finite")
    scale = float(np.abs(a).max()) if a.size else 0.0
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(scale, 1.0)):
        raise ParameterError("matrix is not symmetric")
    return a


@functools.lru_cache(maxsize=64)
def _round_robin_schedule(n: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """One Jacobi sweep for order n as rounds of disjoint pairs (p, q), p < q.

    Circle-method round robin: seat 0 stays put while the others move one
    place per round, so n-1 rounds cover every unordered pair exactly once.
    Odd n gets an extra seat n: its partner sits out that round, giving n
    rounds of (n-1)/2 pairs.  The index arrays are read-only because the
    cache hands them to every caller.
    """
    m = n + n % 2
    seats = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [
            (min(x, y), max(x, y))
            for x, y in zip(seats[: m // 2], reversed(seats[m // 2 :]))
            if max(x, y) < n
        ]
        p = np.array([x for x, _ in pairs], dtype=np.intp)
        q = np.array([y for _, y in pairs], dtype=np.intp)
        p.setflags(write=False)
        q.setflags(write=False)
        rounds.append((p, q))
        seats = [seats[0], seats[-1], *seats[1:-1]]
    return tuple(rounds)


def symmetric_eigenvalues(
    matrix, *, rel_tol: float = OFF_DIAGONAL_TOLERANCE, max_sweeps: int = 100
) -> np.ndarray:
    """Full spectrum of a symmetric matrix, descending, by parallel Jacobi sweeps.

    Each sweep visits every index pair once, in the round-robin parallel
    ordering of Brent & Luk (1985): n-1 rounds of n/2 disjoint pairs (odd n:
    n rounds, with one index sitting out each).  All rotations of a round
    are applied together as ``A <- J^T A J``, with J the identity carrying
    the 2x2 rotation blocks; pairs whose entry is at most ``1e-15 * ||M||_F``
    are skipped.  Sweeps repeat until the off-diagonal Frobenius mass is at most
    ``rel_tol * ||M||_F``, checked before each sweep; ConvergenceError is
    raised if that takes more than ``max_sweeps`` sweeps.
    """
    a = _as_symmetric_float(matrix)
    n = a.shape[0]
    if n == 0:
        return np.empty(0)
    if n == 1:
        return np.array([a[0, 0]])
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return np.zeros(n)
    skip = 1e-15 * norm
    off_mask = ~np.eye(n, dtype=bool)
    schedule = _round_robin_schedule(n)
    for _ in range(max_sweeps):
        # summed off the mask directly: total-minus-diagonal cancels catastrophically
        off = math.sqrt(float((a[off_mask] ** 2).sum()))
        if off <= rel_tol * norm:
            return np.sort(np.diag(a))[::-1].copy()
        for p, q in schedule:
            apq = a[p, q]
            live = np.abs(apq) > skip
            if not live.any():
                continue
            p, q, apq = p[live], q[live], apq[live]
            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = np.copysign(1.0, theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            j = np.eye(n)
            j[p, p] = c
            j[q, q] = c
            j[p, q] = s
            j[q, p] = -s
            a = j.T @ a @ j
    raise ConvergenceError(
        f"Jacobi sweeps did not reach off-diagonal mass {rel_tol:g}*||M|| "
        f"within {max_sweeps} sweeps"
    )


def eigenvalues(matrix) -> Spectrum:
    """Spectrum of a symmetric matrix (absolute accuracy ~1e-10 at desk scale)."""
    return Spectrum(tuple(float(x) for x in symmetric_eigenvalues(matrix)))


def dominant_eigenpair(
    matrix, *, rel_tol: float = 1e-12, max_iter: int = 200000
) -> tuple[float, np.ndarray]:
    """Largest eigenvalue and unit eigenvector of a nonnegative symmetric matrix.

    Power iteration on the shifted matrix M + ||M||_inf * I, started from the
    all-ones vector, so the dominant eigenvalue of the shifted matrix is the
    sought one and the start has positive overlap with its eigenspace.  Stops
    when the residual ||Mx - lambda x||_inf drops below rel_tol * ||M||_inf;
    the eigenvalue error is then quadratically smaller.
    """
    a = _as_symmetric_float(matrix)
    if a.size and a.min() < 0:
        raise ParameterError("power iteration fast path expects a nonnegative matrix")
    n = a.shape[0]
    if n == 0:
        raise ParameterError("empty matrix has no dominant eigenpair")
    x = np.full(n, 1.0 / math.sqrt(n))
    if float(np.abs(a).max()) == 0.0:
        return 0.0, x
    shift = float(np.abs(a).sum(axis=1).max())
    for _ in range(max_iter):
        y = a @ x + shift * x
        rayleigh = float(x @ y)
        if float(np.abs(y - rayleigh * x).max()) <= rel_tol * max(1.0, shift):
            return rayleigh - shift, x
        norm_y = float(np.linalg.norm(y))
        if norm_y == 0.0:
            raise ConvergenceError("power iteration collapsed to the zero vector")
        x = y / norm_y
    raise ConvergenceError(
        f"power iteration did not reach residual {rel_tol:g}*scale in {max_iter} steps"
    )


# -- matrix builders -----------------------------------------------------------


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=np.int64)
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1
    return a


def signless_laplacian_matrix(g: Graph) -> np.ndarray:
    """Q = D_deg + A with D_deg the diagonal degree matrix."""
    a = adjacency_matrix(g)
    return a + np.diag(np.array(g.degrees(), dtype=np.int64))


def distance_matrix(g: Graph) -> np.ndarray:
    """Shortest-path distances by breadth-first search from every vertex.

    The n searches run on bitsets and advance one level at a time together.
    A level stops expanding as soon as the neighbours of the vertices walked
    so far cover every vertex still unseen, which on dense graphs is after a
    few of them.  d(v, u) is the number of levels at which u is still unseen
    from v, so after each level the unseen sets of all sources are unpacked
    into one n x n 0/1 array and added to the result.
    """
    if g.n == 0:
        raise ParameterError("distance matrix undefined for the empty graph")
    if not g.is_connected():
        raise DisconnectedGraphError("distance undefined: graph is disconnected")
    n = g.n
    full = (1 << n) - 1
    non_neighbours = [full ^ row for row in g.adjacency_rows]
    unseen = [full ^ (1 << v) for v in range(n)]
    frontier = [1 << v for v in range(n)]
    dist = np.zeros((n, n), dtype=np.int64)
    while any(unseen):
        dist += _unpack_masks(unseen, n)
        for v in range(n):
            rest = unseen[v]
            if not rest:
                continue
            # _bits inlined, as in _component_mask: this walk is the hot loop
            f = frontier[v]
            while f:
                low = f & -f
                rest &= non_neighbours[low.bit_length() - 1]
                if not rest:
                    break
                f ^= low
            frontier[v] = unseen[v] ^ rest
            unseen[v] = rest
    return dist


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


def graph_matrix(g: Graph, kind: str) -> np.ndarray:
    try:
        builder = _MATRIX_BUILDERS[kind]
    except KeyError:
        raise ParameterError(
            f"unknown matrix kind {kind!r}, expected one of {SPECTRAL_KINDS}"
        ) from None
    return builder(g)


def spectral_radius(g: Graph, kind: str = "distance") -> float:
    """Largest eigenvalue of the requested graph matrix.

    Uses the power-iteration fast path (all four matrices are nonnegative)
    and falls back to the Jacobi solver if it stalls.
    """
    if g.n == 0:
        raise ParameterError("spectral radius undefined for the empty graph")
    m = graph_matrix(g, kind)
    try:
        lam, _ = dominant_eigenpair(m)
        return lam
    except ConvergenceError:
        return float(symmetric_eigenvalues(m)[0])


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
    for i in range(m):
        if outer[i] < inner[i] - tol:
            return False
        if inner[i] < outer[n - m + i] - tol:
            return False
    return True
