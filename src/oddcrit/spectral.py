"""Dense symmetric matrices of a graph and their spectra.

Builds the distance and distance signless Laplacian matrices, and the
spectral radius of those and of the adjacency and signless Laplacian
(``spectral_radius``).  Distances come from Seidel's squaring of the adjacency
on BLAS (``_distances``); every spectrum and spectral radius from one LAPACK
call, ``np.linalg.eigvalsh``.  Integer matrices stay integer until then.

A spectral radius comes from the c x c quotient of the matrix over the
graph's c twin classes, read from the graph induced on one representative
per class, not from the n x n matrix (``spectral_radius``); a twin-free
graph has c = n.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DisconnectedGraphError, ParameterError
from .graphs import ExtremalParams, Graph, _unpack_masks

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


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    """Descending spectrum of a symmetric finite array; LAPACK failures raise ConvergenceError."""
    try:
        values = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigvalsh failed: {exc}") from exc
    return values[::-1]


def symmetric_eigenvalues(matrix) -> np.ndarray:
    """Full spectrum of a symmetric matrix, descending, after checking its entries."""
    return _eigvalsh(_as_symmetric_float(matrix))


def eigenvalues(matrix) -> Spectrum:
    """Spectrum of a symmetric matrix (absolute accuracy ~1e-10 at desk scale)."""
    return Spectrum(tuple(float(x) for x in symmetric_eigenvalues(matrix)))


# -- matrix builders -----------------------------------------------------------


def _distances(a: np.ndarray) -> np.ndarray:
    """Exact ``int64`` distances of the graph with 0/1 adjacency array ``a``.

    Seidel's algorithm (JCSS 51, 1995) as a loop.  Going up, each level joins
    the pairs at distance <= 2 in the one below, B = A or A^2 off the
    diagonal, halving distances (rounded up) until a level is complete; a
    squaring that adds no pair means the graph is disconnected, so no other
    pass checks connectivity.  Going down from D = 2 - A off the diagonal at
    the level below the complete one, each level doubles the distances T
    above, less one where d(i, j) is odd, i.e. where the sum of T(i, k) over
    the neighbours k of j falls short of deg(j) T(i, j): D = 2T - [TA < T deg].
    O(n^3 log diam) flops, two BLAS products per level, exact in ``float64``
    as every partial sum is an integer below n^2; levels are kept as ``bool``.
    """
    n = len(a)
    level = a.astype(bool)
    pairs = np.count_nonzero(level)
    stack = []
    while pairs < n * n - n:
        stack.append(level)
        f = level.astype(float)
        level = np.logical_or(f @ f, stack[-1])
        level.flat[:: n + 1] = False
        more = np.count_nonzero(level)
        if more == pairs:
            raise DisconnectedGraphError("distance undefined: graph is disconnected")
        pairs = more
    # a complete A is its own top level, and 2 - A is A off the diagonal
    d = 2.0 - (stack.pop() if stack else level)
    d.flat[:: n + 1] = 0
    for level in reversed(stack):
        f = level.astype(float)
        d = 2 * d - (d @ f < d * f.sum(axis=0))
    return d.astype(np.int64)


def distance_matrix(g: Graph) -> np.ndarray:
    """Shortest-path distances as ``int64``, from ``_distances`` on the adjacency."""
    if g.n == 0:
        raise ParameterError("distance matrix undefined for the empty graph")
    return _distances(_unpack_masks(g.adjacency_rows, g.n))


def wiener_index(g: Graph) -> int:
    """W(G): sum of distances over unordered vertex pairs (exact integer)."""
    return int(distance_matrix(g).sum()) // 2


def distance_signless_laplacian_matrix(g: Graph) -> np.ndarray:
    """Q_D = D + Tr with Tr the diagonal transmission matrix."""
    d = distance_matrix(g)
    return d + np.diag(d.sum(axis=1))


def spectral_radius(g: Graph, kind: str = "distance") -> float:
    """Largest eigenvalue of the requested graph matrix, from its twin quotient.

    The classes C_i are the graph's twin partition (``Graph._twins``, a
    vertex without twins a class of its own), in the order of their lowest
    members r_i, which represent them.  The quotient B of a matrix M has
    B_ij = |C_j| M(r_i, r_j) off the diagonal and B_ii = (|C_i| - 1) w_i,
    with w_i the entry between two members of C_i: 1 for true twins, 0
    (adjacency) or 2 (distance) for false twins.  The signless kinds add the
    row sum at r_i, sum_j |C_j| M(r_i, r_j) + (|C_i| - 1) w_i.  The partition
    is equitable, so MP = PB for its characteristic matrix P, and a
    nonnegative Perron vector x of M gives B^T P^T x = rho P^T x with P^T x
    nonzero: B and M share their largest eigenvalue, connected or not.  The
    eigensolver gets B symmetrised through diag(sqrt |C_i|).

    M(r_i, r_j) is read from H, the graph induced on the representatives,
    r_i as vertex i.  A shortest path of G never holds two members of one
    class in a row (true twins could be skipped, false twins are not
    adjacent), and replacing each vertex by its representative keeps every
    edge: d_G(r_i, r_j) = d_H(i, j), and H is connected iff G is, but for
    H = K_1 standing for n >= 2 isolated vertices.  Without twins, H = G.
    """
    if g.n == 0:
        raise ParameterError("spectral radius undefined for the empty graph")
    if kind not in SPECTRAL_KINDS:
        raise ParameterError(f"unknown matrix kind {kind!r}, expected one of {SPECTRAL_KINDS}")
    adj = g.adjacency_rows
    classes = g._twins
    reps = list(classes)
    c = len(reps)
    # per class: its size, and w: 1 for true twins, 0 for false twins and classes of one
    sizes, w = np.array([(len(ms), adj[ms[0]] >> ms[-1] & 1) for ms in classes.values()]).T
    # H's adjacency: columns r_j of rows r_i
    m = _unpack_masks([adj[r] for r in reps], g.n)[:, reps]
    if kind.startswith("distance"):
        if c == 1 and g.n > 1 and not w[0]:
            raise DisconnectedGraphError("distance undefined: graph is disconnected")
        m = _distances(m)
        w = 2 - w
    diagonal = (sizes - 1) * w
    if kind.endswith("signless_laplacian"):
        diagonal += diagonal + m @ sizes
    root = np.sqrt(sizes)
    b = m * (root[:, None] * root)
    b.flat[:: c + 1] = diagonal
    return float(_eigvalsh(b)[0])


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
