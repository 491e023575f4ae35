"""Vertex partitions, equitable partitions and quotient matrices.

The quotient of a symmetric matrix under a partition averages the row sums of
each block.  When the partition is equitable every quotient eigenvalue is an
eigenvalue of the source matrix, and for a nonnegative source the quotient's
largest eigenvalue equals the full spectral radius; the join families are
built so that their natural three-cell partitions are equitable.  The
theorem evaluators do not come here for a radius: ``spectral.spectral_radius``
builds the twin quotient of any graph, the comparison families included.

Quotients of join partitions are not symmetric, but they are diagonally
similar to symmetric matrices (scale by sqrt of the cell sizes), so their
spectra are real and can be computed two independent ways: from the
symmetrized matrix by LAPACK or, for orders <= 3, from the characteristic
polynomial in closed form.  Both must agree to 1e-9.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ParameterError
from .graphs import Graph, _pack_masks
from .spectral import _as_symmetric_float, symmetric_eigenvalues


@dataclass(frozen=True)
class Partition:
    """Ordered list of disjoint nonempty cells covering {0..n-1}."""

    cells: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return sum(len(c) for c in self.cells)

    def __len__(self) -> int:
        return len(self.cells)


def partition_of(cells) -> Partition:
    """Validate and freeze a list of vertex cells into a Partition."""
    frozen = tuple(tuple(sorted(cell)) for cell in cells)
    if not frozen:
        raise ParameterError("partition needs at least one cell")
    seen: set[int] = set()
    total = 0
    for cell in frozen:
        if not cell:
            raise ParameterError("partition cells must be nonempty")
        total += len(cell)
        seen.update(cell)
    if len(seen) != total:
        raise ParameterError("partition cells must be disjoint")
    if seen != set(range(total)):
        raise ParameterError("partition cells must cover 0..n-1 exactly")
    return Partition(frozen)


@dataclass
class QuotientMatrix:
    """Average-row-sum quotient of a symmetric matrix under a partition."""

    entries: np.ndarray
    cell_sizes: tuple[int, ...]

    @property
    def order(self) -> int:
        return len(self.cell_sizes)

    def eigenvalues(self) -> np.ndarray:
        """Spectrum (descending) via the symmetrized balanced form.

        With C = diag(cell sizes) the quotient is C^{-1} B for a symmetric B,
        so C^{-1/2} B C^{-1/2} is symmetric with the same spectrum.
        """
        c = np.array(self.cell_sizes, dtype=float)
        scale = np.sqrt(c)
        balanced = self.entries * (scale[:, None] / scale[None, :])
        balanced = (balanced + balanced.T) / 2.0
        return symmetric_eigenvalues(balanced)

    def largest_root_closed_form(self) -> float:
        """Largest root of the characteristic polynomial; closed forms for order <= 3."""
        m = self.order
        a = self.entries
        if m == 1:
            return float(a[0, 0])
        if m == 2:
            tr = float(a[0, 0] + a[1, 1])
            det = float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
            disc = tr * tr - 4.0 * det
            if disc < 0:
                if disc < -1e-9 * max(1.0, tr * tr):
                    raise ParameterError("quotient has complex spectrum")
                disc = 0.0
            return (tr + math.sqrt(disc)) / 2.0
        if m == 3:
            tr = float(np.trace(a))
            minors = float(
                a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
                + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
                + a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]
            )
            det = float(np.linalg.det(a))
            return _cubic_largest_real_root(-tr, minors, -det)
        raise ParameterError(f"closed-form roots implemented for order <= 3, got {m}")


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _cubic_largest_real_root(c2: float, c1: float, c0: float) -> float:
    """Largest real root of x^3 + c2 x^2 + c1 x + c0."""
    p = c1 - c2 * c2 / 3.0
    q = c0 + (2.0 * c2 ** 3 - 9.0 * c2 * c1) / 27.0
    shift = -c2 / 3.0
    half_q = q / 2.0
    disc = half_q * half_q + (p / 3.0) ** 3
    if disc > 0.0:
        r = math.sqrt(disc)
        return _cbrt(-half_q + r) + _cbrt(-half_q - r) + shift
    if p == 0.0:
        return shift
    m = 2.0 * math.sqrt(-p / 3.0)
    arg = 3.0 * q / (p * m)
    theta = math.acos(min(1.0, max(-1.0, arg))) / 3.0
    return m * math.cos(theta) + shift


def quotient(matrix, partition: Partition) -> QuotientMatrix:
    """Entry (i, j) is the mean over rows in cell i of the row sums over cell j.

    With P the n x m cell indicator matrix, that is (P^T A P) / |cell i|; on
    integer matrices every sum is exact.
    """
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError(f"expected a square matrix, got shape {a.shape}")
    if partition.n != a.shape[0]:
        raise ParameterError(
            f"partition covers {partition.n} indices but the matrix has order {a.shape[0]}"
        )
    a = _as_symmetric_float(a)
    p = np.zeros((a.shape[0], len(partition.cells)))
    for j, cell in enumerate(partition.cells):
        p[list(cell), j] = 1.0
    sizes = tuple(len(c) for c in partition.cells)
    return QuotientMatrix((p.T @ a @ p) / np.array(sizes, dtype=float)[:, None], sizes)


def perron_vector(matrix) -> np.ndarray:
    """Positive unit eigenvector of the largest eigenvalue, by LAPACK ``eigh``.

    Requires a nonnegative irreducible symmetric matrix (irreducibility is
    checked as connectivity of the nonzero off-diagonal support).  LAPACK
    fixes an eigenvector only up to sign; the one returned has a positive sum.
    """
    a = _as_symmetric_float(matrix)
    n = a.shape[0]
    if n == 0:
        raise ParameterError("empty matrix has no Perron vector")
    if a.min() < 0:
        raise ParameterError("Perron vector requires a nonnegative matrix")
    positive = a > 0
    np.fill_diagonal(positive, False)
    support = Graph._from_rows(n, _pack_masks(positive))
    if n > 1 and not support.is_connected():
        raise ParameterError("matrix is reducible: off-diagonal support is disconnected")
    if n == 1 and a[0, 0] == 0.0:
        raise ParameterError("zero matrix has no Perron vector")
    try:
        x = np.linalg.eigh(a)[1][:, -1]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"LAPACK eigh failed: {exc}") from exc
    if x.sum() < 0:
        x = -x
    if x.min() <= 0:
        raise ParameterError("dominant eigenvector is not strictly positive")
    return x
