"""Partitions that only the tests build, and an equitability check for them."""
from __future__ import annotations

import numpy as np

from oddcrit.errors import ParameterError
from oddcrit.partitions import Partition, partition_of


def discrete_partition(n: int) -> Partition:
    return partition_of([(v,) for v in range(n)])


def join_partition(s: int, parts: list[int]) -> Partition:
    """Three-cell partition of a join family: join cell, first part, the rest.

    Matches the canonical labeling of the family constructor.  Empty groups
    (s=0, or a single part) are dropped, so the result may have fewer cells.
    """
    if s < 0 or not parts or any(p < 1 for p in parts):
        raise ParameterError("join partition needs s >= 0 and nonempty positive parts")
    first = parts[0]
    rest = sum(parts[1:])
    n = s + first + rest
    cells = []
    if s:
        cells.append(tuple(range(s)))
    cells.append(tuple(range(s, s + first)))
    if rest:
        cells.append(tuple(range(s + first, n)))
    return partition_of(cells)


def is_equitable(matrix, partition: Partition, *, tol: float = 1e-9) -> bool:
    """Whether every block has constant row sums (exact for integer matrices)."""
    a = np.asarray(matrix)
    exact = np.issubdtype(a.dtype, np.integer)
    for ci in partition.cells:
        rows = a[np.ix_(ci, range(a.shape[0]))]
        for cj in partition.cells:
            sums = rows[:, cj].sum(axis=1)
            if exact:
                if not (sums == sums[0]).all():
                    return False
            else:
                if np.abs(sums - sums[0]).max() > tol:
                    return False
    return True
