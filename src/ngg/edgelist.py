"""The graph file format: an edge list.

Edge lists are whitespace-separated integer pairs, one edge per line; '%'
starts a comment (a whole line or the rest of one), blank lines are skipped
and columns after the second are ignored.  A first line reading
``% ngg n <N>``, as ``write_edge_list`` writes it, declares the node count
and 0-based ids, so isolated nodes and edgeless graphs survive the round
trip.  Without it the node count is one past the largest id and indexing is
auto-detected: files mentioning node 0 are 0-based, otherwise 1-based.  The
parsed graph is simple and undirected: duplicate and reversed pairs
collapse, self-loops are dropped with a warning.  Parsing is numpy's C
reader plus array operations; the edges come back as a sorted ``(m, 2)``
int64 array.

The reader refuses, before allocating it, a dense ``n x n`` float64 matrix
larger than the machine's physical memory; a declared ``N`` is checked
before the data is read.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spectral import check_dense_size

__all__ = ["EdgeListData", "read_edge_list", "write_edge_list"]

_HEADER = "% ngg n"
_WRITE_ROWS = 64  # rows of the matrix searched for edges at a time


@dataclass(frozen=True)
class EdgeListData:
    n: int
    edges: np.ndarray  # (m, 2) int64, 0-based, i < j, sorted, read-only
    warnings: tuple[str, ...]

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        i, j = self.edges.T
        a[i, j] = 1
        a[j, i] = 1
        return a


def write_edge_list(path, adjacency: np.ndarray) -> None:
    """Write the graph of a symmetric 0/1 matrix as an edge list: the
    ``% ngg n <N>`` line, then one ``i j`` line per edge ``i < j`` in
    row-major order.  The edges are found ``_WRITE_ROWS`` rows at a time, so
    nothing the size of the matrix is allocated."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_HEADER} {adjacency.shape[0]}\n")
        for lo in range(0, adjacency.shape[0], _WRITE_ROWS):
            i, j = np.nonzero(adjacency[lo : lo + _WRITE_ROWS])
            edges = np.column_stack((i + lo, j))[j > i + lo]
            # one format of all the lines: twice as fast as a format per line
            fh.write(("%d %d\n" * len(edges)) % tuple(edges.ravel().tolist()))


def _declared_n(path) -> int | None:
    """The ``N`` of a ``% ngg n <N>`` first line, or None for a file without one."""
    with open(path, "rb") as fh:
        parts = fh.readline().split()
    if parts[:3] != _HEADER.encode().split():
        return None
    # at most 18 digits: past that no node id fits in int64
    if len(parts) != 4 or not parts[3].isdigit() or len(parts[3]) > 18:
        raise DomainError(f"{path}: first line must read '{_HEADER} <N>' with N a "
                          "nonnegative integer of at most 18 digits")
    return int(parts[3])


def read_edge_list(path) -> EdgeListData:
    declared = _declared_n(path)
    if declared is not None:
        check_dense_size(declared, path)  # before the data is read
    try:
        with warnings.catch_warnings():
            # an input with no data lines is reported below as "no edges"
            warnings.simplefilter("ignore", UserWarning)
            pairs = np.loadtxt(path, comments="%", usecols=(0, 1), dtype=np.int64,
                               ndmin=2, encoding="utf-8")
    except ValueError as exc:  # also overflow and undecodable bytes
        raise DomainError(f"{path}: {exc}") from exc
    if declared is None and not pairs.size:
        raise DomainError(f"{path}: no edges found")
    low = int(pairs.min()) if pairs.size else 0
    if low < 0:
        raise DomainError(f"{path}: negative node id {low}")
    if declared is None and low >= 1:  # no node 0: 1-based ids
        pairs -= 1
    if declared is not None and pairs.size and pairs.max() >= declared:
        raise DomainError(
            f"{path}: node id {int(pairs.max())} is not below the declared n = {declared}"
        )
    loop = pairs[:, 0] == pairs[:, 1]
    loops = int(np.count_nonzero(loop))
    pairs = pairs[~loop]
    n = int(pairs.max(initial=-1)) + 1 if declared is None else declared
    if n < 2:
        raise DomainError(f"{path}: graph has fewer than 2 nodes")
    check_dense_size(n, path)
    lo = pairs.min(axis=1)
    hi = pairs.max(axis=1)
    keys = np.sort(lo * n + hi)  # n*n fits in int64 once the size check passed
    keys = keys[np.diff(keys, prepend=-1) != 0]  # np.unique, without its hash path
    edges = np.column_stack((keys // n, keys % n))
    edges.flags.writeable = False
    return EdgeListData(
        n=n,
        edges=edges,
        warnings=(f"dropped {loops} self-loop(s)",) if loops else (),
    )
