"""The graph file format: an edge list.

Edge lists are whitespace-separated integer pairs, one edge per line; '%'
starts a comment (a whole line or the rest of one), blank lines are skipped
and columns after the second are ignored.  A first line reading
``% ngg n <N> space <kind:dim>``, as ``write_edge_list`` writes it, declares
the node count, 0-based ids and the latent space the graph was drawn on
(``read_header``); the older ``% ngg n <N>`` declares the first two only.
With ``N`` declared, isolated nodes and edgeless graphs survive the round
trip.  Without it the node count is one past the largest id and indexing is
auto-detected: files mentioning node 0 are 0-based, otherwise 1-based.  The
parsed graph is simple and undirected: duplicate and reversed pairs
collapse, self-loops are dropped with a warning.

Parsing is numpy's C reader plus in-place array operations.  A graph is kept
as one sorted int64 key ``i * n + j`` per edge ``i < j`` (8 bytes an edge);
``EdgeListData.edges`` derives the ``(m, 2)`` pairs from the keys when read.
``triangle()`` writes ``A / n`` as the eigensolve reads it, the keys' entries
of the upper triangle of the rows, on pages that become resident only where
written: the build holds about half of the matrix's ``8 n^2`` bytes plus the
keys.  ``adjacency()`` builds the whole symmetric matrix, ``8 n^2`` bytes,
with no index copies.  The reader refuses, before allocating it, a dense
``n x n`` float64 matrix larger than the machine's physical memory; a
declared ``N`` is checked before the data is read.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spaces import LatentSpace, parse_space
from .spectral import _BLOCK, Triangle, check_dense_size, lazy_zeros

__all__ = ["EdgeListData", "read_edge_list", "read_header", "write_edge_list"]

_HEADER = "% ngg n"
_WRITE_ROWS = 64  # rows of the matrix searched for edges at a time


@dataclass(frozen=True)
class EdgeListData:
    n: int
    keys: np.ndarray  # (m,) int64 i * n + j of the edges i < j, sorted, unique, read-only
    warnings: tuple[str, ...]

    @property
    def edges(self) -> np.ndarray:
        """The ``(m, 2)`` int64 pairs ``i < j``, 0-based, sorted, read-only."""
        edges = np.stack(np.divmod(self.keys, self.n), axis=1)
        edges.flags.writeable = False
        return edges

    def triangle(self) -> Triangle:
        """``A / n`` as stage 1 of the eigensolve reads it: ``1.0 / n`` (bit
        for bit ``A / n``'s entries) scattered at the keys, so only the upper
        triangle of the rows is written, into a ``lazy_zeros`` matrix whose
        untouched pages never become resident."""
        value = 1.0 / self.n
        m = lazy_zeros(self.n)
        m.reshape(-1)[self.keys] = value
        return Triangle(m, value if self.keys.size else 0.0)

    def adjacency(self) -> np.ndarray:
        """The symmetric 0/1 float64 matrix: the keys scattered into the
        upper triangle, then mirrored one pair of ``_BLOCK x _BLOCK`` tiles at
        a time, as ``spectral``'s symmetry check walks them, so the only
        temporary is one tile."""
        n = self.n
        a = np.zeros((n, n))
        a.reshape(-1)[self.keys] = 1.0
        for lo in range(0, n, _BLOCK):
            rows = slice(lo, lo + _BLOCK)
            diagonal = a[rows, rows]
            diagonal += diagonal.T  # its lower triangle is still 0
            for lo2 in range(lo + _BLOCK, n, _BLOCK):
                cols = slice(lo2, lo2 + _BLOCK)
                a[cols, rows] = a[rows, cols].T
        return a


def write_edge_list(path, adjacency: np.ndarray, space: LatentSpace) -> None:
    """Write the graph of a symmetric 0/1 matrix, drawn on ``space``, as an
    edge list: the ``% ngg n <N> space <kind:dim>`` line, then one ``i j``
    line per edge ``i < j`` in row-major order.  The edges are found
    ``_WRITE_ROWS`` rows at a time, so nothing the size of the matrix is
    allocated."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_HEADER} {adjacency.shape[0]} space {space.name}\n")
        for lo in range(0, adjacency.shape[0], _WRITE_ROWS):
            i, j = np.nonzero(adjacency[lo : lo + _WRITE_ROWS])
            edges = np.column_stack((i + lo, j))[j > i + lo]
            # one format of all the lines: twice as fast as a format per line
            fh.write(("%d %d\n" * len(edges)) % tuple(edges.ravel().tolist()))


def read_header(path) -> tuple[int | None, LatentSpace | None]:
    """The ``N`` and the space of a ``% ngg n <N> [space <kind:dim>]`` first
    line; ``(None, None)`` for a file without one, and no space for the
    older line without it."""
    with open(path, "rb") as fh:
        parts = fh.readline().split()
    if parts[:3] != _HEADER.encode().split():
        return None, None
    # at most 18 digits: past that no node id fits in int64
    if (len(parts) not in (4, 6) or not parts[3].isdigit() or len(parts[3]) > 18
            or parts[4:5] not in ([], [b"space"])):
        raise DomainError(f"{path}: first line must read '{_HEADER} <N>' or '{_HEADER} <N> "
                          "space <kind:dim>' with N a nonnegative integer of at most 18 digits")
    if len(parts) == 4:
        return int(parts[3]), None
    try:
        return int(parts[3]), parse_space(parts[5].decode("utf-8", "replace"))
    except DomainError as exc:
        raise DomainError(f"{path}: first line: {exc}") from exc


def read_edge_list(path) -> EdgeListData:
    declared = read_header(path)[0]
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
    pairs.sort(axis=1)  # in place: each row becomes (lo, hi)
    lo, hi = pairs[:, 0], pairs[:, 1]
    low = int(lo.min()) if pairs.size else 0
    if low < 0:
        raise DomainError(f"{path}: negative node id {low}")
    if declared is None and low >= 1:  # no node 0: 1-based ids
        pairs -= 1
    if declared is not None and pairs.size and hi.max() >= declared:
        raise DomainError(
            f"{path}: node id {int(hi.max())} is not below the declared n = {declared}"
        )
    loop = lo == hi
    loops = int(np.count_nonzero(loop))
    n = int(hi.max(initial=-1, where=~loop)) + 1 if declared is None else declared
    if n < 2:
        raise DomainError(f"{path}: graph has fewer than 2 nodes")
    check_dense_size(n, path)
    keys = lo * n  # n*n fits in int64 once the size check passed
    keys += hi
    keys[loop] = -1  # sorts first, and is cut off below
    del pairs, lo, hi, loop  # 17 bytes an edge from here on, not 25
    keys.sort()
    keys = keys[np.searchsorted(keys, 0):]
    keep = np.empty(keys.size, dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    keys = keys[keep]  # np.unique, without its hash path or its copies
    keys.flags.writeable = False
    return EdgeListData(
        n=n,
        keys=keys,
        warnings=(f"dropped {loops} self-loop(s)",) if loops else (),
    )
