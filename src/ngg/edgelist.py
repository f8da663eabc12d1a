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

Parsing is numpy's C reader plus in-place array operations.  A graph, read
here or drawn by ``generate_graph``, is an ``EdgeListData``: one sorted
int64 key ``i * n + j`` per edge ``i < j`` (8 bytes an edge); ``edges``
derives the ``(m, 2)`` pairs when read.  ``triangle()``, its one dense
form, writes ``A / n`` as the eigensolve reads it: the keys' entries of the
upper triangle of the rows, on pages that become resident only where
written, so the build holds about half of the matrix's ``8 n^2`` bytes plus
the keys.  The reader refuses, before allocating it, a dense ``n x n``
float64 matrix larger than the machine's physical memory; a declared ``N``
is checked before the data is read.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spaces import LatentSpace, parse_space
from .spectral import Triangle, check_dense_size, lazy_zeros

__all__ = ["EdgeListData", "read_edge_list", "read_header", "write_edge_list"]

_HEADER = "% ngg n"
_WRITE_KEYS = 1 << 14  # edges formatted at a time: about 2 MB of ints and text
_CHECK_KEYS = 1 << 16  # keys compared at a time when an EdgeListData is checked


@dataclass(frozen=True)
class EdgeListData:
    n: int
    keys: np.ndarray  # (m,) int64 i * n + j of the edges i < j, sorted, unique, read-only
    warnings: tuple[str, ...]

    def __post_init__(self):
        """Refuse keys that are not a graph on ``n`` nodes: anything but a 1-D
        int64 array, strictly increasing, whose every key is ``i * n + j``
        with ``0 <= i < j < n``.  The order is checked ``_CHECK_KEYS`` keys at
        a time; then, the keys being sorted, row ``i``'s keys with ``j <= i``
        are those in ``[i * n, i * n + i]``, counted by two binary searches a
        row, so no temporary grows with the edge count."""
        n, keys = self.n, self.keys
        if not isinstance(n, int) or n < 1:
            raise DomainError(f"graph must have a positive integer node count, got {n!r}")
        if not isinstance(keys, np.ndarray) or keys.ndim != 1 or keys.dtype != np.int64:
            raise DomainError("edge keys must be a 1-D int64 array")
        for lo in range(0, keys.size - 1, _CHECK_KEYS):
            run = keys[lo : lo + _CHECK_KEYS + 1]
            if not (run[1:] > run[:-1]).all():
                raise DomainError("edge keys must be strictly increasing")
        if keys.size and not (0 <= keys[0] and keys[-1] < n * n):
            raise DomainError(f"edge keys must lie in [0, n^2) = [0, {n * n}) for n = {n}")
        first = np.searchsorted(keys, np.arange(0, n * n, n))  # at or past (i, 0)
        upper = np.searchsorted(keys, np.arange(1, n * n + 1, n + 1))  # past (i, i)
        bad = np.flatnonzero(first != upper)
        if bad.size:
            key = int(keys[first[bad[0]]])
            raise DomainError(f"edge key {key} is the pair {divmod(key, n)}, not i < j")

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


def write_edge_list(path, graph: EdgeListData, space: LatentSpace) -> None:
    """Write ``graph``, drawn on ``space``, as an edge list: the ``% ngg n
    <N> space <kind:dim>`` line, then one ``i j`` line per edge ``i < j`` in
    key order, ``_WRITE_KEYS`` keys at a time, so the text of no more than
    that many lines is held at once."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_HEADER} {graph.n} space {space.name}\n")
        for lo in range(0, graph.keys.size, _WRITE_KEYS):
            edges = np.stack(np.divmod(graph.keys[lo : lo + _WRITE_KEYS], graph.n), axis=1)
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
