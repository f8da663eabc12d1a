"""Edge-list ingestion and adjacency dump formats.

Edge lists are whitespace-separated integer pairs, one edge per line; '%'
starts a comment (a whole line or the rest of one), blank lines are skipped
and columns after the second are ignored.  Indexing is auto-detected: files
mentioning node 0 are 0-based, otherwise 1-based.  The parsed graph is simple
and undirected: duplicate and reversed pairs collapse, self-loops are dropped
with a warning.  Parsing is numpy's C reader plus array operations; the edges
come back as a sorted ``(m, 2)`` int64 array.

Both readers refuse, before allocating it, a dense ``n x n`` float64 matrix
larger than the machine's physical memory.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DomainError
from .spectral import check_dense_size

__all__ = ["EdgeListData", "read_edge_list", "is_adjacency_dump", "write_adjacency",
           "read_adjacency"]


@dataclass(frozen=True)
class EdgeListData:
    n: int
    edges: np.ndarray  # (m, 2) int64, 0-based, i < j, sorted, read-only
    one_based: bool
    warnings: tuple[str, ...]

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        i, j = self.edges.T
        a[i, j] = 1
        a[j, i] = 1
        return a


def read_edge_list(path) -> EdgeListData:
    try:
        with warnings.catch_warnings():
            # an input with no data lines is reported below as "no edges"
            warnings.simplefilter("ignore", UserWarning)
            pairs = np.loadtxt(path, comments="%", usecols=(0, 1), dtype=np.int64,
                               ndmin=2, encoding="utf-8")
    except ValueError as exc:  # also overflow and undecodable bytes
        raise DomainError(f"{path}: {exc}") from exc
    if not pairs.size:
        raise DomainError(f"{path}: no edges found")
    low = int(pairs.min())
    if low < 0:
        raise DomainError(f"{path}: negative node id {low}")
    one_based = low >= 1
    if one_based:
        pairs -= 1
    loop = pairs[:, 0] == pairs[:, 1]
    loops = int(np.count_nonzero(loop))
    pairs = pairs[~loop]
    n = int(pairs.max()) + 1 if pairs.size else 0
    if n < 2:
        raise DomainError(f"{path}: graph has fewer than 2 nodes")
    check_dense_size(n, path)
    lo = pairs.min(axis=1)
    hi = pairs.max(axis=1)
    keys = np.sort(lo * n + hi)  # n*n fits in int64 once the size check passed
    keys = keys[np.r_[True, keys[1:] != keys[:-1]]]  # np.unique, without its hash path
    edges = np.column_stack((keys // n, keys % n))
    edges.flags.writeable = False
    return EdgeListData(
        n=n,
        edges=edges,
        one_based=one_based,
        warnings=(f"dropped {loops} self-loop(s)",) if loops else (),
    )


# ---------------------------------------------------------------------------
# adjacency dumps: run-length-encoded upper triangle, or dense 0/1 rows

_MAGIC = "ngg-adjacency"


def _upper(n: int) -> np.ndarray:
    """Mask of the pairs i < j.  Indexing with it visits them in row-major
    order, as ``np.triu_indices(n, 1)`` does, from n^2 bytes rather than two
    int64 arrays of n(n-1)/2 indices each."""
    return np.arange(n) > np.arange(n)[:, None]


def is_adjacency_dump(path) -> bool:
    """Whether the file at ``path`` starts with the adjacency dump header."""
    with open(path, "rb") as fh:
        return fh.read(len(_MAGIC)) == _MAGIC.encode()


def write_adjacency(path, adj: np.ndarray, fmt: str = "rle"):
    adj = np.asarray(adj)
    n = adj.shape[0]
    if fmt == "dense":
        lines = [f"{_MAGIC} 1 dense", f"n {n}"]
        lines.extend("".join("1" if x else "0" for x in row) for row in adj.astype(bool))
    elif fmt == "rle":
        bits = adj[_upper(n)].astype(np.uint8)
        lines = [f"{_MAGIC} 1 rle", f"n {n}", f"start {int(bits[0]) if bits.size else 0}"]
        if bits.size:
            change = np.flatnonzero(np.diff(bits)) + 1
            bounds = np.concatenate(([0], change, [bits.size]))
            runs = np.diff(bounds)
            lines.extend(
                " ".join(str(int(r)) for r in runs[i : i + 64]) for i in range(0, runs.size, 64)
            )
    else:
        raise DomainError(f"unknown adjacency format {fmt!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _header_int(path, lines, index: int, key: str) -> int:
    """The value of header line ``index``, which must read ``key <integer>``."""
    parts = lines[index].split() if index < len(lines) else []
    if len(parts) != 2 or parts[0] != key:
        raise DomainError(f"{path}: header line {index + 1} must read '{key} <integer>'")
    try:
        return int(parts[1])
    except ValueError as exc:
        raise DomainError(f"{path}: header line {index + 1}: non-integer {key} {parts[1]!r}") from exc


def read_adjacency(path) -> np.ndarray:
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: {exc}") from exc
    if not lines or not lines[0].startswith(_MAGIC):
        raise DomainError(f"{path}: not an adjacency dump")
    header = lines[0].split()
    fmt = header[2] if len(header) >= 3 else ""
    if fmt not in ("dense", "rle"):
        raise DomainError(f"{path}: unknown adjacency dump format {fmt!r}")
    n = _header_int(path, lines, 1, "n")
    if n < 0:
        raise DomainError(f"{path}: negative node count n = {n}")
    check_dense_size(n, path)
    if fmt == "dense":
        rows = lines[2 : 2 + n]
        if len(rows) != n or any(len(row) != n or row.strip("01") for row in rows):
            raise DomainError(f"{path}: dense dump must have {n} rows of {n} '0'/'1' characters")
        adj = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8).reshape(n, n)
        return (adj - ord("0")).astype(np.float64)
    start = _header_int(path, lines, 2, "start")
    if start not in (0, 1):
        raise DomainError(f"{path}: start must be 0 or 1, got {start}")
    try:
        runs = [int(tok) for line in lines[3:] for tok in line.split()]
    except ValueError as exc:
        raise DomainError(f"{path}: non-integer run length: {exc}") from exc
    total = n * (n - 1) // 2
    if min(runs, default=0) < 0 or sum(runs) != total:
        raise DomainError(f"{path}: run lengths must be >= 0 and cover all {total} pairs")
    # runs alternate between the start bit and its complement
    bits = np.repeat(((start + np.arange(len(runs))) % 2).astype(np.uint8), runs)
    adj = np.zeros((n, n), dtype=np.float64)
    adj[_upper(n)] = bits
    adj += adj.T
    return adj
