"""Edge-list reader against the line-by-line reference it replaced."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ngg.edgelist import is_adjacency_dump, read_edge_list, write_adjacency
from ngg.errors import DomainError


def reference_read_edge_list(path):
    """The line-by-line reader: ``(n, edges, one_based, warnings)`` with edges
    a sorted tuple of 0-based ``(i, j)``, ``i < j``."""
    raw_pairs = []
    warnings = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("%"):
            continue
        parts = line.split()
        if len(parts) < 2:
            raise DomainError(f"{path}:{lineno}: expected two node ids, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise DomainError(f"{path}:{lineno}: non-integer node id in {line!r}") from exc
        if u < 0 or v < 0:
            raise DomainError(f"{path}:{lineno}: negative node id")
        raw_pairs.append((u, v))
    if not raw_pairs:
        raise DomainError(f"{path}: no edges found")
    one_based = min(min(u, v) for u, v in raw_pairs) >= 1
    shift = 1 if one_based else 0
    edges = set()
    loops = 0
    for u, v in raw_pairs:
        u -= shift
        v -= shift
        if u == v:
            loops += 1
            continue
        edges.add((min(u, v), max(u, v)))
    if loops:
        warnings.append(f"dropped {loops} self-loop(s)")
    n = 1 + max(max(e) for e in edges) if edges else 0
    if n < 2:
        raise DomainError(f"{path}: graph has fewer than 2 nodes")
    return n, tuple(sorted(edges)), one_based, tuple(warnings)


def _reference_adjacency(n, edges):
    a = np.zeros((n, n))
    for i, j in edges:
        a[i, j] = 1
        a[j, i] = 1
    return a


_space = st.sampled_from(["", " ", "\t"])
_edge_line = st.tuples(
    _space,
    st.integers(0, 6),
    st.sampled_from([" ", "\t", "  ", " \t"]),
    st.integers(0, 6),
    st.sampled_from(["", " 1", " 0.5 x", "\t7 1e3"]),  # ignored columns
    _space,
    st.sampled_from(["", " % note", " %"]),  # inline comment
)
_other_line = st.sampled_from(["", " ", "\t ", "%", "% header", "  % indented", "%% 1 2"])
_text = st.tuples(
    st.lists(st.one_of(_edge_line, _edge_line, _other_line), max_size=60),
    st.integers(0, 1),  # added to every node id: 1 makes the file 1-based
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
)


def _render(drawn) -> str:
    lines, offset, newline, trailing = drawn
    out = []
    for line in lines:
        if isinstance(line, tuple):
            lead, u, sep, v, extra, tail, comment = line
            line = f"{lead}{u + offset}{sep}{v + offset}{extra}{tail}{comment}"
        out.append(line)
    return newline.join(out) + (newline if trailing else "")


@settings(max_examples=300)
@given(_text)
def test_read_edge_list_matches_reference(tmp_path_factory, drawn):
    path = tmp_path_factory.mktemp("fuzz") / "graph.txt"
    path.write_bytes(_render(drawn).encode())
    try:
        n, edges, one_based, warnings = reference_read_edge_list(path)
    except DomainError:
        with pytest.raises(DomainError):
            read_edge_list(path)
        return
    data = read_edge_list(path)
    assert data.n == n
    assert data.edges.dtype == np.int64 and data.edges.shape == (len(edges), 2)
    assert data.edges.tolist() == [list(e) for e in edges]
    assert data.one_based == one_based
    assert data.warnings == warnings
    assert np.array_equal(data.adjacency(), _reference_adjacency(n, edges))


def test_read_edge_list_matches_reference_large(tmp_path):
    # thousands of lines with many duplicates, reversals and self-loops
    rng = np.random.default_rng(7)
    pairs = rng.integers(1, 400, size=(5000, 2))
    lines = [f"{u} {v}" if k % 50 else f"% {k}\n{u}\t{v} 1" for k, (u, v) in enumerate(pairs)]
    path = tmp_path / "graph.txt"
    path.write_text("\n".join(lines) + "\n")
    n, edges, one_based, warnings = reference_read_edge_list(path)
    data = read_edge_list(path)
    assert (data.n, data.one_based, data.warnings) == (n, one_based, warnings)
    assert data.edges.tolist() == [list(e) for e in edges]
    assert np.array_equal(data.adjacency(), _reference_adjacency(n, edges))


@pytest.mark.parametrize(
    "text",
    [
        b"1\n",
        b"1 x\n",
        b"x 1\n",
        b"-1 2\n",
        b"1.5 2\n",
        b"1,2\n",
        b"1 2\n3\n",
        b"",
        b"% only comments\n\n",
        b"3 3\n4 4\n",  # self-loops only
        b"99999999999999999999 1\n",  # past int64
        b"1 2\n\xff\xfe 3\n",  # not UTF-8
    ],
)
def test_read_edge_list_malformed(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_bytes(text)
    with pytest.raises(DomainError):
        read_edge_list(path)


def test_read_edge_list_refuses_matrix_larger_than_memory(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("1 2\n2 3000000\n")
    with pytest.raises(DomainError, match=r"n = 3000000 nodes needs 67055\.2 GiB"):
        read_edge_list(path)


def test_edges_are_read_only(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("0 1\n")
    with pytest.raises(ValueError):
        read_edge_list(path).edges[0, 0] = 5


@pytest.mark.parametrize("fmt", ["rle", "dense"])
def test_is_adjacency_dump(tmp_path, fmt):
    dump = tmp_path / "adj.txt"
    write_adjacency(dump, np.ones((3, 3)) - np.eye(3), fmt=fmt)
    assert is_adjacency_dump(dump)
    for text in ("1 2\n2 3\n", "ngg-adjac", "", "% ngg-adjacency 1 rle\n"):
        other = tmp_path / "g.txt"
        other.write_text(text)
        assert not is_adjacency_dump(other), text
