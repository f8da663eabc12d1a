"""Edge-list reader against the line-by-line reference it replaced, the dense
build against the fancy-index build it replaced, and the writer's round
trip, bytes and memory."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ngg
from conftest import graph_of
from ngg.edgelist import EdgeListData, read_edge_list, read_header, write_edge_list
from ngg.errors import DomainError


def reference_read_edge_list(path):
    """The line-by-line reader: ``(n, edges, warnings)`` with edges
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
    return n, tuple(sorted(edges)), tuple(warnings)


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
        n, edges, warnings = reference_read_edge_list(path)
    except DomainError:
        with pytest.raises(DomainError):
            read_edge_list(path)
        return
    data = read_edge_list(path)
    assert data.n == n
    assert data.edges.dtype == np.int64 and data.edges.shape == (len(edges), 2)
    assert data.edges.tolist() == [list(e) for e in edges]
    assert data.warnings == warnings
    assert np.array_equal(_fancy_index_adjacency(n, data.edges), _reference_adjacency(n, edges))


def test_read_edge_list_matches_reference_large(tmp_path):
    # thousands of lines with many duplicates, reversals and self-loops
    rng = np.random.default_rng(7)
    pairs = rng.integers(1, 400, size=(5000, 2))
    lines = [f"{u} {v}" if k % 50 else f"% {k}\n{u}\t{v} 1" for k, (u, v) in enumerate(pairs)]
    path = tmp_path / "graph.txt"
    path.write_text("\n".join(lines) + "\n")
    n, edges, warnings = reference_read_edge_list(path)
    data = read_edge_list(path)
    assert (data.n, data.warnings) == (n, warnings)
    assert data.edges.tolist() == [list(e) for e in edges]
    assert np.array_equal(_fancy_index_adjacency(n, data.edges), _reference_adjacency(n, edges))


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
        b"% ngg n\n0 1\n",  # header without n
        b"% ngg n x\n0 1\n",
        b"% ngg n 3 4\n0 1\n",
        b"% ngg n -3\n0 1\n",
        b"% ngg n 1000000000000000000\n",  # 19 digits: past int64 ids
        b"% ngg n 1" + b"0" * 5000 + b"\n",  # past int()'s digit limit
        b"% ngg n 3\n0 3\n",  # id not below the declared n
        b"% ngg n 3\n1 2\n5 5\n",  # even as a self-loop
        b"% ngg n 3\n-1 2\n",
        b"% ngg n 1\n",  # fewer than 2 nodes
        b"% ngg n 3\n0 x\n",
        b"% ngg n 3 space\n0 1\n",  # space without a name
        b"% ngg n 3 spaces sphere:3\n0 1\n",
        b"% ngg n 3 space sphere:3 x\n0 1\n",
        b"% ngg n 3 space torus:3\n0 1\n",
        b"% ngg n 3 space sphere\n0 1\n",
        b"% ngg n 3 space sphere:x\n0 1\n",
        b"% ngg n 3 space sphere:2\n0 1\n",  # not a space
        b"% ngg n 3 space \xff:3\n0 1\n",
        b"% ngg n x space sphere:3\n0 1\n",
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


def test_declared_size_is_checked_before_the_data_is_read(tmp_path, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("read the data")

    monkeypatch.setattr(np, "loadtxt", unreachable)
    path = tmp_path / "huge.txt"
    path.write_text("% ngg n 3000000\n1 2\n")
    with pytest.raises(DomainError, match=r"n = 3000000 nodes needs 67055\.2 GiB"):
        read_edge_list(path)


def _fancy_index_adjacency(n, pairs):
    """The symmetric 0/1 float64 matrix of the 0-based pairs, by two
    fancy-index assignments: the dense oracle of a graph read from a file."""
    a = np.zeros((n, n))
    if len(pairs):
        i, j = np.asarray(pairs).T
        a[i, j] = 1
        a[j, i] = 1
    return a


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(2, 40), st.sampled_from([255, 256, 257, 511, 512, 513]),
                 st.integers(2, 700)),
       st.data())
def test_adjacency_matches_the_fancy_index_build(tmp_path_factory, n, draw):
    # duplicate and reversed pairs, self-loops, 0- or 1-based ids, with or
    # without the "% ngg n" line, up to 700 nodes.  The triangle stage 1
    # reads is the upper one of A / n, bit for bit
    node = st.integers(0, n - 1)
    pairs = draw.draw(st.lists(st.tuples(node, node), max_size=400))
    if pairs:  # some pairs again, reversed
        pairs += [(v, u) for u, v in draw.draw(st.lists(st.sampled_from(pairs), max_size=50))]
    header = draw.draw(st.sampled_from([None, f"% ngg n {n}", f"% ngg n {n} space rp:3"]))
    offset = 0 if header is not None else draw.draw(st.integers(0, 1))
    lines = ([header] if header else []) + [f"{u + offset} {v + offset}" for u, v in pairs]
    path = tmp_path_factory.mktemp("adj") / "graph.txt"
    path.write_text("\n".join(lines) + "\n")
    if header is None:  # the reader's rules: 1-based without node 0, n past the largest id
        shift = 1 if pairs and min(min(p) for p in pairs) + offset >= 1 else 0
        pairs = [(u + offset - shift, v + offset - shift) for u, v in pairs]
    simple = [(u, v) for u, v in pairs if u != v]
    size = n if header else max((max(p) for p in simple), default=-1) + 1
    if size < 2:
        with pytest.raises(DomainError):
            read_edge_list(path)
        return
    data = read_edge_list(path)
    assert data.n == size
    a = _fancy_index_adjacency(size, simple)
    assert np.array_equal(_fancy_index_adjacency(data.n, data.edges), a)
    triangle = data.triangle()
    assert triangle.matrix.dtype == np.float64 and triangle.matrix.flags.c_contiguous
    assert triangle.matrix.tobytes() == np.triu(a / size).tobytes()
    assert triangle.scale == (1 / size if simple else 0.0)


def test_edges_are_read_only_int64_pairs_of_the_keys(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("% ngg n 5\n3 1\n0 4\n1 3\n2 2\n4 0\n1 2\n")
    data = read_edge_list(path)
    assert data.keys.dtype == np.int64 and not data.keys.flags.writeable
    assert data.keys.tolist() == [0 * 5 + 4, 1 * 5 + 2, 1 * 5 + 3]
    edges = data.edges
    assert edges.dtype == np.int64 and edges.shape == (3, 2) and not edges.flags.writeable
    assert edges.tolist() == [[0, 4], [1, 2], [1, 3]]


def test_read_and_build_stay_near_the_memory_floor(tmp_path, mapped):
    # a dense list, half of all pairs, each in either order: reading holds
    # about 25 bytes an edge (the pairs, one key each, a mask), where the
    # fancy-index reader held 73.  The triangle the solve reads is one lazily
    # mapped matrix, which tracemalloc does not see, and the keys
    n = 1000
    rng = np.random.default_rng(0)
    i, j = np.nonzero(np.triu(rng.random((n, n)) < 0.5, 1))
    pairs = np.column_stack((i, j))
    flip = rng.random(len(pairs)) < 0.5
    pairs[flip] = pairs[flip, ::-1]
    path = tmp_path / "graph.txt"
    np.savetxt(path, pairs, fmt="%d")
    m = len(pairs)
    tracemalloc.start()
    try:
        data = read_edge_list(path)
        triangle = data.triangle()
        _, read_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert read_peak <= 40 * m + 2 * 2**20, read_peak / m
    assert mapped(8 * n * n) == 1
    a = _fancy_index_adjacency(data.n, data.edges)
    assert (data.n, len(data.keys)) == (n, m) and np.count_nonzero(a) == 2 * m
    assert np.array_equal(triangle.matrix, np.triu(a / n)) and triangle.scale == 1 / n


def test_read_header(tmp_path):
    path = tmp_path / "graph.txt"
    for text, header in (("% ngg n 6 space rp:3\n", (6, ngg.real_projective(3))),
                         ("% ngg n 6 space complex-projective:2\n",
                          (6, ngg.complex_projective(2))),
                         ("% ngg n 6\n0 1\n", (6, None)),
                         ("% ngg nodes 6 space rp:3\n", (None, None)),
                         ("0 1\n% ngg n 6 space rp:3\n", (None, None)),
                         ("", (None, None))):
        path.write_text(text)
        assert read_header(path) == header


def test_edges_are_read_only(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("0 1\n")
    with pytest.raises(ValueError):
        read_edge_list(path).edges[0, 0] = 5


def test_header_declares_n_and_zero_based_ids(tmp_path):
    # nodes 0 and 5 isolated: without the header this reads as n = 4, shifted
    path = tmp_path / "graph.txt"
    path.write_text("% ngg n 6\n1 2\n2 4\n4 2\n3 3\n")
    data = read_edge_list(path)
    assert data.n == 6
    assert data.edges.tolist() == [[1, 2], [2, 4]]
    assert data.warnings == ("dropped 1 self-loop(s)",)
    path.write_text("1 2\n2 4\n")
    assert read_edge_list(path).n == 4


@pytest.mark.parametrize("text", ["% benchmark graph: 0-based node pairs\n1 2\n",
                                  "%ngg n 9\n1 2\n", "% ngg nodes 9\n1 2\n",
                                  "1 2\n% ngg n 9\n"])
def test_other_first_lines_are_comments(tmp_path, text):
    # only a first line of the tokens "%", "ngg", "n" declares the node count
    path = tmp_path / "graph.txt"
    path.write_text(text)
    data = read_edge_list(path)
    assert data.n == 2 and data.edges.tolist() == [[0, 1]]


@settings(max_examples=200)
@given(st.integers(2, 12), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_write_edge_list_round_trip(tmp_path_factory, n, density, seed):
    # isolated nodes anywhere, and the edgeless graph, read back as written
    a = np.triu(np.random.default_rng(seed).random((n, n)) < density, 1).astype(float)
    a += a.T
    path = tmp_path_factory.mktemp("dump") / "graph.txt"
    write_edge_list(path, graph_of(a), ngg.sphere(3))
    data = read_edge_list(path)
    assert data.n == n and data.warnings == ()
    assert data.edges.tolist() == np.argwhere(np.triu(a, 1)).tolist()
    assert np.array_equal(_fancy_index_adjacency(data.n, data.edges), a)


@pytest.mark.parametrize("space", [ngg.sphere(3), ngg.real_projective(4),
                                   ngg.complex_projective(2), ngg.quaternionic_projective(2),
                                   ngg.octonionic_plane()])
def test_write_edge_list_names_the_space(tmp_path, space):
    a = np.ones((4, 4)) - np.eye(4)
    path = tmp_path / "graph.txt"
    write_edge_list(path, graph_of(a), space)
    assert path.read_text().splitlines()[0] == f"% ngg n 4 space {space.name}"
    assert read_header(path) == (4, space)
    data = read_edge_list(path)
    assert data.n == 4 and np.array_equal(_fancy_index_adjacency(data.n, data.edges), a)


def _edge_list_text(a, space) -> str:
    """The edge-list file of matrix ``a`` drawn on ``space``, written pair by pair."""
    n = len(a)
    return f"% ngg n {n} space {space.name}\n" + "".join(
        f"{i} {j}\n" for i in range(n) for j in range(i + 1, n) if a[i][j])


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 200])
@pytest.mark.parametrize("density", [0.0, 0.1, 1.0])
def test_write_edge_list_bytes(tmp_path, n, density):
    # blocks of rows cover every edge once, the edgeless graph and n = 1 included
    a = np.triu(np.random.default_rng(n).random((n, n)) < density, 1).astype(float)
    a += a.T
    path = tmp_path / "graph.txt"
    write_edge_list(path, graph_of(a), ngg.real_projective(3))
    assert path.read_bytes() == _edge_list_text(a.tolist(), ngg.real_projective(3)).encode()


def test_write_edge_list_allocates_nothing_the_size_of_the_matrix(tmp_path):
    # the text of _WRITE_KEYS lines at a time, not of all 150k
    n = 1000
    graph = graph_of(np.random.default_rng(0).random((n, n)) < 0.3)
    tracemalloc.start()
    try:
        write_edge_list(tmp_path / "graph.txt", graph, ngg.sphere(3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * n * n


_ROUND_TRIP_SPACES = [ngg.sphere(3), ngg.real_projective(3), ngg.complex_projective(2)]


@pytest.mark.parametrize("space", _ROUND_TRIP_SPACES, ids=lambda s: s.name)
def test_dump_round_trip_is_the_identity_on_the_graph(tmp_path, space):
    # generate_graph's keys, written and read back, are the keys, and the
    # header gives back n and the space: a drawn graph, an edgeless one, and
    # graphs of one write chunk of keys, one fewer and one more
    chunk = ngg.edgelist._WRITE_KEYS
    latent = ngg.sample_latent(space, 300, 1)
    drawn = [ngg.generate_graph(latent, ngg.builtin_envelope(5), 2),
             ngg.generate_graph(latent, ngg.constant_envelope(0.0), 2)]
    full = ngg.generate_graph(ngg.sample_latent(space, 200, 3), ngg.constant_envelope(1.0), 4)
    assert full.keys.size == 200 * 199 // 2 > chunk + 1
    for size in (chunk - 1, chunk, chunk + 1):
        keys = full.keys[:size]
        assert keys.size == size and not keys.flags.writeable
        drawn.append(EdgeListData(n=200, keys=keys, warnings=()))
    for k, graph in enumerate(drawn):
        path = tmp_path / f"g{k}.txt"
        write_edge_list(path, graph, space)
        assert read_header(path) == (graph.n, space)
        data = read_edge_list(path)
        assert data.n == graph.n and data.warnings == ()
        assert data.keys.dtype == np.int64 and data.keys.tobytes() == graph.keys.tobytes()
    assert drawn[0].keys.size > 0 and drawn[1].keys.size == 0


def test_one_node_graph_is_written_as_its_header_alone(tmp_path):
    # a graph of one node has no edge to write; read_edge_list refuses it
    # as too small to fit, read_header still gives back n and the space
    graph = ngg.generate_graph(ngg.sample_latent(ngg.real_projective(3), 1, 0),
                               ngg.constant_envelope(1.0), 0)
    assert graph.n == 1 and graph.keys.size == 0
    path = tmp_path / "g.txt"
    write_edge_list(path, graph, ngg.real_projective(3))
    assert path.read_text() == "% ngg n 1 space real-projective:3\n"
    assert read_header(path) == (1, ngg.real_projective(3))
    with pytest.raises(DomainError, match="fewer than 2 nodes"):
        read_edge_list(path)
