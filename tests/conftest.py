import bisect
import itertools
import mmap
import types
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import ngg
from ngg.edgelist import EdgeListData

settings.register_profile(
    "fast",
    max_examples=25,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fast")


def dense(graph):
    """The symmetric boolean adjacency matrix of a graph's ``EdgeListData``,
    set at its keys and mirrored: the dense oracle of the tests."""
    a = np.zeros(graph.n * graph.n, dtype=bool)
    a[graph.keys] = True
    a = a.reshape(graph.n, graph.n)
    return a | a.T


def graph_of(adjacency):
    """The ``EdgeListData`` of a symmetric 0/1 matrix: the sorted keys
    ``i * n + j`` of its edges ``i < j``, as ``generate_graph`` returns them."""
    keys = np.flatnonzero(np.triu(np.asarray(adjacency), 1))
    keys.flags.writeable = False
    return EdgeListData(n=len(adjacency), keys=keys, warnings=())


UNIT_ROUNDOFF = 2.0**-53  # of float64 round-to-nearest


def gamma(k):
    """``k u / (1 - k u)``, the relative error bound of ``k`` roundings of
    unit roundoff ``u`` each (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., 2002, Lemma 3.1)."""
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def delta2_merge_bound(dist, size):
    """How far ``ngg.delta2`` of two expansions with ``size`` values in all
    may lie from ``delta2_runs`` of their runs, ``dist``.  Both take the same
    rounded squares of the same rounded differences, and the exact sum S of
    those squares from there on.  The expansion adds at most ``size`` of
    them, padding included, over two sums and their total: any order of
    adding nonnegative terms so is within ``gamma(size)`` of S (Higham,
    2002, section 4.2).  The merge rounds each ``count * square`` once and
    their sum once: within ``gamma(2)``.  The square root halves a relative
    error and is rounded once on each side, so the distances lie within
    ``(gamma(size) + gamma(2)) / 2 + 2u``, below ``gamma(size + 4)``."""
    return gamma(size + 4) * dist


def exact_squared_distance(x, y):
    """The squared ``delta2`` of two multisets given as ``(values,
    counts)``, in exact rational arithmetic, without expanding either: each
    sign's values laid out by position (nonnegative ones decreasing,
    negative ones increasing, zeros past the end) and compared between the
    run ends of either.  The oracle for multiplicities too large to
    expand."""
    total = Fraction(0)
    for nonneg in (True, False):
        sides = []
        for values, counts in (x, y):
            runs = sorted(((float(v), int(c)) for v, c in zip(values, counts)
                           if c and (v >= 0) == nonneg), reverse=nonneg)
            sides.append(([v for v, _ in runs], list(itertools.accumulate(c for _, c in runs))))
        cuts = sorted({0, *sides[0][1], *sides[1][1]})
        for lo, hi in zip(cuts, cuts[1:]):
            a, b = (Fraction(values[k]) if (k := bisect.bisect_right(ends, lo)) < len(values)
                    else Fraction(0) for values, ends in sides)
            total += (hi - lo) * (a - b) ** 2
    return total


@pytest.fixture(scope="session")
def sphere3():
    return ngg.sphere(3)


@pytest.fixture(scope="session")
def basis3():
    return ngg.harmonic_basis(ngg.sphere(3), 16)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def fail_lapack():
    """``fail(patch, name, info)``: the ``MonkeyPatch`` ``patch`` makes the
    LAPACK routine ``name`` of ``ngg.spectral._lapack()`` write ``info`` to
    INFO, its last argument, after it runs.  Skips where the gate does not
    resolve."""

    def fail(patch, name, info):
        lapack = ngg.spectral._lapack()
        if lapack is None:
            pytest.skip("numpy's LAPACK lacks the routines of the two-stage solve")
        call, routine = ngg.spectral._fortran, lapack[name]

        def failing(fn, *args):
            out = call(fn, *args)
            if fn is routine:
                args[-1][0] = info
            return out

        patch.setattr(ngg.spectral, "_fortran", failing)

    return fail


@pytest.fixture
def mapped(monkeypatch):
    """``mapped(size)``: how many of the maps ``ngg.spectral.lazy_zeros``
    made during the test, of at least ``size`` bytes, are still alive.
    ``tracemalloc`` does not see these buffers, so a memory test counts them
    here."""
    maps = []

    def recorded(*args, **kwargs):
        buf = mmap.mmap(*args, **kwargs)
        maps.append(weakref.ref(buf))
        return buf

    shim = types.SimpleNamespace(**{k: getattr(mmap, k) for k in dir(mmap)
                                    if not k.startswith("__")})
    shim.mmap = recorded
    monkeypatch.setattr(ngg.spectral, "mmap", shim)
    return lambda size: sum(1 for ref in maps if (buf := ref()) is not None and len(buf) >= size)


@pytest.fixture(scope="session")
def orthonormality_gram():
    """Gram matrix of a basis's orthonormal family under its cosine law, by
    exact Gauss-Jacobi quadrature (identity up to round-off for a correct
    basis), as a function of the basis and the top degree."""

    def gram(basis, max_degree):
        alpha, beta = basis.beta_shape
        x, w = ngg.spaces._panel_rule(alpha, beta, -1.0, 1.0, max_degree + 1)
        z = basis.orthonormal_all(max_degree, x)
        return (z * w) @ z.T

    return gram
