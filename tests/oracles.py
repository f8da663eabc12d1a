"""Reference implementations the tests compare the library against, and the
helpers that feed a dense test matrix to the one-input solve.

numpy and ``ngg`` only: the numpy-only CI job imports this module too.
"""

import math

import numpy as np

from ngg.errors import DomainError
from ngg.estimator import ZERO_BLOCK, _fit_resolutions, _read_runs, _run_costs
from ngg.spectral import as_spectrum, band_spectrum, lazy_zeros, reduce_to_band, write_triangle


def delta2(x, y) -> float:
    """l2 rearrangement distance between two real multisets, elementwise:
    the oracle of ``ngg.spectral.delta2_runs``.

    Both inputs are implicitly padded with zeros; by the Hardy-Littlewood
    rearrangement inequality the optimal matching aligns the nonnegative
    entries downward from the largest and the negative entries upward from
    the smallest, surplus entries on either side matching zero.  Exact zeros
    count as nonnegative (either convention gives the same distance).  Both
    inputs go through ``as_spectrum``, so a non-finite entry is refused and a
    multiset compared with many others can be sorted once beforehand.  A
    distance too large for a float64 is refused.
    """
    x, y = as_spectrum(x), as_spectrum(y)
    xp, yp = (int(np.count_nonzero(s.values >= 0)) for s in (x, y))  # the nonnegative prefixes
    xn, yn = x.n - xp, y.n - yp
    kp = max(xp, yp)
    pad = np.zeros((2, kp + max(xn, yn)))  # x then y: nonnegative run, then negative run
    pad[0, :xp] = x.values[:xp]
    pad[1, :yp] = y.values[:yp]
    pad[0, kp : kp + xn] = x.values[::-1][:xn]  # most negative first
    pad[1, kp : kp + yn] = y.values[::-1][:yn]
    with np.errstate(over="ignore"):
        sq = (pad[0] - pad[1]) ** 2
        dist = math.sqrt(sq[:kp].sum() + sq[kp:].sum())
    if not math.isfinite(dist):
        raise DomainError("delta2 overflows float64")
    return dist


def score_ordering(spectrum, ordering, dims):
    """Stage values and squared-deviation score of one block ordering: the
    oracle of the subset DP, with the exhaustive search over all orderings.

    The sorted eigenvalues are cut into consecutive runs with lengths given by
    the ordering; a degree block contributes the run's squared deviation from
    its mean (the fitted stage), the zero block contributes the run's raw sum
    of squares.  The run costs are the DP's own (``_run_costs``, read off by
    ``_read_runs``), so the formula lives in one place.
    """
    spec = as_spectrum(spectrum)
    n = spec.n
    r = len(ordering) - 2
    if sorted(ordering) != [ZERO_BLOCK, *range(r + 1)]:
        raise DomainError(f"ordering {tuple(ordering)} is not a permutation of -1, 0..r")
    if len(dims) <= r:
        raise DomainError(f"need {r + 1} dimensions for the ordering, got {len(dims)}")
    dims = tuple(int(d) for d in dims[: r + 1])
    total = sum(dims)
    if total > n:
        raise DomainError(f"need n >= {total} eigenvalues, got {n}")
    lengths = {sym: (dims[sym] if sym != ZERO_BLOCK else n - total) for sym in ordering}
    ends = np.cumsum([lengths[sym] for sym in ordering])
    starts = np.concatenate(([0], ends[:-1]))
    means, costs = _run_costs(spec, starts, ends, np.equal(ordering, ZERO_BLOCK))
    return _read_runs(ordering, means.tolist(), costs.tolist())


def triangle_count(graph) -> int:
    """Triangles of the graph of sorted keys ``graph.keys``, by row
    intersections: for each node ``i``, the later neighbours of each of its
    later neighbours ``j`` that are later neighbours of ``i`` too, so each
    triangle ``i < j < k`` is counted once, without the dense matrix.  The
    rows of the neighbours are gathered by one index array per node."""
    n = graph.n
    rows, cols = np.divmod(graph.keys, n)
    start = np.searchsorted(rows, np.arange(n + 1))  # row i is cols[start[i]:start[i + 1]]
    mine = np.zeros(n, dtype=bool)
    count = 0
    for i in range(n):
        later = cols[start[i] : start[i + 1]]
        lo, sizes = start[later], start[later + 1] - start[later]
        total = int(sizes.sum())
        if total:
            gather = np.arange(total) + np.repeat(lo - (np.cumsum(sizes) - sizes), sizes)
            mine[later] = True
            count += int(np.count_nonzero(mine[cols[gather]]))
            mine[later] = False
    return count


def triangle(m):
    """The ``Triangle`` of the dense symmetric test matrix ``m``, written by
    ``write_triangle`` onto ``lazy_zeros`` as float64 one row block at a
    time: ``m`` is left as it is, and only its upper triangle of the rows
    (with the diagonal blocks) is read."""
    m = np.asarray(m)
    return write_triangle(lazy_zeros(m.shape[0]), lambda block, out: np.copyto(out, m[block]))


def eigenvalues(m):
    """The ``Spectrum`` of the dense symmetric test matrix ``m``: both
    stages of the solve on its ``triangle``."""
    return band_spectrum(reduce_to_band(triangle(m)))


def fit_one(spectrum, basis, r):
    """The staircase fit at the one resolution ``r``: the DP on ``(r,)`` of
    the ``Spectrum`` it prepares, unchecked, as ``fit_all_resolutions``
    prepares one after its checks."""
    return _fit_resolutions(as_spectrum(spectrum), basis, (r,))[0]
