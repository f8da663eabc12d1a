"""Fixed-resolution spectral fit by an exact subset DP over block orderings.

At resolution ``R`` the model spectrum consists of one stage value per degree
``ell <= R``, each repeated ``d_ell`` times, plus zero with multiplicity
``n - sum(d_ell)``.  Matching such a staircase to the sorted observed spectrum
in least squares reduces to choosing an ordering of the ``R + 2`` blocks
(degree blocks plus the zero block) over contiguous runs of the sorted
eigenvalues; the optimal stage value of each degree block is the mean of its
run.  The fit finds the best ordering with a Bellman/Held-Karp dynamic
program over subsets of blocks, ``O(2^(R+2) (R+2))`` steps instead of scoring
all ``(R + 2)!`` orderings.

The DP runs in numpy one popcount level at a time, in one private core,
``_fit_resolutions``, that ``adapt.fit_all_resolutions`` runs on its grid.
That entry checks the resolutions and the spectrum's size and prepares the
``Spectrum`` the core reads, which checks nothing again.  Consecutive resolutions whose
transitions fit one cost chunk share a pass, whose levels serve all of
them, so the grid 1..6 runs 8 levels, not the 33 of one DP per resolution.
A pass's tables are built once per block dimensions and resolutions, so
``R`` is capped at ``MAX_RESOLUTION``.

Every run cost reads prefix sums of the sorted values and of their squares,
which a ``Spectrum`` carries.  One helper, ``_run_costs``, holds the
run-mean and run-cost formula, and ``_read_runs`` reads an ordering's
stages and score off its runs.  The oracle ``score_ordering`` in ``tests/oracles.py`` scores one
ordering with both: with the exhaustive search over all orderings, it checks
the DP.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .spaces import HarmonicBasis
from .spectral import Spectrum

__all__ = [
    "MAX_RESOLUTION",
    "ZERO_BLOCK",
    "SpectrumEstimate",
]

ZERO_BLOCK = -1  # ordering symbol for the zero block

# Largest resolution fitted.  The DP over R + 2 blocks holds 2^(R+2) states and
# (R + 2) 2^(R+1) transitions: at R = 16 its cached pass takes about 14 MB, and
# one fit about 0.06 s and 27 MB of temporaries; each step up doubles all.
MAX_RESOLUTION = 16

_COST_CHUNK = 1 << 16  # transitions costed per numpy pass, to bound temporaries


def _run_costs(spec: Spectrum, starts, ends, zero):
    """Mean and cost of the runs ``[starts, ends)`` of the sorted values,
    elementwise over arrays.  A degree-block run costs its squared deviation
    from its mean (the fitted stage); a zero-block run (``zero`` true) costs
    its raw sum of squares, may be empty, and its mean is unused.  A run's
    squared sum is at most ``n`` times the total sum of squares, so a finite
    bound keeps every cost finite; a spectrum without one is refused."""
    if not math.isfinite(spec.n * float(spec.s2[-1])):
        raise DomainError("spectrum values are too large: their sum of squares overflows")
    run_sum = spec.s1[ends] - spec.s1[starts]
    run_sq = spec.s2[ends] - spec.s2[starts]
    div = np.where(zero, 1, ends - starts)
    return run_sum / div, np.where(zero, run_sq, run_sq - run_sum * run_sum / div)


def _read_runs(ordering, means, costs):
    """Stage values and score of ``ordering`` from the means and costs of its
    runs, in ordering order: each degree's stage is its run's mean, and the
    score is the costs summed from the first run on."""
    stages = np.zeros(len(ordering) - 1)
    score = 0.0
    for sym, mean, cost in zip(ordering, means, costs):
        if sym != ZERO_BLOCK:
            stages[sym] = mean
        score += cost
    return stages, max(score, 0.0)


def _passes(rs):
    """Ascending resolutions in passes: consecutive ones while their
    transitions fit one cost chunk."""
    passes, size = [], _COST_CHUNK
    for r in rs:
        size += (r + 2) << (r + 1)
        if size > _COST_CHUNK:
            passes.append(())
            size = (r + 2) << (r + 1)
        passes[-1] += (r,)
    return passes


# keyed by the block dimensions and the resolutions: enough for every pass of
# one basis's grid and every single resolution of it
@functools.lru_cache(maxsize=MAX_RESOLUTION + 2)
def _pass(dims: tuple, rs: tuple):
    """Spectrum-independent tables ``(blk, pred, first_c, first_n, levels)``
    of the subset DP of the ascending resolutions ``rs``.

    Resolution ``r`` has ``r + 2`` blocks: bit 0 of a block set is its zero
    block, entry ``rs.index(r)`` of the pass's block table, and bit ``i > 0``
    is degree ``i - 1``, entry ``len(rs) + i - 1``.  The states, every block
    set of every resolution, are numbered by popcount, then resolution, then
    set: ``levels[k]`` is the first state, the first transition and the
    number of states of popcount ``k``, and each state owns ``k`` consecutive
    transitions, one per member block in ascending bit.  Transition ``j``
    takes entry ``blk[j]`` out of its state and leaves state ``pred[j]``.  A
    state's set fills the last positions of the sorted spectrum from
    ``first_c + n * first_n`` on."""
    ms = [r + 2 for r in rs]
    blk = np.empty(sum(m << (m - 1) for m in ms), dtype=np.int8)
    pred = np.empty(blk.size, dtype=np.int32)
    first_c = np.empty(sum(1 << m for m in ms), dtype=np.int64)
    first_n = np.empty(first_c.size, dtype=bool)
    per = []  # each resolution's table entries, sets, members, popcounts, firsts at n = 0, states
    for z, (r, m) in enumerate(zip(rs, ms)):
        sets = np.arange(1 << m)
        member = np.zeros((1 << m, m), dtype=bool)
        first = np.zeros(1 << m, dtype=np.int64)
        for i, ln in enumerate((-sum(dims[: r + 1]), *dims[: r + 1])):  # lengths at n = 0
            member[:, i] = sets >> i & 1
            first[1 << i : 2 << i] = first[: 1 << i] - ln
        per.append((np.array([z, *range(len(rs), len(rs) + r + 1)]), sets, member,
                    member.sum(axis=1, dtype=np.int8), first, np.empty(1 << m, dtype=np.int32)))
    levels, s, t = [], 0, 0
    for k in range(max(ms) + 1):
        s0, t0 = s, t
        for entry, sets, member, count, first, state in per:
            level = sets[count == k]
            state[level] = np.arange(s, s + level.size)
            first_c[s : s + level.size] = first[level]
            first_n[s : s + level.size] = level & 1 == 0  # the zero block is not in the set
            s += level.size
            if k:
                bit = np.nonzero(member[level])[1]  # row by row, ascending within a row
                blk[t : t + bit.size] = entry[bit]
                pred[t : t + bit.size] = state[np.repeat(level, k) ^ (1 << bit)]
                t += bit.size
        levels.append((s0, t0, s - s0))
    for a in (blk, pred, first_c, first_n):
        a.setflags(write=False)
    return blk, pred, first_c, first_n, tuple(levels)


@dataclass(frozen=True)
class SpectrumEstimate:
    """Best staircase fit at one resolution."""

    r: int
    stage_values: np.ndarray
    ordering: tuple[int, ...]
    score: float


def _fit_pass(spec: Spectrum, dims: tuple, rs: tuple) -> list[SpectrumEstimate]:
    """The fits of the resolutions ``rs`` of one pass."""
    blk_of, pred, first_c, first_n, levels = _pass(dims, rs)
    n = spec.n
    first = first_c + n * first_n
    lengths = np.array([n - sum(dims[: r + 1]) for r in rs] + list(dims))  # the block table

    # total[j] = cost of transition j's block on the run just before its
    # remaining set's positions, plus G(remaining set); ``take`` gathers a
    # chunk by int8 and int32 indices about three times faster than ``[]``
    total = np.empty(pred.size)
    for lo in range(0, total.size, _COST_CHUNK):
        blk = blk_of[lo : lo + _COST_CHUNK]
        ends = first.take(pred[lo : lo + _COST_CHUNK])
        total[lo : lo + _COST_CHUNK] = _run_costs(spec, ends - lengths.take(blk), ends,
                                                  blk < len(rs))[1]
    best = np.zeros(first.size)
    for k, (s, t, count) in enumerate(levels[1:], 1):
        rows = slice(t, t + k * count)
        total[rows] += best[pred[rows]]
        best[s : s + count] = total[rows].reshape(-1, k).min(axis=1)

    # The walk converts only the rows it visits to Python floats, one row a
    # step: their subtraction is numpy's IEEE one, so the orderings are the
    # same bit for bit, without a numpy temporary and a generator a step
    # (the fits of the grid 1..6 at n = 1000 take about 0.21 ms against
    # 0.28 ms, 2-vCPU Xeon).  The argmin block at each step has excess
    # exactly 0.0, so some block always fits the remaining slack.
    path, orderings = [], []
    for r in rs:
        state = levels[r + 2][0]  # the set of all r + 2 blocks
        ordering, members, slack = [], list(range(r + 2)), 1e-12 * float(spec.s2[n])
        while members:  # the member blocks in ascending bit, as a state's transitions
            k = len(members)
            s, t, _ = levels[k]
            lo = t + k * (state - s)
            row, floor = total[lo : lo + k].tolist(), float(best[state])
            j = 0
            while row[j] - floor > slack and j < k - 1:
                j += 1
            ordering.append(members.pop(j) - 1)  # bit 0 is the zero block, -1
            path.append(lo + j)
            slack -= row[j] - floor
            state = int(pred[lo + j])
        orderings.append(tuple(ordering))

    # stages and score read off the path's runs, as _read_runs reads any ordering's
    blk = blk_of[path]
    ends = first[pred[path]]
    means, costs = (a.tolist() for a in _run_costs(spec, ends - lengths[blk], ends,
                                                   blk < len(rs)))
    fits, at = [], 0
    for r, ordering in zip(rs, orderings):
        stages, score = _read_runs(ordering, means[at : at + r + 2], costs[at : at + r + 2])
        fits.append(SpectrumEstimate(r=r, stage_values=stages, ordering=ordering, score=score))
        at += r + 2
    return fits


def _fit_resolutions(spec: Spectrum, basis: HarmonicBasis, rs: tuple) -> list[SpectrumEstimate]:
    """Least-squares staircase fits at the ascending resolutions ``rs`` in as
    few DP passes as the cost chunk allows, on the ``Spectrum`` that
    ``fit_all_resolutions`` has checked against ``rs`` and prepared.

    ``G(T)``, the least cost of packing the block set ``T`` into the last
    ``|T|`` positions of the sorted spectrum, satisfies
    ``G(T) = min over b in T of cost(b, n - |T|) + G(T minus b)`` with
    ``G(empty) = 0``; the optimum is ``G(all blocks)``.  All transition costs
    of a pass are computed in one numpy call (chunked above the cost chunk),
    then ``G`` one set size at a time for every resolution of the pass.

    Tie rule: the returned ordering is the lexicographically first one (symbols
    compared as integers, the zero block ``-1`` first) whose score is within
    ``1e-12 * sum(v**2)`` of the minimum.  It is rebuilt from position 0,
    taking at each step the smallest remaining symbol that keeps the
    accumulated excess over the minimum within that tolerance.  Stage values
    and score are read off the chosen ordering's runs by ``_read_runs``, bit
    for bit those of that ordering scored alone.
    """
    dims = tuple(int(d) for d in basis.dims[: rs[-1] + 1])
    return [fit for group in _passes(rs) for fit in _fit_pass(spec, dims[: group[-1] + 1], group)]
