"""LRU stack-distance analysis of CLB probe streams.

The CLB is a small fully associative LRU buffer, so its behaviour on a
probe stream is completely described by Mattson's *stack distances*: a
probe hits a ``C``-entry CLB exactly when the number of distinct LAT
indices touched since the previous probe of the same index (inclusive)
is at most ``C``.  Computing the distance of every probe therefore
yields the miss count of **every** CLB capacity in one pass — the
stateful :class:`~repro.ccrp.clb.CLB` has to re-walk the stream per
capacity.

The classic online algorithms (linked-list stack, Bennett–Kruskal
counters, Fenwick trees) are all per-probe interpreter loops.  This
module instead computes distances offline with numpy:

1. consecutive duplicate probes are collapsed (distance 1 by
   definition — instruction miss streams are bursty, so this shrinks
   the stream several-fold);
2. each probe's *previous occurrence* index comes from one stable
   argsort;
3. the distance reduces to a "count left elements ≤ mine" problem over
   the previous-occurrence array (see :func:`stack_distances` for the
   derivation).  With few distinct probe values — the overwhelmingly
   common case, since a program has one LAT index per eight cache lines
   — a dense O(n·k) last-occurrence matrix answers it directly;
   otherwise bottom-up merge counting does, where every level is a
   single batched :func:`np.searchsorted` over per-run key ranges made
   disjoint by block offsets — O(n log² n), entirely in C.

Property tests pin the result to the stateful LRU reference on random
streams, and tier-1 tests pin every CLB count the Tables 1–10 grids
read on real program miss streams.
"""

from __future__ import annotations

import numpy as np

__all__ = ["stack_distances", "lru_miss_curve", "lru_miss_count"]


def _previous_occurrence(events: np.ndarray) -> np.ndarray:
    """Index of the previous occurrence of each element (-1 if first).

    One stable argsort groups equal values in position order, so each
    element's predecessor within its group is its previous occurrence.
    """
    n = events.size
    order = np.argsort(events, kind="stable")
    grouped = events[order]
    prev_sorted = np.full(n, -1, dtype=np.int64)
    same = grouped[1:] == grouped[:-1]
    prev_sorted[1:][same] = order[:-1][same]
    prev = np.empty(n, dtype=np.int64)
    prev[order] = prev_sorted
    return prev


def _count_left_le(keys: np.ndarray) -> np.ndarray:
    """``counts[i] = #{j < i : keys[j] <= keys[i]}`` without a Python loop.

    Bottom-up merge counting: at level ``w`` the array is viewed as
    blocks of ``2w`` elements; every element in a block's right half
    counts, via one binary search, how many of the block's (sorted) left
    half are ≤ it.  Each (j, i) pair is counted exactly once — at the
    level where j and i first land in different halves of one block.

    All blocks of a level are searched with a *single*
    ``np.searchsorted`` call by shifting every block's keys into a
    disjoint range (``block_id * span``), so the per-level work is pure
    vectorised C.
    """
    n = keys.size
    counts = np.zeros(n, dtype=np.int64)
    if n < 2:
        return counts
    shifted = (keys - keys.min()).astype(np.int64)
    sentinel = int(shifted.max()) + 1  # pads sort last and match no query
    span = sentinel + 1
    width = 1
    while width < n:
        block = 2 * width
        nblocks = -(-n // block)
        padded = np.full(nblocks * block, sentinel, dtype=np.int64)
        padded[:n] = shifted
        chunks = padded.reshape(nblocks, block)
        block_ids = np.arange(nblocks, dtype=np.int64)
        left_sorted = np.sort(chunks[:, :width], axis=1)
        flat = (left_sorted + block_ids[:, None] * span).ravel()
        queries = (chunks[:, width:] + block_ids[:, None] * span).ravel()
        ranks = np.searchsorted(flat, queries, side="right").reshape(nblocks, width)
        within = ranks - block_ids[:, None] * width
        positions = block_ids[:, None] * block + width + np.arange(width)
        valid = positions < n
        counts[positions[valid]] += within[valid]
        width = block
    return counts


#: Largest distinct-value count handled by the dense O(n·k) path.
_DENSE_ALPHABET_LIMIT = 128

#: Cap on the (k × chunk) working-set cells of the dense path, bounding
#: its memory to a few dozen MiB regardless of stream length.
_DENSE_CHUNK_CELLS = 4_000_000


def _dense_relabel(events: np.ndarray) -> tuple[int | None, np.ndarray | None]:
    """Relabel events to ``0..k-1`` if at most ``_DENSE_ALPHABET_LIMIT``
    values occur, else ``(None, None)``.

    CLB probe streams are LAT indices — small non-negative integers — so
    a flat presence table finds the alphabet in O(n + range) without the
    sort ``np.unique`` would pay; arbitrary values fall back to
    ``np.unique`` (whose sort then classifies them just as well).
    """
    low = int(events.min())
    high = int(events.max())
    span = high - low + 1
    if span <= max(4 * events.size, 1 << 16):
        present = np.zeros(span, dtype=bool)
        present[events - low] = True
        unique = np.flatnonzero(present)
        if unique.size > _DENSE_ALPHABET_LIMIT:
            return None, None
        mapping = np.zeros(span, dtype=np.int64)
        mapping[unique] = np.arange(unique.size, dtype=np.int64)
        return unique.size, mapping[events - low]
    unique, inverse = np.unique(events, return_inverse=True)
    if unique.size > _DENSE_ALPHABET_LIMIT:
        return None, None
    return unique.size, inverse


def _distances_dense_alphabet(inverse: np.ndarray, alphabet: int) -> np.ndarray:
    """Stack distances when the events use few distinct values.

    The distance of a probe at ``i`` with previous occurrence ``p`` is
    the number of values whose *last* occurrence before ``i`` falls in
    ``[p, i)`` — the probe's own value qualifies via ``p`` itself, and
    ``p`` is just that row of the same matrix.  A ``(k, n)`` matrix of
    per-value last-occurrence positions is one scatter plus one
    ``maximum.accumulate``; processing in column chunks (carrying each
    value's running maximum across the seam) bounds the working set.
    """
    n = inverse.size
    prev = np.empty(n, dtype=np.int64)
    distances = np.empty(n, dtype=np.int64)
    carry = np.full(alphabet, -1, dtype=np.int64)
    chunk = max(1, _DENSE_CHUNK_CELLS // alphabet)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        count = stop - start
        local = np.arange(count, dtype=np.int64)
        inv = inverse[start:stop]
        marks = np.full((alphabet, count), -1, dtype=np.int64)
        marks[inv, local] = local + start
        np.maximum.accumulate(marks, axis=1, out=marks)
        if start:
            np.maximum(marks, carry[:, None], out=marks)
        # Column i of the strictly-before matrix is column i-1 of
        # ``marks`` (the carry for i == 0) — read it shifted instead of
        # materialising a copy.
        first_prev = carry[inv[0]]
        prev[start] = first_prev
        distances[start] = (carry >= first_prev).sum()
        if count > 1:
            rest_prev = marks[inv[1:], local[:-1]]
            prev[start + 1 : stop] = rest_prev
            distances[start + 1 : stop] = (marks[:, :-1] >= rest_prev).sum(axis=0)
        carry = marks[:, -1].copy()
    distances[prev < 0] = 0
    return distances


#: Below this event count a plain Python stack walk beats any array
#: pipeline's fixed overhead (the grid's warm workloads have streams of
#: a dozen probes).
_SCALAR_LIMIT = 32


def _distances_scalar(events: np.ndarray) -> np.ndarray:
    """Reference stack walk for streams too short to vectorise."""
    stack: list[int] = []
    out = np.empty(events.size, dtype=np.int64)
    for index, value in enumerate(events.tolist()):
        try:
            depth = stack.index(value)
        except ValueError:
            out[index] = 0
        else:
            out[index] = depth + 1
            del stack[depth]
        stack.insert(0, value)
    return out


def _event_stack_distances(events: np.ndarray) -> np.ndarray:
    """Distances of a run-collapsed event stream (the shared core)."""
    if events.size <= _SCALAR_LIMIT:
        return _distances_scalar(events)
    alphabet, inverse = _dense_relabel(events)
    if alphabet is not None:
        return _distances_dense_alphabet(inverse, alphabet)
    prev = _previous_occurrence(events)
    distances = _count_left_le(prev) - prev
    distances[prev < 0] = 0
    return distances


def stack_distances(probes: np.ndarray) -> np.ndarray:
    """LRU stack distance of every probe (0 = first touch, i.e. cold).

    A probe's distance is the number of distinct values seen since its
    previous occurrence, inclusive; a probe hits an LRU cache of
    capacity ``C`` iff ``1 <= distance <= C``.

    Derivation of the vectorised form: with ``p = prev[i]`` the distance
    is ``1 +`` the number of distinct values strictly inside ``(p, i)``,
    and an index ``j`` in that window contributes iff it is the *first*
    occurrence of its value inside the window, i.e. ``prev[j] <= p``.
    Every ``j <= p`` trivially satisfies ``prev[j] < j <= p``, so::

        distance[i] = #{j < i : prev[j] <= prev[i]} - prev[i]

    which is one :func:`_count_left_le` over the previous-occurrence
    array.
    """
    probes = np.asarray(probes, dtype=np.int64)
    if probes.ndim != 1:
        raise ValueError(f"probe stream must be one-dimensional, got shape {probes.shape}")
    n = probes.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    # Collapse runs: a probe equal to its predecessor sits on top of the
    # LRU stack (distance 1) whatever the capacity.
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.not_equal(probes[1:], probes[:-1], out=keep[1:])
    events = probes[keep]
    out = np.ones(n, dtype=np.int64)
    out[keep] = _event_stack_distances(events)
    return out


def lru_miss_curve(probes: np.ndarray) -> np.ndarray:
    """Miss counts of *every* LRU capacity over one probe stream.

    Returns an array ``curve`` where ``curve[c]`` is the number of
    misses a ``c``-entry fully associative LRU buffer takes on
    ``probes``.  ``curve[0]`` is the probe count (no entries, everything
    misses); the last index is the largest finite stack distance, beyond
    which the miss count stays at the cold-miss floor ``curve[-1]`` —
    callers clamp larger capacities to the final entry.
    """
    probes = np.asarray(probes, dtype=np.int64)
    n = probes.size
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    # Same collapse as :func:`stack_distances`, but collapsed probes all
    # land in the distance-1 bin, so only the event distances are
    # histogrammed and the collapsed count is added to that bin.
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.not_equal(probes[1:], probes[:-1], out=keep[1:])
    events = probes[keep]
    distances = _event_stack_distances(events)
    collapsed = n - events.size
    finite = distances[distances > 0]
    max_distance = int(finite.max()) if finite.size else 0
    if collapsed and max_distance == 0:
        max_distance = 1
    hist = np.bincount(finite, minlength=max_distance + 1)
    if collapsed:
        hist[1] += collapsed
    return n - np.cumsum(hist)


def lru_miss_count(curve: np.ndarray, capacity: int) -> int:
    """Miss count for one capacity out of a :func:`lru_miss_curve`."""
    if capacity < 0:
        raise ValueError(f"capacity cannot be negative, got {capacity}")
    return int(curve[min(capacity, curve.size - 1)])
