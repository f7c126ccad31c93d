"""Vectorized (array-at-a-time) evaluation of the PolyUFC-CM level model.

:func:`repro.cache.static_model._model_level` walks the access stream one
element at a time and maintains per-set LRU stacks in Python lists -- an
O(assoc) list walk per access that dominates the compile time attributed
to PolyUFC-CM (paper Tab. IV).  This module computes the *same* cold /
capacity-conflict classification for every access at once with NumPy.

The backward reuse distance of an access ``i`` (number of distinct
same-set lines touched since the previous access ``p`` to its line) obeys
a counting identity over the set's collapsed subsequence::

    distance(i) = #{ j : p < j < i, prev(j) <= p }

an access ``j`` inside the window introduces a *new* distinct line exactly
when its own previous occurrence ``prev(j)`` falls at or before ``p``.
The engine evaluates that identity in bulk through a filtering cascade,
cheapest rule first, so the (dominant) trivially-classified accesses never
reach the expensive counting machinery:

1. **Per-set grouping** -- one packed-key sort (``set << B | time``, int32
   when the ranges fit) groups the stream into contiguous per-set
   subsequences in program order.  NumPy's stable argsort is a mergesort,
   so packing plus a plain value sort is several times faster.
2. **Run collapsing** -- consecutive same-line accesses inside a set have
   distance zero: guaranteed hits, removed before any further analysis
   (windows keep exactly the same distinct-line population).
3. **Conflict-free shortcut** -- when every set's total distinct-line
   population fits its ways, capacity/conflict misses cannot exist and
   the level reduces to cold-miss counting.
4. **Short-window rule** -- ``distance(i) <= i - p - 1``, so a window
   shorter than the associativity is a guaranteed hit.
5. **Cold lower bound** -- first-ever accesses inside the window are
   always "new", so a prefix-sum of cold flags confirms misses whose
   window already contains ``assoc`` cold accesses.
6. **Chunked offline counting** -- remaining hard accesses count
   first-in-window elements over 32-wide chunks: edge chunks are masked
   gathers, interior chunks run in batched gather/compare/sum rounds with
   early termination once a count reaches ``assoc``; queries that survive
   :data:`_ROUND_LIMIT` rounds (huge hit-bound windows) escalate to
   :func:`_prefix_count`, a radix-8 Fenwick-style offline prefix counter
   that is O(log m) per query regardless of window length.

Stages 1-6 end in a program-order miss mask, :func:`lru_miss_mask`.  It
is the one LRU classifier of the tree: PolyUFC-CM's write-through level
(:func:`model_level`) and the write-back hardware simulator
(:mod:`repro.cache.simulator`) both build on it and differ only in the
next-level stream they derive from the mask.  The mask fires the
``cm.chunk`` fault site and checks a deadline only when its caller
passes them, so the simulator adds no checkpoint to the CM's.

The write-through next-level stream (miss fetch, then the forwarded write
for stores, in program order) is materialized with a cumulative-sum
scatter, so the whole hierarchy is evaluated without Python-level
per-access work.  The engine is bit-for-bit equivalent to the reference
loop (asserted by the randomized suite in ``tests/cache/test_fast_model.py``
and by the exact polyhedral model on small kernels) -- it changes
evaluation speed, not the Sec. IV model semantics.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.cache.config import CacheLevelConfig
from repro.runtime import Deadline, check as _check_deadline, faults

# Chunk width of the offline counting (stage 6).
_CHUNK = 32

# Block width of the brute-force base case of ``le_rank``.
_BASE_BLOCK = 32

# Interior-chunk rounds before a hard query escalates to prefix counting.
_ROUND_LIMIT = 64

# Queries whose interior exceeds this many chunks skip the rounds loop and
# go straight to prefix counting: a hit-bound query never terminates
# early, so scanning more than this many chunks is guaranteed wasted work
# whenever the query turns out to be a hit.
_PREFIX_DIRECT = 4 * _ROUND_LIMIT


def le_rank(values: np.ndarray) -> np.ndarray:
    """``r[i] = #{ j < i : values[j] <= values[i] }`` for the whole array.

    Offline dominance counting via a bottom-up merge tree: every ordered
    pair ``(j, i)`` with ``j < i`` lands exactly once in a (left block,
    right block) sibling pair, where the contribution of all left elements
    to each right query is a batched ``searchsorted`` into the sorted left
    block.  Blocks are made globally comparable by offsetting each pair's
    values into disjoint ranges so one flat ``searchsorted`` serves every
    block at a level.  O(n log^2 n) total work, O(log n) NumPy passes.
    """
    values = np.ascontiguousarray(values, dtype=np.int64)
    n = values.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    pad_value = int(values.max()) + 1
    base = _BASE_BLOCK
    blocks = 1
    while blocks * base < n:
        blocks *= 2
    padded_len = blocks * base
    work = np.full(padded_len, pad_value, dtype=np.int64)
    work[:n] = values
    rank = np.zeros(padded_len, dtype=np.int64)

    # Base case: brute-force pairwise comparison inside each base block.
    rows = work.reshape(-1, base)
    below = np.tril(np.ones((base, base), dtype=bool), -1)
    pairwise = rows[:, None, :] <= rows[:, :, None]  # [p, i, j]: w[j] <= w[i]
    rank += (pairwise & below).sum(axis=2, dtype=np.int64).reshape(-1)

    size = base
    while size < padded_len:
        pairs = work.reshape(-1, 2 * size)
        num_pairs = pairs.shape[0]
        left_sorted = np.sort(pairs[:, :size], axis=1)
        queries = pairs[:, size:]
        offsets = np.arange(num_pairs, dtype=np.int64) * np.int64(pad_value + 1)
        flat_left = (left_sorted + offsets[:, None]).ravel()
        flat_queries = (queries + offsets[:, None]).ravel()
        counts = np.searchsorted(flat_left, flat_queries, side="right")
        counts -= np.repeat(
            np.arange(num_pairs, dtype=np.int64) * size, size
        )
        rank.reshape(-1, 2 * size)[:, size:] += counts.reshape(num_pairs, size)
        size *= 2
    return rank[:n]


def _empty_level() -> Tuple[int, int, np.ndarray, np.ndarray]:
    return 0, 0, np.empty(0, dtype=np.int64), np.empty(0, dtype=bool)


def _packed_sort(major: np.ndarray, width: int, bits: int) -> np.ndarray:
    """Sort ``major`` stably by value, returning the order as positions.

    Packs ``major[i] << bits | i`` into one integer per element (int32
    when the packed range fits, int64 otherwise) and value-sorts; the low
    bits of the sorted keys are the stable order.  Ties broken by
    position, i.e. exactly a stable argsort, but running on NumPy's fast
    scalar sort instead of its mergesort-based stable argsort.
    """
    n = major.size
    if (int(width) << bits) | (n - 1) <= np.iinfo(np.int32).max:
        key = (major.astype(np.int32) << np.int32(bits)) | np.arange(
            n, dtype=np.int32
        )
    else:
        key = (major.astype(np.int64) << np.int64(bits)) | np.arange(
            n, dtype=np.int64
        )
    key.sort()
    order = key & ((1 << bits) - 1)
    return order


def _prev_occurrence(kept_lines: np.ndarray) -> np.ndarray:
    """Previous same-line occurrence index (-1 if none), via one key sort."""
    m = kept_lines.size
    bits = int(m - 1).bit_length() if m > 1 else 1
    max_line = int(kept_lines.max()) if m else 0
    if (max_line << bits) | (m - 1) <= np.iinfo(np.int32).max:
        key = (kept_lines.astype(np.int32) << np.int32(bits)) | np.arange(
            m, dtype=np.int32
        )
    else:
        key = (kept_lines.astype(np.int64) << np.int64(bits)) | np.arange(
            m, dtype=np.int64
        )
    key.sort()
    idx = (key & ((1 << bits) - 1)).astype(np.int64)
    sorted_lines = key >> bits
    prev_idx = np.full(m, -1, dtype=np.int64)
    if m > 1:
        same = sorted_lines[1:] == sorted_lines[:-1]
        prev_idx[idx[1:][same]] = idx[:-1][same]
    return prev_idx


#: Interior-chunk rounds between cooperative checkpoints (stage 6a).
_ROUNDS_PER_CHECK = 8


def _checkpoint(deadline: Optional[Deadline], site: Optional[str]) -> None:
    """Fire ``site``'s armed fault and check ``deadline``, when given."""
    if site is not None:
        faults.fire(site)
    _check_deadline(deadline, site or "")


def _count_hard_queries(
    prev_pos: np.ndarray,
    hard_idx: np.ndarray,
    hard_gp: np.ndarray,
    hard_p: np.ndarray,
    assoc: int,
    deadline: Optional[Deadline] = None,
    site: Optional[str] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """First-in-window counts for the hard queries (stage 6a).

    For each query ``i`` with previous occurrence at global kept index
    ``gp`` and block-local position ``p``, counts elements ``j`` in
    ``(gp, i)`` with ``prev_pos[j] <= p``.  Edge chunks are counted with
    masked 32-wide gathers; interior chunks in batched rounds (one
    32-lane gather + compare + sum per round over the still-active
    queries -- throughput-bound vector work on three cache lines per
    query, which beats per-chunk binary searches by a wide margin),
    terminating a query early once its count reaches ``assoc`` -- the
    capped-stack rule needs no exact distance beyond that, and on
    miss-dense windows nearly every query dies within a round or two.
    Returns ``(counts, pending)`` where ``pending`` indexes queries still
    unresolved after :data:`_ROUND_LIMIT` rounds (their counts are
    partial); the caller finishes those with the O(log m)-per-query
    prefix counting.
    """
    m = prev_pos.size
    num_queries = hard_idx.size
    counts = np.zeros(num_queries, dtype=np.int64)
    chunk = _CHUNK
    padded = -(-m // chunk) * chunk
    # Keep the working copy (and the query thresholds) in the narrowest
    # dtype that fits: every gather round streams Q x 32 values, so width
    # is bandwidth.  A row-reshaped view turns per-chunk access into one
    # contiguous row gather -- no (Q, 32) index materialization.
    dtype = np.int32 if m + 2 <= np.iinfo(np.int32).max else np.int64
    sentinel = dtype(m + 2)
    work = np.full(padded, sentinel, dtype=dtype)
    work[:m] = prev_pos
    work2d = work.reshape(-1, chunk)
    hp = hard_p.astype(dtype)

    first_chunk = (hard_gp >> 5) + 1  # chunks strictly after gp's chunk
    last_chunk = hard_idx >> 5  # chunk containing the query itself
    lane = np.arange(chunk, dtype=np.int64)

    same_chunk = (hard_gp >> 5) == last_chunk
    # Edge handling: when gp and i share one chunk the whole window is a
    # masked row gather; otherwise count gp's partial chunk and i's
    # partial chunk, leaving full chunks [first_chunk, last_chunk) to the
    # rounds loop.
    # Lane masks compare in-chunk offsets (position & 31) rather than
    # materializing (Q, 32) int64 positions: same test, an eighth of the
    # memory.
    shared = np.flatnonzero(same_chunk)
    if shared.size:
        rows = work2d[hard_gp[shared] >> 5]
        valid = (lane[None, :] > (hard_gp[shared] & 31)[:, None]) & (
            lane[None, :] < (hard_idx[shared] & 31)[:, None]
        )
        counts[shared] = np.sum(
            (rows <= hp[shared, None]) & valid, axis=1, dtype=np.int64
        )
    split = np.flatnonzero(~same_chunk)
    if split.size:
        rows = work2d[hard_gp[split] >> 5]
        valid = lane[None, :] > (hard_gp[split] & 31)[:, None]
        counts[split] = np.sum(
            (rows <= hp[split, None]) & valid, axis=1, dtype=np.int64
        )
        rows = work2d[last_chunk[split]]
        valid = lane[None, :] < (hard_idx[split] & 31)[:, None]
        counts[split] += np.sum(
            (rows <= hp[split, None]) & valid, axis=1, dtype=np.int64
        )

    mid = np.maximum(last_chunk - first_chunk, 0)
    mid[same_chunk] = 0
    cursor = first_chunk.copy()
    active = np.flatnonzero((mid > 0) & (counts < assoc))
    for round_index in range(_ROUND_LIMIT):
        if not active.size:
            break
        if round_index % _ROUNDS_PER_CHECK == 0:
            _checkpoint(deadline, site)
        counts[active] += np.sum(
            work2d[cursor[active]] <= hp[active, None],
            axis=1,
            dtype=np.int64,
        )
        cursor[active] += 1
        still = (cursor[active] < last_chunk[active]) & (
            counts[active] < assoc
        )
        active = active[still]
    return counts, active


def _prefix_count(
    w: np.ndarray,
    gi: np.ndarray,
    wq: np.ndarray,
    deadline: Optional[Deadline] = None,
    site: Optional[str] = None,
) -> np.ndarray:
    """``#{ j < gi[q] : w[j] <= wq[q] }`` for every query ``q`` (stage 6b).

    Offline Fenwick-style counting in radix-8: the prefix ``[0, gi)``
    decomposes into the trailing partial 32-chunk (a masked gather) plus
    at most seven aligned segments per level of geometrically growing
    segment size (32 * 8^k).  Each level is one ``np.sort`` over its
    segments and one flat batched ``searchsorted`` over every
    (query, segment) pair, so the work per query is O(log m) regardless
    of the window length -- this is what keeps huge reuse windows (long
    streaming phases, fully-associative levels) from degenerating.
    """
    m = w.size
    counts = np.zeros(gi.size, dtype=np.int64)
    lane = np.arange(_CHUNK, dtype=np.int64)
    base = (gi >> 5) << 5
    idx = base[:, None] + lane[None, :]
    valid = idx < gi[:, None]
    vals = w[np.minimum(idx, m - 1)]
    counts += np.sum((vals <= wq[:, None]) & valid, axis=1, dtype=np.int64)

    chunks = gi >> 5  # whole 32-chunks in each query's prefix
    sentinel = np.int64(2 * m + 3)
    stride = sentinel + 2
    max_chunks = int(chunks.max())
    k = 0
    while (max_chunks >> (3 * k)) > 0:
        _check_deadline(deadline, site or "")
        level_units = chunks >> (3 * k)
        digit = level_units & 7
        seg_len = _CHUNK << (3 * k)
        padded = -(-m // seg_len) * seg_len
        work = np.full(padded, sentinel, dtype=np.int64)
        work[:m] = w
        level_sorted = np.sort(work.reshape(-1, seg_len), axis=1)
        nseg = level_sorted.shape[0]
        flat = (
            level_sorted
            + (np.arange(nseg, dtype=np.int64) * stride)[:, None]
        ).ravel()
        qsel = np.flatnonzero(digit > 0)
        if qsel.size:
            d = digit[qsel]
            first_seg = (level_units[qsel] >> 3) << 3
            total = int(d.sum())
            starts = np.cumsum(d) - d
            qq = np.repeat(qsel, d)
            sidx = first_seg.repeat(d) + (
                np.arange(total, dtype=np.int64) - starts.repeat(d)
            )
            found = np.searchsorted(flat, sidx * stride + wq[qq], "right")
            found -= sidx * seg_len
            counts[qsel] += np.add.reduceat(found, starts)
        k += 1
    return counts


def lru_miss_mask(
    lines: np.ndarray,
    config: CacheLevelConfig,
    deadline: Optional[Deadline] = None,
    site: Optional[str] = None,
) -> Tuple[np.ndarray, int]:
    """Per-access LRU miss flags of one level, in program order.

    Returns ``(missed, cold)``: ``missed[i]`` is set exactly when access
    ``i`` misses a per-set true-LRU cache (set ``line % num_sets``, i.e.
    its set-local reuse distance is at least ``assoc`` or it is a first
    touch), and ``cold`` counts the first touches.  This is the stages
    1-6 cascade of the module docstring; PolyUFC-CM (:func:`model_level`)
    and the write-back hardware simulator (:mod:`repro.cache.simulator`)
    both classify through it.  ``site`` names the fault site fired at
    the cascade's checkpoints and ``deadline`` is checked there; callers
    that pass neither see no checkpoint at all.
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    n = lines.size
    if n == 0:
        return np.zeros(0, dtype=bool), 0
    num_sets = config.num_sets
    assoc = config.associativity

    # Stage 1: group the stream per cache set (program order kept).
    if num_sets > 1:
        bits = int(n - 1).bit_length() if n > 1 else 1
        times = _packed_sort(lines % num_sets, num_sets - 1, bits)
        grouped = lines[times]
        grouped_sets = grouped % num_sets
        new_block = np.empty(n, dtype=bool)
        new_block[0] = True
        np.not_equal(grouped_sets[1:], grouped_sets[:-1], out=new_block[1:])
        del grouped_sets
    else:
        times = None
        grouped = lines
        new_block = np.zeros(n, dtype=bool)
        new_block[0] = True

    # Stage 2: collapse runs of the same line inside a set (distance 0).
    keep = np.empty(n, dtype=bool)
    keep[0] = True
    np.not_equal(grouped[1:], grouped[:-1], out=keep[1:])
    keep |= new_block
    kept_idx = np.flatnonzero(keep)
    kept_lines = grouped[kept_idx]
    m = kept_idx.size
    # Drop the n-sized intermediates before the m-sized work below; the
    # cascade's peak memory is the classifier's (and so the CM's and the
    # simulator's) peak.
    kept_new_block = new_block[kept_idx]
    del grouped, keep, new_block
    block_start = np.flatnonzero(kept_new_block)[
        np.cumsum(kept_new_block) - 1
    ]
    pos = np.arange(m, dtype=np.int64) - block_start

    # Stage 3: previous occurrence (a line's set never changes, so the
    # previous occurrence always lies in the same block).
    _checkpoint(deadline, site)
    prev_idx = _prev_occurrence(kept_lines)
    cold_mask = prev_idx < 0
    cold = int(cold_mask.sum())
    prev_pos = np.where(cold_mask, np.int64(-1), pos[prev_idx])

    # Conflict-free shortcut: if every set's distinct-line population fits
    # its ways, no reuse distance can reach the associativity.
    distinct_per_set = np.bincount(
        kept_lines[cold_mask] % num_sets, minlength=1
    )
    if int(distinct_per_set.max()) <= assoc:
        miss_kept = cold_mask
    else:
        # Stage 4: short windows are guaranteed hits.
        undecided = np.flatnonzero(
            (~cold_mask) & (pos - prev_pos - 1 >= assoc)
        )

        # Stage 5: enough cold accesses inside the window confirm a miss
        # (every cold access is first-in-window wherever it appears).
        cum_cold = np.cumsum(cold_mask)
        und_gp = prev_idx[undecided]
        colds_inside = cum_cold[undecided - 1] - cum_cold[und_gp]
        confirmed = colds_inside >= assoc
        hard = undecided[~confirmed]

        miss_kept = cold_mask.copy()
        miss_kept[undecided[confirmed]] = True
        if hard.size:
            _checkpoint(deadline, site)
            hard_gp = prev_idx[hard]
            hard_p = prev_pos[hard]
            counts = np.zeros(hard.size, dtype=np.int64)
            # Route very wide windows straight to prefix counting; scan
            # the rest chunk-by-chunk (with early termination), escalating
            # whatever survives the round limit.
            interior = (hard >> 5) - (hard_gp >> 5) - 1
            narrow = np.flatnonzero(interior <= _PREFIX_DIRECT)
            to_prefix = np.flatnonzero(interior > _PREFIX_DIRECT)
            if narrow.size:
                narrow_counts, pending = _count_hard_queries(
                    prev_pos,
                    hard[narrow],
                    hard_gp[narrow],
                    hard_p[narrow],
                    assoc,
                    deadline=deadline,
                    site=site,
                )
                counts[narrow] = narrow_counts
                if pending.size:
                    to_prefix = np.concatenate((to_prefix, narrow[pending]))
            if to_prefix.size:
                # Count over the whole prefix instead.  With
                # w(j) = block_start(j) + prev_pos(j) + 1 every in-block
                # element before the window start qualifies trivially and
                # cross-block elements contribute exactly block_start(i),
                # so distance(i) = #{j < i : w(j) <= w(i)} - w(i).
                w = block_start + prev_pos + 1
                wq = (
                    block_start[hard[to_prefix]] + hard_p[to_prefix] + 1
                )
                counts[to_prefix] = (
                    _prefix_count(
                        w, hard[to_prefix], wq, deadline=deadline, site=site
                    )
                    - wq
                )
            miss_kept[hard[counts >= assoc]] = True

    # Scatter misses back to program order (collapsed accesses never miss).
    missed = np.zeros(n, dtype=bool)
    if times is not None:
        missed[times[kept_idx[miss_kept]]] = True
    else:
        missed[kept_idx[miss_kept]] = True
    return missed, cold


def model_level(
    lines: np.ndarray,
    writes: np.ndarray,
    config: CacheLevelConfig,
    deadline: Optional[Deadline] = None,
) -> Tuple[int, int, np.ndarray, np.ndarray]:
    """One write-through level, vectorized.

    Returns ``(cold, capacity_conflict, next_lines, next_writes)`` with the
    identical counters and identically ordered next-level stream as the
    reference loop in :mod:`repro.cache.static_model`.  The classification
    (:func:`lru_miss_mask`) checkpoints ``deadline`` and the ``cm.chunk``
    fault site at its stage boundaries and inside the chunked counting
    rounds, mirroring the reference engine's cooperative interruption
    points.
    """
    lines = np.ascontiguousarray(lines, dtype=np.int64)
    writes = np.ascontiguousarray(writes, dtype=bool)
    if lines.size == 0:
        return _empty_level()
    missed, cold = lru_miss_mask(
        lines, config, deadline=deadline, site="cm.chunk"
    )
    cap_conflict = int(missed.sum()) - cold

    # Write-through next-level stream: fetch (read) per miss, then the
    # forwarded write for stores, in access order.
    emit = missed.astype(np.int32) + writes
    slot = np.cumsum(emit, dtype=np.int64) - emit
    total = int(slot[-1] + emit[-1])
    next_lines = np.empty(total, dtype=np.int64)
    next_writes = np.empty(total, dtype=bool)
    fetch_slots = slot[missed]
    next_lines[fetch_slots] = lines[missed]
    next_writes[fetch_slots] = False
    write_slots = slot[writes] + missed[writes]
    next_lines[write_slots] = lines[writes]
    next_writes[write_slots] = True
    return cold, cap_conflict, next_lines, next_writes
