"""Normalized LOB event ingestion, book reconstruction, and fill measurement.

Event schema (CSV header ``ts_ns,kind,side,price_ticks,size,order_ref`` or
fixed 32-byte little-endian binary records in the same field order):

* ``add``     — a limit order joins the book at ``price_ticks``.
* ``cancel``  — shares of a standing order are withdrawn.
* ``execute`` — shares of a standing order trade against an incoming MO.
* ``trade``   — marker for an incoming market order; ``side`` names the book
  side being consumed and ``size`` the MO volume. The ladder profile of that
  side is captured at this instant so that hypothetical fills at any
  placement price can be measured later.

Prices are integer ticks internally; conversion to currency happens only at
the interface (midprice, liquidation proceeds).
"""

from __future__ import annotations

import csv as _csv
import os
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = [
    "BookError",
    "IntervalFlow",
    "LiquidationResult",
    "ReplayResult",
    "EVENT_DTYPE",
    "fill_quantity",
    "liquidate",
    "replay",
    "read_events_csv",
    "read_events_binary",
    "write_events_binary",
]

KIND_CODES = {"add": 0, "cancel": 1, "execute": 2, "trade": 3}
SIDE_CODES = {"bid": 0, "ask": 1}

EVENT_DTYPE = np.dtype([
    ("ts_ns", "<i8"),
    ("kind", "u1"),
    ("side", "u1"),
    ("pad", "<u2"),
    ("price_ticks", "<i4"),
    ("size", "<i4"),
    ("order_ref", "<i8"),
    ("pad2", "<i4"),
])
assert EVENT_DTYPE.itemsize == 32
_CSV_FIELDS = [f for f in EVENT_DTYPE.names if not f.startswith("pad")]
BOOK_LEVELS = 20  # the levels a side replay keeps by default

# replay's book pass: a block holds at most _BLOCK_ROWS cut points and
# _BLOCK_CELLS cells (rows x live levels). The row cap keeps a block in
# cache: on a 2,000-step synthetic day, 256 rows touch a median of 80 live
# levels (126 at most), at most 0.26 MB of int64 state, which with the
# ladder arrays gathered from it fits a 2 MB L2 cache; 1024 rows touch 168
# (244), up to 2.0 MB, which does not. It is also a smaller transient for
# the heap to keep. Median in-process replay ms (K=1, row caps interleaved
# call by call) of a 2,000-step and a 19,800-step synthetic day at 64,
# 128, 256, 512 and 1024 rows: 23.3, 20.5, 19.1, 19.6, 21.7 and 231, 210,
# 198, 196, 206. The cell budget bounds the blocks of a wide book.
_BLOCK_ROWS = 256
_BLOCK_CELLS = 1 << 21
# the order pass holds event indices, life numbers and levels as int32
_MAX_EVENTS = 2 ** 31 - 1
# ... and takes its running share sums this many events at a time, so that
# no int64 temporary spans a long day's events: a 19,800-step synthetic
# day's 958,000 order events take eight blocks of 1 MiB temporaries, a
# 2,000-step day's 97,000 one
_SUM_EVENTS = 1 << 17


class BookError(ValueError):
    """Inconsistent event; carries the offending event index when known."""

    def __init__(self, msg, event_index=None):
        super().__init__(msg if event_index is None
                         else f"event {event_index}: {msg}")
        self.event_index = event_index


@dataclass
class ReplayResult:
    """The replayed session as arrays, for n action times and K levels.

    Book row k < n is the snapshot as of t_k and row n the book at the end
    of the session; side 0 is the bids and side 1 the asks. Each side's
    first ``book_depth`` entries are its best (at most K) non-empty levels,
    best-first, and the rest are zero.

    The market orders inside the session are in stream order: MO i arrived
    in interval ``mo_interval[i]`` against side ``mo_side[i]`` (1, the asks,
    for a buy) with ``mo_volume[i]`` shares, and found that side's ladder,
    best-first, at ``mo_prices[mo_start[i]:mo_start[i + 1]]`` with the
    cumulative standing sizes ``mo_cum`` over the same run."""

    midprices: np.ndarray    # (n,) currency midprice per action time
    book_prices: np.ndarray  # (n + 1, 2, K) int64 ticks
    book_sizes: np.ndarray   # (n + 1, 2, K) int64 shares
    book_depth: np.ndarray   # (n + 1, 2) int64 levels
    mo_interval: np.ndarray  # (m,) int64
    mo_side: np.ndarray      # (m,) int64
    mo_volume: np.ndarray    # (m,) int64
    mo_start: np.ndarray     # (m + 1,) int64 offsets into the two below
    mo_prices: np.ndarray    # int64 ticks
    mo_cum: np.ndarray       # int64 shares

    @cached_property
    def quoted_ladders(self):
        """(steps, first, start, keys, cum), int64 arrays cached once per
        ReplayResult: the intervals that hold an MO, ascending; the index
        of each one's first MO, then m; and each MO's ladder as the run
        [start[i], start[i + 1]) of ``keys`` (its prices, negated on the bid
        side) and ``cum``, cut after its first level whose cumulative size
        covers the MO's volume, or whole if none does. The cut leaves
        ``fill_quantity`` exact: a placement past that level takes
        V - cum <= 0 from the MO either way, and a nearer one bisects the
        same prefix."""
        m = len(self.mo_side)
        first = np.flatnonzero(np.diff(self.mo_interval, prepend=-1))
        lens = np.diff(self.mo_start)
        owner = np.repeat(np.arange(m), lens)
        # each ladder's cum ascends, so the levels that do not cover the
        # volume come first
        short = np.bincount(owner[self.mo_cum < self.mo_volume[owner]],
                            minlength=m)
        kept = np.arange(len(owner)) - self.mo_start[owner] <= short[owner]
        keys = (2 * self.mo_side[owner] - 1) * self.mo_prices
        return (self.mo_interval[first], np.append(first, m),
                np.concatenate([[0], np.cumsum(np.minimum(short + 1, lens))]),
                keys[kept], self.mo_cum[kept])

    def interval_flows(self, lo, hi):
        """(steps, flows) of the intervals that hold an MO, from the lo-th
        up to before the hi-th: their steps and an IntervalFlow of each,
        over key and cum lists made for these intervals alone from the cut
        ladders of ``quoted_ladders``."""
        steps, first, start, keys, cum = self.quoted_ladders
        first = first[lo:hi + 1]
        a, b = first[0], first[-1]
        runs = start[a:b + 1]
        keys = keys[runs[0]:runs[-1]].tolist()
        cum = cum[runs[0]:runs[-1]].tolist()
        runs = (runs - runs[0]).tolist()
        sides, volumes = (x[a:b].tolist() for x in (self.mo_side,
                                                    self.mo_volume))
        first = (first - a).tolist()
        return steps[lo:hi].tolist(), [
            IntervalFlow(sides[i:j], volumes[i:j], runs[i:j],
                         runs[i + 1:j + 1], keys, cum)
            for i, j in zip(first, first[1:])]

    def better_priced_volume(self, mo, placed):
        """Standing volume at strictly better prices than ``placed`` on the
        side MO ``mo`` consumed, as it stood when that MO arrived;
        elementwise over int arrays, in one searchsorted over the segment
        keys mo_index * 2**33 + sign * price that order every MO's ladder
        after the last one's (sign -1 on the bid side)."""
        sign = 2 * self.mo_side - 1
        lens = np.diff(self.mo_start)
        keys = (np.repeat(np.arange(len(lens)) * 2 ** 33, lens)
                + np.repeat(sign, lens) * self.mo_prices)
        pos = np.searchsorted(keys, mo * 2 ** 33 + sign[mo] * placed)
        cum = np.concatenate([[0], self.mo_cum])
        return np.where(pos > self.mo_start[mo], cum[pos], 0)


class IntervalFlow(NamedTuple):
    """One interval's market orders: each one's side code, volume and
    [lo, hi) run of the flat ``keys`` (its ladder's prices, best-first,
    negated on the bid side so that every run ascends) and ``cum``
    (cumulative standing sizes). ``ReplayResult.interval_flows`` makes the
    two lists for a block of intervals and cuts each ladder after the level
    that absorbs its MO. ``IntervalFlow()`` holds no MO."""

    sides: Sequence[int] = ()
    volumes: Sequence[int] = ()
    lo: Sequence[int] = ()
    hi: Sequence[int] = ()
    keys: Sequence[int] = ()
    cum: Sequence[int] = ()


@dataclass(frozen=True)
class LiquidationResult:
    avg_price: float
    proceeds: float
    insufficient_depth: bool = False


def fill_quantity(placed_price_ticks: int, placed_size: int, side: str,
                  flow: IntervalFlow) -> int:
    """Shares of a resting order at ``placed_price_ticks`` filled by the
    interval's MOs, assuming the order is first in queue at its price:
    min(sum over the side's MOs of max(V_MO - V_better, 0), placed size).
    Every take is non-negative, so this equals capping each MO's take
    cumulatively at what is left of the order."""
    s = SIDE_CODES[side]
    key = placed_price_ticks if s else -placed_price_ticks
    keys, cum = flow.keys, flow.cum
    q = 0
    for mo_side, volume, lo, hi in zip(flow.sides, flow.volumes, flow.lo,
                                       flow.hi):
        if mo_side == s:
            i = bisect_left(keys, key, lo, hi)  # levels strictly better
            take = volume - cum[i - 1] if i > lo else volume
            if take > 0:
                q += take
    return q if q <= placed_size else max(placed_size, 0)


def liquidate(rep: ReplayResult, inventory: float,
              tick_size: float = 1.0) -> LiquidationResult:
    """Unwind the inventory against the opposite side of the book at the
    end of the session, best price first.

    Positive inventory sells into the bids, negative buys from the asks.
    If the visible depth runs out, the remainder is priced at the deepest
    available level and the result is flagged.
    """
    if inventory == 0:
        return LiquidationResult(avg_price=0.0, proceeds=0.0)
    side = 0 if inventory > 0 else 1
    depth = int(rep.book_depth[-1, side])
    if not depth:
        raise BookError("one-sided book: cannot liquidate")
    prices = rep.book_prices[-1, side, :depth].tolist()
    sizes = rep.book_sizes[-1, side, :depth].tolist()
    need = abs(inventory)
    got = 0.0
    cost = 0.0
    for price, size in zip(prices, sizes):
        take = min(size, need - got)
        cost += take * price
        got += take
        if got >= need:
            break
    insufficient = got < need
    if insufficient:
        cost += (need - got) * prices[-1]
    avg = cost / need * tick_size
    return LiquidationResult(avg_price=avg, proceeds=avg * inventory,
                             insufficient_depth=insufficient)


# ---------------------------------------------------------------------------
# Stream replay
# ---------------------------------------------------------------------------

def _stream(ev, times):
    """The stream pass: what the later passes read of the records, taken
    before replay lets them go, as (columns, ref_base, disorder, cut, mos).
    ``columns`` holds each event's kind, side, size, price_ticks and
    order_ref - ref_base as contiguous arrays; ``disorder`` is the index of
    the first event earlier than the one before it (len(ev) if none);
    ``cut[k]``, for k < n, counts the events before ``disorder`` that are
    earlier than t_k; and ``mos`` is (index, interval, side, volume) of
    each trade marker inside the session [t_0, t_n), in stream order, as
    int64 arrays.

    When the refs span less than 2**31, ref_base is the least of them and
    the offsets are int32, taken with no int64 temporary: the cast and the
    subtraction both wrap modulo 2**32, which is exact as the offsets fit.
    A wider span keeps the int64 refs themselves, with ref_base 0."""
    n = len(times) - 1
    columns = {name: ev[name].copy()
               for name in ("kind", "side", "size", "price_ticks")}
    ref = ev["order_ref"]
    base = int(ref.min()) if len(ref) else 0
    if int(ref.max(initial=base)) - base < 2 ** 31:
        columns["order_ref"] = ref.astype(np.int32)
        columns["order_ref"] -= np.int64(base).astype(np.int32)
    else:
        columns["order_ref"], base = ref.copy(), 0
    ts = ev["ts_ns"]
    down = np.flatnonzero(ts[1:] < ts[:-1])
    disorder = int(down[0]) + 1 if len(down) else len(ev)
    cut = np.searchsorted(ts[:disorder], times[:n])
    mo = np.flatnonzero(columns["kind"] == 3)
    interval = np.searchsorted(times[:n], ts[mo], "right") - 1
    inside = (interval >= 0) & (ts[mo] < times[n])
    mo = mo[inside]
    return columns, base, disorder, cut, (
        mo, interval[inside], columns["side"][mo].astype(np.int64),
        columns["size"][mo].astype(np.int64))


def _resolve(columns, ref_base, disorder):
    """Order-level pass: (ops, level, change, level_price, n_bid_levels,
    error) = the add, cancel and execute events, the ladder level each one
    changes and its signed shares, each level's price (the first
    ``n_bid_levels`` are the bid prices, the rest the ask prices, each side
    best-first), and None or (index, message, last) for the first event a
    one-pass book rejects, where the time of event ``last`` is the last
    that triggers snapshots (the rejected one's, unless it is out of time
    order). ``columns``, ``ref_base`` and ``disorder`` are _stream's; the
    error messages add ref_base back, so they name the original refs.

    A stable argsort on order_ref groups each order's events in stream
    order; every add opens a life of its ref, and cumsums of the shares
    taken within a life decide unknown refs, over-cancels and duplicates.

    This pass sets replay's peak memory. It takes each column out of
    ``columns`` and drops it once used: order_ref after the sort, keeping
    one ref per life for the error message, and price_ticks and side once
    the levels are numbered, before the running sums. Each array takes the
    narrowest dtype that holds its values exactly and goes once used up:
    int32 for event indices, life numbers and levels (each below the event
    count, which replay keeps under 2**31), for ref offsets (see _stream)
    and for single sizes; int64 only for refs that span 2**31 or more and
    for sums of shares. The sums are taken _SUM_EVENTS events at a time,
    a block's cumsum carrying the last one's total, so the only int64
    array as long as the events is the sums themselves.

    The add prices are ranked by one bincount over their span when the
    span (max - min + 1, taken in Python ints so that it cannot wrap) is
    smaller than the number of adds, so that its table is smaller than the
    adds; otherwise by np.unique, whose sort is the only way that fits a
    wide span.
    """
    kind, side = columns.pop("kind"), columns.pop("side")
    size, price = columns.pop("size"), columns.pop("price_ticks")
    # (event index, check number, message) of each check's first failure
    found = []
    if disorder < len(kind):
        found.append((disorder, 0, "events out of order"))
    for number, (msg, mask, value) in enumerate((
            ("unknown kind code {}", kind > 3, kind),
            ("unknown side code {}", side > 1, side),
            ("size and price must be positive", (size <= 0) | (price <= 0),
             size)), 1):
        if mask.any():
            e = int(np.argmax(mask))
            found.append((e, number, msg.format(value[e])))
    del mask, value
    ops = np.flatnonzero(kind <= 2).astype(np.int32)
    ref = columns.pop("order_ref")
    by_ref = np.argsort(ref[ops], kind="stable").astype(np.int32)
    idx = ops[by_ref]
    r = ref[idx]
    del ref
    z, is_add = size[idx], kind[idx] == 0
    del kind, size
    new_ref = np.ones(len(idx), dtype=bool)
    new_ref[1:] = r[1:] != r[:-1]
    opens = is_add | new_ref
    life_ref = r[opens]
    del r
    life = np.cumsum(opens, dtype=np.int32)
    life -= 1
    opens_add = is_add[opens]  # per life: opened by an add

    # slots L - 1 - rank (bids) and L + rank (asks) over the L add prices,
    # compacted to the slots some add uses: levels stay below the adds
    add = idx[is_add]
    add_price = price[add]
    lo = int(add_price.min()) if len(add) else 0
    if len(add) and int(add_price.max()) - lo + 1 < len(add):
        add_price -= lo  # now below the span, so below the add count
        present = np.bincount(add_price) > 0
        prices = np.flatnonzero(present) + lo
        rank = (np.cumsum(present) - 1)[add_price]
        del present
    else:
        prices, rank = np.unique(add_price, return_inverse=True)
    del add_price
    L = len(prices)
    slot = np.where(side[add] == 1, L + rank, L - 1 - rank)
    del add, rank, price, side
    used = np.zeros(2 * L, dtype=bool)
    used[slot] = True
    n_bid_levels = np.count_nonzero(used[:L])
    level_price = np.concatenate([prices[::-1], prices])[used].astype(np.int64)
    life_level = np.zeros(len(opens_add), dtype=np.int32)
    life_level[opens_add] = (np.cumsum(used) - 1)[slot]
    del slot

    # left[i]: shares of event i's order still standing before it, its
    # add's size less what its life took before i, from one running sum
    taken = np.where(is_add, 0, z)
    left = np.empty(len(idx), dtype=np.int64)
    blocks = [slice(i, i + _SUM_EVENTS) for i in range(0, len(idx),
                                                       _SUM_EVENTS)]
    carry = 0
    for b in blocks:
        np.cumsum(taken[b], dtype=np.int64, out=left[b])
        left[b] += carry
        carry = left[b][-1]
    start = left[opens] - taken[opens]
    start += np.where(opens_add, z[opens], 0)
    for b in blocks:
        np.subtract(start[life[b]], left[b], out=left[b])
    del start
    left += taken
    duplicate = np.zeros(len(idx), dtype=bool)
    duplicate[1:] = is_add[1:] & ~new_ref[1:] & (left[:-1] > taken[:-1])
    for number, (msg, mask) in enumerate((
            ("duplicate order_ref {}", duplicate),
            ("unknown order_ref {}", ~is_add & (left <= 0)),
            ("size exceeds remaining", ~is_add & (left > 0) & (left < taken))),
            4):
        at = np.flatnonzero(mask)  # ops in ref order: the first in the stream
        if len(at):
            p = at[np.argmin(idx[at])]
            found.append((int(idx[p]), number,
                          msg.format(int(life_ref[life[p]]) + ref_base)))
    del left, taken, duplicate, mask, life_ref

    level, change = np.empty((2, len(idx)), dtype=np.int32)
    level[by_ref] = life_level[life]
    del life
    change[by_ref] = np.where(is_add, z, -z)
    del z, by_ref

    error = None
    if found:
        e, number, msg = min(found)
        error = (e, msg, e - (number == 0))
    return ops, level, change, level_price, n_bid_levels, error


def _ladder_blocks(level, change, row, n_rows, n_levels):
    """Yields (r0, states, cols): states[i, j] is the size at level cols[j]
    once the events whose (non-decreasing) ``row`` is <= r0 + i are
    applied. Only levels live in a block get a column; a block is one
    add.at and one cumsum."""
    book = np.zeros(n_levels, dtype=np.int64)
    r0 = lo = 0
    while r0 < n_rows:
        rows = min(n_rows - r0, _BLOCK_ROWS)
        while True:
            hi = int(np.searchsorted(row, r0 + rows))
            used = book != 0
            used[level[lo:hi]] = True
            n_cols = np.count_nonzero(used)
            if rows == 1 or rows * n_cols <= _BLOCK_CELLS:
                break
            rows = max(1, _BLOCK_CELLS // n_cols)
        cols = np.flatnonzero(used)
        col = np.cumsum(used) - 1  # each used level's column
        states = np.zeros((rows, n_cols), dtype=np.int64)
        # one flat index, and int64 changes: int32 ones take add.at's
        # slow path, an order of magnitude slower
        np.add.at(states.reshape(-1),
                  (row[lo:hi] - r0) * n_cols + col[level[lo:hi]],
                  change[lo:hi].astype(np.int64))
        np.cumsum(states, axis=0, out=states)
        states += book[cols]
        book[cols] = states[-1]
        yield r0, states, cols
        r0 += rows
        lo = hi


def _ladders(states, cols, level_price, n_bid_levels):
    """Each row's non-empty levels, best-first, as segments 2 * row + side
    of flat arrays: (segment, rank within it, price, size, size summed
    within the segment, segment starts)."""
    cell = np.flatnonzero(states)
    rr, cc = np.divmod(cell, states.shape[1])
    seg = 2 * rr + (cols[cc] >= n_bid_levels)
    px, sz = level_price[cols[cc]], states.reshape(-1)[cell]
    starts = np.searchsorted(seg, np.arange(2 * len(states) + 1))
    head = np.repeat(starts[:-1], np.diff(starts))
    cum = np.cumsum(sz)
    cum -= cum[head] - sz[head]
    return seg, np.arange(len(px)) - head, px, sz, cum, starts


def replay(events, grid, K: int = BOOK_LEVELS,
           tick_size: float = 1.0) -> ReplayResult:
    """The as-of-t_k snapshots (every event strictly before t_k applied)
    and the market orders of a time-sorted stream, as a ReplayResult.

    ``grid`` is the model TimeGrid; the session covers [t_0, t_N + step).
    ``events`` is an EVENT_DTYPE array or a sequence of its record tuples;
    the snapshots keep the best ``K`` >= 1 levels per side. A one-sided
    snapshot raises BookError("one-sided book"); otherwise the first event
    a one-pass book would reject raises BookError with its index, if no
    snapshot due before it is one-sided.

    One stream pass reads the records and keeps only what the later passes
    use (see _stream); replay then drops its references to them, so records
    that the caller does not hold, as in ``replay(read_events_binary(path),
    grid)``, are freed before the order pass, and records that it does hold
    come back unchanged. Before the first out-of-order event the stream is
    sorted, so the snapshots due before a rejected event follow from the
    cut positions over that prefix.

    The book is a tick ladder; the events between consecutive cut points
    (action times, in-session trade markers, the end) are applied as one
    array operation per block of cuts.
    """
    ev = np.asarray(events, dtype=EVENT_DTYPE)
    del events
    n_ev = len(ev)
    if n_ev > _MAX_EVENTS:
        raise BookError(f"{n_ev} events: replay takes at most {_MAX_EVENTS}")
    n = grid.n_steps
    times = grid.action_times_ns()
    columns, ref_base, disorder, cut, mos = _stream(ev, times)
    del ev  # the records are freed here unless the caller holds them
    ops, level, change, level_price, n_bid_levels, error = _resolve(
        columns, ref_base, disorder)
    applied, n_snap = n_ev, n
    if error is not None:
        applied = error[0]
        # the prefix before ``disorder`` is sorted and holds event error[2]
        n_snap = int(np.searchsorted(cut, error[2], "right"))
    snap_cut = cut[:n_snap]  # none past ``applied``
    m = np.searchsorted(mos[0], applied)
    mo, interval, mo_side, mo_volume = (x[:m] for x in mos)

    # cut c is the book after events [0, c): snapshots, MOs, then the end
    cuts = np.concatenate([snap_cut, mo, [applied]])
    order = np.argsort(cuts, kind="stable")
    n_ops = int(np.searchsorted(ops, applied))
    # row[i] counts the cuts at or before op i: a merge of the sorted cuts
    # into the sorted ops, each cut's first op at or after it (int32 keys,
    # so the int32 ops are searched in place)
    first = np.searchsorted(ops[:n_ops], cuts[order].astype(np.int32))
    row = np.repeat(np.arange(len(cuts) + 1),
                    np.diff(first, prepend=0, append=n_ops))
    book_row = np.full(len(cuts), -1)  # book row of each cut; -1 for an MO
    book_row[:n_snap] = np.arange(n_snap)
    book_row[-1] = n

    prices, sizes = np.zeros((2, n + 1, 2, K), dtype=np.int64)
    mo_px, mo_cum, mo_len = [], [], []
    for r0, states, cols in _ladder_blocks(level[:n_ops], change[:n_ops], row,
                                           len(cuts), len(level_price)):
        what = order[r0:r0 + len(states)]
        seg, rank, px, sz, cum, starts = _ladders(states, cols, level_price,
                                                  n_bid_levels)
        dest = book_row[what][seg >> 1]
        top = (dest >= 0) & (rank < K)
        at = (2 * dest[top] + (seg[top] & 1)) * K + rank[top]
        prices.reshape(-1)[at] = px[top]
        sizes.reshape(-1)[at] = sz[top]
        i = np.flatnonzero(book_row[what] < 0)
        consumed = 2 * i + mo_side[what[i] - n_snap]
        taken = np.zeros(len(starts), dtype=bool)
        taken[consumed] = True
        mo_px.append(px[taken[seg]])
        mo_cum.append(cum[taken[seg]])
        mo_len.append(starts[consumed + 1] - starts[consumed])
    depth = np.count_nonzero(sizes, axis=2)
    if not depth[:n_snap].all():
        raise BookError("one-sided book")
    if error is not None:
        raise BookError(error[1], error[0])
    mids = (prices[:n, 0, 0] + prices[:n, 1, 0]) / 2 * tick_size
    return ReplayResult(
        midprices=mids, book_prices=prices, book_sizes=sizes,
        book_depth=depth, mo_interval=interval, mo_side=mo_side,
        mo_volume=mo_volume,
        mo_start=np.concatenate([[0], np.cumsum(np.concatenate(mo_len))]),
        mo_prices=np.concatenate(mo_px), mo_cum=np.concatenate(mo_cum))


# ---------------------------------------------------------------------------
# Event file I/O
# ---------------------------------------------------------------------------

def read_events_csv(path) -> np.ndarray:
    """The EVENT_DTYPE records of a CSV event file, with kind and side by
    name, empty lines skipped; ValueError naming the file, and the line of
    a row without six fields, with a kind or side outside the schema, or
    with a number that is not an integer or does not fit its field."""
    rows = []
    with open(path, newline="") as fh:
        r = _csv.reader(fh)
        header = next(r, None)
        if header != _CSV_FIELDS:
            raise ValueError(f"{path}: unexpected header {header}")
        for row in filter(None, r):
            try:
                ts, kind, side, price, size, ref = row
                if kind not in KIND_CODES:
                    raise ValueError(f"unknown kind {kind!r}")
                if side not in SIDE_CODES:
                    raise ValueError(f"unknown side {side!r}")
                t, p, z, o = int(ts), int(price), int(size), int(ref)
                rec = (t, KIND_CODES[kind], SIDE_CODES[side], 0, p, z, o, 0)
                # int64 time and ref, int32 price and size
                if not (-2 ** 63 <= t < 2 ** 63 and -2 ** 63 <= o < 2 ** 63
                        and -2 ** 31 <= p < 2 ** 31
                        and -2 ** 31 <= z < 2 ** 31):
                    for name, v in zip(EVENT_DTYPE.names, rec):
                        info = np.iinfo(EVENT_DTYPE[name])
                        if not info.min <= v <= info.max:
                            raise ValueError(f"{name} {v} out of range")
                rows.append(rec)
            except ValueError as exc:
                raise ValueError(f"{path}: line {r.line_num}: {exc}") from None
    return np.array(rows, dtype=EVENT_DTYPE)


def write_events_binary(events, path) -> None:
    np.asarray(events, dtype=EVENT_DTYPE).tofile(path)


def read_events_binary(path) -> np.ndarray:
    """The file's EVENT_DTYPE records; rejects a truncated file."""
    nbytes = os.path.getsize(path)
    if nbytes % EVENT_DTYPE.itemsize:
        raise ValueError(f"{path}: {nbytes} bytes is not a whole number of "
                         f"{EVENT_DTYPE.itemsize}-byte event records")
    return np.fromfile(path, dtype=EVENT_DTYPE)
