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
from dataclasses import dataclass, field
from operator import neg

import numpy as np

__all__ = [
    "BookEvent",
    "BookError",
    "BookState",
    "MORecord",
    "IntervalFlow",
    "LiquidationResult",
    "ReplayResult",
    "EVENT_DTYPE",
    "midprice",
    "fill_quantity",
    "liquidate",
    "replay",
    "read_events_csv",
    "write_events_csv",
    "read_events_binary",
    "write_events_binary",
]

KIND_CODES = {"add": 0, "cancel": 1, "execute": 2, "trade": 3}
SIDE_CODES = {"bid": 0, "ask": 1}
SIDE_NAMES = {0: "bid", 1: "ask"}

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

# replay's book: at most _BLOCK_ROWS cut points and _BLOCK_CELLS cells a block
_BLOCK_ROWS = 1024
_BLOCK_CELLS = 1 << 21


@dataclass(frozen=True)
class BookEvent:
    ts_ns: int
    kind: str
    side: str
    price_ticks: int
    size: int
    order_ref: int


class BookError(ValueError):
    """Inconsistent event; carries the offending event index when known."""

    def __init__(self, msg, event_index=None):
        super().__init__(msg if event_index is None
                         else f"event {event_index}: {msg}")
        self.event_index = event_index


@dataclass(frozen=True)
class BookState:
    """Immutable top-K ladder: bids best-first (descending prices), asks
    best-first (ascending prices); entries are (price_ticks, size)."""

    bids: tuple
    asks: tuple

    def occupied_price(self, side: str, level: int):
        """Price at the level-th best occupied price (1-based); falls back
        to the deepest available level. Returns (price, fell_back)."""
        ladder = self.bids if side == "bid" else self.asks
        if not ladder:
            raise BookError(f"one-sided book: no {side} levels")
        idx = min(level, len(ladder)) - 1
        return ladder[idx][0], level > len(ladder)


@dataclass(frozen=True)
class MORecord:
    """One market order plus the consumed side's ladder profile at arrival:
    prices best-first with the cumulative standing volume, as int tuples."""

    side: str
    volume: int
    prices: tuple    # best-first
    cum_sizes: tuple

    def better_priced_volume(self, placed_price_ticks):
        """Standing volume at strictly better prices than the placement;
        elementwise for an array of placements."""
        if isinstance(placed_price_ticks, np.ndarray):
            prices = np.array(self.prices, dtype=np.int64)
            # better = lower ask price / higher bid price, best-first
            i = (np.searchsorted(prices, placed_price_ticks)
                 if self.side == "ask" else
                 np.searchsorted(-prices, np.negative(placed_price_ticks)))
            cum = np.array(self.cum_sizes, dtype=np.int64)
            return (cum[i - 1] if len(cum) else 0) * (i > 0)
        if self.side == "ask":
            i = bisect_left(self.prices, placed_price_ticks)
        else:
            i = bisect_left(self.prices, -placed_price_ticks, key=neg)
        return self.cum_sizes[i - 1] if i else 0


@dataclass
class IntervalFlow:
    mos: list = field(default_factory=list)


@dataclass(frozen=True)
class LiquidationResult:
    avg_price: float
    proceeds: float
    insufficient_depth: bool = False


@dataclass
class ReplayResult:
    snapshots: list          # BookState per action time
    midprices: np.ndarray    # currency midprice per action time
    flows: list              # IntervalFlow per interval [t_k, t_{k+1})
    terminal_book: BookState # as-of the end of the session


def midprice(book: BookState, tick_size: float = 1.0) -> float:
    """(best bid + best ask) / 2 in currency units."""
    if not book.bids or not book.asks:
        raise BookError("one-sided book")
    return (book.bids[0][0] + book.asks[0][0]) / 2 * tick_size


def fill_quantity(placed_price_ticks: int, placed_size: int, side: str,
                  flow: IntervalFlow) -> int:
    """Shares of a resting order at ``placed_price_ticks`` filled by the
    interval's MOs, assuming the order is first in queue at its price:
    min(sum over the side's MOs of max(V_MO - V_better, 0), placed size).
    Every take is non-negative, so this equals capping each MO's take
    cumulatively at what is left of the order."""
    q = 0
    for mo in flow.mos:
        if mo.side == side:
            take = mo.volume - mo.better_priced_volume(placed_price_ticks)
            if take > 0:
                q += take
    return q if q <= placed_size else max(placed_size, 0)


def liquidate(book: BookState, inventory: float,
              tick_size: float = 1.0) -> LiquidationResult:
    """Unwind the inventory against the opposite side, best price first.

    Positive inventory sells into the bids, negative buys from the asks.
    If the visible depth runs out, the remainder is priced at the deepest
    available level and the result is flagged.
    """
    if inventory == 0:
        return LiquidationResult(avg_price=0.0, proceeds=0.0)
    ladder = book.bids if inventory > 0 else book.asks
    if not ladder:
        raise BookError("one-sided book: cannot liquidate")
    need = abs(inventory)
    got = 0.0
    cost = 0.0
    for price, size in ladder:
        take = min(size, need - got)
        cost += take * price
        got += take
        if got >= need:
            break
    insufficient = got < need
    if insufficient:
        cost += (need - got) * ladder[-1][0]
    avg = cost / need * tick_size
    return LiquidationResult(avg_price=avg, proceeds=avg * inventory,
                             insufficient_depth=insufficient)


# ---------------------------------------------------------------------------
# Stream replay
# ---------------------------------------------------------------------------

def _as_array(events) -> np.ndarray:
    """The stream as one EVENT_DTYPE array. BookEvent sequences convert,
    with kind and side names outside the schema as code 255."""
    if isinstance(events, np.ndarray) and events.dtype == EVENT_DTYPE:
        return events
    return np.array([(ev.ts_ns, KIND_CODES.get(ev.kind, 255),
                      SIDE_CODES.get(ev.side, 255), 0,
                      ev.price_ticks, ev.size, ev.order_ref, 0)
                     for ev in events], dtype=EVENT_DTYPE)


def _resolve(ev: np.ndarray):
    """Order-level pass: (ops, level, change, level_price, error) = the add,
    cancel and execute events, the ladder level each one changes and its
    signed shares, each level's price (bids, then asks, best-first), and
    None or (index, message, last) for the first event a one-pass book
    rejects, where the time of event ``last`` is the last that triggers
    snapshots (the rejected one's, unless it is out of time order).

    A stable argsort on order_ref groups each order's events in stream
    order; every add opens a life of its ref, and cumsums of the shares
    taken within a life decide unknown refs, over-cancels and duplicates.
    """
    ts, kind, side = ev["ts_ns"], ev["kind"], ev["side"]
    price, ref, size = ev["price_ticks"], ev["order_ref"], ev["size"]
    ops = np.flatnonzero(kind <= 2)
    by_ref = np.argsort(ref[ops], kind="stable")
    idx = ops[by_ref]
    r, z = ref[idx], size[idx].astype(np.int64)
    is_add = kind[idx] == 0
    new_ref = np.ones(len(idx), dtype=bool)
    new_ref[1:] = r[1:] != r[:-1]
    opens = is_add | new_ref
    life = np.cumsum(opens) - 1

    def of_life(x):  # x at the event that opened each one's life
        return x[opens][life]

    opened = of_life(np.where(is_add, z, 0))
    taken = np.where(is_add, 0, z)
    after = np.cumsum(taken)
    after -= of_life(after - taken)
    before = after - taken
    duplicate = np.zeros(len(idx), dtype=bool)
    duplicate[1:] = is_add[1:] & ~new_ref[1:] & (after[:-1] < opened[:-1])

    prices, rank = np.unique(price[idx[is_add]], return_inverse=True)
    L = len(prices)
    add_level = np.zeros(len(idx), dtype=np.int64)
    add_level[is_add] = np.where(side[idx[is_add]] == 1, L + rank,
                                 L - 1 - rank)
    level, change = np.empty((2, len(idx)), dtype=np.int64)
    level[by_ref] = of_life(add_level)
    change[by_ref] = np.where(is_add, z, -z)
    level_price = np.concatenate([prices[::-1], prices]).astype(np.int64)

    def at(mask):  # a mask over the ops in ref order, in stream order
        return np.bincount(idx[mask], minlength=len(ev)) > 0

    disorder = np.zeros(len(ev), dtype=bool)
    disorder[1:] = ts[1:] < ts[:-1]
    checks = (
        ("events out of order", disorder),
        ("unknown kind code {kind}", kind > 3),
        ("unknown side code {side}", side > 1),
        ("size and price must be positive", (size <= 0) | (price <= 0)),
        ("duplicate order_ref {ref}", at(duplicate)),
        ("unknown order_ref {ref}", at(~is_add & (before >= opened))),
        ("size exceeds remaining",
         at(~is_add & (before < opened) & (after > opened))),
    )
    bad = np.logical_or.reduce([mask for _, mask in checks])
    error = None
    if bad.any():
        e = int(np.argmax(bad))
        msg = next(msg for msg, mask in checks if mask[e])
        error = (e, msg.format(kind=kind[e], side=side[e], ref=ref[e]),
                 e - int(disorder[e]))
    return ops, level, change, level_price, error


def _ladder_blocks(level, change, row, n_rows, n_levels):
    """Yields (r0, states, cols): states[i, j] is the size at level cols[j]
    once the events whose (non-decreasing) ``row`` is <= r0 + i are
    applied. Only levels live in a block get a column; a block is one
    add.at and one cumsum."""
    book = np.zeros(n_levels, dtype=np.int64)
    r0 = lo = 0
    while r0 < n_rows:
        live = np.flatnonzero(book)
        rows = min(n_rows - r0, _BLOCK_ROWS)
        while True:
            hi = int(np.searchsorted(row, r0 + rows))
            cols = np.union1d(live, level[lo:hi])
            if rows == 1 or rows * len(cols) <= _BLOCK_CELLS:
                break
            rows = max(1, _BLOCK_CELLS // len(cols))
        states = np.zeros((rows, len(cols)), dtype=np.int64)
        np.add.at(states, (row[lo:hi] - r0,
                           np.searchsorted(cols, level[lo:hi])),
                  change[lo:hi])
        np.cumsum(states, axis=0, out=states)
        states += book[cols]
        book[cols] = states[-1]
        yield r0, states, cols
        r0 += rows
        lo = hi


def _ladders(states, cols, level_price, K, wanted):
    """Each row's non-empty levels, best-first, as segments 2 * row + side
    of flat arrays: (prices, sizes summed within the segment, segment
    starts, the first K (price, size) pairs per segment of wanted rows)."""
    rr, cc = np.nonzero(states)
    seg = 2 * rr + (cols[cc] >= len(level_price) // 2)
    px, sz = level_price[cols[cc]], states[rr, cc]
    starts = np.searchsorted(seg, np.arange(2 * len(states) + 1))
    head = np.repeat(starts[:-1], np.diff(starts))
    cum = np.cumsum(sz)
    cum -= cum[head] - sz[head]
    sel = wanted[rr] & (np.arange(len(px)) - head < K)
    pairs = list(zip(px[sel].tolist(), sz[sel].tolist()))
    cut = np.searchsorted(seg[sel], np.arange(2 * len(states) + 1)).tolist()
    return px, cum, starts, [tuple(pairs[a:b]) for a, b in zip(cut, cut[1:])]


def replay(events, grid, K: int = 20, tick_size: float = 1.0) -> ReplayResult:
    """The as-of-t_k snapshots (every event strictly before t_k applied)
    and the per-interval MO flow of a time-sorted stream.

    ``grid`` is the model TimeGrid; the session covers [t_0, t_N + step).
    ``events`` is an EVENT_DTYPE array or a sequence of BookEvent; the
    snapshots keep the best ``K`` >= 1 levels per side. The first event a
    one-pass book would reject raises BookError with its index, after the
    snapshots due before it (a one-sided one raises first).

    The book is a tick ladder; the events between consecutive cut points
    (action times, in-session trade markers, the end) are applied as one
    array operation per block of cuts.
    """
    ev = _as_array(events)
    ts, kind = ev["ts_ns"], ev["kind"]
    n = grid.n_steps
    times = np.array([grid.action_time_ns(k) for k in range(n + 1)],
                     dtype=np.int64)
    ops, level, change, level_price, error = _resolve(ev)
    applied, n_snap = len(ev), n
    if error is not None:
        applied = error[0]
        n_snap = int(np.searchsorted(times[:n], ts[error[2]], "right"))
    snap_cut = np.searchsorted(ts[:applied], times[:n_snap])
    mo = np.flatnonzero(kind[:applied] == 3)
    interval = np.searchsorted(times[:n], ts[mo], "right") - 1
    inside = (interval >= 0) & (ts[mo] < times[n])
    mo, interval = mo[inside], interval[inside].tolist()
    mo_side, mo_volume = ev["side"][mo].tolist(), ev["size"][mo].tolist()

    # cut c is the book after events [0, c): snapshots, MOs, then the end
    cuts = np.concatenate([snap_cut, mo, [applied]])
    order = np.argsort(cuts, kind="stable")
    n_ops = int(np.searchsorted(ops, applied))
    row = np.searchsorted(cuts[order], ops[:n_ops], "right")
    end = n_snap + len(mo)

    snapshots = [None] * n
    mids = np.empty(n)
    flows = [IntervalFlow() for _ in range(n)]
    for r0, states, cols in _ladder_blocks(level[:n_ops], change[:n_ops], row,
                                           len(cuts), len(level_price)):
        what = order[r0:r0 + len(states)]
        px, cum, starts, top = _ladders(states, cols, level_price, K,
                                        (what < n_snap) | (what == end))
        snap = np.flatnonzero(what < n_snap)
        for i, w in zip(snap.tolist(), what[snap].tolist()):
            snapshots[w] = BookState(bids=top[2 * i], asks=top[2 * i + 1])
            mids[w] = midprice(snapshots[w], tick_size)
        starts = starts.tolist()
        for i in np.flatnonzero((what >= n_snap) & (what < end)).tolist():
            t = what[i] - n_snap
            a, b = starts[2 * i + mo_side[t]], starts[2 * i + mo_side[t] + 1]
            flows[interval[t]].mos.append(
                MORecord(side=SIDE_NAMES[mo_side[t]], volume=mo_volume[t],
                         prices=tuple(px[a:b].tolist()),
                         cum_sizes=tuple(cum[a:b].tolist())))
    if error is not None:
        raise BookError(error[1], error[0])
    return ReplayResult(snapshots=snapshots, midprices=mids, flows=flows,
                        terminal_book=BookState(bids=top[-2], asks=top[-1]))


# ---------------------------------------------------------------------------
# Event file I/O
# ---------------------------------------------------------------------------

def write_events_csv(events, path) -> None:
    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["ts_ns", "kind", "side", "price_ticks", "size",
                    "order_ref"])
        for ev in events:
            w.writerow([ev.ts_ns, ev.kind, ev.side, ev.price_ticks, ev.size,
                        ev.order_ref])


def read_events_csv(path):
    out = []
    with open(path, newline="") as fh:
        r = _csv.reader(fh)
        header = next(r)
        expected = ["ts_ns", "kind", "side", "price_ticks", "size",
                    "order_ref"]
        if header != expected:
            raise ValueError(f"unexpected header {header}")
        for row in r:
            out.append(BookEvent(ts_ns=int(row[0]), kind=row[1], side=row[2],
                                 price_ticks=int(row[3]), size=int(row[4]),
                                 order_ref=int(row[5])))
    return out


def write_events_binary(events, path) -> None:
    _as_array(events).tofile(path)


def read_events_binary(path) -> np.ndarray:
    """The file's EVENT_DTYPE records; rejects a truncated file."""
    nbytes = os.path.getsize(path)
    if nbytes % EVENT_DTYPE.itemsize:
        raise ValueError(f"{path}: {nbytes} bytes is not a whole number of "
                         f"{EVENT_DTYPE.itemsize}-byte event records")
    return np.fromfile(path, dtype=EVENT_DTYPE)
