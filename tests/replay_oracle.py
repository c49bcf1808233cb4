"""Reference replay for the tests: one pass over the stream with a dict per
side, as the engine replayed before its columnar rewrite, building the
per-step book and market-order objects it kept before its array
ReplayResult. ``hfmm.lob.replay`` must produce the same ReplayResult, bit
for bit, and reject the same event with the same BookError.

``to_arrays`` and ``as_objects`` convert between the two forms, so tests
can also build a ReplayResult by hand."""

from bisect import bisect_left
from dataclasses import dataclass
from operator import neg

import numpy as np

from hfmm.lob import EVENT_DTYPE, SIDE_CODES, BookError, ReplayResult

from conftest import action_time_ns

SIDE_NAMES = {code: name for name, code in SIDE_CODES.items()}


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


def mo(side, volume, levels):
    """An MORecord from (price, size) levels, best-first."""
    prices = tuple(p for p, _ in levels)
    cum = tuple(np.cumsum([s for _, s in levels], dtype=np.int64).tolist())
    return MORecord(side=side, volume=volume, prices=prices, cum_sizes=cum)


def midprice(book: BookState, tick_size: float = 1.0) -> float:
    """(best bid + best ask) / 2 in currency units."""
    if not book.bids or not book.asks:
        raise BookError("one-sided book")
    return (book.bids[0][0] + book.asks[0][0]) / 2 * tick_size


def to_arrays(snapshots, flows, terminal=None, K=20, mids=None,
              tick_size=1.0):
    """The ReplayResult of per-step BookStates, per-interval lists of
    MORecords and a terminal BookState (the last snapshot by default);
    ``mids`` defaults to each snapshot's midprice."""
    n = len(snapshots)
    books = list(snapshots) + [terminal or snapshots[-1]]
    prices, sizes = np.zeros((2, n + 1, 2, K), dtype=np.int64)
    depth = np.zeros((n + 1, 2), dtype=np.int64)
    for k, book in enumerate(books):
        for s, ladder in enumerate((book.bids, book.asks)):
            depth[k, s] = min(len(ladder), K)
            for r, (price, size) in enumerate(ladder[:K]):
                prices[k, s, r], sizes[k, s, r] = price, size
    records = [(k, m) for k, mos in enumerate(flows) for m in mos]
    lens = [len(m.prices) for _, m in records]

    def ints(values):
        return np.array(values, dtype=np.int64).reshape(-1)

    return ReplayResult(
        midprices=(np.array([midprice(b, tick_size) for b in snapshots])
                   if mids is None else np.asarray(mids, dtype=float)),
        book_prices=prices, book_sizes=sizes, book_depth=depth,
        mo_interval=ints([k for k, _ in records]),
        mo_side=ints([SIDE_CODES[m.side] for _, m in records]),
        mo_volume=ints([m.volume for _, m in records]),
        mo_start=ints(np.concatenate([[0], np.cumsum(lens, dtype=np.int64)])),
        mo_prices=ints([p for _, m in records for p in m.prices]),
        mo_cum=ints([c for _, m in records for c in m.cum_sizes]))


def as_objects(rep):
    """(snapshots, flows, terminal) of a ReplayResult: a BookState per
    action time, a list of MORecords per interval, the terminal BookState."""
    n = len(rep.midprices)
    books = [BookState(*(tuple(zip(rep.book_prices[k, s, :d].tolist(),
                                   rep.book_sizes[k, s, :d].tolist()))
                         for s, d in enumerate(rep.book_depth[k].tolist())))
             for k in range(n + 1)]
    flows = [[] for _ in range(n)]
    start = rep.mo_start.tolist()
    for i, (k, s, v) in enumerate(zip(rep.mo_interval.tolist(),
                                      rep.mo_side.tolist(),
                                      rep.mo_volume.tolist())):
        a, b = start[i], start[i + 1]
        flows[k].append(MORecord(side=SIDE_NAMES[s], volume=v,
                                 prices=tuple(rep.mo_prices[a:b].tolist()),
                                 cum_sizes=tuple(rep.mo_cum[a:b].tolist())))
    return books[:n], flows, books[n]


def _records(events):
    """(ts_ns, kind, side, price_ticks, size, order_ref) of each event."""
    return [(r[0], r[1], r[2], r[4], r[5], r[6])
            for r in np.asarray(events, dtype=EVENT_DTYPE).tolist()]


def oracle_replay(events, grid, K=20, tick_size=1.0):
    records = _records(events)
    n = grid.n_steps
    times = [action_time_ns(grid, k) for k in range(n + 1)]
    orders = {}
    levels = ({}, {})  # bid, ask: price -> aggregate size
    snapshots = [None] * n
    mids = np.empty(n)
    flows = [[] for _ in range(n)]
    next_k = 0
    last_ts = None

    def state():
        return BookState(bids=tuple(sorted(levels[0].items(),
                                           reverse=True)[:K]),
                         asks=tuple(sorted(levels[1].items())[:K]))

    for idx, (ts, kind, side, price, size, ref) in enumerate(records):
        if last_ts is not None and ts < last_ts:
            raise BookError("events out of order", idx)
        last_ts = ts
        while next_k < n and ts >= times[next_k]:
            snapshots[next_k] = state()
            mids[next_k] = midprice(snapshots[next_k], tick_size)
            next_k += 1
        if kind > 3:
            raise BookError(f"unknown kind code {kind}", idx)
        if side > 1:
            raise BookError(f"unknown side code {side}", idx)
        if size <= 0 or price <= 0:
            raise BookError("size and price must be positive", idx)
        if kind == 0:  # add
            if ref in orders:
                raise BookError(f"duplicate order_ref {ref}", idx)
            orders[ref] = [side, price, size]
            levels[side][price] = levels[side].get(price, 0) + size
        elif kind in (1, 2):  # cancel / execute
            order = orders.get(ref)
            if order is None:
                raise BookError(f"unknown order_ref {ref}", idx)
            if size > order[2]:
                raise BookError("size exceeds remaining", idx)
            order[2] -= size
            lv = levels[order[0]]
            left = lv[order[1]] - size
            if left:
                lv[order[1]] = left
            else:
                del lv[order[1]]
            if order[2] == 0:
                del orders[ref]
        elif next_k > 0 and ts < times[n]:  # trade marker inside the session
            lv = levels[side]
            prices = tuple(sorted(lv, reverse=not side))
            cum = tuple(np.cumsum([lv[p] for p in prices],
                                  dtype=np.int64).tolist())
            flows[next_k - 1].append(
                MORecord(side=SIDE_NAMES[side], volume=size, prices=prices,
                         cum_sizes=cum))
    while next_k < n:
        snapshots[next_k] = state()
        mids[next_k] = midprice(snapshots[next_k], tick_size)
        next_k += 1
    return to_arrays(snapshots, flows, state(), K=K, mids=mids)


def sequential_fill(placed_price_ticks, placed_size, side, mos):
    """Fill quantity as the engine measured it before the closed form: each
    matching MO takes max(V_MO - V_better, 0), capped at what is left."""
    remaining = placed_size
    total = 0
    for m in mos:
        if m.side != side or remaining <= 0:
            continue
        sizes = np.diff(m.cum_sizes, prepend=0)
        prices = np.array(m.prices, dtype=np.int64)
        better = (prices < placed_price_ticks if side == "ask"
                  else prices > placed_price_ticks)
        q = m.volume - int(sizes[better].sum())
        if q > 0:
            take = min(q, remaining)
            total += take
            remaining -= take
    return total
