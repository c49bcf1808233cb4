"""Reference replay for the tests: one pass over the stream with a dict per
side, as the engine replayed before its columnar rewrite. ``hfmm.lob.replay``
must produce the same ReplayResult, bit for bit, and reject the same event
with the same BookError."""

import numpy as np

from hfmm.lob import (EVENT_DTYPE, KIND_CODES, SIDE_CODES, SIDE_NAMES,
                      BookError, BookState, IntervalFlow, MORecord,
                      ReplayResult, midprice)


def _records(events):
    if isinstance(events, np.ndarray) and events.dtype == EVENT_DTYPE:
        return [(int(r[0]), int(r[1]), int(r[2]), int(r[4]), int(r[5]),
                 int(r[6])) for r in events.tolist()]
    return [(ev.ts_ns, KIND_CODES.get(ev.kind, 255),
             SIDE_CODES.get(ev.side, 255), ev.price_ticks, ev.size,
             ev.order_ref) for ev in events]


def oracle_replay(events, grid, K=20, tick_size=1.0):
    records = _records(events)
    n = grid.n_steps
    times = [grid.action_time_ns(k) for k in range(n + 1)]
    orders = {}
    levels = ({}, {})  # bid, ask: price -> aggregate size
    snapshots = [None] * n
    mids = np.empty(n)
    flows = [IntervalFlow() for _ in range(n)]
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
            flows[next_k - 1].mos.append(
                MORecord(side=SIDE_NAMES[side], volume=size, prices=prices,
                         cum_sizes=cum))
    while next_k < n:
        snapshots[next_k] = state()
        mids[next_k] = midprice(snapshots[next_k], tick_size)
        next_k += 1
    return ReplayResult(snapshots=snapshots, midprices=mids, flows=flows,
                        terminal_book=state())


def sequential_fill(placed_price_ticks, placed_size, side, flow):
    """Fill quantity as the engine measured it before the closed form: each
    matching MO takes max(V_MO - V_better, 0), capped at what is left."""
    remaining = placed_size
    total = 0
    for mo in flow.mos:
        if mo.side != side or remaining <= 0:
            continue
        sizes = np.diff(mo.cum_sizes, prepend=0)
        prices = np.array(mo.prices, dtype=np.int64)
        better = (prices < placed_price_ticks if side == "ask"
                  else prices > placed_price_ticks)
        q = mo.volume - int(sizes[better].sum())
        if q > 0:
            take = min(q, remaining)
            total += take
            remaining -= take
    return total
