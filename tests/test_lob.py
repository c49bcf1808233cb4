import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfmm.lob import (EVENT_DTYPE, BookError, BookEvent, BookState,
                      IntervalFlow, MORecord, fill_quantity,
                      liquidate, midprice, read_events_binary,
                      read_events_csv, replay, write_events_binary,
                      write_events_csv)
from hfmm.model import TimeGrid
from hfmm.synthetic import SyntheticDayConfig, generate_day

from replay_oracle import oracle_replay, sequential_fill


def ev(ts, kind, side, price, size, ref):
    return BookEvent(ts_ns=ts, kind=kind, side=side, price_ticks=price,
                     size=size, order_ref=ref)


def mo(side, volume, levels):
    """levels: (price, size) best-first."""
    prices = tuple(p for p, _ in levels)
    cum = tuple(np.cumsum([s for _, s in levels], dtype=np.int64).tolist())
    return MORecord(side=side, volume=volume, prices=prices, cum_sizes=cum)


# One share on each side, far from any test price, keeps every snapshot of a
# replay two-sided; ``book_after`` strips it from the terminal ladder.
ANCHORS = [ev(-1, "add", "bid", 1, 1, -1),
           ev(-1, "add", "ask", 10 ** 9, 1, -2)]


def book_after(events):
    """Bids and asks after ``events``, as replay's terminal book sees them."""
    res = replay(ANCHORS + events, TimeGrid(n_steps=1, session_start_ns=0))
    return res.terminal_book.bids[:-1], res.terminal_book.asks[:-1]


def rejected_at(events):
    """Index, counted from the first of ``events``, of the event replay
    rejects."""
    with pytest.raises(BookError) as err:
        book_after(events)
    return err.value.event_index - len(ANCHORS)


class TestApplyEvent:
    def test_add_then_execute(self):
        added = [ev(0, "add", "ask", 10100, 300, 1)]
        assert book_after(added)[1] == ((10100, 300),)
        done = added + [ev(1, "execute", "ask", 10100, 300, 1)]
        assert book_after(done)[1] == ()

    def test_cancel_unknown_ref_rejected(self):
        assert rejected_at([ev(0, "cancel", "ask", 10100, 10, 99)]) == 0

    def test_duplicate_ref_rejected(self):
        assert rejected_at([ev(0, "add", "bid", 9000, 10, 1),
                            ev(1, "add", "bid", 9001, 10, 1)]) == 1

    def test_oversize_execute_rejected(self):
        assert rejected_at([ev(0, "add", "bid", 9000, 10, 1),
                            ev(1, "execute", "bid", 9000, 11, 1)]) == 1

    def test_partial_cancel_keeps_level(self):
        assert book_after([ev(0, "add", "ask", 10100, 300, 1),
                           ev(1, "cancel", "ask", 10100, 100, 1)])[1] == \
            ((10100, 200),)

    def test_ref_reused_after_full_removal(self):
        assert book_after([ev(0, "add", "bid", 9000, 10, 1),
                           ev(1, "cancel", "bid", 9000, 10, 1),
                           ev(2, "add", "bid", 9001, 5, 1),
                           ev(3, "execute", "bid", 9001, 2, 1)])[0] == \
            ((9001, 3),)

    def test_malformed_events_rejected(self):
        assert rejected_at([ev(0, "add", "bid", 9000, 0, 1)]) == 0
        assert rejected_at([ev(0, "add", "bid", -5, 10, 1)]) == 0
        assert rejected_at([ev(0, "add", "middle", 9000, 10, 1)]) == 0
        assert rejected_at([ev(0, "add", "bid", 9000, 10, 1),
                            ev(1, "amend", "bid", 9000, 10, 1)]) == 1


class TestMidprice:
    def test_round_cases(self):
        book = BookState(bids=((9999, 10),), asks=((10001, 10),))
        assert midprice(book, 0.01) == pytest.approx(100.00)
        book2 = BookState(bids=((10000, 10),), asks=((10001, 10),))
        assert midprice(book2, 0.01) == pytest.approx(100.005)

    def test_one_sided_errors(self):
        with pytest.raises(BookError):
            midprice(BookState(bids=(), asks=((10001, 10),)))


class TestFillQuantity:
    def test_better_volume_subtracted(self):
        flow = IntervalFlow(mos=[mo("ask", 600,
                                    [(10001, 200), (10002, 500)])])
        assert fill_quantity(10002, 500, "ask", flow) == 400

    def test_negative_clipped(self):
        flow = IntervalFlow(mos=[mo("ask", 150, [(10001, 200),
                                                 (10002, 500)])])
        assert fill_quantity(10002, 500, "ask", flow) == 0

    def test_sequential_cap(self):
        flow = IntervalFlow(mos=[
            mo("ask", 400, [(10001, 100), (10002, 500)]),
            mo("ask", 400, [(10001, 100), (10002, 500)]),
        ])
        assert fill_quantity(10002, 500, "ask", flow) == 500

    def test_bid_side_better_is_higher(self):
        flow = IntervalFlow(mos=[mo("bid", 600, [(9999, 200), (9998, 500)])])
        assert fill_quantity(9998, 500, "bid", flow) == 400
        assert fill_quantity(9999, 500, "bid", flow) == 600 - 0 - 100

    @given(st.integers(1, 20), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_placement_depth(self, n_levels, volume):
        levels = [(10000 + i, 100) for i in range(1, n_levels + 1)]
        flow = IntervalFlow(mos=[mo("ask", volume, levels)])
        fills = [fill_quantity(10000 + i, 10 ** 6, "ask", flow)
                 for i in range(1, n_levels + 1)]
        assert all(a >= b for a, b in zip(fills, fills[1:]))


class TestLiquidate:
    def test_zero_inventory(self):
        book = BookState(bids=((10000, 100),), asks=((10001, 100),))
        assert liquidate(book, 0).proceeds == 0.0

    def test_weighted_average_sale(self):
        book = BookState(bids=((10000, 200), (9999, 200)),
                         asks=((10001, 100),))
        res = liquidate(book, 300, 0.01)
        assert res.avg_price == pytest.approx((200 * 100.00 + 100 * 99.99)
                                              / 300)
        assert not res.insufficient_depth

    def test_buyback_negative_inventory(self):
        book = BookState(bids=((9999, 100),), asks=((10001, 500),))
        res = liquidate(book, -100, 0.01)
        assert res.avg_price == pytest.approx(100.01)
        assert res.proceeds == pytest.approx(-10001.0)

    def test_insufficient_depth_extrapolates(self):
        book = BookState(bids=((10000, 100), (9998, 100)), asks=())
        res = liquidate(book, 500, 1.0)
        assert res.insufficient_depth
        expect = (100 * 10000 + 100 * 9998 + 300 * 9998) / 500
        assert res.avg_price == pytest.approx(expect)

    def test_price_impact_direction(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            prices = np.sort(rng.integers(9000, 10000, size=5))[::-1]
            sizes = rng.integers(1, 500, size=5)
            book = BookState(bids=tuple(zip(prices.tolist(), sizes.tolist())),
                             asks=((10500, 100),))
            I = float(rng.integers(1, int(sizes.sum())))
            res = liquidate(book, I, 1.0)
            assert res.proceeds <= prices[0] * I + 1e-9

    def test_empty_side_errors(self):
        with pytest.raises(BookError):
            liquidate(BookState(bids=(), asks=((10001, 10),)), 50)


class TestReplay:
    def _grid(self, n=3):
        return TimeGrid(n_steps=n, step_seconds=1.0, session_start_ns=10 ** 9)

    def _base_events(self):
        return [
            ev(0, "add", "bid", 10000, 100, 1),
            ev(0, "add", "ask", 10001, 100, 2),
        ]

    def test_pre_session_add_included_and_quiet_intervals(self):
        res = replay(self._base_events(), self._grid())
        assert len(res.snapshots) == 3
        assert res.snapshots[0].bids == ((10000, 100),)
        assert res.snapshots[0] == res.snapshots[1] == res.snapshots[2]
        np.testing.assert_allclose(res.midprices, 10000.5)

    def test_trade_assigned_to_interval_flow(self):
        events = self._base_events() + [
            ev(10 ** 9 + 500_000_000, "trade", "ask", 10001, 60, 0),
            ev(10 ** 9 + 500_000_001, "execute", "ask", 10001, 60, 2),
        ]
        res = replay(events, self._grid())
        assert len(res.flows[0].mos) == 1
        assert res.flows[0].mos[0].volume == 60
        assert res.flows[1].mos == []
        # snapshot at t_1 reflects the executed volume
        assert res.snapshots[1].asks == ((10001, 40),)

    def test_out_of_order_rejected(self):
        events = [ev(5, "add", "bid", 10000, 100, 1),
                  ev(4, "add", "ask", 10001, 100, 2)]
        with pytest.raises(BookError):
            replay(events, self._grid())

    def test_snapshot_due_before_a_bad_event_comes_first(self):
        """The book at t_0 = 5 is one-sided; event 1 (t = 10) is the first
        to see it, so that error wins over event 2's bad time, as in a
        one-pass replay. With a two-sided book, event 2 is rejected."""
        grid = TimeGrid(n_steps=2, step_seconds=1e-8, session_start_ns=5)
        events = [ev(0, "add", "bid", 100, 5, 1),
                  ev(10, "add", "bid", 99, 5, 2),
                  ev(3, "add", "ask", 101, 5, 3)]
        with pytest.raises(BookError, match="one-sided") as err:
            replay(events, grid)
        assert err.value.event_index is None
        events[1] = ev(10, "add", "ask", 102, 5, 2)
        events[0] = ev(0, "add", "ask", 101, 5, 1)
        events.insert(0, ev(0, "add", "bid", 100, 5, 4))
        with pytest.raises(BookError, match="out of order") as err:
            replay(events, grid)
        assert err.value.event_index == 3

    def test_snapshots_at_counts(self):
        res = replay(self._base_events(), self._grid())
        assert len(res.snapshots) == len(res.midprices) == 3
        assert self._grid().action_time_ns(0) == 10 ** 9
        assert res.midprices[0] == pytest.approx(10000.5)

    def test_determinism_bit_identical(self):
        events = self._base_events() + [
            ev(10 ** 9 + 100, "add", "ask", 10002, 70, 3),
            ev(10 ** 9 + 200, "trade", "ask", 10001, 30, 0),
            ev(10 ** 9 + 201, "execute", "ask", 10001, 30, 2),
        ]
        a = replay(events, self._grid())
        b = replay(events, self._grid())
        assert a.snapshots == b.snapshots
        assert a.midprices.tobytes() == b.midprices.tobytes()
        assert a.terminal_book == b.terminal_book


class TestEventIO:
    def _events(self):
        return [ev(0, "add", "bid", 10000, 100, 1),
                ev(5, "add", "ask", 10001, 50, 2),
                ev(9, "trade", "ask", 10001, 20, 0)]

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "events.csv"
        write_events_csv(self._events(), path)
        assert read_events_csv(path) == self._events()

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ts,kind\n1,add\n")
        with pytest.raises(ValueError):
            read_events_csv(path)

    def test_binary_round_trip(self, tmp_path):
        path = tmp_path / "events.bin"
        write_events_binary(self._events(), path)
        arr = read_events_binary(path)
        assert arr.dtype == EVENT_DTYPE
        assert arr.nbytes == 32 * 3
        assert [int(r["price_ticks"]) for r in arr] == [10000, 10001, 10001]
        # binary and object inputs replay identically
        grid = TimeGrid(n_steps=1, step_seconds=1.0, session_start_ns=10)
        a = replay(self._events(), grid)
        b = replay(arr, grid)
        assert a.snapshots == b.snapshots

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "day_0000.bin"
        write_events_binary(self._events(), path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError, match="day_0000.bin"):
            read_events_binary(path)


def assert_same_replay(a, b):
    """Bit-for-bit equality of two ReplayResults."""
    assert a.snapshots == b.snapshots
    assert a.midprices.tobytes() == b.midprices.tobytes()
    assert a.terminal_book == b.terminal_book
    assert len(a.flows) == len(b.flows)
    for fa, fb in zip(a.flows, b.flows):
        assert len(fa.mos) == len(fb.mos)
        for x, y in zip(fa.mos, fb.mos):
            assert (x.side, x.volume) == (y.side, y.volume)
            for u, v in ((x.prices, y.prices), (x.cum_sizes, y.cum_sizes)):
                assert type(u) is type(v) is tuple and u == v
                assert all(type(e) is int for e in u + v)


def outcome(fn, *args, **kwargs):
    """The ReplayResult, or the BookError's message and index."""
    try:
        return fn(*args, **kwargs)
    except BookError as exc:
        return ("BookError", str(exc), exc.event_index)


class TestColumnarReplayMatchesOracle:
    @pytest.mark.parametrize("n_steps", [2000, 19800])
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_synthetic_days(self, n_steps, seed):
        events, truth = generate_day(SyntheticDayConfig(n_steps=n_steps),
                                     seed=seed)
        assert_same_replay(replay(events, truth.params.grid),
                           oracle_replay(events, truth.params.grid))

    def test_small_blocks(self, monkeypatch):
        """Blocks cut short by the cell budget give the same result."""
        import hfmm.lob
        monkeypatch.setattr(hfmm.lob, "_BLOCK_ROWS", 7)
        monkeypatch.setattr(hfmm.lob, "_BLOCK_CELLS", 40)
        events, truth = generate_day(SyntheticDayConfig(n_steps=60), seed=5)
        assert_same_replay(replay(events, truth.params.grid),
                           oracle_replay(events, truth.params.grid))

    def test_book_event_input_and_small_K(self):
        events, truth = generate_day(SyntheticDayConfig(n_steps=50), seed=4)
        kinds = ("add", "cancel", "execute", "trade")
        objs = [ev(int(r["ts_ns"]), kinds[r["kind"]], ("bid", "ask")[r["side"]],
                   int(r["price_ticks"]), int(r["size"]), int(r["order_ref"]))
                for r in events]
        grid = truth.params.grid
        assert_same_replay(replay(objs, grid, K=3, tick_size=0.01),
                           oracle_replay(events, grid, K=3, tick_size=0.01))

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_random_streams_valid_and_invalid(self, data):
        arr = random_stream(data)
        grid = TimeGrid(n_steps=data.draw(st.integers(1, 6)),
                        step_seconds=3e-9,
                        session_start_ns=data.draw(st.integers(0, 4)))
        K = data.draw(st.integers(1, 4))
        new = outcome(replay, arr, grid, K=K)
        old = outcome(oracle_replay, arr, grid, K=K)
        if isinstance(old, tuple):
            assert new == old
        else:
            assert_same_replay(new, old)


def random_stream(data):
    """A small valid stream over few prices and times, with refs reused
    after removal and, unless left out, a standing order on each side that
    keeps the book two-sided; then, half the time, one field of one event
    corrupted (time, kind, side, price, size or ref)."""
    draw = data.draw
    rows = [(-1, 0, 0, 97, 50, 900), (-1, 0, 1, 104, 50, 901)] \
        if draw(st.integers(0, 3)) else []
    live, dead, ts = {}, [], 0
    for _ in range(draw(st.integers(0, 30))):
        ts += draw(st.sampled_from([0, 0, 1, 3, 7]))
        action = draw(st.sampled_from(["add", "reduce", "reduce", "trade"]))
        if action == "reduce" and live:
            ref = draw(st.sampled_from(sorted(live)))
            side, price, left = live[ref]
            size = draw(st.integers(1, left))
            rows.append((ts, draw(st.sampled_from([1, 2])), side, price, size,
                         ref))
            live[ref] = (side, price, left - size)
            if size == left:
                del live[ref]
                dead.append(ref)
        elif action == "trade":
            rows.append((ts, 3, draw(st.integers(0, 1)), 100,
                         draw(st.integers(1, 80)), 0))
        else:
            ref = draw(st.sampled_from(dead + [len(rows) + 1]))
            dead = [r for r in dead if r != ref]
            side, price = draw(st.integers(0, 1)), draw(st.integers(98, 103))
            size = draw(st.integers(1, 30))
            rows.append((ts, 0, side, price, size, ref))
            live[ref] = (side, price, size)
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, len(rows) - 1))
        field = draw(st.integers(0, 5))
        choices = {0: [rows[i][0] - 5], 1: [4, 0, 1], 2: [2, 0, 1],
                   3: [0, -3, 100], 4: [0, 31, 10 ** 6], 5: [1, 2, 900]}
        bad = draw(st.sampled_from(choices[field]))
        rows[i] = rows[i][:field] + (bad,) + rows[i][field + 1:]
    arr = np.zeros(len(rows), dtype=EVENT_DTYPE)
    for i, (ts, kind, side, price, size, ref) in enumerate(rows):
        arr[i] = (ts, kind, side, 0, price, size, ref, 0)
    return arr


class TestBetterPricedVolume:
    # asks 101 x 5, 103 x 7, 104 x 2; bids the mirror image
    ASK = mo("ask", 10, [(101, 5), (103, 7), (104, 2)])
    BID = mo("bid", 10, [(99, 5), (97, 7), (96, 2)])
    WANT = [0, 0, 5, 5, 12, 14, 14]

    def test_scalar(self):
        for placed, want in zip(range(100, 107), self.WANT):
            assert self.ASK.better_priced_volume(placed) == want
            assert self.BID.better_priced_volume(200 - placed) == want
        assert mo("ask", 10, []).better_priced_volume(101) == 0

    def test_array(self):
        placed = np.arange(100, 107)
        assert self.ASK.better_priced_volume(placed).tolist() == self.WANT
        assert self.BID.better_priced_volume(200 - placed).tolist() == \
            self.WANT
        assert mo("bid", 10, []).better_priced_volume(placed).tolist() == \
            [0] * 7


class TestClosedFormFills:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_closed_form_equals_sequential_cap(self, data):
        side = data.draw(st.sampled_from(["ask", "bid"]))
        mos = []
        for _ in range(data.draw(st.integers(0, 4))):
            mo_side = data.draw(st.sampled_from([side, side, "ask", "bid"]))
            prices = sorted(data.draw(st.sets(st.integers(95, 105),
                                              max_size=6)),
                            reverse=mo_side == "bid")  # best first
            sizes = [data.draw(st.integers(1, 50)) for _ in prices]
            mos.append(mo(mo_side, data.draw(st.integers(0, 300)),
                          list(zip(prices, sizes))))
        flow = IntervalFlow(mos=mos)
        placed = np.arange(94, 107)
        size = data.draw(st.integers(-5, 400))
        expect = [sequential_fill(int(px), size, side, flow) for px in placed]
        assert [fill_quantity(int(px), size, side, flow)
                for px in placed] == expect
        for m in mos:  # the array form estimation uses
            assert m.better_priced_volume(placed).tolist() == \
                [int(m.better_priced_volume(int(px))) for px in placed]
