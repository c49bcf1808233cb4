import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hfmm.lob
from hfmm.lob import (EVENT_DTYPE, KIND_CODES, SIDE_CODES, BookError,
                      IntervalFlow, ReplayResult, fill_quantity, liquidate,
                      read_events_binary, read_events_csv, replay,
                      write_events_binary)
from hfmm.model import TimeGrid
from hfmm.synthetic import SyntheticDayConfig, generate_day

from conftest import action_time_ns
from event_csv import write_events_csv
from replay_oracle import (BookState, as_objects, mo, oracle_replay,
                           sequential_fill, to_arrays)


def ev(ts, kind, side, price, size, ref):
    """One event as an EVENT_DTYPE record tuple, kind and side by name."""
    return (ts, KIND_CODES[kind], SIDE_CODES[side], 0, price, size, ref, 0)


EMPTY = BookState(bids=(), asks=())


def mo_replay(mos):
    """A one-interval ReplayResult holding ``mos``, in that order."""
    return to_arrays([EMPTY], [mos], mids=[0.0])


def flow_of(mos):
    """The IntervalFlow of one interval's MORecords."""
    _, flows = mo_replay(mos).interval_flows(0, 1)
    return flows[0] if flows else IntervalFlow()


def closing(book):
    """A ReplayResult whose book at the end of the session is ``book``."""
    return to_arrays([], [], book)


# One share on each side, far from any test price, keeps every snapshot of a
# replay two-sided; ``book_after`` strips it from the terminal ladder.
ANCHORS = [ev(-1, "add", "bid", 1, 1, -1),
           ev(-1, "add", "ask", 10 ** 9, 1, -2)]


def book_after(events):
    """Bids and asks after ``events``, as replay's terminal book sees them."""
    res = replay(ANCHORS + events, TimeGrid(n_steps=1, session_start_ns=0))
    terminal = as_objects(res)[2]
    return terminal.bids[:-1], terminal.asks[:-1]


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
        # side code 2 and kind code 4 are outside the schema
        assert rejected_at([(0, 0, 2, 0, 9000, 10, 1, 0)]) == 0
        assert rejected_at([ev(0, "add", "bid", 9000, 10, 1),
                            (1, 4, 0, 0, 9000, 10, 1, 0)]) == 1


def midprice(bid, ask, tick_size):
    """replay's midprice of a book with one bid and one ask level."""
    events = [ev(0, "add", side, price, 10, ref)
              for ref, (side, price) in enumerate((("bid", bid),
                                                   ("ask", ask)), 1)
              if price]
    grid = TimeGrid(n_steps=1, session_start_ns=1)
    return replay(events, grid, tick_size=tick_size).midprices[0]


class TestMidprice:
    def test_round_cases(self):
        assert midprice(9999, 10001, 0.01) == pytest.approx(100.00)
        assert midprice(10000, 10001, 0.01) == pytest.approx(100.005)

    def test_one_sided_errors(self):
        with pytest.raises(BookError, match="one-sided"):
            midprice(0, 10001, 1.0)


class TestFillQuantity:
    def test_better_volume_subtracted(self):
        flow = flow_of([mo("ask", 600,
                                    [(10001, 200), (10002, 500)])])
        assert fill_quantity(10002, 500, "ask", flow) == 400

    def test_negative_clipped(self):
        flow = flow_of([mo("ask", 150, [(10001, 200),
                                                 (10002, 500)])])
        assert fill_quantity(10002, 500, "ask", flow) == 0

    def test_sequential_cap(self):
        flow = flow_of([
            mo("ask", 400, [(10001, 100), (10002, 500)]),
            mo("ask", 400, [(10001, 100), (10002, 500)]),
        ])
        assert fill_quantity(10002, 500, "ask", flow) == 500

    def test_bid_side_better_is_higher(self):
        flow = flow_of([mo("bid", 600, [(9999, 200), (9998, 500)])])
        assert fill_quantity(9998, 500, "bid", flow) == 400
        assert fill_quantity(9999, 500, "bid", flow) == 600 - 0 - 100

    def test_no_market_order_fills_nothing(self):
        for side in ("ask", "bid"):
            assert fill_quantity(100, 5, side, IntervalFlow()) == 0
            assert fill_quantity(100, 5, side, flow_of([])) == 0

    @given(st.integers(1, 20), st.integers(0, 1000))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_placement_depth(self, n_levels, volume):
        levels = [(10000 + i, 100) for i in range(1, n_levels + 1)]
        flow = flow_of([mo("ask", volume, levels)])
        fills = [fill_quantity(10000 + i, 10 ** 6, "ask", flow)
                 for i in range(1, n_levels + 1)]
        assert all(a >= b for a, b in zip(fills, fills[1:]))


class TestCutLadders:
    """interval_flows cuts each MO's ladder after the first level whose
    cumulative size covers the MO's volume; fill_quantity over the cut
    ladders equals the sequential fill over the whole ones."""

    ASKS = [(101, 30), (102, 50), (104, 20), (105, 40)]  # cum 30 80 100 140
    BIDS = [(99, 30), (98, 50), (96, 20)]                # cum 30 80 100

    def same_fills(self, flow, mos):
        """Every placement from inside the spread to two ticks past the
        deepest level, on both sides and at a binding and a free size."""
        prices = [p for m in mos for p in m.prices] or [100]
        for side in ("ask", "bid"):
            for px in range(min(prices) - 2, max(prices) + 3):
                for size in (25, 10 ** 6):
                    assert (fill_quantity(px, size, side, flow)
                            == sequential_fill(px, size, side, mos))

    @pytest.mark.parametrize("mos,kept", [
        ([mo("ask", 60, ASKS)], [2]),
        ([mo("ask", 100, ASKS)], [3]),  # a level that covers it exactly
        ([mo("ask", 500, ASKS)], [4]),  # no level absorbs it: kept whole
        ([mo("ask", 0, ASKS)], [1]),
        ([mo("ask", 10, [])], [0]),
        ([mo("ask", 60, ASKS), mo("ask", 100, ASKS)], [2, 3]),
        ([mo("bid", 31, BIDS), mo("ask", 5, ASKS), mo("bid", 900, BIDS)],
         [2, 1, 3]),
    ], ids=["absorbed", "exactly", "unabsorbed", "zero_volume",
            "empty_ladder", "two_same_side", "bid_side"])
    def test_cut_and_fills(self, mos, kept):
        flow = flow_of(mos)
        assert [hi - lo for lo, hi in zip(flow.lo, flow.hi)] == kept
        self.same_fills(flow, mos)

    def test_blocks_of_intervals(self):
        """The flows of any run of the quoted intervals, each over lists
        of its own, fill as the whole MOs do."""
        flows = [[mo("ask", 60, self.ASKS)], [],
                 [mo("bid", 0, self.BIDS), mo("bid", 70, self.BIDS)],
                 [mo("ask", 10, [])],
                 [mo("ask", 500, self.ASKS), mo("bid", 40, self.BIDS)]]
        rep = to_arrays([EMPTY] * len(flows), flows,
                        mids=[0.0] * len(flows))
        assert rep.interval_flows(0, 4)[0] == [0, 2, 3, 4]
        for lo, hi in ((0, 1), (1, 3), (2, 4), (3, 4), (0, 9)):
            steps, block = rep.interval_flows(lo, hi)
            assert steps == [0, 2, 3, 4][lo:hi]
            for k, flow in zip(steps, block):
                self.same_fills(flow, flows[k])


class TestLiquidate:
    def test_zero_inventory(self):
        book = BookState(bids=((10000, 100),), asks=((10001, 100),))
        assert liquidate(closing(book), 0).proceeds == 0.0

    def test_weighted_average_sale(self):
        book = BookState(bids=((10000, 200), (9999, 200)),
                         asks=((10001, 100),))
        res = liquidate(closing(book), 300, 0.01)
        assert res.avg_price == pytest.approx((200 * 100.00 + 100 * 99.99)
                                              / 300)
        assert not res.insufficient_depth

    def test_buyback_negative_inventory(self):
        book = BookState(bids=((9999, 100),), asks=((10001, 500),))
        res = liquidate(closing(book), -100, 0.01)
        assert res.avg_price == pytest.approx(100.01)
        assert res.proceeds == pytest.approx(-10001.0)

    def test_insufficient_depth_extrapolates(self):
        book = BookState(bids=((10000, 100), (9998, 100)), asks=())
        res = liquidate(closing(book), 500, 1.0)
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
            res = liquidate(closing(book), I, 1.0)
            assert res.proceeds <= prices[0] * I + 1e-9

    def test_empty_side_errors(self):
        with pytest.raises(BookError):
            liquidate(closing(BookState(bids=(), asks=((10001, 10),))), 50)


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
        snapshots = as_objects(res)[0]
        assert len(snapshots) == 3
        assert snapshots[0].bids == ((10000, 100),)
        assert snapshots[0] == snapshots[1] == snapshots[2]
        np.testing.assert_allclose(res.midprices, 10000.5)

    def test_trade_assigned_to_interval_flow(self):
        events = self._base_events() + [
            ev(10 ** 9 + 500_000_000, "trade", "ask", 10001, 60, 0),
            ev(10 ** 9 + 500_000_001, "execute", "ask", 10001, 60, 2),
        ]
        res = replay(events, self._grid())
        assert res.mo_interval.tolist() == [0]
        assert res.mo_volume.tolist() == [60]
        snapshots, flows, _ = as_objects(res)
        assert flows[1] == []
        assert flows[0][0].prices == (10001,)
        # snapshot at t_1 reflects the executed volume
        assert snapshots[1].asks == ((10001, 40),)

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
        assert len(res.midprices) == 3
        assert res.book_prices.shape == res.book_sizes.shape == (4, 2, 20)
        assert res.book_depth.shape == (4, 2)
        assert action_time_ns(self._grid(), 0) == 10 ** 9
        assert res.midprices[0] == pytest.approx(10000.5)

    def test_determinism_bit_identical(self):
        events = self._base_events() + [
            ev(10 ** 9 + 100, "add", "ask", 10002, 70, 3),
            ev(10 ** 9 + 200, "trade", "ask", 10001, 30, 0),
            ev(10 ** 9 + 201, "execute", "ask", 10001, 30, 2),
        ]
        a = replay(events, self._grid())
        b = replay(events, self._grid())
        assert_same_replay(a, b)


class TestEventIO:
    def _events(self):
        return [ev(0, "add", "bid", 10000, 100, 1),
                ev(5, "add", "ask", 10001, 50, 2),
                ev(9, "trade", "ask", 10001, 20, 0)]

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "events.csv"
        write_events_csv(self._events(), path)
        assert read_events_csv(path).tolist() == self._events()

    def test_csv_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("ts,kind\n1,add\n")
        with pytest.raises(ValueError):
            read_events_csv(path)

    @pytest.mark.parametrize("row,error", [
        ("1000,add,bid", "not enough values to unpack (expected 6, got 3)"),
        ("1000,add,bid,10000,1.5,3",
         "invalid literal for int() with base 10: '1.5'"),
        ("1000,ADD,bid,10000,5,3", "unknown kind 'ADD'"),
        ("1000,add,buy,10000,5,3", "unknown side 'buy'"),
        ("1000,add,bid,4294967296,5,3", "price_ticks 4294967296 out of range"),
        ("1000,add,bid,10000,-2147483649,3", "size -2147483649 out of range"),
        (f"{2 ** 63},add,bid,10000,5,3", f"ts_ns {2 ** 63} out of range"),
        (f"1000,add,bid,10000,5,{-2 ** 63 - 1}",
         f"order_ref {-2 ** 63 - 1} out of range")],
        ids=["short_row", "non_integer", "unknown_kind", "unknown_side",
             "price_too_large", "size_too_small", "ts_too_large",
             "ref_too_small"])
    def test_csv_bad_row_names_file_and_line(self, tmp_path, row, error):
        path = tmp_path / "day_0000.csv"
        write_events_csv(self._events(), path)
        path.write_text(path.read_text() + row + "\r\n")
        with pytest.raises(ValueError) as info:
            read_events_csv(path)
        assert str(info.value) == f"{path}: line 5: {error}"

    @pytest.mark.parametrize("blank", ["\n", "\r\n", "\n\n"])
    def test_csv_blank_lines_skipped(self, tmp_path, blank):
        path = tmp_path / "day_0000.csv"
        write_events_csv(self._events(), path)
        text = path.read_bytes()
        path.write_bytes(text + blank.encode())
        assert read_events_csv(path).tolist() == self._events()
        # a short row after them still fails, on its own line
        path.write_bytes(text + blank.encode() + b"1000,add,bid\r\n")
        with pytest.raises(ValueError) as info:
            read_events_csv(path)
        line = 5 + blank.count("\n")
        assert str(info.value) == (f"{path}: line {line}: not enough values "
                                   "to unpack (expected 6, got 3)")

    def test_binary_round_trip(self, tmp_path):
        path = tmp_path / "events.bin"
        write_events_binary(self._events(), path)
        arr = read_events_binary(path)
        assert arr.dtype == EVENT_DTYPE
        assert arr.nbytes == 32 * 3
        assert [int(r["price_ticks"]) for r in arr] == [10000, 10001, 10001]
        # array and record-tuple inputs replay identically
        grid = TimeGrid(n_steps=1, step_seconds=1.0, session_start_ns=10)
        a = replay(self._events(), grid)
        b = replay(arr, grid)
        assert_same_replay(a, b)

    def test_truncated_binary_rejected(self, tmp_path):
        path = tmp_path / "day_0000.bin"
        write_events_binary(self._events(), path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ValueError, match="day_0000.bin"):
            read_events_binary(path)


def assert_same_replay(a, b):
    """Bit-for-bit equality of two ReplayResults, field by field."""
    for name in ReplayResult.__dataclass_fields__:
        u, v = getattr(a, name), getattr(b, name)
        assert (name, u.dtype, u.shape) == (name, v.dtype, v.shape)
        assert u.tobytes() == v.tobytes(), name


def outcome(fn, *args, **kwargs):
    """The ReplayResult, or the BookError's message and index."""
    try:
        return fn(*args, **kwargs)
    except BookError as exc:
        return ("BookError", str(exc), exc.event_index)


def handed_over(rows, grid):
    """replay's outcome, as ``outcome`` gives it, on an EVENT_DTYPE array of
    ``rows`` built in the call, so that replay holds its only reference."""
    try:
        return replay(np.array(rows, dtype=EVENT_DTYPE), grid)
    except BookError as exc:
        return ("BookError", str(exc), exc.event_index)


# a call hands its arguments to the callee's frame from Python 3.11 on;
# before that the caller's stack holds them until the call returns
needs_handover = pytest.mark.skipif(
    sys.version_info < (3, 11),
    reason="the caller holds a call's arguments before Python 3.11")


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

    def test_record_tuple_input_and_small_K(self):
        events, truth = generate_day(SyntheticDayConfig(n_steps=50), seed=4)
        grid = truth.params.grid
        assert_same_replay(replay(events.tolist(), grid, K=3, tick_size=0.01),
                           oracle_replay(events, grid, K=3, tick_size=0.01))

    def test_sizes_beyond_int32(self):
        """Sizes at the int32 limit: two adds of 2**31 - 1 shares at one
        price, partial cancels whose running sum passes 2**31 and MOs that
        meet more than 2**31 shares; then an over-cancel that takes its
        order's running sum past 2**31."""
        big = 2 ** 31 - 1
        half = 2 ** 30
        rows = [(0, 0, 0, 100, big, 1), (0, 0, 0, 100, big, 2),
                (0, 0, 1, 105, big, 3), (0, 0, 1, 106, big, 4),
                (1, 1, 0, 100, half, 1), (1, 2, 1, 105, half, 3),
                (2, 1, 0, 100, half, 2), (2, 3, 1, 105, big, 0),
                (3, 1, 0, 100, half - 1, 1), (3, 0, 0, 101, big, 1),
                (4, 2, 1, 106, big - 1, 4), (5, 3, 0, 100, big, 0),
                (6, 1, 0, 100, half - 2, 2)]
        grid = TimeGrid(n_steps=4, step_seconds=2e-9, session_start_ns=1)
        arr = np.array([(t, k, s, 0, p, z, r, 0) for t, k, s, p, z, r in rows],
                       dtype=EVENT_DTYPE)
        res = replay(arr, grid)
        assert_same_replay(res, oracle_replay(arr, grid))
        assert res.book_sizes.max() == 2 * big
        assert res.mo_cum.max() > 2 ** 31
        bad = np.concatenate([arr, arr[-1:]])
        bad[-1]["size"] = big  # 2**31 - 2 shares of ref 2 gone already
        assert outcome(replay, bad, grid) == outcome(oracle_replay, bad, grid)
        assert outcome(replay, bad, grid)[1:] == (
            f"event {len(arr)}: size exceeds remaining", len(arr))

    def test_event_count_limit_named(self, monkeypatch):
        import hfmm.lob
        events, truth = generate_day(SyntheticDayConfig(n_steps=5), seed=2)
        monkeypatch.setattr(hfmm.lob, "_MAX_EVENTS", len(events))
        replay(events, truth.params.grid)
        monkeypatch.setattr(hfmm.lob, "_MAX_EVENTS", len(events) - 1)
        with pytest.raises(BookError, match=f"^{len(events)} events"):
            replay(events, truth.params.grid)

    def test_peak_memory_within_twice_the_stream(self):
        """The order pass keeps replay's transient memory, the result
        included, under twice the event array on a full-length day."""
        events, truth = generate_day(SyntheticDayConfig(n_steps=19800),
                                     seed=3)
        tracemalloc.start()
        try:
            replay(events, truth.params.grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * events.nbytes

    @needs_handover
    def test_peak_memory_with_the_records_handed_over(self, tmp_path):
        """Records read inside the window and handed straight to replay
        are freed before the order pass: the peak, records and result
        included, stays under 2.2 times the stream's bytes."""
        events, truth = generate_day(SyntheticDayConfig(n_steps=19800),
                                     seed=3)
        path = tmp_path / "day_0000.bin"
        write_events_binary(events, path)
        del events
        tracemalloc.start()
        try:
            rep = replay(read_events_binary(path), truth.params.grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rep.midprices) == 19800
        assert peak <= 2.2 * path.stat().st_size

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


class TestRecordsHandedOver:
    """replay takes what it needs from the records in one pass and drops
    them: a caller that holds no reference has them freed before the order
    pass, and one that does gets them back untouched."""

    @pytest.fixture
    def day(self, tmp_path):
        events, truth = generate_day(SyntheticDayConfig(n_steps=200), seed=7)
        path = tmp_path / "day_0000.bin"
        write_events_binary(events, path)
        return path, truth.params.grid

    @needs_handover
    def test_released_before_the_ladder_pass(self, day, monkeypatch):
        path, grid = day
        refs, alive = [], []

        def read(path):
            records = read_events_binary(path)
            refs.append(weakref.ref(records))
            return records

        def ladder_blocks(*args):
            alive.append(refs[0]() is not None)
            return ladder(*args)

        ladder = hfmm.lob._ladder_blocks
        monkeypatch.setattr(hfmm.lob, "_ladder_blocks", ladder_blocks)
        rep = replay(read(path), grid)
        assert alive == [False]
        assert_same_replay(rep, oracle_replay(read_events_binary(path), grid))

    def test_held_records_unchanged(self, day):
        path, grid = day
        records = read_events_binary(path)
        before = records.tobytes()
        replay(records, grid)
        assert records.dtype == EVENT_DTYPE
        assert records.tobytes() == before

    GRID = TimeGrid(n_steps=4, step_seconds=1e-8, session_start_ns=10)
    BOOK = [ev(0, "add", "bid", 100, 5, 30), ev(0, "add", "ask", 101, 5, 10)]

    @pytest.mark.parametrize("rows,want", [
        (BOOK + [ev(12, "trade", "ask", 101, 2, 0),
                 ev(13, "execute", "ask", 101, 2, 10),
                 ev(25, "add", "bid", 99, 5, 20),
                 ev(24, "add", "ask", 102, 5, 40)],
         ("event 5: events out of order", 5)),
        ([ev(0, "add", "bid", 100, 5, 1), ev(15, "add", "ask", 101, 5, 2),
          ev(16, "cancel", "ask", 101, 9, 2)],
         ("one-sided book", None)),
        ([ev(0, "add", "bid", 100, 5, 1), ev(15, "add", "bid", 99, 5, 2),
          *(ev(3, "add", "ask", 101 + i, 5, 3 + i) for i in range(3))],
         ("one-sided book", None)),
        (BOOK + [ev(11, "add", "bid", 99, 5, 20),
                 ev(12, "cancel", "bid", 99, 5, 20),
                 ev(13, "add", "ask", 102, 5, 40),
                 ev(14, "cancel", "bid", 99, 1, 20)],
         ("event 5: unknown order_ref 20", 5)),
        (BOOK + [ev(11, "execute", "ask", 101, 1, 10),
                 ev(12, "cancel", "ask", 101, 1, 25),
                 ev(13, "cancel", "ask", 101, 1, 15)],
         ("event 3: unknown order_ref 25", 3)),
        (BOOK + [ev(11, "add", "bid", 99, 5, 20),
                 ev(22, "add", "ask", 102, 5, 40),
                 ev(23, "add", "bid", 98, 5, 20)],
         ("event 4: duplicate order_ref 20", 4)),
        ([ev(0, "add", "bid", 100, 5, 1), ev(5, "execute", "bid", 100, 9, 1),
          ev(6, "add", "ask", 101, 5, 2)],
         ("event 1: size exceeds remaining", 1)),
        ([ev(5, "add", "bid", 100, 5, 1), ev(4, "add", "ask", 101, 5, 2)],
         ("event 1: events out of order", 1)),
    ], ids=["out_of_order_after_snapshots", "one_sided_before_rejected",
            "one_sided_before_out_of_order",
            "unknown_ref_after_removal", "unknown_ref_never_added",
            "duplicate_ref", "rejected_before_first_action_time",
            "out_of_order_before_first_action_time"])
    def test_error_paths_match_oracle(self, rows, want):
        got = handed_over(rows, self.GRID)
        assert got == outcome(oracle_replay, rows, self.GRID)
        assert got == ("BookError", *want)


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
        """fill_quantity's bisect: an order never capped fills V - better."""
        big = [mo(m.side, 100, list(zip(m.prices, np.diff(m.cum_sizes,
                                                          prepend=0))))
               for m in (self.ASK, self.BID)]
        for placed, want in zip(range(100, 107), self.WANT):
            assert fill_quantity(placed, 10 ** 6, "ask", flow_of(big)) == \
                100 - want
            assert fill_quantity(200 - placed, 10 ** 6, "bid",
                                 flow_of(big)) == 100 - want
        assert fill_quantity(101, 10 ** 6, "ask",
                             flow_of([mo("ask", 10, [])])) == 10

    def test_array(self):
        """The estimator's segment-key searchsorted, MO by MO."""
        rep = mo_replay([self.ASK, self.BID, mo("bid", 10, [])])
        placed = np.arange(100, 107)
        got = rep.better_priced_volume(np.array([[0], [1], [2]]),
                                       np.stack([placed, 200 - placed,
                                                 placed]))
        assert got.tolist() == [self.WANT, self.WANT, [0] * 7]


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
        flow = flow_of(mos)
        placed = np.arange(94, 107)
        size = data.draw(st.integers(-5, 400))
        expect = [sequential_fill(int(px), size, side, mos) for px in placed]
        assert [fill_quantity(int(px), size, side, flow)
                for px in placed] == expect
        if mos:  # the array form estimation uses
            got = mo_replay(mos).better_priced_volume(
                np.arange(len(mos))[:, None], placed)
            assert got.tolist() == [[int(m.better_priced_volume(int(px)))
                                     for px in placed] for m in mos]
