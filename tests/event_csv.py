"""CSV writer for event streams, the inverse of ``hfmm.lob.read_events_csv``
(the package itself only reads CSV event files)."""

import csv


def write_events_csv(events, path) -> None:
    """Write a sequence of BookEvent as a CSV event file."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["ts_ns", "kind", "side", "price_ticks", "size",
                    "order_ref"])
        for ev in events:
            w.writerow([ev.ts_ns, ev.kind, ev.side, ev.price_ticks, ev.size,
                        ev.order_ref])
