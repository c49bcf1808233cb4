"""CSV writer for event streams, the inverse of ``hfmm.lob.read_events_csv``
(the package itself only reads CSV event files)."""

import csv

import numpy as np

from hfmm.lob import EVENT_DTYPE, KIND_CODES, SIDE_CODES

KIND_NAMES = {code: name for name, code in KIND_CODES.items()}
SIDE_NAMES = {code: name for name, code in SIDE_CODES.items()}


def write_events_csv(events, path) -> None:
    """Write EVENT_DTYPE records (an array or a sequence of record tuples)
    as a CSV event file."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["ts_ns", "kind", "side", "price_ticks", "size",
                    "order_ref"])
        for ts, kind, side, _, price, size, ref, _ in np.asarray(
                events, dtype=EVENT_DTYPE).tolist():
            w.writerow([ts, KIND_NAMES[kind], SIDE_NAMES[side], price, size,
                        ref])
