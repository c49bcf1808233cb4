"""Market model parameters: time grid, arrival probabilities, demand moments.

Every other module consumes these types. All containers are frozen
dataclasses and safe to share across threads after construction.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass

import numpy as np
import yaml

__all__ = [
    "TimeGrid",
    "SideMoments",
    "DemandMoments",
    "ArrivalSchedule",
    "MarketParams",
    "joint_bounds",
    "arrival_indicators",
    "penalized_wealth",
    "validate_params",
    "load_params",
    "save_params",
]


@dataclass(frozen=True)
class TimeGrid:
    """Action times t_0 .. t_N with spacing ``step_seconds``; T = t_{N+1}."""

    n_steps: int  # number of action times, N + 1
    step_seconds: float = 1.0
    session_start_ns: int = 0

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        if self.step_seconds <= 0:
            raise ValueError("step_seconds must be > 0")

    def action_times_ns(self) -> np.ndarray:
        """The action times t_k = session_start_ns + round(k * step_seconds
        * 1e9) for k = 0 .. n_steps (the session end T) as one int64 array;
        np.rint rounds half to even, as round does."""
        k = np.arange(self.n_steps + 1)
        return self.session_start_ns + np.rint(
            k * self.step_seconds * 1e9).astype(np.int64)


@dataclass(frozen=True)
class SideMoments:
    """Conditional demand moments for one side (given an arrival there)."""

    mu_c: float
    mu_c2: float
    mu_cp: float
    mu_c2p: float
    mu_c2p2: float
    mu_p: float | None = None
    mu_p2: float | None = None


@dataclass(frozen=True)
class DemandMoments:
    plus: SideMoments
    minus: SideMoments


@dataclass(frozen=True)
class ArrivalSchedule:
    """Per-interval arrival probabilities; entry k covers [t_k, t_{k+1})."""

    pi_plus: np.ndarray
    pi_minus: np.ndarray
    pi_joint: np.ndarray

    def __post_init__(self):
        for name in ("pi_plus", "pi_minus", "pi_joint"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
        if not (len(self.pi_plus) == len(self.pi_minus) == len(self.pi_joint)):
            raise ValueError("arrival arrays must have equal length")

    def __len__(self) -> int:
        return len(self.pi_plus)

    @classmethod
    def constant(cls, pi_plus: float, pi_minus: float, pi_joint: float,
                 n_steps: int) -> "ArrivalSchedule":
        return cls(
            pi_plus=np.full(n_steps, pi_plus),
            pi_minus=np.full(n_steps, pi_minus),
            pi_joint=np.full(n_steps, pi_joint),
        )


@dataclass(frozen=True)
class MarketParams:
    grid: TimeGrid
    arrivals: ArrivalSchedule
    moments: DemandMoments
    lam: float = 0.0005
    tick_size: float = 1.0


def _check_side(rep: list[str], side: SideMoments, label: str) -> None:
    for name in ("mu_c", "mu_c2", "mu_cp", "mu_c2p", "mu_c2p2"):
        v = getattr(side, name)
        if not 0 < v < math.inf:
            rep.append(f"{label}.{name} must be finite and strictly positive "
                    f"(got {v})")
    if side.mu_c2 < side.mu_c ** 2:
        rep.append(f"{label}.mu_c2 < mu_c squared ({side.mu_c2} < {side.mu_c ** 2})")
    if side.mu_p is not None:
        if not 0 < side.mu_p < math.inf:
            rep.append(f"{label}.mu_p must be finite and strictly positive "
                    f"(got {side.mu_p})")
        if side.mu_p2 is not None:
            if not math.isfinite(side.mu_p2):
                rep.append(f"{label}.mu_p2 must be finite (got {side.mu_p2})")
            elif side.mu_p2 < side.mu_p ** 2:
                rep.append(f"{label}.mu_p2 < mu_p squared")


def joint_bounds(pi_plus, pi_minus):
    """The Frechet bounds of the joint arrival probability, max(pi_plus +
    pi_minus - 1, 0) and min(pi_plus, pi_minus), elementwise. A NaN pi_plus
    makes both NaN; a NaN pi_minus, only the lower one."""
    lo = pi_plus + pi_minus - 1.0
    return (np.where(0.0 > lo, 0.0, lo),
            np.where(pi_minus < pi_plus, pi_minus, pi_plus))


def arrival_indicators(pp, pm, pj, u):
    """Map uniforms to the joint arrival indicators of one step, whose
    probabilities pp, pm and pj are floats: both sides below pi_joint, buy
    only up to pi_plus, sell only for the next pi_minus - pi_joint.

    The buy side is one compare, against pi_plus where pi_joint < pi_plus
    and against pi_joint otherwise: so a NaN pi_plus leaves u < pi_joint
    and a NaN pi_joint no buy, as the two intervals give."""
    ind_p = u < (pp if pj < pp else pj)
    ind_m = (u < pj) | ((u >= pp) & (u < pp + pm - pj))
    return ind_p, ind_m


def penalized_wealth(W, S, I, lam):
    """The terminal objective W + S*I - lam*I^2: wealth with the inventory
    marked at S, less the quadratic inventory penalty."""
    return W + S * I - lam * I ** 2


def validate_params(p: MarketParams) -> list[str]:
    """Every violated invariant as a message, a non-finite real field
    included; empty when ``p`` is valid. Diagnostic only, never raises."""
    rep = []
    n = p.grid.n_steps
    if len(p.arrivals) != n:
        rep.append(f"arrival arrays have length {len(p.arrivals)}, grid expects {n}")
    pp, pm, pj = p.arrivals.pi_plus, p.arrivals.pi_minus, p.arrivals.pi_joint
    # messages are built only for the steps that break a rule
    lo, hi = joint_bounds(pp, pm)
    bad_p = ~((0 < pp) & (pp <= 1))
    bad_m = ~((0 < pm) & (pm <= 1))
    # a NaN joint compares false with both bounds, so it gets its own rule
    nan_j = np.isnan(pj)
    below, above = pj < lo, pj > hi
    for k in np.flatnonzero(bad_p | bad_m | nan_j | below | above).tolist():
        if bad_p[k]:
            rep.append(f"pi_plus[{k}] not in (0,1]: {pp[k]}")
        if bad_m[k]:
            rep.append(f"pi_minus[{k}] not in (0,1]: {pm[k]}")
        if nan_j[k]:
            rep.append(f"pi_joint[{k}] is not a number: {pj[k]}")
        if below[k]:
            rep.append(f"pi_joint[{k}] below Frechet lower bound ({pj[k]} < {lo[k]})")
        if above[k]:
            rep.append(f"pi_joint[{k}] exceeds min marginal ({pj[k]} > {hi[k]})")
    _check_side(rep, p.moments.plus, "plus")
    _check_side(rep, p.moments.minus, "minus")
    if not 0 <= p.lam < math.inf:
        rep.append(f"lambda must be finite and >= 0 (got {p.lam})")
    if not 0 < p.tick_size < math.inf:
        rep.append(f"tick_size must be finite and > 0 (got {p.tick_size})")
    if not p.grid.step_seconds < math.inf:
        rep.append(f"step_seconds must be finite (got {p.grid.step_seconds})")
    return rep


# ---------------------------------------------------------------------------
# Parameter file (YAML). Arrival arrays may be dense lists or quadratic
# coefficients {a0, a1, a2} expanded on the step index at load time. With
# libyaml, files are parsed and emitted in C, several times faster, through
# the same safe constructor and representer.
#
# PyYAML still builds one Python event per scalar, so the dense arrays, one
# entry per step, go around it: save_params writes them with PyYAML's float
# rule, and load_params cuts the blocks in exactly that layout out of the text
# and converts them with numpy. Every other layout is parsed by YAML whole.
# ---------------------------------------------------------------------------
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
_DUMPER = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper

_ARRIVAL_KEYS = ("pi_plus", "pi_minus", "pi_joint")
# The arrivals section as save_params writes it, up to the next top-level
# key; each block must then hold only "  - <float>" lines. Both patterns
# repeat single characters or single lines, so the regex engine keeps no
# backtracking state per line (a 19,800-line repeated group keeps ~8 MB).
_ARRIVAL_BLOCKS = re.compile(
    "^arrivals:\n"
    + "".join(rf"  {key}:\n([-+.0-9e \n]+)" for key in _ARRIVAL_KEYS)
    + r"(?=[^\s#-]|\Z)", re.M)
_NOT_AN_ITEM = re.compile(r"^(?!  - -?[0-9]+\.[0-9]+(?:e[-+][0-9]+)?\n|\Z)",
                          re.M)
_ARRIVAL_STUB = {key: [] for key in _ARRIVAL_KEYS}


def _expand_array(spec, n: int) -> np.ndarray:
    if isinstance(spec, dict):
        k = np.arange(n, dtype=float)
        return spec.get("a0", 0.0) + spec.get("a1", 0.0) * k + spec.get("a2", 0.0) * k * k
    if np.isscalar(spec):
        return np.full(n, float(spec))
    arr = np.asarray(spec, dtype=float)
    if len(arr) != n:
        raise ValueError(f"dense array length {len(arr)} != n_steps {n}")
    return arr


def _side_from_dict(d: dict) -> SideMoments:
    return SideMoments(
        mu_c=float(d["mu_c"]),
        mu_c2=float(d["mu_c2"]),
        mu_cp=float(d["mu_cp"]),
        mu_c2p=float(d["mu_c2p"]),
        mu_c2p2=float(d["mu_c2p2"]),
        mu_p=float(d["mu_p"]) if "mu_p" in d else None,
        mu_p2=float(d["mu_p2"]) if "mu_p2" in d else None,
    )


def params_from_dict(doc: dict) -> MarketParams:
    g = doc["grid"]
    grid = TimeGrid(
        n_steps=int(g["n_steps"]),
        step_seconds=float(g.get("step_seconds", 1.0)),
        session_start_ns=int(g.get("session_start_ns", 0)),
    )
    a = doc["arrivals"]
    arrivals = ArrivalSchedule(
        pi_plus=_expand_array(a["pi_plus"], grid.n_steps),
        pi_minus=_expand_array(a["pi_minus"], grid.n_steps),
        pi_joint=_expand_array(a["pi_joint"], grid.n_steps),
    )
    m = doc["moments"]
    moments = DemandMoments(plus=_side_from_dict(m["plus"]),
                            minus=_side_from_dict(m["minus"]))
    return MarketParams(
        grid=grid,
        arrivals=arrivals,
        moments=moments,
        lam=float(doc.get("lambda", 0.0005)),
        tick_size=float(doc.get("tick_size", 1.0)),
    )


def params_to_dict(p: MarketParams) -> dict:
    def side(s: SideMoments) -> dict:
        # coerce numpy scalars so the document stays plain-YAML friendly
        return {k: float(v) for k, v in dataclasses.asdict(s).items()
                if v is not None}

    return {
        "grid": {
            "n_steps": int(p.grid.n_steps),
            "step_seconds": float(p.grid.step_seconds),
            "session_start_ns": int(p.grid.session_start_ns),
        },
        "arrivals": {key: getattr(p.arrivals, key).tolist()
                     for key in _ARRIVAL_KEYS},
        "moments": {"plus": side(p.moments.plus), "minus": side(p.moments.minus)},
        "lambda": float(p.lam),
        "tick_size": float(p.tick_size),
    }


def _parse_params_text(text: str):
    """The document yaml.load makes of ``text``, except that arrival arrays
    in save_params' layout come back as float arrays."""
    m = _ARRIVAL_BLOCKS.search(text)
    if m and not any(_NOT_AN_ITEM.search(block) for block in m.groups()):
        rest = (text[:m.start()] + f"arrivals: {_ARRIVAL_STUB}\n"
                + text[m.end():])
        try:
            doc = yaml.load(rest, Loader=_LOADER)
        except yaml.YAMLError:
            doc = None
        if isinstance(doc, dict) and doc.get("arrivals") == _ARRIVAL_STUB:
            doc["arrivals"] = {key: np.array(m.group(i).split()[1::2], float)
                               for i, key in enumerate(_ARRIVAL_KEYS, 1)}
            return doc
    return yaml.load(text, Loader=_LOADER)


def load_params(path) -> MarketParams:
    """Read a parameter file; ValueError names the file and what is wrong."""
    try:
        with open(path) as fh:
            doc = _parse_params_text(fh.read())
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: not a readable YAML file: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: parameter file is not a mapping")
    for section in ("grid", "arrivals", "moments"):
        if not isinstance(doc.get(section), dict):
            raise ValueError(f"{path}: section {section!r} is missing or "
                             "not a mapping")
    try:
        return params_from_dict(doc)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_params(p: MarketParams, path) -> None:
    """Write ``yaml.dump``'s bytes; finite arrival arrays are formatted here,
    with the float rule of PyYAML's representer, and spliced in."""
    doc = params_to_dict(p)
    arrays = [getattr(p.arrivals, key) for key in _ARRIVAL_KEYS]
    if not all(len(a) and np.isfinite(a).all() for a in arrays):
        with open(path, "w") as fh:
            yaml.dump(doc, fh, Dumper=_DUMPER, sort_keys=False)
        return
    blocks = "".join(f"  {key}:\n  - " + "\n  - ".join(map(repr, values))
                     + "\n" for key, values in doc["arrivals"].items())
    # repr(1e+17) has no '.', which YAML's float needs: 1.0e+17
    blocks = re.sub(r"^(  - -?[0-9]+)e", r"\1.0e", blocks, flags=re.M)
    doc["arrivals"] = {}
    text = yaml.dump(doc, Dumper=_DUMPER, sort_keys=False)
    with open(path, "w") as fh:
        fh.write(text.replace("\narrivals: {}\n", "\narrivals:\n" + blocks, 1))
