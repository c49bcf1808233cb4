"""Market model parameters: time grid, arrival probabilities, demand moments.

Every other module consumes these types. All containers are frozen
dataclasses and safe to share across threads after construction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np
import yaml

__all__ = [
    "TimeGrid",
    "SideMoments",
    "DemandMoments",
    "ArrivalSchedule",
    "MarketParams",
    "ValidationReport",
    "validate_params",
    "symmetric_params",
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

    @property
    def last_index(self) -> int:
        """N, the index of the last action time."""
        return self.n_steps - 1

    def action_time_ns(self, k: int) -> int:
        return self.session_start_ns + int(round(k * self.step_seconds * 1e9))


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

    def side(self, delta: int) -> SideMoments:
        return self.plus if delta > 0 else self.minus


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


@dataclass
class ValidationReport:
    violations: list[str] = field(default_factory=list)

    def add(self, msg: str) -> None:
        self.violations.append(msg)

    @property
    def valid(self) -> bool:
        return not self.violations

    def __iter__(self):
        return iter(self.violations)

    def __len__(self):
        return len(self.violations)


def _check_side(rep: ValidationReport, side: SideMoments, label: str) -> None:
    for name in ("mu_c", "mu_c2", "mu_cp", "mu_c2p", "mu_c2p2"):
        v = getattr(side, name)
        if not v > 0:
            rep.add(f"{label}.{name} must be strictly positive (got {v})")
    if side.mu_c2 < side.mu_c ** 2:
        rep.add(f"{label}.mu_c2 < mu_c squared ({side.mu_c2} < {side.mu_c ** 2})")
    if side.mu_p is not None:
        if not side.mu_p > 0:
            rep.add(f"{label}.mu_p must be strictly positive")
        if side.mu_p2 is not None and side.mu_p2 < side.mu_p ** 2:
            rep.add(f"{label}.mu_p2 < mu_p squared")


def validate_params(p: MarketParams) -> ValidationReport:
    """Collect every violated invariant. Diagnostic only, never raises."""
    rep = ValidationReport()
    n = p.grid.n_steps
    if len(p.arrivals) != n:
        rep.add(f"arrival arrays have length {len(p.arrivals)}, grid expects {n}")
    pp, pm, pj = p.arrivals.pi_plus, p.arrivals.pi_minus, p.arrivals.pi_joint
    for k in range(len(p.arrivals)):
        if not 0 < pp[k] <= 1:
            rep.add(f"pi_plus[{k}] not in (0,1]: {pp[k]}")
        if not 0 < pm[k] <= 1:
            rep.add(f"pi_minus[{k}] not in (0,1]: {pm[k]}")
        lo = max(pp[k] + pm[k] - 1.0, 0.0)
        hi = min(pp[k], pm[k])
        if pj[k] < lo:
            rep.add(f"pi_joint[{k}] below Frechet lower bound ({pj[k]} < {lo})")
        if pj[k] > hi:
            rep.add(f"pi_joint[{k}] exceeds min marginal ({pj[k]} > {hi})")
    _check_side(rep, p.moments.plus, "plus")
    _check_side(rep, p.moments.minus, "minus")
    if p.lam < 0:
        rep.add(f"lambda must be >= 0 (got {p.lam})")
    if not p.tick_size > 0:
        rep.add(f"tick_size must be > 0 (got {p.tick_size})")
    return rep


def symmetric_params(mu_c: float, mu_p: float, pi: float, pi_joint: float,
                     lam: float, n_steps: int, *, step_seconds: float = 1.0,
                     tick_size: float = 1.0) -> MarketParams:
    """Symmetric zero-variance configuration: mu_c2 = mu_c^2, c and p independent.

    Identical moments on both sides and constant arrival probabilities;
    the standard setup for comparative statics and closed-form checks.
    """
    if mu_c <= 0 or mu_p <= 0:
        raise ValueError("mu_c and mu_p must be positive")
    if not 0 < pi <= 1:
        raise ValueError("pi must be in (0,1]")
    lo = max(2 * pi - 1.0, 0.0)
    if not lo <= pi_joint <= pi:
        raise ValueError(f"pi_joint={pi_joint} violates Frechet bounds for pi={pi}")
    if lam < 0:
        raise ValueError("lambda must be >= 0")
    side = SideMoments(
        mu_c=mu_c,
        mu_c2=mu_c ** 2,
        mu_cp=mu_c * mu_p,
        mu_c2p=mu_c ** 2 * mu_p,
        mu_c2p2=mu_c ** 2 * mu_p ** 2,
        mu_p=mu_p,
        mu_p2=mu_p ** 2,
    )
    return MarketParams(
        grid=TimeGrid(n_steps=n_steps, step_seconds=step_seconds),
        arrivals=ArrivalSchedule.constant(pi, pi, pi_joint, n_steps),
        moments=DemandMoments(plus=side, minus=side),
        lam=lam,
        tick_size=tick_size,
    )


# ---------------------------------------------------------------------------
# Parameter file (YAML). Arrival arrays may be dense lists or quadratic
# coefficients {a0, a1, a2} expanded on the step index at load time. With
# libyaml, files are parsed and emitted in C, several times faster, through
# the same safe constructor and representer.
# ---------------------------------------------------------------------------
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
_DUMPER = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper


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
        "arrivals": {
            "pi_plus": [float(x) for x in p.arrivals.pi_plus],
            "pi_minus": [float(x) for x in p.arrivals.pi_minus],
            "pi_joint": [float(x) for x in p.arrivals.pi_joint],
        },
        "moments": {"plus": side(p.moments.plus), "minus": side(p.moments.minus)},
        "lambda": float(p.lam),
        "tick_size": float(p.tick_size),
    }


def load_params(path) -> MarketParams:
    with open(path) as fh:
        doc = yaml.load(fh, Loader=_LOADER)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: parameter file is not a mapping")
    for section in ("grid", "arrivals", "moments"):
        if not isinstance(doc.get(section), dict):
            raise ValueError(f"{path}: section {section!r} is missing or "
                             "not a mapping")
    return params_from_dict(doc)


def save_params(p: MarketParams, path) -> None:
    with open(path, "w") as fh:
        yaml.dump(params_to_dict(p), fh, Dumper=_DUMPER, sort_keys=False)
