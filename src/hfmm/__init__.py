"""Discrete-time market-making engine.

Submodules: ``model`` (parameter containers and validation), ``solver``
(backward-induction policy coefficients and optimal spreads), ``simulator``
(Monte-Carlo market and policy evaluation), ``lob`` (event ingestion, book
reconstruction, fill measurement), ``estimation`` (rolling calibration),
``backtest`` (quoting policies, day replay, reports), ``synthetic``
(ground-truth event-stream generator), ``cli`` (command-line entry point).
"""

from .model import (ArrivalSchedule, DemandMoments, MarketParams, SideMoments,
                    TimeGrid, load_params, save_params, validate_params)
from .solver import CoefficientTable, backward_pass, optimal_spreads

__version__ = "0.1.0"

__all__ = [
    "ArrivalSchedule", "DemandMoments", "MarketParams", "SideMoments",
    "TimeGrid", "load_params", "save_params", "validate_params",
    "CoefficientTable", "backward_pass", "optimal_spreads",
    "__version__",
]
