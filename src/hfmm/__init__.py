"""Discrete-time market-making engine.

Submodules: ``model`` (parameter containers and validation), ``solver``
(backward-induction policy coefficients and closed forms), ``simulator``
(Monte-Carlo market and policy evaluation), ``lob`` (event ingestion, book
reconstruction, fill measurement), ``estimation`` (rolling calibration),
``backtest`` (quoting policies, day replay, reports), ``synthetic``
(ground-truth event-stream generator), ``cli`` (command-line entry point).
"""

from .model import (ArrivalSchedule, DemandMoments, MarketParams, SideMoments,
                    TimeGrid, load_params, save_params, symmetric_params,
                    validate_params)
from .solver import (CoefficientTable, ForecastVector, MarketState,
                     backward_pass, closed_form_spread_symmetric,
                     forecast_shift, inventory_threshold,
                     nonmartingale_value_adjustments, optimal_spreads,
                     quote_prices, value_function)

__version__ = "0.1.0"

__all__ = [
    "ArrivalSchedule", "DemandMoments", "MarketParams", "SideMoments",
    "TimeGrid", "load_params", "save_params", "symmetric_params",
    "validate_params",
    "CoefficientTable", "ForecastVector", "MarketState", "backward_pass",
    "closed_form_spread_symmetric", "forecast_shift", "inventory_threshold",
    "nonmartingale_value_adjustments", "optimal_spreads", "quote_prices",
    "value_function",
    "__version__",
]
