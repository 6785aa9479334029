"""Direct and indirect influence analysis on bilateral trade networks.

Build a trade network from country aggregates and bilateral flows, weight
its edges by trade share or offer share, propagate influence along trade
chains with one of four operators (PWP, MICMAC, PageRank, Heat Kernel),
and rank countries by dependence, influence, or connectedness.
"""

from . import analytics, engine, ingestion, model, weights
from .analytics import *
from .engine import *
from .errors import TradeNetError
from .ingestion import *
from .model import *
from .weights import *

__version__ = "0.1.0"

__all__ = ["TradeNetError"]
__all__ += analytics.__all__
__all__ += engine.__all__
__all__ += ingestion.__all__
__all__ += model.__all__
__all__ += weights.__all__
