"""Direct and indirect influence analysis on bilateral trade networks.

Build a trade network from country aggregates and bilateral flows, weight
its edges by trade share or offer share, propagate influence along trade
chains with one of four operators (PWP, MICMAC, PageRank, Heat Kernel),
and rank countries by dependence, influence, or connectedness.
"""

from .analytics import (
    PlanePoint,
    RankingReport,
    RankingRow,
    degree_stats,
    normalized_increment,
    pair_connectedness,
    plane,
    rank,
    ranking_distance,
)
from .engine import (
    MethodSpec,
    column_normalize,
    heat_kernel,
    matrix_exponential,
    micmac,
    pagerank_limit,
    pwp,
)
from .errors import TradeNetError
from .ingestion import (
    DatasetManifest,
    load_countries,
    load_flows,
    load_network,
    save_countries,
    save_flows,
    subset,
)
from .model import (
    BilateralFlow,
    CountryRecord,
    FlowTable,
    InfluenceMatrix,
    MatrixKind,
    TradeNetwork,
    bidegree,
    build_network,
)
from .weights import WeightKind, build_direct_matrix, offer_influence, trade_influence

__version__ = "0.1.0"

__all__ = [
    "BilateralFlow",
    "CountryRecord",
    "DatasetManifest",
    "FlowTable",
    "InfluenceMatrix",
    "MatrixKind",
    "MethodSpec",
    "PlanePoint",
    "RankingReport",
    "RankingRow",
    "TradeNetError",
    "TradeNetwork",
    "WeightKind",
    "bidegree",
    "build_direct_matrix",
    "build_network",
    "column_normalize",
    "degree_stats",
    "heat_kernel",
    "load_countries",
    "load_flows",
    "load_network",
    "matrix_exponential",
    "micmac",
    "normalized_increment",
    "offer_influence",
    "pagerank_limit",
    "pair_connectedness",
    "plane",
    "pwp",
    "rank",
    "ranking_distance",
    "save_countries",
    "save_flows",
    "subset",
    "trade_influence",
]
