"""The package namespace: every module's public names, each listed once."""

import pytest

import tradenet
from tradenet import analytics, engine, ingestion, model, weights

# the names tradenet exported before they were derived from the modules
EXPORTED = {
    "BilateralFlow", "CountryRecord", "DatasetManifest", "FlowTable", "InfluenceMatrix",
    "MatrixKind", "MethodSpec", "PlanePoint", "RankingReport", "RankingRow", "TradeNetError",
    "TradeNetwork", "WeightKind", "bidegree", "build_direct_matrix", "build_network",
    "column_normalize", "degree_stats", "heat_kernel", "load_countries", "load_flows",
    "load_network", "matrix_exponential", "micmac", "normalized_increment", "offer_influence",
    "pagerank_limit", "pair_connectedness", "plane", "pwp", "rank", "ranking_distance",
    "save_countries", "save_flows", "subset", "trade_influence",
}


@pytest.mark.parametrize("module", [analytics, engine, ingestion, model, weights])
def test_every_module_name_is_the_package_name(module):
    for name in module.__all__:
        assert name in tradenet.__all__
        assert getattr(tradenet, name) is getattr(module, name)


def test_no_name_is_listed_twice():
    assert len(tradenet.__all__) == len(set(tradenet.__all__))


def test_earlier_exports_remain():
    assert EXPORTED <= set(tradenet.__all__)
    namespace: dict = {}
    exec("from tradenet import *", namespace)
    assert EXPORTED <= set(namespace)
