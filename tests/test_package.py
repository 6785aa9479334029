"""The package namespace: every module's public names, each listed once; and README's quick start."""

import re
from pathlib import Path

import pytest

import tradenet
from tradenet import analytics, engine, ingestion, model, weights

README = Path(__file__).resolve().parents[1] / "README.md"

# the names tradenet exported before they were derived from the modules
EXPORTED = {
    "BilateralFlow", "CountryRecord", "DatasetManifest", "FlowTable", "InfluenceMatrix",
    "MatrixKind", "MethodSpec", "PlanePoint", "RankingReport", "RankingRow", "TradeNetError",
    "TradeNetwork", "WeightKind", "build_direct_matrix", "build_network",
    "column_normalize", "heat_kernel", "load_countries", "load_flows",
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


def test_readme_quick_start_gives_the_values_it_states():
    # the one python block runs as written; a line ending in "# <number>"
    # states its value to 3 significant figures
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    exec(blocks[0], namespace)
    stated = re.findall(r"^(\S.*?)\s+# ([0-9.]+) ", blocks[0], re.M)
    assert [call for call, _ in stated] == [
        'tn.trade_influence(net, "USA", "CHN")', 'tn.offer_influence(net, "CHN", "USA")'
    ]
    for call, value in stated:
        assert f"{eval(call, namespace):.3g}" == value
