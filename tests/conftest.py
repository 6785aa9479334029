"""Shared fixtures: the 2011 US/China pair, the US-Spain-Cuba triangle,
and synthetic network generators."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from tradenet import (
    BilateralFlow,
    CountryRecord,
    InfluenceMatrix,
    MatrixKind,
    WeightKind,
    build_direct_matrix,
    build_network,
)
from tradenet.errors import ConsistencyWarning

# 2011 aggregates and bilateral records, thousands of USD
US = CountryRecord("USA", "United States", 14_991_300_000, 1_479_730_169, 2_262_585_634)
CHINA = CountryRecord("CHN", "China", 7_321_935_025, 1_898_388_435, 1_743_394_866)
US_CHINA_FLOWS = [
    BilateralFlow("USA", "CHN", 103_878_414, 417_302_859),
    BilateralFlow("CHN", "USA", 325_010_987, 123_124_009),
]


@pytest.fixture
def us_china_network():
    return build_network([US, CHINA], US_CHINA_FLOWS)


def direct_matrix_quietly(network, kind):
    """Build a direct matrix ignoring flow-total consistency warnings.

    Pair fixtures only record one bilateral flow, so their flows never sum
    to the countries' declared world totals.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConsistencyWarning)
        return build_direct_matrix(network, kind)


@pytest.fixture
def us_china_trade_matrix(us_china_network):
    return direct_matrix_quietly(us_china_network, WeightKind.TRADE)


# US-Spain-Cuba triangle: 2011 direct-influence percentages.  Labels are in
# name order (Cuba, Spain, United States); entry [a, b] is b's influence on a.
TRIANGLE_LABELS = ("CUB", "ESP", "USA")


def triangle_trade_matrix():
    values = np.zeros((3, 3))
    values[0, 1] = 0.068  # Spain on Cuba
    values[0, 2] = 0.03   # US on Cuba
    values[1, 2] = 0.038  # US on Spain
    return InfluenceMatrix(TRIANGLE_LABELS, values, MatrixKind.direct_trade())


def triangle_offer_matrix():
    values = np.zeros((3, 3))
    values[0, 1] = 0.012
    values[0, 2] = 0.006
    values[1, 2] = 0.013
    return InfluenceMatrix(TRIANGLE_LABELS, values, MatrixKind.direct_offer())


def drop_intermediary(matrix, code="ESP"):
    """Same matrix with every edge touching ``code`` zeroed."""
    values = np.array(matrix.values)
    i = matrix.index(code)
    values[i, :] = 0.0
    values[:, i] = 0.0
    return InfluenceMatrix(matrix.labels, values, matrix.kind)


# Synthetic US-Spain-Cuba network: flow amounts engineered so the forward
# (trade, offer) entries land on the triangle percentages above.  The US
# books record no Cuba flow at all, so the pair is one-sided.
TRIANGLE_COUNTRIES = [
    CountryRecord("CUB", "Cuba", 76_000_000, 6_000_000, 9_000_000),
    CountryRecord("ESP", "Spain", 1_550_000_000, 300_000_000, 350_000_000),
    US,
]
TRIANGLE_FLOWS = [
    BilateralFlow("CUB", "ESP", 320_000, 700_000),
    BilateralFlow("CUB", "USA", 150_000, 300_000),
    BilateralFlow("ESP", "USA", 10_700_000, 14_000_000),
    BilateralFlow("ESP", "CUB", 650_000, 350_000),
    BilateralFlow("USA", "ESP", 11_000_000, 10_000_000),
]


@pytest.fixture
def triangle_network():
    return build_network(TRIANGLE_COUNTRIES, TRIANGLE_FLOWS)


# the triangle under display names a CSV writer must quote: a comma, a quote
QUOTED_NAME_COUNTRIES = [
    replace(country, name=name)
    for country, name in zip(TRIANGLE_COUNTRIES, ("Cuba", 'Spain "ES"', "United States, The"))
]


# American-continent country list (35 codes) used for regional fixtures.
AMERICAN_COUNTRIES = [
    ("ATG", "Antigua and Barbuda"),
    ("ARG", "Argentina"),
    ("BHS", "Bahamas"),
    ("BRB", "Barbados"),
    ("BLZ", "Belize"),
    ("BOL", "Bolivia"),
    ("BRA", "Brazil"),
    ("CAN", "Canada"),
    ("CHL", "Chile"),
    ("COL", "Colombia"),
    ("CRI", "Costa Rica"),
    ("CUB", "Cuba"),
    ("DMA", "Dominica"),
    ("DOM", "Dominican Republic"),
    ("ECU", "Ecuador"),
    ("SLV", "El Salvador"),
    ("GRD", "Grenada"),
    ("GTM", "Guatemala"),
    ("GUY", "Guyana"),
    ("HTI", "Haiti"),
    ("HND", "Honduras"),
    ("JAM", "Jamaica"),
    ("MEX", "Mexico"),
    ("NIC", "Nicaragua"),
    ("PAN", "Panama"),
    ("PRY", "Paraguay"),
    ("PER", "Peru"),
    ("KNA", "Saint Kitts and Nevis"),
    ("LCA", "Saint Lucia"),
    ("VCT", "Saint Vincent and the Grenadines"),
    ("SUR", "Suriname"),
    ("TTO", "Trinidad and Tobago"),
    ("USA", "United States"),
    ("URY", "Uruguay"),
    ("VEN", "Venezuela"),
]


def synthetic_network(pairs, rng, density=0.5):
    """Random network whose declared totals equal its flow sums exactly.

    ``pairs`` is a list of (code, name).  Every trade-share row of the
    resulting matrix therefore sums to 1 (up to float accumulation), and
    GDP is drawn above total trade so offer shares stay below trade shares.
    """
    codes = [code for code, _ in pairs]
    flows = []
    exports = {code: 0.0 for code in codes}
    imports = {code: 0.0 for code in codes}
    for a in codes:
        for b in codes:
            if a == b or rng.random() > density:
                continue
            e = float(rng.uniform(1e3, 1e6))
            i = float(rng.uniform(1e3, 1e6))
            flows.append(BilateralFlow(a, b, e, i))
            exports[a] += e
            imports[a] += i
    countries = [
        CountryRecord(
            code,
            name,
            gdp=float(rng.uniform(1.0, 3.0)) * (exports[code] + imports[code]) + 1.0,
            total_exports=exports[code],
            total_imports=imports[code],
        )
        for code, name in pairs
    ]
    return build_network(countries, flows)


def generated_pairs(n):
    """Deterministic (code, name) pairs for networks of arbitrary size."""
    pairs = []
    for i in range(n):
        a, b = divmod(i, 26)
        code = f"{chr(65 + a)}{chr(65 + b)}X"
        pairs.append((code, f"Nation {code}"))
    return pairs
