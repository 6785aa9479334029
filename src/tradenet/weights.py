"""Direct-influence matrices built from bilateral trade data.

Two weightings are supported.  The trade share of partner B in country A's
international trade is

    (E(B,A) + I(B,A)) / (E(A) + I(A))

where the numerator is A's recorded exports-plus-imports with B and the
denominator A's declared world totals.  The offer share replaces the
denominator with A's total offer, GDP(A) + I(A), so it also weighs B
against A's domestic trade.

Rows always divide by the country's *declared* totals.  When a country's
flow records do not add up to those totals (common in real data, where not
every partner is recorded) its trade-share row sums to the ratio of the two
instead of 1.  Building a trade-share matrix then emits one
:class:`~tradenet.errors.ConsistencyWarning` for the whole matrix, giving
the number of such countries and the one whose ratio lies furthest from 1.
"""

from __future__ import annotations

import enum
import math
import warnings

import numpy as np

from .errors import ConsistencyWarning, IsolatedCountryError, ZeroOfferDenominatorError
from .model import CountryRecord, InfluenceMatrix, MatrixKind, TradeNetwork, not_close

__all__ = ["WeightKind", "trade_influence", "offer_influence", "build_direct_matrix"]


class WeightKind(enum.Enum):
    """Which denominator a direct-influence matrix divides by."""

    TRADE = "trade"
    OFFER = "offer"

    @property
    def matrix_kind(self) -> MatrixKind:
        if self is WeightKind.TRADE:
            return MatrixKind.direct_trade()
        return MatrixKind.direct_offer()


def _denominator(rec: CountryRecord, kind: WeightKind) -> float:
    """What ``kind`` divides a row of ``rec``'s country by: its total trade or its offer."""
    return rec.total_trade if kind is WeightKind.TRADE else rec.offer


def _overflow(a: str, b: str, flows: float, denom: float, kind: WeightKind) -> OverflowError:
    """The refusal of a share ``flows / denom`` of ``b`` in ``a``'s row that is not finite."""
    what = "total trade" if kind is WeightKind.TRADE else "GDP + imports"
    return OverflowError(
        f"{a}'s flows with {b} ({flows:g}) over its {what} ({denom:g}) leave the floating-point range"
    )


def _influence(network: TradeNetwork, a: str, b: str, kind: WeightKind) -> float:
    """Entry ``[a, b]`` of :func:`build_direct_matrix`, raising where that matrix does and
    also for any zero denominator, whose row that matrix may leave at zero instead."""
    if a == b:
        raise ValueError(f"{kind.value} influence is undefined for a country on itself")
    rec = network.country(a)
    network.country(b)
    denom = _denominator(rec, kind)
    if denom == 0:
        if kind is WeightKind.TRADE:
            raise IsolatedCountryError(f"{a} declares no international trade")
        raise ZeroOfferDenominatorError(f"{a} has zero GDP + imports")
    flows = network.reported_trade(a, b)
    if flows / denom == math.inf:
        raise _overflow(a, b, flows, denom, kind)
    return flows / denom


def trade_influence(network: TradeNetwork, a: str, b: str) -> float:
    """Share of ``a``'s international trade that involves ``b``.

    Uses ``a``'s own reporter-side record; returns 0 when ``a`` recorded no
    trade with ``b``.

    Raises
    ------
    IsolatedCountryError
        If ``a`` declares zero total trade.
    OverflowError
        If the share is too large for a float.
    """
    return _influence(network, a, b, WeightKind.TRADE)


def offer_influence(network: TradeNetwork, a: str, b: str) -> float:
    """Share of ``a``'s total offer (GDP + imports) that involves ``b``.

    Raises
    ------
    ZeroOfferDenominatorError
        If ``a`` has GDP + imports = 0.
    OverflowError
        If the share is too large for a float.
    """
    return _influence(network, a, b, WeightKind.OFFER)


def _warn(count: int, problem: str) -> None:
    """Warn the caller of :func:`build_direct_matrix`: flows of ``count`` countries ``problem``."""
    countries = "country" if count == 1 else "countries"
    warnings.warn(f"flows of {count} {countries} {problem}", ConsistencyWarning, stacklevel=3)


def build_direct_matrix(network: TradeNetwork, kind: WeightKind) -> InfluenceMatrix:
    """Assemble the full direct-influence matrix for one weighting.

    Entry ``[a, b]`` is the influence of ``b`` on ``a`` per ``kind``'s
    formula; the diagonal is zero.  Countries with zero declared trade get
    an all-zero row rather than an error, so commercially isolated vertices
    stay representable.

    Raises
    ------
    ZeroOfferDenominatorError
        For ``kind=OFFER``, if a country has flow records but zero offer,
        naming the first such country.
    OverflowError
        If a share is too large for a float (a tiny denominator, say),
        naming the first such country, its flows and its denominator.

    Warns
    -----
    ConsistencyWarning
        For ``kind=TRADE``, once if any country's recorded flows do not sum
        to its declared totals (its row then sums to flows/declared instead
        of 1), with the count of such countries and the furthest ratio; and
        once if countries with flow records declare no totals at all, with
        their count and the first of them.
    """
    flows = network.flows
    with np.errstate(over="ignore"):  # an infinite share is refused below
        totals = flows.totals
    reported = np.bincount(flows.reporter, weights=totals, minlength=network.n)
    denoms = np.array([_denominator(rec, kind) for rec in network.countries], dtype=float)

    undivided = np.flatnonzero((denoms == 0) & (reported > 0))
    if len(undivided):
        first = network.codes[undivided[0]]
        if kind is WeightKind.OFFER:
            raise ZeroOfferDenominatorError(f"{first} has flow records but zero GDP + imports")
        _warn(len(undivided), "have no declared trade totals to divide by "
              f"(rows left at zero, ratio undefined); first: {first}")

    values = np.zeros((network.n, network.n))
    rows = denoms[flows.reporter] > 0
    reporter, partner = flows.reporter[rows], flows.partner[rows]
    with np.errstate(over="ignore"):
        shares = totals[rows] / denoms[reporter]
    infinite = np.flatnonzero(shares == np.inf)
    if len(infinite):
        i = infinite[0]
        a, b = network.codes[reporter[i]], network.codes[partner[i]]
        raise _overflow(a, b, totals[rows][i], denoms[reporter[i]], kind)
    values[reporter, partner] = shares

    if kind is WeightKind.TRADE:
        mismatched = np.flatnonzero((denoms > 0) & not_close(reported, denoms))
        if len(mismatched):
            with np.errstate(over="ignore"):  # finite shares may sum past the range: "at inf"
                ratios = reported[mismatched] / denoms[mismatched]
            furthest = int(np.argmax(np.abs(ratios - 1.0)))
            _warn(len(mismatched), "do not sum to their declared totals; furthest: "
                  f"{network.codes[mismatched[furthest]]} at {ratios[furthest]:.6g}")

    return InfluenceMatrix(network.codes, values, kind.matrix_kind)
