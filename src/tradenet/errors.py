"""Exception and warning types raised across the package.

Every data-validation failure carries enough context (country code, flow
pair, input line number) to locate the offending record.
"""


class TradeNetError(Exception):
    """Base class for all tradenet errors."""


# --- network construction -------------------------------------------------

class DuplicateCountryError(TradeNetError):
    """Two country records share the same code or the same display name."""


class UnknownCountryError(TradeNetError):
    """A country code does not resolve to a known country."""


class SelfFlowError(TradeNetError):
    """A flow record has identical reporter and partner."""


class DuplicateFlowError(TradeNetError):
    """More than one flow record for the same ordered (reporter, partner) pair."""


class NegativeAmountError(TradeNetError):
    """A currency amount is negative."""


# --- weight matrices ------------------------------------------------------

class IsolatedCountryError(TradeNetError):
    """Trade-share weight requested for a country with zero declared trade."""


class ZeroOfferDenominatorError(TradeNetError):
    """Offer-share weight requested for a country with GDP + imports = 0."""


class ConsistencyWarning(UserWarning):
    """A country's bilateral flows do not sum to its declared trade totals."""


# --- influence operators --------------------------------------------------

class DimensionMismatchError(TradeNetError):
    """An operator's input matrix is not square."""


class ColumnStochasticityError(TradeNetError):
    """A column of a PageRank input does not sum to 0 or 1."""


class NegativeEntryError(TradeNetError):
    """An operation requiring non-negative entries received a negative one."""


# --- analytics ------------------------------------------------------------

class EmptyNetworkError(TradeNetError):
    """An operation that needs at least one country got an empty matrix."""


class ZeroDirectEntryError(TradeNetError):
    """Increment requested against a zero direct-influence entry."""


class LabelMismatchError(TradeNetError):
    """Two matrices do not share the same ordered label set."""


class DomainMismatchError(TradeNetError):
    """Two rankings do not cover the same country set."""


class NotAPermutationError(TradeNetError):
    """Ranking positions are not a permutation of 1..n."""


# --- ingestion ------------------------------------------------------------

class MissingColumnError(TradeNetError):
    """A required CSV column is absent from the header."""


class MalformedRowError(TradeNetError):
    """A CSV data row cannot be parsed; message carries the 1-based line number."""

