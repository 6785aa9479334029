"""Immutable data model for countries, bilateral flows, and trade networks.

A trade network is a directed graph whose vertices are countries and whose
edges carry trade between them.  A :class:`TradeNetwork` checks what it is
made from and keeps its countries in alphabetical order by display name,
which fixes the index map used by every matrix in the package; its flow rows
follow that order too.  Flows are held as columns in a :class:`FlowTable`; a
:class:`BilateralFlow` is one row of it as a record.

Every record check is written once here: a :class:`FlowTable` checks its
shape when made; over arrays of rows, :func:`repeated` finds duplicate keys,
:func:`first_fault` picks the first failing row, then its first failing
check, for the country, flow and unknown-code checks of :class:`TradeNetwork`,
and :func:`flow_fault` words the error of a table's first faulty row, for
:class:`TradeNetwork` and ingestion alike; ingestion only adds ``path:line:``.

All types are frozen after construction and safe to share across threads.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DuplicateCountryError,
    DuplicateFlowError,
    NegativeAmountError,
    SelfFlowError,
    UnknownCountryError,
)

__all__ = [
    "CountryRecord",
    "BilateralFlow",
    "FlowTable",
    "TradeNetwork",
    "MatrixKind",
    "InfluenceMatrix",
    "build_network",
]

_CODE_RE = re.compile(r"[A-Z0-9]{2,3}")

CLOSE_RTOL = 1e-9  # loose enough to ignore float rounding, tight enough to flag real data gaps


def not_close(a, b) -> np.ndarray:
    """``not math.isclose(a, b, rel_tol=CLOSE_RTOL)``, elementwise over arrays."""
    return np.abs(a - b) > CLOSE_RTOL * np.maximum(np.abs(a), np.abs(b))


def first_fault(*masks: np.ndarray) -> tuple[int, int] | None:
    """``(row, check)`` of the first True entry, or ``None`` if there is none.

    Each mask flags the rows failing one check.  Rows are scanned in order
    and, within a row, the masks in argument order.
    """
    found = ((int(mask.argmax()), check) for check, mask in enumerate(masks) if mask.any())
    return min(found, default=None)


def repeated(keys: np.ndarray) -> np.ndarray:
    """True for each row whose key already appeared on an earlier row.

    Strings go in an ``object`` array, so they compare as Python strings.
    """
    mask = np.ones(len(keys), dtype=bool)
    mask[np.unique(keys, return_index=True)[1]] = False
    return mask


def check_finite(values: np.ndarray, labels=None) -> None:
    """Refuse a nan or an infinity in a 2-D array, naming the first by ``labels``, or by index without them.

    While every entry is finite this costs two reductions and makes no
    n x n mask; a nan fails both.
    """
    if values.size and not (values.min() > -math.inf and values.max() < math.inf):
        i, j = np.argwhere(~np.isfinite(values))[0]
        row, column = (labels[i], labels[j]) if labels is not None else (i, j)
        raise ValueError(f"entry at row {row}, column {column} is {values[i, j]}, not finite")


def checked_amount(value, subject: str) -> float:
    """``value`` as a float, or the error naming ``subject`` and the value as given.

    Negative amounts raise :class:`NegativeAmountError`; values that are not
    numbers or not finite raise ``ValueError``.
    """
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{subject} is not a number: {value!r}") from None
    if not 0 <= number < math.inf:
        if not math.isfinite(number):
            raise ValueError(f"{subject} is not finite: {value!r}")
        raise NegativeAmountError(f"{subject} is negative: {value}")
    return number


@dataclass(frozen=True)
class CountryRecord:
    """One country's aggregates, in thousands of US dollars.

    ``total_exports`` and ``total_imports`` are the country's declared
    world totals, not sums of its bilateral flow records; real datasets
    routinely disagree between the two.
    """

    code: str
    name: str
    gdp: float
    total_exports: float
    total_imports: float

    def __post_init__(self) -> None:
        for attr in ("gdp", "total_exports", "total_imports"):
            value = checked_amount(getattr(self, attr), f"{attr} of {self.code}")
            object.__setattr__(self, attr, value)
        if not _CODE_RE.fullmatch(self.code):
            raise ValueError(f"country code must be 2-3 uppercase chars, got {self.code!r}")
        object.__setattr__(self, "name", self.name.strip())  # as a countries file reads it back
        if not self.name:
            raise ValueError(f"country {self.code} has an empty name")

    @property
    def total_trade(self) -> float:
        """Declared exports plus imports."""
        return self.total_exports + self.total_imports

    @property
    def offer(self) -> float:
        """GDP plus declared imports: the pool of goods traded in the country."""
        return self.gdp + self.total_imports


@dataclass(frozen=True)
class BilateralFlow:
    """Trade between an ordered country pair, per the reporter's own books.

    ``exports`` and ``imports`` are what the reporter records as its exports
    to and imports from the partner.  Mirror records (the partner's view of
    the same trade) are separate flows and are never reconciled.  A record of
    no trade either way is valid; :class:`TradeNetwork` drops it.
    """

    reporter: str
    partner: str
    exports: float
    imports: float

    def __post_init__(self) -> None:
        owner = f"flow ({self.reporter}, {self.partner})"
        if self.reporter == self.partner:
            raise SelfFlowError(f"{owner} is a self-flow")
        for attr in ("exports", "imports"):
            value = checked_amount(getattr(self, attr), f"{attr} of {owner}")
            object.__setattr__(self, attr, value)

    @property
    def total(self) -> float:
        return self.exports + self.imports


@dataclass(frozen=True, eq=False)
class FlowTable:
    """Bilateral flow records as read-only columns, one row per ordered pair.

    ``reporter[i]`` and ``partner[i]`` index into ``codes``; ``exports[i]``
    and ``imports[i]`` are the reporter's amounts.  A table refuses, when made,
    columns not all 1-D of one length or a code listed twice (``ValueError``),
    and an index outside ``codes`` (:class:`UnknownCountryError`).  Iterating
    yields each row as a checked :class:`BilateralFlow`, built on demand: every
    row of a table :func:`flow_fault` passes, zero-trade rows included.
    """

    codes: tuple[str, ...]
    reporter: np.ndarray
    partner: np.ndarray
    exports: np.ndarray
    imports: np.ndarray

    # column name -> dtype, in field order (not annotated, so not a field)
    _DTYPES = {"reporter": np.intp, "partner": np.intp, "exports": float, "imports": float}

    def __post_init__(self) -> None:
        object.__setattr__(self, "codes", tuple(self.codes))
        for name, dtype in self._DTYPES.items():
            column = np.asarray(getattr(self, name), dtype=dtype).view()
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        shapes = [getattr(self, name).shape for name in self._DTYPES]
        if len(shapes[0]) != 1 or len(set(shapes)) > 1:
            raise ValueError(f"flow table columns must be 1-D and of one length, got shapes {shapes}")
        if len(set(self.codes)) < len(self.codes):
            twice = self.codes[int(repeated(np.array(self.codes, dtype=object)).argmax())]
            raise ValueError(f"flow table lists code {twice!r} twice")
        k, r, p = len(self.codes), self.reporter, self.partner
        if len(self) and not (0 <= min(r.min(), p.min()) <= max(r.max(), p.max()) < k):
            row = int(((np.minimum(r, p) < 0) | (np.maximum(r, p) >= k)).argmax())
            raise UnknownCountryError(
                f"flow row {row} has country indices ({r[row]}, {p[row]}) outside the table's {k} codes"
            )

    @classmethod
    def from_records(cls, flows: Iterable) -> FlowTable:
        """Columns of records with ``reporter``, ``partner``, ``exports`` and ``imports``."""
        flows = list(flows)
        vocab: dict[str, int] = {}
        reporter = [vocab.setdefault(f.reporter, len(vocab)) for f in flows]
        partner = [vocab.setdefault(f.partner, len(vocab)) for f in flows]
        exports = [f.exports for f in flows]
        imports = [f.imports for f in flows]
        return cls(tuple(vocab), reporter, partner, exports, imports)

    def __len__(self) -> int:
        return len(self.reporter)

    def __iter__(self):
        codes = self.codes
        for r, p, e, i in zip(*(getattr(self, name).tolist() for name in self._DTYPES)):
            yield BilateralFlow(codes[r], codes[p], e, i)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FlowTable):
            return NotImplemented
        return self.codes == other.codes and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in self._DTYPES
        )

    @property
    def totals(self) -> np.ndarray:
        """Exports plus imports, per row."""
        return self.exports + self.imports

    def take(self, rows) -> FlowTable:
        """The rows picked by a boolean mask or an index array, in that order."""
        return FlowTable(self.codes, *(getattr(self, name)[rows] for name in self._DTYPES))


def flow_fault(table: FlowTable, lines=None, texts=None) -> tuple[int, Exception] | None:
    """The first faulty row of ``table`` and its error, or ``None``.

    A row's checks run in this order: self-flow, pair already on an earlier
    row, exports, imports.  Ingestion passes what the file knows: each row's
    line number (``lines``), named for a duplicate's first row, and the
    stripped text of each amount cell that did not parse (``texts``, by
    ``(row, column)``; NaN in the table), quoted in its error.
    """
    keys = table.reporter * len(table.codes) + table.partner
    fault = first_fault(
        table.reporter == table.partner,
        repeated(keys),
        # amounts that are not finite and non-negative, NaN included
        *(~((amounts >= 0) & (amounts < np.inf)) for amounts in (table.exports, table.imports)),
    )
    if fault is None:
        return None
    row, check = fault
    pair = f"({table.codes[table.reporter[row]]}, {table.codes[table.partner[row]]})"
    if check == 0:
        return row, SelfFlowError(f"flow {pair} is a self-flow")
    if check == 1:
        first = int(np.argmax(keys == keys[row]))  # the pair's first row
        seen = "" if lines is None else f" already defined on line {lines[first]}"
        return row, DuplicateFlowError(f"duplicate flow record for pair {pair}{seen}")
    column = ("exports", "imports")[check - 2]
    amount = (texts or {}).get((row, column), float(getattr(table, column)[row]))
    try:
        checked_amount(amount, f"{column} of flow {pair}")
    except (NegativeAmountError, ValueError) as exc:
        return row, exc


@dataclass(frozen=True, eq=False)
class TradeNetwork:
    """A fixed set of countries plus their bilateral flow records.

    Made from country records and a :class:`FlowTable` or flow records, it checks
    them and keeps countries sorted by display name and flow rows by reporter,
    then partner, in that order, so the result is independent of input order.
    Flow rows recording zero trade both ways are dropped after the checks, here
    alone: the loaders and :class:`FlowTable` keep them.

    Raises
    ------
    DuplicateCountryError
        If two countries share a code or a name.
    SelfFlowError, DuplicateFlowError, NegativeAmountError, ValueError, UnknownCountryError
        For the first faulty flow row.  Every row first gets the checks of
        :func:`flow_fault`, in order: self-flow, pair already on an earlier
        row, exports, imports.  Only then is a code that names no country an error.
    """

    countries: tuple[CountryRecord, ...]
    flows: FlowTable
    _index: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        countries = tuple(self.countries)
        codes = [c.code for c in countries]
        names = [c.name for c in countries]
        fault = first_fault(
            repeated(np.array(codes, dtype=object)), repeated(np.array(names, dtype=object))
        )
        if fault is not None:
            rec = countries[fault[0]]
            if fault[1] == 0:
                raise DuplicateCountryError(f"country code {rec.code} appears twice")
            first = codes[names.index(rec.name)]
            raise DuplicateCountryError(f"country name {rec.name!r} shared by {first} and {rec.code}")

        flows = self.flows
        table = flows if isinstance(flows, FlowTable) else FlowTable.from_records(flows)
        if (fault := flow_fault(table)) is not None:
            raise fault[1]
        ordered = tuple(sorted(countries, key=lambda c: c.name))
        position = {c.code: i for i, c in enumerate(ordered)}
        lookup = np.array([position.get(code, -1) for code in table.codes], dtype=np.intp)
        reporter, partner = lookup[table.reporter], lookup[table.partner]
        if (fault := first_fault(reporter < 0, partner < 0)) is not None:
            row, check = fault
            a, b = table.codes[table.reporter[row]], table.codes[table.partner[row]]
            raise UnknownCountryError(f"flow ({a}, {b}) references unknown country {(a, b)[check]}")

        rows = np.flatnonzero((table.exports != 0) | (table.imports != 0))
        order = rows[np.argsort(reporter[rows] * len(ordered) + partner[rows])]
        columns = (reporter, partner, table.exports, table.imports)
        object.__setattr__(self, "countries", ordered)
        object.__setattr__(self, "flows", FlowTable(tuple(position), *(c[order] for c in columns)))
        object.__setattr__(self, "_index", position)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TradeNetwork):
            return NotImplemented
        return self.countries == other.countries and self.flows == other.flows

    @property
    def n(self) -> int:
        return len(self.countries)

    @property
    def codes(self) -> tuple[str, ...]:
        """Country codes in network (name-alphabetical) order."""
        return self.flows.codes

    def country(self, code: str) -> CountryRecord:
        return self.countries[self.index(code)]

    def index(self, code: str) -> int:
        try:
            return self._index[code]
        except KeyError:
            raise UnknownCountryError(f"unknown country code {code!r}") from None

    def flow(self, reporter: str, partner: str) -> BilateralFlow | None:
        """The reporter's record of trade with the partner, if any."""
        i, j = self._index.get(reporter, -1), self._index.get(partner, -1)
        # a scan of the index columns; a cached n x n table of rows would hold 8 MB at n=1000
        for row in np.flatnonzero((self.flows.reporter == i) & (self.flows.partner == j)):
            return BilateralFlow(reporter, partner, self.flows.exports[row], self.flows.imports[row])
        return None

    def reported_trade(self, reporter: str, partner: str) -> float:
        """Exports + imports between the pair, per the reporter's books; 0 if unrecorded."""
        f = self.flow(reporter, partner)
        return f.total if f is not None else 0.0


def build_network(
    countries: Iterable[CountryRecord],
    flows: FlowTable | Iterable[BilateralFlow] = (),
) -> TradeNetwork:
    """Check, order and assemble a network: ``TradeNetwork(countries, flows)``, which lists the errors."""
    return TradeNetwork(countries, flows)


@dataclass(frozen=True)
class MatrixKind:
    """Tag describing how an influence matrix was produced.

    ``family`` is one of ``direct-trade``, ``direct-offer``, ``indirect``;
    indirect matrices also carry the operator name and its parameters.
    """

    family: str
    method: str | None = None
    params: tuple[tuple[str, float], ...] = ()

    _FAMILIES = ("direct-trade", "direct-offer", "indirect")

    def __post_init__(self) -> None:
        if self.family not in self._FAMILIES:
            raise ValueError(f"unknown matrix kind {self.family!r}")
        if (self.family == "indirect") != (self.method is not None):
            raise ValueError("method must be given exactly for indirect matrices")
        object.__setattr__(self, "params", tuple(sorted(self.params)))

    @classmethod
    def direct_trade(cls) -> "MatrixKind":
        return cls("direct-trade")

    @classmethod
    def direct_offer(cls) -> "MatrixKind":
        return cls("direct-offer")

    @classmethod
    def indirect(cls, method: str, **params: float) -> "MatrixKind":
        return cls("indirect", method, tuple(params.items()))

    @property
    def is_direct(self) -> bool:
        return self.family != "indirect"

    def __str__(self) -> str:
        if self.is_direct:
            return self.family
        args = ", ".join(f"{k}={v:g}" for k, v in self.params)
        return f"indirect-{self.method}({args})"


@dataclass(frozen=True, eq=False)
class InfluenceMatrix:
    """A dense labelled influence matrix.

    ``values[a, b]`` is the influence of country ``b`` on country ``a``,
    equal to the dependence of ``a`` on ``b``.  Row sums are therefore
    dependencies and column sums influences.  Direct matrices have a zero
    diagonal (no self-trade).
    """

    labels: tuple[str, ...]
    values: np.ndarray
    kind: MatrixKind

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        values = np.array(self.values, dtype=float)
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"influence matrix must be square, got shape {values.shape}")
        if len(self.labels) != values.shape[0]:
            raise ValueError(
                f"{len(self.labels)} labels for a {values.shape[0]}x{values.shape[1]} matrix"
            )
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("matrix labels must be unique")
        check_finite(values, self.labels)
        if self.kind.is_direct and values.size and np.any(np.diagonal(values) != 0):
            raise ValueError("direct influence matrices must have a zero diagonal")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, code: str) -> int:
        try:
            return self.labels.index(code)
        except ValueError:
            raise UnknownCountryError(f"unknown country code {code!r}") from None

    def entry(self, a: str, b: str) -> float:
        """Influence of ``b`` on ``a`` (dependence of ``a`` on ``b``)."""
        return float(self.values[self.index(a), self.index(b)])
