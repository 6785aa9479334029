"""Rankings, dependence-influence planes, and ranking comparison.

For any influence matrix, a country's dependence is its row sum, its
influence its column sum, and its connectedness the sum of the two.  The
dependence-influence plane scatters countries at (dependence, influence)
and splits into four sectors at the mean dependence and mean influence:

1. influential independent   (influence above mean, dependence at or below)
2. influential dependent     (both above mean)
3. low-influence independent (both at or below mean)
4. low-influence dependent   (dependence above mean, influence at or below)

Points on a mean line fall on the low-influence / independent side.  A
value counts as on the line when it is ``math.isclose`` to the mean with
``rel_tol=1e-9``, so values equal to the mean in exact arithmetic (every
PageRank influence; every dependence under full-coverage trade weights) do
not split on rounding noise.  Rankings tie such values the same way: a value
that close to the next lower one ties with it, and ties go by label order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainMismatchError,
    EmptyNetworkError,
    LabelMismatchError,
    NotAPermutationError,
    ZeroDirectEntryError,
)
from .model import InfluenceMatrix

__all__ = [
    "PlanePoint",
    "RankingRow",
    "RankingReport",
    "CRITERIA",
    "plane",
    "rank",
    "pair_connectedness",
    "normalized_increment",
    "ranking_distance",
]

CRITERIA = ("dependence", "influence", "connectedness")

# a value within this relative distance of its mean lies on the mean line;
# the tolerance the weights use for flow totals
_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class PlanePoint:
    code: str
    dependence: float
    influence: float
    sector: int


@dataclass(frozen=True)
class RankingRow:
    code: str
    dependence: float
    influence: float
    connectedness: float
    rank_by_dependence: int
    rank_by_influence: int
    rank_by_connectedness: int

    def value(self, criterion: str) -> float:
        return getattr(self, criterion)

    def position(self, criterion: str) -> int:
        return getattr(self, f"rank_by_{criterion}")


@dataclass(frozen=True)
class RankingReport:
    """Per-country bi-degree values and rank positions for one matrix.

    ``rows`` are sorted by the requested criterion (rank 1 first); each row
    also carries its position under the other two criteria.
    """

    matrix_kind: str
    criterion: str
    rows: tuple[RankingRow, ...]

    def positions(self) -> dict[str, int]:
        """Country code -> rank position map, usable with ranking_distance."""
        return {row.code: row.position(self.criterion) for row in self.rows}


def _degrees(m: InfluenceMatrix) -> tuple[np.ndarray, np.ndarray]:
    if m.n == 0:
        raise EmptyNetworkError("matrix has no countries")
    return m.values.sum(axis=1), m.values.sum(axis=0)


def _above(values: np.ndarray, mean) -> np.ndarray:
    # above the mean (a float, or one per value) and not math.isclose to it
    # with rel_tol=_TIE_RTOL
    return values - mean > _TIE_RTOL * np.maximum(np.abs(values), np.abs(mean))


def plane(m: InfluenceMatrix) -> list[PlanePoint]:
    """Locate every country on the dependence-influence plane.

    Returns points in label order, each tagged with its sector (1-4).
    """
    dep, inf = _degrees(m)
    dependent = _above(dep, float(dep.mean()))
    sectors = np.where(_above(inf, float(inf.mean())), 1 + dependent, 3 + dependent)
    return [
        PlanePoint(code, float(d), float(f), int(sector))
        for code, d, f, sector in zip(m.labels, dep, inf, sectors)
    ]


def _positions(values: np.ndarray) -> list[int]:
    # descending by value; a value not _above its successor ties with it, and
    # ties are broken by label position, which is name-alphabetical for
    # matrices built from a network
    order = np.argsort(-values, kind="stable")
    ordered = values[order]
    tie = np.concatenate(([0], np.cumsum(_above(ordered[:-1], ordered[1:]))))
    ranks = np.empty(len(values), dtype=np.intp)
    ranks[order[np.lexsort((order, tie))]] = np.arange(1, len(values) + 1)
    return ranks.tolist()


def rank(m: InfluenceMatrix, criterion: str = "influence") -> RankingReport:
    """Rank countries by dependence, influence, or connectedness."""
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
    dep, inf = _degrees(m)
    con = dep + inf
    by = {"dependence": dep, "influence": inf, "connectedness": con}
    positions = {name: _positions(values) for name, values in by.items()}
    rows = [
        RankingRow(
            code=code,
            dependence=float(dep[i]),
            influence=float(inf[i]),
            connectedness=float(con[i]),
            rank_by_dependence=positions["dependence"][i],
            rank_by_influence=positions["influence"][i],
            rank_by_connectedness=positions["connectedness"][i],
        )
        for i, code in enumerate(m.labels)
    ]
    rows.sort(key=lambda row: row.position(criterion))
    return RankingReport(matrix_kind=str(m.kind), criterion=criterion, rows=tuple(rows))


def pair_connectedness(m: InfluenceMatrix, a: str, b: str) -> float:
    """Mutual influence of a pair: entry [a, b] plus entry [b, a]."""
    return m.entry(a, b) + m.entry(b, a)


def normalized_increment(
    direct: InfluenceMatrix, indirect: InfluenceMatrix, a: str, b: str
) -> float:
    """Relative gain of indirect over direct influence of ``b`` on ``a``.

    Both matrices are first normalized by their grand sum of entries so
    they compare as distributions; the result is a fraction (0.66 means
    the indirect share is 66% above the direct one).

    Raises
    ------
    LabelMismatchError
        If the matrices do not share the same ordered labels.
    ZeroDirectEntryError
        If the normalized direct entry is zero (increment undefined).
    """
    if direct.labels != indirect.labels:
        raise LabelMismatchError(
            f"labels differ: {direct.labels} vs {indirect.labels}"
        )
    direct_total = float(direct.values.sum())
    indirect_total = float(indirect.values.sum())
    if direct_total == 0 or direct.entry(a, b) == 0:
        raise ZeroDirectEntryError(f"direct influence of {b} on {a} is zero")
    if indirect_total == 0:
        raise ValueError("indirect matrix sums to zero; normalization undefined")
    direct_share = direct.entry(a, b) / direct_total
    indirect_share = indirect.entry(a, b) / indirect_total
    return (indirect_share - direct_share) / direct_share


def ranking_distance(r: dict[str, int], l: dict[str, int]) -> float:
    """Normalized Euclidean distance between two complete rankings.

    ``r`` and ``l`` map every country to a rank position; each must be a
    permutation of 1..n over the same country set.  The distance is

        sqrt(sum (r(A) - l(A))^2) / ((n - 1) * sqrt(n))

    and equals 0 exactly when the rankings agree; the n=2 swap has
    distance 1.
    """
    if set(r) != set(l):
        only_r = sorted(set(r) - set(l))
        only_l = sorted(set(l) - set(r))
        raise DomainMismatchError(
            f"rankings cover different countries (only in first: {only_r}, "
            f"only in second: {only_l})"
        )
    n = len(r)
    if n < 2:
        raise ValueError("ranking distance needs at least two countries")
    expected = set(range(1, n + 1))
    for name, ranking in (("first", r), ("second", l)):
        if {int(v) for v in ranking.values()} != expected or any(
            int(v) != v for v in ranking.values()
        ):
            raise NotAPermutationError(f"{name} ranking is not a permutation of 1..{n}")
    total = sum((r[code] - l[code]) ** 2 for code in r)
    return math.sqrt(total) / ((n - 1) * math.sqrt(n))
