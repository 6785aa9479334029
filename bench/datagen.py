"""Deterministic synthetic trade datasets for the benchmark.

``generate`` writes a countries CSV and a flows CSV in the format
``tradenet.ingestion`` reads and returns a :class:`Dataset` that also holds
what the generator knows about its own data: every country's ratio of
recorded flow totals to declared trade (the trade-share row sum it chose)
and to offer (the offer-share row sum it chose), plus the raw amounts, so
the benchmark can check outputs against values it did not compute with the
package.  The same seed always gives byte-identical files.
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_ALPHABET = string.ascii_uppercase + string.digits


def country_code(i: int) -> str:
    """Three-character code for index ``i``; unique for i < 36**3."""
    if not 0 <= i < len(_ALPHABET) ** 3:
        raise ValueError(f"no three-character code for index {i}")
    a, rest = divmod(i, len(_ALPHABET) ** 2)
    b, c = divmod(rest, len(_ALPHABET))
    return _ALPHABET[a] + _ALPHABET[b] + _ALPHABET[c]


@dataclass(frozen=True)
class Dataset:
    countries_path: Path
    flows_path: Path
    codes: tuple[str, ...]      # file order; ratios and amounts follow it
    flow_rows: int              # data rows in flows.csv, zero-trade rows included
    trade_ratio: np.ndarray     # recorded flow total / declared exports+imports
    offer_ratio: np.ndarray     # recorded flow total / (gdp + declared imports)
    reporter: np.ndarray        # per kept flow row: index into codes
    partner: np.ndarray
    flow_total: np.ndarray      # per kept flow row: exports + imports as written
    declared_trade: np.ndarray  # per country: total_exports + total_imports as written
    offer: np.ndarray           # per country: gdp + total_imports as written

    @property
    def n(self) -> int:
        return len(self.codes)

    @property
    def rows(self) -> int:
        return self.n + self.flow_rows

    @property
    def bytes(self) -> int:
        return self.countries_path.stat().st_size + self.flows_path.stat().st_size

    def direct(self, weight: str, labels) -> np.ndarray:
        """Direct matrix in ``labels`` order, built from the generator's amounts."""
        denom = self.declared_trade if weight == "trade" else self.offer
        values = np.zeros((self.n, self.n))
        values[self.reporter, self.partner] = self.flow_total / denom[self.reporter]
        position = {code: i for i, code in enumerate(self.codes)}
        order = [position[code] for code in labels]
        return values[np.ix_(order, order)]


def _amounts(values: np.ndarray) -> list[str]:
    return [repr(float(v)) for v in values]


def generate(
    directory: Path,
    seed: int,
    n: int,
    partners: int | None = None,
    zero_share: float = 0.0,
    coverage: tuple[float, float] = (1.0, 1.0),
) -> Dataset:
    """Write ``countries.csv`` and ``flows.csv`` under ``directory``.

    ``partners=None`` records every ordered pair; otherwise each country
    reports ``partners`` distinct random partners.  ``zero_share`` of the
    rows record zero trade both ways (ingestion drops them).  Each country's
    declared totals are its flow sums divided by a ratio drawn from
    ``coverage``, so ``(1, 1)`` makes totals match flow sums and lower
    ratios declare more trade than the flows record.
    """
    rng = np.random.default_rng(seed)
    codes = [country_code(i) for i in range(n)]
    names = [f"Land {k:05d}" for k in rng.permutation(n)]

    if partners is None:
        reporter = np.repeat(np.arange(n), n - 1)
        partner = np.concatenate([np.delete(np.arange(n), i) for i in range(n)])
    else:
        reporter = np.repeat(np.arange(n), partners)
        others = np.concatenate(
            [rng.choice(n - 1, size=partners, replace=False) for _ in range(n)]
        )
        partner = others + (others >= reporter)  # skip the reporter itself
    rows = len(reporter)

    exports = rng.lognormal(10.0, 2.0, rows)
    imports = rng.lognormal(10.0, 2.0, rows)
    zero = rng.random(rows) < zero_share
    first_row = np.searchsorted(reporter, np.arange(n))
    zero[first_row] = False  # every country keeps at least one recorded flow
    exports[zero] = 0.0
    imports[zero] = 0.0

    sum_exports = np.bincount(reporter, exports, n)
    sum_imports = np.bincount(reporter, imports, n)
    trade_ratio = rng.uniform(*coverage, n)
    total_exports = sum_exports / trade_ratio
    total_imports = sum_imports / trade_ratio
    offer_ratio = rng.uniform(0.05, 0.5, n)
    # offer = flow total / offer_ratio >= 2 * flow total > total_imports, so gdp > 0
    gdp = (sum_exports + sum_imports) / offer_ratio - total_imports

    directory.mkdir(parents=True, exist_ok=True)
    countries_path = directory / "countries.csv"
    flows_path = directory / "flows.csv"
    with open(countries_path, "w", encoding="utf-8", newline="") as handle:
        handle.write("code,name,gdp,total_exports,total_imports\n")
        for row in zip(codes, names, *map(_amounts, (gdp, total_exports, total_imports))):
            handle.write(",".join(row) + "\n")
    with open(flows_path, "w", encoding="utf-8", newline="") as handle:
        handle.write("reporter,partner,exports,imports\n")
        handle.writelines(
            f"{codes[r]},{codes[p]},{e},{i}\n"
            for r, p, e, i in zip(
                reporter.tolist(), partner.tolist(), _amounts(exports), _amounts(imports)
            )
        )

    kept = ~zero
    return Dataset(
        countries_path=countries_path,
        flows_path=flows_path,
        codes=tuple(codes),
        flow_rows=rows,
        trade_ratio=trade_ratio,
        offer_ratio=offer_ratio,
        reporter=reporter[kept],
        partner=partner[kept],
        flow_total=(exports + imports)[kept],
        declared_trade=total_exports + total_imports,
        offer=gdp + total_imports,
    )
