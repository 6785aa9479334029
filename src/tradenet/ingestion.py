"""CSV ingestion and serialization of trade datasets.

Two comma-separated UTF-8 files with mandatory headers describe a dataset:

* countries: ``code,name,gdp,total_exports,total_imports``
* flows:     ``reporter,partner,exports,imports``

Either file may start with a UTF-8 byte order mark.  Amounts are plain
decimals in thousands of US dollars (decimal point, no thousands
separators).  Every parse error carries the 1-based line number of the
offending row; when a file has several faults, the first line wins.  A byte
that is not UTF-8 is a fault of the line that holds it (see :func:`_csv_reader`).
Both loaders return what their file holds: a flow row recording zero trade
both ways is kept, and :class:`~tradenet.model.TradeNetwork` alone drops it.

The file format is decided here, for every file the package reads or
writes: :func:`csv_blocks` reads a CSV file (:func:`csv_header` its header
alone) and words every fault met reading it as ``path:line:``,
:func:`csv_line` formats a CSV line and :func:`write_lines` writes any file,
as UTF-8 with ``\\n`` line ends.  A cell read is its text stripped of
surrounding whitespace, in every file.

Flows are read in blocks of rows straight into the columns of a
:class:`~tradenet.model.FlowTable`; :func:`~tradenet.model.flow_fault` checks
them as whole columns and words every error, given what the file knows (lines,
unparsed cells); ingestion adds only ``path:line:``.  A clean flows file, quoted
cells included, is read by numpy's C parser (``np.loadtxt``).  Any other file,
faulty ones included, goes to the block parser over :func:`csv_blocks`, which
raises every flow error, so line numbers and fault order are its alone.
"""

from __future__ import annotations

import csv
import logging
import math
import re
import warnings
from collections import Counter
from collections.abc import Iterable, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .errors import DuplicateCountryError, MalformedRowError, MissingColumnError, TradeNetError
from .model import CountryRecord, FlowTable, TradeNetwork, build_network, flow_fault

__all__ = [
    "COUNTRY_COLUMNS",
    "FLOW_COLUMNS",
    "DatasetManifest",
    "load_countries",
    "load_flows",
    "save_countries",
    "save_flows",
    "subset",
    "load_network",
]

logger = logging.getLogger(__name__)

COUNTRY_COLUMNS = ("code", "name", "gdp", "total_exports", "total_imports")
FLOW_COLUMNS = ("reporter", "partner", "exports", "imports")

_SPECIAL = re.compile('[,"\n\r]')  # a cell holding one of these is quoted
_ESCAPED = re.compile("[\udc80-\udcff]")  # a byte that is not UTF-8, decoded by surrogateescape

# rows read at once, by the block parser and by the flows fast path; bounds
# their memory on large files (np.loadtxt allocates max_rows rows up front)
_BLOCK_ROWS = 32_768

# width of the fast path's code strings; a padded code fits, a cell this wide may be cut short
_CODE_WIDTH = 8


def _header(path: str | Path, reader, columns: tuple[str, ...]) -> list[str]:
    """The header row read from ``reader``, its cells stripped; raises unless it names ``columns``, each once."""
    try:
        header = [cell.strip() for cell in next(reader)]
    except StopIteration:
        raise MissingColumnError(f"{path}: file is empty, header row required") from None
    missing = [c for c in columns if c not in header]
    if missing:
        raise MissingColumnError(f"{path}: missing column(s) {', '.join(missing)}")
    twice = [c for c, n in Counter(header).items() if n > 1 and c in columns]
    if twice:
        raise MissingColumnError(f"{path}: column(s) named twice {', '.join(twice)}")
    return header


@contextmanager
def _csv_reader(path: str | Path):
    """A :mod:`csv` reader of ``path`` that raises every fault it meets behind ``path:line:``.

    The file is decoded with ``errors="surrogateescape"``, so a byte that is
    not UTF-8 arrives as a lone surrogate in the line that holds it.  The
    reader reads the lines before that one, then raises the line's
    :class:`MalformedRowError`, ``not UTF-8 text (reason)``, the reason the
    decoder gives for the line's bytes.  Lines are counted as :mod:`csv`
    counts them: each ends at ``\\r``, ``\\n`` or ``\\r\\n``.
    """
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:

        def lines():  # 64 KiB at a time: a check a line would cost every row
            read = 0  # lines before the chunk
            for chunk in iter(lambda: handle.readlines(1 << 16), []):
                text = "".join(chunk)
                if not text.isascii() and _ESCAPED.search(text):  # isascii costs nothing
                    i = next(i for i, line in enumerate(chunk) if _ESCAPED.search(line))
                    yield chunk[:i]
                    try:  # the line's bytes with its end, as a decode of the whole file sees them
                        chunk[i].encode(errors="surrogateescape").decode()
                    except UnicodeDecodeError as exc:
                        reason = exc.reason
                    raise MalformedRowError(f"{path}:{read + i + 1}: not UTF-8 text ({reason})")
                read += len(chunk)
                yield chunk

        reader = csv.reader(chain.from_iterable(lines()))
        try:
            yield reader
        except csv.Error as exc:  # a cell over csv.field_size_limit, a NUL under Python 3.10
            raise MalformedRowError(f"{path}:{reader.line_num}: {exc}") from None


def csv_header(path: str | Path, columns: tuple[str, ...]) -> list[str]:
    """The header of the CSV file at ``path``, read and checked as :func:`csv_blocks` reads it."""
    with _csv_reader(path) as reader:
        return _header(path, reader, columns)


def csv_blocks(path: str | Path, columns: tuple[str, ...]):
    """Yield ``(lines, cells)`` per block of data rows, after header validation.

    Every CSV file the package reads is read here.  ``lines`` are the rows'
    1-based line numbers and ``cells`` one list per requested column of its
    cells, each as :mod:`csv` unquotes it, then stripped (``str.strip``).
    Blank rows and rows of empty cells are skipped.  A row with the wrong
    field count ends the file, as does a fault met reading it (see
    :func:`_csv_reader`): its :class:`MalformedRowError` is raised after the
    rows read before it have been yielded, since those may hold an earlier
    fault.  So no cell yielded holds a byte that is not UTF-8.
    """
    fault = None
    cells: list[str] = []  # the block's rows, concatenated
    lines: list[int] = []
    try:  # around the loop, not each row: a row costs nothing more
        with _csv_reader(path) as reader:
            header = _header(path, reader, columns)
            width = len(header)
            positions = [header.index(c) for c in columns]

            def block():
                return lines, [list(map(str.strip, cells[p::width])) for p in positions]

            for row in reader:
                if len(row) != width or not row[0].strip():
                    if not any(cell.strip() for cell in row):
                        continue
                    if len(row) != width:
                        fault = MalformedRowError(
                            f"{path}:{reader.line_num}: expected {width} fields, got {len(row)}"
                        )
                        break
                cells += row
                lines.append(reader.line_num)
                if len(lines) == _BLOCK_ROWS:
                    yield block()
                    cells, lines = [], []
    except MalformedRowError as exc:
        fault = exc
    if lines:
        yield block()
    if fault is not None:
        raise fault


def _floats(cells) -> tuple[np.ndarray, dict[int, str]]:
    """Cells as floats, NaN where a cell does not parse; and those cells' texts by position."""
    try:
        return np.fromiter(map(float, cells), dtype=float, count=len(cells)), {}
    except ValueError:
        values, texts = np.empty(len(cells)), {}
        for i, cell in enumerate(cells):
            try:
                values[i] = float(cell)
            except ValueError:
                values[i], texts[i] = math.nan, cell
        return values, texts


def _located(where: str, exc: Exception) -> TradeNetError:
    """``exc`` behind ``where`` (``path:line``); a ``ValueError`` becomes :class:`MalformedRowError`."""
    cls = MalformedRowError if isinstance(exc, ValueError) else type(exc)
    return cls(f"{where}: {exc}")


def load_countries(path: str | Path) -> list[CountryRecord]:
    """Parse a countries CSV into records, preserving file order.

    Raises the error of the first faulty line.  Within a line the checks
    run in this order: field count, code already seen on an earlier line,
    :class:`~tradenet.model.CountryRecord`'s own (gdp, total_exports,
    total_imports, code, name), then name already seen on an earlier line.
    """
    records: list[CountryRecord] = []
    codes: dict[str, int] = {}  # code -> line defining it
    names: dict[str, int] = {}  # name -> line defining it
    for lines, cells in csv_blocks(path, COUNTRY_COLUMNS):
        for line, row in zip(lines, zip(*cells)):
            code, name, *amounts = row
            where = f"{path}:{line}"
            first = codes.setdefault(code, line)
            if first != line:
                raise DuplicateCountryError(f"{where}: code {code} already defined on line {first}")
            try:
                records.append(CountryRecord(code, name, *amounts))
            except (ValueError, TradeNetError) as exc:  # TradeNetError: a negative amount
                raise _located(where, exc) from None
            first = names.setdefault(name, line)
            if first != line:
                raise DuplicateCountryError(f"{where}: name {name!r} already defined on line {first}")
    return records


def load_flows(path: str | Path) -> FlowTable:
    """Parse a flows CSV into a table of every row it holds, zero-trade rows included.

    Every row gets :func:`~tradenet.model.flow_fault`; the first faulty line
    raises its error behind ``path:line:``.  Within a line the checks run in
    this order: field count, self-flow, pair already on an earlier line (named
    in the message), exports, imports.  An amount that is not a finite number
    raises :class:`MalformedRowError`.

    A clean file is read by numpy's C parser (:func:`_read_flows_fast`).  Any
    file it cannot read to the block parser's table, faulty files included,
    goes to the block parser (:func:`_read_flows_blocks`), which writes
    every error, so messages, lines and fault order do not depend on the path.
    Both check the header by :func:`_header`, so a header fault never defers.
    """
    table, reason = _read_flows_fast(path)
    if table is not None and flow_fault(table) is None:
        return table
    logger.debug("%s: block parser used (%s)", path, reason or "faulty row")
    return _read_flows_blocks(path)


def _read_flows_fast(path: str | Path) -> tuple[FlowTable | None, str]:
    """The flows file read by ``np.loadtxt``, or ``None`` and why the block parser must read it.

    Rows are read in blocks of ``_BLOCK_ROWS``, as the block parser reads
    them, so new codes join the table's codes in its order: block by block,
    reporter column before partner column, in order of first appearance.
    A table is returned only when it equals the block parser's, faulty rows
    included.  So the file must hold no NUL (a fixed-width string drops a
    trailing one), no code cell may fill ``_CODE_WIDTH`` characters (it may
    have been cut short), and no line may pass :func:`csv.field_size_limit`:
    the byte pass that looks for NUL also defers on an aligned stretch of
    half that limit (at most 1 MiB) with no line end, which every such line
    spans (a quoted cell over the limit that spans lines is not seen).  A
    byte that is not UTF-8 makes the decoder raise, which defers too.  ``"``
    quotes a cell as in :mod:`csv`: a quote is doubled, a separator or line
    end may be inside.
    numpy skips the whitespace ``str.strip`` removes around an amount,
    ``\\x1c``-``\\x1f`` included.  A row the C parser rejects, such as one
    with another field count, a row of empty cells or an amount it does not
    read (``float`` reads ``1_000``), sends the file to the block parser too.
    numpy cannot strip a string, so code cells are mapped to their stripped
    codes here, the one place besides :func:`csv_blocks` that strips a cell.
    """
    size = max(1, min(csv.field_size_limit() // 2, 1 << 20))  # of a stretch
    with open(path, "rb") as handle:  # whole stretches a read, about 1 MiB, so they stay aligned
        for chunk in iter(lambda: handle.read(size * ((1 << 20) // size)), b""):
            if b"\0" in chunk:
                return None, "NUL character"
            for start in range(0, len(chunk) - size + 1, size):
                if chunk.find(b"\n", start, start + size) < 0 and chunk.find(b"\r", start, start + size) < 0:
                    return None, f"{size} bytes with no line end"
    index: dict[str, int] = {}  # code -> position in the table's codes
    raw: dict[str, int] = {}  # cell as written -> index of its stripped code
    codes, amounts = [], []  # per block: (reporter, partner) indices, (exports, imports)
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle, warnings.catch_warnings():
            # numpy warns of each blank line and of an empty last block
            warnings.simplefilter("ignore", UserWarning)
            header = _header(path, csv.reader(handle), FLOW_COLUMNS)
            # every column is read, so a row with another field count fails
            kinds = dict(zip(FLOW_COLUMNS, (f"U{_CODE_WIDTH}",) * 2 + (float,) * 2))
            dtype = [(f"c{i}", kinds.get(name, "U1")) for i, name in enumerate(header)]
            fields = [f"c{header.index(name)}" for name in FLOW_COLUMNS]
            while True:
                block = np.loadtxt(
                    handle, dtype, comments=None, delimiter=",", quotechar='"',
                    max_rows=_BLOCK_ROWS, ndmin=1,
                )
                cells, first, inverse = np.unique(
                    np.concatenate([block[field] for field in fields[:2]]),
                    return_index=True, return_inverse=True,
                )
                cells = cells.tolist()
                for i in np.argsort(first).tolist():
                    if cells[i] not in raw:
                        raw[cells[i]] = index.setdefault(cells[i].strip(), len(index))
                codes.append(np.array([raw[cell] for cell in cells], np.intp)[inverse].reshape(2, -1))
                amounts.append(np.array([block[field] for field in fields[2:]]))
                if len(block) < _BLOCK_ROWS:
                    break
    except (ValueError, csv.Error) as exc:  # UnicodeDecodeError included
        return None, f"{type(exc).__name__}: {exc}"
    if max(map(len, raw), default=0) >= _CODE_WIDTH:
        return None, f"code cell of {_CODE_WIDTH} or more characters"
    reporter, partner = np.concatenate(codes, axis=1)
    return FlowTable(tuple(index), reporter, partner, *np.concatenate(amounts, axis=1)), ""


def _read_flows_blocks(path: str | Path) -> FlowTable:
    """The flows file read by :func:`csv_blocks`; raises the error of its first faulty line."""
    index: dict[str, int] = {}  # code -> position in the table's codes
    parts = {
        name: [np.zeros(0, dtype)]
        for name, dtype in zip((*FLOW_COLUMNS, "lines"), (np.intp, np.intp, float, float, np.int64))
    }
    texts: dict[tuple[int, str], str] = {}  # amount cells that do not parse, by (row, column)
    rows = 0  # rows read before the block
    pending = None
    try:
        for lines, cells in csv_blocks(path, FLOW_COLUMNS):
            for name, column in zip(FLOW_COLUMNS[:2], cells[:2]):
                for code in dict.fromkeys(column):
                    index.setdefault(code, len(index))
                parts[name].append(np.fromiter(map(index.__getitem__, column), np.intp, len(column)))
            for name, column in zip(FLOW_COLUMNS[2:], cells[2:]):
                values, unparsed = _floats(column)
                texts.update(((rows + i, name), text) for i, text in unparsed.items())
                parts[name].append(values)
            parts["lines"].append(np.array(lines, dtype=np.int64))
            rows += len(lines)
    except MalformedRowError as exc:
        pending = exc

    *columns, lines = (np.concatenate(parts[name]) for name in (*FLOW_COLUMNS, "lines"))
    table = FlowTable(tuple(index), *columns)
    fault = flow_fault(table, lines, texts)
    if fault is not None:
        row, error = fault
        raise _located(f"{path}:{lines[row]}", error)
    if pending is not None:
        raise pending
    return table


def csv_line(cells: Sequence[str], end: str = "\n") -> str:
    """``cells`` joined by commas, then ``end`` as it is; every CSV line written is made here.

    A cell is quoted, its quotes doubled, exactly when it holds a comma, a
    quote, ``\\n`` or ``\\r``.  ``end`` may carry cells that never need
    quoting, such as numbers.
    """
    return ",".join('"%s"' % c.replace('"', '""') if _SPECIAL.search(c) else c for c in cells) + end


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write ``lines`` to ``path`` as UTF-8, line ends as given; every writer ends here."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.writelines(lines)


def save_countries(records, path: str | Path) -> None:
    rows = ((r.code, r.name, *map(repr, (r.gdp, r.total_exports, r.total_imports))) for r in records)
    write_lines(path, map(csv_line, chain((COUNTRY_COLUMNS,), rows)))


def save_flows(flows, path: str | Path) -> None:
    """Write a :class:`~tradenet.model.FlowTable` or flow records, one row each, unchecked."""
    table = flows if isinstance(flows, FlowTable) else FlowTable.from_records(flows)
    codes = np.array(table.codes, dtype=object)
    amounts = (map(repr, column.tolist()) for column in (table.exports, table.imports))
    rows = zip(codes[table.reporter], codes[table.partner], *amounts)
    write_lines(path, map(csv_line, chain((FLOW_COLUMNS,), rows)))


def subset(network: TradeNetwork, codes) -> TradeNetwork:
    """Restrict a network to the given countries.

    Keeps only flows with both endpoints retained.  Country aggregates
    (GDP and declared totals) are left untouched: a regional matrix still
    divides by world totals, so regional rows need not sum to 1.
    """
    keep = set(codes)
    for code in sorted(keep):
        network.country(code)
    countries = [c for c in network.countries if c.code in keep]
    flows = network.flows
    kept = np.array([code in keep for code in flows.codes], dtype=bool)
    return build_network(countries, flows.take(kept[flows.reporter] & kept[flows.partner]))


@dataclass(frozen=True)
class DatasetManifest:
    """Where a dataset lives and how to restrict it."""

    countries_path: str | Path
    flows_path: str | Path
    region_filter: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not str(self.countries_path) or not str(self.flows_path):
            raise ValueError("manifest paths must be non-empty")
        if self.region_filter is not None:
            object.__setattr__(self, "region_filter", tuple(self.region_filter))


def load_network(manifest: DatasetManifest) -> TradeNetwork:
    """Load, assemble, and optionally regionally restrict a dataset.

    The zero-trade rows :class:`TradeNetwork` drops are counted in an INFO log line.

    Raises
    ------
    UnknownCountryError
        If a region-filter code does not resolve against the loaded data.
    """
    countries = load_countries(manifest.countries_path)
    flows = load_flows(manifest.flows_path)
    network = build_network(countries, flows)
    if dropped := len(flows) - len(network.flows):
        logger.info("%s: dropped %d zero-trade row(s)", manifest.flows_path, dropped)
    if manifest.region_filter is not None:
        network = subset(network, manifest.region_filter)
    return network
