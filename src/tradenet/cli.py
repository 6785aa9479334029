"""Command-line pipeline: CSV datasets in, matrices/rankings/planes out.

Subcommands
-----------
* ``matrix``     write the direct matrix and one indirect matrix
* ``rank``       write direct and indirect ranking tables
* ``plane``      write the dependence-influence plane of the indirect matrix
* ``compare``    print the distance between two ranking files
* ``export-dot`` write the direct network as a DOT digraph

:func:`main` runs every dataset command as one pipeline: parse the
arguments, check their usage, read the dataset (stage ``ingestion``), build
the direct matrix (``weights``), run the command's indirect operator
(``engine``) and rankings or plane (``analytics``), then write every file
(``io``).  ``compare`` reads two ranking files (``ingestion``) and prints
their distance (``analytics``).

Exit codes: 0 success, 1 data or validation error (the diagnostic
``error [stage] ...`` names the failing stage), 2 usage error, including an
empty ``--countries`` or ``--flows`` path and a ``--region`` that names no
country code.  A warning about the data, such as flows that do not sum to the
declared totals, is one stderr line, ``ConsistencyWarning: <message>``.  Every
line printed stays one line: a character that ``str.isprintable`` rejects, in
a code or a path, say, is shown as its ``\\x``, ``\\u`` or ``\\U`` escape.  All
outputs are deterministic: rerunning a command with identical inputs produces
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from collections.abc import Callable
from itertools import chain
from pathlib import Path

import numpy as np

from . import analytics
from .engine import MethodSpec
from .errors import DuplicateCountryError, MalformedRowError, TradeNetError
from .ingestion import DatasetManifest, csv_blocks, csv_header, csv_line, load_network, write_lines
from .model import InfluenceMatrix, MatrixKind, TradeNetwork
from .weights import WeightKind, build_direct_matrix

__all__ = ["write_matrix_csv", "read_matrix_csv", "main"]

# output file name -> function writing that file at the path it is given
Writers = dict[str, Callable[[Path], None]]
# every number in a result file or a compare report: 12 significant digits
_NUMBER = "%.12g"


class StageFailure(Exception):
    """A pipeline stage failed; the message is ``[stage] cause``."""


def _run_stage(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (TradeNetError, OSError, ValueError, OverflowError) as exc:
        raise StageFailure(f"[{stage}] {exc}") from exc


def _fmt(value: float) -> str:
    return _NUMBER % value


def _one_line(text: str) -> str:
    """``text`` with every character that ``str.isprintable`` rejects written as its escape."""
    return "".join(c if c.isprintable() else _escape(ord(c)) for c in text)


def _escape(code: int) -> str:
    """Code point ``code`` as ``\\x0b``, ``\\u2028`` or ``\\U000e0001``, say."""
    if code < 0x100:
        return f"\\x{code:02x}"
    return f"\\u{code:04x}" if code < 0x10000 else f"\\U{code:08x}"


# --- file writers ----------------------------------------------------------
# ingestion decides the format: csv_line formats CSV lines, write_lines writes.

def write_matrix_csv(matrix: InfluenceMatrix, path: Path) -> None:
    """Matrix as CSV: codes on the first row and column, 12 significant digits."""
    numbers = f",{_NUMBER}" * matrix.n + "\n"  # numbers never need quoting
    rows = zip(matrix.labels, map(np.ndarray.tolist, matrix.values))  # one row of floats at a time
    lines = (csv_line((code,), numbers % tuple(row)) for code, row in rows)
    write_lines(path, chain((csv_line(("code", *matrix.labels)),), lines))


def read_matrix_csv(path: Path) -> InfluenceMatrix:
    """Read a matrix written by :func:`write_matrix_csv`, as every CSV file is read.

    The header is checked by :func:`~tradenet.ingestion.csv_header`: it
    names ``code``, then the column labels, each once.  The rows, read by
    :func:`~tradenet.ingestion.csv_blocks`, hold a label and then a number per
    column; row ``i``'s label must be column ``i``'s.  A faulty row raises its
    ``path:line:`` error; after the rows, a row count other than the label
    count, or a cell that is not finite, raises a ``path:`` error.
    """
    header = csv_header(path, ("code",))
    labels = tuple(header[1:])
    rows: list[list[float]] = []
    for lines, (codes, *columns) in csv_blocks(path, tuple(header)):
        for line, code, row in zip(lines, codes, zip(*columns)):
            if len(rows) < len(labels) and code != (label := labels[len(rows)]):
                raise MalformedRowError(f"{path}:{line}: row label {code!r}, expected {label!r}")
            try:
                rows.append(list(map(float, row)))
            except ValueError as exc:
                raise MalformedRowError(f"{path}:{line}: {exc}") from None
    if len(rows) != len(labels):
        raise MalformedRowError(f"{path}: {len(rows)} row(s) for {len(labels)} column label(s)")
    values = np.array(rows).reshape(len(rows), len(labels))
    try:
        return InfluenceMatrix(labels, values, MatrixKind.indirect("file"))
    except ValueError as exc:  # a nan or an infinity: float reads both
        raise MalformedRowError(f"{path}: {exc}") from None


def _write_ranking(
    report: analytics.RankingReport, network: TradeNetwork, path: Path, fmt: str
) -> None:
    criterion, columns = report.criterion, ("code", "name", "value", "rank")
    rows = [
        (r.code, network.country(r.code).name, _fmt(r.value(criterion)), r.position(criterion))
        for r in report.rows
    ]
    if fmt == "json":
        entries = [dict(zip(columns, (c, n, float(v), r))) for c, n, v, r in rows]
        payload = {"criterion": criterion, "matrix": report.matrix_kind, "rows": entries}
        write_lines(path, (json.dumps(payload, indent=2), "\n"))
    else:
        cells = [columns] + [(c, n, v, str(r)) for c, n, v, r in rows]
        write_lines(path, map(csv_line, cells))


def _json_int(value) -> int:
    if type(value) is not int:  # not a bool, a float or a string of digits
        raise ValueError(value)
    return value


def _read_ranking(path: Path) -> dict[str, int]:
    """Country -> rank map from a ranking file written by ``rank`` (CSV or JSON).

    Rows are checked in file order.  A code listed twice raises
    :class:`DuplicateCountryError` naming both rows, a rank that is not an
    integer :class:`MalformedRowError`; a CSV row is named by its line, a
    JSON row by its index in ``rows``.
    """
    if path.suffix == ".json":
        try:
            rows = json.loads(path.read_text(encoding="utf-8-sig"))["rows"]
            entries = [(f"rows[{i}]", row["code"], row["rank"]) for i, row in enumerate(rows)]
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedRowError(f"{path}: not a ranking file ({exc})") from None
        at, defined, as_int = "{}: {}", "in {}", _json_int
    else:  # lazily, so a repeated code is reported before a malformed row further down
        blocks = csv_blocks(path, ("code", "rank"))
        entries = (entry for lines, cells in blocks for entry in zip(lines, *cells))
        at, defined, as_int = "{}:{}", "on line {}", int
    ranks: dict[str, int] = {}
    firsts: dict[str, object] = {}  # code -> row defining it
    for row, code, rank in entries:
        where = at.format(path, row)
        if type(code) is not str:  # a JSON number, list or object
            raise MalformedRowError(f"{where}: code is not a string: {code!r}")
        if (first := firsts.setdefault(code, row)) != row:
            raise DuplicateCountryError(f"{where}: code {code} already defined {defined.format(first)}")
        try:
            ranks[code] = as_int(rank)
        except ValueError:
            raise MalformedRowError(f"{where}: rank is not an integer: {rank!r}") from None
    return ranks


# --- commands ----------------------------------------------------------------
# Each takes the parsed arguments, the network, its direct matrix and its
# indirect matrix (None for export-dot) and returns its output files; main
# runs it in the analytics stage and writes the files in the io stage.
# write_matrix_csv is looked up when a file is written, so a replacement
# installed on this module is called.

def _matrix(args, network, direct, indirect) -> Writers:
    """``direct_<weight>.csv`` and ``indirect_<weight>_<method>.csv``."""
    return {
        f"direct_{args.weight}.csv": lambda path: write_matrix_csv(direct, path),
        f"indirect_{args.weight}_{args.method}.csv":
            lambda path: write_matrix_csv(indirect, path),
    }


def _rank(args, network, direct, indirect) -> Writers:
    """Ranking tables for the direct and the indirect matrix."""
    direct_report = analytics.rank(direct, args.criterion)
    indirect_report = analytics.rank(indirect, args.criterion)
    weight, criterion, ext = args.weight, args.criterion, args.format
    return {
        f"ranking_direct_{weight}_{criterion}.{ext}":
            lambda path: _write_ranking(direct_report, network, path, ext),
        f"ranking_indirect_{weight}_{args.method}_{criterion}.{ext}":
            lambda path: _write_ranking(indirect_report, network, path, ext),
    }


def _plane(args, network, direct, indirect) -> Writers:
    """The dependence-influence plane of the indirect matrix."""
    points = analytics.plane(indirect)
    d_mean = np.mean([p.dependence for p in points])  # as analytics.plane takes it
    f_mean = np.mean([p.influence for p in points])
    rows = [("code", "dependence", "influence", "sector")] + [
        (p.code, _fmt(p.dependence), _fmt(p.influence), str(p.sector)) for p in points
    ]
    lines = [f"# mean_dependence={_fmt(d_mean)} mean_influence={_fmt(f_mean)}\n"]
    lines += map(csv_line, rows)
    return {f"plane_{args.weight}_{args.method}.csv": lambda path: write_lines(path, lines)}


def _export_dot(args, network, direct, indirect) -> Writers:
    """The direct network as a DOT digraph; the engine does not run.

    One node per country; one edge per nonzero direct entry at or above
    ``--min-weight``, oriented influencer -> influenced and carrying the
    entry as its ``weight`` attribute.  Nodes and edges are emitted in
    alphabetical order.
    """
    labels, values = direct.labels, direct.values
    targets, sources = np.nonzero((values != 0) & (values >= args.min_weight))
    edges = sorted(
        (labels[j], labels[i], values[i, j]) for i, j in zip(targets.tolist(), sources.tolist())
    )
    nodes = (f'  "{code}";\n' for code in sorted(labels))
    arcs = (f'  "{s}" -> "{t}" [weight={_fmt(v)}];\n' for s, t, v in edges)
    lines = ["digraph trade {\n", *nodes, *arcs, "}\n"]
    return {f"network_{args.weight}.dot": lambda path: write_lines(path, lines)}


COMMANDS = {"matrix": _matrix, "rank": _rank, "plane": _plane, "export-dot": _export_dot}


def _compare(ranking_a: Path, ranking_b: Path) -> list[str]:
    """Distance between two complete rankings, then each country's rank change.

    Countries are listed by largest change first, ties by code.
    """
    first = _run_stage("ingestion", _read_ranking, ranking_a)
    second = _run_stage("ingestion", _read_ranking, ranking_b)
    distance = _run_stage("analytics", analytics.ranking_distance, first, second)
    codes = sorted(first, key=lambda code: (-abs(second[code] - first[code]), code))
    return [f"distance: {_fmt(distance)}"] + [
        f"{code}: {first[code]} -> {second[code]} ({second[code] - first[code]:+d})"
        for code in codes
    ]


# --- argument parsing --------------------------------------------------------

def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--countries", required=True, help="countries CSV path")
    parser.add_argument("--flows", required=True, help="flows CSV path")
    parser.add_argument("--region", help="comma-separated country codes to keep")
    parser.add_argument(
        "--weight", choices=[k.value for k in WeightKind], default="trade"
    )
    parser.add_argument("--method", choices=tuple(MethodSpec.METHODS), default="pwp")
    parser.add_argument("--lambda", dest="lam", type=float, help="pwp/heatkernel parameter")
    parser.add_argument("--k", type=int, help="micmac path length")
    parser.add_argument("--p", type=float, help="pagerank teleportation parameter")
    parser.add_argument("--out", default=".", help="output directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tradenet",
        description="Direct and indirect influence analysis on bilateral trade data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, doc in (
        ("matrix", "write direct and indirect influence matrices"),
        ("rank", "write direct and indirect ranking tables"),
        ("plane", "write the dependence-influence plane"),
        ("export-dot", "write the direct network in DOT format"),
    ):
        p = sub.add_parser(name, help=doc)
        _add_dataset_args(p)
        if name == "rank":
            p.add_argument(
                "--criterion", choices=analytics.CRITERIA, default="influence"
            )
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        if name == "export-dot":
            p.add_argument("--min-weight", type=float, default=0.0)

    p = sub.add_parser("compare", help="distance between two ranking files")
    p.add_argument("ranking_a")
    p.add_argument("ranking_b")
    return parser


def _show_warning(message, category, *_) -> None:
    print(_one_line(f"{category.__name__}: {message}"), file=sys.stderr)


def _write_files(out: Path, writers: Writers) -> None:
    out.mkdir(parents=True, exist_ok=True)
    for name, write in writers.items():
        write(out / name)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command != "compare":
        try:
            method = MethodSpec(args.method, lam=args.lam, k=args.k, p=args.p)
            if not math.isfinite(getattr(args, "min_weight", 0.0)):
                raise ValueError(f"min-weight must be finite, got {args.min_weight}")
            region = None
            if args.region is not None:
                region = tuple(filter(None, map(str.strip, args.region.split(","))))
                if not region:
                    raise ValueError(f"--region names no country code: {args.region!r}")
            manifest = DatasetManifest(args.countries, args.flows, region)
        except ValueError as exc:
            parser.error(_one_line(str(exc)))
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            if args.command == "compare":
                lines = _compare(Path(args.ranking_a), Path(args.ranking_b))
            else:
                network = _run_stage("ingestion", load_network, manifest)
                direct = _run_stage("weights", build_direct_matrix, network, WeightKind(args.weight))
                run_engine = args.command != "export-dot"
                indirect = _run_stage("engine", method.apply, direct) if run_engine else None
                command = COMMANDS[args.command]
                writers = _run_stage("analytics", command, args, network, direct, indirect)
                out = Path(args.out)
                _run_stage("io", _write_files, out, writers)
                lines = [f"wrote {out / name}" for name in writers]
        except StageFailure as failure:
            print(_one_line(f"error {failure}"), file=sys.stderr)
            return 1
    for line in lines:
        print(_one_line(line))
    return 0


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
