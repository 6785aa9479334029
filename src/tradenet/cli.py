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
empty ``--countries`` or ``--flows`` path.  A warning about the data, such as
flows that do not sum to the declared totals, is one stderr line,
``ConsistencyWarning: <message>``.  All outputs are deterministic: rerunning
a command with identical inputs produces byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
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
from .ingestion import DatasetManifest, csv_blocks, csv_line, load_network, write_lines
from .model import InfluenceMatrix, MatrixKind, TradeNetwork
from .weights import WeightKind, build_direct_matrix

__all__ = ["write_matrix_csv", "read_matrix_csv", "main"]

# output file name -> function writing that file at the path it is given
Writers = dict[str, Callable[[Path], None]]


class StageFailure(Exception):
    """A pipeline stage failed; the message is ``[stage] cause``."""


def _run_stage(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (TradeNetError, OSError, ValueError, OverflowError) as exc:
        raise StageFailure(f"[{stage}] {exc}") from exc


def _fmt(value: float) -> str:
    return f"{value:.12g}"


# --- file writers ----------------------------------------------------------
# ingestion decides the format: csv_line formats CSV lines, write_lines writes.

def write_matrix_csv(matrix: InfluenceMatrix, path: Path) -> None:
    """Matrix as CSV: codes on the first row and column, 12 significant digits."""
    numbers = ",%.12g" * matrix.n + "\n"  # numbers never need quoting
    rows = zip(matrix.labels, matrix.values.tolist())
    lines = (csv_line((code,), numbers % tuple(row)) for code, row in rows)
    write_lines(path, chain((csv_line(("code", *matrix.labels)),), lines))


def read_matrix_csv(path: Path) -> InfluenceMatrix:
    """Read a matrix written by :func:`write_matrix_csv`."""
    with open(path, newline="", encoding="utf-8-sig") as handle:
        rows = list(csv.reader(handle))
    labels = tuple(rows[0][1:])
    values = np.array([[float(cell) for cell in row[1:]] for row in rows[1:]])
    return InfluenceMatrix(labels, values, MatrixKind.indirect("file"))


def _write_ranking(
    report: analytics.RankingReport, network: TradeNetwork, path: Path, fmt: str
) -> None:
    criterion, columns = report.criterion, ("code", "name", "value", "rank")
    rows = [
        (row.code, network.country(row.code).name, row.value(criterion), row.position(criterion))
        for row in report.rows
    ]
    if fmt == "json":
        entries = [dict(zip(columns, row)) for row in rows]
        payload = {"criterion": criterion, "matrix": report.matrix_kind, "rows": entries}
        write_lines(path, (json.dumps(payload, indent=2), "\n"))
    else:
        cells = [columns] + [(c, n, _fmt(v), str(r)) for c, n, v, r in rows]
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
        where, first = at.format(path, row), firsts.setdefault(code, row)
        if first != row:
            raise DuplicateCountryError(f"{where}: code {code} already defined {defined.format(first)}")
        try:
            ranks[code] = as_int(rank)
        except ValueError:
            raise MalformedRowError(f"{where}: rank is not an integer: {rank!r}") from None
    return ranks


# --- commands ----------------------------------------------------------------
# Each takes the parsed arguments, the network, its direct matrix and the
# MethodSpec, runs its own engine and analytics stages and returns its output
# files; main writes them in the io stage.  write_matrix_csv is looked up when
# a file is written, so a replacement installed on this module is called.

def _matrix(args, network, direct, method) -> Writers:
    """``direct_<weight>.csv`` and ``indirect_<weight>_<method>.csv``."""
    indirect = _run_stage("engine", method.apply, direct)
    return {
        f"direct_{args.weight}.csv": lambda path: write_matrix_csv(direct, path),
        f"indirect_{args.weight}_{method.method}.csv":
            lambda path: write_matrix_csv(indirect, path),
    }


def _rank(args, network, direct, method) -> Writers:
    """Ranking tables for the direct and the indirect matrix."""
    indirect = _run_stage("engine", method.apply, direct)
    direct_report = _run_stage("analytics", analytics.rank, direct, args.criterion)
    indirect_report = _run_stage("analytics", analytics.rank, indirect, args.criterion)
    weight, criterion, ext = args.weight, args.criterion, args.format
    return {
        f"ranking_direct_{weight}_{criterion}.{ext}":
            lambda path: _write_ranking(direct_report, network, path, ext),
        f"ranking_indirect_{weight}_{method.method}_{criterion}.{ext}":
            lambda path: _write_ranking(indirect_report, network, path, ext),
    }


def _plane(args, network, direct, method) -> Writers:
    """The dependence-influence plane of the indirect matrix."""
    indirect = _run_stage("engine", method.apply, direct)
    points = _run_stage("analytics", analytics.plane, indirect)
    d_mean = sum(p.dependence for p in points) / len(points)
    f_mean = sum(p.influence for p in points) / len(points)
    rows = [("code", "dependence", "influence", "sector")] + [
        (p.code, _fmt(p.dependence), _fmt(p.influence), str(p.sector)) for p in points
    ]
    lines = [f"# mean_dependence={_fmt(d_mean)} mean_influence={_fmt(f_mean)}\n"]
    lines += map(csv_line, rows)
    return {f"plane_{args.weight}_{method.method}.csv": lambda path: write_lines(path, lines)}


def _export_dot(args, network, direct, method) -> Writers:
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
    print(f"{category.__name__}: {message}", file=sys.stderr)


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
            if args.region:
                region = tuple(code.strip() for code in args.region.split(",") if code.strip())
            manifest = DatasetManifest(args.countries, args.flows, region)
        except ValueError as exc:
            parser.error(str(exc))
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            if args.command == "compare":
                lines = _compare(Path(args.ranking_a), Path(args.ranking_b))
            else:
                network = _run_stage("ingestion", load_network, manifest)
                weight = WeightKind(args.weight)
                direct = _run_stage("weights", build_direct_matrix, network, weight)
                writers = COMMANDS[args.command](args, network, direct, method)
                out = Path(args.out)
                _run_stage("io", _write_files, out, writers)
                lines = [f"wrote {out / name}" for name in writers]
        except StageFailure as failure:
            print(f"error {failure}", file=sys.stderr)
            return 1
    for line in lines:
        print(line)
    return 0


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
