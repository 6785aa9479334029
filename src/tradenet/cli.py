"""Command-line pipeline: CSV datasets in, matrices/rankings/planes out.

Subcommands
-----------
* ``matrix``     write the direct matrix and one indirect matrix
* ``rank``       write direct and indirect ranking tables
* ``plane``      write the dependence-influence plane of the indirect matrix
* ``compare``    print the distance between two ranking files
* ``export-dot`` write the direct network as a DOT digraph

Exit codes: 0 success, 1 data or validation error (diagnostic names the
failing stage), 2 usage error.  All outputs are deterministic: rerunning a
command with identical inputs produces byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analytics
from .engine import MethodSpec
from .errors import MalformedRowError, TradeNetError
from .ingestion import DatasetManifest, load_network
from .model import InfluenceMatrix, MatrixKind, TradeNetwork
from .weights import WeightKind, build_direct_matrix

__all__ = [
    "RunConfig",
    "ComparisonReport",
    "cmd_matrix",
    "cmd_rank",
    "cmd_plane",
    "cmd_compare",
    "cmd_export_dot",
    "write_matrix_csv",
    "read_matrix_csv",
    "main",
]

@dataclass(frozen=True)
class RunConfig:
    """Everything one pipeline invocation needs."""

    manifest: DatasetManifest
    weight: WeightKind
    method: MethodSpec
    output_dir: Path
    output_format: str = "csv"

    def __post_init__(self) -> None:
        if self.output_format not in ("csv", "json"):
            raise ValueError(f"output format must be csv or json, got {self.output_format}")
        object.__setattr__(self, "output_dir", Path(self.output_dir))


class StageFailure(Exception):
    """A pipeline stage failed; carries the stage name for the diagnostic."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


def _run_stage(stage: str, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (TradeNetError, OSError, ValueError, OverflowError) as exc:
        raise StageFailure(stage, exc) from exc


def _fmt(value: float) -> str:
    return f"{value:.12g}"


# --- file writers ----------------------------------------------------------

def write_matrix_csv(matrix: InfluenceMatrix, path: Path) -> None:
    """Matrix as CSV: codes on the first row and column, 12 significant digits."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["code", *matrix.labels])
        for i, code in enumerate(matrix.labels):
            writer.writerow([code, *(_fmt(v) for v in matrix.values[i])])


def read_matrix_csv(path: Path, kind: MatrixKind | None = None) -> InfluenceMatrix:
    """Read a matrix written by :func:`write_matrix_csv`."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    labels = tuple(rows[0][1:])
    values = np.array([[float(cell) for cell in row[1:]] for row in rows[1:]])
    return InfluenceMatrix(labels, values, kind or MatrixKind.indirect("file"))


def _write_ranking(
    report: analytics.RankingReport, network: TradeNetwork, path: Path, fmt: str
) -> None:
    entries = [
        {
            "code": row.code,
            "name": network.country(row.code).name,
            "value": row.value(report.criterion),
            "rank": row.position(report.criterion),
        }
        for row in report.rows
    ]
    if fmt == "json":
        payload = {
            "criterion": report.criterion,
            "matrix": report.matrix_kind,
            "rows": entries,
        }
        path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        return
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["code", "name", "value", "rank"])
        for entry in entries:
            writer.writerow([entry["code"], entry["name"], _fmt(entry["value"]), entry["rank"]])


def _read_ranking(path: Path) -> dict[str, int]:
    """Country -> rank map from a ranking file written by ``rank`` (CSV or JSON)."""
    try:
        if path.suffix == ".json":
            payload = json.loads(path.read_text(encoding="utf-8"))
            rows = payload["rows"]
            return {row["code"]: int(row["rank"]) for row in rows}
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            return {row["code"]: int(row["rank"]) for row in reader}
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedRowError(f"{path}: not a ranking file ({exc})") from None


# --- pipeline stages -------------------------------------------------------

def _network_and_direct(config: RunConfig) -> tuple[TradeNetwork, InfluenceMatrix]:
    network = _run_stage("ingestion", load_network, config.manifest)
    return network, _run_stage("weights", build_direct_matrix, network, config.weight)


def _write_outputs(config: RunConfig, writers: dict[str, Callable[[Path], None]]) -> list[Path]:
    """Create the output directory and run each file's writer, in the ``io`` stage."""
    paths = {config.output_dir / name: write for name, write in writers.items()}

    def write_all() -> None:
        config.output_dir.mkdir(parents=True, exist_ok=True)
        for path, write in paths.items():
            write(path)

    _run_stage("io", write_all)
    return list(paths)


# --- commands ---------------------------------------------------------------

def cmd_matrix(config: RunConfig) -> list[Path]:
    """Write ``direct_<weight>.csv`` and ``indirect_<weight>_<method>.csv``."""
    _, direct = _network_and_direct(config)
    indirect = _run_stage("engine", config.method.apply, direct)
    weight, method = config.weight.value, config.method.method
    return _write_outputs(config, {
        f"direct_{weight}.csv": lambda path: write_matrix_csv(direct, path),
        f"indirect_{weight}_{method}.csv": lambda path: write_matrix_csv(indirect, path),
    })


def cmd_rank(config: RunConfig, criterion: str = "influence") -> list[Path]:
    """Write ranking tables for the direct and the indirect matrix."""
    network, direct = _network_and_direct(config)
    indirect = _run_stage("engine", config.method.apply, direct)
    direct_report = _run_stage("engine", analytics.rank, direct, criterion)
    indirect_report = _run_stage("engine", analytics.rank, indirect, criterion)
    weight, method, ext = config.weight.value, config.method.method, config.output_format
    return _write_outputs(config, {
        f"ranking_direct_{weight}_{criterion}.{ext}":
            lambda path: _write_ranking(direct_report, network, path, ext),
        f"ranking_indirect_{weight}_{method}_{criterion}.{ext}":
            lambda path: _write_ranking(indirect_report, network, path, ext),
    })


def cmd_plane(config: RunConfig) -> list[Path]:
    """Write the dependence-influence plane of the indirect matrix."""
    _, direct = _network_and_direct(config)
    indirect = _run_stage("engine", config.method.apply, direct)
    points = _run_stage("engine", analytics.plane, indirect)
    d_mean = sum(p.dependence for p in points) / len(points)
    f_mean = sum(p.influence for p in points) / len(points)

    def write(path: Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            handle.write(f"# mean_dependence={_fmt(d_mean)} mean_influence={_fmt(f_mean)}\n")
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["code", "dependence", "influence", "sector"])
            for point in points:
                writer.writerow(
                    [point.code, _fmt(point.dependence), _fmt(point.influence), point.sector]
                )

    return _write_outputs(config, {f"plane_{config.weight.value}_{config.method.method}.csv": write})


@dataclass(frozen=True)
class ComparisonReport:
    distance: float
    deltas: tuple[tuple[str, int, int, int], ...]  # (code, rank_a, rank_b, b - a)

    def lines(self) -> list[str]:
        out = [f"distance: {_fmt(self.distance)}"]
        out += [f"{code}: {a} -> {b} ({b - a:+d})" for code, a, b, _ in self.deltas]
        return out


def cmd_compare(ranking_a: Path, ranking_b: Path) -> ComparisonReport:
    """Distance between two complete rankings plus per-country deltas."""
    first = _run_stage("ingestion", _read_ranking, Path(ranking_a))
    second = _run_stage("ingestion", _read_ranking, Path(ranking_b))
    distance = _run_stage("analytics", analytics.ranking_distance, first, second)
    deltas = sorted(
        ((code, first[code], second[code], second[code] - first[code]) for code in first),
        key=lambda item: (-abs(item[3]), item[0]),
    )
    return ComparisonReport(distance, tuple(deltas))


def cmd_export_dot(config: RunConfig, min_weight: float = 0.0) -> list[Path]:
    """Write the direct network as a DOT digraph; the engine does not run.

    One node per country; one edge per nonzero direct entry at or above
    ``min_weight``, oriented influencer -> influenced and carrying the
    entry as its ``weight`` attribute.  Nodes and edges are emitted in
    alphabetical order.
    """
    _, direct = _network_and_direct(config)
    labels, values = direct.labels, direct.values
    targets, sources = np.nonzero((values != 0) & (values >= min_weight))
    edges = sorted(
        (labels[j], labels[i], values[i, j]) for i, j in zip(targets.tolist(), sources.tolist())
    )

    def write(path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("digraph trade {\n")
            for code in sorted(labels):
                handle.write(f'  "{code}";\n')
            for source, target, value in edges:
                handle.write(f'  "{source}" -> "{target}" [weight={_fmt(value)}];\n')
            handle.write("}\n")

    return _write_outputs(config, {f"network_{config.weight.value}.dot": write})


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
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


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
        if name == "export-dot":
            p.add_argument("--min-weight", type=float, default=0.0)

    p = sub.add_parser("compare", help="distance between two ranking files")
    p.add_argument("ranking_a")
    p.add_argument("ranking_b")
    return parser


def _config_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunConfig:
    region = None
    if args.region:
        region = tuple(code.strip() for code in args.region.split(",") if code.strip())
    manifest = DatasetManifest(
        countries_path=args.countries, flows_path=args.flows, region_filter=region
    )
    try:
        method = MethodSpec(args.method, lam=args.lam, k=args.k, p=args.p)
    except ValueError as exc:
        parser.error(str(exc))
    return RunConfig(
        manifest=manifest,
        weight=WeightKind(args.weight),
        method=method,
        output_dir=Path(args.out),
        output_format=args.format,
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "compare":
            report = cmd_compare(Path(args.ranking_a), Path(args.ranking_b))
            for line in report.lines():
                print(line)
            return 0
        config = _config_from_args(parser, args)
        if args.command == "rank":
            written = cmd_rank(config, args.criterion)
        elif args.command == "export-dot":
            written = cmd_export_dot(config, args.min_weight)
        elif args.command == "plane":
            written = cmd_plane(config)
        else:
            written = cmd_matrix(config)
        for path in written:
            print(f"wrote {path}")
        return 0
    except StageFailure as failure:
        print(f"error {failure}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
