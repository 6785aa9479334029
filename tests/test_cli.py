import contextlib
import csv
import io
import itertools
import json
import os
import re
import string
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tradenet
from tradenet import (
    BilateralFlow,
    CountryRecord,
    InfluenceMatrix,
    MatrixKind,
    WeightKind,
    build_network,
    pwp,
    rank,
    ranking_distance,
    save_countries,
    save_flows,
)
from tradenet.analytics import PlanePoint
from tradenet.analytics import plane as analytics_plane
from tradenet.cli import main, read_matrix_csv, write_matrix_csv
from tradenet.engine import MethodSpec
from tradenet.errors import MalformedRowError, TradeNetError

from conftest import (
    TRIANGLE_COUNTRIES,
    TRIANGLE_FLOWS,
    direct_matrix_quietly,
    generated_pairs,
    synthetic_network,
)


def write_dataset(tmp_path, network, stem="data"):
    countries = tmp_path / f"{stem}_countries.csv"
    flows = tmp_path / f"{stem}_flows.csv"
    save_countries(network.countries, countries)
    save_flows(network.flows, flows)
    return countries, flows


def dataset_args(countries, flows, out, *extra):
    return [
        "--countries", str(countries),
        "--flows", str(flows),
        "--out", str(out),
        *extra,
    ]


@pytest.fixture
def us_china_files(tmp_path, us_china_network):
    return write_dataset(tmp_path, us_china_network)


@pytest.fixture
def triangle_files(tmp_path, triangle_network):
    return write_dataset(tmp_path, triangle_network)


# symmetric 3-country network with identical flows everywhere; every
# trade-share entry is 0.5 and all bi-degrees coincide
UNIFORM_COUNTRIES = [
    CountryRecord("ZZA", "Alpha", 100.0, 20.0, 20.0),
    CountryRecord("AAB", "Beta", 100.0, 20.0, 20.0),
    CountryRecord("MMC", "Gamma", 100.0, 20.0, 20.0),
]
UNIFORM_FLOWS = [
    BilateralFlow(a, b, 10.0, 10.0)
    for a in ("ZZA", "AAB", "MMC")
    for b in ("ZZA", "AAB", "MMC")
    if a != b
]


@pytest.fixture
def uniform_files(tmp_path):
    return write_dataset(tmp_path, build_network(UNIFORM_COUNTRIES, UNIFORM_FLOWS))


class TestMatrixCommand:
    def test_us_china_golden_entries(self, tmp_path, us_china_files):
        out = tmp_path / "out"
        code = main(["matrix", *dataset_args(*us_china_files, out, "--weight", "trade")])
        assert code == 0
        direct = read_matrix_csv(out / "direct_trade.csv")
        assert direct.labels == ("CHN", "USA")
        assert direct.entry("USA", "CHN") == pytest.approx(0.139, abs=5e-4)
        assert direct.entry("CHN", "USA") == pytest.approx(0.123, abs=5e-4)
        assert (out / "indirect_trade_pwp.csv").exists()

    def test_empty_flows_give_zero_matrices(self, tmp_path):
        net = build_network(
            [CountryRecord("AAA", "Alpha", 1.0, 0.0, 0.0),
             CountryRecord("BBB", "Beta", 1.0, 0.0, 0.0)],
            [],
        )
        files = write_dataset(tmp_path, net)
        out = tmp_path / "out"
        assert main(["matrix", *dataset_args(*files, out)]) == 0
        for name in ("direct_trade.csv", "indirect_trade_pwp.csv"):
            assert not read_matrix_csv(out / name).values.any()

    def test_intermediary_boosts_indirect_entry(self, tmp_path, triangle_network):
        files = write_dataset(tmp_path, triangle_network)
        out_full = tmp_path / "full"
        main(["matrix", *dataset_args(*files, out_full)])

        # same countries, Spain flow records removed
        no_spain = [f for f in TRIANGLE_FLOWS if "ESP" not in (f.reporter, f.partner)]
        pruned = build_network(TRIANGLE_COUNTRIES, no_spain)
        pruned_files = write_dataset(tmp_path, pruned, stem="pruned")
        out_pruned = tmp_path / "pruned_out"
        main(["matrix", *dataset_args(*pruned_files, out_pruned)])

        full = read_matrix_csv(out_full / "indirect_trade_pwp.csv")
        pruned_m = read_matrix_csv(out_pruned / "indirect_trade_pwp.csv")
        assert full.entry("CUB", "USA") > pruned_m.entry("CUB", "USA")

    def test_matches_library_pipeline(self, tmp_path, triangle_network):
        files = write_dataset(tmp_path, triangle_network)
        out = tmp_path / "out"
        main(["matrix", *dataset_args(*files, out, "--weight", "offer", "--lambda", "2")])
        direct = direct_matrix_quietly(triangle_network, WeightKind.OFFER)
        written = read_matrix_csv(out / "indirect_offer_pwp.csv")
        expected = pwp(direct, 2.0)
        assert np.abs(written.values - expected.values).max() < 1e-11

    @pytest.mark.parametrize("method", ["micmac", "pagerank", "heatkernel"])
    def test_other_methods_run(self, tmp_path, triangle_files, method):
        out = tmp_path / "out"
        assert main(["matrix", *dataset_args(*triangle_files, out, "--method", method)]) == 0
        assert (out / f"indirect_trade_{method}.csv").exists()

    @pytest.mark.parametrize("weight", ["trade", "offer"])
    def test_pwp_at_large_lambda_writes_finite_values(self, tmp_path, uniform_files, weight):
        # e**800 overflows a float; the written matrix must not
        out = tmp_path / "out"
        argv = dataset_args(*uniform_files, out, "--weight", weight, "--lambda", "800")
        assert main(["matrix", *argv]) == 0
        values = read_matrix_csv(out / f"indirect_{weight}_pwp.csv").values
        assert np.isfinite(values).all() and (values > 0).all()
        if weight == "trade":  # every trade-share row sums to 1, and so does pwp's
            assert np.abs(values.sum(axis=1) - 1.0).max() < 1e-11

    def test_region_subsets(self, tmp_path, triangle_files):
        out = tmp_path / "out"
        args = dataset_args(*triangle_files, out, "--region", "CUB,USA")
        assert main(["matrix", *args]) == 0
        assert read_matrix_csv(out / "direct_trade.csv").labels == ("CUB", "USA")


class TestWriteMatrixCsv:
    def test_bytes_match_per_cell_csv_writer_and_round_trip(self, tmp_path):
        labels = ("a,b", 'say "hi"', "two\nlines", "")
        # +-0.0, a subnormal and 1e300; each has at most 12 significant digits
        values = np.array(
            [
                [0.0, -0.0, 5e-324, 1e300],
                [2.5e-310, 0.25, -1.5, 123456789012.0],
                [1e-5, 3.0, 0.0, 7e-300],
                [1.0, 2.0, 9.99999999999e299, -0.0],
            ]
        )
        matrix = InfluenceMatrix(labels, values, MatrixKind.indirect("test"))
        write_matrix_csv(matrix, tmp_path / "m.csv")
        with open(tmp_path / "ref.csv", "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["code", *labels])
            for label, row in zip(labels, values):
                writer.writerow([label, *(f"{v:.12g}" for v in row)])
        assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        back = read_matrix_csv(tmp_path / "m.csv")
        assert back.labels == labels
        assert np.array_equal(back.values, values)
        assert np.array_equal(np.signbit(back.values), np.signbit(values))

    def test_carriage_return_in_label_round_trips(self, tmp_path):
        matrix = InfluenceMatrix(("a\rb", "c"), np.identity(2), MatrixKind.indirect("test"))
        write_matrix_csv(matrix, tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_bytes().startswith(b'code,"a\rb",c\n"a\rb",1,0\n')
        assert read_matrix_csv(tmp_path / "m.csv").labels == matrix.labels

    def test_padded_header_reads_back_unpadded(self, tmp_path):
        # read with its own csv.reader, the label used to be ' AAA '
        (tmp_path / "m.csv").write_text("code, AAA ,BBB\nAAA,0, 1\nBBB,2,0\n", encoding="utf-8")
        back = read_matrix_csv(tmp_path / "m.csv")
        assert back.labels == ("AAA", "BBB")
        assert back.values.tolist() == [[0.0, 1.0], [2.0, 0.0]]

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("code,AAA,BBB\nAAA,0,1\nBBB,2\n", "m.csv:3: expected 3 fields, got 2"),
            ("code,AAA,BBB\nAAA,0,1\nBBB,2,x\n", "m.csv:3: could not convert string to float: 'x'"),
            ("code,AAA,AAA\nAAA,0,1\nAAA,2,0\n", "m.csv: column(s) named twice AAA"),
            ("AAA,BBB\nAAA,0\n", "m.csv: missing column(s) code"),
            ("code,AAA,BBB\nBBB,0,1\nAAA,2,0\n", "m.csv:2: row label 'BBB', expected 'AAA'"),
            ("code,AAA,BBB\nAAA,0,1\n", "m.csv: 1 row(s) for 2 column label(s)"),
            ("code,AAA,BBB\nAAA,0,1\nBBB,2,0\nCCC,x,0\n", "m.csv:4: could not convert string to float: 'x'"),
            ("code,AAA,BBB\nAAA,0,1\nBBB,2,0\nCCC,1,0\n", "m.csv: 3 row(s) for 2 column label(s)"),
        ],
        ids=["short-row", "not-a-number", "label-twice", "no-code", "rows-reordered", "row-missing",
             "row-fault-before-count", "row-extra"],
    )
    def test_fault_names_the_file_and_line(self, tmp_path, text, message):
        # a short row used to raise numpy's inhomogeneous-shape error, with no
        # path; reordered rows read as another matrix, and a missing row raised
        # InfluenceMatrix's shape error, with no path
        (tmp_path / "m.csv").write_text(text, encoding="utf-8")
        with pytest.raises(TradeNetError) as exc:
            read_matrix_csv(tmp_path / "m.csv")
        assert str(exc.value) == f"{tmp_path / message}"

    def test_byte_not_utf8_in_the_first_chunk_is_located(self, tmp_path):
        # the header read decodes line 3 with line 1, but reports a fault of line 1 alone
        (tmp_path / "m.csv").write_bytes(b"code,AAA,BBB\nAAA,0,1\nBBB,2\xff,0\n")
        with pytest.raises(MalformedRowError) as exc:
            read_matrix_csv(tmp_path / "m.csv")
        assert str(exc.value) == f"{tmp_path / 'm.csv'}:3: not UTF-8 text (invalid start byte)"


class TestRankCommand:
    def test_two_row_ranking(self, tmp_path, us_china_files):
        out = tmp_path / "out"
        code = main([
            "rank", *dataset_args(*us_china_files, out, "--criterion", "influence"),
        ])
        assert code == 0
        with open(out / "ranking_direct_trade_influence.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert [r["rank"] for r in rows] == ["1", "2"]
        # China's influence on the US (0.139) tops the US's on China (0.123)
        assert rows[0]["code"] == "CHN"

    def test_ties_resolved_by_name(self, tmp_path, uniform_files):
        out = tmp_path / "out"
        main(["rank", *dataset_args(*uniform_files, out)])
        with open(out / "ranking_direct_trade_influence.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["name"] for r in rows] == ["Alpha", "Beta", "Gamma"]
        assert [r["code"] for r in rows] == ["ZZA", "AAB", "MMC"]

    def test_matches_library_ranking(self, tmp_path):
        rng = np.random.default_rng(101)
        net = synthetic_network(generated_pairs(6), rng, density=0.7)
        files = write_dataset(tmp_path, net)
        out = tmp_path / "out"
        main(["rank", *dataset_args(*files, out, "--criterion", "dependence")])
        direct = direct_matrix_quietly(net, WeightKind.TRADE)
        expected = rank(direct, "dependence")
        with open(out / "ranking_direct_trade_dependence.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["code"] for r in rows] == [row.code for row in expected.rows]
        assert [int(r["rank"]) for r in rows] == list(range(1, 7))

    def test_json_format(self, tmp_path, us_china_files):
        out = tmp_path / "out"
        main(["rank", *dataset_args(*us_china_files, out, "--format", "json")])
        payload = json.loads((out / "ranking_direct_trade_influence.json").read_text(encoding="utf-8"))
        assert payload["criterion"] == "influence"
        assert [row["rank"] for row in payload["rows"]] == [1, 2]

    @pytest.mark.parametrize("method", sorted(MethodSpec.METHODS))
    def test_json_values_are_the_csv_numbers(self, tmp_path, method):
        # JSON used to carry up to 17 significant digits, CSV 12
        net = synthetic_network(generated_pairs(6), np.random.default_rng(102), density=0.7)
        files = write_dataset(tmp_path, net)
        out = tmp_path / "out"
        for fmt in ("csv", "json"):
            assert main(["rank", *dataset_args(*files, out, "--method", method, "--format", fmt)]) == 0
        for stem in ("ranking_direct_trade", f"ranking_indirect_trade_{method}"):
            with open(out / f"{stem}_influence.csv", newline="", encoding="utf-8") as fh:
                expected = [float(row["value"]) for row in csv.DictReader(fh)]
            payload = json.loads((out / f"{stem}_influence.json").read_text(encoding="utf-8"))
            assert [row["value"] for row in payload["rows"]] == expected

    def test_pagerank_prints_only_written_paths(self, tmp_path, us_china_files, capsys):
        out = tmp_path / "out"
        assert main(["rank", *dataset_args(*us_china_files, out, "--method", "pagerank")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"wrote {out / name}" for name in (
            "ranking_direct_trade_influence.csv",
            "ranking_indirect_trade_pagerank_influence.csv",
        )]

    def test_pagerank_near_one_on_slow_mixing_cycle(self, tmp_path):
        # country i trades with i-1, 0 with 199, and 100 also with 0: a 200-cycle
        # with one chord, which mixes slowly at p near 1
        n = 200
        countries = [CountryRecord(f"{i:03d}", f"Land {i:03d}", 10.0, 1.0, 1.0) for i in range(n)]
        pairs = [(i, i - 1) for i in range(1, n)] + [(0, n - 1), (n // 2, 0)]
        flows = [BilateralFlow(f"{r:03d}", f"{p:03d}", 1.0, 1.0) for r, p in pairs]
        files = write_dataset(tmp_path, build_network(countries, flows))
        out = tmp_path / "out"
        argv = dataset_args(*files, out, "--method", "pagerank", "--p", "0.999")
        assert main(["rank", *argv]) == 0
        with open(out / "ranking_indirect_trade_pagerank_influence.csv", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        # a rank-one output: every country's influence is the vector's sum, 1
        assert len(rows) == n and {row["value"] for row in rows} == {"1"}


class TestPlaneCommand:
    def test_uniform_network_all_sector_three(self, tmp_path, uniform_files):
        out = tmp_path / "out"
        assert main(["plane", *dataset_args(*uniform_files, out)]) == 0
        lines = (out / "plane_trade_pwp.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# mean_dependence=")
        rows = list(csv.DictReader(lines[1:]))
        assert [r["sector"] for r in rows] == ["3", "3", "3"]

    def test_zero_matrix_at_origin(self, tmp_path):
        net = build_network(
            [CountryRecord("AAA", "Alpha", 1.0, 0.0, 0.0),
             CountryRecord("BBB", "Beta", 1.0, 0.0, 0.0)],
            [],
        )
        files = write_dataset(tmp_path, net)
        out = tmp_path / "out"
        main(["plane", *dataset_args(*files, out)])
        rows = list(csv.DictReader((out / "plane_trade_pwp.csv").read_text(encoding="utf-8").splitlines()[1:]))
        for row in rows:
            assert float(row["dependence"]) == 0.0
            assert float(row["influence"]) == 0.0
            assert row["sector"] == "3"

    def test_header_means_are_numpy_means(self, tmp_path, uniform_files, monkeypatch):
        # the sectors come from numpy means (analytics.plane), so the header prints
        # them too; Python's sum loses every 1e-16 term before 3.12 and printed
        # 9.999900001e-06
        points = [PlanePoint("AAA", 1.0, 0.0, 3)] + [PlanePoint("BBB", 1e-16, 0.0, 3)] * 100000
        monkeypatch.setattr(tradenet.analytics, "plane", lambda matrix: points)
        out = tmp_path / "out"
        assert main(["plane", *dataset_args(*uniform_files, out)]) == 0
        with open(out / "plane_trade_pwp.csv", encoding="utf-8") as handle:
            header = handle.readline()
        assert header == "# mean_dependence=9.9999000011e-06 mean_influence=0\n"

    def test_matches_library_sectors(self, tmp_path, triangle_network):
        files = write_dataset(tmp_path, triangle_network)
        out = tmp_path / "out"
        main(["plane", *dataset_args(*files, out)])
        direct = direct_matrix_quietly(triangle_network, WeightKind.TRADE)
        expected = {p.code: p.sector for p in analytics_plane(pwp(direct, 1.0))}
        rows = list(csv.DictReader((out / "plane_trade_pwp.csv").read_text(encoding="utf-8").splitlines()[1:]))
        assert {r["code"]: int(r["sector"]) for r in rows} == expected


class TestCompareCommand:
    def rank_files(self, tmp_path, us_china_files):
        out = tmp_path / "out"
        main(["rank", *dataset_args(*us_china_files, out)])
        return out / "ranking_direct_trade_influence.csv"

    def test_file_against_itself_is_zero(self, tmp_path, us_china_files, capsys):
        path = self.rank_files(tmp_path, us_china_files)
        capsys.readouterr()  # discard the rank command's output
        assert main(["compare", str(path), str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "distance: 0"

    def test_two_country_swap_is_one(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("code,name,value,rank\nAAA,Alpha,0.7,1\nBBB,Beta,0.3,2\n", encoding="utf-8")
        b.write_text("code,name,value,rank\nAAA,Alpha,0.3,2\nBBB,Beta,0.7,1\n", encoding="utf-8")
        assert main(["compare", str(a), str(b)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "distance: 1"
        assert out[1:] == ["AAA: 1 -> 2 (+1)", "BBB: 2 -> 1 (-1)"]

    def test_matches_distance_oracle(self, tmp_path, capsys):
        rng = np.random.default_rng(103)
        first = rng.permutation(range(1, 6))
        second = rng.permutation(range(1, 6))
        codes = [f"C{i}X" for i in range(5)]
        for name, perm in (("a", first), ("b", second)):
            lines = ["code,name,value,rank"]
            lines += [f"{c},N{c},0,{int(r)}" for c, r in zip(codes, perm)]
            (tmp_path / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        main(["compare", str(tmp_path / "a.csv"), str(tmp_path / "b.csv")])
        printed = float(capsys.readouterr().out.splitlines()[0].split(": ")[1])
        expected = ranking_distance(
            dict(zip(codes, (int(r) for r in first))),
            dict(zip(codes, (int(r) for r in second))),
        )
        assert printed == pytest.approx(expected, rel=1e-11)

    def test_reads_json_rankings(self, tmp_path, us_china_files, capsys):
        out = tmp_path / "out"
        main(["rank", *dataset_args(*us_china_files, out, "--format", "json")])
        csv_out = tmp_path / "csv_out"
        main(["rank", *dataset_args(*us_china_files, csv_out)])
        capsys.readouterr()
        json_path = out / "ranking_direct_trade_influence.json"
        csv_path = csv_out / "ranking_direct_trade_influence.csv"
        assert main(["compare", str(json_path), str(csv_path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "distance: 0"

    def test_carriage_return_in_name_round_trips(self, tmp_path, capsys):
        countries = [
            CountryRecord(code, f"{code}\r{code}", 10.0, 2.0, 2.0) for code in ("AAA", "BBB")
        ]
        flows = [BilateralFlow("AAA", "BBB", 1.0, 1.0), BilateralFlow("BBB", "AAA", 1.0, 1.0)]
        files = write_dataset(tmp_path, build_network(countries, flows))
        path = self.rank_files(tmp_path, files)
        with open(path, newline="", encoding="utf-8") as handle:
            names = [row["name"] for row in csv.DictReader(handle)]
        assert sorted(names) == ["AAA\rAAA", "BBB\rBBB"]
        capsys.readouterr()
        assert main(["compare", str(path), str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "distance: 0"

    def test_padded_csv_cells_match_unpadded_ones(self, tmp_path, capsys):
        # codes were compared as written, so " AAA " did not match "AAA"
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("code,name,value,rank\n AAA ,Alpha,0.7, 1\n\tBBB\x1c,Beta,0.3,2 \n", encoding="utf-8")
        b.write_text("code,name,value,rank\nAAA,Alpha,0.7,1\nBBB,Beta,0.3,2\n", encoding="utf-8")
        assert main(["compare", str(a), str(b)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "distance: 0", "AAA: 1 -> 1 (+0)", "BBB: 2 -> 2 (+0)",
        ]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_byte_order_mark_is_accepted(self, tmp_path, us_china_files, capsys, fmt):
        main(["rank", *dataset_args(*us_china_files, tmp_path / "out", "--format", fmt)])
        path = tmp_path / "out" / f"ranking_direct_trade_influence.{fmt}"
        prefixed = tmp_path / f"bom.{fmt}"
        prefixed.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        capsys.readouterr()
        assert main(["compare", str(prefixed), str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "distance: 0"

    @pytest.mark.parametrize(
        ("name", "text", "message"),
        [
            ("r.csv", "code,name,value\nAAA,Alpha,0.7\n", r"r\.csv: missing column\(s\) rank"),
            ("r.csv", "code,name,value,rank\nAAA,Alpha,0.7,1\nBBB,Beta,0.3,x\n",
             r"r\.csv:3: rank is not an integer: 'x'"),
            ("r.csv", "code,name,value,rank\nAAA,Alpha,0.7\n", r"r\.csv:2: expected 4 fields, got 3"),
            ("r.csv", "", r"r\.csv: file is empty, header row required"),
            ("r.json", '{"criterion": "influence"}\n', r"r\.json: not a ranking file \('rows'\)"),
        ],
        ids=["missing-column", "rank-not-integer", "field-count", "empty", "json-without-rows"],
    )
    def test_bad_ranking_file_exits_one_naming_it(self, tmp_path, capsys, name, text, message):
        (tmp_path / name).write_text(text, encoding="utf-8")
        assert main(["compare", str(tmp_path / name), str(tmp_path / name)]) == 1
        assert re.search(rf"^error \[ingestion\] .*{message}", capsys.readouterr().err)

    @pytest.mark.parametrize(
        ("name", "text", "message"),
        [
            (
                "r.csv",
                "code,name,value,rank\nBBB,Beta,0.3,2\nAAA,Alpha,0.7,3\nAAA,Alpha,0.9,1\n",
                "r.csv:4: code AAA already defined on line 3",
            ),
            (
                "r.json",
                json.dumps({"rows": [
                    {"code": "BBB", "rank": 2}, {"code": "AAA", "rank": 3}, {"code": "AAA", "rank": 1},
                ]}),
                "r.json: rows[2]: code AAA already defined in rows[1]",
            ),
        ],
        ids=["csv", "json"],
    )
    def test_repeated_code_exits_one_naming_both_rows(self, tmp_path, capsys, name, text, message):
        # the later row used to win, so this file compared as distance 0
        (tmp_path / name).write_text(text, encoding="utf-8")
        assert main(["compare", str(tmp_path / name), str(tmp_path / name)]) == 1
        assert capsys.readouterr().err == f"error [ingestion] {tmp_path / message}\n"

    @pytest.mark.parametrize(("rank", "shown"), [(2.7, "2.7"), (True, "True"), ("1", "'1'")])
    def test_json_rank_must_be_an_integer(self, tmp_path, capsys, rank, shown):
        # int() used to truncate 2.7 to 2 and read true as 1
        a = tmp_path / "r.json"
        rows = [{"code": "AAA", "rank": rank}, {"code": "BBB", "rank": 2}]
        a.write_text(json.dumps({"rows": rows}), encoding="utf-8")
        b = tmp_path / "b.csv"
        b.write_text("code,name,value,rank\nAAA,Alpha,0.7,1\nBBB,Beta,0.3,2\n", encoding="utf-8")
        assert main(["compare", str(a), str(b)]) == 1
        message = f"{a}: rows[0]: rank is not an integer: {shown}"
        assert capsys.readouterr().err == f"error [ingestion] {message}\n"

    def test_csv_repeated_code_is_reported_before_a_later_malformed_row(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        path.write_text("code,name,value,rank\nAAA,Alpha,0.7,1\nAAA,Alpha,0.3,2\nBBB,Beta\n", encoding="utf-8")
        assert main(["compare", str(path), str(path)]) == 1
        message = f"{path}:3: code AAA already defined on line 2"
        assert capsys.readouterr().err == f"error [ingestion] {message}\n"

    @pytest.mark.parametrize(("code", "shown"), [(["A"], "['A']"), ({"A": 1}, "{'A': 1}"), (5, "5")])
    def test_json_code_must_be_a_string(self, tmp_path, capsys, code, shown):
        # a list or an object used to end in a TypeError traceback, a number in
        # an analytics error about the two rankings' countries
        a = tmp_path / "r.json"
        rows = [{"code": code, "rank": 1}, {"code": "BBB", "rank": 2}]
        a.write_text(json.dumps({"rows": rows}), encoding="utf-8")
        b = tmp_path / "b.csv"
        b.write_text("code,name,value,rank\nAAA,Alpha,0.7,1\nBBB,Beta,0.3,2\n", encoding="utf-8")
        assert main(["compare", str(a), str(b)]) == 1
        message = f"{a}: rows[0]: code is not a string: {shown}"
        assert capsys.readouterr().err == f"error [ingestion] {message}\n"

    def test_domain_mismatch_exits_one(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("code,name,value,rank\nAAA,Alpha,0.7,1\nBBB,Beta,0.3,2\n", encoding="utf-8")
        b.write_text("code,name,value,rank\nAAA,Alpha,0.3,1\nCCC,Gamma,0.7,2\n", encoding="utf-8")
        assert main(["compare", str(a), str(b)]) == 1
        assert "analytics" in capsys.readouterr().err


class TestExportDot:
    def test_two_country_graph(self, tmp_path, us_china_files):
        out = tmp_path / "out"
        assert main(["export-dot", *dataset_args(*us_china_files, out)]) == 0
        text = (out / "network_trade.dot").read_text(encoding="utf-8")
        assert text.count('";') == 2  # one node line per country
        assert text.count("->") == 2
        assert '"CHN" -> "USA"' in text and '"USA" -> "CHN"' in text

    def test_threshold_above_max_gives_edgeless_graph(self, tmp_path, us_china_files):
        out = tmp_path / "out"
        main(["export-dot", *dataset_args(*us_china_files, out, "--min-weight", "0.5")])
        assert "->" not in (out / "network_trade.dot").read_text(encoding="utf-8")

    def test_operator_options_do_not_run_the_engine(self, tmp_path, us_china_files, capsys):
        # lambda=1e12 needs more squarings than the engine allows, but
        # export-dot never applies the method
        out = tmp_path / "out"
        argv = dataset_args(*us_china_files, out, "--method", "pwp", "--lambda", "1e12")
        assert main(["export-dot", *argv]) == 0
        assert "->" in (out / "network_trade.dot").read_text(encoding="utf-8")
        capsys.readouterr()
        assert main(["matrix", *argv]) == 1
        assert "[engine]" in capsys.readouterr().err

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_non_finite_threshold_is_a_usage_error(self, tmp_path, us_china_files, capsys, threshold):
        # nan fails every >= comparison, so it used to write a graph without edges
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["export-dot", *dataset_args(*us_china_files, out, f"--min-weight={threshold}")])
        assert exc.value.code == 2
        assert f"min-weight must be finite, got {threshold}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("threshold", [0.0, 0.01, 0.05])
    def test_edge_count_matches_entry_count(self, tmp_path, triangle_network, threshold):
        files = write_dataset(tmp_path, triangle_network)
        out = tmp_path / "out"
        main([
            "export-dot",
            *dataset_args(*files, out, "--min-weight", str(threshold)),
        ])
        direct = direct_matrix_quietly(triangle_network, WeightKind.TRADE)
        expected = int(((direct.values != 0) & (direct.values >= threshold)).sum())
        assert (out / "network_trade.dot").read_text(encoding="utf-8").count("->") == expected


class TestContract:
    @pytest.mark.parametrize("command", [["matrix"], ["rank", "--format", "json"], ["plane"]])
    def test_overflowing_operator_exits_one_without_files(self, tmp_path, capsys, command):
        # each trade row sums to 2, so D^2000 leaves the float range; micmac used
        # to write inf and nan cells (NaN in JSON) and exit 0
        countries = [CountryRecord(code, code, 100.0, 10.0, 10.0) for code in ("AAA", "BBB")]
        flows = [BilateralFlow("AAA", "BBB", 20.0, 20.0), BilateralFlow("BBB", "AAA", 20.0, 20.0)]
        files = write_dataset(tmp_path, build_network(countries, flows))
        out = tmp_path / "out"
        assert main([*command, *dataset_args(*files, out, "--method", "micmac", "--k", "2000")]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1] == "error [engine] result overflowed the floating-point range"
        assert all(line.startswith("ConsistencyWarning: ") for line in lines[:-1])
        assert not out.exists()

    @pytest.mark.parametrize("weight", ["trade", "offer"])
    @pytest.mark.parametrize("command", ["matrix", "rank", "plane", "export-dot"])
    def test_share_too_large_for_a_float_exits_one_without_files(
        self, tmp_path, capsys, command, weight
    ):
        # AAA's totals and GDP are subnormal, so its share of BBB, 10 / 1e-310,
        # overflows; export-dot used to write "weight=inf" and exit 0
        countries = [CountryRecord("AAA", "Alpha", 1e-310, 1e-310, 0.0),
                     CountryRecord("BBB", "Beta", 10.0, 10.0, 10.0)]
        flows = [BilateralFlow("AAA", "BBB", 5.0, 5.0), BilateralFlow("BBB", "AAA", 5.0, 5.0)]
        files = write_dataset(tmp_path, build_network(countries, flows))
        out = tmp_path / "out"
        assert main([command, *dataset_args(*files, out, "--weight", weight)]) == 1
        denominator = "total trade" if weight == "trade" else "GDP + imports"
        assert capsys.readouterr().err.splitlines() == [
            f"error [weights] AAA's flows with BBB (10) over its {denominator} (1e-310) "
            "leave the floating-point range"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("weight", ["trade", "offer"])
    def test_denominator_past_the_float_range_exits_one_without_files(
        self, tmp_path, capsys, weight
    ):
        # AAA's totals (trade) or GDP + imports (offer) sum past the float range;
        # rank used to exit 0 with AAA's row all zero and no warning
        amounts = (1.0, 1e308) if weight == "trade" else (1e308, 1.0)
        countries = [CountryRecord("AAA", "Alpha", *amounts, 1e308),
                     CountryRecord("BBB", "Beta", 1.0, 1.0, 1.0)]
        flows = [BilateralFlow("AAA", "BBB", 5.0, 5.0), BilateralFlow("BBB", "AAA", 1.0, 1.0)]
        files = write_dataset(tmp_path, build_network(countries, flows))
        out = tmp_path / "out"
        assert main(["rank", *dataset_args(*files, out, "--weight", weight)]) == 1
        denominator = "total trade" if weight == "trade" else "GDP + imports"
        assert capsys.readouterr().err.splitlines() == [
            f"error [weights] AAA's {denominator} leaves the floating-point range"
        ]
        assert not out.exists()

    def test_matrix_outputs_are_byte_identical_across_runs(self, tmp_path, triangle_files):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["matrix", *dataset_args(*triangle_files, out)]) == 0
        for name in ("direct_trade.csv", "indirect_trade_pwp.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    @pytest.mark.parametrize("command", ["rank", "plane", "export-dot"])
    def test_other_commands_idempotent(self, tmp_path, triangle_files, command):
        outputs = []
        for label in ("a", "b"):
            out = tmp_path / label
            assert main([command, *dataset_args(*triangle_files, out)]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]
        assert outputs[0]  # something was written

    def test_twelve_digit_output_reparses_stably(self, tmp_path, triangle_files):
        out = tmp_path / "out"
        main(["matrix", *dataset_args(*triangle_files, out)])
        with open(out / "indirect_trade_pwp.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            for cell in row[1:]:
                assert f"{float(cell):.12g}" == cell

    def test_missing_input_exits_one_with_stage(self, tmp_path, capsys):
        code = main([
            "matrix",
            "--countries", str(tmp_path / "nope.csv"),
            "--flows", str(tmp_path / "nope2.csv"),
            "--out", str(tmp_path),
        ])
        assert code == 1
        assert "[ingestion]" in capsys.readouterr().err

    def test_bad_data_exits_one(self, tmp_path, capsys):
        countries = tmp_path / "c.csv"
        countries.write_text("code,name,gdp,total_exports,total_imports\nAAA,Alpha,-1,0,0\n", encoding="utf-8")
        flows = tmp_path / "f.csv"
        flows.write_text("reporter,partner,exports,imports\n", encoding="utf-8")
        assert main(["matrix", *dataset_args(countries, flows, tmp_path / "out")]) == 1
        assert "[ingestion]" in capsys.readouterr().err

    def test_output_clash_exits_one_with_io_stage(self, tmp_path, us_china_files, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory", encoding="utf-8")
        assert main(["matrix", *dataset_args(*us_china_files, blocker)]) == 1
        assert "[io]" in capsys.readouterr().err

    @pytest.mark.parametrize("empty", ["--countries", "--flows"])
    def test_empty_path_is_a_usage_error(self, tmp_path, us_china_files, capsys, empty):
        argv = dataset_args(*us_china_files, tmp_path / "out")
        argv[argv.index(empty) + 1] = ""
        with pytest.raises(SystemExit) as exc:
            main(["matrix", *argv])
        assert exc.value.code == 2
        assert "manifest paths must be non-empty" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["matrix", "rank"])
    @pytest.mark.parametrize("region", ["", " , "])
    def test_region_naming_no_code_is_a_usage_error(
        self, tmp_path, us_china_files, capsys, command, region
    ):
        # " , " used to make matrix write a 0x0 file and "" to keep every country
        argv = dataset_args(*us_china_files, tmp_path / "out", "--region", region)
        with pytest.raises(SystemExit) as exc:
            main([command, *argv])
        assert exc.value.code == 2
        assert "--region names no country code" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_dataset_fails_in_analytics_stage(self, tmp_path, capsys):
        countries = tmp_path / "c.csv"
        countries.write_text("code,name,gdp,total_exports,total_imports\n", encoding="utf-8")
        flows = tmp_path / "f.csv"
        flows.write_text("reporter,partner,exports,imports\n", encoding="utf-8")
        assert main(["rank", *dataset_args(countries, flows, tmp_path / "out")]) == 1
        assert "error [analytics] matrix has no countries" in capsys.readouterr().err

    def test_module_entry_point_prints_warning_as_one_line(self, tmp_path, us_china_files):
        # the pair's flows do not sum to its declared totals, so weights warn
        src = str(Path(tradenet.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        argv = ["rank", *dataset_args(*us_china_files, tmp_path / "out")]
        proc = subprocess.run(
            [sys.executable, "-m", "tradenet.cli", *argv], env=env, capture_output=True, encoding="utf-8"
        )
        assert proc.returncode == 0, proc.stderr
        lines = [line for line in proc.stderr.splitlines() if "flows of" in line]
        assert len(lines) == 1 and lines[0].startswith("ConsistencyWarning: flows of")
        assert "cli.py" not in proc.stderr
        assert "return fn(" not in proc.stderr

    @pytest.mark.filterwarnings("default::tradenet.errors.ConsistencyWarning")
    def test_warning_is_one_stderr_line(self, tmp_path, capsys, us_china_files):
        # in process, main's own display prints it, as the module docstring says
        assert main(["rank", *dataset_args(*us_china_files, tmp_path / "out")]) == 0
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ConsistencyWarning: flows of"), captured.err
        assert captured.out and all(line.startswith("wrote ") for line in captured.out.splitlines())

    def test_usage_errors_exit_two(self, us_china_files):
        countries, flows = us_china_files
        with pytest.raises(SystemExit) as exc:
            main(["matrix", "--countries", str(countries)])  # --flows missing
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main([
                "matrix", "--countries", str(countries), "--flows", str(flows),
                "--method", "pwp", "--k", "4",  # k does not apply to pwp
            ])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["matrix", "plane", "export-dot"])
    def test_format_is_a_rank_option(self, tmp_path, us_china_files, command):
        argv = dataset_args(*us_china_files, tmp_path / "out", "--format", "json")
        with pytest.raises(SystemExit) as exc:
            main([command, *argv])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["pwp", "heatkernel"])
    @pytest.mark.parametrize("lam", ["-1", "0", "nan", "inf"])
    def test_lambda_outside_positive_finite_is_a_usage_error(
        self, tmp_path, us_china_files, capsys, method, lam
    ):
        argv = dataset_args(*us_china_files, tmp_path / "out", "--method", method, "--lambda", lam)
        with pytest.raises(SystemExit) as exc:
            main(["matrix", *argv])
        assert exc.value.code == 2
        assert "lambda must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# --- no traceback from any input ----------------------------------------------

# a stage failure or a data warning; argparse's usage lines are checked apart
STDERR_LINE = re.compile(r"error \[(ingestion|weights|engine|analytics|io)\] |ConsistencyWarning: ")
PARAMETER_FLAG = {"lam": "--lambda", "k": "--k", "p": "--p"}
EDIT_BYTE = st.sampled_from(list(b'0123456789.,-+eE"\r\n \x00\xefAUinf')) | st.integers(0, 255)
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
JSON_ROW = st.fixed_dictionaries({
    "code": st.sampled_from(["A", "B"]) | JSON_VALUE,
    "rank": st.sampled_from([1, 2]) | JSON_VALUE,
})
JSON_RANKING = JSON_VALUE | st.fixed_dictionaries({"rows": st.lists(JSON_ROW | JSON_VALUE, max_size=3)})
CSV_RANKING = st.tuples(
    st.sampled_from(["code,name,value,rank\n", "rank,code\n", ""]),
    st.text(alphabet='AB12,."\r\n x-', max_size=40),
).map("".join)


def mutated(data: bytes):
    """``data`` after one to four byte replacements, insertions or deletions."""

    def apply(edits) -> bytes:
        out = bytearray(data)
        for at, how, byte in edits:
            end = at if how == "insert" else at + 1
            out[at:end] = b"" if how == "delete" else bytes([byte])
        return bytes(out)

    edit = st.tuples(st.integers(0, len(data)), st.sampled_from(["insert", "replace", "delete"]), EDIT_BYTE)
    return st.lists(edit, min_size=1, max_size=4).map(apply)


def assert_clean_exit(argv) -> None:
    """``main`` returns 0 or 1, or argparse exits 2, and stderr holds only expected lines."""
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    lines = stderr.getvalue().splitlines()
    if code == 2:
        assert lines[0].startswith("usage: ") and ": error: " in lines[-1], lines
    else:
        assert code in (0, 1)
        assert all(STDERR_LINE.match(line) for line in lines), lines
        assert (code == 1) == any(line.startswith("error [") for line in lines), lines


class TestNoTraceback:
    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        mutate_flows=st.booleans(),
        command=st.sampled_from([["matrix"], ["rank"], ["rank", "--format", "json"], ["plane"], ["export-dot"]]),
        method=st.sampled_from(sorted(MethodSpec.METHODS)),
        parameter=st.sampled_from([None, "0.5", "3", "0", "-1", "nan", "1e12", "x"]),
        weight=st.sampled_from(["trade", "offer"]),
    )
    def test_mutated_dataset(self, data, mutate_flows, command, method, parameter, weight):
        with tempfile.TemporaryDirectory() as tmp:
            files = write_dataset(Path(tmp), build_network(TRIANGLE_COUNTRIES, TRIANGLE_FLOWS))
            path = files[1 if mutate_flows else 0]
            path.write_bytes(data.draw(mutated(path.read_bytes())))
            argv = [*command, *dataset_args(*files, Path(tmp) / "out", "--method", method, "--weight", weight)]
            if parameter is not None:
                argv += [PARAMETER_FLAG[MethodSpec.METHODS[method][0]], parameter]
            assert_clean_exit(argv)

    @settings(max_examples=150, deadline=None)
    @given(
        ranking=JSON_RANKING.map(lambda v: ("r.json", json.dumps(v))) | CSV_RANKING.map(lambda t: ("r.csv", t)),
        first=st.booleans(),
    )
    def test_arbitrary_ranking(self, ranking, first):
        with tempfile.TemporaryDirectory() as tmp:
            path, other = Path(tmp) / ranking[0], Path(tmp) / "other.csv"
            path.write_bytes(ranking[1].encode())
            other.write_text("code,name,value,rank\nA,Alpha,0.7,1\nB,Beta,0.3,2\n", encoding="utf-8")
            pair = (path, other) if first else (other, path)
            assert_clean_exit(["compare", *map(str, pair)])



# --- read faults are located ----------------------------------------------------

FAULT_LINE = 1501  # of 2001, past the decoder's first 8 KiB chunk
CODES = ["".join(c) for c in itertools.product(string.ascii_uppercase, repeat=3)][:2000]
# the faulty cell and the start of its message
READ_FAULTS = {
    "long cell": (b"x" * 200_000, "field larger than field limit (131072)"),
    "not UTF-8": (b"Nation \xff", "not UTF-8 text (invalid start byte)"),
    # csv refuses a NUL under Python 3.10 only; later versions read the cell, which is no number
    "NUL": (b"1\x00", ""),
}


def faulty_file(tmp_path, kind: str, fault: str) -> tuple[list[str], Path]:
    """A command reading a 2001-line ``kind`` file whose line 1501 holds a fault, and that file."""
    files = {
        "countries": ("code,name,gdp,total_exports,total_imports",
                      [f"{c},Nation {c},1,1,1" for c in CODES]),
        "flows": ("reporter,partner,exports,imports",
                  [f"{a},{b},1,1" for a in CODES[:46] for b in CODES[:46] if a != b][:2000]),
        "ranking": ("code,name,value,rank", [f"{c},Nation {c},0.5,{i}" for i, c in enumerate(CODES, 1)]),
    }
    for name, (header, rows) in files.items():
        (tmp_path / f"{name}.csv").write_text("\n".join([header, *rows, ""]), encoding="utf-8")
    path = tmp_path / f"{kind}.csv"
    lines = path.read_bytes().split(b"\n")
    cells = lines[FAULT_LINE - 1].split(b",")
    # the cell replaced is a name (a code in a flows file), or for NUL an amount or a rank
    column = {"countries": (1, 2), "flows": (0, 2), "ranking": (1, 3)}[kind][fault == "NUL"]
    cells[column] = READ_FAULTS[fault][0]
    lines[FAULT_LINE - 1] = b",".join(cells)
    path.write_bytes(b"\n".join(lines))
    if kind == "ranking":
        return ["compare", str(path), str(path)], path
    countries, flows = tmp_path / "countries.csv", tmp_path / "flows.csv"
    return ["rank", *dataset_args(countries, flows, tmp_path / "out")], path


class TestReadFaultsAreLocated:
    # csv's and the decoder's errors used to end in a traceback, or in a
    # message naming neither file nor line
    @pytest.mark.parametrize("fault", sorted(READ_FAULTS))
    @pytest.mark.parametrize("kind", ["countries", "flows", "ranking"])
    def test_fault_exits_one_at_its_line(self, tmp_path, capsys, kind, fault):
        argv, path = faulty_file(tmp_path, kind, fault)
        assert main(argv) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error [ingestion] {path}:{FAULT_LINE}: {READ_FAULTS[fault][1]}"), line
