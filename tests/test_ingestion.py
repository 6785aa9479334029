import csv
import io
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from tradenet import (
    BilateralFlow,
    CountryRecord,
    DatasetManifest,
    FlowTable,
    WeightKind,
    build_network,
    load_countries,
    load_flows,
    load_network,
    save_countries,
    save_flows,
    subset,
)
from tradenet import ingestion
from tradenet.cli import _read_ranking, read_matrix_csv
from tradenet.ingestion import COUNTRY_COLUMNS, FLOW_COLUMNS
from tradenet.model import flow_fault
from tradenet.errors import (
    DuplicateCountryError,
    DuplicateFlowError,
    MalformedRowError,
    MissingColumnError,
    NegativeAmountError,
    SelfFlowError,
    TradeNetError,
    UnknownCountryError,
)

from conftest import AMERICAN_COUNTRIES, direct_matrix_quietly, generated_pairs, synthetic_network

COUNTRIES_HEADER = "code,name,gdp,total_exports,total_imports\n"
FLOWS_HEADER = "reporter,partner,exports,imports\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCountries:
    def test_parses_us_row(self, tmp_path):
        path = write(
            tmp_path,
            "c.csv",
            COUNTRIES_HEADER + "USA,United States,14991300000,1479730169,2262585634\n",
        )
        (rec,) = load_countries(path)
        assert rec.code == "USA"
        assert rec.name == "United States"
        assert rec.gdp == 14_991_300_000
        assert rec.total_exports == 1_479_730_169
        assert rec.total_imports == 2_262_585_634

    def test_empty_data_section(self, tmp_path):
        assert load_countries(write(tmp_path, "c.csv", COUNTRIES_HEADER)) == []

    def test_negative_amount_names_line(self, tmp_path):
        path = write(
            tmp_path,
            "c.csv",
            COUNTRIES_HEADER + "AAA,Alpha,1,1,1\nBBB,Beta,-5,1,1\n",
        )
        with pytest.raises(NegativeAmountError, match=":3:"):
            load_countries(path)

    def test_missing_column(self, tmp_path):
        path = write(tmp_path, "c.csv", "code,name,gdp,total_exports\nAAA,Alpha,1,1\n")
        with pytest.raises(MissingColumnError, match="total_imports"):
            load_countries(path)

    def test_malformed_number_names_line(self, tmp_path):
        path = write(tmp_path, "c.csv", COUNTRIES_HEADER + "AAA,Alpha,abc,1,1\n")
        with pytest.raises(MalformedRowError, match=":2:"):
            load_countries(path)

    def test_wrong_field_count(self, tmp_path):
        path = write(tmp_path, "c.csv", COUNTRIES_HEADER + "AAA,Alpha,1,1\n")
        with pytest.raises(MalformedRowError, match=":2:"):
            load_countries(path)

    def test_duplicate_code_names_both_lines(self, tmp_path):
        path = write(
            tmp_path,
            "c.csv",
            COUNTRIES_HEADER + "AAA,Alpha,1,1,1\nAAA,Other,1,1,1\n",
        )
        with pytest.raises(DuplicateCountryError, match="line 2"):
            load_countries(path)

    def test_column_order_is_flexible(self, tmp_path):
        path = write(
            tmp_path,
            "c.csv",
            "name,code,total_imports,total_exports,gdp\nAlpha,AAA,3,2,1\n",
        )
        (rec,) = load_countries(path)
        assert (rec.gdp, rec.total_exports, rec.total_imports) == (1, 2, 3)


class TestLoadFlows:
    def test_parses_us_china_row(self, tmp_path):
        path = write(tmp_path, "f.csv", FLOWS_HEADER + "USA,CHN,103878414,417302859\n")
        (flow,) = load_flows(path)
        assert (flow.reporter, flow.partner) == ("USA", "CHN")
        assert flow.exports == 103_878_414
        assert flow.imports == 417_302_859

    def test_self_flow_rejected(self, tmp_path):
        path = write(tmp_path, "f.csv", FLOWS_HEADER + "USA,USA,1,1\n")
        with pytest.raises(SelfFlowError, match=":2:"):
            load_flows(path)

    def test_duplicate_pair_names_both_lines(self, tmp_path):
        path = write(
            tmp_path,
            "f.csv",
            FLOWS_HEADER + "USA,CHN,1,1\nCHN,USA,1,1\nUSA,CHN,2,2\n",
        )
        with pytest.raises(DuplicateFlowError, match="line 2") as exc:
            load_flows(path)
        assert ":4:" in str(exc.value)

    def test_negative_amount(self, tmp_path):
        path = write(tmp_path, "f.csv", FLOWS_HEADER + "USA,CHN,-1,1\n")
        with pytest.raises(NegativeAmountError, match=":2:"):
            load_flows(path)


class TestRoundTrip:
    def test_save_and_reload_identical(self, tmp_path):
        rng = np.random.default_rng(91)
        net = synthetic_network(generated_pairs(8), rng, density=0.4)
        save_countries(net.countries, tmp_path / "c.csv")
        save_flows(net.flows, tmp_path / "f.csv")
        reloaded = build_network(
            load_countries(tmp_path / "c.csv"), load_flows(tmp_path / "f.csv")
        )
        assert reloaded == net

    def test_carriage_return_in_name_round_trips(self, tmp_path):
        # a lone \r must be quoted, or a reader takes it for a line end
        records = [CountryRecord("AAA", "Alpha\rBeta", 1.0, 1.0, 1.0)]
        save_countries(records, tmp_path / "c.csv")
        assert load_countries(tmp_path / "c.csv") == records


# first fault of a flows file: the earliest line wins; within a line, field
# count, self-flow, duplicate pair, exports, then imports
FLOW_FAULTS = {
    "negative before later self-flow": (
        ["AAA,BBB,1,1", "AAA,CCC,-1,1", "BBB,AAA,1,1", "CCC,CCC,1,1"], NegativeAmountError, 3),
    "field count before later self-flow": (
        ["AAA,BBB,1,1", "AAA,CCC,1", "CCC,CCC,1,1"], MalformedRowError, 3),
    "self-flow before later field count": (
        ["AAA,BBB,1,1", "CCC,CCC,1,1", "AAA,CCC,1"], SelfFlowError, 3),
    "self-flow before negative on one line": (["AAA,AAA,-1,1"], SelfFlowError, 2),
    "duplicate before bad number on one line": (
        ["AAA,BBB,1,1", "AAA,BBB,abc,1"], DuplicateFlowError, 3),
    "exports before imports": (["AAA,BBB,nan,-1"], MalformedRowError, 2),
    "negative exports before bad imports": (["AAA,BBB,-1,abc"], NegativeAmountError, 2),
    "zero-trade row still counts for duplicates": (
        ["AAA,BBB,0,0", "AAA,BBB,1,1"], DuplicateFlowError, 3),
    "blank rows keep line numbers": (
        ["AAA,BBB,1,1", "", ",,,", "AAA,BBB,2,2"], DuplicateFlowError, 5),
    "field count after duplicate across blocks": (
        ["AAA,BBB,1,1", "BBB,AAA,1,1", "CCC,AAA,1,1", "AAA,BBB,1,1", "AAA"], DuplicateFlowError, 5),
}


class TestFlowFaultPrecedence:
    @pytest.mark.parametrize("block_rows", [2, ingestion._BLOCK_ROWS])
    @pytest.mark.parametrize("case", sorted(FLOW_FAULTS))
    def test_first_line_and_check_win(self, tmp_path, monkeypatch, case, block_rows):
        monkeypatch.setattr(ingestion, "_BLOCK_ROWS", block_rows)
        rows, error, line = FLOW_FAULTS[case]
        path = write(tmp_path, "f.csv", FLOWS_HEADER + "\n".join(rows) + "\n")
        with pytest.raises(error, match=f"f.csv:{line}:"):
            load_flows(path)

    def test_flows_file_is_checked_before_codes_resolve(self, tmp_path):
        countries = write(tmp_path, "c.csv", COUNTRIES_HEADER + "AAA,Alpha,1,1,1\nBBB,Beta,1,1,1\n")
        flows = write(tmp_path, "f.csv", FLOWS_HEADER + "AAA,ZZZ,1,1\nAAA,BBB,1,1\nAAA,BBB,1,1\n")
        with pytest.raises(DuplicateFlowError, match=":4:"):
            load_network(DatasetManifest(countries, flows))


class TestFlowMessages:
    @pytest.mark.parametrize(
        ("rows", "message"),
        [
            (["USA,USA,1,1"], "f.csv:2: flow (USA, USA) is a self-flow"),
            (
                ["USA,CHN,1,1", "CHN,USA,1,1", "USA,CHN,2,2"],
                "f.csv:4: duplicate flow record for pair (USA, CHN) already defined on line 2",
            ),
            (["USA,CHN,abc,1"], "f.csv:2: exports of flow (USA, CHN) is not a number: 'abc'"),
            (["USA,CHN,nan,x y"], "f.csv:2: exports of flow (USA, CHN) is not finite: nan"),
            (["USA,CHN,1, x y "], "f.csv:2: imports of flow (USA, CHN) is not a number: 'x y'"),
            (["USA,CHN,-1,1"], "f.csv:2: exports of flow (USA, CHN) is negative: -1.0"),
        ],
        ids=["self-flow", "duplicate", "not-a-number", "nan", "imports-not-a-number", "negative"],
    )
    def test_message_names_line_and_pair(self, tmp_path, rows, message):
        path = write(tmp_path, "f.csv", FLOWS_HEADER + "\n".join(rows) + "\n")
        with pytest.raises(Exception) as exc:
            load_flows(path)
        assert str(exc.value) == f"{tmp_path / message}"


# flow rows for the oracle: " AAA" strips to AAA, "ZZZ" names no country
ORACLE_CODES = ("AAA", " AAA", "BBB", "CCC", "ZZZ")
ORACLE_AMOUNTS = ("0", "1", "2.5") * 4 + ("-1", "nan", "abc", "inf", "-inf")
ORACLE_FLOW = st.tuples(
    *[st.sampled_from(ORACLE_CODES)] * 2, *[st.sampled_from(ORACLE_AMOUNTS)] * 2
).map(list)
# blank rows (skipped), then short and long rows (each ends the file)
ORACLE_ODD = st.sampled_from([
    [], ["", "", "", ""], [" ", "", "", ""],
    ["AAA", "BBB", "1"], ["AAA"], ["AAA", "BBB", "1", "1", "1"],
])
ORACLE_ROWS = st.lists(
    st.integers(0, 7).flatmap(lambda kind: ORACLE_ODD if kind == 0 else ORACLE_FLOW), max_size=10
)


def oracle(rows):
    """Outcome of loading ``rows`` (lists of cells, data lines from line 2 on).

    ``(error class, line)`` of the first faulty line, else the kept records
    as ``(reporter, partner, exports, imports)`` tuples.  A plain loop over
    the documented rules: blank rows are skipped; then field count,
    self-flow, pair on an earlier line, exports, imports.  Rows recording no
    trade are kept, as :func:`load_flows` keeps them.
    """
    seen, kept = set(), []
    for line, cells in enumerate(rows, start=2):
        if not any(cell.strip() for cell in cells):
            continue
        if len(cells) != 4:
            return MalformedRowError, line
        reporter, partner, *texts = (cell.strip() for cell in cells)
        if reporter == partner:
            return SelfFlowError, line
        if (reporter, partner) in seen:
            return DuplicateFlowError, line
        seen.add((reporter, partner))
        amounts = []
        for text in texts:
            try:
                amount = float(text)
            except ValueError:
                return MalformedRowError, line
            if amount != amount or amount in (float("inf"), float("-inf")):
                return MalformedRowError, line
            if amount < 0:
                return NegativeAmountError, line
            amounts.append(amount)
        kept.append((reporter, partner, *amounts))
    return kept


def records(flows):
    return [(f.reporter, f.partner, f.exports, f.imports) for f in flows]


class TestFlowOracle:
    @pytest.mark.parametrize("block_rows", [2, ingestion._BLOCK_ROWS])
    @settings(max_examples=150, deadline=None)
    @given(rows=ORACLE_ROWS)
    def test_load_flows_matches_oracle(self, block_rows, rows):
        expected = oracle(rows)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            ingestion, "_BLOCK_ROWS", block_rows
        ):
            path = Path(tmp) / "f.csv"
            path.write_text(FLOWS_HEADER + "".join(",".join(r) + "\n" for r in rows))
            if isinstance(expected, list):
                assert records(load_flows(path)) == expected
            else:
                error, line = expected
                with pytest.raises(error, match=f"f.csv:{line}: "):
                    load_flows(path)

    @settings(max_examples=150, deadline=None)
    @given(rows=ORACLE_ROWS)
    def test_build_network_matches_oracle_on_direct_tables(self, rows):
        # a table holds numbers, so a cell that does not parse becomes NaN;
        # cells holds each row's two codes, interned in order of appearance
        rows = [r for r in rows if len(r) == 4 and any(cell.strip() for cell in r)]
        numbers = [[cell.replace("abc", "nan") for cell in r] for r in rows]
        expected = oracle(numbers)
        cells = [cell.strip() for r in rows for cell in r[:2]]
        index = {code: i for i, code in enumerate(dict.fromkeys(cells))}
        table = FlowTable(
            tuple(index),
            [index[code] for code in cells[0::2]],
            [index[code] for code in cells[1::2]],
            [float(r[2]) for r in numbers],
            [float(r[3]) for r in numbers],
        )
        countries = [CountryRecord(c, f"Land {c}", 1.0, 1.0, 1.0) for c in ("AAA", "BBB", "CCC")]
        if isinstance(expected, list) and "ZZZ" in cells:
            row = next(i for i, r in enumerate(rows) if "ZZZ" in cells[2 * i : 2 * i + 2])
            expected = UnknownCountryError, row + 2
        if isinstance(expected, list):
            net = build_network(countries, table)
            assert records(net.flows) == sorted(r for r in expected if r[2:] != (0.0, 0.0))
        else:
            error, line = expected
            error = ValueError if error is MalformedRowError else error
            reporter, partner = cells[2 * (line - 2) : 2 * (line - 2) + 2]
            with pytest.raises(error, match=rf"\({reporter}, {partner}\)"):
                build_network(countries, table)


# Flows files for the differential test: rows of distinct pairs in padded
# cells (one more column, "note", when the header has it), then up to two odd
# rows or cells the C parser and the csv module might read apart
FUZZ_PAIRS = [
    (a, b) for a in ("AAA", "BBB", "CCC", "DDD", "EE") for b in ("AAA", "BBB", "EE") if a != b
]
FUZZ_PAD = st.sampled_from(["", "", "", " ", "\t", "\xa0", "  ", "\x1c", "\x1d", "\x1e", "\x1f"])
FUZZ_AMOUNT = st.sampled_from(["0", "1", "2.5", " 3 ", "1e5", "-0", "+1", ".5", "5.", "4.9e-325"])
FUZZ_ODD_ROWS = [[], ["", "", "", "", ""], [" ", "", "", "", ""], ["AAA", "BBB", "1"], [" "],
                 ["AAA", "BBB", "1", "1", "x", "1"]]
FUZZ_ODD_CELLS = (
    ["AAAA", "ABCDEFGHIJ", "AAA     X", '"AAA"', '"E"', '"A,B"', '"A\nB"', "#AA", "A\x00", ""],
    ["1_000", "nan", "inf", "-1", "abc", "1e400", "\u0661\u0662", "\uff11\uff12", '"7"', "",
     "0x10", "1\xa0", "Infinity", "1\x0c", "1\x1c", "nan(1)", "1e", "1,5"],
    ['"x', '"x,y"', "x\x00", "a b"],
)


FUZZ_PLAIN = dict(
    order=(*FLOW_COLUMNS, "note"), extra=False, ends=["\n"], bom=False,
    block_rows=ingestion._BLOCK_ROWS, quoting=None,
)


def fuzz_text(lines, ends, quoting):
    """The lines joined as written (``quoting=None``) or by a ``csv`` writer quoting that way.

    Under ``QUOTE_NONNUMERIC`` an amount cell ``float`` reads is written as a
    float, so the writer leaves it unquoted.
    """
    if quoting is None:
        return "".join(",".join(cells) + ends[i % len(ends)] for i, cells in enumerate(lines))
    buffer = io.StringIO()
    for i, cells in enumerate(lines):
        if quoting == csv.QUOTE_NONNUMERIC and i:
            cells = [amount_or_text(cell) for cell in cells]
        csv.writer(buffer, quoting=quoting, lineterminator=ends[i % len(ends)]).writerow(cells)
    return buffer.getvalue()


def amount_or_text(cell):
    try:
        return float(cell)
    except ValueError:
        return cell


@st.composite
def fuzz_rows(draw):
    """Data rows as lists of cells: reporter, partner, exports, imports, note."""
    pairs = draw(st.lists(st.sampled_from(FUZZ_PAIRS), unique=True, max_size=10))
    rows = [
        [draw(FUZZ_PAD) + code + draw(FUZZ_PAD) for code in pair]
        + [draw(FUZZ_PAD) + draw(FUZZ_AMOUNT) + draw(FUZZ_PAD) for _ in range(2)] + ["x"]
        for pair in pairs
    ]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(rows)))
        if at == len(rows) or len(rows[at]) != 5 or draw(st.booleans()):
            rows.insert(at, list(draw(st.sampled_from(FUZZ_ODD_ROWS))))
        else:
            column = draw(st.integers(0, 4))
            rows[at][column] = draw(st.sampled_from(FUZZ_ODD_CELLS[(0, 0, 1, 1, 2)[column]]))
    return rows


def outcome(read, path):
    """What ``read(path)`` returns, or its exception's class and message."""
    try:
        return read(path)
    except Exception as exc:  # noqa: BLE001 - the outcome compared is the exception
        return type(exc), str(exc)


class TestFastPath:
    @settings(max_examples=400, deadline=None)
    @given(
        rows=fuzz_rows(),
        order=st.permutations((*FLOW_COLUMNS, "note")),
        extra=st.booleans(),
        ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3),
        bom=st.booleans(),
        block_rows=st.sampled_from([2, 3, ingestion._BLOCK_ROWS]),
        quoting=st.sampled_from([None, csv.QUOTE_ALL, csv.QUOTE_MINIMAL, csv.QUOTE_NONNUMERIC]),
    )
    # one file per hazard: a NUL a fixed-width string drops, a separator numpy
    # skips around a number and one before a quote, a code cell cut short, a
    # "#" row, a quoted code, a quote opening a cell that runs to the end of
    # the file, blank rows across blocks with lone \r line ends; then
    # csv-quoted files: a doubled quote, a quoted separator and line end,
    # space outside the quotes, and quoted numbers read as amounts
    @example(rows=[["A\x00", "BBB", "1", "1", "x"]], **FUZZ_PLAIN)
    @example(rows=[["AAA", "BBB", "1\x1c", "0", "x"]], **FUZZ_PLAIN)
    @example(rows=[['\x1c"A,B"', "BBB", "1", "1", "x"]], **FUZZ_PLAIN)
    @example(rows=[["AAA     X", "BBB", "1", "1", "x"]], **FUZZ_PLAIN)
    @example(rows=[["#AA", "BBB", "1", "1", "x"]], **FUZZ_PLAIN)
    @example(rows=[['"E"', "BBB", "1", "1", "x"]], **FUZZ_PLAIN)
    @example(
        rows=[["AAA", "BBB", "1", "1", '"x'], ["BBB", "AAA", "1", "1", "x"]],
        **{**FUZZ_PLAIN, "extra": True},
    )
    @example(
        rows=[["AAA", "BBB", "1", "1", "x"], [], ["BBB", "AAA", "1", "1", "x"], [],
              ["EE", "AAA", "0", "0", "x"]],
        **{**FUZZ_PLAIN, "ends": ["\r"], "bom": True, "block_rows": 2},
    )
    @example(rows=[['A"A', "BBB", "1", "1", "x,y"]], **{**FUZZ_PLAIN, "quoting": csv.QUOTE_ALL})
    @example(
        rows=[["AAA", "BBB", "1", "1", "x\ny"], ["BBB", "AAA", "1", "1", "x\r\n"]],
        **{**FUZZ_PLAIN, "extra": True, "ends": ["\r\n"], "quoting": csv.QUOTE_MINIMAL},
    )
    @example(rows=[["AAA", "BBB", "1", "1", "x"], [' "BBB"', "AAA", "1", "1", "x"]], **FUZZ_PLAIN)
    @example(
        rows=[["AAA", "BBB", " 3 ", "1e5", "x"], ["BBB", "AAA", "1_000", "-0", "x"]],
        **{**FUZZ_PLAIN, "quoting": csv.QUOTE_NONNUMERIC},
    )
    # a note cell over csv's field limit, which the fast path read as "x"
    @example(rows=[["AAA", "BBB", "1", "1", "x" * 200_000]], **{**FUZZ_PLAIN, "extra": True})
    def test_fast_path_reads_the_block_parsers_table_or_defers(
        self, rows, order, extra, ends, bom, block_rows, quoting
    ):
        header = [c for c in order if extra or c != "note"]
        position = {c: i for i, c in enumerate((*FLOW_COLUMNS, "note"))}
        lines = [header] + [[r[position[c]] for c in header] if len(r) == 5 else r for r in rows]
        text = fuzz_text(lines, ends, quoting)
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            ingestion, "_BLOCK_ROWS", block_rows
        ):
            path = Path(tmp) / "f.csv"
            path.write_bytes(b"\xef\xbb\xbf" * bom + text.encode("utf-8"))
            fast, reason = ingestion._read_flows_fast(path)
            expected = outcome(ingestion._read_flows_blocks, path)
            event(f"fast path: {reason.partition(':')[0] or 'table'}")
            if fast is not None:
                if flow_fault(fast) is None:
                    assert fast == expected
                else:  # the block parser raises the fault
                    assert not isinstance(expected, FlowTable)
            assert outcome(load_flows, path) == expected

    def test_clean_file_takes_the_fast_path(self, tmp_path, caplog):
        path = write(tmp_path, "f.csv", FLOWS_HEADER + "AAA,BBB,1,1\nBBB,AAA,0,0\n")
        with caplog.at_level("DEBUG", logger="tradenet.ingestion"):
            load_flows(path)
        assert "block parser" not in caplog.text

    def test_clean_quoted_file_takes_the_fast_path(self, tmp_path, caplog):
        lines = [FLOW_COLUMNS, ["AAA", "BBB", "1", "1"], ["BBB", "AAA", "0", "0"]]
        path = write(tmp_path, "f.csv", fuzz_text(lines, ["\n"], csv.QUOTE_ALL))
        with caplog.at_level("DEBUG", logger="tradenet.ingestion"):
            assert load_flows(path) == FlowTable(("AAA", "BBB"), [0, 1], [1, 0], [1.0, 0.0], [1.0, 0.0])
        assert "block parser" not in caplog.text

    def test_deferral_names_its_reason(self, tmp_path, caplog):
        path = write(tmp_path, "f.csv", FLOWS_HEADER + "AAA\0,BBB,1,1\n")
        with caplog.at_level("DEBUG", logger="tradenet.ingestion"):
            load_flows(path)
        assert f"{path}: block parser used (NUL character)" in caplog.messages

    def test_line_over_csvs_field_limit_defers(self, tmp_path):
        # the fast path read the note as "x" and returned a table
        path = write(tmp_path, "f.csv", FLOWS_HEADER.strip() + ",note\nAAA,BBB,1,1," + "x" * 200_000 + "\n")
        assert ingestion._read_flows_fast(path) == (None, "65536 bytes with no line end")
        with pytest.raises(MalformedRowError) as exc:
            load_flows(path)
        assert str(exc.value) == f"{path}:2: field larger than field limit (131072)"

    def test_line_over_csvs_field_limit_across_reads_defers(self, tmp_path):
        # stretches of 50,000 bytes, 20 a read: the long line starts 20,000
        # bytes before the second read, so no stretch of the first holds it
        rows = "".join(f"AAA,BBB,1,{i:07d},x\n" for i in range(980_000 // 20))
        text = FLOWS_HEADER.strip() + ",note\n" + rows
        path = write(tmp_path, "f.csv", text + "AAA,CCC,1,1," + "x" * 100_001 + "\n")
        assert 980_000 < len(text) < 1_000_000
        previous = csv.field_size_limit(100_000)
        try:
            assert ingestion._read_flows_fast(path) == (None, "50000 bytes with no line end")
        finally:
            csv.field_size_limit(previous)

    @pytest.mark.parametrize("limit", [1 << 30, 2**63 - 1])
    def test_long_line_within_a_raised_field_limit_is_read(self, tmp_path, limit):
        path = write(tmp_path, "f.csv", FLOWS_HEADER.strip() + ",note\nAAA,BBB,1,1," + "x" * 3_000_000 + "\n")
        previous = csv.field_size_limit(limit)
        try:
            assert ingestion._read_flows_fast(path) == (None, f"{1 << 20} bytes with no line end")
            assert load_flows(path) == FlowTable(("AAA", "BBB"), [0], [1], [1.0], [1.0])
        finally:
            csv.field_size_limit(previous)

    @pytest.mark.parametrize(
        ("text", "message"),
        [
            ("reporter,partner,exports\nAAA,BBB,1\n", "missing column(s) imports"),
            ("\n" + FLOWS_HEADER, "missing column(s) reporter, partner, exports, imports"),
            ("", "file is empty, header row required"),
            (FLOWS_HEADER.strip() + ",exports\nAAA,BBB,1,2,9\n", "column(s) named twice exports"),
        ],
        ids=["missing-column", "blank-first-line", "empty", "column-twice"],
    )
    def test_header_fault_is_raised_without_deferral(self, tmp_path, caplog, text, message):
        path = write(tmp_path, "f.csv", text)
        with caplog.at_level("DEBUG", logger="tradenet.ingestion"):
            with pytest.raises(MissingColumnError) as exc:
                load_flows(path)
        assert str(exc.value) == f"{path}: {message}"
        assert "block parser" not in caplog.text

    @pytest.mark.parametrize("pad", ["\x1c", "\x1f", " \x1d\t"])
    def test_amount_cells_read_alike_in_both_files(self, tmp_path, pad):
        # float() rejects \x1c-\x1f, which str.strip removes: the flows file
        # refused a cell the countries file read
        countries = write(tmp_path, "c.csv", COUNTRIES_HEADER + f"AAA,Alpha,1{pad},1,1\n")
        flows = write(tmp_path, "f.csv", FLOWS_HEADER + f"AAA,BBB,1{pad},{pad}1\n")
        assert load_countries(countries)[0].gdp == 1.0
        table = load_flows(flows)
        assert (table.exports.tolist(), table.imports.tolist()) == ([1.0], [1.0])
        assert ingestion._read_flows_blocks(flows) == table

    @pytest.mark.parametrize("block_rows", [4096, ingestion._BLOCK_ROWS])
    def test_fast_path_peak_memory_within_block_parsers(self, tmp_path, monkeypatch, block_rows):
        # ~50k rows: at 4096 rows a block, reading the whole file at once would
        # more than double the fast path's peak and exceed the block parser's
        monkeypatch.setattr(ingestion, "_BLOCK_ROWS", block_rows)
        rng = np.random.default_rng(97)
        codes = [code for code, _ in generated_pairs(224)]
        pairs = [(a, b) for a in codes for b in codes if a != b]
        amounts = rng.lognormal(10.0, 2.0, (len(pairs), 2)).tolist()
        path = write(tmp_path, "f.csv", FLOWS_HEADER + "".join(
            f"{a},{b},{x!r},{y!r}\n" for (a, b), (x, y) in zip(pairs, amounts)
        ))

        def peak() -> int:
            tracemalloc.start()
            try:
                load_flows(path)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert ingestion._read_flows_fast(path)[0] is not None
        fast = peak()
        monkeypatch.setattr(ingestion, "_read_flows_fast", lambda path: (None, "block parser"))
        assert fast <= peak()


# first fault of a countries file: the earliest line wins; within a line,
# field count, duplicate code, gdp, total_exports, total_imports, code, name.
# Each case: rows, error, line, a fragment of the message naming the check.
COUNTRY_FAULTS = {
    "field count before later duplicate": (
        ["AAA,Alpha,1,1,1", "BBB,Beta,1,1", "AAA,Alpha,1,1,1"], MalformedRowError, 3, "fields"),
    "duplicate before later field count": (
        ["AAA,Alpha,1,1,1", "AAA,Other,1,1,1", "BBB,Beta,1"], DuplicateCountryError, 3, "line 2"),
    "bad code before later duplicate": (
        ["aa,Alpha,1,1,1", "BBB,Beta,1,1,1", "BBB,Beta,1,1,1"], MalformedRowError, 2, "code"),
    "negative before later bad code": (
        ["AAA,Alpha,-1,1,1", "bb,Beta,1,1,1"], NegativeAmountError, 2, "gdp"),
    "duplicate before negative on one line": (
        ["AAA,Alpha,1,1,1", "AAA,Other,-1,1,1"], DuplicateCountryError, 3, "line 2"),
    "gdp before total_exports": (["AAA,Alpha,abc,-1,1"], MalformedRowError, 2, "gdp"),
    "total_exports before total_imports": (
        ["AAA,Alpha,1,-1,abc"], NegativeAmountError, 2, "total_exports"),
    "total_imports before code": (["aa,Alpha,1,1,nan"], MalformedRowError, 2, "total_imports"),
    "code before name": (["aa,,1,1,1"], MalformedRowError, 2, "code"),
    "empty name": (["AAA,Alpha,1,1,1", "BBB,,1,1,1"], MalformedRowError, 3, "name"),
    "blank rows keep line numbers": (
        ["AAA,Alpha,1,1,1", "", ",,,,", "AAA,Other,1,1,1"], DuplicateCountryError, 5, "line 2"),
    "field count after duplicate across blocks": (
        ["AAA,A,1,1,1", "BBB,B,1,1,1", "CCC,C,1,1,1", "AAA,D,1,1,1", "AAA"],
        DuplicateCountryError, 5, "line 2"),
    "duplicate name before later negative": (
        ["AAA,Alpha,1,1,1", "BBB,Beta,1,1,1", "CCC,Alpha,1,1,1", "DDD,Beta,-1,1,1"],
        DuplicateCountryError, 4, "name 'Alpha' already defined on line 2"),
    "duplicate before later cell over csv's limit": (
        ["AAA,Alpha,1,1,1", "AAA,Other,1,1,1", "BBB," + "x" * 200_000 + ",1,1,1"],
        DuplicateCountryError, 3, "line 2"),
    "cell over csv's limit": (
        ["AAA,Alpha,1,1,1", "BBB," + "x" * 200_000 + ",1,1,1"],
        MalformedRowError, 3, "field larger than field limit"),
}


class TestCountryFaultPrecedence:
    @pytest.mark.parametrize("block_rows", [2, ingestion._BLOCK_ROWS])
    @pytest.mark.parametrize("case", sorted(COUNTRY_FAULTS))
    def test_first_line_and_check_win(self, tmp_path, monkeypatch, case, block_rows):
        monkeypatch.setattr(ingestion, "_BLOCK_ROWS", block_rows)
        rows, error, line, fragment = COUNTRY_FAULTS[case]
        path = write(tmp_path, "c.csv", COUNTRIES_HEADER + "\n".join(rows) + "\n")
        with pytest.raises(error, match=rf"c\.csv:{line}: .*{fragment}"):
            load_countries(path)


def not_utf8(path, data: bytes) -> str:
    """The message for the first byte of ``data`` that is not UTF-8, by an oracle.

    The oracle decodes the whole file at once and counts the line ends before
    the byte, as ``bytes.splitlines`` finds them: ``\\r``, ``\\n`` and ``\\r\\n``.
    """
    with pytest.raises(UnicodeDecodeError) as exc:
        data.decode()
    line = len((data[: exc.value.start] + b".").splitlines())
    return f"{path}:{line}: not UTF-8 text ({exc.value.reason})"


class TestReadFaults:
    @pytest.mark.parametrize("bom", [False, True])
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_byte_not_utf8_is_located_at_csvs_line(self, tmp_path, end, bom):
        # line 502 lies past the first 8 KiB the decoder reads
        codes = [code for code, _ in generated_pairs(600)]
        text = end.join([COUNTRIES_HEADER.strip(), *(f"{c},Nation {c},1,1,1" for c in codes), ""])
        data = text.encode().replace(f"Nation {codes[500]}".encode(), b"Nation \xff")
        path = tmp_path / "c.csv"
        path.write_bytes(b"\xef\xbb\xbf" * bom + data)
        with pytest.raises(MalformedRowError) as exc:
            load_countries(path)
        assert str(exc.value) == f"{path}:502: not UTF-8 text (invalid start byte)"

    @pytest.mark.parametrize("bom", [False, True])
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("kind", ["countries", "flows", "matrix", "ranking"])
    def test_earlier_fault_wins_over_a_byte_not_utf8(self, tmp_path, kind, end, bom):
        # the decoder refused the whole 8 KiB holding line 502, so its byte
        # was reported ahead of the fault on line 490, in the same 8 KiB
        codes = [code for code, _ in generated_pairs(601)]
        header, row, read, message = {
            "countries": (COUNTRIES_HEADER.strip(), lambda i: f"{codes[i]},Nation {i},1,1,1",
                          load_countries, f"code {codes[0]} already defined on line 2"),
            "flows": (FLOWS_HEADER.strip(), lambda i: f"{codes[i]},{codes[i + 1]},1,1", load_flows,
                      f"duplicate flow record for pair ({codes[0]}, {codes[1]}) already defined on line 2"),
            "matrix": ("code,AAX,ABX", lambda i: f"{codes[i]},0,1" if i >= 0 else "AAX,0,x",
                       read_matrix_csv, "could not convert string to float: 'x'"),
            "ranking": ("code,name,value,rank", lambda i: f"{codes[i]},Nation {i},0.5,{i + 1}",
                        _read_ranking, f"code {codes[0]} already defined on line 2"),
        }[kind]
        lines = [header, *map(row, range(600))]
        lines[489] = row(-1 if kind == "matrix" else 0)  # line 2's row again, or a cell 'x'
        lines[501] = "\udcff" + lines[501]  # the byte 0xff, written by surrogateescape
        path = tmp_path / f"{kind}.csv"
        path.write_bytes(b"\xef\xbb\xbf" * bom + end.join([*lines, ""]).encode("utf-8", "surrogateescape"))
        with pytest.raises(TradeNetError) as exc:
            read(path)
        assert str(exc.value) == f"{path}:490: {message}"

    @pytest.mark.parametrize(
        ("data", "line", "reason"),
        [
            (b'AAA,"Al\xffpha\nBeta",1,1,1\n', 2, "invalid start byte"),
            (b'AAA,"Alpha\nBe\xffta",1,1,1\n', 3, "invalid start byte"),
            (b'AAA,"Alpha\r\nBe\xffta\r\n",1,1,1\r\n', 3, "invalid start byte"),
            (b"AAA,Alpha,1,1,1\rBBB,Be\xfft,1,1,1\r", 3, "invalid start byte"),
            (b"AAA,Alpha,1,1,1\nBBB,Be\xfft,1\n", 3, "invalid start byte"),
            (b"AAA,Alpha\xc3\nBBB,Beta,1,1,1\n", 2, "invalid continuation byte"),
            (b"AAA,Alpha,1,1,1\nBBB,Beta,1,1,1\xc3\n", 3, "invalid continuation byte"),
            (b"AAA,Alpha,1,1,1\nBBB,Beta,1,1,1\xc3\r\n", 3, "invalid continuation byte"),
            (b'AAA,Alpha,1,1,1\nBBB,Beta,1,1,"1\xe2\x82"', 3, "invalid continuation byte"),
            (b"AAA,Alpha,1,1,1\nBBB,Beta,1,1,1\xc3", 3, "unexpected end of data"),
            (b"AAA,Alpha,1,1,1\nBBB,Beta,1,1,1\xf0\x9f\x98", 3, "unexpected end of data"),
            (b"AAA,\xed\xa0\x80,1,1,1\n", 2, "invalid continuation byte"),
        ],
        ids=["quoted-first-line", "quoted-second-line", "quoted-crlf", "cr-ends", "field-count",
             "cut-short-mid-file", "cut-short-last-line", "cut-short-crlf", "cut-short-quoted",
             "cut-short-end-of-file", "cut-short-end-of-file-4", "surrogate-encoded"],
    )
    def test_byte_not_utf8_reads_as_a_whole_decode_reads_it(self, tmp_path, data, line, reason):
        # a byte at the end of a line was seen without its line end, as at the end of the data
        path = tmp_path / "c.csv"
        path.write_bytes(COUNTRIES_HEADER.encode() + data)
        with pytest.raises(MalformedRowError) as exc:
            load_countries(path)
        assert str(exc.value) == not_utf8(path, path.read_bytes())
        assert str(exc.value) == f"{path}:{line}: not UTF-8 text ({reason})"

    @pytest.mark.parametrize(
        "read", [load_countries, lambda path: ingestion.csv_header(path, COUNTRY_COLUMNS)],
        ids=["load_countries", "csv_header"],
    )
    def test_byte_not_utf8_in_the_header_comes_before_its_columns(self, tmp_path, read):
        path = tmp_path / "c.csv"
        path.write_bytes(b"co\xffde,name\nAAA,Alpha\n")
        with pytest.raises(MalformedRowError) as exc:
            read(path)
        assert str(exc.value) == f"{path}:1: not UTF-8 text (invalid start byte)"

    @settings(max_examples=150, deadline=None)
    @given(
        rows=st.lists(st.lists(st.text(st.characters(blacklist_categories=["Cs"], blacklist_characters="\0"),
                                       max_size=6), min_size=3, max_size=3), max_size=8),
        ends=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=1, max_size=3),
        bom=st.booleans(),
        bad=st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xe2\x82", b"\xf0\x9f\x98", b"\xed\xa0\x80"]),
        at=st.floats(0, 1),
        block_rows=st.sampled_from([1, 2, ingestion._BLOCK_ROWS]),
    )
    def test_cells_yielded_hold_no_byte_not_utf8(self, rows, ends, bom, bad, at, block_rows):
        # rows written by csv, then a byte sequence that is not UTF-8 put anywhere after the header
        buffer = io.StringIO()
        for i, cells in enumerate([["a", "b", "c"], *rows]):
            csv.writer(buffer, lineterminator=ends[i % len(ends)]).writerow(cells)
        data = buffer.getvalue().encode()
        start = data.index(ends[0].encode()) + len(ends[0])
        cut = start + round(at * (len(data) - start))
        data = b"\xef\xbb\xbf" * bom + data[:cut] + bad + data[cut:]
        yielded = []
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(ingestion, "_BLOCK_ROWS", block_rows):
            path = Path(tmp) / "f.csv"
            path.write_bytes(data)
            with pytest.raises(MalformedRowError) as exc:
                for lines, cells in ingestion.csv_blocks(path, ("a", "b", "c")):
                    yielded += [cell for column in cells for cell in column]
            expected = not_utf8(path, data)
        got = str(exc.value)
        if "fields" in got:  # csv's writer leaves "\n" unquoted when lines end in "\r"
            assert int(got.split(":")[1]) < int(expected.split(":")[1])  # the earlier line wins
        else:
            assert got == expected
        assert not re.search("[\udc80-\udcff]", "".join(yielded))  # surrogateescape's bytes

    @pytest.mark.parametrize(
        ("read", "text", "twice"),
        [
            (load_countries, COUNTRIES_HEADER.strip() + ",gdp,name\nAAA,Alpha,1,1,1,2,Beta\n", "name, gdp"),
            (ingestion._read_flows_blocks, FLOWS_HEADER.strip() + ",exports\nAAA,BBB,1,2,9\n", "exports"),
        ],
        ids=["countries", "flows-block-parser"],
    )
    def test_column_named_twice_is_refused(self, tmp_path, read, text, twice):
        # the first copy used to be read and the second ignored; load_flows
        # is checked by test_header_fault_is_raised_without_deferral
        path = write(tmp_path, "f.csv", text)
        with pytest.raises(MissingColumnError) as exc:
            read(path)
        assert str(exc.value) == f"{path}: column(s) named twice {twice}"

    def test_column_not_read_may_be_named_twice(self, tmp_path):
        path = write(tmp_path, "f.csv", FLOWS_HEADER.strip() + ",note,note\nAAA,BBB,1,2,x,y\n")
        assert load_flows(path) == FlowTable(("AAA", "BBB"), [0], [1], [1.0], [2.0])


class TestByteOrderMark:
    @pytest.mark.parametrize("prefixed", [("c.csv",), ("f.csv",), ("c.csv", "f.csv")])
    def test_bom_prefixed_files_load_like_plain_ones(self, tmp_path, prefixed):
        rng = np.random.default_rng(96)
        net = synthetic_network(generated_pairs(6), rng, density=0.5)
        save_countries(net.countries, tmp_path / "c.csv")
        save_flows(net.flows, tmp_path / "f.csv")
        paths = {}
        for name in ("c.csv", "f.csv"):
            paths[name] = tmp_path / name
            if name in prefixed:
                paths[name] = tmp_path / f"bom_{name}"
                paths[name].write_bytes(b"\xef\xbb\xbf" + (tmp_path / name).read_bytes())
        assert load_network(DatasetManifest(paths["c.csv"], paths["f.csv"])) == net


# display names the CSV writer must quote or encode; the loader strips cells,
# so names carry no surrounding whitespace
AWKWARD_NAMES = st.text(
    alphabet=st.one_of(
        st.sampled_from(list(',"\' \n;\u00e9\u00fc\u4e2d\u0416')),
        st.characters(blacklist_categories=("Cs", "Cc")),
    ),
    min_size=1,
    max_size=10,
).map(str.strip).filter(bool)


@settings(max_examples=60, deadline=None)
@given(names=st.lists(AWKWARD_NAMES, min_size=1, max_size=6, unique=True), data=st.data())
def test_save_load_round_trip_keeps_awkward_names(names, data):
    amount = st.floats(min_value=0.5, max_value=1e12)
    codes = [code for code, _ in generated_pairs(len(names))]
    countries = [
        CountryRecord(code, name, data.draw(amount), data.draw(amount), data.draw(amount))
        for code, name in zip(codes, names)
    ]
    flows = [
        BilateralFlow(a, b, data.draw(amount), data.draw(amount))
        for a in codes
        for b in codes
        if a != b and data.draw(st.booleans())
    ]
    net = build_network(countries, flows)
    with tempfile.TemporaryDirectory() as tmp:
        c_path, f_path = Path(tmp) / "c.csv", Path(tmp) / "f.csv"
        save_countries(net.countries, c_path)
        save_flows(net.flows, f_path)
        assert load_network(DatasetManifest(c_path, f_path)) == net


class TestSubset:
    @pytest.fixture
    def network(self):
        rng = np.random.default_rng(92)
        return synthetic_network(generated_pairs(6), rng, density=0.7)

    def test_subset_to_all_is_identity(self, network):
        assert subset(network, network.codes) == network

    def test_flows_touching_removed_country_drop(self, network):
        keep = network.codes[:2]
        small = subset(network, keep)
        assert small.codes == keep
        for f in small.flows:
            assert f.reporter in keep and f.partner in keep

    def test_matches_filter_oracle(self, network):
        keep = set(network.codes[::2])
        small = subset(network, keep)
        expected = sorted(
            (f.reporter, f.partner)
            for f in network.flows
            if f.reporter in keep and f.partner in keep
        )
        assert sorted((f.reporter, f.partner) for f in small.flows) == expected

    def test_american_region_filter_on_synthetic_world(self):
        rng = np.random.default_rng(95)
        world = synthetic_network(AMERICAN_COUNTRIES + generated_pairs(20), rng, density=0.3)
        codes = [code for code, _ in AMERICAN_COUNTRIES]
        region = subset(world, codes)
        assert region.n == 35
        expected = sum(
            1 for f in world.flows if f.reporter in set(codes) and f.partner in set(codes)
        )
        assert len(region.flows) == expected

    def test_idempotent(self, network):
        keep = network.codes[1:4]
        assert subset(subset(network, keep), keep) == subset(network, keep)

    def test_aggregates_not_recomputed(self, network):
        small = subset(network, network.codes[:3])
        for rec in small.countries:
            assert rec == network.country(rec.code)

    def test_unknown_code_rejected(self, network):
        with pytest.raises(UnknownCountryError):
            subset(network, ["ZZZ"])


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), data=st.data())
def test_subset_matrix_equals_matrix_of_filtered_records(seed, data):
    world = synthetic_network(generated_pairs(8), np.random.default_rng(seed), density=0.5)
    keep = data.draw(st.sets(st.sampled_from(world.codes), min_size=1))
    records = [f for f in world.flows if f.reporter in keep and f.partner in keep]
    direct = build_network([c for c in world.countries if c.code in keep], records)
    for kind in WeightKind:
        assert np.array_equal(
            direct_matrix_quietly(subset(world, keep), kind).values,
            direct_matrix_quietly(direct, kind).values,
        )


class TestManifest:
    def test_zero_rows_dropped_and_counted(self, tmp_path, caplog):
        # load_flows keeps them; the count is taken before the region subset
        lands = "".join(f"{c},Land {c},1,1,1\n" for c in ("CHN", "MEX", "USA"))
        countries = write(tmp_path, "c.csv", COUNTRIES_HEADER + lands)
        rows = "USA,CHN,0,0\nCHN,USA,1,1\nUSA,MEX,0,-0\nMEX,USA,1,1\n"
        flows = write(tmp_path, "f.csv", FLOWS_HEADER + rows)
        assert len(load_flows(flows)) == 4
        with caplog.at_level("INFO", logger="tradenet.ingestion"):
            network = load_network(DatasetManifest(countries, flows, ("CHN", "USA")))
        assert records(network.flows) == [("CHN", "USA", 1.0, 1.0)]
        assert caplog.messages == [f"{flows}: dropped 2 zero-trade row(s)"]

    def test_load_network_with_region(self, tmp_path):
        rng = np.random.default_rng(93)
        net = synthetic_network(generated_pairs(5), rng, density=0.9)
        save_countries(net.countries, tmp_path / "c.csv")
        save_flows(net.flows, tmp_path / "f.csv")
        manifest = DatasetManifest(
            countries_path=tmp_path / "c.csv",
            flows_path=tmp_path / "f.csv",
            region_filter=net.codes[:3],
        )
        loaded = load_network(manifest)
        assert loaded == subset(net, net.codes[:3])

    def test_region_filter_must_resolve(self, tmp_path):
        rng = np.random.default_rng(94)
        net = synthetic_network(generated_pairs(3), rng, density=1.0)
        save_countries(net.countries, tmp_path / "c.csv")
        save_flows(net.flows, tmp_path / "f.csv")
        manifest = DatasetManifest(
            countries_path=tmp_path / "c.csv",
            flows_path=tmp_path / "f.csv",
            region_filter=("ZZZ",),
        )
        with pytest.raises(UnknownCountryError):
            load_network(manifest)

    def test_empty_paths_rejected(self):
        with pytest.raises(ValueError):
            DatasetManifest(countries_path="", flows_path="f.csv")
