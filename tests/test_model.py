import math
import re

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from tradenet import (
    BilateralFlow,
    CountryRecord,
    FlowTable,
    InfluenceMatrix,
    MatrixKind,
    TradeNetwork,
    build_network,
    load_countries,
    load_flows,
    save_countries,
    save_flows,
    trade_influence,
)
from tradenet.model import CLOSE_RTOL, first_fault, flow_fault, not_close
from tradenet.errors import (
    DuplicateCountryError,
    DuplicateFlowError,
    NegativeAmountError,
    SelfFlowError,
    UnknownCountryError,
)

from conftest import CHINA, US, US_CHINA_FLOWS


def make_countries():
    return [
        CountryRecord("AAA", "Alpha", 100.0, 10.0, 20.0),
        CountryRecord("BBB", "Beta", 200.0, 30.0, 40.0),
        CountryRecord("CCC", "Gamma", 300.0, 50.0, 60.0),
    ]


class TestRecords:
    def test_country_rejects_negative_amount(self):
        with pytest.raises(NegativeAmountError):
            CountryRecord("AAA", "Alpha", -1.0, 0.0, 0.0)

    @pytest.mark.parametrize("code", ["a", "ABCD", "ab", "A"])
    def test_country_rejects_bad_code(self, code):
        with pytest.raises(ValueError):
            CountryRecord(code, "Alpha", 1.0, 1.0, 1.0)

    def test_flow_rejects_self_trade(self):
        with pytest.raises(SelfFlowError, match=r"flow \(AAA, AAA\) is a self-flow"):
            BilateralFlow("AAA", "AAA", 1.0, 2.0)

    def test_flow_accepts_empty_trade(self):
        # a record of no trade is valid; build_network alone drops it
        flow = BilateralFlow("AAA", "BBB", 0.0, -0.0)
        assert flow.total == 0.0
        assert len(build_network(make_countries(), [flow]).flows) == 0

    def test_flow_rejects_negative(self):
        with pytest.raises(NegativeAmountError):
            BilateralFlow("AAA", "BBB", -1.0, 2.0)

    @pytest.mark.parametrize("name", [" Alpha", "Alpha\t", "\u3000Alpha "])
    def test_country_name_is_stored_as_a_file_reads_it_back(self, name, tmp_path):
        records = [CountryRecord("AAA", name, 1.0, 2.0, 3.0)]
        assert records[0].name == "Alpha"
        save_countries(records, tmp_path / "c.csv")
        assert load_countries(tmp_path / "c.csv") == records

    @pytest.mark.parametrize("name", ["", " ", "\t\u00a0"])
    def test_country_rejects_blank_name(self, name):
        # a blank name would be written to a countries file that refuses it
        with pytest.raises(ValueError, match=r"^country AAA has an empty name$"):
            CountryRecord("AAA", name, 1.0, 1.0, 1.0)

    def test_records_are_immutable(self):
        rec = CountryRecord("AAA", "Alpha", 1.0, 1.0, 1.0)
        with pytest.raises(AttributeError):
            rec.gdp = 5.0


# rows of distinct pairs, some trading nothing (-0.0 included)
TABLE_AMOUNT = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 1e300))
TABLE_ROWS = st.lists(
    st.tuples(st.sampled_from(["AAA", "BBB", "CCC", "DD"]), st.sampled_from(["AAA", "BBB", "EE"]),
              TABLE_AMOUNT, TABLE_AMOUNT).filter(lambda row: row[0] != row[1]),
    unique_by=lambda row: row[:2], max_size=8,
)


class TestFlowTable:
    @given(rows=TABLE_ROWS)
    def test_records_round_trip(self, rows):
        # codes in order of first appearance, reporter column before partner
        reporters, partners, exports, imports = ([row[k] for row in rows] for k in range(4))
        index = {code: i for i, code in enumerate(dict.fromkeys(reporters + partners))}
        reporter, partner = ([index[c] for c in codes] for codes in (reporters, partners))
        table = FlowTable(tuple(index), reporter, partner, exports, imports)
        assert flow_fault(table) is None
        assert FlowTable.from_records(list(table)) == table


@given(st.integers(0, 40).flatmap(lambda length: st.lists(
    st.lists(st.booleans(), min_size=length, max_size=length), min_size=1, max_size=4
)))
@example([[]])  # an empty table
@example([[False] * 3, [False] * 3])  # no fault
def test_first_fault_is_the_first_true_of_the_interleaved_masks(columns):
    # the oracle interleaves the masks row by row, as the rule reads them
    masks = [np.array(column, dtype=bool) for column in columns]
    flat = np.column_stack(masks).ravel()
    expected = divmod(int(flat.argmax()), len(masks)) if flat.any() else None
    assert first_fault(*masks) == expected


@given(st.floats(), st.floats())
@example(math.inf, 1.0)  # inf is not close to a finite value
@example(math.inf, math.inf)  # but equal values are close
@example(1e308, -1e308)  # two finite values whose difference overflows
@example(math.nan, math.nan)
def test_not_close_is_not_isclose(a, b):
    expected = not math.isclose(a, b, rel_tol=CLOSE_RTOL)
    assert not_close(np.array([a, b]), np.array([b, a])).tolist() == [expected, expected]
    assert not_close(np.array([a]), b).tolist() == [expected]


class TestBuildNetwork:
    def test_minimal_two_country_network(self):
        countries = make_countries()[:2]
        flows = [BilateralFlow("AAA", "BBB", 1.0, 2.0), BilateralFlow("BBB", "AAA", 3.0, 4.0)]
        net = build_network(countries, flows)
        assert net.n == 2
        assert len(net.flows) == 2

    def test_us_china_accepted_in_name_order(self):
        net = build_network([US, CHINA], US_CHINA_FLOWS)
        assert net.codes == ("CHN", "USA")  # China sorts before United States

    def test_duplicate_code_rejected(self):
        dup = CountryRecord("AAA", "Other", 1.0, 1.0, 1.0)
        with pytest.raises(DuplicateCountryError, match="AAA"):
            build_network(make_countries() + [dup], [])

    def test_duplicate_name_rejected(self):
        dup = CountryRecord("DDD", "Beta", 1.0, 1.0, 1.0)
        with pytest.raises(DuplicateCountryError, match="country name 'Beta' shared by BBB and DDD"):
            build_network(make_countries() + [dup], [])

    @pytest.mark.parametrize(
        ("codes", "reporter", "partner", "message"),
        [
            (("XXX", "AAA"), [0], [1], "flow (XXX, AAA) references unknown country XXX"),
            (("AAA", "YYY"), [0], [1], "flow (AAA, YYY) references unknown country YYY"),
            (("XXX", "YYY"), [0], [1], "flow (XXX, YYY) references unknown country XXX"),
            # the second row's unknown is its partner, the third's its reporter
            (("AAA", "BBB", "XXX", "YYY"), [0, 0, 2], [1, 3, 0],
             "flow (AAA, YYY) references unknown country YYY"),
        ],
        ids=["reporter", "partner", "both", "two-rows"],
    )
    def test_unknown_flow_code_rejected(self, codes, reporter, partner, message):
        amounts = np.ones(len(reporter))
        table = FlowTable(codes, reporter, partner, amounts, amounts)
        with pytest.raises(UnknownCountryError, match=f"^{re.escape(message)}$"):
            TradeNetwork(make_countries(), table)

    def test_duplicate_flow_rejected(self):
        flows = [BilateralFlow("AAA", "BBB", 1.0, 1.0), BilateralFlow("AAA", "BBB", 2.0, 2.0)]
        with pytest.raises(DuplicateFlowError):
            build_network(make_countries(), flows)

    @pytest.mark.parametrize(
        ("codes", "reporter", "partner", "exports", "error", "message"),
        [
            (("AAA", "BBB"), 0, 0, 1.0, SelfFlowError, r"flow \(AAA, AAA\) is a self-flow"),
            (("AAA", "BBB"), 0, 1, -3.0, NegativeAmountError,
             r"exports of flow \(AAA, BBB\) is negative"),
            (("AAA", "BBB"), 0, 1, float("nan"), ValueError,
             r"exports of flow \(AAA, BBB\) is not finite"),
        ],
        ids=["self-flow", "negative", "nan"],
    )
    def test_table_built_directly_is_checked(
        self, codes, reporter, partner, exports, error, message
    ):
        # a FlowTable checks its shape when it is made; build_network checks its rows
        table = FlowTable(codes, [reporter], [partner], [exports], [1.0])
        with pytest.raises(error, match=message):
            build_network(make_countries()[:2], table)

    @pytest.mark.parametrize(
        ("codes", "reporter", "partner", "error", "message"),
        [
            (("AAA", "BBB"), [0], [-1], UnknownCountryError,
             r"^flow row 0 has country indices \(0, -1\) outside the table's 2 codes$"),
            (("AAA", "BBB"), [0, 1], [1, 5], UnknownCountryError,
             r"^flow row 1 has country indices \(1, 5\) outside the table's 2 codes$"),
            (("AAA", "BBB", "AAA"), [0], [1], ValueError, r"^flow table lists code 'AAA' twice$"),
            (("AAA", "BBB"), [0, 1], [1], ValueError,
             r"^flow table columns must be 1-D and of one length, got shapes "),
            (("AAA", "BBB"), [[0, 1]], [[1, 0]], ValueError,
             r"^flow table columns must be 1-D and of one length, got shapes "),
            (("AAA", "BBB"), 0, 1, ValueError,
             r"^flow table columns must be 1-D and of one length, got shapes "),
        ],
        ids=["index-minus-one", "index-past-end", "repeated-code", "ragged", "two-d", "scalar"],
    )
    def test_table_refuses_bad_shape_when_made(self, codes, reporter, partner, error, message):
        # so save_flows cannot write index -1 as the last code, nor a ragged table's
        # first rows alone, and no reader of a table checks its indices again
        amounts = np.ones(np.shape(reporter))
        with pytest.raises(error, match=message):
            FlowTable(codes, reporter, partner, amounts, amounts)

    def test_table_checks_run_before_codes_resolve(self):
        # the duplicate on the third row wins over the unknown ZZZ on the first,
        # as it does for a flows file (load_network)
        flows = [
            BilateralFlow("AAA", "ZZZ", 1.0, 1.0),
            BilateralFlow("AAA", "BBB", 1.0, 1.0),
            BilateralFlow("AAA", "BBB", 1.0, 1.0),
        ]
        with pytest.raises(DuplicateFlowError, match=r"pair \(AAA, BBB\)"):
            build_network(make_countries(), flows)

    def test_zero_trade_row_in_table_is_dropped(self, tmp_path):
        countries = make_countries()[:2]
        # codes (AAA, BBB): AAA -> BBB trades nothing, BBB -> AAA trades
        table = FlowTable(("AAA", "BBB"), [0, 1], [1, 0], [0.0, 3.0], [0.0, 4.0])
        net = build_network(countries, table)
        assert net == build_network(countries, table.take([1]))
        assert list(net.flows) == [BilateralFlow("BBB", "AAA", 3.0, 4.0)]
        assert net.flow("AAA", "BBB") is None
        assert trade_influence(net, "AAA", "BBB") == 0.0
        save_flows(net.flows, tmp_path / "f.csv")
        assert load_flows(tmp_path / "f.csv") == FlowTable(("BBB", "AAA"), [0], [1], [3.0], [4.0])

    def test_network_made_directly_is_checked_and_ordered(self):
        # countries not in name order, and a table whose codes are in neither
        # name nor code order: BBB's flow to AAA, and CCC's to BBB
        countries = make_countries()
        table = FlowTable(("CCC", "BBB", "AAA"), [1, 0], [2, 1], [4.0, 1.0], [6.0, 2.0])
        net = TradeNetwork([countries[2], countries[0], countries[1]], table)
        assert net == build_network(countries, table)
        assert net.codes == ("AAA", "BBB", "CCC")
        assert list(net.flows) == [
            BilateralFlow("BBB", "AAA", 4.0, 6.0), BilateralFlow("CCC", "BBB", 1.0, 2.0)
        ]
        assert trade_influence(net, "BBB", "AAA") == 10.0 / 70.0
        assert trade_influence(net, "AAA", "BBB") == 0.0
        with pytest.raises(DuplicateCountryError, match="AAA"):
            TradeNetwork(countries + countries[:1], table)

    @given(data=st.data())
    def test_network_made_directly_from_any_order_equals_build_network(self, data):
        countries = make_countries() + [CountryRecord("DD", "Delta", 1.0, 1.0, 1.0)]
        flows = [
            BilateralFlow("AAA", "BBB", 1.0, 2.0), BilateralFlow("DD", "AAA", 3.0, 0.0),
            BilateralFlow("CCC", "DD", 0.0, 0.0), BilateralFlow("BBB", "CCC", 5.0, 6.0),
        ]
        codes = data.draw(st.permutations([c.code for c in countries]))
        rows = data.draw(st.permutations(flows))
        index = {code: i for i, code in enumerate(codes)}
        table = FlowTable(
            codes, [index[f.reporter] for f in rows], [index[f.partner] for f in rows],
            [f.exports for f in rows], [f.imports for f in rows],
        )
        net = TradeNetwork(data.draw(st.permutations(countries)), table)
        assert net == build_network(countries, flows)
        assert TradeNetwork(net.countries, net.flows) == net

    def test_flow_rows_follow_the_name_order(self):
        # code order (AAA, BBB, CCC) and name order (BBB, CCC, AAA) differ
        countries = [
            CountryRecord("AAA", "Zeta", 1.0, 1.0, 1.0),
            CountryRecord("BBB", "Alpha", 1.0, 1.0, 1.0),
            CountryRecord("CCC", "Mu", 1.0, 1.0, 1.0),
        ]
        codes = [c.code for c in countries]
        flows = [BilateralFlow(a, b, 1.0, 1.0) for a in codes for b in codes if a != b]
        net = build_network(countries, flows)
        assert net.codes == ("BBB", "CCC", "AAA")
        keys = net.flows.reporter * net.n + net.flows.partner
        assert np.all(np.diff(keys) > 0)

    def test_order_insensitive(self):
        countries = make_countries()
        flows = [BilateralFlow("AAA", "BBB", 1.0, 2.0), BilateralFlow("CCC", "AAA", 3.0, 4.0)]
        one = build_network(countries, flows)
        other = build_network(countries[::-1], flows[::-1])
        assert one == other

    def test_isolated_countries_are_kept(self):
        net = build_network(make_countries(), [BilateralFlow("AAA", "BBB", 1.0, 1.0)])
        assert "CCC" in net.codes
        assert net.reported_trade("CCC", "AAA") == 0.0

    def test_lookup_errors(self):
        net = build_network(make_countries(), [])
        with pytest.raises(UnknownCountryError):
            net.country("XXX")

    def test_flow_with_unknown_code_is_none(self):
        net = build_network(make_countries(), [BilateralFlow("AAA", "BBB", 1.0, 2.0)])
        assert net.flow("AAA", "BBB") == BilateralFlow("AAA", "BBB", 1.0, 2.0)
        assert net.flow("ZZZ", "BBB") is None
        assert net.flow("AAA", "ZZZ") is None
        assert net.reported_trade("ZZZ", "AAA") == 0.0


class TestInfluenceMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            InfluenceMatrix(("AAA",), np.zeros((1, 2)), MatrixKind.direct_trade())

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError):
            InfluenceMatrix(("AAA",), np.zeros((2, 2)), MatrixKind.direct_trade())

    def test_direct_requires_zero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            InfluenceMatrix(("AAA", "BBB"), np.identity(2), MatrixKind.direct_trade())

    def test_rejects_repeated_labels(self):
        with pytest.raises(ValueError, match="labels must be unique"):
            InfluenceMatrix(("AAA", "AAA"), np.zeros((2, 2)), MatrixKind.indirect("pwp"))

    def test_indirect_diagonal_unconstrained(self):
        m = InfluenceMatrix(("AAA", "BBB"), np.identity(2), MatrixKind.indirect("pwp"))
        assert m.entry("AAA", "AAA") == 1.0

    def test_entry_with_unknown_code_raises(self):
        m = InfluenceMatrix(("AAA", "BBB"), np.zeros((2, 2)), MatrixKind.direct_trade())
        with pytest.raises(UnknownCountryError, match=r"^unknown country code 'ZZZ'$"):
            m.entry("AAA", "ZZZ")
        with pytest.raises(UnknownCountryError, match=r"^unknown country code 'ZZZ'$"):
            m.index("ZZZ")

    def test_values_are_read_only(self):
        m = InfluenceMatrix(("AAA", "BBB"), np.zeros((2, 2)), MatrixKind.direct_trade())
        with pytest.raises(ValueError):
            m.values[0, 1] = 3.0

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            MatrixKind("direct")
        with pytest.raises(ValueError):
            MatrixKind("indirect")  # indirect needs a method
        with pytest.raises(ValueError):
            MatrixKind("direct-trade", method="pwp")
        assert str(MatrixKind.indirect("micmac", k=4)) == "indirect-micmac(k=4)"
