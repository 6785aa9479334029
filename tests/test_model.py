import numpy as np
import pytest

from tradenet import (
    BilateralFlow,
    CountryRecord,
    FlowTable,
    InfluenceMatrix,
    MatrixKind,
    build_network,
    load_flows,
    save_flows,
    trade_influence,
)
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

    def test_flow_rejects_empty_trade(self):
        with pytest.raises(ValueError):
            BilateralFlow("AAA", "BBB", 0.0, 0.0)

    def test_flow_rejects_negative(self):
        with pytest.raises(NegativeAmountError):
            BilateralFlow("AAA", "BBB", -1.0, 2.0)

    def test_records_are_immutable(self):
        rec = CountryRecord("AAA", "Alpha", 1.0, 1.0, 1.0)
        with pytest.raises(AttributeError):
            rec.gdp = 5.0


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

    def test_unknown_flow_code_rejected(self):
        with pytest.raises(UnknownCountryError, match="ZZZ"):
            build_network(make_countries(), [BilateralFlow("AAA", "ZZZ", 1.0, 1.0)])

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
            (("AAA", "BBB"), 0, -1, 1.0, UnknownCountryError,
             r"indices \(0, -1\) outside the table's 2 codes"),
            (("AAA", "BBB"), 0, 5, 1.0, UnknownCountryError,
             r"indices \(0, 5\) outside the table's 2 codes"),
            # the table lists AAA twice: its two indices are one country
            (("AAA", "AAA"), 0, 1, 1.0, SelfFlowError, r"flow \(AAA, AAA\) is a self-flow"),
        ],
        ids=["self-flow", "negative", "nan", "index-minus-one", "index-past-end", "repeated-code"],
    )
    def test_table_built_directly_is_checked(
        self, codes, reporter, partner, exports, error, message
    ):
        # a FlowTable is not checked when it is made; build_network checks it
        table = FlowTable(codes, [reporter], [partner], [exports], [1.0])
        with pytest.raises(error, match=message):
            build_network(make_countries()[:2], table)

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
