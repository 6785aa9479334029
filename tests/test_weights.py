import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradenet import (
    BilateralFlow,
    CountryRecord,
    FlowTable,
    WeightKind,
    build_direct_matrix,
    build_network,
    offer_influence,
    trade_influence,
)
from tradenet.errors import (
    ConsistencyWarning,
    IsolatedCountryError,
    UnknownCountryError,
    ZeroOfferDenominatorError,
)

from conftest import direct_matrix_quietly, generated_pairs, synthetic_network


class TestBilateralGoldens:
    """2011 US/China shares, validated against published percentages."""

    def test_trade_influence_of_china_on_us(self, us_china_network):
        assert trade_influence(us_china_network, "USA", "CHN") == pytest.approx(
            0.139, abs=5e-4
        )

    def test_trade_influence_of_us_on_china(self, us_china_network):
        assert trade_influence(us_china_network, "CHN", "USA") == pytest.approx(
            0.123, abs=5e-4
        )

    def test_offer_influence_of_china_on_us(self, us_china_network):
        assert offer_influence(us_china_network, "USA", "CHN") == pytest.approx(
            0.0302, abs=5e-4
        )

    def test_offer_influence_of_us_on_china(self, us_china_network):
        assert offer_influence(us_china_network, "CHN", "USA") == pytest.approx(
            0.0494, abs=5e-4
        )

    def test_matrix_matches_pairwise_values(self, us_china_network):
        m = direct_matrix_quietly(us_china_network, WeightKind.TRADE)
        assert m.labels == ("CHN", "USA")
        assert m.entry("CHN", "USA") == pytest.approx(0.123, abs=5e-4)
        assert m.entry("USA", "CHN") == pytest.approx(0.139, abs=5e-4)
        assert m.values[0, 0] == m.values[1, 1] == 0.0


class TestPairwiseEdgeCases:
    def test_missing_flow_is_zero(self):
        a = CountryRecord("AAA", "Alpha", 10.0, 5.0, 5.0)
        b = CountryRecord("BBB", "Beta", 10.0, 5.0, 5.0)
        net = build_network([a, b], [])
        assert trade_influence(net, "AAA", "BBB") == 0.0
        assert offer_influence(net, "AAA", "BBB") == 0.0

    def test_isolated_country(self):
        a = CountryRecord("AAA", "Alpha", 10.0, 0.0, 0.0)
        b = CountryRecord("BBB", "Beta", 10.0, 5.0, 5.0)
        net = build_network([a, b], [])
        with pytest.raises(IsolatedCountryError):
            trade_influence(net, "AAA", "BBB")

    def test_zero_offer_denominator(self):
        a = CountryRecord("AAA", "Alpha", 0.0, 5.0, 0.0)
        b = CountryRecord("BBB", "Beta", 10.0, 5.0, 5.0)
        net = build_network([a, b], [])
        with pytest.raises(ZeroOfferDenominatorError):
            offer_influence(net, "AAA", "BBB")

    def test_same_country_rejected(self, us_china_network):
        with pytest.raises(ValueError):
            trade_influence(us_china_network, "USA", "USA")

    def test_same_country_rejected_for_offer(self, us_china_network):
        with pytest.raises(ValueError, match="undefined for a country on itself"):
            offer_influence(us_china_network, "USA", "USA")

    def test_unknown_code(self, us_china_network):
        with pytest.raises(UnknownCountryError):
            trade_influence(us_china_network, "USA", "XXX")

    def test_pairwise_lookup_builds_no_n_by_n_table(self):
        # 1000 countries with 20 partners each, as in the benchmark's sweep
        # network; a table of flow rows by country pair would hold 8 MB
        n = 1000
        codes = [f"{chr(65 + i // 676)}{chr(65 + i // 26 % 26)}{chr(65 + i % 26)}" for i in range(n)]
        countries = [CountryRecord(code, f"Nation {code}", 100.0, 20.0, 20.0) for code in codes]
        reporter = np.repeat(np.arange(n), 20)
        partner = (reporter + np.tile(np.arange(1, 21), n)) % n
        ones = np.ones(len(reporter))
        net = build_network(countries, FlowTable(tuple(codes), reporter, partner, ones, ones))
        tracemalloc.start()
        try:
            share = trade_influence(net, codes[0], codes[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert share == 2.0 / 40.0
        assert peak < 1e6


class TestBuildDirectMatrix:
    def test_no_flows_gives_zero_matrix(self):
        net = build_network(
            [CountryRecord("AAA", "Alpha", 10.0, 1.0, 1.0),
             CountryRecord("BBB", "Beta", 10.0, 1.0, 1.0)],
            [],
        )
        for kind in WeightKind:
            m = direct_matrix_quietly(net, kind)
            assert not m.values.any()

    def test_consistent_trade_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        net = synthetic_network(generated_pairs(6), rng, density=0.8)
        m = build_direct_matrix(net, WeightKind.TRADE)
        sums = m.values.sum(axis=1)
        # brute-force row sums from the flow table
        for i, code in enumerate(net.codes):
            expected = sum(f.total for f in net.flows if f.reporter == code)
            expected /= net.country(code).total_trade
            assert sums[i] == pytest.approx(expected, abs=1e-12)
            assert sums[i] == pytest.approx(1.0, abs=1e-12)

    def test_offer_rows_sum_to_trade_over_offer(self):
        rng = np.random.default_rng(4)
        net = synthetic_network(generated_pairs(5), rng, density=0.9)
        m = build_direct_matrix(net, WeightKind.OFFER)
        for i, code in enumerate(net.codes):
            rec = net.country(code)
            assert m.values[i].sum() == pytest.approx(
                rec.total_trade / rec.offer, abs=1e-12
            )

    @pytest.mark.parametrize("kind", list(WeightKind))
    def test_share_too_large_for_a_float_is_refused(self, kind):
        # AAA's totals and GDP are subnormal: its share of BBB, 10 / 1e-310, overflows
        a = CountryRecord("AAA", "Alpha", 1e-310, 1e-310, 0.0)
        b = CountryRecord("BBB", "Beta", 10.0, 10.0, 10.0)
        net = build_network([a, b], [BilateralFlow("AAA", "BBB", 5.0, 5.0),
                                     BilateralFlow("BBB", "AAA", 5.0, 5.0)])
        influence = trade_influence if kind is WeightKind.TRADE else offer_influence
        message = r"^AAA's flows with BBB \(10\) over its .+ \(1e-310\) leave the floating-point range$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=message):
                build_direct_matrix(net, kind)
            with pytest.raises(OverflowError, match=message):
                influence(net, "AAA", "BBB")
            assert influence(net, "BBB", "AAA") == 0.5

    @pytest.mark.parametrize(
        ("kind", "denominator", "warnings_"),
        [(WeightKind.TRADE, "total trade", 1), (WeightKind.OFFER, r"GDP \+ imports", 0)],
        ids=["trade", "offer"],
    )
    def test_overflow_names_its_pair_past_a_row_left_at_zero(self, kind, denominator, warnings_):
        # AAA declares no trade but has a flow, which comes first in row order and
        # is not divided; BBB's totals and GDP are subnormal, so 10 / 1e-310 overflows
        countries = [
            CountryRecord("AAA", "Alpha", 100.0, 0.0, 0.0),
            CountryRecord("BBB", "Beta", 1e-310, 1e-310, 0.0),
            CountryRecord("CCC", "Gamma", 100.0, 10.0, 10.0),
        ]
        net = build_network(countries, [BilateralFlow("AAA", "CCC", 1.0, 1.0),
                                        BilateralFlow("BBB", "CCC", 5.0, 5.0)])
        message = (rf"^BBB's flows with CCC \(10\) over its {denominator} \(1e-310\) "
                   "leave the floating-point range$")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(OverflowError, match=message):
                build_direct_matrix(net, kind)
        assert [str(w.message) for w in caught] == warnings_ * [
            "flows of 1 country have no declared trade totals to divide by "
            "(rows left at zero, ratio undefined); first: AAA"
        ]

    @pytest.mark.parametrize(
        ("kind", "gdp", "exports", "denominator"),
        [(WeightKind.TRADE, 1.0, 1e308, "total trade"), (WeightKind.OFFER, 1e308, 1.0, r"GDP \+ imports")],
        ids=["trade", "offer"],
    )
    def test_denominator_past_the_float_range_is_refused(self, kind, gdp, exports, denominator):
        # AAA's denominator sums to inf: every share of it would be 0, its row all
        # zero, and the consistency check silent, since 10 is not "far" from inf
        a = CountryRecord("AAA", "Alpha", gdp, exports, 1e308)
        b = CountryRecord("BBB", "Beta", 1.0, 1.0, 1.0)
        net = build_network([a, b], [BilateralFlow("AAA", "BBB", 5.0, 5.0),
                                     BilateralFlow("BBB", "AAA", 1.0, 1.0)])
        influence = trade_influence if kind is WeightKind.TRADE else offer_influence
        message = rf"^AAA's {denominator} leaves the floating-point range$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=message):
                build_direct_matrix(net, kind)
            with pytest.raises(OverflowError, match=message):
                influence(net, "AAA", "BBB")
            assert influence(net, "BBB", "AAA") == 1.0

    def test_inconsistent_totals_warn_with_ratio(self):
        a = CountryRecord("AAA", "Alpha", 100.0, 10.0, 10.0)  # declares 20
        b = CountryRecord("BBB", "Beta", 100.0, 5.0, 5.0)
        net = build_network([a, b], [BilateralFlow("AAA", "BBB", 3.0, 2.0),
                                     BilateralFlow("BBB", "AAA", 4.0, 6.0)])
        with pytest.warns(ConsistencyWarning, match="AAA"):
            m = build_direct_matrix(net, WeightKind.TRADE)
        assert m.values.sum(axis=1)[0] == pytest.approx(5.0 / 20.0)

    def test_one_warning_names_count_and_furthest_country(self):
        countries = [
            CountryRecord("AAA", "Alpha", 100.0, 10.0, 10.0),  # flows 5 of 20: 0.25
            CountryRecord("BBB", "Beta", 100.0, 5.0, 5.0),  # flows 10 of 10
            CountryRecord("CCC", "Gamma", 100.0, 4.0, 4.0),  # flows 6 of 8: 0.75
            CountryRecord("DDD", "Delta", 100.0, 2.0, 2.0),  # flows 6 of 4: 1.5
        ]
        flows = [
            BilateralFlow("AAA", "BBB", 3.0, 2.0),
            BilateralFlow("BBB", "AAA", 4.0, 6.0),
            BilateralFlow("CCC", "AAA", 3.0, 3.0),
            BilateralFlow("DDD", "CCC", 3.0, 3.0),
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            build_direct_matrix(build_network(countries, flows), WeightKind.TRADE)
        assert [str(w.message) for w in caught] == [
            "flows of 3 countries do not sum to their declared totals; furthest: AAA at 0.25"
        ]
        assert caught[0].category is ConsistencyWarning

    def test_tolerance_is_symmetric_like_isclose(self):
        # |a - b| lies between 1e-9*b and 1e-9*a: math.isclose calls the pair
        # close, a tolerance relative to the declared side alone would not
        recorded, declared = 673495.000673495, 673495.0
        assert math.isclose(recorded, declared, rel_tol=1e-9)
        assert abs(recorded - declared) > 1e-9 * declared
        countries = [
            CountryRecord("AAA", "Alpha", 1.0, declared, 0.0),
            CountryRecord("BBB", "Beta", 1.0, 0.0, 0.0),
        ]
        net = build_network(countries, [BilateralFlow("AAA", "BBB", recorded, 0.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConsistencyWarning)
            build_direct_matrix(net, WeightKind.TRADE)

    def test_flows_summing_past_the_float_range_are_counted_at_inf(self):
        # AAA's flows sum to inf over its declared 1e308, so its row sums to 2; the
        # closeness rule used to call inf close to any finite total, and stayed silent
        countries = [
            CountryRecord("AAA", "Alpha", 1.0, 1e308, 0.0),
            CountryRecord("BBB", "Beta", 1.0, 0.0, 0.0),
            CountryRecord("CCC", "Gamma", 1.0, 0.0, 0.0),
        ]
        net = build_network(countries, [BilateralFlow("AAA", "BBB", 1e308, 0.0),
                                        BilateralFlow("AAA", "CCC", 1e308, 0.0)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            m = build_direct_matrix(net, WeightKind.TRADE)
        assert [str(w.message) for w in caught] == [
            "flows of 1 country do not sum to their declared totals; furthest: AAA at inf"
        ]
        assert m.values.sum(axis=1).tolist() == [2.0, 0.0, 0.0]

    def test_isolated_country_gets_zero_row(self):
        a = CountryRecord("AAA", "Alpha", 100.0, 0.0, 0.0)
        b = CountryRecord("BBB", "Beta", 100.0, 5.0, 5.0)
        net = build_network([a, b], [BilateralFlow("BBB", "AAA", 5.0, 5.0)])
        m = build_direct_matrix(net, WeightKind.TRADE)
        assert not m.values[0].any()
        assert m.values[1].sum() == pytest.approx(1.0)

    def test_offer_kind_rejects_zero_offer_with_flows(self):
        a = CountryRecord("AAA", "Alpha", 0.0, 5.0, 0.0)
        b = CountryRecord("BBB", "Beta", 100.0, 5.0, 5.0)
        net = build_network([a, b], [BilateralFlow("AAA", "BBB", 5.0, 0.0)])
        with pytest.raises(ZeroOfferDenominatorError, match="AAA"):
            build_direct_matrix(net, WeightKind.OFFER)

    def test_countries_without_totals_give_one_warning(self):
        # three countries record flows to DDD but declare no trade, GDP or imports
        countries = [
            CountryRecord("AAA", "Alpha", 0.0, 0.0, 0.0),
            CountryRecord("BBB", "Beta", 0.0, 0.0, 0.0),
            CountryRecord("CCC", "Gamma", 0.0, 0.0, 0.0),
            CountryRecord("DDD", "Delta", 100.0, 5.0, 5.0),
        ]
        flows = [BilateralFlow(code, "DDD", 1.0, 1.0) for code in ("AAA", "BBB", "CCC")]
        net = build_network(countries, flows + [BilateralFlow("DDD", "AAA", 5.0, 5.0)])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            m = build_direct_matrix(net, WeightKind.TRADE)
        assert [str(w.message) for w in caught if "trade totals" in str(w.message)] == [
            "flows of 3 countries have no declared trade totals to divide by "
            "(rows left at zero, ratio undefined); first: AAA"
        ]
        assert len(caught) == 1
        assert not m.values[[net.index(c) for c in ("AAA", "BBB", "CCC")]].any()
        with pytest.raises(ZeroOfferDenominatorError, match="^AAA has flow records"):
            build_direct_matrix(net, WeightKind.OFFER)

    def test_positive_entry_iff_flow_exists(self):
        rng = np.random.default_rng(5)
        net = synthetic_network(generated_pairs(6), rng, density=0.4)
        for kind in WeightKind:
            m = build_direct_matrix(net, kind)
            for i, a in enumerate(net.codes):
                for j, b in enumerate(net.codes):
                    if i == j:
                        continue
                    assert (m.values[i, j] > 0) == (net.flow(a, b) is not None)

    def test_offer_below_trade_when_gdp_dominates(self):
        rng = np.random.default_rng(6)
        net = synthetic_network(generated_pairs(5), rng, density=0.9)  # gdp > exports
        trade = build_direct_matrix(net, WeightKind.TRADE)
        offer = build_direct_matrix(net, WeightKind.OFFER)
        assert (offer.values <= trade.values + 1e-18).all()
        assert (offer.values >= 0).all()


class TestWorkingSet:
    """What :func:`build_direct_matrix` allocates besides its matrix."""

    @pytest.mark.parametrize("kind", list(WeightKind), ids=lambda kind: kind.value)
    def test_peak_memory_is_two_matrices_and_few_columns(self, kind):
        # every ordered pair of 300 countries, each row summing to its declared
        # totals; the matrix is made, then copied by InfluenceMatrix, and the
        # columns are the rows' totals, divisors and shares.  The 0.5 leaves room
        # for the boolean masks and the per-country arrays.
        n = 300
        codes = [code for code, _ in generated_pairs(n)]
        countries = [CountryRecord(code, code, 1e3, n - 1.0, n - 1.0) for code in codes]
        reporter, partner = np.divmod(np.arange(n * n), n)
        rows = reporter != partner
        ones = np.ones(rows.sum())
        table = FlowTable(tuple(codes), reporter[rows], partner[rows], ones, ones)
        net = build_network(countries, table)
        tracemalloc.start()
        try:
            build_direct_matrix(net, kind)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix, column = n * n * 8, len(net.flows) * 8
        assert (peak - 2 * matrix) / column <= 3.5


@settings(max_examples=50, deadline=None)
@given(
    exports=st.floats(min_value=1.0, max_value=1e9),
    imports=st.floats(min_value=1.0, max_value=1e9),
    bump=st.floats(min_value=1e-3, max_value=1e9),
)
def test_increasing_a_flow_increases_only_its_entry(exports, imports, bump):
    countries = [
        CountryRecord("AAA", "Alpha", 1e10, 2e9, 2e9),
        CountryRecord("BBB", "Beta", 1e10, 2e9, 2e9),
        CountryRecord("CCC", "Gamma", 1e10, 2e9, 2e9),
    ]
    base_flows = [
        BilateralFlow("AAA", "BBB", exports, imports),
        BilateralFlow("AAA", "CCC", 1e6, 1e6),
        BilateralFlow("CCC", "AAA", 1e6, 1e6),
    ]
    bumped_flows = [
        BilateralFlow("AAA", "BBB", exports + bump, imports),
        base_flows[1],
        base_flows[2],
    ]
    before = direct_matrix_quietly(build_network(countries, base_flows), WeightKind.TRADE)
    after = direct_matrix_quietly(build_network(countries, bumped_flows), WeightKind.TRADE)
    assert after.entry("AAA", "BBB") > before.entry("AAA", "BBB")
    untouched = np.ones((3, 3), dtype=bool)
    untouched[before.index("AAA"), before.index("BBB")] = False
    assert np.array_equal(before.values[untouched], after.values[untouched])


def reference_direct(countries, flows, kind):
    """Per-flow loop over the input records: entry = flow total / reporter's denominator."""
    codes = [rec.code for rec in sorted(countries, key=lambda rec: rec.name)]
    by_code = {rec.code: rec for rec in countries}
    values = np.zeros((len(codes), len(codes)))
    for flow in flows:
        rec = by_code[flow.reporter]
        denom = rec.total_trade if kind is WeightKind.TRADE else rec.offer
        if denom > 0:
            values[codes.index(flow.reporter), codes.index(flow.partner)] = flow.total / denom
    return values


AMOUNT = st.floats(min_value=0.0, max_value=1e12)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=8))
def test_direct_matrix_equals_per_flow_loop(data, n):
    pairs = generated_pairs(n)
    # a country either reports flows (and declares positive totals) or is a
    # zero row, possibly fully isolated with zero totals and zero GDP
    reports = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    countries = []
    for (code, name), active in zip(pairs, reports):
        low = 1.0 if active else 0.0
        amount = st.floats(min_value=low, max_value=1e12)
        gdp, exports, imports = (data.draw(amount) for _ in range(3))
        countries.append(CountryRecord(code, name, gdp, exports, imports))
    flows = []
    for (a, _), active in zip(pairs, reports):
        for b, _ in pairs:
            if active and a != b and data.draw(st.booleans()):
                exports, imports = data.draw(
                    st.tuples(AMOUNT, AMOUNT).filter(lambda amounts: any(amounts))
                )
                flows.append(BilateralFlow(a, b, exports, imports))
    net = build_network(countries, flows)
    for kind in WeightKind:
        got = direct_matrix_quietly(net, kind).values
        assert np.array_equal(got, reference_direct(countries, flows, kind))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=6))
def test_flow_lookup_is_the_record_iteration_builds(data, n):
    # reported_trade, which trade_influence divides, reads TradeNetwork.flow;
    # both must agree with the records iterating the network's table yields
    pairs = generated_pairs(n)
    countries = [CountryRecord(code, name, 1.0, 1.0, 1.0) for code, name in pairs]
    flows = [
        BilateralFlow(a, b, *data.draw(st.tuples(AMOUNT, AMOUNT).filter(any)))
        for a, _ in pairs
        for b, _ in pairs
        if a != b and data.draw(st.booleans())
    ]
    net = build_network(countries, data.draw(st.permutations(flows)))
    records = {(flow.reporter, flow.partner): flow for flow in net.flows}
    codes = [*net.codes, "ZZZ"]  # generated codes end in X, so ZZZ is unknown
    for a in codes:
        for b in codes:
            record = records.get((a, b))
            assert net.flow(a, b) == record
            assert net.reported_trade(a, b) == (0.0 if record is None else record.total)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=8))
def test_consistency_warning_counts_like_isclose(data, n):
    pairs = generated_pairs(n)
    countries = [
        CountryRecord(code, name, 1.0, *data.draw(st.tuples(AMOUNT, AMOUNT)))
        for code, name in pairs
    ]
    flows = [
        BilateralFlow(a, b, *data.draw(st.tuples(AMOUNT, AMOUNT).filter(any)))
        for a, _ in pairs
        for b, _ in pairs
        if a != b and data.draw(st.booleans())
    ]
    net = build_network(countries, flows)
    reported = {code: 0.0 for code in net.codes}
    for flow in net.flows:
        reported[flow.reporter] += flow.total
    mismatched = [
        code
        for code in net.codes
        if net.country(code).total_trade > 0
        and not math.isclose(reported[code], net.country(code).total_trade, rel_tol=1e-9)
    ]
    # a country with flows but no declared totals gets its own summary, ahead
    # of the mismatch one; it is never counted as mismatched
    undivided = [
        code for code in net.codes if net.country(code).total_trade == 0 and reported[code] > 0
    ]
    # a share too large for a float (a subnormal total, say) is refused, naming
    # the first such flow, after the zero-totals summary and before the mismatch one
    overflowing = [
        flow for flow in net.flows
        if net.country(flow.reporter).total_trade > 0
        and flow.total / net.country(flow.reporter).total_trade == math.inf
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if overflowing:
            first = overflowing[0]
            with pytest.raises(OverflowError, match=f"^{first.reporter}'s flows with {first.partner} "):
                build_direct_matrix(net, WeightKind.TRADE)
            mismatched = []
        else:
            build_direct_matrix(net, WeightKind.TRADE)
    summaries = [str(w.message) for w in caught if str(w.message).startswith("flows of ")]

    def counted(codes):
        return f"flows of {len(codes)} {'country' if len(codes) == 1 else 'countries'}"

    expected = []
    if undivided:
        expected.append(
            f"{counted(undivided)} have no declared trade totals to divide by "
            f"(rows left at zero, ratio undefined); first: {undivided[0]}"
        )
    if mismatched:
        ratio = {code: reported[code] / net.country(code).total_trade for code in mismatched}
        furthest = max(mismatched, key=lambda code: abs(ratio[code] - 1.0))
        expected.append(
            f"{counted(mismatched)} do not sum to their declared totals; "
            f"furthest: {furthest} at {ratio[furthest]:.6g}"
        )
    assert summaries == expected
