import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tradenet import (
    InfluenceMatrix,
    MatrixKind,
    column_normalize,
    normalized_increment,
    pagerank_limit,
    pair_connectedness,
    plane,
    pwp,
    rank,
    ranking_distance,
)
from tradenet.errors import (
    DomainMismatchError,
    EmptyNetworkError,
    LabelMismatchError,
    NotAPermutationError,
    ZeroDirectEntryError,
)

from conftest import (
    direct_matrix_quietly,
    drop_intermediary,
    triangle_offer_matrix,
    triangle_trade_matrix,
)
from tradenet import WeightKind


def labelled(values, kind=None):
    n = len(values)
    labels = tuple(f"C{i}X" for i in range(n))
    return InfluenceMatrix(labels, values, kind or MatrixKind.indirect("pwp"))


class TestPlane:
    def test_uniform_matrix_puts_everyone_in_sector_three(self):
        values = np.full((4, 4), 0.2)
        np.fill_diagonal(values, 0.0)
        points = plane(labelled(values, MatrixKind.direct_trade()))
        assert all(p.sector == 3 for p in points)
        assert len({(p.dependence, p.influence) for p in points}) == 1

    def test_zero_matrix_all_origin_sector_three(self):
        points = plane(labelled(np.zeros((3, 3))))
        assert all(p.dependence == 0 and p.influence == 0 and p.sector == 3 for p in points)

    def test_dominant_exporter_lands_in_sector_one(self):
        # C2X exerts most influence (heavy column) but depends on little
        values = np.array(
            [
                [0.0, 0.1, 0.8],
                [0.1, 0.0, 0.7],
                [0.05, 0.05, 0.0],
            ]
        )
        points = {p.code: p for p in plane(labelled(values, MatrixKind.direct_trade()))}
        assert points["C2X"].sector == 1
        assert points["C0X"].sector == 4
        assert points["C1X"].sector == 4

    def test_pagerank_influences_sit_on_the_mean(self):
        # rank-one output: every influence is the stationary vector's sum, 1,
        # so no country is influential, whatever the rounding of the sums
        rng = np.random.default_rng(73)
        raw = rng.uniform(size=(150, 150)) * (rng.uniform(size=(150, 150)) < 0.1)
        np.fill_diagonal(raw, 0.0)
        points = plane(labelled(pagerank_limit(column_normalize(raw))))
        assert {p.sector for p in points} == {3, 4}

    def test_full_coverage_trade_dependences_sit_on_the_mean(self):
        # every trade-share row sums to 1, and pwp keeps the row sums, so no
        # country is dependent, whatever the rounding of the sums
        rng = np.random.default_rng(74)
        d = rng.uniform(size=(150, 150)) * (rng.uniform(size=(150, 150)) < 0.1)
        np.fill_diagonal(d, 0.0)
        d /= d.sum(axis=1, keepdims=True)
        points = plane(labelled(pwp(d, 1.0)))
        assert {p.sector for p in points} == {1, 3}

    def test_sectors_partition(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            points = plane(labelled(rng.uniform(size=(6, 6))))
            for p in points:
                assert p.sector in (1, 2, 3, 4)

    def test_empty_matrix_rejected(self):
        with pytest.raises(EmptyNetworkError):
            plane(InfluenceMatrix((), np.zeros((0, 0)), MatrixKind.direct_trade()))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("analysis", [lambda m: rank(m, "influence"), plane], ids=["rank", "plane"])
def test_non_finite_entry_never_reaches_analysis(analysis, bad):
    # rank and plane used to order nan without a word: with nan at [0, 2], AAA's
    # dependence was nan and ranked 2, and plane put AAA and CCC in sector 3
    values = np.array([[0.0, 0.5, bad], [0.5, 0.0, 0.2], [0.1, 0.5, 0.0]])
    with pytest.raises(ValueError, match=rf"^entry at row AAA, column CCC is {bad}, not finite$"):
        analysis(InfluenceMatrix(("AAA", "BBB", "CCC"), values, MatrixKind.direct_trade()))


class TestRank:
    def test_two_countries(self):
        values = np.array([[0.0, 0.3], [0.7, 0.0]])
        report = rank(labelled(values), "influence")
        # column sums: C0X gets 0.7, C1X gets 0.3
        assert [r.code for r in report.rows] == ["C0X", "C1X"]
        assert [r.rank_by_influence for r in report.rows] == [1, 2]

    def test_ties_break_by_label_order(self):
        values = np.full((3, 3), 0.5)
        np.fill_diagonal(values, 0.0)
        report = rank(labelled(values), "connectedness")
        assert [r.code for r in report.rows] == ["C0X", "C1X", "C2X"]
        assert [r.rank_by_connectedness for r in report.rows] == [1, 2, 3]

    def test_rounding_noise_ties(self):
        # every row sums to 1 in exact arithmetic; the computed sums differ in
        # their last bits, which used to decide the dependence order
        values = np.random.default_rng(76).uniform(size=(40, 40))
        values /= values.sum(axis=1, keepdims=True)
        assert len(set(values.sum(axis=1).tolist())) > 1
        report = rank(labelled(values), "dependence")
        assert [r.code for r in report.rows] == list(labelled(values).labels)

    def test_values_within_the_tolerance_of_their_neighbour_tie(self):
        # a tie chains through neighbours in descending order; a wider gap splits
        values = np.diag([1.0, 1.0 + 0.6e-9, 1.0 + 1.2e-9, 1.0 + 3e-9])
        report = rank(labelled(values), "dependence")
        assert [r.code for r in report.rows] == ["C3X", "C0X", "C1X", "C2X"]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(72)
        values = rng.uniform(size=(6, 6))
        m = labelled(values)
        report = rank(m, "dependence")
        dependence = dict(zip(m.labels, values.sum(axis=1)))
        oracle = sorted(m.labels, key=lambda c: (-dependence[c], m.labels.index(c)))
        assert [r.code for r in report.rows] == oracle

    def test_ranks_are_permutations(self):
        rng = np.random.default_rng(73)
        report = rank(labelled(rng.uniform(size=(8, 8))))
        n = len(report.rows)
        for criterion in ("dependence", "influence", "connectedness"):
            assert sorted(r.position(criterion) for r in report.rows) == list(range(1, n + 1))

    def test_scaling_leaves_ranks_unchanged(self):
        rng = np.random.default_rng(74)
        values = rng.uniform(size=(5, 5))
        before = rank(labelled(values), "influence").positions()
        after = rank(labelled(values * 37.5), "influence").positions()
        assert before == after

    def test_connectedness_is_dependence_plus_influence(self):
        rng = np.random.default_rng(75)
        report = rank(labelled(rng.uniform(size=(4, 4))))
        for row in report.rows:
            assert row.connectedness == pytest.approx(row.dependence + row.influence)

    def test_invalid_criterion(self):
        with pytest.raises(ValueError):
            rank(labelled(np.zeros((2, 2))), "gdp")


class TestPairConnectedness:
    def test_us_china_direct(self, us_china_trade_matrix):
        c = pair_connectedness(us_china_trade_matrix, "USA", "CHN")
        assert c == pytest.approx(0.139 + 0.123, abs=1e-3)

    def test_symmetric(self, us_china_trade_matrix):
        ab = pair_connectedness(us_china_trade_matrix, "USA", "CHN")
        ba = pair_connectedness(us_china_trade_matrix, "CHN", "USA")
        assert ab == ba

    def test_self_pair_on_direct_matrix_is_zero(self, us_china_trade_matrix):
        assert pair_connectedness(us_china_trade_matrix, "USA", "USA") == 0.0

    def test_zero_matrix(self):
        assert pair_connectedness(labelled(np.zeros((2, 2))), "C0X", "C1X") == 0.0


class TestNormalizedIncrement:
    def test_identical_matrices_give_zero(self):
        values = np.array([[0.0, 0.2], [0.4, 0.0]])
        direct = labelled(values, MatrixKind.direct_trade())
        indirect = labelled(values)
        assert normalized_increment(direct, indirect, "C0X", "C1X") == 0.0

    def test_chain_closed_form(self):
        # chain C0X <- C1X <- C2X with a tiny direct C2X -> C0X edge
        a, b = 0.3, 0.5
        for eps in (1e-2, 1e-4, 1e-6):
            values = np.array([[0.0, a, eps], [0.0, 0.0, b], [0.0, 0.0, 0.0]])
            direct = labelled(values, MatrixKind.direct_trade())
            indirect = pwp(direct, 1.0)
            got = normalized_increment(direct, indirect, "C0X", "C2X")
            # exp of the strictly triangular chain stops at paths of length 2
            t_entry = (eps + a * b / 2.0) / math.expm1(1.0)
            t_total = (a + b + eps + a * b / 2.0) / math.expm1(1.0)
            expected = (t_entry / t_total - eps / (a + b + eps)) / (eps / (a + b + eps))
            assert got == pytest.approx(expected, rel=1e-12)
        # the increment blows up as the direct edge vanishes
        assert got > 100

    @pytest.mark.parametrize("matrix", [triangle_trade_matrix(), triangle_offer_matrix()])
    def test_triangle_increment_positive(self, matrix):
        indirect = pwp(matrix, 1.0)
        assert normalized_increment(matrix, indirect, "CUB", "USA") > 0

    def test_invariant_under_rescaling(self):
        rng = np.random.default_rng(81)
        values = rng.uniform(0.1, 1.0, size=(4, 4))
        direct = labelled(values, MatrixKind.indirect("micmac", k=1))
        indirect = labelled(rng.uniform(0.1, 1.0, size=(4, 4)))
        base = normalized_increment(direct, indirect, "C0X", "C1X")
        scaled_direct = labelled(values * 7.25, MatrixKind.indirect("micmac", k=1))
        scaled_indirect = labelled(indirect.values * 0.125)
        assert normalized_increment(
            scaled_direct, scaled_indirect, "C0X", "C1X"
        ) == pytest.approx(base, rel=1e-12)

    def test_zero_direct_entry_rejected(self):
        direct = labelled(np.zeros((2, 2)), MatrixKind.direct_trade())
        indirect = labelled(np.ones((2, 2)))
        with pytest.raises(ZeroDirectEntryError):
            normalized_increment(direct, indirect, "C0X", "C1X")

    def test_zero_indirect_matrix_rejected(self):
        direct = labelled(np.full((2, 2), 0.5))
        with pytest.raises(ValueError, match="indirect matrix sums to zero"):
            normalized_increment(direct, labelled(np.zeros((2, 2))), "C0X", "C1X")

    def test_label_mismatch_rejected(self):
        direct = labelled(np.full((2, 2), 0.5))
        other = InfluenceMatrix(("XXA", "XXB"), np.full((2, 2), 0.5), MatrixKind.indirect("pwp"))
        with pytest.raises(LabelMismatchError):
            normalized_increment(direct, other, "C0X", "C1X")


def perm_map(perm):
    return {f"C{i}X": r for i, r in enumerate(perm)}


class TestRankingDistance:
    def test_identity_is_zero(self):
        r = perm_map((1, 2, 3, 4))
        assert ranking_distance(r, dict(r)) == 0.0

    def test_two_country_swap_is_one(self):
        assert ranking_distance(perm_map((1, 2)), perm_map((2, 1))) == pytest.approx(1.0)

    def test_three_country_reversal(self):
        got = ranking_distance(perm_map((1, 2, 3)), perm_map((3, 2, 1)))
        assert got == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-12)

    def test_metric_axioms_exhaustive_n4(self):
        perms = list(itertools.permutations(range(1, 5)))
        maps = [perm_map(p) for p in perms]
        dist = [[ranking_distance(a, b) for b in maps] for a in maps]
        for i, a in enumerate(perms):
            for j, b in enumerate(perms):
                assert dist[i][j] == dist[j][i]
                assert (dist[i][j] == 0) == (a == b)
                for k in range(len(perms)):
                    assert dist[i][k] <= dist[i][j] + dist[j][k] + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_metric_axioms_random_n8(self, data):
        base = list(range(1, 9))
        perms = [data.draw(st.permutations(base)) for _ in range(3)]
        a, b, c = (perm_map(p) for p in perms)
        assert ranking_distance(a, b) == ranking_distance(b, a)
        assert ranking_distance(a, c) <= ranking_distance(a, b) + ranking_distance(b, c) + 1e-12

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            ranking_distance({"AAA": 1, "BBB": 2}, {"AAA": 1, "CCC": 2})

    def test_not_a_permutation(self):
        with pytest.raises(NotAPermutationError):
            ranking_distance({"AAA": 1, "BBB": 1}, {"AAA": 1, "BBB": 2})
        with pytest.raises(NotAPermutationError):
            ranking_distance({"AAA": 0, "BBB": 1}, {"AAA": 1, "BBB": 2})

    def test_needs_two_countries(self):
        with pytest.raises(ValueError):
            ranking_distance({"AAA": 1}, {"AAA": 1})


class TestTriangleStory:
    """Indirect influence through an intermediary exceeds the direct-only path."""

    @pytest.mark.parametrize("matrix", [triangle_trade_matrix(), triangle_offer_matrix()])
    def test_intermediary_raises_indirect_influence(self, matrix):
        with_spain = pwp(matrix, 1.0).entry("CUB", "USA")
        without_spain = pwp(drop_intermediary(matrix, "ESP"), 1.0).entry("CUB", "USA")
        assert with_spain > without_spain

    def test_network_pipeline_reproduces_triangle(self, triangle_network):
        m = direct_matrix_quietly(triangle_network, WeightKind.TRADE)
        assert m.entry("CUB", "ESP") == pytest.approx(0.068, abs=1e-12)
        assert m.entry("CUB", "USA") == pytest.approx(0.03, abs=1e-12)
        assert m.entry("ESP", "USA") == pytest.approx(0.038, abs=1e-12)
        assert m.entry("USA", "CUB") == 0.0  # one-sided reporting
