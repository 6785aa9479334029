"""Acceptance suite: one test per release criterion, each printing a
PASS line once its assertions clear at the stated tolerance."""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from tradenet import (
    WeightKind,
    build_direct_matrix,
    matrix_exponential,
    offer_influence,
    pagerank_limit,
    heat_kernel,
    pwp,
    ranking_distance,
    trade_influence,
)
from tradenet.cli import main, read_matrix_csv

from conftest import (
    AMERICAN_COUNTRIES,
    drop_intermediary,
    generated_pairs,
    synthetic_network,
    triangle_offer_matrix,
    triangle_trade_matrix,
)
from test_cli import dataset_args, write_dataset
from test_engine import reachable


def _pass(number, text):
    print(f"PASS  criterion {number:2d}  {text}")


def test_c01_bilateral_golden_values(us_china_network):
    net = us_china_network
    assert trade_influence(net, "USA", "CHN") == pytest.approx(0.139, abs=5e-4)
    assert trade_influence(net, "CHN", "USA") == pytest.approx(0.123, abs=5e-4)
    assert offer_influence(net, "USA", "CHN") == pytest.approx(0.0302, abs=5e-4)
    assert offer_influence(net, "CHN", "USA") == pytest.approx(0.0494, abs=5e-4)
    _pass(1, "US/China trade and offer shares within 5e-4 of published values")


def test_c02_matrix_exponential_oracle():
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(size=(5, 5))
        worst = max(worst, np.abs(matrix_exponential(a) - expm(a)).max())
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 1.0
    _pass(2, f"100 exponentials within {worst:.2e} of scipy expm in {elapsed:.2f}s")


def test_c03_pwp_analytic_suite():
    assert not pwp(np.zeros((4, 4)), 1.0).any()
    for lam in (0.5, 1.0, 2.0):
        assert np.abs(pwp(np.identity(5), lam) - np.identity(5)).max() < 1e-12
    nilpotent = np.array([[0.0, 1.0], [0.0, 0.0]])
    off_diagonal = pwp(nilpotent, 1.0)[0, 1]
    assert abs(off_diagonal - 1.0 / math.expm1(1.0)) < 1e-12
    rng = np.random.default_rng(2025)
    for _ in range(10):
        d = rng.uniform(size=(6, 6))
        assert np.abs(pwp(d, 1e-8) - d).max() < 1e-6
    _pass(3, "zero/identity/nilpotent closed forms and small-lambda limit hold")


def test_c04_pwp_path_positivity():
    rng = np.random.default_rng(2026)
    for _ in range(50):
        order = rng.permutation(8)
        d = np.zeros((8, 8))
        for i in range(8):
            for j in range(i + 1, 8):
                if rng.random() < 0.3:
                    d[order[j], order[i]] = rng.uniform(0.1, 1.0)
        assert np.array_equal(pwp(d, 1.0) > 0, reachable(d > 0))
    _pass(4, "indirect influence positive exactly on reachable pairs (50 DAGs)")


def test_c05_pagerank_contract():
    rng = np.random.default_rng(2027)
    for _ in range(50):
        raw = rng.uniform(size=(10, 10)) * (rng.uniform(size=(10, 10)) < 0.7)
        sums = raw.sum(axis=0)
        nonzero = sums > 0
        raw[:, nonzero] /= sums[nonzero]
        out = pagerank_limit(raw)
        assert np.abs(out - out[:, [0]]).max() < 1e-9
        assert np.abs(out.sum(axis=0) - 1.0).max() < 1e-9
    cycle = pagerank_limit(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.abs(cycle - 0.5).max() < 1e-9
    uniform = pagerank_limit(np.zeros((3, 3)))
    assert np.abs(uniform - 1.0 / 3.0).max() < 1e-12
    _pass(5, "rank-one column-stochastic limits; 2-cycle and zero-matrix exact")


def test_c06_heat_kernel_factorization():
    rng = np.random.default_rng(2028)
    for lam in (0.5, 1.0):
        for _ in range(10):
            d = rng.uniform(size=(6, 6))
            diff = np.abs(
                heat_kernel(d, lam) - math.exp(-lam) * matrix_exponential(lam * d)
            ).max()
            assert diff < 1e-10
    _pass(6, "exp(lam*(D-I)) equals exp(-lam)*exp(lam*D) within 1e-10")


def test_c07_weight_normalization():
    rng = np.random.default_rng(2029)
    for size in (5, 12):
        net = synthetic_network(generated_pairs(size), rng, density=0.8)
        trade = build_direct_matrix(net, WeightKind.TRADE)
        offer = build_direct_matrix(net, WeightKind.OFFER)
        assert np.abs(trade.values.sum(axis=1) - 1.0).max() < 1e-12
        for i, code in enumerate(net.codes):
            rec = net.country(code)
            expected = rec.total_trade / rec.offer
            assert abs(offer.values[i].sum() - expected) < 1e-12
    _pass(7, "trade rows sum to 1 and offer rows to (E+I)/(GDP+I) within 1e-12")


def test_c08_ranking_distance():
    identity = {"AAA": 1, "BBB": 2, "CCC": 3}
    assert ranking_distance(identity, dict(identity)) == 0.0
    swap = ranking_distance({"AAA": 1, "BBB": 2}, {"AAA": 2, "BBB": 1})
    assert swap == 1.0
    reversal = ranking_distance(identity, {"AAA": 3, "BBB": 2, "CCC": 1})
    assert abs(reversal - math.sqrt(2.0 / 3.0)) < 1e-12

    codes = ("AAA", "BBB", "CCC", "DDD")
    maps = [dict(zip(codes, p)) for p in itertools.permutations(range(1, 5))]
    dist = [[ranking_distance(a, b) for b in maps] for a in maps]
    m = len(maps)
    for i in range(m):
        assert dist[i][i] == 0.0
        for j in range(m):
            assert dist[i][j] == dist[j][i]
            if i != j:
                assert dist[i][j] > 0
            for k in range(m):
                assert dist[i][k] <= dist[i][j] + dist[j][k] + 1e-12
    _pass(8, "identity/swap/reversal values and metric axioms over all n=4 triples")


def test_c09_indirect_influence_triangulation():
    for matrix in (triangle_trade_matrix(), triangle_offer_matrix()):
        with_spain = pwp(matrix, 1.0).entry("CUB", "USA")
        without_spain = pwp(drop_intermediary(matrix, "ESP"), 1.0).entry("CUB", "USA")
        assert with_spain > without_spain
    _pass(9, "US influence on Cuba strictly higher with the Spain edges present")


def test_c10_end_to_end_determinism(tmp_path):
    rng = np.random.default_rng(2030)
    american = synthetic_network(AMERICAN_COUNTRIES, rng, density=0.9)
    assert american.n == 35
    files = write_dataset(tmp_path, american, stem="american")
    runs = []
    for label in ("a", "b"):
        out = tmp_path / label
        assert main(["matrix", *dataset_args(*files, out)]) == 0
        runs.append([(out / name).read_bytes()
                     for name in ("direct_trade.csv", "indirect_trade_pwp.csv")])
    assert runs[0] == runs[1]

    world = synthetic_network(generated_pairs(177), rng, density=0.5)
    world_files = write_dataset(tmp_path, world, stem="world")
    out = tmp_path / "world_out"
    start = time.perf_counter()
    assert main(["matrix", *dataset_args(*world_files, out)]) == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    written = read_matrix_csv(out / "indirect_trade_pwp.csv")
    assert written.n == 177
    _pass(10, f"byte-identical reruns (n=35); 177-country pipeline in {elapsed:.2f}s")
