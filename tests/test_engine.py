import decimal
import math
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, target
from hypothesis import strategies as st
from scipy.linalg import expm, null_space

from tradenet import (
    InfluenceMatrix,
    MatrixKind,
    MethodSpec,
    column_normalize,
    heat_kernel,
    matrix_exponential,
    micmac,
    pagerank_limit,
    pwp,
)
from tradenet import engine
from tradenet.errors import (
    ColumnStochasticityError,
    DimensionMismatchError,
    NegativeEntryError,
)

NILPOTENT = np.array([[0.0, 1.0], [0.0, 0.0]])


def heat_kernel_oracle(d, lam):
    """``exp(lam*(D - I))`` by scipy's Pade scaling and squaring."""
    return expm(lam * (d - np.identity(len(d))))


def pwp_oracle(d, lam):
    """``(exp(lam*D) - I) / (e**lam - 1)`` by scipy, free of cancellation and overflow.

    ``e**-lam * (exp(lam*D) - I) = lam*D @ F`` with
    ``F = integral_0^1 e**-(1-t)*lam * exp(t*lam*(D - I)) dt``, the upper right
    block of ``expm([[-lam*I, I], [0, lam*(D - I)]])`` (Van Loan, IEEE Trans.
    Automat. Control 23(3), 1978).
    """
    n = len(d)
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -lam * np.identity(n)
    block[:n, n:] = np.identity(n)
    block[n:, n:] = lam * (d - np.identity(n))
    return lam * d @ expm(block)[:n, n:] / -math.expm1(-lam)


def taylor_oracle(d, lam):
    """``pwp`` and ``heat_kernel`` of a non-negative ``d`` as nested lists of 60-digit decimals.

    The plain series ``S = sum_{k>=1} (lam*D)**k / k!``, with no scaling and
    no squaring; ``D >= 0``, so no term cancels another, and only the
    standard library is used.  ``pwp = S / (e**lam - 1)`` and
    ``heat_kernel = e**-lam * (I + S)``.  Each entry of term ``k + 1`` is at
    most ``max(T_k) * ||lam*D||_1 / (k+1)``.  So summing stops at the first
    term ``T_k`` with ``k >= n - 1`` (every reachable entry has appeared),
    ``||lam*D||_1 <= (k+1)/2`` (the tail is then below ``max(T_k)``) and
    ``max(T_k)`` below ``1e-70`` times the smallest positive entry of ``S``.
    """
    with decimal.localcontext() as context:
        context.prec = 60
        n, lam = len(d), Decimal(lam)
        a = [[lam * Decimal(x) for x in row] for row in d.tolist()]
        norm = max((sum(row[j] for row in a) for j in range(n)), default=Decimal(0))
        term, total, k = a, a, 1
        while True:
            largest = max(x for row in term for x in row)
            smallest = min((x for row in total for x in row if x), default=None)
            if largest == 0 or (
                k >= n - 1 and 2 * norm <= k + 1 and largest < smallest * Decimal("1e-70")
            ):
                break
            k += 1
            term = [[sum(r[m] * a[m][j] for m in range(n)) / k for j in range(n)] for r in term]
            total = [[x + y for x, y in zip(r, t)] for r, t in zip(total, term)]
        scale, damping = 1 / (lam.exp() - 1), (-lam).exp()
        pwp_exact = [[x * scale for x in row] for row in total]
        heat_exact = [[damping * (x + (i == j)) for j, x in enumerate(row)] for i, row in enumerate(total)]
    return pwp_exact, heat_exact


def relative_error(computed, exact):
    """Largest entrywise ``|computed - exact| / exact``, ``inf`` where an exact zero is not 0."""
    errors = [
        abs(Decimal(c) - e) / e if e else (0.0 if c == 0 else math.inf)
        for row_c, row_e in zip(computed.tolist(), exact)
        for c, e in zip(row_c, row_e)
    ]
    return float(max(errors, default=0.0))


def pagerank_oracle(d, p):
    """Stationary vector as the null vector of ``p*Dbar + (1-p)/n - I`` (by SVD), summing to 1."""
    n = len(d)
    dbar = d.copy()
    dbar[:, d.sum(axis=0) == 0] = 1.0 / n
    v = null_space(p * dbar + (1 - p) / n - np.identity(n))[:, 0]
    return v / v.sum()


def cycle_with_chord(n=200):
    """Column-stochastic cycle ``i -> i+1``, ``n-1 -> 0``, plus ``0 -> n/2``.

    Node 0 splits its out-links evenly.  Power iteration mixes slowly here:
    at ``p = 0.999`` it needs far more than 10,000 steps.
    """
    d = np.zeros((n, n))
    d[np.arange(1, n), np.arange(n - 1)] = 1.0
    d[0, n - 1] = 1.0
    d[[1, n // 2], 0] = 0.5
    return d


def sparse_direct(rng, n, weight, zero_rows=0.1, zero_cols=0.1):
    """A non-negative direct matrix with zero rows and zero columns.

    ``trade`` rows sum to 1 and ``offer`` rows to a share in [0.05, 0.5], as
    the two weights give; zero rows stay zero.
    """
    d = rng.uniform(size=(n, n)) * (rng.uniform(size=(n, n)) < min(1.0, 20 / n))
    np.fill_diagonal(d, 0.0)
    d[:, rng.uniform(size=n) < zero_cols] = 0.0
    d[rng.uniform(size=n) < zero_rows] = 0.0
    sums = d.sum(axis=1, keepdims=True)
    share = 1.0 if weight == "trade" else rng.uniform(0.05, 0.5, (n, 1))
    return np.divide(d * share, sums, out=np.zeros_like(d), where=sums > 0)


def reachable(adjacency):
    """Oracle: reach[t, s] iff a directed path s -> t exists (length >= 1).

    ``adjacency[t, s]`` holds the direct edge s -> t, matching the
    dependence orientation of influence matrices.
    """
    n = adjacency.shape[0]
    reach = np.zeros((n, n), dtype=bool)
    for s in range(n):
        stack = [t for t in range(n) if adjacency[t, s]]
        while stack:
            t = stack.pop()
            if not reach[t, s]:
                reach[t, s] = True
                stack.extend(u for u in range(n) if adjacency[u, t])
    return reach


class TestMatrixExponential:
    def test_zero_matrix_is_exact_identity(self):
        assert np.array_equal(matrix_exponential(np.zeros((4, 4))), np.identity(4))

    def test_nilpotent_closed_form(self):
        # N^2 = 0 so exp(N) = I + N exactly
        assert np.array_equal(matrix_exponential(NILPOTENT), np.identity(2) + NILPOTENT)

    def test_matches_scipy_expm(self):
        rng = np.random.default_rng(12)
        worst = 0.0
        for _ in range(100):
            a = rng.uniform(size=(5, 5))
            diff = np.abs(matrix_exponential(a) - expm(a)).max()
            worst = max(worst, diff)
        assert worst < 1e-10

    def test_scalar_diagonal(self):
        out = matrix_exponential(np.diag([0.5, 1.0, 2.0]))
        np.testing.assert_allclose(np.diag(out), np.exp([0.5, 1.0, 2.0]), rtol=1e-14)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            matrix_exponential(np.zeros((2, 3)))

    def test_overflow_when_scaling_budget_exceeded(self):
        with pytest.raises(OverflowError):
            matrix_exponential(np.full((2, 2), 1e12))

    def test_overflow_when_result_leaves_range(self):
        # 12 squarings are within the scaling limit; exp(2000) is not finite
        with pytest.raises(OverflowError, match="overflowed the floating-point range"):
            matrix_exponential(np.full((2, 2), 1e3))

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        a = rng.uniform(size=(6, 6))
        assert np.array_equal(matrix_exponential(a), matrix_exponential(a))


class TestInput:
    """The input rules every operator shares, checked before any arithmetic."""

    @pytest.mark.parametrize("labelled", [False, True], ids=["array", "labelled"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "operator",
        [pwp, heat_kernel, matrix_exponential, micmac, column_normalize, pagerank_limit],
        ids=lambda operator: operator.__name__,
    )
    def test_rejects_non_finite_entry_naming_the_first(self, operator, bad, labelled):
        # the rule reads D itself, before any arithmetic: no operator reports an
        # overflow or a column sum for it, nor checks lambda * D instead
        values = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, bad], [bad, 0.5, 0.0]])
        m = InfluenceMatrix(("AAA", "BBB", "CCC"), values, MatrixKind.direct_trade()) if labelled else values
        row, column = ("BBB", "CCC") if labelled else (1, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^entry at row {row}, column {column} is {bad}, not finite$"):
                operator(m)


def hub_direct(n=64):
    """Row-stochastic, with column 0 summing to ``(n-1)/2``: country 0 is a hub.

    Every other country gives half its share to the hub and half to the
    next one on a cycle through 1..n-1, and the hub spreads its share evenly.
    """
    d = np.zeros((n, n))
    d[1:, 0] = 0.5
    d[np.arange(1, n), np.arange(1, n) % (n - 1) + 1] = 0.5
    d[0, 1:] = 1.0 / (n - 1)
    return d


def theta_bound(theta, m):
    """``theta**m * e**theta / (m+1)!`` in 50-digit decimal arithmetic."""
    with decimal.localcontext() as context:
        context.prec = 50
        theta = Decimal(theta)
        return theta**m * theta.exp() / math.factorial(m + 1)


class TestPlan:
    """The squaring count ``k`` that ``_damped_expm1`` plans.

    Each pinned matrix lies at least 3% inside every threshold that could
    change its plan, so no BLAS rounding can move it.
    """

    def test_theta_is_the_largest_double_within_its_bound(self):
        theta = engine._THETA_12
        roundoff = Decimal(2) ** -53
        assert theta_bound(theta, 12) <= roundoff < theta_bound(math.nextafter(theta, math.inf), 12)

    def test_diagonal_plans_from_its_norm(self):
        # alpha = 3, and 3 / theta_12 = 10.0 needs k = 4
        d = np.diag([0.25, 1.0, 3.0])
        assert engine._plan(d) == 4
        assert engine._plan(-d) == 4

    def test_hub_plans_from_powers_not_from_its_column_sums(self):
        # ||D||_1 = 31.5 would need 6 squarings on the 1-norm alone; the
        # powers give alpha_12 = ||D^4||_1 ** (1/4) = 2.12, so k = 3
        d = hub_direct()
        assert np.abs(d.sum(axis=1) - 1.0).max() < 1e-15
        assert d.sum(axis=0).max() == 31.5
        assert engine._plan(d) == 3
        # alpha takes the larger of the 1- and inf-norms, so the transpose,
        # with ||D^T||_1 = 1, plans alike
        assert engine._plan(d.T) == 3

    def test_nilpotent_chain_needs_no_squaring(self):
        # D^4 = 0, so alpha = max(d_4, d_5) = 0 and degree 12 is exact
        d = np.diag([100.0] * 3, k=1)
        assert engine._plan(d) == 0
        expected = np.diag([100.0] * 3, k=1) + np.diag([5e3] * 2, k=2)
        expected[0, 3] = 1e6 / 6
        np.testing.assert_allclose(matrix_exponential(d) - np.identity(4), expected, rtol=1e-15)

    def test_squaring_limit_is_planned_from_the_norm_bound(self):
        # d_p = (x**p) ** (1/p) may round an ulp either way, so test a little to each side
        edge = engine._THETA_12 * 2.0**engine._MAX_SQUARINGS
        inside, beyond = edge * (1 - 1e-12), edge * (1 + 1e-12)
        assert engine._plan(np.array([[inside]])) == engine._MAX_SQUARINGS
        assert pwp(np.array([[1.0]]), inside)[0, 0] == pytest.approx(1.0)
        with pytest.raises(OverflowError, match=r"^matrix norm bound 1\.28462\d*e\+09 needs more than 32 squarings$"):
            engine._plan(np.array([[beyond]]))
        with pytest.raises(OverflowError, match="norm bound"):
            pwp(np.array([[1.0]]), beyond)
        # lambda 2e9 lay inside the edge of a degree-30 plan, about 1.5e10
        with pytest.raises(OverflowError, match=r"^matrix norm bound 2e\+09 needs more than 32 squarings$"):
            pwp(np.array([[1.0]]), 2e9)

    def test_huge_input_is_refused_without_warnings(self):
        # the powers overflow to inf (and inf * 0 to nan) while the plan is made
        d = np.diag([1e300] * 3, k=1) + np.diag([1e300] * 2, k=-2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="^matrix norm bound inf"):
                matrix_exponential(d)

    @pytest.mark.parametrize("operator", [pwp, heat_kernel])
    def test_lambda_times_d_past_the_range_is_refused_by_the_plan(self, operator):
        # D is finite and lambda * D is not: its norm bound is inf, outside the domain
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="^matrix norm bound inf"):
                operator(np.array([[0.0, 1e300], [0.5, 0.0]]), 1e10)


def series(*terms):
    """The coefficients of ``sum(c * p for c, p in terms)``, each ``p`` listing those of A**0, A**1, ..."""
    size = max(len(p) for _, p in terms)
    return [sum(Decimal(c) * p[j] for c, p in terms if j < len(p)) for j in range(size)]


def series_product(p, q):
    out = [Decimal(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


class TestScheme:
    """The stored coefficients of the degree-12 scheme, expanded in 50-digit decimals."""

    def test_expands_to_the_taylor_polynomial(self):
        (u1, u4, ua), (v1, v4, va, v0) = engine._B3, engine._B5
        identity, a = [Decimal(1)], [Decimal(0), Decimal(1)]
        with decimal.localcontext() as context:
            context.prec = 50
            b1 = [Decimal(0)] + [Decimal(c) for c in engine._B1]
            b4 = [Decimal(0)] + [Decimal(c) for c in engine._B4]
            b3 = series((u1, b1), (u4, b4), (ua, a))
            a6 = series((1, b3), (1, series_product(b4, b4)))
            b5 = series((v1, b1), (v4, b4), (va, a), (v0, identity))
            t = series((1, b1), (1, series_product(series((1, b5), (1, a6)), a6)))
        # T = sum_{j=1..12} A**j / j!, each coefficient within 4 ulps
        assert len(t) == 13 and t[0] == 0
        for j in range(1, 13):
            assert abs(t[j] * math.factorial(j) - 1) <= 4 * Decimal(2) ** -53, j
        # no identity term, so an entry that no path reaches stays exactly 0
        assert b1[0] == b3[0] == b4[0] == 0


class TestPwp:
    def test_zero_matrix_maps_to_exact_zero(self):
        assert not pwp(np.zeros((3, 3)), 1.0).any()

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_identity_is_fixed_point(self, lam):
        out = pwp(np.identity(4), lam)
        assert np.abs(out - np.identity(4)).max() < 1e-12

    def test_nilpotent_closed_form(self):
        out = pwp(NILPOTENT, 1.0)
        expected = np.array([[0.0, 1.0 / math.expm1(1.0)], [0.0, 0.0]])
        assert np.abs(out - expected).max() < 1e-12

    def test_small_lambda_recovers_direct(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            d = rng.uniform(size=(6, 6))
            assert np.abs(pwp(d, 1e-8) - d).max() < 1e-6

    def test_preserves_sign_pattern_of_nonnegative_input(self):
        rng = np.random.default_rng(22)
        d = rng.uniform(size=(5, 5)) * (rng.uniform(size=(5, 5)) < 0.4)
        out = pwp(d, 1.0)
        assert (out >= 0).all()
        assert (out[d > 0] > 0).all()

    def test_paths_generate_indirect_influence(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            order = rng.permutation(8)
            d = np.zeros((8, 8))
            for i in range(8):
                for j in range(i + 1, 8):
                    if rng.random() < 0.25:
                        # edge order[i] -> order[j] in the influence direction
                        d[order[j], order[i]] = rng.uniform(0.1, 1.0)
            out = pwp(d, 1.0)
            assert np.array_equal(out > 0, reachable(d > 0))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 8),
        edges=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20),
        weight=st.floats(0.01, 1.0),
        lam=st.floats(1.0, 1000.0),
    )
    def test_zero_pattern_is_reachability_up_to_large_lambda(self, n, edges, weight, lam):
        # unit self-influence keeps e**-lam * exp(lam*D) of order one, so every
        # reachable entry is representable at lam=1000; off-diagonal row sums
        # stay at most 0.5, so none overflows
        d = np.identity(n)
        for source, target in edges:
            if source < n and target < n and source != target:
                d[target, source] = weight / (2 * n)
        out = pwp(d, lam)
        assert np.isfinite(out).all()
        assert np.array_equal(out > 0, reachable(d > 0))

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_lambda_outside_positive_finite(self, lam):
        with pytest.raises(ValueError, match="lambda"):
            pwp(np.zeros((2, 2)), lam)

    def test_wraps_influence_matrix(self):
        m = InfluenceMatrix(("AAA", "BBB"), NILPOTENT, MatrixKind.direct_trade())
        out = pwp(m, 2.0)
        assert out.labels == m.labels
        assert out.kind.family == "indirect"
        assert out.kind.method == "pwp"
        assert dict(out.kind.params)["lambda"] == 2.0


class TestMicmac:
    def test_k_one_is_identity_transform(self):
        rng = np.random.default_rng(31)
        d = rng.uniform(size=(4, 4))
        assert np.array_equal(micmac(d, 1), d)

    def test_even_power_of_swap(self):
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(micmac(swap, 4), np.identity(2))

    def test_matches_naive_product(self):
        rng = np.random.default_rng(32)
        d = rng.uniform(size=(4, 4))
        naive = d @ d @ d @ d
        assert np.abs(micmac(d, 4) - naive).max() < 1e-12

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            micmac(np.zeros((2, 2)), 0)

    def test_kind_records_k(self):
        m = InfluenceMatrix(("AAA", "BBB"), NILPOTENT, MatrixKind.direct_trade())
        assert dict(micmac(m, 3).kind.params)["k"] == 3

    @pytest.mark.parametrize("labelled", [False, True], ids=["array", "influence-matrix"])
    def test_overflow_is_refused_without_warnings(self, labelled):
        # every row sums to 2: D^2000 holds 2^2000 (inf) and inf * 0 (nan), which
        # micmac used to return, with RuntimeWarnings from numpy
        d = np.array([[0.0, 2.0], [2.0, 0.0]])
        m = InfluenceMatrix(("AAA", "BBB"), d, MatrixKind.direct_trade()) if labelled else d
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="overflowed the floating-point range"):
                micmac(m, 2000)


class TestColumnNormalize:
    def test_direct_division(self):
        d = np.array([[0.2, 0.0], [0.6, 0.0]])
        out = column_normalize(d)
        np.testing.assert_allclose(out[:, 0], [0.25, 0.75], rtol=1e-15)
        # the input is not divided, nor scaled by the operators that scale a copy
        for operator in (column_normalize, pwp, heat_kernel, matrix_exponential):
            operator(d)
            assert d.tolist() == [[0.2, 0.0], [0.6, 0.0]], operator.__name__

    def test_zero_column_left_zero(self):
        out = column_normalize(np.array([[0.0, 1.0], [0.0, 1.0]]))
        assert not out[:, 0].any()

    def test_random_columns_sum_to_one(self):
        rng = np.random.default_rng(41)
        out = column_normalize(rng.uniform(size=(7, 7)))
        np.testing.assert_allclose(out.sum(axis=0), np.ones(7), atol=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(NegativeEntryError):
            column_normalize(np.array([[0.0, -0.1], [0.0, 0.2]]))

    def test_rejects_column_summing_past_the_range(self):
        # every entry is finite; dividing by the infinite sum would zero the column
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="^column 1 sums past the floating-point range$"):
                column_normalize(np.array([[0.0, 1e308], [0.0, 1e308]]))

    def test_keeps_labels_and_kind(self):
        m = InfluenceMatrix(("AAA", "BBB"), np.array([[0.0, 0.2], [0.4, 0.0]]),
                            MatrixKind.direct_offer())
        out = column_normalize(m)
        assert out.labels == m.labels
        assert out.kind == m.kind


class TestPagerank:
    def test_zero_matrix_gives_uniform(self):
        out = pagerank_limit(np.zeros((3, 3)))
        assert np.abs(out - 1.0 / 3.0).max() < 1e-12

    def test_two_cycle_gives_half(self):
        out = pagerank_limit(np.array([[0.0, 1.0], [1.0, 0.0]]), p=0.86)
        assert np.abs(out - 0.5).max() < 1e-9

    def test_matches_matrix_power_oracle(self):
        # chain 0 -> 1 -> 2 with unit out-links; column of node 2 is empty
        d = np.zeros((3, 3))
        d[1, 0] = 1.0
        d[2, 1] = 1.0
        p = 0.86
        dbar = d.copy()
        dbar[:, 2] = 1.0 / 3.0
        mixed = p * dbar + (1 - p) / 3.0
        oracle = np.identity(3)
        for _ in range(10_000):
            oracle = mixed @ oracle
        out = pagerank_limit(d, p=p)
        assert np.abs(out - oracle).max() < 1e-10

    @pytest.mark.parametrize("p", [0.5, 0.86, 0.999])
    @pytest.mark.parametrize("graph", ["random", "cycle"])
    def test_matches_null_space_oracle(self, graph, p):
        if graph == "random":  # n=300, with zero columns
            d = column_normalize(sparse_direct(np.random.default_rng(300), 300, "trade"))
            assert not d.sum(axis=0).all()
        else:
            d = cycle_with_chord()
        expected = pagerank_oracle(d, p)
        out = pagerank_limit(d, p)
        assert np.abs(out / expected[:, None] - 1.0).max() <= 1e-12

    def test_output_is_rank_one_and_column_stochastic(self):
        rng = np.random.default_rng(51)
        for _ in range(20):
            raw = rng.uniform(size=(10, 10)) * (rng.uniform(size=(10, 10)) < 0.6)
            d = column_normalize(raw)
            out = pagerank_limit(d)
            assert np.abs(out - out[:, [0]]).max() < 1e-9
            np.testing.assert_allclose(out.sum(axis=0), np.ones(10), atol=1e-9)

    def test_rejects_raw_weight_matrix(self):
        with pytest.raises(ColumnStochasticityError):
            pagerank_limit(np.array([[0.0, 0.3], [0.2, 0.0]]))

    def test_rejects_negative_entry(self):
        with pytest.raises(NegativeEntryError):
            pagerank_limit(np.array([[0.0, 1.0], [-1.0, 0.0]]))

    def test_rejects_column_summing_past_the_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ColumnStochasticityError, match="^column 1 sums to inf, expected 0 or 1$"):
                pagerank_limit(np.array([[0.0, 1e308], [0.0, 1e308]]))

    def test_empty_matrix_gives_empty(self):
        assert pagerank_limit(np.zeros((0, 0))).shape == (0, 0)

    def test_rejects_bad_p(self):
        for p in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                pagerank_limit(np.zeros((2, 2)), p=p)

    def test_kind_records_p(self):
        m = InfluenceMatrix(("AAA", "BBB"), np.array([[0.0, 1.0], [1.0, 0.0]]),
                            MatrixKind.direct_trade())
        out = pagerank_limit(m, p=0.9)
        assert out.kind.method == "pagerank"
        assert dict(out.kind.params)["p"] == 0.9


class TestHeatKernel:
    def test_identity_is_fixed_point(self):
        out = heat_kernel(np.identity(3), 1.0)
        assert np.abs(out - np.identity(3)).max() < 1e-12

    def test_zero_matrix_scales_identity(self):
        out = heat_kernel(np.zeros((2, 2)), 1.0)
        assert np.abs(out - math.exp(-1.0) * np.identity(2)).max() < 1e-14

    @pytest.mark.parametrize("lam", [0.5, 1.0])
    def test_commuting_factorization(self, lam):
        rng = np.random.default_rng(61)
        for _ in range(10):
            d = rng.uniform(size=(6, 6))
            direct = heat_kernel(d, lam)
            factored = math.exp(-lam) * matrix_exponential(lam * d)
            assert np.abs(direct - factored).max() < 1e-10

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_lambda_outside_positive_finite(self, lam):
        with pytest.raises(ValueError, match="lambda"):
            heat_kernel(np.zeros((2, 2)), lam)

    def test_keeps_labels(self):
        m = InfluenceMatrix(("AAA", "BBB"), NILPOTENT, MatrixKind.direct_trade())
        out = heat_kernel(m, 0.5)
        assert out.labels == m.labels
        assert dict(out.kind.params)["lambda"] == 0.5


class TestWorkingSet:
    """What each operator allocates, and that it only reads its input."""

    @pytest.mark.parametrize(
        "operator, arrays",
        [
            (pwp, 3.25), (heat_kernel, 3.25), (matrix_exponential, 3.25),
            (micmac, 2.25), (column_normalize, 1.25), (pagerank_limit, 1.25),
        ],
        ids=lambda value: getattr(value, "__name__", None),
    )
    def test_peak_memory_in_n_by_n_arrays(self, operator, arrays):
        # the kernel holds three arrays (powers of its scaled copy, then the
        # combinations that replace them) and a block of n/8 rows; micmac holds
        # D^2 and D^4; column_normalize holds its result, and pagerank_limit
        # frees I - p*Dbar before it builds its result.  The 0.25 leaves room
        # for that block, vectors and numpy's 64 KiB ufunc buffer.
        # tracemalloc does not see the copy LAPACK makes inside
        # np.linalg.solve, so pagerank_limit's figure leaves that out.
        d = column_normalize(sparse_direct(np.random.default_rng(300), 300, "trade"))
        tracemalloc.start()
        try:
            operator(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= arrays * d.nbytes

    @pytest.mark.parametrize(
        "operator",
        [
            pytest.param(lambda d: pwp(d, 2.5), id="pwp"),
            pytest.param(lambda d: heat_kernel(d, 2.5), id="heat_kernel"),
            pytest.param(matrix_exponential, id="matrix_exponential"),
            pytest.param(micmac, id="micmac"),
            pytest.param(lambda d: micmac(d, 1), id="micmac-k1"),
            pytest.param(column_normalize, id="column_normalize"),
            pytest.param(pagerank_limit, id="pagerank_limit"),
        ],
    )
    def test_input_is_only_read(self, operator):
        # rows sum to 1 but columns do not, and lambda is not 1, so dividing or
        # scaling the input in place changes its bytes; pagerank_limit takes
        # only a column-stochastic matrix, here with a zero column
        d = sparse_direct(np.random.default_rng(301), 8, "trade")
        d[:, 2] = 0.0
        if operator is pagerank_limit:
            d = column_normalize(d)
        assert d.flags.writeable and d.dtype == np.float64
        before = d.tobytes()
        out = operator(d)
        assert d.tobytes() == before
        assert out.flags.writeable
        assert not np.shares_memory(out, d)


class TestScipyOracles:
    """pwp and heat_kernel against scipy's Pade exponential, on matrices with
    zero rows and zero columns, from lambda near 0 to lambda far past e**lam's range."""

    LAMBDAS = [1e-8, 1.0, 8.0, 800.0]

    @pytest.mark.parametrize("n", [12, 300])
    @pytest.mark.parametrize("weight", ["trade", "offer"])
    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_pwp_and_heat_kernel_match(self, n, weight, lam):
        d = sparse_direct(np.random.default_rng(n), n, weight)
        assert not d.sum(axis=1).all() and not d.sum(axis=0).all()
        for operator, oracle in ((pwp, pwp_oracle), (heat_kernel, heat_kernel_oracle)):
            expected = oracle(d, lam)
            error = np.abs(operator(d, lam) - expected).max() / np.abs(expected).max()
            assert error <= 1e-11, (operator.__name__, error)

    def test_trade_row_sums_stay_one_at_large_lambda(self):
        d = sparse_direct(np.random.default_rng(7), 300, "trade", zero_rows=0.0)
        assert np.abs(d.sum(axis=1) - 1.0).max() < 1e-15
        assert not d.sum(axis=0).all()
        for operator in (pwp, heat_kernel):
            assert np.abs(operator(d, 800.0).sum(axis=1) - 1.0).max() <= 1e-12


# a direct matrix for the decimal oracle: n <= 5, entries 0 or in [0.05, 1]
ORACLE_ENTRY = st.one_of(st.just(0.0), st.floats(0.05, 1.0))
ORACLE_MATRIX = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(ORACLE_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)
)
ORACLE_LAMBDA = st.floats(math.log(0.1), math.log(100.0)).map(math.exp)


@st.composite
def oracle_hub(draw):
    """A direct matrix with row sums at most 1 and one column summing to about n/2.

    Every other country gives the hub a share in [0.3, 0.7] and spreads at
    most the rest over an ``ORACLE_MATRIX`` row; n <= 6.
    """
    n = draw(st.integers(2, 6))
    hub = draw(st.integers(0, n - 1))
    rows = st.lists(st.lists(ORACLE_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)
    d = np.array(draw(rows))
    share = np.array(draw(st.lists(st.floats(0.3, 0.7), min_size=n, max_size=n)))
    share[hub] = 0.0
    d[:, hub] = 0.0
    d *= ((1.0 - share) / np.maximum(d.sum(axis=1), 1.0))[:, None]
    d[:, hub] = share
    return d


class TestDecimalOracle:
    """pwp and heat_kernel against a 60-digit Taylor series, entry by entry.

    Unlike scipy's Pade exponential, the oracle shares nothing with the
    engine's method, and its bound is relative to each entry, not to the
    largest one.
    """

    @staticmethod
    def check(d, lam):
        for operator, exact in zip((pwp, heat_kernel), taylor_oracle(d, lam)):
            error = relative_error(operator(d, lam), exact)
            target(error, label=operator.__name__)
            assert error < 1e-13, (operator.__name__, error)

    @settings(max_examples=60, deadline=None)
    @given(d=ORACLE_MATRIX, lam=ORACLE_LAMBDA)
    # a hard case from a search over ten seeds: 1.2e-14 for pwp, after 9 squarings
    @example(d=[[0.0, 1.0], [1.0, 1.0]], lam=math.exp(4.5))
    def test_entrywise_relative_error(self, d, lam):
        self.check(np.array(d), lam)

    @settings(max_examples=30, deadline=None)
    @given(d=oracle_hub(), lam=ORACLE_LAMBDA)
    def test_entrywise_relative_error_with_a_hub(self, d, lam):
        # the plan's norm bound lies far below ||D||_1, the hub's column sum
        self.check(d, lam)

    @settings(max_examples=30, deadline=None)
    @given(d=oracle_hub().map(np.transpose), lam=ORACLE_LAMBDA)
    def test_entrywise_relative_error_with_a_hub_row(self, d, lam):
        self.check(d, lam)

    def test_damping_without_squarings_keeps_its_precision(self):
        # D**4 = 0, so the plan squares nothing and damps by e**-720, which is
        # subnormal; taken in two halves, neither factor loses precision
        d = np.diag([1.0] * 3, k=1)
        assert engine._plan(720.0 * d) == 0
        assert relative_error(pwp(d, 720.0), taylor_oracle(d, 720.0)[0]) < 1e-13

    @pytest.mark.parametrize("lam, squarings", [(1e-8, 0), (3.0, 3)])
    def test_tiny_and_scaled_norms(self, lam, squarings):
        # country 2 influences no one, so column 2 is exactly 0 off the
        # diagonal, which relative_error requires of the result too; every
        # other entry is reached by a path of at most 2 steps
        d = np.array([[0.0, 0.5, 0.0], [0.4, 0.0, 0.0], [0.3, 0.2, 0.0]])
        assert engine._plan(lam * d) == squarings
        for operator, exact in zip((pwp, heat_kernel), taylor_oracle(d, lam)):
            assert relative_error(operator(d, lam), exact) < 1e-13, operator.__name__

    def test_oracle_matches_the_finite_series_of_a_chain(self):
        # D[i, i+1] = 0.5 is nilpotent: exp(lam*D) - I has three terms
        lam = Decimal(1e-20)
        with decimal.localcontext() as context:
            context.prec = 60
            expected = (lam**3 / 48) / (lam.exp() - 1)
        exact = taylor_oracle(np.diag([0.5] * 3, k=1), 1e-20)[0][0][3]
        assert abs(exact - expected) <= expected * Decimal("1e-55")
        assert float(expected) == pytest.approx(2.0833333e-42)

    @pytest.mark.xfail(
        strict=True,
        reason="the series stops on a normwise rule, so an entry reached only by a "
        "path far below the largest entry is 0",
    )
    def test_long_path_entry_at_tiny_lambda(self):
        # the plan squares nothing, and entry [0, 13] of this 14-country chain
        # is reached only by the path of 13 steps, one more than the degree,
        # so it comes out 0 against 2.0e-254
        d = np.diag([0.5] * 13, k=1)
        assert relative_error(pwp(d, 1e-20), taylor_oracle(d, 1e-20)[0]) < 1e-12

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the plan bounds the truncation relative to the norm, not to each "
        "entry, so an entry reached only by paths almost as long as the degree, 12, "
        "loses the next terms of its own series",
    )
    def test_entry_reached_only_by_long_cycles(self):
        # a chain 0 -> 1 -> ... -> 11 with a cycle 0 <-> 1; the plan squares
        # nothing, and entry [11, 0] is reached only by paths of 11 + 2j steps,
        # so dropping the paths of 13 steps and more leaves both operators off
        # by 1.4e-4 there
        d = np.diag([0.5] * 11, k=-1)
        d[0, 1] = 0.5
        lam = 0.3
        for operator, exact in zip((pwp, heat_kernel), taylor_oracle(d, lam)):
            assert relative_error(operator(d, lam), exact) < 1e-13, operator.__name__


class TestMethodSpec:
    def test_defaults(self):
        assert MethodSpec("pwp").lam == 1.0
        assert MethodSpec("heatkernel").lam == 1.0
        assert MethodSpec("micmac").k == 4
        assert MethodSpec("pagerank").p == 0.86

    def test_rejects_irrelevant_parameter(self):
        with pytest.raises(ValueError):
            MethodSpec("pwp", k=4)
        with pytest.raises(ValueError):
            MethodSpec("micmac", p=0.5)
        with pytest.raises(ValueError):
            MethodSpec("pagerank", lam=1.0)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            MethodSpec("eigen")

    def test_rejects_out_of_range(self):
        for lam in (-1.0, 0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="lambda"):
                MethodSpec("pwp", lam=lam)
            with pytest.raises(ValueError, match="lambda"):
                MethodSpec("heatkernel", lam=lam)
        with pytest.raises(ValueError):
            MethodSpec("micmac", k=0)
        with pytest.raises(ValueError):
            MethodSpec("pagerank", p=1.5)

    @pytest.mark.parametrize(
        ("name", "value"),
        [("k", 0), ("k", 2.5), ("k", math.nan), ("k", math.inf),
         ("p", 0), ("p", 1), ("p", math.nan)],
    )
    def test_parameter_outside_domain_is_named(self, name, value):
        method, operator = {"k": ("micmac", micmac), "p": ("pagerank", pagerank_limit)}[name]
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match=f"^{name} must"):
            operator(d, value)
        with pytest.raises(ValueError, match=f"^{name} must"):
            MethodSpec(method, **{name: value})

    def test_apply_dispatches(self):
        d = np.array([[0.0, 0.4], [0.3, 0.0]])
        assert np.array_equal(MethodSpec("pwp", lam=2.0).apply(d), pwp(d, 2.0))
        assert np.array_equal(MethodSpec("micmac", k=2).apply(d), micmac(d, 2))
        assert np.array_equal(MethodSpec("heatkernel").apply(d), heat_kernel(d, 1.0))
        # d's columns sum to 0.3 and 0.4: pagerank normalizes raw weights first
        with pytest.raises(ColumnStochasticityError):
            pagerank_limit(d)
        assert np.array_equal(
            MethodSpec("pagerank").apply(d), pagerank_limit(column_normalize(d))
        )

    def test_methods_registry_lists_every_operator(self):
        assert tuple(MethodSpec.METHODS) == ("pwp", "micmac", "pagerank", "heatkernel")
