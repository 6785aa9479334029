"""Operators turning a direct-influence matrix into indirect influences.

Four operators are provided, all reading a matrix ``D`` whose entry
``[a, b]`` is the direct influence of ``b`` on ``a``:

* ``micmac``: ``D^k``, counting paths of length exactly ``k``.
* ``pagerank_limit``: ``lim_k [p*Dbar + (1-p)*E_n]^k`` where ``Dbar``
  replaces zero columns with ``1/n`` and ``E_n`` is the all-``1/n``
  matrix; the teleportation limit, requiring column sums of 0 or 1.
  Its every column is the solution of one linear system,
  ``(I - p*Dbar) v = (1-p)/n * 1``, exact for every ``p`` in (0, 1).
* ``heat_kernel``: ``exp(lambda*(D - I))``, a diffusion-style smoothing.
* ``pwp``: ``(exp(lambda*D) - I) / (exp(lambda) - 1)``, where every chain
  of direct influences, of any length, contributes, weighted by
  ``lambda^k / k!``; the divisor is the *scalar* ``exp(lambda) - 1``.

``heat_kernel`` and ``pwp`` share one kernel,
``G = e^-lambda * (exp(lambda*D) - I)``, computed by scaling and squaring on
``exp(x) - 1`` (Higham 2005, SIAM J. Matrix Anal. Appl. 26(4)):
``heat_kernel = G + e^-lambda * I`` and ``pwp = G / (1 - e^-lambda)``.
The squaring count is planned from the norms of the powers of ``|D|``
(Al-Mohy & Higham 2009, SIAM J. Matrix Anal. Appl. 31(3)), and an
approximation of order 15 is evaluated in 4 products (Sastre, Ibanez &
Defez 2019, Appl. Math. Comput. 340).  Neither operator forms
``e^lambda``, so both are finite for every ``lambda > 0`` with
``lambda * alpha(D) <= 2**32 * theta`` (about 2.99e9), where
``alpha(D) = min over p = 1..4 of max(d_p, d_{p+1})`` and
``d_p = max(|| |D|^p ||_1, || |D|^p ||_inf) ** (1/p)``.  ``alpha(D)`` lies
between the spectral radius of ``D`` and ``max(||D||_1, ||D||_inf)``.  Beyond
that, ``lambda*D`` past the float range included, the scaling needs more than
``_MAX_SQUARINGS`` squarings and raises :class:`OverflowError`.

Each operator accepts an :class:`~tradenet.model.InfluenceMatrix` (returning
one with kind ``indirect`` and the operator's parameters) or a plain square
array (returning an array).  All are pure, deterministic functions of their
inputs.  An input holding a nan or an infinity raises :class:`ValueError`,
naming the first such entry, before any arithmetic; a result that is not
finite (``micmac`` at a large ``k``, say) raises :class:`OverflowError`.
:class:`MethodSpec` is the registry of operator names the command line offers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ColumnStochasticityError,
    DimensionMismatchError,
    NegativeEntryError,
)
from .model import InfluenceMatrix, MatrixKind, check_finite

__all__ = [
    "MethodSpec",
    "matrix_exponential",
    "pwp",
    "micmac",
    "pagerank_limit",
    "column_normalize",
    "heat_kernel",
]

# The largest double with |e16| * theta**15 / 16! + theta**16 * e**theta / 17! <= 2**-53,
# e16 as below, so the order-15 approximation of exp(x) - 1 is exact to unit roundoff,
# relative to ||x||, wherever the norm bound of x is at most theta
_THETA = 0.6957295666481742
_MAX_SQUARINGS = 32  # inputs needing more are refused with OverflowError

# Order 15 in 4 products, the "15+" scheme of Sastre, Ibanez & Defez (2019, "Boosting
# the computation of the matrix exponential", Appl. Math. Comput. 340), in the form of
# exp(x) - 1, so that no factor has an identity term:
#   A2 = A @ A,  y02 = A2 @ (c1*A2 + c2*A),
#   y12 = (y02 + c3*A2 + c4*A) @ (y02 + c5*A2) + c6*y02 + c7*A2,
#   T = (y12 + c8*A2 + c9*A) @ (y12 + c10*y02 + c11*A) + c12*y12 + c13*y02 + c14*A2 + A.
# The coefficients solve T = sum_{j=1..15} A^j / j! + (1 + e16) * A^16 / 16! in 50-digit
# arithmetic, e16 = -0.45425649779254129574.  Of the four real solutions with this e16
# (up to the sign of y02), this one cancels least in the form _taylor evaluates: with
# every coefficient replaced by its absolute value, j! times the coefficient of A^j is
# at most 10.9 (1 would be no cancellation at all), against 19.1 for the solution that
# cancels least in the form above (4.24 there).
_C15 = (
    0.00040187616102010357, 0.002945531440279683, -0.008709066576837676, 0.4017568440673568,
    0.03230762888122312, -0.023373194047115794, 0.2614927977298117, -0.23810703738709874,
    -0.04130276365929783, 5.792361707073261, 2.2242091724963737, 10.408017352313543,
    -3.030123400738712, -2.1297555904964356,
)


def _unpack(m) -> tuple[np.ndarray, InfluenceMatrix | None]:
    """``m``'s values, uncopied and only read (operators allocate their results), and ``m`` if labelled.

    A labelled matrix is square and finite by construction; a plain array is checked here.
    """
    if isinstance(m, InfluenceMatrix):
        return m.values, m
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    check_finite(a)
    return a, None


def _name(source: InfluenceMatrix | None, i) -> str:
    """Row or column ``i``'s name: its country code if labelled, else its index."""
    return source.labels[i] if source is not None else str(i)


def _pack(source: InfluenceMatrix | None, values: np.ndarray, kind: MatrixKind | None = None):
    # every operator's result passes here, so none returns inf or nan
    if not np.all(np.isfinite(values)):
        raise OverflowError("result overflowed the floating-point range")
    if source is None:
        return values
    return InfluenceMatrix(source.labels, values, kind or source.kind)


def _check_lambda(lam) -> None:
    if not 0 < lam < math.inf:
        raise ValueError(f"lambda must be positive and finite, got {lam}")


def _check_k(k) -> None:
    if not (1 <= k < math.inf and k == int(k)):
        raise ValueError(f"k must be a positive integer, got {k}")


def _check_p(p) -> None:
    if not 0 < p < 1:
        raise ValueError(f"p must lie in (0, 1), got {p}")


def _plan(a: np.ndarray) -> int:
    """The squaring count ``k`` for ``exp(a) - I`` by the order-15 approximation ``_C15``.

    ``d_p = max(||B^p||_1, ||B^p||_inf) ** (1/p)`` with ``B = |a|``, for
    p = 1..5, from the vectors ``1^T B^p`` and ``B^p 1``: exact norms of
    ``a**p`` for ``a >= 0``, upper bounds otherwise.  For ``j >= p*(p-1)``,
    ``||a**j|| <= max(d_p, d_{p+1})**j`` (Al-Mohy & Higham 2009, SIAM J.
    Matrix Anal. Appl. 31(3)), so the remainder, from degree 16 on, is bounded
    with ``alpha``, the least such ``max`` over ``p*(p-1) <= 16``, and ``k``
    squarings bring ``alpha / 2**k`` to ``_THETA``.
    """
    b = np.abs(a)
    left = right = np.ones(len(a))
    norms = []
    with np.errstate(over="ignore", invalid="ignore"):  # a huge input gives inf or nan
        for _ in range(5):
            left, right = left @ b, b @ right
            norms.append(np.maximum(left.max(), right.max()))
        d = np.array(norms) ** (1.0 / np.arange(1, 6))
    d[np.isnan(d)] = math.inf
    alpha = min(max(d[p - 1], d[p]) for p in range(1, 5))
    if not alpha <= _THETA * 2.0**_MAX_SQUARINGS:
        raise OverflowError(
            f"matrix norm bound {alpha:g} needs more than {_MAX_SQUARINGS} squarings"
        )
    return 0 if alpha <= _THETA else math.ceil(math.log2(alpha / _THETA))


def _blocks(buffer: np.ndarray, rows: int) -> list[tuple[slice, np.ndarray]]:
    """``(s, spare)`` for each block of ``rows`` rows: its slice and the rows of ``buffer`` it may use."""
    # a list: as a generator, with the same arrays made in the same order, it raised
    # operator-sweep's peak RSS by 0.9 MB (117.3-117.6 against 116.5, 2-CPU x86-64 host)
    n = buffer.shape[1]
    return [(slice(start, start + rows), buffer[: min(rows, n - start)]) for start in range(0, n, rows)]


def _taylor(a: np.ndarray, d: np.ndarray, step: float, h: float) -> np.ndarray:
    """``h**2 * T``, ``T`` the order-15 approximation ``_C15`` of ``exp(A) - 1``, in 4 products.

    ``a`` holds ``A = step * d`` and is overwritten.  ``A`` is read from
    ``d`` once ``a`` holds something else, as ``(c * step) * d``.  Two more
    n x n arrays are made, and a buffer of n/8 rows through which every
    scaled term and the two row-blocked products pass, so no n x n
    temporary is made.  Each combination runs a block of rows at a time:
    around a product, blocks of n/8 rows, for BLAS's sake, with the product
    block added into one of the arrays; otherwise blocks of at most 2**15
    entries, whose operands stay in cache while they are combined.  No
    factor has an identity term, so an entry that no path reaches is
    exactly 0 in every power of ``A`` and so in ``T``.

    ``y02`` and ``A2`` are overwritten by the last product's factors
    ``R2 = y12 + c10*y02 + c11*A`` and ``L2 = y12 + c8*A2 + c9*A``, and are
    recovered from them in the last combination.  Each recovery subtracts
    the same rounded ``c * step * d`` that went into its factor, so for a
    nilpotent ``A`` (``A @ A = 0``) ``T`` is ``A`` exactly.  The damping
    ``h**2`` multiplies the last sum as two factors ``h``, so neither underflows.

    The buffer is allocated after the first n x n array: before it, it raised
    ``operator-sweep``'s peak RSS by about 3 MB (a split heap hole, most likely).
    """
    c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13, c14 = _C15
    n = len(d)
    x, y = a, a @ a  # A, A2
    buffer = np.empty((-(-n // 8), n))  # n/8 rows
    rows = max(1, min(len(buffer), 2**15 // n))  # elementwise blocks of at most 2**15 entries
    for s, spare in _blocks(buffer, rows):  # x <- c1*A2 + c2*A
        xs = x[s]
        xs *= c2
        xs += np.multiply(y[s], c1, out=spare)
    z = y @ x  # y02
    for s, spare in _blocks(buffer, rows):  # x <- R1 = y02 + c5*A2, z <- L1 = y02 + c3*A2 + c4*A
        xs, zs = x[s], z[s]
        np.multiply(y[s], c5, out=xs)
        xs += zs
        zs += np.multiply(y[s], c3, out=spare)
        zs += np.multiply(d[s], c4 * step, out=spare)
    for s, spare in _blocks(buffer, len(buffer)):  # z <- y12 = L1 @ R1 + c6*y02 + c7*A2, y02 = R1 - c5*A2
        np.matmul(z[s], x, out=spare)
        zs = np.multiply(x[s], c6, out=z[s])
        zs += spare
        zs += np.multiply(y[s], c7 - c6 * c5, out=spare)
    for s, spare in _blocks(buffer, rows):  # x <- R2, y <- L2
        xs, ys, zs = x[s], y[s], z[s]
        xs *= c10
        xs += np.multiply(ys, -c10 * c5, out=spare)
        xs += zs
        xs += np.multiply(d[s], c11 * step, out=spare)
        ys *= c8
        ys += zs
        ys += np.multiply(d[s], c9 * step, out=spare)
    # c13*y02 = k13 * (R2 - c11*A - y12) and c14*A2 = k14 * (L2 - c9*A - y12)
    k13, k14 = c13 / c10, c14 / c8
    for s, spare in _blocks(buffer, len(buffer)):  # z <- h**2 * (L2 @ R2 + c12*y12 + c13*y02 + c14*A2 + A)
        np.matmul(y[s], x, out=spare)
        zs = z[s]
        zs *= c12 - k13 - k14
        zs += spare
        np.subtract(x[s], np.multiply(d[s], c11 * step, out=spare), out=spare)
        zs += np.multiply(spare, k13, out=spare)
        np.subtract(y[s], np.multiply(d[s], c9 * step, out=spare), out=spare)
        zs += np.multiply(spare, k14, out=spare)
        zs += np.multiply(d[s], step, out=spare)
        zs *= h
        zs *= h
    return z


def _damped_expm1(d: np.ndarray, scale: float, s: float) -> np.ndarray:
    """``e**-s * (exp(scale*d) - I)`` by scaling and squaring, for a square array ``d``.

    :func:`_plan` picks a squaring count ``k`` for the kernel's one copy,
    ``x = scale*d``, which is then scaled in place by ``2**-k`` to ``A``.
    :func:`_taylor` evaluates the order-15 approximation of ``exp(A) - 1``
    in 4 products, damped by ``e**-c`` with ``c = s / 2**k``, as two factors
    ``e**(-c/2)`` after its last product, so neither factor underflows for
    ``c < 1400``.  Each of the ``k`` doublings applies
    ``exp(2x) - 1 = (exp(x) - 1)**2 + 2*(exp(x) - 1)`` with the damping
    folded in, ``G <- G @ G + 2*e**-c * G``, and doubles ``c``.

    ``d`` is finite; a ``scale*d`` past the float range has the norm bound
    inf, which :func:`_plan` refuses.  The undamped ``exp(scale*d)`` is never
    formed and ``d`` is only read.  Peak memory is three n x n arrays and a
    buffer of n/8 rows.
    """
    if d.size == 0:
        return np.zeros((0, 0))
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite x is refused by _plan, result by _pack
        x = d * scale
        squarings = _plan(x)
        x /= 2.0**squarings
        c = s / 2.0**squarings
        result = _taylor(x, d, scale / 2.0**squarings, math.exp(-c / 2))
        for _ in range(squarings):
            np.matmul(result, result, out=x)
            result *= 2.0 * math.exp(-c)
            result += x
            c *= 2.0
    return result


def matrix_exponential(m) -> np.ndarray:
    """Dense ``exp(m)``: the shared kernel's ``exp(m) - I``, plus ``I``.

    Errors are relative to ``max(1, ||exp(m)||)``, so entries far below 1
    (from a strongly negative spectrum) are accurate in absolute terms only.

    Raises
    ------
    DimensionMismatchError
        If ``m`` is not square.
    ValueError
        If ``m`` holds a nan or an infinity.
    OverflowError
        If the required scaling exceeds ``_MAX_SQUARINGS`` or the result
        leaves the representable range.
    """
    out = _damped_expm1(_unpack(m)[0], 1.0, 0.0)
    out.flat[:: len(out) + 1] += 1.0
    return _pack(None, out)


def _kernel(direct, lam: float) -> tuple[np.ndarray, InfluenceMatrix | None]:
    """The kernel ``e**-lam * (exp(lam*D) - I)`` that :func:`pwp` and :func:`heat_kernel` share."""
    _check_lambda(lam)
    values, source = _unpack(direct)
    return _damped_expm1(values, lam, lam), source


def pwp(direct, lam: float = 1.0):
    """Indirect influences as ``(exp(lam*D) - I) / (exp(lam) - 1)``.

    The numerator drops the identity from the matrix exponential
    (``exp(x) - 1`` applied to the matrix); the denominator is the scalar
    ``exp(lam) - 1``.  A directed path of any length from ``b`` to ``a``
    makes the output entry ``[a, b]`` positive, and as ``lam -> 0`` the
    output approaches ``D`` itself.

    Computed as ``e**-lam * (exp(lam*D) - I) / (1 - e**-lam)``, which never
    forms ``e**lam``; defined for finite ``lam > 0`` with
    ``lam * alpha(D) <= 2**32 * theta``, about 2.99e9 (see the module docstring).
    """
    out, source = _kernel(direct, lam)
    out /= -math.expm1(-lam)
    return _pack(source, out, MatrixKind.indirect("pwp", **{"lambda": lam}))


def micmac(direct, k: int = 4):
    """Indirect influences as the ``k``-th matrix power: paths of length ``k``."""
    _check_k(k)
    values, source = _unpack(direct)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow reported by _pack
        out = np.linalg.matrix_power(values, int(k))
    out = out.copy() if out is values else out  # k = 1 hands back the input itself
    return _pack(source, out, MatrixKind.indirect("micmac", k=k))


def column_normalize(direct):
    """Divide every nonzero column by its sum; zero columns stay zero.

    Makes a non-negative matrix admissible for :func:`pagerank_limit`
    (zero columns are handled there by teleportation).  A column whose sum
    leaves the floating-point range raises :class:`OverflowError`.
    """
    values, source = _unpack(direct)
    if values.size and values.min() < 0:
        raise NegativeEntryError("column normalization requires non-negative entries")
    with np.errstate(over="ignore"):  # an infinite sum is refused below
        sums = values.sum(axis=0)
    if sums.max(initial=0.0) == math.inf:
        raise OverflowError(f"column {_name(source, np.argmax(sums))} sums past the floating-point range")
    return _pack(source, values / np.where(sums > 0, sums, 1.0))


def pagerank_limit(direct, p: float = 0.86):
    """Teleportation limit of the direct matrix: rank-one stationary output.

    The limit of ``[p*Dbar + (1-p)*E_n]^k`` is the rank-one matrix whose
    every column is the stationary vector ``v``, the solution of
    ``(I - p*Dbar) v = (1-p)/n * 1`` (Langville & Meyer 2004, Internet
    Mathematics 1(3)).  ``Dbar`` is the input with zero columns replaced by
    ``1/n``.  ``I - p*Dbar`` is strictly column diagonally dominant with
    margin ``1 - p``, so one dense solve is exact to rounding for every
    ``p`` in (0, 1): its 1-norm condition number is at most
    ``(1 + p) / (1 - p)``.  Summing the system gives ``sum(v) = 1``, so
    ``v`` needs no renormalization.

    Raises
    ------
    ColumnStochasticityError
        If a column sum is neither 0 nor 1 (within 1e-9); raw trade or
        offer matrices must go through :func:`column_normalize` first.
    """
    _check_p(p)
    values, source = _unpack(direct)
    kind = MatrixKind.indirect("pagerank", p=p)
    n = values.shape[0]
    if n == 0:
        return _pack(source, np.zeros((0, 0)), kind)
    if values.min() < 0:
        raise NegativeEntryError("pagerank requires non-negative entries")

    with np.errstate(over="ignore"):  # an infinite sum is refused below
        sums = values.sum(axis=0)
    zero_cols = np.abs(sums) <= 1e-9
    bad = ~zero_cols & (np.abs(sums - 1.0) > 1e-9)
    if bad.any():
        j = int(np.argmax(bad))
        raise ColumnStochasticityError(
            f"column {_name(source, j)} sums to {sums[j]:.12g}, expected 0 or 1"
        )

    system = values * -p  # I - p*Dbar, a fresh array
    system[:, zero_cols] = (1.0 / n) * -p
    system.flat[:: n + 1] += 1.0
    v = np.linalg.solve(system, np.full(n, (1.0 - p) / n))
    del system  # freed before the n x n result is built
    return _pack(source, np.repeat(v[:, None], n, axis=1), kind)


def heat_kernel(direct, lam: float = 1.0):
    """Indirect influences as ``exp(lam*(D - I))``.

    Computed as ``e**-lam * (exp(lam*D) - I) + e**-lam * I``, with no shift
    of ``D``; defined for finite ``lam > 0`` with
    ``lam * alpha(D) <= 2**32 * theta``, about 2.99e9 (see the module docstring).
    """
    out, source = _kernel(direct, lam)
    out.flat[:: len(out) + 1] += math.exp(-lam)
    return _pack(source, out, MatrixKind.indirect("heatkernel", **{"lambda": lam}))


@dataclass(frozen=True)
class MethodSpec:
    """An indirect-influence operator choice plus its parameter.

    ``METHODS`` lists the operator names, each with its one parameter and
    that parameter's conventional default: ``lam=1`` for ``pwp`` and
    ``heatkernel``, ``k=4`` for ``micmac``, ``p=0.86`` for ``pagerank``.
    Only the method's own parameter may be set.
    """

    method: str
    lam: float | None = None
    k: int | None = None
    p: float | None = None

    METHODS = {"pwp": ("lam", 1.0), "micmac": ("k", 4), "pagerank": ("p", 0.86), "heatkernel": ("lam", 1.0)}

    def __post_init__(self) -> None:
        if self.method not in self.METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        relevant, default = self.METHODS[self.method]
        for name in ("lam", "k", "p"):
            value = getattr(self, name)
            if name == relevant:
                if value is None:
                    object.__setattr__(self, name, default)
            elif value is not None:
                shown = "lambda" if name == "lam" else name
                raise ValueError(f"parameter {shown} does not apply to {self.method}")
        check = {"lam": _check_lambda, "k": _check_k, "p": _check_p}[relevant]
        check(getattr(self, relevant))

    def apply(self, direct):
        """Run the chosen operator on a direct matrix.

        ``pagerank`` column-normalizes its input first, since raw weight
        matrices are not column-stochastic.
        """
        if self.method == "pwp":
            return pwp(direct, self.lam)
        if self.method == "heatkernel":
            return heat_kernel(direct, self.lam)
        if self.method == "micmac":
            return micmac(direct, self.k)
        return pagerank_limit(column_normalize(direct), self.p)
