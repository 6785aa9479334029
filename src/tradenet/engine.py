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
(Al-Mohy & Higham 2009, SIAM J. Matrix Anal. Appl. 31(3)), and the Taylor
polynomial of degree 12 is evaluated in 4 products (Bader, Blanes & Casas
2019, Mathematics 7(12):1174; Sastre 2018, Linear Algebra Appl. 539).
Neither operator forms ``e^lambda``, so both are finite for every
``lambda > 0`` with ``lambda * alpha(D) <= 2**32 * theta_12`` (about
1.28e9), where ``alpha(D) = min over p = 1..4 of max(d_p, d_{p+1})`` and
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
from .model import InfluenceMatrix, MatrixKind

__all__ = [
    "MethodSpec",
    "matrix_exponential",
    "pwp",
    "micmac",
    "pagerank_limit",
    "column_normalize",
    "heat_kernel",
]

# The largest double with theta**12 * e**theta / 13! <= 2**-53, so the Taylor
# polynomial of exp(x) - 1 of degree 12 is exact to unit roundoff, relative to ||x||,
# wherever the norm bound of x is at most theta
_THETA_12 = 0.29909978219073363
_MAX_SQUARINGS = 32  # inputs needing more are refused with OverflowError

# Degree 12 in 4 products (Bader, Blanes & Casas 2019, Mathematics 7(12):1174;
# Sastre 2018, Linear Algebra Appl. 539:229-250): A6 = B3 + B4 @ B4 and
# T = B1 + (B5 + A6) @ A6.  B1 and B4 are cubics in A with no constant term, given
# by their coefficients of A, A^2 and A^3.
# B3 and B5 are given in the basis (B1, B4, A, I), since A^2 and A^3 are overwritten
# before they are formed; B3 has no I term.  The coefficients solve
# T = sum_{j=1..12} A^j / j! in 50-digit arithmetic, on the member of a one-parameter
# family (A6's coefficient of A^3 is 0.005) whose evaluated form cancels least: with
# every coefficient replaced by its absolute value, j! times the coefficient of A^j
# is at most 2.67 (1 would be no cancellation at all).
_B1 = (-0.5481612286011007, -0.4120038905097229, 0.0018194925272970763)
_B4 = (0.13181061013830184, 0.02027855540589259, 0.006759518468630863)
_B3 = (-0.16629098316673224, -0.006404645614961781, 0.09948346868683537)
_B5 = (0.02376991503285915, 3.5432881550110182, 0.47572356903313884, 8.157080816735766)


def _unpack(m) -> tuple[np.ndarray, InfluenceMatrix | None]:
    """``m``'s values, uncopied and only read (operators allocate their results), and ``m`` if labelled."""
    source = m if isinstance(m, InfluenceMatrix) else None
    a = np.asarray(m if source is None else m.values, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    if a.size and not (a.min() > -math.inf and a.max() < math.inf):  # no n x n mask; nan fails both
        i, j = np.argwhere(~np.isfinite(a))[0]
        raise ValueError(f"entry at row {_name(source, i)}, column {_name(source, j)} is {a[i, j]}, not finite")
    return a, source


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
    """The squaring count ``k`` for ``exp(a) - I`` by the Taylor polynomial of degree 12.

    ``d_p = max(||B^p||_1, ||B^p||_inf) ** (1/p)`` with ``B = |a|``, for
    p = 1..5, from the vectors ``1^T B^p`` and ``B^p 1``: exact norms of
    ``a**p`` for ``a >= 0``, upper bounds otherwise.  For ``j >= p*(p-1)``,
    ``||a**j|| <= max(d_p, d_{p+1})**j`` (Al-Mohy & Higham 2009, SIAM J.
    Matrix Anal. Appl. 31(3)), so the remainder after degree 12 is bounded
    with ``alpha``, the least such ``max`` over ``p*(p-1) <= 13``, and ``k``
    squarings bring ``alpha / 2**k`` to ``_THETA_12``.
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
    if not alpha <= _THETA_12 * 2.0**_MAX_SQUARINGS:
        raise OverflowError(
            f"matrix norm bound {alpha:g} needs more than {_MAX_SQUARINGS} squarings"
        )
    return 0 if alpha <= _THETA_12 else math.ceil(math.log2(alpha / _THETA_12))


def _combine(out: np.ndarray, scale: float, terms, buffer: np.ndarray, identity: float = 0.0) -> None:
    """``out <- scale * out + sum(c * t for c, t in terms) + identity * I`` in place, a few rows at a time.

    No term shares memory with ``out``.  Each scaled term goes through
    ``buffer``, so no n x n temporary is made, and the work goes in blocks
    of at most 2**15 entries, whose operands stay in cache while they are
    combined.
    """
    rows = max(1, min(len(buffer), 2**15 // len(out)))
    for start in range(0, len(out), rows):
        block = out[start : start + rows]
        spare = buffer[: len(block)]
        block *= scale
        for c, term in terms:
            block += np.multiply(term[start : start + rows], c, out=spare)
    out.flat[:: len(out) + 1] += identity


def _taylor(a: np.ndarray, d: np.ndarray, step: float, h: float) -> np.ndarray:
    """``h**2 * T``, ``T`` the Taylor polynomial ``sum_{j=1..12} A**j / j!`` of ``exp(A) - 1``.

    ``a`` holds ``A = step * d`` and is overwritten.  ``A`` is read from
    ``d`` once ``a`` holds something else, ``step`` folded into the
    coefficient.  Two more n x n arrays are made, and a block of n/8 rows
    through which every scaled term and the last product pass; that product
    is added row block by row block into one of the arrays, which is
    returned.  The identity term multiplies only a factor with no constant
    term, so ``T`` has none, and an entry that no path reaches is exactly 0
    in every power of ``A`` and so in ``T``.

    The block is allocated after the first n x n array: before it, it raised
    ``operator-sweep``'s peak RSS by about 3 MB (a split heap hole, most likely).
    """
    (b1, b2, b3), (c1, c2, c3), (u1, u4, ua), (v1, v4, va, v0) = _B1, _B4, _B3, _B5
    a2 = a @ a
    buffer = np.empty((-(-len(d) // 8), len(d)))  # n/8 rows
    a3 = a2 @ a
    _combine(a, c1, [(c2, a2), (c3, a3)], buffer)  # B4
    _combine(a2, b2, [(b3, a3), (b1 * step, d)], buffer)  # B1
    np.matmul(a, a, out=a3)
    _combine(a3, 1.0, [(u1, a2), (u4, a), (ua * step, d)], buffer)  # A6
    _combine(a, h * v4, [(h * v1, a2), (h, a3), (h * va * step, d)], buffer, h * v0)  # h * (B5 + A6)
    rows = len(buffer)
    for start in range(0, len(a2), rows):  # h**2 * T = h * (h * B1 + h * (B5 + A6) @ A6)
        block = a2[start : start + rows]
        spare = buffer[: len(block)]
        np.matmul(a[start : start + rows], a3, out=spare)
        block *= h
        block += spare
        block *= h
    return a2


def _damped_expm1(d: np.ndarray, scale: float, s: float) -> np.ndarray:
    """``e**-s * (exp(scale*d) - I)`` by scaling and squaring, for a square array ``d``.

    :func:`_plan` picks a squaring count ``k`` for the kernel's one copy,
    ``x = scale*d``, which is then scaled in place by ``2**-k`` to ``A``.
    :func:`_taylor` evaluates the Taylor polynomial of ``exp(A) - 1`` of
    degree 12 in 4 products, damped by ``e**-c`` with ``c = s / 2**k``, half
    in its last combinations and half after the last product, so neither
    factor underflows for ``c < 1400``.  Each of the ``k`` doublings applies
    ``exp(2x) - 1 = (exp(x) - 1)**2 + 2*(exp(x) - 1)`` with the damping
    folded in, ``G <- G @ G + 2*e**-c * G``, and doubles ``c``.

    ``d`` is finite; a ``scale*d`` past the float range has the norm bound
    inf, which :func:`_plan` refuses.  The undamped ``exp(scale*d)`` is never
    formed and ``d`` is only read.  Peak memory is three n x n arrays and a
    block of n/8 rows.
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
    ``lam * alpha(D) <= 2**32 * theta_12``, about 1.28e9 (see the module docstring).
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
    ``lam * alpha(D) <= 2**32 * theta_12``, about 1.28e9 (see the module docstring).
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
