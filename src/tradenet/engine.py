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
Neither forms ``e^lambda``, so both are finite for every ``lambda > 0`` with
``lambda * ||D||_1 <= 2**31`` (largest column sum of ``|D|``); beyond that
the scaling needs more than ``_MAX_SQUARINGS`` squarings and raises
:class:`OverflowError`.

Each operator accepts an :class:`~tradenet.model.InfluenceMatrix` (returning
one with kind ``indirect`` and the operator's parameters) or a plain square
array (returning an array).  All are pure, deterministic functions of their
inputs.  :class:`MethodSpec` is the registry of operator names the command
line offers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ColumnStochasticityError,
    ConvergenceError,
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

_SERIES_TOLERANCE = 2.0**-53  # series stops at a term this small relative to the sum
_TAYLOR_TERM_CAP = 128  # unreachable for scaled norm <= 0.5; guards the loop
_MAX_SQUARINGS = 32  # inputs needing more are refused with OverflowError


def _square_array(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def _unpack(m) -> tuple[np.ndarray, InfluenceMatrix | None]:
    if isinstance(m, InfluenceMatrix):
        return np.array(m.values), m
    return np.array(_square_array(m)), None


def _pack(source: InfluenceMatrix | None, values: np.ndarray, kind: MatrixKind | None = None):
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


def _damped_expm1(a: np.ndarray, s: float) -> np.ndarray:
    """``e**-s * (exp(a) - I)`` by scaling and squaring, for a square array ``a``.

    ``a`` is scaled by ``2**k`` so its 1-norm is at most 0.5.  The series
    ``x + x**2/2! + ...`` (``exp(x) - 1``, no constant term) is summed at
    ``a / 2**k`` until a term falls below unit roundoff times the largest
    entry of the sum, and the sum is multiplied by ``e**-c`` with
    ``c = s / 2**k``.  Each of the ``k`` doublings applies
    ``exp(2x) - 1 = (exp(x) - 1)**2 + 2*(exp(x) - 1)`` with the damping
    folded in, ``G <- G @ G + 2*e**-c * G``, and doubles ``c``.

    No identity enters the sum, so an entry that no path reaches stays
    exactly zero, and the undamped ``exp(a)`` is never formed.
    """
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix exponential of a non-finite matrix")

    norm = float(np.abs(a).sum(axis=0).max())
    squarings = 0 if norm <= 0.5 else int(math.ceil(math.log2(norm / 0.5)))
    if squarings > _MAX_SQUARINGS:
        raise OverflowError(
            f"matrix 1-norm {norm:g} needs {squarings} squarings (limit {_MAX_SQUARINGS})"
        )

    scaled = a / 2.0**squarings
    term = scaled
    result = scaled.copy()
    terms = 1
    with np.errstate(over="ignore", invalid="ignore"):  # overflow reported below
        while (term_norm := np.abs(term).max()) > _SERIES_TOLERANCE * np.abs(result).max():
            if terms == _TAYLOR_TERM_CAP:
                raise ConvergenceError(
                    f"Taylor series not converged after {terms} terms "
                    f"(last term norm {term_norm:.3g})"
                )
            terms += 1
            term = term @ scaled
            term /= terms
            result += term
        c = s / 2.0**squarings
        result *= math.exp(-c)
        square = np.empty_like(result)  # reused, so the doublings allocate nothing
        for _ in range(squarings):
            np.matmul(result, result, out=square)
            result *= 2.0 * math.exp(-c)
            result += square
            c *= 2.0

    if not np.all(np.isfinite(result)):
        raise OverflowError("matrix exponential overflowed the floating-point range")
    return result


def matrix_exponential(m) -> np.ndarray:
    """Dense ``exp(m)``: the shared kernel's ``exp(m) - I``, plus ``I``.

    Errors are relative to ``max(1, ||exp(m)||)``, so entries far below 1
    (from a strongly negative spectrum) are accurate in absolute terms only.

    Raises
    ------
    DimensionMismatchError
        If ``m`` is not square.
    ConvergenceError
        If the series has not converged after ``_TAYLOR_TERM_CAP`` terms.
    OverflowError
        If the required scaling exceeds ``_MAX_SQUARINGS`` or the result
        leaves the representable range.
    """
    out = _damped_expm1(_square_array(m), 0.0)
    out.flat[:: len(out) + 1] += 1.0
    return out


def pwp(direct, lam: float = 1.0):
    """Indirect influences as ``(exp(lam*D) - I) / (exp(lam) - 1)``.

    The numerator drops the identity from the matrix exponential
    (``exp(x) - 1`` applied to the matrix); the denominator is the scalar
    ``exp(lam) - 1``.  A directed path of any length from ``b`` to ``a``
    makes the output entry ``[a, b]`` positive, and as ``lam -> 0`` the
    output approaches ``D`` itself.

    Computed as ``e**-lam * (exp(lam*D) - I) / (1 - e**-lam)``, which never
    forms ``e**lam``; defined for finite ``lam > 0`` with ``lam * ||D||_1 <= 2**31``.
    """
    _check_lambda(lam)
    values, source = _unpack(direct)
    values *= lam  # a private copy: scaling in place saves one n x n array
    out = _damped_expm1(values, lam)
    out /= -math.expm1(-lam)
    return _pack(source, out, MatrixKind.indirect("pwp", **{"lambda": lam}))


def micmac(direct, k: int = 4):
    """Indirect influences as the ``k``-th matrix power: paths of length ``k``."""
    _check_k(k)
    values, source = _unpack(direct)
    out = np.linalg.matrix_power(values, int(k))
    return _pack(source, out, MatrixKind.indirect("micmac", k=k))


def column_normalize(direct):
    """Divide every nonzero column by its sum; zero columns stay zero.

    Makes a non-negative matrix admissible for :func:`pagerank_limit`
    (zero columns are handled there by teleportation).
    """
    values, source = _unpack(direct)
    if values.size and values.min() < 0:
        raise NegativeEntryError("column normalization requires non-negative entries")
    sums = values.sum(axis=0)
    out = values.copy()
    nonzero = sums > 0
    out[:, nonzero] = values[:, nonzero] / sums[nonzero]
    return _pack(source, out)


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
        return _pack(source, values, kind)
    if values.min() < 0:
        raise NegativeEntryError("pagerank requires non-negative entries")

    sums = values.sum(axis=0)
    zero_cols = np.abs(sums) <= 1e-9
    bad = ~zero_cols & (np.abs(sums - 1.0) > 1e-9)
    if bad.any():
        j = int(np.argmax(bad))
        label = source.labels[j] if source is not None else str(j)
        raise ColumnStochasticityError(
            f"column {label} sums to {sums[j]:.12g}, expected 0 or 1"
        )

    values[:, zero_cols] = 1.0 / n  # a private copy, turned into I - p*Dbar in place
    values *= -p
    values.flat[:: n + 1] += 1.0
    v = np.linalg.solve(values, np.full(n, (1.0 - p) / n))
    return _pack(source, np.repeat(v[:, None], n, axis=1), kind)


def heat_kernel(direct, lam: float = 1.0):
    """Indirect influences as ``exp(lam*(D - I))``.

    Computed as ``e**-lam * (exp(lam*D) - I) + e**-lam * I``, with no shift
    of ``D``; defined for finite ``lam > 0`` with ``lam * ||D||_1 <= 2**31``.
    """
    _check_lambda(lam)
    values, source = _unpack(direct)
    values *= lam
    out = _damped_expm1(values, lam)
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
