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
The Taylor degree and the squaring count are planned together from the
norms of the powers of ``|D|`` (Al-Mohy & Higham 2009, SIAM J. Matrix Anal.
Appl. 31(3)), and the polynomial is evaluated with two stored powers
(Paterson & Stockmeyer 1973, SIAM J. Comput. 2(1)).  Neither operator forms
``e^lambda``, so both are finite for every ``lambda > 0`` with
``lambda * alpha(D) <= 2**32 * theta_30`` (about 1.5e10), where
``alpha(D) = min over p = 1..6 of max(d_p, d_{p+1})`` and
``d_p = max(|| |D|^p ||_1, || |D|^p ||_inf) ** (1/p)``.  ``alpha(D)`` lies
between the spectral radius of ``D`` and ``max(||D||_1, ||D||_inf)``.  Beyond
that the scaling needs more than ``_MAX_SQUARINGS`` squarings and raises
:class:`OverflowError`.

Each operator accepts an :class:`~tradenet.model.InfluenceMatrix` (returning
one with kind ``indirect`` and the operator's parameters) or a plain square
array (returning an array).  All are pure, deterministic functions of their
inputs.  A result that is not finite (``micmac`` at a large ``k``, say)
raises :class:`OverflowError`.  :class:`MethodSpec` is the registry of
operator names the command line offers.
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

# _THETA[m]: the largest double with theta**m * e**theta / (m+1)! <= 2**-53, so the
# Taylor polynomial of exp(x) - 1 of degree m is exact to unit roundoff, relative to
# ||x||, wherever the norm bound of x is at most theta
_THETA = {
    2: 2.5809567946450946e-08,
    4: 0.0003397120758889193,
    6: 0.00906394769366993,
    8: 0.049881413880399864,
    10: 0.14401316089619626,
    12: 0.29909978219073363,
    14: 0.5127944186695251,
    16: 0.7783122686385472,
    18: 1.087825763625857,
    20: 1.4339988951133145,
    22: 1.8105082039852736,
    24: 2.2121075682332556,
    26: 2.634519263943621,
    28: 3.0742778261872727,
    30: 3.5285776080709157,
}
_MAX_SQUARINGS = 32  # inputs needing more are refused with OverflowError


def _unpack(m) -> tuple[np.ndarray, InfluenceMatrix | None]:
    """``m``'s values, uncopied and only read (operators allocate their results), and ``m`` if labelled."""
    source = m if isinstance(m, InfluenceMatrix) else None
    a = np.asarray(m if source is None else m.values, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a, source


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


def _plan(a: np.ndarray) -> tuple[int, int]:
    """The even degree ``m`` and squaring count ``k`` for ``exp(a) - I`` in the fewest products.

    ``d_p = max(||B^p||_1, ||B^p||_inf) ** (1/p)`` with ``B = |a|``, for
    p = 1..7, from the vectors ``1^T B^p`` and ``B^p 1``: exact norms of
    ``a**p`` for ``a >= 0``, upper bounds otherwise.  For ``j >= p*(p-1)``,
    ``||a**j|| <= max(d_p, d_{p+1})**j`` (Al-Mohy & Higham 2009, SIAM J.
    Matrix Anal. Appl. 31(3)), so degree ``m`` bounds its remainder with
    ``alpha_m``, the least such ``max`` over ``p*(p-1) <= m + 1``, and needs
    ``k`` squarings to bring ``alpha_m / 2**k`` to ``_THETA[m]``.  Of the
    plans with ``k <= _MAX_SQUARINGS`` the one with the fewest products
    ``k + m/2`` wins, ties going to fewer squarings.
    """
    b = np.abs(a)
    left = right = np.ones(len(a))
    norms = []
    with np.errstate(over="ignore", invalid="ignore"):  # a huge input gives inf or nan
        for _ in range(7):
            left, right = left @ b, b @ right
            norms.append(np.maximum(left.max(), right.max()))
        d = np.array(norms) ** (1.0 / np.arange(1, 8))
    d[np.isnan(d)] = math.inf
    plans = []
    for m, theta in _THETA.items():
        alpha = min(max(d[p - 1], d[p]) for p in range(1, 7) if p * (p - 1) <= m + 1)
        if alpha <= theta * 2.0**_MAX_SQUARINGS:
            k = 0 if alpha <= theta else math.ceil(math.log2(alpha / theta))
            plans.append((k + m // 2, k, m))
    if not plans:  # alpha is now alpha_30, the least bound of all
        raise OverflowError(
            f"matrix norm bound {alpha:g} needs more than {_MAX_SQUARINGS} squarings"
        )
    _, k, m = min(plans)
    return m, k


def _damped_expm1(d: np.ndarray, scale: float, s: float) -> np.ndarray:
    """``e**-s * (exp(scale*d) - I)`` by scaling and squaring, for a square array ``d``.

    :func:`_plan` picks a degree ``m`` and a squaring count ``k`` for the
    kernel's one copy, ``x = scale*d``, which is then scaled in place by
    ``2**k``.  The Taylor polynomial ``sum_{j=1..m} x**j / j!`` of
    ``exp(x) - 1`` (no constant term) is evaluated with two stored powers,
    ``x`` and ``y = x @ x`` (Paterson & Stockmeyer 1973, SIAM J. Comput.
    2(1)), by Horner's rule in ``y``:
    ``acc <- y @ (acc + b[2i+2] I) + b[2i+1] x`` with ``b[j] = 1/j!``, in
    ``m/2`` products.  It is damped by ``e**-c`` with ``c = s / 2**k``, half
    in the coefficients and half after, so neither factor underflows for
    ``c < 1400``.  Each of the ``k`` doublings applies
    ``exp(2x) - 1 = (exp(x) - 1)**2 + 2*(exp(x) - 1)`` with the damping
    folded in, ``G <- G @ G + 2*e**-c * G``, and doubles ``c``.

    No identity enters the sum and every coefficient is positive, so an
    entry that no path reaches stays exactly zero, and the undamped
    ``exp(scale*d)`` is never formed.  ``d`` is only read, and ``x`` is
    freed once ``y`` is formed: each ``b x`` is then ``(b*scale/2**k) * d``.
    Peak memory is three n x n arrays: ``y``, the sum and a product buffer,
    which also takes each ``b x``.
    """
    n = d.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    x = d * scale
    if not np.all(np.isfinite(x)):
        raise ValueError("matrix exponential of a non-finite matrix")

    m, squarings = _plan(x)
    x /= 2.0**squarings
    step = scale / 2.0**squarings  # x = step * d
    c = s / 2.0**squarings
    coefficients = [math.exp(-c / 2) / math.factorial(j) for j in range(m + 1)]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow reported by _pack
        y = x @ x
        del x
        result = y * coefficients[m]
        product = np.multiply(d, coefficients[m - 1] * step)  # reused, so neither phase allocates per step
        result += product
        for j in range(m - 2, 0, -2):
            result.flat[:: n + 1] += coefficients[j]  # y @ (acc + b I) = y @ acc + b y
            np.matmul(y, result, out=product)
            result, product = product, result
            result += np.multiply(d, coefficients[j - 1] * step, out=product)  # the old sum is spent
        del y
        result *= math.exp(-c / 2)
        for _ in range(squarings):
            np.matmul(result, result, out=product)
            result *= 2.0 * math.exp(-c)
            result += product
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
    ``lam * alpha(D) <= 2**32 * theta_30``, about 1.5e10 (see the module docstring).
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
    (zero columns are handled there by teleportation).
    """
    values, source = _unpack(direct)
    if values.size and values.min() < 0:
        raise NegativeEntryError("column normalization requires non-negative entries")
    sums = values.sum(axis=0)
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

    sums = values.sum(axis=0)
    zero_cols = np.abs(sums) <= 1e-9
    bad = ~zero_cols & (np.abs(sums - 1.0) > 1e-9)
    if bad.any():
        j = int(np.argmax(bad))
        label = source.labels[j] if source is not None else str(j)
        raise ColumnStochasticityError(
            f"column {label} sums to {sums[j]:.12g}, expected 0 or 1"
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
    ``lam * alpha(D) <= 2**32 * theta_30``, about 1.5e10 (see the module docstring).
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
