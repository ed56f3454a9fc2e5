"""The rules for an outside value, and dense thin SVD plus reconstruction.

``check_array`` checks an array of any rank: ``check_matrix`` is its case
for a matrix or image, ``_positive_real`` its 0-D case for a positive real.
``_positive_count`` checks a count. Thin factors only (k = min(m, n)
columns), singular values non-increasing, the signs as LAPACK returns them
(``U diag(d) V^T`` does not depend on them). The public ``svd`` checks one
matrix; its internal core ``thin_svd`` skips that check and also factors a
stack (..., m, n), for callers that checked their input. Every spectrum
enters the package through ``thin_svd``, which returns a finite one or raises
``NumericalFailureError``. The internal ``reconstruct`` checks nothing.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, NumericalFailureError


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD factors: ``u @ diag(sigma) @ v.T`` recovers the input.

    u : (..., m, k) with orthonormal columns
    sigma : (..., k) non-increasing, nonnegative
    v : (..., n, k) with orthonormal columns

    The leading axes, if any, index a stack of matrices.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


def check_array(a, ndim: int, name: str, nonneg: bool = False) -> np.ndarray:
    """``a`` as a float array of rank ``ndim`` with finite entries (none negative if
    ``nonneg``), else ``InvalidInputError``. Real dtypes: bool, integer, float, and
    objects that are all ``numbers.Real``. A scalar is 0-D; a vector may be empty, a matrix not."""
    try:  # ragged lists fail in asarray, ints beyond the float range in astype
        a = np.asarray(a)
        if a.dtype == object and all(isinstance(x, numbers.Real) for x in a.flat):
            a = a.astype(float)  # one float() per entry, as for a list of them
        a = a.astype(float, casting="same_kind", copy=False)  # other dtypes: TypeError
    except (TypeError, ValueError, OverflowError):
        what = "a real number" if ndim == 0 else "an array of real numbers"
        raise InvalidInputError(f"{name} must be {what}") from None
    if a.ndim != ndim or (ndim == 2 and a.size == 0):
        shape = "a nonempty 2-D" if ndim == 2 else f"a {ndim}-D"
        raise InvalidInputError(f"{name} must be {shape} array, got shape {a.shape}")
    lo, hi = a.min(initial=0.0), a.max(initial=0.0)  # 0.0: an empty a passes
    # -inf shows in the min, +inf in the max, and NaN in both, failing "<".
    if not -np.inf < lo <= hi < np.inf:
        raise InvalidInputError(f"{name} contains NaN or Inf")
    if nonneg and lo < 0.0:
        got = f"min {lo}" if a.ndim else lo
        raise InvalidInputError(f"{name} must be nonnegative, got {got}")
    return a


def check_matrix(a) -> np.ndarray:
    """A matrix or image: ``check_array``'s nonempty 2-D case."""
    return check_array(a, 2, "matrix")


def _positive_real(x, name: str) -> float:
    """``x`` as a float in (0, inf): ``check_array``'s 0-D case, above zero."""
    x = float(check_array(x, 0, name))
    if not x > 0.0:
        raise InvalidInputError(f"{name} must be positive, got {x}")
    return x


def _positive_count(x, name: str) -> int:
    """``x`` as an int >= 1, else ``InvalidInputError``."""
    try:  # takes Python and numpy integers, but no float, not even 3.0
        x = operator.index(x)
    except TypeError:
        x = 0
    if x < 1:
        raise InvalidInputError(f"{name} must be an integer >= 1")
    return x


def _mT(a: np.ndarray) -> np.ndarray:
    # The transpose of each matrix in a stack.
    return np.swapaxes(a, -1, -2)


def thin_svd(y: np.ndarray) -> SvdFactors:
    """``svd`` without its input check, for a finite float matrix or stack
    (..., m, n) of them. A wide input is factored as its transpose, the
    factors swapped back. A spectrum beyond the float range (a 3x3 of 1e308
    has sigma_1 = 3e308) or no convergence raises ``NumericalFailureError``."""
    # Tall is faster (1-thread OpenBLAS): 150x200 6.1 -> 5.6 ms, (20, 16, 49) 2.2 -> 1.9 ms.
    transposed = y.shape[-2] < y.shape[-1]
    try:
        # Looked up per call, so a patched ``np.linalg.svd`` takes effect.
        u, s, vt = np.linalg.svd(_mT(y) if transposed else y, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("SVD did not converge") from exc
    if not np.isfinite(s[..., 0]).all():  # the largest, sigma_1, overflows first
        raise NumericalFailureError("the spectrum is beyond the float range")
    v = _mT(vt)
    return SvdFactors(u=v, sigma=s, v=u) if transposed else SvdFactors(u=u, sigma=s, v=v)


def svd(y) -> SvdFactors:
    """Thin SVD of one finite real matrix: a finite spectrum or ``NumericalFailureError``."""
    return thin_svd(check_matrix(y))


def reconstruct(f: SvdFactors, d: np.ndarray) -> np.ndarray:
    """Return ``u @ diag(d) @ v.T`` for a replacement spectrum ``d``, a float
    array shaped like ``f.sigma``; one batched product for a stack."""
    return (f.u * d[..., None, :]) @ _mT(f.v)

