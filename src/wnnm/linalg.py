"""Dense thin SVD plus reconstruction.

Thin factors only (k = min(m, n) columns), singular values sorted
non-increasing, the signs as LAPACK returns them: ``U diag(d) V^T`` does
not depend on them. ``check_matrix`` is the package's one check of a 2-D
input, matrix or image. The public ``svd`` takes one matrix and checks it;
its core ``thin_svd`` skips the check and also factors a stack
(..., m, n) matrix by matrix, for callers that have checked their input.
``reconstruct`` takes either.
"""

from __future__ import annotations

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


def check_matrix(a) -> np.ndarray:
    """Validate and return a nonempty 2-D float array with finite entries."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise InvalidInputError(f"expected a nonempty 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix contains NaN or Inf entries")
    return a


def _mT(a: np.ndarray) -> np.ndarray:
    # The transpose of each matrix in a stack.
    return np.swapaxes(a, -1, -2)


def thin_svd(y: np.ndarray) -> SvdFactors:
    """``svd`` without its input check, for a finite float matrix or stack
    (..., m, n) of them. A wide input is factored as its transpose, the
    factors swapped back."""
    transposed = y.shape[-2] < y.shape[-1]
    try:
        # Looked up per call, so a patched ``np.linalg.svd`` takes effect.
        u, s, vt = np.linalg.svd(_mT(y) if transposed else y, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("SVD did not converge") from exc
    v = _mT(vt)
    return SvdFactors(u=v, sigma=s, v=u) if transposed else SvdFactors(u=u, sigma=s, v=v)


def svd(y) -> SvdFactors:
    """Thin SVD of one dense real matrix with finite entries."""
    return thin_svd(check_matrix(y))


def reconstruct(f: SvdFactors, d) -> np.ndarray:
    """Return ``u @ diag(d) @ v.T`` for a replacement spectrum ``d`` of the
    same shape as ``f.sigma``; one batched product for a stack."""
    d = np.asarray(d, dtype=float)
    if d.shape != f.sigma.shape:
        raise InvalidInputError(
            f"spectrum shape {d.shape} does not match singular values {f.sigma.shape}"
        )
    return (f.u * d[..., None, :]) @ _mT(f.v)

