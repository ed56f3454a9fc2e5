"""Dense SVD with fixed output conventions, plus reconstruction helpers.

Conventions: thin factors only (k = min(m, n) columns), singular values
sorted non-increasing, and a deterministic sign choice (largest-magnitude
entry of each left-singular column is nonnegative). A stack of matrices
(..., m, n) gets the same conventions on each matrix. Only ``svd`` checks
its input and fixes the signs; its core ``thin_svd`` serves sign-free uses.
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

    @property
    def shape(self):
        return (self.u.shape[-2], self.v.shape[-2])


def check_matrix(a) -> np.ndarray:
    """Validate and return a nonempty float matrix, or stack of matrices
    (..., m, n), with finite entries."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.size == 0:
        raise InvalidInputError(f"expected a nonempty matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix contains NaN or Inf entries")
    return a


def _mT(a: np.ndarray) -> np.ndarray:
    # The transpose of each matrix in a stack.
    return np.swapaxes(a, -1, -2)


def _fix_signs(f: SvdFactors) -> SvdFactors:
    # Largest-magnitude entry of each column of u made nonnegative; v flipped
    # in lockstep so the product is unchanged.
    pivot = np.abs(f.u).argmax(axis=-2)[..., None, :]
    flip = np.sign(np.take_along_axis(f.u, pivot, axis=-2))
    flip[flip == 0] = 1.0
    return SvdFactors(u=f.u * flip, sigma=f.sigma, v=f.v * flip)


def thin_svd(y: np.ndarray) -> SvdFactors:
    """``svd`` without its input check and sign choice (the signs are
    LAPACK's), for a float matrix or stack that ``check_matrix`` accepts.
    A wide input is factored as its transpose, the factors swapped back."""
    transposed = y.shape[-2] < y.shape[-1]
    try:
        # Looked up per call, so a patched ``np.linalg.svd`` takes effect.
        u, s, vt = np.linalg.svd(_mT(y) if transposed else y, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError("SVD did not converge") from exc
    v = _mT(vt)
    return SvdFactors(u=v, sigma=s, v=u) if transposed else SvdFactors(u=u, sigma=s, v=v)


def svd(y) -> SvdFactors:
    """Thin SVD of a dense real matrix, or of each matrix in a stack
    (..., m, n), with the package's fixed conventions."""
    return _fix_signs(thin_svd(check_matrix(y)))


def reconstruct(f: SvdFactors, d) -> np.ndarray:
    """Return ``u @ diag(d) @ v.T`` for a replacement spectrum ``d`` of the
    same shape as ``f.sigma``; one batched product for a stack."""
    d = np.asarray(d, dtype=float)
    if d.shape != f.sigma.shape:
        raise InvalidInputError(
            f"spectrum shape {d.shape} does not match singular values {f.sigma.shape}"
        )
    return (f.u * d[..., None, :]) @ _mT(f.v)

