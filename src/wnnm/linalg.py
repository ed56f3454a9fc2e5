"""Dense SVD with fixed output conventions, plus reconstruction helpers.

Conventions: thin factors only (k = min(m, n) columns), singular values
sorted non-increasing, and a deterministic sign choice (largest-magnitude
entry of each left-singular column is nonnegative).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, NumericalFailureError


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD factors: ``u @ diag(sigma) @ v.T`` recovers the input.

    u : (m, k) with orthonormal columns
    sigma : (k,) non-increasing, nonnegative
    v : (n, k) with orthonormal columns
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    @property
    def shape(self):
        return (self.u.shape[0], self.v.shape[0])


def check_matrix(a) -> np.ndarray:
    """Validate and return a 2-D float array with finite entries."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise InvalidInputError(f"expected a nonempty 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInputError("matrix contains NaN or Inf entries")
    return a


def _fix_signs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Largest-magnitude entry of each column of u made nonnegative; v flipped
    # in lockstep so the product is unchanged.
    pivot = np.abs(u).argmax(axis=0)
    flip = np.sign(u[pivot, np.arange(u.shape[1])])
    flip[flip == 0] = 1.0
    return u * flip, v * flip


def svd(y) -> SvdFactors:
    """Thin SVD of a dense real matrix with the package's fixed conventions.

    Inputs with more columns than rows are transposed internally and the
    factors swapped on output.
    """
    y = check_matrix(y)
    transposed = y.shape[0] < y.shape[1]
    work = y.T if transposed else y
    try:
        u, s, vt = np.linalg.svd(work, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD did not converge: {exc}") from exc
    v = vt.T
    if transposed:
        u, v = v, u
    u, v = _fix_signs(u, v)
    return SvdFactors(u=u, sigma=s, v=v)


def reconstruct(f: SvdFactors, d) -> np.ndarray:
    """Return ``u @ diag(d) @ v.T`` for a replacement spectrum ``d``."""
    d = np.asarray(d, dtype=float)
    if d.ndim != 1 or d.shape[0] != f.sigma.shape[0]:
        raise InvalidInputError(
            f"spectrum length {d.shape} does not match factor count {f.sigma.shape[0]}"
        )
    return (f.u * d) @ f.v.T


def gram_defect(m) -> float:
    """Frobenius norm of ``m.T @ m - I``; 0 for orthonormal columns."""
    m = np.asarray(m, dtype=float)
    g = m.T @ m
    return float(np.linalg.norm(g - np.eye(g.shape[0])))
