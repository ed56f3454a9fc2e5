"""Desk-scale grayscale denoising on groups of similar patches.

The image is read once into a patch table (every p x p patch, indexed by
its top-left corner). For each anchor on a stride grid: select the indices
of the most similar patches in a search window, shrink the matrix of those
patches with the WNNM operator, and add the result to per-patch sums that
are folded back onto the pixels at the end. The weight scheme (inverse
estimated clean singular value) is non-descending by construction, so
every group takes the closed-form path. It is a demo-only choice, not part
of the solver contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .exceptions import InvalidInputError
from .linalg import svd
from .solver import shrink


@dataclass
class DenoiseConfig:
    noise_sigma: float
    patch_size: int = 7
    group_size: int = 16
    search_window: int = 20
    weight_constant: float = 2.0 * math.sqrt(2.0)
    epsilon: float = 1e-16
    stride: int = 3

    def __post_init__(self):
        if self.noise_sigma <= 0:
            raise InvalidInputError("noise_sigma must be positive")
        if self.patch_size < 1 or self.patch_size % 2 == 0:
            raise InvalidInputError("patch_size must be an odd positive integer")
        for name in ("group_size", "search_window", "stride"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be a positive integer")
        if self.weight_constant <= 0 or self.epsilon <= 0:
            raise InvalidInputError("weight_constant and epsilon must be positive")


@dataclass
class DenoiseStats:
    groups: int = 0
    ranks: list[int] = field(default_factory=list)

    @property
    def mean_rank(self) -> float:
        return float(np.mean(self.ranks)) if self.ranks else 0.0


def check_image(img) -> np.ndarray:
    img = np.asarray(img, dtype=float)
    if img.ndim != 2 or img.shape[0] < 1 or img.shape[1] < 1:
        raise InvalidInputError(f"expected a nonempty 2-D image, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise InvalidInputError("image contains NaN or Inf")
    return img


def patch_table(img, p: int) -> np.ndarray:
    """Every p x p patch of ``img`` as a (H-p+1, W-p+1, p*p) array.

    Entry ``[i, j]`` is the flattened patch whose top-left corner is
    ``(i, j)``. This is the one place the denoiser validates its image.
    """
    img = check_image(img)
    h, w = img.shape
    if p > min(h, w):
        raise InvalidInputError(f"patch_size {p} exceeds image extent {h}x{w}")
    return sliding_window_view(img, (p, p)).reshape(h - p + 1, w - p + 1, p * p)


def extract_group(table: np.ndarray, anchor: tuple[int, int], cfg: DenoiseConfig) -> np.ndarray:
    """Flat indices into ``table`` of the cfg.group_size patches in the search
    window closest to the anchor patch (squared Euclidean distance, ties
    broken by scan order), the anchor first.

    ``anchor`` is the patch's top-left corner. Near the border the window
    may hold fewer than cfg.group_size patches; all of them are returned.
    """
    rows, cols = table.shape[:2]
    r, c = anchor
    if not (0 <= r < rows and 0 <= c < cols):
        raise InvalidInputError(f"anchor {anchor} is outside the {rows}x{cols} patch grid")

    sw = cfg.search_window
    r0, r1 = max(0, r - sw), min(rows - 1, r + sw)
    c0, c1 = max(0, c - sw), min(cols - 1, c + sw)
    diff = table[r0 : r1 + 1, c0 : c1 + 1] - table[r, c]
    dist = np.einsum("ijk,ijk->ij", diff, diff).ravel()

    n_cols = c1 - c0 + 1
    anchor_local = (r - r0) * n_cols + (c - c0)
    order = np.argsort(dist, kind="stable")
    local = np.concatenate(([anchor_local], order[order != anchor_local][: cfg.group_size - 1]))
    return (local // n_cols + r0) * cols + local % n_cols + c0


def group_weights(sigma, k: int, cfg: DenoiseConfig) -> np.ndarray:
    """Inverse-estimated-singular-value weights for the spectrum ``sigma`` of
    a group of ``k`` patches; non-descending by construction.

    The clean singular value is estimated by variance subtraction:
    sqrt(max(s_i^2 - k * noise_sigma^2, 0)).
    """
    sigma = np.asarray(sigma, dtype=float)
    s_clean = np.sqrt(np.maximum(sigma**2 - k * cfg.noise_sigma**2, 0.0))
    return cfg.weight_constant * math.sqrt(k) * cfg.noise_sigma**2 / (s_clean + cfg.epsilon)


def _anchor_grid(extent: int, stride: int) -> list[int]:
    # ``extent`` anchor positions fit; the final one is always included so
    # borders get covered.
    grid = list(range(0, extent, stride))
    if grid[-1] != extent - 1:
        grid.append(extent - 1)
    return grid


def denoise(img, cfg: DenoiseConfig, stats: DenoiseStats | None = None) -> np.ndarray:
    """One pass of patch-group WNNM shrinkage with mean aggregation.

    Pixels never covered by any patch keep their input value; output is
    clamped to [0, 255].
    """
    p = cfg.patch_size
    table = patch_table(img, p)
    img = np.asarray(img, dtype=float)
    rows, cols = table.shape[:2]
    flat = table.reshape(rows * cols, p * p)

    # Sum of every estimate of each patch, and how many there were.
    patch_acc = np.zeros_like(flat)
    patch_cnt = np.zeros(rows * cols)
    for r in _anchor_grid(rows, cfg.stride):
        for c in _anchor_grid(cols, cfg.stride):
            members = extract_group(table, (r, c), cfg)
            factors = svd(flat[members].T)
            result = shrink(factors, group_weights(factors.sigma, members.size, cfg))
            if stats is not None:
                stats.groups += 1
                stats.ranks.append(int(np.count_nonzero(result.d.d > 0.0)))
            np.add.at(patch_acc, members, result.x_star.T)
            np.add.at(patch_cnt, members, 1.0)

    # Fold patch sums onto pixels: patch offset (i, j) lands on the image
    # shifted by (i, j).
    patch_acc = patch_acc.reshape(rows, cols, p, p)
    patch_cnt = patch_cnt.reshape(rows, cols)
    acc = np.zeros_like(img)
    cnt = np.zeros_like(img)
    for i in range(p):
        for j in range(p):
            acc[i : i + rows, j : j + cols] += patch_acc[:, :, i, j]
            cnt[i : i + rows, j : j + cols] += patch_cnt

    out = img.copy()
    covered = cnt > 0
    out[covered] = acc[covered] / cnt[covered]
    return np.clip(out, 0.0, 255.0)


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB against a 255 peak; inf when equal."""
    a = check_image(a)
    b = check_image(b)
    if a.shape != b.shape:
        raise InvalidInputError(f"shape mismatch: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / mse)
