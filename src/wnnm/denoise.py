"""Desk-scale grayscale denoising on groups of similar patches.

For each anchor on a stride grid: gather the most similar patches in a
search window, stack them as columns, shrink the group matrix with the
WNNM operator, and scatter the columns back. The weight scheme (inverse
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
class PatchGroup:
    anchor: tuple[int, int]
    member_offsets: list[tuple[int, int]]
    matrix: np.ndarray  # (patch_size^2, members), one vectorized patch per column


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


def extract_group(img, anchor: tuple[int, int], cfg: DenoiseConfig) -> PatchGroup:
    """Gather the cfg.group_size patches in the search window closest to the
    anchor patch (squared Euclidean distance, ties broken by scan order).

    The anchor is always a member. ``anchor`` is the patch's top-left corner.
    """
    img = check_image(img)
    p = cfg.patch_size
    h, w = img.shape
    r, c = anchor
    if not (0 <= r <= h - p and 0 <= c <= w - p):
        raise InvalidInputError(f"anchor {anchor} does not fit a {p}x{p} patch in {h}x{w} image")

    r0, r1 = max(0, r - cfg.search_window), min(h - p, r + cfg.search_window)
    c0, c1 = max(0, c - cfg.search_window), min(w - p, c + cfg.search_window)
    region = img[r0 : r1 + p, c0 : c1 + p]
    candidates = sliding_window_view(region, (p, p))  # (R, C, p, p)
    anchor_patch = img[r : r + p, c : c + p]
    dist = ((candidates - anchor_patch) ** 2).sum(axis=(2, 3)).ravel()

    n_rows, n_cols = candidates.shape[:2]
    anchor_flat = (r - r0) * n_cols + (c - c0)
    order = np.argsort(dist, kind="stable")
    chosen = [anchor_flat]
    for j in order:
        if len(chosen) >= cfg.group_size:
            break
        if j != anchor_flat:
            chosen.append(int(j))

    offsets = [(r0 + j // n_cols - r, c0 + j % n_cols - c) for j in chosen]
    cols = [
        img[r + dr : r + dr + p, c + dc : c + dc + p].ravel() for dr, dc in offsets
    ]
    return PatchGroup(anchor=anchor, member_offsets=offsets, matrix=np.column_stack(cols))


def _weights_from_sigma(sigma: np.ndarray, k: int, cfg: DenoiseConfig) -> np.ndarray:
    s_clean = np.sqrt(np.maximum(sigma**2 - k * cfg.noise_sigma**2, 0.0))
    return cfg.weight_constant * math.sqrt(k) * cfg.noise_sigma**2 / (s_clean + cfg.epsilon)


def group_weights(group_matrix, cfg: DenoiseConfig) -> np.ndarray:
    """Inverse-estimated-singular-value weights; non-descending by construction.

    The clean singular value is estimated by variance subtraction:
    sqrt(max(s_i^2 - k * noise_sigma^2, 0)) for a group of k columns.
    """
    group_matrix = np.asarray(group_matrix, dtype=float)
    if group_matrix.ndim != 2 or group_matrix.size == 0:
        raise InvalidInputError("group matrix must be a nonempty 2-D array")
    s = np.linalg.svd(group_matrix, compute_uv=False)
    return _weights_from_sigma(s, group_matrix.shape[1], cfg)


def _anchor_grid(extent: int, patch: int, stride: int) -> list[int]:
    # Clipped to positions where the patch fits; the final position is always
    # included so borders get covered.
    last = extent - patch
    grid = list(range(0, last + 1, stride))
    if grid[-1] != last:
        grid.append(last)
    return grid


def denoise(img, cfg: DenoiseConfig, stats: DenoiseStats | None = None) -> np.ndarray:
    """One pass of patch-group WNNM shrinkage with mean aggregation.

    Pixels never covered by any patch keep their input value; output is
    clamped to [0, 255].
    """
    img = check_image(img)
    p = cfg.patch_size
    h, w = img.shape
    if p > min(h, w):
        raise InvalidInputError(f"patch_size {p} exceeds image extent {h}x{w}")

    acc = np.zeros_like(img)
    cnt = np.zeros_like(img)
    for r in _anchor_grid(h, p, cfg.stride):
        for c in _anchor_grid(w, p, cfg.stride):
            group = extract_group(img, (r, c), cfg)
            factors = svd(group.matrix)
            weights = _weights_from_sigma(factors.sigma, group.matrix.shape[1], cfg)
            result = shrink(factors, weights)
            if stats is not None:
                stats.groups += 1
                stats.ranks.append(int(np.count_nonzero(result.d.d > 0.0)))
            for col, (dr, dc) in enumerate(group.member_offsets):
                patch = result.x_star[:, col].reshape(p, p)
                acc[r + dr : r + dr + p, c + dc : c + dc + p] += patch
                cnt[r + dr : r + dr + p, c + dc : c + dc + p] += 1.0

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
