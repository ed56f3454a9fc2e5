"""Desk-scale grayscale denoising on groups of similar patches.

The image is read once into a patch table (every p x p patch, indexed by
its top-left corner) and the squared norm of every patch. Anchors lie on a
stride grid, and the only Python loop runs over anchor rows; within a row
everything is array code:

* Block matching (``extract_group``). One matmul of the row's anchor
  patches against every patch in the rows their search windows cover gives
  the Gram distances ||a||^2 + ||b||^2 - 2 a.b; as each window spans all of
  those rows, an (anchors x columns) mask sets the rest to +inf. They carry
  rounding, so they only shortlist: each anchor keeps the candidates within
  twice the expansion's rounding bound of its group's K-th Gram distance.
  The exact squared distances of the shortlist are recomputed, and one
  lexsort on (anchor, exact distance, scan index) picks the members.
* Shrinkage. One ``thin_svd`` call (the core of ``svd``, without its input
  check: the image is checked once) takes all of the row's groups, the border
  groups (fewer than K patches in the window) padded with zero columns.
  That is exact: zero columns leave a group's min(p*p, k) singular values
  unchanged and add only zeros, whose ``d`` is set to 0 (LAPACK can return
  them at rounding level, which a tiny noise level would not shrink away).
  The weights (inverse estimated clean singular value, each group with its
  own k) are non-descending, so the ordered stack takes the spectrum
  kernel's first-pass exit; one batched ``reconstruct`` gives the estimates.
* Aggregation. Each member's estimate is summed straight onto the pixels
  it covers: one ``np.bincount`` per row for the sums and one for the
  counts, on flat pixel indices (top-left pixel plus patch offset).

Rows in parallel. A row's groups need nothing from another row until the
sums, so the rows run in batches of ``WORKERS``, one per CPU in the process's
affinity mask up to ``MAX_WORKERS`` (two: each row in flight holds its own
distances, so memory grows with the count, and only two were measured). The
caller takes the first row of a batch and a short-lived thread each of the
others (LAPACK, BLAS and most numpy passes release the interpreter lock).
Each thread sets its own numpy error state and keeps its exception for the
caller. After the join the caller adds the rows' sums and
ranks in row order, so the output bytes do not depend on ``WORKERS``. Two
choices in ``extract_group`` let two rows share the CPUs: the Gram product
is built in blocks small enough for OpenBLAS to run on the calling thread (a
whole-row product, with BLAS at its default threads, woke a BLAS worker that
kept spinning on the core the other row needed), and the K-th distance is
partitioned a few anchors at a time, so no row in flight holds a full copy
of its distances (with two rows, such copies passed 2.5 patch tables).

The weight scheme is a demo-only choice, not part of the solver contract.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import diag
from .exceptions import InvalidInputError
from .linalg import _positive_count, _positive_real, check_matrix, reconstruct, thin_svd

# Added to each estimated clean singular value so that a zero estimate
# gives a huge but finite weight.
EPSILON = 1e-16
# Rows denoised at once: one per CPU this process may run on, at most
# MAX_WORKERS. Each row in flight holds its own (anchors x window candidates)
# distances, so the peak memory grows with the count (at 128^2 the traced
# peak reads about 1.55, 1.99, 2.3 and 2.7 patch tables for 1 to 4 rows); speed
# and memory were measured with two rows on two CPUs. The cap also bounds a
# container whose CPU quota is below its affinity mask, which counts every
# CPU of the host.
MAX_WORKERS = 2
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
WORKERS = min(MAX_WORKERS, _CPUS)
# OpenBLAS runs a gemm of at most 65536 * 4 multiply-adds (M * N * K) on one
# thread (interface/gemm.c, GEMM_MULTITHREAD_THRESHOLD).
GEMM_BLOCK = 2**18
# Anchors whose K-th distance one np.partition call takes.
PARTITION_ROWS = 4


@dataclass(frozen=True)
class DenoiseConfig:
    noise_sigma: float
    patch_size: int = 7
    group_size: int = 16
    search_window: int = 20
    weight_constant: float = 2.0 * math.sqrt(2.0)
    stride: int = 3

    def __post_init__(self):
        # Each real is stored as the float it was checked as, not as a 0-D array or an int.
        for name in ("noise_sigma", "weight_constant"):
            object.__setattr__(self, name, _positive_real(getattr(self, name), name))
        for name in ("patch_size", "group_size", "search_window", "stride"):
            _positive_count(getattr(self, name), name)
        if self.patch_size % 2 == 0:
            raise InvalidInputError("patch_size must be odd")


@dataclass
class DenoiseStats:
    ranks: list[int] = field(default_factory=list)

    @property
    def groups(self) -> int:
        return len(self.ranks)

    @property
    def mean_rank(self) -> float:
        return float(np.mean(self.ranks)) if self.ranks else 0.0


def extract_group(
    table: np.ndarray, sq_norms: np.ndarray, row: int, cols, cfg: DenoiseConfig
) -> np.ndarray:
    """Members of the groups anchored at ``(row, c)`` for each ``c`` in
    ``cols``: a (len(cols), K) array of flat indices into ``table``.

    Each group is the cfg.group_size patches in the anchor's search window
    closest to the anchor patch (squared Euclidean distance, ties broken by
    scan order), the anchor first. Near the border a window may hold fewer
    patches; that group takes all of them and its row is padded with -1.
    ``sq_norms`` holds the squared norm of every patch in ``table``. The
    anchors must lie in the patch grid, as ``denoise``'s anchor grid does.
    """
    rows, n_cols, npix = table.shape
    cols = np.asarray(cols)
    sw = cfg.search_window
    r0, r1 = max(0, row - sw), min(rows - 1, row + sw)
    # Candidates: every patch in the window rows, in scan order.
    cand = table[r0 : r1 + 1].reshape(-1, npix)
    cand_norms = sq_norms[r0 : r1 + 1]
    anchors, a_norms = table[row, cols], sq_norms[row, cols]
    in_cols = np.abs(np.arange(n_cols) - cols[:, None]) <= sw
    own = (row - r0) * n_cols + cols
    # Python's min first: a group_size beyond the C long range stays out of numpy.
    k_max = min(cfg.group_size, cand.shape[0])
    sizes = np.minimum(k_max, (r1 - r0 + 1) * np.count_nonzero(in_cols, axis=1))

    # In place: this (anchors, candidates) array is the row's working set,
    # its product built in blocks of candidates (see the module docstring).
    fast = np.empty((cols.size, cand.shape[0]))
    scaled = -2.0 * anchors
    step = max(1, GEMM_BLOCK // (cols.size * npix))
    for j in range(0, cand.shape[0], step):
        np.matmul(scaled, cand[j : j + step].T, out=fast[:, j : j + step])
    fast3 = fast.reshape(cols.size, -1, n_cols)
    fast3 += np.where(in_cols, a_norms[:, None], np.inf)[:, None, :]
    fast3 += cand_norms
    fast[np.arange(cols.size), own] = -np.inf
    kth_fast = np.empty(cols.size)
    for i in range(0, cols.size, PARTITION_ROWS):
        part = np.partition(fast[i : i + PARTITION_ROWS], k_max - 1, axis=1)
        kth_fast[i : i + PARTITION_ROWS] = part[:, k_max - 1]
    # The Gram distance, (-2 a.b + |a|^2) + |b|^2 in that order, and the exact
    # distance below both round by about (npix + 2) * eps * (|a|^2 + |b|^2);
    # ``bound`` covers their gap, so no member lies beyond K-th + 2 * bound.
    bound = 4.0 * (npix + 2) * np.finfo(float).eps * (a_norms + cand_norms.max())
    # "not >" also keeps NaN (an overflowed expansion) and, when the window
    # holds fewer than K patches, +inf; the column mask trims both to the window.
    keep = ~(fast3 > (kth_fast + 2.0 * bound)[:, None, None])
    keep &= in_cols[:, None, :]

    a_idx, c_idx = np.divmod(np.flatnonzero(keep), cand.shape[0])
    diff = cand[c_idx] - anchors[a_idx]
    dist = np.einsum("ij,ij->i", diff, diff)
    dist[c_idx == own[a_idx]] = -1.0  # the anchor first
    # a_idx is sorted already and stays in place.
    c_idx = c_idx[np.lexsort((c_idx, dist, a_idx))]
    pos = np.arange(a_idx.size) - np.searchsorted(a_idx, a_idx)  # rank within its anchor
    take = pos < sizes[a_idx]
    members = np.full((cols.size, sizes.max()), -1)
    members[a_idx[take], pos[take]] = r0 * n_cols + c_idx[take]
    return members


def group_weights(sigma, k, cfg: DenoiseConfig) -> np.ndarray:
    """Inverse-estimated-singular-value weights for the spectrum ``sigma`` of
    a group of ``k`` patches, or for a stack of such spectra along the last
    axis; non-descending by construction.

    ``k`` is one patch count for every spectrum, or one per spectrum of a
    stack, shaped to broadcast against ``sigma`` (``(n, 1)`` for ``n``
    spectra). The clean singular value is estimated by variance subtraction:
    sqrt(max(s_i^2 - k * noise_sigma^2, 0)). A noise variance beyond the
    float range gives infinite weights, which shrink every group to zero.
    """
    # A float product overflows to inf where ``**`` would raise.
    var = cfg.noise_sigma * cfg.noise_sigma
    s_clean = np.sqrt(np.maximum(sigma**2 - k * var, 0.0))
    return cfg.weight_constant * np.sqrt(k) * var / (s_clean + EPSILON)


def _anchor_grid(extent: int, stride: int) -> list[int]:
    # ``extent`` anchor positions fit; the final one is always included so
    # borders get covered.
    grid = list(range(0, extent, stride))
    if grid[-1] != extent - 1:
        grid.append(extent - 1)
    return grid


def _run_rows(fn, rows: list[int]) -> list:
    """``[fn(r) for r in rows]``: the first on this thread, each other on a
    thread of its own. After every join, the first exception in row order
    is raised."""
    results = [None] * len(rows)

    def run(i):
        try:
            results[i] = fn(rows[i])
        except BaseException as exc:  # raised below, after the join
            results[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, len(rows))]
    for t in threads:
        t.start()
    run(0)
    for t in threads:
        t.join()
    for res in results:
        if isinstance(res, BaseException):
            raise res
    return results


def denoise(img, cfg: DenoiseConfig, stats: DenoiseStats | None = None) -> np.ndarray:
    """One pass of patch-group WNNM shrinkage with mean aggregation.

    Pixels never covered by any patch keep their input value; output is
    clamped to [0, 255].
    """
    p = cfg.patch_size
    img = check_matrix(img)
    h, w = img.shape
    if p > min(h, w):
        raise InvalidInputError(f"patch_size {p} exceeds image extent {h}x{w}")
    rows, cols = h - p + 1, w - p + 1
    # Every p x p patch, flattened: entry [i, j] has its top-left corner at (i, j).
    table = sliding_window_view(img, (p, p)).reshape(rows, cols, p * p)
    flat = table.reshape(rows * cols, p * p)
    sq_norms = np.einsum("ijk,ijk->ij", table, table)
    anchor_cols = np.array(_anchor_grid(cols, cfg.stride))
    # Flat pixel index of each entry of a patch, relative to its top-left.
    offsets = (np.arange(p)[:, None] * w + np.arange(p)).ravel()

    def row(r):
        """Row ``r``'s estimates summed onto the pixels, their counts, and its
        groups' ranks."""
        # Entries near the float limit overflow the Gram expansion (its NaN stays
        # shortlisted) and the squared spectrum (its infinities give zero weights).
        # numpy's error state is per thread, so each row sets its own.
        with np.errstate(over="ignore", invalid="ignore"):
            members = extract_group(table, sq_norms, r, anchor_cols, cfg)
            valid = members >= 0
            sizes = np.count_nonzero(valid, axis=1)
            # Stack of (pixels, members) group matrices. Zero columns pad the
            # border groups to the row's widest; see the module docstring.
            groups = np.where(valid[..., None], flat[members], 0.0)
            factors = thin_svd(np.swapaxes(groups, 1, 2))
            weights = group_weights(factors.sigma, sizes[:, None], cfg)
            d = diag.spectrum(factors.sigma, weights)
            d[np.arange(d.shape[1]) >= np.minimum(p * p, sizes)[:, None]] = 0.0
            estimates = np.swapaxes(reconstruct(factors, d), 1, 2)[valid]
            m = members[valid]
            pix = ((m // cols * w + m % cols)[:, None] + offsets).ravel()
            # numpy.linalg.matrix_rank's cut: values below it are rounding.
            tol = np.maximum(p * p, sizes) * np.finfo(float).eps * factors.sigma[:, 0]
            ranks = np.count_nonzero(d > tol[:, None], axis=1).tolist()
        sums = np.bincount(pix, weights=estimates.ravel(), minlength=h * w)
        return sums, np.bincount(pix, minlength=h * w), ranks

    # Sum of every estimate of each pixel, and how many there were, added
    # in row order whatever the number of rows in flight.
    acc = np.zeros(h * w)
    cnt = np.zeros(h * w)
    grid = _anchor_grid(rows, cfg.stride)
    for start in range(0, len(grid), WORKERS):
        for sums, counts, ranks in _run_rows(row, grid[start : start + WORKERS]):
            acc += sums
            cnt += counts
            if stats is not None:
                stats.ranks.extend(ranks)

    out = img.flatten()
    covered = cnt > 0
    out[covered] = acc[covered] / cnt[covered]
    return np.clip(out.reshape(h, w), 0.0, 255.0)


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB against a 255 peak; inf when equal."""
    a = check_matrix(a)
    b = check_matrix(b)
    if a.shape != b.shape:
        raise InvalidInputError(f"shape mismatch: {a.shape} vs {b.shape}")
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / mse)
