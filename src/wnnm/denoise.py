"""Desk-scale grayscale denoising on groups of similar patches.

The image is read once into a patch table (every p x p patch, indexed by
its top-left corner) and the squared norm of every patch. Anchors lie on a
stride grid, and the only Python loop runs over anchor rows; within a row
everything is array code:

* Block matching (``extract_group``). One matmul of the row's anchor
  patches against every patch in the rows their search windows cover gives
  the Gram distances ||a||^2 + ||b||^2 - 2 a.b; as each window spans all of
  those rows, an (anchors x columns) mask sets the rest to +inf. One lexsort
  on (anchor, exact distance, scan index) then picks the members, from one
  of two tables, chosen once per image:

  - float32, for an image whose every entry is an integer with
    2 p max|x| < 2**12 (every 8-bit image at p <= 7). Each product and
    partial sum of the expansion is then an integer of magnitude at most
    4 p^2 max|x|^2 < 2**24, exact in float32 in any BLAS order, with or
    without FMA: the Gram distances are the exact ones. Each anchor keeps
    the candidates up to its group's K-th distance and reads their
    distances from the Gram array.
  - float64, for any other image. The Gram distances carry rounding, so
    they only shortlist: each anchor keeps the candidates within twice the
    expansion's rounding bound of its K-th Gram distance, and the exact
    squared distances of the shortlist are recomputed.

  The float32 table halves the patch table and the distances, and a
  tie-heavy image (every tied candidate is shortlisted) gathers no patches.
* Shrinkage. One ``thin_svd`` call (the core of ``svd``, without its input
  check: the image is checked once) takes all of the row's groups, the border
  groups (fewer than K patches in the window) padded with zero columns.
  That is exact: zero columns leave a group's min(p*p, k) singular values
  unchanged and add only zeros, whose weight is infinite, so the kernel
  returns 0 (LAPACK can return them at rounding level, which a tiny noise
  level would not shrink away). The weights (inverse estimated clean
  singular value, each group with its own k) are non-descending, so the
  ordered stack takes the kernel's first-pass exit; one batched
  ``reconstruct`` gives the estimates.
* Aggregation. Each member's estimate is summed straight onto the pixels
  it covers: one ``np.bincount`` per row for the sums and one for the
  counts, on flat pixel indices (top-left pixel plus patch offset).

Rows in parallel. A row's groups need nothing from another row until the
sums, so ``WORKERS`` threads run rows at once, one per CPU in the process's
affinity mask up to ``MAX_WORKERS`` (two: each row in flight holds its own
distances, so memory grows with the count, and only two were measured). The
caller and ``WORKERS - 1`` threads started for the call each take the next
row from one counter, with no barrier between rows (LAPACK, BLAS and most
numpy passes release the interpreter lock); each thread sets its own numpy
error state. A finished row waits until the rows before it are added, and
whichever thread completes that prefix adds the sums and ranks in row
order, so the output bytes do not depend on ``WORKERS`` or on timing. Two
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
# peak reads about 1.55, 1.99, 2.3 and 2.7 float64 patch tables for 1 to 4
# rows on a float image, and 0.85, 1.14, 1.38 and 1.66 on an 8-bit one), and
# up to 2 * WORKERS finished rows wait with their image-sized sums to be
# added. Speed and memory were measured with two rows on two CPUs, where two
# beat one. The cap also bounds a container whose CPU quota is below its
# affinity mask, which counts every CPU of the host.
MAX_WORKERS = 2
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
WORKERS = min(MAX_WORKERS, _CPUS)
# OpenBLAS runs a gemm of at most 65536 * 4 multiply-adds (M * N * K) on one
# thread, sgemm and dgemm alike (interface/gemm.c, GEMM_MULTITHREAD_THRESHOLD).
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

    The table's dtype picks the path (see the module docstring). A float32
    table must hold integers with 2 p max|x| < 2**12: its Gram distances are
    then exact, so the shortlist takes no rounding bound and its distances
    are read from the Gram array, not recomputed. A float64 table's Gram
    distances only shortlist, within a rounding bound, and the shortlist's
    exact distances are recomputed.
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
    fast = np.empty((cols.size, cand.shape[0]), table.dtype)
    scaled = -2.0 * anchors
    step = max(1, GEMM_BLOCK // (cols.size * npix))
    for j in range(0, cand.shape[0], step):
        np.matmul(scaled, cand[j : j + step].T, out=fast[:, j : j + step])
    fast3 = fast.reshape(cols.size, -1, n_cols)
    fast3 += np.where(in_cols, a_norms[:, None], np.inf)[:, None, :]
    fast3 += cand_norms
    fast[np.arange(cols.size), own] = -np.inf
    kth_fast = np.empty(cols.size, table.dtype)
    for i in range(0, cols.size, PARTITION_ROWS):
        part = np.partition(fast[i : i + PARTITION_ROWS], k_max - 1, axis=1)
        kth_fast[i : i + PARTITION_ROWS] = part[:, k_max - 1]
    # A float32 table's Gram distances are exact (see the docstring). From a
    # float64 one, the Gram distance, (-2 a.b + |a|^2) + |b|^2 in that order, and
    # the exact distance below both round by about (npix + 2) * eps * (|a|^2 + |b|^2);
    # ``bound`` covers their gap, so no member lies beyond K-th + 2 * bound.
    exact = table.dtype == np.float32
    bound = 0.0
    if not exact:
        bound = 4.0 * (npix + 2) * np.finfo(float).eps * (a_norms + cand_norms.max())
    # "not >" also keeps NaN (an overflowed expansion) and, when the window
    # holds fewer than K patches, +inf; the column mask trims both to the window.
    keep = ~(fast3 > (kth_fast + 2.0 * bound)[:, None, None])
    keep &= in_cols[:, None, :]

    a_idx, c_idx = np.divmod(np.flatnonzero(keep), cand.shape[0])
    if exact:
        dist = fast[a_idx, c_idx]
    else:
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
    sqrt(max(s_i^2 - k * noise_sigma^2, 0)), on sigma and noise_sigma scaled
    exactly by t = 2**-600 where the squares leave the float range (inf - inf
    is NaN). So a noise variance beyond that range gives infinite weights,
    which shrink a group to zero, unless its spectrum is as far beyond it.
    """
    # A float product overflows to inf where ``**`` would raise.
    t, var = 1.0, cfg.noise_sigma * cfg.noise_sigma
    excess = sigma**2 - k * var
    if not np.isfinite(excess).all():
        t = np.where(np.isfinite(excess), 1.0, 2.0**-600)
        var = (cfg.noise_sigma * t) ** 2
        excess = (sigma * t) ** 2 - k * var
    s_clean = np.sqrt(np.maximum(excess, 0.0))
    return cfg.weight_constant * np.sqrt(k) * (var / t) / (s_clean + EPSILON * t)


def _anchor_grid(extent: int, stride: int) -> list[int]:
    # ``extent`` anchor positions fit; the final one is always included so
    # borders get covered.
    grid = list(range(0, extent, stride))
    if grid[-1] != extent - 1:
        grid.append(extent - 1)
    return grid


def _run_rows(fn, rows: list[int], add) -> None:
    """``for r in rows: add(fn(r))``, with ``fn`` on ``WORKERS`` threads (this
    one and ``WORKERS - 1`` started here) and ``add`` in row order, under the
    lock, by whichever thread completes the prefix of finished rows. A row is
    taken only while fewer than ``2 * WORKERS`` are taken but not added. After
    a failure no row is taken; once every thread is joined, the lowest failing
    row's exception is raised.
    """
    cond = threading.Condition()
    done, errors = {}, {}
    taken = added = 0

    def work():
        nonlocal taken, added
        i = -1
        try:
            while True:
                with cond:
                    while not errors and taken < len(rows) and taken - added >= 2 * WORKERS:
                        cond.wait()
                    if errors or taken == len(rows):
                        return
                    i, taken = taken, taken + 1
                result = fn(rows[i])
                with cond:
                    done[i] = result
                    while added in done:
                        add(done.pop(added))
                        added += 1
                    cond.notify_all()
        except BaseException as exc:  # raised by the caller, after the join
            with cond:
                errors[i] = exc
                cond.notify_all()

    threads = [threading.Thread(target=work) for _ in range(min(WORKERS, len(rows)) - 1)]
    for t in threads:
        t.start()
    work()
    for t in threads:
        t.join()
    if errors:
        raise errors[min(errors)]


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
    # Every p x p patch, flattened: entry [i, j] has its top-left corner at (i, j),
    # in float32 where that makes block matching exact (see the module docstring).
    exact = 2 * p * float(np.abs(img).max()) < 2**12 and (np.rint(img) == img).all()
    table = sliding_window_view(img.astype(np.float32) if exact else img, (p, p))
    table = table.reshape(rows, cols, p * p)
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
            # Stack of (pixels, members) group matrices, in float64 whatever the
            # table's dtype. Zero columns pad the border groups to the row's
            # widest; see the module docstring.
            groups = np.where(valid[..., None], flat[members], 0.0).astype(float, copy=False)
            factors = thin_svd(np.swapaxes(groups, 1, 2))
            weights = group_weights(factors.sigma, sizes[:, None], cfg)
            weights[np.arange(weights.shape[1]) >= np.minimum(p * p, sizes)[:, None]] = np.inf
            d = diag.spectrum(factors.sigma, weights)
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
    ranks = stats.ranks if stats is not None else []

    def add(result):
        sums, counts, row_ranks = result
        with np.errstate(over="ignore"):  # an overflowed sum is +-inf, clamped to 0 or 255
            np.add(acc, sums, out=acc)
        np.add(cnt, counts, out=cnt)
        ranks.extend(row_ranks)

    _run_rows(row, _anchor_grid(rows, cfg.stride), add)

    out = img.flatten()
    covered = cnt > 0
    out[covered] = acc[covered] / cnt[covered]
    return np.clip(out.reshape(h, w), 0.0, 255.0)


def psnr(a, b) -> float:
    """Peak signal-to-noise ratio in dB against a 255 peak; inf when equal, -inf on overflow."""
    a = check_matrix(a)
    b = check_matrix(b)
    if a.shape != b.shape:
        raise InvalidInputError(f"shape mismatch: {a.shape} vs {b.shape}")
    with np.errstate(over="ignore"):  # an overflow gives inf, reported as -inf dB
        mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(255.0**2 / mse) if mse < math.inf else -math.inf
