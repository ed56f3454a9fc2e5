#!/usr/bin/env python3
"""Generate a noisy 8-bit stripe fixture, denoise it, and report PSNR, the wall
time of the first (cold) and a second (warm) ``denoise`` call on the same
input with the number of rows it runs at once (``WORKERS``), and the peak
resident set size of the process.

Writes clean/noisy/denoised PGMs next to the chosen output prefix so the
result can be eyeballed.
"""

import argparse
import resource
import time

import numpy as np

from wnnm import DenoiseConfig, DenoiseStats, denoise, psnr, write_pgm
from wnnm.denoise import WORKERS


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--size", type=int, default=64)
    ap.add_argument("--sigma", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=1008)
    ap.add_argument("--prefix", default="stripe")
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    stripe = 107.0 + 80.0 * np.sin(np.arange(args.size) * 0.35)
    clean = np.outer(np.ones(args.size), stripe)
    # 8-bit pixels, as in the noisy PGM written below: ``wnnm denoise`` on that
    # file gives the same output and runs the same (float32) block matching.
    noisy = np.clip(np.rint(clean + rng.normal(0.0, args.sigma, clean.shape)), 0.0, 255.0)

    cfg = DenoiseConfig(noise_sigma=args.sigma)
    stats = DenoiseStats()
    start = time.perf_counter()
    out = denoise(noisy, cfg, stats=stats)
    cold = time.perf_counter() - start
    # The first call also pays for first-touch allocation and lazy set-up.
    start = time.perf_counter()
    denoise(noisy, cfg)
    warm = time.perf_counter() - start

    write_pgm(f"{args.prefix}_clean.pgm", clean)
    write_pgm(f"{args.prefix}_noisy.pgm", noisy)
    write_pgm(f"{args.prefix}_denoised.pgm", out)

    print(f"groups processed: {stats.groups}, mean rank: {stats.mean_rank:.2f}")
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"denoise wall time: {cold:.3f} s cold, {warm:.3f} s warm ({WORKERS} workers), "
          f"peak RSS: {peak_mb:.1f} MB")
    print(f"PSNR noisy:    {psnr(noisy, clean):.3f} dB")
    print(f"PSNR denoised: {psnr(out, clean):.3f} dB")


if __name__ == "__main__":
    main()
