"""Seeded inputs, the op, and the independent output check of each workload.

Inputs and references are made once in set-up from the seed and are never
timed. Each workload cycles a fixed pool of instances whose properties are
stratified (not drawn at random), so that only noise and phases change with
the seed and the medians of two seeds measure the same work.

The references share no code with the package: ``numpy.linalg.svd`` and
``scipy.optimize.isotonic_regression`` for the solvers, and a PGM reader and
PSNR written here for the denoiser. scipy is not a dependency of the
package; it is used only for these references.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import wnnm
import wnnm.cli

# A solver output passes when no entry is further than this from the
# reference, relative to the reference's largest magnitude. The package
# agrees to ~1e-14; the slack leaves room for reordered floating point.
REL_TOL = 1e-9


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    # PSNR against the reference; a run reports its lowest. For solver
    # outputs it saturates at 20*log10(1/REL_TOL) = 180 dB, the tolerance.
    psnr_db: float = math.nan
    max_abs_err: float = math.nan
    groups: int = 0


def psnr_db(out: np.ndarray, ref: np.ndarray, peak: float, floor: float = 0.0) -> float:
    mse = max(float(np.mean((out - ref) ** 2)), floor**2)
    return 10.0 * math.log10(peak**2 / mse)


def compare(out: np.ndarray, ref: np.ndarray) -> Outcome:
    """Check a solver output against its reference at REL_TOL of its scale."""
    if out.shape != ref.shape:
        return Outcome(False, f"output shape {out.shape}, expected {ref.shape}")
    scale = float(np.abs(ref).max())
    err = float(np.abs(out - ref).max())
    ok = bool(err <= REL_TOL * scale)
    return Outcome(ok, "" if ok else f"max |err| {err:.3e} > {REL_TOL:g} * {scale:.3e}",
                   psnr_db(out, ref, scale, REL_TOL * scale), err)


def spectrum_reference(sigma: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The optimal spectrum: clamp of the decreasing isotonic fit of sigma - w/2."""
    # Imported here so that a set-up probe, which needs no reference, does
    # not pay for scipy.
    from scipy.optimize import isotonic_regression

    fit = isotonic_regression(sigma - w / 2.0, increasing=False).x
    return np.maximum(fit, 0.0)


def run_cli(argv: list[str]):
    """One ``wnnm`` command in this process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = wnnm.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_failure(result) -> Outcome | None:
    code, _, err = result
    if code != 0:
        return Outcome(False, f"exit {code}: {err.strip()[:200]}")
    return None


@dataclass
class CliInstance:
    argv: list[str]
    out: Path
    ref: np.ndarray = field(repr=False)
    floor_db: float = 0.0  # denoise only: the lowest acceptable PSNR


class CliWorkload:
    """An op is one ``wnnm`` command on files written in set-up."""

    instances: list[CliInstance]

    @staticmethod
    def prepare(inst: CliInstance) -> None:
        # A stale output from an earlier op must not pass the check.
        inst.out.unlink(missing_ok=True)

    @staticmethod
    def run(inst: CliInstance):
        return run_cli(inst.argv)

    def write_probe(self, workdir: Path) -> None:
        (workdir / "probe.json").write_text(json.dumps({"argv": self.instances[0].argv}))


# --- denoise-64 ------------------------------------------------------------

def write_pgm(path: Path, img: np.ndarray) -> None:
    h, w = img.shape
    path.write_bytes(f"P5\n{w} {h}\n255\n".encode("ascii") + img.astype(np.uint8).tobytes())


def read_pgm(path: Path) -> np.ndarray:
    """Binary PGM with maxval 255 and no header comments; raises ValueError."""
    data = path.read_bytes()
    head = re.match(rb"P5\s+(\d+)\s+(\d+)\s+255\s", data)
    if head is None:
        raise ValueError(f"{path.name}: not a P5 PGM with maxval 255")
    w, h = int(head.group(1)), int(head.group(2))
    raster = data[head.end() : head.end() + w * h]
    if len(raster) < w * h:
        raise ValueError(f"{path.name}: truncated raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w).astype(float)


class Denoise64(CliWorkload):
    """Alternating stripe and 2-D sinusoid images, sigma = 20, default settings."""

    name = "denoise-64"
    SIZE = 64
    SIGMA = 20.0
    POOL = 6
    # The denoised image must beat the noisy input by this much; the package
    # gains 1.5-1.8 dB on these fixtures.
    MIN_GAIN_DB = 0.5

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        rows, cols = np.mgrid[0 : self.SIZE, 0 : self.SIZE].astype(float)
        self.instances = []
        for i in range(self.POOL):
            phase = rng.uniform(0.0, 2.0 * math.pi, 2)
            if i % 2 == 0:
                clean = 107.0 + 80.0 * np.sin(0.35 * cols + phase[0])
            else:
                clean = (128.0 + 40.0 * np.sin(0.30 * rows + 0.20 * cols + phase[0])
                         + 30.0 * np.sin(0.15 * rows - 0.35 * cols + phase[1]))
            noisy = np.clip(np.rint(clean + rng.normal(0.0, self.SIGMA, clean.shape)), 0, 255)
            src, out = workdir / f"noisy{i}.pgm", workdir / f"denoised{i}.pgm"
            write_pgm(src, noisy)
            argv = ["denoise", "--in", str(src), "--out", str(out), "--sigma", repr(self.SIGMA)]
            floor = psnr_db(noisy, clean, 255.0) + self.MIN_GAIN_DB
            self.instances.append(CliInstance(argv, out, clean, floor))
        self.write_probe(workdir)

    @staticmethod
    def check(inst: CliInstance, result) -> Outcome:
        failure = cli_failure(result)
        if failure:
            return failure
        match = re.search(r"groups processed: (\d+)", result[1])
        groups = int(match.group(1)) if match else 0
        try:
            img = read_pgm(inst.out)
        except (OSError, ValueError) as exc:
            return Outcome(False, f"output unreadable: {exc}")
        if img.shape != inst.ref.shape:
            return Outcome(False, f"output is {img.shape}, expected {inst.ref.shape}")
        quality = psnr_db(img, inst.ref, 255.0)
        ok = quality >= inst.floor_db
        reason = "" if ok else f"PSNR {quality:.2f} dB < {inst.floor_db:.2f} dB"
        return Outcome(ok, reason, quality, groups=groups)


# --- solve-csv ---------------------------------------------------------------

def write_csv(path: Path, m: np.ndarray) -> None:
    path.write_text("".join(",".join(repr(float(x)) for x in row) + "\n"
                            for row in np.atleast_2d(m)))


class SolveCsv(CliWorkload):
    """Three CSV instances cycled: PAVA (200x150, weights in arbitrary order),
    closed form on the wide transposed path (150x200, non-descending weights),
    and uniform-weight soft thresholding (200x150, --lambda)."""

    name = "solve-csv"
    LAMBDA = 100.0

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.instances = []
        for i, (m, n, mode) in enumerate(((200, 150, "pava"), (150, 200, "closed"),
                                          (200, 150, "lambda"))):
            # Entries of size ~10 around a rank-5 signal.
            y = rng.normal(0.0, 10.0, (m, n)) + rng.normal(0, 3, (m, 5)) @ rng.normal(0, 3, (5, n))
            k = min(m, n)
            if mode == "lambda":
                w = np.full(k, self.LAMBDA)
            else:
                w = rng.uniform(0.0, 300.0, k)
                if mode == "closed":
                    w.sort()
            paths = [workdir / f"{name}{i}.csv" for name in ("y", "w", "x")]
            write_csv(paths[0], y)
            argv = ["solve", "--matrix", str(paths[0]), "--out", str(paths[2])]
            if mode == "lambda":
                argv += ["--lambda", repr(self.LAMBDA)]
            else:
                write_csv(paths[1], w)
                argv += ["--weights", str(paths[1])]
            u, s, vt = np.linalg.svd(y, full_matrices=False)
            ref = (u * spectrum_reference(s, w)) @ vt
            self.instances.append(CliInstance(argv, paths[2], ref))
        self.write_probe(workdir)

    @staticmethod
    def check(inst: CliInstance, result) -> Outcome:
        failure = cli_failure(result)
        if failure:
            return failure
        try:
            x = np.loadtxt(inst.out, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            return Outcome(False, f"output unreadable: {exc}")
        return compare(x, inst.ref)


# --- spectrum-20k ------------------------------------------------------------

@dataclass
class SpectrumInstance:
    sigma: np.ndarray
    w: np.ndarray
    ref: np.ndarray | None = None


class Spectrum20k:
    """Descending spectra with sorted weights plus noise. The noise amplitude
    is log-spaced over the pool, so the pooled fraction 1 - blocks/n spans
    about 0.76 to 0.995."""

    name = "spectrum-20k"
    N = 20000
    POOL = 24
    AMPLITUDES = (0.08, 40.0)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.instances = []
        for amp in rng.permutation(np.geomspace(*self.AMPLITUDES, self.POOL)):
            sigma = np.sort(rng.uniform(0.0, 100.0, self.N))[::-1].copy()
            w = np.abs(np.sort(rng.uniform(0.0, 20.0, self.N)) + amp * rng.standard_normal(self.N))
            self.instances.append(SpectrumInstance(sigma, w, spectrum_reference(sigma, w)))
        first = self.instances[0]
        np.savez(workdir / "probe.npz", sigma=first.sigma, w=first.w)

    @staticmethod
    def prepare(inst: SpectrumInstance) -> None:
        pass

    @staticmethod
    def run(inst: SpectrumInstance):
        return wnnm.pava_solve(inst.sigma, inst.w)

    @staticmethod
    def check(inst: SpectrumInstance, result) -> Outcome:
        return compare(np.asarray(result.d), inst.ref)


WORKLOADS = {wl.name: wl for wl in (Denoise64, SolveCsv, Spectrum20k)}


def probe_op(name: str, workdir: Path):
    """The first op of a workload whose inputs are already in ``workdir``."""
    if name == Spectrum20k.name:
        data = np.load(workdir / "probe.npz")
        inst = SpectrumInstance(data["sigma"], data["w"])
        return lambda: Spectrum20k.run(inst)
    argv = json.loads((workdir / "probe.json").read_text())["argv"]
    return lambda: run_cli(argv)
