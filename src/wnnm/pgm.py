"""Minimal binary PGM (P5, maxval 255) reader/writer."""

from __future__ import annotations

import numpy as np

from .exceptions import InvalidInputError


def check_image(img) -> np.ndarray:
    """The image as a float array, if it is nonempty, 2-D and finite."""
    img = np.asarray(img, dtype=float)
    if img.ndim != 2 or img.shape[0] < 1 or img.shape[1] < 1:
        raise InvalidInputError(f"expected a nonempty 2-D image, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise InvalidInputError("image contains NaN or Inf")
    return img


def _header_tokens(data: bytes):
    """Yield (token, end_offset) for whitespace-separated header tokens,
    skipping '#' comments."""
    i = 0
    while i < len(data):
        c = data[i : i + 1]
        if c.isspace():
            i += 1
        elif c == b"#":
            nl = data.find(b"\n", i)
            if nl < 0:
                raise InvalidInputError("unterminated comment in PGM header")
            i = nl + 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace():
                j += 1
            yield data[i:j], j
            i = j


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM file into a float64 (height, width) array."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = _header_tokens(data)
    try:
        magic, _ = next(tokens)
        if magic != b"P5":
            raise InvalidInputError(f"not a binary PGM (P5) file: magic {magic!r}")
        width, _ = next(tokens)
        height, _ = next(tokens)
        maxval, end = next(tokens)
    except StopIteration:
        raise InvalidInputError("truncated PGM header") from None
    try:
        width, height, maxval = int(width), int(height), int(maxval)
    except ValueError as exc:
        raise InvalidInputError(f"malformed PGM header: {exc}") from None
    if width < 1 or height < 1:
        raise InvalidInputError(f"invalid PGM dimensions {width}x{height}")
    if maxval != 255:
        raise InvalidInputError(f"only maxval 255 supported, got {maxval}")
    # Exactly one whitespace byte separates the header from raster data.
    raster = data[end + 1 :]
    if len(raster) < width * height:
        raise InvalidInputError(
            f"truncated PGM raster: expected {width * height} bytes, got {len(raster)}"
        )
    pixels = np.frombuffer(raster[: width * height], dtype=np.uint8)
    return pixels.reshape(height, width).astype(float)


def write_pgm(path, img) -> None:
    """Write a (height, width) array as binary PGM, rounding and clamping
    to [0, 255]."""
    img = check_image(img)
    h, w = img.shape
    raster = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(raster.tobytes())
