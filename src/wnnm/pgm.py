"""Minimal binary PGM (P5, maxval 255) reader/writer."""

from __future__ import annotations

import re

import numpy as np

from .exceptions import InvalidInputError
from .linalg import check_matrix


# The header grammar: "P5", width, height and maxval, each followed directly
# by a whitespace byte. Before the magic and between fields, more whitespace
# and '#'-to-newline comments may come; the raster starts right after the
# maxval's whitespace byte. A field is decimal digits, at most 18 of them
# past any leading zeros: a larger dimension could never fit its raster, and
# the cap keeps ``int`` below its digit limit.
_SEP = rb"(?:\s|#[^\n]*\n)*"
_HEADER = re.compile(_SEP + rb"P5" + (rb"\s" + _SEP + rb"0*(\d{1,18})") * 3 + rb"\s")


def read_pgm(path) -> np.ndarray:
    """Read a binary PGM file into a float64 (height, width) array."""
    with open(path, "rb") as fh:
        data = fh.read()
    header = _HEADER.match(data)
    if header is None:
        raise InvalidInputError("malformed or truncated binary PGM (P5) header")
    width, height, maxval = map(int, header.groups())
    if width < 1 or height < 1:
        raise InvalidInputError(f"invalid PGM dimensions {width}x{height}")
    if maxval != 255:
        raise InvalidInputError(f"only maxval 255 supported, got {maxval}")
    raster = data[header.end() :]
    if len(raster) < width * height:
        raise InvalidInputError(
            f"truncated PGM raster: expected {width * height} bytes, got {len(raster)}"
        )
    pixels = np.frombuffer(raster[: width * height], dtype=np.uint8)
    return pixels.reshape(height, width).astype(float)


def write_pgm(path, img) -> None:
    """Write a (height, width) array as binary PGM, rounding and clamping
    to [0, 255]."""
    img = check_matrix(img)
    h, w = img.shape
    raster = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(raster.tobytes())
