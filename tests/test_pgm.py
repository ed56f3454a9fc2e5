import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wnnm import InvalidInputError, read_pgm, write_pgm


def test_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(13, 9)).astype(float)
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    np.testing.assert_array_equal(read_pgm(path), img)


def test_write_rounds_and_clamps(tmp_path):
    path = tmp_path / "img.pgm"
    write_pgm(path, np.array([[-3.0, 12.6, 300.0]]))
    np.testing.assert_array_equal(read_pgm(path), [[0.0, 13.0, 255.0]])


def test_comments_in_header(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n255\n\x05\x07")
    np.testing.assert_array_equal(read_pgm(path), [[5.0, 7.0]])


@pytest.mark.parametrize(
    "header",
    [
        pytest.param(b"# made by hand\n#\n\nP5\n2 1\n255\n", id="comments-before-magic"),
        pytest.param(b"P5 # magic\n2\t#width\n\n1 # height\n# more\n255\n", id="comments-between-fields"),
    ],
)
def test_header_comments_accepted(tmp_path, header):
    path = tmp_path / "img.pgm"
    path.write_bytes(header + b"\x05\x07")
    np.testing.assert_array_equal(read_pgm(path), [[5.0, 7.0]])


@pytest.mark.parametrize(
    "data",
    [
        b"P2\n2 2\n255\n1 2 3 4",  # ascii variant unsupported
        b"P5\n2 2\n255\n\x01\x02",  # truncated raster
        b"P5\n2",  # truncated header
        b"P5\n2 2\n65535\n" + b"\x00" * 8,  # wrong maxval
        b"P5\nx y\n255\n" + b"\x00" * 4,  # non-numeric dimensions
        pytest.param(b"P5#c\n2 1\n255\n\x05\x07", id="comment-glued-to-magic"),
        pytest.param(b"P5\n2 1 # no newline", id="unterminated-comment"),
        pytest.param(b"P5\n+2 1\n255\n\x05\x07", id="signed-width"),
        pytest.param(b"P5\n2_0 1\n255\n" + b"\x00" * 20, id="underscore-width"),
        pytest.param(b"P5\n" + b"1" * 5000 + b" 1\n255\n\x00", id="5000-digit-width"),
        # int() reads it, but width * height has too many digits to print.
        pytest.param(b"P5\n" + b"9" * 4300 + b" 2\n255\n\x00", id="4300-digit-width"),
    ],
)
def test_malformed_rejected(tmp_path, data):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(InvalidInputError):
        read_pgm(path)


def _field(digits):
    return st.one_of(st.integers(-3, 70).map(lambda v: str(v).encode()),
                     st.binary(max_size=4), st.just(digits))


SEPARATORS = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"\n# note\n", b"#", b""])

PGM_SHAPED = st.builds(
    lambda magic, seps, width, height, maxval, raster: b"".join(
        (magic, seps[0], width, seps[1], height, seps[2], maxval, seps[3], raster)),
    st.sampled_from([b"P5", b"P2", b"P6", b"p5", b""]),
    st.lists(SEPARATORS, min_size=4, max_size=4),
    _field(b"3"),
    _field(b"2"),
    _field(b"255"),
    st.binary(max_size=40),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.binary(max_size=120), PGM_SHAPED))
def test_read_pgm_parses_or_rejects_any_bytes(tmp_path_factory, data):
    """Every byte string either parses into an image or raises
    InvalidInputError; no other exception escapes."""
    path = tmp_path_factory.mktemp("fuzz") / "img.pgm"
    path.write_bytes(data)
    try:
        img = read_pgm(path)
    except InvalidInputError:
        return
    assert img.ndim == 2 and img.size >= 1 and img.dtype == float
