import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from imime.frames import Frame, FrameError, read_pgm, write_pgm


def test_frame_accepts_uint8():
    f = Frame(np.zeros((16, 20), dtype=np.uint8))
    assert f.width == 20 and f.height == 16


def test_frame_coerces_in_range_ints():
    f = Frame(np.full((16, 16), 200, dtype=np.int32))
    assert f.pixels.dtype == np.uint8


def test_frame_rejects_bad_inputs():
    with pytest.raises(FrameError):
        Frame(np.zeros((16, 16, 3), dtype=np.uint8))  # not 2-D
    with pytest.raises(FrameError):
        Frame(np.zeros((8, 16), dtype=np.uint8))  # too small
    with pytest.raises(FrameError):
        Frame(np.full((16, 16), 300))  # out of range
    with pytest.raises(FrameError):
        Frame(np.full((16, 16), -1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_frame_rejects_non_finite_pixels(bad):
    px = np.full((16, 16), 100.0)
    px[3, 5] = bad
    with pytest.raises(FrameError, match="non-finite"):
        Frame(px)


def test_same_size():
    a = Frame(np.zeros((16, 16), dtype=np.uint8))
    b = Frame(np.zeros((16, 17), dtype=np.uint8))
    assert a.same_size(a) and not a.same_size(b)


def test_pgm_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    frame = Frame(rng.integers(0, 256, size=(20, 33)).astype(np.uint8))
    path = tmp_path / "f.pgm"
    write_pgm(frame, path)
    back = read_pgm(path)
    assert np.array_equal(back.pixels, frame.pixels)


def test_pgm_header_comments(tmp_path):
    raster = bytes(range(16)) * 16
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n16 # inline\n16\n255\n" + raster)
    frame = read_pgm(path)
    assert frame.width == 16 and frame.height == 16
    assert np.array_equal(frame.pixels, np.frombuffer(raster, np.uint8).reshape(16, 16))


def test_pgm_errors(tmp_path):
    p = tmp_path / "bad.pgm"
    p.write_bytes(b"P2\n16 16\n255\n" + bytes(256))
    with pytest.raises(FrameError):
        read_pgm(p)
    p.write_bytes(b"P5\n16 16\n65535\n" + bytes(512))
    with pytest.raises(FrameError):
        read_pgm(p)
    p.write_bytes(b"P5\n16 16\n255\n" + bytes(100))  # short raster
    with pytest.raises(FrameError):
        read_pgm(p)


# no whitespace after the magic number, and header tokens that are not plain
# decimal numbers (`int` alone would accept a sign or underscores)
@pytest.mark.parametrize("header", [b"P516 16\n", b"P5\nxx 16\n", b"P5\n16 0x10\n", b"P5\n+16 16\n", b"P5\n1_6 16\n"])
def test_pgm_rejects_malformed_header(tmp_path, header):
    p = tmp_path / "bad.pgm"
    p.write_bytes(header + b"255\n" + bytes(256))
    with pytest.raises(FrameError):
        read_pgm(p)


@pytest.mark.parametrize("sep", [b" ", b"\t", b"\r", b"\r\n", b"\n\n"])
def test_pgm_any_whitespace_after_magic(tmp_path, sep):
    raster = bytes(range(256))
    p = tmp_path / "ok.pgm"
    p.write_bytes(b"P5" + sep + b"16 16\n255\n" + raster)
    assert read_pgm(p).pixels.tobytes() == raster


@settings(max_examples=20, deadline=None)
@given(
    arr=arrays(np.uint8, st.tuples(st.integers(16, 40), st.integers(16, 40)), elements=st.integers(0, 255))
)
def test_pgm_roundtrip_property(arr, tmp_path_factory):
    path = tmp_path_factory.mktemp("pgm") / "x.pgm"
    write_pgm(Frame(arr), path)
    assert np.array_equal(read_pgm(path).pixels, arr)
