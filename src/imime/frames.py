"""Grayscale frame container and binary PGM (P5) I/O."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MIN_SIDE = 16


class FrameError(ValueError):
    pass


class DimensionMismatch(FrameError):
    pass


@dataclass(frozen=True)
class Frame:
    """A single grayscale image, intensities in [0, 255]."""

    pixels: np.ndarray  # (height, width), uint8

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 2:
            raise FrameError(f"expected 2-D pixel array, got shape {px.shape}")
        if px.shape[0] < MIN_SIDE or px.shape[1] < MIN_SIDE:
            raise FrameError(f"frame must be at least {MIN_SIDE}x{MIN_SIDE}, got {px.shape}")
        if px.dtype != np.uint8:
            if not np.isfinite(px).all():
                raise FrameError("non-finite pixel values")
            if px.min() < 0 or px.max() > 255:
                raise FrameError("pixel values outside [0, 255]")
            px = px.astype(np.uint8)
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def same_size(self, other: "Frame") -> bool:
        return self.pixels.shape == other.pixels.shape


def write_pgm(frame: Frame, path) -> None:
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (frame.width, frame.height))
        f.write(frame.pixels.tobytes())


def read_pgm(path) -> Frame:
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(b"P5") or not data[2:3].isspace():
        raise FrameError("not a binary PGM (P5) file")
    # header: magic, width, height, maxval; '#' comments allowed between tokens
    pos = 2
    tokens = []
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FrameError("truncated PGM header")
        if not data[start:pos].isdigit():
            raise FrameError(f"PGM header token {data[start:pos]!r} is not a decimal number")
        tokens.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    width, height, maxval = (int(t) for t in tokens)
    if maxval != 255:
        raise FrameError(f"unsupported PGM maxval {maxval}")
    n = width * height
    raster = data[pos : pos + n]
    if len(raster) != n:
        raise FrameError("truncated PGM raster")
    return Frame(np.frombuffer(raster, dtype=np.uint8).reshape(height, width).copy())
