"""Facial analysis: face detection, head orientation from symmetry + edge
cues and the jerk operator, which `FaceTracker` joins into the one
per-frame face-cue path of the closed loop, `imime analyze` and the vision
report; and region optical flow with expression and motion classes, which
only `imime analyze` computes, over stored frames."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .frames import DimensionMismatch, Frame

# the seven face regions in label order, each as fractions of the face rect:
# (label, col_lo, col_hi, row_lo, row_hi)
REGIONS = (
    ("LeftEyebrow", 0.10, 0.45, 0.15, 0.30),
    ("RightEyebrow", 0.55, 0.90, 0.15, 0.30),
    ("LeftEye", 0.10, 0.45, 0.30, 0.45),
    ("RightEye", 0.55, 0.90, 0.30, 0.45),
    ("LeftCheek", 0.10, 0.45, 0.50, 0.70),
    ("RightCheek", 0.55, 0.90, 0.50, 0.70),
    ("Mouth", 0.30, 0.70, 0.70, 0.90),
)

# facial-region geometry thresholds and block-matching geometry
TAU_SYM = 0.06
TAU_COG = 0.25
TAU_STILL = 0.3
TAU_ZONE = 0.5
TAU_SPREAD = 0.35
TAU_EXPR = 0.85
TAU_MAG = 1.0
THETA_EDGE = 32.0
BLOCK_SIZE = 8
SEARCH_RADIUS = 7

MIN_FACE_SIDE = 14
FACE_THRESHOLD = 130  # BrightnessBlobDetector: pixels at or above it are face

# canonical expression references for the 14-dim characteristic flow:
# smile = outward+up mouth flow with cheek lift, frown = downward mouth/brow
EXPRESSION_REFS = [
    ("Smile", np.array([0, 0, 0, 0, 0, -0.5, 0, -0.5, 0, 0, 0, 0, 0, -2.0])),
    ("Frown", np.array([0, 0.5, 0, 0.5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2.0])),
]


class RectTooSmall(ValueError):
    pass


@dataclass(frozen=True)
class FaceRect:
    x: int
    y: int
    w: int
    h: int

    @property
    def center(self) -> tuple[float, float]:
        return (self.x + (self.w - 1) / 2.0, self.y + (self.h - 1) / 2.0)


def partition_regions(rect: FaceRect) -> list[tuple]:
    """Split a face rect into the seven canonical pixel regions.

    Returns (x, y, w, h) tuples in REGIONS order, half-open pixel
    intervals rounded from the fractions in REGIONS.
    """
    if rect.w < MIN_FACE_SIDE or rect.h < MIN_FACE_SIDE:
        raise RectTooSmall(f"face rect {rect.w}x{rect.h} below {MIN_FACE_SIDE}px minimum")
    out = []
    for label, c0, c1, r0, r1 in REGIONS:
        x0 = rect.x + int(round(c0 * rect.w))
        x1 = rect.x + int(round(c1 * rect.w))
        y0 = rect.y + int(round(r0 * rect.h))
        y1 = rect.y + int(round(r1 * rect.h))
        w, h = x1 - x0, y1 - y0
        if w * h < 4 or w < 2 or h < 1:
            raise RectTooSmall(f"region {label} degenerates to {w}x{h}")
        out.append((x0, y0, w, h))
    return out


@dataclass(frozen=True)
class FlowField:
    """Block-matching displacements over a pixel region.

    vectors[i, j] = (dx, dy) for the block at grid cell (i, j);
    centers[i, j] = (cx, cy) block center in frame coordinates.
    """

    vectors: np.ndarray  # (ny, nx, 2) float
    centers: np.ndarray  # (ny, nx, 2) float
    region: tuple  # (x, y, w, h)

    @property
    def magnitudes(self) -> np.ndarray:
        return np.hypot(self.vectors[..., 0], self.vectors[..., 1])


def block_flow(prev: Frame, cur: Frame, region: tuple) -> FlowField:
    """SAD block matching of `prev` content into `cur` within a region.

    Each BLOCK_SIZE block of the region (the last row and column of blocks
    may be smaller) takes the shift within SEARCH_RADIUS whose sum of
    absolute differences is least. Shifts that move the block partly out of the
    frame are not candidates. Ties are broken toward the smallest
    displacement magnitude, then smallest |dy|, then smallest |dx|, then
    smallest dy, then smallest dx.
    """
    if not prev.same_size(cur):
        raise DimensionMismatch("frames differ in size")
    x, y, w, h = region
    H, W = prev.pixels.shape
    if x < 0 or y < 0 or x + w > W or y + h > H:
        raise ValueError("region outside frame")
    r = SEARCH_RADIUS
    n = 2 * r + 1
    row_starts = np.arange(0, h, BLOCK_SIZE)
    col_starts = np.arange(0, w, BLOCK_SIZE)
    row_ends = np.minimum(row_starts + BLOCK_SIZE, h)
    col_ends = np.minimum(col_starts + BLOCK_SIZE, w)
    ny, nx = row_starts.size, col_starts.size
    centers = np.empty((ny, nx, 2))
    centers[..., 0] = x + (col_starts + col_ends - 1) / 2.0
    centers[..., 1] = (y + (row_starts + row_ends - 1) / 2.0)[:, None]
    if ny == 0 or nx == 0:  # an empty region has no blocks to match
        return FlowField(vectors=np.zeros((ny, nx, 2)), centers=centers, region=(x, y, w, h))
    p = prev.pixels[y : y + h, x : x + w].astype(np.int16)

    # the search window of `cur`, zero-padded to the radius; padded pixels
    # only ever enter the SAD of out-of-frame shifts, which are masked below
    win = np.zeros((h + 2 * r, w + 2 * r), dtype=np.int16)
    y0, y1 = max(0, y - r), min(H, y + h + r)
    x0, x1 = max(0, x - r), min(W, x + w + r)
    win[y0 - y + r : y1 - y + r, x0 - x + r : x1 - x + r] = cur.pixels[y0:y1, x0:x1]
    # shifted[row, col, dy + r, dx + r] = cur[y + row + dy, x + col + dx]
    shifted = sliding_window_view(win, (n, n))

    # One row of blocks at a time, with the shifts as the innermost axes so
    # that every numpy loop runs over all n*n of them. A whole-region
    # difference volume would cost megabytes per call. Columns of `diff`
    # past w stay zero, so a narrow last block column sums only its pixels.
    # int32 sums: a block's SAD (at most 255 * BLOCK_SIZE**2) stays far below
    # the out-of-frame sentinel
    diff = np.zeros((min(BLOCK_SIZE, h), nx * BLOCK_SIZE, n, n), dtype=np.int16)
    sad = np.empty((ny, nx, n, n), dtype=np.int32)
    for i, (ra, rb) in enumerate(zip(row_starts, row_ends)):
        d = diff[: rb - ra, :w]
        np.subtract(shifted[ra:rb], p[ra:rb, :, None, None], out=d)
        np.abs(d, out=d)
        col_sums = diff[: rb - ra].sum(axis=0, dtype=np.int32)
        np.sum(col_sums.reshape(nx, BLOCK_SIZE, n, n), axis=1, out=sad[i])

    shifts = np.arange(-r, r + 1)
    rows_in = (y + row_starts[:, None] + shifts >= 0) & (y + row_ends[:, None] + shifts <= H)  # (block row, dy)
    cols_in = (x + col_starts[:, None] + shifts >= 0) & (x + col_ends[:, None] + shifts <= W)  # (block col, dx)
    sad[~(rows_in[:, None, :, None] & cols_in[None, :, None, :])] = np.iinfo(np.int32).max

    # candidates in tie-break order; argmin keeps the first minimum
    dy, dx = (a.ravel() for a in np.meshgrid(shifts, shifts, indexing="ij"))
    order = np.lexsort((dx, dy, np.abs(dx), np.abs(dy), dx * dx + dy * dy))
    best = order[np.argmin(sad.reshape(ny, nx, n * n)[..., order], axis=-1)]
    vectors = np.stack((dx[best], dy[best]), axis=-1).astype(float)
    return FlowField(vectors=vectors, centers=centers, region=(x, y, w, h))


def characteristic_flow(fields: list[FlowField]) -> np.ndarray:
    """Concatenate mean (dx, dy) per region into a 14-vector (REGIONS order)."""
    if len(fields) != 7:
        raise ValueError(f"expected 7 region flow fields, got {len(fields)}")
    parts = []
    for f in fields:
        parts.extend(f.vectors.reshape(-1, 2).mean(axis=0))
    return np.array(parts)


def flow_features(prev: Frame, cur: Frame, rect: FaceRect) -> tuple[np.ndarray, FlowField]:
    """Block flow of a face from `prev` to `cur`: the 14-vector of region
    means (see `characteristic_flow`) and the whole-face flow field."""
    fields = [block_flow(prev, cur, r) for r in partition_regions(rect)]
    whole = block_flow(prev, cur, (rect.x, rect.y, rect.w, rect.h))
    return characteristic_flow(fields), whole


def classify_expression(cf: np.ndarray) -> str:
    """Nearest of EXPRESSION_REFS by cosine similarity, gated on magnitude."""
    norm = float(np.linalg.norm(cf))
    if norm < TAU_MAG:
        return "Neutral"
    best_label, best_sim = "Neutral", -np.inf
    for label, ref in EXPRESSION_REFS:
        sim = float(np.dot(cf, ref)) / (norm * float(np.linalg.norm(ref)))
        if sim > best_sim:
            best_label, best_sim = label, sim
    return best_label if best_sim >= TAU_EXPR else "Neutral"


def classify_motion(field: FlowField, region_means: np.ndarray) -> str:
    """Still / Rigid / NonRigid from a whole-face flow field plus the 14-vector.

    Rigid needs motion in all seven zones AND a wide spatial spread of the
    peak blocks; spread = (std_x + std_y of peak centers) / face diagonal.
    """
    mags = field.magnitudes
    if mags.mean() < TAU_STILL:
        return "Still"
    zone = region_means.reshape(7, 2)
    zone_mag = np.hypot(zone[:, 0], zone[:, 1])
    all_zones = bool((zone_mag > TAU_ZONE).all())
    nonzero = mags[mags > 0]
    spread = 0.0
    if nonzero.size:
        thresh = np.percentile(nonzero, 75)
        peaks = field.centers[mags >= thresh]
        if len(peaks) > 1:
            _, _, w, h = field.region
            diag = float(np.hypot(w, h))
            spread = float(peaks[:, 0].std() + peaks[:, 1].std()) / diag
    if all_zones and spread > TAU_SPREAD:
        return "Rigid"
    return "NonRigid"


def symmetry_score(face: np.ndarray) -> float:
    """Mean mirrored pixel distance in [0, 1] of a face crop (2-D uint8)
    after a 3x3 median filter.

    Column j and its mirror w-1-j differ by the same amounts, so the exact
    integer sum is twice that of the left half against the mirrored right
    half (a middle column differs from itself by 0)."""
    med = _median3x3(face)
    half = med.shape[1] // 2
    diff = np.subtract(med[:, :half], med[:, ::-1][:, :half], dtype=np.int16)
    return 2 * int(np.abs(diff).sum()) / med.size / 255.0


def _pad_edge(img: np.ndarray, dtype=None) -> np.ndarray:
    """`img` in `dtype` (by default its own) with a one-pixel border that
    repeats the edge pixels, corners included: scipy's "reflect" mode and
    numpy's "symmetric" pad, one pixel wide."""
    h, w = img.shape
    p = np.empty((h + 2, w + 2), dtype or img.dtype)
    p[1:-1, 1:-1] = img
    p[0, 1:-1], p[-1, 1:-1] = img[0], img[-1]
    p[:, 0], p[:, -1] = p[:, 1], p[:, -2]
    return p


def _median3x3(img: np.ndarray) -> np.ndarray:
    """3x3 median with edges reflected, equal to
    `ndimage.median_filter(img, size=3, mode="reflect")`, by a min/max
    network: sort each vertical triple, then the median of the nine is the
    median of (largest low, median of the middles, smallest high) across
    three neighboring columns."""
    p = _pad_edge(img)
    a, b, c = p[:-2], p[1:-1], p[2:]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    mid, hi = np.minimum(hi, c), np.maximum(hi, c)
    lo, mid = np.minimum(lo, mid), np.maximum(lo, mid)
    low = np.maximum(np.maximum(lo[:, :-2], lo[:, 1:-1]), lo[:, 2:])
    high = np.minimum(np.minimum(hi[:, :-2], hi[:, 1:-1]), hi[:, 2:])
    return _median3(low, _median3(mid[:, :-2], mid[:, 1:-1], mid[:, 2:]), high)


def _median3(a, b, c):
    return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))


def edge_cog_offset(face: np.ndarray) -> float:
    """Horizontal offset in [-1, 1] of the centroid of significant edges in
    a face crop (2-D uint8).

    Positive means edge mass right of the crop's centerline. Gradient is a
    3x3 Sobel with edges reflected, normalized to intensity units per pixel
    step: magnitude hypot(gx / 4, gy / 4) for the integer Sobel sums gx, gy,
    which are exact in int16 (at most 4 * 255 in size). A pixel is
    significant when that magnitude is at least THETA_EDGE.
    """
    p = _pad_edge(face, np.int16)
    dx = p[:, 2:] - p[:, :-2]  # central differences along rows, smoothed down columns
    dy = p[2:] - p[:-2]
    gx = dx[:-2] + 2 * dx[1:-1] + dx[2:]
    gy = dy[:, :-2] + 2 * dy[:, 1:-1] + dy[:, 2:]
    # only pixels whose exact squared magnitude comes within a relative 1e-9
    # of the threshold can pass it, far more slack than hypot's rounding needs
    sq = np.square(gx, dtype=np.int32)
    sq += np.square(gy, dtype=np.int32)
    near = sq >= 16.0 * THETA_EDGE * THETA_EDGE * (1.0 - 1e-9)
    mag = np.hypot(gx[near] / 4.0, gy[near] / 4.0)
    sig = mag >= THETA_EDGE
    if not sig.any():
        return 0.0
    weights = mag[sig]  # row-major order, as the full magnitude image would list them
    xs = np.nonzero(near)[1][sig].astype(float)
    cog = float((xs * weights).sum() / weights.sum())
    half = (face.shape[1] - 1) / 2
    return min(max((cog - half) / half, -1.0), 1.0)


def fuse_orientation(s: float, e: float, prev_label: str) -> str:
    """Combine the symmetry and edge cues into a head-orientation label,
    Left, Frontal or Right.

    Frontal requires both cues below threshold; otherwise the edge sign
    decides Left/Right, keeping the previous label when the edge cue is
    silent (hysteresis).
    """
    if s < TAU_SYM and abs(e) < TAU_COG:
        return "Frontal"
    if e < 0:
        return "Left"
    if e > 0:
        return "Right"
    return prev_label


def estimate_jerk(track) -> float:
    """Euclidean norm of the 4th-order finite difference of the last five
    head positions, or 0.0 for fewer than five. `track` is any sized
    iterable of (x, y), oldest first."""
    if len(track) < 5:
        return 0.0
    *_, (x0, y0), (x1, y1), (x2, y2), (x3, y3), (x4, y4) = track
    return float(np.hypot(x4 - 4 * x3 + 6 * x2 - 4 * x1 + x0, y4 - 4 * y3 + 6 * y2 - 4 * y1 + y0))


class BrightnessBlobDetector:
    """Injected face-finder stand-in for synthetic frames: bounding box of
    the largest bright blob, grown to the minimum legal face size."""

    def detect(self, frame: Frame) -> FaceRect | None:
        mask = frame.pixels >= FACE_THRESHOLD
        if not mask.any():
            return None
        # every blob lies inside the bounding box of all bright pixels
        x0, x1, y0, y1 = _bounds(mask)
        blob = _largest_blob_bounds(mask[y0:y1, x0:x1])
        if blob is not None:
            bx0, bx1, by0, by1 = blob
            x0, x1, y0, y1 = x0 + bx0, x0 + bx1, y0 + by0, y0 + by1
        # pad out to the minimum rect size: lower x0 (y0) as far as 0 allows,
        # then raise x1 (y1); a Frame's sides are at least MIN_SIDE = 16 >
        # MIN_FACE_SIDE, so the rect stays inside the frame
        x0 = min(x0, max(0, x1 - MIN_FACE_SIDE))
        x1 = max(x1, x0 + MIN_FACE_SIDE)
        y0 = min(y0, max(0, y1 - MIN_FACE_SIDE))
        y1 = max(y1, y0 + MIN_FACE_SIDE)
        return FaceRect(x0, y0, x1 - x0, y1 - y0)


class FaceTracker:
    """The face cues of a frame sequence, one frame at a time: the face
    rect, its symmetry and edge cues, the head orientation label with
    hysteresis (starting from Frontal) and the jerk of the last five face
    centres. A frame without a face leaves the label and the centres as
    they were."""

    def __init__(self):
        self.detector = BrightnessBlobDetector()
        self.label = "Frontal"
        self.centers: deque[tuple[float, float]] = deque(maxlen=5)

    def observe(self, frame: Frame) -> tuple[FaceRect, float, float, str, float] | None:
        """(rect, symmetry, edge_offset, label, jerk), or None when no face
        is found; jerk is 0.0 until five faces have been seen."""
        rect = self.detector.detect(frame)
        if rect is None:
            return None
        crop = frame.pixels[rect.y : rect.y + rect.h, rect.x : rect.x + rect.w]
        s = symmetry_score(crop)
        e = edge_cog_offset(crop)
        self.label = fuse_orientation(s, e, self.label)
        self.centers.append(rect.center)
        return rect, s, e, self.label, estimate_jerk(self.centers)


def _bounds(mask: np.ndarray) -> tuple[int, int, int, int]:
    """Half-open (x0, x1, y0, y1) bounding box of the True pixels."""
    cols = np.flatnonzero(mask.any(axis=0))
    rows = np.flatnonzero(mask.any(axis=1))
    return int(cols[0]), int(cols[-1]) + 1, int(rows[0]), int(rows[-1]) + 1


def _largest_blob_bounds(box: np.ndarray) -> tuple[int, int, int, int] | None:
    """Half-open (x0, x1, y0, y1) bounding box of the largest 4-connected
    blob of True pixels, the first in raster order on ties, or None when
    they form at most one blob.

    Blobs are joined from the runs of True pixels in each row. A run is
    keyed by row * (w + 1) + column, so the zero column padded onto every
    row ends each row's last run, and the keys of all runs are sorted in
    raster order. A blob takes the index of its first run, which is the
    order `ndimage.label` numbers blobs in."""
    h, w = box.shape
    stride = w + 1
    flat = np.zeros(h * stride + 1, np.int8)
    flat[1:].reshape(h, stride)[:, :w] = box
    edges = np.flatnonzero(np.diff(flat))
    starts, ends = edges[0::2], edges[1::2]  # end keys are exclusive
    # runs lo[i]..hi[i]-1 are those of the row above that share a column with run i
    lo = np.searchsorted(ends, starts - stride, side="right")
    hi = np.searchsorted(starts, ends - stride)
    # when every run after the first has a run above it, each joins the blob
    # of an earlier run, so the first run's blob holds them all
    if np.count_nonzero(lo == hi) <= 1:
        return None
    # union-find over the runs, linking the later root under the earlier one,
    # so parent[i] <= i and a root is its blob's first run
    parent = list(range(len(starts)))
    for i, a, b in zip(range(len(starts)), lo.tolist(), hi.tolist()):
        for j in range(a, b):
            while parent[j] != j:
                parent[j] = j = parent[parent[j]]  # path halving
            r = i
            while parent[r] != r:
                parent[r] = r = parent[parent[r]]
            if j < r:
                parent[r] = j
            else:
                parent[j] = r
    for i, p in enumerate(parent):
        parent[i] = parent[p]  # p <= i, so parent[p] is already a root
    labels = np.array(parent)
    sizes = np.bincount(labels, ends - starts)
    if np.count_nonzero(sizes) == 1:
        return None
    largest = labels == int(np.argmax(sizes))
    rows = starts[largest] // stride
    row_keys = rows * stride
    return (
        int((starts[largest] - row_keys).min()),
        int((ends[largest] - row_keys).max()),
        int(rows[0]),
        int(rows[-1]) + 1,
    )
