import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from imime import face, viewer
from imime.frames import DimensionMismatch, Frame


def flat_frame(value=100, size=64):
    return Frame(np.full((size, size), value, dtype=np.uint8))


def frame_from(arr):
    return Frame(np.asarray(arr, dtype=np.uint8))


def crop(frame, rect):
    return frame.pixels[rect.y : rect.y + rect.h, rect.x : rect.x + rect.w]


# --- partition_regions -------------------------------------------------------


def test_partition_default_layout_mouth_in_lower_third():
    rect = face.FaceRect(0, 0, 140, 140)
    partition = face.partition_regions(rect)
    mouth = partition[6]
    x, y, w, h = mouth
    assert y >= 0.7 * 140 - 1
    assert y + h <= 0.9 * 140 + 1
    # horizontally centered
    assert abs((x + w / 2) - 70) <= 1


def test_partition_regions_disjoint_and_inside():
    rect = face.FaceRect(10, 20, 80, 90)
    regions = face.partition_regions(rect)
    boxes = []
    for x, y, w, h in regions:
        assert x >= rect.x and y >= rect.y
        assert x + w <= rect.x + rect.w and y + h <= rect.y + rect.h
        assert w * h >= 4
        boxes.append((x, y, w, h))
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            xi, yi, wi, hi = boxes[i]
            xj, yj, wj, hj = boxes[j]
            overlap_x = max(0, min(xi + wi, xj + wj) - max(xi, xj))
            overlap_y = max(0, min(yi + hi, yj + hj) - max(yi, yj))
            assert overlap_x * overlap_y == 0


def test_partition_smallest_legal_rect():
    regions = face.partition_regions(face.FaceRect(10, 10, 14, 14))
    assert all(w * h >= 4 for _, _, w, h in regions)


def test_partition_too_small_raises():
    with pytest.raises(face.RectTooSmall):
        face.partition_regions(face.FaceRect(0, 0, 13, 13))


# --- block_flow ---------------------------------------------------------------


def test_block_flow_identical_frames_zero():
    f = flat_frame()
    field = face.block_flow(f, f, (8, 8, 32, 32))
    assert np.all(field.vectors == 0)


def _textured(size, rng):
    return Frame(rng.integers(0, 256, size=(size, size)).astype(np.uint8))


def test_block_flow_exact_on_shift():
    rng = np.random.default_rng(7)
    prev = _textured(64, rng)
    shifted = np.full((64, 64), 128, dtype=np.uint8)
    shifted[:, 3:] = prev.pixels[:, :-3]
    cur = Frame(shifted)
    field = face.block_flow(prev, cur, (16, 16, 32, 32))
    assert np.all(field.vectors[..., 0] == 3)
    assert np.all(field.vectors[..., 1] == 0)


def test_block_flow_local_motion_confined():
    rng = np.random.default_rng(8)
    prev = _textured(64, rng)
    cur_px = prev.pixels.copy()
    # shift a mouth-sized patch down by 2
    cur_px[34:48, 24:40] = prev.pixels[32:46, 24:40]
    cur = Frame(cur_px)
    moving = face.block_flow(prev, cur, (24, 36, 16, 8))
    assert np.all(np.abs(moving.vectors[..., 1]) >= 1)
    still = face.block_flow(prev, cur, (0, 0, 16, 16))
    assert np.all(still.vectors == 0)


def test_block_flow_dimension_mismatch():
    a = flat_frame(size=64)
    b = flat_frame(size=32)
    with pytest.raises(DimensionMismatch):
        face.block_flow(a, b, (0, 0, 16, 16))


@settings(max_examples=20, deadline=None)
@given(dx=st.integers(-5, 5), dy=st.integers(-5, 5), seed=st.integers(0, 1000))
def test_block_flow_exact_on_random_integer_translation(dx, dy, seed):
    rng = np.random.default_rng(seed)
    prev = _textured(64, rng)
    cur_px = np.full((64, 64), 128, dtype=np.uint8)
    src_y0, src_y1 = max(0, -dy), min(64, 64 - dy)
    src_x0, src_x1 = max(0, -dx), min(64, 64 - dx)
    cur_px[src_y0 + dy : src_y1 + dy, src_x0 + dx : src_x1 + dx] = prev.pixels[src_y0:src_y1, src_x0:src_x1]
    cur = Frame(cur_px)
    field = face.block_flow(prev, cur, (20, 20, 24, 24))
    assert np.all(field.vectors[..., 0] == dx)
    assert np.all(field.vectors[..., 1] == dy)


def _loop_block_flow(prev, cur, region, block_size=face.BLOCK_SIZE, search_radius=face.SEARCH_RADIUS):
    """Reference block matcher: one shift and one block at a time, an
    `inf` SAD for blocks the shift moves out of the frame, and a strict `<`
    over candidates visited in tie-break order."""
    x, y, w, h = region
    H, W = prev.pixels.shape
    p = prev.pixels[y : y + h, x : x + w].astype(np.int64)
    c = cur.pixels.astype(np.int64)

    rows = [(s, min(s + block_size, h)) for s in range(0, h, block_size)]
    cols = [(s, min(s + block_size, w)) for s in range(0, w, block_size)]
    ny, nx = len(rows), len(cols)
    best_sad = np.full((ny, nx), np.inf)
    best = np.zeros((ny, nx, 2))

    candidates = sorted(
        (
            (dx, dy)
            for dy in range(-search_radius, search_radius + 1)
            for dx in range(-search_radius, search_radius + 1)
        ),
        key=lambda d: (d[0] * d[0] + d[1] * d[1], abs(d[1]), abs(d[0]), d[1], d[0]),
    )
    for dx, dy in candidates:
        r0 = max(0, -(y + dy))
        r1 = min(h, H - (y + dy))
        c0 = max(0, -(x + dx))
        c1 = min(w, W - (x + dx))
        if r0 >= r1 or c0 >= c1:
            continue
        diff = np.full((h, w), np.inf)
        diff[r0:r1, c0:c1] = np.abs(
            p[r0:r1, c0:c1] - c[y + dy + r0 : y + dy + r1, x + dx + c0 : x + dx + c1]
        )
        for i, (ra, rb) in enumerate(rows):
            for j, (ca, cb) in enumerate(cols):
                sad = diff[ra:rb, ca:cb].sum()
                if sad < best_sad[i, j]:
                    best_sad[i, j] = sad
                    best[i, j] = (dx, dy)

    centers = np.zeros((ny, nx, 2))
    for i, (ra, rb) in enumerate(rows):
        for j, (ca, cb) in enumerate(cols):
            centers[i, j] = (x + (ca + cb - 1) / 2.0, y + (ra + rb - 1) / 2.0)
    return best, centers


def _assert_matches_loop(prev, cur, region):
    # the loop reads the geometry when called, so a patched constant reaches both
    field = face.block_flow(prev, cur, region)
    vectors, centers = _loop_block_flow(prev, cur, region, face.BLOCK_SIZE, face.SEARCH_RADIUS)
    assert field.vectors.dtype == vectors.dtype and field.centers.dtype == centers.dtype
    assert np.array_equal(field.vectors, vectors)
    assert np.array_equal(field.centers, centers)
    assert field.region == tuple(region)


@st.composite
def _flow_case(draw):
    H, W = draw(st.integers(16, 36)), draw(st.integers(16, 36))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "shifted", "periodic", "identical", "flat"]))
    prev_px = rng.integers(0, 256, size=(H, W), dtype=np.uint8)
    if kind == "random":
        cur_px = rng.integers(0, 256, size=(H, W), dtype=np.uint8)
    elif kind in ("shifted", "periodic"):
        if kind == "periodic":
            # shifts congruent modulo the tile tie, so the tie-break decides
            if draw(st.booleans()):
                a, b = rng.integers(0, 256, size=2)
                tile = np.array([[a, b], [b, a]])
            else:
                tile = rng.integers(0, 256, size=(draw(st.integers(1, 3)), draw(st.integers(1, 3))))
            reps = (H // tile.shape[0] + 1, W // tile.shape[1] + 1)
            prev_px = np.tile(tile, reps)[:H, :W].astype(np.uint8)
        dy, dx = draw(st.integers(-8, 8)), draw(st.integers(-8, 8))
        cur_px = np.roll(prev_px, (dy, dx), axis=(0, 1))
    elif kind == "identical":
        cur_px = prev_px.copy()
    else:
        prev_px = np.full((H, W), draw(st.integers(0, 255)), dtype=np.uint8)
        cur_px = np.full((H, W), draw(st.integers(0, 255)), dtype=np.uint8)
    w, h = draw(st.integers(1, W)), draw(st.integers(1, H))
    # snap the region to the left/right and top/bottom frame edges often
    x = draw(st.one_of(st.just(0), st.just(W - w), st.integers(0, W - w)))
    y = draw(st.one_of(st.just(0), st.just(H - h), st.integers(0, H - h)))
    return Frame(prev_px), Frame(cur_px), (x, y, w, h)


@settings(max_examples=150, deadline=None)
@given(case=_flow_case())
def test_block_flow_bit_identical_to_loop_reference(case):
    _assert_matches_loop(*case)


@pytest.mark.parametrize("block_size", [3, 8])
@pytest.mark.parametrize("search_radius", [2, 7])
def test_block_flow_matches_loop_at_every_frame_edge(block_size, search_radius, monkeypatch):
    monkeypatch.setattr(face, "BLOCK_SIZE", block_size)
    monkeypatch.setattr(face, "SEARCH_RADIUS", search_radius)
    rng = np.random.default_rng(block_size * 10 + search_radius)
    prev = _textured(32, rng)
    cur = Frame(np.roll(prev.pixels, (1, -2), axis=(0, 1)))
    flat = flat_frame(size=32)
    # uneven last blocks: 13 and 19 are multiples of neither block size
    for region in ((0, 0, 13, 19), (19, 0, 13, 19), (0, 13, 19, 19), (13, 13, 19, 19), (0, 0, 32, 32)):
        _assert_matches_loop(prev, cur, region)
        _assert_matches_loop(prev, prev, region)
        _assert_matches_loop(flat, flat, region)


def test_block_flow_tie_break_order():
    checker = np.indices((32, 32)).sum(axis=0) % 2 * 200
    prev = frame_from(checker)
    cur = frame_from(np.roll(checker, 1, axis=1))
    # (+-1, 0) and (0, +-1) all match exactly: smallest |dy| first, then smallest dx
    field = face.block_flow(prev, cur, (8, 8, 16, 16))
    assert np.all(field.vectors == (-1, 0))
    # at the left frame edge dx = -1 leaves the frame for the first block column
    field = face.block_flow(prev, cur, (0, 8, 16, 16))
    assert np.all(field.vectors[:, 0] == (1, 0))
    assert np.all(field.vectors[:, 1:] == (-1, 0))
    # horizontal stripes: (0, -1) and (0, +1) match exactly, smallest dy wins
    stripes = np.indices((32, 32))[0] % 2 * 200
    field = face.block_flow(frame_from(stripes), frame_from(np.roll(stripes, 1, axis=0)), (8, 8, 16, 16))
    assert np.all(field.vectors == (0, -1))


def test_block_flow_rejects_bad_geometry():
    f = flat_frame()
    with pytest.raises(ValueError):
        face.block_flow(f, f, (60, 0, 8, 8))
    # a zero-width or zero-height region has no blocks: an empty field
    for region in ((5, 5, 0, 8), (5, 5, 8, 0), (64, 64, 0, 0)):
        field = face.block_flow(f, f, region)
        assert field.vectors.size == 0
        _assert_matches_loop(f, f, region)


def test_flow_features_match_separate_calls():
    rng = np.random.default_rng(9)
    prev = _textured(64, rng)
    cur = Frame(np.roll(prev.pixels, (1, 2), axis=(0, 1)))
    rect = face.FaceRect(10, 8, 40, 48)
    cf, whole = face.flow_features(prev, cur, rect)
    fields = [face.block_flow(prev, cur, r) for r in face.partition_regions(rect)]
    assert np.array_equal(cf, face.characteristic_flow(fields))
    assert np.array_equal(whole.vectors, face.block_flow(prev, cur, (10, 8, 40, 48)).vectors)


# --- characteristic_flow --------------------------------------------------------


def _const_field(dx, dy, region=(0, 0, 16, 16)):
    vecs = np.zeros((2, 2, 2))
    vecs[..., 0] = dx
    vecs[..., 1] = dy
    centers = np.zeros((2, 2, 2))
    return face.FlowField(vectors=vecs, centers=centers, region=region)


def test_characteristic_flow_zero():
    cf = face.characteristic_flow([_const_field(0, 0)] * 7)
    assert np.all(cf == 0)
    assert cf.shape == (14,)


def test_characteristic_flow_mouth_only():
    fields = [_const_field(0, 0)] * 6 + [_const_field(0, 2)]
    cf = face.characteristic_flow(fields)
    assert cf[12] == 0 and cf[13] == 2
    assert np.all(cf[:12] == 0)


def test_characteristic_flow_mean():
    vecs = np.zeros((1, 2, 2))
    vecs[0, 0] = (1, 0)
    vecs[0, 1] = (3, 0)
    mixed = face.FlowField(vectors=vecs, centers=np.zeros((1, 2, 2)), region=(0, 0, 16, 8))
    cf = face.characteristic_flow([mixed] + [_const_field(0, 0)] * 6)
    assert cf[0] == 2 and cf[1] == 0


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(0.1, 10), seed=st.integers(0, 100))
def test_characteristic_flow_linear(alpha, seed):
    rng = np.random.default_rng(seed)
    fields = []
    scaled = []
    for _ in range(7):
        vecs = rng.normal(size=(2, 3, 2))
        fields.append(face.FlowField(vecs, np.zeros((2, 3, 2)), (0, 0, 24, 16)))
        scaled.append(face.FlowField(alpha * vecs, np.zeros((2, 3, 2)), (0, 0, 24, 16)))
    np.testing.assert_allclose(
        face.characteristic_flow(scaled), alpha * face.characteristic_flow(fields), rtol=1e-9, atol=1e-12
    )


# --- classify_expression ----------------------------------------------------------


SMILE = dict(face.EXPRESSION_REFS)["Smile"]
FROWN = dict(face.EXPRESSION_REFS)["Frown"]


def test_expression_exact_copy():
    assert face.classify_expression(SMILE.copy()) == "Smile"


@pytest.mark.parametrize("label", [label for label, _ in face.EXPRESSION_REFS])
def test_expression_each_reference_at_the_magnitude_gate(label):
    # scaled to the least norm at or above TAU_MAG it passes the gate; the
    # next float scale down is below it and gives Neutral
    ref = dict(face.EXPRESSION_REFS)[label]
    unit = ref / np.linalg.norm(ref)
    scale = face.TAU_MAG
    while np.linalg.norm(unit * scale) < face.TAU_MAG:
        scale = np.nextafter(scale, np.inf)
    while np.linalg.norm(unit * np.nextafter(scale, 0.0)) >= face.TAU_MAG:
        scale = np.nextafter(scale, 0.0)
    assert face.classify_expression(unit * scale) == label
    below = unit * np.nextafter(scale, 0.0)
    assert face.classify_expression(below) == "Neutral"


def test_expression_zero_vector_neutral():
    assert face.classify_expression(np.zeros(14)) == "Neutral"


def test_expression_scaled_reference():
    # 0.5x frown still has norm above the magnitude gate and cosine 1
    assert face.classify_expression(0.5 * FROWN) == "Frown"


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(1.0, 50.0))
def test_expression_scale_invariant(alpha):
    cf = SMILE * alpha
    assert face.classify_expression(cf) == face.classify_expression(SMILE)


# --- classify_motion ----------------------------------------------------------------


def _face_field(vec_fn, region=(0, 0, 64, 64), block=8):
    n = region[2] // block
    vecs = np.zeros((n, n, 2))
    centers = np.zeros((n, n, 2))
    for i in range(n):
        for j in range(n):
            cx = region[0] + j * block + (block - 1) / 2
            cy = region[1] + i * block + (block - 1) / 2
            centers[i, j] = (cx, cy)
            vecs[i, j] = vec_fn(cx, cy)
    return face.FlowField(vecs, centers, region)


def test_motion_zero_is_still():
    field = _face_field(lambda x, y: (0, 0))
    assert face.classify_motion(field, np.zeros(14)) == "Still"


def test_motion_uniform_translation_is_rigid():
    field = _face_field(lambda x, y: (4, 0))
    cf = np.tile([4.0, 0.0], 7)
    assert face.classify_motion(field, cf) == "Rigid"


def test_motion_local_flow_is_nonrigid():
    # flow only near the mouth area fails the all-zones condition
    field = _face_field(lambda x, y: (0, 6) if (24 <= x <= 40 and y >= 44) else (0, 0))
    cf = np.zeros(14)
    cf[13] = 6.0
    assert face.classify_motion(field, cf) == "NonRigid"


# --- symmetry_score -------------------------------------------------------------


def test_symmetry_mirror_face_zero():
    rng = np.random.default_rng(0)
    half = rng.integers(0, 256, size=(40, 20))
    img = np.hstack([half, half[:, ::-1]]).astype(np.uint8)
    s = face.symmetry_score(img)
    assert s == 0.0


def test_symmetry_maximal():
    img = np.zeros((40, 40), dtype=np.uint8)
    img[:, 20:] = 255
    s = face.symmetry_score(img)
    assert s == 1.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 500))
def test_symmetry_invariant_under_mirror(seed):
    rng = np.random.default_rng(seed)
    img = rng.integers(0, 256, size=(32, 32)).astype(np.uint8)
    s1 = face.symmetry_score(img)
    s2 = face.symmetry_score(img[:, ::-1])
    assert abs(s1 - s2) < 1e-12


def reference_symmetry_score(frame, rect):
    """`face.symmetry_score` with scipy's median filter."""
    sub = frame.pixels[rect.y : rect.y + rect.h, rect.x : rect.x + rect.w].astype(float)
    med = ndimage.median_filter(sub, size=3, mode="reflect")
    return float(np.abs(med - med[:, ::-1]).mean() / 255.0)


@settings(max_examples=200, deadline=None)
@given(
    h=st.integers(1, 24),
    w=st.integers(1, 24),
    levels=st.sampled_from([2, 3, 16, 256]),
    seed=st.integers(0, 2**32 - 1),
)
def test_median3x3_equals_scipy_median_filter(h, w, levels, seed):
    # few levels make many ties; 1-pixel sides exercise the reflected edges
    img = np.random.default_rng(seed).integers(0, levels, size=(h, w)).astype(np.uint8)
    want = ndimage.median_filter(img, size=3, mode="reflect")
    assert np.array_equal(face._median3x3(img), want)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), levels=st.sampled_from([2, 8, 256]))
def test_symmetry_score_equals_reference(seed, levels):
    rng = np.random.default_rng(seed)
    frame = frame_from(rng.integers(0, levels, size=(48, 40)) * (255 // (levels - 1)))
    x, y = int(rng.integers(0, 26)), int(rng.integers(0, 34))
    rect = face.FaceRect(x, y, int(rng.integers(14, 41 - x)), int(rng.integers(14, 49 - y)))
    assert face.symmetry_score(crop(frame, rect)) == reference_symmetry_score(frame, rect)


# --- BrightnessBlobDetector ----------------------------------------------------------


def reference_detect(frame, threshold=130.0):
    """`BrightnessBlobDetector.detect` labelling the whole frame in float."""
    mask = frame.pixels.astype(float) >= threshold
    if not mask.any():
        return None
    labeled, n = ndimage.label(mask)
    if n > 1:
        sizes = ndimage.sum(mask, labeled, index=range(1, n + 1))
        mask = labeled == (int(np.argmax(sizes)) + 1)
    ys, xs = np.nonzero(mask)
    x0, x1 = int(xs.min()), int(xs.max()) + 1
    y0, y1 = int(ys.min()), int(ys.max()) + 1
    while x1 - x0 < face.MIN_FACE_SIDE:
        if x0 > 0:
            x0 -= 1
        elif x1 < frame.width:
            x1 += 1
        else:
            return None
    while y1 - y0 < face.MIN_FACE_SIDE:
        if y0 > 0:
            y0 -= 1
        elif y1 < frame.height:
            y1 += 1
        else:
            return None
    return face.FaceRect(x0, y0, x1 - x0, y1 - y0)


def test_integer_face_threshold_gives_the_float_mask():
    # every uint8 value against the integer threshold and against 130.0
    values = frame_from(np.arange(256).reshape(16, 16))
    assert type(face.FACE_THRESHOLD) is int
    assert np.array_equal(values.pixels >= face.FACE_THRESHOLD, values.pixels >= 130.0)
    rect = face.BrightnessBlobDetector().detect(values)
    assert rect == reference_detect(values, 130.0)


@settings(max_examples=200, deadline=None)
@given(
    h=st.integers(16, 48),
    w=st.integers(16, 48),
    blobs=st.integers(0, 6),
    specks=st.sampled_from([0, 3, 1000]),
    seed=st.integers(0, 2**32 - 1),
)
def test_detect_equals_reference(h, w, blobs, specks, seed):
    # bright rectangles, some touching or of equal size, and bright single pixels
    rng = np.random.default_rng(seed)
    img = rng.integers(100, 130, size=(h, w))
    for _ in range(blobs):
        y, x = rng.integers(0, h), rng.integers(0, w)
        img[y : y + rng.integers(1, 12), x : x + rng.integers(1, 12)] = rng.integers(130, 256)
    img[rng.integers(0, h, size=specks), rng.integers(0, w, size=specks)] = 130
    frame = frame_from(img)
    rect = face.BrightnessBlobDetector().detect(frame)
    assert rect == reference_detect(frame)
    # a face rect is at least MIN_FACE_SIDE on each side and lies inside the frame
    if rect is not None:
        assert rect.w >= face.MIN_FACE_SIDE and rect.h >= face.MIN_FACE_SIDE
        assert 0 <= rect.x and rect.x + rect.w <= w and 0 <= rect.y and rect.y + rect.h <= h


def reference_largest_blob_bounds(box):
    """`face._largest_blob_bounds` by `ndimage.label`, whose default
    structure is 4-connected, and `ndimage.sum`."""
    labeled, n = ndimage.label(box)
    if n <= 1:
        return None
    sizes = ndimage.sum(box, labeled, index=range(1, n + 1))
    ys, xs = np.nonzero(labeled == int(np.argmax(sizes)) + 1)
    return int(xs.min()), int(xs.max()) + 1, int(ys.min()), int(ys.max()) + 1


def tied_blobs(rng):
    # equal-area rectangles of different shapes, one per cell of a grid, apart
    area = int(rng.choice([1, 2, 3, 4, 6, 8, 12]))
    shapes = [(r, area // r) for r in range(1, area + 1) if area % r == 0]
    rows, cols = rng.integers(1, 4, size=2)
    cell = area + 1
    box = np.zeros((rows * cell, cols * cell), bool)
    for k in rng.permutation(rows * cols)[: rng.integers(2, rows * cols + 2)]:
        r, c = shapes[rng.integers(len(shapes))]
        y, x = (k // cols) * cell, (k % cols) * cell
        box[y : y + r, x : x + c] = True
    return box


def holed_blob(rng):
    # a rectangle with pixels punched out of its inside, and maybe a second
    # rectangle beside it, larger or smaller
    h, w = rng.integers(3, 20, size=2)
    box = np.ones((h, w), bool)
    box[1:-1, 1:-1] = rng.random((h - 2, w - 2)) >= rng.uniform(0.0, 0.8)
    if rng.random() < 0.5:
        side = np.zeros((h, int(rng.integers(2, 16))), bool)
        side[: rng.integers(1, h + 1), 1:] = True
        box = np.hstack([box, side])
    return box


def diagonal_blocks(rng):
    # blocks of a checkerboard, some left out, each touching its neighbours
    # only at corners; and the diagonal of single pixels
    if rng.random() < 0.2:
        return np.eye(int(rng.integers(2, 12)), dtype=bool)[:, :: rng.choice([1, -1])]
    heights = rng.integers(1, 4, size=rng.integers(2, 6))
    widths = rng.integers(1, 4, size=rng.integers(2, 6))
    ys, xs = np.cumsum(heights) - heights, np.cumsum(widths) - widths
    box = np.zeros((heights.sum(), widths.sum()), bool)
    for i, (y, bh) in enumerate(zip(ys, heights)):
        for j, (x, bw) in enumerate(zip(xs, widths)):
            if (i + j) % 2 == 0 and rng.random() < 0.8:
                box[y : y + bh, x : x + bw] = True
    return box


def line_mask(rng):
    n = int(rng.integers(1, 40))
    line = rng.random(n) < rng.uniform(0.2, 0.9)
    return line[None, :] if rng.random() < 0.5 else line[:, None]


def u_shapes(rng):
    # nested U shapes, each one blob whose arms meet only below, so each arm
    # starts a run with nothing above it; half of them upright and alone,
    # the rest turned to any side, maybe with a block beside them
    k = int(rng.integers(1, 4))
    turns = int(rng.integers(4))
    upright_alone = rng.random() < 0.5
    if upright_alone:
        k, turns = 1, 0
    arm = int(rng.integers(1, 3))
    size = 2 * k * (arm + 1) + int(rng.integers(0, 4))
    box = np.zeros((size, size), bool)
    for i in range(k):
        o = i * (arm + 1)
        box[o : size - o, o : o + arm] = True
        box[o : size - o, size - o - arm : size - o] = True
        box[size - o - arm : size - o, o : size - o] = True
    if not upright_alone and rng.random() < 0.5:
        side = np.zeros((size, int(rng.integers(2, 10))), bool)
        side[: rng.integers(1, size + 1), 1:] = True
        box = np.hstack([box, side])
    return np.rot90(box, turns)


def random_mask(rng):
    return rng.random(rng.integers(1, 30, size=2)) < rng.random()


@settings(max_examples=400, deadline=None)
@given(
    make=st.sampled_from([tied_blobs, holed_blob, diagonal_blocks, line_mask, u_shapes, random_mask]),
    seed=st.integers(0, 2**32 - 1),
)
def test_largest_blob_bounds_equals_ndimage(make, seed):
    box = make(np.random.default_rng(seed))
    assert face._largest_blob_bounds(box) == reference_largest_blob_bounds(box)


def test_largest_blob_bounds_families_reach_both_paths():
    # a lone U misses the one-run shortcut but is still one blob; equal
    # blobs go to the first in raster order; corner contacts do not join
    u = np.array([[1, 0, 1], [1, 0, 1], [1, 1, 1]], bool)
    assert face._largest_blob_bounds(u) is None
    assert face._largest_blob_bounds(u[::-1]) is None
    ties = np.array([[0, 1, 1, 0, 0], [0, 0, 0, 0, 0], [1, 1, 0, 1, 1]], bool)
    assert face._largest_blob_bounds(ties) == (1, 3, 0, 1)
    corners = np.array([[1, 1, 0], [1, 1, 0], [0, 0, 1]], bool)
    assert face._largest_blob_bounds(corners) == (0, 2, 0, 2)
    assert face._largest_blob_bounds(np.eye(3, dtype=bool)) == (0, 1, 0, 1)
    assert face._largest_blob_bounds(np.zeros((2, 3), bool)) is None


@settings(max_examples=60, deadline=None)
@given(
    noise=st.one_of(st.sampled_from([0.0, 0.5, 2.0, 8.0, 25.0]), st.floats(0.0, 80.0)),
    yaw=st.floats(-45.0, 45.0),
    dx=st.floats(-0.5, 0.5),
    dy=st.floats(-0.5, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_largest_blob_bounds_on_rendered_faces(noise, yaw, dx, dy, seed):
    # the boxes `detect` labels: a shaded head whose eyes and mouth leave
    # holes, with noise specks around and inside it at any accepted sigma
    scene = viewer.SceneConfig(noise_sigma=noise)
    state = viewer.ViewerState(yaw=yaw, x=viewer.WIDTH * (0.5 + dx), y=viewer.HEIGHT * (0.5 + dy))
    mask = viewer.synthesize_face_frame(state, scene, np.random.default_rng(seed)).pixels >= face.FACE_THRESHOLD
    if mask.any():
        x0, x1, y0, y1 = face._bounds(mask)
        box = mask[y0:y1, x0:x1]
        assert face._largest_blob_bounds(box) == reference_largest_blob_bounds(box)


# --- edge_cog_offset ---------------------------------------------------------------


def reference_edge_cog_offset(frame, rect, theta_edge=face.THETA_EDGE):
    """`face.edge_cog_offset` with scipy's float Sobel over the whole rect."""
    sub = frame.pixels[rect.y : rect.y + rect.h, rect.x : rect.x + rect.w].astype(float)
    gx = ndimage.sobel(sub, axis=1, mode="reflect") / 4.0
    gy = ndimage.sobel(sub, axis=0, mode="reflect") / 4.0
    mag = np.hypot(gx, gy)
    sig = mag >= theta_edge
    if not sig.any():
        return 0.0
    weights = mag[sig]
    xs = np.nonzero(sig)[1].astype(float)
    cog = float((xs * weights).sum() / weights.sum())
    half = (rect.w - 1) / 2.0
    return float(np.clip((cog - half) / half, -1.0, 1.0))


def _reference_magnitudes(frame, rect):
    sub = frame.pixels[rect.y : rect.y + rect.h, rect.x : rect.x + rect.w].astype(float)
    return np.hypot(ndimage.sobel(sub, axis=1, mode="reflect") / 4.0, ndimage.sobel(sub, axis=0, mode="reflect") / 4.0)


@st.composite
def _edge_case(draw):
    """A frame and a rect in it: the 14x14 minimum, the whole frame or any
    size between."""
    h, w = draw(st.integers(16, 40)), draw(st.integers(16, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["levels", "flat", "steps"]))
    if kind == "levels":
        levels = draw(st.sampled_from([2, 3, 8, 256]))
        img = rng.integers(0, levels, size=(h, w)) * (255 // (levels - 1))
    elif kind == "flat":
        img = np.full((h, w), rng.integers(0, 256))
    else:  # step edges at random rows and columns
        img = np.full((h, w), rng.integers(0, 256))
        for _ in range(rng.integers(1, 4)):
            if rng.random() < 0.5:
                img[:, rng.integers(0, w) :] = rng.integers(0, 256)
            else:
                img[rng.integers(0, h) :, :] = rng.integers(0, 256)
    frame = frame_from(img)
    shape = draw(st.sampled_from(["smallest", "frame", "any"]))
    if shape == "frame":
        rect = face.FaceRect(0, 0, w, h)
    else:
        rw, rh = (14, 14) if shape == "smallest" else (draw(st.integers(14, w)), draw(st.integers(14, h)))
        rect = face.FaceRect(draw(st.integers(0, w - rw)), draw(st.integers(0, h - rh)), rw, rh)
    return frame, rect


@settings(max_examples=400, deadline=None)
@given(case=_edge_case())
def test_edge_cog_offset_equals_reference(case):
    got, want = face.edge_cog_offset(crop(*case)), reference_edge_cog_offset(*case)
    assert repr(got) == repr(want) and type(got) is float


def test_edge_cog_offset_at_exact_magnitudes(monkeypatch):
    # a 0/120 checkerboard of 2x2 cells gives Sobel magnitudes that are exact
    # in float (0, 60, 120 * sqrt(2)...); THETA_EDGE at each of them and one
    # float either side
    img = np.kron(np.indices((10, 10)).sum(axis=0) % 2, np.ones((2, 2), int)) * 120
    frame, rect = frame_from(img), face.FaceRect(1, 2, 17, 15)
    for m in np.unique(_reference_magnitudes(frame, rect)):
        for theta in (float(np.nextafter(m, -np.inf)), float(m), float(np.nextafter(m, np.inf))):
            monkeypatch.setattr(face, "THETA_EDGE", theta)
            got, want = face.edge_cog_offset(crop(frame, rect)), reference_edge_cog_offset(frame, rect, theta)
            assert repr(got) == repr(want), theta


@pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (3, 7), (14, 14)])
def test_pad_edge_equals_numpy_edge_pad(shape):
    img = np.random.default_rng(0).integers(0, 256, size=shape).astype(np.uint8)
    assert np.array_equal(face._pad_edge(img), np.pad(img, 1, mode="edge"))
    padded = face._pad_edge(img, np.int16)
    assert padded.dtype == np.int16 and np.array_equal(padded, np.pad(img, 1, mode="symmetric"))


def test_edge_cog_uniform_rect_zero():
    assert face.edge_cog_offset(crop(flat_frame(), face.FaceRect(8, 8, 40, 40))) == 0.0


def test_edge_cog_single_left_edge():
    # step edge between columns 9 and 10 of a 41-wide rect: the two responding
    # columns are 9 and 10, each with equal magnitude -> CoG at 9.5.
    # With rect half-width (41-1)/2 = 20, e = (9.5 - 20)/20 = -0.525.
    img = np.zeros((41, 41), dtype=np.uint8)
    img[:, 10:] = 200
    e = face.edge_cog_offset(img)
    assert abs(e - (9.5 - 20.0) / 20.0) < 1e-9


def test_edge_cog_sign_positive_for_right_mass():
    img = np.zeros((41, 41), dtype=np.uint8)
    img[:, 30:] = 200
    e = face.edge_cog_offset(img)
    assert e > 0.4


# --- fuse_orientation ---------------------------------------------------------------


def test_fuse_perfect_frontal():
    assert face.fuse_orientation(0.0, 0.0, "Frontal") == "Frontal"


def test_fuse_both_cues_right():
    assert face.fuse_orientation(0.9, 0.8, "Frontal") == "Right"


def test_fuse_edge_cue_wins_on_disagreement():
    assert face.fuse_orientation(0.02, 0.9, "Frontal") == "Right"


def test_fuse_hysteresis_on_silent_edge():
    assert face.fuse_orientation(0.5, 0.0, prev_label="Left") == "Left"


@settings(max_examples=50, deadline=None)
@given(s=st.floats(0, 1), e=st.floats(-1, 1), prev=st.sampled_from(["Left", "Frontal", "Right"]))
def test_fuse_is_pure(s, e, prev):
    a = face.fuse_orientation(s, e, prev)
    b = face.fuse_orientation(s, e, prev)
    assert a == b


# --- estimate_jerk -------------------------------------------------------------------


def _track_from(fn, n=5):
    return [(float(fn(i)), 0.0) for i in range(n)]


def test_jerk_constant_zero():
    assert face.estimate_jerk(_track_from(lambda i: 5.0)) == 0.0


def test_jerk_cubic_zero():
    assert face.estimate_jerk(_track_from(lambda i: i**3)) < 1e-9


def test_jerk_quartic_24():
    assert abs(face.estimate_jerk(_track_from(lambda i: i**4)) - 24.0) < 1e-9


def test_jerk_insufficient_history():
    for n in range(5):
        assert face.estimate_jerk(_track_from(lambda i: i**4, n=n)) == 0.0


@settings(max_examples=30, deadline=None)
@given(coeffs=st.lists(st.floats(-10, 10), min_size=4, max_size=4), n=st.integers(5, 12))
def test_jerk_annihilates_cubics(coeffs, n):
    a, b, c, d = coeffs
    track = _track_from(lambda i: a + b * i + c * i**2 + d * i**3, n=n)
    assert face.estimate_jerk(track) < 1e-9 * max(1.0, sum(abs(x) for x in coeffs))


# --- FaceTracker ---------------------------------------------------------------------


def reference_face_cues(frames):
    """The detect -> orientation -> jerk chain as each caller wrote it out
    before `FaceTracker`, over a whole frame sequence: per frame, None when
    no face is found, else (rect, symmetry, edge offset, label, jerk)."""
    detector = face.BrightnessBlobDetector()
    prev_label = "Frontal"
    track = []
    out = []
    for frame in frames:
        rect = detector.detect(frame)
        if rect is None:
            out.append(None)
            continue
        s = face.symmetry_score(crop(frame, rect))
        e = face.edge_cog_offset(crop(frame, rect))
        prev_label = face.fuse_orientation(s, e, prev_label)
        cx, cy = rect.center
        track.append((float(cx), float(cy)))
        jerk = face.estimate_jerk(track)
        out.append((rect, s, e, prev_label, jerk))
    return out


# one frame of a sequence: None for a frame with no face, "ramp" for a
# bright rectangle with a gentle ramp, asymmetric but with no significant
# edge, on which the label carries over, or a head pose, where `burst` adds
# the erratic +-BURST_AMPLITUDE step of the viewer to x
_face_step = st.one_of(
    st.none(),
    st.just("ramp"),
    st.tuples(
        st.floats(-45.0, 45.0),
        st.floats(30.0, 100.0),
        st.floats(30.0, 100.0),
        st.sampled_from([0.0, viewer.BURST_AMPLITUDE, -viewer.BURST_AMPLITUDE]),
    ),
)


@settings(max_examples=40, deadline=None)
@given(
    steps=st.lists(_face_step, min_size=1, max_size=14),
    noise=st.sampled_from([0.0, 2.0]),
    seed=st.integers(0, 2**16),
)
def test_face_tracker_equals_reference_chain(steps, noise, seed):
    scene = viewer.SceneConfig(noise_sigma=noise)
    rng = np.random.default_rng(seed)
    blank = np.full((viewer.HEIGHT, viewer.WIDTH), int(viewer.BG_INTENSITY), dtype=np.uint8)
    ramp = blank.copy()
    ramp[20:60, 10:40] = 140 + 2 * np.arange(30)
    frames = []
    for step in steps:
        if step is None:
            frames.append(Frame(blank))
        elif step == "ramp":
            frames.append(Frame(ramp))
        else:
            yaw, x, y, burst = step
            state = viewer.ViewerState(yaw=yaw, x=x + burst, y=y)
            frames.append(viewer.synthesize_face_frame(state, scene, rng))
    tracker = face.FaceTracker()
    assert [tracker.observe(f) for f in frames] == reference_face_cues(frames)

