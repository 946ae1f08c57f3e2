from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from imime import body, viewer
from imime.frames import MIN_SIDE, DimensionMismatch, Frame


def frame_const(value, shape=(32, 32)):
    return Frame(np.full(shape, value, dtype=np.uint8))


# --- train_background ----------------------------------------------------------


def test_background_mean_and_population_variance():
    frames = [frame_const(90), frame_const(110)] * 3
    model = body.train_background(frames)
    assert np.allclose(model.mean, 100.0)
    # population variance of {90, 110} repeated: mean sq deviation = 100
    assert np.allclose(model.var, 100.0)


def test_background_variance_floor():
    model = body.train_background([frame_const(77), frame_const(77)])
    assert np.allclose(model.var, body.VAR_FLOOR)


def test_background_three_point_variance():
    # {100, 103, 106}: mean 103, population var (9+0+9)/3 = 6
    model = body.train_background([frame_const(100), frame_const(103), frame_const(106)])
    assert np.allclose(model.mean, 103.0)
    assert np.allclose(model.var, 6.0)


def test_background_too_few_frames():
    with pytest.raises(body.TooFewFrames):
        body.train_background([frame_const(100)])


def test_background_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        body.train_background([frame_const(100, (32, 32)), frame_const(100, (32, 48))])


# --- segment_foreground ----------------------------------------------------------


def _flat_model(mean=100.0, var=body.VAR_FLOOR, shape=(32, 32)):
    return body.BackgroundModel(mean=np.full(shape, mean), var=np.full(shape, var))


def test_segment_block_detected_single_pixel_rejected():
    model = _flat_model()  # sigma = 2, threshold distance 6 intensity units
    img = np.full((32, 32), 100, dtype=np.uint8)
    img[10:16, 10:16] = 200  # solid block: kept
    img[25, 25] = 200  # isolated pixel: majority vote removes it
    mask = body.segment_foreground(model, Frame(img))
    assert mask[12, 12]
    assert not mask[25, 25]
    assert not mask[3, 3]


def test_segment_small_deviation_ignored():
    model = _flat_model(var=100.0)  # sigma 10, need |I-mu| > 30
    img = np.full((32, 32), 120, dtype=np.uint8)  # only 2 sigma away
    mask = body.segment_foreground(model, Frame(img))
    assert not mask.any()


def test_segment_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        body.segment_foreground(_flat_model(shape=(32, 32)), frame_const(100, (32, 48)))


# --- drape -------------------------------------------------------------------------


def drape_of(mask):
    """The drape profile(s) of a mask or a stack of masks."""
    return body.drape(body.supports(mask))


def test_drape_flat_support_all_zeros():
    mask = np.zeros((40, 30), dtype=bool)
    mask[25:, :] = True
    assert np.array_equal(drape_of(mask), np.zeros(30))


def test_drape_empty_mask_all_zeros():
    assert np.array_equal(drape_of(np.zeros((40, 30), dtype=bool)), np.zeros(30))


def test_drape_range_and_pedestal_peak():
    mask = np.zeros((64, 64), dtype=bool)
    mask[50:, :] = True  # floor
    mask[20:, 24:40] = True  # pedestal
    profile = drape_of(mask)
    assert profile.min() == 0.0 and profile.max() == 1.0
    # cloth rests exactly on the pedestal plateau center
    assert np.allclose(profile[28:36], 1.0)
    assert profile[0] < 0.2 and profile[63] < 0.2
    # unimodal-ish: rises toward the pedestal, falls after
    assert np.all(np.diff(profile[:28]) >= -1e-9)
    assert np.all(np.diff(profile[36:]) <= 1e-9)


def test_drape_step_profile_monotone():
    mask = np.zeros((64, 48), dtype=bool)
    mask[40:, :24] = True
    mask[22:, 24:] = True
    profile = drape_of(mask)
    assert np.all(np.diff(profile) >= -1e-9)
    assert profile[0] == 0.0 and profile[-1] == 1.0


def test_drape_deterministic():
    rng = np.random.default_rng(3)
    mask = np.zeros((48, 40), dtype=bool)
    tops = rng.integers(10, 45, size=40)
    for c, t in enumerate(tops):
        mask[t:, c] = True
    a = drape_of(mask)
    b = drape_of(mask)
    assert np.array_equal(a, b)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_drape_terminates_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    mask = np.zeros((48, 32), dtype=bool)
    tops = rng.integers(5, 48, size=32)
    for c, t in enumerate(tops):
        mask[t:, c] = True
    profile = drape_of(mask)
    assert profile.shape == (32,)
    assert np.all(profile >= 0.0) and np.all(profile <= 1.0)
    assert np.all(np.isfinite(profile))


# --- classify_pose --------------------------------------------------------------------


def _refs():
    base = np.linspace(0, 1, 30)
    bump = np.exp(-0.5 * ((np.arange(30) - 15) / 4.0) ** 2)
    return [body.PoseReference("Ramp", base), body.PoseReference("Bump", bump)]


def test_pose_exact_match():
    refs = _refs()
    assert body.classify_pose(refs[0].profile.copy(), refs) == "Ramp"
    assert body.classify_pose(refs[1].profile.copy(), refs) == "Bump"


def test_pose_affine_invariance():
    refs = _refs()
    assert body.classify_pose(3.0 * refs[1].profile + 7.0, refs) == "Bump"


def test_pose_constant_profile_unknown():
    assert body.classify_pose(np.full(30, 0.5), _refs()) == "Unknown"


def test_pose_uncorrelated_unknown():
    rng = np.random.default_rng(1)
    assert body.classify_pose(rng.normal(size=30), _refs()) == "Unknown"


def test_pose_empty_refs():
    with pytest.raises(body.EmptyReferenceSet):
        body.classify_pose(np.zeros(30), [])


def test_pose_length_mismatch():
    with pytest.raises(body.LengthMismatch):
        body.classify_pose(np.zeros(31), _refs())


def test_pearson_bounds_and_symmetry():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=50), rng.normal(size=50)
    r = reference_pearson(a, b)
    assert -1.0 <= r <= 1.0
    assert abs(r - reference_pearson(b, a)) < 1e-12
    assert abs(reference_pearson(a, a) - 1.0) < 1e-12
    assert abs(reference_pearson(a, -a) + 1.0) < 1e-12


# --- bit identity with the plain implementations --------------------------------------


def reference_supports(mask):
    """`body.supports` as it stood inline at the top of `drape`."""
    h, w = mask.shape
    limits = np.full(w, float(h))
    cols = mask.any(axis=0)
    if cols.any():
        limits[cols] = mask.argmax(axis=0)[cols].astype(float)
    return limits


def reference_drape(mask, gravity=2.0, coupling=0.25, tol=0.05, max_iters=2000):
    """`body.drape` as a plain loop: every iteration, each tested for
    convergence, no free-fall shortcut."""
    w = mask.shape[1]
    limits = reference_supports(mask)
    y = np.zeros(w)
    for _ in range(max_iters):
        fallen = np.minimum(y + gravity, limits)
        padded = np.concatenate(([fallen[0]], fallen, [fallen[-1]]))
        neighbor_avg = (padded[:-2] + padded[2:]) / 2.0
        relaxed = np.minimum(fallen + coupling * (neighbor_avg - fallen), limits)
        if np.abs(relaxed - y).max() < tol:
            y = relaxed
            break
        y = relaxed
    heights = -y  # measured up from the lowest node
    span = heights.max() - heights.min()
    if span == 0:
        return np.zeros(w)
    return (heights - heights.min()) / span


def reference_segment_foreground(model, frame, tau_mahal=body.TAU_MAHAL):
    """`body.segment_foreground` with the float Mahalanobis test, sigma taken
    per frame, in place of the model's integer bounds, and the majority vote
    as a 3x3 float mean over a zero border, thresholded at 0.5."""
    dist = np.abs(frame.pixels.astype(float) - model.mean) / np.sqrt(model.var)
    raw = dist > tau_mahal
    votes = ndimage.uniform_filter(raw.astype(float), size=3, mode="constant")
    return votes > 0.5


def reference_train_background(frames):
    """`body.train_background` over a float stack of the frames: (mean, var)."""
    stack = np.stack([f.pixels.astype(float) for f in frames])
    return stack.mean(axis=0), np.maximum(stack.var(axis=0), body.VAR_FLOOR)


def reference_pearson(a, b):
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    sa, sb = a.std(), b.std()
    if sa == 0 or sb == 0:
        return 0.0
    return float(((a - a.mean()) * (b - b.mean())).mean() / (sa * sb))


def reference_classify_pose(profile, refs, tau_pose=body.TAU_POSE):
    """`body.classify_pose` with the profile's statistics recomputed per reference."""
    best_label, best_r = "Unknown", -np.inf
    for ref in refs:
        r = reference_pearson(profile, ref.profile)
        if r > best_r:
            best_label, best_r = ref.label, r
    return best_label if best_r >= tau_pose else "Unknown"


@st.composite
def drape_masks(draw):
    h, w = draw(st.integers(1, 48)), draw(st.integers(1, 48))
    kind = draw(st.sampled_from(["columns", "random", "empty", "full", "one column"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = np.zeros((h, w), dtype=bool)
    if kind == "columns":  # a silhouette: each column solid below its top row
        for c, top in enumerate(rng.integers(0, h + 1, size=w)):
            mask[top:, c] = True
    elif kind == "random":
        mask = rng.random((h, w)) < draw(st.floats(0.0, 1.0))
    elif kind == "full":
        mask[:] = True
    elif kind == "one column":
        mask[rng.integers(0, h) :, rng.integers(0, w)] = True
    return mask


# `segment_foreground` reads only `frame.pixels`, so this stand-in carries
# images below Frame's 16-pixel minimum side
Pixels = namedtuple("Pixels", "pixels")


@settings(max_examples=300, deadline=None)
@given(
    h=st.integers(1, 39),
    w=st.integers(1, 39),
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(0.0, 200.0),
)
def test_segment_foreground_equals_reference(h, w, seed, spread):
    rng = np.random.default_rng(seed)
    mean = rng.uniform(0.0, 255.0, size=(h, w))
    var = rng.uniform(body.VAR_FLOOR, 400.0, size=(h, w))
    # pixels scattered around the mean by up to `spread`: from no foreground to all of it
    pixels = np.clip(np.rint(mean + rng.uniform(-spread, spread, size=(h, w))), 0, 255).astype(np.uint8)
    model, frame = body.BackgroundModel(mean=mean, var=var), Pixels(pixels)
    got = body.segment_foreground(model, frame)
    want = reference_segment_foreground(model, frame)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(mask=drape_masks())
def test_drape_bit_identical_to_reference(mask):
    limits = body.supports(mask)
    assert limits.dtype == np.float64 and limits.tobytes() == reference_supports(mask).tobytes()
    assert body.drape(limits).tobytes() == reference_drape(mask).tobytes()


@settings(max_examples=200, deadline=None)
@given(
    h=st.integers(1, 24),
    w=st.integers(1, 24),
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["random", "exact"]),
    tau=st.one_of(
        st.sampled_from([3.0, float(np.nextafter(3.0, 0.0)), float(np.nextafter(3.0, 4.0)), 0.0, 0.25, 1.0]),
        st.floats(0.0, 10.0),
    ),
)
def test_background_bounds_equal_the_float_test(h, w, seed, kind, tau):
    rng = np.random.default_rng(seed)
    if kind == "random":
        # sigma from a hundredth of a grey level (nothing past the mean's
        # nearest integers kept) to far wider than the grey scale
        mean = rng.choice([rng.uniform(0.0, 255.0, (h, w)), rng.integers(0, 256, (h, w)).astype(float)])
        var = np.exp(rng.uniform(np.log(1e-4), np.log(1e5), (h, w)))
    else:
        # mean ± tau * sigma lands on integers, every value exact: sigma a
        # whole or half grey level, the mean's fraction that of tau * sigma
        tau = float(rng.choice([3.0, 2.0, 0.5]))
        sigma = rng.integers(1, 80, (h, w)) / 2.0
        mean = np.minimum(rng.integers(0, 256, (h, w)) + tau * sigma % 1, 255.0)
        var = sigma**2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(body, "TAU_MAHAL", tau)
        model = body.BackgroundModel(mean=mean, var=var)
    assert model.lo.dtype == model.hi.dtype == np.uint8
    values = np.arange(256.0)[:, None, None]
    flagged = np.abs(values - mean) / np.sqrt(var) > tau
    assert np.array_equal((values < model.lo) | (values > model.hi), flagged)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 12),
    h=st.integers(MIN_SIDE, 40),
    w=st.integers(MIN_SIDE, 40),
    seed=st.integers(0, 2**32 - 1),
    spread=st.integers(0, 255),
)
def test_train_background_equals_the_stacked_float_form(n, h, w, seed, spread):
    rng = np.random.default_rng(seed)
    centre = rng.integers(0, 256, (h, w))
    frames = []
    for _ in range(n):
        pixels = np.clip(centre + rng.integers(-spread, spread + 1, (h, w)), 0, 255)
        # saturated pixels: the extremes of the grey scale
        pixels[rng.random((h, w)) < 0.1] = 0
        pixels[rng.random((h, w)) < 0.1] = 255
        frames.append(Frame(pixels.astype(np.uint8)))
    model = body.train_background(frames)
    mean, var = reference_train_background(frames)
    assert model.mean.tobytes() == mean.tobytes()
    assert model.var.tobytes() == var.tobytes()


@st.composite
def drape_stacks(draw):
    """1 to 6 masks of one size, each a silhouette, a floor, random, empty or full."""
    h, w, k = draw(st.integers(1, 40)), draw(st.integers(1, 40)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = np.zeros((k, h, w), dtype=bool)
    for mask in stack:
        kind = draw(st.sampled_from(["columns", "level", "random", "empty", "full"]))
        if kind == "columns":  # a silhouette: each column solid below its top row
            for c, top in enumerate(rng.integers(0, h + 1, size=w)):
                mask[top:, c] = True
        elif kind == "level":  # a floor at any height: its own free fall
            mask[rng.integers(0, h) :] = True
        elif kind == "random":
            mask[:] = rng.random((h, w)) < draw(st.floats(0.0, 1.0))
        elif kind == "full":
            mask[:] = True
    return stack


@settings(max_examples=150, deadline=None)
@given(stack=drape_stacks(), max_iters=st.sampled_from([None, 0, 1, 17]))
def test_stacked_drape_rows_equal_lone_reference_drapes(stack, max_iters):
    with pytest.MonkeyPatch.context() as mp:
        if max_iters is not None:
            mp.setattr(body, "DRAPE_MAX_ITERS", max_iters)
        limits = body.supports(stack)
        profiles = body.drape(limits)
        lone = [drape_of(mask) for mask in stack]
    assert profiles.shape == (len(stack), stack.shape[2]) and limits.shape == profiles.shape
    cap = {} if max_iters is None else {"max_iters": max_iters}
    for mask, row, own, lim in zip(stack, profiles, lone, limits):
        assert lim.tobytes() == reference_supports(mask).tobytes()
        assert row.tobytes() == reference_drape(mask, **cap).tobytes()
        assert own.tobytes() == row.tobytes()


def test_pose_references_equal_lone_reference_drapes():
    refs = viewer.build_pose_references()
    assert [r.label for r in refs] == list(viewer.POSE_LABELS)
    for ref in refs:
        mask = viewer.silhouette_mask(ref.label)
        assert ref.profile.tobytes() == reference_drape(mask).tobytes()


def _slow_drape_mask(kind):
    """A 120x64 silhouette whose cloth needs 85 ("post": a floor and one
    post) or 90 ("posts": a thin floor and a post at either side)
    iterations, more than two batches."""
    mask = np.zeros((120, 64), dtype=bool)
    if kind == "post":
        mask[111:, :] = True
        mask[40:, 4:8] = True
    else:
        mask[118:, :] = True
        mask[40:, :3] = True
        mask[40:, -3:] = True
    return mask


@pytest.mark.parametrize("max_iters", [60, 2 * body.DRAPE_BATCH, 2 * body.DRAPE_BATCH + 1])
@pytest.mark.parametrize("kind", ["post", "posts"])
def test_drape_cut_inside_or_at_a_batch_matches_reference(kind, max_iters, monkeypatch):
    mask = _slow_drape_mask(kind)
    monkeypatch.setattr(body, "DRAPE_MAX_ITERS", max_iters)
    want = reference_drape(mask, max_iters=max_iters)
    # the cut is visible: the settled cloth differs
    assert want.tobytes() != reference_drape(mask).tobytes()
    assert drape_of(mask).tobytes() == want.tobytes()


@pytest.mark.parametrize("max_iters", [0, 1, 16, 17, 18])
def test_drape_stops_free_fall_at_max_iters(max_iters, monkeypatch):
    # 17 iterations of free fall; cutting the run inside them leaves a level cloth
    mask = np.zeros((40, 24), dtype=bool)
    mask[35:, :] = True
    mask[34:, 5] = True
    monkeypatch.setattr(body, "DRAPE_MAX_ITERS", max_iters)
    assert drape_of(mask).tobytes() == reference_drape(mask, max_iters=max_iters).tobytes()


def test_segment_foreground_threshold_is_strict(monkeypatch):
    # every pixel 6 grey levels from a mean of sigma 2: distance exactly 3.0;
    # a model takes its bounds from TAU_MAHAL when it is built
    mean, var = np.full((8, 9), 100.0), np.full((8, 9), 4.0)
    frame = Pixels(np.full((8, 9), 106, dtype=np.uint8))
    monkeypatch.setattr(body, "TAU_MAHAL", 3.0)
    model = body.BackgroundModel(mean=mean, var=var)
    assert not body.segment_foreground(model, frame).any()
    assert body.segment_foreground(model, frame).tobytes() == reference_segment_foreground(model, frame, 3.0).tobytes()
    below = float(np.nextafter(3.0, 0.0))
    monkeypatch.setattr(body, "TAU_MAHAL", below)
    model = body.BackgroundModel(mean=mean, var=var)
    # all foreground but the corners, which see 4 of 9 votes past the frame edge
    got = body.segment_foreground(model, frame)
    assert got.sum() == got.size - 4
    assert got.tobytes() == reference_segment_foreground(model, frame, below).tobytes()


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 40),
    n_refs=st.integers(1, 6),
    constant=st.sampled_from(["none", "profile", "reference"]),
)
def test_classify_pose_equals_reference(seed, n, n_refs, constant):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=n)
    # references near the profile, so that some correlations pass TAU_POSE
    refs = [body.PoseReference(f"r{i}", base + rng.normal(scale=rng.uniform(0, 1), size=n)) for i in range(n_refs)]
    profile = base + rng.normal(scale=0.1, size=n)
    if constant == "profile":
        profile = np.full(n, 0.5)
    elif constant == "reference":
        refs[0] = body.PoseReference("flat", np.zeros(n))
    assert body.classify_pose(profile, refs) == reference_classify_pose(profile, refs)
    # the best r, bit for bit: accepted at exactly its value, rejected one ulp above
    best_r = max(reference_pearson(profile, r.profile) for r in refs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(body, "TAU_POSE", best_r)
        assert body.classify_pose(profile, refs) == reference_classify_pose(profile, refs, best_r)
        mp.setattr(body, "TAU_POSE", np.nextafter(best_r, np.inf))
        assert body.classify_pose(profile, refs) == "Unknown"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pose_reference_statistics_equal_recomputation(seed):
    refs = viewer.build_pose_references() + [
        body.PoseReference("random", np.random.default_rng(seed).normal(size=50)),
        body.PoseReference("list", [0.0, 1.0, 3.0]),
        body.PoseReference("flat", np.zeros(8)),
    ]
    for ref in refs:
        b = np.asarray(ref.profile, float)
        assert ref.centred.tobytes() == (b - b.mean()).tobytes()
        assert float(ref.std).hex() == float(b.std()).hex()
