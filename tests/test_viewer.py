import hashlib
from dataclasses import dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imime import body, face, viewer
from imime.behavior import Routine
from imime.viewer import (
    FRONTAL_YAW,
    POSE_LABELS,
    SceneConfig,
    SceneError,
    UnknownPoseLabel,
    ViewerState,
    default_profile,
    frame_update,
    silhouette_mask,
    step_viewer,
    synthesize_body_frame,
    synthesize_face_frame,
    true_orientation,
)


def test_default_profile_shape_and_range():
    p = default_profile()
    assert len(p.routines) == 4
    assert p.p_star.shape == (4, 2, 4)
    assert np.all(p.p_star >= 0.0) and np.all(p.p_star <= 1.0)
    # the attend probability is a property of the chosen action, so each
    # action column is constant across states
    for l in range(4):
        assert len(set(p.p_star[:, 0, l])) == 1
        assert len(set(p.p_star[:, 1, l])) == 1


def test_default_profile_optimality_margin():
    # immediate attend probability margin between best and runner-up action
    p = default_profile()
    for j in (0, 1):
        col = p.p_star[0, j]
        top2 = np.sort(col)[-2:]
        assert top2[1] - top2[0] >= 0.15


def test_step_viewer_attend_frequency_matches_profile():
    profile = default_profile()
    rng = np.random.default_rng(21)
    hits = 0
    n = 4000
    for _ in range(n):
        state = ViewerState()
        step_viewer(profile, state, Routine.Beckon, False, Routine.Mimic, rng)
        hits += true_orientation(state.yaw) == "Frontal"
    expected = profile.prob(Routine.Beckon, False, Routine.Mimic)
    assert abs(hits / n - expected) < 0.02


def test_step_viewer_yaw_ranges():
    profile = default_profile()
    rng = np.random.default_rng(22)
    for _ in range(500):
        state = ViewerState()
        step_viewer(profile, state, Routine.Mimic, True, Routine.Mimic, rng)
        # an attending viewer faces the display, an inattentive one is turned well away
        assert abs(state.yaw) <= 10.0 or 20.0 <= abs(state.yaw) <= 45.0


def test_step_viewer_attending_yaw_matches_clip():
    profile = default_profile()
    profile.p_star[:] = 1.0  # always attending
    rng, twin = np.random.default_rng(28), np.random.default_rng(28)
    for _ in range(2000):
        state = ViewerState()
        step_viewer(profile, state, Routine.Mimic, True, Routine.Mimic, rng)
        twin.random()
        want = float(np.clip(twin.normal(0.0, 3.0), -10.0, 10.0))
        assert true_orientation(state.yaw) == "Frontal" and state.yaw.hex() == want.hex()


def test_frame_update_burst_produces_jerk_above_threshold():
    # the jerk of the head track, as label mode reads it, exceeds the
    # erratic threshold while the burst is in the window, and quiet frames
    # stay below it
    rng = np.random.default_rng(23)
    state = ViewerState(burst_left=viewer.BURST_LENGTH)
    track, jerks = [], []
    for _ in range(20):
        frame_update(state, None, rng, 0.9)
        track.append((state.x, state.y))
        jerks.append(face.estimate_jerk(track) if len(track) >= 5 else 0.0)
    assert max(jerks[:10]) > 12.0
    assert max(jerks[14:]) < 12.0


@pytest.mark.parametrize(
    "x, y",
    [(40.0, 40.0), (88.0, 80.0), (39.9, 80.1), (88.1, 39.9), (-1e9, 1e9), (1e9, -1e9), (64.0, 60.0), (40.05, 79.95)],
)
def test_frame_update_position_bounds_match_clip(x, y):
    # the jitter draws replayed from a twin generator give the np.clip form
    rng, twin = np.random.default_rng(27), np.random.default_rng(27)
    for _ in range(50):
        state = ViewerState(x=x, y=y)
        frame_update(state, None, rng, 0.9)
        want_x = float(np.clip(x + float(twin.normal(0.0, 0.3)), 40.0, 88.0))
        want_y = float(np.clip(y + float(twin.normal(0.0, 0.3)), 40.0, 80.0))
        assert (state.x.hex(), state.y.hex()) == (want_x.hex(), want_y.hex())
        assert type(state.x) is float and type(state.y) is float


def test_frame_update_compliant_gesture_after_delay():
    rng = np.random.default_rng(24)
    state = ViewerState()
    poses = []
    for _ in range(6):
        frame_update(state, "Wave", rng, compliance=1.0)
        poses.append(state.pose)
    # three delay frames, then the gesture every frame
    assert poses[: viewer.RESPONSE_DELAY] == ["ArmsDown"] * viewer.RESPONSE_DELAY
    assert all(p == "Wave" for p in poses[viewer.RESPONSE_DELAY :])


def test_frame_update_noncompliant_never_gestures():
    rng = np.random.default_rng(25)
    state = ViewerState()
    for _ in range(10):
        frame_update(state, "Wave", rng, compliance=0.0)
        assert state.pose == "ArmsDown"


def test_frame_update_prompt_withdrawal_resets():
    rng = np.random.default_rng(26)
    state = ViewerState()
    for _ in range(5):
        frame_update(state, "Wave", rng, compliance=1.0)
    assert state.pose == "Wave"
    frame_update(state, None, rng, compliance=1.0)
    assert state.pose == "ArmsDown" and state.active_prompt is None


# --- reference viewer: one new record per call, with the attend bit and the
# gesture stored beside yaw and pose -------------------------------------------------


@dataclass
class ReferenceViewerState:
    attending: bool = False
    yaw: float = 30.0
    x: float = 64.0
    y: float = 60.0
    gesture: str | None = None
    pose: str = "ArmsDown"
    burst_left: int = 0
    burst_phase: int = 0
    active_prompt: str | None = None
    will_comply: bool = False
    respond_in: int = 0

    def __post_init__(self):
        if self.attending and abs(self.yaw) >= FRONTAL_YAW:
            raise ValueError("attending viewer must face the display")


def reference_step_viewer(profile, state, s_routine, s_attending, action, rng):
    p = profile.prob(s_routine, s_attending, action)
    attending = bool(rng.random() < p)
    if attending:
        yaw = min(max(rng.normal(0.0, 3.0), -10.0), 10.0)
    else:
        yaw = float(rng.uniform(20.0, 45.0)) * (1.0 if rng.random() < 0.5 else -1.0)
    burst = state.burst_left
    if profile.erratic_rate > 0 and rng.random() < profile.erratic_rate:
        burst = viewer.BURST_LENGTH
    return replace(state, attending=attending, yaw=yaw, burst_left=burst)


def reference_frame_update(state, prompt, rng, compliance):
    x = state.x + float(rng.normal(0.0, 0.3))
    y = state.y + float(rng.normal(0.0, 0.3))
    x = min(max(x, 40.0), 88.0)
    y = min(max(y, 40.0), 80.0)
    burst_left, burst_phase = state.burst_left, state.burst_phase
    if burst_left > 0:
        x += viewer.BURST_AMPLITUDE * (1.0 if burst_phase % 2 == 0 else -1.0)
        burst_left -= 1
        burst_phase += 1
    active_prompt, will_comply, respond_in = state.active_prompt, state.will_comply, state.respond_in
    if prompt != active_prompt:
        active_prompt = prompt
        if prompt is not None:
            will_comply = bool(rng.random() < compliance)
            respond_in = viewer.RESPONSE_DELAY
        else:
            will_comply, respond_in = False, 0
    gesture, pose = None, "ArmsDown"
    if active_prompt is not None and will_comply:
        if respond_in > 0:
            respond_in -= 1
        else:
            gesture = pose = active_prompt
    return replace(
        state,
        x=x,
        y=y,
        burst_left=burst_left,
        burst_phase=burst_phase,
        active_prompt=active_prompt,
        will_comply=will_comply,
        respond_in=respond_in,
        gesture=gesture,
        pose=pose,
    )


def assert_matches_reference(state, ref, rng, twin):
    for f in fields(ViewerState):
        got, want = getattr(state, f.name), getattr(ref, f.name)
        assert got == want and type(got) is type(want), f.name
    assert rng.bit_generator.state == twin.bit_generator.state
    assert ref.attending == (true_orientation(state.yaw) == "Frontal")
    assert ref.gesture == (None if state.pose == "ArmsDown" else state.pose)


@pytest.mark.parametrize("seed", range(12))
def test_viewer_updates_match_reference(seed):
    # seeded random sequences of decisions, prompts that persist for a few
    # frames, and erratic bursts; both viewers draw from twin generators
    plan = np.random.default_rng(seed)
    profile = default_profile()
    profile.p_star[:] = plan.uniform(0.0, 1.0, profile.p_star.shape)
    profile.erratic_rate = float(plan.choice([0.0, 0.3, 1.0]))
    rng, twin = np.random.default_rng(1000 + seed), np.random.default_rng(1000 + seed)
    state, ref = ViewerState(), ReferenceViewerState()
    prompt = None
    for _ in range(400):
        if plan.random() < 0.2:
            s_routine, action = (profile.routines[i] for i in plan.integers(len(profile.routines), size=2))
            s_attending = bool(plan.integers(2))
            step_viewer(profile, state, s_routine, s_attending, action, rng)
            ref = reference_step_viewer(profile, ref, s_routine, s_attending, action, twin)
            assert_matches_reference(state, ref, rng, twin)
        if plan.random() < 0.15:
            prompt = [None, *POSE_LABELS[1:]][int(plan.integers(len(POSE_LABELS)))]
        compliance = float(plan.choice([0.0, 0.5, 0.9, 1.0]))
        frame_update(state, prompt, rng, compliance)
        ref = reference_frame_update(ref, prompt, twin, compliance)
        assert_matches_reference(state, ref, rng, twin)


# --- face synthesis ---------------------------------------------------------------


def _orientation_of(frame):
    cues = face.FaceTracker().observe(frame)
    assert cues is not None
    return cues[3]


@pytest.mark.parametrize(
    "yaw, label",
    [(0.0, "Frontal"), (14.99, "Frontal"), (-14.99, "Frontal"), (15.0, "Right"), (-15.0, "Left"), (45.0, "Right")],
)
def test_true_orientation_splits_at_frontal_yaw(yaw, label):
    assert viewer.true_orientation(yaw) == label


def quiet_scene():
    return SceneConfig(noise_sigma=0.0)


def test_face_frame_frontal_at_zero_yaw():
    rng = np.random.default_rng(0)
    frame = synthesize_face_frame(ViewerState(yaw=0.0), quiet_scene(), rng)
    assert _orientation_of(frame) == "Frontal"


def test_face_frame_turned_yaw_labels():
    rng = np.random.default_rng(0)
    right = synthesize_face_frame(ViewerState(yaw=30.0), quiet_scene(), rng)
    left = synthesize_face_frame(ViewerState(yaw=-30.0), quiet_scene(), rng)
    assert _orientation_of(right) == "Right"
    assert _orientation_of(left) == "Left"


def test_face_frame_truth_rect_contains_detection():
    rng = np.random.default_rng(1)
    state, scene = ViewerState(yaw=10.0), quiet_scene()
    frame = synthesize_face_frame(state, scene, rng)
    rect = face.BrightnessBlobDetector().detect(frame)
    # the head ellipse's bounding box
    tx, ty = round(state.x) - scene.face_ax, round(state.y) - scene.face_ay
    tw, th = 2 * scene.face_ax + 1, 2 * scene.face_ay + 1
    assert tx - 1 <= rect.x and ty - 1 <= rect.y
    assert rect.x + rect.w <= tx + tw + 1 and rect.y + rect.h <= ty + th + 1


def test_face_synthesis_deterministic_without_noise():
    a = synthesize_face_frame(ViewerState(yaw=12.0), quiet_scene(), np.random.default_rng(5))
    b = synthesize_face_frame(ViewerState(yaw=12.0), quiet_scene(), np.random.default_rng(99))
    assert np.array_equal(a.pixels, b.pixels)


def test_scene_config_face_must_fit():
    with pytest.raises(ValueError):
        SceneConfig(width=40, height=40, face_ax=24, face_ay=30)


@pytest.mark.parametrize(
    "fields, key",
    [
        ({"width": 15}, "width"),
        ({"height": 0, "face_ay": 1}, "height"),
        ({"face_ax": 0}, "face_ax"),
        ({"face_ay": -3}, "face_ay"),
        ({"width": 48}, "face_ax"),  # 2 * 24 + 1 > 48
        ({"bg_intensity": float("nan")}, "bg_intensity"),
        ({"noise_sigma": -1.0}, "noise_sigma"),
        ({"noise_sigma": float("inf")}, "noise_sigma"),
    ],
)
def test_scene_config_names_the_bad_field(fields, key):
    with pytest.raises(SceneError) as info:
        SceneConfig(**fields)
    assert info.value.key == key


def test_scene_config_smallest_scene_accepted():
    SceneConfig(width=16, height=16, face_ax=1, face_ay=7, noise_sigma=0.0)


def reference_synthesize_face_frame(state, scene, rng):
    """`viewer.synthesize_face_frame` drawn over the whole frame."""
    h, w = scene.height, scene.width
    img = np.full((h, w), scene.bg_intensity)
    if scene.noise_sigma > 0:
        img += rng.normal(0.0, scene.noise_sigma, size=(h, w))
    cx, cy = round(state.x), round(state.y)
    ax, ay = scene.face_ax, scene.face_ay
    ys, xs = np.mgrid[0:h, 0:w]
    inside = ((xs - cx) / ax) ** 2 + ((ys - cy) / ay) ** 2 <= 1.0
    img[inside] = viewer.FACE_INTENSITY
    slope = viewer.SHADE_SLOPE_AT_45 * state.yaw / 45.0
    img[inside] += slope * (xs[inside] - cx)
    shift = int(round(viewer.FEATURE_SHIFT_FRAC * ax * state.yaw / 45.0))
    eye_dy = -int(round(0.30 * ay))
    eye_dx = int(round(0.42 * ax))
    for ex in (cx - eye_dx + shift, cx + eye_dx + shift):
        disk = (xs - ex) ** 2 + (ys - (cy + eye_dy)) ** 2 <= 9
        img[disk & inside] = viewer.FEATURE_INTENSITY
    mouth_y = cy + int(round(0.45 * ay))
    mouth_hw = int(round(0.40 * ax))
    bar = (np.abs(xs - (cx + shift)) <= mouth_hw) & (np.abs(ys - mouth_y) <= 1)
    img[bar & inside] = viewer.FEATURE_INTENSITY
    return np.clip(img, 0, 255).astype(np.uint8)


@st.composite
def _head_position(draw, side, semi):
    """A head centre coordinate on a frame side: anywhere from well off one
    edge to well off the other, or within a semi-axis of either edge, so
    that the head is clipped there."""
    where = draw(st.sampled_from(["anywhere", "low edge", "high edge"]))
    if where == "anywhere":
        return draw(st.floats(-80.0, 200.0))
    edge = 0.0 if where == "low edge" else side - 1.0
    return edge + draw(st.floats(-semi - 1.5, semi + 1.5))


@st.composite
def _face_case(draw):
    w, h = draw(st.sampled_from([(128, 128), (64, 72), (16, 16), (40, 96), (97, 33), (140, 17)]))
    ax, ay = draw(st.integers(1, (w - 1) // 2)), draw(st.integers(1, (h - 1) // 2))
    x, y = draw(_head_position(w, ax)), draw(_head_position(h, ay))
    return w, h, ax, ay, x, y


@settings(max_examples=300, deadline=None)
@given(
    yaw=st.one_of(st.floats(-45.0, 45.0), st.sampled_from([0.0, -0.0, 22.5, -45.0, 45.0, 90.0])),
    case=_face_case(),
    noise=st.sampled_from([0.0, 2.0, 25.0]),
    bg=st.sampled_from([60.0, -40.0, 300.0, 129.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_face_frame_bit_identical_to_reference(yaw, case, noise, bg, seed):
    w, h, ax, ay, x, y = case
    scene = SceneConfig(width=w, height=h, face_ax=ax, face_ay=ay, noise_sigma=noise, bg_intensity=bg)
    state = ViewerState(yaw=yaw, x=x, y=y)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    frame = synthesize_face_frame(state, scene, rng)
    want = reference_synthesize_face_frame(state, scene, twin)
    assert frame.pixels.tobytes() == want.tobytes()
    assert rng.random() == twin.random()  # the same noise draws were taken


def test_face_frame_clipped_at_every_edge():
    scene = SceneConfig(width=64, height=72, noise_sigma=0.0)
    for x, y in [(0.0, 36.0), (63.0, 36.0), (32.0, 0.0), (32.0, 71.0), (-20.0, -25.0), (90.0, 100.0), (-60.0, 36.0)]:
        state = ViewerState(yaw=20.0, x=x, y=y)
        frame = synthesize_face_frame(state, scene, np.random.default_rng(0))
        want = reference_synthesize_face_frame(state, scene, np.random.default_rng(0))
        assert frame.pixels.tobytes() == want.tobytes(), (x, y)


# --- rendered frame bytes -----------------------------------------------------------

# SHA-256 over the shape and bytes of every face and body frame rendered on
# a seeded grid of scenes (clipped heads, backgrounds below 0 and above 255),
# noise levels, head positions, yaws and poses; recorded before the
# renderer's per-frame array passes were cut.
FRAME_BYTES_DIGEST = "73780acb44e4efb5effd711d9d0b402571e56a35834b3d03acdd48b0ead00514"
PIN_SCENES = [
    SceneConfig(),
    SceneConfig(width=64, height=72),
    SceneConfig(width=16, height=16, face_ax=1, face_ay=7),
    SceneConfig(width=97, height=33, face_ax=20, face_ay=10, bg_intensity=-30.0),
    SceneConfig(width=40, height=96, face_ax=12, face_ay=40, bg_intensity=290.0),
]


def test_rendered_frame_bytes_unchanged():
    plan = np.random.default_rng(15)
    h = hashlib.sha256()
    for base in PIN_SCENES:
        for noise in (0.0, 2.0, 25.0):
            scene = replace(base, noise_sigma=noise)
            rng = np.random.default_rng(plan.integers(2**32))
            for pose in (None, *POSE_LABELS) * 3:
                x = float(plan.uniform(-0.5, 1.5) * scene.width)
                y = float(plan.uniform(-0.5, 1.5) * scene.height)
                yaw = float(plan.choice([0.0, plan.uniform(-45.0, 45.0), 90.0]))
                for frame in (
                    synthesize_face_frame(ViewerState(yaw=yaw, x=x, y=y), scene, rng),
                    synthesize_body_frame(pose, scene, rng),
                ):
                    h.update(repr(frame.pixels.shape).encode())
                    h.update(frame.pixels.tobytes())
    assert h.hexdigest() == FRAME_BYTES_DIGEST


# --- body silhouettes and pose references ---------------------------------------------


def test_silhouette_labels_complete_and_distinct():
    scene = SceneConfig()
    masks = [silhouette_mask(label, scene) for label in POSE_LABELS]
    for i in range(len(masks)):
        for j in range(i + 1, len(masks)):
            assert (masks[i] != masks[j]).any()
    with pytest.raises(UnknownPoseLabel):
        silhouette_mask("Handstand", scene)


def test_pose_references_are_separable():
    refs = viewer.build_pose_references()
    for i in range(len(refs)):
        for j in range(i + 1, len(refs)):
            # correlation below TAU_POSE = 0.9 leaves the label Unknown
            assert body.classify_pose(refs[i].profile, [refs[j]]) == "Unknown", (refs[i].label, refs[j].label)


def test_noisy_silhouettes_classify_correctly():
    scene = SceneConfig()  # default noise sigma 2
    rng = np.random.default_rng(31)
    bg = body.train_background([synthesize_body_frame(None, scene, rng) for _ in range(10)])
    refs = viewer.build_pose_references(scene)
    for label in POSE_LABELS:
        frame = synthesize_body_frame(label, scene, rng)
        mask = body.segment_foreground(bg, frame)
        got = body.classify_pose(body.drape(mask), refs)
        assert got == label


def reference_synthesize_body_frame(state_pose, scene, rng):
    """`viewer.synthesize_body_frame` with the noise added to a full
    background, the silhouette built afresh and painted by boolean index
    before the clip."""
    h, w = scene.height, scene.width
    img = np.full((h, w), scene.bg_intensity)
    if scene.noise_sigma > 0:
        img += rng.normal(0.0, scene.noise_sigma, size=(h, w))
    if state_pose is not None:
        mask = np.arange(h)[:, None] >= viewer.silhouette_top_contour(state_pose, w, h)[None, :]
        img[mask] = viewer.BODY_INTENSITY
    return np.clip(img, 0, 255).astype(np.uint8)


@settings(max_examples=300, deadline=None)
@given(
    pose=st.sampled_from([None, *POSE_LABELS]),
    w=st.integers(16, 140),
    h=st.integers(16, 140),
    noise=st.one_of(st.just(0.0), st.sampled_from([2.0, 25.0]), st.floats(1e-3, 80.0)),
    bg=st.one_of(st.sampled_from([60.0, -40.0, 300.0, 0.0, 255.0]), st.floats(-100.0, 400.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_body_frame_bit_identical_to_reference(pose, w, h, noise, bg, seed):
    scene = SceneConfig(width=w, height=h, face_ax=1, face_ay=1, noise_sigma=noise, bg_intensity=bg)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    frame = synthesize_body_frame(pose, scene, rng)
    want = reference_synthesize_body_frame(pose, scene, twin)
    assert frame.pixels.dtype == np.uint8 and frame.pixels.tobytes() == want.tobytes()
    assert rng.random() == twin.random()  # the same noise draws were taken


def test_kept_geometry_is_read_only():
    # the silhouette and ellipse masks are shared across frames and
    # episodes, so no caller may write through them
    scene = SceneConfig()
    for mask in [*(silhouette_mask(label, scene) for label in POSE_LABELS), viewer._ellipse(24, 30), viewer._EYE]:
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 0] = True
    assert silhouette_mask("Wave", scene) is silhouette_mask("Wave", SceneConfig(noise_sigma=0.0))


def test_body_frame_without_pose_is_background():
    scene = SceneConfig(noise_sigma=0.0)
    frame = synthesize_body_frame(None, scene, np.random.default_rng(1))
    assert np.all(frame.pixels == scene.bg_intensity)
