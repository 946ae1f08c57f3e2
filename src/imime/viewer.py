"""Ground-truth stochastic viewer and synthetic frame generator: closes the
interaction loop without cameras. Supplies attention labels directly (label
mode) or rendered face/body frames (pixel mode)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .behavior import Routine
from .body import PoseReference, drape
from .frames import MIN_SIDE, Frame

POSE_LABELS = ("ArmsDown", "LeftArmRaised", "RightArmRaised", "BothArmsRaised", "Wave")

FRONTAL_YAW = 15.0  # degrees; |yaw| below this means attending
BURST_LENGTH = 8  # frames of injected high-jerk motion
BURST_AMPLITUDE = 3.0  # px; 4th difference of an alternating burst is 16x this
RESPONSE_DELAY = 3  # frames between a prompt and a compliant gesture

# face synthesizer tuning (calibrated so the vision defaults recover ground truth)
SHADE_SLOPE_AT_45 = 2.32  # intensity/px lateral shading gradient at full yaw
FEATURE_SHIFT_FRAC = 0.19  # feature shift at full yaw, as a fraction of the semi-axis
FACE_INTENSITY = 200.0
FEATURE_INTENSITY = 40.0  # eyes and mouth
BODY_INTENSITY = 160.0


def true_orientation(yaw: float) -> str:
    """The head-orientation label of a viewer at `yaw` degrees: Frontal
    below FRONTAL_YAW, otherwise the side the head is turned to."""
    return "Frontal" if abs(yaw) < FRONTAL_YAW else ("Right" if yaw > 0 else "Left")


class UnknownPoseLabel(ValueError):
    pass


class SceneError(ValueError):
    """A scene that cannot be rendered; `key` names the bad field."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key, self.message = key, message


@dataclass
class ViewerProfile:
    """True attend probabilities per (state, action), plus behavioral rates."""

    routines: tuple[Routine, ...]
    p_star: np.ndarray  # (n, 2, n): [state routine, attending, action]
    erratic_rate: float = 0.0  # per decision tick
    compliance: float = 0.9  # chance of mimicking a prompted gesture

    def index(self, r: Routine) -> int:
        return self.routines.index(r)

    def prob(self, s_routine: Routine, s_attending: bool, action: Routine) -> float:
        return float(self.p_star[self.index(s_routine), int(s_attending), self.index(action)])


def default_profile() -> ViewerProfile:
    """Shipped desk-scale profile: 4 routines to choose among, 8 states, with a
    unique optimal action per state (Mimic while attending, Beckon while not)."""
    routines = (Routine.Beckon, Routine.Mimic, Routine.Ponder, Routine.PromptGesture)
    n = len(routines)
    p = np.zeros((n, 2, n))
    attending_probs = {Routine.Beckon: 0.20, Routine.Mimic: 0.90, Routine.Ponder: 0.30, Routine.PromptGesture: 0.40}
    inattentive_probs = {Routine.Beckon: 0.90, Routine.Mimic: 0.20, Routine.Ponder: 0.30, Routine.PromptGesture: 0.40}
    for l, a in enumerate(routines):
        p[:, 1, l] = attending_probs[a]
        p[:, 0, l] = inattentive_probs[a]
    return ViewerProfile(routines=routines, p_star=p)


@dataclass
class ViewerState:
    """The simulated viewer, updated in place by `step_viewer` and
    `frame_update`. The viewer attends exactly when
    `true_orientation(yaw)` is Frontal, and gestures whenever `pose` is not
    ArmsDown."""

    yaw: float = 30.0  # degrees, positive turns toward the Right label
    x: float = 64.0
    y: float = 60.0
    pose: str = "ArmsDown"
    burst_left: int = 0
    burst_phase: int = 0
    active_prompt: str | None = None
    will_comply: bool = False
    respond_in: int = 0


@dataclass
class SceneConfig:
    width: int = 128
    height: int = 128
    bg_intensity: float = 60.0
    noise_sigma: float = 2.0
    face_ax: int = 24  # face ellipse semi-axes
    face_ay: int = 30

    def __post_init__(self):
        for key, side in (("width", self.width), ("height", self.height)):
            if side < MIN_SIDE:
                raise SceneError(key, f"frame side must be >= {MIN_SIDE} (got {side})")
        for key, semi, side in (("face_ax", self.face_ax, self.width), ("face_ay", self.face_ay, self.height)):
            if not (semi >= 1 and 2 * semi + 1 <= side):
                raise SceneError(key, f"face does not fit in the frame (semi-axis {semi}, frame side {side})")
        if not math.isfinite(self.bg_intensity):
            raise SceneError("bg_intensity", f"must be finite (got {self.bg_intensity})")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise SceneError("noise_sigma", f"must be >= 0 and finite (got {self.noise_sigma})")


def step_viewer(
    profile: ViewerProfile,
    state: ViewerState,
    s_routine: Routine,
    s_attending: bool,
    action: Routine,
    rng: np.random.Generator,
) -> None:
    """Decision-tick transition: resample the attend bit from the true model,
    redraw the head yaw accordingly, and maybe start an erratic burst."""
    if rng.random() < profile.prob(s_routine, s_attending, action):
        state.yaw = min(max(rng.normal(0.0, 3.0), -10.0), 10.0)
    else:
        state.yaw = float(rng.uniform(20.0, 45.0)) * (1.0 if rng.random() < 0.5 else -1.0)
    if profile.erratic_rate > 0 and rng.random() < profile.erratic_rate:
        state.burst_left = BURST_LENGTH


def frame_update(state: ViewerState, prompt: str | None, rng: np.random.Generator, compliance: float) -> None:
    """Per-frame viewer dynamics: position jitter, erratic bursts, and the
    delayed compliant response to a gesture prompt."""
    state.x = min(max(state.x + float(rng.normal(0.0, 0.3)), 40.0), 88.0)
    state.y = min(max(state.y + float(rng.normal(0.0, 0.3)), 40.0), 80.0)
    if state.burst_left > 0:
        state.x += BURST_AMPLITUDE * (1.0 if state.burst_phase % 2 == 0 else -1.0)
        state.burst_left -= 1
        state.burst_phase += 1

    if prompt != state.active_prompt:
        state.active_prompt = prompt
        if prompt is not None:
            state.will_comply = bool(rng.random() < compliance)
            state.respond_in = RESPONSE_DELAY
        else:
            state.will_comply, state.respond_in = False, 0
    state.pose = "ArmsDown"
    if prompt is not None and state.will_comply:
        if state.respond_in > 0:
            state.respond_in -= 1
        else:
            state.pose = prompt


# --- frame synthesis -----------------------------------------------------------


def synthesize_face_frame(state: ViewerState, scene: SceneConfig, rng: np.random.Generator) -> Frame:
    """Render the face view: noisy background, bright head ellipse, dark eye
    and mouth features shifted by yaw, and a lateral shading gradient whose
    strength grows monotonically with |yaw|."""
    h, w = scene.height, scene.width
    img = np.full((h, w), scene.bg_intensity)
    if scene.noise_sigma > 0:
        img += rng.normal(0.0, scene.noise_sigma, size=(h, w))

    cx, cy = round(state.x), round(state.y)
    ax, ay = scene.face_ax, scene.face_ay
    # everything below lies in the head's bounding box, clipped to the frame
    x0, y0 = max(cx - ax, 0), max(cy - ay, 0)
    x1, y1 = max(min(cx + ax + 1, w), x0), max(min(cy + ay + 1, h), y0)
    ys, xs = np.ogrid[y0:y1, x0:x1]
    box = img[y0:y1, x0:x1]
    inside = ((xs - cx) / ax) ** 2 + ((ys - cy) / ay) ** 2 <= 1.0
    slope = SHADE_SLOPE_AT_45 * state.yaw / 45.0
    np.copyto(box, FACE_INTENSITY + slope * (xs - cx), where=inside)

    shift = int(round(FEATURE_SHIFT_FRAC * ax * state.yaw / 45.0))
    eye_dy = -int(round(0.30 * ay))
    eye_dx = int(round(0.42 * ax))
    for ex in (cx - eye_dx + shift, cx + eye_dx + shift):
        disk = (xs - ex) ** 2 + (ys - (cy + eye_dy)) ** 2 <= 9
        box[disk & inside] = FEATURE_INTENSITY
    mouth_y = cy + int(round(0.45 * ay))
    mouth_hw = int(round(0.40 * ax))
    bar = (np.abs(xs - (cx + shift)) <= mouth_hw) & (np.abs(ys - mouth_y) <= 1)
    box[bar & inside] = FEATURE_INTENSITY

    return Frame(np.clip(img, 0, 255).astype(np.uint8))


def silhouette_top_contour(label: str, scene: SceneConfig) -> np.ndarray:
    """Per-column top row (frame coordinates) of the canonical silhouette;
    columns with no body are set to the frame height."""
    w, h = scene.width, scene.height
    cx = w // 2
    top = np.full(w, float(h))

    def span(x0, x1, y):
        top[max(0, x0) : min(w, x1)] = np.minimum(top[max(0, x0) : min(w, x1)], y)

    torso_y = int(0.56 * h)
    head_y = int(0.41 * h)
    arm_y = int(0.59 * h)
    raised_y = int(0.22 * h)
    span(cx - 20, cx + 20, torso_y)
    span(cx - 8, cx + 8, head_y)
    if label == "ArmsDown":
        span(cx - 28, cx - 20, arm_y)
        span(cx + 20, cx + 28, arm_y)
    elif label == "LeftArmRaised":
        span(cx + 20, cx + 28, arm_y)
        span(cx - 36, cx - 26, raised_y)
    elif label == "RightArmRaised":
        span(cx - 28, cx - 20, arm_y)
        span(cx + 26, cx + 36, raised_y)
    elif label == "BothArmsRaised":
        span(cx - 36, cx - 26, raised_y)
        span(cx + 26, cx + 36, raised_y)
    elif label == "Wave":
        span(cx - 28, cx - 20, arm_y)
        for i, col in enumerate(range(cx + 20, min(w, cx + 46))):
            top[col] = min(top[col], int(0.47 * h) - 1.1 * i)
    else:
        raise UnknownPoseLabel(label)
    return top


def silhouette_mask(label: str, scene: SceneConfig) -> np.ndarray:
    top = silhouette_top_contour(label, scene)
    ys = np.arange(scene.height)[:, None]
    return ys >= top[None, :]


def synthesize_body_frame(state_pose: str | None, scene: SceneConfig, rng: np.random.Generator) -> Frame:
    """Render the body view: the pose silhouette composited over the noisy
    background. Pose None renders background only."""
    h, w = scene.height, scene.width
    img = np.full((h, w), scene.bg_intensity)
    if scene.noise_sigma > 0:
        img += rng.normal(0.0, scene.noise_sigma, size=(h, w))
    if state_pose is not None:
        mask = silhouette_mask(state_pose, scene)
        img[mask] = BODY_INTENSITY
    return Frame(np.clip(img, 0, 255).astype(np.uint8))


def build_pose_references(scene: SceneConfig | None = None) -> list[PoseReference]:
    """Drape profiles of the canonical noiseless silhouettes."""
    scene = scene or SceneConfig()
    refs = []
    for label in POSE_LABELS:
        profile = drape(silhouette_mask(label, scene))
        refs.append(PoseReference(label, profile))
    return refs
