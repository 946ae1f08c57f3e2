"""Ground-truth stochastic viewer and synthetic frame generator: closes the
interaction loop without cameras. Supplies attention labels directly (label
mode) or rendered face/body frames (pixel mode)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

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


def _noisy_background(scene: SceneConfig, rng: np.random.Generator) -> np.ndarray:
    """The float background of a frame: one normal draw per pixel when the
    scene is noisy, with the background intensity added to the draws (the
    same IEEE sums as the draws added to the background)."""
    if scene.noise_sigma > 0:
        img = rng.normal(0.0, scene.noise_sigma, size=(scene.height, scene.width))
        img += scene.bg_intensity
        return img
    return np.full((scene.height, scene.width), scene.bg_intensity)


def _to_pixels(img: np.ndarray) -> np.ndarray:
    """Clip a float image to [0, 255] in place and truncate it to uint8."""
    return np.clip(img, 0, 255, out=img).astype(np.uint8)


@lru_cache(maxsize=16)
def _ellipse(ax: int, ay: int) -> np.ndarray:
    """Read-only mask of the head ellipse over its (2ay+1, 2ax+1) bounding
    box, centred on the middle pixel."""
    dy, dx = np.ogrid[-ay : ay + 1, -ax : ax + 1]
    inside = (dx / ax) ** 2 + (dy / ay) ** 2 <= 1.0
    inside.flags.writeable = False
    return inside


# the eye disks, (dx, dy) within 3 px of their centres
_EYE_R = 3
_EYE = np.add.outer(np.arange(-_EYE_R, _EYE_R + 1) ** 2, np.arange(-_EYE_R, _EYE_R + 1) ** 2) <= _EYE_R**2
_EYE.flags.writeable = False


def synthesize_face_frame(state: ViewerState, scene: SceneConfig, rng: np.random.Generator) -> Frame:
    """Render the face view: noisy background, bright head ellipse, dark eye
    and mouth features shifted by yaw, and a lateral shading gradient whose
    strength grows monotonically with |yaw|. Each part is painted only
    inside its own bounding box, clipped to the head's and the frame's."""
    h, w = scene.height, scene.width
    img = _noisy_background(scene, rng)

    cx, cy = round(state.x), round(state.y)
    ax, ay = scene.face_ax, scene.face_ay
    # the head's bounding box, clipped to the frame
    x0, y0 = max(cx - ax, 0), max(cy - ay, 0)
    x1, y1 = max(min(cx + ax + 1, w), x0), max(min(cy + ay + 1, h), y0)
    inside = _ellipse(ax, ay)[y0 - cy + ay : y1 - cy + ay, x0 - cx + ax : x1 - cx + ax]
    slope = SHADE_SLOPE_AT_45 * state.yaw / 45.0
    np.copyto(img[y0:y1, x0:x1], FACE_INTENSITY + slope * (np.arange(x0, x1) - cx), where=inside)

    def feature(fx0, fy0, shape):
        """Paint FEATURE_INTENSITY where `shape`, placed with its top-left
        pixel at (fx0, fy0), meets the ellipse."""
        gx0, gy0 = max(fx0, x0), max(fy0, y0)
        gx1, gy1 = min(fx0 + shape.shape[1], x1), min(fy0 + shape.shape[0], y1)
        if gx0 < gx1 and gy0 < gy1:
            part = shape[gy0 - fy0 : gy1 - fy0, gx0 - fx0 : gx1 - fx0]
            where = part & inside[gy0 - y0 : gy1 - y0, gx0 - x0 : gx1 - x0]
            np.copyto(img[gy0:gy1, gx0:gx1], FEATURE_INTENSITY, where=where)

    shift = int(round(FEATURE_SHIFT_FRAC * ax * state.yaw / 45.0))
    eye_y = cy - int(round(0.30 * ay))
    eye_dx = int(round(0.42 * ax))
    for ex in (cx - eye_dx + shift, cx + eye_dx + shift):
        feature(ex - _EYE_R, eye_y - _EYE_R, _EYE)
    mouth_y = cy + int(round(0.45 * ay))
    mouth_hw = int(round(0.40 * ax))
    feature(cx + shift - mouth_hw, mouth_y - 1, np.ones((3, 2 * mouth_hw + 1), bool))

    return Frame(_to_pixels(img))


def silhouette_top_contour(label: str, w: int, h: int) -> np.ndarray:
    """Per-column top row (frame coordinates) of the canonical silhouette in
    a w x h frame; columns with no body are set to the frame height."""
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
    """Read-only mask of the canonical silhouette in a frame of the scene's
    size; rendering and the pose references share one copy per size."""
    return _silhouette(label, scene.width, scene.height)


@lru_cache(maxsize=4 * len(POSE_LABELS))
def _silhouette(label: str, width: int, height: int) -> np.ndarray:
    mask = np.arange(height)[:, None] >= silhouette_top_contour(label, width, height)[None, :]
    mask.flags.writeable = False
    return mask


def synthesize_body_frame(state_pose: str | None, scene: SceneConfig, rng: np.random.Generator) -> Frame:
    """Render the body view: the pose silhouette composited over the noisy
    background. Pose None renders background only."""
    pixels = _to_pixels(_noisy_background(scene, rng))
    if state_pose is not None:
        # BODY_INTENSITY lies in [0, 255], so painting after the clip gives the same bytes
        np.copyto(pixels, np.uint8(BODY_INTENSITY), where=silhouette_mask(state_pose, scene))
    return Frame(pixels)


def build_pose_references(scene: SceneConfig | None = None) -> list[PoseReference]:
    """Drape profiles of the canonical noiseless silhouettes."""
    scene = scene or SceneConfig()
    refs = []
    for label in POSE_LABELS:
        profile = drape(silhouette_mask(label, scene))
        refs.append(PoseReference(label, profile))
    return refs
