"""Per-tick fusion of vision outputs into a discrete attention assessment."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class AttentionState:
    face_present: bool
    attending: bool
    erratic: bool
    gesture: str | None  # pose label

    def __post_init__(self):
        if self.attending and not self.face_present:
            raise ValueError("attending requires a visible face")


@dataclass
class FusionConfig:
    tau_jerk: float = 12.0  # 4th-difference units
    k_erratic: int = 3  # consecutive frames above tau_jerk


@dataclass
class AttentionEvaluator:
    """Stateful fusion: owns the consecutive-jerk counter. Single-threaded
    per interaction loop."""

    cfg: FusionConfig = field(default_factory=FusionConfig)
    _jerk_streak: int = field(default=0, init=False)

    def evaluate(
        self,
        orientation_label: str | None,  # None = no face this tick
        jerk: float,
        gesture: str | None,
    ) -> AttentionState:
        face_present = orientation_label is not None
        attending = face_present and orientation_label == "Frontal"

        if jerk > self.cfg.tau_jerk:
            self._jerk_streak += 1
        else:
            self._jerk_streak = 0
        erratic = self._jerk_streak >= self.cfg.k_erratic

        gesture_seen = gesture is not None and gesture != "Unknown" and gesture != "ArmsDown"
        return AttentionState(
            face_present=face_present,
            attending=attending,
            erratic=erratic,
            gesture=gesture if gesture_seen else None,
        )
