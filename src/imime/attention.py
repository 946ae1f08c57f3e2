"""Per-tick fusion of the three perception cues (orientation, jerk,
gesture) into a discrete attention assessment. The erratic-motion
thresholds are calibrated against `viewer.BURST_AMPLITUDE`, whose
alternating burst has a 4th difference of 24 px, so they are module
constants, read at call time."""

from __future__ import annotations

from dataclasses import dataclass

TAU_JERK = 12.0  # 4th-difference units
K_ERRATIC = 3  # consecutive frames above TAU_JERK


@dataclass(frozen=True)
class AttentionState:
    face_present: bool
    attending: bool
    erratic: bool
    gesture: str | None  # pose label

    def __post_init__(self):
        if self.attending and not self.face_present:
            raise ValueError("attending requires a visible face")


class AttentionEvaluator:
    """Stateful fusion: owns the consecutive-jerk counter. Single-threaded
    per interaction loop."""

    def __init__(self):
        self._jerk_streak = 0

    def evaluate(
        self,
        orientation_label: str | None,  # None = no face this tick
        jerk: float,
        gesture: str | None,
    ) -> AttentionState:
        face_present = orientation_label is not None
        attending = face_present and orientation_label == "Frontal"

        if jerk > TAU_JERK:
            self._jerk_streak += 1
        else:
            self._jerk_streak = 0
        erratic = self._jerk_streak >= K_ERRATIC

        gesture_seen = gesture is not None and gesture != "Unknown" and gesture != "ArmsDown"
        return AttentionState(
            face_present=face_present,
            attending=attending,
            erratic=erratic,
            gesture=gesture if gesture_seen else None,
        )
