import pytest

from imime import attention
from imime.attention import AttentionEvaluator, AttentionState


def evaluator():
    return AttentionEvaluator()


def test_no_face_is_passive():
    st = evaluator().evaluate(None, 0.0, None)
    assert not st.face_present and not st.attending


def test_frontal_quiet_is_passive():
    st = evaluator().evaluate("Frontal", 0.0, None)
    assert st.face_present and st.attending
    assert st.gesture is None


def test_turned_face_not_attending():
    st = evaluator().evaluate("Left", 0.0, None)
    assert st.face_present and not st.attending


def test_frontal_with_gesture_is_engaged():
    st = evaluator().evaluate("Frontal", 0.0, "Wave")
    assert st.attending and st.gesture == "Wave"


def test_arms_down_is_not_a_gesture():
    st = evaluator().evaluate("Frontal", 0.0, "ArmsDown")
    assert st.gesture is None


def test_unknown_pose_is_not_a_gesture():
    st = evaluator().evaluate("Frontal", 0.0, "Unknown")
    assert st.gesture is None


def test_gesture_without_attending_is_passive():
    st = evaluator().evaluate("Right", 0.0, "Wave")
    assert not st.attending and st.gesture == "Wave"


def test_erratic_needs_consecutive_frames(monkeypatch):
    monkeypatch.setattr(attention, "TAU_JERK", 12.0)
    monkeypatch.setattr(attention, "K_ERRATIC", 3)
    ev = evaluator()
    assert not ev.evaluate("Frontal", 20.0, None).erratic
    assert not ev.evaluate("Frontal", 20.0, None).erratic
    assert ev.evaluate("Frontal", 20.0, None).erratic
    # streak resets on a quiet frame
    assert not ev.evaluate("Frontal", 1.0, None).erratic
    assert not ev.evaluate("Frontal", 20.0, None).erratic


def test_jerk_at_threshold_does_not_count(monkeypatch):
    monkeypatch.setattr(attention, "TAU_JERK", 12.0)
    monkeypatch.setattr(attention, "K_ERRATIC", 1)
    ev = evaluator()
    assert not ev.evaluate("Frontal", 12.0, None).erratic
    assert ev.evaluate("Frontal", 12.001, None).erratic


def test_state_invariants_enforced():
    with pytest.raises(ValueError):
        AttentionState(face_present=False, attending=True, erratic=False, gesture=None)
