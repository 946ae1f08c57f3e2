import numpy as np
import pytest

from imime.attention import AttentionState
from imime.behavior import GESTURES, BehaviorConfig, BehaviorEngine, Routine


def att(face=True, attending=False, gesture=None, erratic=False):
    return AttentionState(
        face_present=face,
        attending=attending,
        erratic=erratic,
        gesture=gesture,
    )


class CoinStub:
    """Minimal rng stand-in: scripted uniform draws, scripted integer draws."""

    def __init__(self, randoms=(), integers=()):
        self._randoms = list(randoms)
        self._integers = list(integers)

    def random(self):
        return self._randoms.pop(0)

    def integers(self, n):
        return self._integers.pop(0) % n


def engine(frame_rate=10.0, **kw):
    return BehaviorEngine(BehaviorConfig(**kw), frame_rate)


# --- reflex layer -----------------------------------------------------------------


def test_erratic_has_top_priority():
    e = engine()
    e.state.face_was_present = False
    # erratic beats the new-face rule
    out = e.reflex_step(att(face=True, erratic=True), CoinStub())
    assert out == Routine.Puzzled


def test_face_lost_picks_an_idle_routine():
    e = engine()
    e.state.face_was_present = True
    assert e.reflex_step(att(face=False), CoinStub([0.2])) == Routine.IdleGazeWander
    e.state.face_was_present = True
    assert e.reflex_step(att(face=False), CoinStub([0.9])) == Routine.IdleDrum


def test_no_face_stays_in_chosen_idle():
    e = engine()
    e.state.face_was_present = False
    e.state.current = Routine.IdleDrum
    assert e.reflex_step(att(face=False), CoinStub()) == Routine.IdleDrum


def test_new_face_triggers_beckon():
    e = engine()
    e.state.face_was_present = False
    assert e.reflex_step(att(face=True), CoinStub()) == Routine.Beckon


# --- scheduler ---------------------------------------------------------------------


def test_scheduler_consults_policy_on_heads_only():
    e = engine()
    calls = []
    fn = lambda: calls.append(1) or Routine.Mimic
    assert e.scheduler_tick(CoinStub([0.49]), fn) == Routine.Mimic
    assert e.scheduler_tick(CoinStub([0.51]), fn) is None
    assert len(calls) == 1


def test_scheduler_coin_is_fair():
    e = engine()
    rng = np.random.default_rng(11)
    hits = sum(e.scheduler_tick(rng, lambda: Routine.Mimic) is not None for _ in range(20_000))
    assert abs(hits / 20_000 - 0.5) < 0.02


# --- Simon-Says game ------------------------------------------------------------------


def idle_ticks(e):
    return e.ticks(e.cfg.t_idle)


def advance_to_prompt(e, rng):
    """Drive the game from Idle to Prompted; returns (tick, prompted gesture)."""
    t = idle_ticks(e) + 1
    out = e.simon_step(att(face=True), t, rng)
    assert out == Routine.Ponder and e.state.game.phase == "Pondering"
    t = e.state.game.ponder_until
    out = e.simon_step(att(face=True), t, rng)
    assert out == Routine.PromptGesture and e.state.game.phase == "Prompted"
    return t, e.state.game.prompted


def test_game_stays_idle_while_interacting():
    e = engine()
    rng = CoinStub()
    for t in range(0, 300, 25):
        assert e.simon_step(att(face=True, attending=True), t, rng) is None
    assert e.state.game.phase == "Idle"


def test_game_prompts_after_idle_timeout():
    e = engine(t_idle=10.0, frame_rate=10.0)
    t, prompted = advance_to_prompt(e, CoinStub(integers=[2]))
    assert prompted == GESTURES[2]
    assert e.state.game.deadline_tick == t + e.ticks(e.cfg.t_resp)


def test_correct_gesture_before_deadline_rewards():
    e = engine()
    t, prompted = advance_to_prompt(e, CoinStub(integers=[0]))
    out = e.simon_step(att(face=True, attending=True, gesture=prompted), t + 3, CoinStub())
    assert out == Routine.Reward
    assert e.state.game.phase == "Idle"
    assert e.state.override_until == t + 3 + e.ticks(e.cfg.t_feedback)


def test_wrong_gesture_scolds():
    e = engine()
    t, prompted = advance_to_prompt(e, CoinStub(integers=[0]))
    wrong = next(g for g in GESTURES if g != prompted)
    out = e.simon_step(att(face=True, attending=True, gesture=wrong), t + 3, CoinStub())
    assert out == Routine.Scold


def test_timeout_scolds():
    e = engine()
    t, _ = advance_to_prompt(e, CoinStub(integers=[1]))
    deadline = e.state.game.deadline_tick
    assert e.simon_step(att(face=True), deadline - 1, CoinStub()) == Routine.PromptGesture
    assert e.simon_step(att(face=True), deadline, CoinStub()) == Routine.Scold
    assert e.state.game.phase == "Idle"


def test_correct_gesture_after_deadline_does_not_reward():
    # the deadline check runs on its own tick, so the game has already reset
    e = engine()
    t, prompted = advance_to_prompt(e, CoinStub(integers=[0]))
    deadline = e.state.game.deadline_tick
    assert e.simon_step(att(face=True), deadline, CoinStub()) == Routine.Scold
    out = e.simon_step(att(face=True, attending=True, gesture=prompted), deadline + 100, CoinStub())
    assert out != Routine.Reward


def test_prompted_is_none_outside_the_prompted_phase():
    # the episode loop hands `game.prompted` to the viewer as the prompt of every frame
    e = engine(t_idle=1.0, t_ponder=0.5, t_resp=1.0, t_feedback=0.5)
    rng = np.random.default_rng(0)
    phases = set()
    for t in range(2000):
        gesture = GESTURES[int(rng.integers(len(GESTURES)))] if rng.random() < 0.05 else None
        e.frame_step(att(face=True, attending=bool(rng.random() < 0.3), gesture=gesture), t, rng)
        game = e.state.game
        phases.add(game.phase)
        assert (game.prompted is None) == (game.phase != "Prompted"), (t, game)
    assert phases == {"Idle", "Pondering", "Prompted"}


# --- frame_step arbitration --------------------------------------------------------------


def test_feedback_override_holds_the_stage():
    e = engine(t_feedback=2.0, frame_rate=10.0)
    t, prompted = advance_to_prompt(e, CoinStub(integers=[0]))
    e.state.face_was_present = True
    routine, cause = e.frame_step(att(face=True, attending=True, gesture=prompted), t + 1, CoinStub())
    assert routine == Routine.Reward and cause == "game"
    # reflex (new face would normally beckon) cannot interrupt the hold
    e.state.face_was_present = False
    routine, cause = e.frame_step(att(face=True), t + 5, CoinStub())
    assert routine == Routine.Reward and cause == "game"
    # after the hold expires control returns to the policy routine
    routine, _ = e.frame_step(att(face=True), t + 1 + e.ticks(e.cfg.t_feedback), CoinStub())
    assert routine == e.state.policy_routine


def test_policy_applies_only_on_decision_heads():
    e = engine()
    e.state.face_was_present = True
    e.state.last_interaction_at = 50
    routine, cause = e.frame_step(att(face=True, attending=True), 51, CoinStub([0.4]), policy_fn=lambda: Routine.Mimic)
    assert routine == Routine.Mimic and cause == "policy"
    assert e.state.policy_routine == Routine.Mimic
    routine, cause = e.frame_step(att(face=True, attending=True), 52, CoinStub([0.6]), policy_fn=lambda: Routine.Ponder)
    assert routine == Routine.Mimic  # tails: keep going
    assert e.state.policy_routine == Routine.Mimic


def test_reflex_does_not_overwrite_policy_routine():
    e = engine()
    e.state.face_was_present = True
    e.state.last_interaction_at = 50
    e.frame_step(att(face=True, attending=True), 51, CoinStub([0.0]), policy_fn=lambda: Routine.Mimic)
    assert e.state.policy_routine == Routine.Mimic
    routine, cause = e.frame_step(att(face=True, attending=True, erratic=True), 52, CoinStub())
    assert routine == Routine.Puzzled and cause == "reflex"
    assert e.state.policy_routine == Routine.Mimic
    # reflex clears -> the displayed routine falls back to the policy choice
    routine, _ = e.frame_step(att(face=True, attending=True), 53, CoinStub())
    assert routine == Routine.Mimic


def test_one_routine_change_per_frame():
    e = engine()
    e.state.face_was_present = True
    e.state.last_interaction_at = 0
    before = e.state.current
    routine, _ = e.frame_step(att(face=True, attending=True), 1, CoinStub())
    assert routine in (before, e.state.current)


def test_ticks_rounding():
    e = engine(frame_rate=10.0)
    assert e.ticks(2.0) == 20
    assert e.ticks(0.01) == 1  # never zero
    assert engine(frame_rate=30.0).ticks(1.0) == 30
