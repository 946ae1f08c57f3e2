"""The mime's behavior layer: routine repertoire, reflex rules, the
Simon-Says game, and the 2-second/50% decision scheduler.

The reflexes read the attention assessment alone: erratic motion shows
Puzzled, a lost face an idle routine, a new face Beckon. DistanceGuide is
in the repertoire for the policy to pick; no reflex shows it, because the
fixed camera sees the head at one size.

Arbitration is strict per frame: reflex > game > scheduler/policy, and at
most one routine change happens per frame. The policy-selected routine is
tracked separately from the displayed routine so reflex/game overrides do
not corrupt the learning state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .attention import AttentionState


class Routine(enum.Enum):
    IdleGazeWander = "IdleGazeWander"
    IdleDrum = "IdleDrum"
    Beckon = "Beckon"
    DistanceGuide = "DistanceGuide"
    Mimic = "Mimic"
    Ponder = "Ponder"
    PromptGesture = "PromptGesture"
    Reward = "Reward"
    Scold = "Scold"
    Puzzled = "Puzzled"


GESTURES = ("LeftArmRaised", "RightArmRaised", "BothArmsRaised", "Wave")


@dataclass
class BehaviorConfig:
    t_idle: float = 10.0  # seconds without interaction before the game prompts
    t_ponder: float = 2.0
    t_resp: float = 5.0  # seconds the viewer has to mimic
    t_feedback: float = 2.0  # Reward/Scold duration


@dataclass
class GameState:
    phase: str = "Idle"  # Idle | Pondering | Prompted
    prompted: str | None = None  # the prompted gesture, None outside Prompted
    deadline_tick: int = 0
    ponder_until: int = 0


@dataclass
class BehaviorState:
    current: Routine = Routine.IdleGazeWander
    policy_routine: Routine = Routine.IdleGazeWander
    game: GameState = field(default_factory=GameState)
    last_interaction_at: int = 0
    face_was_present: bool = False
    override_until: int = -1  # Reward/Scold hold the stage until this tick


class BehaviorEngine:
    def __init__(self, cfg: BehaviorConfig, frame_rate: float, initial: Routine = Routine.IdleGazeWander):
        self.cfg = cfg
        self.frame_rate = frame_rate
        self.state = BehaviorState(current=initial, policy_routine=initial)

    def ticks(self, seconds: float) -> int:
        """A duration in whole frames, at least one."""
        return max(1, int(round(seconds * self.frame_rate)))

    # --- reflex layer -----------------------------------------------------

    def reflex_step(
        self,
        attention: AttentionState,
        rng: np.random.Generator,
    ) -> Routine | None:
        """Highest-priority contingent responses; None hands control down."""
        st = self.state
        if attention.erratic:
            return Routine.Puzzled
        if not attention.face_present:
            if st.face_was_present or st.current not in (Routine.IdleGazeWander, Routine.IdleDrum):
                return Routine.IdleGazeWander if rng.random() < 0.5 else Routine.IdleDrum
            return st.current  # stay in the chosen idle routine
        if not st.face_was_present:
            return Routine.Beckon
        return None

    # --- Simon-Says game ---------------------------------------------------

    def simon_step(
        self,
        attention: AttentionState,
        tick: int,
        rng: np.random.Generator,
    ) -> Routine | None:
        """Prompt-gesture game; returns a routine directive or None."""
        st = self.state
        game = st.game
        if attention.attending or attention.gesture is not None:
            if game.phase == "Idle":
                st.last_interaction_at = tick
        if game.phase == "Idle":
            if tick - st.last_interaction_at > self.ticks(self.cfg.t_idle):
                game.phase = "Pondering"
                game.ponder_until = tick + self.ticks(self.cfg.t_ponder)
                return Routine.Ponder
            return None
        if game.phase == "Pondering":
            if tick >= game.ponder_until:
                game.phase = "Prompted"
                game.prompted = GESTURES[int(rng.integers(len(GESTURES)))]
                game.deadline_tick = tick + self.ticks(self.cfg.t_resp)
                return Routine.PromptGesture
            return Routine.Ponder
        # Prompted
        if attention.gesture is not None and attention.gesture == game.prompted:
            self._end_game(tick)
            return Routine.Reward
        if attention.gesture is not None and attention.gesture != game.prompted:
            self._end_game(tick)
            return Routine.Scold
        if tick >= game.deadline_tick:
            self._end_game(tick)
            return Routine.Scold
        return Routine.PromptGesture

    def _end_game(self, tick: int) -> None:
        self.state.game = GameState()
        self.state.last_interaction_at = tick
        self.state.override_until = tick + self.ticks(self.cfg.t_feedback)

    # --- scheduler / policy layer -------------------------------------------

    def scheduler_tick(self, rng: np.random.Generator, policy_fn) -> Routine | None:
        """With probability 0.5 consult the policy; otherwise keep going."""
        if rng.random() < 0.5:
            return policy_fn()
        return None

    # --- per-frame arbitration ----------------------------------------------

    def frame_step(
        self,
        attention: AttentionState,
        tick: int,
        rng: np.random.Generator,
        policy_fn=None,
    ) -> tuple[Routine, str]:
        """Run one arbitration pass; returns (displayed routine, cause). The
        scheduler runs only when `policy_fn` is given: on decision ticks."""
        st = self.state
        new, cause = None, "none"

        if tick < st.override_until:
            new, cause = st.current, "game"  # Reward/Scold hold for their duration
        else:
            reflex = self.reflex_step(attention, rng)
            if reflex is not None:
                new, cause = reflex, "reflex"
            else:
                game = self.simon_step(attention, tick, rng)
                if game is not None:
                    new, cause = game, "game"
                elif policy_fn is not None:
                    chosen = self.scheduler_tick(rng, policy_fn)
                    if chosen is not None:
                        st.policy_routine = chosen
                        new, cause = chosen, "policy"

        if new is None:
            new = st.policy_routine
            if st.current != new:
                cause = "policy"  # releasing an override back to the policy routine
        st.current = new
        st.face_was_present = attention.face_present
        return st.current, cause
