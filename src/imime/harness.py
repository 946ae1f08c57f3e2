"""Closed-loop episode harness: wires the vision pipeline (pixel mode) or
ground-truth labels (label mode) through attention fusion, the behavior
engine, and the learning stack; plus the independent oracle solver and
episode metrics.

Randomness comes from four child streams of one seed, consumed in a fixed
documented order per frame: viewer, scheduler coin, epsilon draw, frame
noise. Reordering or re-purposing a stream is a breaking change guarded by
a golden log test.
"""

from __future__ import annotations

import csv
import os
import struct
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from . import body, face, viewer
from .attention import AttentionEvaluator
from .behavior import BehaviorEngine
from .config import EpisodeConfig
from .frames import write_pgm
from .learning import Learner, StateId

BACKGROUND_TRAINING_FRAMES = 10
CURVE_WINDOW = 100  # decisions per attention-fraction window of the learning curve
GESTURE_MEMO_SIZE = 64  # distinct body supports a PixelPipeline keeps labels for


@dataclass
class EpisodeLog:
    rows: list = field(default_factory=list)  # per-frame dicts
    transitions: list = field(default_factory=list)  # (tick, old, new, cause)
    decisions: int = 0

    def decision_rows(self) -> list:
        return [r for r in self.rows if r["decision"]]


class PixelPipeline:
    """Full vision stack over synthesized frames.

    `gestures` maps the bytes of a body mask's column supports to the
    gesture they were classified as; it holds at most GESTURE_MEMO_SIZE
    entries and drops the oldest one when full.
    """

    def __init__(self, cfg: EpisodeConfig, noise_rng: np.random.Generator):
        self.faces = face.FaceTracker()
        bg_frames = [
            viewer.synthesize_body_frame(None, cfg.scene, noise_rng)
            for _ in range(BACKGROUND_TRAINING_FRAMES)
        ]
        self.background = body.train_background(bg_frames)
        self.pose_refs = viewer.build_pose_references()
        self.gestures: dict[bytes, str] = {}

    def process(self, face_frame, body_frame):
        """The three cues of one pair of frames, in label mode's order: the
        orientation label (None when no face is found), the jerk and the
        gesture (None when under 1 % of the body frame is foreground,
        Unknown when no pose reference fits)."""
        cues = self.faces.observe(face_frame)
        if cues is None:
            orientation_label, jerk = None, 0.0
        else:
            _, _, _, orientation_label, jerk = cues

        mask = body.segment_foreground(self.background, body_frame)
        gesture = None
        if np.count_nonzero(mask) / mask.size >= 0.01:
            limits = body.supports(mask)
            key = limits.tobytes()
            gesture = self.gestures.get(key)
            if gesture is None:
                gesture = body.classify_pose(body.drape(limits), self.pose_refs)
                if len(self.gestures) == GESTURE_MEMO_SIZE:
                    del self.gestures[next(iter(self.gestures))]
                self.gestures[key] = gesture
        return orientation_label, jerk, gesture


def run_episode(cfg: EpisodeConfig):
    """Run one seeded episode; returns (EpisodeLog, Learner)."""
    cfg.validate()
    seeds = np.random.SeedSequence(cfg.seed).spawn(4)
    rng_viewer = np.random.default_rng(seeds[0])
    rng_sched = np.random.default_rng(seeds[1])
    rng_eps = np.random.default_rng(seeds[2])
    rng_noise = np.random.default_rng(seeds[3])

    profile = cfg.profile
    learner = Learner(profile.routines, cfg.learning)
    engine = BehaviorEngine(cfg.behavior, cfg.frame_rate, initial=profile.routines[0])
    evaluator = AttentionEvaluator()
    vstate = viewer.ViewerState()
    pipeline = PixelPipeline(cfg, rng_noise) if cfg.mode == "pixels" else None

    fpd = cfg.frames_per_decision
    log = EpisodeLog()
    frames_dir = None
    if cfg.dump_frames:
        frames_dir = os.path.join(cfg.out_dir, "frames")
        os.makedirs(frames_dir, exist_ok=True)

    # label mode takes jerk over the head positions the renderer draws
    label_jerk_window: deque[tuple[int, int]] = deque(maxlen=5)

    # the scheduler consults the policy only on decision ticks, in the state
    # of that tick; a decision counts as explored only when the policy was
    # consulted and explored
    def policy_fn():
        nonlocal explored
        action, explored = learner.choose(state_now, rng_eps)
        return action

    for tick in range(cfg.steps):
        decision = tick % fpd == 0

        # 1. viewer stream
        if decision and learner.previous is not None:
            s_prev, a_prev = learner.previous
            viewer.step_viewer(profile, vstate, s_prev.routine, s_prev.attending, a_prev, rng_viewer)
        viewer.frame_update(vstate, engine.state.game.prompted, rng_viewer, profile.compliance)

        # 2. perception: both modes give the same cues, fused here
        if pipeline is None:
            label_jerk_window.append((round(vstate.x), round(vstate.y)))
            orientation = viewer.true_orientation(vstate.yaw)
            cues = orientation, face.estimate_jerk(label_jerk_window), vstate.pose
        else:
            face_frame = viewer.synthesize_face_frame(vstate, cfg.scene, rng_noise)
            body_frame = viewer.synthesize_body_frame(vstate.pose, cfg.scene, rng_noise)
            if frames_dir is not None:
                write_pgm(face_frame, os.path.join(frames_dir, f"face_{tick:06d}.pgm"))
                write_pgm(body_frame, os.path.join(frames_dir, f"body_{tick:06d}.pgm"))
            cues = pipeline.process(face_frame, body_frame)
        orientation_label, jerk, _ = cues
        attention = evaluator.evaluate(*cues)

        # 3. learning at the decision tick: attribute reward, refresh model/values
        if decision:
            state_now = StateId(engine.state.policy_routine, attention.attending)
            learner.observe(attention)

        # 4. behavior arbitration (scheduler coin from the scheduler stream,
        #    epsilon draw from the policy stream)
        explored = False
        old_routine = engine.state.current
        routine, cause = engine.frame_step(attention, tick, rng_sched, policy_fn if decision else None)
        if routine != old_routine:
            log.transitions.append((tick, old_routine.value, routine.value, cause))

        if decision:
            learner.commit(state_now, engine.state.policy_routine)
            log.decisions += 1

        log.rows.append(
            {
                "tick": tick,
                "routine": routine.value,
                "cause": cause,
                "attending": int(attention.attending),
                "reward": int(attention.attending),
                "explore": int(explored),
                "jerk": round(jerk, 6),
                "orientation": orientation_label or "NoFace",
                "decision": int(decision),
            }
        )

    return log, learner


# --- oracle -------------------------------------------------------------------


def oracle_policy(profile: viewer.ViewerProfile, gamma: float, tol: float = 1e-10):
    """Exact value iteration on the TRUE attend probabilities.

    Deliberately independent of learning.update_values: plain loop code over
    (routine, attending) states, used as the brute-force oracle. State
    (routines[i], attending) has index 2 * i + attending; each (state,
    action) is looked up once as (p, index of the attending successor,
    index of the inattentive one).

    Two states whose rows hold the same attend probabilities, bit for bit,
    get the same update from the same 0.0 start, so they hold equal values
    in every sweep (exact state aggregation). The sweeps therefore run over
    the distinct rows only, with successors mapped to their rows; each
    state takes its row's value at the end. A row's value moves as much as
    each of its states' values, so the stopping test is unchanged. The
    default profile, and any made with two-part `[p_star]` keys, has 2
    distinct rows among its 8 states. A three-part key splits its state's
    row off; when every row differs, every row is swept as before.
    """
    states = [StateId(r, att) for r in profile.routines for att in (False, True)]
    actions = [
        [(profile.prob(r, att, a), 2 * l + 1, 2 * l) for l, a in enumerate(profile.routines)] for r, att in states
    ]
    # successors depend only on the action, so rows with the same bits of p
    # are equal; comparing the packed bits keeps 0.0 and -0.0 apart
    distinct: dict[bytes, int] = {}
    of = [distinct.setdefault(struct.pack(f"{len(row)}d", *[p for p, _, _ in row]), len(distinct)) for row in actions]
    rows = [[(p, of[t], of[f]) for p, t, f in actions[of.index(g)]] for g in range(len(distinct))]
    w = [0.0] * len(rows)
    for _ in range(1_000_000):
        new_w = []
        delta = 0.0
        for g, row in enumerate(rows):
            best = None
            for p, t, f in row:
                q = p * (1.0 + gamma * w[t]) + (1.0 - p) * gamma * w[f]
                if best is None or q > best:
                    best = q
            new_w.append(best)
            delta = max(delta, abs(best - w[g]))
        w = new_w
        if delta < tol:
            break
    v = [w[g] for g in of]
    policy = {}
    for s, row in zip(states, actions):
        best_l, best_q = None, None
        for l, (p, t, f) in enumerate(row):
            q = p * (1.0 + gamma * v[t]) + (1.0 - p) * gamma * v[f]
            if best_q is None or q > best_q:
                best_l, best_q = l, q
        policy[s] = profile.routines[best_l]
    return policy, dict(zip(states, v))


# --- metrics ------------------------------------------------------------------


def attention_windows(rewards: list[int]) -> list[float]:
    """The learning curve: the mean reward (attending fraction) of each run
    of CURVE_WINDOW decisions, the last run possibly shorter."""
    return [float(np.mean(rewards[i : i + CURVE_WINDOW])) for i in range(0, len(rewards), CURVE_WINDOW)]


def metrics(log: EpisodeLog, learner: Learner, profile: viewer.ViewerProfile) -> dict:
    decision_rows = log.decision_rows()
    rewards = [r["reward"] for r in decision_rows]
    gamma = learner.cfg.gamma
    window_fractions = attention_windows(rewards)
    realized = sum(r * gamma**i for i, r in enumerate(rewards))
    policy, values = oracle_policy(profile, gamma)
    # tick 0 is a decision tick, taken in the engine's initial policy routine
    oracle_value = values[(profile.routines[0], bool(decision_rows[0]["attending"]))]

    agreement = sum(learner.q.greedy(s) == action for s, action in policy.items())

    return {
        "decisions": len(decision_rows),
        "cumulative_reward": int(sum(rewards)),
        "attention_fraction_windows": window_fractions,
        "final_window_attention": window_fractions[-1],
        "discounted_return": realized,
        "oracle_value": oracle_value,
        "regret": oracle_value - realized,
        "exploration_rate": float(np.mean([r["explore"] for r in decision_rows])),
        "greedy_agreement": agreement / len(policy),
    }


# --- persistence ----------------------------------------------------------------

LOG_FIELDS = ["tick", "routine", "cause", "attending", "reward", "explore", "jerk", "orientation", "decision"]
LEARNING_FIELDS = ["state_routine", "state_attending", "action", "k", "m", "p_hat", "q"]


def write_csv(path, header: list, rows) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows(rows)


def learning_rows(learner: Learner):
    """learning.csv: each (state routine, attending, action) cell's counts, estimate and Q value."""
    names = [r.value for r in learner.table.routines]
    k, m, p, q = learner.table.k, learner.table.m, learner.model.p, learner.q.q
    for i, j, l in np.ndindex(q.shape):
        yield names[i], j, names[l], int(k[i, j, l]), int(m[i, j, l]), f"{p[i, j, l]:.10g}", f"{q[i, j, l]:.10g}"


def save_episode(cfg: EpisodeConfig, log: EpisodeLog, learner: Learner) -> dict:
    os.makedirs(cfg.out_dir, exist_ok=True)
    summary = metrics(log, learner, cfg.profile)
    windows = ";".join(f"{v:.4f}" for v in summary["attention_fraction_windows"])
    for name, header, rows in (
        ("episode.csv", LOG_FIELDS, map(itemgetter(*LOG_FIELDS), log.rows)),
        ("transitions.csv", ["tick", "old", "new", "cause"], log.transitions),
        ("learning.csv", LEARNING_FIELDS, learning_rows(learner)),
        ("metrics.csv", ["metric", "value"], {**summary, "attention_fraction_windows": windows}.items()),
    ):
        write_csv(os.path.join(cfg.out_dir, name), header, rows)
    return summary
