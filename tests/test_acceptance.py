"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line (run with -s to see them on success)."""

import time

import numpy as np
import pytest

from imime import face, harness, midi, viewer
from imime.animation import (
    MorphTarget,
    blend_morphs,
    forward_kinematics,
    perlin_1d,
    skin,
)
from imime.behavior import GESTURES, BehaviorConfig, BehaviorEngine, Routine
from imime.config import load_config
from imime.frames import Frame
from imime.learning import (
    PolicyConfig,
    QTable,
    StateId,
    TransitionModel,
    estimate_transition,
    select_action,
    update_values,
)
from test_animation import Skeleton, z_bone
from test_behavior import CoinStub, advance_to_prompt, att
from test_learning import brute_force_q


def report(num, name, ok, detail=""):
    line = f"[criterion {num:2d}] {name}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def fast_decision_config(seed, steps, random_policy=False):
    """Label-mode config with one frame per decision and the game silenced,
    so `steps` frames = `steps` decision ticks."""
    cfg = load_config(None, {"steps": steps, "seed": seed})
    cfg.frame_rate = 0.5
    cfg.behavior.t_idle = 1e9
    cfg.learning.random_policy = random_policy
    return cfg.validate()


# --- 1. learning convergence -------------------------------------------------------


def test_criterion_1_learning_convergence():
    t0 = time.perf_counter()
    agreements = []
    for seed in range(10):
        cfg = fast_decision_config(seed, steps=2000)
        log, learner = harness.run_episode(cfg)
        assert log.decisions == 2000
        m = harness.metrics(log, learner, cfg.profile)
        agreements.append(m["greedy_agreement"])
    elapsed = time.perf_counter() - t0
    good = sum(a >= 0.9 for a in agreements)
    report(
        1,
        "learning convergence",
        good >= 9 and elapsed < 10.0,
        f"{good}/10 seeds >= 90% greedy agreement in {elapsed:.1f}s (agreements: {agreements})",
    )


# --- 2. attention uplift ------------------------------------------------------------


def test_criterion_2_attention_uplift():
    t0 = time.perf_counter()
    uplifts = []
    for seed in range(1, 11):
        fractions = {}
        for kind, random_policy in (("learned", False), ("random", True)):
            cfg = fast_decision_config(seed, steps=1000, random_policy=random_policy)
            log, _ = harness.run_episode(cfg)
            rewards = [r["reward"] for r in log.decision_rows()]
            fractions[kind] = float(np.mean(rewards[-500:]))
        uplifts.append(fractions["learned"] - fractions["random"])
    elapsed = time.perf_counter() - t0
    mean_uplift = float(np.mean(uplifts))
    report(
        2,
        "attention uplift vs random",
        mean_uplift >= 0.10 and elapsed < 20.0,
        f"mean uplift {mean_uplift:.3f} over 10 paired seeds in {elapsed:.1f}s",
    )


# --- 3. estimator accuracy ---------------------------------------------------------------


def test_criterion_3_estimator_accuracy():
    cfg = fast_decision_config(seed=1, steps=10_000)
    log, learner = harness.run_episode(cfg)
    assert log.decisions == 10_000
    total = learner.table.k + learner.table.m
    checked, worst = 0, 0.0
    for i in range(4):
        for j in (0, 1):
            for l in range(4):
                if total[i, j, l] >= 400:
                    err = abs(learner.model.p[i, j, l] - cfg.profile.p_star[i, j, l])
                    worst = max(worst, err)
                    checked += 1
    spot = estimate_transition(3, 1) == 0.75 and estimate_transition(0, 0) == 0.5
    report(
        3,
        "transition estimator accuracy",
        checked > 0 and worst <= 0.05 and spot,
        f"{checked} cells with >=400 visits, worst |p_hat - p_star| = {worst:.4f}, MAP spot checks {'ok' if spot else 'bad'}",
    )


# --- 4. value-estimator oracle equivalence ----------------------------------------------------


def test_criterion_4_value_oracle_equivalence():
    routines = (Routine.Beckon, Routine.Mimic)
    p = np.array(
        [
            [[0.15, 0.80], [0.30, 0.95]],
            [[0.50, 0.10], [0.25, 0.70]],
        ]
    )
    model = TransitionModel(routines, p)
    q = update_values(model, PolicyConfig(gamma=0.9, tol=1e-10))
    expected = brute_force_q(routines, p, gamma=0.9, tol=1e-12)
    sup = float(np.abs(q.q - expected).max())

    ones = update_values(TransitionModel(routines, np.ones((2, 2, 2))), PolicyConfig(gamma=0.9, tol=1e-9))
    zeros = update_values(TransitionModel(routines, np.zeros((2, 2, 2))), PolicyConfig(gamma=0.9, tol=1e-9))
    err_ones = float(np.abs(ones.q - 10.0).max())
    err_zeros = float(np.abs(zeros.q).max())
    report(
        4,
        "value estimator vs brute-force oracle",
        sup < 1e-8 and err_ones < 1e-6 and err_zeros < 1e-6,
        f"sup-norm {sup:.2e}; p=1 error {err_ones:.2e}; p=0 error {err_zeros:.2e}",
    )


# --- 5. policy distribution ---------------------------------------------------------------------


def test_criterion_5_policy_distribution():
    routines = (Routine.Beckon, Routine.Mimic, Routine.Ponder, Routine.PromptGesture)
    q = QTable(routines, np.zeros((4, 2, 4)))
    q.q[0, 1] = [0.2, 0.9, 0.1, 0.4]
    s = StateId(Routine.Beckon, True)
    rng = np.random.default_rng(101)
    n = 80_000
    counts = {r: 0 for r in routines}
    for _ in range(n):
        counts[select_action(q, s, 0.125, rng)] += 1
    freqs = [counts[r] / n for r in routines]
    expected = [0.125 / 3, 0.875, 0.125 / 3, 0.125 / 3]
    freq_ok = all(abs(f - e) <= 0.01 for f, e in zip(freqs, expected))

    engine = BehaviorEngine(BehaviorConfig(), 10.0)
    coin_rng = np.random.default_rng(102)
    heads = sum(
        engine.scheduler_tick(coin_rng, lambda: Routine.Mimic) is not None for _ in range(10_000)
    )
    coin_ok = abs(heads / 10_000 - 0.5) <= 0.02
    report(
        5,
        "epsilon-greedy and scheduler distributions",
        freq_ok and coin_ok,
        f"action freqs {[f'{f:.4f}' for f in freqs]}, coin rate {heads / 10_000:.4f}",
    )


# --- 6. vision accuracy on synthesized ground truth ---------------------------------------------


def test_criterion_6_vision_accuracy():
    scene = viewer.SceneConfig()  # default noise sigma 2
    rng = np.random.default_rng(61)
    faces = face.FaceTracker()

    yaws = np.linspace(-45.0, 45.0, 1000)
    correct = 0
    for yaw in yaws:
        frame = viewer.synthesize_face_frame(viewer.ViewerState(yaw=float(yaw)), scene, rng)
        _, _, _, label, _ = faces.observe(frame)
        correct += label == viewer.true_orientation(yaw)
    orientation_acc = correct / len(yaws)

    from imime import body

    bg = body.train_background([viewer.synthesize_body_frame(None, scene, rng) for _ in range(10)])
    refs = viewer.build_pose_references()
    pose_hits = 0
    for label in viewer.POSE_LABELS:
        frame = viewer.synthesize_body_frame(label, scene, rng)
        mask = body.segment_foreground(bg, frame)
        pose_hits += body.classify_pose(body.drape(body.supports(mask)), refs) == label

    # jerk: every injected burst crosses the threshold, cubic motion never does
    positions = []
    t_axis = np.arange(80)
    phase = 0
    burst_left = 0
    for t in t_axis:
        if t in (10, 40):
            burst_left = viewer.BURST_LENGTH
            phase = 0
        x = 64.0
        if burst_left > 0:
            x += viewer.BURST_AMPLITUDE * (1 if phase % 2 == 0 else -1)
            burst_left -= 1
            phase += 1
        positions.append((x, 60.0))
    jerk_trace = []
    track = []
    for x, y in positions:
        track.append((x, y))
        jerk_trace.append(face.estimate_jerk(track))
    burst_ok = max(jerk_trace[10:22]) > 12.0 and max(jerk_trace[40:52]) > 12.0

    cubic_track = []
    cubic_max = 0.0
    for t in range(30):
        # gentle cubic drift, quantized to pixel centers like the renderer
        x = round(50 + 0.8 * t + 0.02 * t * t - 0.0005 * t**3)
        cubic_track.append((float(x), 60.0))
        if len(cubic_track) >= 5:
            cubic_max = max(cubic_max, face.estimate_jerk(cubic_track))
    cubic_ok = cubic_max < 12.0

    report(
        6,
        "pixel-mode vision accuracy",
        orientation_acc >= 0.95 and pose_hits == 5 and burst_ok and cubic_ok,
        f"orientation {orientation_acc:.3f}, poses {pose_hits}/5, burst jerk fired={burst_ok}, cubic max jerk {cubic_max:.2f}",
    )


# --- 7. numerical micro-checks -------------------------------------------------------------------


def test_criterion_7_numerical_micro_checks():
    # 4th difference of t^4 is exactly 24
    track = [(float(i**4), 0.0) for i in range(5)]
    jerk_ok = face.estimate_jerk(track) == 24.0

    rng = np.random.default_rng(71)
    prev = Frame(rng.integers(0, 256, size=(64, 64)).astype(np.uint8))
    cur_px = np.full((64, 64), 128, dtype=np.uint8)
    cur_px[2:, 3:] = prev.pixels[:-2, :-3]
    field = face.block_flow(prev, Frame(cur_px), (16, 16, 32, 32))
    flow_ok = bool(np.all(field.vectors[..., 0] == 3) and np.all(field.vectors[..., 1] == 2))

    import math

    skel = Skeleton([z_bone("a", None, [1.0, 0.0, 0.0], 2.0), z_bone("b", 0, [2.0, 0.0, 0.0], 1.0)])
    tms = forward_kinematics(skel, np.array([math.pi / 2, -math.pi / 2]))
    # transform-stack oracle by hand: root at (1,0,0) rotated +90deg; child
    # joint at (1,2,0); child frame rotated back to identity
    fk_ok = (
        np.abs(tms[1][:3, 3] - np.array([1.0, 2.0, 0.0])).max() < 1e-9
        and np.abs(tms[1][:3, :3] - np.eye(3)).max() < 1e-9
    )

    rest = forward_kinematics(skel, np.zeros(2))
    base = rng.normal(size=(6, 3))
    skinned = skin(base, rest, rest, [[(0, 0.25), (1, 0.75)]] * 6)
    skin_ok = np.abs(skinned - base).max() < 1e-9

    perlin_ok = all(perlin_1d(s, float(i)) == 0.0 for s in (0, 7, 123) for i in range(-3, 4))

    verts = np.arange(12, dtype=float).reshape(4, 3)
    target = MorphTarget("t", np.ones((4, 3)))
    blend_ok = np.array_equal(blend_morphs(verts, [target], np.array([0.0])), verts) and np.array_equal(
        blend_morphs(verts, [target], np.array([1.0])), verts + 1.0
    )

    report(
        7,
        "numerical micro-checks",
        jerk_ok and flow_ok and fk_ok and skin_ok and perlin_ok and blend_ok,
        f"jerk={jerk_ok} flow={flow_ok} fk={fk_ok} skin={skin_ok} perlin={perlin_ok} blend={blend_ok}",
    )


# --- 8. MIDI -----------------------------------------------------------------------------------


def test_criterion_8_midi():
    from test_midi import END_OF_TRACK, header, track

    vlq_ok = all(
        midi.read_vlq(data, 0)[0] == expected
        for data, expected in [(b"\x00", 0), (b"\x7f", 127), (b"\x81\x00", 128), (b"\xff\x7f", 16383)]
    )

    # format 0, running status, velocity-0 note-off
    body0 = b"\x00\x90\x3c\x64" + b"\x83\x60" + b"\x3c\x00" + END_OF_TRACK
    _, ev0 = midi.parse_midi(header(0, 1) + track(body0))
    notes0 = [e for e in ev0 if e.kind in ("note_on", "note_off")]
    fmt0_ok = notes0 == [
        midi.MidiEvent(0, 0, "note_on", pitch=60, velocity=100),
        midi.MidiEvent(480, 0, "note_off", pitch=60),
    ]

    # format 1 with a mid-track tempo change
    t1 = b"\x00\xff\x51\x03\x07\xa1\x20" + b"\x83\x60\xff\x51\x03\x03\xd0\x90" + END_OF_TRACK
    t2 = b"\x00\x90\x3e\x50" + b"\x87\x40\x80\x3e\x00" + END_OF_TRACK
    _, ev1 = midi.parse_midi(header(1, 2) + track(t1) + track(t2))
    expected1 = [
        midi.MidiEvent(0, -1, "tempo", tempo=500_000),
        midi.MidiEvent(0, 0, "note_on", pitch=62, velocity=80),
        midi.MidiEvent(480, -1, "tempo", tempo=250_000),
        midi.MidiEvent(960, 0, "note_off", pitch=62),
    ]
    fmt1_ok = [e for e in ev1 if e.kind != "other"] == expected1

    try:
        midi.parse_midi(header(2, 1) + track(END_OF_TRACK))
        fmt2_ok = False
    except midi.UnsupportedFormat:
        fmt2_ok = True

    report(
        8,
        "MIDI fixtures",
        vlq_ok and fmt0_ok and fmt1_ok and fmt2_ok,
        f"vlq={vlq_ok} fmt0={fmt0_ok} fmt1={fmt1_ok} fmt2-rejected={fmt2_ok}",
    )


# --- 9. determinism -------------------------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    def run_to(name):
        cfg = load_config(None, {"steps": 300, "seed": 12, "out_dir": str(tmp_path / name)})
        log, learner = harness.run_episode(cfg)
        harness.save_episode(cfg, log, learner)
        return {
            f: (tmp_path / name / f).read_bytes()
            for f in ("episode.csv", "transitions.csv", "learning.csv", "metrics.csv")
        }

    a = run_to("a")
    b = run_to("b")
    report(
        9,
        "byte-identical logs across runs",
        a == b,
        f"repeat={'ok' if a == b else 'differs'}",
    )


# --- 10. loop integrity ----------------------------------------------------------------------------


def test_criterion_10_loop_integrity():
    cfg = load_config(None, {"steps": 400, "seed": 9})
    log, learner = harness.run_episode(cfg)
    outcomes = int(learner.table.k.sum() + learner.table.m.sum())
    outcome_ok = outcomes == log.decisions - 1

    # Simon-Says decision table
    results = {}

    def fresh():
        e = BehaviorEngine(BehaviorConfig(), 10.0)
        t, prompted = advance_to_prompt(e, CoinStub(integers=[0]))
        return e, t, prompted

    e, t, prompted = fresh()
    results["correct/before"] = e.simon_step(att(face=True, attending=True, gesture=prompted), t + 2, CoinStub())
    e, t, prompted = fresh()
    wrong = next(g for g in GESTURES if g != prompted)
    results["wrong/before"] = e.simon_step(att(face=True, attending=True, gesture=wrong), t + 2, CoinStub())
    e, t, prompted = fresh()
    results["timeout"] = e.simon_step(att(face=True), e.state.game.deadline_tick, CoinStub())
    e, t, prompted = fresh()
    deadline = e.state.game.deadline_tick
    e.simon_step(att(face=True), deadline, CoinStub())  # game ends with Scold
    results["correct/after"] = e.simon_step(att(face=True, attending=True, gesture=prompted), deadline + 50, CoinStub())
    e, t, prompted = fresh()
    deadline = e.state.game.deadline_tick
    e.simon_step(att(face=True), deadline, CoinStub())
    results["wrong/after"] = e.simon_step(att(face=True, attending=True, gesture=wrong), deadline + 50, CoinStub())

    table_ok = (
        results["correct/before"] == Routine.Reward
        and results["wrong/before"] == Routine.Scold
        and results["timeout"] == Routine.Scold
        and results["correct/after"] not in (Routine.Reward, Routine.Scold)
        and results["wrong/after"] not in (Routine.Reward, Routine.Scold)
    )
    table_str = ", ".join(f"{k}: {getattr(v, 'value', v)}" for k, v in results.items())
    report(
        10,
        "loop integrity",
        outcome_ok and table_ok,
        f"outcomes {outcomes} = decisions {log.decisions} - 1: {outcome_ok}; "
        f"simon table {{{table_str}}}",
    )
