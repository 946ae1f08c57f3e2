import contextlib
import csv
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import imime
from imime import attention, body, cli, face, harness, viewer
from imime.attention import AttentionEvaluator
from imime.behavior import BehaviorEngine, Routine
from imime.config import load_config
from imime.learning import Learner, PolicyConfig, StateId, TransitionModel, update_values
from imime.viewer import ViewerProfile, default_profile

# SHA-256 of the per-frame log of a fixed reference episode (label mode,
# 200 frames, seed 7, all defaults). Any change to the RNG stream order,
# log schema, or loop structure shows up here first.
GOLDEN_DIGEST = "90503115b3120e85b35004a3c09fb83e53d7c4523c567ee4e72d9a6296472d9d"


def log_digest(log: harness.EpisodeLog) -> str:
    h = hashlib.sha256()
    for row in log.rows:
        h.update(repr([row[k] for k in harness.LOG_FIELDS]).encode())
    return h.hexdigest()


def run(steps=200, seed=7, **over):
    cfg = load_config(None, {"steps": steps, "seed": seed, **over})
    return cfg, *harness.run_episode(cfg)


# --- loop integrity -----------------------------------------------------------------


def test_decision_tick_cadence():
    cfg, log, learner = run(steps=200)
    assert cfg.frames_per_decision == 20
    assert log.decisions == 10
    decision_ticks = [r["tick"] for r in log.rows if r["decision"]]
    assert decision_ticks == list(range(0, 200, 20))


def test_outcomes_equal_decisions_minus_one():
    for steps in (40, 200, 401):
        _, log, learner = run(steps=steps)
        assert int(learner.table.k.sum() + learner.table.m.sum()) == log.decisions - 1


def test_reward_equals_attending_bit():
    _, log, _ = run()
    for row in log.rows:
        assert row["reward"] == row["attending"]


def test_transitions_recorded_with_causes():
    _, log, _ = run(steps=400)
    assert log.transitions
    for tick, old, new, cause in log.transitions:
        assert old != new
        assert cause in ("reflex", "game", "policy")
        assert Routine(old) and Routine(new)


# --- determinism -----------------------------------------------------------------------


def test_fixed_seed_reproduces_golden_digest():
    _, log, _ = run(steps=200, seed=7)
    assert log_digest(log) == GOLDEN_DIGEST


def test_same_seed_same_log_different_seed_different():
    _, log_a, _ = run(seed=7)
    _, log_b, _ = run(seed=7)
    _, log_c, _ = run(seed=8)
    assert log_digest(log_a) == log_digest(log_b)
    assert log_digest(log_a) != log_digest(log_c)


def test_label_mode_jerk_equals_array_form(monkeypatch):
    positions, jerks = [], []
    frame_update, evaluate = viewer.frame_update, AttentionEvaluator.evaluate

    def recording_frame_update(state, *args, **kwargs):
        frame_update(state, *args, **kwargs)
        positions.append((round(state.x), round(state.y)))  # the drawn head position

    def recording_evaluate(self, orientation_label, jerk, gesture):
        jerks.append(jerk)
        return evaluate(self, orientation_label, jerk, gesture)

    monkeypatch.setattr(viewer, "frame_update", recording_frame_update)
    monkeypatch.setattr(AttentionEvaluator, "evaluate", recording_evaluate)
    cfg = load_config(None, {"steps": 400, "seed": 13})
    cfg.profile.erratic_rate = 0.15  # bursts give jerks above the reflex threshold
    harness.run_episode(cfg)
    assert len(jerks) == 400 and jerks[:4] == [0.0] * 4
    for t in range(4, 400):
        p = np.array(positions[t - 4 : t + 1])
        d = p[4] - 4 * p[3] + 6 * p[2] - 4 * p[1] + p[0]
        assert jerks[t].hex() == float(np.hypot(d[0], d[1])).hex(), t
    assert max(jerks) > attention.TAU_JERK


@pytest.mark.parametrize("mode", ["labels", "pixels"])
def test_cues_are_fused_once_per_frame(monkeypatch, mode):
    cues, evaluate = [], AttentionEvaluator.evaluate

    def recording_evaluate(self, orientation_label, jerk, gesture):
        cues.append((orientation_label, jerk))
        return evaluate(self, orientation_label, jerk, gesture)

    monkeypatch.setattr(AttentionEvaluator, "evaluate", recording_evaluate)
    log, _ = harness.run_episode(load_config(None, {"mode": mode, "steps": 30, "seed": 3}))
    assert [(r["orientation"], r["jerk"]) for r in log.rows] == [(o or "NoFace", round(j, 6)) for o, j in cues]


def run_both_modes(seed, erratic_rate, noise):
    """The rows of a label-mode and a pixel-mode episode of 300 frames, and
    the orientation, jerk and kept gesture each mode fuses per frame. The
    game prompts after 1 s, so gestures are drawn."""
    rows, seen = [], []
    evaluate = AttentionEvaluator.evaluate
    for mode in ("labels", "pixels"):
        cfg = load_config(None, {"mode": mode, "steps": 300, "seed": seed})
        cfg.profile.erratic_rate = erratic_rate
        cfg.scene.noise_sigma = noise
        cfg.behavior.t_idle = cfg.behavior.t_ponder = 1.0
        cues = []

        def recording_evaluate(self, orientation_label, jerk, gesture):
            state = evaluate(self, orientation_label, jerk, gesture)
            cues.append((orientation_label, jerk, state.gesture))
            return state

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(AttentionEvaluator, "evaluate", recording_evaluate)
            rows.append(harness.run_episode(cfg)[0].rows)
        seen.append(cues)
    assert list(rows[0][0]) == harness.LOG_FIELDS
    return rows, seen


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    erratic_rate=st.floats(0.0, 1.0),
    noise=st.floats(0.0, 2.0),
)
@example(seed=3, erratic_rate=0.15, noise=2.0)
@example(seed=574671949, erratic_rate=0.499, noise=8.0).xfail(
    raises=AssertionError,
    reason="a speck of false foreground holds up the drape at frame 118 and RightArmRaised reads Unknown",
)
def test_pixel_mode_reproduces_label_mode(seed, erratic_rate, noise):
    # up to sensor noise 2, the default, the vision stack recovers the
    # viewer's orientation, drawn head position and pose on every frame
    # (VAR_FLOOR holds the background test at 3 sigma or more), so the two
    # modes log the same rows. Above it a draw now and then parts (README);
    # the example at 8 must keep failing until the drape is kept off specks
    (label, pixel), _ = run_both_modes(seed, erratic_rate, noise)
    assert pixel == label


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    erratic_rate=st.floats(0.0, 1.0),
    noise=st.floats(0.0, 18.0),
)
@example(seed=3, erratic_rate=0.15, noise=18.0)
def test_pixel_mode_follows_label_mode_until_the_cues_part(seed, erratic_rate, noise):
    # the loop acts on the orientation, the jerk and the gesture attention
    # keeps (not Unknown or ArmsDown) alone, so up to noise 18 the two modes
    # log the same rows up to the first frame where one of those differs:
    # a speck of false foreground holds up the drape and a drawn gesture
    # reads Unknown, or from about 17 the face box is a pixel off
    (label_rows, pixel_rows), (label, pixel) = run_both_modes(seed, erratic_rate, noise)
    assert len(label) == len(pixel) == len(label_rows)
    parted = next((t for t, (a, b) in enumerate(zip(label, pixel)) if a != b), len(label))
    assert pixel_rows[:parted] == label_rows[:parted]


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_label_and_pixel_modes_agree_without_vision_noise(seed):
    # the default game and viewer, only the sensor noise taken out
    common = dict(steps=300, seed=seed)
    cfg_l, log_l, _ = run(mode="labels", **common)
    assert cfg_l.profile.erratic_rate == 0.0
    cfg_p = load_config(None, {"mode": "pixels", **common})
    cfg_p.scene.noise_sigma = 0.0
    log_p, _ = harness.run_episode(cfg_p)
    assert log_p.rows == log_l.rows


# SHA-256 over episode.csv, transitions.csv, learning.csv and metrics.csv of
# short pixel episodes, recorded before the pixel path was optimised; seed 5
# was pinned on a 64x72 scene before the camera was fixed and is pinned on
# the fixed camera with the code of that time
PIXEL_EPISODE_DIGESTS = [
    (3, 0.0, "4701ee7b4ffde3315b63d2f5c7b265204818c1b81b5cbf256ded9d6c781344af"),
    (3, 0.15, "b57c92c843cb046571805e6cff741e56e45782a5334c667ce472ec7376bb710f"),
    (11, 0.0, "f109063a8aa4b777fb128d6f6b160e5c04eedb24312e5411d66674248e8c1d2b"),
    (11, 0.15, "d073c256a6e10cdfea36a18f6cf9b805c1aef5d9b730fccba3412816d4a39a69"),
    (5, 0.15, "e7eb32e8676884d6957c840c0cc4758723728e86183e41320831bcc3fe6c7794"),
]


def run_pixel_episode(tmp_path, seed, erratic_rate):
    """An 80-frame pixel episode through `imime run`: 5 frames per decision,
    with the game prompting after 1 s so that gestures are drawn."""
    out = tmp_path / f"pixels_{seed}_{erratic_rate}"
    ini = tmp_path / f"pixels_{seed}_{erratic_rate}.ini"
    ini.write_text(
        f"[episode]\nmode = pixels\nsteps = 80\ndecision_period = 0.5\nseed = {seed}\nout = {out}\n"
        f"[behavior]\nt_idle = 1\nt_ponder = 0.5\n[profile]\nerratic_rate = {erratic_rate}\n"
    )
    return cli.main(["run", "--config", str(ini)]), out


@pytest.mark.parametrize("seed, erratic_rate, digest", PIXEL_EPISODE_DIGESTS)
def test_pixel_episode_files_unchanged(tmp_path, capsys, seed, erratic_rate, digest):
    code, out = run_pixel_episode(tmp_path, seed, erratic_rate)
    assert code == 0, capsys.readouterr().err
    h = hashlib.sha256()
    for name in ("episode.csv", "transitions.csv", "learning.csv", "metrics.csv"):
        h.update((out / name).read_bytes())
    assert h.hexdigest() == digest


# SHA-256 of the four CSVs of 300-frame label runs through `imime run`
# (seed 3), recorded when label mode's jerk moved to the drawn head
# positions: defaults, erratic bursts, a three-part [p_star] key that changes the
# oracle's action in the first state, and the uniform-random baseline
LABEL_EPISODE_DIGESTS = [
    ("", "ee01fc5cad06b1f25fe6630b2fc45d7b03c71c324a53f699e2cc5af7339f7c07"),
    ("[profile]\nerratic_rate = 0.15\n", "b67f70f24fcc356877f50d0cc0be6bf570600add86c2b823edc0639704f8ec8e"),
    ("[p_star]\nbeckon.notattending.mimic = 0.95\n", "f2d2826f140fb441659bd59f588f4d59af64ae82afc5803210ea3aedd2451eb7"),
    ("[learning]\nrandom_policy = yes\n", "7073871352bef0dcc305dd326f6bc8ec1c0a979ca26ff8b175d219ec036ab74d"),
    # one and two routines: the learner's cold start is one class of states
    ("[profile]\nroutines = Mimic\n", "77de20642fbbc5d8b28c5301623c41fe72ebe03ba29b67b00190b196d6ead8a3"),
    ("[profile]\nroutines = Mimic, Beckon\n", "a360408a6e2f1084357bf03dd9f84af3a02bc132f37d46277c525e4271b821de"),
]


@pytest.mark.parametrize("ini, digest", LABEL_EPISODE_DIGESTS)
def test_label_episode_files_unchanged(tmp_path, capsys, ini, digest):
    path, out = tmp_path / "episode.ini", tmp_path / "run"
    path.write_text(ini)
    assert cli.main(["run", "--config", str(path), "--steps", "300", "--seed", "3", "--out", str(out)]) == 0
    h = hashlib.sha256()
    for name in ("episode.csv", "transitions.csv", "learning.csv", "metrics.csv"):
        h.update((out / name).read_bytes())
    assert h.hexdigest() == digest


def test_pixel_episodes_back_to_back_match_fresh_runs(tmp_path, capsys):
    # the renderer keeps silhouette and ellipse masks across frames and
    # episodes; an episode with erratic bursts in between must change no
    # byte of the next one
    first, other = PIXEL_EPISODE_DIGESTS[0], PIXEL_EPISODE_DIGESTS[1]
    written = []
    for i, (seed, erratic_rate, digest) in enumerate([first, other, first]):
        (tmp_path / str(i)).mkdir()
        code, out = run_pixel_episode(tmp_path / str(i), seed, erratic_rate)
        assert code == 0, capsys.readouterr().err
        files = [(out / f).read_bytes() for f in ("episode.csv", "transitions.csv", "learning.csv", "metrics.csv")]
        assert hashlib.sha256(b"".join(files)).hexdigest() == digest, i
        written.append(files)
    assert written[0] == written[2]
    for label in viewer.POSE_LABELS:
        assert not viewer.silhouette_mask(label).flags.writeable


@pytest.mark.parametrize(
    "scene, steps, evicts",
    [
        ("", 200, False),
        ("[scene]\nnoise_sigma = 0\n", 200, False),
        ("[scene]\nnoise_sigma = 2\n", 300, False),
        ("[scene]\nnoise_sigma = 8\n", 300, True),
        ("[scene]\nnoise_sigma = 25\n", 300, True),
    ],
)
def test_memoized_gestures_equal_a_fresh_classification(tmp_path, monkeypatch, scene, steps, evicts):
    process = harness.PixelPipeline.process
    seen, frames = set(), []

    def checked(self, face_frame, body_frame):
        cues = process(self, face_frame, body_frame)
        mask = body.segment_foreground(self.background, body_frame)
        fresh = None
        if mask.mean() >= 0.01:
            limits = body.supports(mask)
            fresh = body.classify_pose(body.drape(limits), self.pose_refs)
            seen.add(limits.tobytes())
        assert cues[2] == fresh
        assert len(self.gestures) <= harness.GESTURE_MEMO_SIZE
        frames.append(fresh)
        return cues

    monkeypatch.setattr(harness.PixelPipeline, "process", checked)
    ini = tmp_path / "memo.ini"
    ini.write_text("[behavior]\nt_idle = 1\nt_ponder = 0.5\n[profile]\nerratic_rate = 0.15\n" + scene)
    log, _ = harness.run_episode(load_config(str(ini), {"mode": "pixels", "steps": steps, "seed": 7}))
    assert len(frames) == len(log.rows) == steps
    assert len({g for g in frames if g is not None}) > 1  # more than one gesture was classified
    if evicts:  # more distinct supports than the memo holds: it filled and dropped entries
        assert len(seen) > harness.GESTURE_MEMO_SIZE


def test_mirrored_poses_keep_their_own_gestures():
    # LeftArmRaised and RightArmRaised are mirror images: their masks have
    # equal pixel counts and their supports equal sums, so only the whole
    # support vector tells them apart
    cfg = load_config(None, {"mode": "pixels"})
    cfg.scene = viewer.SceneConfig(noise_sigma=0.0)
    rng = np.random.default_rng(0)
    pipeline = harness.PixelPipeline(cfg, rng)
    face_frame = viewer.synthesize_face_frame(viewer.ViewerState(), cfg.scene, rng)
    got = []
    for label in viewer.POSE_LABELS * 2:
        _, _, gesture = pipeline.process(face_frame, viewer.synthesize_body_frame(label, cfg.scene, rng))
        got.append(gesture)
    assert got == list(viewer.POSE_LABELS * 2)
    assert len(pipeline.gestures) == len(viewer.POSE_LABELS)


def test_pixel_episode_runs_without_block_matching(monkeypatch):
    def no_flow(*args, **kwargs):
        raise AssertionError("block matching in the closed loop")

    monkeypatch.setattr(face, "block_flow", no_flow)
    cfg = load_config(None, {"mode": "pixels", "steps": 20, "seed": 3})
    log, _ = harness.run_episode(cfg)
    assert len(log.rows) == 20


# --- oracle ---------------------------------------------------------------------------


def reference_oracle_policy(profile, gamma=0.9, tol=1e-10):
    """The dict/`profile.prob` value iteration that `harness.oracle_policy`
    must reproduce bit for bit."""
    states = [(r, att) for r in profile.routines for att in (False, True)]
    values = {s: 0.0 for s in states}
    for _ in range(1_000_000):
        new_values = {}
        delta = 0.0
        for s in states:
            best = None
            for a in profile.routines:
                p = profile.prob(s[0], s[1], a)
                q = p * (1.0 + gamma * values[(a, True)]) + (1.0 - p) * gamma * values[(a, False)]
                if best is None or q > best:
                    best = q
            new_values[s] = best
            delta = max(delta, abs(best - values[s]))
        values = new_values
        if delta < tol:
            break
    policy = {}
    for s in states:
        best_a, best_q = None, None
        for a in profile.routines:
            p = profile.prob(s[0], s[1], a)
            q = p * (1.0 + gamma * values[(a, True)]) + (1.0 - p) * gamma * values[(a, False)]
            if best_q is None or q > best_q:
                best_a, best_q = a, q
        policy[s] = best_a
    return policy, values


@st.composite
def _oracle_case(draw):
    routines = tuple(draw(st.permutations(list(Routine)))[: draw(st.integers(1, 4))])
    n = len(routines)
    p = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((n, 2, n))
    if draw(st.booleans()):
        p = np.round(p, 1)  # few distinct values: tied actions
    gamma = draw(st.floats(0.0, 0.99))
    tol = 10.0 ** -draw(st.integers(1, 12))
    return ViewerProfile(routines=routines, p_star=p), gamma, tol


@settings(max_examples=150, deadline=None)
@given(case=_oracle_case())
def test_oracle_policy_equals_reference_exactly(case):
    profile, gamma, tol = case
    policy, values = harness.oracle_policy(profile, gamma, tol)
    ref_policy, ref_values = reference_oracle_policy(profile, gamma, tol)
    assert list(policy.items()) == list(ref_policy.items())
    assert list(values) == list(ref_values)
    assert [v.hex() for v in values.values()] == [v.hex() for v in ref_values.values()]


def _two_part_key_profile(routines, keys):
    """The profile `load_config` makes from two-part `[p_star]` keys, each
    of which sets one (attending, action) cell in every state routine."""
    names = ", ".join(r.value for r in routines)
    lines = [f"{att}.{action.value.lower()} = {value!r}" for (att, action), value in keys.items()]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "profile.ini")
        with open(path, "w") as f:
            f.write(f"[profile]\nroutines = {names}\n[p_star]\n" + "".join(line + "\n" for line in lines))
        return load_config(path).profile


@st.composite
def _repeated_rows_case(draw):
    """Profiles whose state rows repeat across state routines: the default
    profile, two-part-key profiles, and rows shared by a random subset of
    state routines."""
    gamma = draw(st.floats(0.0, 0.99))
    tol = 10.0 ** -draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["default", "two_part", "shared"]))
    if kind == "default":
        return default_profile(), gamma, tol
    routines = tuple(draw(st.permutations(list(Routine)))[: draw(st.integers(1, 4))])
    if kind == "two_part":
        if draw(st.booleans()):
            routines = default_profile().routines  # the default cells, some of them overridden
        cells = st.tuples(st.sampled_from(["attending", "notattending"]), st.sampled_from(routines))
        values = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
        profile = _two_part_key_profile(routines, draw(st.dictionaries(cells, values, max_size=8)))
        p = profile.p_star
        assert (p == p[:1]).all()  # every state routine has the same two rows
        return profile, gamma, tol
    n = len(routines)
    p = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((n, 2, n))
    if draw(st.booleans()):
        p = np.round(p, 1)
    shared = draw(st.lists(st.integers(0, n - 1), unique=True))
    for i in shared[1:]:
        p[i] = p[shared[0]]
    return ViewerProfile(routines=routines, p_star=p), gamma, tol


def _signed_zero_case():
    # rows equal as floats but not as bits: with gamma -0.0 the all-(-0.0) row
    # is worth -0.0 and the all-0.0 row 0.0
    p = np.zeros((2, 2, 2))
    p[1] = -0.0
    return ViewerProfile(routines=(Routine.Beckon, Routine.Mimic), p_star=p), -0.0, 1e-10


@settings(max_examples=150, deadline=None)
@given(case=_repeated_rows_case())
@example(case=_signed_zero_case())
def test_oracle_policy_equals_reference_on_repeated_rows(case):
    profile, gamma, tol = case
    policy, values = harness.oracle_policy(profile, gamma, tol)
    ref_policy, ref_values = reference_oracle_policy(profile, gamma, tol)
    assert list(policy.items()) == list(ref_policy.items())
    assert [v.hex() for v in values.values()] == [v.hex() for v in ref_values.values()]
    assert list(values) == list(ref_values)


def test_oracle_policy_on_default_profile():
    profile = default_profile()
    policy, values = harness.oracle_policy(profile, 0.9)
    # Mimic attends at 0.9 from attending states, Beckon at 0.9 otherwise
    for (routine, att), action in policy.items():
        assert action == (Routine.Mimic if att else Routine.Beckon)
    for v in values.values():
        assert 0.0 <= v <= 10.0


def test_oracle_agrees_with_value_iteration_on_true_model():
    profile = default_profile()
    policy, values = harness.oracle_policy(profile, gamma=0.9, tol=1e-12)
    model = TransitionModel(profile.routines, profile.p_star)
    q = update_values(model, PolicyConfig(gamma=0.9, tol=1e-12))
    for routine in profile.routines:
        for att in (False, True):
            s = StateId(routine, att)
            assert q.greedy(s) == policy[(routine, att)]
            assert abs(q.row(s).max() - values[(routine, att)]) < 1e-6


def test_oracle_analytic_extremes():
    profile = default_profile()
    profile.p_star[:] = 1.0
    _, values = harness.oracle_policy(profile, gamma=0.9, tol=1e-12)
    for v in values.values():
        assert abs(v - 10.0) < 1e-6  # 1 / (1 - gamma)
    profile.p_star[:] = 0.0
    _, values = harness.oracle_policy(profile, gamma=0.9, tol=1e-12)
    for v in values.values():
        assert abs(v) < 1e-6


# --- metrics and persistence ---------------------------------------------------------------


def test_metrics_fields_and_consistency():
    cfg, log, learner = run(steps=400)
    m = harness.metrics(log, learner, cfg.profile)
    assert m["decisions"] == log.decisions
    assert 0.0 <= m["greedy_agreement"] <= 1.0
    assert 0.0 <= m["exploration_rate"] <= 1.0
    assert abs(m["regret"] - (m["oracle_value"] - m["discounted_return"])) < 1e-12
    assert m["cumulative_reward"] == sum(r["reward"] for r in log.decision_rows())


def test_exploration_counts_only_consulted_policy_choices(monkeypatch):
    chose = []

    class RecordingLearner(Learner):
        def choose(self, s, rng):
            action, explored = super().choose(s, rng)
            chose.append(explored)
            return action, explored

    monkeypatch.setattr(harness, "Learner", RecordingLearner)
    # one frame per decision with the game silenced: every tick is a decision
    cfg = load_config(None, {"steps": 600, "seed": 11})
    cfg.frame_rate = 0.5
    cfg.behavior.t_idle = 1e9
    log, learner = harness.run_episode(cfg.validate())
    assert 0 < len(chose) < log.decisions  # the scheduler skips the policy on some ticks
    assert sum(r["explore"] for r in log.rows) == sum(chose)
    m = harness.metrics(log, learner, cfg.profile)
    assert m["exploration_rate"] == sum(chose) / log.decisions


def test_frame_rate_set_after_loading_reaches_the_engine(monkeypatch):
    engines = []

    class RecordingEngine(BehaviorEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(harness, "BehaviorEngine", RecordingEngine)
    cfg = load_config(None, {"steps": 20})
    cfg.frame_rate = 0.5
    harness.run_episode(cfg)
    assert engines[0].ticks(cfg.behavior.t_idle) == 5  # 10 s at 0.5 frames/s


def test_save_episode_writes_all_artifacts(tmp_path):
    cfg, log, learner = run(steps=100, out_dir=str(tmp_path / "ep"))
    summary = harness.save_episode(cfg, log, learner)
    for name in ("episode.csv", "transitions.csv", "learning.csv", "metrics.csv"):
        assert (tmp_path / "ep" / name).exists()
    with open(tmp_path / "ep" / "episode.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 100
    assert list(rows[0].keys()) == harness.LOG_FIELDS
    assert summary["decisions"] == 5


def reference_write_log_csv(log, path):
    """episode.csv through `csv.DictWriter`, one row at a time."""
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=harness.LOG_FIELDS)
        writer.writeheader()
        for row in log.rows:
            writer.writerow(row)


@pytest.mark.parametrize("mode, steps", [("labels", 300), ("pixels", 60), ("labels", 1)])
def test_episode_csv_equals_dict_writer(tmp_path, mode, steps):
    # erratic bursts put non-zero jerks and reflex causes in the rows
    cfg = load_config(None, {"steps": steps, "mode": mode, "seed": 3, "out_dir": str(tmp_path / "ep")})
    cfg.profile.erratic_rate = 0.15
    log, learner = harness.run_episode(cfg)
    harness.save_episode(cfg, log, learner)
    reference_write_log_csv(log, tmp_path / "want.csv")
    assert (tmp_path / "ep" / "episode.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("mode", ["labels", "pixels"])
def test_one_frame_episode_scores_its_first_state(tmp_path, mode):
    # the smallest episode: one decision tick, taken in the first routine
    cfg, log, learner = run(steps=1, mode=mode, out_dir=str(tmp_path / "ep"))
    summary = harness.save_episode(cfg, log, learner)
    assert summary == harness.metrics(log, learner, cfg.profile)
    _, values = harness.oracle_policy(cfg.profile, cfg.learning.gamma)
    attending = bool(log.rows[0]["attending"])
    assert summary["oracle_value"] == values[(cfg.profile.routines[0], attending)]
    assert summary["decisions"] == 1 and summary["discounted_return"] == int(attending)
    assert summary["attention_fraction_windows"] == [float(attending)]
    assert summary["final_window_attention"] == float(attending)
    assert summary["exploration_rate"] == log.rows[0]["explore"]
    with open(tmp_path / "ep" / "metrics.csv", newline="") as f:
        written = dict(csv.reader(f))
    assert float(written["oracle_value"]) == summary["oracle_value"]


# --- CLI ------------------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n", [0, 1, harness.CURVE_WINDOW - 1, harness.CURVE_WINDOW, harness.CURVE_WINDOW + 1, 2 * harness.CURVE_WINDOW, 2 * harness.CURVE_WINDOW + 1]
)
def test_attention_windows_are_sum_over_len(n):
    # the same floats as the sum / len form `imime plot` used before
    rewards = np.random.default_rng(n).integers(0, 2, size=n).tolist()
    chunks = [rewards[i : i + harness.CURVE_WINDOW] for i in range(0, n, harness.CURVE_WINDOW)]
    got = harness.attention_windows(rewards)
    assert [type(f) for f in got] == [float] * len(chunks)
    assert got == [sum(c) / len(c) for c in chunks]


def test_cli_run_and_plot(tmp_path, capsys):
    # 150 decisions: one full curve window and a shorter last one
    out = str(tmp_path / "run")
    rc = cli.main(["run", "--steps", "3000", "--seed", "2", "--out", out])
    assert rc == 0
    assert "150 decisions" in capsys.readouterr().out
    plot_out = str(tmp_path / "curve.csv")
    rc = cli.main(["plot", "--log", os.path.join(out, "episode.csv"), "--out", plot_out])
    assert rc == 0
    with open(plot_out, newline="") as f:
        rows = list(csv.DictReader(f))
    cfg, log, learner = run(steps=3000, seed=2)
    windows = harness.metrics(log, learner, cfg.profile)["attention_fraction_windows"]
    assert [int(r["decision"]) for r in rows] == [0, harness.CURVE_WINDOW]
    assert [float(r["attention_fraction"]) for r in rows] == windows
    with open(plot_out, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()
    assert digest == "89d78664323cf7b9085cf12eb0779058fbb5aeb4073f4eeab804a2c345ba8be1"


@pytest.fixture
def episode_log(tmp_path):
    """episode.csv of a 110-decision label run: two curve windows."""
    out = tmp_path / "run"
    assert cli.main(["run", "--steps", "2200", "--seed", "2", "--out", str(out)]) == 0
    return out / "episode.csv"


def test_cli_plot_png_without_matplotlib_writes_the_csv(tmp_path, capsys, monkeypatch, episode_log):
    assert cli.main(["plot", "--log", str(episode_log), "--out", str(tmp_path / "direct.csv")]) == 0
    monkeypatch.setitem(sys.modules, "matplotlib", None)  # `import matplotlib` raises ImportError
    capsys.readouterr()
    assert cli.main(["plot", "--log", str(episode_log), "--out", str(tmp_path / "curve.png")]) == 0
    assert "matplotlib unavailable, degrading to CSV" in capsys.readouterr().err
    assert (tmp_path / "curve.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()
    assert not (tmp_path / "curve.png").exists()


def test_cli_plot_png_fallback_that_is_a_directory_exits_2(tmp_path, capsys, monkeypatch, episode_log):
    # without matplotlib the curve goes to curve.csv, which is checked before the log is read
    monkeypatch.setitem(sys.modules, "matplotlib", None)
    (tmp_path / "curve.csv").mkdir()
    monkeypatch.setattr(cli.csv, "DictReader", lambda f: pytest.fail("the log was read"))
    capsys.readouterr()
    assert cli.main(["plot", "--log", str(episode_log), "--out", str(tmp_path / "curve.png")]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines()[-1].startswith("config error: --out:")
    assert captured.out == ""
    assert not (tmp_path / "curve.png").exists()
    assert list((tmp_path / "curve.csv").iterdir()) == []


def test_cli_plot_png_draws_the_attention_windows(tmp_path, capsys, monkeypatch, episode_log):
    drawn = {}
    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.figure = pyplot.xlabel = pyplot.ylabel = pyplot.title = lambda *args, **kwargs: None
    pyplot.plot = lambda xs, ys, **kwargs: drawn.update(xs=list(xs), ys=list(ys))
    pyplot.savefig = lambda path, **kwargs: drawn.update(path=path)
    matplotlib = types.ModuleType("matplotlib")
    matplotlib.use = lambda backend: drawn.update(backend=backend)
    matplotlib.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    png = str(tmp_path / "curve.png")
    capsys.readouterr()
    assert cli.main(["plot", "--log", str(episode_log), "--out", png]) == 0
    with open(episode_log, newline="") as f:
        rewards = [int(r["reward"]) for r in csv.DictReader(f) if int(r["decision"])]
    assert len(rewards) == 110
    assert drawn == {
        "backend": "Agg",
        "xs": [0, harness.CURVE_WINDOW],
        "ys": harness.attention_windows(rewards),
        "path": png,
    }
    assert capsys.readouterr().out == f"wrote {png}\n"


def test_cli_oracle(capsys):
    rc = cli.main(["oracle"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("state_routine,attending,optimal_action,value")
    assert len(out.strip().splitlines()) == 9  # header + 8 states


# SHA-256 of `imime oracle` stdout: defaults, two-part [p_star] keys (state
# rows stay equal across routines) and a three-part key (one row split off)
ORACLE_DIGESTS = [
    ("", "939ce7c7e2b37c38fe614a76dad3f7bbd755882d8310dd6a623742aeba4cd98d"),
    (
        "[p_star]\nattending.mimic = 0.95\nnotattending.beckon = 0.85\n",
        "9c2c4d5ca14c9845517f0f4038461043e9e2c645fb94f6151978eaffbf97f1e4",
    ),
    ("[p_star]\nponder.attending.mimic = 0.95\n", "284796d0f93ac5b8b3670ed151664ab6e37471bf17d5663bd1d5ea470a050545"),
]


@pytest.mark.parametrize("ini, digest", ORACLE_DIGESTS)
def test_cli_oracle_output_unchanged(tmp_path, capsys, ini, digest):
    path = tmp_path / "oracle.ini"
    path.write_text(ini)
    assert cli.main(["oracle", "--config", str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cli_analyze_dumped_frames(tmp_path, capsys):
    out = str(tmp_path / "px")
    rc = cli.main(
        ["run", "--steps", "12", "--seed", "4", "--mode", "pixels", "--dump-frames", "--out", out]
    )
    assert rc == 0
    rc = cli.main(["analyze", "--frames", os.path.join(out, "frames")])
    assert rc == 0
    analysis = os.path.join(out, "frames", "analysis.csv")
    assert os.path.exists(analysis)
    with open(analysis, newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 12
    assert all(r["face"] == "1" for r in rows)
    # flow cues need the frame before: none on the first frame
    assert rows[0]["motion"] == rows[0]["expression"] == ""
    assert {r["motion"] for r in rows[1:]} <= {"Still", "Rigid", "NonRigid"}
    assert {r["expression"] for r in rows[1:]} <= {"Neutral", "Smile", "Frown"}


# SHA-256 of the analysis.csv that `imime analyze` writes over the frames of
# a 60-frame pixel episode (seed 5, erratic bursts, game prompting after 1 s)
ANALYSIS_DIGEST = "1fa0923a716523d6e0337d8658553b2de9ae1e59912d92fd12d6b0fba2634190"


def test_cli_analyze_output_unchanged(tmp_path, capsys):
    out = tmp_path / "px"
    ini = tmp_path / "px.ini"
    ini.write_text(
        f"[episode]\nmode = pixels\nsteps = 60\nseed = 5\nout = {out}\n"
        "[behavior]\nt_idle = 1\nt_ponder = 0.5\n[profile]\nerratic_rate = 0.15\n"
    )
    assert cli.main(["run", "--config", str(ini), "--dump-frames"]) == 0
    assert cli.main(["analyze", "--frames", str(out / "frames")]) == 0, capsys.readouterr().err
    assert hashlib.sha256((out / "frames" / "analysis.csv").read_bytes()).hexdigest() == ANALYSIS_DIGEST


@pytest.mark.parametrize("erratic_rate", [0.15, 0.0])
@pytest.mark.parametrize("noise", [0, 2, 8])
@pytest.mark.parametrize("seed", [3, 8, 11])
def test_analyze_replays_the_live_face_cues(tmp_path, capsys, seed, noise, erratic_rate):
    # stored frames give the orientation and jerk the closed loop acted on;
    # analysis.csv keeps 4 decimals of jerk, episode.csv 6
    out = tmp_path / "px"
    ini = tmp_path / "px.ini"
    ini.write_text(
        f"[episode]\nmode = pixels\nsteps = 100\nseed = {seed}\nout = {out}\n[profile]\nerratic_rate = {erratic_rate}\n"
        f"[scene]\nnoise_sigma = {noise}\n"
    )
    assert cli.main(["run", "--config", str(ini), "--dump-frames"]) == 0
    assert cli.main(["analyze", "--frames", str(out / "frames")]) == 0, capsys.readouterr().err
    with open(out / "episode.csv", newline="") as f:
        live = list(csv.DictReader(f))
    with open(out / "frames" / "analysis.csv", newline="") as f:
        stored = list(csv.DictReader(f))
    assert [r["frame"] for r in stored] == [f"face_{tick:06d}.pgm" for tick in range(100)]
    for row, cues in zip(live, stored, strict=True):
        assert cues["orientation"] == row["orientation"]
        assert (cues["face"] == "0") == (row["orientation"] == "NoFace")
        if cues["face"] == "1":
            assert abs(float(cues["jerk"]) - float(row["jerk"])) <= 5e-5 + 5e-7


def test_cli_analyze_empty_out_exits_2_writing_nothing(tmp_path, capsys):
    # an empty --out used to fall back to <frames>/analysis.csv and overwrite it
    out = tmp_path / "px"
    assert cli.main(["run", "--steps", "2", "--mode", "pixels", "--dump-frames", "--out", str(out)]) == 0
    previous = out / "frames" / "analysis.csv"
    previous.write_text("kept\n")
    capsys.readouterr()
    assert cli.main(["analyze", "--frames", str(out / "frames"), "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: --out:")
    assert captured.out == ""
    assert previous.read_text() == "kept\n"
    frames = ["body_000000.pgm", "body_000001.pgm", "face_000000.pgm", "face_000001.pgm"]
    assert sorted(os.listdir(out / "frames")) == ["analysis.csv", *frames]


def test_cli_config_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[episode]\nmode = dreams\n")
    rc = cli.main(["run", "--config", str(bad)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["analyze", "--frames", "{frames}", "--out", "{a_dir}"], "--out"),  # was [Errno 21], exit 3
        (["analyze", "--frames", "{missing}"], "--frames"),  # was [Errno 2]
        (["analyze", "--frames", "{a_file}"], "--frames"),  # was [Errno 20]
        (["analyze", "--frames", "{a_dir}"], "--frames"),  # no face_*.pgm frames: was exit 3
        (["analyze", "--frames", "{a_dir}", "--out", "{a_file}/analysis.csv"], "--frames"),
        (["analyze", "--frames", "{frames}", "--out", "{missing}/analysis.csv"], "--out"),
        (["analyze", "--frames", "{frames}", "--out", "{a_file}/analysis.csv"], "--out"),
        (["plot", "--log", "{missing}", "--out", "{tmp}/curve.csv"], "--log"),
        (["plot", "--log", "{frames}", "--out", "{tmp}/curve.csv"], "--log"),
        (["plot", "--log", "{log}", "--out", "{a_dir}"], "--out"),  # read the whole log, then exit 3
        (["plot", "--log", "{log}", "--out", "{missing}/curve.csv"], "--out"),
        (["plot", "--log", "{log}", "--out", ""], "--out"),
        (["analyze", "--frames", "{frames}", "--out", "{tmp}/a\0b.csv"], "--out"),  # embedded null byte, exit 3
        (["analyze", "--frames", "{frames}", "--out", "{tmp}/" + "a" * 300 + ".csv"], "--out"),  # was [Errno 36]
        (["plot", "--log", "{log}", "--out", "{tmp}/a\0b.csv"], "--out"),  # read the whole log, then exit 3
        (["plot", "--log", "{log}", "--out", "{tmp}/" + "a" * 300 + ".csv"], "--out"),  # the same, [Errno 36]
        # an output that is one of the inputs: analyze truncated the frame,
        # then exited 3; plot overwrote the log with its curve, exit 0
        (["analyze", "--frames", "{frames}", "--out", "{frames}/../frames/face_000000.pgm"], "--out"),
        (["plot", "--log", "{log}", "--out", "{log}"], "--out"),
    ],
    ids=[
        "analyze-out-dir",
        "analyze-frames-missing",
        "analyze-frames-file",
        "analyze-frames-empty",
        "analyze-frames-empty-before-out",
        "analyze-out-missing-parent",
        "analyze-out-under-file",
        "plot-log-missing",
        "plot-log-dir",
        "plot-out-dir",
        "plot-out-missing-parent",
        "plot-out-empty",
        "analyze-out-nul",
        "analyze-out-overlong",
        "plot-out-nul",
        "plot-out-overlong",
        "analyze-out-is-a-frame",
        "plot-out-is-the-log",
    ],
)
def test_cli_unusable_paths_exit_2_before_any_work(tmp_path, capsys, monkeypatch, argv, flag):
    out = tmp_path / "px"
    assert cli.main(["run", "--steps", "2", "--mode", "pixels", "--dump-frames", "--out", str(out)]) == 0
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "a_file").write_text("kept\n")
    paths = {"frames": out / "frames", "log": out / "episode.csv", "missing": tmp_path / "missing", "tmp": tmp_path}
    paths.update(a_dir=tmp_path / "a_dir", a_file=tmp_path / "a_file")
    before = {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")}
    monkeypatch.setattr(cli, "read_pgm", lambda path: pytest.fail("a frame was read"))
    monkeypatch.setattr(cli.csv, "DictReader", lambda f: pytest.fail("the log was read"))
    capsys.readouterr()
    assert cli.main([a.format(**paths) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {flag}:")
    assert captured.out == ""
    assert {p: p.is_file() and p.read_bytes() for p in tmp_path.rglob("*")} == before


def test_cli_runtime_error_exit_3(tmp_path, capsys):
    # a log without the decision column fails as it is read
    log = tmp_path / "not_a_log.csv"
    log.write_text("tick,reward\n0,1\n")
    rc = cli.main(["plot", "--log", str(log), "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.fixture(scope="module")
def dumped_run(tmp_path_factory):
    """The output directory of a 2-frame pixel run with its frames dumped."""
    out = tmp_path_factory.mktemp("dumped") / "px"
    assert cli.main(["run", "--steps", "2", "--mode", "pixels", "--dump-frames", "--out", str(out)]) == 0
    return out


# the path arguments of each command: (flag, required), the input first
PATH_FLAGS = {
    "run": [("--config", False), ("--out", True)],
    "oracle": [("--config", False)],
    "analyze": [("--frames", True), ("--out", False)],
    "plot": [("--log", True), ("--out", True)],
}
# the names an exit 2 of each command may give
ERROR_NAMES = {
    "run": {"config", "episode.out"},
    "oracle": {"config"},
    "analyze": {"--frames", "--out"},
    "plot": {"--log", "--out"},
}
PATH_KINDS = ["missing", "file", "dir", "below_file", "empty", "frameless", "frames", "log", "bad_log"]


def _tree(root: Path) -> dict:
    return {p: p.is_file() and p.read_bytes() for p in root.rglob("*")}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("command", sorted(PATH_FLAGS))
def test_any_path_arguments_exit_0_2_or_a_listed_3(dumped_run, command, data):
    # exit 3 is left to the inputs only their reading rejects (README): here
    # a `plot --log` file without the decision and reward columns
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copytree(dumped_run, tmp / "px")
        (tmp / "a_file").write_text("kept\n")
        (tmp / "a_dir").mkdir()
        (tmp / "frameless").mkdir()  # body frames, no face frames
        shutil.copy(dumped_run / "frames" / "body_000000.pgm", tmp / "frameless")
        (tmp / "bad_log.csv").write_text("tick,routine\n0,Mimic\n")
        paths = {
            "missing": tmp / "missing",
            "file": tmp / "a_file",
            "dir": tmp / "a_dir",
            "below_file": tmp / "a_file" / "sub",
            "empty": "",
            "frameless": tmp / "frameless",
            "frames": tmp / "px" / "frames",
            "log": tmp / "px" / "episode.csv",
            "bad_log": tmp / "bad_log.csv",
        }
        argv = [command, "--steps", "4"] if command == "run" else [command]
        kinds, source = {}, None
        for i, (flag, required) in enumerate(PATH_FLAGS[command]):
            kind = st.sampled_from(PATH_KINDS + ([] if required else [None]))
            if i and source is not None:  # the input itself as the output, drawn often
                kind = st.one_of(st.just("self"), kind)
            kind = kinds[flag] = data.draw(kind, label=flag)
            if kind is None:
                continue
            path = paths[kind] if kind != "self" else source
            if i == 0:  # the input; analyze reads the face frames inside it
                source = path / "face_000000.pgm" if command == "analyze" and path else path
            argv += [flag, str(path)]
        before = _tree(tmp)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        err = err.getvalue()
        assert "Traceback" not in err
        if code == 3:
            assert command == "plot" and kinds["--log"] == "bad_log", err
        else:
            assert code in (0, 2), err
        if code == 2:
            assert err.startswith("config error: ") and err.split(":")[1].strip() in ERROR_NAMES[command], err
            assert _tree(tmp) == before


VISION_REPORT = Path(__file__).resolve().parents[1] / "scripts" / "vision_accuracy_report.py"

# argv: the vision report's path, then `imime` arguments
WITHOUT_SCIPY = """
import runpy, sys
import imime.cli
if "scipy" in sys.modules:
    sys.exit("import imime.cli imported scipy")
sys.modules["scipy"] = None  # from here on `import scipy` raises ImportError
if imime.cli.main(sys.argv[2:]) != 0:
    sys.exit("imime run failed")
sys.argv = [sys.argv[1], "--frames", "10"]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def test_program_runs_without_scipy(tmp_path):
    # scipy is a test dependency: a fresh interpreter runs a pixel episode and
    # the vision report with its import blocked, and writes the same bytes
    src = os.path.dirname(os.path.dirname(os.path.abspath(imime.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    args = ["run", "--mode", "pixels", "--steps", "40", "--seed", "3"]
    blocked, free = tmp_path / "blocked", tmp_path / "free"
    done = subprocess.run(
        [sys.executable, "-c", WITHOUT_SCIPY, str(VISION_REPORT), *args, "--out", str(blocked)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "orientation:" in done.stdout and "pose classification" in done.stdout
    assert cli.main([*args, "--out", str(free)]) == 0
    names = sorted(os.listdir(free))
    assert "episode.csv" in names and sorted(os.listdir(blocked)) == names
    for name in names:
        assert (blocked / name).read_bytes() == (free / name).read_bytes(), name
