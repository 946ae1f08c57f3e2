import csv
import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imime import body, cli, face, harness, viewer
from imime.attention import AttentionEvaluator
from imime.behavior import BehaviorEngine, Routine
from imime.config import load_config
from imime.learning import Learner, PolicyConfig, StateId, TransitionModel, update_values
from imime.viewer import ViewerProfile, default_profile

# SHA-256 of the per-frame log of a fixed reference episode (label mode,
# 200 frames, seed 7, all defaults). Any change to the RNG stream order,
# log schema, or loop structure shows up here first.
GOLDEN_DIGEST = "20cc033f35226a0ca6f95ff1f42538ef6cd0f14060058f3c9cc65f79d0e36a07"


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
    assert harness.log_digest(log) == GOLDEN_DIGEST


def test_same_seed_same_log_different_seed_different():
    _, log_a, _ = run(seed=7)
    _, log_b, _ = run(seed=7)
    _, log_c, _ = run(seed=8)
    assert harness.log_digest(log_a) == harness.log_digest(log_b)
    assert harness.log_digest(log_a) != harness.log_digest(log_c)


def test_label_mode_jerk_equals_array_form(monkeypatch):
    positions, jerks = [], []
    frame_update, evaluate = viewer.frame_update, AttentionEvaluator.evaluate

    def recording_frame_update(state, *args, **kwargs):
        frame_update(state, *args, **kwargs)
        positions.append((state.x, state.y))

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
    assert max(jerks) > cfg.fusion.tau_jerk


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_label_and_pixel_modes_agree_without_vision_noise(seed):
    common = dict(steps=300, seed=seed)
    cfg_l, log_l, _ = run(mode="labels", **common)
    assert cfg_l.profile.erratic_rate == 0.0
    cfg_p = load_config(None, {"mode": "pixels", **common})
    cfg_p.scene.noise_sigma = 0.0
    log_p, _ = harness.run_episode(cfg_p)
    for column in ("attending", "routine"):
        assert [r[column] for r in log_l.rows] == [r[column] for r in log_p.rows], column


# SHA-256 over episode.csv, transitions.csv, learning.csv and metrics.csv of
# short pixel episodes, recorded before the pixel path was optimised; the
# 64x72 scene clips the face box at the frame edge.
SMALL_SCENE = "[scene]\nwidth = 64\nheight = 72\n"
PIXEL_EPISODE_DIGESTS = [
    (3, 0.0, "", "4701ee7b4ffde3315b63d2f5c7b265204818c1b81b5cbf256ded9d6c781344af"),
    (3, 0.15, "", "b57c92c843cb046571805e6cff741e56e45782a5334c667ce472ec7376bb710f"),
    (11, 0.0, "", "f109063a8aa4b777fb128d6f6b160e5c04eedb24312e5411d66674248e8c1d2b"),
    (11, 0.15, "", "d073c256a6e10cdfea36a18f6cf9b805c1aef5d9b730fccba3412816d4a39a69"),
    (5, 0.15, SMALL_SCENE, "660940230acebded3061351a3dc586f3d1f7e24c4282af12da674a46c2becd20"),
]


def run_pixel_episode(tmp_path, seed, erratic_rate, scene=""):
    """An 80-frame pixel episode through `imime run`: 5 frames per decision,
    with the game prompting after 1 s so that gestures are drawn."""
    out = tmp_path / f"pixels_{seed}_{erratic_rate}"
    ini = tmp_path / f"pixels_{seed}_{erratic_rate}.ini"
    ini.write_text(
        f"[episode]\nmode = pixels\nsteps = 80\ndecision_period = 0.5\nseed = {seed}\nout = {out}\n"
        f"[behavior]\nt_idle = 1\nt_ponder = 0.5\n[profile]\nerratic_rate = {erratic_rate}\n" + scene
    )
    return cli.main(["run", "--config", str(ini)]), out


@pytest.mark.parametrize("seed, erratic_rate, scene, digest", PIXEL_EPISODE_DIGESTS)
def test_pixel_episode_files_unchanged(tmp_path, capsys, seed, erratic_rate, scene, digest):
    code, out = run_pixel_episode(tmp_path, seed, erratic_rate, scene)
    assert code == 0, capsys.readouterr().err
    h = hashlib.sha256()
    for name in ("episode.csv", "transitions.csv", "learning.csv", "metrics.csv"):
        h.update((out / name).read_bytes())
    assert h.hexdigest() == digest


def test_pixel_episodes_back_to_back_match_fresh_runs(tmp_path, capsys):
    # the renderer keeps silhouette and ellipse masks across frames and
    # episodes; a scene of another size in between must change no byte of
    # the next default-scene episode
    default, small = PIXEL_EPISODE_DIGESTS[0], PIXEL_EPISODE_DIGESTS[4]
    written = []
    for i, (seed, erratic_rate, scene, digest) in enumerate([default, small, default]):
        (tmp_path / str(i)).mkdir()
        code, out = run_pixel_episode(tmp_path / str(i), seed, erratic_rate, scene)
        assert code == 0, capsys.readouterr().err
        files = [(out / f).read_bytes() for f in ("episode.csv", "transitions.csv", "learning.csv", "metrics.csv")]
        assert hashlib.sha256(b"".join(files)).hexdigest() == digest, i
        written.append(files)
    assert written[0] == written[2]
    for label in viewer.POSE_LABELS:
        for side in ((128, 128), (64, 72)):
            assert not viewer.silhouette_mask(label, viewer.SceneConfig(*side)).flags.writeable


class GestureSpy:
    """Passes each frame's cues on to the episode's evaluator and keeps the
    gesture the pipeline gave it."""

    def __init__(self, evaluator):
        self.evaluator, self.gesture = evaluator, "not called"

    def evaluate(self, orientation_label, jerk, gesture):
        self.gesture = gesture
        return self.evaluator.evaluate(orientation_label=orientation_label, jerk=jerk, gesture=gesture)


@pytest.mark.parametrize(
    "scene, steps, evicts",
    [
        ("", 200, False),
        (SMALL_SCENE, 200, False),
        ("[scene]\nnoise_sigma = 0\n", 200, False),
        ("[scene]\nnoise_sigma = 8\n", 300, True),
        ("[scene]\nnoise_sigma = 25\n", 300, True),
    ],
)
def test_memoized_gestures_equal_a_fresh_classification(tmp_path, monkeypatch, scene, steps, evicts):
    process = harness.PixelPipeline.process
    seen, frames = set(), []

    def checked(self, face_frame, body_frame, evaluator):
        spy = GestureSpy(evaluator)
        result = process(self, face_frame, body_frame, spy)
        mask = body.segment_foreground(self.background, body_frame)
        fresh = None
        if mask.mean() >= 0.01:
            fresh = body.classify_pose(body.drape(mask), self.pose_refs)
            seen.add(body.supports(mask).tobytes())
        assert spy.gesture == fresh
        assert len(self.gestures) <= harness.GESTURE_MEMO_SIZE
        frames.append(fresh)
        return result

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
    spy = GestureSpy(AttentionEvaluator(cfg.fusion))
    got = []
    for label in viewer.POSE_LABELS * 2:
        pipeline.process(face_frame, viewer.synthesize_body_frame(label, cfg.scene, rng), spy)
        got.append(spy.gesture)
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
    """`harness.write_log_csv` through `csv.DictWriter`, one row at a time."""
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=harness.LOG_FIELDS)
        writer.writeheader()
        for row in log.rows:
            writer.writerow(row)


@pytest.mark.parametrize("mode, steps", [("labels", 300), ("pixels", 60), ("labels", 1)])
def test_write_log_csv_equals_dict_writer(tmp_path, mode, steps):
    # erratic bursts put non-zero jerks and reflex causes in the rows
    cfg = load_config(None, {"steps": steps, "mode": mode, "seed": 3})
    cfg.profile.erratic_rate = 0.15
    log, _ = harness.run_episode(cfg)
    harness.write_log_csv(log, tmp_path / "got.csv")
    reference_write_log_csv(log, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


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


def test_cli_oracle(capsys):
    rc = cli.main(["oracle"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("state_routine,attending,optimal_action,value")
    assert len(out.strip().splitlines()) == 9  # header + 8 states


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


def test_cli_config_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[episode]\nmode = dreams\n")
    rc = cli.main(["run", "--config", str(bad)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_cli_runtime_error_exit_3(tmp_path, capsys):
    rc = cli.main(["plot", "--log", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "error" in capsys.readouterr().err
