"""Tests of the benchmark itself: every workload runs at a tiny size, the
traced run reports every span, and each correctness check rejects a
corrupted output. Run with `python3 -m pytest bench`."""

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from imime import harness  # noqa: E402
from imime.config import load_config  # noqa: E402


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "PIXEL_FRAMES", 45)
    monkeypatch.setattr(workloads, "LEARNING_DECISIONS", 300)
    monkeypatch.setattr(workloads, "SESSION_GRID", [(150, 0.15, 3.0, 0.9), (100, 0.0, 10.0, 0.5)])
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    return tmp_path


def run_bench(workload, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.001", "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", ["pixels", "learning", "sessions"])
def test_workload_runs_and_passes_its_checks(tiny, workload):
    result = run_bench(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    metrics = result["metrics"]
    assert set(metrics) == {
        "setup_s",
        "frames_per_s",
        "frame_ms_p50",
        "frame_ms_p90",
        "decisions_per_s",
        "sessions_per_s",
        "session_ms_p50",
        "session_ms_p90",
        "peak_rss_mb",
    }
    assert all(m["value"] > 0 for m in metrics.values())


def test_traced_run_reports_every_span(tiny):
    result = run_bench("pixels", trace=1)
    metrics = result["metrics"]
    for name in tracer.SPANS:
        assert f"{name}.calls" in metrics and f"{name}.self_ms" in metrics
    # one pixel round, run untraced and then traced: 45 frames of vision
    assert metrics["harness.process.calls"]["value"] == 45
    assert metrics["face.block_flow.calls"]["value"] == 44 * 8  # 7 regions + whole face after frame 0
    assert metrics["body.drape.calls"]["value"] >= 45 + 5  # every frame, plus the 5 pose references
    assert metrics["learning.update_values.sweeps"]["value"] > metrics["learning.update_values.calls"]["value"]
    assert metrics["cli.main.calls"]["value"] == 0
    assert "trace.overhead_pct" in metrics
    assert result["attempted"] == 2 * 45


def test_traced_sessions_reach_every_cli_layer(tiny):
    metrics = run_bench("sessions", trace=1)["metrics"]
    for name in ("cli.main", "config.load_config", "harness.save_episode", "harness.metrics", "harness.oracle_policy"):
        assert metrics[f"{name}.calls"]["value"] == 2, name
    assert metrics["harness.process.calls"]["value"] == 0


def test_self_time_subtracts_children():
    t = tracer.Tracer()
    outer, inner = t.names.index("cli.main"), t.names.index("harness.run_episode")
    for name_id, parent, start, end in ((outer, -1, 0, 10_000_000), (inner, 0, 2_000_000, 9_000_000)):
        t.name_of.append(name_id)
        t.parent_of.append(parent)
        t.start_ns.append(start)
        t.end_ns.append(end)
    summary = t.summary()
    assert summary["cli.main"] == (1, 3.0)
    assert summary["harness.run_episode"] == (1, 7.0)


def test_tracer_wraps_where_callers_look_names_up():
    from imime import body, cli, config, viewer

    originals = (body.drape, viewer.drape, config.load_config, cli.load_config)
    t = tracer.Tracer()
    t.install()
    try:
        assert viewer.drape is not originals[1] and cli.load_config is not originals[3]
        t.active = True
        viewer.build_pose_references()
        t.active = False
    finally:
        t.remove()
    assert (body.drape, viewer.drape, config.load_config, cli.load_config) == originals
    assert t.summary()["body.drape"][0] == len(viewer.POSE_LABELS)


# --- each check rejects a corrupted output ---------------------------------------


def short_pixel_session(seed=3):
    session = workloads.PixelSession(seed)
    session.run()
    return session


def test_frame_check_rejects_a_flipped_attending_bit(monkeypatch):
    monkeypatch.setattr(workloads, "PIXEL_FRAMES", 12)
    session = short_pixel_session()
    assert session.check() == (0, [])
    session.log.rows[7]["attending"] ^= 1
    failed, problems = session.check()
    assert failed == 1 and "[7]" in problems[0]


@pytest.fixture(scope="module")
def settled_learning():
    oracle = workloads.Oracle(load_config(None))
    session = workloads.LearningSession(11, oracle)
    session.run()
    return oracle, session


def learning_args(oracle, session, **changes):
    args = dict(
        rows=session.log.rows,
        routines=oracle.routines,
        k=session.learner.table.k.copy(),
        m=session.learner.table.m.copy(),
        p_hat=session.learner.model.p.copy(),
        q=session.learner.q.q.copy(),
        p_star=oracle.p_star,
        gamma=oracle.gamma,
        tol=oracle.tol,
        policy_star=copy.deepcopy(oracle.policy),
    )
    args.update(changes)
    return args


def test_learning_check_passes_a_real_episode(settled_learning):
    oracle, session = settled_learning
    assert checks.learning_problems(**learning_args(oracle, session)) == []
    assert session.check() == (0, [])


def test_learning_check_rejects_a_count_off_by_one(settled_learning):
    oracle, session = settled_learning
    args = learning_args(oracle, session)
    args["k"][1, 1, 1] += 1
    assert any("sum(k" in p for p in checks.learning_problems(**args))


def test_learning_check_rejects_a_swapped_oracle_action(settled_learning):
    oracle, session = settled_learning
    args = learning_args(oracle, session)
    visits = args["k"] + args["m"]
    settled = [(i, j) for i in range(4) for j in (0, 1) if visits[i, j].min() >= checks.SETTLED_VISITS]
    assert settled, "a 4000-decision episode settles at least one state"
    i, j = settled[0]
    args["policy_star"][i][j] = (args["policy_star"][i][j] + 1) % 4
    assert any("settled state" in p for p in checks.learning_problems(**args))


def test_learning_check_rejects_values_off_the_fixed_point(settled_learning):
    oracle, session = settled_learning
    args = learning_args(oracle, session)
    args["q"][0, 0, 0] += 1e-4
    assert any("Bellman" in p for p in checks.learning_problems(**args))


def test_oracle_check_rejects_a_swapped_action():
    cfg = load_config(None)
    oracle = workloads.Oracle(cfg)
    policy, values = harness.oracle_policy(cfg.profile, cfg.learning.gamma)
    routines = list(cfg.profile.routines)
    assert checks.oracle_problems(policy, values, routines, oracle.policy, oracle.values) == []
    key = (routines[0], True)
    policy[key] = routines[(routines.index(policy[key]) + 1) % len(routines)]
    assert len(checks.oracle_problems(policy, values, routines, oracle.policy, oracle.values)) == 1


@pytest.fixture
def session_dir(tmp_path):
    oracle = workloads.Oracle(load_config(None))
    session = workloads.CliSession(21, oracle, (200, 0.15, 3.0, 0.9), str(tmp_path / "s"))
    session.run()
    assert session.check() == (0, [])
    episode = read_text(os.path.join(session.out_dir, "episode.csv"))
    assert "Puzzled" in episode and ("Reward" in episode or "Scold" in episode)
    return oracle, session


def read_text(path):
    with open(path) as f:
        return f.read()


def write_lines(path, lines):
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def edit_csv(path, row, col, fn):
    lines = read_text(path).splitlines()
    cells = lines[row].split(",")
    cells[col] = fn(cells[col])
    lines[row] = ",".join(cells)
    write_lines(path, lines)


def test_session_check_rejects_a_count_off_by_one(session_dir):
    _, session = session_dir
    edit_csv(os.path.join(session.out_dir, "learning.csv"), 1, 3, lambda v: str(int(v) + 1))
    failed, problems = session.check()
    assert failed == 1 and any("sum(k" in p for p in problems)


def test_session_check_rejects_a_dropped_transition(session_dir):
    _, session = session_dir
    path = os.path.join(session.out_dir, "transitions.csv")
    lines = read_text(path).splitlines()
    write_lines(path, lines[:1] + lines[2:])
    assert any("transitions.csv" in p for p in session.check()[1])


def test_session_check_rejects_a_swapped_oracle_action(session_dir, monkeypatch):
    oracle, session = session_dir
    real = harness.oracle_policy
    learner_greedy = {}
    rows = [line.split(",") for line in read_text(os.path.join(session.out_dir, "learning.csv")).splitlines()[1:]]
    for r in rows:
        key = (r[0], r[1])
        if key not in learner_greedy or float(r[6]) > learner_greedy[key][1]:
            learner_greedy[key] = (r[2], float(r[6]))

    def swapped(profile, gamma=0.9, tol=1e-10):
        # move one state's optimal action onto or off the learner's greedy action
        policy, values = real(profile, gamma, tol)
        state = profile.routines[0], False
        greedy = learner_greedy[(state[0].value, "0")][0]
        others = [r for r in profile.routines if r.value != greedy]
        policy[state] = others[0] if policy[state].value == greedy else next(r for r in profile.routines if r.value == greedy)
        return policy, values

    monkeypatch.setattr(harness, "oracle_policy", swapped)
    session.run()
    assert any("greedy_agreement" in p for p in session.check()[1])


def test_repeat_check_rejects_different_bytes(tmp_path):
    oracle = workloads.Oracle(load_config(None))
    session = workloads.CliSession(4, oracle, (60, 0.0, 3.0, 0.9), str(tmp_path / "a"), str(tmp_path / "b"))
    session.run()
    assert session.check() == (0, [])
    assert checks.identical_outputs(session.out_dir, session.repeat_dir) == []
    edit_csv(os.path.join(session.repeat_dir, "episode.csv"), 3, 6, lambda v: v + "1")
    assert checks.identical_outputs(session.out_dir, session.repeat_dir) == ["episode.csv differs between two runs of the same session"]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sessions", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
