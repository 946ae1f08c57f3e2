"""The three seeded closed-loop workloads.

Each workload is a list of rounds; a round is a fixed list of sessions, and a
session is one episode of the program. The benchmark seed only picks the
episode seeds, so every round does the same kind and amount of work and
failed operations are the same share of attempted ones whatever the seed.
One process drives the program on one thread: a frame starts only after the
previous one completes, and a session only after the previous one ends.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import time

import numpy as np

from imime import cli, harness, viewer
from imime.config import load_config

import checks

# pixels: default 128x128 noisy scene, 10 fps, 2 s decisions; a short t_idle
# and t_ponder let the Simon-Says game prompt within a session, so the body
# stack classifies gestures too
PIXEL_FRAMES = 40
PIXEL_GAME_DELAY_S = 0.5
# learning: one frame per decision with the game silenced
LEARNING_DECISIONS = 4000
# sessions: one round = this fixed grid of (steps, erratic_rate, t_idle,
# compliance); bursts fire Puzzled, the short t_idle fires Reward/Scold
SESSION_GRID = [
    (steps, erratic, t_idle, compliance)
    for steps in (150, 300)
    for erratic in (0.0, 0.15)
    for t_idle, compliance in ((3.0, 0.9), (10.0, 0.5))
]


PROBE_PERIOD_S = 0.05  # wall time between two speed probes
PROBE_REFERENCE_S = 0.0014  # probe CPU time that counts as the reference core speed


def speed_probe() -> float:
    """CPU seconds this thread spends on a fixed mix of interpreter and
    small-array work. The host's core speed drifts by up to 1.7x within
    seconds; the probe samples it, and CPU time rather than wall time keeps
    other threads of the process from slowing the probe."""
    t0 = time.thread_time()
    x = 0
    for i in range(12_000):
        x += i * i % 7
    a = np.arange(256.0)
    for _ in range(150):
        a = np.abs(a - 1.0)
    return time.thread_time() - t0


class FrameClock:
    """Times every frame at the one per-frame call the episode loop makes
    into the viewer (`viewer.frame_update`), and runs the speed probe there
    every PROBE_PERIOD_S. A frame's work starts after any probe (`starts`)
    and ends when the next frame's call arrives (`ends`); `probe_of` names
    the latest probe at each frame's start, and `probe_wall` is the wall time
    the probes took, which the caller takes out of session time."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.probe_of: list[int] = []
        self.probes: list[float] = []  # CPU seconds of every probe of this phase
        self.probe_wall = 0.0
        self._next_probe = 0.0
        self._inner = None

    def new_phase(self) -> None:
        """Forget the probes; the next frame probes first."""
        self.probes.clear()
        self._next_probe = 0.0

    def reset(self) -> None:
        """Forget the frames of the previous session."""
        self.starts.clear()
        self.ends.clear()
        self.probe_of.clear()
        self.probe_wall = 0.0

    def factors(self) -> list[float]:
        """Per probe, the reference speed over the local core speed (the
        median of the probe and its neighbour on each side): multiply a time
        by it to express the time on the reference core."""
        p = self.probes
        return [PROBE_REFERENCE_S / statistics.median(p[max(0, j - 1) : j + 2]) for j in range(len(p))]

    def install(self) -> None:
        self._inner = inner = viewer.frame_update

        def frame_update(*args, **kwargs):
            arrived = now = time.perf_counter()
            self.ends.append(arrived)
            if arrived >= self._next_probe:
                self.probes.append(speed_probe())
                now = time.perf_counter()
                self.probe_wall += now - arrived
                self._next_probe = now + PROBE_PERIOD_S
            self.starts.append(now)
            self.probe_of.append(len(self.probes) - 1)
            return inner(*args, **kwargs)

        viewer.frame_update = frame_update

    def remove(self) -> None:
        viewer.frame_update = self._inner


class Oracle:
    """The benchmark's own optimal policy for the default profile."""

    def __init__(self, cfg):
        self.frames_per_decision = cfg.frames_per_decision
        self.routines = cfg.profile.routines
        self.p_star = cfg.profile.p_star
        self.gamma = cfg.learning.gamma
        self.tol = cfg.learning.tol
        self.policy, self.values = checks.optimal_policy(self.p_star, self.gamma)


class PixelSession:
    def __init__(self, seed: int):
        self.cfg = self._config(seed, "pixels")
        self.frames = self.operations = PIXEL_FRAMES
        self.decisions = -(-PIXEL_FRAMES // self.cfg.frames_per_decision)
        self.seed = seed

    @staticmethod
    def _config(seed: int, mode: str):
        cfg = load_config(None, {"mode": mode, "steps": PIXEL_FRAMES, "seed": seed})
        cfg.behavior.t_idle = cfg.behavior.t_ponder = PIXEL_GAME_DELAY_S
        return cfg.validate()

    def run(self) -> None:
        self.log, _ = harness.run_episode(self.cfg)

    def check(self):
        label_log, _ = harness.run_episode(self._config(self.seed, "labels"))
        ticks = checks.frame_mismatches(self.log.rows, label_log.rows)
        return len(ticks), [f"seed {self.seed}: vision differs from labels at ticks {ticks}"] if ticks else []


class LearningSession:
    def __init__(self, seed: int, oracle: Oracle):
        cfg = load_config(None, {"steps": LEARNING_DECISIONS, "seed": seed})
        cfg.frame_rate = 0.5  # with 2 s decisions: one frame per decision
        cfg.behavior.t_idle = 1e9
        self.cfg = cfg.validate()
        self.frames = self.decisions = self.operations = LEARNING_DECISIONS
        self.seed = seed
        self.oracle = oracle

    def run(self) -> None:
        self.log, self.learner = harness.run_episode(self.cfg)

    def check(self):
        o, learner = self.oracle, self.learner
        problems = checks.learning_problems(
            self.log.rows,
            o.routines,
            learner.table.k,
            learner.table.m,
            learner.model.p,
            learner.q.q,
            o.p_star,
            o.gamma,
            o.tol,
            o.policy,
        )
        return (self.operations if problems else 0), [f"seed {self.seed}: {p}" for p in problems]


class CliSession:
    """One `imime run` through `cli.main`, from an INI file, into its own
    output directory, with stdout captured. With `repeat_dir`, the check runs
    the session again there and requires byte-identical outputs."""

    def __init__(self, seed: int, oracle: Oracle, spec: tuple, out_dir: str, repeat_dir: str | None = None):
        steps, erratic, t_idle, compliance = spec
        self.frames = steps
        self.decisions = -(-steps // oracle.frames_per_decision)
        self.operations = 1
        self.seed = seed
        self.spec = spec
        self.oracle = oracle
        self.out_dir = out_dir
        self.repeat_dir = repeat_dir
        os.makedirs(out_dir, exist_ok=True)
        self.ini = os.path.join(out_dir, "session.ini")
        with open(self.ini, "w") as f:
            f.write(
                f"[episode]\nsteps = {steps}\nseed = {seed}\nout = {out_dir}\n\n"
                f"[behavior]\nt_idle = {t_idle}\n\n"
                f"[profile]\nerratic_rate = {erratic}\ncompliance = {compliance}\n"
            )

    def run(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            self.code = cli.main(["run", "--config", self.ini])

    def check(self):
        if self.code != 0:
            return 1, [f"seed {self.seed}: imime run exited {self.code}"]
        o = self.oracle
        problems = checks.session_problems(
            self.out_dir, [r.value for r in o.routines], o.p_star, o.gamma, o.tol, o.policy, o.values
        )
        if self.repeat_dir is not None:
            again = CliSession(self.seed, o, self.spec, self.repeat_dir)
            again.run()
            if again.code != 0:
                problems.append(f"repeated run exited {again.code}")
            else:
                problems += checks.identical_outputs(self.out_dir, self.repeat_dir)
        return (1 if problems else 0), [f"seed {self.seed}: {p}" for p in problems]


class Workload:
    """Builds each round's sessions from a seeded generator. A session has
    `frames`, `decisions` and `operations` counts, `run()`, the timed
    closed-loop work, and `check()`, which returns (failed operations,
    problems)."""

    def __init__(self, name: str, out_root: str):
        self.name = name
        self.out_root = out_root
        self.oracle = Oracle(load_config(None))

    def round(self, rng: np.random.Generator) -> list:
        if self.name == "pixels":
            return [PixelSession(int(rng.integers(2**31)))]
        if self.name == "learning":
            return [LearningSession(int(rng.integers(2**31)), self.oracle)]
        return [
            CliSession(
                int(rng.integers(2**31)),
                self.oracle,
                spec,
                os.path.join(self.out_root, f"s{i:02d}"),
                repeat_dir=os.path.join(self.out_root, "repeat") if i == 0 else None,
            )
            for i, spec in enumerate(SESSION_GRID)
        ]

    def oracle_problems(self) -> list[str]:
        """The program's oracle against the benchmark's own value iteration."""
        o = self.oracle
        policy, values = harness.oracle_policy(load_config(None).profile, o.gamma)
        return checks.oracle_problems(policy, values, list(o.routines), o.policy, o.values)

