"""Correctness checks for the benchmark, each against a computation made apart
from the program: the benchmark's own value iteration, closed-form counts,
and a second run of the program in another mode. Every check returns the
problems it found as strings; an empty list means the output is correct."""

from __future__ import annotations

import csv
import math
import os

OUTPUT_FILES = ("episode.csv", "transitions.csv", "learning.csv", "metrics.csv")

HOEFFDING_DELTA = 1e-12  # per-cell chance that a correct estimate falls outside its bound
SETTLED_VISITS = 30  # every action of a state tried this often: the greedy choice must be optimal


def optimal_policy(p_star, gamma: float, tol: float = 1e-12):
    """V-form value iteration on the true attend probabilities.

    p_star[i][j][a] is the chance of attending after action a from state
    (routine i, attending j); the successor state is (a, attended). Returns
    (policy[i][j] = lowest optimal action index, values[i][j])."""
    n = len(p_star)

    def q(values, i, j, a):
        p = float(p_star[i][j][a])
        return p * (1.0 + gamma * values[a][1]) + (1.0 - p) * gamma * values[a][0]

    values = [[0.0, 0.0] for _ in range(n)]
    while True:
        new = [[max(q(values, i, j, a) for a in range(n)) for j in (0, 1)] for i in range(n)]
        delta = max(abs(new[i][j] - values[i][j]) for i in range(n) for j in (0, 1))
        values = new
        if delta < tol:
            break
    policy = []
    for i in range(n):
        row = []
        for j in (0, 1):
            qs = [q(values, i, j, a) for a in range(n)]
            row.append(qs.index(max(qs)))
        policy.append(row)
    return policy, values


def frame_mismatches(pixel_rows: list[dict], label_rows: list[dict]) -> list[int]:
    """Ticks whose `attending` or `routine` differ between a pixel-mode episode
    and the label-mode episode on the same seed (every tick if lengths differ)."""
    if len(pixel_rows) != len(label_rows):
        return list(range(max(len(pixel_rows), len(label_rows))))
    return [
        tick
        for tick, (px, lb) in enumerate(zip(pixel_rows, label_rows))
        if px["attending"] != lb["attending"] or px["routine"] != lb["routine"]
    ]


def hoeffding_bound(visits: int) -> float:
    return math.sqrt(math.log(2.0 / HOEFFDING_DELTA) / (2.0 * visits))


def learning_problems(rows, routines, k, m, p_hat, q, p_star, gamma, tol, policy_star, q_slack=0.0) -> list[str]:
    """Check a learner's counts, estimates and values against the episode log
    and the true profile.

    rows: per-frame dicts with `decision` and `reward`; k, m, p_hat, q:
    [state routine][attending][action] tables from the learner."""
    problems = []
    n = len(routines)
    cells = [(i, j, a) for i in range(n) for j in (0, 1) for a in range(n)]
    decision_rewards = [int(r["reward"]) for r in rows if int(r["decision"])]

    outcomes = sum(int(k[i][j][a]) + int(m[i][j][a]) for i, j, a in cells)
    if outcomes != len(decision_rewards) - 1:
        problems.append(f"sum(k+m) = {outcomes}, expected decisions - 1 = {len(decision_rewards) - 1}")
    attended = sum(int(k[i][j][a]) for i, j, a in cells)
    if attended != sum(decision_rewards[1:]):
        problems.append(f"sum(k) = {attended}, rewards after the first decision = {sum(decision_rewards[1:])}")

    for i, j, a in cells:
        visits = int(k[i][j][a]) + int(m[i][j][a])
        expected = int(k[i][j][a]) / visits if visits else 0.5
        if abs(float(p_hat[i][j][a]) - expected) > 1e-9:
            problems.append(f"p_hat{(i, j, a)} = {p_hat[i][j][a]}, counts give {expected}")
        if visits and abs(expected - float(p_star[i][j][a])) > hoeffding_bound(visits):
            problems.append(f"p_hat{(i, j, a)} = {expected:.4f} outside the binomial bound of p* over {visits} visits")

    # one Bellman backup of the final table moves it by at most gamma * tol
    vmax = [[max(float(x) for x in q[i][j]) for j in (0, 1)] for i in range(n)]
    residual = 0.0
    for i, j, a in cells:
        p = float(p_hat[i][j][a])
        backup = p * (1.0 + gamma * vmax[a][1]) + (1.0 - p) * gamma * vmax[a][0]
        residual = max(residual, abs(backup - float(q[i][j][a])))
    if residual > gamma * tol + q_slack:
        problems.append(f"Bellman residual {residual:.3e} above gamma*tol = {gamma * tol:.3e}")

    for i in range(n):
        for j in (0, 1):
            if min(int(k[i][j][a]) + int(m[i][j][a]) for a in range(n)) < SETTLED_VISITS:
                continue
            row = [float(x) for x in q[i][j]]
            greedy = row.index(max(row))
            if greedy != policy_star[i][j]:
                problems.append(
                    f"greedy {routines[greedy]} in settled state ({routines[i]}, {j}), optimal is {routines[policy_star[i][j]]}"
                )
    return problems


def oracle_problems(policy, values, routines, policy_star, values_star) -> list[str]:
    """Compare the program's oracle ({(routine, attending): action}, values)
    with the benchmark's own value iteration."""
    problems = []
    for i, r in enumerate(routines):
        for j in (0, 1):
            action = policy[(r, bool(j))]
            if routines.index(action) != policy_star[i][j]:
                problems.append(f"oracle action {action} in ({r}, {j}), expected {routines[policy_star[i][j]]}")
            if abs(values[(r, bool(j))] - values_star[i][j]) > 1e-8:
                problems.append(f"oracle value in ({r}, {j}) off by {values[(r, bool(j))] - values_star[i][j]:.3e}")
    return problems


def _read_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def session_problems(out_dir, routines, p_star, gamma, tol, policy_star, values_star) -> list[str]:
    """Check the four CSV files one `imime run` wrote against each other and
    against the benchmark's own optimal policy.

    routines: value strings in profile order; the episode starts displaying
    (and with the policy on) routines[0]."""
    episode = _read_rows(os.path.join(out_dir, "episode.csv"))
    header, body = episode[0], episode[1:]
    rows = [dict(zip(header, r)) for r in body]
    problems = []

    # transitions.csv lists exactly the routine changes in episode.csv
    changes, shown = [], routines[0]
    for r in rows:
        if r["routine"] != shown:
            changes.append([r["tick"], shown, r["routine"], r["cause"]])
            shown = r["routine"]
    if _read_rows(os.path.join(out_dir, "transitions.csv"))[1:] != changes:
        problems.append("transitions.csv differs from the routine changes in episode.csv")

    n = len(routines)
    k = [[[0] * n for _ in (0, 1)] for _ in range(n)]
    m = [[[0] * n for _ in (0, 1)] for _ in range(n)]
    p_hat = [[[0.0] * n for _ in (0, 1)] for _ in range(n)]
    q = [[[0.0] * n for _ in (0, 1)] for _ in range(n)]
    for sr, att, action, kk, mm, p, qq in _read_rows(os.path.join(out_dir, "learning.csv"))[1:]:
        i, j, a = routines.index(sr), int(att), routines.index(action)
        k[i][j][a], m[i][j][a], p_hat[i][j][a], q[i][j][a] = int(kk), int(mm), float(p), float(qq)
    # learning.csv prints 10 significant digits, so backups carry that rounding
    problems += learning_problems(rows, routines, k, m, p_hat, q, p_star, gamma, tol, policy_star, q_slack=1e-8)

    summary = dict(_read_rows(os.path.join(out_dir, "metrics.csv"))[1:])
    decision_rows = [r for r in rows if int(r["decision"])]
    if int(summary["decisions"]) != len(decision_rows):
        problems.append(f"metrics decisions {summary['decisions']} != {len(decision_rows)} decision rows")
    if int(summary["cumulative_reward"]) != sum(int(r["reward"]) for r in decision_rows):
        problems.append("metrics cumulative_reward differs from episode.csv")
    s0 = values_star[0][int(decision_rows[0]["attending"])]
    if abs(float(summary["oracle_value"]) - s0) > 1e-6:
        problems.append(f"metrics oracle_value {summary['oracle_value']} != {s0:.10f}")
    # greedy actions within the printed precision of the row maximum may tie
    sure = possible = 0
    for i in range(n):
        for j in (0, 1):
            top = max(q[i][j])
            near = {a for a in range(n) if q[i][j][a] >= top - 1e-9 * max(1.0, abs(top))}
            possible += policy_star[i][j] in near
            sure += near == {policy_star[i][j]}
    agreement = float(summary["greedy_agreement"]) * 2 * n
    if not sure - 1e-9 <= agreement <= possible + 1e-9:
        problems.append(f"metrics greedy_agreement {summary['greedy_agreement']} not in [{sure}, {possible}] / {2 * n}")
    return problems


def identical_outputs(dir_a: str, dir_b: str) -> list[str]:
    """Byte comparison of the four CSV files of two runs of one session."""
    problems = []
    for name in OUTPUT_FILES:
        with open(os.path.join(dir_a, name), "rb") as fa, open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                problems.append(f"{name} differs between two runs of the same session")
    return problems
