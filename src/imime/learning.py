"""Model-based learning stack: binomial outcome counts, MAP transition
estimates, Q-form value iteration over the induced MDP, and the
epsilon-greedy action policy.

States are (routine, attending) pairs over the profile's routine set; the
successor routine is deterministically the chosen action, and the attending
bit of the successor is the (binary) reward.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .attention import AttentionState
from .behavior import Routine

VI_BATCH = 256  # most sweeps evaluated in one batch


class UnknownStateOrAction(KeyError):
    pass


class EmptyActionSet(ValueError):
    pass


class NonConvergence(RuntimeError):
    def __init__(self, residual: float):
        super().__init__(f"value iteration did not converge, residual {residual:.3e}")
        self.residual = residual


@dataclass(frozen=True)
class StateId:
    routine: Routine
    attending: bool


class OutcomeTable:
    """Per (state, action) binomial counts: k attended-after, m did not."""

    def __init__(self, routines: tuple[Routine, ...]):
        if not routines:
            raise EmptyActionSet("no routines")
        self.routines = tuple(routines)
        self.index = {r: i for i, r in enumerate(self.routines)}
        n = len(self.routines)
        self.k = np.zeros((n, 2, n), dtype=np.int64)  # [state routine, attending, action]
        self.m = np.zeros((n, 2, n), dtype=np.int64)

    def _cell(self, s: StateId, a: Routine) -> tuple[int, int, int]:
        try:
            return self.index[s.routine], int(s.attending), self.index[a]
        except KeyError as exc:
            raise UnknownStateOrAction(f"unknown routine {exc}") from exc

    def record(self, s: StateId, a: Routine, attended_after: bool) -> None:
        i, j, l = self._cell(s, a)
        if attended_after:
            self.k[i, j, l] += 1
        else:
            self.m[i, j, l] += 1

    def counts(self, s: StateId, a: Routine) -> tuple[int, int]:
        i, j, l = self._cell(s, a)
        return int(self.k[i, j, l]), int(self.m[i, j, l])


def estimate_transition(k: int, m: int) -> float:
    """MAP of Beta(1+k, 1+m): k/(k+m), or 0.5 on zero evidence (flat posterior)."""
    if k + m == 0:
        return 0.5
    return k / (k + m)


class TransitionModel:
    """p_hat[(state routine, attending, action)] array derived from an OutcomeTable."""

    def __init__(self, routines: tuple[Routine, ...], p: np.ndarray | None = None):
        self.routines = tuple(routines)
        self.index = {r: i for i, r in enumerate(self.routines)}
        n = len(self.routines)
        self.p = np.full((n, 2, n), 0.5) if p is None else np.asarray(p, float)

    @classmethod
    def from_table(cls, table: OutcomeTable) -> "TransitionModel":
        total = table.k + table.m
        p = np.where(total > 0, table.k / np.maximum(total, 1), 0.5)
        return cls(table.routines, p)

    def refresh_cell(self, table: OutcomeTable, s: StateId, a: Routine) -> None:
        i, j, l = table._cell(s, a)
        self.p[i, j, l] = estimate_transition(int(table.k[i, j, l]), int(table.m[i, j, l]))

    def prob(self, s: StateId, a: Routine) -> float:
        return float(self.p[self.index[s.routine], int(s.attending), self.index[a]])


@dataclass
class PolicyConfig:
    epsilon: float = 0.125
    gamma: float = 0.9
    tol: float = 1e-6  # value-iteration residual to stop at
    max_sweeps: int = 10_000
    random_policy: bool = False  # uniform-random baseline, for paired comparisons


class QTable:
    def __init__(self, routines: tuple[Routine, ...], q: np.ndarray | None = None):
        self.routines = tuple(routines)
        self.index = {r: i for i, r in enumerate(self.routines)}
        n = len(self.routines)
        self.q = np.zeros((n, 2, n)) if q is None else np.asarray(q, float)

    def row(self, s: StateId) -> np.ndarray:
        return self.q[self.index[s.routine], int(s.attending)]

    def greedy(self, s: StateId) -> Routine:
        return self.routines[int(np.argmax(self.row(s)))]


def update_values(model: TransitionModel, cfg: PolicyConfig | None = None, q0: QTable | None = None) -> QTable:
    """Synchronous sweeps of the Q-form Bellman fixed point:

        Q(s, a) = p(s, a) * (1 + gamma * max_b Q((a, T), b))
                + (1 - p(s, a)) * gamma * max_b Q((a, F), b)

    Residuals shrink by a factor gamma per sweep (contraction); the per-sweep
    history is kept on the returned table for inspection.

    A sweep sees the one before only through the 2n state values (row
    maxima). So the state values are carried forward in plain floats, each
    through the entry that is its row maximum now, and then numpy evaluates
    a batch of sweeps at once with the same operations as one sweep of the
    whole table. A batch keeps its sweeps up to the first one whose row
    maxima differ from the carried values, so tables and residuals equal
    those of sweeping the whole table one sweep at a time.

    How many sweeps to carry is predicted from the move m of the state
    values in the first carried sweep: the residual of sweep k + 1 is at
    most gamma**k * m, so 2 + ceil(log(tol / m) / log(gamma)) carried values
    reach tol unless a row's argmax changes on the way. The prediction only
    sets the batch length; which sweeps are kept and where the residual
    first drops below tol are still decided on the numpy sweeps, so a short
    guess costs one more batch and a long one a few unused sweeps, never a
    different output.
    """
    cfg = cfg or PolicyConfig()
    n = len(model.routines)
    # flatten to (state, action) with states routine-major: s = 2*routine + attending
    p = model.p.reshape(2 * n, n)
    q = np.zeros_like(p) if q0 is None else q0.q.reshape(2 * n, n).copy()
    gamma, tol = cfg.gamma, cfg.tol
    residuals = []
    while len(residuals) < cfg.max_sweeps:
        best = q.argmax(axis=1)
        terms = list(zip(p[np.arange(2 * n), best].tolist(), (2 * best + 1).tolist(), (2 * best).tolist()))
        v = q.max(axis=1).tolist()  # value of best action in each state
        flat = list(v)
        size = min(VI_BATCH, cfg.max_sweeps - len(residuals))
        if size > 1:
            v = [pb + gamma * (pb * (v[att] - v[nat]) + v[nat]) for pb, att, nat in terms]
            moved = max(abs(a - b) for a, b in zip(v, flat))
            if moved < tol or gamma == 0.0:
                size = 2
            else:
                size = min(size, 2 + math.ceil(math.log(tol / moved) / math.log(gamma)))
            flat += v
            for _ in range(size - 2):
                v = [pb + gamma * (pb * (v[att] - v[nat]) + v[nat]) for pb, att, nat in terms]
                flat += v
        vs = np.array(flat).reshape(size, 2 * n)
        v_att = vs[:, None, 1::2]  # successor state (action routine, attending=True)
        v_not = vs[:, None, 0::2]
        sweeps = np.empty((size + 1, 2 * n, n))
        sweeps[0] = q
        sweeps[1:] = p + gamma * (p * (v_att - v_not) + v_not)
        # sweep k + 1 is exact while the carried values up to k are the row
        # maxima; n - 1 np.maximum calls over the action slices take those
        # maxima faster than .max(axis=2) over an innermost axis this short
        rowmax = sweeps[1:size, :, 0]
        for a in range(1, n):
            rowmax = np.maximum(rowmax, sweeps[1:size, :, a])
        wrong = np.flatnonzero((rowmax != vs[1:]).any(axis=1))
        valid = int(wrong[0]) + 1 if wrong.size else size
        resid = np.abs(sweeps[1 : valid + 1] - sweeps[:valid]).reshape(valid, -1).max(axis=1)
        for k, r in enumerate(resid.tolist()):
            residuals.append(r)
            if r < tol:
                table = QTable(model.routines, sweeps[k + 1].reshape(n, 2, n).copy())
                table.residuals = residuals
                return table
        q = sweeps[valid]
    raise NonConvergence(residuals[-1])


def select_action(q: QTable, s: StateId, epsilon: float, rng: np.random.Generator) -> Routine:
    """Epsilon-greedy: argmax with prob 1-eps, else uniform over the rest."""
    row = q.row(s)
    n = len(row)
    if n == 0:
        raise EmptyActionSet("no actions")
    best = int(np.argmax(row))  # lowest index on ties
    if n == 1:
        return q.routines[0]
    if rng.random() < 1.0 - epsilon:
        return q.routines[best]
    other = int(rng.integers(n - 1))
    if other >= best:
        other += 1
    return q.routines[other]


class Learner:
    """Glue: records decision-tick outcomes, refreshes the model, and keeps
    the value table current before each action selection."""

    def __init__(self, routines: tuple[Routine, ...], cfg: PolicyConfig | None = None):
        self.cfg = cfg or PolicyConfig()
        self.table = OutcomeTable(routines)
        self.model = TransitionModel.from_table(self.table)
        self.q = update_values(self.model, self.cfg)
        self.previous: tuple[StateId, Routine] | None = None

    def observe(self, attention: AttentionState) -> None:
        """Attribute the attending bit at this decision tick to the previous
        (state, action), then refresh model and values."""
        if self.previous is None:
            return
        s, a = self.previous
        self.table.record(s, a, bool(attention.attending))
        self.model.refresh_cell(self.table, s, a)
        self.q = update_values(self.model, self.cfg, q0=self.q)

    def choose(self, s: StateId, rng: np.random.Generator) -> tuple[Routine, bool]:
        """Select an action for state s; returns (action, explored)."""
        if self.cfg.random_policy:
            action = self.table.routines[int(rng.integers(len(self.table.routines)))]
        else:
            action = select_action(self.q, s, self.cfg.epsilon, rng)
        explored = action != self.q.greedy(s)
        return action, explored

    def commit(self, s: StateId, a: Routine) -> None:
        self.previous = (s, a)

    def dump_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["state_routine", "state_attending", "action", "k", "m", "p_hat", "q"])
            for i, sr in enumerate(self.table.routines):
                for j in (0, 1):
                    for l, a in enumerate(self.table.routines):
                        writer.writerow(
                            [
                                sr.value,
                                j,
                                a.value,
                                int(self.table.k[i, j, l]),
                                int(self.table.m[i, j, l]),
                                f"{self.model.p[i, j, l]:.10g}",
                                f"{self.q.q[i, j, l]:.10g}",
                            ]
                        )
