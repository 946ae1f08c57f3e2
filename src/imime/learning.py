"""Model-based learning stack: binomial outcome counts, MAP transition
estimates, Q-form value iteration over the induced MDP, and the
epsilon-greedy action policy.

States are (routine, attending) pairs over the profile's routine set; the
successor routine is deterministically the chosen action, and the attending
bit of the successor is the (binary) reward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub
from typing import NamedTuple

import numpy as np

from .attention import AttentionState
from .behavior import Routine

VI_BATCH = 256  # most sweeps evaluated in one batch
MAX_SWEEPS = 10_000  # sweeps before value iteration raises NonConvergence


class UnknownStateOrAction(KeyError):
    pass


class EmptyActionSet(ValueError):
    pass


class NonConvergence(RuntimeError):
    def __init__(self, residual: float):
        super().__init__(f"value iteration did not converge, residual {residual:.3e}")
        self.residual = residual


class StateId(NamedTuple):
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

    def cell(self, s: StateId, a: Routine) -> tuple[int, int, int]:
        """(s, a)'s [state routine, attending, action] index into k, m and the model's p."""
        try:
            return self.index[s.routine], int(s.attending), self.index[a]
        except KeyError as exc:
            raise UnknownStateOrAction(f"unknown routine {exc}") from exc

    def record(self, s: StateId, a: Routine, attended_after: bool) -> tuple[int, int, int]:
        """Count one outcome of (s, a); returns its cell."""
        c = self.cell(s, a)
        if attended_after:
            self.k[c] += 1
        else:
            self.m[c] += 1
        return c


def estimate_transition(k: int, m: int) -> float:
    """MAP of Beta(1+k, 1+m): k/(k+m), or 0.5 on zero evidence (flat posterior)."""
    if k + m == 0:
        return 0.5
    return k / (k + m)


class TransitionModel:
    """p_hat[(state routine, attending, action)] array derived from an OutcomeTable."""

    def __init__(self, routines: tuple[Routine, ...], p: np.ndarray | None = None):
        self.routines = tuple(routines)
        n = len(self.routines)
        self.p = np.full((n, 2, n), 0.5) if p is None else np.asarray(p, float)


@dataclass
class PolicyConfig:
    epsilon: float = 0.125
    gamma: float = 0.9
    tol: float = 1e-6  # value-iteration residual to stop at
    random_policy: bool = False  # uniform-random baseline, for paired comparisons


class QTable:
    def __init__(self, routines: tuple[Routine, ...], q: np.ndarray | None = None):
        self.routines = tuple(routines)
        n = len(self.routines)
        self.q = np.zeros((n, 2, n)) if q is None else np.asarray(q, float)
        # each state's class of equal rows, from update_values; None: all apart
        self.classes: list[int] | None = None

    def row(self, s: StateId) -> np.ndarray:
        return self.q[self.routines.index(s.routine), int(s.attending)]

    def greedy(self, s: StateId) -> Routine:
        return self.routines[int(np.argmax(self.row(s)))]


def _classes(p: np.ndarray, q: np.ndarray, groups: list[int]) -> list[int] | None:
    """Each state's class: states in the same group whose p and q rows have
    the same bits (bytes, so 0.0 and -0.0 stay apart). None when every
    state is its own class."""
    width = 8 * p.shape[1]
    pb, qb = p.tobytes(), q.tobytes()
    seen: dict[tuple, int] = {}
    of = [
        seen.setdefault((g, pb[i : i + width], qb[i : i + width]), len(seen))
        for g, i in zip(groups, range(0, len(pb), width))
    ]
    return None if len(seen) == len(of) else of


def update_values(model: TransitionModel, cfg: PolicyConfig | None = None, q0: QTable | None = None) -> QTable:
    """Synchronous sweeps of the Q-form Bellman fixed point:

        Q(s, a) = p(s, a) * (1 + gamma * max_b Q((a, T), b))
                + (1 - p(s, a)) * gamma * max_b Q((a, F), b)

    Residuals shrink by a factor gamma per sweep (contraction); the per-sweep
    history is kept on the returned table for inspection.

    A sweep sees the one before only through the 2n state values (row
    maxima). So each batch computes its first sweep of the whole table in
    plain floats, with the operations of the numpy sweep, and carries the
    state values onward from that sweep's row maxima, each through its row's
    first maximiser (numpy's argmax tie rule). Then numpy evaluates the
    batch's sweeps at once with the same operations as one sweep of the
    whole table. A batch keeps its sweeps up to the first one whose row
    maxima differ from the carried values, so tables and residuals equal
    those of sweeping the whole table one sweep at a time.

    How many sweeps to carry is read from the observed contraction. If the
    state values move by m in a sweep, the residual of the next sweep is at
    most gamma * m, so the carry goes on while gamma * m >= tol, up to
    VI_BATCH or the sweeps left. The move is measured on two successive
    sweeps; their ratio, capped at gamma, predicts how many more sweeps bring
    gamma * m below tol, and those are carried without measuring. The
    prediction only sets the batch length; which sweeps are kept and where
    the residual first drops below tol are still decided on the numpy
    sweeps, so a short guess costs one more batch and a long one a few
    unused sweeps, never a different output.

    States whose p rows and starting q rows have the same bits get the same
    row in every sweep, since a row depends only on its own p row and on
    the state values all states share (exact state aggregation, as in
    harness.oracle_policy). So the sweeps run over one row per class of
    such states, successors are looked up by class, and each state takes
    its class's row at the end. A class row's residual and maximum are
    those of each of its states, so tables and residuals are unchanged.
    Rows are compared only where they can be equal: all states from the
    zero table, and the states a table from update_values puts in one
    class (its `classes`, the hint); a table built elsewhere has all states
    apart. Inside that, the split is by row bytes, so a stale hint costs
    speed, never bits.
    """
    cfg = cfg or PolicyConfig()
    n = len(model.routines)
    # flatten to (state, action) with states routine-major: s = 2*routine + attending
    p = model.p.reshape(2 * n, n)
    q = np.zeros_like(p) if q0 is None else q0.q.reshape(2 * n, n)
    # states that may share rows: all from the zero table, those the hint of
    # a table from update_values puts together, none of a table built elsewhere
    groups = [0] * (2 * n) if q0 is None else q0.classes
    of = None if groups is None else _classes(p, q, groups)
    # each state's class, and the classes of each action's attending and
    # inattentive successors as numpy selects them
    if of is None:
        ids, to_att, to_not = range(2 * n), slice(1, None, 2), slice(0, None, 2)
    else:
        reps = [of.index(c) for c in range(max(of) + 1)]  # one row per class
        p, q = p[reps], q[reps]
        ids, to_att, to_not = of, of[1::2], of[0::2]
    gamma, tol = cfg.gamma, cfg.tol
    cols = p.T.tolist()  # per action, its p in each class
    # per action: its p column, its attending and its inattentive successor
    actions = list(zip(cols, ids[1::2], ids[0::2]))
    residuals = []
    while len(residuals) < MAX_SWEEPS:
        v = q.max(axis=1).tolist()  # value of best action in each class
        flat = list(v)
        size = min(VI_BATCH, MAX_SWEEPS - len(residuals))
        if size > 1:
            # the first sweep, one action column at a time
            u = v if of is None else [v[c] for c in of]  # each state's value
            v_not = u[0::2]
            columns = [
                [pa + gamma * (pa * d + vn) for pa in col] for col, d, vn in zip(cols, map(sub, u[1::2], v_not), v_not)
            ]
            first = list(zip(*columns))  # each class's row of the first sweep
            prev, v = v, list(map(max, first))
            chosen = map(actions.__getitem__, map(tuple.index, first, v))
            terms = [(col[c], att, nat) for c, (col, att, nat) in enumerate(chosen)]
            flat += v
            # the move of the last carried sweep, and whether the one before
            # it was measured too
            count, move, paired = 2, max(map(abs, map(sub, v, prev))), True
            while count < size and gamma * move >= tol:
                prev, v = v, [pb + gamma * (pb * (v[att] - v[nat]) + v[nat]) for pb, att, nat in terms]
                flat += v
                count += 1
                before, move = move, max(map(abs, map(sub, v, prev)))
                if paired and gamma * move >= tol:
                    # the ratio of two successive moves, capped at gamma,
                    # predicts the sweeps until gamma * move < tol; all but
                    # the last two of them are carried unmeasured
                    ratio = min(gamma, move / before)
                    skip = math.ceil(math.log(tol / (gamma * move)) / math.log(ratio)) - 2
                    for _ in range(min(skip, size - count)):
                        v = [pb + gamma * (pb * (v[att] - v[nat]) + v[nat]) for pb, att, nat in terms]
                        flat += v
                        count += 1
                    paired = skip <= 0  # else the next move follows unmeasured sweeps
                else:
                    paired = True
            size = count
        vs = np.fromiter(flat, float, len(flat)).reshape(size, len(p))
        v_att = vs[:, None, to_att]  # successor state (action routine, attending=True)
        v_not = vs[:, None, to_not]
        sweeps = np.empty((size + 1, len(p), n))
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
                rows = sweeps[k + 1].copy() if of is None else sweeps[k + 1][of]
                table = QTable(model.routines, rows.reshape(n, 2, n))
                table.residuals = residuals
                table.classes = of
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
        self.model = TransitionModel(routines)
        self.q = update_values(self.model, self.cfg)
        self.previous: tuple[StateId, Routine] | None = None

    def observe(self, attention: AttentionState) -> None:
        """Attribute the attending bit at this decision tick to the previous
        (state, action), then refresh model and values."""
        if self.previous is None:
            return
        c = self.table.record(*self.previous, bool(attention.attending))
        self.model.p[c] = estimate_transition(int(self.table.k[c]), int(self.table.m[c]))
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
