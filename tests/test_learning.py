import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imime import harness, learning
from imime.attention import AttentionState
from imime.behavior import Routine
from imime.config import load_config
from imime.learning import (
    VI_BATCH,
    Learner,
    NonConvergence,
    OutcomeTable,
    PolicyConfig,
    QTable,
    StateId,
    TransitionModel,
    UnknownStateOrAction,
    estimate_transition,
    select_action,
    update_values,
)

R4 = (Routine.Beckon, Routine.Mimic, Routine.Ponder, Routine.PromptGesture)


def att_state(attending):
    return AttentionState(
        face_present=attending,
        attending=attending,
        erratic=False,
        gesture=None,
    )


# --- transition estimate ------------------------------------------------------------


def test_estimate_transition_values():
    assert estimate_transition(0, 0) == 0.5
    assert estimate_transition(3, 1) == 0.75
    assert estimate_transition(1, 3) == 0.25
    assert estimate_transition(0, 5) == 0.0
    assert estimate_transition(7, 0) == 1.0


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 1000), m=st.integers(0, 1000))
def test_estimate_reflection_symmetry(k, m):
    assert abs(estimate_transition(k, m) + estimate_transition(m, k) - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(k=st.integers(0, 1000), m=st.integers(0, 1000))
def test_estimate_in_unit_interval(k, m):
    assert 0.0 <= estimate_transition(k, m) <= 1.0


def test_estimate_converges_on_bernoulli_stream():
    rng = np.random.default_rng(5)
    draws = rng.random(4000) < 0.7
    k, m = int(draws.sum()), int((~draws).sum())
    assert abs(estimate_transition(k, m) - 0.7) < 0.03


# --- outcome table ------------------------------------------------------------------


def test_outcome_table_record_and_counts():
    t = OutcomeTable(R4)
    s = StateId(Routine.Mimic, True)
    t.record(s, Routine.Beckon, True)
    t.record(s, Routine.Beckon, True)
    t.record(s, Routine.Beckon, False)
    assert t.counts(s, Routine.Beckon) == (2, 1)
    assert t.counts(s, Routine.Mimic) == (0, 0)
    assert t.counts(StateId(Routine.Mimic, False), Routine.Beckon) == (0, 0)


def test_outcome_table_unknown_routine():
    t = OutcomeTable(R4)
    with pytest.raises(UnknownStateOrAction):
        t.record(StateId(Routine.Scold, True), Routine.Beckon, True)


def test_outcome_table_empty_routines():
    with pytest.raises(learning.EmptyActionSet):
        OutcomeTable(())


def test_model_from_table_matches_pointwise_estimate():
    rng = np.random.default_rng(9)
    t = OutcomeTable(R4)
    t.k = rng.integers(0, 50, size=t.k.shape)
    t.m = rng.integers(0, 50, size=t.m.shape)
    t.k[0, 0, 0] = t.m[0, 0, 0] = 0  # keep one unvisited cell
    model = TransitionModel.from_table(t)
    for i in range(4):
        for j in (0, 1):
            for l in range(4):
                assert model.p[i, j, l] == estimate_transition(int(t.k[i, j, l]), int(t.m[i, j, l]))


# --- value iteration -----------------------------------------------------------------


def brute_force_q(routines, p, gamma, tol=1e-12, sweeps=100_000):
    """Independent fixed-point solver: plain dict/loop implementation."""
    n = len(routines)
    q = {(i, j, l): 0.0 for i in range(n) for j in (0, 1) for l in range(n)}
    for _ in range(sweeps):
        v = {(i, j): max(q[(i, j, l)] for l in range(n)) for i in range(n) for j in (0, 1)}
        new = {}
        delta = 0.0
        for (i, j, l), old in q.items():
            pr = p[i, j, l]
            val = pr * (1.0 + gamma * v[(l, 1)]) + (1.0 - pr) * gamma * v[(l, 0)]
            new[(i, j, l)] = val
            delta = max(delta, abs(val - old))
        q = new
        if delta < tol:
            break
    out = np.zeros((n, 2, n))
    for (i, j, l), val in q.items():
        out[i, j, l] = val
    return out


def test_value_iteration_matches_analytic_single_action():
    # one routine: Q(s) = p_s (1 + g V1) + (1 - p_s) g V0 with V = Q, a 2x2 linear system
    p0, p1, g = 0.3, 0.8, 0.9
    model = TransitionModel((Routine.Mimic,), np.array([[[p0], [p1]]]))
    q = update_values(model, PolicyConfig(gamma=g, tol=1e-12))
    a = np.array([[1.0 - (1.0 - p0) * g, -p0 * g], [-(1.0 - p1) * g, 1.0 - p1 * g]])
    v0, v1 = np.linalg.solve(a, np.array([p0, p1]))
    assert abs(q.q[0, 0, 0] - v0) < 1e-6
    assert abs(q.q[0, 1, 0] - v1) < 1e-6


def test_value_iteration_matches_brute_force_oracle():
    rng = np.random.default_rng(17)
    p = rng.random((3, 2, 3))
    routines = R4[:3]
    model = TransitionModel(routines, p)
    q = update_values(model, PolicyConfig(gamma=0.9, tol=1e-10))
    expected = brute_force_q(routines, p, 0.9, tol=1e-12)
    assert np.abs(q.q - expected).max() < 1e-8


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 4))
def test_value_iteration_oracle_property(seed, n):
    rng = np.random.default_rng(seed)
    p = rng.random((n, 2, n))
    model = TransitionModel(R4[:n], p)
    q = update_values(model, PolicyConfig(gamma=0.9, tol=1e-10))
    expected = brute_force_q(R4[:n], p, 0.9)
    assert np.abs(q.q - expected).max() < 1e-7


def test_value_iteration_bounds_and_contraction():
    rng = np.random.default_rng(23)
    model = TransitionModel(R4, rng.random((4, 2, 4)))
    cfg = PolicyConfig(gamma=0.9, tol=1e-9)
    q = update_values(model, cfg)
    assert np.all(q.q >= 0.0)
    assert np.all(q.q <= 1.0 / (1.0 - cfg.gamma) + 1e-9)
    res = q.residuals
    for a, b in zip(res[1:-1], res[2:]):
        assert b <= cfg.gamma * a + 1e-12


def test_value_iteration_nonconvergence_raises():
    model = TransitionModel(R4, np.full((4, 2, 4), 0.9))
    with pytest.raises(NonConvergence) as exc:
        update_values(model, PolicyConfig(tol=1e-12, max_sweeps=3))
    assert exc.value.residual > 1e-12


def _sweep_update_values(model, cfg, q0=None):
    """Reference: one numpy sweep of the whole table at a time."""
    n = len(model.routines)
    p = model.p.reshape(2 * n, n)
    q = np.zeros_like(p) if q0 is None else q0.q.reshape(2 * n, n).copy()
    residuals = []
    for _ in range(cfg.max_sweeps):
        vmax = q.max(axis=1)
        v_att = vmax[1::2]
        v_not = vmax[0::2]
        q_new = p + cfg.gamma * (p * (v_att - v_not) + v_not)
        resid = float(np.abs(q_new - q).max())
        residuals.append(resid)
        q = q_new
        if resid < cfg.tol:
            return q.reshape(n, 2, n), residuals
    raise NonConvergence(residuals[-1])


@st.composite
def _value_case(draw):
    n = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["uniform", "halves", "counts", "flat"]))
    if kind == "uniform":
        p = rng.random((n, 2, n))
    elif kind == "halves":  # many tied entries
        p = rng.integers(0, 3, (n, 2, n)) / 2.0
    elif kind == "counts":  # k / (k + m) estimates, as the learner makes them
        k, m = rng.integers(0, 6, (2, n, 2, n))
        p = np.where(k + m > 0, k / np.maximum(k + m, 1), 0.5)
    else:
        p = np.full((n, 2, n), 0.5)
    q0 = None
    if draw(st.booleans()):
        q0 = QTable(R4[:n], rng.normal(0.0, 5.0, (n, 2, n)))
    # gamma 0 converges in two sweeps; 0.99 and 0.999 need more than VI_BATCH
    gamma = draw(st.sampled_from([0.0, 0.5, 0.9, 0.99, 0.999]))
    tol = draw(st.sampled_from([1e-6, 1e-10, 1e-12]))
    # small budgets cut a predicted batch short, or end in NonConvergence
    max_sweeps = draw(st.sampled_from([1, 2, 3, 300, 10_000]))
    return TransitionModel(R4[:n], p), PolicyConfig(gamma=gamma, tol=tol, max_sweeps=max_sweeps), q0


def _long_case(gamma, max_sweeps):
    p = np.random.default_rng(3).random((4, 2, 4))
    return TransitionModel(R4, p), PolicyConfig(gamma=gamma, tol=1e-12, max_sweeps=max_sweeps), None


def test_long_cases_need_more_than_one_batch():
    assert len(update_values(*_long_case(0.99, 10_000)).residuals) > VI_BATCH
    with pytest.raises(NonConvergence):
        update_values(*_long_case(0.999, 10_000))


@settings(max_examples=150, deadline=None)
@given(case=_value_case())
@example(case=_long_case(0.99, 10_000))
@example(case=_long_case(0.999, 10_000))
@example(case=_long_case(0.9, 1))
@example(case=_long_case(0.0, 10_000))
def test_update_values_bit_identical_to_whole_table_sweeps(case):
    model, cfg, q0 = case
    try:
        expected, residuals = _sweep_update_values(model, cfg, q0)
    except NonConvergence as want:
        with pytest.raises(NonConvergence) as got:
            update_values(model, cfg, q0)
        assert got.value.residual == want.residual
        return
    q = update_values(model, cfg, q0)
    assert q.q.tobytes() == expected.tobytes()
    assert q.residuals == residuals


def test_update_values_bit_identical_along_a_learning_run():
    # warm starts after one changed cell, as Learner.observe makes them
    rng = np.random.default_rng(5)
    learner = Learner(R4)
    for _ in range(300):
        s = StateId(R4[int(rng.integers(4))], bool(rng.integers(2)))
        learner.commit(s, R4[int(rng.integers(4))])
        q0 = learner.q
        learner.observe(att_state(bool(rng.random() < 0.6)))
        expected, residuals = _sweep_update_values(learner.model, learner.cfg, q0)
        assert learner.q.q.tobytes() == expected.tobytes()
        assert learner.q.residuals == residuals


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_update_values_bit_identical_at_session_cadence(monkeypatch, seed):
    # default config: 20 frames per decision, so the values move further
    # between decisions and a batch restarts on a changed argmax more often
    calls = []

    def checked(model, cfg, q0=None):
        q = update_values(model, cfg, q0)
        expected, residuals = _sweep_update_values(model, cfg, q0)
        assert q.q.tobytes() == expected.tobytes()
        assert q.residuals == residuals
        calls.append(len(residuals))
        return q

    monkeypatch.setattr(learning, "update_values", checked)
    cfg = load_config(None, {"steps": 300, "seed": seed})
    cfg.profile.erratic_rate = 0.15
    assert cfg.validate().frames_per_decision == 20
    harness.run_episode(cfg)
    assert len(calls) == 15  # the cold start and one per decision after the first


def test_update_values_nonconvergence_matches_whole_table_sweeps():
    model = TransitionModel(R4, np.full((4, 2, 4), 0.9))
    cfg = PolicyConfig(tol=1e-12, max_sweeps=100)
    with pytest.raises(NonConvergence) as got:
        update_values(model, cfg)
    with pytest.raises(NonConvergence) as want:
        _sweep_update_values(model, cfg)
    assert got.value.residual == want.value.residual


def test_value_iteration_zero_evidence_is_symmetric():
    # all-0.5 model: every action looks identical, Q = 0.5 / (1 - gamma)
    model = TransitionModel(R4)  # defaults to 0.5 everywhere
    q = update_values(model, PolicyConfig(gamma=0.9, tol=1e-10))
    assert np.abs(q.q - 5.0).max() < 1e-5


def test_greedy_invariant_under_positive_affine_q():
    rng = np.random.default_rng(31)
    qa = rng.random((4, 2, 4))
    t1 = QTable(R4, qa)
    t2 = QTable(R4, 3.0 * qa + 11.0)
    for r in R4:
        for att in (False, True):
            s = StateId(r, att)
            assert t1.greedy(s) == t2.greedy(s)


# --- action selection ------------------------------------------------------------------


def test_select_action_frequencies():
    q = QTable(R4, np.zeros((4, 2, 4)))
    q.q[0, 1] = [0.1, 0.9, 0.2, 0.3]  # argmax: Mimic
    s = StateId(Routine.Beckon, True)
    rng = np.random.default_rng(41)
    n = 80_000
    counts = {r: 0 for r in R4}
    for _ in range(n):
        counts[select_action(q, s, 0.125, rng)] += 1
    assert abs(counts[Routine.Mimic] / n - 0.875) < 0.01
    for r in (Routine.Beckon, Routine.Ponder, Routine.PromptGesture):
        assert abs(counts[r] / n - 0.125 / 3) < 0.01


def test_select_action_ties_break_to_lowest_index():
    q = QTable(R4, np.zeros((4, 2, 4)))
    s = StateId(Routine.Beckon, False)
    assert q.greedy(s) == Routine.Beckon
    rng = np.random.default_rng(0)
    picks = {select_action(q, s, 0.0, rng) for _ in range(50)}
    assert picks == {Routine.Beckon}


def test_select_action_epsilon_one_never_greedy():
    q = QTable(R4, np.zeros((4, 2, 4)))
    q.q[0, 0] = [0.0, 1.0, 0.0, 0.0]
    s = StateId(Routine.Beckon, False)
    rng = np.random.default_rng(2)
    for _ in range(200):
        assert select_action(q, s, 1.0, rng) != Routine.Mimic


def test_select_action_single_action():
    q = QTable((Routine.Mimic,), np.zeros((1, 2, 1)))
    rng = np.random.default_rng(3)
    assert select_action(q, StateId(Routine.Mimic, True), 0.5, rng) == Routine.Mimic


# --- learner glue ---------------------------------------------------------------------


def test_learner_first_observation_is_discarded():
    lr = Learner(R4)
    lr.observe(att_state(True))
    assert lr.table.k.sum() == 0 and lr.table.m.sum() == 0


def test_learner_attributes_outcome_to_previous_decision():
    lr = Learner(R4)
    s = StateId(Routine.Beckon, False)
    lr.commit(s, Routine.Mimic)
    lr.observe(att_state(True))
    assert lr.table.counts(s, Routine.Mimic) == (1, 0)
    assert lr.model.prob(s, Routine.Mimic) == 1.0
    lr.commit(StateId(Routine.Mimic, True), Routine.Mimic)
    lr.observe(att_state(False))
    assert lr.table.counts(StateId(Routine.Mimic, True), Routine.Mimic) == (0, 1)
    assert lr.table.k.sum() + lr.table.m.sum() == 2


def test_learner_random_policy_is_uniform():
    lr = Learner(R4, PolicyConfig(random_policy=True))
    rng = np.random.default_rng(13)
    counts = {r: 0 for r in R4}
    for _ in range(40_000):
        a, _ = lr.choose(StateId(Routine.Beckon, True), rng)
        counts[a] += 1
    for r in R4:
        assert abs(counts[r] / 40_000 - 0.25) < 0.01
