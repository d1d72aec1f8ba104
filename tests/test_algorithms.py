import dataclasses
import math
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ncrs import algorithms, geometry
from ncrs.algorithms import (
    FULL_LOG_HORIZON,
    StepSchedule,
    constant_schedule,
    log_stride,
    ncrs_run,
    ncrs_vote_run,
    rsgf_run,
    rsgf_stable_step,
    theory_schedule,
    vote_params,
)
from ncrs.geometry import DrawAhead, RngStream, Subspace, gaussian_vector, stream_id_for
from ncrs.objectives import (
    InnerFunction,
    RidgeObjective,
    initial_point,
    random_ridge_objective,
)
from ncrs.oracles import ConfidenceOracle, LinkFunction, SignOracle


def _stream(seed, tag):
    return RngStream(seed, stream_id_for(0, tag))


def _quadratic(seed=200, d=15, k=3):
    return random_ridge_objective(
        _stream(seed, "subspace"), d, k, InnerFunction(kind="pure_quadratic")
    )


class _FixedAnswerOracle:
    """Sign oracle stub that always gives the same answer."""

    def __init__(self, answer):
        self.answer = answer
        self.query_count = 0

    def compare(self, x, y):
        self.query_count += 1
        return self.answer


class _SilentOracle:
    """Confidence oracle stub that always abstains."""

    def __init__(self):
        self.query_count = 0

    def compare_batch(self, x, y, n):
        self.query_count += n
        return 0.0

    def first_preferred(self, x, ys, n):
        self.query_count += len(ys) * n
        return len(ys)


class _ScriptedOracle:
    """Confidence oracle stub that prefers the candidates of the given
    iterations (counting candidates from 1) and no others."""

    def __init__(self, accepts):
        self.accepts = accepts
        self.asked = 0
        self.calls = []  # "single" per compare_batch call, the rows of each first_preferred one
        self.block_accepts = 0  # first_preferred calls that returned a row
        self.query_count = 0

    def compare_batch(self, x, y, n):
        self.calls.append("single")
        self.asked += 1
        self.query_count += n
        return float(n) if self.asked in self.accepts else 0.0

    def first_preferred(self, x, ys, n):
        self.calls.append(len(ys))
        for i in range(len(ys)):
            self.asked += 1
            self.query_count += n
            if self.asked in self.accepts:
                self.block_accepts += 1
                return i
        return len(ys)


class _BlockCountingOracle(ConfidenceOracle):
    """A ConfidenceOracle that counts its compare_batch and first_preferred calls."""

    singles = blocks = 0

    def compare_batch(self, x, y, n):
        self.singles += 1
        return super().compare_batch(x, y, n)

    def first_preferred(self, x, ys, n):
        self.blocks += 1
        return super().first_preferred(x, ys, n)


def _value_and_grad_norm(obj):
    return lambda th: (float(obj.value(th)), float(np.linalg.norm(obj.gradient(th))))


def _assert_trajectory(traj, values, grad_norms, accepted, queries, theta):
    """Every field of an unstrided trajectory equals the hand-rolled replay."""
    horizon = len(values)
    assert np.array_equal(traj.steps, np.arange(1, horizon + 1))
    assert np.array_equal(traj.values, np.array(values))
    assert np.array_equal(traj.grad_norms, np.array(grad_norms))
    assert np.array_equal(traj.accepted, np.array(accepted))
    assert np.array_equal(traj.queries, queries)
    assert np.array_equal(traj.theta_final, theta)


class TestLogStride:
    def test_frozen_values(self):
        assert log_stride(1) == 1
        assert log_stride(100_000) == 1
        assert log_stride(100_001) == 11
        assert log_stride(200_000) == 20
        assert log_stride(1_000_000) == 100


class TestStepSchedule:
    def test_theory_constant_value(self):
        sched = theory_schedule(alpha0=1.0, intrinsic_dim=4, horizon=100)
        # 1 / sqrt(4 * 100)
        assert sched.step == 0.05
        assert sched == constant_schedule(0.05, 100)
        for alpha0, k, horizon in [(0.7, 3, 8043), (2.0, 10, 300), (1e-3, 7, 101)]:
            step = alpha0 / math.sqrt(k * horizon)
            assert theory_schedule(alpha0, k, horizon).step == step

    def test_constant(self):
        sched = constant_schedule(0.3, 10)
        assert sched == StepSchedule(horizon=10, step=0.3)
        assert [f.name for f in dataclasses.fields(StepSchedule)] == ["horizon", "step"]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            constant_schedule(0.0, 10)
        with pytest.raises(ValueError):
            theory_schedule(1.0, 0, 10)
        for bad in (2.5, True, 0):
            with pytest.raises(ValueError, match="intrinsic_dim must be a positive integer"):
                theory_schedule(1.0, bad, 10)
        with pytest.raises(ValueError):
            constant_schedule(0.1, 0)
        for bad in (2.5, 10.0, True, np.bool_(True), "10", None, -1):
            with pytest.raises(ValueError, match="horizon must be a positive integer"):
                constant_schedule(0.1, bad)
            with pytest.raises(ValueError, match="horizon must be a positive integer"):
                theory_schedule(1.0, 3, bad)
        sched = constant_schedule(0.1, np.uint16(10))
        assert type(sched.horizon) is int
        assert sched == constant_schedule(0.1, 10)
        for bad in (math.nan, math.inf, -0.1):
            with pytest.raises(ValueError, match="need 0 < step < inf"):
                constant_schedule(bad, 10)
            with pytest.raises(ValueError):
                theory_schedule(bad, 3, 10)
        for bad in (True, np.bool_(True), "0.1", None):
            with pytest.raises(ValueError, match="step must be a real number"):
                constant_schedule(bad, 10)
            with pytest.raises(ValueError, match="alpha0 must be a real number"):
                theory_schedule(bad, 3, 10)
        assert type(constant_schedule(np.float32(0.5), 10).step) is float
        assert type(constant_schedule(2, 10).step) is float


class TestNcrsRun:
    def test_always_reject_keeps_start(self):
        theta1 = np.arange(6, dtype=np.float64)
        oracle = _FixedAnswerOracle(-1)
        traj = ncrs_run(oracle, theta1, constant_schedule(0.5, 50), _stream(201, "algorithm"))
        assert np.array_equal(traj.theta_final, theta1)
        assert not traj.accepted.any()
        assert oracle.query_count == 50

    def test_always_accept_matches_manual_walk(self):
        theta1 = np.zeros(4)
        sched = constant_schedule(0.25, 30)
        traj = ncrs_run(_FixedAnswerOracle(1), theta1, sched, _stream(202, "algorithm"))
        gen = _stream(202, "algorithm")
        theta = theta1.copy()
        for _ in range(30):
            theta = theta + 0.25 * gen.standard_normal(4)
        assert np.array_equal(traj.theta_final, theta)
        assert traj.accepted.all()

    def test_matches_independent_reimplementation(self):
        """Replay the exact run: same streams, hand-rolled loop."""
        obj = _quadratic(203)
        theta1 = initial_point(obj, _stream(203, "init"))
        sched = theory_schedule(2.0, 3, 400)
        traj = ncrs_run(
            SignOracle(obj, 0.3, _stream(203, "oracle")),
            theta1, sched, _stream(203, "algorithm"),
            instrument=_value_and_grad_norm(obj),
        )
        oracle = SignOracle(obj, 0.3, _stream(203, "oracle"))
        gen = _stream(203, "algorithm")
        theta = theta1.copy()
        values, grad_norms, accepted = [], [], []
        for t in range(1, 401):
            values.append(float(obj.value(theta)))
            grad_norms.append(float(np.linalg.norm(obj.gradient(theta))))
            candidate = theta + sched.step * gen.standard_normal(15)
            take = oracle.compare(theta, candidate) > 0
            accepted.append(take)
            if take:
                theta = candidate
        _assert_trajectory(traj, values, grad_norms, accepted, np.arange(1, 401), theta)

    def test_perfect_oracle_never_increases_value(self):
        obj = _quadratic(204)
        theta1 = initial_point(obj, _stream(204, "init"))
        instrument = lambda th: (float(obj.value(th)), 0.0)
        traj = ncrs_run(
            SignOracle(obj, 0.5, _stream(204, "oracle")),
            theta1, constant_schedule(0.1, 800), _stream(204, "algorithm"),
            instrument=instrument,
        )
        assert np.all(np.diff(traj.values) <= 1e-12)
        assert float(obj.value(traj.theta_final)) < float(obj.value(theta1)) / 10.0

    def test_instrument_optional(self):
        obj = _quadratic(205)
        traj = ncrs_run(
            SignOracle(obj, 0.5, _stream(205, "oracle")),
            np.zeros(15), constant_schedule(0.1, 5), _stream(205, "algorithm"),
        )
        assert np.all(np.isnan(traj.values))
        assert np.all(np.isnan(traj.grad_norms))

    def test_decisions_flow_only_through_the_oracle(self):
        """Pad the ambient space with flat directions.  Answering queries from
        the padded objective or from a proxy that truncates every query to the
        structured block must produce the identical run: the algorithm has no
        side channel to the extra coordinates."""
        d, pad = 10, 7
        obj = _quadratic(206, d=d, k=3)
        basis_padded = np.hstack([obj.active.basis, np.zeros((3, pad))])
        obj2 = RidgeObjective(active=Subspace(basis=basis_padded), inner=obj.inner)
        theta1 = initial_point(obj, _stream(206, "init"))
        theta1_padded = np.concatenate([theta1, np.zeros(pad)])
        sched = constant_schedule(0.2, 300)

        class _Truncating:
            def __init__(self):
                self.inner = SignOracle(obj, 0.2, _stream(206, "oracle"))
                self.query_count = 0

            def compare(self, x, y):
                out = self.inner.compare(x[:d], y[:d])
                self.query_count = self.inner.query_count
                return out

        traj = ncrs_run(SignOracle(obj2, 0.2, _stream(206, "oracle")),
                        theta1_padded, sched, _stream(206, "algorithm"))
        traj2 = ncrs_run(_Truncating(), theta1_padded, sched, _stream(206, "algorithm"))
        assert np.array_equal(traj.accepted, traj2.accepted)
        assert np.array_equal(traj.theta_final, traj2.theta_final)

    def test_validation(self):
        # the horizon and the steps are checked by the schedule (TestStepSchedule)
        for bad in (np.zeros((2, 3)), np.zeros(0)):
            with pytest.raises(ValueError, match="non-empty 1-D vector"):
                ncrs_run(_FixedAnswerOracle(1), bad, constant_schedule(0.1, 10), _stream(0, "a"))


class TestTrajectoryLogging:
    def test_short_horizon_logs_every_iteration(self):
        traj = ncrs_run(_FixedAnswerOracle(1), np.zeros(3), constant_schedule(0.1, 250),
                        _stream(210, "algorithm"))
        assert np.array_equal(traj.steps, np.arange(1, 251))
        assert np.array_equal(traj.queries, np.arange(1, 251))

    def test_long_horizon_subsamples_and_keeps_last(self):
        horizon = 200_000
        traj = ncrs_run(_FixedAnswerOracle(-1), np.zeros(2), constant_schedule(0.1, horizon),
                        _stream(211, "algorithm"))
        assert len(traj.steps) == 10_001
        assert traj.steps[0] == 1
        assert traj.steps[-1] == horizon
        assert np.all(np.diff(traj.steps[:-1]) == 20)
        assert traj.total_queries == horizon

    @pytest.mark.parametrize("horizon, stride", [(60, 1), (250, 25)])
    @pytest.mark.parametrize("number", [int, np.float32])
    @pytest.mark.parametrize("kind", ["ncrs", "ncrs_vote", "rsgf"])
    def test_columns_keep_their_dtypes(self, kind, number, horizon, stride, monkeypatch):
        """values and grad_norms are float64 and accepted bool whatever number
        type the instrument reads, in a full log and in a strided one."""
        monkeypatch.setattr(algorithms, "FULL_LOG_HORIZON", 100)  # a strided log, cheaply
        monkeypatch.setattr(algorithms, "TARGET_LOG_POINTS", 10)
        assert log_stride(horizon) == stride
        seen = []

        def instrument(theta):
            seen.append(theta)
            return number(len(seen)), number(3 * len(seen))

        sched, rng = constant_schedule(0.1, horizon), _stream(217, "algorithm")
        traj = {
            "ncrs": lambda: ncrs_run(_FixedAnswerOracle(1), np.zeros(3), sched, rng, instrument),
            "ncrs_vote": lambda: ncrs_vote_run(_SilentOracle(), np.zeros(3), sched, 2, rng,
                                               instrument),
            "rsgf": lambda: rsgf_run(lambda y: float(y.sum()), np.zeros(3), sched, 1e-4, rng,
                                     instrument),
        }[kind]()
        assert np.array_equal(traj.steps, np.append(np.arange(1, horizon + 1, stride), horizon)
                              if stride > 1 else np.arange(1, horizon + 1))
        assert (traj.values.dtype, traj.grad_norms.dtype) == (np.float64, np.float64)
        assert traj.accepted.dtype == bool
        assert len(traj.values) == len(traj.grad_norms) == len(traj.accepted) == len(traj.steps)
        assert np.array_equal(traj.grad_norms, 3 * traj.values)
        assert traj.values[-1] == len(seen) and traj.accepted.any() == (kind != "ncrs_vote")


def _counting_instrument(seen):
    """Keeps every point it reads; reads (sum of the point, reads so far)."""
    def instrument(theta):
        seen.append(theta)
        return float(theta.sum()), float(len(seen))
    return instrument


class TestInstrumentReads:
    """The instrument is read once per distinct iterate, not once per record."""

    def test_rejected_moves_reuse_the_reading(self):
        seen = []
        traj = ncrs_run(_FixedAnswerOracle(-1), np.arange(4.0), constant_schedule(0.5, 50),
                        _stream(212, "algorithm"), _counting_instrument(seen))
        assert len(seen) == 1
        assert len(traj.values) == 50
        assert np.all(traj.values == 6.0)
        assert np.all(traj.grad_norms == 1.0)

    def test_accepted_moves_read_once_per_record(self):
        seen = []
        traj = ncrs_run(_FixedAnswerOracle(1), np.zeros(4), constant_schedule(0.5, 50),
                        _stream(213, "algorithm"), _counting_instrument(seen))
        assert len(seen) == 50
        assert len({id(point) for point in seen}) == 50
        assert np.array_equal(traj.grad_norms, np.arange(1.0, 51.0))
        assert np.array_equal(traj.values, [float(point.sum()) for point in seen])

    def test_strided_log_of_a_rejecting_run_reads_once(self):
        horizon = FULL_LOG_HORIZON + 1
        seen = []
        traj = ncrs_run(_FixedAnswerOracle(-1), np.ones(2), constant_schedule(0.1, horizon),
                        _stream(214, "algorithm"), _counting_instrument(seen))
        assert log_stride(horizon) > 1
        assert len(seen) == 1
        assert traj.steps[-1] == horizon
        assert np.all(traj.values == 2.0)
        assert np.all(traj.grad_norms == 1.0)


class TestNcrsVoteRun:
    def test_all_abstain_never_moves(self):
        theta1 = np.ones(5)
        oracle = _SilentOracle()
        traj = ncrs_vote_run(oracle, theta1, constant_schedule(0.2, 40), 7,
                             _stream(220, "algorithm"))
        assert np.array_equal(traj.theta_final, theta1)
        assert not traj.accepted.any()
        assert oracle.query_count == 7 * 40

    def test_deterministic_link_is_greedy_descent(self):
        obj = _quadratic(221)
        theta1 = initial_point(obj, _stream(221, "init"))
        oracle = ConfidenceOracle(obj, "deterministic_link",
                                  LinkFunction(kind="logistic"),
                                  _stream(221, "oracle"))
        instrument = lambda th: (float(obj.value(th)), 0.0)
        traj = ncrs_vote_run(oracle, theta1, constant_schedule(0.1, 500), 3,
                             _stream(221, "algorithm"), instrument=instrument)
        assert np.all(np.diff(traj.values) <= 1e-12)
        assert float(obj.value(traj.theta_final)) < float(obj.value(theta1)) / 10.0

    def test_matches_independent_reimplementation(self):
        """Replay a noisy_engage run at 5 votes: same streams, hand-rolled loop."""
        obj = _quadratic(223)
        theta1 = initial_point(obj, _stream(223, "init"))
        link = LinkFunction(kind="logistic")
        traj = ncrs_vote_run(
            ConfidenceOracle(obj, "noisy_engage", link, _stream(223, "oracle")),
            theta1, constant_schedule(0.15, 300), 5, _stream(223, "algorithm"),
            instrument=_value_and_grad_norm(obj),
        )
        oracle = ConfidenceOracle(obj, "noisy_engage", link, _stream(223, "oracle"))
        gen = _stream(223, "algorithm")
        theta = theta1.copy()
        values, grad_norms, accepted = [], [], []
        for _ in range(300):
            values.append(float(obj.value(theta)))
            grad_norms.append(float(np.linalg.norm(obj.gradient(theta))))
            candidate = theta + 0.15 * gen.standard_normal(15)
            take = float(np.sum(oracle.compare_batch(theta, candidate, 5))) > 0.0
            accepted.append(take)
            if take:
                theta = candidate
        assert 0 < sum(accepted) < 300
        _assert_trajectory(traj, values, grad_norms, accepted, 5 * np.arange(1, 301), theta)

    @pytest.mark.parametrize(
        "inner, kind, votes, alpha, horizon, accept_rate, least_calls",
        [  # least_calls: (single calls, blocks) the run makes at least
            ("quadratic_cosine", "engage_abstain", 4, 0.02, 3000, (0.0, 0.05), (20, 100)),
            ("pure_quadratic", "deterministic_link", 1, 0.001, 20_000, (0.35, 0.5), (10_000, 50)),
        ],
        ids=["low_acceptance", "high_acceptance"],
    )
    def test_low_acceptance_run_matches_per_candidate_loop(
        self, inner, kind, votes, alpha, horizon, accept_rate, least_calls
    ):
        """A 3,000-iteration engage_abstain run that rejects almost every
        candidate, so most iterations are answered in blocks, and a
        20,000-iteration deterministic_link run that accepts about 42% of
        them, so most are single calls, each equal the hand-rolled loop with
        one compare_batch per candidate, field for field."""
        obj = random_ridge_objective(_stream(224, "subspace"), 50, 5, InnerFunction(kind=inner))
        theta1 = initial_point(obj, _stream(224, "init"))
        link = LinkFunction(kind="logistic")
        oracle = _BlockCountingOracle(obj, kind, link, _stream(224, "oracle"))
        traj = ncrs_vote_run(oracle, theta1, constant_schedule(alpha, horizon), votes,
                             _stream(224, "algorithm"), instrument=_value_and_grad_norm(obj))
        reference = ConfidenceOracle(obj, kind, link, _stream(224, "oracle"))
        gen = _stream(224, "algorithm")
        theta = theta1.copy()
        values, grad_norms, accepted = [], [], []
        for _ in range(horizon):
            values.append(float(obj.value(theta)))
            grad_norms.append(float(np.linalg.norm(obj.gradient(theta))))
            candidate = theta + alpha * gen.standard_normal(50)
            take = float(np.sum(reference.compare_batch(theta, candidate, votes))) > 0.0
            accepted.append(take)
            if take:
                theta = candidate
        low, high = accept_rate
        assert low * horizon < sum(accepted) < high * horizon
        least_singles, least_blocks = least_calls
        assert oracle.singles > least_singles and oracle.blocks > least_blocks
        _assert_trajectory(traj, values, grad_norms, accepted,
                           votes * np.arange(1, horizon + 1), theta)
        assert oracle.query_count == reference.query_count
        assert oracle.rng.random() == reference.rng.random()

    def test_block_answers_are_logged_per_iteration(self):
        """Accepts scripted at chosen iterations land in the strided log where
        they happen, whether a single call or a block answered them."""
        horizon = FULL_LOG_HORIZON + 1_000  # stride 11
        stride = log_stride(horizon)
        accepts = {3, 20, 23, 400, 401, 1 + 11 * 50, 1 + 11 * 50 + 30, horizon}
        oracle = _ScriptedOracle(accepts)
        seen = []
        traj = ncrs_vote_run(oracle, np.zeros(2), constant_schedule(0.1, horizon), 2,
                             _stream(225, "algorithm"), _counting_instrument(seen))
        assert oracle.block_accepts >= 3  # accepts that end long streaks fall in blocks
        assert np.array_equal(traj.steps[:-1], np.arange(1, horizon, stride))
        assert np.array_equal(traj.accepted, [t in accepts for t in traj.steps])
        assert np.array_equal(traj.queries, 2 * traj.steps)
        # the reading at a logged t is of theta before the t-th move, read
        # once per distinct iterate: the reading count is the iterate's rank
        moves_before = np.searchsorted(sorted(accepts), traj.steps)
        distinct, rank = np.unique(moves_before, return_inverse=True)
        assert np.array_equal(traj.grad_norms, 1.0 + rank)
        assert len(seen) == len(distinct)

    def test_block_rows_shrink_as_votes_grow(self):
        """A block draws uniforms per query, so it holds at most
        BLOCK_QUERIES // votes rows: 4 at 2**18 votes, still 64 at 64 votes."""

        class _Recording(_SilentOracle):
            def __init__(self):
                super().__init__()
                self.blocks = []  # rows of each first_preferred call

            def first_preferred(self, x, ys, n):
                self.blocks.append(len(ys))
                return super().first_preferred(x, ys, n)

        for votes, rows in ((2**18, 4), (64, 64)):
            oracle = _Recording()
            traj = ncrs_vote_run(oracle, np.zeros(3), constant_schedule(0.1, 200), votes,
                                 _stream(227, "algorithm"))
            assert max(oracle.blocks) == rows
            assert traj.total_queries == oracle.query_count == 200 * votes

    def test_streaks_go_to_blocks_sized_by_the_acceptance_estimate(self):
        """The estimate q of the acceptance rate starts at 1 and weighs each
        iteration ACCEPT_WEIGHT.  While q >= 1 / BLOCK_SPAN each candidate
        gets its own compare_batch call; once q is below, each call is a
        block of ceil(BLOCK_SPAN / q) rows, at most BLOCK_ROWS,
        BLOCK_QUERIES // votes and the iterations left."""
        assert (algorithms.ACCEPT_WEIGHT, algorithms.BLOCK_SPAN) == (1 / 16, 4)
        assert algorithms.BLOCK_ROWS == 64 and algorithms.BLOCK_QUERIES // 2**18 == 4

        def calls(accepts, horizon, votes=2):
            oracle = _ScriptedOracle(accepts)
            traj = ncrs_vote_run(oracle, np.zeros(2), constant_schedule(0.1, horizon), votes,
                                 _stream(229, "algorithm"))
            assert np.array_equal(np.flatnonzero(traj.accepted) + 1, sorted(accepts))
            return oracle.calls

        # q = (15/16)**t after t rejections: 0.258 at t = 21, 0.242 at t = 22,
        # so iteration 23 starts a block of ceil(4 / 0.242) = 17 rows; q is
        # then 0.081 (50 rows), then below 4 / 64.
        assert calls(set(), 200) == ["single"] * 22 + [17, 50, 64, 47]
        assert calls(set(), 200, votes=2**18) == ["single"] * 22 + [4] * 44 + [2]
        # Accepting every other candidate keeps q near 1/2: no block at all.
        assert calls(set(range(2, 201, 2)), 200) == ["single"] * 200
        # An accept ends its block (iteration 40, the first row) and raises q
        # to 0.138, still below 1/4: the next call is a block of
        # ceil(4 / 0.138) = 29 rows, and the horizon cuts the one after.
        assert calls({40}, 100) == ["single"] * 22 + [17, 50, 29, 31]

    def test_a_miscounting_oracle_is_an_error(self):
        class _Miscounting(_SilentOracle):
            def first_preferred(self, x, ys, n):
                return len(ys)

        with pytest.raises(RuntimeError, match="queries"):
            ncrs_vote_run(_Miscounting(), np.zeros(3), constant_schedule(0.1, 40), 2,
                          _stream(226, "algorithm"))

    def test_validation(self):
        oracle = _SilentOracle()
        sched = constant_schedule(0.1, 10)
        with pytest.raises(ValueError):
            ncrs_vote_run(oracle, np.zeros(3), sched, 0, _stream(0, "a"))
        for bad in (2.5, 3.0, True, "3"):
            with pytest.raises(ValueError, match="votes must be a positive integer"):
                ncrs_vote_run(oracle, np.zeros(3), sched, bad, _stream(0, "a"))
        traj = ncrs_vote_run(oracle, np.zeros(3), sched, np.int64(3), _stream(0, "a"))
        assert traj.total_queries == 30
        for bad in (np.zeros((2, 3)), np.zeros(0)):
            with pytest.raises(ValueError, match="non-empty 1-D vector"):
                ncrs_vote_run(oracle, bad, sched, 5, _stream(0, "a"))


class TestRsgfRun:
    def test_matches_manual_replay(self):
        obj = _quadratic(230, d=8, k=3)
        theta1 = initial_point(obj, _stream(230, "init"))
        alpha, mu = 0.02, 1e-4
        traj = rsgf_run(obj.value, theta1, constant_schedule(alpha, 50), mu,
                        _stream(230, "algorithm"), instrument=_value_and_grad_norm(obj))
        gen = _stream(230, "algorithm")
        theta = theta1.copy()
        values, grad_norms = [], []
        for _ in range(50):
            values.append(float(obj.value(theta)))
            grad_norms.append(float(np.linalg.norm(obj.gradient(theta))))
            s = gen.standard_normal(8)
            slope = (float(obj.value(theta + mu * s)) - float(obj.value(theta))) / mu
            theta = theta - alpha * slope * s
        _assert_trajectory(traj, values, grad_norms, [True] * 50, 2 * np.arange(1, 51), theta)

    def test_stays_near_stationary_point(self):
        obj = _quadratic(231, d=10, k=3)
        sched = constant_schedule(rsgf_stable_step(1.0, 3), 200)
        traj = rsgf_run(obj.value, np.zeros(10), sched, 1e-8, _stream(231, "algorithm"))
        assert np.linalg.norm(traj.theta_final) < 1e-5

    def test_descends_at_stable_step(self):
        obj = _quadratic(232, d=10, k=3)
        theta1 = initial_point(obj, _stream(232, "init"))
        sched = constant_schedule(rsgf_stable_step(1.0, 3), 3000)
        traj = rsgf_run(obj.value, theta1, sched, 1e-5, _stream(232, "algorithm"))
        assert float(obj.value(traj.theta_final)) < float(obj.value(theta1)) / 10.0

    def test_mean_update_is_negative_gradient(self):
        """E[(f(x+mu s)-f(x))/mu * s] = grad f(x) for the quadratic, checked to
        5 SE per coordinate at 2*10^5 draws."""
        obj = _quadratic(233, d=8, k=3)
        theta = 2.0 * obj.active.basis[0]
        grad = obj.gradient(theta)
        gen = _stream(233, "test:mc")
        mu, n = 1e-3, 200_000
        s = gen.standard_normal((n, 8))
        slope = (obj.value(theta + mu * s) - float(obj.value(theta))) / mu
        est = slope[:, None] * s
        mean = est.mean(axis=0)
        se = est.std(axis=0, ddof=1) / math.sqrt(n)
        assert np.all(np.abs(mean - grad) <= 5 * se + 1e-12)

    def test_validation(self):
        sched = constant_schedule(0.1, 10)
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                rsgf_run(lambda x: 0.0, np.zeros(3), sched, bad, _stream(0, "a"))
        for bad in (np.zeros((2, 3)), np.zeros(0)):
            with pytest.raises(ValueError, match="non-empty 1-D vector"):
                rsgf_run(lambda x: 0.0, bad, sched, 1e-4, _stream(0, "a"))


class TestRunnerContract:
    """Every runner takes its dimension from theta1 and its horizon from the
    schedule; the shape checks are in each runner's test_validation."""

    RUNS = {  # kind -> (runner of (theta1, schedule, rng), queries per iteration)
        "ncrs": (lambda *args: ncrs_run(_FixedAnswerOracle(1), *args), 1),
        "ncrs_vote": (lambda x, sched, rng: ncrs_vote_run(_SilentOracle(), x, sched, 3, rng), 3),
        "rsgf": (lambda x, sched, rng: rsgf_run(lambda y: float(y.sum()), x, sched, 1e-4, rng), 2),
    }

    @pytest.mark.parametrize("kind", RUNS)
    @pytest.mark.parametrize("size, horizon", [(1, 1), (5, 7), (3, 40)])
    def test_runs_the_schedule_horizon_in_the_start_dimension(
        self, kind, size, horizon, monkeypatch
    ):
        """One direction row of the start's size per iteration, whether a
        single draw (gaussian_vector) or a block's slice (DrawAhead.rows)
        hands it over."""
        drawn = []  # the shape of each handed-over direction row
        single, rows = algorithms.gaussian_vector, DrawAhead.rows
        monkeypatch.setattr(
            algorithms, "gaussian_vector", lambda rng, n: drawn.append((n,)) or single(rng, n)
        )

        def block_rows(draws, count):
            block = rows(draws, count)
            drawn.extend(row.shape for row in block)
            return block

        monkeypatch.setattr(DrawAhead, "rows", block_rows)
        run, per_iteration = self.RUNS[kind]
        traj = run(np.ones(size), constant_schedule(0.1, horizon), _stream(215, "algorithm"))
        assert drawn == [(size,)] * horizon
        assert np.array_equal(traj.steps, np.arange(1, horizon + 1))
        assert np.array_equal(traj.queries, per_iteration * np.arange(1, horizon + 1))
        assert traj.theta_final.shape == (size,)

    @pytest.mark.parametrize("kind", RUNS)
    def test_a_start_point_that_is_not_finite_raises_before_any_draw(self, kind):
        obj = _quadratic(216, d=12, k=3)
        link = LinkFunction(kind="logistic")
        oracle = (SignOracle(obj, 0.2, _stream(216, "oracle")) if kind == "ncrs" else
                  ConfidenceOracle(obj, "noisy_engage", link, _stream(216, "oracle")))
        values = []

        def value(x):
            values.append(x)
            return obj.value(x)

        sched = constant_schedule(0.1, 100)
        run = {
            "ncrs": lambda x, rng: ncrs_run(oracle, x, sched, rng),
            "ncrs_vote": lambda x, rng: ncrs_vote_run(oracle, x, sched, 3, rng),
            "rsgf": lambda x, rng: rsgf_run(value, x, sched, 1e-4, rng),
        }[kind]
        one_inf = np.ones(12)
        one_inf[4] = -math.inf
        rng = _stream(216, "algorithm")
        for bad in (np.full(12, math.nan), one_inf, np.array([1.0, math.nan])):
            with pytest.raises(ValueError, match="theta1 must have finite coordinates"):
                run(bad, rng)
        assert oracle.query_count == 0 and values == []
        assert rng.random() == _stream(216, "algorithm").random()
        assert oracle.rng.random() == _stream(216, "oracle").random()


class TestDrawAhead:
    """_search draws its directions in blocks, every block after the first
    read ahead on one helper thread; the rows and the stream's end state are
    those of sequential draws, and no thread outlives the run."""

    D = 3000  # 32,768 // 3000 = 10 rows a block, with 2,768 normals to spare

    @staticmethod
    def _search(d, horizon, rng, move):
        return algorithms._search(np.zeros(d), constant_schedule(0.1, horizon), rng, None, move, 1)

    @pytest.mark.parametrize("d, horizon", [(D, 35), (50, 2000)])  # >= 3 blocks each
    def test_directions_and_end_state_match_sequential_draws(self, d, horizon):
        block = geometry.DRAW_AHEAD_NORMALS // d
        assert geometry.DRAW_AHEAD_NORMALS % d and horizon > 3 * block
        handed = []

        def move(step, theta, direction):
            handed.append(direction.copy())
            return theta, False

        rng = _stream(250, "algorithm")
        self._search(d, horizon, rng, move)
        fresh = _stream(250, "algorithm")
        assert len(handed) == horizon
        for direction in handed:
            assert np.array_equal(direction, gaussian_vector(fresh, d))
        assert np.array_equal(rng.standard_normal(7), fresh.standard_normal(7))

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_a_raising_move_stops_the_helper(self, error):
        before = threading.active_count()
        running = []  # thread counts seen by the move

        def move(step, theta, direction):
            if len(running) == 4:
                raise error("move failed at iteration 5")
            running.append(threading.active_count())
            return theta, False

        with pytest.raises(error, match="iteration 5"):
            self._search(self.D, 1000, _stream(251, "algorithm"), move)
        assert running == [before + 1] * 4
        assert threading.active_count() == before

    def test_only_a_multi_block_run_starts_a_thread(self, monkeypatch):
        started = []
        thread = threading.Thread
        monkeypatch.setattr(
            threading, "Thread", lambda *a, **kw: started.append(1) or thread(*a, **kw)
        )
        before = threading.active_count()
        for d in (50, self.D):
            block = geometry.DRAW_AHEAD_NORMALS // d
            for horizon, threads in [(block, 0), (block + 1, 1)]:
                started.clear()
                self._search(d, horizon, _stream(252, "algorithm"), lambda step, x, s: (x, False))
                assert len(started) == threads, (d, horizon)
                assert threading.active_count() == before, (d, horizon)

    def test_rows_equal_row_draws_across_block_boundaries(self):
        """rows(count) hands over what count single draws would, in one
        array, across one or two block boundaries; a run of rows that fits
        in the block is a view of it, and the stream ends where row draws
        leave it."""
        rng = _stream(254, "algorithm")
        draws = DrawAhead(rng, self.D, 35)  # blocks of 10, 10, 10 and 5 rows
        try:
            handed = [gaussian_vector(draws, self.D)[None], draws.rows(7), draws.rows(15),
                      gaussian_vector(draws, self.D)[None], draws.rows(11)]
            with pytest.raises(RuntimeError, match="no rows left"):
                draws.rows(1)
        finally:
            draws.close()
        assert [len(rows) for rows in handed] == [1, 7, 15, 1, 11]
        assert not handed[1].flags.owndata and handed[2].flags.owndata  # a view, then a copy
        fresh = _stream(254, "algorithm")
        expected = np.array([gaussian_vector(fresh, self.D) for _ in range(35)])
        assert np.array_equal(np.concatenate(handed), expected)
        assert rng.random() == fresh.random()

    def test_guards(self):
        rng = _stream(253, "algorithm")
        for size, rows in ((0, 5), (5, 0)):
            with pytest.raises(ValueError, match="need size >= 1 and rows >= 1"):
                DrawAhead(rng, size, rows)
        draws = DrawAhead(rng, 5, 2)
        with pytest.raises(ValueError, match="read ahead for size 5, not 4"):
            gaussian_vector(draws, 4)
        gaussian_vector(draws, 5)
        gaussian_vector(draws, 5)
        with pytest.raises(RuntimeError, match="no rows left"):
            gaussian_vector(draws, 5)
        draws = DrawAhead(rng, self.D, 25)  # three blocks; the helper draws two
        draws.close()
        for _ in range(10):
            gaussian_vector(draws, self.D)
        with pytest.raises(RuntimeError, match="read-ahead was closed"):
            gaussian_vector(draws, self.D)

    def test_a_helper_error_is_raised_at_the_next_draw(self):
        class FailingGenerator:
            """Fills the caller's first block, fails the helper's first and
            fills its second."""

            def __init__(self):
                self.calls = 0

            def standard_normal(self, shape):
                self.calls += 1
                if self.calls == 2:
                    raise MemoryError("helper fill failed")
                return np.zeros(shape)

        rng = FailingGenerator()
        before = threading.active_count()
        draws = DrawAhead(rng, self.D, 25)
        try:
            for _ in range(10):
                gaussian_vector(draws, self.D)
            with pytest.raises(MemoryError, match="helper fill failed"):
                gaussian_vector(draws, self.D)
            with pytest.raises(RuntimeError, match="no rows left"):
                gaussian_vector(draws, self.D)  # not the rows of a later block
        finally:
            draws.close()
        assert threading.active_count() == before


class _RecordingSignOracle(SignOracle):
    """Sign oracle that keeps every point it is asked about."""

    def __init__(self, *args):
        super().__init__(*args)
        self.points = []

    def compare(self, x, y):
        self.points += [x, y]
        return super().compare(x, y)


class _RecordingConfidenceOracle(ConfidenceOracle):
    def __init__(self, *args):
        super().__init__(*args)
        self.points = []

    def compare_batch(self, x, y, n):
        self.points += [x, y]
        return super().compare_batch(x, y, n)

    def first_preferred(self, x, ys, n):
        """Keeps x and the block, after checking that the block is read-only."""
        assert not ys.flags.writeable
        with pytest.raises(ValueError):
            ys.flags.writeable = True
        self.points += [x, ys]
        return super().first_preferred(x, ys, n)


def _evaluating_instrument(obj, seen):
    """The harness's instrument, keeping the points it reads."""
    def instrument(theta):
        seen.append(theta)
        return obj.value(theta), float(np.linalg.norm(obj.gradient(theta)))
    return instrument


def _run(kind, obj, horizon, instrument):
    theta1 = initial_point(obj, _stream(240, "init"))
    rng = _stream(240, "algorithm")
    if kind == "ncrs":
        oracle = _RecordingSignOracle(obj, 0.3, _stream(240, "oracle"))
        traj = ncrs_run(oracle, theta1, constant_schedule(0.2, horizon), rng, instrument)
    elif kind == "ncrs_vote":
        oracle = _RecordingConfidenceOracle(obj, "noisy_engage", LinkFunction(kind="logistic"),
                                            _stream(240, "oracle"))
        traj = ncrs_vote_run(oracle, theta1, constant_schedule(0.2, horizon), 3, rng, instrument)
    else:
        oracle = None
        traj = rsgf_run(obj.value, theta1, constant_schedule(0.02, horizon), 1e-4, rng,
                        instrument)
    return traj, oracle


class TestSharedEvaluation:
    """The points the loop hands out are sealed, so values can be shared."""

    @pytest.mark.parametrize("kind", ["ncrs", "ncrs_vote"])
    def test_one_value_per_iteration_with_an_instrument(self, kind, monkeypatch):
        computed = []  # objective values computed, not answered from memory
        original = InnerFunction.value
        monkeypatch.setattr(
            InnerFunction, "value", lambda inner, z: computed.append(1) or original(inner, z)
        )
        obj = _quadratic(241)
        _run(kind, obj, 200, _evaluating_instrument(obj, []))
        assert 0 < len(computed) <= 200 + 1

    @pytest.mark.parametrize("kind", ["ncrs", "ncrs_vote", "rsgf"])
    def test_points_handed_out_are_read_only(self, kind):
        obj = _quadratic(242)
        seen = []
        _, oracle = _run(kind, obj, 30, _evaluating_instrument(obj, seen))
        points = seen + (oracle.points if oracle is not None else [])
        assert len(points) >= 30
        for point in points:
            with pytest.raises(ValueError):
                point[0] = 1.0
            with pytest.raises(ValueError):
                point.flags.writeable = True

    def test_vote_blocks_are_read_only(self):
        obj = _quadratic(244)
        _, oracle = _run("ncrs_vote", obj, 300, None)
        blocks = [point for point in oracle.points if point.ndim == 2]
        assert len(blocks) > 10  # each checked read-only by the recorder
        for block in blocks:
            with pytest.raises(ValueError):
                block[0, 0] = 1.0

    @pytest.mark.parametrize("kind", ["ncrs", "ncrs_vote", "rsgf"])
    def test_theta_final_is_writeable(self, kind):
        obj = _quadratic(243)
        traj, _ = _run(kind, obj, 30, None)
        traj.theta_final[0] = 1.0


class TestRsgfStableStep:
    def test_value(self):
        assert rsgf_stable_step(1.0, 10) == 1.0 / 48.0
        assert rsgf_stable_step(2.0, 3) == 1.0 / 40.0

    def test_validation(self):
        with pytest.raises(ValueError):
            rsgf_stable_step(0.0, 3)
        with pytest.raises(ValueError):
            rsgf_stable_step(1.0, 0)
        for bad in (2.5, True, 3.0, None):
            with pytest.raises(ValueError, match="intrinsic_dim must be a positive integer"):
                rsgf_stable_step(1.0, bad)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                rsgf_stable_step(bad, 3)


class TestVoteParams:
    def test_frozen_instance(self):
        """Recomputed by hand for eps=0.1, L=1, k=4, gap=10, c=1, C=1, rho_r=0.5."""
        params = vote_params(
            epsilon=0.1, smoothness=1.0, intrinsic_dim=4, value_gap=10.0,
            margin_slope=1.0, second_moment_bound=1.0, margin_at_radius=0.5,
        )
        assert_allclose(params.step_size, 0.002216346002230182, rtol=1e-15)
        assert params.horizon == 678585
        assert params.votes == 83213
        assert params.total_comparisons == 678585 * 83213

    def test_second_arm_can_dominate(self):
        # a tiny margin at the certified radius forces the floor arm of N
        params = vote_params(
            epsilon=0.5, smoothness=1.0, intrinsic_dim=1, value_gap=1.0,
            margin_slope=1.0, second_moment_bound=1.0, margin_at_radius=1e-3,
        )
        expected = math.ceil((10.0 / 3.0) * math.log(2.0) / 1e-3)
        assert params.votes == expected == 2311

    def test_monotonicities(self):
        base = dict(smoothness=1.0, intrinsic_dim=4, value_gap=10.0,
                    margin_slope=1.0, second_moment_bound=1.0, margin_at_radius=0.5)
        tight = vote_params(epsilon=0.05, **base)
        loose = vote_params(epsilon=0.2, **base)
        assert tight.horizon > loose.horizon
        assert tight.votes > loose.votes
        assert tight.step_size < loose.step_size
        harder = vote_params(epsilon=0.1, **{**base, "intrinsic_dim": 8})
        easier = vote_params(epsilon=0.1, **base)
        assert harder.horizon > easier.horizon
        assert harder.step_size < easier.step_size

    def test_validation(self):
        good = dict(epsilon=0.1, smoothness=1.0, intrinsic_dim=4, value_gap=10.0,
                    margin_slope=1.0, second_moment_bound=1.0, margin_at_radius=0.5)
        for key, bad in [
            ("epsilon", 0.0), ("epsilon", 1.0), ("epsilon", 1.5),
            ("smoothness", 0.0), ("intrinsic_dim", 0), ("value_gap", 0.0),
            ("margin_slope", 0.0), ("second_moment_bound", 0.5),
            ("margin_at_radius", 0.0), ("margin_at_radius", 1.2),
            ("intrinsic_dim", 2.5), ("intrinsic_dim", True), ("intrinsic_dim", 4.0),
            ("intrinsic_dim", 10**400),
        ]:
            with pytest.raises(ValueError):
                vote_params(**{**good, key: bad})
