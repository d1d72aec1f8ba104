import functools
import hashlib
import json
import math
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import NUMPY_TARGETS, pin_pairs, pinned
from numpy.testing import assert_allclose

from ncrs.diagnostics import (
    _MC_CHUNK,
    _bound,
    _cross_moment,
    _equality,
    _gaussian_reports,
    _halfnormal,
    _mc_mean_se,
    _mean_se,
    _merge,
    _moments,
    _projector_moments,
    _row_chunks,
    _two_lane_mean_se,
    check_cross_moment,
    check_descent_ncrs,
    check_grad_fd,
    check_halfnormal,
    check_link_reduction,
    check_projector_moments,
    check_vote_error,
    check_vote_penalty,
    run_default_suite,
)
from ncrs.geometry import RngStream, gaussian_vector, random_subspace, stream_id_for
from ncrs.objectives import (
    InnerFunction,
    RidgeObjective,
    initial_point,
    random_ridge_objective,
)
from ncrs.oracles import ConfidenceOracle, LinkFunction, SignOracle


# counts every check refuses: a float, a bool and zero
BAD_COUNTS = (2.5, True, 0)


SUITE_SEEDS = (0, 7)
# (OpenBLAS kernel, numpy SIMD target) -> seed -> sha256 of
# run_default_suite(seed, 0.02)'s JSON.  Kernels sum products in different
# orders, and numpy's AVX-512 loops move a last bit under the Haswell kernel,
# so each pair pins its own bytes (test_kernels.py checks the pins of every
# pair this CPU can run).
SUITE_DIGESTS = pin_pairs(
    (("SkylakeX",), NUMPY_TARGETS, {
        0: "21019a28e1b57bc751417d61c476768e95260d2326363e42b283c11ad73d1ded",
        7: "dc56458308c19568a4ac429e8f541ebdaf0ae0e4228254986b72d7bf25615161",
    }),
    (("Haswell",), ("X86_V2", "X86_V3"), {
        0: "fc275beba106bff00912c44e428afd1377458231452871d0a5ae173bee0c67ea",
        7: "d339fdf0755c8f50bf958c8a2e2b9d312b8fd6f4267e897e079d2ffafa7fb6b6",
    }),
    (("Haswell",), ("X86_V4", "AVX512_ICL", "AVX512_SPR"), {
        0: "1790ea7ccf83712f9893069f7685bbc6f12da84b43daceadd7b634ec9b179a87",
        7: "d339fdf0755c8f50bf958c8a2e2b9d312b8fd6f4267e897e079d2ffafa7fb6b6",
    }),
    (("Sandybridge",), NUMPY_TARGETS, {
        0: "151247d0c78170280c63e1a3650978af3d5a47d003ae6afb5c3b69dddb593a00",
        7: "3543d933183a170da78141dab52207bb0aef7907d8293dd5de0f23387a7d12a9",
    }),
    (("Prescott",), NUMPY_TARGETS, {
        0: "573e671579ebdf7fc5949be9b85c9c076a29aab4a4c2d6ca2130be9e7fc32e05",
        7: "82779f0ddbdf85574f58bde8319ad092756a5f1ce286019139e379bf025c490e",
    }),
)


def suite_digest(seed):
    """sha256 of the JSON reports of run_default_suite(seed, scale=0.02)."""
    payload = json.dumps([r.to_json() for r in run_default_suite(seed, scale=0.02)],
                         sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def _stream(seed, tag):
    return RngStream(seed, stream_id_for(0, tag))


def _objective(seed, d, k, kind="pure_quadratic", tau=0.0, m=0):
    return random_ridge_objective(
        _stream(seed, "subspace"), d, k, InnerFunction(kind=kind),
        tau=tau, nuisance_dim=m,
        nuisance_rng=_stream(seed, "nuisance") if tau > 0 else None,
    )


class TestProjectorMoments:
    @pytest.mark.parametrize("k,theory", [
        (1, (1.0, 3.0, 15.0)),
        (2, (2.0, 8.0, 48.0)),
        (7, (7.0, 63.0, 693.0)),
    ])
    def test_theory_values_and_pass(self, k, theory):
        """Frozen chi-square moments k, k(k+2), k(k+2)(k+4)."""
        space = random_subspace(_stream(300 + k, "subspace"), 20, k)
        report = check_projector_moments(space, 200_000, _stream(300 + k, "mc"))
        assert (
            report.theory["second"],
            report.theory["fourth"],
            report.theory["sixth"],
        ) == theory
        assert report.passed
        assert report.n_samples == 200_000

    def test_validation(self):
        space = random_subspace(_stream(0, "subspace"), 5, 2)
        with pytest.raises(ValueError):
            check_projector_moments(space, 1, _stream(0, "mc"))
        for bad in BAD_COUNTS:
            with pytest.raises(ValueError, match="n must be a positive integer"):
                check_projector_moments(space, bad, _stream(0, "mc"))


class TestCrossMoment:
    def test_vector_in_range(self):
        space = random_subspace(_stream(310, "subspace"), 18, 4)
        a = 2.0 * space.basis[0]
        report = check_cross_moment(space, a, 200_000, _stream(310, "mc"))
        # P a = a so the theory collapses to (k + 2) ||a||^2
        assert_allclose(report.theory["cross_moment"], 6.0 * 4.0, rtol=1e-12)
        assert report.passed

    def test_vector_orthogonal_to_range(self):
        space = random_subspace(_stream(311, "subspace"), 18, 4)
        a = _stream(311, "dir").standard_normal(18)
        a = a - space.project(a)
        report = check_cross_moment(space, a, 200_000, _stream(311, "mc"))
        assert_allclose(
            report.theory["cross_moment"], 4.0 * float(a @ a), rtol=1e-10
        )
        assert report.passed

    def test_general_vector(self):
        space = random_subspace(_stream(312, "subspace"), 18, 4)
        a = _stream(312, "dir").standard_normal(18)
        expected = 4.0 * float(a @ a) + 2.0 * float(a @ space.project(a))
        report = check_cross_moment(space, a, 200_000, _stream(312, "mc"))
        assert_allclose(report.theory["cross_moment"], expected, rtol=1e-12)
        assert report.passed

    def test_a_matrix_raises_before_any_draw(self):
        space = random_subspace(_stream(324, "subspace"), 6, 2)
        rng = _stream(324, "mc")
        with pytest.raises(ValueError, match=r"a must be a nonempty 1-D vector, got shape \(2, 6\)"):
            check_cross_moment(space, np.ones((2, 6)), 1000, rng)
        assert rng.random() == _stream(324, "mc").random()

    @pytest.mark.parametrize("size", [5, 7])
    def test_an_a_of_another_length_raises_before_any_draw(self, size):
        space = random_subspace(_stream(325, "subspace"), 6, 2)
        rng = _stream(325, "mc")
        with pytest.raises(ValueError, match=f"a has {size} entries; the subspace's "
                                             "ambient dimension is 6"):
            check_cross_moment(space, np.ones(size), 1000, rng)
        assert rng.random() == _stream(325, "mc").random()


class TestHalfnormal:
    def test_theory_and_pass(self):
        g = _stream(320, "dir").standard_normal(12) * 1.7
        report = check_halfnormal(g, 200_000, _stream(320, "mc"))
        assert_allclose(
            report.theory["abs_mean"],
            0.7978845608028654 * float(np.linalg.norm(g)),
            rtol=1e-12,
        )
        assert report.passed

    def test_zero_vector_degenerate(self):
        report = check_halfnormal(np.zeros(5), 2000, _stream(321, "mc"))
        assert report.passed
        assert report.estimates["abs_mean"] == 0.0

    def test_a_vector_that_is_not_finite_raises_before_any_draw(self):
        space = random_subspace(_stream(322, "subspace"), 6, 2)
        rng = _stream(322, "mc")
        for bad in (math.nan, math.inf, -math.inf):
            v = np.ones(6)
            v[2] = bad
            with pytest.raises(ValueError, match="g must be finite"):
                check_halfnormal(v, 100, rng)
            with pytest.raises(ValueError, match="a must be finite"):
                check_cross_moment(space, v, 100, rng)
        assert rng.random() == _stream(322, "mc").random()

    @pytest.mark.parametrize("g,shape", [
        (np.ones((2, 3)), r"\(2, 3\)"), (np.float64(1.5), r"\(\)"), (np.zeros(0), r"\(0,\)"),
    ], ids=["matrix", "scalar", "empty"])
    def test_a_g_that_is_not_a_vector_raises_before_any_draw(self, g, shape):
        rng = _stream(323, "mc")
        with pytest.raises(ValueError, match=f"g must be a nonempty 1-D vector, got shape {shape}"):
            check_halfnormal(g, 1000, rng)
        assert rng.random() == _stream(323, "mc").random()


class TestDescentNcrs:
    def test_passes_on_quadratic(self):
        obj = _objective(330, 10, 3)
        theta = initial_point(obj, _stream(330, "init"))
        report = check_descent_ncrs(obj, 0.5, theta, 0.1, 20_000, _stream(330, "mc"))
        assert report.passed
        assert report.theory["nuisance_term"] == 0.0
        assert report.theory["lhs"] > 0

    def test_passes_on_rough_inner_and_weak_oracle(self):
        obj = _objective(331, 12, 4, kind="quadratic_cosine")
        theta = initial_point(obj, _stream(331, "init"))
        report = check_descent_ncrs(obj, 0.1, theta, 0.05, 20_000, _stream(331, "mc"))
        assert report.passed

    def test_passes_with_nuisance_term(self):
        obj = _objective(332, 15, 4, tau=0.3, m=3)
        theta = initial_point(obj, _stream(332, "init"))
        report = check_descent_ncrs(obj, 0.5, theta, 0.05, 20_000, _stream(332, "mc"))
        assert report.passed
        assert_allclose(
            report.theory["nuisance_term"], 2.0 * 0.3 * 0.05 * math.sqrt(3), rtol=1e-12
        )

    def test_tiny_step_is_graceful(self):
        obj = _objective(333, 10, 3)
        theta = initial_point(obj, _stream(333, "init"))
        report = check_descent_ncrs(obj, 0.5, theta, 1e-6, 2_000, _stream(333, "mc"))
        assert np.isfinite(report.estimates["rhs"])
        assert report.passed

    def test_se_band_parameter_is_used(self):
        obj = _objective(334, 10, 3)
        theta = initial_point(obj, _stream(334, "init"))
        report = check_descent_ncrs(
            obj, 0.5, theta, 0.1, 2_000, _stream(334, "mc"), se_band=4.0
        )
        assert "4.0 SE" in report.rule

    def test_validation(self):
        obj = _objective(335, 10, 3)
        with pytest.raises(ValueError):
            check_descent_ncrs(obj, 0.5, np.zeros(10), 0.1, 1, _stream(335, "mc"))
        for bad in BAD_COUNTS:
            with pytest.raises(ValueError, match="n must be a positive integer"):
                check_descent_ncrs(obj, 0.5, np.zeros(10), 0.1, bad, _stream(335, "mc"))
        rng = _stream(335, "mc")
        for alpha in (math.nan, math.inf, 0.0, -0.1):
            with pytest.raises(ValueError, match="alpha must be finite and positive"):
                check_descent_ncrs(obj, 0.5, np.zeros(10), alpha, 100, rng)
        for bad in (math.nan, math.inf):
            theta = np.zeros(10)
            theta[3] = bad
            with pytest.raises(ValueError, match="theta must be finite"):
                check_descent_ncrs(obj, 0.5, theta, 0.1, 100, rng)
        assert rng.random() == _stream(335, "mc").random()


class TestVoteError:
    def _oracle(self, seed, kind, d=12, k=4, inner="pure_quadratic"):
        obj = _objective(seed, d, k, kind=inner)
        return ConfidenceOracle(
            obj, kind, LinkFunction(kind="logistic"), _stream(seed, "oracle")
        )

    def test_deterministic_link_never_wrong(self):
        oracle = self._oracle(340, "deterministic_link")
        report = check_vote_error(oracle, 0.4, 5, 2_000)
        assert report.estimates["wrong_decision_freq"] == 0.0
        assert report.passed

    def test_realized_gap_matches_request(self, monkeypatch):
        """The check scores the requested gap itself: its report states that
        gap exactly, and it never evaluates the oracle's objective."""
        oracles = [
            self._oracle(341, "deterministic_link", inner=inner)
            for inner in ("pure_quadratic", "quadratic_cosine", "bounded_well")
        ]
        value_calls = []
        value = RidgeObjective.value
        monkeypatch.setattr(
            RidgeObjective, "value", lambda obj, x: value_calls.append(x) or value(obj, x)
        )
        for oracle in oracles:
            for gap in (0.7, 0.1 + 0.2, 5.0):
                report = check_vote_error(oracle, gap, 1, 10)
                assert report.theory["gap"] == gap
        assert value_calls == []

    def test_engage_abstain_matches_analytic_frequency(self):
        """Every engaged vote is correct here, so the vote errs exactly when
        all N votes abstain: frequency (1 - rho)^N, checked to 4 binomial SE,
        and below the certified exp bound."""
        oracle = self._oracle(342, "engage_abstain")
        gap, votes, trials = 0.4, 25, 10_000
        report = check_vote_error(oracle, gap, votes, trials)
        rho = float(oracle.link.rho(report.theory["gap"]))
        exact = (1.0 - rho) ** votes
        se = math.sqrt(exact * (1.0 - exact) / trials)
        assert abs(report.estimates["wrong_decision_freq"] - exact) < 4 * se
        assert exact <= report.theory["bound"]
        assert report.passed

    def test_noisy_engage_passes(self):
        oracle = self._oracle(343, "noisy_engage")
        report = check_vote_error(oracle, 0.4, 25, 10_000)
        assert report.passed

    def test_validation(self):
        oracle = self._oracle(345, "engage_abstain")
        for bad in BAD_COUNTS:
            with pytest.raises(ValueError, match="votes must be a positive integer"):
                check_vote_error(oracle, 0.4, bad, 10)
            with pytest.raises(ValueError, match="trials must be a positive integer"):
                check_vote_error(oracle, 0.4, 5, bad)
        twin = _stream(345, "oracle")  # the oracle's stream, untouched
        for bad in (math.nan, math.inf, 0.0, -0.4):
            with pytest.raises(ValueError, match="gap must be finite and positive"):
                check_vote_error(oracle, bad, 5, 10)
            assert oracle.query_count == 0
            assert oracle.rng.random() == twin.random()


class TestVotePenalty:
    def test_passes(self):
        obj = _objective(350, 12, 4)
        oracle = ConfidenceOracle(
            obj, "engage_abstain", LinkFunction(kind="logistic"), _stream(350, "oracle")
        )
        theta = initial_point(obj, _stream(350, "init"))
        report = check_vote_penalty(oracle, theta, 0.05, 16, 5_000, _stream(350, "mc"))
        assert report.passed
        assert report.theory["bound"] > 0

    def test_validation(self):
        obj = _objective(351, 12, 4)
        oracle = ConfidenceOracle(
            obj, "engage_abstain", LinkFunction(kind="logistic"), _stream(351, "oracle")
        )
        with pytest.raises(ValueError):
            check_vote_penalty(oracle, np.zeros(12), 0.05, 16, 1, _stream(351, "mc"))
        for bad in BAD_COUNTS:
            with pytest.raises(ValueError, match="votes must be a positive integer"):
                check_vote_penalty(oracle, np.zeros(12), 0.05, bad, 10, _stream(351, "mc"))
            with pytest.raises(ValueError, match="trials must be a positive integer"):
                check_vote_penalty(oracle, np.zeros(12), 0.05, 16, bad, _stream(351, "mc"))
        rng = _stream(351, "mc")
        for alpha in (math.nan, math.inf, 0.0, -0.05):
            with pytest.raises(ValueError, match="alpha must be finite and positive"):
                check_vote_penalty(oracle, np.zeros(12), alpha, 16, 10, rng)
        for bad in (math.nan, -math.inf):
            theta = np.zeros(12)
            theta[5] = bad
            with pytest.raises(ValueError, match="theta must be finite"):
                check_vote_penalty(oracle, theta, 0.05, 16, 10, rng)
        assert oracle.query_count == 0
        assert rng.random() == _stream(351, "mc").random()
        assert oracle.rng.random() == _stream(351, "oracle").random()


def _replay_descent(objective, advantage, theta, alpha, n, rng):
    """The descent check as a per-candidate loop: per chunk, draw the
    chunk's directions, then ask a SignOracle on the same stream about each
    candidate in turn, and record the drop."""
    oracle = SignOracle(objective, advantage, rng)
    f_theta = float(objective.value(theta))
    d = objective.ambient_dim
    drops = []
    for take in _row_chunks(n, d):
        for direction in rng.standard_normal((take, d)):
            candidate = theta + alpha * direction
            accept = oracle.compare(theta, candidate) > 0
            drops.append(f_theta - float(objective.value(candidate)) if accept else 0.0)
    drops = np.array(drops)
    return float(drops.mean()), float(drops.std(ddof=1)) / math.sqrt(n)


def _replay_vote_error(oracle, gap, votes, trials):
    """The vote-error check as a per-trial loop: one vote of `votes` scores
    at `gap` per trial."""
    wrong = sum(
        float(np.sum(oracle.compare_gaps(np.array([gap]), votes))) <= 0.0
        for _ in range(trials)
    )
    return wrong / trials


def _replay_vote_penalty(oracle, theta, alpha, votes, trials, rng):
    objective = oracle.objective
    f_theta = float(objective.value(theta))
    terms = np.zeros(trials)
    for i in range(trials):
        candidate = theta + alpha * rng.standard_normal(objective.ambient_dim)
        gap = float(objective.value(candidate)) - f_theta
        accept = float(np.sum(oracle.compare_batch(theta, candidate, votes))) > 0.0
        terms[i] = gap * (float(accept) - float(gap < 0.0))
    return float(terms.mean()), float(terms.std(ddof=1)) / math.sqrt(trials)


class TestBatchedChecksReplayTheLoops:
    """Each batched certificate draws every sample exactly as a per-sample
    loop does, so it matches a hand-written replay of that loop: the same
    pass flag and sample count, and estimates and SEs up to the last bits
    that a block matmul moves."""

    @pytest.mark.parametrize("tau,m,advantage", [(0.0, 0, 0.1), (0.3, 3, 0.5)])
    def test_descent(self, tau, m, advantage, n=3_000):
        obj = _objective(370, 15, 4, kind="quadratic_cosine", tau=tau, m=m)
        theta = initial_point(obj, _stream(370, "init"))
        report = check_descent_ncrs(obj, advantage, theta, 0.05, n, _stream(370, "mc"))
        mean, se = _replay_descent(obj, advantage, theta, 0.05, n, _stream(370, "mc"))
        assert report.n_samples == n
        assert_allclose(report.estimates["mean_drop"], mean, rtol=1e-12)
        assert_allclose(report.standard_errors["mean_drop"], se, rtol=1e-12)
        t = report.theory
        rhs = mean + t["curvature_term"] + t["nuisance_term"]
        assert_allclose(report.estimates["rhs"], rhs, rtol=1e-12)
        assert report.passed == (t["lhs"] <= rhs + 3.0 * se)

    def test_descent_across_chunks(self):
        """30,000 samples of 15 numbers are many chunks of at most _MC_CHUNK."""
        self.test_descent(0.0, 0, 0.1, n=30_000)

    @pytest.mark.parametrize("kind", ["deterministic_link", "engage_abstain", "noisy_engage"])
    def test_vote_error(self, kind):
        def oracle():
            obj = _objective(371, 12, 4)
            link = LinkFunction(kind="logistic")
            return ConfidenceOracle(obj, kind, link, _stream(371, "oracle"))

        batched, replayed = oracle(), oracle()
        report = check_vote_error(batched, 0.05, 9, 4_000)
        freq = _replay_vote_error(replayed, 0.05, 9, 4_000)
        assert report.n_samples == 4_000
        assert report.estimates["wrong_decision_freq"] == freq
        if kind != "deterministic_link":
            assert 0.0 < freq < 1.0
        bound, se = report.theory["bound"], report.standard_errors["wrong_decision_freq"]
        assert report.passed == (freq <= bound + 3.0 * se)
        assert batched.query_count == replayed.query_count == 9 * 4_000

    def test_vote_penalty(self):
        def oracle():
            obj = _objective(372, 12, 4)
            link = LinkFunction(kind="logistic")
            return ConfidenceOracle(obj, "engage_abstain", link, _stream(372, "oracle"))

        batched, replayed = oracle(), oracle()
        theta = initial_point(batched.objective, _stream(372, "init"))
        report = check_vote_penalty(batched, theta, 0.05, 16, 3_000, _stream(372, "mc"))
        mean, se = _replay_vote_penalty(replayed, theta, 0.05, 16, 3_000, _stream(372, "mc"))
        assert report.n_samples == 3_000
        assert mean != 0.0
        assert_allclose(report.estimates["penalty"], mean, rtol=1e-12)
        assert_allclose(report.standard_errors["penalty"], se, rtol=1e-12)
        assert report.passed == (abs(mean) <= report.theory["bound"] + 3.0 * se)
        assert batched.query_count == replayed.query_count == 16 * 3_000

    @pytest.mark.parametrize("check", ["projector_moments", "cross_moment", "halfnormal"])
    def test_two_lane_check(self, check, n=9_001):
        """A Gaussian-only check's first ceil(n/2) samples are rng's next
        draws one by one, the rest the draws of rng's stream jumped once; rng
        is left at its start jumped twice."""
        space = random_subspace(_stream(374, "subspace"), 15, 4)
        a = _stream(374, "dir").standard_normal(15)
        cases = {
            "projector_moments": (
                lambda rng: check_projector_moments(space, n, rng),
                lambda s: [float(np.sum(space.coordinates(s) ** 2)) ** p for p in (1, 2, 3)],
                ("second", "fourth", "sixth"),
            ),
            "cross_moment": (
                lambda rng: check_cross_moment(space, a, n, rng),
                lambda s: [float(s @ a) ** 2 * float(np.sum(space.coordinates(s) ** 2))],
                ("cross_moment",),
            ),
            "halfnormal": (
                lambda rng: check_halfnormal(a, n, rng),
                lambda s: [abs(float(s @ a))],
                ("abs_mean",),
            ),
        }
        run, sample, names = cases[check]
        rng = _stream(374, "mc")
        report = run(rng)
        replay = _stream(374, "mc")
        far = np.random.Generator(replay.bit_generator.jumped())
        end = np.random.Generator(replay.bit_generator.jumped(2))
        head = (n + 1) // 2
        rows = [sample(replay.standard_normal(15)) for _ in range(head)]
        rows += [sample(far.standard_normal(15)) for _ in range(n - head)]
        rows = np.array(rows)
        assert report.n_samples == n
        assert_allclose([report.estimates[k] for k in names], rows.mean(axis=0), rtol=1e-12)
        assert_allclose(
            [report.standard_errors[k] for k in names],
            rows.std(axis=0, ddof=1) / math.sqrt(n),
            rtol=1e-12,
        )
        assert np.array_equal(rng.standard_normal(5), end.standard_normal(5))

    def test_vote_error_works_in_blocks(self):
        """100,000 votes of 125 are 100 MB of uniforms; the check holds a
        small block of them at a time."""
        obj = _objective(373, 12, 4)
        oracle = ConfidenceOracle(
            obj, "noisy_engage", LinkFunction(kind="logistic"), _stream(373, "oracle")
        )
        tracemalloc.start()
        try:
            report = check_vote_error(oracle, 0.4, 125, 100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.n_samples == 100_000
        assert peak < 20e6


class TestMcMeanSe:
    def test_one_chunk_is_the_two_pass_formula(self):
        values = _stream(380, "values").standard_normal(5_000) ** 3
        mean, se = _mc_mean_se(values.size, 1, lambda take: values[:take])
        assert mean == values.mean()
        assert se == values.std(ddof=1) / math.sqrt(values.size)

    def test_chunks_merge_per_column(self):
        """50,000 samples of width 10 are many chunks of _MC_CHUNK // 10
        rows; each column of a (take, 3) draw is its own estimate."""
        values = _stream(381, "values").standard_normal((50_000, 3)) * [1.0, 5.0, 1e-3]
        values += [0.0, 1e6, -2.0]
        calls = []

        def draw(take):
            start = sum(calls)
            calls.append(take)
            return values[start : start + take]

        mean, se = _mc_mean_se(values.shape[0], 10, draw)
        rows = _MC_CHUNK // 10
        assert calls == [rows] * (50_000 // rows) + [50_000 % rows]
        assert_allclose(mean, values.mean(axis=0), rtol=1e-12)
        assert_allclose(se, values.std(axis=0, ddof=1) / math.sqrt(50_000), rtol=1e-12)

    def test_chunk_sizes_take_flat_memory_in_the_sample_count(self):
        tracemalloc.start()
        try:
            chunks = _row_chunks(10**9, 50)
            first = [next(chunks) for _ in range(3)]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = _MC_CHUNK // 50
        assert first == [rows, rows, rows]
        assert peak < 100_000
        assert list(_row_chunks(10_001, 50)) == [rows] * (10_001 // rows) + [10_001 % rows]


class TestTwoLanes:
    @staticmethod
    def _draw(gen, take):
        return np.abs(gen.standard_normal((take, 12)) @ np.linspace(-1.0, 2.0, 12))

    def test_the_helper_lane_inline_equals_the_threaded_result(self):
        n = 100_001  # odd, and several chunks in each lane
        threaded = _two_lane_mean_se(n, 12, _stream(390, "mc"), self._draw)
        rng = _stream(390, "mc")
        far = np.random.Generator(rng.bit_generator.jumped())
        head = (n + 1) // 2
        first = _moments(head, 12, functools.partial(self._draw, rng))
        second = _moments(n - head, 12, functools.partial(self._draw, far))
        inline = _mean_se(_merge(first, second))
        assert threaded[0].tobytes() == inline[0].tobytes()
        assert threaded[1].tobytes() == inline[1].tobytes()

    def test_consecutive_checks_on_one_stream_draw_disjoint_samples(self):
        drawn = []

        def draw(gen, take):
            drawn.append(gen.standard_normal((take, 3)))
            return drawn[-1]

        rng = _stream(391, "mc")
        for _ in range(2):
            _two_lane_mean_se(20_001, 3, rng, draw)
        values = np.concatenate([block.ravel() for block in drawn])
        assert values.size == 2 * 20_001 * 3
        assert np.unique(values).size == values.size

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    @pytest.mark.parametrize("failing", ["caller", "helper"])
    def test_an_error_in_either_lane_stops_both(self, failing, error):
        """The other lane stops at its next chunk boundary, long before its
        5 * 10**7 samples are drawn, and the helper is joined."""
        before = threading.active_count()
        rng = _stream(393, "mc")
        started = threading.Event()
        chunks = {"caller": 0, "helper": 0}

        def draw(gen, take):
            lane = "caller" if gen is rng else "helper"
            chunks[lane] += 1
            if lane == failing:
                started.wait(timeout=10)  # until the other lane has begun
                raise error(f"{lane} lane failed")
            started.set()
            return gen.standard_normal(take)

        with pytest.raises(error, match=f"{failing} lane failed"):
            _two_lane_mean_se(10**8, 1, rng, draw)
        assert started.is_set()
        other = "helper" if failing == "caller" else "caller"
        assert chunks[failing] == 1
        assert 1 <= chunks[other] <= 20
        assert threading.active_count() == before


class TestSharedGaussianSample:
    def _checks(self, seed):
        space = random_subspace(_stream(seed, "subspace"), 10, 3)
        a = _stream(seed, "dir").standard_normal(10)
        return [_projector_moments(space), _cross_moment(space, a), _halfnormal(2.0 * a)]

    def test_leaves_its_stream_at_its_start_jumped_twice(self):
        rng = _stream(395, "mc")
        end = np.random.Generator(_stream(395, "mc").bit_generator.jumped(2))
        reports = _gaussian_reports(self._checks(395), 5_001, rng)
        assert [r.name for r in reports] == ["projector_moments", "cross_moment", "halfnormal"]
        assert np.array_equal(rng.standard_normal(5), end.standard_normal(5))

    def test_n_below_two_raises_before_any_draw(self):
        rng = _stream(397, "mc")
        with pytest.raises(ValueError, match="need at least 2 samples"):
            _gaussian_reports(self._checks(397), 1, rng)
        for bad in BAD_COUNTS:
            with pytest.raises(ValueError, match="n must be a positive integer"):
                _gaussian_reports(self._checks(397), bad, rng)
        assert rng.random() == _stream(397, "mc").random()

    def test_checks_of_other_dimensions_or_subspaces_do_not_share(self):
        rng = _stream(398, "mc")
        other = random_subspace(_stream(398, "other"), 10, 3)
        for extra in (_halfnormal(np.ones(9)), _projector_moments(other)):
            with pytest.raises(ValueError, match="one dimension and one subspace"):
                _gaussian_reports(self._checks(398) + [extra], 1000, rng)
        assert rng.random() == _stream(398, "mc").random()


class TestMargins:
    def test_equality_margins_in_se_units(self):
        report = _equality(
            "eq", 10, ("a", "b", "c"), [1.0, 2.0, 0.0], [1.5, 7.0, 0.0], [0.25, 1.0, 0.0]
        )
        assert report.margins == {"a": 2.0, "b": -1.0, "c": None}
        assert not report.passed

    def test_bound_margin_in_se_units(self):
        inside = _bound("b", 10, "s <= l", 5.0, 4.0, 0.5, {"s": 5.0}, {"l": 4.0})
        outside = _bound("b", 10, "s <= l", 6.0, 4.0, 0.5, {"s": 6.0}, {"l": 4.0})
        assert (inside.passed, inside.margins) == (True, {"s": 1.0})
        assert (outside.passed, outside.margins) == (False, {"s": -1.0})
        assert _bound("b", 10, "s <= l", 1.0, 1.0, 0.0, {"s": 1.0}, {}).margins == {"s": None}

    def test_deterministic_checks_have_none(self):
        assert check_link_reduction(LinkFunction(kind="logistic")).margins is None
        assert check_grad_fd(_objective(363, 10, 3), 2, _stream(363, "mc")).margins is None

    def test_margin_matches_the_verdict(self):
        for r in run_default_suite(80, scale=0.02):
            margins = [m for m in (r.margins or {}).values() if m is not None]
            if margins:
                assert r.passed == (min(margins) >= 0.0), r.name


class TestLinkReduction:
    @pytest.mark.parametrize("kind", ["logistic", "probit", "arctan"])
    def test_passes_all_kinds(self, kind):
        report = check_link_reduction(LinkFunction(kind=kind))
        assert report.passed
        assert report.estimates["reduction_deviation"] <= 1e-12
        assert report.estimates["reflection_deviation"] <= 1e-12

    def test_default_grid_at_another_scale(self):
        report = check_link_reduction(LinkFunction(kind="logistic", scale=0.5))
        assert report.passed
        assert report.n_samples == 321


class TestGradFd:
    @pytest.mark.parametrize("kind", ["pure_quadratic", "quadratic_cosine", "bounded_well"])
    def test_passes(self, kind):
        obj = _objective(360, 20, 6, kind=kind)
        report = check_grad_fd(obj, 10, _stream(360, "mc"))
        assert report.passed
        if kind == "pure_quadratic":
            assert report.estimates["max_rel_error"] < 1e-9

    def test_passes_with_nuisance(self):
        obj = _objective(361, 20, 6, kind="quadratic_cosine", tau=0.3, m=4)
        report = check_grad_fd(obj, 10, _stream(361, "mc"))
        assert report.passed

    def test_validation(self):
        obj = _objective(362, 10, 3)
        for bad in BAD_COUNTS:
            with pytest.raises(ValueError, match="n_points must be a positive integer"):
                check_grad_fd(obj, bad, _stream(362, "mc"))


class TestDefaultSuite:
    def test_structure_and_determinism(self):
        """Small-scale battery: full roster, unique names, bit-identical reruns."""
        reports = run_default_suite(77, scale=0.02)
        names = [r.name for r in reports]
        assert len(names) == len(set(names)) == 19
        for prefix in (
            "projector_moments", "cross_moment_in_range", "cross_moment_general",
            "halfnormal", "link_reduction_logistic", "link_reduction_probit",
            "link_reduction_arctan", "link_reduction_logistic_sharp",
            "grad_fd_pure_quadratic", "grad_fd_quadratic_cosine",
            "grad_fd_bounded_well", "grad_fd_nuisance",
            "descent_ncrs_p0.1", "descent_ncrs_p0.5", "descent_ncrs_nearly_ridge",
            "vote_error_deterministic_link", "vote_error_engage_abstain",
            "vote_error_noisy_engage", "vote_penalty",
        ):
            assert prefix in names
        again = run_default_suite(77, scale=0.02)
        a = json.dumps([r.to_json() for r in reports], sort_keys=True)
        b = json.dumps([r.to_json() for r in again], sort_keys=True)
        assert a == b

    @pytest.mark.parametrize("seed", [0, 7])
    def test_gaussian_reports_equal_their_standalone_checks(self, seed):
        """The suite's four Gaussian reports share one sample, and each is
        the report its check returns alone on a fresh projector_moments
        stream, with the suite's inputs."""
        suite = {r.name: r.to_json() for r in run_default_suite(seed, scale=0.02)}

        def stream(name):
            return _stream(seed, f"check:{name}")

        def fresh():
            return stream("projector_moments")

        n = 20_000
        space = random_subspace(stream("subspace"), 50, 7)
        a_in = space.basis[0] * 2.0
        a_out = gaussian_vector(stream("cross-dir"), 50)
        a_out = a_out - space.project(a_out)
        alone = {
            "projector_moments": check_projector_moments(space, n, fresh()),
            "cross_moment_in_range": check_cross_moment(space, a_in, n, fresh()),
            "cross_moment_general": check_cross_moment(space, a_in + a_out, n, fresh()),
            "halfnormal": check_halfnormal(
                gaussian_vector(stream("halfnormal-dir"), 50) * 1.7, n, fresh()
            ),
        }
        for name, report in alone.items():
            report.name = name
            assert report.to_json() == suite[name], name

    @pytest.mark.parametrize("seed", SUITE_SEEDS)
    def test_report_digests(self, seed, simd_pair):
        """Pin the suite's JSON bytes: every name, rule, estimate, theory
        value and standard error, in report order.  A digest changes only
        when a report changes, so an intended change re-pins it and says why.
        The pin is the running pair's (OpenBLAS kernel, numpy SIMD target);
        a pair with no pin fails and is named."""
        assert suite_digest(seed) == pinned(SUITE_DIGESTS, simd_pair)[seed], (
            "OpenBLAS kernel {}, numpy target {}".format(*simd_pair))

    def test_deterministic_checks_pass_at_any_scale(self):
        reports = run_default_suite(78, scale=0.02)
        for r in reports:
            if r.name.startswith(("link_reduction", "grad_fd")):
                assert r.passed, r.name

    def test_scale_validation(self):
        for scale in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                run_default_suite(0, scale=scale)

    def test_memory_stays_flat(self):
        """Every Monte Carlo check streams its sample in chunks of at most
        _MC_CHUNK numbers, so the suite's traced peak stays small."""
        tracemalloc.start()
        try:
            run_default_suite(7, scale=0.2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6

    def test_report_serializes(self):
        reports = run_default_suite(79, scale=0.02)
        payload = json.dumps([r.to_json() for r in reports])
        decoded = json.loads(payload)
        assert decoded[0]["name"] == "projector_moments"
        assert set(decoded[0]) == {
            "name", "passed", "n_samples", "rule",
            "estimates", "theory", "standard_errors", "margins",
        }
