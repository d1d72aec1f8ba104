import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ncrs.diagnostics import (
    _mc_mean_se,
    _point_at_gap,
    _row_chunks,
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
from ncrs.geometry import RngStream, random_subspace, stream_id_for
from ncrs.objectives import InnerFunction, initial_point, random_ridge_objective
from ncrs.oracles import ConfidenceOracle, LinkFunction, SignOracle


# counts every check refuses: a float, a bool and zero
BAD_COUNTS = (2.5, True, 0)


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

    def test_realized_gap_matches_request(self):
        for inner in ("pure_quadratic", "quadratic_cosine", "bounded_well"):
            oracle = self._oracle(341, "deterministic_link", inner=inner)
            report = check_vote_error(oracle, 0.7, 1, 10)
            assert_allclose(report.theory["gap"], 0.7, rtol=1e-9)

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

    def test_unreachable_gap_raises(self):
        # the bounded well never climbs past k along a single coordinate ray
        oracle = self._oracle(344, "deterministic_link", inner="bounded_well")
        with pytest.raises(ValueError):
            check_vote_error(oracle, 5.0, 5, 10)

    def test_validation(self):
        oracle = self._oracle(345, "engage_abstain")
        for bad in BAD_COUNTS:
            with pytest.raises(ValueError, match="votes must be a positive integer"):
                check_vote_error(oracle, 0.4, bad, 10)
            with pytest.raises(ValueError, match="trials must be a positive integer"):
                check_vote_error(oracle, 0.4, 5, bad)
        with pytest.raises(ValueError):
            check_vote_error(oracle, -0.4, 5, 10)


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


def _replay_descent(objective, advantage, theta, alpha, n, rng):
    """The per-sample loop the batched descent check replaced: draw a
    direction, ask a SignOracle on the same stream, record the drop."""
    oracle = SignOracle(objective, advantage, rng)
    f_theta = float(objective.value(theta))
    drops = np.zeros(n)
    for i in range(n):
        candidate = theta + alpha * rng.standard_normal(objective.ambient_dim)
        if oracle.compare(theta, candidate) > 0:
            drops[i] = f_theta - float(objective.value(candidate))
    return float(drops.mean()), float(drops.std(ddof=1)) / math.sqrt(n)


def _replay_vote_error(oracle, worse, better, votes, trials):
    wrong = sum(
        float(np.sum(oracle.compare_batch(worse, better, votes))) <= 0.0
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
        """30,000 samples of 15 numbers are three chunks of at most 200,000."""
        self.test_descent(0.0, 0, 0.1, n=30_000)

    @pytest.mark.parametrize("kind", ["deterministic_link", "engage_abstain", "noisy_engage"])
    def test_vote_error(self, kind):
        def oracle():
            obj = _objective(371, 12, 4)
            link = LinkFunction(kind="logistic")
            return ConfidenceOracle(obj, kind, link, _stream(371, "oracle"))

        batched, replayed = oracle(), oracle()
        report = check_vote_error(batched, 0.05, 9, 4_000)
        worse, better = _point_at_gap(replayed.objective, 0.05)
        freq = _replay_vote_error(replayed, worse, better, 9, 4_000)
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
        """50,000 samples of width 10 are three chunks; each column of a
        (take, 3) draw is its own estimate."""
        values = _stream(381, "values").standard_normal((50_000, 3)) * [1.0, 5.0, 1e-3]
        values += [0.0, 1e6, -2.0]
        calls = []

        def draw(take):
            start = sum(calls)
            calls.append(take)
            return values[start : start + take]

        mean, se = _mc_mean_se(values.shape[0], 10, draw)
        assert calls == [20_000, 20_000, 10_000]
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
        assert first == [4_000, 4_000, 4_000]
        assert peak < 100_000
        assert list(_row_chunks(10_001, 50)) == [4_000, 4_000, 2_001]


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

    @pytest.mark.parametrize("seed,digest", [
        (0, "ba9869712e17252b629f937aa2b68a30fe323e8072f6cff2896cbfc3afdd60c6"),
        (7, "02eb784c759526d45a2b530ee9b1373108db13bce6be75e4d1e43352532751a0"),
    ])
    def test_report_digests(self, seed, digest):
        """Pin the suite's JSON bytes: every name, rule, estimate, theory
        value and standard error, in report order.  A digest changes only
        when a report changes, so an intended change re-pins it and says why."""
        payload = json.dumps([r.to_json() for r in run_default_suite(seed, scale=0.02)],
                             sort_keys=True)
        assert hashlib.sha256(payload.encode()).hexdigest() == digest

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
        200,000 numbers, so the suite's traced peak stays small."""
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
            "estimates", "theory", "standard_errors",
        }
