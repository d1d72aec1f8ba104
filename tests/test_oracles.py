import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ncrs.geometry import RngStream, Subspace, stream_id_for
from ncrs.objectives import InnerFunction, RidgeObjective, random_ridge_objective
from ncrs.oracles import (
    ConfidenceOracle,
    LinkFunction,
    SignOracle,
    local_linearity_constants,
    rho_inverse,
)


def _stream(seed, tag):
    return RngStream(seed, stream_id_for(0, tag))


def _quadratic_ridge(seed=100, d=8, k=3):
    return random_ridge_objective(
        _stream(seed, "subspace"), d, k, InnerFunction(kind="pure_quadratic")
    )


def _pair_with_gap(objective, gap):
    """Points x, y along the first active direction with f(x) - f(y) = gap > 0."""
    u1 = objective.active.basis[0]
    a = 1.0
    b = math.sqrt(a * a + 2.0 * gap)
    return b * u1, a * u1


class TestLinkFunction:
    def test_frozen_values(self):
        lg = LinkFunction(kind="logistic")
        pr = LinkFunction(kind="probit")
        at = LinkFunction(kind="arctan")
        assert lg.probability(0.0) == 0.5
        assert pr.probability(0.0) == 0.5
        assert at.probability(0.0) == 0.5
        assert_allclose(lg.rho(2.0), 0.7615941559557649, rtol=1e-15)  # tanh(1)
        assert_allclose(pr.rho(1.0), 0.6826894921370859, rtol=1e-12)  # erf(1/sqrt 2)
        assert_allclose(at.rho(1.0), 0.5, rtol=1e-15)  # (2/pi) arctan(1)
        assert lg.slope_at_zero == 0.25
        assert_allclose(pr.slope_at_zero, 0.3989422804014327, rtol=1e-15)
        assert_allclose(at.slope_at_zero, 0.3183098861837907, rtol=1e-15)

    @pytest.mark.parametrize("kind", ["logistic", "probit", "arctan"])
    @pytest.mark.parametrize("scale", [0.25, 1.0, 3.0])
    def test_reflection_and_margin_consistency(self, kind, scale):
        link = LinkFunction(kind=kind, scale=scale)
        # stay inside +-8 link scales: beyond ~39 scales the probit saturates
        # to exactly 0/1 in float64 and strictness is meaningless
        u = scale * np.linspace(-8.0, 8.0, 401)
        sig = link.probability(u)
        assert_allclose(sig + link.probability(-u), np.ones_like(u), atol=1e-12)
        t = scale * np.linspace(0.0, 8.0, 301)
        assert_allclose(link.rho(t), 2.0 * link.probability(t) - 1.0, atol=1e-12)
        assert np.all(np.diff(sig) > 0)
        assert np.all((sig > 0) & (sig < 1))

    @pytest.mark.parametrize("scale", [0.25, 1.0, 3.0])
    def test_matches_scipy(self, scale):
        """The logistic and probit sigma and the probit rho agree with scipy's
        expit and ndtr within +-8 link scales, on arrays and on floats."""
        special = pytest.importorskip("scipy.special")
        u = scale * np.linspace(-8.0, 8.0, 4001)
        t = u[u >= 0.0]
        for kind, reference in (("logistic", special.expit), ("probit", special.ndtr)):
            link = LinkFunction(kind=kind, scale=scale)
            expected = reference(u / scale)
            assert_allclose(link.probability(u), expected, rtol=1e-14, atol=0.0)
            scalars = [link.probability(float(x)) for x in u[::40]]
            assert_allclose(scalars, expected[::40], rtol=1e-14, atol=0.0)
        probit = LinkFunction(kind="probit", scale=scale)
        expected = 2.0 * special.ndtr(t / scale) - 1.0
        assert_allclose(probit.rho(t), expected, rtol=0.0, atol=1e-15)
        scalars = [probit.rho(float(x)) for x in t[::40]]
        assert_allclose(scalars, expected[::40], rtol=0.0, atol=1e-15)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind", ["logistic", "probit"])
    def test_saturates_without_warnings(self, kind):
        link = LinkFunction(kind=kind)
        assert link.probability(-1000.0) == 0.0
        assert link.probability(1000.0) == 1.0
        assert list(link.probability(np.array([-1000.0, 1000.0]))) == [0.0, 1.0]
        assert link.rho(1000.0) == 1.0

    @pytest.mark.parametrize("kind", ["logistic", "probit", "arctan"])
    def test_scalar_in_gives_float_out(self, kind):
        link = LinkFunction(kind=kind)
        for x in (0.3, np.float64(0.3), np.array(0.3), 1):
            assert type(link.probability(x)) is float
            assert type(link.rho(x)) is float
        assert link.probability(np.array([0.3])).shape == (1,)
        assert link.rho(np.zeros((2, 1))).shape == (2, 1)

    @pytest.mark.parametrize("kind", ["logistic", "probit", "arctan"])
    def test_a_float_answers_its_array_entry(self, kind):
        """One formula per function: sigma(u) and rho(|u|) of a float equal,
        bit for bit, that value's entry in one array call."""
        link = LinkFunction(kind=kind)
        u = np.random.default_rng(0).uniform(-8.0, 8.0, 10_000)
        sigma, rho = link.probability(u), link.rho(np.abs(u))
        assert [link.probability(float(x)) for x in u] == sigma.tolist()
        assert [link.rho(abs(float(x))) for x in u] == rho.tolist()

    def test_scale_steepens_or_flattens(self):
        sharp = LinkFunction(kind="logistic", scale=0.1)
        flat = LinkFunction(kind="logistic", scale=10.0)
        assert sharp.probability(0.5) > flat.probability(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkFunction(kind="cauchy")
        with pytest.raises(ValueError):
            LinkFunction(kind="logistic", scale=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                LinkFunction(kind="logistic", scale=bad)


class TestLocalLinearity:
    FROZEN = {
        ("logistic", 1.0): (0.25, 4.0),
        ("logistic", 0.25): (1.0, 1.0),
        ("logistic", 2.0): (0.125, 8.0),
        ("probit", 1.0): (0.3989422804014327, 4.0),
        ("probit", 0.25): (1.5957691216057308, 1.0),
        ("probit", 2.0): (0.19947114020071635, 8.0),
        ("arctan", 1.0): (0.3183098861837907, 4.0),
        ("arctan", 0.25): (1.2732395447351628, 1.0),
        ("arctan", 2.0): (0.15915494309189535, 8.0),
    }

    @pytest.mark.parametrize("kind,scale", sorted(FROZEN))
    def test_frozen_certificates(self, kind, scale):
        c, r = local_linearity_constants(LinkFunction(kind=kind, scale=scale))
        c_exp, r_exp = self.FROZEN[(kind, scale)]
        assert_allclose(c, c_exp, rtol=1e-12)
        assert r == r_exp

    @pytest.mark.parametrize("kind", ["logistic", "probit", "arctan"])
    def test_certificate_property(self, kind):
        """rho(t) >= (c/2) t on a dense grid of [0, r], and fails somewhere by 2r."""
        link = LinkFunction(kind=kind)
        c, r = local_linearity_constants(link)
        t = np.linspace(0.0, r, 100_001)
        assert np.all(np.asarray(link.rho(t)) >= 0.5 * c * t - 1e-15)
        t2 = np.linspace(r, 2.0 * r, 10_001)
        assert np.any(np.asarray(link.rho(t2)) < 0.5 * c * t2)

    def test_radius_scales_with_link_scale(self):
        for kind in ("logistic", "probit", "arctan"):
            _, r1 = local_linearity_constants(LinkFunction(kind=kind, scale=1.0))
            _, r3 = local_linearity_constants(LinkFunction(kind=kind, scale=3.0))
            assert_allclose(r3, 3.0 * r1, rtol=1e-12)

    def test_an_uncertified_start_names_the_scale(self):
        """Below the normal floats, the slope sigma'(0) overflows and the
        start radius cannot be certified."""
        for kind in ("logistic", "probit", "arctan"):
            with pytest.raises(RuntimeError, match="link scale 1e-320"):
                local_linearity_constants(LinkFunction(kind=kind, scale=1e-320))


class TestRhoInverse:
    @pytest.mark.parametrize("kind", ["logistic", "probit", "arctan"])
    def test_round_trip(self, kind):
        link = LinkFunction(kind=kind, scale=0.7)
        for target in (0.05, 0.2, 0.5, 0.9):
            t = rho_inverse(link, target)
            assert t > 0
            assert_allclose(link.rho(t), target, atol=1e-9)

    def test_zero_and_validation(self):
        link = LinkFunction(kind="logistic")
        assert rho_inverse(link, 0.0) == 0.0
        with pytest.raises(ValueError):
            rho_inverse(link, 1.0)
        with pytest.raises(ValueError):
            rho_inverse(link, -0.2)


class TestSignOracle:
    def test_advantage_half_is_exact(self):
        obj = _quadratic_ridge(101)
        oracle = SignOracle(obj, 0.5, _stream(101, "oracle"))
        rng = _stream(102, "test:pairs")
        for _ in range(2000):
            x, y = rng.standard_normal((2, 8))
            fx, fy = float(obj.value(x)), float(obj.value(y))
            if fx == fy:
                continue
            got = oracle.compare(x, y)
            assert got == (1 if fx > fy else -1)

    def test_correct_frequency_matches_advantage(self):
        """Across 2*10^5 queries the correct-answer rate sits within 4 binomial SE."""
        obj = _quadratic_ridge(103)
        x, y = _pair_with_gap(obj, 1.0)
        oracle = SignOracle(obj, 0.25, _stream(103, "oracle"))
        n = 200_000
        hits = sum(oracle.compare(x, y) == 1 for _ in range(n))
        se = math.sqrt(0.75 * 0.25 / n)
        assert abs(hits / n - 0.75) < 4 * se
        assert oracle.query_count == n

    def test_advantage_does_not_depend_on_gap_size(self):
        obj = _quadratic_ridge(104)
        n = 100_000
        se = math.sqrt(0.75 * 0.25 / n)
        for gap in (1e-8, 1e3):
            x, y = _pair_with_gap(obj, gap)
            oracle = SignOracle(obj, 0.25, _stream(104, "oracle"))
            hits = sum(oracle.compare(x, y) == 1 for _ in range(n))
            assert abs(hits / n - 0.75) < 4 * se

    def test_ties_are_fair_coin(self):
        obj = _quadratic_ridge(105)
        x = obj.active.basis[0].copy()
        oracle = SignOracle(obj, 0.5, _stream(105, "oracle"))
        n = 100_000
        plus = sum(oracle.compare(x, x) == 1 for _ in range(n))
        se = math.sqrt(0.25 / n)
        assert abs(plus / n - 0.5) < 4 * se

    @pytest.mark.parametrize("advantage", [0.1, 0.5])
    def test_many_gaps_answer_like_compare(self, advantage):
        """compare_gaps(gaps, 1), on a stream with compare's key, gives
        compare's answer for every pair, ties included, and leaves the
        stream where the compare calls leave it."""
        obj = _quadratic_ridge(107)
        rng = _stream(107, "test:pairs")
        pairs = []
        for i in range(400):
            x, y = rng.standard_normal((2, 8))
            pairs.append((x, x.copy() if i % 4 == 0 else y))  # every fourth a tie
        one = SignOracle(obj, advantage, _stream(107, "oracle"))
        answers = np.array([one.compare(x, y) for x, y in pairs])
        gaps = np.array([obj.value(x) - obj.value(y) for x, y in pairs])
        assert np.count_nonzero(gaps == 0.0) == 100
        many = SignOracle(obj, advantage, _stream(107, "oracle"))
        got = many.compare_gaps(gaps, 1)
        assert got.shape == (len(pairs),)
        assert np.array_equal(got, answers)
        assert many.query_count == one.query_count == len(pairs)
        assert many.rng.random() == one.rng.random()

    def test_validation(self):
        obj = _quadratic_ridge(106)
        rng = _stream(106, "oracle")
        for bad in (0.0, 0.6, -0.1):
            with pytest.raises(ValueError):
                SignOracle(obj, bad, rng)
        oracle = SignOracle(obj, 0.5, rng)  # boundary is allowed
        with pytest.raises(TypeError):  # a query is one pair of points, not a batch
            oracle.compare(np.ones((2, 8)), np.zeros((2, 8)))
        assert oracle.query_count == 0
        state = _stream_state(oracle)
        with pytest.raises(ValueError, match=re.escape("got shape (2, 3)")):
            oracle.compare_gaps(np.ones((2, 3)), 1)
        assert _stream_state(oracle) == state
        assert oracle.query_count == 0
        assert oracle.compare_gaps(1.0, 1).tolist() == [1.0]  # a scalar and a vector work
        assert oracle.compare_gaps(-np.ones(2), 1).tolist() == [-1.0, -1.0]
        assert oracle.query_count == 3


class TestConfidenceOracle:
    def _oracle(self, kind, seed=110, link=None):
        obj = _quadratic_ridge(seed)
        link = link or LinkFunction(kind="logistic")
        return obj, ConfidenceOracle(obj, kind, link, _stream(seed, "oracle"))

    def test_deterministic_link_scores(self):
        """The score is sign(gap) * rho(|gap|), which is 2 sigma(gap) - 1, and
        n of them tally n * sign(gap) * rho(|gap|)."""
        obj, oracle = self._oracle("deterministic_link")
        x, y = _pair_with_gap(obj, 0.8)
        gap = float(obj.value(x)) - float(obj.value(y))
        expected = math.copysign(oracle.link.rho(abs(gap)), gap)
        assert oracle.compare_batch(x, y, 1) == expected
        assert expected == pytest.approx(2.0 * oracle.link.probability(gap) - 1.0, abs=1e-15)
        # antisymmetric under swapping the pair
        assert oracle.compare_batch(y, x, 1) == -expected
        assert oracle.second_moment_bound == 1.0
        assert oracle.compare_batch(x, y, 5) == 5 * expected
        assert oracle.query_count == 7

    def test_tie_scores_zero(self):
        for kind in ("deterministic_link", "engage_abstain", "noisy_engage"):
            obj, oracle = self._oracle(kind)
            x = 2.0 * obj.active.basis[1]
            assert np.all(oracle.compare_batch(x, x.copy(), 64) == 0.0)

    @pytest.mark.parametrize("kind,c_factor,cap", [
        ("engage_abstain", 1.0, 1.0),
        ("noisy_engage", 0.5, 2.0),
    ])
    def test_moment_certificates(self, kind, c_factor, cap):
        """E[sign * R] equals the certified margin and E[R^2] equals C * margin,
        both to 4 standard errors at 10^5 draws per gap.  Each score is the
        tally of a one-query vote on the pair's gap."""
        obj, oracle = self._oracle(kind)
        n = 100_000
        for gap in (0.05, 0.3, 1.0, 3.0):
            x, y = _pair_with_gap(obj, gap)
            t = abs(float(obj.value(x)) - float(obj.value(y)))
            scores = oracle.compare_gaps(np.full(n, t), 1)
            assert np.all(np.isin(scores, [-1.0, 0.0, 1.0]))
            margin = float(oracle.rho_effective(t))
            for samples, theory in (
                (scores, margin),
                (scores**2, oracle.second_moment_bound * margin),
            ):
                se = float(np.std(samples, ddof=1)) / math.sqrt(n)
                assert abs(float(np.mean(samples)) - theory) < 4 * se + 1e-12
        assert_allclose(
            float(oracle.rho_effective(1.0)),
            c_factor * float(oracle.link.rho(1.0)),
            rtol=1e-15,
        )
        assert oracle.second_moment_bound == cap

    def test_linearity_constants_inherit_from_link(self):
        link = LinkFunction(kind="logistic")
        c, r = local_linearity_constants(link)
        _, plain = self._oracle("engage_abstain", link=link)
        _, noisy = self._oracle("noisy_engage", link=link)
        assert plain.linearity_constants == (c, r)
        assert noisy.linearity_constants == (0.5 * c, r)

    def test_reproducible_given_stream(self):
        obj = _quadratic_ridge(115)
        x, y = _pair_with_gap(obj, 0.4)
        link = LinkFunction(kind="logistic")
        a = ConfidenceOracle(obj, "noisy_engage", link, _stream(115, "oracle"))
        b = ConfidenceOracle(obj, "noisy_engage", link, _stream(115, "oracle"))
        assert np.array_equal(a.compare_batch(x, y, 100), b.compare_batch(x, y, 100))

    @pytest.mark.parametrize("kind", ["deterministic_link", "engage_abstain", "noisy_engage"])
    def test_many_pairs_equal_consecutive_batches(self, kind):
        """compare_gaps over many pairs tallies, bit for bit, what consecutive
        compare_batch calls tally, with a zero-gap pair in the middle, and
        leaves the stream where they leave it."""
        obj = _quadratic_ridge(116)
        pairs = [_pair_with_gap(obj, g) for g in (0.05, 0.4, 1.0, 3.0)]
        pairs = [pairs[0], pairs[1][::-1], (pairs[2][0], pairs[2][0]), pairs[2], pairs[3]]
        link = LinkFunction(kind="probit", scale=0.7)
        one = ConfidenceOracle(obj, kind, link, _stream(116, "oracle"))
        expected = np.array([one.compare_batch(x, y, 33) for x, y in pairs])
        gaps = np.array([obj.value(x) - obj.value(y) for x, y in pairs])
        assert gaps[2] == 0.0 and gaps[1] < 0.0
        many = ConfidenceOracle(obj, kind, link, _stream(116, "oracle"))
        got = many.compare_gaps(gaps, 33)
        assert got.shape == (5,)
        assert np.array_equal(got, expected)
        assert got[2] == 0.0
        assert many.query_count == one.query_count == 5 * 33
        assert many.rng.random() == one.rng.random()

    @pytest.mark.parametrize("model", ["deterministic_link", "engage_abstain", "noisy_engage"])
    @pytest.mark.parametrize("link_kind", ["logistic", "probit", "arctan"])
    def test_a_score_does_not_depend_on_how_its_gap_arrives(self, link_kind, model):
        """Tally i of compare_gaps equals compare_batch on pair i, bit for bit,
        over 2,000 pairs whose gaps span +-8 link scales (every tenth a tie),
        and both leave query_count and the stream at the same place."""
        obj = _quadratic_ridge(118)
        link = LinkFunction(kind=link_kind, scale=0.5)
        u1 = obj.active.basis[0]
        ab = np.random.default_rng(118).uniform(-3.0, 3.0, (2_000, 2))
        ab[::10, 1] = ab[::10, 0]
        pairs = [(a * u1, b * u1) for a, b in ab]
        one = ConfidenceOracle(obj, model, link, _stream(118, "oracle"))
        expected = np.array([one.compare_batch(x, y, 3) for x, y in pairs])
        gaps = np.array([float(obj.value(x)) - float(obj.value(y)) for x, y in pairs])
        assert gaps.min() < -8.0 * link.scale and gaps.max() > 8.0 * link.scale
        assert np.count_nonzero(gaps == 0.0) == 200
        many = ConfidenceOracle(obj, model, link, _stream(118, "oracle"))
        assert np.array_equal(many.compare_gaps(gaps, 3), expected)
        assert many.query_count == one.query_count == 6_000
        assert many.rng.random() == one.rng.random()

    @pytest.mark.parametrize("link_kind", ["logistic", "probit", "arctan"])
    def test_a_tiny_gap_keeps_its_sign(self, link_kind):
        """At a gap of 1e-17 link scales 2 sigma - 1 rounds to 0, but the
        margin rho keeps full relative precision, so the tally is not a tie."""
        link = LinkFunction(kind=link_kind)
        _, oracle = self._oracle("deterministic_link", link=link)
        tallies = oracle.compare_gaps(np.array([1e-17, -1e-17]), 2)
        assert 2.0 * link.probability(1e-17) - 1.0 == 0.0
        assert tallies[0] > 0.0
        assert tallies.tolist() == [2 * link.rho(1e-17), -2 * link.rho(1e-17)]

    def test_query_counting_and_validation(self):
        obj, oracle = self._oracle("engage_abstain")
        x, y = _pair_with_gap(obj, 0.4)
        oracle.compare_batch(x, y, 1)
        oracle.compare_batch(x, y, 9)
        assert oracle.query_count == 10
        with pytest.raises(ValueError):
            oracle.compare_batch(x, y, 0)
        with pytest.raises(TypeError):  # a query is one pair of points, not a batch
            oracle.compare_batch(np.stack([x, y]), np.stack([y, x]), 3)
        with pytest.raises(ValueError):
            oracle.compare_gaps(np.ones(3), 0)
        state = _stream_state(oracle)
        for gaps in (np.ones((2, 3)), [[0.1]]):
            with pytest.raises(ValueError, match=r"gaps must be .* got shape \("):
                oracle.compare_gaps(gaps, 3)
        assert _stream_state(oracle) == state
        assert oracle.query_count == 10  # a call that raises answers nothing
        with pytest.raises(ValueError):
            ConfidenceOracle(obj, "always_right", LinkFunction(kind="logistic"),
                             _stream(0, "oracle"))

    def test_vote_counts_must_be_positive_integers(self):
        obj, oracle = self._oracle("engage_abstain")
        x, y = _pair_with_gap(obj, 0.4)
        ys = np.stack([y, x])
        calls = (
            lambda n: oracle.compare_batch(x, y, n),
            lambda n: oracle.compare_gaps(np.ones(2), n),
            lambda n: oracle.first_preferred(x, ys, n),
        )
        for call in calls:
            for bad in (2.5, 3.0, True, np.bool_(True), "3", None, 0, -1, np.int64(0)):
                with pytest.raises(ValueError, match="n must be a positive integer"):
                    call(bad)
            assert oracle.query_count == 0
            call(np.int64(3))
            call(np.uint8(2))
            assert oracle.query_count > 0
            oracle.query_count = 0


def _stream_state(oracle):
    """The oracle stream's Philox state, as a comparable tuple."""
    st = oracle.rng.bit_generator.state
    return (tuple(st["state"]["counter"]), tuple(st["state"]["key"]), tuple(st["buffer"]),
            st["buffer_pos"], st["has_uint32"], st["uinteger"])


def _axis_objective():
    """f(x) = 0.5 (x_0^2 + x_1^2 + x_2^2) in R^8: a 0/1 basis makes every value
    exact, so a batched value equals the single-point value bit for bit, and
    moving only coordinates 3..7 keeps the value exactly."""
    return RidgeObjective(active=Subspace(basis=np.eye(3, 8)),
                          inner=InnerFunction(kind="pure_quadratic"))


class TestFirstPreferred:
    """first_preferred answers a block as consecutive compare_batch calls do."""

    X = np.array([3.0, -2.0, 1.5, 2.0, 0.0, 0.0, 1.0, 0.0])

    @classmethod
    def _rows(cls, spec):
        """Rows by kind: '0' same value as X, '-' slightly worse, '+' much better."""
        rows = []
        for j, kind in enumerate(spec):
            y = cls.X.copy()
            if kind == "0":
                y[3 + j % 5] += 1.5  # a flat coordinate only
            elif kind == "-":
                y[0] += 1e-6 * (j + 1)
            else:
                y[:3] *= 0.01 * (j + 1)
            rows.append(y)
        block = np.array(rows)
        block.flags.writeable = False
        return block

    # (rows, the index first_preferred returns for a confidence oracle)
    CASES = [("+-0+", 0), ("0-0-+-+0", 4), ("0--0-0", 6), ("-0+", 2), ("00", 2), ("---", 3)]

    @staticmethod
    def _oracle(obj, kind):
        if kind == "sign":
            return SignOracle(obj, 0.25, _stream(117, "oracle"))
        return ConfidenceOracle(obj, kind, LinkFunction(kind="logistic", scale=0.5),
                                _stream(117, "oracle"))

    @pytest.mark.parametrize(
        "kind", ["deterministic_link", "engage_abstain", "noisy_engage", "sign"]
    )
    def test_equals_consecutive_compare_batch(self, kind):
        """The sign oracle's ties are coins, so its index is checked against
        the sequential loop only, not against CASES."""
        obj = _axis_objective()
        one, many = self._oracle(obj, kind), self._oracle(obj, kind)
        rewound = 0
        for spec, expected in self.CASES:
            block = self._rows(spec)
            gaps = obj.value(self.X) - obj.value(block)
            assert np.array_equal(gaps, [obj.value(self.X) - obj.value(y) for y in block])
            assert np.all((gaps == 0.0) == [c == "0" for c in spec])
            sequential = len(block)
            for i, y in enumerate(block):
                if one.compare_batch(self.X, y, 33) > 0.0:
                    sequential = i
                    break
            if kind != "sign":
                assert sequential == expected, (spec, kind)
            assert many.first_preferred(self.X, block, 33) == sequential, (spec, kind)
            assert many.query_count == one.query_count
            assert _stream_state(many) == _stream_state(one)
            rewound += sequential < len(block) - 1
        assert rewound >= 2  # a win before the last row rewinds the stream
        assert many.rng.random() == one.rng.random()

    def test_validation(self):
        obj = _axis_objective()
        oracle = ConfidenceOracle(obj, "engage_abstain", LinkFunction(kind="logistic"),
                                  _stream(119, "oracle"))
        with pytest.raises(ValueError, match="2-D batch"):
            oracle.first_preferred(self.X, self.X, 3)
        assert oracle.first_preferred(self.X, np.empty((0, 8)), 3) == 0
        assert oracle.query_count == 0


class TestNanGaps:
    """No score answers a NaN gap: every entry point raises before it counts
    a query or draws a uniform.  An infinite gap is legal (rho is 1 there)."""

    @staticmethod
    def _oracle(kind):
        obj = _quadratic_ridge(120)
        if kind == "sign":
            return SignOracle(obj, 0.25, _stream(120, "oracle"))
        return ConfidenceOracle(obj, kind, LinkFunction(kind="logistic"),
                                _stream(120, "oracle"))

    @pytest.mark.parametrize(
        "kind", ["deterministic_link", "engage_abstain", "noisy_engage", "sign"]
    )
    def test_a_nan_gap_raises_before_counting_or_drawing(self, kind):
        oracle = self._oracle(kind)
        x, y = _pair_with_gap(oracle.objective, 0.4)
        nan = np.full_like(x, math.nan)
        calls = [
            lambda: oracle.compare_batch(nan, y, 3),
            lambda: oracle.compare_batch(x, nan, 1),
            lambda: oracle.compare_gaps(math.nan, 2),
            lambda: oracle.compare_gaps(np.array([0.3, math.nan, 0.0]), 2),
            lambda: oracle.first_preferred(x, np.stack([x, nan, y]), 3),
        ]
        if kind == "sign":
            calls.append(lambda: oracle.compare(x, nan))
        state = _stream_state(oracle)
        for call in calls:
            with pytest.raises(ValueError, match="gap f\\(x\\) - f\\(y\\) is NaN"):
                call()
            assert oracle.query_count == 0
            assert _stream_state(oracle) == state

    @pytest.mark.parametrize(
        "kind", ["deterministic_link", "engage_abstain", "noisy_engage", "sign"]
    )
    def test_an_infinite_gap_is_scored(self, kind):
        """Eight one-query votes: each tally is one score, and none abstains."""
        oracle = self._oracle(kind)
        scores = oracle.compare_gaps(np.repeat([math.inf, -math.inf], 4), 1)
        assert oracle.query_count == 8
        if kind in ("deterministic_link", "engage_abstain"):
            assert scores.tolist() == [1.0] * 4 + [-1.0] * 4
        else:
            assert np.all(np.isin(scores, [-1.0, 1.0]))


def _reference_scores(oracle, gap, shape):
    """The n scores of a vote at a non-tie gap (or a sign oracle's tie), as the
    oracles drew and returned them before they answered with tallies: a
    test-local copy of that per-score response, drawing the same uniforms
    in the same (rows, uniforms, n) layout."""
    if isinstance(oracle, SignOracle):
        sign = 2 * (gap >= 0.0) - 1
        agree = oracle.rng.random(shape) < 0.5 + oracle.advantage * (gap != 0.0)
        return sign * (2 * agree - 1)
    sign = 2.0 * (gap > 0.0) - 1.0
    rho = oracle.link.rho(abs(gap))
    if oracle.kind == "deterministic_link":
        return np.full(shape, sign * rho)
    u = oracle.rng.random(shape[:-1] + (oracle._uniforms,) + shape[-1:])
    engaged = u[..., 0, :] < rho
    if oracle.kind == "engage_abstain":
        return np.where(engaged, sign, 0.0)
    return np.where(engaged, np.where(u[..., 1, :] < 0.75, sign, -sign), 0.0)


def _reference_vote(oracle, gap, n):
    """One vote's n reference scores, counted as n queries; a confidence
    oracle scores a tie 0 and draws nothing."""
    oracle.query_count += n
    if gap == 0.0 and isinstance(oracle, ConfidenceOracle):
        return np.zeros(n)
    return _reference_scores(oracle, gap, (n,))


def _expected_tally(oracle, scores):
    """The tally the oracle answers for these reference scores: their sum,
    which is exact for scores in {-1, 0, 1}; for deterministic_link,
    n * sign(gap) * rho, which has the sum's sign."""
    if isinstance(oracle, ConfidenceOracle) and oracle.kind == "deterministic_link":
        assert np.sign(len(scores) * scores[0]) == np.sign(scores.sum())
        return len(scores) * scores[0]
    return scores.sum()


class _FirstCoordinate:
    """f(x) = x_0, batched: a gap f(x) - f(y) at x = 0 is exactly -y_0."""

    @staticmethod
    def value(x):
        return np.asarray(x)[..., 0]


ORACLE_KINDS = [("sign", None)] + [
    (model, link) for model in ("deterministic_link", "engage_abstain", "noisy_engage")
    for link in ("logistic", "probit", "arctan")
]


class TestTallies:
    """A vote answers with its tally: the sum of the n scores it used to
    return, counted from the same uniforms in the same layout, so the
    stream and query_count end where the scores left them."""

    X = np.zeros(3)

    @staticmethod
    def _oracle(kind, link):
        if kind == "sign":
            return SignOracle(_FirstCoordinate(), 0.2, _stream(130, "oracle"))
        return ConfidenceOracle(_FirstCoordinate(), kind, LinkFunction(kind=link, scale=0.5),
                                _stream(130, "oracle"))

    @staticmethod
    def _gaps():
        """60 gaps over +-6 link scales, every fifth a tie."""
        gaps = np.random.default_rng(130).uniform(-3.0, 3.0, 60)
        gaps[::5] = 0.0
        return gaps

    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("kind, link", ORACLE_KINDS)
    def test_a_tally_sums_the_reference_scores(self, kind, link, n):
        """Alone (compare_batch) and in a block (compare_gaps), every tally is
        the reference vote's, the same double both ways, with the same
        query_count and the same next draw."""
        gaps = self._gaps()
        reference, alone, block = (self._oracle(kind, link) for _ in range(3))
        expected = np.array([_expected_tally(reference, _reference_vote(reference, g, n))
                             for g in gaps])
        singles = np.array([alone.compare_batch(self.X, [-g, 0.0, 0.0], n) for g in gaps])
        tallies = block.compare_gaps(gaps, n)
        assert tallies.shape == gaps.shape
        assert np.array_equal(singles, expected)
        assert singles.tobytes() == tallies.tobytes()  # the same doubles, signed zeros too
        next_draw = reference.rng.random()
        for oracle in (alone, block):
            assert oracle.query_count == reference.query_count == gaps.size * n
            assert oracle.rng.random() == next_draw

    @pytest.mark.parametrize("n", [1, 7, 64])
    @pytest.mark.parametrize("kind, link", ORACLE_KINDS)
    def test_first_preferred_wins_where_the_reference_votes_do(self, kind, link, n):
        """A block of ties and worse rows, then ten much better rows, then
        more: the first positive reference tally is won, before the last
        row, and the rewind leaves query_count and the stream where the
        reference votes leave them."""
        gaps = self._gaps()
        gaps = np.concatenate([-np.abs(gaps[:12]), np.full(10, 40.0), gaps[12:30]])
        block = np.zeros((gaps.size, 3))
        block[:, 0] = -gaps
        reference, oracle = self._oracle(kind, link), self._oracle(kind, link)
        expected = gaps.size
        for i, g in enumerate(gaps):
            if _expected_tally(reference, _reference_vote(reference, g, n)) > 0.0:
                expected = i
                break
        assert expected < gaps.size - 1
        if kind in ("deterministic_link", "engage_abstain"):
            assert expected == 12  # the first much better row; no worse row or tie wins
        assert oracle.first_preferred(self.X, block, n) == expected
        assert oracle.query_count == reference.query_count == (expected + 1) * n
        assert _stream_state(oracle) == _stream_state(reference)
        assert oracle.rng.random() == reference.rng.random()

    @pytest.mark.parametrize("kind, link", ORACLE_KINDS)
    def test_every_tally_is_a_float(self, kind, link):
        """compare_batch answers a float, a tie included; compare_gaps a
        float64 vector."""
        oracle = self._oracle(kind, link)
        for y in ([-0.4, 0.0, 0.0], [0.3, 1.0, 0.0], self.X.copy()):
            assert type(oracle.compare_batch(self.X, y, 3)) is float
        assert oracle.compare_gaps(np.array([0.4, 0.0, -0.2]), 3).dtype == np.float64
