import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ncrs.geometry import RngStream, Subspace, seal, stream_id_for
from ncrs.objectives import (
    InnerFunction,
    NuisanceSpec,
    RidgeObjective,
    initial_point,
    random_ridge_objective,
)


def _stream(seed, tag):
    return RngStream(seed, stream_id_for(0, tag))


def _fd_gradient(fn, z, h=1e-5):
    """Central-difference gradient, the independent oracle for analytic gradients."""
    z = np.asarray(z, dtype=np.float64)
    grad = np.empty_like(z)
    for i in range(z.size):
        e = np.zeros_like(z)
        e[i] = h
        grad[i] = (fn(z + e) - fn(z - e)) / (2 * h)
    return grad


class TestInnerValues:
    """Closed forms frozen from hand derivations."""

    def test_pure_quadratic(self):
        g = InnerFunction(kind="pure_quadratic")
        assert g.value(np.array([3.0, 4.0])) == 12.5
        assert g.value(np.zeros(5)) == 0.0
        assert_allclose(g.gradient(np.array([3.0, 4.0])), [3.0, 4.0], rtol=0)

    def test_quadratic_cosine(self):
        g = InnerFunction(kind="quadratic_cosine", amplitude=1.0, frequency=3.0)
        # at 0 each cosine contributes its amplitude
        assert g.value(np.zeros(4)) == 4.0
        z = np.full(2, math.pi / 3.0)  # cos(3z) = -1
        assert_allclose(g.value(z), -0.9033772887678493, rtol=1e-15)
        assert_allclose(g.gradient(np.zeros(3)), np.zeros(3), atol=0)

    def test_quadratic_cosine_custom_params(self):
        g = InnerFunction(kind="quadratic_cosine", amplitude=0.5, frequency=2.0)
        assert_allclose(g.value(np.zeros(3)), 1.5, rtol=0)
        assert g.smoothness == 1.0 + 0.5 * 4.0
        assert g.lower_bound(3) == -1.5

    def test_bounded_well(self):
        g = InnerFunction(kind="bounded_well")
        assert g.value(np.array([1.0])) == 0.5
        assert_allclose(g.value(np.array([3.0, 4.0])), 1.8411764705882354, rtol=1e-15)
        # each coordinate contributes < 1, so the sum stays below k
        z = np.full(6, 100.0)
        assert g.value(z) < 6.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            InnerFunction(kind="cubic")
        with pytest.raises(ValueError):
            InnerFunction(kind="quadratic_cosine", frequency=0.0)
        with pytest.raises(ValueError):
            InnerFunction(kind="quadratic_cosine", amplitude=-0.1)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                InnerFunction(kind="quadratic_cosine", amplitude=bad)
            with pytest.raises(ValueError):
                InnerFunction(kind="quadratic_cosine", frequency=bad)

    def test_batched_value_matches_scalar(self):
        rng = _stream(3, "test:batch")
        zs = rng.standard_normal((11, 4))
        for kind in ("pure_quadratic", "quadratic_cosine", "bounded_well"):
            g = InnerFunction(kind=kind)
            batched = g.value(zs)
            assert batched.shape == (11,)
            for i in range(11):
                assert_allclose(batched[i], g.value(zs[i]), rtol=1e-14)


class TestInnerGradients:
    @pytest.mark.parametrize("kind", ["pure_quadratic", "quadratic_cosine", "bounded_well"])
    def test_matches_finite_differences(self, kind):
        """Central differences at h=1e-5 agree to 1e-4 relative; the quadratic is exact."""
        g = InnerFunction(kind=kind)
        rng = _stream(17, f"test:fd:{kind}")
        for scale in (0.3, 1.0, 4.0):
            z = scale * rng.standard_normal(6)
            fd = _fd_gradient(g.value, z)
            ref = max(1.0, float(np.linalg.norm(fd)))
            err = float(np.linalg.norm(g.gradient(z) - fd)) / ref
            assert err < (1e-9 if kind == "pure_quadratic" else 1e-4)

    def test_gradient_batched_shape(self):
        g = InnerFunction(kind="quadratic_cosine")
        zs = np.zeros((5, 3))
        assert g.gradient(zs).shape == (5, 3)


class TestSmoothnessCertificates:
    @pytest.mark.parametrize("kind,expected", [
        ("pure_quadratic", 1.0),
        ("quadratic_cosine", 10.0),  # 1 + a w^2 with a=1, w=3
        ("bounded_well", 2.0),
    ])
    def test_certified_constant(self, kind, expected):
        assert InnerFunction(kind=kind).smoothness == expected

    @pytest.mark.parametrize("kind", ["pure_quadratic", "quadratic_cosine", "bounded_well"])
    def test_secant_bound_holds(self, kind):
        """||grad(z1)-grad(z2)|| <= L ||z1-z2|| over 10^4 random pairs at mixed scales."""
        g = InnerFunction(kind=kind)
        rng = _stream(29, f"test:secant:{kind}")
        scales = 10.0 ** rng.uniform(-2, 1, size=10_000)
        z1 = scales[:, None] * rng.standard_normal((10_000, 5))
        z2 = z1 + scales[:, None] * rng.standard_normal((10_000, 5))
        lhs = np.linalg.norm(g.gradient(z1) - g.gradient(z2), axis=-1)
        rhs = g.smoothness * np.linalg.norm(z1 - z2, axis=-1)
        assert np.all(lhs <= rhs * (1 + 1e-9))

    def test_quadratic_cosine_constant_is_tight(self):
        # curvature peaks where cos(w z) = -1, i.e. z = pi/w
        g = InnerFunction(kind="quadratic_cosine", amplitude=1.0, frequency=3.0)
        z = np.array([math.pi / 3.0])
        h = 1e-4
        ratio = float(
            np.linalg.norm(g.gradient(z + h) - g.gradient(z - h)) / (2 * h)
        )
        assert ratio > 10.0 * (1 - 1e-4)
        assert ratio <= 10.0 * (1 + 1e-4)

    def test_bounded_well_constant_from_second_differences(self):
        # brute-force sup of |psi''| on a dense grid: attained at 0 with value 2
        g = InnerFunction(kind="bounded_well")
        z = np.linspace(-6.0, 6.0, 120_001)[:, None]
        h = 1e-4
        second = (g.value(z + h) - 2 * g.value(z) + g.value(z - h)) / h**2
        assert np.max(np.abs(second)) == pytest.approx(2.0, abs=1e-5)


class TestLowerBounds:
    @pytest.mark.parametrize("kind", ["pure_quadratic", "quadratic_cosine", "bounded_well"])
    def test_bound_holds_on_samples(self, kind):
        g = InnerFunction(kind=kind)
        rng = _stream(31, f"test:low:{kind}")
        z = 5.0 * rng.standard_normal((100_000, 4))
        assert np.all(g.value(z) >= g.lower_bound(4) - 1e-12)

    def test_attained_values(self):
        assert InnerFunction(kind="pure_quadratic").value(np.zeros(3)) == 0.0
        assert InnerFunction(kind="bounded_well").value(np.zeros(3)) == 0.0


class TestRidgeObjective:
    def _make(self, seed, d, k, kind="pure_quadratic", tau=0.0, m=0):
        return random_ridge_objective(
            _stream(seed, "subspace"),
            d,
            k,
            InnerFunction(kind=kind),
            tau=tau,
            nuisance_dim=m,
            nuisance_rng=_stream(seed, "nuisance") if tau > 0 else None,
        )

    def test_kernel_directions_are_flat(self):
        """f(x + s) == f(x + Ps): moves off the active subspace change nothing."""
        obj = self._make(40, 30, 6, kind="quadratic_cosine")
        rng = _stream(41, "test:flat")
        for _ in range(100):
            x = rng.standard_normal(30)
            s = 3.0 * rng.standard_normal(30)
            a = obj.value(x + s)
            b = obj.value(x + obj.active.project(s))
            assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_gradient_lies_in_active_subspace(self):
        obj = self._make(42, 25, 5, kind="bounded_well")
        rng = _stream(43, "test:span")
        for _ in range(50):
            grad = obj.gradient(rng.standard_normal(25))
            off = grad - obj.active.project(grad)
            assert np.linalg.norm(off) < 1e-10

    def test_gradient_matches_finite_differences(self):
        obj = self._make(44, 12, 4, kind="quadratic_cosine")
        rng = _stream(45, "test:fdr")
        x = rng.standard_normal(12)
        fd = _fd_gradient(obj.value, x)
        assert_allclose(obj.gradient(x), fd, rtol=0, atol=2e-6)

    def test_descent_smoothness_inequality(self):
        """|f(y) - f(x) - <grad f(x), y-x>| <= (L/2) ||y-x||^2 on 10^4 random pairs."""
        for kind in ("pure_quadratic", "quadratic_cosine", "bounded_well"):
            obj = self._make(46, 10, 3, kind=kind)
            rng = _stream(47, f"test:desc:{kind}")
            x = rng.standard_normal((10_000, 10))
            y = x + 0.5 * rng.standard_normal((10_000, 10))
            gap = obj.value(y) - obj.value(x)
            lin = np.einsum("ij,ij->i", obj.gradient(x), y - x)
            quad = 0.5 * obj.smoothness * np.sum((y - x) ** 2, axis=-1)
            assert np.all(np.abs(gap - lin) <= quad * (1 + 1e-9) + 1e-12)

    def test_certified_constants(self):
        obj = self._make(48, 20, 4, kind="quadratic_cosine")
        assert obj.smoothness == 10.0
        assert obj.lower_bound == -4.0
        assert obj.ambient_dim == 20 and obj.intrinsic_dim == 4

    def test_value_lower_bound_sampled(self):
        obj = self._make(49, 15, 5, kind="quadratic_cosine")
        rng = _stream(50, "test:lbs")
        x = 4.0 * rng.standard_normal((50_000, 15))
        assert np.all(obj.value(x) >= obj.lower_bound - 1e-12)

    def test_dimension_validation(self):
        obj = self._make(51, 9, 2)
        with pytest.raises(ValueError):
            obj.value(np.zeros(8))
        with pytest.raises(ValueError):
            obj.gradient(np.zeros(10))

    @pytest.mark.parametrize("scalar", [3.0, np.float64(3.0), np.array(3.0), 3])
    def test_a_scalar_point_raises_naming_the_dimension(self, scalar):
        obj = self._make(52, 9, 2, tau=0.1, m=2)
        for call in (obj.value, obj.gradient, obj.active.project, obj.nuisance.phases):
            with pytest.raises(ValueError, match=r"a scalar has no dimension, .* R\^9$"):
                call(scalar)


class TestEvaluate:
    """RidgeObjective.value remembers sealed points by identity, and only them."""

    def _make(self, tau=0.0):
        return random_ridge_objective(
            _stream(60, "subspace"), 12, 3, InnerFunction(kind="quadratic_cosine"),
            tau=tau, nuisance_dim=2 if tau > 0 else 0, nuisance_rng=_stream(60, "nuisance"),
        )

    @staticmethod
    def _frozen(x):
        x.flags.writeable = False
        return x

    @pytest.fixture
    def value_calls(self, monkeypatch):
        """The points whose value is computed, not answered from memory."""
        calls = []
        original = Subspace.coordinates

        def counting(sub, v):
            calls.append(v)
            return original(sub, v)

        monkeypatch.setattr(Subspace, "coordinates", counting)
        return calls

    @pytest.mark.parametrize("tau", [0.0, 0.1])
    def test_same_bits_as_value(self, tau):
        obj = self._make(tau)
        rng = _stream(61, "test:eval")
        for _ in range(20):
            x = rng.standard_normal(12)
            sealed = seal(x)
            expected = float(obj.inner.value(x @ obj.active.basis.T))
            if tau > 0:
                expected += float(obj.nuisance.value(x))
            assert obj.value(x) == expected
            assert obj.value(sealed) == expected
            assert obj.value(sealed) == expected  # answered from memory
            assert np.array_equal(obj.gradient(sealed), obj.gradient(x))

    def test_read_only_point_is_computed_once(self, value_calls):
        obj = self._make()
        x = seal(np.ones(12))
        first = obj.value(x)
        assert obj.value(x) == first
        assert len(value_calls) == 1

    def test_mutated_writeable_array_is_never_answered_from_the_cache(self, value_calls):
        obj = self._make()
        x = np.ones(12)
        before = obj.value(x)
        x += 0.5 * obj.active.basis[0]
        assert obj.value(x) == float(obj.value(x.copy())) != before
        assert len(value_calls) == 3

    def test_views_and_reenabled_writes_bypass_the_cache(self, value_calls):
        obj = self._make()
        base = seal(np.ones(12))
        obj.value(base)
        view = base[:]
        obj.value(view)
        obj.value(view)
        assert len(value_calls) == 3
        with pytest.raises(ValueError):
            base.flags.writeable = True
        obj.value(base)
        assert len(value_calls) == 3
        owned = self._frozen(np.ones(12))  # read-only, but it can be made writeable
        obj.value(owned)
        obj.value(owned)
        assert len(value_calls) == 5

    def test_refrozen_array_gets_a_fresh_value_and_gradient(self):
        obj = random_ridge_objective(RngStream(1, 1), 12, 3, InnerFunction("pure_quadratic"))
        x = self._frozen(np.ones(12))
        before = obj.value(x)
        obj.gradient(x)
        x.flags.writeable = True
        x += 0.5 * obj.active.basis[0]
        x.flags.writeable = False
        fresh = x.copy()
        assert obj.value(x) == obj.value(fresh) != before
        assert np.array_equal(obj.gradient(x), obj.gradient(fresh))

    def test_read_only_batch_is_computed_not_remembered(self, value_calls):
        obj = self._make()
        batch = self._frozen(np.stack([np.full(12, v) for v in (1.0, 2.0, 3.0)]))
        first = obj.value(batch)
        assert first.shape == (3,)
        assert np.array_equal(obj.value(batch), first)
        assert np.array_equal(obj.value(batch.copy()), first)
        assert [v is batch for v in value_calls] == [True, True, False]
        assert not obj._recent

    def test_least_recently_used_point_is_evicted(self, value_calls):
        obj = self._make()
        a, b, c = (seal(np.full(12, v)) for v in (1.0, 2.0, 3.0))
        for x in (a, b, a, c):  # the hit on a makes b the least recent
            obj.value(x)
        assert [x is c for x in value_calls] == [False, False, True]
        obj.value(a)
        assert len(value_calls) == 3
        obj.value(b)
        assert value_calls[-1] is b

    def test_gradient_at_a_cached_point_reuses_its_coordinates(self, monkeypatch):
        obj = self._make(tau=0.1)
        x = seal(np.linspace(-1.0, 1.0, 12))
        obj.value(x)
        mapped = []
        original = type(obj.active).coordinates
        monkeypatch.setattr(
            type(obj.active), "coordinates", lambda sub, v: mapped.append(sub) or original(sub, v)
        )
        grad = obj.gradient(x)
        assert mapped == []
        assert np.array_equal(grad, obj.gradient(x.copy()))
        # an unremembered point maps onto the active subspace and the nuisance's
        assert [sub is obj.active for sub in mapped] == [True, False]
        assert mapped[1] is obj.nuisance.subspace


class TestNuisance:
    def _make(self, seed=60, d=30, k=5, tau=0.3, m=4, kind="pure_quadratic"):
        return random_ridge_objective(
            _stream(seed, "subspace"),
            d,
            k,
            InnerFunction(kind=kind),
            tau=tau,
            nuisance_dim=m,
            nuisance_rng=_stream(seed, "nuisance"),
        )

    def test_gradient_norm_bounded_by_tau(self):
        obj = self._make()
        eta = obj.nuisance
        rng = _stream(61, "test:etan")
        x = 5.0 * rng.standard_normal((10_000, 30))
        norms = np.linalg.norm(eta.gradient(x), axis=-1)
        assert np.all(norms <= 0.3 * (1 + 1e-12))
        # equality at the origin where every cosine is 1
        assert_allclose(np.linalg.norm(eta.gradient(np.zeros(30))), 0.3, rtol=1e-12)

    def test_value_bounded(self):
        obj = self._make()
        rng = _stream(62, "test:etab")
        x = 5.0 * rng.standard_normal((10_000, 30))
        assert np.all(np.abs(obj.nuisance.value(x)) <= 0.3 * math.sqrt(4) + 1e-12)
        assert obj.nuisance.value(np.zeros(30)) == 0.0

    def test_gradient_orthogonal_to_active(self):
        obj = self._make()
        rng = _stream(63, "test:etao")
        for _ in range(50):
            g = obj.nuisance.gradient(rng.standard_normal(30))
            assert np.linalg.norm(obj.active.project(g)) < 1e-10

    def test_certified_constants_include_tau(self):
        obj = self._make(kind="quadratic_cosine")
        assert obj.smoothness == 10.0 + 0.3
        assert_allclose(obj.lower_bound, -5.0 - 0.3 * 2.0, rtol=1e-15)

    def test_full_gradient_matches_finite_differences(self):
        obj = self._make(d=14, k=3, m=2)
        rng = _stream(64, "test:etafd")
        x = rng.standard_normal(14)
        fd = _fd_gradient(obj.value, x)
        assert_allclose(obj.gradient(x), fd, rtol=0, atol=2e-6)

    def test_phases_are_subspace_coordinates(self):
        """phases is the nuisance subspace's coordinates, bit for bit, and a
        point of the wrong length gets the subspace's error."""
        eta = self._make().nuisance
        x = 5.0 * _stream(65, "test:etap").standard_normal((7, 30))
        assert np.array_equal(eta.phases(x), x @ eta.subspace.basis.T)
        assert np.array_equal(eta.phases(x[0]), eta.subspace.coordinates(x[0]))
        for bad in (np.zeros(29), np.zeros((3, 31))):
            with pytest.raises(ValueError, match="vector has dimension"):
                eta.phases(bad)
            with pytest.raises(ValueError, match="vector has dimension"):
                eta.value(bad)

    def test_toggling_nuisance_preserves_active_geometry(self):
        plain = random_ridge_objective(
            _stream(70, "subspace"), 24, 4, InnerFunction(kind="pure_quadratic")
        )
        noisy = self._make(seed=70, d=24, k=4, tau=0.2, m=3)
        assert np.array_equal(plain.active.basis, noisy.active.basis)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_ridge_objective(
                _stream(0, "s"), 10, 2, InnerFunction(kind="pure_quadratic"), tau=0.1
            )
        with pytest.raises(ValueError):
            random_ridge_objective(
                _stream(0, "s"), 10, 2, InnerFunction(kind="pure_quadratic"),
                nuisance_dim=3,
            )
        with pytest.raises(ValueError):
            NuisanceSpec(
                subspace=random_ridge_objective(
                    _stream(0, "s"), 6, 2, InnerFunction(kind="pure_quadratic")
                ).active,
                tau=-0.1,
            )
        with pytest.raises(ValueError):
            # k + m exceeds d
            random_ridge_objective(
                _stream(0, "s"), 6, 4, InnerFunction(kind="pure_quadratic"),
                tau=0.1, nuisance_dim=3,
            )
        space = random_ridge_objective(
            _stream(0, "s"), 6, 2, InnerFunction(kind="pure_quadratic")
        ).active
        elsewhere = random_ridge_objective(
            _stream(1, "s"), 8, 2, InnerFunction(kind="pure_quadratic")
        ).active
        with pytest.raises(ValueError, match="disagree on ambient dim"):
            RidgeObjective(
                active=space,
                inner=InnerFunction(kind="pure_quadratic"),
                nuisance=NuisanceSpec(subspace=elsewhere, tau=0.1),
            )
        for bad in (math.nan, math.inf, -0.1):
            with pytest.raises(ValueError, match="tau must be finite and nonnegative"):
                NuisanceSpec(subspace=space, tau=bad)
            for m in (0, 2):
                with pytest.raises(ValueError, match="tau must be finite and nonnegative"):
                    random_ridge_objective(
                        _stream(0, "s"), 10, 2, InnerFunction(kind="pure_quadratic"),
                        tau=bad, nuisance_dim=m,
                    )
        # nuisance_dim is checked before the tau rules, whatever tau is
        for tau in (0.0, 0.3):
            for bad in (-1, 2.5, True, "2"):
                with pytest.raises(ValueError, match="nuisance_dim must be a nonnegative integer"):
                    random_ridge_objective(
                        _stream(0, "s"), 10, 2, InnerFunction(kind="pure_quadratic"),
                        tau=tau, nuisance_dim=bad,
                    )
        obj = random_ridge_objective(
            _stream(0, "s"), 10, 2, InnerFunction(kind="pure_quadratic"),
            tau=0.3, nuisance_dim=np.int64(2),
        )
        assert obj.nuisance.dim == 2


class TestInitialPoint:
    def test_radius_and_containment(self):
        obj = random_ridge_objective(
            _stream(80, "subspace"), 40, 9, InnerFunction(kind="pure_quadratic")
        )
        x = initial_point(obj, _stream(80, "init"))
        assert_allclose(np.linalg.norm(x), 3.0 * math.sqrt(9), rtol=1e-12)
        assert np.linalg.norm(x - obj.active.project(x)) < 1e-10
        # radius 3 sqrt(k) makes the starting value 4.5 k for the quadratic
        assert_allclose(obj.value(x), 4.5 * 9, rtol=1e-12)

    def test_custom_radius_scale(self):
        obj = random_ridge_objective(
            _stream(81, "subspace"), 12, 4, InnerFunction(kind="pure_quadratic")
        )
        x = initial_point(obj, _stream(81, "init"), radius_scale=1.5)
        assert_allclose(np.linalg.norm(x), 1.5 * 2.0, rtol=1e-12)

    def test_radius_scale_validation(self):
        obj = random_ridge_objective(
            _stream(83, "subspace"), 12, 4, InnerFunction(kind="pure_quadratic")
        )
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                initial_point(obj, _stream(83, "init"), radius_scale=bad)

    def test_deterministic_given_stream(self):
        obj = random_ridge_objective(
            _stream(82, "subspace"), 12, 4, InnerFunction(kind="pure_quadratic")
        )
        a = initial_point(obj, _stream(82, "init"))
        b = initial_point(obj, _stream(82, "init"))
        assert np.array_equal(a, b)
