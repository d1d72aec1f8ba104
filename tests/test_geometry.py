import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ncrs.geometry import (
    RngStream,
    Subspace,
    gaussian_vector,
    is_sealed,
    random_subspace,
    seal,
    stream_id_for,
)


def _stream(seed, tag):
    return RngStream(seed, stream_id_for(0, tag))


class TestStreamIds:
    def test_matches_documented_construction(self):
        # little-endian blake2b-8 of "<run_index>:<role>"
        digest = hashlib.blake2b(b"0:subspace", digest_size=8).digest()
        assert stream_id_for(0, "subspace") == int.from_bytes(digest, "little")

    def test_frozen_values(self):
        assert stream_id_for(0, "subspace") == 10933851986034198591
        assert stream_id_for(3, "oracle") == 9218202809858778768

    def test_distinct_across_roles_and_runs(self):
        ids = {
            stream_id_for(run, role)
            for run in range(50)
            for role in ("subspace", "init", "algorithm", "oracle", "nuisance")
        }
        assert len(ids) == 250


class TestRngStream:
    def test_same_key_same_draws(self):
        a = RngStream(123, stream_id_for(0, "algorithm")).standard_normal(64)
        b = RngStream(123, stream_id_for(0, "algorithm")).standard_normal(64)
        assert np.array_equal(a, b)

    def test_different_stream_different_draws(self):
        a = RngStream(123, stream_id_for(0, "algorithm")).standard_normal(64)
        b = RngStream(123, stream_id_for(1, "algorithm")).standard_normal(64)
        c = RngStream(124, stream_id_for(0, "algorithm")).standard_normal(64)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_negative_keys(self):
        """Keys lie in [0, 2**64); a key of 2**64 would alias key 0."""
        for seed, stream_id in [(-1, 0), (0, -4), (2**64, 0), (0, 2**64 + 5)]:
            with pytest.raises(ValueError):
                RngStream(seed, stream_id)
        top = RngStream(2**64 - 1, 2**64 - 1).standard_normal(4)
        assert not np.array_equal(top, RngStream(0, 0).standard_normal(4))

    def test_rejects_non_integer_keys(self):
        """A float, bool or string key would otherwise replay an integer seed."""
        for bad in (1.5, 2.0, True, np.float64(3), "3", None):
            with pytest.raises(ValueError, match="master_seed must be an int"):
                RngStream(bad, 0)
            with pytest.raises(ValueError, match="stream_id must be an int"):
                RngStream(0, bad)
        a = RngStream(np.int64(3), np.uint64(2**64 - 1)).standard_normal(4)
        assert np.array_equal(a, RngStream(3, 2**64 - 1).standard_normal(4))

    def test_is_the_keyed_philox_generator(self):
        key = np.array([9, 2**64 - 1], dtype=np.uint64)
        rng = RngStream(9, 2**64 - 1)
        reference = np.random.Generator(np.random.Philox(key=key))
        assert isinstance(rng, np.random.Generator)
        assert np.array_equal(rng.standard_normal(50), reference.standard_normal(50))
        assert np.array_equal(rng.random(7), reference.random(7))


class TestSeal:
    def test_sealed_point_rejects_writes_and_reenabled_writes(self):
        p = seal(np.arange(5.0))
        assert is_sealed(p)
        with pytest.raises(ValueError):
            p[0] = 1.0
        with pytest.raises(ValueError):
            p.flags.writeable = True
        assert np.array_equal(p, np.arange(5.0))

    def test_copies_the_data_as_float64(self):
        source = np.arange(4)
        p = seal(source)
        source[0] = 7
        assert p.dtype == np.float64 and np.array_equal(p, [0.0, 1.0, 2.0, 3.0])
        assert is_sealed(seal([1, 2]))
        assert seal(np.ones((2, 3))).shape == (6,)  # flattened

    def test_only_sealed_vectors_count(self):
        frozen = np.ones(4)
        frozen.flags.writeable = False
        sealed = seal(np.ones(4))
        for other in (np.ones(4), frozen, sealed[:], sealed.copy(), sealed.reshape(2, 2),
                      np.ndarray((2, 2), buffer=bytes(32)), [1.0, 2.0]):
            assert not is_sealed(other)


class TestGaussianVector:
    def test_moments(self):
        """10^6 iid draws: mean within 0.005 (5 sigma of SE=0.001), var within 0.006."""
        x = gaussian_vector(_stream(2024, "test:gauss"), 1_000_000)
        assert abs(x.mean()) < 0.005
        assert abs(x.var() - 1.0) < 0.006

    def test_shape_and_dtype(self):
        x = gaussian_vector(_stream(0, "test:shape"), 17)
        assert x.shape == (17,)
        assert x.dtype == np.float64

    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ValueError):
            gaussian_vector(_stream(0, "test:bad"), 0)


class TestRandomSubspace:
    @pytest.mark.parametrize("d,k", [(5, 1), (8, 3), (30, 7), (12, 12), (200, 40)])
    def test_rows_orthonormal(self, d, k):
        sub = random_subspace(_stream(d * 1000 + k, "test:sub"), d, k)
        gram = sub.basis @ sub.basis.T
        assert_allclose(gram, np.eye(k), atol=1e-10)
        assert sub.dim == k and sub.ambient_dim == d

    def test_full_dimension_projector_is_identity(self):
        sub = random_subspace(_stream(3, "test:full"), 6, 6)
        p = sub.basis.T @ sub.basis
        assert_allclose(p, np.eye(6), atol=1e-9)

    def test_projector_identities(self):
        sub = random_subspace(_stream(11, "test:proj"), 40, 9)
        p = sub.basis.T @ sub.basis
        assert_allclose(p, p.T, atol=1e-12)
        assert_allclose(p @ p, p, atol=1e-11)
        assert_allclose(np.trace(p), 9.0, atol=1e-10)

    def test_project_and_coordinates(self):
        stream = _stream(5, "test:coords")
        sub = random_subspace(stream, 25, 6)
        v = stream.standard_normal(25)
        pv = sub.project(v)
        # projection is a fixed point and coordinate norms agree
        assert_allclose(sub.project(pv), pv, atol=1e-12)
        assert_allclose(np.linalg.norm(sub.coordinates(v)), np.linalg.norm(pv), rtol=1e-12)
        # Pythagoras
        assert_allclose(
            np.linalg.norm(v) ** 2,
            np.linalg.norm(pv) ** 2 + np.linalg.norm(v - pv) ** 2,
            rtol=1e-10,
        )

    def test_projection_batched_matches_loop(self):
        stream = _stream(8, "test:batch")
        sub = random_subspace(stream, 15, 4)
        vs = stream.standard_normal((7, 15))
        batched = sub.project(vs)
        for i in range(7):
            assert_allclose(batched[i], sub.project(vs[i]), rtol=1e-13)

    def test_orthogonal_to(self):
        stream = _stream(21, "test:ortho")
        active = random_subspace(stream, 50, 8)
        extra = random_subspace(stream, 50, 5, orthogonal_to=active)
        cross = extra.basis @ active.basis.T
        assert_allclose(cross, np.zeros((5, 8)), atol=1e-10)
        gram = extra.basis @ extra.basis.T
        assert_allclose(gram, np.eye(5), atol=1e-10)

    def test_dimension_validation(self):
        stream = _stream(0, "test:dims")
        with pytest.raises(ValueError):
            random_subspace(stream, 4, 5)
        with pytest.raises(ValueError):
            random_subspace(stream, 4, 0)
        active = random_subspace(stream, 10, 6)
        with pytest.raises(ValueError):
            # complement only has 4 dimensions left
            random_subspace(stream, 10, 5, orthogonal_to=active)
        with pytest.raises(ValueError, match="different ambient dimension"):
            random_subspace(stream, 12, 2, orthogonal_to=active)

    def test_project_rejects_wrong_length(self):
        sub = random_subspace(_stream(1, "test:len"), 9, 2)
        with pytest.raises(ValueError):
            sub.project(np.zeros(8))

    def test_subspace_requires_2d_basis(self):
        with pytest.raises(ValueError):
            Subspace(basis=np.zeros(4))
        with pytest.raises(ValueError):
            Subspace(basis=np.zeros((3, 2)))
