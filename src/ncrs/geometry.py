"""Seeded random streams and orthonormal subspace utilities.

Everything downstream (objectives, oracles, algorithms, harness) draws its
randomness through `RngStream`, a thin wrapper over a counter-based Philox
generator keyed by (master_seed, stream_id).  Distinct stream ids give
statistically independent sequences, and a given key reproduces the same
sequence on any machine and regardless of what other streams are doing, so
sweeps are bit-reproducible under any worker count.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

# Residual norms below this during orthonormalization count as a
# near-dependent draw and trigger a redraw of the offending row.
NEAR_DEPENDENCE_TOL = 1e-12

KEY_LIMIT = 1 << 64


def stream_id_for(run_index: int, role: str) -> int:
    """Derive a 64-bit stream id from a run index and a role tag.

    The id is the little-endian 8-byte blake2b digest of the ASCII string
    "<run_index>:<role>".  Documented so external tooling can reproduce any
    stream used by the harness.
    """
    digest = hashlib.blake2b(f"{run_index}:{role}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class RngStream:
    """Independent deterministic random stream keyed by (master_seed, stream_id)."""

    def __init__(self, master_seed: int, stream_id: int = 0):
        if not (0 <= master_seed < KEY_LIMIT and 0 <= stream_id < KEY_LIMIT):
            raise ValueError("master_seed and stream_id must lie in [0, 2**64)")
        key = np.array([master_seed, stream_id], dtype=np.uint64)
        self.gen = np.random.Generator(np.random.Philox(key=key))


def gaussian_vector(rng: RngStream, d: int) -> np.ndarray:
    """Draw one standard Gaussian vector in R^d."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    return rng.gen.standard_normal(d)


@dataclass(frozen=True)
class Subspace:
    """A k-dimensional subspace of R^d held as a row-orthonormal basis (k, d)."""

    basis: np.ndarray

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.float64)
        if basis.ndim != 2:
            raise ValueError(f"basis must be a (k, d) matrix, got shape {basis.shape}")
        k, d = basis.shape
        if not 1 <= k <= d:
            raise ValueError(f"basis must have 1 <= k <= d rows, got shape {basis.shape}")
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[1]

    def project(self, v: np.ndarray) -> np.ndarray:
        """Orthogonal projection of v onto the subspace; batched over leading axes."""
        return self.coordinates(v) @ self.basis

    def coordinates(self, v: np.ndarray) -> np.ndarray:
        """Coefficients of v against the basis rows (the k-dim image U v)."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape[-1] != self.ambient_dim:
            raise ValueError(
                f"vector has dimension {v.shape[-1]}, subspace lives in "
                f"R^{self.ambient_dim}"
            )
        return v @ self.basis.T


def random_subspace(
    rng: RngStream,
    d: int,
    k: int,
    orthogonal_to: Subspace | None = None,
) -> Subspace:
    """Rotation-invariant random k-dimensional subspace of R^d.

    Rows are drawn i.i.d. standard Gaussian and orthonormalized by modified
    Gram-Schmidt with one re-orthogonalization pass.  A row whose residual
    norm falls below NEAR_DEPENDENCE_TOL is redrawn.  When `orthogonal_to`
    is given, the result is additionally orthogonal to that subspace.
    """
    fixed = 0
    if orthogonal_to is not None:
        if orthogonal_to.ambient_dim != d:
            raise ValueError("orthogonal_to lives in a different ambient dimension")
        fixed = orthogonal_to.dim
    if not 1 <= k <= d - fixed:
        raise ValueError(
            f"need 1 <= k <= {d - fixed} (d={d}, {fixed} dims already taken), got k={k}"
        )
    rows = np.empty((k, d), dtype=np.float64)
    i = 0
    while i < k:
        v = gaussian_vector(rng, d)
        for _ in range(2):  # MGS plus one re-orthogonalization pass
            if orthogonal_to is not None:
                v = v - orthogonal_to.project(v)
            for j in range(i):
                v = v - (rows[j] @ v) * rows[j]
        norm = float(np.linalg.norm(v))
        if norm < NEAR_DEPENDENCE_TOL:
            continue  # near-dependent draw, try again
        rows[i] = v / norm
        i += 1
    return Subspace(basis=rows)
