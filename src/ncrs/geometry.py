"""Seeded random streams and orthonormal subspace utilities.

Everything downstream (objectives, oracles, algorithms, harness) draws its
randomness from an `RngStream`, the numpy Generator over a counter-based
Philox bit generator keyed by (master_seed, stream_id).  Distinct stream
ids give statistically independent sequences, and a given key reproduces
the same sequence on any machine and regardless of what other streams are
doing, so sweeps are bit-reproducible under any worker count.
"""
from __future__ import annotations

import hashlib
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# Residual norms below this during orthonormalization count as a
# near-dependent draw and trigger a redraw of the offending row.
NEAR_DEPENDENCE_TOL = 1e-12

KEY_LIMIT = 1 << 64

# DrawAhead blocks: 256 KB of normals each, at most DRAW_AHEAD_QUEUE of them
# asked ahead.  The current and the asked-ahead blocks are what the search
# loop uses while the helper waits, up to a 5 ms switch interval, to get the
# interpreter lock back from it; a block holds 32768 // d rows, so at small
# d it covers hundreds of iterations (655 at d = 50).
DRAW_AHEAD_NORMALS = 32_768
DRAW_AHEAD_QUEUE = 2


def stream_id_for(run_index: int, role: str) -> int:
    """Derive a 64-bit stream id from a run index and a role tag.

    The id is the little-endian 8-byte blake2b digest of the ASCII string
    "<run_index>:<role>".  Documented so external tooling can reproduce any
    stream used by the harness.
    """
    digest = hashlib.blake2b(f"{run_index}:{role}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class RngStream(np.random.Generator):
    """The Generator over Philox(key=[master_seed, stream_id]): an independent
    deterministic stream.  Both keys are ints (not bool) in [0, 2**64)."""

    def __init__(self, master_seed: int, stream_id: int = 0):
        for name, key in (("master_seed", master_seed), ("stream_id", stream_id)):
            is_int = isinstance(key, (int, np.integer)) and not isinstance(key, bool)
            if not (is_int and 0 <= key < KEY_LIMIT):
                raise ValueError(f"{name} must be an int in [0, 2**64), got {key!r}")
        super().__init__(np.random.Philox(key=np.array([master_seed, stream_id], np.uint64)))


def seal(point: np.ndarray) -> np.ndarray:
    """A float64 copy of point's data over an immutable bytes buffer, flattened.

    Writing to the result raises ValueError, and numpy refuses to make it
    writeable again, so its values can never change: an objective may
    remember them by array identity (is_sealed).
    """
    return np.frombuffer(np.asarray(point, dtype=np.float64).tobytes())


def is_sealed(x) -> bool:
    """Whether x is a vector over an immutable bytes buffer, as seal makes."""
    return type(x) is np.ndarray and type(x.base) is bytes and x.ndim == 1


def gaussian_vector(rng: RngStream | DrawAhead, d: int) -> np.ndarray:
    """One standard Gaussian vector in R^d, drawn by rng.standard_normal(d)."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    return rng.standard_normal(d)


class DrawAhead:
    """The next `rows` draws gaussian_vector(rng, size) would make, read ahead.

    The rows are drawn from rng in blocks of DRAW_AHEAD_NORMALS // size
    rows, and draws.standard_normal(size), which gaussian_vector(draws,
    size) calls as it would rng's, returns them one at a time; each equals
    the draw it replaces bit for bit, because a block fill equals the same
    fills one by one.  The constructor draws the first block itself, so a
    run that fits in one block starts no thread.  When more rows are
    needed, a one-worker executor draws all the rest in order, at every
    size, and is asked for at most DRAW_AHEAD_QUEUE blocks ahead of the one
    being handed out, so at most three blocks are alive at once; Philox
    fills release the interpreter lock, so those draws run beside the
    caller's loop rather than inside it.  The helper calls the generator
    directly and nothing else of this package, so a tracer that wraps
    gaussian_vector sees only the caller's draws.

    The owner of `rng` lends it for the whole read-ahead: nothing else may
    draw from it until close() returns.  Once every row has been taken, rng
    stands where `rows` sequential draws leave it.  close() cancels the
    blocks asked ahead and joins the helper; an exception raised in the
    helper is raised at the caller's next draw, and no row is handed out
    after it.
    """

    def __init__(self, rng: RngStream, size: int, rows: int):
        if size < 1 or rows < 1:
            raise ValueError(f"need size >= 1 and rows >= 1, got size={size}, rows={rows}")
        self.size = size
        self._source = rng
        self._block = max(1, DRAW_AHEAD_NORMALS // size)
        first = min(rows, self._block)
        self._rows = iter(self._source.standard_normal((first, size)))
        self._due = rows - first  # rows not yet asked of the helper
        self._ahead = deque()  # futures of the next blocks, oldest first
        self._helper = None
        if self._due:
            self._helper = ThreadPoolExecutor(1, thread_name_prefix="ncrs-draw-ahead")
            for _ in range(DRAW_AHEAD_QUEUE):
                self._ask()

    def _ask(self) -> None:
        """Ask the helper for the next block, if any rows are still due."""
        if self._due:
            take = min(self._due, self._block)
            self._due -= take
            fill = self._helper.submit(self._source.standard_normal, (take, self.size))
            self._ahead.append(fill)

    def standard_normal(self, size: int) -> np.ndarray:
        """The next row, as rng.standard_normal(size) would draw it."""
        if size != self.size:
            raise ValueError(f"draws were read ahead for size {self.size}, not {size}")
        row = next(self._rows, None)
        if row is None:
            if not self._ahead:
                raise RuntimeError("no rows left: all were drawn, or the read-ahead was closed")
            try:
                block = self._ahead.popleft().result()
            except BaseException:
                self._ahead.clear()  # a later block's rows would skip the failed one's
                raise
            self._ask()
            self._rows = iter(block)
            row = next(self._rows)
        return row

    def close(self) -> None:
        """Cancel the blocks asked ahead and join the helper, if one runs."""
        self._ahead.clear()
        if self._helper is not None:
            self._helper.shutdown(cancel_futures=True)


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
