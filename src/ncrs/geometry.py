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
import queue
import threading
from dataclasses import dataclass

import numpy as np

# Residual norms below this during orthonormalization count as a
# near-dependent draw and trigger a redraw of the offending row.
NEAR_DEPENDENCE_TOL = 1e-12

KEY_LIMIT = 1 << 64

# DrawAhead blocks: 256 KB of normals each, at most DRAW_AHEAD_QUEUE of them
# queued.  At the smallest size a helper draws for, one block (256 rows) is
# about 5 ms of search, so the current and the queued blocks cover the up
# to 5 ms switch interval a helper may wait to get the interpreter lock
# back while the search loop holds it.
DRAW_AHEAD_NORMALS = 32_768
DRAW_AHEAD_QUEUE = 2
# Smallest row size whose blocks a helper thread draws.  Below it a row of
# normals is drawn in about the time the loop loses to lock hand-offs with
# a waiting helper: in paired runs at d = 50 and 100 (sign, vote and rsgf
# loops) the helper saved nothing, while blocks drawn by the caller saved
# 4-6%; at d = 128 the two tied, and from d = 160 the helper won.
DRAW_AHEAD_HELPER_MIN_SIZE = 128


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


def gaussian_vector(rng: RngStream | DrawAhead, d: int) -> np.ndarray:
    """Draw one standard Gaussian vector in R^d."""
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    return rng.gen.standard_normal(d)


class DrawAhead:
    """The next `rows` draws gaussian_vector(rng, size) would make, read ahead.

    The rows are drawn in blocks of DRAW_AHEAD_NORMALS // size rows, and
    gaussian_vector(draws, size) returns them one at a time; each equals
    the draw it replaces bit for bit, because a block fill equals the same
    fills one by one.  The constructor draws the first block itself.  When
    more rows are needed and size >= DRAW_AHEAD_HELPER_MIN_SIZE, one helper
    thread draws the rest in order and hands the blocks over through a
    queue of DRAW_AHEAD_QUEUE, so at most four blocks are alive at once;
    Philox fills release the interpreter lock, so those draws run beside
    the caller's loop rather than inside it.  Smaller rows are cheap to
    draw, and the caller draws each next block itself when it needs it.

    The owner of `rng` lends it for the whole read-ahead: nothing else may
    draw from it until close() returns.  Once every row has been taken, rng
    stands where `rows` sequential draws leave it.  close() stops and joins
    the helper; an exception raised in the helper is raised at the caller's
    next draw.
    """

    def __init__(self, rng: RngStream, size: int, rows: int):
        if size < 1 or rows < 1:
            raise ValueError(f"need size >= 1 and rows >= 1, got size={size}, rows={rows}")
        self.gen = self  # gaussian_vector draws through .gen, as on an RngStream
        self.size = size
        self._source = rng.gen
        self._block = max(1, DRAW_AHEAD_NORMALS // size)
        first = min(rows, self._block)
        self._rows = iter(self._source.standard_normal((first, size)))
        self._due = rows - first  # rows not yet handed over as a block
        self._thread = None
        if self._due and size >= DRAW_AHEAD_HELPER_MIN_SIZE:
            self._queue = queue.Queue(maxsize=DRAW_AHEAD_QUEUE)
            self._stop = threading.Event()
            self._thread = threading.Thread(target=self._fill, args=(self._due,), daemon=True)
            self._thread.start()

    def _fill(self, rows: int) -> None:
        """Helper thread: draw `rows` more rows in blocks and queue them.

        It calls the generator directly and nothing else of this package, so
        a tracer that wraps gaussian_vector sees only the caller's draws.
        """
        try:
            while rows and not self._stop.is_set():
                take = min(rows, self._block)
                self._queue.put(self._source.standard_normal((take, self.size)))
                rows -= take
        except BaseException as exc:  # handed over, raised by the caller's next draw
            self._queue.put(exc)

    def _next_block(self) -> np.ndarray:
        if not self._due:
            raise RuntimeError("no rows left: all were drawn, or the read-ahead was closed")
        take = min(self._due, self._block)
        self._due -= take
        if self._thread is None:
            return self._source.standard_normal((take, self.size))
        block = self._queue.get()
        if isinstance(block, BaseException):
            self._due = 0
            raise block
        return block

    def standard_normal(self, size: int) -> np.ndarray:
        """The next row, as gen.standard_normal(size) would draw it."""
        if size != self.size:
            raise ValueError(f"draws were read ahead for size {self.size}, not {size}")
        row = next(self._rows, None)
        if row is None:
            self._rows = iter(self._next_block())
            row = next(self._rows)
        return row

    def close(self) -> None:
        """Stop and join the helper, if one is running."""
        if self._thread is None:
            return
        self._stop.set()
        # Empty the queue, so a helper blocked on a full one finishes its
        # put, sees the stop and returns; it puts at most one more block.
        while True:
            try:
                self._queue.get_nowait()
            except queue.Empty:
                break
        self._thread.join()
        self._thread = None
        self._due = 0  # the stream has moved past the rows not handed over


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
