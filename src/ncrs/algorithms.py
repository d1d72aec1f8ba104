"""Comparison-driven random search and a value-based two-point baseline.

The two comparison algorithms are ambient-blind: they receive a starting
point, whose length is the dimension, a step schedule, which fixes every
step and the horizon, and an oracle of which they use only compare and
query_count (ncrs_run) or compare_batch, first_preferred and query_count
(ncrs_vote_run); from compare_batch they learn only a vote's tally, and
from first_preferred only an index.  Both oracles answer all four from one
core (oracles._Oracle), the sign oracle's compare on its own scalar path.
No objective value, gradient, or intrinsic dimension is visible to them;
problem structure can enter only through how the harness builds the
schedule.  A StepSchedule is one cosine formula, and a constant step is
its case max_rate == min_rate; theory_schedule folds k into such a constant,
alpha0 / sqrt(k T), before a runner sees it.  The instrument callback is
likewise opaque: it is a function of the iterate alone, read once per
distinct iterate, and whatever floats it returns are stored in the
trajectory and never influence a decision.

rsgf_run is the baseline and is deliberately different: it consumes exact
objective values through a plain callable, two evaluations per iteration.

All three share one loop, _search, and differ only in the decision rule
that turns (step, theta, direction) into the next iterate.  A runner owns
its rng for the whole run: the loop draws its directions in blocks, and
a one-worker executor reads every block after the first at most two blocks
ahead (geometry.DrawAhead), so nothing else may draw from that stream
during the run.  Every direction equals the per-iteration draw bit for
bit, a finished run leaves the stream where sequential draws would, and no
thread outlives the run.  Every iterate and candidate is sealed (geometry.seal;
a block of candidates is a read-only view of one sealed buffer):
its values sit in an immutable buffer, so an oracle or instrument that
writes to a point it was handed raises ValueError, and an objective may
remember values by array identity (RidgeObjective.value).  For the same
reason the loop reads the instrument only when theta is a new array: while
moves are rejected, the logged reading repeats.

Rejection streaks of the vote search are answered in blocks (_search's
block_move, the oracle's first_preferred), sized by the run's own
acceptance rate: a run that rejects almost every candidate asks about
blocks of candidates, one that accepts often asks one at a time.  The
oracle's Philox stream can be set back past a block's unused uniforms, so
a block of any size answers as consecutive single calls do, up to the
last bits below.  A block's candidates are evaluated in one batched
objective value, which may differ from the single-point values in their
last bits, so a decision at a gap within rounding of a tie could in
principle differ from a per-candidate loop; the logged readings are still
single-point values at sealed iterates.
"""
from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import DrawAhead, RngStream, gaussian_vector, seal
from .oracles import positive_count

# Trajectories record every iteration up to this horizon; longer runs are
# subsampled to roughly 10^4 evenly spaced records.
FULL_LOG_HORIZON = 100_000
TARGET_LOG_POINTS = 10_000

# (value, gradient norm) at an iterate: a function of the point alone, read
# once per distinct iterate.
Instrument = Callable[[np.ndarray], tuple[float, float]]

# move(step, theta, direction) -> (theta', accepted): one iteration's decision.
Move = Callable[[float, np.ndarray, np.ndarray], tuple[np.ndarray, bool]]
# block_move(steps, theta, directions) -> (theta', i): the decisions of the
# next m = len(directions) iterations, given their (m, d) directions and
# their steps, one float when the schedule is constant, else an (m, 1)
# column.  Those before i are rejected; iteration i, if i < m, is accepted
# and theta' is its point (else theta' is theta).
BlockMove = Callable[[float | np.ndarray, np.ndarray, np.ndarray], tuple[np.ndarray, int]]

# With a block move, _search keeps an exponentially weighted estimate q of
# its acceptance rate, each iteration weighted ACCEPT_WEIGHT.  While the
# expected rejection streak 1/q is longer than BLOCK_SPAN rows, it hands
# over blocks of BLOCK_SPAN expected streaks, ceil(BLOCK_SPAN / q) rows,
# else one iteration at a time: a single call costs about what a few block
# rows do, and the rows after a block's accepted one are wasted.  A block
# holds at most BLOCK_ROWS rows and max(1, BLOCK_QUERIES //
# queries_per_iteration): its uniforms, one or two per query, then stay
# flat in the vote count.
ACCEPT_WEIGHT = 1 / 16
BLOCK_SPAN = 4
BLOCK_ROWS = 64
BLOCK_QUERIES = 2**20


def log_stride(horizon: int) -> int:
    """Record-keeping stride: 1 below FULL_LOG_HORIZON, else ceil(T / 10^4)."""
    if horizon <= FULL_LOG_HORIZON:
        return 1
    return math.ceil(horizon / TARGET_LOG_POINTS)


def _real_number(x, name: str) -> float:
    """x as a float; a ValueError naming it unless it is a real number (not a bool)."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {x!r}")
    return float(x)


@dataclass(frozen=True)
class StepSchedule:
    """Step size alpha_t as a function of the iteration index t in [1, horizon].

    alpha_t falls from max_rate to min_rate along a half cosine over
    t = 1 .. decay_steps and is min_rate from t = decay_steps on.  With
    decay_steps = 1 every step is min_rate, so a constant step alpha is
    max_rate = min_rate = alpha (constant_schedule, theory_schedule).  The
    rates are stored as floats and need 0 < min_rate <= max_rate < inf.
    """

    horizon: int
    max_rate: float
    min_rate: float
    decay_steps: int = 1

    def __post_init__(self):
        object.__setattr__(self, "horizon", positive_count(self.horizon, "horizon"))
        object.__setattr__(self, "decay_steps", positive_count(self.decay_steps, "decay_steps"))
        if self.decay_steps > self.horizon:
            raise ValueError("decay_steps must not exceed horizon")
        for name in ("max_rate", "min_rate"):
            object.__setattr__(self, name, _real_number(getattr(self, name), name))
        if not 0 < self.min_rate <= self.max_rate < math.inf:
            raise ValueError("need 0 < min_rate <= max_rate < inf")

    def step_at(self, t: int) -> float:
        if not 1 <= t <= self.horizon:
            raise ValueError(f"iteration {t} outside [1, {self.horizon}]")
        if t >= self.decay_steps:
            return self.min_rate
        progress = (t - 1) / (self.decay_steps - 1)
        return self.min_rate + 0.5 * (self.max_rate - self.min_rate) * (
            1.0 + math.cos(math.pi * progress)
        )


def constant_schedule(alpha: float, horizon: int) -> StepSchedule:
    return StepSchedule(horizon, alpha, alpha)


def theory_schedule(alpha0: float, intrinsic_dim: int, horizon: int) -> StepSchedule:
    """The uniform-margin constant step alpha0 / sqrt(intrinsic_dim * horizon)."""
    k = positive_count(intrinsic_dim, "intrinsic_dim")
    horizon = positive_count(horizon, "horizon")
    return constant_schedule(_real_number(alpha0, "alpha0") / math.sqrt(k * horizon), horizon)


def cosine_schedule(
    max_rate: float, min_rate: float, decay_steps: int, horizon: int
) -> StepSchedule:
    return StepSchedule(horizon, max_rate, min_rate, decay_steps)


@dataclass
class Trajectory:
    """Logged run history.  values / grad_norms come from the instrument
    callback (NaN when none was supplied) and play no role in the run; the
    instrument is read once per distinct iterate, so its reading repeats in
    the log while theta is unchanged."""

    steps: np.ndarray       # iteration indices of the logged records
    values: np.ndarray      # f(theta_t) before the t-th update
    grad_norms: np.ndarray  # ||grad f(theta_t)|| before the t-th update
    accepted: np.ndarray    # whether the t-th candidate was taken
    queries: np.ndarray     # cumulative oracle queries after iteration t
    theta_final: np.ndarray

    @property
    def total_queries(self) -> int:
        return int(self.queries[-1]) if len(self.queries) else 0


def _search(
    theta1: np.ndarray,
    schedule: StepSchedule,
    rng: RngStream,
    instrument: Instrument | None,
    move: Move,
    queries_per_iteration: int,
    block_move: BlockMove | None = None,
) -> Trajectory:
    """The random line search shared by the three algorithms.

    Runs schedule.horizon iterations in theta1.size dimensions.  Iteration t
    draws one Gaussian direction s and sets
    (theta, accepted) = move(schedule.step_at(t), theta, s); a constant
    schedule's step is read once.  With a block_move, the loop keeps an
    estimate q of its acceptance rate, which starts at 1 and after each
    call is multiplied by 1 - ACCEPT_WEIGHT once per iteration answered and
    raised by ACCEPT_WEIGHT when the call accepted.  While
    q < 1 / BLOCK_SPAN, it hands over the next m = ceil(BLOCK_SPAN / q)
    iterations at once, at most BLOCK_ROWS (fewer past the horizon or
    BLOCK_QUERIES), with their steps and their directions as one (m, d)
    array: (theta, i) = block_move(steps, theta, directions) rejects
    iterations t .. t+i-1, and for i < m accepts iteration t+i, whose point
    theta becomes; the directions after it are kept, drawn but unused, as
    a slice of that array for the iterations that follow.  The horizon's
    directions come from a DrawAhead on rng, in blocks, handed over by one
    gaussian_vector call per single move and by one DrawAhead.rows slice
    per block move: this thread draws the first block, and when more are
    needed, a one-worker executor reads the rest ahead by at most two
    blocks.  So rng belongs to the run until it
    returns; afterwards it stands where horizon sequential draws leave it,
    and the directions, hence the bytes, are those of sequential draws.  A
    finally cancels the blocks asked ahead and joins the helper thread on
    every exit, an interrupt included; an exception in a helper fill is
    raised at the next draw, and no direction is handed out after it.  Every
    log_stride(horizon)-th iteration and the last one are recorded: the
    instrument reading of theta before the move, the accept flag, and the
    cumulative query count queries_per_iteration * t.
    Iterates are sealed, so the same array means the same point: the
    instrument is called only when theta is not the array of the last
    reading, and a rejected move logs that reading again.  theta_final is a
    writeable copy.  A theta1 that is not a non-empty 1-D vector of finite
    numbers raises ValueError before any draw.
    """
    theta = np.asarray(theta1, dtype=np.float64)
    if theta.ndim != 1 or theta.size == 0:  # before seal, which flattens
        raise ValueError("theta1 must be a non-empty 1-D vector")
    if not np.isfinite(theta).all():
        raise ValueError("theta1 must have finite coordinates")
    theta = seal(theta)
    size = theta.size
    horizon = schedule.horizon
    stride = log_stride(horizon)
    steps = np.arange(1, horizon + 1, stride, dtype=np.int64)
    if steps[-1] != horizon:
        steps = np.append(steps, horizon)
    log_at = steps.tolist() + [horizon + 1]  # a sentinel past the last record
    values, grad_norms, accepted = [], [], []  # the records, made arrays at the end
    record = 0
    f = g = math.nan  # the last instrument reading
    read_at = None  # its iterate
    pending = np.empty((0, size))  # directions drawn but not yet used, oldest first
    t = 1  # the next iteration
    rate, keep = 1.0, 1.0 - ACCEPT_WEIGHT  # the acceptance estimate q; its decay per iteration
    block_rows = min(BLOCK_ROWS, max(1, BLOCK_QUERIES // queries_per_iteration))
    least_rate = BLOCK_SPAN / block_rows  # below it q asks for more rows; a long streak takes q to 0
    step = schedule.min_rate if schedule.decay_steps == 1 else None  # every step, if constant
    directions = DrawAhead(rng, size, horizon)
    try:
        while t <= horizon:
            if block_move is None or rate * BLOCK_SPAN >= 1.0:
                if len(pending):
                    direction, pending = pending[0], pending[1:]
                else:
                    direction = gaussian_vector(directions, size)
                moved, accept = move(step or schedule.step_at(t), theta, direction)
                last, taken = t, t if accept else 0
            else:
                m = min(block_rows, horizon + 1 - t, math.ceil(BLOCK_SPAN / max(rate, least_rate)))
                if len(pending) < m:
                    drawn = directions.rows(m - len(pending))
                    pending = np.concatenate((pending, drawn)) if len(pending) else drawn
                block_steps = step or np.array([[schedule.step_at(u)] for u in range(t, t + m)])
                moved, i = block_move(block_steps, theta, pending[:m])
                last, taken = (t + i, t + i) if i < m else (t + m - 1, 0)
                pending = pending[last + 1 - t:]
            while log_at[record] <= last:  # the records of iterations t .. last
                if instrument is not None and theta is not read_at:
                    (f, g), read_at = instrument(theta), theta
                values.append(f)
                grad_norms.append(g)
                accepted.append(log_at[record] == taken)
                record += 1
            if block_move is not None:  # the only reader of rate
                rate = rate * keep ** (last + 1 - t) + (ACCEPT_WEIGHT if taken else 0.0)
            theta, t = moved, last + 1
    finally:
        directions.close()
    return Trajectory(
        steps,
        np.array(values, dtype=np.float64),
        np.array(grad_norms, dtype=np.float64),
        np.array(accepted, dtype=bool),
        queries_per_iteration * steps,
        theta.copy(),
    )


def _counted(oracle, before: int, traj: Trajectory) -> Trajectory:
    """traj, once the oracle is seen to have answered the queries it logs."""
    asked = oracle.query_count - before
    if asked != traj.total_queries:
        raise RuntimeError(
            f"the oracle counted {asked} queries, the run logged {traj.total_queries}"
        )
    return traj


def ncrs_run(
    oracle,
    theta1: np.ndarray,
    schedule: StepSchedule,
    rng: RngStream,
    instrument: Instrument | None = None,
) -> Trajectory:
    """Sign-comparison random search: one oracle query per iteration.

    At iteration t a Gaussian direction s is drawn, the candidate
    theta + alpha_t * s is compared against theta, and it replaces theta
    exactly when the oracle prefers it.
    """

    def move(step, theta, direction):
        candidate = np.frombuffer((theta + step * direction).tobytes())  # seal, inline
        if oracle.compare(theta, candidate) > 0:
            return candidate, True
        return theta, False

    before = oracle.query_count
    return _counted(oracle, before, _search(theta1, schedule, rng, instrument, move, 1))


def ncrs_vote_run(
    oracle,
    theta1: np.ndarray,
    schedule: StepSchedule,
    votes: int,
    rng: RngStream,
    instrument: Instrument | None = None,
) -> Trajectory:
    """Confidence-vote random search: `votes` queries per iteration.

    The candidate theta + alpha_t * s is accepted exactly when the tally of
    its `votes` scores, their sum, is positive; a zero tally keeps the
    current point.  Each candidate gets its own compare_batch call while
    the run's acceptance estimate is at least 1 / BLOCK_SPAN; below it,
    _search hands over blocks of candidates sized by that estimate, and
    first_preferred answers a block in one call, exactly
    as consecutive compare_batch calls would up to the last bits of batched
    values (oracles module docstring).  The block is read-only, and the
    accepted row is sealed like a single candidate.
    """
    votes = positive_count(votes, "votes")

    def move(step, theta, direction):
        candidate = seal(theta + step * direction)
        if oracle.compare_batch(theta, candidate, votes) > 0.0:
            return candidate, True
        return theta, False

    def block_move(steps, theta, directions):
        block = seal(theta + steps * directions).reshape(directions.shape)
        i = oracle.first_preferred(theta, block, votes)
        return (seal(block[i]), i) if i < len(block) else (theta, i)

    before = oracle.query_count
    traj = _search(theta1, schedule, rng, instrument, move, votes, block_move)
    return _counted(oracle, before, traj)


def rsgf_run(
    value_fn: Callable[[np.ndarray], float],
    theta1: np.ndarray,
    schedule: StepSchedule,
    mu: float,
    rng: RngStream,
    instrument: Instrument | None = None,
) -> Trajectory:
    """Two-point Gaussian-smoothing gradient descent on exact values.

    theta <- theta - alpha_t * ((f(theta + mu s) - f(theta)) / mu) * s, with
    two value queries per iteration.
    """
    if not 0 < mu < math.inf:
        raise ValueError("mu must be finite and positive")

    def move(step, theta, direction):
        slope = (value_fn(theta + mu * direction) - value_fn(theta)) / mu
        return seal(theta - step * slope * direction), True

    return _search(theta1, schedule, rng, instrument, move, 2)


def rsgf_stable_step(smoothness: float, intrinsic_dim: int) -> float:
    """Largest step size with a certified per-iteration descent guarantee."""
    k = positive_count(intrinsic_dim, "intrinsic_dim")
    if not 0 < smoothness < math.inf:
        raise ValueError("smoothness must be finite and positive")
    return 1.0 / (4.0 * smoothness * (k + 2))


def vote_bernstein(second_moment_bound: float) -> float:
    """2C + 4/3 for second-moment constant C: the vote-failure Bernstein denominator."""
    return 2.0 * second_moment_bound + 4.0 / 3.0


@dataclass(frozen=True)
class VoteParams:
    """Vote-search parameters sufficient for an epsilon-stationary average."""

    epsilon: float
    step_size: float
    horizon: int
    votes: int

    @property
    def total_comparisons(self) -> int:
        return self.horizon * self.votes


def vote_params(
    epsilon: float,
    smoothness: float,
    intrinsic_dim: int,
    value_gap: float,
    margin_slope: float,
    second_moment_bound: float,
    margin_at_radius: float,
) -> VoteParams:
    """Step size, horizon, and vote count for the confidence-vote search.

    Inputs are the target accuracy epsilon in (0, 1), the smoothness bound
    L_f, the intrinsic dimension k, an upper bound on f(x1) - inf f, and the
    oracle certificate (margin slope c, second-moment constant C, and the
    margin value rho(r) at the certified linearity radius).

        alpha = 2 eps / (9 sqrt(2 pi) L k)
        T     = ceil(54 pi L k gap / eps^2)
        N     = ceil(max(54 pi L k l / eps^2, (2C + 4/3) ln 2 / rho(r)))
                with l = (2C + 4/3) / (e c)

    The second arm of N keeps the vote-failure factor at or below 1/2.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    for name, value in (
        ("smoothness", smoothness), ("value_gap", value_gap), ("margin_slope", margin_slope)
    ):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")
    intrinsic_dim = positive_count(intrinsic_dim, "intrinsic_dim")
    if intrinsic_dim > sys.float_info.max:
        raise ValueError("intrinsic_dim must fit a float")
    if not 1.0 <= second_moment_bound < math.inf:
        raise ValueError("second_moment_bound must be finite and at least 1")
    if not 0.0 < margin_at_radius <= 1.0:
        raise ValueError("margin_at_radius must lie in (0, 1]")
    eps2 = epsilon**2
    if eps2 == 0.0:
        raise ValueError(f"epsilon={epsilon} is too small: epsilon**2 underflows to 0")
    lk = smoothness * intrinsic_dim
    alpha = 2.0 * epsilon / (9.0 * math.sqrt(2.0 * math.pi) * lk)
    horizon = 54.0 * math.pi * lk * value_gap / eps2
    bernstein = vote_bernstein(second_moment_bound)
    vote_scale = bernstein / (math.e * margin_slope)
    votes = max(
        54.0 * math.pi * lk * vote_scale / eps2,
        bernstein * math.log(2.0) / margin_at_radius,
    )
    for name, value in (("horizon", horizon), ("votes", votes)):
        if not math.isfinite(value):
            raise ValueError(
                f"{name} leaves float range for epsilon={epsilon}, smoothness={smoothness}, "
                f"intrinsic_dim={intrinsic_dim}, value_gap={value_gap}, "
                f"margin_slope={margin_slope}, second_moment_bound={second_moment_bound}, "
                f"margin_at_radius={margin_at_radius}"
            )
    return VoteParams(
        epsilon=epsilon, step_size=alpha, horizon=math.ceil(horizon), votes=math.ceil(votes)
    )
