"""Numerical certificates for the identities and inequalities the library
relies on.

Every check returns a CheckReport carrying its estimates, the theoretical
values or bounds, sample counts, standard errors, and a pass flag.  Monte
Carlo verdicts and their rules are written only in `_equality` (every
estimate within EQUALITY_SE_BAND = 4 standard errors of its theory value)
and `_bound` (one-sided: small <= large + band * SE, with band
BOUND_SE_BAND = 3 unless a check is given another).  The link identities
hold within DETERMINISTIC_TOL = 1e-12; the gradient check is not held to
that: it takes central differences of step GRAD_FD_STEP = 1e-5 and passes
at a maximum relative error of GRAD_FD_TOL = 1e-4.  Checks draw all
randomness from the RngStream handed to them, so a report is reproducible
bit-exactly from (master seed, check name).  Each report also records, per
verdict, its margin: how many SEs the estimate lies inside its bound.
An input a check cannot certify, such as a vector with a NaN or infinite
entry, a vector that is not 1-D or not of the subspace's dimension, or a
step that is not finite and positive, raises a ValueError that names it
before any draw.

Every Monte Carlo mean is one streaming estimate: chunks of at most
_MC_CHUNK = 32,768 numbers, so memory stays flat in the sample size, merged
by Chan, Golub & LeVeque's pairwise update, and SE = std(ddof=1) / sqrt(n).
The checks that draw only Gaussians (projector moments, cross moments,
half-normal) draw in two lanes (`_two_lane_mean_se`): the first half of the
sample from their rng on the calling thread, the rest from rng's stream
jumped once (`bit_generator.jumped()`, 2**128 Philox blocks ahead) on a
one-worker executor, so the two lanes' Philox fills run on two cores.  The
split is fixed at two lanes, never the CPU count, and a run leaves rng at
its start jumped twice, so two runs on one stream never share a draw.  One
run can serve several such checks (`_gaussian_reports`): it draws each
chunk of s ~ N(0, I_d) once and stacks every check's columns, each the
expression its check computes alone, so each report equals the one its
check returns alone on a fresh copy of the stream.  The default suite's
four Gaussian reports share one sample this way.  Their verdicts are then
dependent, but each keeps its own false-alarm rate, and a union bound over
the suite does not need independence.
The chunk size keeps each chunk's matrix product small: at 200,000 numbers
per chunk the two lanes were no faster than one lane, yet with OpenBLAS held
to one thread they were, so the lanes' products contended for its threads.

The checks that ask an oracle (`descent_ncrs`, `vote_error`, `vote_penalty`)
stay in one lane on the calling thread (`_mc_mean_se`, or `_row_chunks` for
the vote-error count): the descent check's oracle shares its stream, an
objective remembers values in an unlocked cache, and a tracer that keeps
one span stack wraps their oracle and objective calls.  Such a check draws
a chunk's directions, if any, and then the oracle draws the chunk's
uniforms in one compare_gaps call.  The vote-error bound depends on a pair
only through its value gap, so that check builds no pair: it hands the
oracle its gap and evaluates no objective value.
"""
from __future__ import annotations

import functools
import math
import threading
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .algorithms import vote_bernstein
from .geometry import RngStream, Subspace, gaussian_vector, random_subspace, stream_id_for
from .oracles import (
    CERT_GRID_POINTS,
    LINK_KINDS,
    ConfidenceOracle,
    LinkFunction,
    SignOracle,
    local_linearity_constants,
    positive_count,
)
from .objectives import (
    INNER_KINDS,
    InnerFunction,
    RidgeObjective,
    initial_point,
    random_ridge_objective,
)

EQUALITY_SE_BAND = 4.0
BOUND_SE_BAND = 3.0
DETERMINISTIC_TOL = 1e-12
GRAD_FD_STEP = 1e-5
GRAD_FD_TOL = 1e-4

_MC_CHUNK = 32_768


@dataclass
class CheckReport:
    name: str
    passed: bool
    n_samples: int
    rule: str
    estimates: dict = field(default_factory=dict)
    theory: dict = field(default_factory=dict)
    standard_errors: dict = field(default_factory=dict)
    # per verdict, how many SEs the estimate lies inside its bound (negative
    # outside); None for a deterministic check or a zero SE
    margins: dict | None = None

    def to_json(self) -> dict:
        return asdict(self)


def _row_chunks(n: int, width: int) -> Iterator[int]:
    """Chunk sizes for n samples of `width` numbers each, at most _MC_CHUNK
    numbers per chunk; yielded one by one, so memory stays flat in n."""
    rows = max(1, _MC_CHUNK // width)
    return (min(rows, n - start) for start in range(0, n, rows))


def _merge(a: tuple, b: tuple) -> tuple:
    """Moments (count, mean, sum of squared deviations) of the union of two
    disjoint samples, by the pairwise update of Chan, Golub & LeVeque."""
    (count_a, mean_a, m2_a), (count_b, mean_b, m2_b) = a, b
    total = count_a + count_b
    delta = mean_b - mean_a
    mean = mean_a + delta * (count_b / total)
    return total, mean, m2_a + m2_b + delta * delta * (count_a * count_b / total)


def _moments(n: int, width: int, draw, stop: threading.Event | None = None) -> tuple | None:
    """Moments (count, mean, sum of squared deviations) of n samples.

    `draw(take)` returns the next `take` samples, shape (take,) or (take, m),
    for each chunk of _row_chunks(n, width), and each chunk merges into the
    running moments by _merge.  Returns None if `stop` is set at a chunk
    boundary."""
    moments = (0, 0.0, 0.0)
    for take in _row_chunks(n, width):
        if stop is not None and stop.is_set():
            return None
        # one row per quantity, so each sum runs along contiguous memory
        values = np.ascontiguousarray(draw(take).T)
        mean = values.mean(axis=-1)
        moments = _merge(moments, (take, mean, np.square(values - mean[..., None]).sum(axis=-1)))
    return moments


def _mean_se(moments: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Mean and its standard error std(ddof=1) / sqrt(n) from moments."""
    n, mean, m2 = moments
    return mean, np.sqrt(m2 / (n - 1)) / math.sqrt(n)


def _mc_mean_se(n: int, width: int, draw) -> tuple[np.ndarray, np.ndarray]:
    """Mean of n samples and its standard error std(ddof=1) / sqrt(n), drawn
    by `draw(take)` on the calling thread (see _moments)."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    return _mean_se(_moments(n, width, draw))


def _two_lane_mean_se(n: int, width: int, rng: RngStream, draw) -> tuple[np.ndarray, np.ndarray]:
    """Mean and SE of n samples of a check that draws only Gaussians, in two lanes.

    `draw(gen, take)` returns the next `take` samples drawn from the
    Generator `gen`.  Rows [0, ceil(n/2)) come from `rng` on the calling
    thread; rows [ceil(n/2), n) come from rng's stream jumped once,
    `rng.bit_generator.jumped()`, on a one-worker executor.  Each lane
    streams its chunks through _moments, and the two lanes' moments merge
    by the same _merge.  Philox fills release the interpreter lock, so the
    lanes draw on two cores; the split is fixed, so the sample depends on
    rng's state alone, never on the core count.  `draw` must call only the
    generator and numpy, nothing of this package, so a tracer that wraps
    its functions sees no call from the helper.

    On return rng stands at its start jumped twice: a jump is 2**128
    Philox blocks, so the lanes of consecutive checks on one stream never
    share a draw.  An exception or interrupt in either lane sets a stop
    that the other lane reads at its next chunk boundary, and the helper is
    joined before the exception reaches the caller."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    head = (n + 1) // 2
    far = np.random.Generator(rng.bit_generator.jumped())
    end = rng.bit_generator.jumped(2).state
    stop = threading.Event()

    def tail():
        try:
            return _moments(n - head, width, functools.partial(draw, far), stop)
        except BaseException:
            stop.set()
            raise

    with ThreadPoolExecutor(1, thread_name_prefix="ncrs-lane") as helper:
        second = helper.submit(tail)
        try:
            first = _moments(head, width, functools.partial(draw, rng), stop)
            # a stopped first lane is None, and then the helper's error raises here
            moments = _merge(first, second.result())
        except BaseException:
            stop.set()
            raise
    rng.bit_generator.state = end
    return _mean_se(moments)


def _finite(name: str, x) -> np.ndarray:
    """x as float64; a ValueError naming it unless every entry is finite."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite")
    return x


def _step(alpha: float) -> float:
    """alpha; a ValueError unless it is finite and positive."""
    if not 0.0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and positive, got {alpha!r}")
    return alpha


def _margin(excess: float, se: float, band: float) -> float | None:
    """How many SEs `excess` lies inside its allowance of `band` SEs."""
    return None if se == 0.0 else band - excess / se


def _equality(name: str, n: int, names, means, theory, ses, rule_tail: str = "") -> CheckReport:
    """Report of a Monte Carlo equality: it passes when every estimate lies
    within EQUALITY_SE_BAND standard errors of its theory value."""
    means, theory, ses = ([float(v) for v in np.reshape(x, -1)] for x in (means, theory, ses))
    return CheckReport(
        name=name,
        passed=all(abs(m - t) <= EQUALITY_SE_BAND * s for m, t, s in zip(means, theory, ses)),
        n_samples=n,
        rule=f"|estimate - theory| <= {EQUALITY_SE_BAND} SE{rule_tail}",
        estimates=dict(zip(names, means)),
        theory=dict(zip(names, theory)),
        standard_errors=dict(zip(names, ses)),
        margins={
            key: _margin(abs(m - t), s, EQUALITY_SE_BAND)
            for key, m, t, s in zip(names, means, theory, ses)
        },
    )


def _bound(name: str, n: int, rule: str, small: float, large: float, se: float,
           estimates: dict, theory: dict, band=BOUND_SE_BAND, rule_tail="") -> CheckReport:
    """Report of a one-sided Monte Carlo bound: it passes when
    small <= large + band * se, where se is the SE of the first estimate."""
    first = next(iter(estimates))
    return CheckReport(
        name=name,
        passed=small <= large + band * se,
        n_samples=n,
        rule=f"{rule} + {band} SE{rule_tail}",
        estimates=estimates,
        theory=theory,
        standard_errors={first: se},
        margins={first: _margin(small - large, se, band)},
    )


@dataclass(frozen=True)
class _Gaussian:
    """A check that draws only s ~ N(0, I_dim), in the form that
    _gaussian_reports runs: `columns(s, q)` maps the rows s of a chunk, and
    q = ||U s||^2 for the rows of `subspace`'s basis U (None when it has no
    subspace), to one column per estimate name, whose means the report holds
    to `theory` by _equality."""

    name: str
    names: tuple[str, ...]
    theory: tuple[float, ...]
    dim: int
    subspace: Subspace | None
    columns: Callable[[np.ndarray, np.ndarray | None], np.ndarray]
    rule_tail: str = ""


def _gaussian_reports(checks: list[_Gaussian], n: int, rng: RngStream) -> list[CheckReport]:
    """The reports of Gaussian-only checks that share one sample.

    Per chunk, draws s ~ N(0, I_d) once through _two_lane_mean_se, computes
    q = ||U s||^2 once if any check has a subspace, and stacks every check's
    columns; each check's report reads its own columns' means and SEs.  A
    column is the same expression whether its check runs alone or with
    others, so each report equals the one its check returns alone on a
    fresh copy of rng.  The checks must share d, and any subspace.  rng is
    left at its start jumped twice."""
    n = positive_count(n, "n")
    d = checks[0].dim
    space = next((check.subspace for check in checks if check.subspace is not None), None)
    if any(check.dim != d or check.subspace is not None and check.subspace is not space
           for check in checks):
        raise ValueError("checks that share a sample need one dimension and one subspace")
    basis_t = None if space is None else space.basis.T

    def draw(gen, take):
        s = gen.standard_normal((take, d))
        # rows of the basis are orthonormal, so ||P s|| = ||U s||
        q = None if basis_t is None else np.sum((s @ basis_t) ** 2, axis=1)
        return np.column_stack([check.columns(s, q) for check in checks])

    means, ses = _two_lane_mean_se(n, d, rng, draw)
    reports, start = [], 0
    for check in checks:
        cols = slice(start, start + len(check.names))
        start = cols.stop
        reports.append(_equality(
            check.name, n, check.names, means[cols], check.theory, ses[cols], check.rule_tail
        ))
    return reports


def _vector(name: str, x, dim: int | None = None) -> np.ndarray:
    """x as a finite 1-D float64 vector with at least one entry (and `dim`
    entries, if given); otherwise a ValueError that names it."""
    x = _finite(name, x)
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D vector, got shape {x.shape}")
    if dim is not None and x.size != dim:
        raise ValueError(f"{name} has {x.size} entries; the subspace's ambient dimension is {dim}")
    return x


def _projector_moments(subspace: Subspace) -> _Gaussian:
    k = subspace.dim
    return _Gaussian(
        "projector_moments", ("second", "fourth", "sixth"),
        (k, k * (k + 2), k * (k + 2) * (k + 4)), subspace.ambient_dim, subspace,
        lambda s, q: np.stack([q, q**2, q**3], axis=1), " for each moment",
    )


def _cross_moment(subspace: Subspace, a) -> _Gaussian:
    a = _vector("a", a, subspace.ambient_dim)
    theory = subspace.dim * float(a @ a) + 2.0 * float(a @ subspace.project(a))
    return _Gaussian(
        "cross_moment", ("cross_moment",), (theory,), subspace.ambient_dim, subspace,
        lambda s, q: (s @ a) ** 2 * q,
    )


def _halfnormal(g) -> _Gaussian:
    g = _vector("g", g)
    theory = math.sqrt(2.0 / math.pi) * float(np.linalg.norm(g))
    return _Gaussian(
        "halfnormal", ("abs_mean",), (theory,), g.size, None, lambda s, q: np.abs(s @ g)
    )


def check_projector_moments(subspace: Subspace, n: int, rng: RngStream) -> CheckReport:
    """E ||P s||^2, ||P s||^4, ||P s||^6 for Gaussian s against k, k(k+2),
    k(k+2)(k+4).  Draws in two lanes (_two_lane_mean_se): the first half of
    the sample from rng, the rest from rng's stream jumped once; rng is left
    at its start jumped twice.  The default suite computes this report from
    one sample it shares with the cross-moment and half-normal reports
    (_gaussian_reports)."""
    return _gaussian_reports([_projector_moments(subspace)], n, rng)[0]


def check_cross_moment(
    subspace: Subspace, a: np.ndarray, n: int, rng: RngStream
) -> CheckReport:
    """E[(a' s)^2 ||P s||^2] against k ||a||^2 + 2 a' P a, where `a` is a
    finite vector of the subspace's ambient dimension.  Draws as
    check_projector_moments does, and leaves rng at its start jumped twice,
    so a second check on the same stream draws afresh."""
    return _gaussian_reports([_cross_moment(subspace, a)], n, rng)[0]


def check_halfnormal(g: np.ndarray, n: int, rng: RngStream) -> CheckReport:
    """E |<g, s>| against sqrt(2/pi) ||g|| for a finite nonempty vector g.
    Draws as check_projector_moments does, and leaves rng at its start
    jumped twice."""
    return _gaussian_reports([_halfnormal(g)], n, rng)[0]


def check_descent_ncrs(
    objective: RidgeObjective,
    advantage: float,
    theta: np.ndarray,
    alpha: float,
    n: int,
    rng: RngStream,
    se_band: float = BOUND_SE_BAND,
) -> CheckReport:
    """One-step descent inequality for the sign-comparison search.

    Simulates n independent single iterations from theta through a real
    SignOracle and checks

        p alpha sqrt(2/pi) ||grad f(theta)||
            <= E[f(theta) - f(theta')] + (L_f/2) k alpha^2 (+ 2 tau alpha sqrt(m))

    where the nuisance term enters exactly when the objective carries one.
    The oracle shares the check's stream, so the check draws in one lane:
    each chunk draws its directions, and then the oracle draws the chunk's
    uniforms in compare_gaps.
    """
    n = positive_count(n, "n")
    theta, alpha = _finite("theta", theta), _step(alpha)
    oracle = SignOracle(objective, advantage, rng)
    d = objective.ambient_dim
    f_theta = float(objective.value(theta))

    def draw(take):
        gaps = f_theta - objective.value(theta + alpha * rng.standard_normal((take, d)))
        return np.where(oracle.compare_gaps(gaps, 1) > 0.0, gaps, 0.0)

    mean_drop, se = map(float, _mc_mean_se(n, d, draw))
    grad_norm = float(np.linalg.norm(objective.gradient(theta)))
    lhs = advantage * alpha * math.sqrt(2.0 / math.pi) * grad_norm
    curvature = 0.5 * objective.smoothness * objective.intrinsic_dim * alpha**2
    nuisance_term = 0.0
    if objective.nuisance is not None:
        nuisance_term = (
            2.0 * objective.nuisance.tau * alpha * math.sqrt(objective.nuisance.dim)
        )
    rhs = mean_drop + curvature + nuisance_term
    return _bound(
        "descent_ncrs", n, "lhs <= mean drop + curvature (+ nuisance)", lhs, rhs, se,
        {"mean_drop": mean_drop, "rhs": rhs},
        {"lhs": lhs, "curvature_term": curvature, "nuisance_term": nuisance_term,
         "grad_norm": grad_norm},
        band=se_band,
    )


def check_vote_error(
    oracle: ConfidenceOracle, gap: float, votes: int, trials: int
) -> CheckReport:
    """Wrong-decision frequency of a majority vote against its certified bound.

    The bound depends on a pair only through its value gap, so the check
    scores that gap directly: `trials` independent votes of length `votes`
    at value gap `gap` > 0 (compare_gaps, no objective value evaluated), and
    checks that the frequency of deciding against the better point is at
    most exp(-votes * rho_eff(gap) / (2C + 4/3)) within +3 binomial SE.
    """
    votes, trials = positive_count(votes, "votes"), positive_count(trials, "trials")
    if not 0.0 < gap < math.inf:
        raise ValueError(f"gap must be finite and positive, got {gap!r}")
    wrong = 0
    for take in _row_chunks(trials, 2 * votes):
        tallies = oracle.compare_gaps(np.full(take, gap), votes)
        wrong += int(np.count_nonzero(tallies <= 0.0))
    freq = wrong / trials
    bernstein = vote_bernstein(oracle.second_moment_bound)
    bound = math.exp(-votes * float(oracle.rho_effective(gap)) / bernstein)
    se = math.sqrt(bound * (1.0 - bound) / trials)
    return _bound(
        "vote_error", trials, "frequency <= bound", freq, bound, se,
        {"wrong_decision_freq": freq},
        {"bound": bound, "gap": float(gap), "votes": float(votes)},
        rule_tail=" (binomial SE at the bound)",
    )


def check_vote_penalty(
    oracle: ConfidenceOracle,
    theta: np.ndarray,
    alpha: float,
    votes: int,
    trials: int,
    rng: RngStream,
) -> CheckReport:
    """Ranking-error penalty of the vote step (slow, indirect check).

    Estimates |E[gap * (1{vote accepts} - 1{true improvement})]| over fresh
    directions and compares it against

        gamma * (alpha sqrt(2/pi) ||grad f|| + (L_f/2) k alpha^2)
            + (2C + 4/3) / (e c votes),

    gamma = exp(-votes * rho_eff(r) / (2C + 4/3)) with (c, r) the oracle's
    certified linearity constants.
    """
    votes, trials = positive_count(votes, "votes"), positive_count(trials, "trials")
    theta, alpha = _finite("theta", theta), _step(alpha)
    objective = oracle.objective
    d = objective.ambient_dim
    f_theta = float(objective.value(theta))

    def draw(take):
        values = objective.value(theta + alpha * rng.standard_normal((take, d)))
        accept = oracle.compare_gaps(f_theta - values, votes) > 0.0
        gaps = values - f_theta
        return gaps * (accept.astype(np.float64) - (gaps < 0.0))

    mean, se = map(float, _mc_mean_se(trials, d + 2 * votes, draw))
    c, r = oracle.linearity_constants
    bernstein = vote_bernstein(oracle.second_moment_bound)
    gamma = math.exp(-votes * float(oracle.rho_effective(r)) / bernstein)
    grad_norm = float(np.linalg.norm(objective.gradient(theta)))
    bound = gamma * (
        alpha * math.sqrt(2.0 / math.pi) * grad_norm
        + 0.5 * objective.smoothness * objective.intrinsic_dim * alpha**2
    ) + bernstein / (math.e * c * votes)
    return _bound(
        "vote_penalty", trials, "|estimate| <= bound", abs(mean), bound, se,
        {"penalty": mean}, {"bound": bound, "gamma": gamma, "grad_norm": grad_norm},
    )


def check_link_reduction(link: LinkFunction) -> CheckReport:
    """Deterministic link identities at 321 gaps within 8 link scales: margin
    reduction, reflection symmetry, monotone margin, certified local linearity."""
    grid = np.linspace(-8.0 * link.scale, 8.0 * link.scale, 321)
    sigma = np.asarray(link.probability(grid))
    margin = np.asarray(link.rho(np.abs(grid)))
    # signed margin identity: 2 sigma(u) - 1 = sign(u) rho(|u|)
    reduction_dev = float(np.max(np.abs((2.0 * sigma - 1.0) - np.sign(grid) * margin)))
    reflection_dev = float(
        np.max(np.abs(np.asarray(link.probability(-grid)) - (1.0 - sigma)))
    )
    t = np.sort(np.abs(grid))
    mono_violation = float(np.min(np.diff(np.asarray(link.rho(t))), initial=0.0))
    c, r = local_linearity_constants(link)
    tr = np.linspace(0.0, r, CERT_GRID_POINTS + 1)[1:]
    linearity_slack = float(np.min(np.asarray(link.rho(tr)) - 0.5 * c * tr))
    passed = (
        reduction_dev <= DETERMINISTIC_TOL
        and reflection_dev <= DETERMINISTIC_TOL
        and mono_violation >= -1e-15
        and linearity_slack >= -1e-15
    )
    return CheckReport(
        name="link_reduction",
        passed=passed,
        n_samples=grid.size,
        rule=f"deterministic identities within {DETERMINISTIC_TOL}",
        estimates={
            "reduction_deviation": reduction_dev,
            "reflection_deviation": reflection_dev,
            "monotonicity_violation": mono_violation,
            "linearity_slack": linearity_slack,
        },
        theory={"c": c, "r": r},
        standard_errors={},
    )


def check_grad_fd(objective: RidgeObjective, n_points: int, rng: RngStream) -> CheckReport:
    """Analytic gradient against central differences of step GRAD_FD_STEP at
    random points; passes at a maximum relative error of GRAD_FD_TOL."""
    n_points = positive_count(n_points, "n_points")
    d = objective.ambient_dim
    eye = np.eye(d)
    worst = 0.0
    for _ in range(n_points):
        x = 2.0 * gaussian_vector(rng, d)
        plus = np.asarray(objective.value(x + GRAD_FD_STEP * eye))
        minus = np.asarray(objective.value(x - GRAD_FD_STEP * eye))
        fd = (plus - minus) / (2.0 * GRAD_FD_STEP)
        grad = objective.gradient(x)
        rel = float(np.linalg.norm(fd - grad)) / max(1.0, float(np.linalg.norm(grad)))
        worst = max(worst, rel)
    return CheckReport(
        name="grad_fd",
        passed=worst <= GRAD_FD_TOL,
        n_samples=n_points,
        rule=f"max relative error <= {GRAD_FD_TOL}",
        estimates={"max_rel_error": worst},
        theory={"tolerance": GRAD_FD_TOL, "fd_step": GRAD_FD_STEP},
        standard_errors={},
    )


def run_default_suite(master_seed: int, scale: float = 1.0) -> list[CheckReport]:
    """The standard certificate battery; sample sizes multiply by `scale`.

    Reduced scale shrinks Monte Carlo sample counts, so stochastic checks may
    fail there purely from noise; the deterministic ones are scale-free.
    """
    if not 0 < scale < math.inf:
        raise ValueError(f"scale must be finite and positive, got {scale}")

    def sized(base: int) -> int:
        return max(1000, int(round(base * scale)))

    def stream(name: str) -> RngStream:
        return RngStream(master_seed, stream_id_for(0, f"check:{name}"))

    def ridge(tag: str, d: int, k: int, kind: str, tau: float = 0.0, m: int = 0) -> RidgeObjective:
        return random_ridge_objective(
            stream(tag), d, k, InnerFunction(kind=kind), tau=tau, nuisance_dim=m
        )

    reports: list[CheckReport] = []

    # the four Gaussian-only reports read one sample from one stream
    space = random_subspace(stream("subspace"), 50, 7)
    a_in = space.basis[0] * 2.0
    a_out = gaussian_vector(stream("cross-dir"), 50)
    a_out = a_out - space.project(a_out)
    gaussian = [_projector_moments(space)]
    for tag, a in (("in_range", a_in), ("general", a_in + a_out)):
        gaussian.append(replace(_cross_moment(space, a), name=f"cross_moment_{tag}"))
    gaussian.append(_halfnormal(gaussian_vector(stream("halfnormal-dir"), 50) * 1.7))
    reports.extend(_gaussian_reports(gaussian, sized(1_000_000), stream("projector_moments")))

    links = [(kind, LinkFunction(kind=kind)) for kind in LINK_KINDS]
    for tag, link in links + [("logistic_sharp", LinkFunction(kind="logistic", scale=0.25))]:
        rep = check_link_reduction(link)
        rep.name = f"link_reduction_{tag}"
        reports.append(rep)

    fd_cases = [(kind, kind, 0.0, 0) for kind in INNER_KINDS]
    for tag, kind, tau, m in fd_cases + [("nuisance", "quadratic_cosine", 0.3, 4)]:
        obj = ridge(f"fd-{tag}", 20, 6, kind, tau, m)
        rep = check_grad_fd(obj, 25, stream(f"fd-points-{tag}"))
        rep.name = f"grad_fd_{tag}"
        reports.append(rep)

    for name, p, tau, m, tag, init_tag, rng_tag in (
        ("p0.1", 0.1, 0.0, 0, "descent-0.1", "descent-init-0.1", "descent-rng-0.1"),
        ("p0.5", 0.5, 0.0, 0, "descent-0.5", "descent-init-0.5", "descent-rng-0.5"),
        (
            "nearly_ridge", 0.5, 0.3, 4,
            "descent-nuisance", "descent-nuisance-init", "descent-nuisance-rng",
        ),
    ):
        obj = ridge(tag, 30, 5, "quadratic_cosine", tau, m)
        theta = initial_point(obj, stream(init_tag))
        rep = check_descent_ncrs(obj, p, theta, 0.05, sized(100_000), stream(rng_tag))
        rep.name = f"descent_ncrs_{name}"
        reports.append(rep)

    link = LinkFunction(kind="logistic", scale=1.0)
    for kind, votes in (
        ("deterministic_link", 5),
        ("engage_abstain", 25),
        ("noisy_engage", 25),
    ):
        obj = ridge(f"vote-{kind}", 12, 4, "pure_quadratic")
        oracle = ConfidenceOracle(obj, kind, link, stream(f"vote-rng-{kind}"))
        rep = check_vote_error(oracle, 0.4, votes, sized(100_000))
        rep.name = f"vote_error_{kind}"
        reports.append(rep)

    obj = ridge("penalty", 12, 4, "pure_quadratic")
    oracle = ConfidenceOracle(obj, "engage_abstain", link, stream("penalty-oracle"))
    theta = initial_point(obj, stream("penalty-init"))
    reports.append(
        check_vote_penalty(oracle, theta, 0.05, 16, sized(20_000), stream("penalty-rng"))
    )

    return reports
