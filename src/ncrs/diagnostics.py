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
bit-exactly from (master seed, check name).  Every Monte Carlo mean is one
streaming estimate, `_mc_mean_se`: chunks of at most _MC_CHUNK numbers, so
memory stays flat in the sample size, and SE = std(ddof=1) / sqrt(n).
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

import numpy as np

from .algorithms import vote_bernstein
from .geometry import RngStream, Subspace, gaussian_vector, random_subspace, stream_id_for
from .oracles import (
    CERT_GRID_POINTS,
    LINK_KINDS,
    ConfidenceOracle,
    LinkFunction,
    SignOracle,
    bisect_increasing,
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

_MC_CHUNK = 200_000


@dataclass
class CheckReport:
    name: str
    passed: bool
    n_samples: int
    rule: str
    estimates: dict = field(default_factory=dict)
    theory: dict = field(default_factory=dict)
    standard_errors: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return asdict(self)


def _row_chunks(n: int, width: int) -> Iterator[int]:
    """Chunk sizes for n samples of `width` numbers each, at most _MC_CHUNK
    numbers per chunk; yielded one by one, so memory stays flat in n."""
    rows = max(1, _MC_CHUNK // width)
    return (min(rows, n - start) for start in range(0, n, rows))


def _mc_mean_se(n: int, width: int, draw) -> tuple[np.ndarray, np.ndarray]:
    """Mean of n samples and its standard error std(ddof=1) / sqrt(n).

    `draw(take)` returns the next `take` samples, shape (take,) or (take, m),
    for each chunk of _row_chunks(n, width); the chunks' means and sums of
    squared deviations merge by the pairwise update of Chan, Golub & LeVeque."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    count, mean, m2 = 0, 0.0, 0.0
    for take in _row_chunks(n, width):
        # one row per quantity, so each sum runs along contiguous memory
        values = np.ascontiguousarray(draw(take).T)
        chunk_mean = values.mean(axis=-1)
        chunk_m2 = np.square(values - chunk_mean[..., None]).sum(axis=-1)
        total = count + take
        delta = chunk_mean - mean
        mean = mean + delta * (take / total)
        m2 = m2 + chunk_m2 + delta * delta * (count * take / total)
        count = total
    return mean, np.sqrt(m2 / (n - 1)) / math.sqrt(n)


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
    )


def _bound(name: str, n: int, rule: str, small: float, large: float, se: float,
           estimates: dict, theory: dict, band=BOUND_SE_BAND, rule_tail="") -> CheckReport:
    """Report of a one-sided Monte Carlo bound: it passes when
    small <= large + band * se, where se is the SE of the first estimate."""
    return CheckReport(
        name=name,
        passed=small <= large + band * se,
        n_samples=n,
        rule=f"{rule} + {band} SE{rule_tail}",
        estimates=estimates,
        theory=theory,
        standard_errors={next(iter(estimates)): se},
    )


def check_projector_moments(subspace: Subspace, n: int, rng: RngStream) -> CheckReport:
    """E ||P s||^2, ||P s||^4, ||P s||^6 for Gaussian s against k, k(k+2),
    k(k+2)(k+4)."""
    n = positive_count(n, "n")
    k = subspace.dim

    def draw(take):
        s = rng.standard_normal((take, subspace.ambient_dim))
        # rows of the basis are orthonormal, so ||P s|| = ||U s||
        q = np.sum((s @ subspace.basis.T) ** 2, axis=1)
        return np.stack([q, q**2, q**3], axis=1)

    means, ses = _mc_mean_se(n, subspace.ambient_dim, draw)
    theory = (k, k * (k + 2), k * (k + 2) * (k + 4))
    names = ("second", "fourth", "sixth")
    return _equality("projector_moments", n, names, means, theory, ses, " for each moment")


def check_cross_moment(
    subspace: Subspace, a: np.ndarray, n: int, rng: RngStream
) -> CheckReport:
    """E[(a' s)^2 ||P s||^2] against k ||a||^2 + 2 a' P a."""
    n = positive_count(n, "n")
    a = np.asarray(a, dtype=np.float64)
    k = subspace.dim
    theory = k * float(a @ a) + 2.0 * float(a @ subspace.project(a))

    def draw(take):
        s = rng.standard_normal((take, subspace.ambient_dim))
        return (s @ a) ** 2 * np.sum((s @ subspace.basis.T) ** 2, axis=1)

    mean, se = _mc_mean_se(n, subspace.ambient_dim, draw)
    return _equality("cross_moment", n, ("cross_moment",), mean, theory, se)


def check_halfnormal(g: np.ndarray, n: int, rng: RngStream) -> CheckReport:
    """E |<g, s>| against sqrt(2/pi) ||g||."""
    n = positive_count(n, "n")
    g = np.asarray(g, dtype=np.float64)
    theory = math.sqrt(2.0 / math.pi) * float(np.linalg.norm(g))
    d = g.shape[0]
    mean, se = _mc_mean_se(n, d, lambda take: np.abs(rng.standard_normal((take, d)) @ g))
    return _equality("halfnormal", n, ("abs_mean",), mean, theory, se)


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
    The oracle shares the check's stream, so each sample draws its direction
    and then the oracle's uniform, one sample at a time; the candidates'
    values and the oracle's answers are then computed a chunk at a time.
    """
    n = positive_count(n, "n")
    theta = np.asarray(theta, dtype=np.float64)
    oracle = SignOracle(objective, advantage, rng)
    d = objective.ambient_dim
    f_theta = float(objective.value(theta))
    normal, uniform = rng.standard_normal, rng.random

    def draw(take):
        directions = np.empty((take, d))
        uniforms = np.empty(take)
        for i in range(take):
            normal(out=directions[i])
            uniforms[i] = uniform()
        gaps = f_theta - objective.value(theta + alpha * directions)
        return np.where(oracle.compare_gaps(gaps, uniforms) > 0, gaps, 0.0)

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


def _point_at_gap(objective: RidgeObjective, gap: float) -> tuple[np.ndarray, np.ndarray]:
    """(worse, better) along the first active direction with f(worse) - f(better)
    equal to `gap`, by bisection on a monotone section of the ray."""
    if gap <= 0:
        raise ValueError("gap must be positive")
    u1 = objective.active.basis[0]
    inner = objective.inner
    # start of a section where f(c * u1) increases in c
    c_lo = 0.0
    if inner.kind == "quadratic_cosine":
        c_lo = inner.amplitude * inner.frequency

    def ray_value(c: float) -> float:
        return float(objective.value(c * u1))

    unreachable = f"gap {gap} is not reachable along the probe ray"
    c = bisect_increasing(ray_value, ray_value(c_lo) + gap, c_lo, max(2.0 * c_lo, 1.0), unreachable)
    return c * u1, c_lo * u1


def check_vote_error(
    oracle: ConfidenceOracle, gap: float, votes: int, trials: int
) -> CheckReport:
    """Wrong-decision frequency of a majority vote against its certified bound.

    Builds a pair with value gap `gap` from the oracle's own objective, runs
    `trials` independent votes of length `votes`, and checks that the
    frequency of deciding against the better point is at most
    exp(-votes * rho_eff(gap) / (2C + 4/3)) within +3 binomial SE.
    """
    votes, trials = positive_count(votes, "votes"), positive_count(trials, "trials")
    worse, better = _point_at_gap(oracle.objective, gap)
    realized = float(oracle.objective.value(worse)) - float(
        oracle.objective.value(better)
    )
    # every trial asks the oracle about the same pair, whose gap is `realized`
    wrong = 0
    for take in _row_chunks(trials, 2 * votes):
        totals = oracle.compare_gaps(np.full(take, realized), votes).sum(axis=1)
        wrong += int(np.count_nonzero(totals <= 0.0))
    freq = wrong / trials
    bernstein = vote_bernstein(oracle.second_moment_bound)
    bound = math.exp(-votes * float(oracle.rho_effective(realized)) / bernstein)
    se = math.sqrt(bound * (1.0 - bound) / trials)
    return _bound(
        "vote_error", trials, "frequency <= bound", freq, bound, se,
        {"wrong_decision_freq": freq},
        {"bound": bound, "gap": realized, "votes": float(votes)},
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
    theta = np.asarray(theta, dtype=np.float64)
    objective = oracle.objective
    d = objective.ambient_dim
    f_theta = float(objective.value(theta))

    def draw(take):
        values = objective.value(theta + alpha * rng.standard_normal((take, d)))
        accept = oracle.compare_gaps(f_theta - values, votes).sum(axis=1) > 0.0
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

    rng = stream("projector_moments")
    space = random_subspace(stream("subspace"), 50, 7)
    reports.append(check_projector_moments(space, sized(1_000_000), rng))

    rng = stream("cross_moment")
    a_in = space.basis[0] * 2.0
    a_out = gaussian_vector(stream("cross-dir"), 50)
    a_out = a_out - space.project(a_out)
    for tag, a in (("in_range", a_in), ("general", a_in + a_out)):
        rep = check_cross_moment(space, a, sized(1_000_000), rng)
        rep.name = f"cross_moment_{tag}"
        reports.append(rep)

    rng = stream("halfnormal")
    g = gaussian_vector(stream("halfnormal-dir"), 40) * 1.7
    reports.append(check_halfnormal(g, sized(1_000_000), rng))

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
