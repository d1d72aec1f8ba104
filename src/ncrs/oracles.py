"""Pairwise-comparison oracles over an objective.

Algorithms never see objective values or gradients; they see only what
these oracles answer.  Two interfaces:

  SignOracle        returns a noisy sign in {-1, +1}.  The probability of
                    reporting the true ordering is exactly 1/2 + p for every
                    queried pair, the adversarial worst case allowed by a
                    fixed advantage p.  Ties are resolved by a fair coin.
  ConfidenceOracle  returns a score in [-1, 1] whose mean, conditioned on
                    the pair, is linked to the value gap: E[sign(gap) * R]
                    >= rho(|gap|) and E[R^2] <= C * rho(|gap|).

Both also answer many pairs in one call through compare_gaps, given the
pairs' value gaps; the Monte Carlo certificates use it.  Each response rule
is written once and serves the single-pair and the many-pair call alike.
ConfidenceOracle.first_preferred answers a run of candidates against one
point, as consecutive compare_batch calls would until one is preferred; the
vote search uses it through rejection streaks.  It evaluates the candidates
in one batched objective.value call, and a batched value may differ from
the single-point value in its last bits (a block matmul does not equal the
row-by-row one), so its gaps may too.

Sign convention: compare(x, y) > 0 means y is preferred (f(x) > f(y)), so a
positive answer tells a minimizer to accept the candidate y.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import RngStream
from .objectives import RidgeObjective

LINK_KINDS = ("logistic", "probit", "arctan")

# Response model -> (factor on the link's margin rho, second-moment constant C,
# uniforms drawn per score at a non-zero gap).  noisy_engage halves the
# margin and so its certified slope; r is unchanged because
# rho/2 >= (c/4) t on the same certified interval.
_MODELS = {
    "deterministic_link": (1.0, 1.0, 0),
    "engage_abstain": (1.0, 1.0, 1),
    "noisy_engage": (0.5, 2.0, 2),
}
CONFIDENCE_KINDS = tuple(_MODELS)

CERT_GRID_POINTS = 1000  # grid resolution for the local-linearity certificate

_SQRT_HALF = math.sqrt(0.5)


def positive_count(n, name: str) -> int:
    """n as an int; a ValueError naming it unless it is an integer >= 1.

    Python and numpy integers pass; a bool, a float (even 3.0) or anything
    else does not.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"{name} must be a positive integer, got {n!r}")
    return int(n)


def _real(x):
    """x as a float when it is a scalar or 0-d, else as a float64 array."""
    if isinstance(x, float):
        return x
    x = np.asarray(x, dtype=np.float64)
    return x if x.ndim else float(x)


def _expit(z):
    """1 / (1 + exp(-z)), which saturates to 0 without a warning."""
    if isinstance(z, float):
        try:
            return 1.0 / (1.0 + math.exp(-z))
        except OverflowError:
            return 0.0
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


def _pointwise(fn):
    """fn on a float, applied elementwise to an array."""
    on_array = np.vectorize(fn, otypes=[np.float64])
    return lambda x: fn(x) if isinstance(x, float) else on_array(x)


_erf = _pointwise(math.erf)
_erfc = _pointwise(math.erfc)


@dataclass(frozen=True)
class LinkFunction:
    """Monotone response curve sigma mapping a value gap to P(prefer y).

    sigma(0) = 1/2, sigma(-u) = 1 - sigma(u), and rho(t) = 2 sigma(t) - 1
    is the mean score margin at gap t >= 0.
    """

    kind: str
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in LINK_KINDS:
            raise ValueError(f"unknown link kind {self.kind!r}")
        if not 0 < self.scale < math.inf:
            raise ValueError("link scale must be finite and positive")

    def probability(self, u: np.ndarray | float) -> np.ndarray | float:
        """sigma(u): probability of preferring y at signed gap u = f(x) - f(y).

        The probit is Phi(z) = erfc(-z / sqrt 2) / 2 at z = u / scale.
        """
        z = _real(u) / self.scale
        if self.kind == "logistic":
            out = _expit(z)
        elif self.kind == "probit":
            out = 0.5 * _erfc(-z * _SQRT_HALF)
        else:
            out = 0.5 + np.arctan(z) / np.pi
        return out if isinstance(out, np.ndarray) else float(out)

    def rho(self, t: np.ndarray | float) -> np.ndarray | float:
        """rho(t) = 2 sigma(t) - 1 for t >= 0, in closed form per kind;
        for the probit it is erf(t / (scale sqrt 2)), exactly 2 Phi - 1."""
        t = _real(t)
        if self.kind == "logistic":
            out = np.tanh(t / (2.0 * self.scale))
        elif self.kind == "probit":
            out = _erf(t / self.scale * _SQRT_HALF)
        else:
            out = (2.0 / np.pi) * np.arctan(t / self.scale)
        return out if isinstance(out, np.ndarray) else float(out)

    @property
    def slope_at_zero(self) -> float:
        """sigma'(0); rho'(0) is twice this."""
        if self.kind == "logistic":
            return 1.0 / (4.0 * self.scale)
        if self.kind == "probit":
            return 1.0 / (self.scale * math.sqrt(2.0 * math.pi))
        return 1.0 / (math.pi * self.scale)


def local_linearity_constants(link: LinkFunction) -> tuple[float, float]:
    """Certified (c, r) with rho(t) >= (c/2) t for all t in [0, r].

    c = sigma'(0).  r is found by doubling search: starting from the link's
    scale, the candidate radius is doubled while a 1000-point grid on [0, r]
    certifies the inequality.  The returned r is the largest candidate the
    grid certified; a RuntimeError names the scale if the start fails.
    """
    c = link.slope_at_zero

    def certified(r: float) -> bool:
        t = np.linspace(0.0, r, CERT_GRID_POINTS + 1)[1:]
        return bool(np.all(np.asarray(link.rho(t)) >= 0.5 * c * t))

    r = link.scale
    if not certified(r):
        raise RuntimeError(f"no certified local-linearity radius at the link scale {r!r}")
    for _ in range(60):
        if not certified(2.0 * r):
            break
        r *= 2.0
    return c, r


def rho_inverse(link: LinkFunction, target: float) -> float:
    """Gap t >= 0 with rho(t) = target, by bisection.  Needs 0 <= target < 1."""
    if not 0.0 <= target < 1.0:
        raise ValueError("target must be in [0, 1)")
    if target == 0.0:
        return 0.0
    return bisect_increasing(link.rho, target, 0.0, link.scale, f"rho never reaches {target}")


def bisect_increasing(fn, target: float, lo: float, hi: float, unreachable: str) -> float:
    """Where the increasing fn crosses target above lo: doubles hi until fn(hi) >=
    target (at most 200 times), then halves [lo, hi] 200 times; the midpoint."""
    for _ in range(200):
        if fn(hi) >= target:
            break
        hi *= 2.0
    else:
        raise ValueError(unreachable)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _sign_reply(gap, u, advantage: float):
    """The sign oracle's answer to a pair with value gap f(x) - f(y), given one
    uniform u in [0, 1); gap and u may be floats or matching arrays.

    The answer is the true ordering sign(gap) when u < 1/2 + advantage and
    its opposite otherwise.  A tie (gap == 0) is a fair coin: +1 when
    u < 1/2, else -1.
    """
    sign = 2 * (gap >= 0.0) - 1
    agree = u < 0.5 + advantage * (gap != 0.0)
    return sign * (2 * agree - 1)


class SignOracle:
    """Noisy ordering oracle with a fixed per-query advantage p in (0, 1/2].

    Each query reports the true ordering with probability exactly 1/2 + p,
    independent of the gap size; exact ties return a fair coin flip.
    query_count tracks the queries answered; a call that raises answers none.
    """

    def __init__(self, objective: RidgeObjective, advantage: float, rng: RngStream):
        if not 0.0 < advantage <= 0.5:
            raise ValueError(f"advantage must lie in (0, 0.5], got {advantage}")
        self.objective = objective
        self.advantage = advantage
        self.rng = rng
        self.query_count = 0

    def compare(self, x: np.ndarray, y: np.ndarray) -> int:
        """+1 if the oracle claims f(x) > f(y) (y preferred), else -1.

        Draws one uniform from the oracle's stream, after evaluating the pair.
        """
        gap = float(self.objective.value(x)) - float(self.objective.value(y))
        self.query_count += 1
        return _sign_reply(gap, self.rng.random(), self.advantage)

    def compare_gaps(self, gaps: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Answers to many pairs at once, given their gaps f(x) - f(y) as a
        scalar or a 1-D vector and one uniform each, counted as one query each.

        Answer i equals what compare returns for pair i when its stream
        yields uniforms[i]; the caller draws the uniforms.
        """
        gaps = np.asarray(gaps, dtype=np.float64)
        if gaps.ndim > 1:
            raise ValueError(f"gaps must be a scalar or a 1-D vector, got shape {gaps.shape}")
        if np.shape(uniforms) != gaps.shape:
            raise ValueError(
                f"need one uniform per gap: gaps have shape {gaps.shape}, "
                f"uniforms {np.shape(uniforms)}"
            )
        self.query_count += gaps.size
        return _sign_reply(gaps, uniforms, self.advantage)


class ConfidenceOracle:
    """Comparison oracle returning a confidence-weighted score in [-1, 1].

    Response models, at gap magnitude t = |f(x) - f(y)| with margin rho(t):

      deterministic_link  always answers 2 sigma(gap) - 1      (C = 1)
      engage_abstain      answers sign(gap) w.p. rho(t), else 0 (C = 1)
      noisy_engage        w.p. rho(t) answers sign(gap) * B with
                          B = +1 w.p. 3/4 and -1 w.p. 1/4, else 0; the
                          certified margin drops to rho(t)/2 and C = 2.

    Exact ties always score 0.  rho_effective / second_moment_bound /
    linearity_constants expose the constants certified for the model, which
    is what vote-length recipes and error bounds consume.
    """

    def __init__(
        self,
        objective: RidgeObjective,
        kind: str,
        link: LinkFunction,
        rng: RngStream,
    ):
        if kind not in _MODELS:
            raise ValueError(f"unknown confidence oracle kind {kind!r}")
        self.objective = objective
        self.kind = kind
        self.link = link
        self.rng = rng
        self.query_count = 0

    def rho_effective(self, t: np.ndarray | float) -> np.ndarray | float:
        """Certified mean-margin lower bound at gap magnitude t."""
        return _MODELS[self.kind][0] * self.link.rho(t)

    @property
    def second_moment_bound(self) -> float:
        """C with E[R^2] <= C * rho_effective(|gap|)."""
        return _MODELS[self.kind][1]

    @property
    def linearity_constants(self) -> tuple[float, float]:
        """(c, r) certified for rho_effective: rho_effective(t) >= (c/2) t on [0, r]."""
        c, r = local_linearity_constants(self.link)
        return _MODELS[self.kind][0] * c, r

    def compare(self, x: np.ndarray, y: np.ndarray) -> float:
        """One score; positive means y preferred."""
        return float(self.compare_batch(x, y, 1)[0])

    def compare_batch(self, x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
        """n independent scores for the same pair, counted as n queries.

        The generator consumes one block of n uniforms for the engagement
        events and, for noisy_engage, a second block of n uniforms for the
        sign flips, in that order.
        """
        n = positive_count(n, "n")
        gap = float(self.objective.value(x)) - float(self.objective.value(y))
        self.query_count += n
        if gap == 0.0:
            return np.zeros(n)
        return self._respond(gap, (n,))

    def compare_gaps(self, gaps: np.ndarray, n: int) -> np.ndarray:
        """n scores for each of many pairs, given their gaps f(x) - f(y), as a
        (len(gaps), n) array counted as len(gaps) * n queries.

        Row i equals what compare_batch returns for pair i called in pair
        order: a pair with a non-zero gap consumes its uniform blocks in
        turn, and a zero-gap pair scores 0 and consumes nothing.
        """
        n = positive_count(n, "n")
        gaps = np.asarray(gaps, dtype=np.float64)
        if gaps.ndim > 1:
            raise ValueError(f"gaps must be a scalar or a 1-D vector, got shape {gaps.shape}")
        self.query_count += gaps.size * n
        scores = np.zeros((gaps.size, n))
        live = gaps != 0.0
        m = int(np.count_nonzero(live))
        if m:
            scores[live] = self._respond(gaps[live, None], (m, n))
        return scores

    def first_preferred(self, x: np.ndarray, ys: np.ndarray, n: int) -> int:
        """Index of the first row y of ys whose n scores against x sum above 0,
        or len(ys) when no row's do.

        Equals calling compare_batch(x, y, n) for the rows in order until a
        sum is positive: the stream and query_count end where those calls
        leave them.  The rows are evaluated in one objective.value call and
        scored in one compare_gaps call; when a row before the last wins, the
        stream is set back to its state before the scoring and then moved
        past the uniforms that the answered rows drew, as many as a
        per-candidate loop would have drawn.  Gaps of the batch may differ
        from single-point gaps in their last bits (see the module docstring).
        """
        n = positive_count(n, "n")
        ys = np.asarray(ys, dtype=np.float64)
        if ys.ndim != 2:
            raise ValueError(f"ys must be a 2-D batch of points, got shape {ys.shape}")
        gaps = float(self.objective.value(x)) - self.objective.value(ys)
        bits = self.rng.bit_generator
        state, count = bits.state, self.query_count
        wins = np.flatnonzero(self.compare_gaps(gaps, n).sum(axis=1) > 0.0)
        if wins.size == 0:
            return len(ys)
        answered = int(wins[0]) + 1
        if answered < len(ys):
            bits.state, self.query_count = state, count + answered * n
            live = np.count_nonzero(gaps[:answered])
            self.rng.random(live * n * _MODELS[self.kind][2])
        return answered - 1

    def _respond(self, gap, shape: tuple) -> np.ndarray:
        """Scores of the response model at non-zero gaps, of shape `shape`.

        gap is a float, or a column with one gap per row of `shape`.  The
        uniforms come as one block, as many per score as _MODELS says: per
        row, n engagement uniforms and then, for noisy_engage, n flip uniforms.
        """
        if self.kind == "deterministic_link":
            return np.full(shape, 2.0 * self.link.probability(gap) - 1.0)
        rho = self.link.rho(abs(gap))
        sign = 2.0 * (gap > 0.0) - 1.0
        u = self.rng.random(shape[:-1] + (_MODELS[self.kind][2],) + shape[-1:])
        engaged = u[..., 0, :] < rho
        if self.kind == "engage_abstain":
            return np.where(engaged, sign, 0.0)
        return np.where(engaged, np.where(u[..., 1, :] < 0.75, sign, -sign), 0.0)
