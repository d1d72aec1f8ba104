"""Pairwise-comparison oracles over an objective.

Algorithms never see objective values or gradients; they see only what
these oracles answer.  Both models run on one core, _Oracle: it counts the
queries and answers a vote of n queries with its tally, the sum of its n
scores, for one pair (compare_batch, a float), for many pairs given only
their value gaps (compare_gaps, a vector of tallies) and for a run of
candidates against one point (first_preferred, an index).  Each draws its
own uniforms from the oracle's stream, and a tally is counted from them
without building the scores.  The Monte Carlo certificates use
compare_gaps; the vote-error certificate asks it about its certified gap
alone, with no pair of points.  A model supplies only its tally at a gap,
the uniforms one score draws, and its tie rule:

  SignOracle        scores a noisy sign in {-1, +1}.  The probability of
                    reporting the true ordering is exactly 1/2 + p for every
                    queried pair, the adversarial worst case allowed by a
                    fixed advantage p.  One uniform per score; a tie draws
                    its uniform too and answers a fair coin.  A vote
                    tallies sign(gap) * (2 * #agree - n).
  ConfidenceOracle  scores in [-1, 1] from the link's margin rho(|gap|)
                    and sign(gap) alone, so that E[sign(gap) * R] >= rho(|gap|)
                    and E[R^2] <= C * rho(|gap|).  Zero, one or two uniforms
                    per score by response model; a tie tallies 0 and draws
                    nothing.  A tally is the same double whether its gap
                    arrives alone or in a block.

SignOracle.compare, the sign search's one query per iteration, answers as
compare_batch(x, y, 1) does on a scalar path, as an int.  first_preferred
answers a run of candidates as consecutive compare_batch calls would until
one is preferred; the vote search uses it through rejection streaks.  It
evaluates the candidates in one batched objective.value call, and a
batched value may differ from the single-point value in its last bits (a
block matmul does not equal the row-by-row one), so its gaps may too.

Sign convention: a tally of the pair (x, y) > 0 means y is preferred
(f(x) > f(y)), so a positive answer tells a minimizer to accept the
candidate y; a gap given to compare_gaps is f(x) - f(y).  A NaN gap is a
ValueError at every entry point, raised before a query is counted or a
uniform drawn; an infinite gap is legal (rho is 1 there).
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

_NAN_GAP = "a value gap f(x) - f(y) is NaN; no model scores it"

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

        The probit is Phi(z) = erfc(-z / sqrt 2) / 2 at z = u / scale.  This
        is the link's definition and the link-reduction certificate's
        reference; no oracle score reads it (scores use rho).
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
    """Gap t >= 0 with rho(t) = target, by bisection.  Needs 0 <= target < 1.

    Doubles hi from the link's scale until rho(hi) >= target (at most 200
    times), then halves [0, hi] 200 times; returns the midpoint.
    """
    if not 0.0 <= target < 1.0:
        raise ValueError("target must be in [0, 1)")
    if target == 0.0:
        return 0.0
    lo, hi = 0.0, link.scale
    for _ in range(200):
        if link.rho(hi) >= target:
            break
        hi *= 2.0
    else:
        raise ValueError(f"rho never reaches {target}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if link.rho(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _count(agree):
    """The True entries of a vote's bools: an int for one vote (n,), an
    (m, 1) column for m votes (m, n)."""
    if agree.ndim == 1:
        return int(np.count_nonzero(agree))  # a Python int: numpy scalar math is slow
    return np.add.reduce(agree, axis=-1, keepdims=True)


class _Oracle:
    """The comparison core both models share: query counting and the vote
    tallies of one pair (compare_batch), of many pairs given their value
    gaps (compare_gaps) and of a run of candidates (first_preferred).

    A vote of n queries answers with its tally, the float sum of its n
    scores, counted from the uniforms the scores draw; no score array is
    built.  A model sets three things.  _tally(gap, shape) is its tally at
    a float gap with shape (n,), or at an (m, 1) column of gaps with shape
    (m, n) as an (m, 1) column, drawing _uniforms uniforms per score from
    the oracle's stream as one block laid out (m, _uniforms, n), per row in
    the order single calls would draw them.  _ties_respond is its tie rule:
    True sends a tie to _tally, False tallies it 0 and draws nothing.
    query_count tracks the queries answered; a call that raises answers
    none.
    """

    def __init__(self, objective: RidgeObjective, rng: RngStream):
        self.objective = objective
        self.rng = rng
        self.query_count = 0

    def compare_batch(self, x: np.ndarray, y: np.ndarray, n: int) -> float:
        """The tally of n independent scores for the same pair, counted as n
        queries; positive means y preferred."""
        n = positive_count(n, "n")
        gap = float(self.objective.value(x)) - float(self.objective.value(y))
        if math.isnan(gap):
            raise ValueError(_NAN_GAP)
        self.query_count += n
        if gap == 0.0 and not self._ties_respond:
            return 0.0
        return self._tally(gap, (n,))

    def compare_gaps(self, gaps: np.ndarray, n: int) -> np.ndarray:
        """The tallies of n scores for each of many pairs, given their gaps
        f(x) - f(y) as a scalar or a 1-D vector, as a vector of len(gaps)
        tallies counted as len(gaps) * n queries.

        Entry i equals what compare_batch returns for pair i called in pair
        order, and the stream ends where those calls leave it.
        """
        n = positive_count(n, "n")
        gaps = np.asarray(gaps, dtype=np.float64)
        if gaps.ndim > 1:
            raise ValueError(f"gaps must be a scalar or a 1-D vector, got shape {gaps.shape}")
        gaps = gaps.reshape(-1)
        if np.isnan(gaps).any():
            raise ValueError(_NAN_GAP)
        return self._tallies(gaps, n)

    def first_preferred(self, x: np.ndarray, ys: np.ndarray, n: int) -> int:
        """Index of the first row y of ys whose tally of n scores against x is
        above 0, or len(ys) when no row's is.

        Equals calling compare_batch(x, y, n) for the rows in order until a
        tally is positive: the stream and query_count end where those calls
        leave them.  The rows are evaluated in one objective.value call and
        tallied together; when a row before the last wins, the stream is set
        back to its state before the tallies and then moved past the
        uniforms that the answered rows drew, as many as a per-candidate
        loop would have drawn.  Gaps of the batch may differ from
        single-point gaps in their last bits (see the module docstring).
        """
        n = positive_count(n, "n")
        ys = np.asarray(ys, dtype=np.float64)
        if ys.ndim != 2:
            raise ValueError(f"ys must be a 2-D batch of points, got shape {ys.shape}")
        gaps = float(self.objective.value(x)) - self.objective.value(ys)
        if np.isnan(gaps).any():
            raise ValueError(_NAN_GAP)
        bits = self.rng.bit_generator
        state, count = bits.state, self.query_count
        wins = np.flatnonzero(self._tallies(gaps, n) > 0.0)
        if wins.size == 0:
            return len(ys)
        answered = int(wins[0]) + 1
        if answered < len(ys):
            bits.state, self.query_count = state, count + answered * n
            asked = answered if self._ties_respond else np.count_nonzero(gaps[:answered])
            self.rng.random(asked * n * self._uniforms)
        return answered - 1

    def _tallies(self, gaps: np.ndarray, n: int) -> np.ndarray:
        """The tallies at a 1-D vector of gaps with no NaN, counted as
        gaps.size * n queries; a tie the tie rule leaves out tallies 0."""
        self.query_count += gaps.size * n
        if self._ties_respond or gaps.all():
            return self._tally(gaps[:, None], (gaps.size, n)).reshape(-1)
        tallies = np.zeros(gaps.size)
        asked = gaps != 0.0
        m = int(np.count_nonzero(asked))
        if m:
            tallies[asked] = self._tally(gaps[asked, None], (m, n)).reshape(-1)
        return tallies


class SignOracle(_Oracle):
    """Noisy ordering oracle with a fixed per-query advantage p in (0, 1/2].

    Each score reports the true ordering with probability exactly 1/2 + p,
    independent of the gap size; exact ties return a fair coin flip.
    """

    _ties_respond = True
    _uniforms = 1

    def __init__(self, objective: RidgeObjective, advantage: float, rng: RngStream):
        if not 0.0 < advantage <= 0.5:
            raise ValueError(f"advantage must lie in (0, 0.5], got {advantage}")
        super().__init__(objective, rng)
        self.advantage = advantage

    def compare(self, x: np.ndarray, y: np.ndarray) -> int:
        """+1 if the oracle claims f(x) > f(y) (y preferred), else -1.

        compare_batch(x, y, 1)'s answer as an int, on a scalar path: one
        uniform drawn from the oracle's stream, after evaluating the pair.
        """
        gap = float(self.objective.value(x)) - float(self.objective.value(y))
        if math.isnan(gap):
            raise ValueError(_NAN_GAP)
        self.query_count += 1
        agree = self.rng.random() < 0.5 + self.advantage * (gap != 0.0)
        return (1 if gap >= 0.0 else -1) * (1 if agree else -1)

    def _tally(self, gap, shape):
        """sign(gap) * (2 * #agree - n), where a score agrees when its uniform
        u < 1/2 + advantage; a tie (gap == 0) counts as sign +1 with u < 1/2
        agreeing."""
        sign = 2.0 * (gap >= 0.0) - 1.0
        agree = self.rng.random(shape) < 0.5 + self.advantage * (gap != 0.0)
        return sign * (2 * _count(agree) - shape[-1])


class ConfidenceOracle(_Oracle):
    """Comparison oracle returning a confidence-weighted score in [-1, 1].

    Response models, at gap magnitude t = |f(x) - f(y)| with margin rho(t):

      deterministic_link  always answers sign(gap) * rho(t)     (C = 1),
                          which is 2 sigma(gap) - 1
      engage_abstain      answers sign(gap) w.p. rho(t), else 0 (C = 1)
      noisy_engage        w.p. rho(t) answers sign(gap) * B with
                          B = +1 w.p. 3/4 and -1 w.p. 1/4, else 0; the
                          certified margin drops to rho(t)/2 and C = 2.

    Exact ties always score 0.  rho_effective / second_moment_bound /
    linearity_constants expose the constants certified for the model, which
    is what vote-length recipes and error bounds consume.
    """

    _ties_respond = False

    def __init__(self, objective: RidgeObjective, kind: str, link: LinkFunction, rng: RngStream):
        if kind not in _MODELS:
            raise ValueError(f"unknown confidence oracle kind {kind!r}")
        super().__init__(objective, rng)
        self.kind = kind
        self.link = link
        self._uniforms = _MODELS[kind][2]

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

    def _tally(self, gap, shape):
        """Tallies at non-zero gaps: sign(gap) times a count from rho(|gap|)
        and, per row, n engagement uniforms and then, for noisy_engage, n
        flip uniforms (none for deterministic_link).  The count is n * rho
        for deterministic_link, #engaged for engage_abstain and
        2 * #(engaged and flip u < 3/4) - #engaged for noisy_engage."""
        rho = self.link.rho(abs(gap))
        if self.kind == "deterministic_link":
            count = shape[-1] * rho
        else:
            u = self.rng.random(shape[:-1] + (self._uniforms,) + shape[-1:])
            engaged = u[..., 0, :] < rho
            count = _count(engaged)
            if self.kind == "noisy_engage":
                count = 2 * _count(engaged & (u[..., 1, :] < 0.75)) - count
        sign = math.copysign(1.0, gap) if isinstance(gap, float) else np.sign(gap)
        return sign * count
