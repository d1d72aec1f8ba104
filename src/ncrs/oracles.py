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

Sign convention: compare(x, y) > 0 means y is preferred (f(x) > f(y)), so a
positive answer tells a minimizer to accept the candidate y.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, ndtr

from .geometry import RngStream
from .objectives import RidgeObjective

LINK_KINDS = ("logistic", "probit", "arctan")
CONFIDENCE_KINDS = ("deterministic_link", "engage_abstain", "noisy_engage")

CERT_GRID_POINTS = 1000  # grid resolution for the local-linearity certificate


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
        if self.scale <= 0:
            raise ValueError("link scale must be positive")

    def probability(self, u: np.ndarray | float) -> np.ndarray | float:
        """sigma(u): probability of preferring y at signed gap u = f(x) - f(y)."""
        u = np.asarray(u, dtype=np.float64)
        if self.kind == "logistic":
            out = expit(u / self.scale)
        elif self.kind == "probit":
            out = ndtr(u / self.scale)
        else:
            out = 0.5 + np.arctan(u / self.scale) / np.pi
        return out if out.ndim else float(out)

    def rho(self, t: np.ndarray | float) -> np.ndarray | float:
        """rho(t) = 2 sigma(t) - 1 for t >= 0, in closed form per kind."""
        t = np.asarray(t, dtype=np.float64)
        if self.kind == "logistic":
            out = np.tanh(t / (2.0 * self.scale))
        elif self.kind == "probit":
            out = 2.0 * ndtr(t / self.scale) - 1.0
        else:
            out = (2.0 / np.pi) * np.arctan(t / self.scale)
        return out if out.ndim else float(out)

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
    certifies the inequality, and halved until it does if the start fails.
    The returned r is the largest candidate the grid certified.
    """
    c = link.slope_at_zero

    def certified(r: float) -> bool:
        t = np.linspace(0.0, r, CERT_GRID_POINTS + 1)[1:]
        return bool(np.all(np.asarray(link.rho(t)) >= 0.5 * c * t))

    r = link.scale
    if certified(r):
        for _ in range(60):
            if not certified(2.0 * r):
                break
            r *= 2.0
    else:
        for _ in range(60):
            r *= 0.5
            if certified(r):
                break
        else:
            raise RuntimeError("no certified local-linearity radius found")
    return c, r


def rho_inverse(link: LinkFunction, target: float) -> float:
    """Gap t >= 0 with rho(t) = target, by bisection.  Needs 0 <= target < 1."""
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
    query_count tracks the number of queries answered.
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
        self.query_count += 1
        gap = self.objective.evaluate(x) - self.objective.evaluate(y)
        return _sign_reply(gap, self.rng.gen.random(), self.advantage)

    def compare_gaps(self, gaps: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
        """Answers to many pairs at once, given their gaps f(x) - f(y) and one
        uniform each, counted as len(gaps) queries.

        Answer i equals what compare returns for pair i when its stream
        yields uniforms[i]; the caller draws the uniforms.
        """
        gaps = np.asarray(gaps, dtype=np.float64)
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
        if kind not in CONFIDENCE_KINDS:
            raise ValueError(f"unknown confidence oracle kind {kind!r}")
        self.objective = objective
        self.kind = kind
        self.link = link
        self.rng = rng
        self.query_count = 0
        c, r = local_linearity_constants(link)
        if kind == "noisy_engage":
            # Halving the margin halves its certified slope; r is unchanged
            # because rho/2 >= (c/4) t on the same certified interval.
            self._c, self._r, self._second_moment = 0.5 * c, r, 2.0
        else:
            self._c, self._r, self._second_moment = c, r, 1.0

    def rho_effective(self, t: np.ndarray | float) -> np.ndarray | float:
        """Certified mean-margin lower bound at gap magnitude t."""
        rho = self.link.rho(t)
        return 0.5 * rho if self.kind == "noisy_engage" else rho

    @property
    def second_moment_bound(self) -> float:
        """C with E[R^2] <= C * rho_effective(|gap|)."""
        return self._second_moment

    @property
    def linearity_constants(self) -> tuple[float, float]:
        """(c, r) certified for rho_effective: rho_effective(t) >= (c/2) t on [0, r]."""
        return self._c, self._r

    def compare(self, x: np.ndarray, y: np.ndarray) -> float:
        """One score; positive means y preferred."""
        return float(self.compare_batch(x, y, 1)[0])

    def compare_batch(self, x: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
        """n independent scores for the same pair, counted as n queries.

        The generator consumes one block of n uniforms for the engagement
        events and, for noisy_engage, a second block of n uniforms for the
        sign flips, in that order.
        """
        if n < 1:
            raise ValueError("batch size must be at least 1")
        self.query_count += n
        gap = self.objective.evaluate(x) - self.objective.evaluate(y)
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
        if n < 1:
            raise ValueError("batch size must be at least 1")
        gaps = np.asarray(gaps, dtype=np.float64)
        self.query_count += gaps.size * n
        scores = np.zeros((gaps.size, n))
        live = gaps != 0.0
        m = int(np.count_nonzero(live))
        if m:
            scores[live] = self._respond(gaps[live, None], (m, n))
        return scores

    def _respond(self, gap, shape: tuple) -> np.ndarray:
        """Scores of the response model at non-zero gaps, of shape `shape`.

        gap is a float, or a column with one gap per row of `shape`.  The
        uniforms come as one block: per row, n engagement uniforms and then,
        for noisy_engage, n flip uniforms.
        """
        if self.kind == "deterministic_link":
            return np.full(shape, 2.0 * self.link.probability(gap) - 1.0)
        rho = self.link.rho(abs(gap))
        sign = 2.0 * (gap > 0.0) - 1.0
        if self.kind == "engage_abstain":
            return np.where(self.rng.gen.random(shape) < rho, sign, 0.0)
        u = self.rng.gen.random(shape[:-1] + (2,) + shape[-1:])
        flip = np.where(u[..., 1, :] < 0.75, 1.0, -1.0)
        return np.where(u[..., 0, :] < rho, sign * flip, 0.0)
