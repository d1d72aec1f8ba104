"""Synthetic ridge objectives with known intrinsic dimension.

An objective is f(x) = g(U x) (+ optional nuisance), where U is a
row-orthonormal (k, d) basis of the active subspace.  All structure that
matters happens in k dimensions; the remaining d - k directions are flat
(exactly, or up to a small bounded nuisance term).  Each objective carries
certified constants: a smoothness bound L_f and a lower bound on its
infimum, both used by schedules and parameter recipes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import FLOAT64, RngStream, Subspace, gaussian_vector, random_subspace

INNER_KINDS = ("pure_quadratic", "quadratic_cosine", "bounded_well")


@dataclass(frozen=True)
class InnerFunction:
    """Low-dimensional inner function g applied to the active coordinates.

    Kinds:
      pure_quadratic    g(z) = 0.5 ||z||^2
      quadratic_cosine  g(z) = 0.5 ||z||^2 + a * sum_i cos(w z_i)
      bounded_well      g(z) = sum_i z_i^2 / (1 + z_i^2)
    """

    kind: str
    amplitude: float = 1.0  # quadratic_cosine only
    frequency: float = 3.0  # quadratic_cosine only

    def __post_init__(self):
        if self.kind not in INNER_KINDS:
            raise ValueError(f"unknown inner function kind {self.kind!r}")
        if self.kind == "quadratic_cosine":
            if not (0 <= self.amplitude < math.inf and 0 < self.frequency < math.inf):
                raise ValueError("quadratic_cosine needs finite amplitude >= 0 and frequency > 0")

    def value(self, z: np.ndarray) -> np.ndarray | float:
        if type(z) is not np.ndarray or z.dtype != FLOAT64:
            z = np.asarray(z, dtype=np.float64)
        if self.kind == "pure_quadratic":
            out = 0.5 * np.add.reduce(z * z, axis=-1)
        elif self.kind == "quadratic_cosine":
            out = 0.5 * np.add.reduce(z * z, axis=-1) + self.amplitude * np.add.reduce(
                np.cos(self.frequency * z), axis=-1
            )
        else:
            zz = z * z
            out = np.add.reduce(zz / (1.0 + zz), axis=-1)
        return out if out.ndim else float(out)

    def gradient(self, z: np.ndarray) -> np.ndarray:
        if type(z) is not np.ndarray or z.dtype != FLOAT64:
            z = np.asarray(z, dtype=np.float64)
        if self.kind == "pure_quadratic":
            return z.copy()
        if self.kind == "quadratic_cosine":
            return z - self.amplitude * self.frequency * np.sin(self.frequency * z)
        return 2.0 * z / (1.0 + z * z) ** 2

    @property
    def smoothness(self) -> float:
        """Certified Lipschitz constant of the gradient."""
        if self.kind == "pure_quadratic":
            return 1.0
        if self.kind == "quadratic_cosine":
            return 1.0 + self.amplitude * self.frequency**2
        # sup |d^2/dz^2 (z^2/(1+z^2))| is attained at z = 0 and equals 2
        return 2.0

    def lower_bound(self, k: int) -> float:
        """Certified lower bound on inf g over R^k."""
        if self.kind == "quadratic_cosine":
            return -self.amplitude * k
        return 0.0


@dataclass(frozen=True)
class NuisanceSpec:
    """Small bounded perturbation supported off the active subspace.

    eta(x) = (tau / sqrt(m)) * sum_j sin(<w_j, x>) with orthonormal rows w_j
    spanning a subspace orthogonal to the active one.  Its gradient lies in
    span(w_j) and has norm at most tau everywhere (equality at x = 0).
    """

    subspace: Subspace
    tau: float

    def __post_init__(self):
        if not 0 <= self.tau < math.inf:
            raise ValueError("tau must be finite and nonnegative")

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def phases(self, x: np.ndarray) -> np.ndarray:
        """The phases <w_j, x>, batched over leading axes."""
        return self.subspace.coordinates(x)

    def value(self, x: np.ndarray, phases: np.ndarray | None = None) -> np.ndarray | float:
        """eta(x); phases, when given, must be self.phases(x)."""
        if phases is None:
            phases = self.phases(x)
        out = (self.tau / math.sqrt(self.dim)) * np.add.reduce(np.sin(phases), axis=-1)
        return out if out.ndim else float(out)

    def gradient(self, x: np.ndarray, phases: np.ndarray | None = None) -> np.ndarray:
        """grad eta(x); phases, when given, must be self.phases(x)."""
        if phases is None:
            phases = self.phases(x)
        return (self.tau / math.sqrt(self.dim)) * (np.cos(phases) @ self.subspace.basis)


# Points remembered by RidgeObjective.value: the current iterate and the
# candidate it is compared with.
VALUE_CACHE_SIZE = 2


@dataclass(frozen=True)
class RidgeObjective:
    """f(x) = g(U x) + eta(x), with certified smoothness and lower bound.

    value and gradient are batched over leading axes; value returns a float
    at one point.  value remembers f(x), the active coordinates U x and the
    nuisance phases of the last VALUE_CACHE_SIZE sealed points it computed
    (geometry.seal: vectors whose values can never change), keyed by array
    identity and evicting the least recently used.  Any other input is
    computed afresh and not remembered.  gradient reuses a remembered U x
    and phases.  The cache is not locked: do not call value or gradient on
    one objective from several threads at once.
    """

    active: Subspace
    inner: InnerFunction
    nuisance: NuisanceSpec | None = None
    # entries (x, f(x), U x, nuisance phases or None), least recently used first
    _recent: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.nuisance is not None:
            if self.nuisance.subspace.ambient_dim != self.active.ambient_dim:
                raise ValueError("nuisance and active subspaces disagree on ambient dim")

    @property
    def ambient_dim(self) -> int:
        return self.active.ambient_dim

    @property
    def intrinsic_dim(self) -> int:
        return self.active.dim

    @property
    def smoothness(self) -> float:
        """Certified L_f: inner smoothness plus tau when a nuisance is present."""
        if self.nuisance is None:
            return self.inner.smoothness
        return self.inner.smoothness + self.nuisance.tau

    @property
    def lower_bound(self) -> float:
        """Certified lower bound on inf f."""
        low = self.inner.lower_bound(self.intrinsic_dim)
        if self.nuisance is not None:
            low -= self.nuisance.tau * math.sqrt(self.nuisance.dim)
        return low

    def value(self, x: np.ndarray) -> np.ndarray | float:
        """f(x); remembered for sealed points."""
        recent = self._recent
        if recent:  # _lookup, inline for the VALUE_CACHE_SIZE = 2 entries
            if recent[-1][0] is x:
                return recent[-1][1]
            if recent[0][0] is x:
                recent.append(recent.pop(0))
                return recent[-1][1]
        z = self.active.coordinates(x)
        phases = None if self.nuisance is None else self.nuisance.phases(x)
        fx = self.inner.value(z)
        if phases is not None:
            fx = fx + self.nuisance.value(x, phases)
        if type(x) is np.ndarray and type(x.base) is bytes and x.ndim == 1:  # is_sealed, inline
            recent.append((x, fx, z, phases))
            if len(recent) > VALUE_CACHE_SIZE:
                del recent[0]
        return fx

    def gradient(self, x: np.ndarray) -> np.ndarray:
        recent = self._recent
        entry = recent[-1] if recent and recent[-1][0] is x else self._lookup(x)
        if entry is None:
            z = self.active.coordinates(x)
            phases = None
        else:
            _, _, z, phases = entry
        grad = self.inner.gradient(z) @ self.active.basis
        if self.nuisance is not None:
            grad = grad + self.nuisance.gradient(x, phases)
        return grad

    def _lookup(self, x) -> tuple | None:
        """The cache entry of x, marked most recently used; None if x has none."""
        recent = self._recent
        for i, entry in enumerate(recent):
            if entry[0] is x:
                recent.append(recent.pop(i))
                return entry
        return None


def random_ridge_objective(
    rng: RngStream,
    d: int,
    k: int,
    inner: InnerFunction,
    tau: float = 0.0,
    nuisance_dim: int = 0,
    nuisance_rng: RngStream | None = None,
) -> RidgeObjective:
    """Draw a rotation-invariant active subspace and assemble the objective.

    nuisance_dim must be a nonnegative integer, checked before the tau
    rules; tau > 0 requires nuisance_dim >= 1; the nuisance basis is drawn
    orthogonal to the active subspace (from nuisance_rng when given, so the
    active geometry is unchanged by toggling the nuisance).
    """
    is_int = isinstance(nuisance_dim, (int, np.integer)) and not isinstance(nuisance_dim, bool)
    if not (is_int and nuisance_dim >= 0):
        raise ValueError(f"nuisance_dim must be a nonnegative integer, got {nuisance_dim!r}")
    if not 0 <= tau < math.inf:
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
    active = random_subspace(rng, d, k)
    nuisance = None
    if tau > 0:
        if nuisance_dim < 1:
            raise ValueError("tau > 0 requires nuisance_dim >= 1")
        w_rng = nuisance_rng if nuisance_rng is not None else rng
        w = random_subspace(w_rng, d, nuisance_dim, orthogonal_to=active)
        nuisance = NuisanceSpec(subspace=w, tau=tau)
    elif nuisance_dim:
        raise ValueError("nuisance_dim > 0 requires tau > 0")
    return RidgeObjective(active=active, inner=inner, nuisance=nuisance)


def initial_point(
    objective: RidgeObjective, rng: RngStream, radius_scale: float = 3.0
) -> np.ndarray:
    """Uniform point on the sphere of radius radius_scale * sqrt(k) inside the
    active subspace.  Keeps the initial gap f(x1) - inf f of order k across k."""
    if not 0 < radius_scale < math.inf:
        raise ValueError(f"radius_scale must be finite and positive, got {radius_scale}")
    k = objective.intrinsic_dim
    z = gaussian_vector(rng, k)
    norm = float(np.linalg.norm(z))
    while norm < 1e-12:  # astronomically unlikely; keeps the direction well defined
        z = gaussian_vector(rng, k)
        norm = float(np.linalg.norm(z))
    radius = radius_scale * math.sqrt(k)
    return (radius / norm) * (z @ objective.active.basis)
