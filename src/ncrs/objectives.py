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

from .geometry import RngStream, Subspace, gaussian_vector, random_subspace

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
            if self.amplitude < 0 or self.frequency <= 0:
                raise ValueError("quadratic_cosine needs amplitude >= 0, frequency > 0")

    def value(self, z: np.ndarray) -> np.ndarray | float:
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
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")

    @property
    def dim(self) -> int:
        return self.subspace.dim

    def phases(self, x: np.ndarray) -> np.ndarray:
        """The phases <w_j, x>, batched over leading axes."""
        return np.asarray(x, dtype=np.float64) @ self.subspace.basis.T

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


# Points remembered by RidgeObjective.evaluate: the current iterate and the
# candidate it is compared with.
EVALUATE_CACHE_SIZE = 2


@dataclass(frozen=True)
class RidgeObjective:
    """f(x) = g(U x) + eta(x), with certified smoothness and lower bound.

    value and gradient are batched over leading axes.  evaluate is the
    single-point evaluator of the search loop: it remembers f(x), the
    active coordinates U x and the nuisance phases of the last
    EVALUATE_CACHE_SIZE points it was given, keyed by array identity and
    evicting the least recently used.  Only read-only arrays that own their
    data are remembered, and an entry is dropped once its array is
    writeable again; any other input is passed straight to value.  gradient
    reuses a remembered U x and phases.  The cache is not locked: do not
    call evaluate or gradient on one objective from several threads at once.
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

    def _point(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.ambient_dim:
            raise ValueError(
                f"point has dimension {x.shape[-1]}, objective lives in "
                f"R^{self.ambient_dim}"
            )
        return x

    def value(
        self, x: np.ndarray, z: np.ndarray | None = None, phases: np.ndarray | None = None
    ) -> np.ndarray | float:
        """f(x); z and phases, when given, must be U x and the nuisance phases of x."""
        x = self._point(x)
        if z is None:
            z = self.active.coordinates(x)
        out = self.inner.value(z)
        if self.nuisance is not None:
            out = out + self.nuisance.value(x, phases)
        return out

    def gradient(self, x: np.ndarray) -> np.ndarray:
        entry = self._lookup(x)
        if entry is None:
            x = self._point(x)
            z = self.active.coordinates(x)
            phases = None
        else:
            _, _, z, phases = entry
        grad = self.inner.gradient(z) @ self.active.basis
        if self.nuisance is not None:
            grad = grad + self.nuisance.gradient(x, phases)
        return grad

    def evaluate(self, x: np.ndarray) -> float:
        """f(x) at one point, as a float; remembered for read-only points."""
        entry = self._lookup(x)
        if entry is not None:
            return entry[1]
        if type(x) is not np.ndarray or x.flags.writeable or not x.flags.owndata:
            return float(self.value(x))
        z = self.active.coordinates(x)
        phases = None if self.nuisance is None else self.nuisance.phases(x)
        fx = float(self.value(x, z, phases))
        self._recent.append((x, fx, z, phases))
        if len(self._recent) > EVALUATE_CACHE_SIZE:
            del self._recent[0]
        return fx

    def _lookup(self, x) -> tuple | None:
        """The cache entry of x, marked most recently used; None if x has none."""
        recent = self._recent
        for i, entry in enumerate(recent):
            if entry[0] is x:
                if x.flags.writeable:  # made writeable again since it was cached
                    del recent[i]
                    return None
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

    tau > 0 requires nuisance_dim >= 1; the nuisance basis is drawn
    orthogonal to the active subspace (from nuisance_rng when given, so the
    active geometry is unchanged by toggling the nuisance).
    """
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
    k = objective.intrinsic_dim
    z = gaussian_vector(rng, k)
    norm = float(np.linalg.norm(z))
    while norm < 1e-12:  # astronomically unlikely; keeps the direction well defined
        z = gaussian_vector(rng, k)
        norm = float(np.linalg.norm(z))
    radius = radius_scale * math.sqrt(k)
    return (radius / norm) * (z @ objective.active.basis)
