"""Typed points and tangents over a small family of Riemannian manifolds.

Every manifold works on flat ``float64`` coordinate vectors (matrices are
stored row-major) so that products, serialization and random sampling are
uniform.  The :class:`Point` / :class:`Tangent` wrappers pin coordinates to
a manifold (and tangents to a base point) and enforce the representation
invariants at construction:

* defect <= 1e-10        accepted as-is,
* defect  < 1e-8         silently re-projected onto the manifold,
* defect >= 1e-8         :class:`~rvikit.exceptions.ContractViolation`.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from ..exceptions import ContractViolation

STRICT_TOL = 1e-10
REPROJECT_TOL = 1e-8
# max |coordinate difference| for two points to count as the same base
BASE_MATCH_TOL = 1e-12


def _as_vector(coords) -> np.ndarray:
    arr = np.asarray(coords, dtype=float).reshape(-1)
    if not np.all(np.isfinite(arr)):
        raise ContractViolation("coordinates must be finite")
    return arr


class Manifold(abc.ABC):
    """Array-level geometry kernel.

    Subclasses implement exp/log/parallel transport/metric on raw 1-D
    coordinate vectors; the typed layer in :mod:`rvikit.manifolds.ops`
    wraps these with base-point bookkeeping.

    Attributes
    ----------
    dim : int
        Intrinsic dimension.
    ambient : int
        Length of the flat coordinate vector.
    curvature_lo, curvature_hi : float
        Bounds kappa <= sectional curvature <= K valid on the whole
        manifold (all supported manifolds have globally constant bounds).
    """

    dim: int
    ambient: int
    curvature_lo: float
    curvature_hi: float

    # -- representation ------------------------------------------------
    @abc.abstractmethod
    def point_defect(self, x: np.ndarray) -> float:
        """How far ``x`` is from satisfying the representation invariant."""

    @abc.abstractmethod
    def project(self, x: np.ndarray) -> np.ndarray:
        """Re-project a near-feasible coordinate vector onto the manifold."""

    @abc.abstractmethod
    def tangent_defect(self, x: np.ndarray, v: np.ndarray) -> float:
        """How far ``v`` is from the tangent space at ``x``."""

    @abc.abstractmethod
    def project_tangent(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Orthogonal projection of ``v`` onto the tangent space at ``x``."""

    # -- geometry -------------------------------------------------------
    @abc.abstractmethod
    def exp(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Exponential map."""

    @abc.abstractmethod
    def log(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Inverse exponential map (defined inside the injectivity domain)."""

    @abc.abstractmethod
    def transport(self, x: np.ndarray, y: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Parallel transport of ``u`` along the geodesic from ``x`` to ``y``."""

    @abc.abstractmethod
    def inner(self, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
        """Riemannian inner product at ``x``."""

    @abc.abstractmethod
    def dist(self, x: np.ndarray, y: np.ndarray) -> float:
        """Geodesic distance."""

    def norm(self, x: np.ndarray, v: np.ndarray) -> float:
        """Riemannian norm; one that overflows breaks the finite-numbers contract."""
        with np.errstate(over="ignore"):
            n = float(np.sqrt(max(self.inner(x, v, v), 0.0)))
        if not math.isfinite(n):
            raise ContractViolation("tangent norm overflows: it must be finite")
        return n

    def anchor(self) -> np.ndarray:
        """A canonical base point (origin/identity/first axis)."""
        raise NotImplementedError

    # -- sampling -------------------------------------------------------
    @abc.abstractmethod
    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        """A random point (distribution is manifold-specific but fixed)."""

    def random_tangent(self, rng: np.random.Generator, x: np.ndarray,
                       radius: float) -> np.ndarray:
        """Uniform sample from the tangent ball of ``radius`` at ``x``."""
        g = rng.standard_normal(self.ambient)
        v = self.project_tangent(x, g)
        nv = self.norm(x, v)
        if nv < 1e-15:  # pathological draw; retry deterministically
            return self.random_tangent(rng, x, radius)
        r = radius * rng.uniform() ** (1.0 / self.dim)
        return v * (r / nv)

    def ball_point(self, rng: np.random.Generator, center: np.ndarray,
                   radius: float) -> np.ndarray:
        """Exp of a uniform tangent-ball sample: a point near ``center``."""
        return self.exp(center, self.random_tangent(rng, center, radius))

    # -- identity -------------------------------------------------------
    def _signature(self) -> tuple:
        return (type(self).__name__,)

    def __eq__(self, other) -> bool:
        return isinstance(other, Manifold) and self._signature() == other._signature()

    def __hash__(self) -> int:
        return hash(self._signature())

    def __repr__(self) -> str:
        name, *params = self._signature()
        return f"{name}({', '.join(map(str, params))})"


def _checked_point(manifold: Manifold, coords: np.ndarray) -> np.ndarray:
    defect = manifold.point_defect(coords)
    if defect >= REPROJECT_TOL:
        raise ContractViolation(
            f"point defect {defect:.3e} on {manifold!r} exceeds {REPROJECT_TOL:g}")
    if defect > STRICT_TOL:
        coords = manifold.project(coords)
    return coords


@dataclass(frozen=True)
class Point:
    """A point pinned to its manifold; coordinates are immutable."""

    manifold: Manifold
    coords: np.ndarray

    def __post_init__(self):
        coords = _checked_point(self.manifold, _as_vector(self.coords))
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    def same_base(self, other: "Point") -> bool:
        return (self.manifold == other.manifold
                and self.coords.shape == other.coords.shape
                and float(np.max(np.abs(self.coords - other.coords))) <= BASE_MATCH_TOL)

    def __repr__(self) -> str:
        return f"Point({self.manifold!r}, {np.array2string(self.coords, precision=6)})"


@dataclass(frozen=True)
class Tangent:
    """A tangent vector carrying its base point."""

    base: Point
    components: np.ndarray

    def __post_init__(self):
        comp = _as_vector(self.components)
        man, x = self.base.manifold, self.base.coords
        defect = man.tangent_defect(x, comp)
        if defect >= REPROJECT_TOL:
            raise ContractViolation(
                f"tangent defect {defect:.3e} on {man!r} exceeds {REPROJECT_TOL:g}")
        if defect > STRICT_TOL:
            comp = man.project_tangent(x, comp)
        comp.setflags(write=False)
        object.__setattr__(self, "components", comp)

    @property
    def manifold(self) -> Manifold:
        return self.base.manifold

    def norm(self) -> float:
        return self.manifold.norm(self.base.coords, self.components)

    def __neg__(self) -> "Tangent":
        return Tangent(self.base, -self.components)

    def __add__(self, other: "Tangent") -> "Tangent":
        if not self.base.same_base(other.base):
            raise ContractViolation("cannot add tangents with different bases")
        return Tangent(self.base, self.components + other.components)

    def __sub__(self, other: "Tangent") -> "Tangent":
        return self.__add__(-other)

    def __mul__(self, scalar: float) -> "Tangent":
        return Tangent(self.base, self.components * float(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return (f"Tangent(base={np.array2string(self.base.coords, precision=4)}, "
                f"{np.array2string(self.components, precision=6)})")
