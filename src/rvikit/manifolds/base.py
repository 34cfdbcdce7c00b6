"""Typed points and tangents over a small family of Riemannian manifolds.

Every manifold works on flat ``float64`` coordinate vectors (matrices are
stored row-major) so that products and random sampling are uniform.  Each
array kernel also takes leading batch axes: coordinates of shape
``(..., ambient)`` give ``(...)`` scalars or ``(..., ambient)`` vectors,
row by row, from the one implementation.  A single vector gives a vector
and Python-float scalars, the same numbers as a batch row.
The :class:`Point` / :class:`Tangent` wrappers pin coordinates to a manifold
(and tangents to a base point).  Each contract decision is made in one
place:

* every ``Point`` and ``Tangent`` construction checks that its numbers
  are finite and applies the defect policy:

  - defect <= 1e-10      accepted as-is,
  - defect  < 1e-8       silently re-projected onto the manifold,
  - defect >= 1e-8       :class:`~rvikit.exceptions.ContractViolation`;

  a NaN defect (coordinates whose defect overflows) is refused too;
  :func:`checked_points` and :func:`checked_tangents` are the same
  contracts on a batch: the policy applies row by row, and one row past
  1e-8 refuses the batch;
  a view of a checked value (the block slices of a product point) needs
  no contract of its own, so a saddle's block gradients read the views of
  the checked point and are checked once, as the field's output
  (:func:`rvikit.problems.saddle_to_field`);
  the duality-gap ascent (:func:`rvikit.problems.duality_gap`) runs on
  coordinates and checks each new value it makes: every tangent with
  :func:`checked_tangents`, every point with :func:`checked_points`;

* the typed operations in :mod:`rvikit.manifolds.ops` (and tangent
  arithmetic here) check that bases and manifolds match;
* :meth:`Manifold.norm` and :func:`checked_distances` (behind
  :func:`rvikit.manifolds.ops.distance`) check that their results are
  finite (:func:`finite`).
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


def _finite_coords(coords) -> np.ndarray:
    arr = np.asarray(coords, dtype=float)
    if not np.isfinite(arr).all():
        raise ContractViolation("coordinates must be finite")
    return arr


# -- row-wise helpers shared by the kernels -----------------------------------
# For one vector, a kernel's per-row scalars and masks are numpy scalars; for
# a batch they are arrays, kept as (..., 1) columns where they scale vectors.
# One row takes a plain branch, so a single vector computes only the branch it
# needs, as a scalar ``if`` would.

def _scalar(a):
    """A per-row scalar result: a Python float for one row, else the array."""
    return a if getattr(a, "ndim", 0) else float(a)


def _col(a):
    """Per-row scalars as a column that scales ``(..., ambient)`` rows."""
    return a[..., None] if getattr(a, "ndim", 0) else a


def _any(mask) -> bool:
    """Whether ``mask`` holds on any row."""
    return bool(mask.any()) if getattr(mask, "ndim", 0) else bool(mask)


def _all(mask) -> bool:
    """Whether ``mask`` holds on every row."""
    return bool(mask.all()) if getattr(mask, "ndim", 0) else bool(mask)


def _pick(mask, a, b):
    """``a`` on the rows where ``mask`` holds and ``b`` on the others."""
    if getattr(mask, "ndim", 0):
        return np.where(mask, a, b)
    return a if mask else b


def _replace_rows(mask, value, out: np.ndarray) -> np.ndarray:
    """``out`` with ``value`` on the rows where the column ``mask`` holds, as a
    new array; ``out`` itself if no row does."""
    if mask.any() if getattr(mask, "ndim", 0) else mask:
        return np.where(mask, value, out)
    return out


def _larger(a, b):
    """Per-row ``max(a, b)``, with the builtin's ties; a NaN on either side
    wins, so a part's overflowed defect cannot hide behind another's."""
    mask = b > a
    if getattr(mask, "ndim", 0):
        return np.where(mask | np.isnan(b), b, a)
    return b if mask or b != b else a


def _euclidean_norm(v: np.ndarray):
    """Row-wise ``np.linalg.norm`` over the last axis."""
    return np.sqrt(np.vecdot(v, v))


def finite(value, what: str):
    """``value`` (per-row scalars) if every row is finite; an overflow breaks
    the finite-numbers contract."""
    value = _scalar(value)
    if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
        raise ContractViolation(f"{what} overflows: it must be finite")
    return value


class Manifold(abc.ABC):
    """Array-level geometry kernel.

    Subclasses implement exp/log/parallel transport/metric on raw
    coordinate arrays of shape ``(..., ambient)``, row by row; the typed
    layer in :mod:`rvikit.manifolds.ops` wraps these with base-point
    bookkeeping.

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

    @np.errstate(over="ignore")
    def norm(self, x: np.ndarray, v: np.ndarray) -> float:
        """Riemannian norm; one that overflows breaks the finite-numbers contract."""
        return finite(np.sqrt(_larger(self.inner(x, v, v), 0.0)), "tangent norm")

    def anchor(self) -> np.ndarray:
        """A canonical base point (origin/identity/first axis)."""
        raise NotImplementedError

    # -- sampling -------------------------------------------------------
    @abc.abstractmethod
    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        """A random point (distribution is manifold-specific but fixed)."""

    def random_tangent(self, rng: np.random.Generator, x: np.ndarray,
                       radius: float) -> np.ndarray:
        """Uniform samples from the tangent balls of ``radius`` at the rows of ``x``.

        Each row draws ``standard_normal(ambient)`` (again, while its tangent
        part is numerically zero) and then ``uniform()``, in row order, so a
        batch draws the numbers that the same rows would one at a time.
        """
        x = np.asarray(x, dtype=float)
        rows = x.reshape(-1, self.ambient)
        out = np.empty(rows.shape)
        for i, row in enumerate(rows):
            nv = 0.0
            while nv < 1e-15:  # pathological draw; retry deterministically
                v = self.project_tangent(row, rng.standard_normal(self.ambient))
                nv = self.norm(row, v)
            r = radius * rng.uniform() ** (1.0 / self.dim)
            out[i] = v * (r / nv)
        return out.reshape(x.shape)

    def ball_point(self, rng: np.random.Generator, center: np.ndarray,
                   radius: float) -> np.ndarray:
        """Exp of uniform tangent-ball samples at the rows of ``center``; the
        steps pass the :class:`Tangent` contract, the caller checks the points."""
        return self.exp(center, checked_tangents(
            self, center, self.random_tangent(rng, center, radius)))

    # -- identity -------------------------------------------------------
    def _signature(self) -> tuple:
        return (type(self).__name__,)

    def __eq__(self, other) -> bool:
        return other is self or (isinstance(other, Manifold)
                                 and self._signature() == other._signature())

    def __hash__(self) -> int:
        return hash(self._signature())

    def __repr__(self) -> str:
        name, *params = self._signature()
        return f"{name}({', '.join(map(str, params))})"


def _checked(manifold: Manifold, what: str, defect_of, project, *args) -> np.ndarray:
    """``args[-1]`` under the defect policy, row by row: each row is accepted
    or re-projected, and one row past the re-projection bound refuses all.
    Both comparisons are false for NaN, so a NaN defect refuses."""
    defect = defect_of(*args)
    fine = defect <= STRICT_TOL
    if _all(fine):
        return args[-1]
    bad = np.logical_not(defect < REPROJECT_TOL)
    if _any(bad):
        worst = np.max(defect, where=bad, initial=REPROJECT_TOL)
        raise ContractViolation(
            f"{what} defect {worst:.3e} on {manifold!r} exceeds {REPROJECT_TOL:g}")
    return _replace_rows(_col(np.logical_not(fine)), project(*args), args[-1])


def checked_points(manifold: Manifold, x) -> np.ndarray:
    """Rows of ``x`` under the :class:`Point` contract: finite coordinates,
    and the defect policy row by row."""
    return _checked(manifold, "point", manifold.point_defect, manifold.project,
                    _finite_coords(x))


@np.errstate(over="ignore")
def checked_distances(manifold: Manifold, x: np.ndarray, y: np.ndarray):
    """Geodesic distances between the rows of ``x`` and ``y``; one that
    overflows breaks the finite-numbers contract."""
    return finite(manifold.dist(x, y), "distance")


def checked_tangents(manifold: Manifold, x: np.ndarray, v) -> np.ndarray:
    """Rows of ``v`` under the :class:`Tangent` contract at the rows of ``x``:
    finite coordinates, and the defect policy row by row."""
    return _checked(manifold, "tangent", manifold.tangent_defect,
                    manifold.project_tangent, x, _finite_coords(v))


@dataclass(frozen=True)
class Point:
    """A point pinned to its manifold; coordinates are immutable."""

    manifold: Manifold
    coords: np.ndarray

    def __post_init__(self):
        m = self.manifold
        coords = _checked(m, "point", m.point_defect, m.project,
                          _finite_coords(self.coords).reshape(-1))
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    def same_base(self, other: "Point") -> bool:
        return other is self or (
            self.manifold == other.manifold
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
        m = self.base.manifold
        comp = _checked(m, "tangent", m.tangent_defect, m.project_tangent,
                        self.base.coords, _finite_coords(self.components).reshape(-1))
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
        if not self.base.same_base(other.base):
            raise ContractViolation("cannot subtract tangents with different bases")
        return Tangent(self.base, self.components - other.components)

    def __mul__(self, scalar: float) -> "Tangent":
        return Tangent(self.base, self.components * float(scalar))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return (f"Tangent(base={np.array2string(self.base.coords, precision=4)}, "
                f"{np.array2string(self.components, precision=6)})")
