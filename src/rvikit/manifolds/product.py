"""Finite products of manifolds with the l2-combined metric."""

from __future__ import annotations

from functools import reduce
from itertools import accumulate

import numpy as np

from .base import Manifold, _larger, _scalar


class Product(Manifold):
    """Cartesian product; coordinates are part vectors concatenated.

    All maps act part-wise, on slices of the last axis.  Squared
    distances add.  Curvature bounds combine as [min_i kappa_i, max_i K_i],
    widened to include 0 when there is more than one factor (planes
    spanning two factors are flat).
    """

    def __init__(self, *parts):
        if not parts:
            raise ValueError("a product needs at least one part")
        if not all(isinstance(p, Manifold) for p in parts):
            raise TypeError("product parts must be manifolds")
        self.parts = parts
        self.dim = sum(p.dim for p in parts)
        self.ambient = sum(p.ambient for p in parts)
        lo = min(p.curvature_lo for p in parts)
        hi = max(p.curvature_hi for p in parts)
        if len(parts) > 1:
            lo, hi = min(lo, 0.0), max(hi, 0.0)
        self.curvature_lo = lo
        self.curvature_hi = hi
        ends = list(accumulate(p.ambient for p in parts))
        self._slices = tuple(slice(a, b) for a, b in zip([0] + ends, ends))

    def _signature(self):
        return ("Product",) + tuple(p._signature() for p in self.parts)

    def __repr__(self) -> str:
        return " x ".join(repr(p) for p in self.parts)

    def split(self, x: np.ndarray) -> list[np.ndarray]:
        return [x[..., s] for s in self._slices]

    def join(self, pieces) -> np.ndarray:
        return np.concatenate([np.asarray(p, dtype=float) for p in pieces], axis=-1)

    def _partwise(self, kernel: str, *arrays) -> list:
        """Each part's ``kernel`` on its slices of ``arrays``, in part order."""
        return [getattr(p, kernel)(*[a[..., s] for a in arrays])
                for p, s in zip(self.parts, self._slices)]

    # -- representation --------------------------------------------------
    def point_defect(self, x):
        return reduce(_larger, self._partwise("point_defect", x))

    def project(self, x):
        return self.join(self._partwise("project", x))

    def tangent_defect(self, x, v):
        return reduce(_larger, self._partwise("tangent_defect", x, v))

    def project_tangent(self, x, v):
        return self.join(self._partwise("project_tangent", x, v))

    # -- geometry ---------------------------------------------------------
    def exp(self, x, v):
        return self.join(self._partwise("exp", x, v))

    def log(self, x, y):
        return self.join(self._partwise("log", x, y))

    def transport(self, x, y, u):
        return self.join(self._partwise("transport", x, y, u))

    def inner(self, x, u, v):
        return sum(self._partwise("inner", x, u, v))

    def dist(self, x, y):
        # d * d, not d ** 2: on a Python float ** calls libm pow, which can
        # differ by an ulp from the batch's square
        return _scalar(np.sqrt(sum(d * d for d in self._partwise("dist", x, y))))

    def random_point(self, rng):
        return self.join(p.random_point(rng) for p in self.parts)

    def anchor(self):
        return self.join(p.anchor() for p in self.parts)
