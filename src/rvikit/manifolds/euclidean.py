"""Flat Euclidean space R^d (the zero-curvature reference geometry)."""

from __future__ import annotations

import numpy as np

from .base import Manifold, _euclidean_norm, _scalar


class Euclidean(Manifold):
    """R^d with the standard inner product; all maps are affine."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = int(d)
        self.ambient = int(d)
        self.curvature_lo = 0.0
        self.curvature_hi = 0.0

    def _signature(self):
        return ("Euclidean", self.dim)

    # representation: every finite vector is a point (a zero defect per row)
    def point_defect(self, x):
        return np.zeros(x.shape[:-1]) if x.ndim > 1 else 0.0

    def project(self, x):
        return np.asarray(x, dtype=float)

    def tangent_defect(self, x, v):
        return self.point_defect(v)

    def project_tangent(self, x, v):
        return np.asarray(v, dtype=float)

    # geometry
    def exp(self, x, v):
        return x + v

    def log(self, x, y):
        return y - x

    def transport(self, x, y, u):
        return np.array(u, dtype=float)

    def inner(self, x, u, v):
        return _scalar(np.vecdot(u, v))

    def dist(self, x, y):
        return _scalar(_euclidean_norm(y - x))

    def random_point(self, rng):
        return rng.standard_normal(self.dim)

    def anchor(self):
        return np.zeros(self.dim)
