"""The unit sphere S^d embedded in R^{d+1} (constant curvature +1)."""

from __future__ import annotations

import numpy as np

from ..exceptions import InjectivityError
from .base import Manifold, _any, _col, _euclidean_norm, _replace_rows, _scalar

# how close to pi a step/separation may come before we refuse it
_ANTIPODAL_GUARD = 1e-9


def _cosine(x: np.ndarray, y: np.ndarray):
    """<x, y> clipped to [-1, 1] row by row (np.clip's numbers, without its overhead)."""
    return np.minimum(np.maximum(np.vecdot(x, y), -1.0), 1.0)


class Sphere(Manifold):
    """S^d = {x in R^{d+1} : ||x|| = 1} with the round metric.

    The injectivity radius is pi: exponential steps of length >= pi and
    logarithms/transports between antipodal points are rejected, if any
    row of a batch asks for one.
    """

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = int(d)
        self.ambient = int(d) + 1
        self.curvature_lo = 1.0
        self.curvature_hi = 1.0

    def _signature(self):
        return ("Sphere", self.dim)

    # -- representation --------------------------------------------------
    def point_defect(self, x):
        return _scalar(abs(_euclidean_norm(x) - 1.0))

    def project(self, x):
        return np.asarray(x, dtype=float) / _col(_euclidean_norm(x))

    def tangent_defect(self, x, v):
        return _scalar(abs(np.vecdot(x, v)))

    def project_tangent(self, x, v):
        return v - _col(np.vecdot(x, v)) * x

    # -- geometry ---------------------------------------------------------
    # A row with a zero step or separation divides by 1 instead of 0 (adding
    # the mask does that) and then takes its degenerate value.
    def exp(self, x, v):
        t = _col(_euclidean_norm(v))
        if _any(t >= np.pi):
            raise InjectivityError(
                f"sphere exponential step of length {np.max(t):.6f} >= pi")
        still = t < 1e-16
        return _replace_rows(still, x, np.cos(t) * x + np.sin(t) * (v / (t + still)))

    def log(self, x, y):
        c = _col(_cosine(x, y))
        w = y - c * x
        s = _col(_euclidean_norm(w))
        theta = np.arctan2(s, c)
        if _any(theta >= np.pi - _ANTIPODAL_GUARD):
            raise InjectivityError("sphere log undefined near antipodal points")
        still = s < 1e-16
        return _replace_rows(still, 0.0, (theta / (s + still)) * w)

    def transport(self, x, y, u):
        v = self.log(x, y)
        theta = _col(_euclidean_norm(v))
        still = theta < 1e-16
        e = v / (theta + still)
        a = _col(np.vecdot(u, e))
        out = u + a * ((np.cos(theta) - 1.0) * e - np.sin(theta) * x)
        return self.project_tangent(y, _replace_rows(still, u, out))

    def inner(self, x, u, v):
        return _scalar(np.vecdot(u, v))

    def dist(self, x, y):
        c = _cosine(x, y)
        # arctan2 form is accurate for both tiny and near-pi separations
        s = _euclidean_norm(y - _col(c) * x)
        return _scalar(np.arctan2(s, c))

    def random_point(self, rng):
        g = rng.standard_normal(self.ambient)
        return g / np.linalg.norm(g)

    def anchor(self):
        out = np.zeros(self.ambient)
        out[0] = 1.0
        return out
