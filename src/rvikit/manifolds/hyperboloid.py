"""Hyperbolic space H^d in the hyperboloid (Minkowski) model, curvature -1.

Points live on the upper sheet {p : <p,p>_L = -1, p_0 > 0} of the unit
hyperboloid in R^{d+1} equipped with the Lorentzian form

    <u, v>_L = -u_0 v_0 + u_1 v_1 + ... + u_d v_d,

which restricts to a Riemannian metric on tangent spaces {v : <p,v>_L = 0}.
"""

from __future__ import annotations

import numpy as np

from .base import Manifold, _any, _col, _larger, _pick, _replace_rows, _scalar


def _lorentz(u: np.ndarray, v: np.ndarray):
    """<u,v>_L row by row, as a numpy scalar or an array."""
    # [()] makes one row's time coordinates scalars, whose product is cheap
    return np.vecdot(u[..., 1:], v[..., 1:]) - u[..., 0][()] * v[..., 0][()]


def minkowski(u: np.ndarray, v: np.ndarray) -> float:
    """The Lorentzian bilinear form <u,v>_L (row by row for a batch)."""
    return _scalar(_lorentz(u, v))


def _length(v: np.ndarray):
    """sqrt(max(<v,v>_L, 0)) row by row: the Lorentz length of a spacelike v."""
    return np.sqrt(_larger(_lorentz(v, v), 0.0))


class Hyperboloid(Manifold):
    """Upper-sheet hyperboloid model of H^d (global injectivity)."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = int(d)
        self.ambient = int(d) + 1
        self.curvature_lo = -1.0
        self.curvature_hi = -1.0

    def _signature(self):
        return ("Hyperboloid", self.dim)

    # -- representation --------------------------------------------------
    def point_defect(self, x):
        return _scalar(_pick(x[..., 0] <= 0.0, np.inf, abs(_lorentz(x, x) + 1.0)))

    def project(self, x):
        # restore the sheet constraint by recomputing the time coordinate
        out = np.array(x, dtype=float)
        out[..., 0] = np.sqrt(1.0 + np.vecdot(out[..., 1:], out[..., 1:]))
        return out

    def tangent_defect(self, x, v):
        return _scalar(abs(_lorentz(x, v)))

    def project_tangent(self, x, v):
        # <x,x>_L = -1, so adding <v,x>_L * x cancels the Lorentzian component
        return v + _col(_lorentz(v, x)) * x

    # -- geometry ---------------------------------------------------------
    # A row with a zero step or separation divides by 1 instead of 0 (adding
    # the mask does that) and then takes its degenerate value.
    def exp(self, x, v):
        t = _col(_length(v))
        still = t < 1e-16
        return _replace_rows(still, x, np.cosh(t) * x + np.sinh(t) * (v / (t + still)))

    def log(self, x, y):
        w = y + _col(_lorentz(x, y)) * x     # spacelike, |w|_L = sinh(d)
        s = _col(_length(w))
        d = np.arcsinh(s)
        far = s >= 2.0
        if _any(far):
            d = _pick(far, _col(self.dist(x, y)), d)
        still = s < 1e-16
        return _replace_rows(still, 0.0, (d / (s + still)) * w)

    def transport(self, x, y, u):
        v = self.log(x, y)
        d = _col(_length(v))
        still = d < 1e-16
        e = v / (d + still)
        a = _col(_lorentz(u, e))
        out = u + a * ((np.cosh(d) - 1.0) * e + np.sinh(d) * x)
        return self.project_tangent(y, _replace_rows(still, u, out))

    def inner(self, x, u, v):
        return minkowski(u, v)

    def dist(self, x, y):
        c = -_lorentz(x, y)                  # cosh(d) up to roundoff
        # rows below 1.5 take the other branch; the floor keeps arccosh quiet
        d = np.arccosh(_larger(c, 1.0))
        near = c < 1.5
        if _any(near):
            # near-identical points: arccosh(1+eps) loses digits; use the
            # spacelike difference, whose Lorentz norm is 2*sinh(d/2)
            d = _pick(near, 2.0 * np.arcsinh(_length(y - x) / 2.0), d)
        return _scalar(d)

    def random_point(self, rng):
        g = rng.standard_normal(self.dim)
        out = np.empty(self.ambient)
        out[1:] = g
        out[0] = np.sqrt(1.0 + float(np.dot(g, g)))
        return out

    def anchor(self) -> np.ndarray:
        out = np.zeros(self.ambient)
        out[0] = 1.0
        return out
