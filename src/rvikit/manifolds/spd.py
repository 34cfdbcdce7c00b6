"""Symmetric positive-definite matrices with the affine-invariant metric.

Coordinates are the row-major flattening of the n x n matrix.  The metric

    <u, v>_p = trace(p^{-1} u p^{-1} v)

is invariant under congruence p -> a p a^T and makes SPD(n) a Cartan-
Hadamard manifold; its sectional curvature lies in [-1/2, 0] at every
point (the commutator bound ||[x,y]||_F <= sqrt(2) ||x||_F ||y||_F is
sharp, and the space is homogeneous, so the bounds are global).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ContractViolation
from .base import Manifold, _euclidean_norm, _scalar


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + m.mT)


def _eigh_fun(m: np.ndarray, fun) -> np.ndarray:
    """Apply a scalar function to symmetric matrices via eigendecomposition."""
    w, q = np.linalg.eigh(m)
    return (q * fun(w)[..., None, :]) @ q.mT


class SPD(Manifold):
    """SPD(n) under the affine-invariant (trace) metric."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("matrix size must be >= 2")
        self.n = int(n)
        self.dim = n * (n + 1) // 2
        self.ambient = n * n
        self.curvature_lo = -0.5
        self.curvature_hi = 0.0

    def _signature(self):
        return ("SPD", self.n)

    def _mat(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x.reshape(x.shape[:-1] + (self.n, self.n))

    def _vec(self, m: np.ndarray) -> np.ndarray:
        return m.reshape(m.shape[:-2] + (self.ambient,))

    # -- representation --------------------------------------------------
    def point_defect(self, x):
        m = self._mat(x)
        asym = np.abs(m - m.mT).max(axis=(-2, -1))
        try:
            np.linalg.cholesky(_sym(m))
        except np.linalg.LinAlgError:
            raise ContractViolation("matrix is not positive definite") from None
        return _scalar(asym)

    def project(self, x):
        return self._vec(_sym(self._mat(x)))

    def tangent_defect(self, x, v):
        m = self._mat(v)
        return _scalar(np.abs(m - m.mT).max(axis=(-2, -1)))

    def project_tangent(self, x, v):
        return self._vec(_sym(self._mat(v)))

    # -- geometry ---------------------------------------------------------
    def _sqrt_pair(self, p: np.ndarray):
        """(p^{1/2}, p^{-1/2}) via one eigendecomposition."""
        w, q = np.linalg.eigh(p)
        w = np.maximum(w, 1e-300)
        rw = np.sqrt(w)[..., None, :]
        return (q * rw) @ q.mT, (q / rw) @ q.mT

    def exp(self, x, v):
        p, u = self._mat(x), self._mat(v)
        rp, irp = self._sqrt_pair(p)
        inner = _sym(irp @ u @ irp)
        return self._vec(_sym(rp @ _eigh_fun(inner, np.exp) @ rp))

    def log(self, x, y):
        p, q = self._mat(x), self._mat(y)
        rp, irp = self._sqrt_pair(p)
        inner = _sym(irp @ q @ irp)
        return self._vec(_sym(rp @ _eigh_fun(inner, np.log) @ rp))

    def transport(self, x, y, u):
        # congruence by E = p^{1/2} (p^{-1/2} q p^{-1/2})^{1/2} p^{-1/2}
        p, q = self._mat(x), self._mat(y)
        rp, irp = self._sqrt_pair(p)
        mid = _eigh_fun(_sym(irp @ q @ irp), np.sqrt)
        e = rp @ mid @ irp
        return self._vec(_sym(e @ self._mat(u) @ e.mT))

    def inner(self, x, u, v):
        # one call solves for u and v: the same per-matrix LAPACK solve, less overhead
        rhs = np.stack(np.broadcast_arrays(self._mat(u), self._mat(v)))
        a, b = np.linalg.solve(self._mat(x), rhs)
        return _scalar(np.trace(a @ b, axis1=-2, axis2=-1))

    def dist(self, x, y):
        p, q = self._mat(x), self._mat(y)
        _, irp = self._sqrt_pair(p)
        w = np.linalg.eigvalsh(_sym(irp @ q @ irp))
        return _scalar(_euclidean_norm(np.log(np.maximum(w, 1e-300))))

    def random_point(self, rng):
        """exp at the identity of a random symmetric matrix (spread ~ 0.7)."""
        g = rng.standard_normal((self.n, self.n))
        s = _sym(g) * (0.5 / np.sqrt(self.n))
        return self._vec(_eigh_fun(s, np.exp))

    def anchor(self) -> np.ndarray:
        return self._vec(np.eye(self.n))
