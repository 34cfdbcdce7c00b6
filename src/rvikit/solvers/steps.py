"""One-iteration updates for the extragradient family on manifolds.

All steps consume a :class:`VectorFieldProblem` and typed points, and
return the new half-iterate/iterate pair.  Passing ``cache`` (a dict)
lets the driver reuse field evaluations across an iteration boundary;
the update rules themselves never evaluate the field twice at one point.

Notation: z is the main iterate, z~ the half (exploratory) iterate,
T_{a->b} parallel transport, eta the step size.
"""

from __future__ import annotations

from ..manifolds import ops
from ..manifolds.base import Point, Tangent
from ..problems.core import VectorFieldProblem

__all__ = ["reg_step", "rpeg_step", "rceg_step", "rogda_step", "rgda_step"]


def reg_step(prob: VectorFieldProblem, z: Point, eta: float,
             f_z: Tangent | None = None, cache: dict | None = None):
    """Extragradient:  z~ = exp_z(-eta F(z));  z+ = exp_z(-eta T_{z~->z} F(z~))."""
    if f_z is None:
        f_z = prob.field(z)
    z_tilde = ops.exp_map(z, f_z * (-eta))
    f_tilde = prob.field(z_tilde)
    pulled = ops.transport(z_tilde, z, f_tilde)
    z_next = ops.exp_map(z, pulled * (-eta))
    if cache is not None:
        cache.update(f_z=f_z, f_tilde=f_tilde)
    return z_tilde, z_next


def rpeg_step(prob: VectorFieldProblem, z: Point, z_tilde_prev: Point,
              eta: float, f_tilde_prev: Tangent | None = None,
              cache: dict | None = None):
    """Past extragradient: the exploratory step reuses the previous half-field.

    z~ = exp_z(-eta T_{z~prev->z} F(z~prev));  z+ = exp_z(-eta T_{z~->z} F(z~)).
    Exactly one fresh field evaluation per call when ``f_tilde_prev`` is
    supplied (seed the recursion with z~_{-1} = z_0).
    """
    if f_tilde_prev is None:
        f_tilde_prev = prob.field(z_tilde_prev)
    stale = ops.transport(z_tilde_prev, z, f_tilde_prev)
    z_tilde = ops.exp_map(z, stale * (-eta))
    f_tilde = prob.field(z_tilde)
    pulled = ops.transport(z_tilde, z, f_tilde)
    z_next = ops.exp_map(z, pulled * (-eta))
    if cache is not None:
        cache.update(f_tilde=f_tilde, stale_at_z=stale)
    return z_tilde, z_next


def rceg_step(prob: VectorFieldProblem, z: Point, eta: float,
              f_z: Tangent | None = None, cache: dict | None = None):
    """Corrected extragradient: the second step is taken from the half-iterate.

    z~ = exp_z(-eta F(z));  z+ = exp_{z~}(-eta F(z~) + log_{z~} z).
    """
    if f_z is None:
        f_z = prob.field(z)
    z_tilde = ops.exp_map(z, f_z * (-eta))
    f_tilde = prob.field(z_tilde)
    move = f_tilde * (-eta) + ops.log_map(z_tilde, z)
    z_next = ops.exp_map(z_tilde, move)
    if cache is not None:
        cache.update(f_z=f_z, f_tilde=f_tilde)
    return z_tilde, z_next


def rogda_step(prob: VectorFieldProblem, z_tilde: Point, z_tilde_prev: Point,
               eta: float, f_tilde_prev: Tangent | None = None,
               cache: dict | None = None):
    """Optimistic update on the half-iterate sequence only.

    z~+ = exp_{z~}(-2 eta F(z~) + eta T_{z~prev->z~} F(z~prev)).
    One fresh evaluation per call when ``f_tilde_prev`` is supplied.
    """
    if f_tilde_prev is None:
        f_tilde_prev = prob.field(z_tilde_prev)
    f_here = prob.field(z_tilde)
    stale = ops.transport(z_tilde_prev, z_tilde, f_tilde_prev)
    move = f_here * (-2.0 * eta) + stale * eta
    z_next = ops.exp_map(z_tilde, move)
    if cache is not None:
        cache.update(f_tilde=f_here)
    return z_next


def rgda_step(prob: VectorFieldProblem, z: Point, eta: float,
              f_z: Tangent | None = None, cache: dict | None = None):
    """Plain forward step z+ = exp_z(-eta F(z)) (divergent on bilinear saddles)."""
    if f_z is None:
        f_z = prob.field(z)
    z_next = ops.exp_map(z, f_z * (-eta))
    if cache is not None:
        cache.update(f_z=f_z)
    return z_next
