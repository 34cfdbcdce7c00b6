"""One-iteration updates for the extragradient family on manifolds.

Every step has the signature ``step(prob, z, eta, f_z, stale)`` and
returns a :class:`Step` record.  The caller passes the fields it holds:
``f_z`` = F(z) for the methods that start from it (None for RPEG), and
``stale`` = the (point, F(point)) pair of the last step, for the methods
that reuse a past field (None for the rest; seed it with (z_0, F(z_0))).
A step evaluates F only at its own exploratory point.  F at the next
iterate is the caller's to evaluate, once, for its records and for the
next call; with each record's ``stale`` handed on, F is evaluated once per
point.

Notation: z is the main iterate, z~ the half (exploratory) iterate,
T_{a->b} parallel transport, eta the step size.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..manifolds import ops
from ..manifolds.base import Point, Tangent
from ..problems.core import VectorFieldProblem

__all__ = ["Step", "reg_step", "rpeg_step", "rceg_step", "rogda_step", "rgda_step"]


class Step(NamedTuple):
    """What one update produced."""

    z_tilde: Point                    # exploratory point; z+ for one-point methods
    z_next: Point
    f_tilde: Optional[Tangent] = None  # F(z~), when z~ is a point of its own
    probe: Optional[Tangent] = None    # tangent at z carried around z -> z~ -> z+
    stale: Optional[tuple] = None      # (point, F(point)) the next step reuses


def reg_step(prob: VectorFieldProblem, z: Point, eta: float,
             f_z: Tangent, stale: tuple | None) -> Step:
    """Extragradient:  z~ = exp_z(-eta F(z));  z+ = exp_z(-eta T_{z~->z} F(z~))."""
    z_tilde = ops.exp_map(z, f_z * (-eta))
    f_tilde = prob.field(z_tilde)
    z_next = ops.exp_map(z, ops.transport(z_tilde, z, f_tilde) * (-eta))
    return Step(z_tilde, z_next, f_tilde, probe=f_z)


def rpeg_step(prob: VectorFieldProblem, z: Point, eta: float,
              f_z: Tangent | None, stale: tuple) -> Step:
    """Past extragradient: the exploratory step reuses the previous half-field.

    z~ = exp_z(-eta T_{z~prev->z} F(z~prev));  z+ = exp_z(-eta T_{z~->z} F(z~)),
    with ``stale`` = (z~prev, F(z~prev)).  Exactly one fresh field evaluation
    per call, and the method never needs F(z).
    """
    tilde_prev, f_tilde_prev = stale
    stale_at_z = ops.transport(tilde_prev, z, f_tilde_prev)
    z_tilde = ops.exp_map(z, stale_at_z * (-eta))
    f_tilde = prob.field(z_tilde)
    z_next = ops.exp_map(z, ops.transport(z_tilde, z, f_tilde) * (-eta))
    return Step(z_tilde, z_next, f_tilde, probe=stale_at_z,
                stale=(z_tilde, f_tilde))


def rceg_step(prob: VectorFieldProblem, z: Point, eta: float,
              f_z: Tangent, stale: tuple | None) -> Step:
    """Corrected extragradient: the second step is taken from the half-iterate.

    z~ = exp_z(-eta F(z));  z+ = exp_{z~}(-eta F(z~) + log_{z~} z).
    """
    z_tilde = ops.exp_map(z, f_z * (-eta))
    f_tilde = prob.field(z_tilde)
    move = f_tilde * (-eta) + ops.log_map(z_tilde, z)
    z_next = ops.exp_map(z_tilde, move)
    return Step(z_tilde, z_next, f_tilde, probe=f_z)


def rogda_step(prob: VectorFieldProblem, z: Point, eta: float,
               f_z: Tangent, stale: tuple) -> Step:
    """Optimistic update on the half-iterate sequence only.

    z+ = exp_z(-2 eta F(z) + eta T_{zprev->z} F(zprev)), with ``stale`` =
    (zprev, F(zprev)).  The iterates are the exploratory points, so the
    method's one fresh evaluation per iteration is the caller's F(z+).
    """
    z_prev, f_prev = stale
    move = f_z * (-2.0 * eta) + ops.transport(z_prev, z, f_prev) * eta
    z_next = ops.exp_map(z, move)
    return Step(z_next, z_next, stale=(z, f_z))


def rgda_step(prob: VectorFieldProblem, z: Point, eta: float,
              f_z: Tangent, stale: tuple | None) -> Step:
    """Plain forward step z+ = exp_z(-eta F(z)) (divergent on bilinear saddles)."""
    z_next = ops.exp_map(z, f_z * (-eta))
    return Step(z_next, z_next)
