"""Independent oracles, and earlier kernels the package has replaced.

* :func:`integrate_schedule_ode` integrates the mirror-velocity system whose
  closed-form solution :class:`kanai_cavity.schedule.MirrorSchedule` uses;
* :func:`count_stable_domains` counts the connected stable domains of a
  :class:`kanai_cavity.paraxial.StabilityMap` raster;
* :func:`trip_flow` and :func:`node_grid_solution` are the damped-oscillator
  flows the gaussian_q engine and the ODE branch of
  :func:`kanai_cavity.core.fundamental_solutions` read before both moved to
  one step grid: a fixed 1/8-trip grid composed trip by trip, and a grid of
  equal steps between table nodes carried one step at a time.

The first two need scipy, which the package does not import.
"""

import numpy as np
from scipy import ndimage
from scipy.integrate import solve_ivp

from kanai_cavity.core import (ClassicalSolution, _oscillator_steps,
                               flow_products)
from kanai_cavity.errors import NumericalError, ValidationError
from kanai_cavity.schedule import MirrorSchedule


class SingularJacobianError(NumericalError):
    """Jacobian of the matrix elements w.r.t. mirror positions is singular."""


def _schedule_rhs_factory(friction, f):
    def rhs(n, y):
        s1, s2 = y[0] / f, y[1] / f
        _, gdot = friction.evaluate(n)
        h = s1 + s2 - s1 * s2
        b = 2.0 * (1.0 - s1) * h
        c = -2.0 * (1.0 - s2)
        db_ds1 = -2.0 * h + 2.0 * (1.0 - s1) * (1.0 - s2)
        db_ds2 = 2.0 * (1.0 - s1) ** 2
        dc_ds2 = 2.0
        det = db_ds1 * dc_ds2
        if abs(det) < 1e-12:
            raise SingularJacobianError(
                "Jacobian of (b, c) w.r.t. (l1, l2) is singular at "
                "n=%g, l1/f=%g, l2/f=%g" % (n, s1, s2))
        ds2 = c * gdot / dc_ds2
        ds1 = (-b * gdot - db_ds2 * ds2) / db_ds1
        return [ds1 * f, ds2 * f]
    return rhs


def integrate_schedule_ode(geom0, friction, n_max, dn, rtol=1e-10, atol=1e-12):
    """Integrate the mirror-velocity system as an independent oracle.

    The system is dL/dn = J^{-1} (-b, c)^T gdot with J the Jacobian of
    (b, c) with respect to (l1, l2); its solution must agree with the
    closed-form trajectories.  Returns (n_values, l1_values, l2_values).
    """
    if n_max <= 0.0 or dn <= 0.0:
        raise ValidationError("n_max and dn must be positive")
    MirrorSchedule(geom0, friction)  # validates the initial state
    n_values = np.arange(0.0, float(n_max) + 0.5 * dn, dn)
    rhs = _schedule_rhs_factory(friction, geom0.f)
    result = solve_ivp(rhs, (0.0, float(n_values[-1])), [geom0.l1, geom0.l2],
                       method="DOP853", t_eval=n_values, rtol=rtol, atol=atol)
    if not result.success:
        raise ValidationError("schedule ODE integration failed: %s" % result.message)
    return result.t, result.y[0], result.y[1]


def count_stable_domains(raster):
    """Number of 4-connected components of the raster's strictly stable set.

    Strict interior |a| < 1 is used so that isolated marginal points on
    the |a| = 1 boundary cannot bridge two domains.
    """
    interior = np.abs(raster.a_values) < 1.0
    structure = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
    _, count = ndimage.label(interior, structure=structure)
    return count


def trip_flow(friction, omega_sq, n_max):
    """(u2, u1, u2', u1') at the integer trips 0 ... n_max, fixed step.

    Each trip's 8 steps of the Magnus flow are composed in step order, for
    all trips at once, and :func:`flow_products` carries the per-trip
    matrices from trip to trip, one at a time.  Table nodes do not end
    steps.
    """
    t = np.arange(n_max * 8 + 1) / 8
    steps = [e.reshape(n_max, 8).T for e in
             _oscillator_steps(friction, omega_sq, t[:-1], t[1:])]
    p11, p12, p21, p22 = (e[0] for e in steps)
    for e11, e12, e21, e22 in zip(*(e[1:] for e in steps)):
        p11, p12, p21, p22 = (e11 * p11 + e12 * p21, e11 * p12 + e12 * p22,
                              e21 * p11 + e22 * p21, e21 * p12 + e22 * p22)
    return flow_products((p11, p12, p21, p22))


def node_grid_solution(params, n_max):
    """The ODE branch on its per-node grid, as a ``ClassicalSolution``.

    Each interval between interior table nodes (and 0 and ``n_max``) is cut
    into ceil(8 length) equal steps, doubled until two levels agree at the
    coarse step ends to 1e-11 of max |Phi|, at most six times; every step
    is carried one at a time in scalar arithmetic.
    """
    friction, omega_sq = params.friction, params.omega ** 2
    n_max = float(n_max)
    nodes = np.empty(0) if friction.nodes is None else friction.nodes
    interior = nodes[(nodes > 0.0) & (nodes < n_max)]
    breaks = np.concatenate(([0.0], interior, [n_max]))
    counts = np.maximum(1, np.ceil(np.diff(breaks) * 8)).astype(int)
    coarse = None
    with np.errstate(over="ignore", invalid="ignore"):
        for halving in range(7):
            t = np.concatenate(
                [np.linspace(lo, hi, m << halving, endpoint=False)
                 for lo, hi, m in zip(breaks[:-1], breaks[1:], counts)]
                + [breaks[-1:]])
            phi = flow_products(
                _oscillator_steps(friction, omega_sq, t[:-1], t[1:]))
            if coarse is not None:
                change = np.max(np.abs(phi[::2] - coarse))
                if change <= 1e-11 * np.max(np.abs(phi)):
                    return ClassicalSolution(params, "ode", n_max=n_max,
                                             flow=(t, phi))
            coarse = phi
    raise NumericalError("the per-node grid did not converge (last change "
                         "%.3g)" % change)
