"""Independent oracles that need scipy, which the package does not import.

* :func:`integrate_schedule_ode` integrates the mirror-velocity system whose
  closed-form solution :class:`kanai_cavity.schedule.MirrorSchedule` uses;
* :func:`count_stable_domains` counts the connected stable domains of a
  :class:`kanai_cavity.paraxial.StabilityMap` raster.
"""

import numpy as np
from scipy import ndimage
from scipy.integrate import solve_ivp

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
