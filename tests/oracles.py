"""Independent oracles, and earlier kernels the package has replaced.

* :func:`propagation` and :func:`thin_lens` are the elementary ray
  matrices whose composition :func:`kanai_cavity.paraxial.half_trip_matrix`
  writes out in closed form;
* :func:`integrate_schedule_ode` integrates the mirror-velocity system whose
  closed-form solution :class:`kanai_cavity.schedule.MirrorSchedule` uses;
* :func:`count_stable_domains` counts the connected stable domains of a
  :class:`kanai_cavity.paraxial.StabilityMap` raster, and
  :func:`raster_columns` flattens one into its CSV columns;
* :func:`stepwise_products` is the running product of 2x2 step matrices
  that :func:`kanai_cavity.core.flow_products` formed before its prefix
  scan: block by block, with a scalar loop carrying the start from block
  end to block end;
* :func:`trip_flow` and :func:`node_grid_solution` are the damped-oscillator
  flows the gaussian_q engine and the ODE branch of
  :func:`kanai_cavity.core.fundamental_solutions` read before both moved to
  one step grid: a fixed 1/8-trip grid composed trip by trip, and a grid of
  equal steps between table nodes carried one step at a time;
* :func:`iterate_ray_difference` and :func:`characteristic_roots` are the
  constant-friction scalar recurrence of the ray displacement and its
  roots, against which the matrix-iterated rays are checked;
* :func:`mirror_speed_estimate` puts a schedule's right-mirror speed in
  metres per second;
* :func:`centered_grid` and :func:`overlap` are the grid and the
  normalised inner product the wave tests compare fields on.

The first two need scipy, which the package does not import.
"""

import math

import numpy as np
from scipy import ndimage
from scipy.integrate import solve_ivp

from kanai_cavity.core import ClassicalSolution, _oscillator_steps, _times
from kanai_cavity.errors import NumericalError, ValidationError
from kanai_cavity.paraxial import AbcdMatrix
from kanai_cavity.schedule import MirrorSchedule
from kanai_cavity.wavesim import inner_product

#: Speed of light in vacuum, m/s (exact by the SI definition of the metre).
SPEED_OF_LIGHT = 299792458.0


def propagation(d):
    """Free propagation over distance ``d >= 0``."""
    if d is None or d < 0.0:
        raise ValidationError("propagation distance must be >= 0")
    return AbcdMatrix(1.0, float(d), 0.0, 1.0)


def thin_lens(f):
    """Thin lens of focal length ``f != 0``."""
    if f is None or f == 0.0:
        raise ValidationError("thin lens requires a nonzero focal length")
    return AbcdMatrix(1.0, 0.0, -1.0 / float(f), 1.0)


class SingularJacobianError(NumericalError):
    """Jacobian of the matrix elements w.r.t. mirror positions is singular."""


def _schedule_rhs_factory(friction):
    def rhs(n, y):
        s1, s2 = y
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
        return [ds1, ds2]
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
    rhs = _schedule_rhs_factory(friction)
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


def raster_columns(raster):
    """Flat (l1/f, l2/f, stable, theta) columns, l1 outer, l2 inner."""
    n1, n2 = raster.l1_values.size, raster.l2_values.size
    return (np.repeat(raster.l1_values, n2), np.tile(raster.l2_values, n1),
            raster.stable.ravel(), raster.theta.ravel())


def stepwise_products(steps, start=(1.0, 0.0, 0.0, 1.0), block=1):
    """Running products of 2x2 step matrices, applied in step order.

    ``steps`` holds the entries ``(e11, e12, e21, e22)`` of the step
    matrices E_0 ... E_{K-1} as arrays.  Returns a (K+1, 4) array whose row
    k holds the entries (p11, p12, p21, p22) of E_{k-1} ... E_0 S, where
    ``start`` holds the entries of S (by default the identity) and is row
    0.  The running products inside each block of ``block`` steps are
    formed for all blocks at once, and a scalar loop carries S from block
    end to block end; with ``block = 1`` every product is formed one step
    at a time, so its rounding does not depend on how the step matrices
    were computed.
    """
    k = len(steps[0])
    # identity steps pad the last block; their rows are dropped
    run = np.zeros((4, -(-k // block) * block))
    run[::3, k:] = 1.0
    run[:, :k] = steps
    run = run.reshape(4, -1, block)
    for j in range(1, block):
        run[:, :, j] = _times(run[:, :, j], run[:, :, j - 1])
    ends = [float(x) for x in start]
    p11, p12, p21, p22 = ends
    for e11, e12, e21, e22 in zip(*run[:, :, -1].tolist()):
        p11, p12, p21, p22 = (e11 * p11 + e12 * p21, e11 * p12 + e12 * p22,
                              e21 * p11 + e22 * p21, e21 * p12 + e22 * p22)
        ends += (p11, p12, p21, p22)
    ends = np.array(ends).reshape(-1, 4).T
    run[:, :, :-1] = _times(run[:, :, :-1], ends[:, :-1, None])
    run[:, :, -1] = ends[:, 1:]
    return np.concatenate((ends[:, :1], run.reshape(4, -1)[:, :k]), axis=1).T


def trip_flow(friction, omega_sq, n_max):
    """(u2, u1, u2', u1') at the integer trips 0 ... n_max, fixed step.

    Each trip's 8 steps of the Magnus flow are composed in step order, for
    all trips at once, and :func:`stepwise_products` carries the per-trip
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
    return stepwise_products((p11, p12, p21, p22))


def node_grid_solution(omega, friction, n_max):
    """The ODE branch on its per-node grid, as a ``ClassicalSolution``.

    Each interval between interior table nodes (and 0 and ``n_max``) is cut
    into ceil(8 length) equal steps, doubled until two levels agree at the
    coarse step ends to 1e-11 of max |Phi|, at most six times; every step
    is carried one at a time in scalar arithmetic.
    """
    omega_sq = omega ** 2
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
            phi = stepwise_products(
                _oscillator_steps(friction, omega_sq, t[:-1], t[1:]))
            if coarse is not None:
                change = np.max(np.abs(phi[::2] - coarse))
                if change <= 1e-11 * np.max(np.abs(phi)):
                    return ClassicalSolution(omega, friction, "ode",
                                             n_max=n_max, flow=(t, phi))
            coarse = phi
    raise NumericalError("the per-node grid did not converge (last change "
                         "%.3g)" % change)


def iterate_ray_difference(theta, gamma, x0, x1, n_max):
    """Constant-friction second-order recurrence for the displacement.

    Iterates x_{n+1} = cos(theta) (1 + e^{-gamma}) x_n - e^{-gamma} x_{n-1}
    from the seeds (x0, x1); returns the array x_0..x_{n_max}.  Seeded with
    the first two samples of a matrix-iterated trace it reproduces that
    trace to rounding error.
    """
    n_max = int(n_max)
    if n_max < 1:
        raise ValidationError("n_max must be >= 1")
    decay = math.exp(-float(gamma))
    coeff = math.cos(float(theta)) * (1.0 + decay)
    x = np.empty(n_max + 1)
    x[0], x[1] = float(x0), float(x1)
    prev, cur = x[0], x[1]
    for k in range(1, n_max):
        prev, cur = cur, coeff * cur - decay * prev
        x[k + 1] = cur
    return x


def characteristic_roots(theta, gamma):
    """Roots of mu^2 - cos(theta)(1 + e^{-gamma}) mu + e^{-gamma} = 0.

    For an underdamped cavity they form a complex-conjugate pair whose
    common modulus is exp(-gamma/2) (the product of the roots equals
    e^{-gamma}); the first root returned has nonnegative imaginary part.
    """
    decay = math.exp(-float(gamma))
    s = math.cos(float(theta)) * (1.0 + decay)
    disc = complex(s * s - 4.0 * decay)
    root = np.sqrt(disc)
    mu1 = (s + root) / 2.0
    mu2 = (s - root) / 2.0
    if mu1.imag < mu2.imag:
        mu1, mu2 = mu2, mu1
    return complex(mu1), complex(mu2)


def mirror_speed_estimate(sched, f_meters, n):
    """Physical right-mirror speed |dl2/dt| in meters per second.

    Uses the round-trip time T_R = (l1 + l2)/c_light as the unit of time per
    trip, so v = gdot * (l2 - f) / T_R; as l2 grows the speed approaches
    gdot * c_light.
    """
    f_meters = float(f_meters)
    if f_meters <= 0.0:
        raise ValidationError("physical focal length must be > 0")
    l1, l2 = sched.positions_at(float(n))
    l1_m, l2_m, f_m = l1 * f_meters, l2 * f_meters, f_meters
    _, gdot = sched.friction.evaluate(float(n))
    round_trip_time = (l1_m + l2_m) / SPEED_OF_LIGHT
    return abs(gdot) * (l2_m - f_m) / round_trip_time


def centered_grid(n, dx):
    """Grid of n points spaced dx, centered so that index n//2 sits at 0."""
    return (np.arange(n) - n // 2) * dx


def overlap(f1, f2):
    """Normalized modulus of the inner product, in [0, 1]."""
    ip = abs(inner_product(f1, f2))
    return ip / math.sqrt(f1.norm_sq() * f2.norm_sq())
