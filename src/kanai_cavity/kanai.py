"""Exact quantum side: damped-oscillator propagator and the cavity mapping.

The damped harmonic oscillator

    i hbar dpsi/dt = -(hbar^2 / 2m) e^{-g(t)} psi_xx
                     + (m omega^2 / 2) e^{+g(t)} x^2 psi

is solved exactly by rescaling a free-particle solution phi:

    psi(x, t) = u2^{-1/2} exp[ i m u2' x^2 / (2 hbar W u2) ] phi(x/u2, u1/u2)

where (u1, u2) are the classical fundamental solutions, W = u2' u1 - ...
their damped Wronskian e^{-g}, and phi solves i hbar phi_T = -(hbar^2/2m)
phi_XX.  The cavity realizes the same equation with

    hbar_eff = 1/k,   m_eff = (1/theta) sqrt(-c(0)/b(0)),   omega = theta,

and t measured in round trips, which this module makes available as a
parameter map plus an engine cross-check (analytic propagator against
diffraction round trips, with the ray centroid from ``iterate_ray``).
"""

import cmath
import math

import numpy as np

from .core import fundamental_solutions
from .errors import (MappingError, NearCausticError, NumericalError,
                     ValidationError)
from .paraxial import round_trip_matrix, stability
from .wavesim import (DEFAULT_GRID_N, DEFAULT_WINDOW_FACTOR, ComplexField,
                      GaussianBeam, _gaussian, eigenmode_beam,
                      fresnel_round_trip, grid_trips, phase_aligned_l2,
                      sample_beam, spot_size)


class QuantumParams:
    """Effective quantum constants realized by a cavity geometry."""

    __slots__ = ("hbar_eff", "mass_eff", "omega")

    def __init__(self, hbar_eff, mass_eff, omega):
        if hbar_eff <= 0.0 or mass_eff <= 0.0 or omega <= 0.0:
            raise ValidationError("hbar_eff, mass_eff, omega must be > 0")
        self.hbar_eff = float(hbar_eff)
        self.mass_eff = float(mass_eff)
        self.omega = float(omega)

    def __repr__(self):
        return "QuantumParams(hbar_eff=%r, mass_eff=%r, omega=%r)" % (
            self.hbar_eff, self.mass_eff, self.omega)


def map_parameters(geom0, wavelength):
    """Map a stable geometry and wavelength to effective quantum constants.

    hbar_eff = 1/k = wavelength / (2 pi); the effective mass comes from the
    round-trip elements at the left mirror, m = (1/theta) sqrt(-c/b), which
    is positive strictly inside the stability domain (b c = a^2 - 1 < 0 with
    b < 0 in the supported domain).
    """
    m = round_trip_matrix(geom0)
    info = stability(m)
    if not info.stable or info.marginal:
        raise MappingError(
            "parameter map needs a strictly stable geometry; "
            "a = %g" % info.a)
    if not (m.b < 0.0 and m.c > 0.0):
        raise MappingError(
            "parameter map supports the b < 0 stability domain only; "
            "b = %g, c = %g" % (m.b, m.c))
    hbar_eff = wavelength / (2.0 * math.pi)
    mass_eff = math.sqrt(-m.c / m.b) / info.theta
    return QuantumParams(hbar_eff, mass_eff, info.theta)


class GaussianWavepacket:
    """Normalized free Gaussian initial condition.

    ``width`` is the position standard deviation at T = 0, ``center`` and
    ``momentum`` the initial first moments.
    """

    __slots__ = ("width", "center", "momentum")

    def __init__(self, width, center=0.0, momentum=0.0):
        width = float(width)
        if width <= 0.0:
            raise ValidationError("width must be > 0")
        self.width = width
        self.center = float(center)
        self.momentum = float(momentum)


def free_gaussian(packet, x, t, hbar, mass):
    """Closed-form spreading Gaussian solving i hbar phi_t = -(hbar^2/2m) phi_xx.

    Moments: center(t) = center + momentum t / m and
    width(t)^2 = width^2 + (hbar t / (2 m width))^2.  Normalized for all t.
    """
    x = np.asarray(x, dtype=float)
    sigma = packet.width
    spread = 1.0 + 1j * hbar * t / (2.0 * mass * sigma * sigma)
    x_c = packet.center + packet.momentum * t / mass
    norm = (2.0 * math.pi * sigma * sigma) ** (-0.25)
    phase = (packet.momentum * x / hbar
             - packet.momentum ** 2 * t / (2.0 * mass * hbar))
    return (norm / np.sqrt(spread)
            * np.exp(-(x - x_c) ** 2 / (4.0 * sigma * sigma * spread)
                     + 1j * phase))


def _uniform_grid(x):
    """``x`` as a float array and its spacing over the whole grid, which
    carries a rounding of one step, not of the step's position; the grid
    must be uniform."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValidationError("x must be a 1-d grid with >= 2 points")
    dx = (x[-1] - x[0]) / (x.size - 1)
    if dx <= 0.0 or np.max(np.abs(np.diff(x) - dx)) > 1e-9 * dx:
        raise ValidationError("x must be uniformly increasing")
    return x, float(dx)


def kanai_propagate(packet, sol, params, x, n):
    """Evaluate the exact damped-oscillator wavefunction at trip n on a grid.

    ``x`` must be a uniform grid with power-of-two length (the result is a
    :class:`ComplexField` whose wavelength encodes hbar_eff = 1/k).  Norm is
    preserved for any n; near a caustic (|u2| <= 1e-12) the prefactor
    diverges and :class:`NearCausticError` is raised.

    The chirp exp(i m u2' x^2 / (2 hbar W u2)), the prefactor u2^{-1/2} and
    the free Gaussian at (x/u2, u1/u2) (see :func:`free_gaussian`) multiply
    to one exp((alpha x + beta) x + c) with complex scalars alpha, beta, c.
    When those or the samples are not finite (W = e^{-g} underflows at large
    g) :class:`NumericalError` is raised.
    """
    x, dx = _uniform_grid(x)
    n = float(n)
    u2, u1, du2, _ = sol._eval(n)
    w_ronskian = float(np.exp(-sol.friction.evaluate(n)[0]))
    return _propagate(packet, params, (x.size, float(x[0]), dx,
                                       float(x[x.size // 2])),
                      n, u1, u2, du2, w_ronskian)


def _propagate(packet, params, grid, n, u1, u2, du2, w_ronskian,
               frame=None):
    """:func:`kanai_propagate` from the float values of u1, u2, u2' and W
    at trip n, on the ``grid`` (size, x0, dx, x_mid) of the points x0 +
    j dx, x_mid = x0 + (size // 2) dx.  With the pending chirp rate
    ``frame`` of a Fresnel output on the same grid, the field is returned
    in that chirp frame (see :func:`wavesim._gaussian`)."""
    if abs(u2) <= 1e-12:
        raise NearCausticError(
            "caustic at n = %g: |u2| = %g" % (n, abs(u2)))
    if w_ronskian == 0.0:
        raise NumericalError(
            "analytic propagator: W = e^{-g} underflows at n = %g" % n)
    hbar = params.hbar_eff
    mass = params.mass_eff
    momentum = packet.momentum
    sigma_sq = packet.width * packet.width
    t = u1 / u2
    spread = 1.0 + 1j * hbar * t / (2.0 * mass * sigma_sq)
    x_c = packet.center + momentum * t / mass
    q = 1.0 / (4.0 * sigma_sq * spread)
    amplitude = ((u2 + 0j) ** (-0.5) * (2.0 * math.pi * sigma_sq) ** (-0.25)
                 / cmath.sqrt(spread))
    alpha = (1j * mass * du2 / (2.0 * hbar * w_ronskian * u2)
             - q / (u2 * u2))
    beta = (2.0 * q * x_c + 1j * momentum / hbar) / u2
    c = (cmath.log(amplitude) - q * x_c * x_c
         - 1j * momentum * momentum * t / (2.0 * mass * hbar))
    if not all(map(cmath.isfinite, (alpha, beta, c))):
        raise NumericalError(
            "analytic propagator coefficients are not finite at n = %g" % n)
    size, x0, dx, x_mid = grid
    samples = _gaussian(size, x_mid, dx, alpha, beta, c, frame)
    if not np.all(np.isfinite(samples)):
        raise NumericalError(
            "analytic propagator samples are not finite at n = %g" % n)
    return ComplexField(samples, dx, x0, 2.0 * math.pi * hbar,
                        None if frame is None else (frame, 1.0))


def moments(packet, sol, params, n):
    """Mean position and width of the damped-oscillator state at trip n.

    Returns ``(x_mean, delta_x)`` with
    x_mean = center u2 + (momentum/m) u1 and
    delta_x = sqrt( (u2 width)^2 + (hbar u1 / (2 m width))^2 ),
    both vectorized over n.  An array n can differ from scalar calls in
    the last bit of delta_x: numpy squares an array with ``square`` but a
    scalar with ``pow``, and the two round differently on a few inputs.
    """
    n = np.asarray(n, dtype=float)
    u2, u1 = sol._eval(n)[:2]
    x_mean, delta_x = _moments(packet, params, np.asarray(u1), np.asarray(u2))
    if n.ndim == 0:
        return float(x_mean), float(delta_x)
    return x_mean, delta_x


def _moments(packet, params, u1, u2):
    """:func:`moments` from the values of u1 and u2."""
    x_mean = packet.center * u2 + packet.momentum * u1 / params.mass_eff
    sigma = packet.width
    delta_x = np.sqrt((u2 * sigma) ** 2
                      + (params.hbar_eff * u1
                         / (2.0 * params.mass_eff * sigma)) ** 2)
    return x_mean, delta_x


def cavity_equation_coefficients(b0, c0, theta, k, g):
    """Kinetic and potential coefficients of the continuous-time cavity equation.

    i dpsi/dn = kin psi_xx + pot x^2 psi with kin = theta b(n)/(2 k sin theta)
    and pot = k theta c(n)/(2 sin theta), where b(n) = b0 e^{-g},
    c(n) = c0 e^{+g}.
    """
    sin_theta = math.sin(theta)
    kin = theta * b0 * math.exp(-g) / (2.0 * k * sin_theta)
    pot = k * theta * c0 * math.exp(g) / (2.0 * sin_theta)
    return kin, pot


def quantum_equation_coefficients(params, g):
    """The same coefficients from the quantum constants.

    kin = -(hbar/2m) e^{-g} and pot = (m omega^2 / 2 hbar) e^{+g}; equality
    with :func:`cavity_equation_coefficients` is the content of the
    parameter map (it reduces to b0 c0 = a^2 - 1 = -sin^2 theta).
    """
    kin = -params.hbar_eff * math.exp(-g) / (2.0 * params.mass_eff)
    pot = (params.mass_eff * params.omega ** 2 * math.exp(g)
           / (2.0 * params.hbar_eff))
    return kin, pot


def crosscheck_engines(sched, wavelength, n_max, center=0.0, tilt=0.0,
                       width_scale=1.0, grid_n=DEFAULT_GRID_N,
                       window_factor=DEFAULT_WINDOW_FACTOR):
    """Propagate one Gaussian through the analytic and diffraction engines.

    The initial state is the ``sched.geom0`` eigenmode (optionally width-scaled,
    displaced by ``center`` and tilted by ``tilt``); the mapped wavepacket
    starts with the matching width sigma = w/2, the same center, and
    momentum = -tilt.  For each trip the report records the phase-aligned
    relative L2 distance between the fields plus both engines' centroids and
    widths (sigma convention).

    Returns a list of dicts
    {n, l2_distance, centroid_wave, centroid_analytic, width_wave,
    width_analytic}.
    """
    n_max = int(n_max)
    if n_max < 0:
        raise ValidationError("n_max must be >= 0")
    params = map_parameters(sched.geom0, wavelength)
    beam = GaussianBeam(eigenmode_beam(round_trip_matrix(sched.geom0)).q
                        * (width_scale * width_scale), center=center, tilt=tilt)
    packet = GaussianWavepacket(beam.spot_size(wavelength) / 2.0,
                                center=center, momentum=-tilt)
    # At n_max = 0 only n = 0 is read, but an integrated window must be
    # positive and inside a tabulated friction range.
    sol = fundamental_solutions(params.omega, sched.friction,
                                n_max=n_max or min(1.0, sched.friction.n_max))

    # The classical side over every trip at once; each trip reads its
    # values, which equal the scalar evaluations bit for bit.
    trips = np.arange(n_max + 1, dtype=float)
    u2, u1, du2, _ = sol._eval(trips)
    w_ronskian = np.exp(-sched.friction.evaluate(trips)[0])

    field = sample_beam(beam, wavelength, grid_n, window_factor=window_factor)
    records = []
    for n, field in enumerate(grid_trips(sched, field, n_max,
                                         fresnel_round_trip)):
        # in the wave field's chirp frame, the inner product needs no chirp
        grid = (field.n_samples, field.x0, field.dx,
                field.x0 + (field.n_samples // 2) * field.dx)
        analytic = _propagate(packet, params, grid, float(n), float(u1[n]),
                              float(u2[n]), float(du2[n]),
                              float(w_ronskian[n]), field._rate)
        # numpy scalars, as in a scalar moments() call (see its docstring)
        x_mean, delta_x = _moments(packet, params, u1[n], u2[n])
        records.append({
            "n": n,
            "l2_distance": phase_aligned_l2(analytic, field),
            "centroid_wave": field.centroid(),
            "centroid_analytic": float(x_mean),
            "width_wave": spot_size(field) / 2.0,
            "width_analytic": float(delta_x),
        })
    return records
